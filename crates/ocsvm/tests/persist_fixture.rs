//! The OCSV bytes of two small v3 models, pinned.
//!
//! The bytes below were written from the fixed training set of
//! [`training_set`] by the earlier two-type model code (one OC-SVM and one
//! SVDD model type, each with its own writer and reader). Training the same
//! models today must write exactly these bytes, and reading them must give
//! bit-identical decision values — so the format and every value a stored
//! profile yields survive a refactor of the model and its persistence.

use ocsvm::{Kernel, NuOcSvm, OneClassModel, SparseVector, Svdd};

/// A ν = 0.5 RBF (γ = 0.5) OC-SVM over [`training_set`].
const OCSVM_V3: &str = "\
    4f43535603000000c4d33ce74ea2e63f000000000000e03f02000000000000e03f06422d8549a00fa73f0300\
    000000000000f03f03000000000000e43f09000000000000d83f000000000000d03f0300000000000000f03f\
    04000000000000e83f09000000000000c03f000000000000d03f0300000000000000f03f02000000000000ec\
    3f09000000000000d83f8fd15fa34d1cb53f0300000000000000f03f04000000000000e43f09000000000000\
    d83fd097dd37e25bbf3f0300000000000000f03f02000000000000e83f09000000000000c03f000000000000\
    d03f0300000000000000f03f03000000000000ec3f09000000000000d83f010102030506070801949073df3f\
    a4d53f08061b0700\
";

/// A C = 0.25 linear SVDD over [`training_set`].
const SVDD_V3: &str = "\
    4f43535603010000b15b784b5b76d43f367c81f585b6f43f000000000000d03f0006dbe3504946789f3f0300\
    000000000000f03f03000000000000e43f09000000000000d83f000000000000d03f0300000000000000f03f\
    04000000000000e83f09000000000000c03f000000000000d03f0300000000000000f03f02000000000000ec\
    3f09000000000000d83fc005215fdeaab43f0300000000000000f03f04000000000000e43f09000000000000\
    d83fa460450788bbc13f0300000000000000f03f02000000000000e83f09000000000000c03f000000000000\
    d03f0300000000000000f03f03000000000000ec3f09000000000000d83f01010203050607090168af255a4d\
    50dcbf08061e0700\
";

/// `decision_value(probe).to_bits()` of each model over [`probes`].
const OCSVM_DECISIONS: [u64; 6] = [
    0xbf7ec637c8977880,
    0xbfd796ccc399c460,
    0xbfe695b6ac27c2cf,
    0xbfd24e6e4bf4103e,
    0x3f2fd7564b4b9000,
    0xbf3fd7564b4b9800,
];
const SVDD_DECISIONS: [u64; 6] = [
    0xbf8d072b8669a1e0,
    0xbffc2ce9137d869e,
    0xc0289d8314800ced,
    0xbfef31de4546ca94,
    0xbf2f8ee53d18b800,
    0x3f3f8ee53d18c400,
];

fn training_set() -> Vec<SparseVector> {
    (0..8)
        .map(|i| {
            SparseVector::from_pairs(vec![
                (0, 1.0),
                (2 + (i % 3), 0.5 + 0.125 * (i % 4) as f64),
                (9, 0.25 * (i % 2) as f64 + 0.125),
            ])
            .unwrap()
        })
        .collect()
}

/// Four unseen probes (one empty) and two training points, so both signs
/// of the decision occur.
fn probes() -> Vec<SparseVector> {
    let data = training_set();
    vec![
        SparseVector::from_pairs(vec![(0, 1.0), (3, 0.625), (9, 0.125)]).unwrap(),
        SparseVector::from_pairs(vec![(0, 0.5), (4, 1.5)]).unwrap(),
        SparseVector::from_pairs(vec![(1, 2.0), (9, 3.0)]).unwrap(),
        SparseVector::new(),
        data[1].clone(),
        data[6].clone(),
    ]
}

fn models() -> [(&'static str, OneClassModel, &'static str, [u64; 6]); 2] {
    let data = training_set();
    [
        (
            "OC-SVM",
            NuOcSvm::new(0.5, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap(),
            OCSVM_V3,
            OCSVM_DECISIONS,
        ),
        ("SVDD", Svdd::new(0.25, Kernel::Linear).train(&data).unwrap(), SVDD_V3, SVDD_DECISIONS),
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
}

#[test]
fn writer_reproduces_the_pinned_bytes() {
    for (name, model, hex, _) in models() {
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        assert_eq!(bytes, unhex(hex), "{name}");
    }
}

#[test]
fn reader_loads_the_pinned_bytes_to_bit_identical_decisions() {
    for (name, trained, hex, decisions) in models() {
        let loaded = OneClassModel::read_from(&mut unhex(hex).as_slice()).unwrap();
        assert_eq!(loaded.boundary(), trained.boundary(), "{name}");
        assert_eq!(loaded.regularization(), trained.regularization(), "{name}");
        assert_eq!(loaded.diagnostics(), trained.diagnostics(), "{name}");
        assert_eq!(loaded.support_vector_count(), 6, "{name}");
        let probes = probes();
        let refs: Vec<&SparseVector> = probes.iter().collect();
        let batch = loaded.batch_decision_values(&refs);
        for ((probe, &bits), value) in probes.iter().zip(&decisions).zip(batch) {
            assert_eq!(loaded.decision_value(probe).to_bits(), bits, "{name}");
            assert_eq!(trained.decision_value(probe).to_bits(), bits, "{name}");
            assert_eq!(value.to_bits(), bits, "{name}");
        }
    }
}

#[test]
fn sampled_backend_tag_still_loads_to_the_same_decisions() {
    // Tag 2 marked models of the removed sampled Frank–Wolfe backend. The
    // bytes before the tag define the decision function, so such a stored
    // profile must keep serving exactly as its tag-0 twin does.
    let exact = OneClassModel::read_from(&mut unhex(OCSVM_V3).as_slice()).unwrap();
    let mut bytes = unhex(OCSVM_V3);
    *bytes.last_mut().unwrap() = 2;
    let sampled = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
    assert_eq!(sampled.boundary(), exact.boundary());
    for (probe, &bits) in probes().iter().zip(&OCSVM_DECISIONS) {
        assert_eq!(sampled.decision_value(probe).to_bits(), bits);
        assert_eq!(exact.decision_value(probe).to_bits(), bits);
    }
}
