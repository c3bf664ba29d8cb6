//! Property-based tests for the one-class SVM crate: sparse-vector algebra,
//! kernel identities, and solver invariants (feasibility, ν-property,
//! SVDD geometry) over randomized inputs.

use ocsvm::{
    Boundary, Kernel, NuOcSvm, OneClassModel, ProbePanel, SolverOptions, SparseVector, Svdd,
};
use proptest::prelude::*;

/// Dense vectors with small dimension and bounded values so kernel values
/// stay well-conditioned.
fn dense_vec(dim: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-5.0f64..5.0, dim)
}

fn sparse(dim: usize) -> impl Strategy<Value = SparseVector> {
    dense_vec(dim).prop_map(|d| SparseVector::from_dense(&d))
}

fn clustered_training_set() -> impl Strategy<Value = Vec<SparseVector>> {
    // Points jittered around a shared center: the realistic one-class shape.
    (dense_vec(4), prop::collection::vec(dense_vec(4), 12..40)).prop_map(|(center, jitters)| {
        jitters
            .into_iter()
            .map(|j| {
                let point: Vec<f64> = center.iter().zip(&j).map(|(c, x)| c + 0.1 * x).collect();
                SparseVector::from_dense(&point)
            })
            .collect()
    })
}

fn any_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        Just(Kernel::Linear),
        (0.1f64..2.0).prop_map(|gamma| Kernel::Rbf { gamma }),
        (0.1f64..1.0, 0.0f64..1.0).prop_map(|(gamma, coef0)| Kernel::Polynomial {
            gamma,
            coef0,
            degree: 2
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_commutes(a in sparse(8), b in sparse(8)) {
        prop_assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn dot_matches_dense_computation(a in dense_vec(8), b in dense_vec(8)) {
        let sa = SparseVector::from_dense(&a);
        let sb = SparseVector::from_dense(&b);
        let expected: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert!((sa.dot(&sb) - expected).abs() < 1e-9);
    }

    #[test]
    fn squared_distance_is_a_metric_squared(a in sparse(8), b in sparse(8), c in sparse(8)) {
        // Non-negativity, identity, symmetry; triangle inequality on the
        // (unsquared) distances.
        prop_assert!(a.squared_distance(&b) >= 0.0);
        prop_assert_eq!(a.squared_distance(&a), 0.0);
        prop_assert_eq!(a.squared_distance(&b), b.squared_distance(&a));
        let dab = a.squared_distance(&b).sqrt();
        let dbc = b.squared_distance(&c).sqrt();
        let dac = a.squared_distance(&c).sqrt();
        prop_assert!(dac <= dab + dbc + 1e-9);
    }

    #[test]
    fn dense_round_trip(d in dense_vec(16)) {
        let v = SparseVector::from_dense(&d);
        prop_assert_eq!(v.to_dense(16), d);
    }

    #[test]
    fn kernels_are_symmetric(k in any_kernel(), a in sparse(6), b in sparse(6)) {
        prop_assert_eq!(k.compute(&a, &b), k.compute(&b, &a));
    }

    #[test]
    fn rbf_is_bounded_and_maximal_on_diagonal(gamma in 0.05f64..3.0, a in sparse(6), b in sparse(6)) {
        let k = Kernel::Rbf { gamma };
        let kab = k.compute(&a, &b);
        prop_assert!(kab > 0.0 && kab <= 1.0);
        prop_assert!(kab <= k.compute(&a, &a) + 1e-12);
    }

    #[test]
    fn psd_kernels_satisfy_cauchy_schwarz(k in any_kernel(), a in sparse(6), b in sparse(6)) {
        let kab = k.compute(&a, &b);
        let kaa = k.compute_self(&a);
        let kbb = k.compute_self(&b);
        prop_assert!(kab * kab <= kaa * kbb + 1e-9,
            "k(a,b)^2 = {} > k(a,a)k(b,b) = {}", kab * kab, kaa * kbb);
    }

    #[test]
    fn ocsvm_accepts_majority_of_training_data(
        data in clustered_training_set(),
        nu in 0.05f64..0.5,
    ) {
        let model = NuOcSvm::new(nu, Kernel::Rbf { gamma: 0.5 })
            .with_options(SolverOptions { eps: 1e-5, ..Default::default() })
            .train(&data)
            .unwrap();
        let rejected = data
            .iter()
            .filter(|x| model.decision_value(x) < -1e-4)
            .count() as f64;
        // ν-property: at most νl margin errors (small numerical slack).
        prop_assert!(rejected <= nu * data.len() as f64 + 1.0,
            "rejected {rejected} of {} at nu = {nu}", data.len());
    }

    #[test]
    fn ocsvm_support_vector_fraction_at_least_nu(
        data in clustered_training_set(),
        nu in 0.1f64..0.9,
    ) {
        let model = NuOcSvm::new(nu, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let sv_fraction = model.support_vector_count() as f64 / data.len() as f64;
        prop_assert!(sv_fraction >= nu - 0.12,
            "SV fraction {sv_fraction} < nu {nu} for l = {}", data.len());
    }

    #[test]
    fn svdd_radius_is_nonnegative_and_decision_consistent(
        data in clustered_training_set(),
        c in 0.2f64..1.0,
        probe in sparse(4),
    ) {
        let model = Svdd::new(c, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let Boundary::Sphere { r_squared, .. } = model.boundary() else {
            panic!("an SVDD model has a sphere boundary");
        };
        prop_assert!(r_squared >= -1e-9, "R² = {}", r_squared);
        let decision = model.decision_value(&probe);
        // f(x) = R² − ‖Φ(x) − a‖², and in RBF feature space every point and
        // the center lie in the unit ball, so the distance is within [0, 4].
        let squared_distance = r_squared - decision;
        prop_assert!((-1e-9..=4.0 + 1e-9).contains(&squared_distance), "d² = {}", squared_distance);
        prop_assert_eq!(model.accepts(&probe), decision >= 0.0);
    }

    #[test]
    fn svdd_c_one_encloses_training_data(data in clustered_training_set()) {
        let model = Svdd::new(1.0, Kernel::Linear)
            .with_options(SolverOptions { eps: 1e-6, ..Default::default() })
            .train(&data)
            .unwrap();
        for x in &data {
            prop_assert!(model.decision_value(x) >= -1e-4,
                "training point outside C=1 sphere: {}", model.decision_value(x));
        }
    }

    #[test]
    fn both_models_reject_distant_probes(data in clustered_training_set()) {
        // Translate far from the cluster along every axis.
        let far = {
            let centroid_shift: Vec<f64> = (0..4).map(|d| {
                let mean: f64 = data.iter().map(|x| x.get(d)).sum::<f64>() / data.len() as f64;
                mean + 1000.0
            }).collect();
            SparseVector::from_dense(&centroid_shift)
        };
        let ocsvm = NuOcSvm::new(0.1, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let svdd = Svdd::new(0.5, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        prop_assert!(!ocsvm.accepts(&far));
        prop_assert!(!svdd.accepts(&far));
    }

    #[test]
    fn scaled_never_stores_zeros(v in sparse(12), factor in prop_oneof![Just(0.0), Just(-0.0), -3.0f64..3.0]) {
        let s = v.scaled(factor);
        prop_assert!(s.iter().all(|(_, value)| value != 0.0),
            "scaled({factor}) stored an explicit zero: {s}");
        prop_assert!(s.nnz() <= v.nnz());
        prop_assert!(s.dimension_lower_bound() <= v.dimension_lower_bound());
        // Surviving entries carry exactly the scaled values, and every
        // dropped entry scaled to zero.
        for (i, value) in v.iter() {
            prop_assert_eq!(s.get(i), value * factor);
        }
    }

    /// The exported affine terms reproduce both linear families' decision
    /// functions (up to float association) and are absent for non-linear
    /// kernels.
    #[test]
    fn linear_decision_terms_match_decisions(
        data in clustered_training_set(),
        probe in sparse(4),
    ) {
        let ocsvm = NuOcSvm::new(0.2, Kernel::Linear).train(&data).unwrap();
        let terms = ocsvm.linear_decision_terms().expect("linear OC-SVM exports terms");
        prop_assert!(!terms.subtracts_probe_norm);
        prop_assert!((terms.decision_value(&probe) - ocsvm.decision_value(&probe)).abs() < 1e-9);

        let svdd = Svdd::new(0.5, Kernel::Linear).train(&data).unwrap();
        let terms = svdd.linear_decision_terms().expect("linear SVDD exports terms");
        prop_assert!(terms.subtracts_probe_norm);
        prop_assert!((terms.decision_value(&probe) - svdd.decision_value(&probe)).abs() < 1e-9);
        // The affine score drops only the user-independent ‖x‖² term.
        prop_assert!(
            (terms.affine_score(&probe) - probe.squared_norm() - svdd.decision_value(&probe)).abs()
                < 1e-9
        );

        let rbf = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        prop_assert!(rbf.linear_decision_terms().is_none());
    }

    #[test]
    fn training_is_deterministic(data in clustered_training_set()) {
        let a = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let b = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        prop_assert_eq!(a.boundary(), b.boundary());
        prop_assert_eq!(a.support_vector_count(), b.support_vector_count());
    }
}

proptest! {
    // Warm-started ladders retrain the same set many times; fewer, larger
    // cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Warm-starting a solve from the adjacent regularization's `α` must
    /// change only the iteration path, never the solution: at a tight KKT
    /// tolerance the seeded solve reaches the cold start's objective and
    /// decision function across the whole ladder, for both families.
    #[test]
    fn warm_started_ladder_matches_cold_solves(
        data in clustered_training_set(),
        k in any_kernel(),
    ) {
        use ocsvm::GramMatrix;
        let ladder = [0.9, 0.7, 0.5, 0.3, 0.2];
        let opts = SolverOptions { eps: 1e-8, ..Default::default() };
        let gram = GramMatrix::compute(k, &data);

        let mut seed: Option<Vec<f64>> = None;
        for &c in &ladder {
            let svdd = Svdd::new(c, k).with_options(opts);
            let (warm, alpha) = svdd.train_with_gram_seeded(&data, &gram, seed.as_deref()).unwrap();
            let (cold, _) = svdd.train_with_gram_seeded(&data, &gram, None).unwrap();
            let obj_scale = 1.0 + cold.diagnostics().objective.abs();
            prop_assert!(
                (warm.diagnostics().objective - cold.diagnostics().objective).abs() <= 1e-6 * obj_scale,
                "SVDD C={c}: warm objective {} vs cold {}",
                warm.diagnostics().objective, cold.diagnostics().objective
            );
            let scale = 1.0 + data.iter().map(|x| cold.decision_value(x).abs()).fold(0.0, f64::max);
            for x in &data {
                prop_assert!(
                    (warm.decision_value(x) - cold.decision_value(x)).abs() <= 1e-4 * scale,
                    "SVDD C={c}: warm decision {} vs cold {}",
                    warm.decision_value(x), cold.decision_value(x)
                );
            }
            seed = Some(alpha);
        }

        let mut seed: Option<Vec<f64>> = None;
        for &nu in &ladder {
            let ocsvm = NuOcSvm::new(nu, k).with_options(opts);
            let (warm, alpha) = ocsvm.train_with_gram_seeded(&data, &gram, seed.as_deref()).unwrap();
            let (cold, _) = ocsvm.train_with_gram_seeded(&data, &gram, None).unwrap();
            let obj_scale = 1.0 + cold.diagnostics().objective.abs();
            prop_assert!(
                (warm.diagnostics().objective - cold.diagnostics().objective).abs() <= 1e-6 * obj_scale,
                "OC-SVM nu={nu}: warm objective {} vs cold {}",
                warm.diagnostics().objective, cold.diagnostics().objective
            );
            let scale = 1.0 + data.iter().map(|x| cold.decision_value(x).abs()).fold(0.0, f64::max);
            for x in &data {
                prop_assert!(
                    (warm.decision_value(x) - cold.decision_value(x)).abs() <= 1e-4 * scale,
                    "OC-SVM nu={nu}: warm decision {} vs cold {}",
                    warm.decision_value(x), cold.decision_value(x)
                );
            }
            seed = Some(alpha);
        }
    }
}

/// Support vectors and probes for the batch-scoring property live in
/// columns below `SV_WIDTH`, except the probes that reach past it.
const SV_WIDTH: u32 = 64;

fn from_entries(entries: Vec<(u32, f64)>) -> SparseVector {
    let mut builder = ocsvm::SparseVectorBuilder::new();
    for (column, value) in entries {
        builder.set(column, value);
    }
    builder.build()
}

/// 40–63 stored entries: a support vector with columns that no probe of
/// a block stores, so the panel walks add its x-only terms to every lane.
fn dense_point() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec(0.1f64..3.0, 40..SV_WIDTH as usize)
        .prop_map(|values| SparseVector::from_dense(&values))
}

/// 1–3 stored entries: a support vector that misses most of the columns
/// a block stores, so the panel walks add mostly probe-only terms.
fn sparse_point() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0..SV_WIDTH, -3.0f64..3.0), 1..4).prop_map(from_entries)
}

/// Empty probes, probes inside the training columns, and sparse probes
/// with columns beyond every support vector's width.
fn probe() -> impl Strategy<Value = SparseVector> {
    let near = || (0..SV_WIDTH, -3.0f64..3.0);
    let far = || (SV_WIDTH..150, -3.0f64..3.0);
    prop_oneof![
        Just(SparseVector::new()),
        prop::collection::vec(near(), 1..8).prop_map(from_entries),
        (prop::collection::vec(near(), 0..3), prop::collection::vec(far(), 1..4))
            .prop_map(|(a, b)| from_entries(a.into_iter().chain(b).collect())),
    ]
}

fn every_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        Just(Kernel::Linear),
        (0.01f64..1.0).prop_map(|gamma| Kernel::Rbf { gamma }),
        (0.01f64..0.3, 0.0f64..1.0, prop::sample::select(vec![2u32, 3]))
            .prop_map(|(gamma, coef0, degree)| Kernel::Polynomial { gamma, coef0, degree }),
        (0.005f64..0.1, -0.5f64..0.5).prop_map(|(gamma, coef0)| Kernel::Sigmoid { gamma, coef0 }),
    ]
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The per-point acceptance `panel_acceptance` must reproduce.
fn accepted(model: &OneClassModel, probes: &[&SparseVector]) -> Vec<bool> {
    probes.iter().map(|p| model.decision_value(p) >= 0.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch scoring adds every support vector's kernel row into the sums
    /// through one reused row buffer. Whatever batch a probe sits in — the whole batch, the
    /// empty batch, a one-probe batch — its batch and packed-panel values
    /// must equal the per-point decision value bit for bit, for both
    /// families and all four kernels, and its panel acceptance must be
    /// exactly `decision_value >= 0`. Signed support vectors and probes
    /// leave the decision bound unproven, so acceptance scores them all.
    #[test]
    fn batch_decision_values_match_per_point_bitwise_over_generated_inputs(
        kernel in every_kernel(),
        dense in prop::collection::vec(dense_point(), 2..6),
        sparse in prop::collection::vec(sparse_point(), 2..10),
        mut probes in prop::collection::vec(probe(), 1..90),
        anchor_column in 120u32..150,
    ) {
        let data: Vec<SparseVector> = dense.into_iter().chain(sparse).collect();
        // One probe past column 120 in every batch: its block stores a
        // column no support vector has.
        probes.push(SparseVector::from_pairs(vec![(anchor_column, 0.5)]).unwrap());
        let refs: Vec<&SparseVector> = probes.iter().collect();
        // The panel's blocks are compact: some block lacks a column that a
        // support vector stores, so the walks skip columns absent from a
        // whole block and add that support vector's x-only terms.
        let block_lacks_a_support_column = refs.chunks(ocsvm::panel::PANEL_BLOCK).any(|block| {
            let stored: std::collections::BTreeSet<u32> =
                block.iter().flat_map(|p| p.iter().map(|(c, _)| c)).collect();
            data.iter().any(|x| x.iter().any(|(c, _)| !stored.contains(&c)))
        });
        prop_assert!(block_lacks_a_support_column);

        // α ≤ 1/(νl) (OC-SVM) and α ≤ C (SVDD) with Σα = 1 force more than
        // l − 1 non-zero multipliers: every training point, dense and
        // sparse, is a support vector.
        let l = data.len() as f64;
        let ocsvm = NuOcSvm::new(0.95, kernel).train(&data).unwrap();
        let svdd = Svdd::new(1.0 / (0.95 * l), kernel).train(&data).unwrap();
        prop_assert_eq!(ocsvm.support_vector_count(), data.len());
        prop_assert_eq!(svdd.support_vector_count(), data.len());

        for batch in [&refs[..], &refs[..0]].into_iter().chain(refs.chunks(1)) {
            let per_point = |model: &OneClassModel| {
                bits(&batch.iter().map(|p| model.decision_value(p)).collect::<Vec<_>>())
            };
            prop_assert_eq!(bits(&ocsvm.batch_decision_values(batch)), per_point(&ocsvm));
            prop_assert_eq!(bits(&svdd.batch_decision_values(batch)), per_point(&svdd));
            // A packed panel scores like the batch, the linear kernel
            // included (its GEMV runs over the panel here).
            let packed = ocsvm::ProbePanel::pack(batch);
            prop_assert_eq!(bits(&ocsvm.panel_decision_values(&packed)), per_point(&ocsvm));
            prop_assert_eq!(bits(&svdd.panel_decision_values(&packed)), per_point(&svdd));
            prop_assert_eq!(ocsvm.panel_acceptance(&packed), accepted(&ocsvm, batch));
            prop_assert_eq!(svdd.panel_acceptance(&packed), accepted(&svdd, batch));
        }
    }
}

/// Kernels for the decision-bound property: every family, with γ away
/// from the LIBSVM default, `coef0` on both sides of zero (a negative one
/// leaves the polynomial and sigmoid bounds unproven) and degrees 1–4.
fn bound_kernel() -> impl Strategy<Value = Kernel> {
    prop_oneof![
        Just(Kernel::Linear),
        (0.001f64..1.0).prop_map(|gamma| Kernel::Rbf { gamma }),
        (0.001f64..0.3, -1.0f64..1.0, 1u32..5)
            .prop_map(|(gamma, coef0, degree)| Kernel::Polynomial { gamma, coef0, degree }),
        (0.001f64..0.3, -1.0f64..1.0).prop_map(|(gamma, coef0)| Kernel::Sigmoid { gamma, coef0 }),
    ]
}

/// Non-negative sparse points in the support-vector columns.
fn non_negative_point() -> impl Strategy<Value = SparseVector> {
    prop::collection::vec((0..SV_WIDTH, 0.0f64..3.0), 1..12).prop_map(from_entries)
}

/// Non-negative probes: empty, inside the support columns, disjoint from
/// every support vector (where the chord and Jensen bounds are tight), and
/// straddling both.
fn non_negative_probe() -> impl Strategy<Value = SparseVector> {
    let near = || (0..SV_WIDTH, 0.0f64..3.0);
    let far = || (SV_WIDTH..150, 0.0f64..3.0);
    prop_oneof![
        Just(SparseVector::new()),
        prop::collection::vec(near(), 1..12).prop_map(from_entries),
        prop::collection::vec(far(), 1..6).prop_map(from_entries),
        (prop::collection::vec(near(), 1..6), prop::collection::vec(far(), 1..4))
            .prop_map(|(a, b)| from_entries(a.into_iter().chain(b).collect())),
    ]
}

/// What `DecisionBound::admits` reads of `x`, computed the plain way.
fn bound_admits(model: &OneClassModel, x: &SparseVector) -> bool {
    let bound = model.decision_bound();
    let magnitude = x.iter().map(|(column, v)| (bound.weights.get(column) * v).abs()).sum();
    bound.admits(bound.weights.dot(x), magnitude, bound.extent.dot(x), x.squared_norm())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The candidate prefilter prunes a model only when its decision bound
    /// rejects, so the bound must admit every probe the model accepts —
    /// for both families, every kernel, and probes scored exactly on the
    /// training points. Models outside the proven domain (`coef0 < 0`,
    /// a negative support-vector entry, an RBF exponent past 700) must
    /// admit every probe. Panel acceptance, which scores exactly only the
    /// probes the bound admits, must equal `decision_value >= 0` on every
    /// probe of every model here, over the whole panel, an empty panel and
    /// one-probe panels.
    #[test]
    fn decision_bounds_admit_every_accepted_probe(
        kernel in bound_kernel(),
        data in prop::collection::vec(non_negative_point(), 3..24),
        nu in 0.05f64..0.9,
        mut probes in prop::collection::vec(non_negative_probe(), 1..24),
        flip in 0usize..24,
    ) {
        probes.extend(data.iter().cloned());
        // Far probes: γ‖x‖² and 2γ⟨x, m⟩ pass the RBF bound's exponent limit
        // for the larger γ.
        probes.extend(data.iter().take(2).map(|x| x.scaled(40.0)));
        let refs: Vec<&SparseVector> = probes.iter().collect();
        // Negated training points, outside the bound's proven domain: an
        // even-degree polynomial accepts them while the chord, read at
        // T = ⟨x, m⟩ < 0, would reject them. Only the panel sees them.
        let signed: Vec<SparseVector> = data.iter().map(|x| x.scaled(-3.0)).collect();
        let refs: Vec<&SparseVector> = refs.into_iter().chain(&signed).collect();
        let l = data.len() as f64;
        let models = [
            NuOcSvm::new(nu, kernel).train(&data).unwrap(),
            Svdd::new((1.0 / (nu * l)).min(1.0), kernel).train(&data).unwrap(),
        ];
        let assert_panel_acceptance = |model: &OneClassModel| -> Result<(), TestCaseError> {
            let panel = ProbePanel::pack(&refs);
            prop_assert_eq!(model.panel_acceptance(&panel), accepted(model, &refs));
            prop_assert!(model.panel_acceptance(&ProbePanel::pack(&[])).is_empty());
            for one in refs.chunks(1) {
                prop_assert_eq!(model.panel_acceptance(&ProbePanel::pack(one)), accepted(model, one));
            }
            Ok(())
        };
        let unproven = match kernel {
            Kernel::Polynomial { coef0, .. } | Kernel::Sigmoid { coef0, .. } => coef0 < 0.0,
            _ => false,
        };
        for model in &models {
            for probe in &probes {
                let admitted = bound_admits(model, probe);
                prop_assert!(admitted || model.decision_value(probe) < 0.0, "{:?}", probe);
                prop_assert!(admitted || !unproven);
            }
            assert_panel_acceptance(model)?;
        }

        // An RBF γ with γ‖svᵢ‖² past 700 for the widest support vector: the
        // bound cannot evaluate e^{−γ‖svᵢ‖²} and admits every probe.
        let widest = data.iter().map(SparseVector::squared_norm).fold(0.0, f64::max);
        if widest > 0.0 {
            let kernel = Kernel::Rbf { gamma: 701.0 / widest };
            for model in [
                NuOcSvm::new(1.0, kernel).train(&data).unwrap(),
                Svdd::new(1.0 / l, kernel).train(&data).unwrap(),
            ] {
                prop_assert!(probes.iter().all(|p| bound_admits(&model, p)));
                assert_panel_acceptance(&model)?;
            }
        }

        // One negative entry in the training set: every non-linear model
        // trained on it is outside the proven domain.
        let mut negative = data.clone();
        let victim = &mut negative[flip % data.len()];
        let mut entries: Vec<(u32, f64)> = victim.iter().collect();
        entries[0].1 = -entries[0].1 - 0.5;
        *victim = from_entries(entries);
        // α ≤ 1/(νl) or α ≤ C = 1/l with Σα = 1 pins every α at 1/l, so
        // the negative point is a support vector.
        let models = [
            NuOcSvm::new(1.0, kernel).train(&negative).unwrap(),
            Svdd::new(1.0 / l, kernel).train(&negative).unwrap(),
        ];
        for model in &models {
            prop_assert_eq!(model.support_vector_count(), negative.len());
            for probe in &probes {
                let admitted = bound_admits(model, probe);
                prop_assert!(admitted || model.decision_value(probe) < 0.0);
                prop_assert!(admitted || kernel == Kernel::Linear);
            }
            assert_panel_acceptance(model)?;
        }
    }
}
