//! Model-level equivalence of the precomputed-Gram training path.
//!
//! `train_with_gram` must produce *the same model* as `train` — both read
//! rows built from exactly the same kernel evaluations, so the solver sees
//! a bit-identical Q matrix and walks a bit-identical trajectory, whatever
//! arena holds the rows and however small its budget. These tests pin that
//! contract through the public API for every kernel family and both
//! classifiers, and cover the mismatch errors a stale Gram matrix must
//! raise.

use ocsvm::{
    GramMatrix, Kernel, KernelRowArena, NuOcSvm, OneClassModel, ProbePanel, SolverOptions,
    SparseVector, Svdd, TrainError,
};

/// Two mildly overlapping clusters plus a few stragglers — enough structure
/// that every kernel produces a non-trivial support-vector set.
fn training_data() -> Vec<SparseVector> {
    let mut points = Vec::new();
    for i in 0..30 {
        let t = i as f64;
        points.push(SparseVector::from_dense(&[
            1.0 + 0.03 * (i % 7) as f64,
            0.2 + 0.05 * (i % 5) as f64,
            (i % 2) as f64,
        ]));
        points.push(SparseVector::from_dense(&[
            -0.5 + 0.02 * (i % 4) as f64,
            1.5 - 0.04 * (i % 6) as f64,
            0.1 * (t % 3.0),
        ]));
    }
    points.push(SparseVector::from_dense(&[4.0, -2.0, 0.5]));
    points.push(SparseVector::from_dense(&[-3.0, 3.0, 1.0]));
    points
}

fn probes() -> Vec<SparseVector> {
    vec![
        SparseVector::from_dense(&[1.0, 0.3, 0.0]),
        SparseVector::from_dense(&[-0.5, 1.4, 0.2]),
        SparseVector::from_dense(&[10.0, -10.0, 3.0]),
        SparseVector::from_dense(&[0.0, 0.0, 0.0]),
    ]
}

/// Row-store budgets every path must be indifferent to: none at all, one
/// byte short of a single row, and the solver's ample default.
fn budgets(points: usize) -> [usize; 3] {
    [0, points * std::mem::size_of::<f64>() - 1, SolverOptions::default().cache_bytes]
}

/// Models trained by plain `train` with `cache_bytes` set to each budget,
/// and by `train_with_gram` over a shared arena of each budget, whose
/// retained bytes must stay within it.
fn budgeted_models<M>(
    data: &[SparseVector],
    kernel: Kernel,
    train: impl Fn(SolverOptions) -> M,
    train_with_gram: impl Fn(&GramMatrix) -> M,
) -> Vec<(String, M)> {
    let mut models = Vec::new();
    for budget in budgets(data.len()) {
        let options = SolverOptions { cache_bytes: budget, ..SolverOptions::default() };
        models.push((format!("train, cache_bytes {budget}"), train(options)));
        let arena = KernelRowArena::with_budget(budget);
        models.push((
            format!("shared arena of {budget} bytes"),
            train_with_gram(&GramMatrix::in_arena(kernel, data, &arena, 1)),
        ));
        let stats = arena.stats();
        assert!(stats.bytes <= stats.budget, "{kernel:?}: {stats:?}");
    }
    models
}

fn kernels() -> Vec<Kernel> {
    vec![
        Kernel::Linear,
        Kernel::Rbf { gamma: 0.8 },
        Kernel::Polynomial { gamma: 0.5, coef0: 1.0, degree: 3 },
        Kernel::Sigmoid { gamma: 0.3, coef0: -0.2 },
    ]
}

#[test]
fn ocsvm_gram_path_reproduces_train_at_every_budget() {
    let data = training_data();
    let probes = probes();
    for kernel in kernels() {
        let gram = GramMatrix::compute(kernel, &data);
        for nu in [0.05, 0.2, 0.5] {
            let trainer = NuOcSvm::new(nu, kernel);
            let via_gram = trainer.train_with_gram(&data, &gram).expect("gram path trains");
            let models = budgeted_models(
                &data,
                kernel,
                |options| trainer.with_options(options).train(&data).expect("trains"),
                |rows| trainer.train_with_gram(&data, rows).expect("trains"),
            );
            for (path, direct) in models {
                let nu = format!("{nu} ({path})");
                assert_eq!(direct.boundary(), via_gram.boundary(), "ρ for {kernel:?} nu={nu}");
                assert_eq!(
                    direct.support_vector_count(),
                    via_gram.support_vector_count(),
                    "SV count for {kernel:?} nu={nu}"
                );
                let (d, g) = (direct.diagnostics(), via_gram.diagnostics());
                assert_eq!(d.converged, g.converged, "converged for {kernel:?} nu={nu}");
                assert_eq!(d.iterations, g.iterations, "iterations for {kernel:?} nu={nu}");
                assert_eq!(d.objective, g.objective, "objective for {kernel:?} nu={nu}");
                for x in data.iter().chain(&probes) {
                    assert_eq!(
                        direct.decision_value(x),
                        via_gram.decision_value(x),
                        "decision value for {kernel:?} nu={nu}"
                    );
                }
            }
        }
    }
}

#[test]
fn svdd_gram_path_reproduces_train_at_every_budget() {
    let data = training_data();
    let probes = probes();
    for kernel in kernels() {
        let gram = GramMatrix::compute(kernel, &data);
        for c in [0.05, 0.2, 1.0] {
            let trainer = Svdd::new(c, kernel);
            let via_gram = trainer.train_with_gram(&data, &gram).expect("gram path trains");
            let models = budgeted_models(
                &data,
                kernel,
                |options| trainer.with_options(options).train(&data).expect("trains"),
                |rows| trainer.train_with_gram(&data, rows).expect("trains"),
            );
            for (path, direct) in models {
                let c = format!("{c} ({path})");
                assert_eq!(direct.boundary(), via_gram.boundary(), "R² for {kernel:?} C={c}");
                assert_eq!(
                    direct.support_vector_count(),
                    via_gram.support_vector_count(),
                    "SV count for {kernel:?} C={c}"
                );
                let (d, g) = (direct.diagnostics(), via_gram.diagnostics());
                assert_eq!(d.converged, g.converged, "converged for {kernel:?} C={c}");
                assert_eq!(d.iterations, g.iterations, "iterations for {kernel:?} C={c}");
                assert_eq!(d.objective, g.objective, "objective for {kernel:?} C={c}");
                for x in data.iter().chain(&probes) {
                    assert_eq!(
                        direct.decision_value(x),
                        via_gram.decision_value(x),
                        "decision value for {kernel:?} C={c}"
                    );
                }
            }
        }
    }
}

#[test]
fn one_gram_matrix_serves_a_whole_regularization_sweep() {
    // The grid-search usage pattern: one matrix, 15 solver runs against it.
    let data = training_data();
    let kernel = Kernel::Rbf { gamma: 0.8 };
    let gram = GramMatrix::compute(kernel, &data);
    for i in 1..=15 {
        let nu = i as f64 / 16.0;
        let model = NuOcSvm::new(nu, kernel).train_with_gram(&data, &gram).expect("trains");
        assert!(model.support_vector_count() > 0, "nu={nu}");
    }
    // Counted on the matrix's own arena: every row is computed at most
    // once across the whole sweep and re-read from the arena after that.
    let stats = gram.arena().stats();
    assert!(stats.fills <= data.len() as u64, "sweep must not recompute rows: {stats:?}");
    assert_eq!(stats.evictions, 0);
    assert!(stats.hits > 0, "later solves reuse the rows: {stats:?}");
}

#[test]
fn shared_row_scoring_matches_per_point_decisions() {
    // `training_decision_values` reads shared Gram rows instead of
    // re-evaluating k(sv, x) per model; for non-linear kernels the values
    // must be bit-identical, and the linear kernel's collapsed fast path
    // must agree to float-association slack. `panel_acceptance` decides
    // every probe exactly as `decision_value(p) >= 0` does.
    let data = training_data();
    let probe_store = probes();
    let probe_refs: Vec<&SparseVector> = probe_store.iter().collect();
    let panel = ProbePanel::pack(&probe_refs);
    for kernel in kernels() {
        let gram = GramMatrix::compute(kernel, &data);
        let exact = kernel != Kernel::Linear;
        let check = |direct: f64, shared: f64, what: &str| {
            if exact {
                assert_eq!(direct, shared, "{what} for {kernel:?}");
            } else {
                assert!((direct - shared).abs() < 1e-12, "{what}: {direct} vs {shared}");
            }
        };
        let ocsvm = NuOcSvm::new(0.2, kernel).train_with_gram(&data, &gram).expect("trains");
        let on_train = ocsvm.training_decision_values(&gram).expect("compatible");
        for (x, &shared) in data.iter().zip(&on_train) {
            check(ocsvm.decision_value(x), shared, "OC-SVM training value");
        }
        let accepted: Vec<bool> = probe_store.iter().map(|p| ocsvm.accepts(p)).collect();
        assert_eq!(ocsvm.panel_acceptance(&panel), accepted, "OC-SVM probes, {kernel:?}");

        let svdd = Svdd::new(0.2, kernel).train_with_gram(&data, &gram).expect("trains");
        let on_train = svdd.training_decision_values(&gram).expect("compatible");
        for (x, &shared) in data.iter().zip(&on_train) {
            check(svdd.decision_value(x), shared, "SVDD training value");
        }
        let accepted: Vec<bool> = probe_store.iter().map(|p| svdd.accepts(p)).collect();
        assert_eq!(svdd.panel_acceptance(&panel), accepted, "SVDD probes, {kernel:?}");
    }
}

#[test]
fn shared_row_scoring_rejects_incompatible_matrices() {
    let data = training_data();
    let kernel = Kernel::Rbf { gamma: 0.8 };
    let gram = GramMatrix::compute(kernel, &data);
    let model = NuOcSvm::new(0.2, kernel).train_with_gram(&data, &gram).expect("trains");

    let wrong_kernel = GramMatrix::compute(Kernel::Linear, &data);
    assert!(model.training_decision_values(&wrong_kernel).is_none());
    let wrong_size = GramMatrix::compute(kernel, &data[..10]);
    assert!(model.training_decision_values(&wrong_size).is_none());

    // A deserialized model keeps its training indices (persist v2) — the
    // shared-row paths stay available and agree with the in-process model.
    let mut buffer = Vec::new();
    model.write_to(&mut buffer).expect("serializes");
    let restored = OneClassModel::read_from(&mut buffer.as_slice()).expect("deserializes");
    assert_eq!(
        restored.training_decision_values(&gram).expect("indices survive the round trip"),
        model.training_decision_values(&gram).unwrap()
    );
    assert!(restored.training_decision_values(&wrong_kernel).is_none());
    assert_eq!(restored.decision_value(&data[0]), model.decision_value(&data[0]));
}

#[test]
fn mismatched_gram_matrices_are_rejected() {
    let data = training_data();
    let kernel = Kernel::Rbf { gamma: 0.8 };
    let gram = GramMatrix::compute(kernel, &data);

    // Wrong size: Gram built over a truncated set.
    let small = GramMatrix::compute(kernel, &data[..10]);
    let err = NuOcSvm::new(0.2, kernel).train_with_gram(&data, &small).unwrap_err();
    assert_eq!(err, TrainError::GramSizeMismatch { rows: 10, points: data.len() });
    let err = Svdd::new(0.2, kernel).train_with_gram(&data, &small).unwrap_err();
    assert_eq!(err, TrainError::GramSizeMismatch { rows: 10, points: data.len() });

    // Wrong kernel: Gram built with different parameters.
    let err =
        NuOcSvm::new(0.2, Kernel::Rbf { gamma: 2.0 }).train_with_gram(&data, &gram).unwrap_err();
    assert_eq!(err, TrainError::GramKernelMismatch);
    let err = Svdd::new(0.2, Kernel::Linear).train_with_gram(&data, &gram).unwrap_err();
    assert_eq!(err, TrainError::GramKernelMismatch);

    // Parameter validation still runs first.
    let err = NuOcSvm::new(0.0, kernel).train_with_gram(&data, &gram).unwrap_err();
    assert!(matches!(err, TrainError::InvalidNu { .. }), "got {err:?}");
}
