//! Verifies the shared-Gram grid search end to end: each (user, kernel)
//! chain builds one kernel matrix, shared by every regularization of its
//! ladder, and sharing it changes no cell of the sweep.
//!
//! Builds are counted through the sweep's statistics: every chain owns
//! exactly one Gram matrix, so `SweepStats::chains` is the number of
//! matrices built, and `SweepStats::arena` sums the rows the chains filled
//! into their own stores. The stores hold Gram rows only: `ACCother` probes
//! are scored without cached rows.

use ocsvm::{Kernel, KernelKind};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    acceptance_ratio, compute_window_sets, ModelGridSearch, ModelKind, ProfileTrainer, Vocabulary,
    WindowConfig, WindowSets,
};

fn fixture() -> (Vocabulary, WindowSets) {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(60));
    (vocab, sets)
}

/// The most active user: the one with the most training windows.
fn busiest(sets: &WindowSets) -> proxylog::UserId {
    *sets.iter().max_by_key(|&(_, w)| w.len()).map(|(u, _)| u).unwrap()
}

/// (a) One user's sweep builds exactly one Gram matrix per kernel family,
/// not one per (kernel, regularization) cell, and computes each of its rows
/// at most once. `run_user` is a one-user `sweep_cells`; over window sets
/// holding only that user the two are the same sweep, whose statistics
/// count the matrices.
#[test]
fn run_user_builds_one_gram_matrix_per_kernel() {
    let (vocab, sets) = fixture();
    let user = busiest(&sets);
    let single: WindowSets =
        sets.iter().filter(|&(&u, _)| u == user).map(|(&u, w)| (u, w.clone())).collect();
    let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd);
    let cells = search.run_user(&single, user);
    assert!(!cells.is_empty());
    let (swept, stats) = search.sweep_cells(&single);
    assert_eq!(swept[&user], cells, "run_user is the one-user sweep");

    assert_eq!(
        (stats.users, stats.chains),
        (1, KernelKind::ALL.len()),
        "one Gram matrix per kernel"
    );
    let own = sets[&user].len() as u64;
    let distinct_rows = own * KernelKind::ALL.len() as u64;
    assert!(stats.arena.fills <= distinct_rows, "{} > {distinct_rows}", stats.arena.fills);
    assert_eq!(stats.arena.evictions, 0, "chain stores are uncapped");
    assert!(stats.arena.hits > stats.arena.fills, "the ladder must reuse rows: {:?}", stats.arena);
}

/// (b) The all-users optimization builds one Gram matrix per (user,
/// kernel), fills every distinct (user, kernel, row) at most once, and
/// serves the regularization ladder's repeated row reads from the chain's
/// store.
#[test]
fn sweep_all_builds_one_gram_matrix_per_user_and_kernel() {
    let (vocab, sets) = fixture();
    let user = busiest(&sets);
    let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
        .max_other_windows(usize::MAX);
    let (best, stats) = search.sweep_all(&sets);

    let trained_users = sets.values().filter(|w| !w.is_empty()).count();
    assert_eq!(stats.users, trained_users);
    assert_eq!(
        stats.chains,
        trained_users * KernelKind::ALL.len(),
        "one matrix per (user, kernel)"
    );
    // Distinct rows: per user, one Gram row per window for each of the 4
    // kernels.
    let distinct_rows: u64 = sets.values().map(|w| (w.len() * KernelKind::ALL.len()) as u64).sum();
    assert!(
        stats.arena.fills <= distinct_rows,
        "each distinct row fills at most once: {} > {distinct_rows}",
        stats.arena.fills
    );
    assert!(
        stats.arena.hits > stats.arena.fills,
        "the 15-value ladder must reuse stored rows (hits {}, fills {})",
        stats.arena.hits,
        stats.arena.fills
    );
    assert_eq!(stats.arena.evictions, 0, "chain stores are uncapped");
    assert!(best.contains_key(&user), "most active user optimizes");
}

/// (c) Cell parity with the per-cell training path: retrain every
/// (kernel, regularization) combination without a shared Gram matrix and
/// recompute both acceptance ratios from scratch.
#[test]
fn run_user_cells_match_per_cell_training() {
    let (vocab, sets) = fixture();
    let user = busiest(&sets);
    // usize::MAX disables ACCother subsampling so the replication below
    // scores exactly the same window sets.
    let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
        .max_other_windows(usize::MAX);
    let cells = search.run_user(&sets, user);

    let own = &sets[&user];
    let legacy: Vec<(KernelKind, f64, f64, f64)> = KernelKind::ALL
        .iter()
        .flat_map(|&kind| ModelGridSearch::PAPER_REGULARIZATIONS.iter().map(move |&c| (kind, c)))
        .filter_map(|(kind, regularization)| {
            let kernel = Kernel::default_for(kind, vocab.n_features());
            let trainer = ProfileTrainer::new(&vocab)
                .window(WindowConfig::PAPER_DEFAULT)
                .kind(ModelKind::Svdd)
                .kernel(kernel)
                .regularization(regularization);
            let profile = trainer.train_from_vectors(user, own).ok()?;
            let acc_self = acceptance_ratio(&profile, own);
            let others: Vec<f64> = sets
                .iter()
                .filter(|&(&u, _)| u != user)
                .map(|(_, w)| acceptance_ratio(&profile, w))
                .collect();
            let acc_other = others.iter().sum::<f64>() / others.len() as f64;
            Some((kind, regularization, acc_self, acc_other))
        })
        .collect();

    assert_eq!(cells.len(), legacy.len(), "same combinations must train on both paths");
    for (cell, &(kind, regularization, acc_self, acc_other)) in cells.iter().zip(&legacy) {
        assert_eq!(cell.kernel, kind);
        assert_eq!(cell.regularization, regularization);
        assert!(
            (cell.summary.acc_self - acc_self).abs() < 1e-9,
            "ACCself diverged for {kind:?} c={regularization}: {} vs {acc_self}",
            cell.summary.acc_self
        );
        assert!(
            (cell.summary.acc_other - acc_other).abs() < 1e-9,
            "ACCother diverged for {kind:?} c={regularization}: {} vs {acc_other}",
            cell.summary.acc_other
        );
    }
}
