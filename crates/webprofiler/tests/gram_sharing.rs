//! Verifies the shared-Gram grid search end to end: each (user, kernel)
//! kernel matrix is built once and shared by every regularization of the
//! sweep, and sharing it changes no cell of the sweep.
//!
//! Builds are counted on the sweep's own arena: every row of one matrix
//! carries the same content fingerprint (`RowKey::tag`), so the distinct
//! tags per `(owner, kernel)` are the matrices the sweep built. The arena
//! holds Gram rows only: `ACCother` probes are scored without cached rows.

use ocsvm::{Kernel, KernelKind, KernelRowArena};
use std::collections::{BTreeMap, BTreeSet};
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

/// Distinct matrices built into `arena`, per `(owner, kernel slot)`.
fn builds(arena: &KernelRowArena) -> BTreeMap<(u64, u8), BTreeSet<u64>> {
    let mut builds: BTreeMap<_, BTreeSet<u64>> = BTreeMap::new();
    for key in arena.keys() {
        builds.entry((key.owner, key.kernel)).or_default().insert(key.tag);
    }
    builds
}

/// (a) One user's sweep builds exactly one Gram matrix per kernel family,
/// not one per (kernel, regularization) cell, and computes each of its rows
/// at most once.
#[test]
fn run_user_builds_one_gram_matrix_per_kernel() {
    let (vocab, sets) = fixture();
    let user = busiest(&sets);
    let arena = KernelRowArena::with_budget(256 << 20);
    let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
        .arena(arena.clone());
    let cells = search.run_user(&sets, user);
    assert!(!cells.is_empty());

    let builds = builds(&arena);
    let gram_builds: Vec<usize> = builds.values().map(BTreeSet::len).collect();
    assert_eq!(
        gram_builds,
        vec![1; KernelKind::ALL.len()],
        "run_user must build one Gram matrix per kernel"
    );
    assert!(builds.keys().all(|&(owner, _)| owner == u64::from(user.0)), "only the user's rows");
    let stats = arena.stats();
    assert_eq!(stats.evictions, 0, "budget is ample for the quick-test corpus");
    assert_eq!(stats.fills as usize, arena.len(), "every fill is a distinct row");
    let own = sets[&user].len() as u64;
    let distinct_rows = own * KernelKind::ALL.len() as u64;
    assert!(stats.fills <= distinct_rows, "{} > {distinct_rows}", stats.fills);
    assert!(stats.hits > stats.fills, "the ladder must reuse rows: {stats:?}");
}

/// (b) The all-users optimization builds one Gram matrix per (user,
/// kernel) in the shared arena, fills every distinct (user, kernel, row) at
/// most once, and serves the regularization ladder's repeated row reads
/// from cache.
#[test]
fn sweep_all_builds_one_gram_matrix_per_user_and_kernel() {
    let (vocab, sets) = fixture();
    let user = busiest(&sets);
    let arena = KernelRowArena::with_budget(256 << 20);
    let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
        .max_other_windows(usize::MAX)
        .arena(arena.clone());
    let (best, stats) = search.sweep_all(&sets);

    for ((owner, kernel), tags) in builds(&arena) {
        assert_eq!(tags.len(), 1, "user {owner} kernel {kernel}: {} builds", tags.len());
    }
    let trained_users = sets.values().filter(|w| !w.is_empty()).count();
    assert!(builds(&arena).len() <= trained_users * KernelKind::ALL.len());
    // Distinct rows: per user, one Gram row per window for each of the 4
    // kernels.
    let distinct_rows: u64 = sets.values().map(|w| (w.len() * KernelKind::ALL.len()) as u64).sum();
    assert!(
        stats.arena.fills <= distinct_rows,
        "each distinct row fills at most once: {} > {distinct_rows}",
        stats.arena.fills
    );
    assert!(stats.arena.fills <= stats.arena.misses);
    assert!(
        stats.arena.hits > stats.arena.fills,
        "the 15-value ladder must reuse cached rows (hits {}, fills {})",
        stats.arena.hits,
        stats.arena.fills
    );
    assert_eq!(stats.arena.evictions, 0, "budget is ample for the quick-test corpus");
    assert!(best.contains_key(&user), "most active user optimizes");
    assert_eq!(stats.chains, trained_users * KernelKind::ALL.len());
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
        .max_other_windows(usize::MAX)
        .arena(KernelRowArena::with_budget(256 << 20));
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
