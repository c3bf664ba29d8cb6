//! Solver-backend choice through the model grid sweep: seeded
//! determinism of sampled Frank–Wolfe, the `Auto` calibration policy's two
//! extremes, and the warm-start interaction with the exact and sampled
//! backends.

use ocsvm::{ApproxParams, Kernel, KernelRowArena, SolverBackend};
use proxylog::UserId;
use std::collections::BTreeMap;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    compute_window_sets, ModelGridCell, ModelGridSearch, ModelKind, SweepBackend, Vocabulary,
    WindowConfig, WindowSets,
};

/// A small Frank–Wolfe subsample so the quick-test corpus (≤ 40 windows
/// per user here) actually subsamples instead of solving every window.
fn small_approx() -> ApproxParams {
    ApproxParams { fw_sample: 24, ..ApproxParams::default() }
}

fn fixture() -> (Vocabulary, WindowSets) {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(40));
    (vocab, sets)
}

fn search<'a>(vocab: &'a Vocabulary, backend: SweepBackend) -> ModelGridSearch<'a> {
    ModelGridSearch::new(vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
        .regularizations(vec![0.9, 0.5, 0.1])
        .solver_backend(backend)
        .approx_params(small_approx())
        .arena(KernelRowArena::with_budget(64 << 20))
}

fn assert_cells_bitwise_equal(
    a: &BTreeMap<UserId, Vec<ModelGridCell>>,
    b: &BTreeMap<UserId, Vec<ModelGridCell>>,
    tag: &str,
) {
    assert_eq!(a.len(), b.len(), "{tag}: user sets differ");
    for (user, cells) in a {
        let other = &b[user];
        assert_eq!(cells.len(), other.len(), "{tag} {user}: cell counts differ");
        for (x, y) in cells.iter().zip(other) {
            assert_eq!(x.kernel, y.kernel, "{tag} {user}");
            assert_eq!(x.regularization, y.regularization, "{tag} {user}");
            // Bit-exact, not approximately equal.
            assert_eq!(x.summary.acc_self, y.summary.acc_self, "{tag} {user}");
            assert_eq!(x.summary.acc_other, y.summary.acc_other, "{tag} {user}");
        }
    }
}

#[test]
fn approximate_backends_are_bit_identical_across_runs_and_workers() {
    let (vocab, sets) = fixture();
    let sampled = SweepBackend::Fixed(SolverBackend::SampledFw);
    let reference = search(&vocab, sampled.clone()).workers(1).sweep_cells(&sets).0;
    // A fixed seed must give the same models run-to-run and at any sweep
    // parallelism: cells are solved independently, so thread count may
    // change the schedule but never the arithmetic.
    for workers in [1usize, 2, 8] {
        let (cells, stats) = search(&vocab, sampled.clone()).workers(workers).sweep_cells(&sets);
        assert_eq!(stats.workers, workers);
        assert_eq!(stats.exact_cells, 0, "every cell runs sampled");
        assert_eq!(stats.approx_cells, stats.cells);
        assert_cells_bitwise_equal(&reference, &cells, &format!("sampled x{workers}"));
    }
}

#[test]
fn auto_with_impossible_tolerance_is_bitwise_the_exact_sweep() {
    let (vocab, sets) = fixture();
    let (exact, exact_stats) =
        search(&vocab, SweepBackend::Fixed(SolverBackend::ExactSmo)).sweep_cells(&sets);
    // ACC differences live in [-2, 2], so a tolerance of -10 makes every
    // chain's calibration fall back to exact SMO.
    let (auto, stats) = search(&vocab, SweepBackend::Auto { tolerance: -10.0 }).sweep_cells(&sets);
    assert_cells_bitwise_equal(&exact, &auto, "auto(-10) vs exact");
    assert!(stats.auto_fallbacks > 0, "every calibrated chain must fall back");
    assert_eq!(stats.approx_cells, 0);
    assert_eq!(stats.exact_cells, stats.cells);
    assert_eq!(stats.cells, exact_stats.cells);
}

#[test]
fn auto_with_generous_tolerance_is_bitwise_the_cheap_sweep() {
    let (vocab, sets) = fixture();
    let (fixed, _) =
        search(&vocab, SweepBackend::Fixed(SolverBackend::SampledFw)).sweep_cells(&sets);
    // A tolerance of 10 can never be exceeded, so every chain keeps sampled
    // Frank–Wolfe and the sweep equals the fixed sampled sweep bitwise.
    let (auto, stats) = search(&vocab, SweepBackend::Auto { tolerance: 10.0 }).sweep_cells(&sets);
    assert_cells_bitwise_equal(&fixed, &auto, "auto(10) vs cheap");
    assert_eq!(stats.auto_fallbacks, 0, "no chain may fall back");
    assert_eq!(stats.exact_cells, 0);
    assert_eq!(stats.approx_cells, stats.cells);
}

#[test]
fn warm_started_exact_sweep_selects_like_the_cold_sweep() {
    let (vocab, sets) = fixture();
    // A fine ladder keeps each seed near the next cell's optimum; coarse
    // ladders let seeded solves stop at a different point of the KKT
    // tolerance band and flip knife-edge acceptance decisions.
    let ladder = vec![0.9, 0.7, 0.5, 0.3, 0.1];
    let cold = search(&vocab, SweepBackend::Fixed(SolverBackend::ExactSmo))
        .regularizations(ladder.clone())
        .warm_start(false)
        .sweep_all(&sets);
    let warm = search(&vocab, SweepBackend::Fixed(SolverBackend::ExactSmo))
        .regularizations(ladder.clone())
        .warm_start(true)
        .sweep_all(&sets);
    assert!(warm.1.warm_cells > 0, "ladder cells after the first must be seeded");
    // Seeding moves the solver's stopping point inside its KKT tolerance
    // band, so knife-edge cells may score differently — but judged by the
    // cold sweep's own scores the warm selection must be as good.
    let cold_cells = search(&vocab, SweepBackend::Fixed(SolverBackend::ExactSmo))
        .regularizations(ladder)
        .warm_start(false)
        .sweep_cells(&sets)
        .0;
    for (user, params) in &warm.0 {
        let cells = &cold_cells[user];
        let best = cells.iter().map(|c| c.summary.acc()).fold(f64::NEG_INFINITY, f64::max);
        let chosen = cells
            .iter()
            .find(|c| {
                Kernel::default_for(c.kernel, vocab.n_features()) == params.kernel
                    && c.regularization == params.regularization
            })
            .map(|c| c.summary.acc())
            .unwrap_or(f64::NEG_INFINITY);
        assert!(chosen >= best - 0.1, "{user}: warm pick acc {chosen} trails cold best {best}");
    }
    assert_eq!(cold.0.len(), warm.0.len());
}

#[test]
fn warm_start_is_ignored_by_approximate_backends() {
    let (vocab, sets) = fixture();
    let sampled = SweepBackend::Fixed(SolverBackend::SampledFw);
    let (cold, _) = search(&vocab, sampled.clone()).warm_start(false).sweep_cells(&sets);
    let (warm, stats) = search(&vocab, sampled).warm_start(true).sweep_cells(&sets);
    // Sampled Frank–Wolfe discards α seeds, so turning warm start on must
    // not change a single bit — and no cell counts as warm.
    assert_cells_bitwise_equal(&cold, &warm, "sampled warm vs cold");
    assert_eq!(stats.warm_cells, 0, "sampled cells never count warm");
    assert_eq!(stats.cold_cells, stats.cells);
}
