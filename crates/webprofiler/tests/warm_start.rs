//! Warm-started exact sweeps: seeding each cell's solver from the previous
//! regularization's `α` must select parameters as good as the cold sweep.

use ocsvm::{Kernel, KernelRowArena};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    compute_window_sets, ModelGridSearch, ModelKind, Vocabulary, WindowConfig, WindowSets,
};

fn fixture() -> (Vocabulary, WindowSets) {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(40));
    (vocab, sets)
}

fn search(vocab: &Vocabulary) -> ModelGridSearch<'_> {
    ModelGridSearch::new(vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
        .regularizations(vec![0.9, 0.5, 0.1])
        .arena(KernelRowArena::with_budget(64 << 20))
}

#[test]
fn warm_started_exact_sweep_selects_like_the_cold_sweep() {
    let (vocab, sets) = fixture();
    // A fine ladder keeps each seed near the next cell's optimum; coarse
    // ladders let seeded solves stop at a different point of the KKT
    // tolerance band and flip knife-edge acceptance decisions.
    let ladder = vec![0.9, 0.7, 0.5, 0.3, 0.1];
    let cold = search(&vocab).regularizations(ladder.clone()).warm_start(false).sweep_all(&sets);
    let warm = search(&vocab).regularizations(ladder.clone()).warm_start(true).sweep_all(&sets);
    assert!(warm.1.warm_cells > 0, "ladder cells after the first must be seeded");
    // Seeding moves the solver's stopping point inside its KKT tolerance
    // band, so knife-edge cells may score differently — but judged by the
    // cold sweep's own scores the warm selection must be as good.
    let cold_cells = search(&vocab).regularizations(ladder).warm_start(false).sweep_cells(&sets).0;
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
