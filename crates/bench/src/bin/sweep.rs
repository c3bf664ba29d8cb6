//! Grid-search sweep benchmark: drives the work-stealing scheduler over a
//! generated corpus and reports cell throughput, steal counts, the Gram
//! rows the (user, kernel) chains filled into their own stores,
//! warm-vs-cold SMO iteration counts, and the share of `ACCother` probes
//! each kernel's decision bound pruned without exact scoring.
//!
//! ```text
//! cargo run -p bench --bin sweep --release [--smoke] [--weeks N]
//!     [--workers N] [--model svdd|ocsvm] [--reps N] [--json PATH]
//! ```
//!
//! `--smoke` sweeps the tiny `quick_test` corpus (seconds; used by CI).
//! `--json PATH` writes the headline metrics as a flat `BENCH_sweep.json`
//! for the perf gate. Its work counts — `gram_fills`, `bound_pairs` and
//! `scored_pairs` — do not depend on the workers' interleaving, so they
//! are gated exactly.

use bench::{json, Experiment, ExperimentConfig};
use ocsvm::KernelKind;
use std::time::{Duration, Instant};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    compute_window_sets, ModelGridSearch, ModelKind, SweepStats, Vocabulary, WindowConfig,
    WindowSets,
};

fn main() {
    let smoke = ExperimentConfig::has_flag("--smoke");
    let workers = flag_or("--workers", 0usize);
    let reps = flag_or("--reps", if smoke { 3usize } else { 1 });
    // SVDD by default: its C-ladder is where α-seeding pays (the OC-SVM
    // uniform start is already near-feasible-optimal, so seeding across ν
    // buys little there).
    let kind = match ExperimentConfig::arg_value("--model").as_deref() {
        None | Some("svdd") => ModelKind::Svdd,
        Some("ocsvm") => ModelKind::OcSvm,
        Some(other) => panic!("--model takes svdd or ocsvm, not {other:?}"),
    };

    // Corpus: smoke sweeps the tiny deterministic corpus; otherwise the
    // training split of the standard evaluation corpus.
    let (vocab, sets) = if smoke {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(150));
        (vocab, sets)
    } else {
        let config = ExperimentConfig::parse(4);
        let max_windows = config.max_windows;
        let experiment = Experiment::build(config);
        let sets = compute_window_sets(
            &experiment.vocab,
            &experiment.train,
            WindowConfig::PAPER_DEFAULT,
            Some(max_windows),
        );
        (experiment.vocab, sets)
    };

    eprintln!("# {} users, {} windows", sets.len(), sets.values().map(Vec::len).sum::<usize>());

    let mut search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, kind);
    if workers > 0 {
        search = search.workers(workers);
    }

    let (cold_time, cold) = timed_sweep(&search, &sets, reps);
    let (warm_time, warm) = timed_sweep(&search.clone().warm_start(true), &sets, reps);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let cold_cps = cold.cells as f64 / cold_time.as_secs_f64().max(1e-9);
    let warm_cps = warm.cells as f64 / warm_time.as_secs_f64().max(1e-9);
    println!(
        "GRID-SEARCH SWEEP ({} users, {} chains, {} cells, {} workers, {cores} cores)",
        cold.users, cold.chains, cold.cells, cold.workers,
    );
    println!(
        "  cold sweep         {:>10.3} s  ({cold_cps:.0} cells/s, {} steals)",
        cold_time.as_secs_f64(),
        cold.steals,
    );
    println!(
        "  warm sweep         {:>10.3} s  ({warm_cps:.0} cells/s, {} steals)",
        warm_time.as_secs_f64(),
        warm.steals,
    );
    println!(
        "  gram rows          {:>10} filled  ({:.1} % of lookups served; largest chain store {:.1} KiB)",
        cold.arena.fills,
        100.0 * cold.arena.hit_rate(),
        cold.arena.peak_bytes as f64 / 1024.0,
    );
    println!(
        "  smo iterations     {:>10.1} /cell cold  vs  {:.1} /cell warm-started ({} warm cells)",
        warm.cold_iterations_per_cell().max(cold.cold_iterations_per_cell()),
        warm.warm_iterations_per_cell(),
        warm.warm_cells,
    );

    let pruned: Vec<String> = KernelKind::ALL
        .iter()
        .filter_map(|&kind| {
            let share = cold.pruned_share(kind)?;
            Some(format!("{kind} {:.1} %", 100.0 * share))
        })
        .collect();
    println!(
        "  ACCother pruned    {} of {} bound-examined (cell, probe) pairs: {}",
        cold.bound_pairs.iter().sum::<u64>() - cold.scored_pairs.iter().sum::<u64>(),
        cold.bound_pairs.iter().sum::<u64>(),
        pruned.join(", "),
    );

    assert_eq!(cold.cells, warm.cells, "warm start must not change the trained cell set");

    if let Some(path) = ExperimentConfig::arg_value("--json") {
        let metrics = [
            ("cells_per_sec", cold_cps),
            ("warm_cells_per_sec", warm_cps),
            ("cells", cold.cells as f64),
            ("chains", cold.chains as f64),
            ("users", cold.users as f64),
            ("workers", cold.workers as f64),
            ("steals", cold.steals as f64),
            ("gram_fills", cold.arena.fills as f64),
            ("gram_hit_rate", cold.arena.hit_rate()),
            ("gram_peak_bytes", cold.arena.peak_bytes as f64),
            ("cold_iterations_per_cell", cold.cold_iterations_per_cell()),
            ("warm_iterations_per_cell", warm.warm_iterations_per_cell()),
            ("bound_pairs", cold.bound_pairs.iter().sum::<u64>() as f64),
            ("scored_pairs", cold.scored_pairs.iter().sum::<u64>() as f64),
        ];
        std::fs::write(&path, json::emit(&metrics)).expect("writing sweep metrics");
        eprintln!("# wrote {path}");
    }
}

/// Runs the sweep `reps` times (each fills its chains' Gram rows afresh)
/// and returns the best wall clock with its stats.
fn timed_sweep(
    search: &ModelGridSearch<'_>,
    sets: &WindowSets,
    reps: usize,
) -> (Duration, SweepStats) {
    let mut best: Option<(Duration, SweepStats)> = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let (_, stats) = search.sweep_cells(sets);
        let elapsed = started.elapsed();
        if best.as_ref().is_none_or(|(t, _)| elapsed < *t) {
            best = Some((elapsed, stats));
        }
    }
    best.expect("at least one repetition")
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} parse error: {e:?}")))
        .unwrap_or(default)
}
