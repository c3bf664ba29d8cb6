//! Accuracy-vs-train-time frontier of the two solver backends.
//!
//! Runs the full model grid sweep three times over the same corpus — all
//! cells exact SMO, all cells sampled Frank–Wolfe, and the `Auto` policy
//! (sampled FW first, per-chain fallback to exact when the calibration
//! cell's ACC drops more than the tolerance) — and reports per-run solver
//! seconds, iteration counts, mean support size, and the grid-search ACC
//! delta against the exact sweep.
//!
//! ```text
//! cargo run -p bench --bin train_frontier --release [--smoke] [--weeks N]
//!     [--workers N] [--reps N] [--tolerance T] [--fw-sample N] [--json PATH]
//! ```
//!
//! `--smoke` sweeps the tiny `quick_test` corpus (seconds; used by CI).
//! Train seconds are the solver wall-clock summed over cells
//! ([`SweepStats::train_nanos`]) — scoring and scheduling are identical
//! across backends and excluded, so the ratio isolates the backend choice.
//! `--json PATH` writes the headline metrics as a flat `BENCH_train.json`
//! for the perf gate: `train_speedup_vs_exact` (higher is better) and
//! `acc_delta_auto` (lower is better).

use bench::{json, Experiment, ExperimentConfig};
use ocsvm::{ApproxParams, KernelRowArena, SolverBackend, SolverOptions};
use proxylog::UserId;
use std::collections::BTreeMap;
use std::time::Duration;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    compute_window_sets, ModelGridCell, ModelGridSearch, ModelKind, ProfileTrainer, SweepBackend,
    SweepStats, Vocabulary, WindowConfig, WindowSets,
};

fn main() {
    let smoke = ExperimentConfig::has_flag("--smoke");
    let workers = flag_or("--workers", 0usize);
    let reps = flag_or("--reps", if smoke { 3usize } else { 1 });
    let tolerance = flag_or("--tolerance", 0.05f64);

    let (vocab, sets) = if smoke {
        // A denser window cap than the other smoke benches: per-cell solver
        // cost grows quadratically with the training-set size, so a larger
        // `l` both stabilizes the timings and exercises the regime the
        // sampled backend is built for.
        let max_windows = flag_or("--max-windows", 400usize);
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets =
            compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(max_windows));
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

    // A subsample well below the largest training set, so sampled FW
    // actually subsamples instead of degenerating to a full-set solve.
    let largest = sets.values().map(Vec::len).max().unwrap_or(0);
    let approx = ApproxParams {
        fw_sample: flag_or("--fw-sample", (largest / 5).max(24)),
        ..ApproxParams::default()
    };
    eprintln!(
        "# {} users, {} windows (largest set {largest}); fw sample {}, tolerance {tolerance}",
        sets.len(),
        sets.values().map(Vec::len).sum::<usize>(),
        approx.fw_sample,
    );

    let search = |backend: SweepBackend| {
        let mut search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
            .solver_backend(backend)
            .approx_params(approx);
        if workers > 0 {
            search = search.workers(workers);
        }
        search
    };
    let runs: [(&str, SweepBackend); 3] = [
        ("exact", SweepBackend::Fixed(SolverBackend::ExactSmo)),
        ("sampled", SweepBackend::Fixed(SolverBackend::SampledFw)),
        ("auto", SweepBackend::Auto { tolerance }),
    ];

    println!("TRAIN FRONTIER ({} users, SVDD sweep, {} reps)", sets.len(), reps);
    // Repetitions are interleaved across the three configurations (round
    // `i` runs each config once) so machine drift during the bench hits
    // every backend equally instead of skewing the speedup ratio.
    type Timed = (Duration, SweepStats, BTreeMap<UserId, Vec<ModelGridCell>>);
    let mut timed: Vec<Option<Timed>> = runs.iter().map(|_| None).collect();
    for _ in 0..reps.max(1) {
        for ((_, backend), best) in runs.iter().zip(timed.iter_mut()) {
            let run = search(backend.clone()).arena(KernelRowArena::with_budget(256 << 20));
            let (cells, stats) = run.sweep_cells(&sets);
            let train = Duration::from_nanos(stats.train_nanos);
            if best.as_ref().is_none_or(|(t, ..)| train < *t) {
                *best = Some((train, stats, cells));
            }
        }
    }
    let mut measured: Vec<(&str, Duration, SweepStats, f64, f64)> = Vec::new();
    for ((name, backend), best) in runs.iter().zip(timed) {
        let (train, stats, cells) = best.expect("at least one repetition");
        let acc = mean_best_acc(&cells);
        let support = mean_support(&vocab, &sets, &cells, backend.clone(), approx);
        let name = *name;
        println!(
            "  {name:<9} {:>9.4} s solver  {:>9} iterations  {:>6.1} support  ACC {acc:.4}  \
             ({} exact / {} approx cells{})",
            train.as_secs_f64(),
            stats.warm_iterations + stats.cold_iterations,
            support,
            stats.exact_cells,
            stats.approx_cells,
            if stats.auto_fallbacks > 0 {
                format!(", {} fallbacks", stats.auto_fallbacks)
            } else {
                String::new()
            },
        );
        measured.push((name, train, stats, acc, support));
    }

    let seconds = |name: &str| {
        measured.iter().find(|(n, ..)| *n == name).expect("run measured").1.as_secs_f64()
    };
    let acc_of = |name: &str| measured.iter().find(|(n, ..)| *n == name).expect("run measured").3;
    let exact_seconds = seconds("exact");
    let speedup = exact_seconds / seconds("auto").max(1e-9);
    let acc_delta = (acc_of("exact") - acc_of("auto")).max(0.0);
    println!("  auto speedup vs exact: {speedup:.2}x, ACC delta {acc_delta:.4}");

    if let Some(path) = ExperimentConfig::arg_value("--json") {
        let mut metrics: Vec<(String, f64)> = Vec::new();
        for (name, train, stats, acc, support) in &measured {
            metrics.push((format!("train_seconds_{name}"), train.as_secs_f64()));
            metrics.push((
                format!("iterations_{name}"),
                (stats.warm_iterations + stats.cold_iterations) as f64,
            ));
            metrics.push((format!("support_mean_{name}"), *support));
            metrics.push((format!("acc_{name}"), *acc));
        }
        metrics.push(("train_speedup_vs_exact".into(), speedup));
        metrics.push(("acc_delta_auto".into(), acc_delta));
        let auto = &measured.iter().find(|(n, ..)| *n == "auto").expect("auto run").2;
        metrics.push(("auto_fallbacks".into(), auto.auto_fallbacks as f64));
        metrics.push(("auto_approx_cells".into(), auto.approx_cells as f64));
        metrics.push(("cells".into(), auto.cells as f64));
        let named: Vec<(&str, f64)> = metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        std::fs::write(&path, json::emit(&named)).expect("writing frontier metrics");
        eprintln!("# wrote {path}");
    }
}

/// Mean over users of each user's best grid-search `ACC`.
fn mean_best_acc(cells: &BTreeMap<UserId, Vec<ModelGridCell>>) -> f64 {
    let best: Vec<f64> = cells
        .values()
        .filter(|cells| !cells.is_empty())
        .map(|cells| cells.iter().map(|c| c.summary.acc()).fold(f64::NEG_INFINITY, f64::max))
        .collect();
    if best.is_empty() {
        return 0.0;
    }
    best.iter().sum::<f64>() / best.len() as f64
}

/// Mean support-vector count of one final profile per user, trained at
/// the user's best swept cell with the run's backend (`Auto` retrains
/// with sampled FW — the backend the bulk of its cells used).
fn mean_support(
    vocab: &Vocabulary,
    sets: &WindowSets,
    cells: &BTreeMap<UserId, Vec<ModelGridCell>>,
    backend: SweepBackend,
    approx: ApproxParams,
) -> f64 {
    let backend = match backend {
        SweepBackend::Fixed(b) => b,
        SweepBackend::Auto { .. } => SolverBackend::SampledFw,
    };
    let mut supports: Vec<f64> = Vec::new();
    for (user, cells) in cells {
        let Some(best) = cells.iter().max_by(|a, b| a.summary.acc().total_cmp(&b.summary.acc()))
        else {
            continue;
        };
        let trained = ProfileTrainer::new(vocab)
            .kind(ModelKind::Svdd)
            .kernel(ocsvm::Kernel::default_for(best.kernel, vocab.n_features()))
            .regularization(best.regularization)
            .solver_options(SolverOptions { backend, approx, ..SolverOptions::default() })
            .train_from_vectors(*user, &sets[user]);
        if let Ok(profile) = trained {
            supports.push(profile.support_vector_count() as f64);
        }
    }
    if supports.is_empty() {
        return 0.0;
    }
    supports.iter().sum::<f64>() / supports.len() as f64
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} parse error: {e:?}")))
        .unwrap_or(default)
}
