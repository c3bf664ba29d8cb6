//! Streaming-identification replay: drives a `streamid::StreamEngine`
//! from a generated corpus as if it were a live proxy feed and reports
//! throughput, decision latency, and the speedup of batched scoring over
//! one-window-at-a-time identification.
//!
//! ```text
//! cargo run -p bench --bin replay --release [--smoke] [--weeks N]
//!     [--batch N] [--vote-k K] [--watermark SECS] [--max-pending N]
//!     [--speed F]
//! ```
//!
//! `--smoke` replays the tiny `quick_test` corpus (sub-second; used by
//! CI). `--json PATH` additionally writes the headline metrics as a flat
//! `BENCH_replay.json` for the perf gate. `--speed F` paces the replay at
//! `F×` real time (default 0 = unpaced, as fast as possible). Profiles
//! are persisted to a
//! [`streamid::ModelStore`] and reloaded before the replay, so the run
//! exercises the deployment path: train offline, ship model files, score
//! a live stream.

use bench::{Experiment, ExperimentConfig};
use proxylog::{Dataset, UserId};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use streamid::{EngineConfig, ModelStore, StreamEngine};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    ProfileTrainer, UserProfile, Vocabulary, WindowAggregator, WindowConfig, WindowKey,
};

fn main() {
    let smoke = ExperimentConfig::has_flag("--smoke");
    let batch_windows = flag_or("--batch", 64usize);
    let vote_k = flag_or("--vote-k", 3usize);
    let lateness_secs = flag_or("--watermark", 0u32);
    let max_pending = flag_or("--max-pending", 4096usize);
    let speed = flag_or("--speed", 0.0f64);
    // Timing repetitions (min-of-N): the smoke corpus scores in well under
    // a millisecond, where a single measurement is mostly noise.
    let reps = flag_or("--reps", if smoke { 5usize } else { 1 });

    // Corpus + profiles: train on the older 75 %, replay the newer 25 %
    // as the "live" stream (smoke: train and replay the tiny corpus).
    let (vocab, profiles, replayed) = if smoke {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        (vocab, profiles, dataset)
    } else {
        let config = ExperimentConfig::parse(4);
        let max_windows = config.max_windows;
        let experiment = Experiment::build(config);
        let (profiles, _) = ProfileTrainer::new(&experiment.vocab)
            .max_training_windows(max_windows)
            .train_all(&experiment.train);
        (experiment.vocab, profiles, experiment.test)
    };
    eprintln!("# {} profiles, {} replayed transactions", profiles.len(), replayed.len());

    // Ship the models through a store, like a real deployment would.
    let store_dir = std::env::temp_dir().join(format!("streamid-replay-{}", std::process::id()));
    let store = ModelStore::new(&store_dir);
    store.save(&profiles).expect("persisting profiles");
    let profiles = store.load().expect("reloading profiles");
    eprintln!("# profiles reloaded from {}", store_dir.display());

    // Baseline: offline-style scoring, one window at a time, one profile
    // after another — what `identify_on_device` does per window.
    let (baseline_windows, baseline_time) = baseline_serial(&profiles, &vocab, &replayed, reps);

    // The engine replay (repeated; reported stats are from the last run,
    // the speedup uses the minimum scoring time over the repetitions).
    let config = EngineConfig {
        window: WindowConfig::PAPER_DEFAULT,
        vote_k,
        batch_windows,
        lateness_secs,
        max_pending_per_device: max_pending,
    };
    let mut engine = StreamEngine::new(&profiles, &vocab, config);
    let mut latencies: Vec<Duration> = Vec::new();
    let mut decisions = 0usize;
    let mut voted = 0usize;
    let mut vote_correct = 0usize;
    let mut elapsed = Duration::MAX;
    let mut engine_scoring = Duration::MAX;
    for _ in 0..reps.max(1) {
        engine = StreamEngine::new(&profiles, &vocab, config);
        latencies.clear();
        decisions = 0;
        voted = 0;
        vote_correct = 0;
        let started = Instant::now();
        let mut previous_event_time: Option<i64> = None;
        for tx in replayed.transactions() {
            if speed > 0.0 {
                if let Some(previous) = previous_event_time {
                    let gap = (tx.timestamp.as_secs() - previous).max(0) as f64 / speed;
                    std::thread::sleep(Duration::from_secs_f64(gap.min(1.0)));
                }
                previous_event_time = Some(tx.timestamp.as_secs());
            }
            for decision in engine.observe(*tx) {
                latencies.push(decision.queue_latency);
                decisions += 1;
                if let Some(user) = decision.vote {
                    voted += 1;
                    if decision.actual_users.contains(&user) {
                        vote_correct += 1;
                    }
                }
            }
        }
        for decision in engine.finish() {
            latencies.push(decision.queue_latency);
            decisions += 1;
            if let Some(user) = decision.vote {
                voted += 1;
                if decision.actual_users.contains(&user) {
                    vote_correct += 1;
                }
            }
        }
        elapsed = elapsed.min(started.elapsed());
        engine_scoring = engine_scoring.min(engine.stats().scoring);
    }
    let stats = engine.stats();

    println!("STREAMING REPLAY ({} windows, {} profiles)", decisions, profiles.len());
    println!(
        "  wall clock         {:>10.3} s  ({:.0} tx/s, {:.0} windows/s)",
        elapsed.as_secs_f64(),
        replayed.len() as f64 / elapsed.as_secs_f64(),
        decisions as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "  serial baseline    {:>10.3} s  scoring {} windows one at a time",
        baseline_time.as_secs_f64(),
        baseline_windows,
    );
    println!(
        "  batched scoring    {:>10.3} s  in {} batches (max {})",
        engine_scoring.as_secs_f64(),
        stats.batches,
        stats.max_batch,
    );
    let speedup = baseline_time.as_secs_f64() / engine_scoring.as_secs_f64().max(1e-9);
    println!("  scoring speedup    {speedup:>10.1} x  batched vs one-window-at-a-time");
    latencies.sort_unstable();
    println!(
        "  decision latency   p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms (queueing for a batch)",
        percentile(&latencies, 0.50).as_secs_f64() * 1e3,
        percentile(&latencies, 0.90).as_secs_f64() * 1e3,
        percentile(&latencies, 0.99).as_secs_f64() * 1e3,
    );
    if voted > 0 {
        println!(
            "  vote accuracy      {:>10.1} %  over {voted} decided windows (k = {vote_k})",
            100.0 * vote_correct as f64 / voted as f64,
        );
    }
    println!("  engine stats       {stats}");
    println!(
        "  stream counters    {} streams opened, {} windows closed, mean batch {:.1}",
        stats.streams_opened,
        stats.windows_closed,
        stats.windows_scored as f64 / stats.batches.max(1) as f64,
    );

    assert_eq!(decisions as u64, stats.windows_scored, "decision/stat mismatch");
    assert_eq!(
        baseline_windows, decisions,
        "engine must emit exactly the offline window count (shed {})",
        stats.windows_shed,
    );
    if speedup < 2.0 {
        eprintln!("WARNING: batched speedup below 2x ({speedup:.2}x)");
    }
    if let Some(path) = ExperimentConfig::arg_value("--json") {
        let metrics = [
            ("tx_per_sec", replayed.len() as f64 / elapsed.as_secs_f64().max(1e-9)),
            ("windows_per_sec", decisions as f64 / elapsed.as_secs_f64().max(1e-9)),
            ("scoring_speedup", speedup),
            ("decisions", decisions as f64),
            ("profiles", profiles.len() as f64),
            ("baseline_seconds", baseline_time.as_secs_f64()),
            ("batched_seconds", engine_scoring.as_secs_f64()),
            ("latency_p50_ms", percentile(&latencies, 0.50).as_secs_f64() * 1e3),
            ("latency_p99_ms", percentile(&latencies, 0.99).as_secs_f64() * 1e3),
            ("vote_accuracy", if voted > 0 { vote_correct as f64 / voted as f64 } else { 0.0 }),
        ];
        std::fs::write(&path, bench::json::emit(&metrics)).expect("writing replay metrics");
        eprintln!("# wrote {path}");
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

/// Scores every host-specific window one at a time against every profile
/// (the pre-batching hot path); returns the window count and the best
/// scoring wall clock over `reps` repetitions, excluding aggregation.
fn baseline_serial(
    profiles: &BTreeMap<UserId, UserProfile>,
    vocab: &Vocabulary,
    dataset: &Dataset,
    reps: usize,
) -> (usize, Duration) {
    let aggregator = WindowAggregator::new(vocab, WindowConfig::PAPER_DEFAULT);
    let mut all = Vec::new();
    for device in dataset.devices() {
        all.extend(aggregator.device_windows(dataset, device));
    }
    let mut elapsed = Duration::MAX;
    let mut accepted_total = 0usize;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        accepted_total = 0;
        for window in &all {
            debug_assert!(matches!(window.key, WindowKey::Device(_)));
            accepted_total +=
                profiles.values().filter(|profile| profile.accepts(&window.features)).count();
        }
        elapsed = elapsed.min(started.elapsed());
    }
    eprintln!("# baseline: {} acceptances over {} windows", accepted_total, all.len());
    (all.len(), elapsed)
}

fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} parse error: {e:?}")))
        .unwrap_or(default)
}
