//! End-to-end and per-layer benchmark of online identification.
//!
//! ```text
//! perfbench --workload serve-linear|serve-rbf|train-sweep --seed N
//!     --seconds S --trace 0|1 --identd PATH --workdir DIR
//!     [--clk-tck HZ] [--source DIGEST] [--spans PATH]
//! ```
//!
//! Every workload generates its corpus, splits it at three quarters of its
//! time span, and replays a stretch of the newest quarter chosen by the
//! seed against the `identd` binary, started as a child process, at a
//! fixed offered rate. Every workload also times the kernel ×
//! regularisation grid search; `train-sweep` serves the profiles it
//! selects. With `--trace 1` the same workload and seed report per-layer
//! figures instead of end-to-end ones. The last line of standard output is
//! the result object; the line before it holds the run's metadata. See
//! `perfbench/README.md`.

mod loadgen;
mod procfs;
mod serve;
mod stats;
mod sweep;
mod trace;

use identd::Client;
use ocsvm::{Kernel, KernelKind};
use proxylog::{Dataset, Taxonomy};
use serve::{Daemon, Profiles, Replay};
use stats::{median, percentiles, sliced_percentiles, Percentiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use streamid::ModelStore;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{compute_window_sets, ProfileTrainer, Vocabulary, WindowConfig, WindowSets};

/// Corpus shape: many users sharing fewer devices.
const USERS: usize = 48;
const DEVICES: usize = 24;
const WEEKS: u32 = 16;
/// Training windows per user (even subsample).
const MAX_WINDOWS: usize = 120;
/// Set-up runs per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Latency percentiles are taken per part of the replay, cut into at most
/// this many parts of equal size, and the median across parts is reported.
const MAX_PARTS: usize = 15;
/// Minimum timed sweeps per run.
const MIN_SWEEPS: usize = 3;
/// Share of `--seconds` spent replaying; the rest times sweeps.
const SERVE_SHARE: f64 = 0.6;
/// Latency limits the p99s are judged against.
const DECISION_P99_LIMIT_MS: f64 = 250.0;
const INGEST_P99_LIMIT_MS: f64 = 50.0;
/// Largest uncovered share of a traced span tree's root.
const RECONCILE_BOUND: f64 = 0.05;
/// Seed kept out of tuning, for later claims.
const HELD_OUT_SEED: u64 = 20_170_605;

/// Where a workload's served profiles come from.
#[derive(Clone, Copy)]
enum ProfileSource {
    /// `train_all` at one fixed kernel with the default regularisation.
    Fixed(KernelKind),
    /// The cells the timed grid search selects per user.
    Selected,
}

struct Workload {
    name: &'static str,
    profiles: ProfileSource,
    /// Transactions per ingest batch; with `interval` this fixes the
    /// offered rate.
    batch_txs: usize,
    /// Ingest batches are due this often. Short enough that the daemon's
    /// threads rarely sleep long: on a busy host, waking a parked vCPU
    /// costs milliseconds.
    interval: Duration,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "serve-linear",
        profiles: ProfileSource::Fixed(KernelKind::Linear),
        batch_txs: 8,
        interval: Duration::from_micros(250),
    },
    Workload {
        name: "serve-rbf",
        profiles: ProfileSource::Fixed(KernelKind::Rbf),
        batch_txs: 1,
        interval: Duration::from_micros(300),
    },
    Workload {
        name: "train-sweep",
        profiles: ProfileSource::Selected,
        batch_txs: 1,
        interval: Duration::from_micros(300),
    },
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    identd: PathBuf,
    workdir: PathBuf,
    clk_tck: f64,
    source: String,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let known = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--identd",
            "--workdir",
            "--clk-tck",
            "--source",
            "--spans",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(flag, value);
    }
    let get = |flag: &str| values.get(flag).ok_or_else(|| format!("missing {flag}"));
    let name = get("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str| -> Result<f64, String> {
        get(flag)?.parse().map_err(|_| format!("{flag} takes a number"))
    };
    let seconds = number("--seconds")?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err("--seconds must be within 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: get("--seed")?.parse().map_err(|_| "--seed takes an integer".to_string())?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        identd: get("--identd")?.into(),
        workdir: get("--workdir")?.into(),
        clk_tck: values.get("--clk-tck").map_or(Ok(100.0), |_| number("--clk-tck"))?,
        source: values.get("--source").cloned().unwrap_or_else(|| "unknown".into()),
        spans: values.get("--spans").map(PathBuf::from),
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

/// What set-up leaves behind for the timed phase.
struct Setup {
    train: Dataset,
    replayed: Dataset,
    sets: Option<WindowSets>,
    served: Option<Served>,
}

/// Profiles on a running daemon.
struct Served {
    profiles: Profiles,
    store: PathBuf,
    daemon: Daemon,
    control: Client,
}

/// Wall times of one set-up run.
#[derive(Default)]
struct SetupTimes {
    total: Duration,
    generate: Duration,
    split: Duration,
    window_sets: Duration,
    train_all: Duration,
    store: Duration,
}

/// Counts of attempted and failed operations.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

fn generate() -> (Dataset, Dataset, Duration, Duration) {
    let scenario = Scenario::scaled(USERS, DEVICES, WEEKS);
    let (dataset, generate) = timed(|| TraceGenerator::new(scenario).generate());
    let ((train, replayed), split) = timed(|| {
        let (first, last) = dataset.time_range().expect("the generated corpus is empty");
        let cut = first + (last.as_secs() - first.as_secs()) * 3 / 4;
        dataset.split_at_time(cut)
    });
    (train, replayed, generate, split)
}

/// Saves profiles, starts a daemon and loads them into it.
fn deploy(
    args: &Args,
    profiles: Profiles,
    store: PathBuf,
    ops: &mut Ops,
    times: &mut SetupTimes,
) -> Result<Served, String> {
    let started = Instant::now();
    std::fs::create_dir_all(&store).map_err(|e| format!("creating {}: {e}", store.display()))?;
    ModelStore::new(&store).save(&profiles).map_err(|e| format!("saving profiles: {e}"))?;
    let saved = started.elapsed();
    let daemon = Daemon::start(&args.identd).map_err(|e| format!("starting identd: {e}"))?;
    let load_started = Instant::now();
    let mut control = Client::connect(daemon.addr).map_err(|e| format!("connecting: {e}"))?;
    let dir = store.to_str().ok_or("store path is not UTF-8")?;
    // A failed load ends the run, so only successful loads are counted.
    let (loaded, _) = control
        .load_profiles(serve::TENANT, dir, false)
        .map_err(|e| format!("load_profiles: {e}"))?;
    ops.add(1, 0);
    if loaded != profiles.len() {
        return Err(format!("daemon loaded {loaded} of {} profiles", profiles.len()));
    }
    times.store = saved + load_started.elapsed();
    Ok(Served { profiles, store, daemon, control })
}

fn setup(
    args: &Args,
    vocab: &Vocabulary,
    rep: usize,
    ops: &mut Ops,
) -> Result<(Setup, SetupTimes), String> {
    let started = Instant::now();
    let mut times = SetupTimes::default();
    let (train, replayed, generate, split) = generate();
    times.generate = generate;
    times.split = split;
    let mut setup = Setup { train, replayed, sets: None, served: None };
    match args.workload.profiles {
        ProfileSource::Fixed(kernel) => {
            let trainer = ProfileTrainer::new(vocab)
                .kind(sweep::KIND)
                .kernel(Kernel::default_for(kernel, vocab.n_features()))
                .max_training_windows(MAX_WINDOWS);
            let ((profiles, errors), train_all) = timed(|| trainer.train_all(&setup.train));
            times.train_all = train_all;
            if !errors.is_empty() {
                return Err(format!("{} users failed to train: {errors:?}", errors.len()));
            }
            let store = args.workdir.join(format!("store-{rep}"));
            setup.served = Some(deploy(args, profiles, store, ops, &mut times)?);
        }
        ProfileSource::Selected => {
            let (sets, window_sets) = timed(|| window_sets(vocab, &setup.train));
            times.window_sets = window_sets;
            setup.sets = Some(sets);
        }
    }
    times.total = started.elapsed();
    Ok((setup, times))
}

/// Milliseconds one pass over a 64 MiB buffer takes, the median of three:
/// a yardstick for the host's memory speed during the run, which moves
/// every time metric when a neighbour on the host contends for it.
fn host_yardstick_ms() -> f64 {
    let buffer = vec![1u64; 8 << 20];
    let passes: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(buffer.iter().fold(0u64, |a, &b| a.wrapping_add(b)));
            secs(started.elapsed()) * 1e3
        })
        .collect();
    median(&passes)
}

/// Median over set-up runs of one of their figures.
fn med(runs: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

fn window_sets(vocab: &Vocabulary, train: &Dataset) -> WindowSets {
    compute_window_sets(vocab, train, WindowConfig::PAPER_DEFAULT, Some(MAX_WINDOWS))
}

/// One metric line of the result.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A finite JSON number (non-finite values would break the result line).
fn json_num(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "1e300".to_string()
    }
}

fn p99(name: &str, summary: &Percentiles) -> Result<f64, String> {
    summary.p99.ok_or_else(|| {
        format!(
            "{name}: {} samples leave fewer than {} beyond the p99",
            summary.samples,
            stats::MIN_BEYOND_P99
        )
    })
}

fn num(stats: &identd::json::Json, path: &[&str]) -> f64 {
    let mut value = stats;
    for key in path {
        match value.get(key) {
            Some(next) => value = next,
            None => return 0.0,
        }
    }
    value.as_num().unwrap_or(0.0)
}

fn run(args: &Args) -> Result<(bool, Ops, Metrics, String), String> {
    let w = args.workload;
    let vocab = Vocabulary::new(Taxonomy::paper_scale());
    let taxonomy = Taxonomy::paper_scale();
    std::fs::create_dir_all(&args.workdir).map_err(|e| format!("creating workdir: {e}"))?;
    let mut ops = Ops::default();
    let mut correct = true;
    let mut notes: Vec<String> = Vec::new();
    let yardstick_ms = host_yardstick_ms();

    // Set-up, repeated; the last run's state is the one served.
    let mut setup_times = Vec::new();
    let mut state: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        // Free the previous run's corpus and daemon before the next one.
        if let Some(served) = state.take().and_then(|previous| previous.served) {
            serve::retire(served.daemon, served.control)
                .map_err(|e| format!("retiring daemon: {e}"))?;
        }
        let (next, times) = setup(args, &vocab, rep, &mut ops)?;
        state = Some(next);
        setup_times.push(times);
    }
    let Setup { train, replayed, sets, mut served } = state.expect("at least one set-up run");
    let setup_s = med(&setup_times, |t| secs(t.total));

    let mut metrics = Metrics(Vec::new());
    let mut layer = Metrics(Vec::new());
    let serve_secs = args.seconds * SERVE_SHARE;
    let (sets, window_sets_s) = match sets {
        Some(sets) => (sets, med(&setup_times, |t| secs(t.window_sets))),
        None => {
            let (sets, took) = timed(|| window_sets(&vocab, &train));
            (sets, secs(took))
        }
    };
    drop(train);
    let batches = (serve_secs / w.interval.as_secs_f64()).round() as usize;
    let (replay, prep) =
        timed(|| Replay::build(&vocab, &replayed, args.seed, batches, w.batch_txs));
    let replay = replay.map_err(|e| e.to_string())?;
    drop(replayed);

    // Timed sweeps on every workload: `train_s` and `train_cpu_s`, the
    // profiles `train-sweep` serves, and the per-layer sweep figures.
    // `train_all` at the served kernel is timed only in set-up: most of it
    // is window extraction, and its medians moved by up to 30 % between
    // sets of runs of the same code as the host slowed, against 10 % for
    // the sweep.
    let budget = Duration::from_secs_f64(args.seconds - serve_secs);
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut peaks = Vec::new();
    while runs.len() < MIN_SWEEPS || started.elapsed() < budget {
        // Each sweep's own high-water mark, not set-up's or the previous
        // sweep's.
        procfs::reset_peak_rss().map_err(|e| format!("resetting the peak RSS: {e}"))?;
        runs.push(sweep::run(&vocab, &sets, args.clk_tck));
        peaks.push(procfs::peak_rss_mib("self").map_err(|e| e.to_string())?);
    }
    for run in &runs {
        ops.add(run.stats.executed, run.stats.executed - run.stats.cells);
    }
    let train_runs: Vec<(f64, f64)> = runs.iter().map(|r| (secs(r.wall), r.cpu.total())).collect();
    let train_s = median(&train_runs.iter().map(|r| r.0).collect::<Vec<_>>());
    let train_cpu_s = median(&train_runs.iter().map(|r| r.1).collect::<Vec<_>>());
    runs.sort_by_key(|r| r.wall);
    let timed_sweep = runs.swap_remove(runs.len() / 2);
    drop(runs);

    let (mut selected_acc, mut sweep_peak_mib) = (None, None);
    let (mut train_all_s, mut store_s) =
        (med(&setup_times, |t| secs(t.train_all)), med(&setup_times, |t| secs(t.store)));
    match w.profiles {
        ProfileSource::Fixed(_) => {}
        ProfileSource::Selected => {
            sweep_peak_mib = Some(median(&peaks));
            let selected = sweep::selected(&timed_sweep.cells);
            selected_acc = Some(sweep::mean_acc(selected.values().map(|c| &c.summary)));
            // Deploy: rebuild the selected profiles, then check each
            // against its cell by re-scoring through `acceptance_ratio`.
            let mut times = SetupTimes::default();
            let (profiles, retrain) = timed(|| sweep::train_selected(&vocab, &sets, &selected));
            let rescored = sweep::rescore(&profiles, &sets);
            let mut worst: f64 = 0.0;
            for (user, cell) in &selected {
                worst = worst.max((rescored[user].acc() - cell.summary.acc()).abs());
            }
            if worst > 0.0 {
                correct = false;
                notes.push(format!("a selected cell's ACC re-scored {worst:.6} away"));
            }
            let store = args.workdir.join("store-selected");
            served = Some(deploy(args, profiles, store, &mut ops, &mut times)?);
            (train_all_s, store_s) = (secs(retrain), secs(times.store));
        }
    }

    let served = served.expect("profiles are served");
    let (profiles, store) = (served.profiles, served.store);
    let run = serve::serve(served.daemon, served.control, &replay, w.interval, args.clk_tck)
        .map_err(|e| format!("serving: {e}"))?;

    // Checks against the offline reference, on the profiles as stored.
    let stored = ModelStore::new(&store).load().map_err(|e| format!("reloading profiles: {e}"))?;
    let expected = serve::reference(
        &stored,
        &vocab,
        &replay,
        streamid::EngineConfig::default().vote_k,
        &taxonomy,
    );
    let verdict = serve::verdict(&run, &replay, &expected);
    let grid_acc =
        selected_acc.unwrap_or_else(|| sweep::mean_acc(sweep::rescore(&profiles, &sets).values()));
    let ingest_failed = run.drive.timeline.done.iter().filter(|d| d.is_none()).count() as u64;
    ops.add(batches as u64, ingest_failed);
    ops.add(run.drive.decide_attempted, run.drive.decide_failed);
    ops.add(verdict.expected as u64, verdict.missing as u64);
    let decision_match_ratio = verdict.matched as f64 / verdict.expected.max(1) as f64;
    if verdict.unexpected > 0 {
        correct = false;
        notes.push(format!(
            "{} decisions for windows the reference does not have",
            verdict.unexpected
        ));
    }
    if matches!(w.profiles, ProfileSource::Fixed(KernelKind::Linear))
        && verdict.matched != verdict.expected
    {
        correct = false;
        notes.push(format!(
            "linear decisions differ from the exhaustive reference: {} of {} match",
            verdict.matched, verdict.expected
        ));
    }
    let vote_accuracy = verdict.vote_correct as f64 / verdict.voted.max(1) as f64;
    let sliced = |values: &[(usize, f64)]| sliced_percentiles(values, MAX_PARTS);
    let decision = sliced(&verdict.latencies_ms).ok_or("no decisions were timed")?;
    let ingest_ms: Vec<(usize, f64)> =
        run.drive.timeline.due_latencies_ms().into_iter().enumerate().collect();
    let ingest = sliced(&ingest_ms).ok_or("no ingest batches")?;
    let lag = sliced(&run.drive.timeline.lags_ms()).ok_or("no batch was sent")?;
    let cpu_us_per_tx = run.daemon_cpu.total() * 1e6 / run.txs_sent.max(1) as f64;
    let ok_ratio = (ops.attempted - ops.failed) as f64 / ops.attempted.max(1) as f64;
    let peak_rss_mib = sweep_peak_mib.unwrap_or(run.daemon_peak_mib);

    let (decision_p99, ingest_p99) = (p99("decision", &decision)?, p99("ingest", &ingest)?);
    metrics.put("setup_s", setup_s, "s");
    metrics.put("cpu_us_per_tx", cpu_us_per_tx, "us/tx");
    metrics.put("ok_ratio", ok_ratio, "ratio");
    metrics.put("peak_rss_mib", peak_rss_mib, "MiB");
    metrics.put("train_s", train_s, "s");
    metrics.put("train_cpu_s", train_cpu_s, "s");
    metrics.put("grid_acc", grid_acc, "ratio");

    // Daemon counters.
    let tenant = |key: &str| num(&run.stats, &["tenants", serve::TENANT, key]);
    let failed_ops = run.drive.ingest_errors.len() as f64
        + run.drive.decide_failed as f64
        + num(&run.stats, &["daemon", "errors"])
        + tenant("windows_shed")
        + tenant("decisions_dropped")
        + tenant("ingests_shed");
    let queue_ms: Vec<f64> =
        run.drive.decisions.iter().map(|(_, r)| r.queue_us as f64 / 1e3).collect();
    let queue = percentiles(&queue_ms).ok_or("no decisions")?;

    let mut meta = String::new();
    let _ = write!(
        meta,
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {}, \
         \"available_parallelism\": {}, \"host_yardstick_ms\": {yardstick_ms}, \"source\": \"{}\", \"offered_rate_tx_per_s\": {}, \
         \"batch_txs\": {}, \"batch_interval_ms\": {}, \"batches\": {batches}, \
         \"replayed_txs\": {}, \"daemon_flags\": \"{}\", \"daemon_workers\": 2, \"client_connections\": 2, \
         \"client_threads\": 2, \"sweep_workers\": {}, \"profiles\": {}, \
         \"decision_p99_limit_ms\": {DECISION_P99_LIMIT_MS}, \"ingest_p99_limit_ms\": {INGEST_P99_LIMIT_MS}, \
         \"decision_p50_ms\": {}, \"decision_p99_ms\": {decision_p99}, \"ingest_p50_ms\": {}, \
         \"ingest_p99_ms\": {ingest_p99}, \"decision_p99_within_limit\": {}, \"ingest_p99_within_limit\": {}, \
         \"decision_samples\": {}, \"ingest_samples\": {}, \"lag_samples\": {}, \"queue_samples\": {}, \
         \"flushed_decisions\": {}, \"expected_windows\": {}, \"matched\": {}, \"missing\": {}, \
         \"serve_wall_s\": {}, \"prep_s\": {}, \"setup_reps\": {SETUP_REPS}, \"setup_runs_s\": [{}], \
         \"sweep_runs_s\": [{}], \"notes\": [{}]}}}}",
        w.name,
        args.seed,
        args.trace,
        parcore::default_workers(),
        args.source,
        w.batch_txs as f64 / w.interval.as_secs_f64(),
        w.batch_txs,
        w.interval.as_secs_f64() * 1e3,
        replay.txs.len(),
        serve::DAEMON_FLAGS.join(" "),
        sweep::workers(),
        profiles.len(),
        decision.p50,
        ingest.p50,
        decision_p99 <= DECISION_P99_LIMIT_MS,
        ingest_p99 <= INGEST_P99_LIMIT_MS,
        decision.samples,
        ingest.samples,
        lag.samples,
        queue.samples,
        run.flushed.len(),
        verdict.expected,
        verdict.matched,
        verdict.missing,
        secs(run.wall),
        secs(prep),
        setup_times.iter().map(|t| format!("{:.4}", secs(t.total))).collect::<Vec<_>>().join(", "),
        train_runs.iter().map(|r| format!("{:.4}", r.0)).collect::<Vec<_>>().join(", "),
        notes.iter().map(|n| format!("{n:?}")).collect::<Vec<_>>().join(", "),
    );

    if !args.trace {
        return Ok((correct, ops, metrics, meta));
    }

    // Traced run: per-layer figures.
    let mut tracer = trace::Tracer::new();
    let t = serve::trace_replay(&stored, &vocab, &replay, &expected, &mut tracer);
    if t.stage_mismatches > 0 {
        correct = false;
    }
    if t.replay_gap > RECONCILE_BOUND || t.stage_gap > RECONCILE_BOUND {
        correct = false;
    }
    let tx = replay.txs.len() as f64;
    let per_ktx = |d: Duration| secs(d) * 1e6 / tx * 1e3;
    let traced_us_per_tx = secs(t.decode + t.observe + t.encode) * 1e6 / tx;
    layer.put("identd.decision_p50_ms", decision.p50, "ms");
    layer.put("identd.decision_p99_ms", decision_p99, "ms");
    layer.put("identd.ingest_p50_ms", ingest.p50, "ms");
    layer.put("identd.ingest_p99_ms", ingest_p99, "ms");
    layer.put("identd.decode_us_per_ktx", per_ktx(t.decode), "us/ktx");
    layer.put(
        "identd.encode_us_per_kdecision",
        secs(t.encode) * 1e6 / t.decisions.max(1) as f64 * 1e3,
        "us/kdecision",
    );
    layer.put("identd.wire_bytes_per_tx", replay.wire_bytes as f64 / tx, "bytes/tx");
    layer.put("identd.residual_us_per_tx", cpu_us_per_tx - traced_us_per_tx, "us/tx");
    layer.put("identd.failed_ops", failed_ops, "count");
    layer.put("loadgen.lag_p99_ms", p99("lag", &lag)?, "ms");
    layer.put("streamid.observe_us_per_ktx", per_ktx(t.observe), "us/ktx");
    layer.put("streamid.batches", t.batches as f64, "count");
    layer.put("streamid.mean_batch_windows", t.mean_batch_windows, "windows");
    layer.put("streamid.queue_p99_ms", p99("queue", &queue)?, "ms");
    layer.put("streamid.windows_shed", tenant("windows_shed"), "count");
    layer.put("streamid.late_dropped", tenant("late_dropped"), "count");
    layer.put("webprofiler.window_close_us_per_ktx", per_ktx(t.window_close), "us/ktx");
    let windows = t.windows.max(1) as f64;
    layer.put(
        "webprofiler.shortlist_us_per_window",
        secs(t.shortlist) * 1e6 / windows,
        "us/window",
    );
    layer.put("webprofiler.shortlist_mean", t.shortlisted as f64 / windows, "candidates");
    layer.put("webprofiler.prefilter_recall", t.recall_hits as f64 / windows, "ratio");
    layer.put("webprofiler.decision_match_ratio", decision_match_ratio, "ratio");
    layer.put("streamid.vote_accuracy", vote_accuracy, "ratio");
    layer.put("ocsvm.score_us_per_window", secs(t.score) * 1e6 / windows, "us/window");
    layer.put("ocsvm.kernel_evals_per_window", t.kernel_evals as f64 / windows, "evals/window");
    layer.put("ocsvm.bytes_per_window", t.bytes as f64 / windows, "bytes/window");
    let (hit_rate, fills, evictions, peak) = match w.profiles {
        ProfileSource::Selected => {
            let a = timed_sweep.stats.arena;
            (a.hit_rate(), a.fills as f64, a.evictions as f64, a.peak_bytes as f64)
        }
        ProfileSource::Fixed(_) => (
            num(&run.stats, &["arena", "hit_rate"]),
            num(&run.stats, &["arena", "misses"]),
            num(&run.stats, &["arena", "evictions"]),
            num(&run.stats, &["arena", "peak_bytes"]),
        ),
    };
    layer.put("ocsvm.arena_hit_rate", hit_rate, "ratio");
    layer.put("ocsvm.arena_fills", fills, "count");
    layer.put("ocsvm.arena_evictions", evictions, "count");
    layer.put("ocsvm.arena_peak_mib", peak / (1 << 20) as f64, "MiB");
    let s = &timed_sweep.stats;
    let solve_s = s.train_nanos as f64 / 1e9 / s.workers.max(1) as f64;
    layer.put("ocsvm.solve_s", solve_s, "s");
    layer.put("ocsvm.smo_iters_per_cell_cold", s.cold_iterations_per_cell(), "iterations");
    layer.put("ocsvm.smo_iters_per_cell_warm", s.warm_iterations_per_cell(), "iterations");
    layer.put("webprofiler.select_s", secs(timed_sweep.wall) - solve_s, "s");
    layer.put("webprofiler.warm_cell_share", s.warm_cells as f64 / s.cells.max(1) as f64, "ratio");
    layer.put("webprofiler.window_sets_s", window_sets_s, "s");
    layer.put("parcore.steals", s.steals as f64, "count");
    layer.put(
        "parcore.busy_share",
        timed_sweep.cpu.total() / (s.workers.max(1) as f64 * secs(timed_sweep.wall)),
        "ratio",
    );
    layer.put(
        "process.sys_share",
        timed_sweep.cpu.system / timed_sweep.cpu.total().max(1e-9),
        "ratio",
    );
    layer.put("tracegen.generate_s", med(&setup_times, |t| secs(t.generate)), "s");
    layer.put("proxylog.split_s", med(&setup_times, |t| secs(t.split)), "s");
    layer.put("webprofiler.train_all_s", train_all_s, "s");
    layer.put("streamid.store_s", store_s, "s");

    let _ = write!(
        meta,
        "\n{{\"trace\": {{\"replay_traced_s\": {}, \"replay_untraced_s\": {}, \"tracing_overhead_s\": {}, \
         \"replay_uncovered_share\": {}, \"stages_uncovered_share\": {}, \"reconcile_bound\": {RECONCILE_BOUND}, \
         \"stage_mismatches\": {}, \"decode_s\": {}, \"observe_s\": {}, \"encode_s\": {}, \
         \"window_close_s\": {}, \"shortlist_s\": {}, \"score_s\": {}, \"vote_s\": {}, \"spans\": {}}}}}",
        secs(t.traced),
        secs(t.untraced),
        secs(t.traced) - secs(t.untraced),
        t.replay_gap,
        t.stage_gap,
        t.stage_mismatches,
        secs(t.decode),
        secs(t.observe),
        secs(t.encode),
        secs(t.window_close),
        secs(t.shortlist),
        secs(t.score),
        secs(t.vote),
        tracer.spans().len(),
    );
    if let Some(path) = &args.spans {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))?,
        );
        let run_id = format!("{}-{}", w.name, args.seed);
        tracer.write_jsonl(&mut file, &run_id).map_err(|e| e.to_string())?;
        std::io::Write::flush(&mut file).map_err(|e| e.to_string())?;
    }
    Ok((correct, ops, layer, meta))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.workdir);
    match outcome {
        Ok((correct, ops, metrics, meta)) => {
            println!("{meta}");
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                ops.attempted,
                ops.failed,
                metrics.to_json()
            );
            if !correct {
                eprintln!("perfbench: an output check failed (see the meta line)");
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
