//! Socket-level load harness for the `identd` daemon.
//!
//! Starts an in-process daemon, trains one profile set per tenant, ships
//! them through a [`streamid::ModelStore`], then drives each tenant's
//! generated corpus over a real TCP connection in ingest batches —
//! optionally paced to a target offered rate — while polling decisions.
//! After the corpus, the harness drains the daemon, collects the flushed
//! decisions with a final `decide`, and verifies every decision
//! bit-identical against the offline [`webprofiler::identify_on_device`]
//! pipeline before reporting throughput and decision-latency percentiles.
//!
//! ```text
//! cargo run -p bench --bin load_test_runner --release -- [--smoke]
//!     [--tenants N] [--users N] [--devices N] [--weeks N]
//!     [--target TX/S] [--batch-txs N] [--json PATH]
//! ```
//!
//! `--smoke` shrinks the corpus for CI (two tiny tenants, sub-minute).
//! `--target 0` (the default) drives unpaced, measuring capacity; the
//! achieved rate lands in `tx_per_sec`. `--json PATH` writes the headline
//! metrics that `perf_gate` compares against the committed baseline.

use bench::ExperimentConfig;
use identd::proto::DecisionRecord;
use identd::{Client, Daemon, DaemonConfig};
use proxylog::Dataset;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use streamid::ModelStore;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{consecutive_window_vote, identify_on_device, ProfileTrainer, Vocabulary};

struct TenantRun {
    name: String,
    dataset: Dataset,
    store_dir: std::path::PathBuf,
    profiles: usize,
}

struct DriveResult {
    sent: usize,
    records: Vec<DecisionRecord>,
}

fn main() {
    let smoke = ExperimentConfig::has_flag("--smoke");
    let tenants = flag_or("--tenants", 2usize).max(1);
    let users = flag_or("--users", if smoke { 6usize } else { 56 });
    let devices = flag_or("--devices", if smoke { 4usize } else { 16 });
    let weeks = flag_or("--weeks", 1u32);
    let gen_rate = flag_or("--gen-rate", if smoke { 0.25f64 } else { 0.5 });
    let target: f64 = flag_or("--target", 0.0f64);
    let batch_txs = flag_or("--batch-txs", 500usize).max(1);
    let max_windows = flag_or("--max-windows", if smoke { 150usize } else { 200 });

    // Build and train every tenant up front so the timed section measures
    // the daemon, not the generator.
    let base = std::env::temp_dir().join(format!("identd-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let vocab = Vocabulary::new(proxylog::Taxonomy::paper_scale());
    let mut runs: Vec<TenantRun> = Vec::new();
    for i in 0..tenants {
        let scenario =
            Scenario { rate_multiplier: gen_rate, ..Scenario::scaled(users, devices, weeks) }
                .with_seed(211 + i as u64);
        let dataset = TraceGenerator::new(scenario).generate();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(max_windows).train_all(&dataset);
        let store_dir = base.join(format!("tenant{i}"));
        std::fs::create_dir_all(&store_dir).expect("creating store dir");
        ModelStore::new(&store_dir).save(&profiles).expect("saving profiles");
        eprintln!(
            "# tenant{i}: {} users, {} transactions, {} profiles",
            dataset.users().len(),
            dataset.len(),
            profiles.len(),
        );
        runs.push(TenantRun {
            name: format!("tenant{i}"),
            dataset,
            store_dir,
            profiles: profiles.len(),
        });
    }
    let total_profiles: usize = runs.iter().map(|r| r.profiles).sum();

    let daemon = Daemon::start(DaemonConfig::default()).expect("starting daemon");
    let addr = daemon.local_addr();
    eprintln!("# daemon on {addr}, {tenants} tenants, {total_profiles} profiles total");

    for run in &runs {
        let mut client = Client::connect(addr).expect("connect for load_profiles");
        let (loaded, _) = client
            .load_profiles(&run.name, run.store_dir.to_str().expect("utf8 path"), false)
            .expect("load_profiles");
        assert_eq!(loaded, run.profiles);
    }

    // One sender thread per tenant, each on its own connection, splitting
    // the target offered rate evenly.
    let per_tenant_target = if target > 0.0 { target / tenants as f64 } else { 0.0 };
    let started = Instant::now();
    let results: Vec<DriveResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|run| scope.spawn(move || drive(addr, run, batch_txs, per_tenant_target)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("sender thread")).collect()
    });
    let ingest_elapsed = started.elapsed();

    // Drain once, then collect whatever the flush produced.
    let mut control = Client::connect(addr).expect("connect for drain");
    let flushed = control.drain().expect("drain");
    let mut all_records: Vec<Vec<DecisionRecord>> =
        results.iter().map(|r| r.records.clone()).collect();
    for (run, records) in runs.iter().zip(&mut all_records) {
        records.extend(control.decide(&run.name, None).expect("final decide"));
    }
    drop(control);
    daemon.join();

    // Bit-identity: every decision matches the offline pipeline.
    let engine = DaemonConfig::default().engine;
    let mut decisions = 0usize;
    for (run, records) in runs.iter().zip(&all_records) {
        decisions += records.len();
        verify_offline(run, records, &vocab, engine);
    }
    eprintln!("# verified {decisions} decisions bit-identical to the offline pipeline");

    let sent: usize = results.iter().map(|r| r.sent).sum();
    let tx_per_sec = sent as f64 / ingest_elapsed.as_secs_f64().max(1e-9);
    let mut queue_us: Vec<u64> = all_records.iter().flatten().map(|r| r.queue_us).collect();
    queue_us.sort_unstable();

    println!("IDENTD LOAD TEST ({tenants} tenants, {total_profiles} profiles)");
    println!(
        "  ingest             {:>10.3} s  ({sent} transactions, {tx_per_sec:.0} tx/s{})",
        ingest_elapsed.as_secs_f64(),
        if target > 0.0 { format!(", target {target:.0} tx/s") } else { String::new() },
    );
    println!("  decisions          {decisions:>10}  ({flushed} flushed by drain)");
    println!(
        "  decision latency   p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms (queueing for a batch)",
        percentile_us(&queue_us, 0.50) / 1e3,
        percentile_us(&queue_us, 0.90) / 1e3,
        percentile_us(&queue_us, 0.99) / 1e3,
    );

    if let Some(path) = ExperimentConfig::arg_value("--json") {
        let metrics = [
            ("tx_per_sec", tx_per_sec),
            ("latency_p50_ms", percentile_us(&queue_us, 0.50) / 1e3),
            ("latency_p90_ms", percentile_us(&queue_us, 0.90) / 1e3),
            ("latency_p99_ms", percentile_us(&queue_us, 0.99) / 1e3),
            ("decisions", decisions as f64),
            ("flushed_by_drain", flushed as f64),
            ("transactions", sent as f64),
            ("tenants", tenants as f64),
            ("profiles", total_profiles as f64),
        ];
        std::fs::write(&path, bench::json::emit(&metrics)).expect("writing load-test metrics");
        eprintln!("# wrote {path}");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// Streams one tenant's corpus in batches over its own connection,
/// token-bucket paced when a per-tenant target rate is set. Decisions are
/// polled whenever an ingest reply says some were produced.
fn drive(
    addr: std::net::SocketAddr,
    run: &TenantRun,
    batch_txs: usize,
    target: f64,
) -> DriveResult {
    let mut client = Client::connect(addr).expect("sender connect");
    let txs = run.dataset.transactions();
    let mut records = Vec::new();
    let started = Instant::now();
    let mut sent = 0usize;
    for batch in txs.chunks(batch_txs) {
        if target > 0.0 {
            // Token bucket: don't run ahead of the offered-rate schedule.
            let due = sent as f64 / target;
            let ahead = due - started.elapsed().as_secs_f64();
            if ahead > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(ahead));
            }
        }
        let (accepted, decided) = client.ingest(&run.name, batch).expect("ingest");
        assert_eq!(accepted, batch.len());
        sent += accepted;
        if decided > 0 {
            records.extend(client.decide(&run.name, None).expect("decide"));
        }
    }
    DriveResult { sent, records }
}

/// Compares one tenant's daemon decisions, device by device and window by
/// window, against offline identification over the same corpus.
fn verify_offline(
    run: &TenantRun,
    records: &[DecisionRecord],
    vocab: &Vocabulary,
    engine: streamid::EngineConfig,
) {
    let profiles = ModelStore::new(&run.store_dir).load().expect("reload for verification");
    let mut by_device: BTreeMap<u32, Vec<&DecisionRecord>> = BTreeMap::new();
    for record in records {
        by_device.entry(record.device).or_default().push(record);
    }
    for device in run.dataset.devices() {
        let streamed = by_device.get(&device.0).map(Vec::as_slice).unwrap_or(&[]);
        let offline = identify_on_device(&profiles, vocab, &run.dataset, device, engine.window);
        let votes = consecutive_window_vote(&offline, engine.vote_k);
        assert_eq!(streamed.len(), offline.len(), "{}: window count on {device:?}", run.name,);
        for (j, record) in streamed.iter().enumerate() {
            let accepted: Vec<u32> = offline[j].accepted_by.iter().map(|u| u.0).collect();
            let actual: Vec<u32> = offline[j].actual_users.iter().map(|u| u.0).collect();
            assert_eq!(record.start, offline[j].start.as_secs());
            assert_eq!(record.accepted, accepted, "{}: window {j} on {device:?}", run.name);
            assert_eq!(record.actual, actual);
            assert_eq!(record.vote, votes[j].1.map(|u| u.0));
        }
    }
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} parse error: {e:?}")))
        .unwrap_or(default)
}
