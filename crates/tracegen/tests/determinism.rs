//! Parallel generation is bit-identical to the serial reference path.
//!
//! The whole point of the per-user derived-RNG design is that worker
//! count, emission chunking and sink choice change wall-clock time but
//! never a single byte of output. These tests pin that: transactions,
//! sessions and behavior profiles from the sharded parallel path equal
//! the single-threaded reference implementation at 1, 2 and 8 threads, on
//! the quick-test scenario and on the paper-shaped
//! `Scenario::evaluation(2, 1.0)`.

use proxylog::Taxonomy;
use std::sync::Arc;
use tracegen::{
    CountingSink, FormattedBlock, GeneratedTrace, MemorySink, Scenario, ShardedLogSink,
    TraceGenerator, TransactionSink,
};

/// Profiles don't implement `PartialEq` (they hold f64-heavy nested
/// repertoires); their `Debug` rendering is a faithful, deterministic
/// fingerprint of every field.
fn profile_fingerprint(trace: &GeneratedTrace) -> Vec<String> {
    trace.profiles.iter().map(|p| format!("{p:?}")).collect()
}

fn assert_identical(serial: &GeneratedTrace, parallel: &GeneratedTrace, label: &str) {
    assert_eq!(
        serial.dataset.transactions(),
        parallel.dataset.transactions(),
        "transactions diverge: {label}"
    );
    assert_eq!(serial.sessions, parallel.sessions, "sessions diverge: {label}");
    assert_eq!(
        profile_fingerprint(serial),
        profile_fingerprint(parallel),
        "profiles diverge: {label}"
    );
}

fn check_scenario(scenario: Scenario, name: &str) {
    let serial = TraceGenerator::new(scenario.clone()).generate_with_ground_truth_serial();
    assert!(!serial.dataset.is_empty());
    for threads in [1usize, 2, 8] {
        let parallel = TraceGenerator::new(scenario.clone())
            .with_workers(threads)
            .generate_with_ground_truth();
        assert_identical(&serial, &parallel, &format!("{name} at {threads} threads"));
    }
}

#[test]
fn quick_test_scenario_is_thread_count_invariant() {
    check_scenario(Scenario::quick_test(), "quick_test");
}

#[test]
fn evaluation_scenario_is_thread_count_invariant() {
    check_scenario(Scenario::evaluation(2, 1.0), "evaluation(2, 1.0)");
}

/// Device-partitioned booking, corpus level: a single-device network is
/// the worst case for the partition — every user is single-device and one
/// device owns 100 % of the sessions (the whole batch is one serial
/// lane) — and must still be bit-identical to the serial reference at
/// every thread count. (The >90 %-skew multi-device case is pinned at the
/// request level by `schedule::tests::partitioned_booking_matches_serial_
/// skewed_device`.)
#[test]
fn partitioned_calendar_single_device_corpus_is_thread_count_invariant() {
    let scenario = Scenario { devices: 1, ..Scenario::quick_test() };
    let serial = TraceGenerator::new(scenario.clone()).generate_with_ground_truth_serial();
    assert!(!serial.sessions.is_empty());
    assert!(
        serial.sessions.iter().all(|s| s.device.0 == 0),
        "single-device scenario must book everything on device 0"
    );
    check_scenario(scenario, "single-device quick_test");
}

/// Device-partitioned booking under contention: nine users race on two
/// devices, so both lanes are hot and conflict shifts are frequent —
/// exactly the regime where a wrong merge order would show. The corpus
/// must stay bit-identical to serial at 1/2/8 threads.
#[test]
fn partitioned_calendar_contended_corpus_is_thread_count_invariant() {
    let scenario = Scenario { users: 9, devices: 2, ..Scenario::quick_test() };
    let serial = TraceGenerator::new(scenario.clone()).generate_with_ground_truth_serial();
    for d in 0..2u32 {
        let share = serial.sessions.iter().filter(|s| s.device.0 == d).count();
        assert!(
            share * 4 > serial.sessions.len(),
            "device {d} underloaded: {share}/{}",
            serial.sessions.len()
        );
    }
    check_scenario(scenario, "contended(9 users, 2 devices)");
}

#[test]
fn emission_chunk_size_never_changes_output() {
    let scenario = Scenario::quick_test();
    let serial = TraceGenerator::new(scenario.clone()).generate_with_ground_truth_serial();
    for chunk in [1usize, 7, 64, 100_000] {
        let chunked = TraceGenerator::new(scenario.clone())
            .with_workers(4)
            .with_emission_chunk(chunk)
            .generate_with_ground_truth();
        assert_identical(&serial, &chunked, &format!("chunk {chunk}"));
    }
}

#[test]
fn streaming_memory_sink_equals_collected_dataset() {
    let scenario = Scenario::quick_test();
    let generator = TraceGenerator::new(scenario.clone()).with_workers(2);
    let collected = generator.generate_with_ground_truth();
    let mut sink = MemorySink::new();
    let streamed = generator.generate_streaming(&mut sink).unwrap();
    let dataset = proxylog::Dataset::new(scenario.taxonomy.clone(), sink.into_transactions());
    assert_eq!(collected.dataset.transactions(), dataset.transactions());
    assert_eq!(collected.sessions, streamed.sessions);
    assert_eq!(streamed.stats.transactions as usize, dataset.len());
}

#[test]
fn sharded_log_sink_round_trips_the_exact_corpus() {
    let scenario = Scenario::quick_test();
    let dir = std::env::temp_dir().join(format!("tracegen-determinism-{}", std::process::id()));
    let generator = TraceGenerator::new(scenario.clone()).with_workers(2);
    let reference = generator.generate_with_ground_truth_serial();

    let mut sink =
        ShardedLogSink::create(&dir, "corpus", scenario.taxonomy.clone(), 2_000).unwrap();
    generator.generate_streaming(&mut sink).unwrap();
    assert!(sink.paths().len() > 1, "quick_test should span several 2k-transaction shards");

    let mut replayed = Vec::new();
    for path in sink.paths() {
        let file = std::fs::File::open(path).unwrap();
        replayed
            .extend(proxylog::read_log(std::io::BufReader::new(file), &scenario.taxonomy).unwrap());
    }
    let dataset = proxylog::Dataset::new(scenario.taxonomy.clone(), replayed);
    assert_eq!(dataset.transactions(), reference.dataset.transactions());
    std::fs::remove_dir_all(&dir).ok();
}

/// Opts into the pre-formatted text path and captures the raw byte
/// stream. `emit` panics: once a sink declares a taxonomy, the streaming
/// generator must route every block through `emit_formatted`.
struct TextCaptureSink {
    taxonomy: Arc<Taxonomy>,
    bytes: Vec<u8>,
}

impl TransactionSink for TextCaptureSink {
    fn emit(&mut self, _transactions: Vec<proxylog::Transaction>) -> std::io::Result<()> {
        panic!("text sinks must receive pre-formatted blocks, not raw transactions");
    }

    fn text_taxonomy(&self) -> Option<Arc<Taxonomy>> {
        Some(Arc::clone(&self.taxonomy))
    }

    fn emit_formatted(&mut self, block: FormattedBlock) -> std::io::Result<()> {
        self.bytes.extend_from_slice(&block.bytes);
        Ok(())
    }
}

/// The legacy golden bytes: the serial emission stream rendered one
/// `format_line` at a time, exactly as the pre-worker-formatting sink did.
fn legacy_text_golden(scenario: &Scenario) -> Vec<u8> {
    let mut sink = MemorySink::new();
    TraceGenerator::new(scenario.clone()).with_workers(1).generate_streaming(&mut sink).unwrap();
    let mut golden = Vec::new();
    for tx in sink.into_transactions() {
        golden.extend_from_slice(proxylog::format_line(&tx, &scenario.taxonomy).as_bytes());
        golden.push(b'\n');
    }
    golden
}

/// Acceptance check for the zero-allocation emission path: the text
/// byte stream rendered on the workers is bit-identical to the legacy
/// per-line `format_line` output at 1, 2 and 8 threads.
#[test]
fn worker_formatted_text_is_bit_identical_across_thread_counts() {
    let scenario = Scenario::quick_test();
    let golden = legacy_text_golden(&scenario);
    assert!(!golden.is_empty());
    for threads in [1usize, 2, 8] {
        let mut sink = TextCaptureSink { taxonomy: scenario.taxonomy.clone(), bytes: Vec::new() };
        TraceGenerator::new(scenario.clone())
            .with_workers(threads)
            .generate_streaming(&mut sink)
            .unwrap();
        assert!(
            sink.bytes == golden,
            "text emission bytes diverge from the format_line path at {threads} threads"
        );
    }
}

/// Shard files concatenated in index order reproduce the legacy byte
/// stream exactly — across thread counts and shard budgets, including
/// budgets that force mid-session splits — and no shard ever exceeds its
/// transaction budget.
#[test]
fn sharded_text_concatenates_to_the_legacy_bytes() {
    let scenario = Scenario::quick_test();
    let golden = legacy_text_golden(&scenario);
    let base = std::env::temp_dir().join(format!("tracegen-shard-ident-{}", std::process::id()));
    for threads in [1usize, 2, 8] {
        for budget in [997u64, 100_000] {
            let dir = base.join(format!("t{threads}-b{budget}"));
            let mut sink =
                ShardedLogSink::create(&dir, "c", scenario.taxonomy.clone(), budget).unwrap();
            TraceGenerator::new(scenario.clone())
                .with_workers(threads)
                .generate_streaming(&mut sink)
                .unwrap();
            let mut concatenated = Vec::new();
            for path in sink.paths() {
                let shard = std::fs::read(path).unwrap();
                let lines = shard.iter().filter(|&&b| b == b'\n').count() as u64;
                assert!(lines <= budget, "shard overshot budget {budget}: {lines} lines");
                concatenated.extend_from_slice(&shard);
            }
            assert!(
                concatenated == golden,
                "shards diverge from the format_line stream at {threads} threads, budget {budget}"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn counting_sink_matches_corpus_size_across_thread_counts() {
    let scenario = Scenario::quick_test();
    let expected =
        TraceGenerator::new(scenario.clone()).generate_with_ground_truth_serial().dataset.len();
    for threads in [1usize, 2, 8] {
        let mut sink = CountingSink::new();
        TraceGenerator::new(scenario.clone())
            .with_workers(threads)
            .generate_streaming(&mut sink)
            .unwrap();
        assert_eq!(sink.transactions() as usize, expected, "{threads} threads");
    }
}
