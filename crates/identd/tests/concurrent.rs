//! Concurrent requests against one tenant over real sockets.
//!
//! Tenant requests run on the connection workers themselves, taking turns
//! at the tenant's lock. Two connections stream disjoint device subsets of
//! one corpus into the same tenant at once while a third polls `stats`:
//! every device's decisions must still equal the offline
//! [`webprofiler::identify_on_device`] pipeline, and every counter
//! snapshot must reconcile. Reloading the tenant mid-stream must answer
//! every in-flight request and leave the daemon able to drain and exit.

use identd::json::Json;
use identd::proto::DecisionRecord;
use identd::{Client, Daemon, DaemonConfig};
use proxylog::{Dataset, Transaction};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;
use streamid::{ModelStore, Profiles};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{consecutive_window_vote, identify_on_device, ProfileTrainer, Vocabulary};

const BATCH: usize = 256;

/// Runs `body` on its own thread and fails the test if it does not finish
/// within `limit` (a hung request would otherwise hang the test run).
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let handle = thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!("scenario still running after {limit:?}"),
    }
}

/// Trains linear profiles on the quick-test corpus and saves them.
fn corpus_and_store(tag: &str) -> (Dataset, Vocabulary, Profiles, PathBuf) {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (profiles, _) = ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
    let dir = std::env::temp_dir().join(format!("identd-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    ModelStore::new(&dir).save(&profiles).unwrap();
    (dataset, vocab, profiles, dir)
}

/// The corpus split into two disjoint device subsets, each in corpus order.
fn split_by_device(dataset: &Dataset) -> [Vec<Transaction>; 2] {
    let mut halves = [Vec::new(), Vec::new()];
    for (i, device) in dataset.devices().iter().enumerate() {
        halves[i % 2].extend(dataset.for_device(*device).copied());
    }
    for half in &mut halves {
        half.sort_by_key(|tx| tx.timestamp);
    }
    halves
}

/// Loads the tenant over a connection of its own, closed again at once: a
/// worker serves one connection until it closes, and these tests keep
/// all three workers busy.
fn load(addr: SocketAddr, dir: &Path) {
    Client::connect(addr).unwrap().load_profiles("acme", dir.to_str().unwrap(), false).unwrap();
}

fn count(tenant: &Json, key: &str) -> u64 {
    tenant.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("missing key {key}")) as u64
}

/// Asserts that a counter snapshot accounts for every closed window.
fn assert_reconciles(stats: &Json) -> Json {
    let tenant = stats.get("tenants").and_then(|t| t.get("acme")).expect("tenant stats").clone();
    assert_eq!(
        count(&tenant, "windows_closed"),
        count(&tenant, "windows_scored")
            + count(&tenant, "windows_shed")
            + count(&tenant, "pending_windows"),
        "every closed window is scored, shed or pending: {}",
        tenant.to_line()
    );
    assert_eq!(count(&tenant, "ingests_shed"), 0);
    tenant
}

/// A connection that ingests `txs` in batches once `start` opens; every
/// reply must carry the whole batch.
fn ingester(
    addr: SocketAddr,
    txs: Vec<Transaction>,
    start: Arc<Barrier>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        start.wait();
        for batch in txs.chunks(BATCH) {
            let (accepted, _) = client.ingest("acme", batch).unwrap();
            assert_eq!(accepted, batch.len());
        }
    })
}

#[test]
fn concurrent_ingesters_match_offline_identification_per_device() {
    let (dataset, vocab, profiles, dir) = corpus_and_store("concurrent");
    let config = DaemonConfig { workers: 3, ..DaemonConfig::default() };
    let (window, vote_k) = (config.engine.window, config.engine.vote_k);
    let daemon = Daemon::start(config).unwrap();
    let addr = daemon.local_addr();
    load(addr, &dir);

    // The two ingesters and the poller all connect before any of them
    // sends, so their requests overlap.
    let start = Arc::new(Barrier::new(3));
    let stop = Arc::new(AtomicBool::new(false));
    let poller = {
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            start.wait();
            let mut polls = 0u32;
            while !stop.load(Ordering::SeqCst) {
                assert_reconciles(&client.stats().unwrap());
                polls += 1;
            }
            polls
        })
    };
    let [even, odd] = split_by_device(&dataset);
    let ingesters =
        [ingester(addr, even, Arc::clone(&start)), ingester(addr, odd, Arc::clone(&start))];
    within(Duration::from_secs(300), move || {
        for handle in ingesters {
            handle.join().expect("ingester failed");
        }
    });
    stop.store(true, Ordering::SeqCst);
    let polls = poller.join().expect("stats poller failed");
    assert!(polls > 0, "the poller never got a stats reply");

    let mut control = Client::connect(addr).unwrap();
    assert!(control.drain().unwrap() > 0, "the tail of the corpus holds open windows");
    let tenant = assert_reconciles(&control.stats().unwrap());
    assert_eq!(count(&tenant, "decisions_dropped"), 0, "the buffer held every decision");
    assert_eq!(count(&tenant, "streams_opened"), dataset.devices().len() as u64);
    let records = control.decide("acme", None).unwrap();
    drop(control);
    daemon.join();

    let mut by_device: BTreeMap<u32, Vec<DecisionRecord>> = BTreeMap::new();
    for record in records {
        by_device.entry(record.device).or_default().push(record);
    }
    assert_eq!(by_device.len(), dataset.devices().len());
    for device in dataset.devices() {
        let streamed = &by_device[&device.0];
        let offline = identify_on_device(&profiles, &vocab, &dataset, device, window);
        let votes = consecutive_window_vote(&offline, vote_k);
        assert_eq!(streamed.len(), offline.len(), "window count on {device:?}");
        for (j, record) in streamed.iter().enumerate() {
            let accepted: Vec<u32> = offline[j].accepted_by.iter().map(|u| u.0).collect();
            let actual: Vec<u32> = offline[j].actual_users.iter().map(|u| u.0).collect();
            assert_eq!(record.start, offline[j].start.as_secs(), "window {j} on {device:?}");
            assert_eq!(record.transactions as usize, offline[j].transaction_count);
            assert_eq!(record.accepted, accepted, "acceptance set of window {j} on {device:?}");
            assert_eq!(record.actual, actual);
            assert_eq!(record.vote, votes[j].1.map(|u| u.0), "vote of window {j} on {device:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reloading_a_tenant_mid_stream_answers_every_request() {
    let (dataset, _, _, dir) = corpus_and_store("reload");
    let daemon = Daemon::start(DaemonConfig { workers: 3, ..DaemonConfig::default() }).unwrap();
    let addr = daemon.local_addr();
    load(addr, &dir);

    // Small batches stretch the stream over many requests, so reloads land
    // between and during them.
    const SMALL: usize = 16;
    let halves = split_by_device(&dataset);
    let batches: usize = halves.iter().map(|half| half.len().div_ceil(SMALL)).sum();
    let replies = Arc::new(std::sync::Mutex::new((0usize, 0usize)));
    let start = Arc::new(Barrier::new(3));
    let streamers: Vec<_> = halves
        .into_iter()
        .map(|txs| {
            let replies = Arc::clone(&replies);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                start.wait();
                for batch in txs.chunks(SMALL) {
                    match client.ingest("acme", batch) {
                        Ok((accepted, _)) => {
                            assert_eq!(accepted, batch.len());
                            replies.lock().unwrap().0 += 1;
                        }
                        // A structured error reply, not a dropped connection.
                        Err(e) => {
                            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
                            replies.lock().unwrap().1 += 1;
                        }
                    }
                }
            })
        })
        .collect();
    let reload_dir = dir.clone();
    within(Duration::from_secs(300), move || {
        let mut reloader = Client::connect(addr).unwrap();
        start.wait();
        let mut reloads = 0;
        while reloads == 0 || !streamers.iter().all(|s| s.is_finished()) {
            let (profiles, _) =
                reloader.load_profiles("acme", reload_dir.to_str().unwrap(), false).unwrap();
            assert!(profiles > 0);
            reloads += 1;
        }
        for streamer in streamers {
            streamer.join().expect("streamer failed");
        }
    });
    let (ok, errors) = *replies.lock().unwrap();
    assert_eq!(ok + errors, batches, "every ingest got a reply ({errors} errors)");

    // The replaced tenant still serves the rest of the session.
    let mut control = Client::connect(addr).unwrap();
    control.drain().unwrap();
    assert_reconciles(&control.stats().unwrap());
    control.decide("acme", None).unwrap();
    drop(control);
    within(Duration::from_secs(60), move || daemon.join());
    let _ = std::fs::remove_dir_all(&dir);
}
