//! The `stats` verb's engine counters reconcile over a real socket.
//!
//! A client replays a corpus through one tenant and drains the daemon.
//! Every closed window must then be accounted for as scored, shed or
//! pending; `batches_scored` must equal `batches`; and one window stream
//! must have opened per distinct device ingested. The tenant object must
//! also keep its full key set, which scrapers of the reply depend on.

use identd::json::Json;
use identd::{Client, Daemon, DaemonConfig};
use std::collections::BTreeSet;
use streamid::ModelStore;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{ProfileTrainer, Vocabulary};

const TENANT_KEYS: [&str; 15] = [
    "profiles",
    "devices",
    "windows_scored",
    "windows_shed",
    "late_dropped",
    "batches",
    "scoring_secs",
    "prefilter_windows",
    "pending_windows",
    "decisions_buffered",
    "decisions_dropped",
    "ingests_shed",
    "streams_opened",
    "windows_closed",
    "batches_scored",
];

fn count(tenant: &Json, key: &str) -> u64 {
    tenant.get(key).and_then(Json::as_num).unwrap_or_else(|| panic!("missing key {key}")) as u64
}

#[test]
fn stats_counters_reconcile_after_replay_and_drain() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (profiles, _) = ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
    let store_dir = std::env::temp_dir().join(format!("identd-stats-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    std::fs::create_dir_all(&store_dir).unwrap();
    ModelStore::new(&store_dir).save(&profiles).unwrap();

    let daemon = Daemon::start(DaemonConfig::default()).unwrap();
    let mut client = Client::connect(daemon.local_addr()).unwrap();
    client.load_profiles("acme", store_dir.to_str().unwrap(), false).unwrap();
    let txs: Vec<_> = dataset.transactions().to_vec();
    let mut devices = BTreeSet::new();
    for batch in txs.chunks(512) {
        client.ingest("acme", batch).unwrap();
        devices.extend(batch.iter().map(|tx| tx.device));
    }
    assert!(client.drain().unwrap() > 0, "the tail of the corpus holds open windows");

    let reply = client.stats().unwrap();
    let tenant = reply.get("tenants").and_then(|t| t.get("acme")).expect("tenant stats");
    let Json::Obj(entries) = tenant else { panic!("tenant stats is not an object") };
    let keys: Vec<&str> = entries.iter().map(|(key, _)| key.as_str()).collect();
    assert_eq!(keys, TENANT_KEYS);

    let closed = count(tenant, "windows_closed");
    assert!(closed > 0);
    assert_eq!(
        closed,
        count(tenant, "windows_scored")
            + count(tenant, "windows_shed")
            + count(tenant, "pending_windows"),
        "every closed window is scored, shed or pending"
    );
    assert_eq!(count(tenant, "batches_scored"), count(tenant, "batches"));
    assert_eq!(count(tenant, "streams_opened"), devices.len() as u64);
    assert_eq!(count(tenant, "devices"), 0, "the drain evicted every device");

    drop(client);
    daemon.join();
    let _ = std::fs::remove_dir_all(&store_dir);
}
