//! Bit-identity over a real socket for non-linear profiles.
//!
//! Linear profiles collapse to one weight vector, so they never exercise
//! per-support-vector kernel rows. Here two tenants serve RBF profiles —
//! one ν-OC-SVM set, one SVDD set — loaded through a [`ModelStore`] and
//! scored through the daemon's default exact candidate prefilter. Every
//! decision the daemon returns must equal offline, exhaustive
//! [`webprofiler::identify_on_device`] plus
//! [`webprofiler::consecutive_window_vote`] over the profiles as stored.

use identd::proto::DecisionRecord;
use identd::{Client, Daemon, DaemonConfig};
use ocsvm::Kernel;
use std::collections::BTreeMap;
use streamid::ModelStore;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    consecutive_window_vote, identify_on_device, ModelKind, ProfileTrainer, Vocabulary,
};

#[test]
fn rbf_tenants_match_offline_identification_exactly() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let base = std::env::temp_dir().join(format!("identd-rbf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let config = DaemonConfig::default();
    let daemon = Daemon::start(config.clone()).unwrap();
    let mut client = Client::connect(daemon.local_addr()).unwrap();

    let tenants = [("ocsvm", ModelKind::OcSvm, 0.1), ("svdd", ModelKind::Svdd, 0.3)];
    for (name, kind, regularization) in tenants {
        let (profiles, _) = ProfileTrainer::new(&vocab)
            .kind(kind)
            .kernel(Kernel::Rbf { gamma: 0.5 })
            .regularization(regularization)
            .max_training_windows(120)
            .train_all(&dataset);
        let dir = base.join(name);
        std::fs::create_dir_all(&dir).unwrap();
        ModelStore::new(&dir).save(&profiles).unwrap();
        let loaded = client.load_profiles(name, dir.to_str().unwrap(), false).unwrap();
        assert_eq!(loaded, (profiles.len(), 0), "{name}");
    }

    let mut records: BTreeMap<&str, Vec<DecisionRecord>> = BTreeMap::new();
    for batch in dataset.transactions().chunks(512) {
        for (name, _, _) in tenants {
            let (accepted, decided) = client.ingest(name, batch).unwrap();
            assert_eq!(accepted, batch.len());
            if decided > 0 {
                records.entry(name).or_default().extend(client.decide(name, None).unwrap());
            }
        }
    }
    assert!(client.drain().unwrap() > 0, "the tail of the corpus holds open windows");
    for (name, _, _) in tenants {
        records.entry(name).or_default().extend(client.decide(name, None).unwrap());
    }
    drop(client);
    daemon.join();

    for (name, _, _) in tenants {
        let profiles = ModelStore::new(base.join(name)).load().unwrap();
        assert!(profiles.values().all(|p| p.params().kernel == Kernel::Rbf { gamma: 0.5 }));
        let mut by_device: BTreeMap<u32, Vec<&DecisionRecord>> = BTreeMap::new();
        for record in &records[name] {
            by_device.entry(record.device).or_default().push(record);
        }
        assert_eq!(by_device.len(), dataset.devices().len(), "{name}");
        let (mut acceptances, mut pairs) = (0usize, 0usize);
        for device in dataset.devices() {
            let streamed = &by_device[&device.0];
            let offline =
                identify_on_device(&profiles, &vocab, &dataset, device, config.engine.window);
            let votes = consecutive_window_vote(&offline, config.engine.vote_k);
            assert_eq!(streamed.len(), offline.len(), "{name}: window count on {device:?}");
            for (j, record) in streamed.iter().enumerate() {
                let accepted: Vec<u32> = offline[j].accepted_by.iter().map(|u| u.0).collect();
                let actual: Vec<u32> = offline[j].actual_users.iter().map(|u| u.0).collect();
                assert_eq!(record.start, offline[j].start.as_secs(), "{name}: window {j}");
                assert_eq!(record.transactions as usize, offline[j].transaction_count);
                assert_eq!(record.accepted, accepted, "{name}: window {j} on {device:?}");
                assert_eq!(record.actual, actual);
                assert_eq!(record.vote, votes[j].1.map(|u| u.0), "{name}: vote {j} on {device:?}");
                acceptances += accepted.len();
                pairs += profiles.len();
            }
        }
        // Both accept and reject outcomes occur, so the equality above
        // pins real kernel sums rather than a constant answer.
        assert!(acceptances > 0 && acceptances < pairs, "{name}: {acceptances} of {pairs}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
