//! The engine's batched streaming pipeline must reproduce the offline
//! identifier exactly: replaying a finished corpus yields bit-identical
//! window feature vectors, acceptance sets, and votes.

use ocsvm::Kernel;
use proxylog::{Dataset, DeviceId};
use std::collections::BTreeMap;
use streamid::{EngineConfig, EngineStats, StreamEngine, WindowDecision};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    consecutive_window_vote, identify_on_device, ModelKind, ProfileTrainer, UserProfile,
    Vocabulary, WindowAggregator, WindowConfig, WindowKey,
};

fn replay(
    profiles: &BTreeMap<proxylog::UserId, UserProfile>,
    vocab: &Vocabulary,
    dataset: &Dataset,
    config: EngineConfig,
) -> (BTreeMap<DeviceId, Vec<WindowDecision>>, EngineStats) {
    let mut engine = StreamEngine::new(profiles, vocab, config);
    let mut decisions = Vec::new();
    // The global transaction stream interleaves devices; the engine
    // demultiplexes per device internally.
    for tx in dataset.transactions() {
        decisions.extend(engine.observe(*tx));
    }
    decisions.extend(engine.finish());
    assert_eq!(engine.stats().windows_shed, 0, "no backpressure in this replay");
    assert_eq!(engine.stats().late_dropped, 0, "the corpus is time-sorted");
    let mut by_device: BTreeMap<DeviceId, Vec<WindowDecision>> = BTreeMap::new();
    for decision in decisions {
        by_device.entry(decision.device).or_default().push(decision);
    }
    (by_device, engine.stats())
}

/// Replays `dataset` through an engine and checks every decision against
/// the offline identifier, which scores every window against every
/// profile; returns the engine's counters.
fn assert_matches_offline(
    profiles: &BTreeMap<proxylog::UserId, UserProfile>,
    vocab: &Vocabulary,
    dataset: &Dataset,
    engine_config: EngineConfig,
) -> EngineStats {
    let (by_device, stats) = replay(profiles, vocab, dataset, engine_config);
    let aggregator = WindowAggregator::new(vocab, engine_config.window);
    assert_eq!(by_device.len(), dataset.devices().len());
    for device in dataset.devices() {
        let streamed = &by_device[&device];
        let offline = identify_on_device(profiles, vocab, dataset, device, engine_config.window);
        let votes = consecutive_window_vote(&offline, engine_config.vote_k);
        let windows = aggregator.device_windows(dataset, device);
        assert_eq!(streamed.len(), offline.len(), "window count on {device:?}");
        for (j, decision) in streamed.iter().enumerate() {
            assert_eq!(decision.start, offline[j].start, "start of window {j} on {device:?}");
            assert_eq!(
                decision.accepted_by, offline[j].accepted_by,
                "acceptance set of window {j} on {device:?}"
            );
            assert_eq!(decision.actual_users, offline[j].actual_users);
            assert_eq!(decision.transaction_count, offline[j].transaction_count);
            assert_eq!(decision.vote, votes[j].1, "vote of window {j} on {device:?}");
            // Feature vectors are bit-identical to offline aggregation.
            assert_eq!(windows[j].key, WindowKey::Device(device));
            assert_eq!(decision.features, windows[j].features);
        }
    }
    stats
}

#[test]
fn prefiltered_streaming_matches_exhaustive_on_a_population_larger_than_k() {
    // 40 enrolled users, more than the old top-k budget of 16: most of
    // the population is pruned per window (some windows are accepted by
    // more than 16 users), yet the accepted sets stay bit-identical — the
    // shortlist's margin guard retains every potentially-accepting user.
    let dataset = TraceGenerator::new(Scenario::scaled(40, 12, 1)).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (profiles, _) = ProfileTrainer::new(&vocab).max_training_windows(100).train_all(&dataset);
    assert!(profiles.len() > 16, "population must exceed the old k");
    let config = EngineConfig { batch_windows: 32, ..EngineConfig::default() };
    let stats = assert_matches_offline(&profiles, &vocab, &dataset, config);
    assert!(stats.windows_scored > 0);
    // The shortlist really prunes: fewer candidates than exhaustive work.
    assert!(
        stats.prefilter_candidates < stats.windows_scored * profiles.len() as u64,
        "{} candidates over {} windows never pruned anyone",
        stats.prefilter_candidates,
        stats.windows_scored,
    );
}

#[test]
fn prefiltered_streaming_matches_exhaustive_for_rbf() {
    // The chord bound on each RBF profile's kernel sum prunes users whose
    // exact decision is certainly negative, and nobody else.
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (profiles, _) = ProfileTrainer::new(&vocab)
        .kind(ModelKind::OcSvm)
        .kernel(Kernel::Rbf { gamma: 0.5 })
        .regularization(0.1)
        .max_training_windows(120)
        .train_all(&dataset);
    let config = EngineConfig { batch_windows: 16, ..EngineConfig::default() };
    let stats = assert_matches_offline(&profiles, &vocab, &dataset, config);
    assert!(
        stats.prefilter_candidates < stats.windows_scored * profiles.len() as u64,
        "{} candidates over {} windows never pruned anyone",
        stats.prefilter_candidates,
        stats.windows_scored,
    );
}

#[test]
fn streaming_matches_offline_identification_default_profiles() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (profiles, _) = ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
    // Several batch sizes, including one forcing many partial interleavings
    // and one big enough that only finish() ever scores.
    for batch_windows in [1, 7, 64, 100_000] {
        let config = EngineConfig { batch_windows, ..EngineConfig::default() };
        assert_matches_offline(&profiles, &vocab, &dataset, config);
    }
}

#[test]
fn streaming_matches_offline_identification_rbf_ocsvm() {
    // The RBF ν-OC-SVM exercises the batched support-vector row path (the
    // default profiles collapse to the linear GEMV path).
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (profiles, _) = ProfileTrainer::new(&vocab)
        .kind(ModelKind::OcSvm)
        .kernel(Kernel::Rbf { gamma: 0.5 })
        .regularization(0.1)
        .max_training_windows(120)
        .train_all(&dataset);
    let config = EngineConfig { batch_windows: 16, vote_k: 5, ..EngineConfig::default() };
    assert_matches_offline(&profiles, &vocab, &dataset, config);
}

#[test]
fn streaming_matches_offline_with_non_default_window_grid() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let window = WindowConfig::new(120, 40).unwrap();
    let (profiles, _) =
        ProfileTrainer::new(&vocab).window(window).max_training_windows(150).train_all(&dataset);
    let config = EngineConfig { window, batch_windows: 32, ..EngineConfig::default() };
    assert_matches_offline(&profiles, &vocab, &dataset, config);
}
