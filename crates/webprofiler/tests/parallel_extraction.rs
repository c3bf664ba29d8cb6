//! The parallel per-user feature-extraction fan-out is bit-identical to
//! the serial order.
//!
//! `compute_window_sets` routes `WindowAggregator` extraction and
//! `aggregate_window` across users through the shared thread pool;
//! nothing about scheduling may leak into the features. The regression
//! here pins the parallel result against a plain serial loop
//! (`SparseVector` implements exact `PartialEq`, so this is a
//! byte-for-byte comparison), and checks that `train_all`, which extracts
//! through the same fan-out, still covers every user.

use std::collections::BTreeMap;
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{compute_window_sets, ProfileTrainer, Vocabulary, WindowConfig};

#[test]
fn parallel_extraction_equals_serial_extraction() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let users = dataset.users();
    assert!(users.len() > 1, "need several users to exercise the fan-out");

    for cap in [None, Some(37)] {
        let window = WindowConfig::PAPER_DEFAULT;
        let trainer = ProfileTrainer::new(&vocab).window(window);
        let trainer = match cap {
            Some(max) => trainer.max_training_windows(max),
            None => trainer,
        };
        let serial: BTreeMap<_, _> =
            users.iter().map(|&user| (user, trainer.training_vectors(&dataset, user))).collect();
        let parallel = compute_window_sets(&vocab, &dataset, window, cap);
        assert_eq!(serial, parallel, "parallel extraction diverged from serial order");
    }
}

#[test]
fn train_all_still_covers_every_user_after_fanout_rerouting() {
    let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let trainer = ProfileTrainer::new(&vocab).max_training_windows(100);
    let (profiles, errors) = trainer.train_all(&dataset);
    assert_eq!(profiles.len() + errors.len(), dataset.users().len());
    assert!(!profiles.is_empty());
    for (user, profile) in &profiles {
        assert_eq!(profile.user(), *user);
        // The profile trained from exactly the serially extracted vectors.
        let vectors = trainer.training_vectors(&dataset, *user);
        assert_eq!(profile.training_windows(), vectors.len());
    }
}
