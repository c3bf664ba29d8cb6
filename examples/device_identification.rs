//! Streaming device identification with the full toolkit: profiles are
//! trained and persisted, reloaded by a "monitor process", then fed a
//! device's live transaction stream through a [`StreamEngine`]; a
//! [`DriftMonitor`] watches behavioral novelty, and rejected windows get
//! an analyst explanation.
//!
//! ```text
//! cargo run --example device_identification --release
//! ```

use std::collections::BTreeMap;
use streamid::{EngineConfig, StreamEngine, WindowDecision};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{explanation_report, DriftMonitor, ProfileTrainer, UserProfile, Vocabulary};

fn main() {
    // --- training process ------------------------------------------------
    let dataset = TraceGenerator::new(Scenario::evaluation(2, 0.3)).generate();
    let dataset = dataset.filter_min_transactions(200);
    let (train, test) = dataset.split_chronological_per_user(0.75);
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    println!("training profiles for {} users...", train.users().len());
    let trainer = ProfileTrainer::new(&vocab).regularization(0.2).max_training_windows(400);
    let (profiles, _) = trainer.train_all(&train);

    // Persist every profile, as the offline trainer would.
    let mut archive: Vec<(proxylog::UserId, Vec<u8>)> = Vec::new();
    for (user, profile) in &profiles {
        let mut bytes = Vec::new();
        profile.write_to(&mut bytes).expect("serialize profile");
        archive.push((*user, bytes));
    }
    let archived_bytes: usize = archive.iter().map(|(_, b)| b.len()).sum();
    println!("persisted {} profiles ({} bytes total)\n", archive.len(), archived_bytes);

    // --- monitoring process ----------------------------------------------
    let profiles: BTreeMap<proxylog::UserId, UserProfile> = archive
        .iter()
        .map(|(user, bytes)| {
            (*user, UserProfile::read_from(&mut bytes.as_slice()).expect("load profile"))
        })
        .collect();

    // Monitor the busiest shared device in the held-out period.
    let device = test
        .users_per_device()
        .into_iter()
        .max_by_key(|&(d, users)| (users, test.for_device(d).count()))
        .expect("at least one device")
        .0;
    println!("monitoring {device} ...");
    let config = EngineConfig { vote_k: 5, ..EngineConfig::default() };
    let mut engine = StreamEngine::new(&profiles, &vocab, config);
    let mut drift = DriftMonitor::new(40);
    let mut transitions: Vec<(proxylog::Timestamp, Option<proxylog::UserId>)> = Vec::new();
    let mut unexplained = 0usize;
    let mut last_vote: Option<proxylog::UserId> = None;
    let mut explained_example = false;
    let mut observed = 0usize;

    let mut fold = |decisions: Vec<WindowDecision>| {
        for decision in decisions {
            observed += 1;
            drift.observe(&decision.features);
            if decision.vote != last_vote {
                transitions.push((decision.start, decision.vote));
                last_vote = decision.vote;
            }
            if decision.accepted_by.is_empty() {
                unexplained += 1;
                if explained_example {
                    continue;
                }
                let Some(user) = decision.actual_users.first() else { continue };
                let Some(profile) = profiles.get(user) else { continue };
                println!("--- first window nobody accepted, explained against {user} ---");
                print!("{}", explanation_report(profile, &vocab, &decision.features, 4));
                println!();
                explained_example = true;
            }
        }
    };
    for tx in test.for_device(device) {
        fold(engine.observe(*tx));
    }
    fold(engine.finish());

    println!("identification timeline ({} vote changes):", transitions.len());
    for (time, vote) in transitions.iter().take(12) {
        match vote {
            Some(user) => println!("  {time}  -> {user}"),
            None => println!("  {time}  -> (undecided)"),
        }
    }
    println!(
        "\n{observed} windows observed, {unexplained} accepted by nobody, trailing novelty {:.0}%",
        drift.novelty_rate() * 100.0
    );
}
