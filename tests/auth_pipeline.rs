//! Cross-crate integration: the continuous-authentication / intrusion
//! pipeline against a labeled, injected account takeover.

use tracegen::{busiest_interval, inject_takeover, Scenario, TraceGenerator};
use webprofiler::{
    AuthDecision, AuthenticationMonitor, ProfileTrainer, TakeoverEvaluation, Vocabulary,
    WindowAggregator, WindowConfig, WindowKey,
};

/// Builds a corpus, picks a victim/attacker pair, trains the victim's
/// profile on pre-takeover data and returns the victim's post-takeover
/// window stream (which contains the attacker's behavior).
fn takeover_fixture() -> (
    webprofiler::UserProfile,
    Vec<ocsvm::SparseVector>, // victim's own clean windows
    Vec<ocsvm::SparseVector>, // windows during the takeover
) {
    let scenario = Scenario { users: 12, devices: 8, ..Scenario::quick_test() };
    let dataset = TraceGenerator::new(scenario).generate().filter_min_transactions(300);
    let users = {
        let mut counts: Vec<_> = dataset.user_counts().into_iter().collect();
        counts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        counts
    };
    let victim = users[0].0;
    let attacker = users[1].0;
    let start = busiest_interval(&dataset, attacker, 4 * 3600).expect("attacker active");
    let (modified, scenario) =
        inject_takeover(&dataset, victim, attacker, start, 4 * 3600).expect("injectable");

    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let aggregator = WindowAggregator::new(&vocab, WindowConfig::PAPER_DEFAULT);

    // Train only on the victim's traffic *before* the takeover.
    let clean = dataset
        .restrict_to_user(victim)
        .restrict_to_range(dataset.time_range().expect("non-empty").0, scenario.start);
    let train_windows: Vec<_> =
        aggregator.user_windows(&clean, victim).into_iter().map(|w| w.features).collect();
    let profile = ProfileTrainer::new(&vocab)
        .max_training_windows(300)
        .train_from_vectors(victim, &train_windows)
        .expect("victim has clean training data");

    let during = modified.restrict_to_user(victim).restrict_to_range(scenario.start, scenario.end);
    let takeover_windows: Vec<_> =
        aggregator.user_windows(&during, victim).into_iter().map(|w| w.features).collect();
    (profile, train_windows, takeover_windows)
}

#[test]
fn takeover_windows_are_rejected_more_than_clean_windows() {
    let (profile, clean, takeover) = takeover_fixture();
    assert!(!takeover.is_empty(), "takeover produced no windows");
    let clean_acceptance = webprofiler::acceptance_ratio(&profile, &clean);
    let takeover_acceptance = webprofiler::acceptance_ratio(&profile, &takeover);
    assert!(
        takeover_acceptance < clean_acceptance - 0.2,
        "no separation: clean {clean_acceptance:.2} vs takeover {takeover_acceptance:.2}"
    );
}

#[test]
fn monitor_logs_out_during_takeover() {
    let (profile, clean, takeover) = takeover_fixture();
    let result = TakeoverEvaluation::replay(&profile, &clean, &takeover, 3);
    assert!(
        result.windows_to_detection.is_some(),
        "intruder never detected over {} windows",
        takeover.len()
    );
    let delay = result.detection_delay_secs(WindowConfig::PAPER_DEFAULT.shift_secs()).unwrap();
    assert!(delay <= 3600, "detection took {delay}s");
}

#[test]
fn monitor_state_machine_is_consistent() {
    let (profile, clean, takeover) = takeover_fixture();
    let mut monitor = AuthenticationMonitor::new(&profile, 2);
    for window in &clean {
        let decision = monitor.observe(window);
        if decision == AuthDecision::LoggedOut {
            monitor.reauthenticate();
        }
    }
    let false_logouts = monitor.logouts();
    for window in &takeover {
        if monitor.observe(window) == AuthDecision::LoggedOut {
            break;
        }
    }
    assert!(monitor.logouts() >= false_logouts, "logout counter went backwards");
    assert!(monitor.windows_observed() > clean.len());
}

#[test]
fn streaming_windows_feed_the_monitor() {
    // End-to-end: raw transactions → WindowStream → AuthenticationMonitor.
    let scenario = Scenario { users: 8, devices: 5, ..Scenario::quick_test() };
    let dataset = TraceGenerator::new(scenario).generate().filter_min_transactions(200);
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let user = *dataset.user_counts().iter().max_by_key(|&(_, &n)| n).unwrap().0;
    let profile = ProfileTrainer::new(&vocab)
        .max_training_windows(300)
        .train(&dataset, user)
        .expect("trains");
    let mut stream =
        webprofiler::WindowStream::new(&vocab, WindowConfig::PAPER_DEFAULT, WindowKey::User(user));
    let mut monitor = AuthenticationMonitor::new(&profile, 3);
    let mut decisions = 0usize;
    for tx in dataset.for_user(user) {
        for window in stream.offer(*tx) {
            let _ = monitor.observe(&window.features);
            decisions += 1;
        }
    }
    for window in stream.flush() {
        let _ = monitor.observe(&window.features);
        decisions += 1;
    }
    assert!(decisions > 0, "stream produced no windows");
    assert_eq!(monitor.windows_observed(), decisions);
    // Trained on this same traffic: the user should rarely be logged out.
    assert!(monitor.logouts() * 10 <= decisions, "{} logouts", monitor.logouts());
}
