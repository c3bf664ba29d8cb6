//! Pinned replay of the checked-in proptest regression seed.
//!
//! `properties.proptest-regressions` records a 15-transaction input that
//! once failed a property in `properties.rs`. The offline proptest stand-in
//! (see `vendor/proptest`) uses its own RNG and cannot replay upstream seed
//! files, so the case is pinned here as plain tests instead: the exact
//! transactions are rebuilt verbatim and driven through every property that
//! takes a bare transaction list, plus a sweep over the window
//! configurations the shrunk arguments could have covered. All of these
//! pass at the current code state (the windowing grid/jump/retention logic
//! was audited line by line alongside); the tests keep it that way.

use proxylog::{
    AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId, SubtypeId, Taxonomy,
    Timestamp, Transaction, UriScheme, UserId,
};
use webprofiler::{
    acceptance_ratio, aggregate_window, auc, roc_curve, FrequencyProfile, ProfileTrainer,
    Vocabulary, WindowAggregator, WindowConfig, WindowKey,
};

#[allow(clippy::too_many_arguments)]
fn tx(
    secs: i64,
    action: HttpAction,
    scheme: UriScheme,
    cat: u16,
    sub: u16,
    app: u16,
    rep: Reputation,
    private: bool,
) -> Transaction {
    Transaction {
        timestamp: Timestamp(secs),
        user: UserId(0),
        device: DeviceId(0),
        site: SiteId(0),
        action,
        scheme,
        category: CategoryId(cat),
        subtype: SubtypeId(sub),
        app_type: AppTypeId(app),
        reputation: rep,
        private_destination: private,
    }
}

fn regression_txs() -> Vec<Transaction> {
    use HttpAction::*;
    use Reputation::*;
    use UriScheme::*;
    vec![
        tx(0, Connect, Http, 1, 126, 1, Unverified, true),
        tx(60, Get, Https, 2, 6, 2, Minimal, true),
        tx(163, Get, Https, 91, 6, 226, Medium, true),
        tx(14521, Connect, Https, 82, 58, 202, High, true),
        tx(23631, Head, Https, 33, 33, 358, Medium, true),
        tx(24838, Post, Http, 37, 97, 205, Unverified, true),
        tx(45169, Connect, Http, 23, 93, 276, High, true),
        tx(45210, Connect, Http, 0, 101, 0, Minimal, false),
        tx(47697, Connect, Http, 42, 22, 82, Minimal, true),
        tx(56330, Head, Https, 104, 21, 106, Unverified, false),
        tx(65816, Connect, Http, 41, 193, 85, Unverified, false),
        tx(79599, Head, Https, 48, 147, 235, High, false),
        tx(81150, Head, Https, 93, 79, 36, High, true),
        tx(89681, Connect, Https, 84, 120, 50, High, true),
        tx(93992, Post, Http, 65, 136, 189, Minimal, true),
    ]
}

#[test]
fn replay_aggregation_bounded_order_invariant() {
    let v = Vocabulary::new(Taxonomy::paper_scale());
    let mut txs = regression_txs();
    let a = aggregate_window(&v, &txs);
    for (column, value) in a.iter() {
        assert!((column as usize) < v.n_features(), "column {column} out of vocab");
        assert!((0.0..=1.0).contains(&value), "column {column} = {value}");
    }
    txs.reverse();
    assert_eq!(aggregate_window(&v, &txs), a, "order dependence");
}

#[test]
fn replay_trained_profile_acceptance() {
    let v = Vocabulary::new(Taxonomy::paper_scale());
    let txs = regression_txs();
    let trainer = ProfileTrainer::new(&v).max_training_windows(100);
    let aggregator = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
    let windows: Vec<_> = aggregator
        .windows_over(&txs, WindowKey::User(UserId(0)))
        .into_iter()
        .map(|w| w.features)
        .collect();
    assert!(windows.len() >= 3, "assume fails: {}", windows.len());
    let profile = trainer.train_from_vectors(UserId(0), &windows).expect("trains");
    let ratio = acceptance_ratio(&profile, &windows);
    assert!((0.0..=1.0).contains(&ratio), "ratio {ratio}");
    let far = ocsvm::SparseVector::from_pairs(vec![(0, 100.0), (1, -100.0)]).unwrap();
    assert!(!profile.accepts(&far), "far-away window accepted");
}

#[test]
fn replay_roc_auc() {
    let v = Vocabulary::new(Taxonomy::paper_scale());
    let txs = regression_txs();
    let aggregator = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
    let windows: Vec<_> = aggregator
        .windows_over(&txs, WindowKey::User(UserId(0)))
        .into_iter()
        .map(|w| w.features)
        .collect();
    assert!(windows.len() >= 6, "assume fails: {}", windows.len());
    let (own, other) = windows.split_at(windows.len() / 2);
    let profile = ProfileTrainer::new(&v)
        .max_training_windows(60)
        .train_from_vectors(UserId(0), own)
        .expect("trains");
    let points = roc_curve(&profile, own, other);
    let area = auc(&points);
    assert!((0.0..=1.0 + 1e-9).contains(&area), "AUC = {area}");
}

#[test]
fn replay_frequency_baseline() {
    let v = Vocabulary::new(Taxonomy::paper_scale());
    let txs = regression_txs();
    let aggregator = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
    let windows: Vec<_> = aggregator
        .windows_over(&txs, WindowKey::User(UserId(0)))
        .into_iter()
        .map(|w| w.features)
        .collect();
    assert!(!windows.is_empty());
    let baseline = FrequencyProfile::train(UserId(0), &windows, 0.1).expect("trains");
    for w in &windows {
        let dv = baseline.decision_value(w);
        assert!((-2.0..=2.0).contains(&dv), "decision {dv}");
    }
}

#[test]
fn replay_window_count_sweep() {
    // every_transaction_lands_in_expected_window_count takes extra shrunk
    // args we do not have; sweep plausible (shift, multiplier) combos.
    let v = Vocabulary::new(Taxonomy::paper_scale());
    let txs = regression_txs();
    for shift in 1u32..120 {
        for multiplier in 1u32..6 {
            let (d, s) = (shift * multiplier, shift);
            let config = WindowConfig::new(d, s).expect("valid");
            let aggregator = WindowAggregator::new(&v, config);
            let windows = aggregator.windows_over(&txs, WindowKey::User(UserId(0)));
            let total: usize = windows.iter().map(|w| w.transaction_count).sum();
            assert_eq!(
                total,
                txs.len() * (d / s) as usize,
                "shift={shift} multiplier={multiplier}"
            );
        }
    }
}

#[test]
fn replay_stream_equals_batch_sweep() {
    use webprofiler::WindowStream;
    let v = Vocabulary::new(Taxonomy::paper_scale());
    let txs = regression_txs();
    for (d, s) in [(60u32, 30u32), (60, 60), (599, 1), (120, 7), (300, 150), (90, 45)] {
        let config = WindowConfig::new(d, s).expect("valid");
        let aggregator = WindowAggregator::new(&v, config);
        let batch = aggregator.windows_over(&txs, WindowKey::User(UserId(0)));
        let mut stream = WindowStream::new(&v, config, WindowKey::User(UserId(0)));
        let mut streamed = Vec::new();
        for tx in &txs {
            streamed.extend(stream.offer(*tx));
        }
        streamed.extend(stream.flush());
        assert_eq!(streamed.len(), batch.len(), "d={d} s={s}");
        for (a, b) in streamed.iter().zip(&batch) {
            assert_eq!(a.start, b.start, "d={d} s={s}");
            assert_eq!(a.transaction_count, b.transaction_count, "d={d} s={s}");
            assert_eq!(&a.features, &b.features, "d={d} s={s}");
        }
    }
}
