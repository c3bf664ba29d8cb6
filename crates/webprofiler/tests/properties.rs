//! Property-based tests for the profiling pipeline: feature-extraction
//! bounds, window-aggregation algebra, streaming/batch equivalence and
//! metric invariants over randomized transaction sets.

use proptest::prelude::*;
use proxylog::{
    AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId, SubtypeId, Taxonomy,
    Timestamp, Transaction, UriScheme, UserId,
};
use webprofiler::{
    acceptance_ratio, aggregate_window, auc, extract_transaction, roc_curve, FrequencyProfile,
    ProfileTrainer, Vocabulary, WindowAggregator, WindowConfig, WindowKey, WindowStream,
};

fn vocab() -> Vocabulary {
    Vocabulary::new(Taxonomy::paper_scale())
}

fn transaction_strategy() -> impl Strategy<Value = Transaction> {
    (
        0i64..100_000,
        prop::sample::select(HttpAction::ALL.to_vec()),
        prop::sample::select(UriScheme::ALL.to_vec()),
        0u16..105,
        0u16..257,
        0u16..464,
        prop::sample::select(Reputation::ALL.to_vec()),
        any::<bool>(),
    )
        .prop_map(|(secs, action, scheme, cat, sub, app, rep, private)| Transaction {
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
        })
}

fn sorted_transactions(max: usize) -> impl Strategy<Value = Vec<Transaction>> {
    prop::collection::vec(transaction_strategy(), 1..max).prop_map(|mut txs| {
        txs.sort_by_key(|tx| tx.timestamp);
        txs
    })
}

fn window_config_strategy() -> impl Strategy<Value = WindowConfig> {
    (1u32..600, 1u32..600).prop_map(|(a, b)| {
        let (duration, shift) = if a >= b { (a, b) } else { (b, a) };
        WindowConfig::new(duration, shift).expect("shift <= duration by construction")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn features_are_bounded(tx in transaction_strategy()) {
        let v = vocab();
        let features = extract_transaction(&v, &tx);
        for (column, value) in features.iter() {
            prop_assert!((column as usize) < v.n_features());
            prop_assert!((0.0..=1.0).contains(&value), "column {column} = {value}");
        }
    }

    #[test]
    fn aggregation_is_bounded_and_order_invariant(mut txs in sorted_transactions(20)) {
        let v = vocab();
        let a = aggregate_window(&v, &txs);
        for (column, value) in a.iter() {
            prop_assert!((column as usize) < v.n_features());
            prop_assert!((0.0..=1.0).contains(&value));
        }
        txs.reverse();
        prop_assert_eq!(aggregate_window(&v, &txs), a);
    }

    #[test]
    fn aggregation_is_idempotent_on_duplicates(tx in transaction_strategy(), n in 1usize..10) {
        // A window of n identical transactions equals the single-tx vector.
        let v = vocab();
        let window = vec![tx; n];
        prop_assert_eq!(aggregate_window(&v, &window), extract_transaction(&v, &tx));
    }

    #[test]
    fn binary_union_grows_with_more_transactions(txs in sorted_transactions(15)) {
        // Adding transactions can only set more binary columns.
        let v = vocab();
        let partial = aggregate_window(&v, &txs[..txs.len() / 2]);
        let full = aggregate_window(&v, &txs);
        for (column, value) in partial.iter() {
            if value == 1.0 && matches!(v.column_kind(column), webprofiler::ColumnKind::Binary) {
                prop_assert_eq!(full.get(column), 1.0, "column {} lost", column);
            }
        }
    }

    #[test]
    fn every_transaction_lands_in_expected_window_count(
        txs in sorted_transactions(30),
        shift in 1u32..120,
        multiplier in 1u32..6,
    ) {
        // When S divides D, each transaction belongs to exactly D/S
        // windows; the sum of window populations must reflect that.
        let v = vocab();
        let (d, s) = (shift * multiplier, shift);
        let config = WindowConfig::new(d, s).expect("valid by construction");
        let aggregator = WindowAggregator::new(&v, config);
        let windows = aggregator.windows_over(&txs, WindowKey::User(UserId(0)));
        let total: usize = windows.iter().map(|w| w.transaction_count).sum();
        prop_assert_eq!(total, txs.len() * (d / s) as usize);
    }

    #[test]
    fn stream_equals_batch(
        txs in sorted_transactions(60),
        config in window_config_strategy(),
    ) {
        let v = vocab();
        let aggregator = WindowAggregator::new(&v, config);
        let batch = aggregator.windows_over(&txs, WindowKey::User(UserId(0)));
        let mut stream = WindowStream::new(&v, config, WindowKey::User(UserId(0)));
        let mut streamed = Vec::new();
        for tx in &txs {
            streamed.extend(stream.offer(*tx));
        }
        streamed.extend(stream.flush());
        prop_assert_eq!(streamed.len(), batch.len());
        for (a, b) in streamed.iter().zip(&batch) {
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(&a.features, &b.features);
            prop_assert_eq!(a.transaction_count, b.transaction_count);
        }
    }

    #[test]
    fn trained_profile_acceptance_is_a_ratio(txs in sorted_transactions(120)) {
        let v = vocab();
        let trainer = ProfileTrainer::new(&v).max_training_windows(100);
        let aggregator = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
        let windows: Vec<_> = aggregator
            .windows_over(&txs, WindowKey::User(UserId(0)))
            .into_iter()
            .map(|w| w.features)
            .collect();
        prop_assume!(windows.len() >= 3);
        let profile = trainer.train_from_vectors(UserId(0), &windows).expect("trains");
        let ratio = acceptance_ratio(&profile, &windows);
        prop_assert!((0.0..=1.0).contains(&ratio));
        // A window far outside the feature space is never accepted more
        // than the training data itself.
        let far = ocsvm::SparseVector::from_pairs(vec![(0, 100.0), (1, -100.0)]).unwrap();
        prop_assert!(!profile.accepts(&far), "far-away window accepted");
    }

    #[test]
    fn roc_auc_is_within_unit_interval(txs in sorted_transactions(120)) {
        let v = vocab();
        let aggregator = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
        let windows: Vec<_> = aggregator
            .windows_over(&txs, WindowKey::User(UserId(0)))
            .into_iter()
            .map(|w| w.features)
            .collect();
        prop_assume!(windows.len() >= 6);
        let (own, other) = windows.split_at(windows.len() / 2);
        let profile = ProfileTrainer::new(&v)
            .max_training_windows(60)
            .train_from_vectors(UserId(0), own)
            .expect("trains");
        let points = roc_curve(&profile, own, other);
        let area = auc(&points);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&area), "AUC = {area}");
    }

    #[test]
    fn frequency_baseline_bounded_decision(txs in sorted_transactions(60)) {
        let v = vocab();
        let aggregator = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
        let windows: Vec<_> = aggregator
            .windows_over(&txs, WindowKey::User(UserId(0)))
            .into_iter()
            .map(|w| w.features)
            .collect();
        prop_assume!(!windows.is_empty());
        let baseline = FrequencyProfile::train(UserId(0), &windows, 0.1).expect("trains");
        for w in &windows {
            // Cosine similarity minus a cosine threshold stays in [-2, 2].
            let dv = baseline.decision_value(w);
            prop_assert!((-2.0..=2.0).contains(&dv), "decision {dv}");
        }
    }
}
