//! Profiling users by modeling web transactions.
//!
//! This crate implements the primary contribution of *Profiling Users by
//! Modeling Web Transactions* (Tomšů, Marchal, Asokan — ICDCS 2017): a
//! feature extraction and modeling pipeline that learns a per-user profile
//! from secure-proxy web-transaction logs and uses it to decide, within
//! minutes, whether a monitored device is being operated by a known user.
//!
//! # Pipeline
//!
//! 1. **Vocabulary** ([`Vocabulary`]): every value of the log's nominal
//!    fields (HTTP action, URI scheme, website category, media type,
//!    application type) becomes a bag-of-words column; reputation and the
//!    public/private destination flag add numeric columns. At the paper's
//!    taxonomy sizes this yields 843 columns (Tab. I).
//! 2. **Windows** ([`WindowConfig`], [`WindowAggregator`]): transactions of
//!    one user (training) or one device (identification) are aggregated
//!    over sliding windows of duration `D` shifted by `S` — binary columns
//!    by disjunction, numeric columns by averaging (Sect. III-C).
//! 3. **Profiles** ([`ProfileTrainer`], [`UserProfile`]): each user's
//!    window vectors train a one-class classifier ([`ModelKind::OcSvm`] or
//!    [`ModelKind::Svdd`], from the [`ocsvm`] crate).
//! 4. **Optimization** ([`WindowGridSearch`], [`ModelGridSearch`]): `D, S`
//!    are optimized globally, kernel and `ν`/`C` per user, maximizing
//!    `ACC = ACCself − ACCother` (Sect. IV-C).
//! 5. **Evaluation & identification** ([`ConfusionMatrix`],
//!    [`identify_on_device`], [`consecutive_window_vote`]): user
//!    differentiation on test windows (Tab. IV/V) and online
//!    identification on shared devices (Fig. 3).
//!
//! The temporal-consistency analysis backing the whole approach
//! (novelty ratios, Figs. 1–2) lives in [`feature_novelty`],
//! [`window_novelty`] and the sweep helpers.
//!
//! # Quick start
//!
//! ```
//! use tracegen::{Scenario, TraceGenerator};
//! use webprofiler::{acceptance_ratio, ProfileTrainer, Vocabulary};
//!
//! // Synthetic stand-in for the vendor's benchmark logs.
//! let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
//! let (train, test) = dataset.split_chronological_per_user(0.75);
//!
//! let vocab = Vocabulary::new(dataset.taxonomy().clone());
//! let trainer = ProfileTrainer::new(&vocab).max_training_windows(300);
//! let user = *train.user_counts().iter().max_by_key(|&(_, &n)| n).unwrap().0;
//! let profile = trainer.train(&train, user)?;
//!
//! let test_vectors = trainer.training_vectors(&test, user);
//! let acc_self = acceptance_ratio(&profile, &test_vectors);
//! assert!(acc_self > 0.5, "self acceptance {acc_self}");
//! # Ok::<(), webprofiler::ProfileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod auth;
mod baselines;
mod drift;
mod explain;
mod features;
mod gridsearch;
mod identify;
mod markov;
mod metrics;
mod novelty;
mod prefilter;
mod profile;
mod retrain;
mod roc;
mod schedule;
mod trainer;
mod vocab;
mod window;

pub use auth::{AuthDecision, AuthenticationMonitor, TakeoverEvaluation};
pub use baselines::FrequencyProfile;
pub use drift::DriftMonitor;
pub use explain::{explain_decision, explanation_report, FeatureContribution};
pub use features::{aggregate_window, aggregate_window_with, extract_transaction, AggregationMode};
pub use gridsearch::{
    compute_window_sets, ModelGridCell, ModelGridSearch, SweepStats, WindowGridRow,
    WindowGridSearch, WindowSets,
};
pub use identify::{
    consecutive_window_vote, identify_on_device, majority_vote, IdentificationQuality,
    IdentifiedWindow,
};
pub use markov::MarkovProfile;
pub use metrics::{acceptance_ratio, acceptance_ratio_refs, AcceptanceSummary, ConfusionMatrix};
pub use novelty::{
    feature_novelty, sweep_feature_novelty, sweep_window_novelty, window_novelty, FeatureNovelty,
    FeatureNoveltyRow, MeanVariance, WindowNoveltyRow,
};
pub use parcore::parallel_map;
pub use prefilter::{CandidateIndex, ShortlistScratch};
pub use profile::{ModelKind, ProfileParams, UserProfile};
pub use retrain::{drift_partial_retrain, DriftRetrainConfig, ProfileFingerprint, RetrainReport};
pub use roc::{auc, roc_curve, RocPoint};
pub use trainer::{ProfileError, ProfileTrainer};
pub use vocab::{ColumnKind, Vocabulary};
pub use window::{
    InvalidWindowConfigError, TransactionWindow, WindowAggregator, WindowConfig, WindowKey,
    WindowStream,
};

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Vocabulary>();
        assert_send_sync::<UserProfile>();
        assert_send_sync::<WindowConfig>();
        assert_send_sync::<ConfusionMatrix>();
        assert_send_sync::<ProfileError>();
    }
}
