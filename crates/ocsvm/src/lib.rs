//! One-class classification for user profiling: ν-OC-SVM and SVDD.
//!
//! This crate is a from-scratch reimplementation of the two one-class
//! classifiers used by *Profiling Users by Modeling Web Transactions*
//! (Tomšů, Marchal, Asokan — ICDCS 2017), equivalent in scope to the LIBSVM
//! `one-class` and `SVDD` solvers the paper relies on (reference 1 in the paper):
//!
//! * [`NuOcSvm`] — ν-One-Class Support Vector Machines (Schölkopf et al.
//!   2001): separates the high-density region of the data from the origin
//!   with a maximum-margin hyperplane. `ν` upper-bounds the fraction of
//!   training outliers and lower-bounds the fraction of support vectors.
//! * [`Svdd`] — Support Vector Data Description (Tax & Duin 2004): encloses
//!   the data in a minimum-volume hypersphere; the weight `C = 1/(νl)`
//!   controls how many training points may fall outside.
//!
//! Both are trained by a shared SMO solver (second-order
//! working-set selection) over [`SparseVector`] samples, and both return
//! one model type, [`OneClassModel`]: the two families share every scoring
//! path and differ only in the [`Boundary`] that turns the kernel sum
//! `Σᵢ αᵢ·k(svᵢ, x)` into a decision (the OC-SVM hyperplane or the SVDD
//! sphere).
//!
//! Every kernel row the crate keeps for reuse lives in one row store, the
//! byte-budgeted, least-recently-used [`KernelRowArena`]. A plain `train`
//! call solves over a private arena of [`SolverOptions::cache_bytes`].
//! When one training set is swept over many regularization values (the
//! paper's per-user grid search), a [`GramMatrix`] computes each kernel
//! row once into its arena and shares it — thread-safely — across every
//! solver run of the sweep via [`NuOcSvm::train_with_gram`] and
//! [`Svdd::train_with_gram`]. The matrix takes a private arena of its own
//! or one arena shared across users and sweeps. Scoring caches no rows:
//! a sweep scores its fixed probe set, packed once into a [`ProbePanel`],
//! through [`OneClassModel::panel_acceptance`], which scores exactly only
//! the probes the model's [`DecisionBound`] cannot rule out, and a fresh
//! probe batch (`batch_decision_values`) never reuses a row.
//!
//! # Quick start
//!
//! ```
//! use ocsvm::{Kernel, NuOcSvm, SparseVector, Svdd};
//!
//! // A user's "normal" samples cluster around (1, 0).
//! let train: Vec<SparseVector> = (0..100)
//!     .map(|i| SparseVector::from_dense(&[1.0, 0.01 * (i % 10) as f64]))
//!     .collect();
//!
//! let ocsvm = NuOcSvm::new(0.1, Kernel::Rbf { gamma: 1.0 }).train(&train)?;
//! let svdd = Svdd::new(0.4, Kernel::Linear).train(&train)?;
//!
//! let usual = SparseVector::from_dense(&[1.0, 0.05]);
//! let unusual = SparseVector::from_dense(&[-3.0, 7.0]);
//! assert!(ocsvm.accepts(&usual) && !ocsvm.accepts(&unusual));
//! assert!(svdd.accepts(&usual) && !svdd.accepts(&unusual));
//! # Ok::<(), ocsvm::TrainError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod error;
mod gram;
mod kernel;
mod model;
mod ocsvm;
pub mod panel;
mod persist;
mod smo;
mod sparse;
mod svdd;

pub use arena::{ArenaStats, KernelRowArena, RowKey, DEFAULT_SWEEP_BUDGET};
pub use error::TrainError;
pub use gram::{content_fingerprint, GramMatrix};
pub use kernel::{Kernel, KernelKind};
pub use model::{
    Boundary, DecisionBound, LinearBatchScorer, LinearDecisionTerms, OneClassModel,
    TrainDiagnostics,
};
pub use ocsvm::NuOcSvm;
pub use panel::ProbePanel;
pub use smo::SolverOptions;
pub use sparse::{InvalidPairsError, SparseVector, SparseVectorBuilder};
pub use svdd::Svdd;

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseVector>();
        assert_send_sync::<Kernel>();
        assert_send_sync::<GramMatrix<'static>>();
        assert_send_sync::<OneClassModel>();
        assert_send_sync::<TrainError>();
    }

    #[test]
    fn both_trainers_return_one_model_type() {
        let data: Vec<SparseVector> =
            (0..10).map(|i| SparseVector::from_dense(&[1.0 + 0.01 * i as f64])).collect();
        let models: Vec<OneClassModel> = vec![
            NuOcSvm::new(0.5, Kernel::Linear).train(&data).unwrap(),
            Svdd::new(0.5, Kernel::Linear).train(&data).unwrap(),
        ];
        assert!(matches!(models[0].boundary(), Boundary::Hyperplane { .. }));
        assert!(matches!(models[1].boundary(), Boundary::Sphere { .. }));
        for model in &models {
            assert!(model.support_vector_count() >= 1);
            assert_eq!(model.regularization(), 0.5);
            let _ = model.decision_value(&data[0]);
        }
    }
}
