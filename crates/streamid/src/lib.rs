//! Online streaming user identification.
//!
//! The paper's end goal (Sect. V-C) is *continuous* identification on a
//! live secure-proxy feed. The `webprofiler` crate replays finished
//! datasets — [`webprofiler::identify_on_device`] scores one window at a
//! time over a fully materialized [`proxylog::Dataset`]. This crate is the
//! online counterpart: a [`StreamEngine`] consumes an unbounded,
//! time-ordered stream of [`proxylog::Transaction`]s (from a file tail via
//! [`proxylog::LogTail`], an in-process channel, or a `tracegen` corpus
//! replayed live), maintains incremental per-device window state, and
//! scores *micro-batches* of closed windows against their candidate
//! profiles at once — one exact batched scoring call per shortlisted
//! profile over the windows that shortlist it (every window is a fresh
//! probe, so no kernel row is cached) — instead of one window at a time.
//!
//! The pipeline per transaction:
//!
//! 1. **Window state** — each device owns a [`webprofiler::WindowStream`]
//!    with watermark-based closing: windows close once event time moves
//!    `lateness` seconds past their end, so moderately out-of-order input
//!    still lands in its windows, and too-late stragglers are dropped and
//!    counted (never silently).
//! 2. **Batched scoring** — closed windows queue up; when
//!    [`EngineConfig::batch_windows`] have accumulated (or on
//!    [`StreamEngine::drain`]/[`StreamEngine::finish`]) the whole batch is
//!    scored in two stages. A [`webprofiler::CandidateIndex`], built once
//!    over the enrolled profiles, shortlists per window every user whose
//!    decision bound admits it; then each shortlisted profile scores its
//!    windows in one batched call, profiles fanned out across cores when
//!    the work is large. The bound never prunes an accepting user and the
//!    batched decision values are bit-identical to per-window scoring, so
//!    replaying a finished corpus reproduces
//!    [`webprofiler::identify_on_device`] exactly, for every kernel.
//! 3. **Voting** — each scored window folds into its device's trailing
//!    [`webprofiler::majority_vote`] (the same rule as
//!    [`webprofiler::consecutive_window_vote`]), emitting one
//!    [`WindowDecision`] per window.
//!
//! Memory is bounded: at most [`EngineConfig::max_pending_per_device`]
//! closed windows may wait for scoring per device; beyond that the oldest
//! are shed (counted in [`EngineStats::windows_shed`]).
//!
//! [`StreamEngine::stats`] is the engine's one counter surface. Every
//! closed window is counted once ([`EngineStats::windows_closed`]) and is
//! then scored, shed or still pending; every window stream opened,
//! including a device's reopen after [`StreamEngine::evict_device`], is
//! counted in [`EngineStats::streams_opened`], and every exact profile
//! scoring the shortlist leaves in [`EngineStats::prefilter_candidates`].
//!
//! Profiles come from wherever [`webprofiler::UserProfile`]s are trained —
//! or from a [`ModelStore`] directory of persisted profiles. An engine
//! borrows its [`Profiles`] by default, or owns them (the map or an `Arc`
//! of it, see [`StreamEngine`]); an owning engine over a `'static`
//! vocabulary is a plain value that a server can keep behind a lock. Persisted
//! models keep their support vectors' training indices (ocsvm persist v2),
//! so a restarted engine retains shared-row scoring without retraining.
//!
//! # Quick start
//!
//! ```
//! use streamid::{EngineConfig, StreamEngine};
//! use tracegen::{Scenario, TraceGenerator};
//! use webprofiler::{ProfileTrainer, Vocabulary};
//!
//! let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
//! let vocab = Vocabulary::new(dataset.taxonomy().clone());
//! let (profiles, _) = ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
//!
//! let mut engine = StreamEngine::new(&profiles, &vocab, EngineConfig::default());
//! let mut decisions = Vec::new();
//! for tx in dataset.transactions() {
//!     decisions.extend(engine.observe(*tx)); // unbounded stream in, decisions out
//! }
//! decisions.extend(engine.finish());
//! assert!(!decisions.is_empty());
//! println!("{}", engine.stats());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod scorecard;
mod store;

pub use config::{EngineConfig, PrefilterConfig};
pub use engine::{EngineStats, Profiles, StreamEngine, WindowDecision};
pub use scorecard::{LabeledInterval, ScenarioReport, ScenarioTelemetry};
pub use store::{LoadIssue, ModelStore, StoreLoadError};
