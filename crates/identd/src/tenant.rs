//! Per-tenant state behind one lock.
//!
//! A tenant namespace is its [`streamid::StreamEngine`] (which owns the
//! tenant's profiles), the buffer of decisions waiting for a `decide`
//! poll, and the devices a drain must flush — all behind one [`Mutex`].
//! The connection worker serving a request locks the tenant and runs the
//! engine on its own thread, so a request costs no thread hand-off. The
//! engine sees each tenant's transactions one request at a time, in the
//! order the requests take the lock, exactly as a single-writer engine
//! would; concurrent requests for one tenant wait for the lock, and
//! backpressure beyond that is TCP's.
//!
//! A request that panics inside the engine answers `internal` and leaves
//! the lock poisoned; every later request for the tenant then answers
//! `internal` as well, until `load_profiles` replaces the tenant.

use crate::proto::{DecisionRecord, ProtoError};
use proxylog::{DeviceId, Taxonomy, Transaction};
use std::collections::{BTreeSet, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use streamid::{EngineConfig, ModelStore, Profiles, StreamEngine};
use webprofiler::Vocabulary;

/// Per-tenant counter snapshot for the `stats` verb.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Enrolled profiles.
    pub profiles: usize,
    /// Devices with live window state.
    pub devices: usize,
    /// Windows scored over the tenant's lifetime.
    pub windows_scored: u64,
    /// Windows shed by the engine's per-device backpressure.
    pub windows_shed: u64,
    /// Too-late transactions dropped.
    pub late_dropped: u64,
    /// Scoring batches run.
    pub batches: u64,
    /// Seconds spent scoring.
    pub scoring_secs: f64,
    /// Closed windows awaiting a scoring batch.
    pub pending_windows: usize,
    /// Decisions waiting for a `decide` poll.
    pub decisions_buffered: usize,
    /// Decisions dropped because nobody polled within the buffer cap.
    pub decisions_dropped: u64,
    /// Device window streams opened: one per distinct device ingested.
    pub streams_opened: u64,
    /// Windows closed and queued for scoring.
    pub windows_closed: u64,
}

/// The vocabulary every tenant scores with: the wire protocol fixes the
/// paper-scale taxonomy, so one process-wide value serves all tenants.
fn paper_vocab() -> &'static Vocabulary {
    static VOCAB: OnceLock<Vocabulary> = OnceLock::new();
    VOCAB.get_or_init(|| Vocabulary::new(Taxonomy::paper_scale()))
}

/// One loaded tenant namespace.
pub(crate) struct Tenant {
    state: Mutex<TenantState>,
    pub(crate) profiles: usize,
    pub(crate) skipped: usize,
}

/// Everything a tenant's requests read and write, guarded as one.
struct TenantState {
    engine: StreamEngine<'static, Profiles>,
    /// Decisions waiting for a `decide` poll, oldest first.
    buffered: VecDeque<DecisionRecord>,
    decision_cap: usize,
    decisions_dropped: u64,
    /// Devices ingested since the last flush.
    seen_devices: BTreeSet<DeviceId>,
}

impl TenantState {
    /// Buffers decisions, dropping the oldest beyond the cap; returns how
    /// many were produced.
    fn buffer(&mut self, decisions: Vec<streamid::WindowDecision>) -> usize {
        self.buffered.extend(decisions.iter().map(DecisionRecord::from_decision));
        while self.buffered.len() > self.decision_cap {
            self.buffered.pop_front();
            self.decisions_dropped += 1;
        }
        decisions.len()
    }
}

impl Tenant {
    /// Loads the tenant's profiles from `dir` (strict or lossy) and builds
    /// its engine.
    pub(crate) fn load(
        dir: &str,
        lossy: bool,
        engine_config: EngineConfig,
        decision_cap: usize,
    ) -> Result<Self, ProtoError> {
        let store = ModelStore::new(dir);
        let (profiles, skipped) = if lossy {
            let (profiles, issues) =
                store.load_lossy().map_err(|e| ProtoError::new("store", format!("{dir}: {e}")))?;
            (profiles, issues.len())
        } else {
            (store.load().map_err(|e| ProtoError::new("store", format!("{dir}: {e}")))?, 0)
        };
        if profiles.is_empty() {
            return Err(ProtoError::new("store", format!("{dir}: no loadable profiles")));
        }
        Ok(Self::new(profiles, skipped, engine_config, decision_cap))
    }

    fn new(
        profiles: Profiles,
        skipped: usize,
        engine_config: EngineConfig,
        decision_cap: usize,
    ) -> Self {
        let loaded = profiles.len();
        let engine = StreamEngine::new(profiles, paper_vocab(), engine_config);
        let state = TenantState {
            engine,
            buffered: VecDeque::new(),
            decision_cap,
            decisions_dropped: 0,
            seen_devices: BTreeSet::new(),
        };
        Self { state: Mutex::new(state), profiles: loaded, skipped }
    }

    /// Runs `f` on the locked state. A poisoned lock, or a panic inside
    /// `f` (which poisons it), is an `internal` error, never a panic of
    /// the calling worker.
    fn with_state<T>(&self, f: impl FnOnce(&mut TenantState) -> T) -> Result<T, ProtoError> {
        panic::catch_unwind(AssertUnwindSafe(|| {
            // The guard lives inside the unwind boundary, so a panic in
            // `f` drops it while panicking and poisons the lock.
            let mut state = self.state.lock().map_err(|_| {
                ProtoError::new("internal", "tenant state is poisoned by an earlier failure")
            })?;
            Ok(f(&mut state))
        }))
        .unwrap_or_else(|_| Err(ProtoError::new("internal", "tenant engine panicked")))
    }

    /// Feeds a transaction batch through the engine; returns
    /// `(accepted, decided)`.
    pub(crate) fn ingest(&self, txs: Vec<Transaction>) -> Result<(usize, usize), ProtoError> {
        self.with_state(|state| {
            let accepted = txs.len();
            let mut decided = 0;
            for tx in txs {
                state.seen_devices.insert(tx.device);
                let decisions = state.engine.observe(tx);
                decided += state.buffer(decisions);
            }
            (accepted, decided)
        })
    }

    /// Drains buffered decisions, optionally only one device's.
    pub(crate) fn decide(
        &self,
        device: Option<DeviceId>,
    ) -> Result<Vec<DecisionRecord>, ProtoError> {
        self.with_state(|state| match device {
            None => state.buffered.drain(..).collect(),
            Some(device) => {
                let (matching, rest): (VecDeque<_>, VecDeque<_>) =
                    state.buffered.drain(..).partition(|d| d.device == device.0);
                state.buffered = rest;
                matching.into()
            }
        })
    }

    /// Snapshots the tenant's counters.
    pub(crate) fn stats(&self) -> Result<TenantStats, ProtoError> {
        self.with_state(|state| {
            let stats = state.engine.stats();
            TenantStats {
                profiles: self.profiles,
                devices: stats.devices,
                windows_scored: stats.windows_scored,
                windows_shed: stats.windows_shed,
                late_dropped: stats.late_dropped,
                batches: stats.batches,
                scoring_secs: stats.scoring.as_secs_f64(),
                pending_windows: state.engine.pending_windows(),
                decisions_buffered: state.buffered.len(),
                decisions_dropped: state.decisions_dropped,
                streams_opened: stats.streams_opened,
                windows_closed: stats.windows_closed,
            }
        })
    }

    /// Flushes every open window through `evict_device` into the decision
    /// buffer (the drain verb); returns the windows flushed. The engine
    /// stays usable for final `decide`s.
    pub(crate) fn flush(&self) -> Result<usize, ProtoError> {
        self.with_state(|state| {
            let mut windows = 0;
            for device in std::mem::take(&mut state.seen_devices) {
                let decisions = state.engine.evict_device(device);
                windows += state.buffer(decisions);
            }
            windows
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_fails_cleanly_on_a_bad_store() {
        let err = Tenant::load("/nonexistent/identd-store", false, EngineConfig::default(), 1024);
        let err = match err {
            Err(err) => err,
            Ok(_) => panic!("expected a store error"),
        };
        assert_eq!(err.code, "store");
    }

    #[test]
    fn a_panicking_request_leaves_the_tenant_answering_internal() {
        let tenant = Tenant::new(Profiles::new(), 0, EngineConfig::default(), 1024);
        assert_eq!(tenant.stats().unwrap().profiles, 0);
        let err = tenant.with_state(|_| panic!("engine bug")).unwrap_err();
        assert_eq!(err.code, "internal");
        // The panic poisoned the lock; every verb now fails the same way.
        assert_eq!(tenant.stats().unwrap_err().code, "internal");
        assert_eq!(tenant.ingest(Vec::new()).unwrap_err().code, "internal");
        assert_eq!(tenant.decide(None).unwrap_err().code, "internal");
        assert_eq!(tenant.flush().unwrap_err().code, "internal");
    }
}
