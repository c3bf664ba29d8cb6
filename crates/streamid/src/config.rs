//! Engine configuration.

use webprofiler::WindowConfig;

/// Tuning knobs of a [`StreamEngine`](crate::StreamEngine).
///
/// The defaults mirror the paper's deployment choices where it makes them
/// (window grid `D = 60 s / S = 30 s`, vote over 3 consecutive windows)
/// and pick pragmatic values elsewhere. None of the knobs changes how a
/// window is scored: decision values always come from the `f64` batch
/// path, bit-identical to offline per-window scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Sliding-window duration and shift (the paper retains 60 s / 30 s).
    pub window: WindowConfig,
    /// Trailing windows per device the majority vote runs over
    /// (`k` of [`webprofiler::consecutive_window_vote`]). Must be positive.
    pub vote_k: usize,
    /// Closed windows to accumulate (across all devices) before a scoring
    /// batch runs. Larger batches amortize kernel rows better at the cost
    /// of decision latency; 1 degenerates to per-window scoring. Must be
    /// positive.
    pub batch_windows: usize,
    /// Allowed out-of-order lateness in seconds: a window only closes once
    /// event time moves this far past its end, and transactions at most
    /// this far behind the stream head are never dropped.
    pub lateness_secs: u32,
    /// Bound on closed-but-unscored windows per device. When a device
    /// exceeds it (e.g. the scorer cannot keep up with a flood), its
    /// oldest pending windows are shed and counted. Must be positive.
    pub max_pending_per_device: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            window: WindowConfig::PAPER_DEFAULT,
            vote_k: 3,
            batch_windows: 64,
            lateness_secs: 0,
            max_pending_per_device: 1024,
        }
    }
}

impl EngineConfig {
    /// Validates the configuration, panicking on zero-valued knobs that
    /// must be positive (done once at engine construction).
    pub(crate) fn validate(&self) {
        assert!(self.vote_k > 0, "vote_k must be positive");
        assert!(self.batch_windows > 0, "batch_windows must be positive");
        assert!(self.max_pending_per_device > 0, "max_pending_per_device must be positive");
    }
}

/// Argument of the [`StreamEngine::with_prefilter`](crate::StreamEngine::with_prefilter)
/// shim, read by nothing.
///
/// Kept only so existing callers still build: every engine scores each
/// closed window through the exact [`webprofiler::CandidateIndex`]
/// shortlist, so there is nothing left to configure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefilterConfig {
    /// Compatibility shim, read by nothing: the shortlist used to keep the
    /// top `k` candidates by a heuristic score. It is now exact, so its
    /// size follows from the profiles' bounds alone.
    pub top_k: usize,
}

impl PrefilterConfig {
    /// The old default shortlist size, kept with [`top_k`](Self::top_k)
    /// as a compatibility shim.
    pub const DEFAULT_TOP_K: usize = 16;
}

impl Default for PrefilterConfig {
    fn default() -> Self {
        Self { top_k: Self::DEFAULT_TOP_K }
    }
}
