//! Sliding transaction windows (Sect. III-C).
//!
//! Transactions are aggregated into windows of duration `D` seconds moving
//! by a shift of `S ≤ D` seconds; all transactions of one *key* (a user for
//! training and accuracy evaluation, a device/host for identification)
//! inside a window are composed into one feature vector. Only windows
//! containing at least one transaction are emitted.
//!
//! The paper retains `D = 60 s`, `S = 30 s` after its grid search
//! ([`WindowConfig::PAPER_DEFAULT`]), giving a new feature vector every 30
//! seconds with 30 seconds of overlap between consecutive windows.

use crate::features::aggregate_window;
use crate::vocab::Vocabulary;
use ocsvm::SparseVector;
use proxylog::{Dataset, DeviceId, Timestamp, Transaction, UserId};
use std::fmt;

/// Window duration `D` and shift `S`, in seconds.
///
/// # Examples
///
/// ```
/// use webprofiler::WindowConfig;
///
/// let config = WindowConfig::new(60, 30)?;
/// assert_eq!(config.to_string(), "D=60s/S=30s");
/// # Ok::<(), webprofiler::InvalidWindowConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct WindowConfig {
    duration_secs: u32,
    shift_secs: u32,
}

/// Error constructing a [`WindowConfig`]: `D` and `S` must be positive with
/// `S ≤ D`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidWindowConfigError {
    duration_secs: u32,
    shift_secs: u32,
}

impl fmt::Display for InvalidWindowConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid window config: duration {}s, shift {}s (need 0 < S <= D)",
            self.duration_secs, self.shift_secs
        )
    }
}

impl std::error::Error for InvalidWindowConfigError {}

impl WindowConfig {
    /// The configuration the paper retains: `D = 60 s`, `S = 30 s`.
    pub const PAPER_DEFAULT: WindowConfig = WindowConfig { duration_secs: 60, shift_secs: 30 };

    /// Creates a config with duration `D` and shift `S` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidWindowConfigError`] unless `0 < S ≤ D`.
    pub fn new(duration_secs: u32, shift_secs: u32) -> Result<Self, InvalidWindowConfigError> {
        if duration_secs == 0 || shift_secs == 0 || shift_secs > duration_secs {
            return Err(InvalidWindowConfigError { duration_secs, shift_secs });
        }
        Ok(Self { duration_secs, shift_secs })
    }

    /// Window duration `D` in seconds.
    pub fn duration_secs(&self) -> u32 {
        self.duration_secs
    }

    /// Window shift `S` in seconds.
    pub fn shift_secs(&self) -> u32 {
        self.shift_secs
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self::PAPER_DEFAULT
    }
}

impl fmt::Display for WindowConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D={}s/S={}s", self.duration_secs, self.shift_secs)
    }
}

/// What a window's transactions were grouped by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WindowKey {
    /// User-specific windowing (training, accuracy evaluation).
    User(UserId),
    /// Host-specific windowing (identification on a device).
    Device(DeviceId),
}

/// One aggregated transaction window.
#[derive(Debug, Clone)]
pub struct TransactionWindow {
    /// Grouping key.
    pub key: WindowKey,
    /// Window start time (grid-aligned to the shift).
    pub start: Timestamp,
    /// Aggregated feature vector.
    pub features: SparseVector,
    /// Number of transactions aggregated.
    pub transaction_count: usize,
    /// Distinct users whose transactions fall in the window (ascending).
    /// For user-specific windowing this is always the single profiled
    /// user; for host-specific windowing it is the ground truth the
    /// identification experiment compares against.
    pub users: Vec<UserId>,
}

/// Computes sliding windows over datasets with a fixed vocabulary and
/// window configuration.
#[derive(Debug, Clone)]
pub struct WindowAggregator<'a> {
    vocab: &'a Vocabulary,
    config: WindowConfig,
}

impl<'a> WindowAggregator<'a> {
    /// Creates an aggregator.
    pub fn new(vocab: &'a Vocabulary, config: WindowConfig) -> Self {
        Self { vocab, config }
    }

    /// The window configuration in use.
    pub fn config(&self) -> WindowConfig {
        self.config
    }

    /// User-specific windows over a dataset (only that user's
    /// transactions), time-ordered.
    pub fn user_windows(&self, dataset: &Dataset, user: UserId) -> Vec<TransactionWindow> {
        let txs: Vec<Transaction> = dataset.for_user(user).copied().collect();
        self.windows_over(&txs, WindowKey::User(user))
    }

    /// Host-specific windows over a dataset (all transactions seen on the
    /// device, whoever performed them), time-ordered.
    pub fn device_windows(&self, dataset: &Dataset, device: DeviceId) -> Vec<TransactionWindow> {
        let txs: Vec<Transaction> = dataset.for_device(device).copied().collect();
        self.windows_over(&txs, WindowKey::Device(device))
    }

    /// Windows over an explicit time-sorted transaction slice.
    ///
    /// The window grid is aligned to the epoch (window `k` covers
    /// `[k·S, k·S + D)`), so window boundaries are stable across datasets
    /// and keys. Empty windows are skipped.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `transactions` is not sorted by timestamp.
    pub fn windows_over(
        &self,
        transactions: &[Transaction],
        key: WindowKey,
    ) -> Vec<TransactionWindow> {
        let mut result = Vec::new();
        for_each_window(transactions, self.config, |window_start, slice| {
            let mut users: Vec<UserId> = slice.iter().map(|tx| tx.user).collect();
            users.sort_unstable();
            users.dedup();
            result.push(TransactionWindow {
                key,
                start: window_start,
                features: aggregate_window(self.vocab, slice),
                transaction_count: slice.len(),
                users,
            });
        });
        result
    }

    /// The raw transaction slices behind each non-empty window — the input
    /// to sequence-based models (e.g. the Markov baseline) that need more
    /// than the aggregated feature vector.
    pub fn user_window_slices(
        &self,
        dataset: &Dataset,
        user: UserId,
    ) -> Vec<(Timestamp, Vec<Transaction>)> {
        let txs: Vec<Transaction> = dataset.for_user(user).copied().collect();
        let mut result = Vec::new();
        for_each_window(&txs, self.config, |start, slice| {
            result.push((start, slice.to_vec()));
        });
        result
    }
}

/// Shared sliding-window sweep: invokes `emit(start, slice)` for every
/// non-empty window of the grid, skipping empty gaps in `O(windows + n)`.
///
/// # Panics
///
/// Debug-asserts that `transactions` is time-sorted.
fn for_each_window(
    transactions: &[Transaction],
    config: WindowConfig,
    mut emit: impl FnMut(Timestamp, &[Transaction]),
) {
    debug_assert!(
        transactions.windows(2).all(|w| w[0].timestamp <= w[1].timestamp),
        "transactions must be time-sorted"
    );
    if transactions.is_empty() {
        return;
    }
    let s = i64::from(config.shift_secs);
    let d = i64::from(config.duration_secs);
    let first_t = transactions[0].timestamp.as_secs();
    let last_t = transactions[transactions.len() - 1].timestamp.as_secs();
    // Smallest k with k·S + D > first_t, largest k with k·S <= last_t.
    let mut k = (first_t - d).div_euclid(s) + 1;
    let last_k = last_t.div_euclid(s);
    let mut lo = 0usize;
    while k <= last_k {
        let window_start = k * s;
        let window_end = window_start + d;
        while lo < transactions.len() && transactions[lo].timestamp.as_secs() < window_start {
            lo += 1;
        }
        if lo >= transactions.len() {
            break;
        }
        let next_t = transactions[lo].timestamp.as_secs();
        if next_t >= window_end {
            // Jump to the first window that can contain the next
            // transaction instead of sliding through empty windows.
            k = k.max((next_t - d).div_euclid(s) + 1);
            continue;
        }
        let mut hi = lo;
        while hi < transactions.len() && transactions[hi].timestamp.as_secs() < window_end {
            hi += 1;
        }
        emit(Timestamp(window_start), &transactions[lo..hi]);
        k += 1;
    }
}

/// Incremental sliding-window composer for online monitoring.
///
/// [`WindowAggregator`] computes windows over a complete dataset; this
/// stream computes the same windows incrementally as transactions arrive
/// ([`offer`](Self::offer)), emitting a window as soon as event time has
/// moved past its end. Feed it only the transactions of the monitored key
/// (one user or one device); arrivals may be out of order within the
/// allowed lateness ([`with_lateness`](Self::with_lateness)).
///
/// # Examples
///
/// ```
/// use proxylog::UserId;
/// use webprofiler::{Vocabulary, WindowConfig, WindowKey, WindowStream};
/// # use proxylog::{AppTypeId, CategoryId, DeviceId, HttpAction, Reputation, SiteId,
/// #     SubtypeId, Taxonomy, Timestamp, Transaction, UriScheme};
///
/// let vocab = Vocabulary::new(Taxonomy::paper_scale());
/// let mut stream =
///     WindowStream::new(&vocab, WindowConfig::PAPER_DEFAULT, WindowKey::User(UserId(0)));
/// # let tx = |secs: i64| Transaction {
/// #     timestamp: Timestamp(secs), user: UserId(0), device: DeviceId(0), site: SiteId(0),
/// #     action: HttpAction::Get, scheme: UriScheme::Http, category: CategoryId(0),
/// #     subtype: SubtypeId(0), app_type: AppTypeId(0), reputation: Reputation::Minimal,
/// #     private_destination: false,
/// # };
/// assert!(stream.offer(tx(10)).is_empty()); // window still open
/// let done = stream.offer(tx(500)); // event time passed the first windows
/// assert!(!done.is_empty());
/// let tail = stream.flush();
/// assert!(!tail.is_empty());
/// ```
#[derive(Debug)]
pub struct WindowStream<'a> {
    vocab: &'a Vocabulary,
    config: WindowConfig,
    key: WindowKey,
    /// Time-sorted transactions still needed by open windows.
    buffer: Vec<Transaction>,
    /// Next window index to consider for emission (windows below this are
    /// already emitted or permanently empty).
    next_k: Option<i64>,
    /// Highest window index the watermark has closed: windows up to here
    /// are emitted or were empty when they closed.
    closed_through: Option<i64>,
    /// Allowed lateness `L` for [`offer`](Self::offer): emission lags the
    /// newest event time by `L` seconds so stragglers can still land.
    lateness_secs: i64,
    /// Newest event time seen (the watermark is this minus the lateness).
    max_time: Option<i64>,
    /// Transactions dropped by [`offer`](Self::offer) because every window
    /// that could contain them was already emitted.
    late_dropped: u64,
}

impl<'a> WindowStream<'a> {
    /// Creates an empty stream.
    pub fn new(vocab: &'a Vocabulary, config: WindowConfig, key: WindowKey) -> Self {
        Self {
            vocab,
            config,
            key,
            buffer: Vec::new(),
            next_k: None,
            closed_through: None,
            lateness_secs: 0,
            max_time: None,
            late_dropped: 0,
        }
    }

    /// Sets the allowed lateness (seconds) for [`offer`](Self::offer):
    /// window emission lags the newest event time by this much, so any
    /// transaction at most this far behind the stream head is never
    /// dropped.
    pub fn with_lateness(mut self, lateness_secs: u32) -> Self {
        self.lateness_secs = i64::from(lateness_secs);
        self
    }

    /// The grouping key windows are tagged with.
    pub fn key(&self) -> WindowKey {
        self.key
    }

    /// Number of buffered (not yet fully emitted) transactions.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Transactions [`offer`](Self::offer) dropped as too late (all their
    /// windows were already emitted).
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Feeds one transaction, possibly out of order; returns every window
    /// that became complete, in order.
    ///
    /// A transaction is accepted as long as none of the windows that could
    /// contain it has closed yet. Emission is watermark-driven: a
    /// window closes once its end falls behind `newest event time − L`,
    /// where `L` is the allowed lateness ([`with_lateness`](Self::with_lateness)),
    /// so any transaction at most `L` seconds behind the stream head is
    /// always accepted. Older stragglers are dropped and counted
    /// ([`late_dropped`](Self::late_dropped)).
    ///
    /// In-order input is never dropped regardless of `L`; with the default
    /// `L = 0` each window is emitted by the first transaction at or past
    /// its end.
    pub fn offer(&mut self, tx: Transaction) -> Vec<TransactionWindow> {
        let t = tx.timestamp.as_secs();
        let s = i64::from(self.config.shift_secs());
        let d = i64::from(self.config.duration_secs());
        // First window that can contain this transaction.
        let k_min = (t - d).div_euclid(s) + 1;
        if self.closed_through.is_some_and(|closed| k_min <= closed) {
            self.late_dropped += 1;
            return Vec::new();
        }
        // Windows from `k_min` on are still open, even below `next_k`: an
        // arrival older than the stream's first transaction, or one landing
        // in a gap the emitter skipped while it was empty.
        self.next_k = Some(self.next_k.map_or(k_min, |next_k| next_k.min(k_min)));
        let pos = self.buffer.partition_point(|b| b.timestamp <= tx.timestamp);
        self.buffer.insert(pos, tx);
        let max_time = self.max_time.map_or(t, |m| m.max(t));
        self.max_time = Some(max_time);
        // Windows with end <= watermark are complete.
        self.emit_through((max_time - self.lateness_secs - d).div_euclid(s))
    }

    /// Emits every remaining non-empty window and clears the stream.
    pub fn flush(&mut self) -> Vec<TransactionWindow> {
        let Some(last) = self.buffer.last() else {
            return Vec::new();
        };
        let s = i64::from(self.config.shift_secs());
        let last_k = last.timestamp.as_secs().div_euclid(s);
        let emitted = self.emit_through(last_k);
        self.buffer.clear();
        self.next_k = None;
        self.closed_through = None;
        self.max_time = None;
        emitted
    }

    /// Emits non-empty windows with indices `next_k ..= k_limit`, advances
    /// `next_k`, and drops buffered transactions no future window needs.
    fn emit_through(&mut self, k_limit: i64) -> Vec<TransactionWindow> {
        self.closed_through = Some(self.closed_through.map_or(k_limit, |c| c.max(k_limit)));
        let mut result = Vec::new();
        let Some(mut k) = self.next_k else {
            return result;
        };
        let s = i64::from(self.config.shift_secs());
        let d = i64::from(self.config.duration_secs());
        while k <= k_limit {
            let window_start = k * s;
            let window_end = window_start + d;
            let lo = self.buffer.partition_point(|tx| tx.timestamp.as_secs() < window_start);
            let hi = self.buffer.partition_point(|tx| tx.timestamp.as_secs() < window_end);
            if lo < hi {
                let slice = &self.buffer[lo..hi];
                let mut users: Vec<UserId> = slice.iter().map(|tx| tx.user).collect();
                users.sort_unstable();
                users.dedup();
                result.push(TransactionWindow {
                    key: self.key,
                    start: Timestamp(window_start),
                    features: aggregate_window(self.vocab, slice),
                    transaction_count: hi - lo,
                    users,
                });
                k += 1;
            } else if let Some(tx) = self.buffer.get(lo) {
                // Jump past the empty gap to the first window that can
                // contain the next buffered transaction.
                let jump = (tx.timestamp.as_secs() - d).div_euclid(s) + 1;
                k = jump.max(k + 1);
            } else {
                k = k_limit + 1;
            }
        }
        self.next_k = Some(k);
        // Transactions older than the next window's start are done.
        let next_start = k * s;
        self.buffer.retain(|tx| tx.timestamp.as_secs() >= next_start);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxylog::{
        AppTypeId, CategoryId, HttpAction, Reputation, SiteId, SubtypeId, Taxonomy, UriScheme,
    };
    use std::sync::Arc;

    fn vocab() -> Vocabulary {
        Vocabulary::new(Taxonomy::paper_scale())
    }

    fn tx_at(secs: i64, user: u32) -> Transaction {
        Transaction {
            timestamp: Timestamp(secs),
            user: UserId(user),
            device: DeviceId(0),
            site: SiteId(0),
            action: HttpAction::Get,
            scheme: UriScheme::Http,
            category: CategoryId(0),
            subtype: SubtypeId(0),
            app_type: AppTypeId(0),
            reputation: Reputation::Minimal,
            private_destination: false,
        }
    }

    #[test]
    fn config_validation() {
        assert!(WindowConfig::new(60, 30).is_ok());
        assert!(WindowConfig::new(60, 60).is_ok());
        assert!(WindowConfig::new(0, 0).is_err());
        assert!(WindowConfig::new(30, 60).is_err());
        assert!(WindowConfig::new(60, 0).is_err());
        let err = WindowConfig::new(30, 60).unwrap_err();
        assert!(err.to_string().contains("S <= D"));
    }

    #[test]
    fn paper_default_is_60_30() {
        assert_eq!(WindowConfig::PAPER_DEFAULT.duration_secs(), 60);
        assert_eq!(WindowConfig::PAPER_DEFAULT.shift_secs(), 30);
        assert_eq!(WindowConfig::default(), WindowConfig::PAPER_DEFAULT);
    }

    #[test]
    fn single_transaction_appears_in_overlapping_windows() {
        // D=60, S=30: a transaction at t=65 falls in windows starting at 30
        // and 60.
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 30).unwrap());
        let windows = agg.windows_over(&[tx_at(65, 0)], WindowKey::User(UserId(0)));
        let starts: Vec<i64> = windows.iter().map(|w| w.start.as_secs()).collect();
        assert_eq!(starts, vec![30, 60]);
        assert!(windows.iter().all(|w| w.transaction_count == 1));
    }

    #[test]
    fn non_overlapping_when_shift_equals_duration() {
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 60).unwrap());
        let txs = vec![tx_at(10, 0), tx_at(70, 0), tx_at(130, 0)];
        let windows = agg.windows_over(&txs, WindowKey::User(UserId(0)));
        assert_eq!(windows.len(), 3);
        assert!(windows.iter().all(|w| w.transaction_count == 1));
    }

    #[test]
    fn windows_group_cohabiting_transactions() {
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 30).unwrap());
        let txs = vec![tx_at(0, 0), tx_at(10, 0), tx_at(59, 0)];
        let windows = agg.windows_over(&txs, WindowKey::User(UserId(0)));
        // Window at 0 holds all three; window at 30 holds only t=59; window
        // at -30 holds t=0..10.
        let find = |start: i64| windows.iter().find(|w| w.start.as_secs() == start);
        assert_eq!(find(0).unwrap().transaction_count, 3);
        assert_eq!(find(30).unwrap().transaction_count, 1);
        assert_eq!(find(-30).unwrap().transaction_count, 2);
    }

    #[test]
    fn empty_gaps_are_skipped_efficiently() {
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 30).unwrap());
        // Two transactions a year apart: the sweep must not emit a million
        // empty windows (completes instantly and yields only hit windows).
        let txs = vec![tx_at(0, 0), tx_at(365 * 86_400, 0)];
        let windows = agg.windows_over(&txs, WindowKey::User(UserId(0)));
        assert_eq!(windows.len(), 4); // two per transaction (overlap factor 2)
        assert!(windows.iter().all(|w| w.transaction_count == 1));
    }

    #[test]
    fn user_windows_are_user_specific() {
        let v = vocab();
        let taxonomy = Taxonomy::paper_scale();
        let dataset =
            Dataset::new(Arc::clone(&taxonomy), vec![tx_at(0, 0), tx_at(1, 1), tx_at(2, 0)]);
        let agg = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
        let w0 = agg.user_windows(&dataset, UserId(0));
        assert!(w0.iter().all(|w| w.key == WindowKey::User(UserId(0))));
        let total: usize = w0.iter().map(|w| w.transaction_count).sum();
        assert_eq!(total, 4); // 2 transactions × 2 overlapping windows each
    }

    #[test]
    fn device_windows_mix_users() {
        let v = vocab();
        let taxonomy = Taxonomy::paper_scale();
        let dataset = Dataset::new(Arc::clone(&taxonomy), vec![tx_at(0, 0), tx_at(1, 1)]);
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 60).unwrap());
        let windows = agg.device_windows(&dataset, DeviceId(0));
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].transaction_count, 2);
    }

    #[test]
    fn no_transactions_no_windows() {
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::PAPER_DEFAULT);
        assert!(agg.windows_over(&[], WindowKey::User(UserId(0))).is_empty());
    }

    #[test]
    fn negative_timestamps_are_handled() {
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 30).unwrap());
        let windows = agg.windows_over(&[tx_at(-100, 0)], WindowKey::User(UserId(0)));
        assert_eq!(windows.len(), 2);
        for w in &windows {
            assert!(w.start.as_secs() <= -100);
            assert!(w.start.as_secs() + 60 > -100);
        }
    }

    /// Batch and streaming windowing must agree exactly.
    fn assert_stream_matches_batch(txs: &[Transaction], config: WindowConfig) {
        let v = vocab();
        let aggregator = WindowAggregator::new(&v, config);
        let batch = aggregator.windows_over(txs, WindowKey::User(UserId(0)));
        let mut stream = WindowStream::new(&v, config, WindowKey::User(UserId(0)));
        let mut streamed = Vec::new();
        for tx in txs {
            streamed.extend(stream.offer(*tx));
        }
        streamed.extend(stream.flush());
        assert_eq!(streamed.len(), batch.len(), "window counts differ");
        for (a, b) in streamed.iter().zip(&batch) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.transaction_count, b.transaction_count);
            assert_eq!(a.features, b.features);
            assert_eq!(a.users, b.users);
        }
    }

    #[test]
    fn stream_matches_batch_dense_input() {
        let txs: Vec<Transaction> = (0..200).map(|i| tx_at(i * 7, 0)).collect();
        assert_stream_matches_batch(&txs, WindowConfig::new(60, 30).unwrap());
    }

    #[test]
    fn stream_matches_batch_with_gaps() {
        let mut txs = Vec::new();
        for i in 0..5 {
            txs.push(tx_at(i * 10, 0));
        }
        txs.push(tx_at(100_000, 0));
        txs.push(tx_at(100_001, 0));
        txs.push(tx_at(5_000_000, 0));
        assert_stream_matches_batch(&txs, WindowConfig::new(60, 30).unwrap());
        assert_stream_matches_batch(&txs, WindowConfig::new(60, 6).unwrap());
        assert_stream_matches_batch(&txs, WindowConfig::new(300, 300).unwrap());
    }

    #[test]
    fn stream_emits_incrementally() {
        let v = vocab();
        let mut stream =
            WindowStream::new(&v, WindowConfig::new(60, 60).unwrap(), WindowKey::User(UserId(0)));
        assert!(stream.offer(tx_at(10, 0)).is_empty());
        assert!(stream.offer(tx_at(30, 0)).is_empty());
        // Crossing the window end completes the first window.
        let done = stream.offer(tx_at(120, 0));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].transaction_count, 2);
        // Buffer drops what it no longer needs.
        assert_eq!(stream.buffered(), 1);
        let tail = stream.flush();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].transaction_count, 1);
    }

    #[test]
    fn stream_flush_on_empty_is_empty() {
        let v = vocab();
        let mut stream =
            WindowStream::new(&v, WindowConfig::PAPER_DEFAULT, WindowKey::User(UserId(0)));
        assert!(stream.flush().is_empty());
    }

    #[test]
    fn stream_reusable_after_flush() {
        let v = vocab();
        let mut stream =
            WindowStream::new(&v, WindowConfig::new(60, 60).unwrap(), WindowKey::User(UserId(0)));
        let _ = stream.offer(tx_at(10, 0));
        let _ = stream.flush();
        // Times may restart after a flush.
        assert!(stream.offer(tx_at(0, 0)).is_empty());
        assert_eq!(stream.flush().len(), 1);
    }

    #[test]
    fn windows_straddle_day_boundaries() {
        // Transactions just before and after midnight share the straddling
        // windows: the epoch-aligned grid does not restart at day breaks.
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 30).unwrap());
        let midnight = 86_400;
        let txs = vec![tx_at(midnight - 10, 0), tx_at(midnight + 10, 1)];
        let windows = agg.windows_over(&txs, WindowKey::Device(DeviceId(0)));
        let both: Vec<_> = windows.iter().filter(|w| w.transaction_count == 2).collect();
        assert_eq!(both.len(), 1, "one window spans the boundary");
        assert_eq!(both[0].start.as_secs(), midnight - 30);
        assert_eq!(both[0].users, vec![UserId(0), UserId(1)]);
        assert_stream_matches_batch(&txs, WindowConfig::new(60, 30).unwrap());
    }

    #[test]
    fn single_transaction_device_emits_all_overlaps() {
        // A device with exactly one transaction: D/S overlapping windows,
        // batch and stream alike, and flush-only emission (nothing closes
        // while the stream is live).
        let config = WindowConfig::new(60, 30).unwrap();
        let v = vocab();
        let mut stream = WindowStream::new(&v, config, WindowKey::Device(DeviceId(0)));
        assert!(stream.offer(tx_at(12_345, 3)).is_empty());
        let tail = stream.flush();
        assert_eq!(tail.len(), 2);
        assert!(tail.iter().all(|w| w.transaction_count == 1 && w.users == vec![UserId(3)]));
        assert_stream_matches_batch(&[tx_at(12_345, 3)], config);
    }

    #[test]
    fn duplicate_timestamps_stay_in_one_window() {
        let config = WindowConfig::new(60, 30).unwrap();
        let txs = vec![tx_at(90, 0), tx_at(90, 1), tx_at(90, 0), tx_at(90, 2)];
        let v = vocab();
        let agg = WindowAggregator::new(&v, config);
        let windows = agg.windows_over(&txs, WindowKey::Device(DeviceId(0)));
        assert_eq!(windows.len(), 2);
        for w in &windows {
            assert_eq!(w.transaction_count, 4);
            assert_eq!(w.users, vec![UserId(0), UserId(1), UserId(2)]);
        }
        assert_stream_matches_batch(&txs, config);
    }

    #[test]
    fn offer_accepts_out_of_order_within_watermark() {
        // A shuffled arrival order within the allowed lateness must produce
        // exactly the batch windows over the time-sorted input.
        let config = WindowConfig::new(60, 30).unwrap();
        let sorted: Vec<Transaction> = (0..40).map(|i| tx_at(i * 13, (i % 3) as u32)).collect();
        // Swap adjacent pairs: each transaction arrives at most 13 s late.
        let mut shuffled = sorted.clone();
        for pair in shuffled.chunks_mut(2) {
            pair.reverse();
        }
        let v = vocab();
        let batch =
            WindowAggregator::new(&v, config).windows_over(&sorted, WindowKey::User(UserId(0)));
        let mut stream =
            WindowStream::new(&v, config, WindowKey::User(UserId(0))).with_lateness(15);
        let mut streamed = Vec::new();
        for tx in &shuffled {
            streamed.extend(stream.offer(*tx));
        }
        streamed.extend(stream.flush());
        assert_eq!(stream.late_dropped(), 0, "nothing within the watermark is dropped");
        assert_eq!(streamed.len(), batch.len());
        for (a, b) in streamed.iter().zip(&batch) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.features, b.features);
            assert_eq!(a.users, b.users);
        }
    }

    #[test]
    fn offer_drops_and_counts_too_late_transactions() {
        let config = WindowConfig::new(60, 30).unwrap();
        let v = vocab();
        let mut stream = WindowStream::new(&v, config, WindowKey::User(UserId(0)));
        let _ = stream.offer(tx_at(10, 0));
        // Event time far ahead: windows around t=10 are all emitted.
        let emitted = stream.offer(tx_at(1_000, 0));
        assert!(!emitted.is_empty());
        // A straggler whose windows are long closed is dropped...
        assert!(stream.offer(tx_at(20, 0)).is_empty());
        assert_eq!(stream.late_dropped(), 1);
        assert_eq!(stream.buffered(), 1, "the straggler is not buffered");
        // ...and so is one older than every window emitted so far.
        assert!(stream.offer(tx_at(-500, 0)).is_empty());
        assert_eq!(stream.late_dropped(), 2);
        // ...but one that still fits an open window is kept.
        let _ = stream.offer(tx_at(990, 0));
        assert_eq!(stream.late_dropped(), 2);
        let tail = stream.flush();
        assert!(tail.iter().any(|w| w.transaction_count == 2));
    }

    #[test]
    fn offer_keeps_stragglers_within_lateness_before_the_first_arrival_and_in_skipped_gaps() {
        let config = WindowConfig::new(60, 30).unwrap();
        let v = vocab();
        let sorted = [tx_at(50, 0), tx_at(100, 0), tx_at(985, 0), tx_at(1_000, 0)];
        // 50 arrives 50 s after 100, and 985 15 s after 1000, whose arrival
        // made the emitter jump over the empty gap past 985's windows.
        let arrivals = [sorted[1], sorted[0], sorted[3], sorted[2]];
        let mut stream =
            WindowStream::new(&v, config, WindowKey::User(UserId(0))).with_lateness(50);
        let mut streamed = Vec::new();
        for tx in arrivals {
            streamed.extend(stream.offer(tx));
        }
        streamed.extend(stream.flush());
        assert_eq!(stream.late_dropped(), 0, "every arrival is within the lateness");
        let batch =
            WindowAggregator::new(&v, config).windows_over(&sorted, WindowKey::User(UserId(0)));
        assert_eq!(streamed.len(), batch.len());
        for (a, b) in streamed.iter().zip(&batch) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.features, b.features);
            assert_eq!(a.transaction_count, b.transaction_count);
        }
    }

    #[test]
    fn offer_emits_each_window_once_event_time_reaches_its_end() {
        // In order at the default lateness, the transaction at `t` emits
        // exactly the batch windows whose end falls in (previous t, t].
        let config = WindowConfig::new(60, 30).unwrap();
        let txs: Vec<Transaction> = (0..50).map(|i| tx_at(i * 11, 0)).collect();
        let v = vocab();
        let batch =
            WindowAggregator::new(&v, config).windows_over(&txs, WindowKey::User(UserId(0)));
        let end = |w: &TransactionWindow| w.start.as_secs() + i64::from(config.duration_secs());
        let mut stream = WindowStream::new(&v, config, WindowKey::User(UserId(0)));
        let mut previous = i64::MIN;
        for tx in &txs {
            let t = tx.timestamp.as_secs();
            let expected: Vec<_> =
                batch.iter().filter(|w| previous < end(w) && end(w) <= t).collect();
            let emitted = stream.offer(*tx);
            assert_eq!(emitted.len(), expected.len(), "at t = {t}");
            for (x, y) in emitted.iter().zip(expected) {
                assert_eq!(x.start, y.start);
                assert_eq!(x.features, y.features);
            }
            previous = t;
        }
        let tail = stream.flush();
        assert_eq!(tail.len(), batch.iter().filter(|w| end(w) > previous).count());
        assert_eq!(stream.late_dropped(), 0);
    }

    #[test]
    fn features_match_direct_aggregation() {
        let v = vocab();
        let agg = WindowAggregator::new(&v, WindowConfig::new(60, 60).unwrap());
        let txs = vec![tx_at(0, 0), tx_at(30, 0)];
        let windows = agg.windows_over(&txs, WindowKey::User(UserId(0)));
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].features, crate::features::aggregate_window(&v, &txs));
    }
}
