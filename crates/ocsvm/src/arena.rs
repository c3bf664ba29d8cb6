//! The memory-budgeted kernel-row arena: the crate's one kernel-row cache.
//!
//! Every kernel row the crate computes for reuse — solver rows of a plain
//! `train` call, and the rows of a [`GramMatrix`](crate::GramMatrix)
//! shared by a whole regularization sweep — lives in a [`KernelRowArena`]: a thread-safe cache of kernel rows
//! keyed by `(owner, kernel, row)` plus a content fingerprint, governed by
//! an explicit byte budget with exact least-recently-used eviction. One
//! arena can be shared by `Arc` across every worker and every sweep that
//! should draw on one budget, bounding their total footprint; a matrix
//! built without one gets a private arena of its own.
//!
//! The arena serves training only, where rows are reused. Serving-time
//! batch scoring (`batch_decision_values`) sees a fresh probe batch on
//! every call, so no row would ever be hit again: it computes each
//! support-vector row into one reused buffer and caches nothing.
//!
//! Rows are handed out as `Arc<[f64]>`, so an evicted row stays valid for
//! every holder; eviction only bounds what the *arena* retains. A solver
//! run over a shared arena pins the rows it fetches for its own duration
//! (see `PrecomputedQ`), so it adds at most one training set's rows on top
//! of the budget per in-flight solve.
//!
//! Hit/miss/fill/eviction and byte counters are exposed through
//! [`KernelRowArena::stats`]; the grid-search scheduler and the `sweep`
//! benchmark report them, and the arena stress test asserts their
//! invariants (`fills ≤ misses ≤ requests`, `bytes ≤ budget` after every
//! eviction pass).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Identity of one cached kernel row.
///
/// `owner` is a caller-chosen namespace (the grid search uses the user
/// id), `kernel` the [`KernelKind`](crate::KernelKind) slot, `row` the
/// row index, and `tag` a fingerprint of the exact kernel parameters and
/// vector contents the row was computed from — two row sets that differ
/// in any input hash to different tags, so stale reuse across window
/// configurations, subsamples or retrained models is ruled out by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowKey {
    /// Caller-chosen namespace, conventionally the user id.
    pub owner: u64,
    /// Kernel family slot (see [`KernelKind`](crate::KernelKind)).
    pub kernel: u8,
    /// Row index within the matrix.
    pub row: u32,
    /// Content fingerprint of kernel parameters + input vectors.
    pub tag: u64,
}

/// Counter snapshot of a [`KernelRowArena`].
///
/// All counters except `bytes`/`peak_bytes`/`budget` are monotone; use
/// [`ArenaStats::since`] for a per-phase delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArenaStats {
    /// Row lookups.
    pub requests: u64,
    /// Lookups served from the arena.
    pub hits: u64,
    /// Lookups that had to compute the row (`requests − hits`).
    pub misses: u64,
    /// Rows inserted (≤ `misses`: a racing thread may insert first, in
    /// which case the loser adopts the winner's row and fills nothing).
    pub fills: u64,
    /// Rows evicted to honour the budget.
    pub evictions: u64,
    /// Bytes of row data currently retained (≤ `budget` after every
    /// eviction pass).
    pub bytes: usize,
    /// High-water mark of `bytes` *between* eviction passes (insertion
    /// momentarily exceeds the budget before the pass trims it back).
    pub peak_bytes: usize,
    /// The configured byte budget.
    pub budget: usize,
}

impl ArenaStats {
    /// Hit rate over all requests so far, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        self.hits as f64 / self.requests as f64
    }

    /// Delta of the monotone counters since `earlier` (gauges `bytes`,
    /// `peak_bytes` and `budget` keep their current values).
    pub fn since(&self, earlier: &ArenaStats) -> ArenaStats {
        ArenaStats {
            requests: self.requests - earlier.requests,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            fills: self.fills - earlier.fills,
            evictions: self.evictions - earlier.evictions,
            bytes: self.bytes,
            peak_bytes: self.peak_bytes,
            budget: self.budget,
        }
    }
}

#[derive(Debug)]
struct Entry {
    data: Arc<[f64]>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    rows: HashMap<RowKey, Entry>,
    /// Exact recency order: strictly monotone tick → key, so the first
    /// entry is always the least recently used row.
    order: BTreeMap<u64, RowKey>,
    tick: u64,
    stats: ArenaStats,
}

/// Byte-budgeted, thread-safe cache of kernel rows.
///
/// See the module-level docs for the design. Construct one and share it by
/// `Arc` across every sweep worker that should draw on the same budget; a
/// grid search handed none creates one of [`DEFAULT_SWEEP_BUDGET`] bytes
/// for the length of the sweep.
///
/// # Examples
///
/// ```
/// use ocsvm::{KernelRowArena, RowKey};
///
/// let arena = KernelRowArena::with_budget(1 << 20);
/// let key = RowKey { owner: 7, kernel: 0, row: 3, tag: 42 };
/// let row = arena.get_or_compute(key, || vec![1.0, 2.0, 3.0]);
/// assert_eq!(&row[..], &[1.0, 2.0, 3.0]);
/// // Second lookup is served from the arena.
/// let again = arena.get_or_compute(key, || unreachable!("cached"));
/// assert_eq!(row, again);
/// assert_eq!(arena.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct KernelRowArena {
    budget: usize,
    inner: Mutex<Inner>,
}

/// Default budget of the arena a sweep creates when it is handed none:
/// 256 MiB of kernel rows.
pub const DEFAULT_SWEEP_BUDGET: usize = 256 << 20;

impl KernelRowArena {
    /// Creates an arena retaining at most `budget_bytes` of row data.
    ///
    /// A budget of zero is allowed: every insertion is evicted again at the
    /// end of its `get_or_compute` call, degrading the arena to a pure
    /// pass-through (returned rows stay valid — holders keep their `Arc`).
    pub fn with_budget(budget_bytes: usize) -> Arc<Self> {
        Arc::new(Self {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                stats: ArenaStats { budget: budget_bytes, ..ArenaStats::default() },
                ..Inner::default()
            }),
        })
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Returns the row under `key`, computing it with `compute` when the
    /// arena does not hold it.
    ///
    /// The computation runs *outside* the arena lock, so concurrent misses
    /// on different keys never serialize on each other's kernel
    /// evaluations. Two threads missing the same key may both compute the
    /// row; the first insert wins and the loser adopts the winner's copy
    /// (both computed the same values — keys fingerprint their inputs).
    pub fn get_or_compute(&self, key: RowKey, compute: impl FnOnce() -> Vec<f64>) -> Arc<[f64]> {
        {
            let mut inner = self.inner.lock().expect("arena lock");
            inner.stats.requests += 1;
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.rows.get_mut(&key) {
                let previous = entry.last_used;
                entry.last_used = tick;
                let data = Arc::clone(&entry.data);
                inner.order.remove(&previous);
                inner.order.insert(tick, key);
                inner.stats.hits += 1;
                return data;
            }
            inner.stats.misses += 1;
        }
        let data: Arc<[f64]> = compute().into();
        let mut inner = self.inner.lock().expect("arena lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.rows.get_mut(&key) {
            // A racing thread filled the key while we were computing; adopt
            // its row so every holder shares one allocation.
            let previous = entry.last_used;
            entry.last_used = tick;
            let adopted = Arc::clone(&entry.data);
            inner.order.remove(&previous);
            inner.order.insert(tick, key);
            return adopted;
        }
        inner.stats.fills += 1;
        inner.stats.bytes += data.len() * std::mem::size_of::<f64>();
        inner.stats.peak_bytes = inner.stats.peak_bytes.max(inner.stats.bytes);
        inner.rows.insert(key, Entry { data: Arc::clone(&data), last_used: tick });
        inner.order.insert(tick, key);
        let budget = self.budget;
        while inner.stats.bytes > budget {
            let Some((_, victim)) = inner.order.pop_first() else {
                break;
            };
            let removed = inner.rows.remove(&victim).expect("order/rows in lock-step");
            inner.stats.bytes -= removed.data.len() * std::mem::size_of::<f64>();
            inner.stats.evictions += 1;
        }
        data
    }

    /// Snapshot of the arena counters.
    pub fn stats(&self) -> ArenaStats {
        self.inner.lock().expect("arena lock").stats
    }

    /// Number of rows currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("arena lock").rows.len()
    }

    /// Keys of the rows currently retained, in no particular order.
    pub fn keys(&self) -> Vec<RowKey> {
        self.inner.lock().expect("arena lock").rows.keys().copied().collect()
    }

    /// Whether the arena currently retains no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every retained row (counters other than `bytes` are kept —
    /// they are monotone by contract).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("arena lock");
        inner.rows.clear();
        inner.order.clear();
        inner.stats.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(owner: u64, row: u32) -> RowKey {
        RowKey { owner, kernel: 0, row, tag: 1 }
    }

    #[test]
    fn serves_cached_rows_and_counts() {
        let arena = KernelRowArena::with_budget(1 << 16);
        let a = arena.get_or_compute(key(1, 0), || vec![1.0; 8]);
        let b = arena.get_or_compute(key(1, 0), || panic!("cached"));
        assert_eq!(a, b);
        let stats = arena.stats();
        assert_eq!(
            (stats.requests, stats.hits, stats.misses, stats.fills, stats.evictions),
            (2, 1, 1, 1, 0)
        );
        assert_eq!(stats.bytes, 64);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let arena = KernelRowArena::with_budget(1 << 16);
        let gram = arena.get_or_compute(key(1, 0), || vec![1.0; 4]);
        let other_kernel = arena.get_or_compute(RowKey { kernel: 2, ..key(1, 0) }, || vec![2.0; 4]);
        let other_tag = arena.get_or_compute(RowKey { tag: 2, ..key(1, 0) }, || vec![3.0; 4]);
        assert_eq!(gram[0], 1.0);
        assert_eq!(other_kernel[0], 2.0);
        assert_eq!(other_tag[0], 3.0);
        assert_eq!(arena.len(), 3);
    }

    #[test]
    fn evicts_least_recently_used_to_budget() {
        // Budget for exactly two 4-f64 rows.
        let arena = KernelRowArena::with_budget(64);
        arena.get_or_compute(key(1, 0), || vec![0.0; 4]);
        arena.get_or_compute(key(1, 1), || vec![1.0; 4]);
        // Touch row 0 so row 1 is the LRU victim.
        arena.get_or_compute(key(1, 0), || panic!("cached"));
        arena.get_or_compute(key(1, 2), || vec![2.0; 4]);
        assert_eq!(arena.len(), 2);
        assert!(arena.stats().bytes <= 64);
        assert_eq!(arena.stats().evictions, 1);
        // Row 1 was evicted, row 0 survived.
        arena.get_or_compute(key(1, 0), || panic!("row 0 must have survived"));
        let mut recomputed = false;
        arena.get_or_compute(key(1, 1), || {
            recomputed = true;
            vec![1.0; 4]
        });
        assert!(recomputed);
    }

    #[test]
    fn oversized_row_passes_through_a_tiny_budget() {
        let arena = KernelRowArena::with_budget(8);
        let row = arena.get_or_compute(key(9, 0), || vec![5.0; 100]);
        assert_eq!(row.len(), 100, "holder keeps the row despite eviction");
        let stats = arena.stats();
        assert!(stats.bytes <= stats.budget, "budget holds after the eviction pass");
        assert_eq!(arena.len(), 0);
        assert!(stats.peak_bytes >= 800, "peak records the transient overshoot");
    }

    #[test]
    fn stats_since_subtracts_monotone_counters() {
        let arena = KernelRowArena::with_budget(1 << 16);
        arena.get_or_compute(key(1, 0), || vec![0.0; 4]);
        let snapshot = arena.stats();
        arena.get_or_compute(key(1, 0), || panic!("cached"));
        arena.get_or_compute(key(1, 1), || vec![1.0; 4]);
        let delta = arena.stats().since(&snapshot);
        assert_eq!((delta.requests, delta.hits, delta.misses, delta.fills), (2, 1, 1, 1));
    }

    #[test]
    fn clear_empties_but_keeps_monotone_counters() {
        let arena = KernelRowArena::with_budget(1 << 16);
        arena.get_or_compute(key(1, 0), || vec![0.0; 4]);
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.stats().bytes, 0);
        assert_eq!(arena.stats().fills, 1);
    }

    #[test]
    fn arena_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KernelRowArena>();
    }
}
