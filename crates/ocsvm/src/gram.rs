//! Kernel (Gram) rows shared across the solver runs over one training set.
//!
//! The paper's per-user model optimization (Tab. III) trains the *same*
//! window vectors dozens of times — one solver run per regularization value
//! per kernel. The O(l·d) kernel-row evaluations dominate those runs, and
//! the rows are identical across the whole ladder. A [`GramMatrix`] holds
//! them: the symmetric matrix `K[i][j] = k(xᵢ, xⱼ)` over one training set,
//! read by every solver run of the ladder via
//! [`NuOcSvm::train_with_gram`](crate::NuOcSvm::train_with_gram) and
//! [`Svdd::train_with_gram`](crate::Svdd::train_with_gram) — and by
//! training-set scoring via
//! [`OneClassModel::training_decision_values`](crate::OneClassModel::training_decision_values).
//! A sweep scores its fixed probe set through
//! [`OneClassModel::panel_acceptance`](crate::OneClassModel::panel_acceptance)
//! instead, which prunes most probes with the model's decision bound and
//! keeps no rows.
//!
//! The matrix owns its rows: one slot per row, filled on first access,
//! never shared with another matrix and dropped with the matrix. A plain
//! `train` call solves over a matrix capped at
//! [`SolverOptions::cache_bytes`](crate::SolverOptions::cache_bytes), which
//! drops its least-recently-used row when a fill would exceed the cap (a
//! linear scan of per-row ticks: `l` comparisons against the `l` kernel
//! evaluations of the fill). [`GramMatrix::compute`] is uncapped, so every
//! row is computed at most once for the matrix's lifetime. One thread uses
//! a matrix at a time: it is `Send`, not `Sync`, and its store needs no
//! lock.

use crate::error::TrainError;
use crate::kernel::Kernel;
use crate::sparse::SparseVector;
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Counters of one [`GramMatrix`]'s row store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GramStats {
    /// Row lookups served from the store.
    pub hits: u64,
    /// Rows computed into the store: one per lookup it could not serve.
    pub fills: u64,
    /// Rows dropped to honour the byte cap (0 for an uncapped matrix).
    pub evictions: u64,
    /// Bytes of row data held now.
    pub bytes: usize,
    /// Most bytes of row data held at once.
    pub peak_bytes: usize,
}

impl GramStats {
    /// Share of lookups served from the store, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.fills;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

/// A filled row with the clock tick of its last lookup.
type StoredRow = (Arc<[f64]>, u64);

/// A symmetric kernel matrix `K[i][j] = k(xᵢ, xⱼ)` over a fixed, ordered
/// training set, with each row computed on first access into the matrix's
/// own store.
///
/// Entries are produced by `Kernel::compute` for every pair including the
/// diagonal, and the stored diagonal by `Kernel::compute_self` — the same
/// evaluations whether a row is served from the store or recomputed after
/// an eviction, so every solver run and scoring pass over the matrix sees
/// bit-identical values (see the equivalence tests in the crate).
///
/// # Examples
///
/// ```
/// use ocsvm::{GramMatrix, Kernel, NuOcSvm, SparseVector};
///
/// let data: Vec<SparseVector> =
///     (0..40).map(|i| SparseVector::from_dense(&[1.0, 0.02 * (i % 5) as f64])).collect();
/// let kernel = Kernel::Rbf { gamma: 1.0 };
/// let gram = GramMatrix::compute(kernel, &data);
/// // One kernel matrix, many solver runs:
/// for nu in [0.05, 0.1, 0.2, 0.5] {
///     let model = NuOcSvm::new(nu, kernel).train_with_gram(&data, &gram)?;
///     assert!(model.support_vector_count() > 0);
/// }
/// // Each row was computed once and served from the matrix's store after.
/// let stats = gram.stats();
/// assert!(stats.fills <= data.len() as u64 && stats.hits > 0);
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug)]
pub struct GramMatrix<'a> {
    kernel: Kernel,
    points: &'a [SparseVector],
    diag: Vec<f64>,
    /// Row `i` once filled.
    rows: RefCell<Vec<Option<StoredRow>>>,
    /// Bytes of row data the store may hold.
    cap_bytes: usize,
    clock: Cell<u64>,
    stats: Cell<GramStats>,
}

impl<'a> GramMatrix<'a> {
    /// Prepares the kernel matrix over `points` with an uncapped store:
    /// each row is computed on first access and kept for the matrix's
    /// lifetime. The diagonal (`Kernel::compute_self`) is computed eagerly.
    pub fn compute(kernel: Kernel, points: &'a [SparseVector]) -> Self {
        Self::capped(kernel, points, usize::MAX)
    }

    /// The matrix a plain `train` call solves over: a store of
    /// `cache_bytes`, never below the two rows every SMO iteration reads.
    pub(crate) fn for_solver(
        kernel: Kernel,
        points: &'a [SparseVector],
        cache_bytes: usize,
    ) -> Self {
        let row_bytes = points.len() * std::mem::size_of::<f64>();
        Self::capped(kernel, points, cache_bytes.max(2 * row_bytes))
    }

    fn capped(kernel: Kernel, points: &'a [SparseVector], cap_bytes: usize) -> Self {
        Self {
            kernel,
            points,
            diag: points.iter().map(|x| kernel.compute_self(x)).collect(),
            rows: RefCell::new(vec![None; points.len()]),
            cap_bytes,
            clock: Cell::new(0),
            stats: Cell::new(GramStats::default()),
        }
    }

    /// Number of training points (= rows = columns).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the matrix covers zero points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The kernel the matrix is computed with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Diagonal entry `k(xᵢ, xᵢ)` (via `Kernel::compute_self`).
    pub fn diag_value(&self, i: usize) -> f64 {
        self.diag[i]
    }

    /// Row `K[i][·]`, served from the store or computed into it. A capped
    /// store then drops least-recently-used rows until it fits its cap; a
    /// row already handed out stays valid for its holder.
    pub fn row(&self, i: usize) -> Arc<[f64]> {
        let tick = self.clock.get() + 1;
        self.clock.set(tick);
        let mut stats = self.stats.get();
        let mut rows = self.rows.borrow_mut();
        if let Some((row, last_used)) = &mut rows[i] {
            *last_used = tick;
            stats.hits += 1;
            self.stats.set(stats);
            return Arc::clone(row);
        }
        let xi = &self.points[i];
        let row: Arc<[f64]> = self.points.iter().map(|xj| self.kernel.compute(xi, xj)).collect();
        rows[i] = Some((Arc::clone(&row), tick));
        let row_bytes = std::mem::size_of_val(&row[..]);
        stats.fills += 1;
        stats.bytes += row_bytes;
        while stats.bytes > self.cap_bytes {
            let oldest = rows
                .iter()
                .enumerate()
                .filter_map(|(j, slot)| slot.as_ref().map(|&(_, last_used)| (last_used, j)))
                .min();
            let Some((_, victim)) = oldest else { break };
            rows[victim] = None;
            stats.bytes -= row_bytes;
            stats.evictions += 1;
        }
        stats.peak_bytes = stats.peak_bytes.max(stats.bytes);
        self.stats.set(stats);
        row
    }

    /// The store's counters over the matrix's lifetime.
    pub fn stats(&self) -> GramStats {
        self.stats.get()
    }

    /// Validates that the matrix is usable for training `points` with
    /// `kernel`.
    pub(crate) fn check_compatible(&self, points: usize, kernel: Kernel) -> Result<(), TrainError> {
        if self.len() != points {
            return Err(TrainError::GramSizeMismatch { rows: self.len(), points });
        }
        if self.kernel != kernel {
            return Err(TrainError::GramKernelMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<SparseVector> {
        (0..6).map(|i| SparseVector::from_dense(&[1.0 + 0.1 * i as f64, (i % 3) as f64])).collect()
    }

    /// Bytes of one row of a matrix over `points()`.
    const ROW_BYTES: usize = 6 * std::mem::size_of::<f64>();

    #[test]
    fn matches_direct_kernel_evaluation() {
        let pts = points();
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
            let gram = GramMatrix::compute(kernel, &pts);
            assert_eq!(gram.len(), pts.len());
            for i in 0..pts.len() {
                assert_eq!(gram.diag_value(i), kernel.compute_self(&pts[i]));
                for j in 0..pts.len() {
                    assert_eq!(gram.row(i)[j], kernel.compute(&pts[i], &pts[j]));
                }
            }
        }
    }

    #[test]
    fn rows_are_computed_lazily_and_at_most_once() {
        let pts = points();
        let gram = GramMatrix::compute(Kernel::Linear, &pts);
        assert_eq!(gram.stats(), GramStats::default(), "construction computes no row");
        let first = gram.row(2);
        let stats = gram.stats();
        assert_eq!((stats.fills, stats.hits), (1, 0), "first access fills");
        assert_eq!((stats.bytes, stats.peak_bytes), (ROW_BYTES, ROW_BYTES));
        let again = gram.row(2);
        assert_eq!(Arc::as_ptr(&again), Arc::as_ptr(&first), "repeat access shares the row");
        let stats = gram.stats();
        assert_eq!((stats.fills, stats.hits, stats.evictions), (1, 1, 0), "repeat access hits");
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn capped_store_evicts_the_least_recently_used_row() {
        let pts = points();
        // A cap of exactly two rows (the solver's floor).
        let gram = GramMatrix::for_solver(Kernel::Linear, &pts, 0);
        gram.row(0);
        gram.row(1);
        // Touch row 0 so row 1 is the least recently used.
        gram.row(0);
        let held = gram.row(2);
        let stats = gram.stats();
        assert_eq!((stats.fills, stats.hits, stats.evictions), (3, 1, 1));
        assert_eq!((stats.bytes, stats.peak_bytes), (2 * ROW_BYTES, 2 * ROW_BYTES));
        // Row 0 survived; row 1 was dropped and is recomputed on demand.
        gram.row(0);
        assert_eq!(gram.stats().fills, 3, "row 0 must have survived");
        gram.row(1);
        assert_eq!(gram.stats().fills, 4, "row 1 must have been evicted");
        // The evicted row 2 (least recent after rows 0 and 1) stays valid
        // for its holder.
        assert_eq!(held[..], GramMatrix::compute(Kernel::Linear, &pts).row(2)[..]);
    }

    #[test]
    fn capped_store_rows_match_uncapped_rows_bitwise() {
        let pts = points();
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
            let uncapped = GramMatrix::compute(kernel, &pts);
            let capped = GramMatrix::for_solver(kernel, &pts, 0);
            for _ in 0..2 {
                for i in 0..pts.len() {
                    assert_eq!(capped.diag_value(i), uncapped.diag_value(i));
                    assert_eq!(capped.row(i)[..], uncapped.row(i)[..], "{kernel:?} row {i}");
                }
            }
            assert!(capped.stats().evictions > 0, "{kernel:?}");
            assert_eq!(uncapped.stats().evictions, 0, "{kernel:?}");
        }
    }

    #[test]
    fn compatibility_checks() {
        let pts = points();
        let gram = GramMatrix::compute(Kernel::Linear, &pts);
        assert!(gram.check_compatible(pts.len(), Kernel::Linear).is_ok());
        assert_eq!(
            gram.check_compatible(pts.len() + 1, Kernel::Linear),
            Err(TrainError::GramSizeMismatch { rows: pts.len(), points: pts.len() + 1 })
        );
        assert_eq!(
            gram.check_compatible(pts.len(), Kernel::Rbf { gamma: 1.0 }),
            Err(TrainError::GramKernelMismatch)
        );
    }

    #[test]
    fn gram_matrix_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<GramMatrix<'static>>();
    }
}
