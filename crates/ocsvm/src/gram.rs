//! Kernel (Gram) rows shared across solver runs and scoring.
//!
//! The paper's per-user model optimization (Tab. III) trains the *same*
//! window vectors dozens of times — one solver run per regularization value
//! per kernel. The O(l·d) kernel-row evaluations dominate those runs, and
//! the rows are identical across the whole sweep. A [`GramMatrix`] holds
//! them: the symmetric matrix `K[i][j] = k(xᵢ, xⱼ)` over one training set,
//! read by every solver run of the sweep via
//! [`NuOcSvm::train_with_gram`](crate::NuOcSvm::train_with_gram) and
//! [`Svdd::train_with_gram`](crate::Svdd::train_with_gram) — and by
//! training-set scoring via
//! [`OneClassModel::training_decision_values`](crate::OneClassModel::training_decision_values).
//! A sweep scores its fixed probe set through
//! [`OneClassModel::panel_acceptance`](crate::OneClassModel::panel_acceptance)
//! instead, which prunes most probes with the model's decision bound and
//! keeps no rows.
//!
//! The matrix does not own its rows: it computes them on first access into
//! a [`KernelRowArena`], the crate's one kernel-row cache. `compute` gives
//! a matrix a private, unbounded arena (every row is computed at most once
//! for the matrix's lifetime); `in_arena` shares a byte-budgeted arena
//! across sweeps and users, evicting least-recently-used rows and
//! recomputing them transparently. The matrix is `Send + Sync`, so a whole
//! sweep can share one instance across threads.

use crate::arena::{KernelRowArena, RowKey};
use crate::error::TrainError;
use crate::kernel::{Kernel, KernelKind};
use crate::sparse::SparseVector;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The arena slot of one matrix: every row of the matrix lives in `arena`
/// under `(owner, kernel, row, tag)`.
#[derive(Debug)]
struct RowSlot {
    arena: Arc<KernelRowArena>,
    owner: u64,
    kernel: u8,
    tag: u64,
}

impl RowSlot {
    fn new(arena: &Arc<KernelRowArena>, owner: u64, kernel: Kernel, tag: u64) -> Self {
        Self { arena: Arc::clone(arena), owner, kernel: kind_slot(kernel.kind()), tag }
    }

    /// A slot in a fresh arena of its own; no other matrix shares the
    /// arena, so the key needs no content fingerprint.
    fn private(budget: usize, kernel: Kernel) -> Self {
        Self::new(&KernelRowArena::with_budget(budget), 0, kernel, 0)
    }

    fn get(&self, i: usize, compute: impl FnOnce() -> Vec<f64>) -> Arc<[f64]> {
        let key = RowKey { owner: self.owner, kernel: self.kernel, row: i as u32, tag: self.tag };
        self.arena.get_or_compute(key, compute)
    }
}

/// A symmetric kernel matrix `K[i][j] = k(xᵢ, xⱼ)` over a fixed, ordered
/// training set, with rows computed on first access into a
/// [`KernelRowArena`].
///
/// Entries are produced by `Kernel::compute` for every pair including the
/// diagonal, and the stored diagonal by `Kernel::compute_self` — the same
/// evaluations whichever arena holds the rows, so every solver run and
/// scoring pass over the matrix sees bit-identical values (see the
/// equivalence tests in the crate).
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
/// // Each row was computed once and served from the matrix's arena after.
/// let stats = gram.arena().stats();
/// assert!(stats.fills <= data.len() as u64 && stats.hits > 0);
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
///
/// Sharing a byte-budgeted arena across users bounds the total bytes every
/// concurrent sweep retains:
///
/// ```
/// use ocsvm::{GramMatrix, Kernel, KernelRowArena, NuOcSvm, SparseVector};
///
/// let data: Vec<SparseVector> =
///     (0..40).map(|i| SparseVector::from_dense(&[1.0, 0.02 * (i % 5) as f64])).collect();
/// let arena = KernelRowArena::with_budget(8 << 20);
/// let gram = GramMatrix::in_arena(Kernel::Rbf { gamma: 1.0 }, &data, &arena, 7);
/// for nu in [0.05, 0.1, 0.2] {
///     let model = NuOcSvm::new(nu, Kernel::Rbf { gamma: 1.0 }).train_with_gram(&data, &gram)?;
///     assert!(model.support_vector_count() > 0);
/// }
/// assert!(arena.stats().hits > 0);
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug)]
pub struct GramMatrix<'a> {
    kernel: Kernel,
    points: &'a [SparseVector],
    diag: Vec<f64>,
    rows: RowSlot,
}

impl<'a> GramMatrix<'a> {
    /// Prepares the kernel matrix over `points` in a private, unbounded
    /// arena: each row is computed on first access and kept for the
    /// matrix's lifetime. The diagonal (`Kernel::compute_self`) is computed
    /// eagerly.
    pub fn compute(kernel: Kernel, points: &'a [SparseVector]) -> Self {
        Self::private(kernel, points, usize::MAX)
    }

    /// Prepares the kernel matrix over `points` with its rows cached in the
    /// shared `arena` under the `owner` namespace (conventionally the user
    /// id). The key also carries a [`content_fingerprint`] of the kernel
    /// and points, so a recomputed or raced row always matches and two
    /// matrices never alias.
    pub fn in_arena(
        kernel: Kernel,
        points: &'a [SparseVector],
        arena: &Arc<KernelRowArena>,
        owner: u64,
    ) -> Self {
        let tag = content_fingerprint(kernel, points);
        Self::with_rows(kernel, points, RowSlot::new(arena, owner, kernel, tag))
    }

    /// The matrix a plain `train` call solves over: a private arena of
    /// `cache_bytes`, never below the two rows every SMO iteration reads.
    pub(crate) fn for_solver(
        kernel: Kernel,
        points: &'a [SparseVector],
        cache_bytes: usize,
    ) -> Self {
        let row_bytes = points.len() * std::mem::size_of::<f64>();
        Self::private(kernel, points, cache_bytes.max(2 * row_bytes))
    }

    /// The matrix over a private arena retaining at most `budget` bytes.
    pub(crate) fn private(kernel: Kernel, points: &'a [SparseVector], budget: usize) -> Self {
        Self::with_rows(kernel, points, RowSlot::private(budget, kernel))
    }

    fn with_rows(kernel: Kernel, points: &'a [SparseVector], rows: RowSlot) -> Self {
        let diag = points.iter().map(|x| kernel.compute_self(x)).collect();
        Self { kernel, points, diag, rows }
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

    /// Row `K[i][·]`, served from the arena or computed into it.
    pub fn row(&self, i: usize) -> Arc<[f64]> {
        self.rows.get(i, || {
            let xi = &self.points[i];
            self.points.iter().map(|xj| self.kernel.compute(xi, xj)).collect()
        })
    }

    /// The arena holding the rows.
    pub fn arena(&self) -> &Arc<KernelRowArena> {
        &self.rows.arena
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

/// Stable in-process slot for a kernel family, used in [`RowKey::kernel`].
fn kind_slot(kind: KernelKind) -> u8 {
    match kind {
        KernelKind::Linear => 0,
        KernelKind::Polynomial => 1,
        KernelKind::Rbf => 2,
        KernelKind::Sigmoid => 3,
    }
}

fn hash_kernel<H: Hasher>(kernel: Kernel, state: &mut H) {
    match kernel {
        Kernel::Linear => 0u8.hash(state),
        Kernel::Polynomial { gamma, coef0, degree } => {
            1u8.hash(state);
            gamma.to_bits().hash(state);
            coef0.to_bits().hash(state);
            degree.hash(state);
        }
        Kernel::Rbf { gamma } => {
            2u8.hash(state);
            gamma.to_bits().hash(state);
        }
        Kernel::Sigmoid { gamma, coef0 } => {
            3u8.hash(state);
            gamma.to_bits().hash(state);
            coef0.to_bits().hash(state);
        }
    }
}

fn hash_vector<H: Hasher>(vector: &SparseVector, state: &mut H) {
    for (column, value) in vector.iter() {
        column.hash(state);
        value.to_bits().hash(state);
    }
    u64::MAX.hash(state); // vector separator
}

/// Content fingerprint of (kernel parameters, training set) — the
/// [`RowKey::tag`] of matrices in a shared arena. Any change to a kernel
/// parameter, a vector's coordinates or the point order changes the tag,
/// so arena entries can never be served for the wrong inputs even when two
/// sweeps reuse the same `owner`.
pub fn content_fingerprint(kernel: Kernel, train: &[SparseVector]) -> u64 {
    let mut state = std::collections::hash_map::DefaultHasher::new();
    hash_kernel(kernel, &mut state);
    train.len().hash(&mut state);
    for x in train {
        hash_vector(x, &mut state);
    }
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points() -> Vec<SparseVector> {
        (0..6).map(|i| SparseVector::from_dense(&[1.0 + 0.1 * i as f64, (i % 3) as f64])).collect()
    }

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
        // Counted on the matrix's own private arena, which no other test
        // can touch.
        let pts = points();
        let gram = GramMatrix::compute(Kernel::Linear, &pts);
        assert_eq!(gram.arena().stats().fills, 0, "construction computes no row");
        let first = gram.row(2);
        let stats = gram.arena().stats();
        assert_eq!((stats.fills, stats.misses, stats.hits), (1, 1, 0), "first access fills");
        let again = gram.row(2);
        assert_eq!(Arc::as_ptr(&again), Arc::as_ptr(&first), "repeat access shares the row");
        let stats = gram.arena().stats();
        assert_eq!((stats.fills, stats.misses, stats.hits), (1, 1, 1), "repeat access hits");
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
    fn gram_matrix_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GramMatrix<'static>>();
    }

    #[test]
    fn shared_arena_rows_match_private_rows_bitwise() {
        let pts = points();
        let arena = KernelRowArena::with_budget(1 << 20);
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.7 }] {
            let private = GramMatrix::compute(kernel, &pts);
            let shared = GramMatrix::in_arena(kernel, &pts, &arena, 1);
            assert_eq!(shared.len(), private.len());
            for i in 0..pts.len() {
                assert_eq!(shared.diag_value(i), private.diag_value(i));
                assert_eq!(shared.row(i)[..], private.row(i)[..], "{kernel:?} row {i}");
            }
        }
        assert!(arena.stats().fills > 0);
    }

    #[test]
    fn shared_arena_repeat_access_hits_the_arena() {
        let pts = points();
        let arena = KernelRowArena::with_budget(1 << 20);
        let gram = GramMatrix::in_arena(Kernel::Rbf { gamma: 1.1 }, &pts, &arena, 3);
        let first = gram.row(2);
        let hits_before = arena.stats().hits;
        let second = gram.row(2);
        assert_eq!(Arc::as_ptr(&first), Arc::as_ptr(&second), "same shared allocation");
        assert_eq!(arena.stats().hits, hits_before + 1);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let pts = points();
        let base = content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts);
        assert_eq!(content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts), base);
        assert_ne!(content_fingerprint(Kernel::Rbf { gamma: 2.0 }, &pts), base);
        assert_ne!(content_fingerprint(Kernel::Linear, &pts), base);
        assert_ne!(content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &pts[..5]), base);
        let mut reordered = pts.clone();
        reordered.swap(0, 1);
        assert_ne!(
            content_fingerprint(Kernel::Rbf { gamma: 1.0 }, &reordered),
            base,
            "point order participates in the fingerprint"
        );
    }
}
