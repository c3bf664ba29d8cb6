//! Shared trained-model machinery.

use crate::kernel::Kernel;
use crate::sparse::SparseVector;

/// A trained one-class decision function.
///
/// Both [`OcSvmModel`](crate::OcSvmModel) and [`SvddModel`](crate::SvddModel)
/// implement this trait, so profiling code can treat the two classifier
/// families interchangeably (the paper compares them throughout Sect. V).
///
/// # Examples
///
/// ```
/// use ocsvm::{Kernel, NuOcSvm, OneClassModel, SparseVector};
///
/// let train: Vec<SparseVector> =
///     (0..20).map(|i| SparseVector::from_dense(&[1.0, (i % 3) as f64 * 0.01])).collect();
/// let model = NuOcSvm::new(0.1, Kernel::Linear).train(&train)?;
/// assert!(model.accepts(&SparseVector::from_dense(&[1.0, 0.01])));
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
pub trait OneClassModel {
    /// Signed decision value; `>= 0` means the sample is accepted as
    /// belonging to the modeled class.
    fn decision_value(&self, x: &SparseVector) -> f64;

    /// Whether the sample is accepted (decision value `>= 0`), matching the
    /// `sgn` convention of the paper's Eq. (4)/(12).
    fn accepts(&self, x: &SparseVector) -> bool {
        self.decision_value(x) >= 0.0
    }

    /// Number of support vectors retained by the model.
    fn support_vector_count(&self) -> usize;

    /// The kernel the model was trained with.
    fn kernel(&self) -> Kernel;
}

/// Support vectors with their multipliers; evaluates
/// `Σᵢ αᵢ·k(xᵢ, x)`.
///
/// For the linear kernel the sum collapses into a single weight vector
/// `w = Σᵢ αᵢxᵢ` at construction, turning each decision into one sparse
/// dot product regardless of the support-vector count (the same fast path
/// LIBSVM applies to linear models).
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct SupportVectorSet {
    pub(crate) vectors: Vec<SparseVector>,
    pub(crate) alpha: Vec<f64>,
    pub(crate) kernel: Kernel,
    /// `Σᵢ αᵢxᵢ`, present iff the kernel is linear.
    collapsed: Option<SparseVector>,
    /// Training-set indices of the support vectors, present iff the model
    /// was trained in-process (a deserialized model no longer knows its
    /// training set). Lets scoring read precomputed kernel rows instead of
    /// re-evaluating `k(svᵢ, ·)`.
    indices: Option<Vec<usize>>,
}

impl SupportVectorSet {
    /// Keeps only the points with `α > 0` from a full solution.
    pub(crate) fn from_solution(points: &[SparseVector], alpha: &[f64], kernel: Kernel) -> Self {
        let mut vectors = Vec::new();
        let mut kept = Vec::new();
        let mut indices = Vec::new();
        for (i, (x, &a)) in points.iter().zip(alpha).enumerate() {
            if a > 0.0 {
                vectors.push(x.clone());
                kept.push(a);
                indices.push(i);
            }
        }
        let mut set = Self::from_parts(vectors, kept, kernel);
        set.indices = Some(indices);
        set
    }

    /// Rebuilds a set from already-pruned support vectors (model
    /// deserialization), recomputing the linear fast path.
    pub(crate) fn from_parts(vectors: Vec<SparseVector>, alpha: Vec<f64>, kernel: Kernel) -> Self {
        let collapsed = match kernel {
            Kernel::Linear => {
                let mut builder = crate::sparse::SparseVectorBuilder::new();
                for (sv, &a) in vectors.iter().zip(&alpha) {
                    for (column, value) in sv.iter() {
                        builder.add(column, a * value);
                    }
                }
                Some(builder.build_summed())
            }
            _ => None,
        };
        Self { vectors, alpha, kernel, collapsed, indices: None }
    }

    /// Training-set indices of the support vectors, when known.
    pub(crate) fn indices(&self) -> Option<&[usize]> {
        self.indices.as_deref()
    }

    /// Reattaches training-set indices to a deserialized set (persist
    /// format v2 stores them so restored models keep shared-row scoring).
    pub(crate) fn restore_indices(&mut self, indices: Vec<usize>) {
        debug_assert_eq!(indices.len(), self.vectors.len());
        self.indices = Some(indices);
    }

    /// `Σᵢ αᵢ·rowsᵢ[j]` for every probe column `j`, over precomputed kernel
    /// rows (one per support vector, in support-vector order). The inner sum
    /// runs in the same order as [`Self::weighted_kernel_sum`], so for
    /// non-linear kernels the results are bit-identical to on-the-fly
    /// evaluation (the linear kernel's collapsed fast path only agrees up to
    /// floating-point association).
    pub(crate) fn weighted_row_sums<R: AsRef<[f64]>>(&self, rows: &[R], width: usize) -> Vec<f64> {
        (0..width)
            .map(|j| rows.iter().zip(&self.alpha).map(|(row, &a)| a * row.as_ref()[j]).sum())
            .collect()
    }

    pub(crate) fn weighted_kernel_sum(&self, x: &SparseVector) -> f64 {
        if let Some(w) = &self.collapsed {
            return w.dot(x);
        }
        self.vectors.iter().zip(&self.alpha).map(|(sv, &a)| a * self.kernel.compute(sv, x)).sum()
    }

    /// `Σᵢ αᵢ·k(svᵢ, pⱼ)` for every probe `pⱼ`, amortizing kernel work over
    /// the whole batch.
    ///
    /// Non-linear kernels pack the batch once into a
    /// [`ProbePanel`](crate::ProbePanel), the one panel of this probe set:
    /// it borrows the batch, so every support vector's row reads nothing
    /// else. The sums then add `αᵢ·k(svᵢ, ·)` one support vector at a
    /// time, reusing one row buffer and one squared-distance scratch — no
    /// per-row allocation, no row cache (each batch is a fresh probe set,
    /// so no row would ever be reused). The sums start at the identity
    /// `Iterator::sum` folds from and add the same terms in the same
    /// (support-vector) order as [`Self::weighted_kernel_sum`], so every
    /// value is bit-identical to it. The linear kernel goes through a
    /// dense [`LinearBatchScorer`] built from the collapsed weight vector,
    /// which adds exactly the same products in the same (column-ascending)
    /// order as the sparse merge dot and is therefore also bit-identical.
    ///
    /// Unlike the training-set row paths this needs no training indices, so
    /// it works for deserialized models too.
    pub(crate) fn batch_weighted_kernel_sums(&self, probes: &[&SparseVector]) -> Vec<f64> {
        if let Some(w) = &self.collapsed {
            return LinearBatchScorer::from_collapsed(w).weighted_sums(probes);
        }
        let panel = crate::panel::ProbePanel::pack(probes);
        let identity: f64 = std::iter::empty::<f64>().sum();
        let mut sums = vec![identity; probes.len()];
        let mut row = vec![0.0; probes.len()];
        let mut scratch = Vec::new();
        for (sv, &a) in self.vectors.iter().zip(&self.alpha) {
            crate::panel::kernel_cross_row_into(self.kernel, sv, &panel, &mut scratch, &mut row);
            for (s, &k) in sums.iter_mut().zip(&row) {
                *s += a * k;
            }
        }
        sums
    }

    pub(crate) fn len(&self) -> usize {
        self.vectors.len()
    }

    /// The collapsed linear weight vector `w = Σᵢ αᵢxᵢ`, present iff the
    /// kernel is linear.
    pub(crate) fn collapsed(&self) -> Option<&SparseVector> {
        self.collapsed.as_ref()
    }

    /// Sorted union of the columns touched by any support vector (for a
    /// linear kernel, the columns of the collapsed weight vector — zero
    /// sums cancel out of the decision function and are excluded).
    pub(crate) fn column_union(&self) -> Vec<u32> {
        if let Some(w) = &self.collapsed {
            return w.iter().map(|(column, _)| column).collect();
        }
        let mut columns: Vec<u32> =
            self.vectors.iter().flat_map(|sv| sv.iter().map(|(column, _)| column)).collect();
        columns.sort_unstable();
        columns.dedup();
        columns
    }
}

/// The affine part of a linear-kernel model's decision function, exported
/// for candidate prefiltering (see `webprofiler`'s two-stage
/// identification): `decision(x) = weights·x + bias − ‖x‖²·[subtracts
/// probe norm]`.
///
/// For a linear ν-OC-SVM the decision `w·x − ρ` is affine in `x` directly
/// (`weights = w`, `bias = −ρ`). For a linear SVDD the decision
/// `R² − ‖x − a‖²` expands to `(2a)·x + (R² − ‖a‖²) − ‖x‖²`: the quadratic
/// term depends only on the probe, so within one window it is a constant
/// offset shared by every user — ranking users by the affine score ranks
/// them by their exact decision values, and `score ≥ ‖x‖²` is exactly
/// acceptance.
///
/// The affine evaluation associates its floating-point sums differently
/// from the models' own decision paths, so treat these terms as a ranking
/// surrogate, not a bit-identical replacement: a two-stage pipeline must
/// rerank its shortlist through the exact scorer.
#[derive(Debug, Clone)]
pub struct LinearDecisionTerms {
    /// Per-column weights of the affine score.
    pub weights: SparseVector,
    /// Constant term of the affine score.
    pub bias: f64,
    /// Whether the exact decision subtracts the probe's squared norm from
    /// the affine score (SVDD geometry; `false` for OC-SVM).
    pub subtracts_probe_norm: bool,
}

impl LinearDecisionTerms {
    /// Evaluates the decision function from the exported terms (up to
    /// floating-point association with the model's own
    /// `decision_value`).
    pub fn decision_value(&self, x: &SparseVector) -> f64 {
        let affine = self.weights.dot(x) + self.bias;
        if self.subtracts_probe_norm {
            affine - x.squared_norm()
        } else {
            affine
        }
    }

    /// The user-comparable affine score `weights·x + bias` — what a
    /// candidate prefilter ranks on.
    pub fn affine_score(&self, x: &SparseVector) -> f64 {
        self.weights.dot(x) + self.bias
    }
}

/// Dense weight vector of a linear model, scoring a whole probe batch as
/// one dense GEMV (`sums[j] = Σ_c w[c]·pⱼ[c]`).
///
/// Built from the collapsed `w = Σᵢ αᵢxᵢ` a linear `SupportVectorSet`
/// maintains. Stored-zero columns never occur in `w` (the sparse builder
/// prunes them), and both evaluation paths skip columns where either side
/// is zero-or-absent, so each probe's sum adds exactly the products the
/// sparse merge dot adds, in the same column order — results are
/// bit-identical to `w.dot(p)` per probe.
///
/// Two bit-identical evaluation paths exist: the per-probe sparse walk
/// ([`weighted_sum`](Self::weighted_sum)) and the cache-blocked
/// unit-stride panel GEMV ([`weighted_sums_panel`](Self::weighted_sums_panel),
/// see [`crate::panel`]). [`weighted_sums`](Self::weighted_sums) picks
/// between them by the batch's density: the panel walk reads every
/// non-zero *weight* column per probe, so it pays when the probes carry
/// comparable density, while ultra-sparse probes against a dense `w` are
/// cheaper through the sparse walk.
#[derive(Debug, Clone)]
pub struct LinearBatchScorer {
    weights: Vec<f64>,
    /// Non-zero columns in `weights` (= `w.nnz()`), for the path choice.
    nnz: usize,
}

/// Minimum probes per batch before [`LinearBatchScorer::weighted_sums`]
/// considers packing a panel (the pack has a fixed per-batch cost).
const GEMV_PANEL_MIN_PROBES: usize = 16;

/// How many times more scalar work the unit-stride panel GEMV may do and
/// still be preferred over the per-probe sparse walk.
const GEMV_DENSE_FACTOR: usize = 4;

impl LinearBatchScorer {
    pub(crate) fn from_collapsed(w: &SparseVector) -> Self {
        let mut weights = vec![0.0; w.dimension_lower_bound()];
        for (column, value) in w.iter() {
            weights[column as usize] = value;
        }
        Self { weights, nnz: w.nnz() }
    }

    /// The dense weight vector (trailing all-zero columns are truncated).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// `Σ_c w[c]·p[c]` for every probe; picks the sparse walk or the panel
    /// GEMV by batch density (both are bit-identical, so the choice never
    /// shows in the output).
    pub fn weighted_sums(&self, probes: &[&SparseVector]) -> Vec<f64> {
        if probes.len() >= GEMV_PANEL_MIN_PROBES {
            let total_nnz: usize = probes.iter().map(|p| p.nnz()).sum();
            let mean_nnz = total_nnz / probes.len();
            if mean_nnz * GEMV_DENSE_FACTOR >= self.nnz {
                return self.weighted_sums_panel(&crate::panel::ProbePanel::pack(probes));
            }
        }
        probes.iter().map(|p| self.weighted_sum(p)).collect()
    }

    /// The panel GEMV: `Σ_c w[c]·pⱼ[c]` over an already-packed probe
    /// panel, bit-identical to [`weighted_sum`](Self::weighted_sum) per
    /// probe (see [`crate::ProbePanel::gemv_into`]).
    pub fn weighted_sums_panel(&self, panel: &crate::panel::ProbePanel) -> Vec<f64> {
        let mut out = vec![0.0; panel.probe_count()];
        panel.gemv_into(&self.weights, &mut out);
        out
    }

    /// `Σ_c w[c]·p[c]` for one probe.
    pub fn weighted_sum(&self, probe: &SparseVector) -> f64 {
        let mut sum = 0.0;
        for (column, value) in probe.iter() {
            if let Some(&w) = self.weights.get(column as usize) {
                if w != 0.0 {
                    sum += w * value;
                }
            }
        }
        sum
    }
}

/// Diagnostics recorded while training a model.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TrainDiagnostics {
    /// SMO iterations performed.
    pub iterations: usize,
    /// Whether the KKT stopping condition was reached (a model is still
    /// produced when `false`; it is the best iterate found).
    pub converged: bool,
    /// Final dual objective value.
    pub objective: f64,
    /// Training-set size.
    pub train_size: usize,
    /// Support vectors retained.
    pub support_vectors: usize,
    /// Kernel-row cache hits during training.
    pub cache_hits: u64,
    /// Kernel-row cache misses during training.
    pub cache_misses: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_vector_set_prunes_zero_alpha() {
        let points = vec![
            SparseVector::from_dense(&[1.0]),
            SparseVector::from_dense(&[2.0]),
            SparseVector::from_dense(&[3.0]),
        ];
        let set = SupportVectorSet::from_solution(&points, &[0.5, 0.0, 0.5], Kernel::Linear);
        assert!(set.collapsed.is_some(), "linear kernel collapses to a weight vector");
        assert_eq!(set.len(), 2);
        assert_eq!(set.alpha, vec![0.5, 0.5]);
        // Σ α·(x·y) with y = [1]: 0.5·1 + 0.5·3 = 2.0
        let y = SparseVector::from_dense(&[1.0]);
        assert!((set.weighted_kernel_sum(&y) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn collapsed_linear_matches_explicit_sum() {
        let points = vec![
            SparseVector::from_dense(&[1.0, 0.0, 2.0]),
            SparseVector::from_dense(&[0.0, 3.0, -1.0]),
            SparseVector::from_dense(&[0.5, 0.5, 0.5]),
        ];
        let alpha = [0.2, 0.3, 0.5];
        let set = SupportVectorSet::from_solution(&points, &alpha, Kernel::Linear);
        let probe = SparseVector::from_dense(&[0.7, -1.2, 3.0]);
        let explicit: f64 = points.iter().zip(&alpha).map(|(sv, &a)| a * sv.dot(&probe)).sum();
        assert!((set.weighted_kernel_sum(&probe) - explicit).abs() < 1e-12);
    }

    #[test]
    fn nonlinear_kernels_do_not_collapse() {
        let points = vec![SparseVector::from_dense(&[1.0])];
        let set = SupportVectorSet::from_solution(&points, &[1.0], Kernel::Rbf { gamma: 1.0 });
        assert!(set.collapsed.is_none());
        let probe = SparseVector::from_dense(&[0.0]);
        assert!((set.weighted_kernel_sum(&probe) - (-1.0f64).exp()).abs() < 1e-12);
    }

    fn probe_batch() -> Vec<SparseVector> {
        vec![
            SparseVector::from_dense(&[0.7, -1.2, 3.0]),
            SparseVector::from_dense(&[0.0, 0.0, 0.0]),
            SparseVector::from_dense(&[1.0, 0.0, 2.0]),
            SparseVector::from_pairs(vec![(1, 0.4), (7, 9.0)]).unwrap(),
        ]
    }

    #[test]
    fn batch_sums_match_per_point_bitwise_for_every_kernel() {
        let points = vec![
            SparseVector::from_dense(&[1.0, 0.0, 2.0]),
            SparseVector::from_dense(&[0.0, 3.0, -1.0]),
            SparseVector::from_dense(&[0.5, 0.5, 0.5]),
        ];
        let probes = probe_batch();
        let refs: Vec<&SparseVector> = probes.iter().collect();
        for kernel in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.7 },
            Kernel::Polynomial { gamma: 0.3, coef0: 1.0, degree: 3 },
            Kernel::Sigmoid { gamma: 0.1, coef0: -0.2 },
        ] {
            // An empty set pins the sums' starting value: it must be the
            // one `Iterator::sum` folds from (`-0.0`), bit for bit.
            for set in [
                SupportVectorSet::from_solution(&points, &[0.2, 0.3, 0.5], kernel),
                SupportVectorSet::from_parts(Vec::new(), Vec::new(), kernel),
            ] {
                let batch = set.batch_weighted_kernel_sums(&refs);
                for (probe, &sum) in refs.iter().zip(&batch) {
                    let single = set.weighted_kernel_sum(probe);
                    assert_eq!(sum.to_bits(), single.to_bits(), "{kernel:?}");
                }
            }
        }
    }

    #[test]
    fn linear_batch_scorer_matches_sparse_dot_bitwise() {
        let w = SparseVector::from_pairs(vec![(0, 0.25), (2, -1.5), (9, 3.0)]).unwrap();
        let scorer = LinearBatchScorer::from_collapsed(&w);
        assert_eq!(scorer.weights().len(), 10);
        for probe in probe_batch() {
            assert_eq!(scorer.weighted_sum(&probe), w.dot(&probe));
        }
        // Probes reaching past the dense width contribute nothing, like the
        // sparse merge.
        let far = SparseVector::from_pairs(vec![(2, 2.0), (100, 5.0)]).unwrap();
        assert_eq!(scorer.weighted_sum(&far), w.dot(&far));
    }
}
