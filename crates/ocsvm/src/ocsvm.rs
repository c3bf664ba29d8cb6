//! ν-One-Class Support Vector Machines (Sect. II-A of the paper).
//!
//! Solves the dual problem of Eq. (5):
//!
//! ```text
//! minimize    ½ Σᵢⱼ αᵢαⱼ k(xᵢ, xⱼ)
//! subject to  0 ≤ αᵢ ≤ 1/(νl),  Σᵢ αᵢ = 1
//! ```
//!
//! with decision function (Eq. 6) `f(x) = sgn(Σᵢ αᵢ k(xᵢ, x) − ρ)`.
//! `ν` is simultaneously an upper bound on the fraction of training
//! outliers and a lower bound on the fraction of support vectors
//! (Schölkopf et al. 2001).

use crate::error::TrainError;
use crate::gram::{CrossGram, GramMatrix};
use crate::kernel::Kernel;
use crate::model::{OneClassModel, SupportVectorSet, TrainDiagnostics};
use crate::smo::{PrecomputedQ, SolverOptions};
use crate::solver::{self, SolverBackend};
use crate::sparse::SparseVector;

/// Trainer configuration for a ν-OC-SVM.
///
/// # Examples
///
/// ```
/// use ocsvm::{Kernel, NuOcSvm, OneClassModel, SparseVector};
///
/// let data: Vec<SparseVector> =
///     (0..50).map(|i| SparseVector::from_dense(&[1.0, 0.05 * (i % 4) as f64])).collect();
/// let model = NuOcSvm::new(0.1, Kernel::Rbf { gamma: 1.0 }).train(&data)?;
/// // Training points are overwhelmingly accepted...
/// let accepted = data.iter().filter(|x| model.accepts(x)).count();
/// assert!(accepted as f64 >= 0.8 * data.len() as f64);
/// // ...while a far-away point is rejected.
/// assert!(!model.accepts(&SparseVector::from_dense(&[-5.0, 9.0])));
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NuOcSvm {
    nu: f64,
    kernel: Kernel,
    options: SolverOptions,
}

impl NuOcSvm {
    /// Creates a trainer with the given outlier-fraction bound `ν ∈ (0, 1]`
    /// and kernel.
    ///
    /// `ν` is validated at [`train`](Self::train) time so the constructor
    /// stays infallible for builder-style use.
    pub fn new(nu: f64, kernel: Kernel) -> Self {
        Self { nu, kernel, options: SolverOptions::default() }
    }

    /// Overrides the solver options (tolerance, iteration cap, cache size).
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured `ν`.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// The configured kernel.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Trains a model on the given samples.
    ///
    /// # Errors
    ///
    /// * [`TrainError::EmptyTrainingSet`] if `points` is empty.
    /// * [`TrainError::InvalidNu`] if `ν ∉ (0, 1]` or is not finite.
    pub fn train(&self, points: &[SparseVector]) -> Result<OcSvmModel, TrainError> {
        self.validate(points)?;
        let gram = GramMatrix::for_solver(self.kernel, points, self.options.cache_bytes);
        Ok(self.train_on(points, &mut PrecomputedQ::unpinned(&gram, 1.0), None).0)
    }

    /// Trains on `points` reusing a precomputed [`GramMatrix`] over exactly
    /// those points (same kernel, same order).
    ///
    /// Numerically identical to [`train`](Self::train) — the solver
    /// consumes the same `Q` entries — but skips the O(l²·d) kernel
    /// evaluations, which dominate when one training set is swept over many
    /// `ν` values (per-user grid search). The Gram matrix is read-only and
    /// `Sync`, so concurrent sweeps can share one instance.
    ///
    /// # Errors
    ///
    /// In addition to [`train`](Self::train)'s errors:
    ///
    /// * [`TrainError::GramSizeMismatch`] if `gram` covers a different
    ///   number of points.
    /// * [`TrainError::GramKernelMismatch`] if `gram` was computed with a
    ///   different kernel.
    pub fn train_with_gram(
        &self,
        points: &[SparseVector],
        gram: &GramMatrix,
    ) -> Result<OcSvmModel, TrainError> {
        Ok(self.train_with_gram_seeded(points, gram, None)?.0)
    }

    /// Like [`train_with_gram`](Self::train_with_gram), but optionally
    /// warm-starts the solver from the full multiplier vector of an
    /// adjacent sweep cell's solution (projected onto this problem's
    /// feasible box) and returns this solution's full multiplier vector for
    /// chaining into the next cell.
    ///
    /// The problem is convex, so a seeded solve reaches the same optimum as
    /// a cold start (within the solver tolerance) — usually in far fewer
    /// iterations when `seed` comes from a neighbouring `ν`.
    ///
    /// # Errors
    ///
    /// Same as [`train_with_gram`](Self::train_with_gram).
    pub fn train_with_gram_seeded(
        &self,
        points: &[SparseVector],
        gram: &GramMatrix,
        seed: Option<&[f64]>,
    ) -> Result<(OcSvmModel, Vec<f64>), TrainError> {
        self.validate(points)?;
        gram.check_compatible(points.len(), self.kernel)?;
        Ok(self.train_on(points, &mut PrecomputedQ::pinned(gram, 1.0), seed))
    }

    fn validate(&self, points: &[SparseVector]) -> Result<(), TrainError> {
        if points.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        if !self.nu.is_finite() || self.nu <= 0.0 || self.nu > 1.0 {
            return Err(TrainError::InvalidNu { nu: self.nu });
        }
        Ok(())
    }

    fn train_on(
        &self,
        points: &[SparseVector],
        q: &mut PrecomputedQ,
        seed: Option<&[f64]>,
    ) -> (OcSvmModel, Vec<f64>) {
        let l = points.len();
        let upper = 1.0 / (self.nu * l as f64);
        let p = vec![0.0; l];
        let kind = solver::ProblemKind::OcSvm { nu: self.nu };
        let outcome = solver::run(q, &p, upper, kind, seed, &self.options);
        let solution = outcome.solution;

        let rho = outcome
            .threshold_override
            .unwrap_or_else(|| recover_rho(&solution.alpha, &solution.gradient, upper));
        let (cache_hits, cache_misses) = q.cache_stats();
        let support = SupportVectorSet::from_solution(points, &solution.alpha, self.kernel);
        let diagnostics = TrainDiagnostics {
            iterations: solution.iterations,
            converged: solution.converged,
            objective: solution.objective,
            train_size: l,
            support_vectors: support.len(),
            cache_hits,
            cache_misses,
        };
        let backend = self.options.backend;
        (OcSvmModel { support, rho, nu: self.nu, diagnostics, backend }, solution.alpha)
    }
}

/// Recovers the margin offset `ρ` from the KKT conditions: free support
/// vectors (`0 < α < U`) satisfy `(Qα)ᵢ = ρ`; when none are free, `ρ` lies
/// between the gradients of the bounded groups and the midpoint is used
/// (LIBSVM does the same).
pub(crate) fn recover_rho(alpha: &[f64], gradient: &[f64], upper: f64) -> f64 {
    let lo_tol = 1e-9;
    let hi_tol = upper * (1.0 - 1e-9);
    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    // ρ bounds from the bounded points: α = U ⇒ G ≤ ρ, α = 0 ⇒ G ≥ ρ.
    let mut lower = f64::NEG_INFINITY;
    let mut upper_bound = f64::INFINITY;
    for (&a, &g) in alpha.iter().zip(gradient) {
        if a > lo_tol && a < hi_tol {
            free_sum += g;
            free_count += 1;
        } else if a >= hi_tol {
            lower = lower.max(g);
        } else {
            upper_bound = upper_bound.min(g);
        }
    }
    if free_count > 0 {
        return free_sum / free_count as f64;
    }
    match (lower.is_finite(), upper_bound.is_finite()) {
        (true, true) => 0.5 * (lower + upper_bound),
        (true, false) => lower,
        (false, true) => upper_bound,
        (false, false) => 0.0,
    }
}

/// A trained ν-OC-SVM model.
///
/// Produced by [`NuOcSvm::train`]; see [`OneClassModel`] for the decision
/// interface.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OcSvmModel {
    support: SupportVectorSet,
    rho: f64,
    nu: f64,
    diagnostics: TrainDiagnostics,
    #[cfg_attr(feature = "serde", serde(default))]
    backend: SolverBackend,
}

impl OcSvmModel {
    /// The margin offset `ρ` of Eq. (6).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// The `ν` the model was trained with.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// The affine decision terms of a linear-kernel model
    /// (`weights = Σᵢ αᵢxᵢ`, `bias = −ρ`), or `None` for non-linear
    /// kernels. See [`LinearDecisionTerms`](crate::LinearDecisionTerms)
    /// for the exact/affine relationship.
    pub fn linear_decision_terms(&self) -> Option<crate::LinearDecisionTerms> {
        self.support.collapsed().map(|w| crate::LinearDecisionTerms {
            weights: w.clone(),
            bias: -self.rho,
            subtracts_probe_norm: false,
        })
    }

    /// Sorted union of the feature columns the decision function reads
    /// (support-vector columns; for the linear kernel, the collapsed
    /// weight vector's columns).
    pub fn support_column_union(&self) -> Vec<u32> {
        self.support.column_union()
    }

    /// Training diagnostics (iterations, convergence, cache behaviour).
    pub fn diagnostics(&self) -> TrainDiagnostics {
        self.diagnostics
    }

    /// Which training backend produced this model.
    pub fn solver_backend(&self) -> SolverBackend {
        self.backend
    }

    /// Serializes the model in the crate's binary format.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        crate::persist::write_ocsvm(writer, self)
    }

    /// Deserializes a model written by [`OcSvmModel::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` for wrong magic/version/kind or a corrupt stream;
    /// other I/O errors from the reader.
    pub fn read_from<R: std::io::Read>(reader: &mut R) -> std::io::Result<OcSvmModel> {
        crate::persist::read_ocsvm(reader)
    }

    /// Decision values over the *training set*, read from the shared
    /// [`GramMatrix`] the model was (or could have been) trained with —
    /// no kernel evaluations are performed beyond the matrix's lazily
    /// materialized rows.
    ///
    /// For non-linear kernels the values are bit-identical to calling
    /// [`decision_value`](OneClassModel::decision_value) on each training
    /// point; for the linear kernel they agree up to floating-point
    /// association (the on-the-fly path uses a collapsed weight vector).
    ///
    /// Returns `None` when the model was deserialized (its training indices
    /// are unknown) or `gram` does not match the model's kernel and
    /// training-set size.
    pub fn training_decision_values(&self, gram: &GramMatrix) -> Option<Vec<f64>> {
        let indices = self.support.indices()?;
        if gram.kernel() != self.support.kernel || gram.len() != self.diagnostics.train_size {
            return None;
        }
        let rows: Vec<_> = indices.iter().map(|&i| gram.row(i)).collect();
        let sums = self.support.weighted_row_sums(&rows, gram.len());
        Some(sums.into_iter().map(|s| s - self.rho).collect())
    }

    /// Decision values over a fixed probe set, read from a shared
    /// [`CrossGram`] between the model's training set and the probes.
    ///
    /// Same exactness and availability rules as
    /// [`training_decision_values`](Self::training_decision_values).
    pub fn cross_decision_values(&self, cross: &CrossGram) -> Option<Vec<f64>> {
        let indices = self.support.indices()?;
        if cross.kernel() != self.support.kernel || cross.train_len() != self.diagnostics.train_size
        {
            return None;
        }
        let rows: Vec<_> = indices.iter().map(|&i| cross.row(i)).collect();
        let sums = self.support.weighted_row_sums(&rows, cross.probe_count());
        Some(sums.into_iter().map(|s| s - self.rho).collect())
    }

    /// The full training multiplier vector `α` (zeros for non-support
    /// points), reconstructed from the support vectors' training indices —
    /// the warm-start seed for an adjacent regularization value.
    ///
    /// `None` for deserialized models trained by a pre-v2 binary (their
    /// training indices are unknown).
    pub fn training_alpha(&self) -> Option<Vec<f64>> {
        let indices = self.support.indices()?;
        let mut alpha = vec![0.0; self.diagnostics.train_size];
        for (&i, &a) in indices.iter().zip(&self.support.alpha) {
            alpha[i] = a;
        }
        Some(alpha)
    }

    /// Decision values for a whole probe micro-batch, amortizing kernel
    /// work over the batch: non-linear kernels compute one kernel row per
    /// support vector against the probes packed once into a
    /// [`ProbePanel`](crate::ProbePanel), the linear kernel collapses into
    /// one dense-weight GEMV ([`crate::LinearBatchScorer`]).
    ///
    /// Every value is bit-identical to calling
    /// [`decision_value`](OneClassModel::decision_value) on the same probe.
    /// Unlike [`cross_decision_values`](Self::cross_decision_values) this
    /// needs no training-set indices, so it also works for deserialized
    /// models.
    pub fn batch_decision_values(&self, probes: &[&SparseVector]) -> Vec<f64> {
        self.support.batch_weighted_kernel_sums(probes).into_iter().map(|s| s - self.rho).collect()
    }

    pub(crate) fn support(&self) -> &SupportVectorSet {
        &self.support
    }

    pub(crate) fn from_parts(
        support: SupportVectorSet,
        rho: f64,
        nu: f64,
        diagnostics: TrainDiagnostics,
        backend: SolverBackend,
    ) -> Self {
        Self { support, rho, nu, diagnostics, backend }
    }
}

impl OneClassModel for OcSvmModel {
    fn decision_value(&self, x: &SparseVector) -> f64 {
        self.support.weighted_kernel_sum(x) - self.rho
    }

    fn support_vector_count(&self) -> usize {
        self.support.len()
    }

    fn kernel(&self) -> Kernel {
        self.support.kernel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(center: &[f64], spread: f64, n: usize) -> Vec<SparseVector> {
        (0..n)
            .map(|i| {
                let mut point = center.to_vec();
                // Deterministic jitter.
                for (d, value) in point.iter_mut().enumerate() {
                    let phase = (i * 31 + d * 17) % 7;
                    *value += spread * (phase as f64 - 3.0) / 3.0;
                }
                SparseVector::from_dense(&point)
            })
            .collect()
    }

    #[test]
    fn rejects_empty_training_set() {
        let err = NuOcSvm::new(0.5, Kernel::Linear).train(&[]).unwrap_err();
        assert_eq!(err, TrainError::EmptyTrainingSet);
    }

    #[test]
    fn rejects_bad_nu() {
        let data = cluster(&[1.0, 1.0], 0.1, 10);
        for nu in [0.0, -0.5, 1.5, f64::NAN] {
            let err = NuOcSvm::new(nu, Kernel::Linear).train(&data).unwrap_err();
            assert!(matches!(err, TrainError::InvalidNu { .. }), "nu = {nu}");
        }
        assert!(NuOcSvm::new(1.0, Kernel::Linear).train(&data).is_ok());
    }

    #[test]
    fn accepts_training_cluster_rejects_far_point() {
        let data = cluster(&[1.0, 2.0, 0.0], 0.05, 60);
        let model = NuOcSvm::new(0.1, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let accepted = data.iter().filter(|x| model.accepts(x)).count();
        assert!(accepted as f64 >= 0.85 * data.len() as f64, "accepted {accepted}/{}", data.len());
        assert!(!model.accepts(&SparseVector::from_dense(&[10.0, -10.0, 5.0])));
    }

    #[test]
    fn nu_bounds_training_outliers_and_support_vectors() {
        // Schölkopf's ν-property: the fraction of rejected training points
        // is at most ν (asymptotically; allow slack), and the fraction of
        // support vectors is at least ν.
        let data: Vec<SparseVector> = (0..100)
            .map(|i| {
                let a = 0.5 + 0.3 * (((i * 37) % 101) as f64 - 50.0) / 50.0;
                let b = 0.5 + 0.3 * (((i * 53 + 17) % 101) as f64 - 50.0) / 50.0;
                SparseVector::from_dense(&[a, b])
            })
            .collect();
        let options = SolverOptions { eps: 1e-6, ..Default::default() };
        for nu in [0.05, 0.2, 0.5] {
            let model = NuOcSvm::new(nu, Kernel::Rbf { gamma: 2.0 })
                .with_options(options)
                .train(&data)
                .unwrap();
            // Count only clear rejections: points on the margin (|f| within
            // solver tolerance) are not margin errors.
            let rejected = data.iter().filter(|x| model.decision_value(x) < -1e-5).count() as f64
                / data.len() as f64;
            assert!(rejected <= nu + 0.05, "nu = {nu}: rejected fraction {rejected} exceeds bound");
            let sv_fraction = model.support_vector_count() as f64 / data.len() as f64;
            assert!(sv_fraction >= nu - 0.05, "nu = {nu}: SV fraction {sv_fraction} below bound");
        }
    }

    #[test]
    fn higher_nu_rejects_more() {
        let data = cluster(&[1.0, 0.0], 0.4, 80);
        let loose = NuOcSvm::new(0.05, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let tight = NuOcSvm::new(0.6, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let rejected_loose = data.iter().filter(|x| !loose.accepts(x)).count();
        let rejected_tight = data.iter().filter(|x| !tight.accepts(x)).count();
        assert!(
            rejected_tight >= rejected_loose,
            "tight {rejected_tight} < loose {rejected_loose}"
        );
    }

    #[test]
    fn decision_is_continuous_around_cluster() {
        let data = cluster(&[0.0, 1.0], 0.05, 40);
        let model = NuOcSvm::new(0.1, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let near = model.decision_value(&SparseVector::from_dense(&[0.0, 1.0]));
        let far = model.decision_value(&SparseVector::from_dense(&[0.0, 6.0]));
        assert!(near > far, "decision value must decay with distance: {near} vs {far}");
    }

    #[test]
    fn linear_kernel_two_point_analytic_solution() {
        // Two orthonormal points, ν = 1 ⇒ U = ½ ⇒ α = (½, ½) forced.
        // w = ½x₁ + ½x₂, free SVs at bound... both at bound; ρ = midpoint of
        // gradients = ½·K both ⇒ ρ = ½·(½) ... verify decision symmetry.
        let data =
            vec![SparseVector::from_dense(&[1.0, 0.0]), SparseVector::from_dense(&[0.0, 1.0])];
        let model = NuOcSvm::new(1.0, Kernel::Linear).train(&data).unwrap();
        let d0 = model.decision_value(&data[0]);
        let d1 = model.decision_value(&data[1]);
        assert!((d0 - d1).abs() < 1e-9, "symmetric points get symmetric values");
        assert!(d0.abs() < 1e-6, "both lie exactly on the margin");
    }

    #[test]
    fn diagnostics_are_populated() {
        let data = cluster(&[2.0], 0.2, 30);
        let model = NuOcSvm::new(0.3, Kernel::Linear).train(&data).unwrap();
        let d = model.diagnostics();
        assert!(d.converged);
        assert_eq!(d.train_size, 30);
        assert!(d.support_vectors >= 1);
        assert!(d.support_vectors == model.support_vector_count());
    }

    #[test]
    fn duplicate_points_collapse_gracefully() {
        let data = vec![SparseVector::from_dense(&[1.0, 1.0]); 20];
        let model = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        assert!(model.accepts(&SparseVector::from_dense(&[1.0, 1.0])));
        assert!(!model.accepts(&SparseVector::from_dense(&[4.0, -4.0])));
    }

    #[test]
    fn batch_decision_values_match_per_point_bitwise() {
        let data = cluster(&[1.0, 2.0, 0.0], 0.1, 50);
        let probes: Vec<&SparseVector> = data.iter().take(20).collect();
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.8 }] {
            let model = NuOcSvm::new(0.2, kernel).train(&data).unwrap();
            let batch = model.batch_decision_values(&probes);
            assert_eq!(batch.len(), probes.len());
            for (probe, &value) in probes.iter().zip(&batch) {
                assert_eq!(value, model.decision_value(probe), "{kernel:?}");
            }
        }
    }

    #[cfg(feature = "serde")]
    #[test]
    fn model_implements_serde_traits() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<OcSvmModel>();
    }
}
