//! Support Vector Data Description (Sect. II-B of the paper).
//!
//! SVDD encloses the training data in a minimum-volume hypersphere with
//! center `a` and radius `R`, allowing a fraction of outliers controlled by
//! the weight `C` (related to the OC-SVM `ν` by `C = 1/(νl)`). The dual
//! problem (Eq. 10) is
//!
//! ```text
//! maximize    Σᵢ αᵢ k(xᵢ,xᵢ) − Σᵢⱼ αᵢαⱼ k(xᵢ,xⱼ)
//! subject to  0 ≤ αᵢ ≤ C,  Σᵢ αᵢ = 1
//! ```
//!
//! solved here as the equivalent minimization with `Q = 2K`,
//! `pᵢ = −k(xᵢ,xᵢ)`. The squared radius follows Eq. (11) and the decision
//! function Eq. (12): a sample is accepted when its squared feature-space
//! distance to the center does not exceed `R²`.

use crate::error::TrainError;
use crate::gram::{CrossGram, GramMatrix};
use crate::kernel::Kernel;
use crate::model::{OneClassModel, SupportVectorSet, TrainDiagnostics};
use crate::smo::{PrecomputedQ, SolverOptions};
use crate::solver::{self, SolverBackend};
use crate::sparse::SparseVector;

/// Trainer configuration for SVDD.
///
/// # Examples
///
/// ```
/// use ocsvm::{Kernel, OneClassModel, SparseVector, Svdd};
///
/// let data: Vec<SparseVector> =
///     (0..40).map(|i| SparseVector::from_dense(&[1.0, 0.02 * (i % 5) as f64])).collect();
/// let model = Svdd::new(0.5, Kernel::Rbf { gamma: 1.0 }).train(&data)?;
/// assert!(model.accepts(&SparseVector::from_dense(&[1.0, 0.04])));
/// assert!(!model.accepts(&SparseVector::from_dense(&[8.0, -3.0])));
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Svdd {
    c: f64,
    kernel: Kernel,
    options: SolverOptions,
}

impl Svdd {
    /// Creates a trainer with outlier weight `C` and kernel.
    ///
    /// `C` is validated at [`train`](Self::train) time (it must be positive
    /// and at least `1/l` for a training set of `l` samples).
    pub fn new(c: f64, kernel: Kernel) -> Self {
        Self { c, kernel, options: SolverOptions::default() }
    }

    /// Overrides the solver options (tolerance, iteration cap, cache size).
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured `C`.
    pub fn c(&self) -> f64 {
        self.c
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
    /// * [`TrainError::InvalidC`] if `C` is not finite and positive.
    /// * [`TrainError::InfeasibleC`] if `C < 1/l`, which makes the dual
    ///   constraint set empty.
    pub fn train(&self, points: &[SparseVector]) -> Result<SvddModel, TrainError> {
        self.validate(points)?;
        let gram = GramMatrix::for_solver(self.kernel, points, self.options.cache_bytes);
        Ok(self.train_on(points, &mut PrecomputedQ::unpinned(&gram, 2.0), None).0)
    }

    /// Trains on `points` reusing a precomputed [`GramMatrix`] over exactly
    /// those points (same kernel, same order).
    ///
    /// Numerically identical to [`train`](Self::train) — `Q = 2K` rows are
    /// formed from the shared matrix's rows with the same products `train`
    /// forms from its private ones — but skips the O(l²·d) kernel
    /// evaluations, which dominate when one training set is swept over many
    /// `C` values (per-user grid search). The Gram matrix is read-only and
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
    ) -> Result<SvddModel, TrainError> {
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
    /// iterations when `seed` comes from a neighbouring `C`.
    ///
    /// # Errors
    ///
    /// Same as [`train_with_gram`](Self::train_with_gram).
    pub fn train_with_gram_seeded(
        &self,
        points: &[SparseVector],
        gram: &GramMatrix,
        seed: Option<&[f64]>,
    ) -> Result<(SvddModel, Vec<f64>), TrainError> {
        self.validate(points)?;
        gram.check_compatible(points.len(), self.kernel)?;
        Ok(self.train_on(points, &mut PrecomputedQ::pinned(gram, 2.0), seed))
    }

    fn validate(&self, points: &[SparseVector]) -> Result<(), TrainError> {
        if points.is_empty() {
            return Err(TrainError::EmptyTrainingSet);
        }
        if !self.c.is_finite() || self.c <= 0.0 {
            return Err(TrainError::InvalidC { c: self.c });
        }
        let min_c = 1.0 / points.len() as f64;
        if self.c < min_c {
            return Err(TrainError::InfeasibleC { c: self.c, min: min_c });
        }
        Ok(())
    }

    fn train_on(
        &self,
        points: &[SparseVector],
        q: &mut PrecomputedQ,
        seed: Option<&[f64]>,
    ) -> (SvddModel, Vec<f64>) {
        let l = points.len();
        let upper = self.c;
        let p: Vec<f64> = (0..l).map(|i| -q.kernel_diag(i)).collect();
        let kind = solver::ProblemKind::Svdd { c: self.c };
        let outcome = solver::run(q, &p, upper, kind, seed, &self.options);
        let solution = outcome.solution;

        // αᵀKα = ½(αᵀG − αᵀp) since G = 2Kα + p.
        let alpha_g: f64 =
            solution.alpha.iter().zip(&solution.gradient).map(|(&a, &g)| a * g).sum();
        let alpha_p: f64 = solution.alpha.iter().zip(&p).map(|(&a, &pi)| a * pi).sum();
        let alpha_k_alpha = 0.5 * (alpha_g - alpha_p);

        // Squared distance of training point i to the center:
        //   d²(xᵢ) = k(xᵢ,xᵢ) − 2(Kα)ᵢ + αᵀKα,  with (Kα)ᵢ = (Gᵢ − pᵢ)/2
        //          = −pᵢ − (Gᵢ − pᵢ) + αᵀKα = −Gᵢ + αᵀKα.
        let dist_sq = |i: usize| -solution.gradient[i] + alpha_k_alpha;
        let r_squared = outcome
            .threshold_override
            .unwrap_or_else(|| recover_r_squared(&solution.alpha, upper, dist_sq));

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
        let model =
            SvddModel { support, r_squared, alpha_k_alpha, c: self.c, diagnostics, backend };
        (model, solution.alpha)
    }
}

/// `R²` from the KKT conditions: free support vectors (`0 < α < C`) lie
/// exactly on the sphere (Eq. 11); when none are free, `R²` is bracketed by
/// the bounded groups (`α = 0` inside, `α = C` outside) and the midpoint is
/// used.
pub(crate) fn recover_r_squared(alpha: &[f64], upper: f64, dist_sq: impl Fn(usize) -> f64) -> f64 {
    let lo_tol = 1e-9;
    let hi_tol = upper * (1.0 - 1e-9);
    let mut free_sum = 0.0;
    let mut free_count = 0usize;
    let mut inside_max = f64::NEG_INFINITY; // α = 0 ⇒ d² ≤ R²
    let mut outside_min = f64::INFINITY; // α = C ⇒ d² ≥ R²
    for (i, &a) in alpha.iter().enumerate() {
        if a > lo_tol && a < hi_tol {
            free_sum += dist_sq(i);
            free_count += 1;
        } else if a >= hi_tol {
            outside_min = outside_min.min(dist_sq(i));
        } else {
            inside_max = inside_max.max(dist_sq(i));
        }
    }
    if free_count > 0 {
        return free_sum / free_count as f64;
    }
    match (inside_max.is_finite(), outside_min.is_finite()) {
        (true, true) => 0.5 * (inside_max + outside_min),
        (true, false) => inside_max,
        (false, true) => outside_min,
        (false, false) => 0.0,
    }
}

/// A trained SVDD model.
///
/// Produced by [`Svdd::train`]; see [`OneClassModel`] for the decision
/// interface.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SvddModel {
    support: SupportVectorSet,
    r_squared: f64,
    /// Constant `Σᵢⱼ αᵢαⱼ k(xᵢ,xⱼ)` appearing in the decision function.
    alpha_k_alpha: f64,
    c: f64,
    diagnostics: TrainDiagnostics,
    #[cfg_attr(feature = "serde", serde(default))]
    backend: SolverBackend,
}

impl SvddModel {
    /// The squared radius `R²` of the hypersphere (Eq. 11).
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// The `C` the model was trained with.
    pub fn c(&self) -> f64 {
        self.c
    }

    /// The affine decision terms of a linear-kernel model, or `None` for
    /// non-linear kernels. With a linear kernel and center `a = Σᵢ αᵢxᵢ`
    /// the decision `R² − ‖x − a‖²` expands to
    /// `(2a)·x + (R² − ‖a‖²) − ‖x‖²`, so `weights = 2a`,
    /// `bias = R² − αᵀKα` and
    /// [`subtracts_probe_norm`](crate::LinearDecisionTerms::subtracts_probe_norm)
    /// is set. See [`LinearDecisionTerms`](crate::LinearDecisionTerms).
    pub fn linear_decision_terms(&self) -> Option<crate::LinearDecisionTerms> {
        self.support.collapsed().map(|a| crate::LinearDecisionTerms {
            weights: a.scaled(2.0),
            bias: self.r_squared - self.alpha_k_alpha,
            subtracts_probe_norm: true,
        })
    }

    /// Sorted union of the feature columns the decision function reads
    /// (support-vector columns; for the linear kernel, the collapsed
    /// weight vector's columns).
    pub fn support_column_union(&self) -> Vec<u32> {
        self.support.column_union()
    }

    /// Squared feature-space distance from `x` to the sphere center.
    pub fn squared_distance_to_center(&self, x: &SparseVector) -> f64 {
        self.support.kernel.compute_self(x) - 2.0 * self.support.weighted_kernel_sum(x)
            + self.alpha_k_alpha
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
        crate::persist::write_svdd(writer, self)
    }

    /// Deserializes a model written by [`SvddModel::write_to`].
    ///
    /// # Errors
    ///
    /// `InvalidData` for wrong magic/version/kind or a corrupt stream;
    /// other I/O errors from the reader.
    pub fn read_from<R: std::io::Read>(reader: &mut R) -> std::io::Result<SvddModel> {
        crate::persist::read_svdd(reader)
    }

    /// Decision values over the *training set*, read from the shared
    /// [`GramMatrix`] the model was (or could have been) trained with —
    /// no kernel evaluations are performed beyond the matrix's lazily
    /// materialized rows (the probe self-kernels come from the matrix
    /// diagonal).
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
        Some(
            sums.into_iter()
                .enumerate()
                .map(|(j, s)| {
                    let squared = gram.diag_value(j) - 2.0 * s + self.alpha_k_alpha;
                    self.r_squared - squared
                })
                .collect(),
        )
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
        Some(
            sums.into_iter()
                .enumerate()
                .map(|(j, s)| {
                    let squared = cross.probe_diag(j) - 2.0 * s + self.alpha_k_alpha;
                    self.r_squared - squared
                })
                .collect(),
        )
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
        let sums = self.support.batch_weighted_kernel_sums(probes);
        probes
            .iter()
            .zip(sums)
            .map(|(p, s)| {
                let squared = self.support.kernel.compute_self(p) - 2.0 * s + self.alpha_k_alpha;
                self.r_squared - squared
            })
            .collect()
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

    pub(crate) fn support(&self) -> &SupportVectorSet {
        &self.support
    }

    pub(crate) fn alpha_k_alpha(&self) -> f64 {
        self.alpha_k_alpha
    }

    pub(crate) fn from_parts(
        support: SupportVectorSet,
        r_squared: f64,
        alpha_k_alpha: f64,
        c: f64,
        diagnostics: TrainDiagnostics,
        backend: SolverBackend,
    ) -> Self {
        Self { support, r_squared, alpha_k_alpha, c, diagnostics, backend }
    }
}

impl OneClassModel for SvddModel {
    /// Eq. (12): `R² − ‖Φ(x) − a‖²`; non-negative inside the sphere.
    fn decision_value(&self, x: &SparseVector) -> f64 {
        self.r_squared - self.squared_distance_to_center(x)
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
                for (d, value) in point.iter_mut().enumerate() {
                    let phase = (i * 13 + d * 29) % 11;
                    *value += spread * (phase as f64 - 5.0) / 5.0;
                }
                SparseVector::from_dense(&point)
            })
            .collect()
    }

    #[test]
    fn rejects_empty_training_set() {
        let err = Svdd::new(0.5, Kernel::Linear).train(&[]).unwrap_err();
        assert_eq!(err, TrainError::EmptyTrainingSet);
    }

    #[test]
    fn rejects_invalid_c() {
        let data = cluster(&[1.0], 0.1, 10);
        for c in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = Svdd::new(c, Kernel::Linear).train(&data).unwrap_err();
            assert!(matches!(err, TrainError::InvalidC { .. }), "c = {c}");
        }
    }

    #[test]
    fn rejects_infeasible_c() {
        let data = cluster(&[1.0], 0.1, 10);
        let err = Svdd::new(0.05, Kernel::Linear).train(&data).unwrap_err();
        assert_eq!(err, TrainError::InfeasibleC { c: 0.05, min: 0.1 });
        // Exactly 1/l is feasible (all α forced to C).
        assert!(Svdd::new(0.1, Kernel::Linear).train(&data).is_ok());
    }

    #[test]
    fn encloses_cluster_rejects_far_point() {
        let data = cluster(&[1.0, -1.0], 0.1, 50);
        let model = Svdd::new(0.5, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let accepted = data.iter().filter(|x| model.accepts(x)).count();
        assert!(accepted as f64 >= 0.85 * data.len() as f64, "accepted {accepted}");
        assert!(!model.accepts(&SparseVector::from_dense(&[9.0, 9.0])));
    }

    #[test]
    fn c_one_encloses_every_training_point() {
        // With C = 1 no slack is ever profitable: the sphere contains all
        // training data exactly.
        let data = cluster(&[0.0, 3.0], 0.5, 30);
        let options = SolverOptions { eps: 1e-6, ..Default::default() };
        let model = Svdd::new(1.0, Kernel::Linear).with_options(options).train(&data).unwrap();
        for (i, x) in data.iter().enumerate() {
            assert!(
                model.decision_value(x) >= -1e-5,
                "point {i} outside sphere: {}",
                model.decision_value(x)
            );
        }
    }

    #[test]
    fn linear_center_is_mean_under_c_one_symmetric_data() {
        // Two symmetric points with C = 1: α = (½, ½), center = midpoint,
        // R² = ‖x − center‖² = 1 for points (±1, 0).
        let data =
            vec![SparseVector::from_dense(&[1.0, 0.0]), SparseVector::from_dense(&[-1.0, 0.0])];
        let model = Svdd::new(1.0, Kernel::Linear).train(&data).unwrap();
        assert!((model.r_squared() - 1.0).abs() < 1e-6, "R² = {}", model.r_squared());
        // The midpoint (origin) has distance² 0.
        let origin = SparseVector::new();
        assert!(model.squared_distance_to_center(&origin).abs() < 1e-6);
        // A point at distance exactly R from the center is on the margin.
        let on_margin = SparseVector::from_dense(&[0.0, 1.0]);
        assert!(model.decision_value(&on_margin).abs() < 1e-6);
    }

    #[test]
    fn smaller_c_shrinks_the_sphere() {
        // One far outlier: with C = 1 it must be enclosed (big R²); with a
        // small C the sphere may exclude it.
        let mut data = cluster(&[0.0, 0.0], 0.1, 29);
        data.push(SparseVector::from_dense(&[10.0, 10.0]));
        let big = Svdd::new(1.0, Kernel::Linear).train(&data).unwrap();
        let small = Svdd::new(0.1, Kernel::Linear).train(&data).unwrap();
        assert!(
            small.r_squared() < big.r_squared(),
            "small-C sphere not smaller: {} vs {}",
            small.r_squared(),
            big.r_squared()
        );
        assert!(!small.accepts(&data[29]), "outlier must fall outside the small-C sphere");
    }

    #[test]
    fn rbf_distance_to_center_is_bounded() {
        // In RBF feature space all points live on the unit sphere, so the
        // squared distance to any convex combination is ≤ 4.
        let data = cluster(&[5.0], 1.0, 20);
        let model = Svdd::new(0.3, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let probe = SparseVector::from_dense(&[-100.0]);
        let d2 = model.squared_distance_to_center(&probe);
        assert!(d2 > 0.0 && d2 <= 4.0 + 1e-9, "d² = {d2}");
    }

    #[test]
    fn diagnostics_are_populated() {
        let data = cluster(&[1.0, 2.0], 0.3, 40);
        let model = Svdd::new(0.2, Kernel::Rbf { gamma: 1.0 }).train(&data).unwrap();
        let d = model.diagnostics();
        assert!(d.converged);
        assert_eq!(d.train_size, 40);
        assert_eq!(d.support_vectors, model.support_vector_count());
        assert!(d.support_vectors >= 1);
    }

    #[test]
    fn batch_decision_values_match_per_point_bitwise() {
        let data = cluster(&[1.0, -1.0], 0.2, 40);
        let probes: Vec<&SparseVector> = data.iter().step_by(2).collect();
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.6 }] {
            let model = Svdd::new(0.3, kernel).train(&data).unwrap();
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
        assert_serde::<SvddModel>();
    }
}
