//! ν-One-Class Support Vector Machines (Sect. II-A of the paper).
//!
//! Solves the dual problem of Eq. (5):
//!
//! ```text
//! minimize    ½ Σᵢⱼ αᵢαⱼ k(xᵢ, xⱼ)
//! subject to  0 ≤ αᵢ ≤ 1/(νl),  Σᵢ αᵢ = 1
//! ```
//!
//! with decision function (Eq. 6) `f(x) = sgn(Σᵢ αᵢ k(xᵢ, x) − ρ)`: the
//! trainer returns a [`OneClassModel`] with a [`Boundary::Hyperplane`].
//! `ν` is simultaneously an upper bound on the fraction of training
//! outliers and a lower bound on the fraction of support vectors
//! (Schölkopf et al. 2001).

use crate::error::TrainError;
use crate::gram::GramMatrix;
use crate::kernel::Kernel;
use crate::model::{Boundary, OneClassModel};
use crate::smo::{self, PrecomputedQ, SolverOptions};
use crate::sparse::SparseVector;

/// Trainer configuration for a ν-OC-SVM.
///
/// # Examples
///
/// ```
/// use ocsvm::{Kernel, NuOcSvm, SparseVector};
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
    pub fn train(&self, points: &[SparseVector]) -> Result<OneClassModel, TrainError> {
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
    ) -> Result<OneClassModel, TrainError> {
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
    ) -> Result<(OneClassModel, Vec<f64>), TrainError> {
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
    ) -> (OneClassModel, Vec<f64>) {
        let l = points.len();
        let upper = 1.0 / (self.nu * l as f64);
        let p = vec![0.0; l];
        let alpha0 = match seed {
            Some(previous) => smo::seeded_alpha(previous, upper),
            None => smo::initial_alpha(l, upper),
        };
        let solution = smo::solve(q, &p, upper, alpha0, &self.options);

        let rho = recover_rho(&solution.alpha, &solution.gradient, upper);
        let model = OneClassModel::trained(
            points,
            &solution,
            self.kernel,
            Boundary::Hyperplane { rho },
            self.nu,
            q.cache_stats(),
        );
        (model, solution.alpha)
    }
}

/// Recovers the margin offset `ρ` from the KKT conditions: free support
/// vectors (`0 < α < U`) satisfy `(Qα)ᵢ = ρ`; when none are free, `ρ` lies
/// between the gradients of the bounded groups and the midpoint is used
/// (LIBSVM does the same).
fn recover_rho(alpha: &[f64], gradient: &[f64], upper: f64) -> f64 {
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
        assert_serde::<OneClassModel>();
    }
}
