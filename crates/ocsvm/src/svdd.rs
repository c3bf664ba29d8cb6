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
//! distance to the center does not exceed `R²`. The trainer returns a
//! [`OneClassModel`] with a [`Boundary::Sphere`].

use crate::error::TrainError;
use crate::gram::GramMatrix;
use crate::kernel::Kernel;
use crate::model::{Boundary, OneClassModel};
use crate::smo::{self, PrecomputedQ, SolverOptions};
use crate::sparse::SparseVector;

/// Trainer configuration for SVDD.
///
/// # Examples
///
/// ```
/// use ocsvm::{Kernel, SparseVector, Svdd};
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
    pub fn train(&self, points: &[SparseVector]) -> Result<OneClassModel, TrainError> {
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
    ) -> Result<(OneClassModel, Vec<f64>), TrainError> {
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
    ) -> (OneClassModel, Vec<f64>) {
        let l = points.len();
        let upper = self.c;
        let p: Vec<f64> = (0..l).map(|i| -q.kernel_diag(i)).collect();
        let alpha0 = match seed {
            Some(previous) => smo::seeded_alpha(previous, upper),
            None => smo::initial_alpha(l, upper),
        };
        let solution = smo::solve(q, &p, upper, alpha0, &self.options);

        // αᵀKα = ½(αᵀG − αᵀp) since G = 2Kα + p.
        let alpha_g: f64 =
            solution.alpha.iter().zip(&solution.gradient).map(|(&a, &g)| a * g).sum();
        let alpha_p: f64 = solution.alpha.iter().zip(&p).map(|(&a, &pi)| a * pi).sum();
        let alpha_k_alpha = 0.5 * (alpha_g - alpha_p);

        // Squared distance of training point i to the center:
        //   d²(xᵢ) = k(xᵢ,xᵢ) − 2(Kα)ᵢ + αᵀKα,  with (Kα)ᵢ = (Gᵢ − pᵢ)/2
        //          = −pᵢ − (Gᵢ − pᵢ) + αᵀKα = −Gᵢ + αᵀKα.
        let dist_sq = |i: usize| -solution.gradient[i] + alpha_k_alpha;
        let r_squared = recover_r_squared(&solution.alpha, upper, dist_sq);

        let model = OneClassModel::trained(
            points,
            &solution,
            self.kernel,
            Boundary::Sphere { r_squared, alpha_k_alpha },
            self.c,
            q.cache_stats(),
        );
        (model, solution.alpha)
    }
}

/// `R²` from the KKT conditions: free support vectors (`0 < α < C`) lie
/// exactly on the sphere (Eq. 11); when none are free, `R²` is bracketed by
/// the bounded groups (`α = 0` inside, `α = C` outside) and the midpoint is
/// used.
fn recover_r_squared(alpha: &[f64], upper: f64, dist_sq: impl Fn(usize) -> f64) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn r_squared(model: &OneClassModel) -> f64 {
        let Boundary::Sphere { r_squared, .. } = model.boundary() else {
            panic!("an SVDD model has a sphere boundary");
        };
        r_squared
    }

    /// `‖Φ(x) − a‖² = R² − f(x)` (Eq. 12).
    fn squared_distance_to_center(model: &OneClassModel, x: &SparseVector) -> f64 {
        r_squared(model) - model.decision_value(x)
    }

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
        assert!((r_squared(&model) - 1.0).abs() < 1e-6, "R² = {}", r_squared(&model));
        // The midpoint (origin) has distance² 0.
        let origin = SparseVector::new();
        assert!(squared_distance_to_center(&model, &origin).abs() < 1e-6);
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
            r_squared(&small) < r_squared(&big),
            "small-C sphere not smaller: {} vs {}",
            r_squared(&small),
            r_squared(&big)
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
        let d2 = squared_distance_to_center(&model, &probe);
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
}
