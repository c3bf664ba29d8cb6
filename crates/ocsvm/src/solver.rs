//! The two training backends and the one `match` between them.
//!
//! Both answer the same question — given the `Q` matrix view of a
//! single-constraint one-class QP (`min ½αᵀQα + pᵀα` s.t. `Σα = 1`,
//! `0 ≤ αᵢ ≤ U`), produce a multiplier vector plus the decision threshold —
//! but trade accuracy for training time differently:
//!
//! * [`SolverBackend::ExactSmo`] runs [`smo::solve`] from the seeded or
//!   uniform start, including α warm starts across a regularization ladder.
//! * [`SolverBackend::SampledFw`] draws a seeded deterministic subsample and
//!   runs pairwise Frank–Wolfe steps (clipped exact line search over the
//!   max-violating pair) until the Frank–Wolfe duality gap is small enough,
//!   then re-expands the subsample solution to the full index space.
//!
//! The sampled backend **ignores warm-start seeds** by design: its solution
//! is a function of the training set and [`ApproxParams`] alone, which keeps
//! it bit-reproducible across sweep schedules and thread counts regardless
//! of which neighbouring cell solved first. Callers may pass a seed
//! unconditionally; it is silently unused.

use crate::smo::{self, QMatrix, Solution, SolverOptions};
use std::sync::Arc;

/// Denominator floor for non-PSD pairs, mirroring the SMO solver's.
const TAU: f64 = 1e-12;

/// Which training backend a solve runs through.
///
/// Selected via [`SolverOptions::backend`]; recorded on trained models and
/// persisted (format v3) so restored profiles remember how they were built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SolverBackend {
    /// The exact SMO path (`smo.rs`); honours warm-start seeds.
    #[default]
    ExactSmo,
    /// Seeded subsample ([`ApproxParams::fw_sample`] points) trained by
    /// pairwise Frank–Wolfe steps until the duality gap falls below
    /// [`ApproxParams::fw_gap`]. Ignores warm-start seeds.
    SampledFw,
}

impl SolverBackend {
    /// Stable on-disk tag (persist format v3). Tag 1 belonged to the
    /// removed one-data ensemble backend and is never written again.
    pub(crate) fn tag(self) -> u8 {
        match self {
            SolverBackend::ExactSmo => 0,
            SolverBackend::SampledFw => 2,
        }
    }

    /// Inverse of [`tag`](Self::tag); the error names what the tag was.
    pub(crate) fn from_tag(tag: u8) -> Result<Self, String> {
        match tag {
            0 => Ok(SolverBackend::ExactSmo),
            1 => Err("solver-backend tag 1 is the removed one-data ensemble backend; \
                      retrain the model with the exact or sampled backend"
                .into()),
            2 => Ok(SolverBackend::SampledFw),
            _ => Err(format!("unknown solver-backend tag {tag}")),
        }
    }
}

/// Tuning knobs of [`SolverBackend::SampledFw`].
///
/// All fields participate in `PartialEq` so [`SolverOptions`] comparisons
/// keep working; the defaults are sized for the per-user grid search
/// (hundreds to tens of thousands of windows per user).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxParams {
    /// Subsample size; clamped to the training-set size.
    pub fw_sample: usize,
    /// Seed of the deterministic subsample draw (mixed with the
    /// training-set size, so different users diverge even under one seed).
    pub fw_seed: u64,
    /// Absolute Frank–Wolfe duality-gap threshold that stops the sampled
    /// trainer.
    pub fw_gap: f64,
}

impl Default for ApproxParams {
    fn default() -> Self {
        Self { fw_sample: 96, fw_seed: 0x0BAD_5EED, fw_gap: 1e-3 }
    }
}

/// Which one-class formulation is being trained; the sampled backend needs
/// it to rescale the box constraint onto the subsample and to recover the
/// matching threshold (ρ vs `R²`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum ProblemKind {
    /// ν-OC-SVM: `U = 1/(ν·l)`, threshold ρ.
    OcSvm {
        /// The trainer's ν.
        nu: f64,
    },
    /// SVDD: `U = C`, threshold `R²`.
    Svdd {
        /// The trainer's C.
        c: f64,
    },
}

impl ProblemKind {
    /// Box upper bound of a sub-problem over `m` of the `full` points,
    /// rescaled so the implied outlier fraction matches the full problem:
    /// OC-SVM keeps `ν` (`U = 1/(ν·m)`), SVDD keeps `ν_eff = 1/(C·l)`
    /// (`U = C·l/m`). Both reduce to the full-problem box at `m = full`.
    fn sub_upper(self, full: usize, m: usize) -> f64 {
        match self {
            ProblemKind::OcSvm { nu } => 1.0 / (nu * m as f64),
            ProblemKind::Svdd { c } => c * full as f64 / m as f64,
        }
    }
}

/// What a backend hands back to the trainers.
#[derive(Debug, Clone)]
pub(crate) struct SolverOutcome {
    /// Full-length multipliers, exact full gradient, objective and counters.
    pub solution: Solution,
    /// Decision threshold (ρ for OC-SVM, `R²` for SVDD) when the backend
    /// recovers it from sub-problem KKT conditions itself; `None` lets the
    /// trainer recover it from the full solution.
    pub threshold_override: Option<f64>,
}

/// Trains the full problem (`q`, `p`, box `[0, upper]`) with the backend
/// selected by [`SolverOptions::backend`]; only the exact backend uses the
/// warm-start `seed`.
pub(crate) fn run(
    q: &mut dyn QMatrix,
    p: &[f64],
    upper: f64,
    kind: ProblemKind,
    seed: Option<&[f64]>,
    options: &SolverOptions,
) -> SolverOutcome {
    match options.backend {
        SolverBackend::ExactSmo => {
            let alpha0 = match seed {
                Some(previous) => smo::seeded_alpha(previous, upper),
                None => smo::initial_alpha(q.len(), upper),
            };
            SolverOutcome {
                solution: smo::solve(q, p, upper, alpha0, options),
                threshold_override: None,
            }
        }
        SolverBackend::SampledFw => sampled_fw(q, p, kind, options),
    }
}

/// The sampled Frank–Wolfe backend; see [`SolverBackend::SampledFw`].
fn sampled_fw(
    q: &mut dyn QMatrix,
    p: &[f64],
    kind: ProblemKind,
    options: &SolverOptions,
) -> SolverOutcome {
    let l = q.len();
    let m = options.approx.fw_sample.clamp(1, l);
    let indices = sample_indices(l, m, options.approx.fw_seed);
    let u_sub = kind.sub_upper(l, m);
    let p_sub: Vec<f64> = indices.iter().map(|&i| p[i]).collect();
    let mut sub = SubsetQ::new(q, &indices);

    let mut alpha = smo::initial_alpha(m, u_sub);
    let mut gradient = vec![0.0; m];
    smo::reconstruct_gradient(&mut sub, &p_sub, &alpha, &mut gradient);

    let max_iterations = options.max_iterations.unwrap_or_else(|| 10_000.max(100 * m));
    let gap_tol = options.approx.fw_gap;
    let mut iterations = 0usize;
    while iterations < max_iterations && fw_gap(&gradient, &alpha, u_sub) > gap_tol {
        // Max-violating pair: the steepest feasible pairwise direction
        // e_i − e_j (move mass from j to i).
        let mut i = usize::MAX;
        let mut j = usize::MAX;
        let mut up_best = f64::NEG_INFINITY;
        let mut down_best = f64::NEG_INFINITY;
        for (t, (&a, &g)) in alpha.iter().zip(&gradient).enumerate() {
            if a < u_sub && -g > up_best {
                up_best = -g;
                i = t;
            }
            if a > 0.0 && g > down_best {
                down_best = g;
                j = t;
            }
        }
        if i == usize::MAX || j == usize::MAX || i == j {
            break;
        }
        let row_i = sub.row(i);
        let row_j = sub.row(j);
        let mut quad = sub.diag(i) + sub.diag(j) - 2.0 * row_i[j];
        if quad <= 0.0 {
            quad = TAU;
        }
        // Clipped exact line search along e_i − e_j.
        let step = ((gradient[j] - gradient[i]) / quad).min(u_sub - alpha[i]).min(alpha[j]);
        if step <= 0.0 {
            break;
        }
        alpha[i] += step;
        alpha[j] -= step;
        for ((g, &qi), &qj) in gradient.iter_mut().zip(row_i.iter()).zip(row_j.iter()) {
            *g += step * (qi - qj);
        }
        iterations += 1;
    }
    let converged = fw_gap(&gradient, &alpha, u_sub) <= gap_tol;

    // Threshold from the subsample's own KKT conditions; the expanded
    // zero multipliers would otherwise poison the bound recovery.
    let (threshold, aka) = match kind {
        ProblemKind::OcSvm { .. } => (crate::ocsvm::recover_rho(&alpha, &gradient, u_sub), 0.0),
        ProblemKind::Svdd { .. } => {
            let aka = alpha_k_alpha(&alpha, &gradient, &p_sub);
            let r2 = crate::svdd::recover_r_squared(&alpha, u_sub, |i| -gradient[i] + aka);
            (r2, aka)
        }
    };

    // Expand onto the full problem: exact full gradient and objective.
    let mut alpha_full = vec![0.0; l];
    for (local, &global) in indices.iter().enumerate() {
        alpha_full[global] = alpha[local];
    }
    let mut gradient_full = vec![0.0; l];
    smo::reconstruct_gradient(q, p, &alpha_full, &mut gradient_full);
    let objective = 0.5
        * alpha_full
            .iter()
            .zip(gradient_full.iter().zip(p.iter()))
            .map(|(&a, (&g, &pi))| a * (g + pi))
            .sum::<f64>();
    let threshold = match kind {
        ProblemKind::OcSvm { .. } => threshold,
        // The SVDD model scores with the αᵀKα constant of the full
        // solution; d²_sub(x) and d²_full(x) differ only in that constant,
        // so shifting R² by (full − sub) keeps decisions identical.
        ProblemKind::Svdd { .. } => threshold + alpha_k_alpha(&alpha_full, &gradient_full, p) - aka,
    };
    SolverOutcome {
        solution: Solution {
            alpha: alpha_full,
            gradient: gradient_full,
            objective,
            iterations,
            converged,
        },
        threshold_override: Some(threshold),
    }
}

/// `αᵀKα = ½(αᵀG − αᵀp)` for `G = 2Kα + p` — the same two-sum formula the
/// SVDD trainer uses, so recomputations agree bitwise.
fn alpha_k_alpha(alpha: &[f64], gradient: &[f64], p: &[f64]) -> f64 {
    let alpha_g: f64 = alpha.iter().zip(gradient).map(|(&a, &g)| a * g).sum();
    let alpha_p: f64 = alpha.iter().zip(p).map(|(&a, &pi)| a * pi).sum();
    0.5 * (alpha_g - alpha_p)
}

/// Frank–Wolfe duality gap `gᵀα − min_{s ∈ feasible} gᵀs`, with the linear
/// minimization solved greedily: pour the unit mass into the coordinates
/// with the smallest gradient, `upper` at a time.
fn fw_gap(gradient: &[f64], alpha: &[f64], upper: f64) -> f64 {
    let value: f64 = gradient.iter().zip(alpha).map(|(&g, &a)| g * a).sum();
    let mut order: Vec<usize> = (0..gradient.len()).collect();
    order.sort_unstable_by(|&a, &b| gradient[a].total_cmp(&gradient[b]).then(a.cmp(&b)));
    let mut mass = 1.0f64;
    let mut best = 0.0f64;
    for &i in &order {
        if mass <= 0.0 {
            break;
        }
        let take = mass.min(upper);
        best += take * gradient[i];
        mass -= take;
    }
    value - best
}

/// Deterministic `m`-subset of `0..l` via a seeded partial Fisher–Yates
/// shuffle (splitmix64 stream), returned sorted so kernel-row access stays
/// monotone.
fn sample_indices(l: usize, m: usize, seed: u64) -> Vec<usize> {
    if m >= l {
        return (0..l).collect();
    }
    let mut state = seed ^ (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut pool: Vec<usize> = (0..l).collect();
    for k in 0..m {
        let r = k + (splitmix64(&mut state) % (l - k) as u64) as usize;
        pool.swap(k, r);
    }
    let mut picked = pool[..m].to_vec();
    picked.sort_unstable();
    picked
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Read-through view of a subset of a parent [`QMatrix`]: sub-row `i` is the
/// gather of the parent row `indices[i]` at `indices`, memoized per local
/// index for the lifetime of one sub-solve.
struct SubsetQ<'a> {
    parent: &'a mut dyn QMatrix,
    indices: &'a [usize],
    rows: Vec<Option<Arc<[f64]>>>,
}

impl<'a> SubsetQ<'a> {
    fn new(parent: &'a mut dyn QMatrix, indices: &'a [usize]) -> Self {
        let rows = vec![None; indices.len()];
        Self { parent, indices, rows }
    }
}

impl QMatrix for SubsetQ<'_> {
    fn len(&self) -> usize {
        self.indices.len()
    }

    fn diag(&self, i: usize) -> f64 {
        self.parent.diag(self.indices[i])
    }

    fn row(&mut self, i: usize) -> Arc<[f64]> {
        if let Some(row) = &self.rows[i] {
            return Arc::clone(row);
        }
        let full = self.parent.row(self.indices[i]);
        let row: Arc<[f64]> = self.indices.iter().map(|&j| full[j]).collect();
        self.rows[i] = Some(Arc::clone(&row));
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::model::OneClassModel;
    use crate::smo::PrecomputedQ;
    use crate::sparse::SparseVector;
    use crate::{NuOcSvm, Svdd};

    fn cluster(n: usize) -> Vec<SparseVector> {
        (0..n)
            .map(|i| {
                let jitter = 0.03 * ((i * 13) % 11) as f64;
                SparseVector::from_dense(&[1.0 + jitter, 0.5 - 0.5 * jitter])
            })
            .collect()
    }

    fn options(backend: SolverBackend) -> SolverOptions {
        SolverOptions {
            backend,
            approx: ApproxParams { fw_sample: 24, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn solver_subset_q_gathers_the_parent_submatrix() {
        let points = cluster(12);
        let gram = crate::GramMatrix::compute(Kernel::Rbf { gamma: 0.7 }, &points);
        let mut parent = PrecomputedQ::pinned(&gram, 1.0);
        let indices = [1usize, 4, 9];
        let mut expected = Vec::new();
        for &i in &indices {
            let row = parent.row(i);
            expected.push(indices.iter().map(|&j| row[j]).collect::<Vec<_>>());
        }
        let mut sub = SubsetQ::new(&mut parent, &indices);
        assert_eq!(sub.len(), 3);
        for (local, want) in expected.iter().enumerate() {
            assert_eq!(sub.row(local).as_ref(), want.as_slice());
            assert_eq!(sub.diag(local), want[local]);
            // Memoized second fetch is identical.
            assert_eq!(sub.row(local).as_ref(), want.as_slice());
        }
    }

    #[test]
    fn solver_sample_indices_are_deterministic_sorted_and_unique() {
        let a = sample_indices(100, 17, 42);
        let b = sample_indices(100, 17, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 17);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&i| i < 100));
        // Different seeds diverge; saturated draws return everything.
        assert_ne!(a, sample_indices(100, 17, 43));
        assert_eq!(sample_indices(5, 9, 7), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn solver_fw_gap_is_zero_at_the_lmo_vertex_and_positive_off_it() {
        let gradient = [3.0, 1.0, 2.0];
        // Mass 1, upper 1: the LMO puts everything on index 1.
        assert_eq!(fw_gap(&gradient, &[0.0, 1.0, 0.0], 1.0), 0.0);
        let off = fw_gap(&gradient, &[1.0, 0.0, 0.0], 1.0);
        assert_eq!(off, 2.0);
        // Box at 0.5 splits the mass across the two smallest coordinates.
        let split = fw_gap(&gradient, &[0.0, 0.5, 0.5], 0.5);
        assert_eq!(split, 0.0);
    }

    #[test]
    fn solver_approx_backends_are_bit_identical_across_runs() {
        let points = cluster(60);
        let trainer = NuOcSvm::new(0.25, Kernel::Rbf { gamma: 0.8 })
            .with_options(options(SolverBackend::SampledFw));
        let a = trainer.train(&points).unwrap();
        let b = trainer.train(&points).unwrap();
        assert_eq!(a.rho(), b.rho());
        let refs: Vec<&SparseVector> = points.iter().collect();
        assert_eq!(a.batch_decision_values(&refs), b.batch_decision_values(&refs));
        assert_eq!(a.diagnostics(), b.diagnostics());
    }

    #[test]
    fn solver_approx_backends_ignore_warm_start_seeds() {
        // Seeded and unseeded solves must agree bitwise: the sampled
        // backend documents that warm starts are ignored, not an error.
        let points = cluster(50);
        let gram = crate::GramMatrix::compute(Kernel::Rbf { gamma: 0.8 }, &points);
        let skewed_seed: Vec<f64> = (0..points.len()).map(|i| (i % 3) as f64 * 0.3).collect();
        let trainer = NuOcSvm::new(0.25, Kernel::Rbf { gamma: 0.8 })
            .with_options(options(SolverBackend::SampledFw));
        let (cold, cold_alpha) = trainer.train_with_gram_seeded(&points, &gram, None).unwrap();
        let (seeded, seeded_alpha) =
            trainer.train_with_gram_seeded(&points, &gram, Some(&skewed_seed)).unwrap();
        assert_eq!(cold_alpha, seeded_alpha);
        assert_eq!(cold.rho(), seeded.rho());
    }

    #[test]
    fn solver_approx_models_accept_the_cluster_and_reject_outliers() {
        let points = cluster(80);
        let outlier = SparseVector::from_dense(&[-6.0, 8.0]);
        let opts = options(SolverBackend::SampledFw);
        let ocsvm = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 1.0 })
            .with_options(opts)
            .train(&points)
            .unwrap();
        let accepted = points.iter().filter(|x| ocsvm.accepts(x)).count();
        assert!(
            accepted as f64 >= 0.6 * points.len() as f64,
            "accepted only {accepted}/{}",
            points.len()
        );
        assert!(!ocsvm.accepts(&outlier));

        let svdd =
            Svdd::new(0.1, Kernel::Rbf { gamma: 1.0 }).with_options(opts).train(&points).unwrap();
        let accepted = points.iter().filter(|x| svdd.accepts(x)).count();
        assert!(
            accepted as f64 >= 0.6 * points.len() as f64,
            "svdd accepted only {accepted}/{}",
            points.len()
        );
        assert!(!svdd.accepts(&outlier), "svdd");
    }

    #[test]
    fn solver_sampled_fw_converges_by_duality_gap_on_easy_problems() {
        let points = cluster(64);
        let model = NuOcSvm::new(0.25, Kernel::Rbf { gamma: 0.8 })
            .with_options(options(SolverBackend::SampledFw))
            .train(&points)
            .unwrap();
        let d = model.diagnostics();
        assert!(d.converged, "duality gap should close on a tight cluster");
        assert!(d.iterations > 0);
        // The expanded solution stays on the simplex.
        let alpha_sum: f64 = model.training_alpha().expect("indices survive training").iter().sum();
        assert!((alpha_sum - 1.0).abs() < 1e-9, "Σα = {alpha_sum}");
        assert!(d.support_vectors <= 24, "support limited to the subsample");
    }

    #[test]
    fn solver_svdd_threshold_shift_keeps_self_distances_consistent() {
        // The sampled SVDD decision must behave like a real SVDD: the
        // radius is positive and training points mostly fall inside.
        let points = cluster(48);
        let model = Svdd::new(0.25, Kernel::Rbf { gamma: 0.8 })
            .with_options(options(SolverBackend::SampledFw))
            .train(&points)
            .unwrap();
        assert!(model.r_squared() > 0.0);
        let inside = points.iter().filter(|x| model.accepts(x)).count();
        assert!(inside as f64 >= 0.6 * points.len() as f64, "inside {inside}/{}", points.len());

        // R² is the subsample's mean squared distance over its free
        // support vectors, shifted onto the model's full-solution αᵀKα
        // constant, so those vectors sit on the sphere on average. A
        // smaller C (box C·l/m = 0.2 on the 24-point subsample) leaves
        // some multipliers strictly inside the box.
        let c = 0.1;
        let u_sub = c * 48.0 / 24.0;
        let model = Svdd::new(c, Kernel::Rbf { gamma: 0.8 })
            .with_options(options(SolverBackend::SampledFw))
            .train(&points)
            .unwrap();
        let support = model.support();
        let free: Vec<&SparseVector> = support
            .vectors
            .iter()
            .zip(&support.alpha)
            .filter(|&(_, &a)| a > 1e-9 && a < u_sub * (1.0 - 1e-9))
            .map(|(x, _)| x)
            .collect();
        assert!(!free.is_empty(), "a free support vector pins R²");
        let mean = free.iter().map(|x| model.decision_value(x)).sum::<f64>() / free.len() as f64;
        assert!(mean.abs() < 1e-9, "free SVs sit {mean} off the sphere on average");
    }
}
