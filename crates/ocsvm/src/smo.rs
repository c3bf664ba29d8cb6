//! Sequential Minimal Optimization solver.
//!
//! Both one-class formulations used by the paper reduce to the same
//! single-constraint quadratic program:
//!
//! ```text
//! minimize    ½ αᵀQα + pᵀα
//! subject to  Σᵢ αᵢ = 1,   0 ≤ αᵢ ≤ U
//! ```
//!
//! * ν-OC-SVM (Sect. II-A, Eq. 5): `Q = K`, `p = 0`, `U = 1/(νl)`.
//! * SVDD (Sect. II-B, Eq. 10): the paper's maximization of
//!   `Σ αᵢK(xᵢ,xᵢ) − Σ αᵢαⱼK(xᵢ,xⱼ)` is the minimization above with
//!   `Q = 2K` and `pᵢ = −K(xᵢ,xᵢ)`, `U = C`.
//!
//! The solver is a faithful reimplementation of the LIBSVM strategy for the
//! all-labels-positive case: second-order working-set selection (WSS 2 of
//! Fan, Chen & Lin 2005), an incrementally maintained gradient, and kernel
//! rows cached in a [`KernelRowArena`](crate::KernelRowArena).

use crate::gram::GramMatrix;
use std::sync::Arc;

/// Denominator floor for pairs whose quadratic coefficient is non-positive
/// (possible with the sigmoid kernel, which is not PSD).
const TAU: f64 = 1e-12;

/// `Q = scale · K` served from the rows of a [`GramMatrix`].
///
/// At `scale = 1` (OC-SVM) the matrix's rows are handed out zero-copy. At
/// other scales (SVDD uses `Q = 2K`) row `i` is formed as `scale · Kᵢⱼ`
/// from the cached kernel row, the same product for every source.
///
/// A *pinned* solve keeps every row it fetches for its own duration, so a
/// shared arena is consulted (and locked) at most once per row per solve —
/// the SMO inner loop never contends on it, and eviction between accesses
/// cannot force a recompute mid-solve. The pin adds at most one training
/// set's rows on top of the arena's budget. An *unpinned* solve (plain
/// `train` over a private, byte-budgeted arena) goes to the arena on every
/// access, so that budget alone bounds its memory.
pub(crate) struct PrecomputedQ<'g, 'p> {
    gram: &'g GramMatrix<'p>,
    scale: f64,
    pinned: Option<Vec<Option<Arc<[f64]>>>>,
    hits: u64,
    misses: u64,
}

impl<'g, 'p> PrecomputedQ<'g, 'p> {
    /// A solve that pins the rows it fetches.
    pub(crate) fn pinned(gram: &'g GramMatrix<'p>, scale: f64) -> Self {
        Self { gram, scale, pinned: Some(vec![None; gram.len()]), hits: 0, misses: 0 }
    }

    /// A solve that pins nothing; `gram`'s arena must be private to it.
    pub(crate) fn unpinned(gram: &'g GramMatrix<'p>, scale: f64) -> Self {
        Self { gram, scale, pinned: None, hits: 0, misses: 0 }
    }

    /// Raw kernel diagonal `K(xᵢ, xᵢ)` (without the `Q` scale factor).
    pub(crate) fn kernel_diag(&self, i: usize) -> f64 {
        self.gram.diag_value(i)
    }

    /// (hits, misses) of the row store, for
    /// [`TrainDiagnostics`](crate::TrainDiagnostics): the private arena's
    /// own counters for an unpinned solve; for a pinned one, rows served
    /// from the pin plus precomputed scale-1 rows count as hits and rows
    /// scaled for this solve as misses.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        if self.pinned.is_some() {
            return (self.hits, self.misses);
        }
        let stats = self.gram.arena().stats();
        (stats.hits, stats.misses)
    }

    /// Number of training points `l`.
    fn len(&self) -> usize {
        self.gram.len()
    }

    /// Diagonal entry `Q[i][i]`.
    fn diag(&self, i: usize) -> f64 {
        self.scale * self.gram.diag_value(i)
    }

    /// Full row `Q[i][·]`, possibly served from cache.
    fn row(&mut self, i: usize) -> Arc<[f64]> {
        if let Some(row) = self.pinned.as_ref().and_then(|pinned| pinned[i].clone()) {
            self.hits += 1;
            return row;
        }
        let base = self.gram.row(i);
        let row = if self.scale == 1.0 {
            self.hits += 1;
            base
        } else {
            self.misses += 1;
            let scale = self.scale;
            base.iter().map(|&v| scale * v).collect()
        };
        if let Some(pinned) = &mut self.pinned {
            pinned[i] = Some(Arc::clone(&row));
        }
        row
    }
}

/// Convergence and resource options for the SMO solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// KKT violation tolerance; the solver stops when the maximal violating
    /// pair violates by less than `eps`. LIBSVM's default is `1e-3`.
    pub eps: f64,
    /// Hard cap on SMO iterations; `None` derives a cap from the problem
    /// size (`max(10_000_000, 100·l)`).
    pub max_iterations: Option<usize>,
    /// Byte budget of the private kernel-row arena a plain `train` call
    /// solves over (at least two rows are always kept, as SMO touches two
    /// rows per iteration). Solves over a caller's [`GramMatrix`] use that
    /// matrix's arena instead.
    pub cache_bytes: usize,
    /// Shrinking heuristic (LIBSVM's): periodically remove variables that
    /// are firmly stuck at a bound from the working set, reconstructing
    /// the full gradient before declaring convergence. Changes only the
    /// speed, not the solution (beyond `eps`-level differences).
    pub shrinking: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self { eps: 1e-3, max_iterations: None, cache_bytes: 64 << 20, shrinking: true }
    }
}

/// Output of [`solve`].
#[derive(Debug, Clone)]
pub(crate) struct Solution {
    /// Optimal multipliers `α`.
    pub alpha: Vec<f64>,
    /// Final gradient `G = Qα + p`.
    pub gradient: Vec<f64>,
    /// Final objective value `½αᵀQα + pᵀα`.
    pub objective: f64,
    /// SMO iterations performed.
    pub iterations: usize,
    /// Whether the KKT stopping condition was met before the iteration cap.
    pub converged: bool,
}

/// Runs SMO from the feasible starting point `alpha0`.
///
/// `alpha0` must satisfy the constraints (`Σα = 1`, `0 ≤ αᵢ ≤ upper`); the
/// callers in this crate construct it with [`initial_alpha`].
pub(crate) fn solve(
    q: &mut PrecomputedQ<'_, '_>,
    p: &[f64],
    upper: f64,
    alpha0: Vec<f64>,
    options: &SolverOptions,
) -> Solution {
    let l = q.len();
    debug_assert_eq!(p.len(), l);
    debug_assert_eq!(alpha0.len(), l);
    let mut alpha = alpha0;
    let max_iterations = options.max_iterations.unwrap_or_else(|| 10_000_000.max(100 * l));

    // G = Qα + p, built from the rows of the initially active points.
    let mut gradient = p.to_vec();
    reconstruct_gradient(q, p, &alpha, &mut gradient);

    // Active set for the shrinking heuristic; gradient entries of inactive
    // variables go stale and are reconstructed before convergence checks.
    let mut active: Vec<usize> = (0..l).collect();
    let shrink_period = l.clamp(1, 1000);
    let mut shrink_countdown = shrink_period;

    let mut iterations = 0;
    let mut converged = false;
    // Set after recovering from a non-positive step; cleared by progress.
    let mut stuck_recovery = false;
    while iterations < max_iterations {
        if options.shrinking && l > 2 {
            shrink_countdown -= 1;
            if shrink_countdown == 0 {
                shrink_countdown = shrink_period;
                shrink(&mut active, &alpha, &mut gradient, upper, options.eps, q, p, l);
            }
        }
        match select_working_set(q, &alpha, &gradient, upper, options.eps, &active) {
            None => {
                if active.len() == l {
                    converged = true;
                    break;
                }
                // Converged on the shrunk problem only: reconstruct the
                // full gradient, restore every variable and re-check.
                reconstruct_gradient(q, p, &alpha, &mut gradient);
                active = (0..l).collect();
                shrink_countdown = shrink_period;
                if select_working_set(q, &alpha, &gradient, upper, options.eps, &active).is_none() {
                    converged = true;
                    break;
                }
                continue;
            }
            Some((i, j)) => {
                iterations += 1;
                let row_i = q.row(i);
                let row_j = q.row(j);
                let mut quad = q.diag(i) + q.diag(j) - 2.0 * row_i[j];
                if quad <= 0.0 {
                    quad = TAU;
                }
                // Move α_i up and α_j down by t, clipped to the box.
                let t_unclipped = (gradient[j] - gradient[i]) / quad;
                let t = t_unclipped.min(upper - alpha[i]).min(alpha[j]);
                if t <= 0.0 {
                    // The selection invariants (G[j] > G[i], α[i] < U,
                    // α[j] > 0) force t > 0 whenever the gradient entries
                    // behind them are exact, so a non-positive step means
                    // the pair was picked from degraded state. Rebuild the
                    // exact gradient, restore the full active set and let
                    // selection re-check against the true KKT conditions.
                    // If that already happened and the pair still cannot
                    // move, the solver is numerically stuck short of the
                    // stopping tolerance: bail out with `converged` left
                    // false rather than claim an unmet condition holds.
                    if stuck_recovery {
                        break;
                    }
                    stuck_recovery = true;
                    reconstruct_gradient(q, p, &alpha, &mut gradient);
                    active = (0..l).collect();
                    shrink_countdown = shrink_period;
                    continue;
                }
                stuck_recovery = false;
                alpha[i] += t;
                alpha[j] -= t;
                // Snap to the box to stop drift from accumulating.
                if upper - alpha[i] < 1e-15 * upper {
                    alpha[i] = upper;
                }
                if alpha[j] < 1e-15 {
                    alpha[j] = 0.0;
                }
                for &t_idx in &active {
                    gradient[t_idx] += t * (row_i[t_idx] - row_j[t_idx]);
                }
            }
        }
    }

    // Inactive gradient entries are stale; callers derive ρ/R² from the
    // gradient, so make it exact before returning.
    if active.len() != l {
        reconstruct_gradient(q, p, &alpha, &mut gradient);
    }

    // Objective = ½αᵀQα + pᵀα = ½(αᵀG + αᵀp) since G = Qα + p.
    let objective = 0.5
        * alpha
            .iter()
            .zip(gradient.iter().zip(p.iter()))
            .map(|(&a, (&g, &pi))| a * (g + pi))
            .sum::<f64>();

    Solution { alpha, gradient, objective, iterations, converged }
}

/// Second-order working-set selection (LIBSVM WSS 2, specialised to all
/// labels `+1`), restricted to the active set.
///
/// Returns `None` when the maximal KKT violation within the active set is
/// below `eps` (converged) or no feasible pair exists.
fn select_working_set(
    q: &mut PrecomputedQ<'_, '_>,
    alpha: &[f64],
    gradient: &[f64],
    upper: f64,
    eps: f64,
    active: &[usize],
) -> Option<(usize, usize)> {
    // i maximises −G over points that can still increase.
    let mut i = usize::MAX;
    let mut gmax = f64::NEG_INFINITY;
    for &t in active {
        if alpha[t] < upper && -gradient[t] > gmax {
            gmax = -gradient[t];
            i = t;
        }
    }
    if i == usize::MAX {
        return None;
    }

    // Stopping check uses the first-order maximal violating pair.
    let mut gmax2 = f64::NEG_INFINITY;
    for &t in active {
        if alpha[t] > 0.0 && gradient[t] > gmax2 {
            gmax2 = gradient[t];
        }
    }
    if gmax + gmax2 < eps {
        return None;
    }

    // j minimises the second-order objective decrease among decreasable
    // points that actually violate with i.
    let row_i = q.row(i);
    let diag_i = q.diag(i);
    let mut j = usize::MAX;
    let mut best = f64::INFINITY;
    for &t in active {
        if alpha[t] <= 0.0 {
            continue;
        }
        let b = gmax + gradient[t];
        if b <= 0.0 {
            continue;
        }
        let mut a = diag_i + q.diag(t) - 2.0 * row_i[t];
        if a <= 0.0 {
            a = TAU;
        }
        let decrease = -(b * b) / a;
        if decrease < best {
            best = decrease;
            j = t;
        }
    }
    if j == usize::MAX {
        return None;
    }
    Some((i, j))
}

/// Recomputes `G = Qα + p` exactly, touching one kernel row per non-zero
/// multiplier.
fn reconstruct_gradient(
    q: &mut PrecomputedQ<'_, '_>,
    p: &[f64],
    alpha: &[f64],
    gradient: &mut [f64],
) {
    gradient.copy_from_slice(p);
    for (j, &aj) in alpha.iter().enumerate() {
        if aj > 0.0 {
            let row = q.row(j);
            for (g, &qjt) in gradient.iter_mut().zip(row.iter()) {
                *g += aj * qjt;
            }
        }
    }
}

/// LIBSVM's shrinking step: drops variables firmly stuck at a bound from
/// the active set; when the remaining violation is nearly resolved,
/// restores everything (with an exact gradient) so the final convergence
/// check is global.
#[allow(clippy::too_many_arguments)]
fn shrink(
    active: &mut Vec<usize>,
    alpha: &[f64],
    gradient: &mut [f64],
    upper: f64,
    eps: f64,
    q: &mut PrecomputedQ<'_, '_>,
    p: &[f64],
    l: usize,
) {
    let mut gmax1 = f64::NEG_INFINITY; // max −G over α < upper
    let mut gmax2 = f64::NEG_INFINITY; // max  G over α > 0
    for &t in active.iter() {
        if alpha[t] < upper {
            gmax1 = gmax1.max(-gradient[t]);
        }
        if alpha[t] > 0.0 {
            gmax2 = gmax2.max(gradient[t]);
        }
    }
    if gmax1 + gmax2 <= eps * 10.0 && active.len() < l {
        // Almost converged on the shrunk problem: restore the exact global
        // gradient and unshrink so the final iterations run on the full
        // problem (LIBSVM does the same).
        reconstruct_gradient(q, p, alpha, gradient);
        *active = (0..l).collect();
        return;
    }
    // A variable at a bound is shrunk when the gradient pushes it deeper
    // into that bound than any candidate the working-set selection could
    // still pick.
    active.retain(|&t| {
        if alpha[t] >= upper {
            -gradient[t] <= gmax1
        } else if alpha[t] <= 0.0 {
            gradient[t] <= gmax2
        } else {
            true
        }
    });
}

/// Builds the LIBSVM-style feasible starting point: the first `⌊1/U⌋` points
/// receive `α = U`, the next point receives the remainder so that `Σα = 1`.
///
/// Requires `U·l ≥ 1` (otherwise the constraint set is empty); callers
/// validate this before invoking the solver.
pub(crate) fn initial_alpha(l: usize, upper: f64) -> Vec<f64> {
    let mut alpha = vec![0.0; l];
    let full = ((1.0 / upper).floor() as usize).min(l);
    for a in alpha.iter_mut().take(full) {
        *a = upper;
    }
    if full < l {
        alpha[full] = 1.0 - full as f64 * upper;
        // Guard against tiny negative remainders from floating division.
        if alpha[full] < 0.0 {
            alpha[full] = 0.0;
        }
    }
    alpha
}

/// Projects a solution of an adjacent regularization value onto the feasible
/// set of the current one (warm start): clamp each multiplier to the new box
/// `[0, upper]`, then restore `Σα = 1` by greedily adding the deficit to
/// entries with headroom (or removing the excess from positive entries).
///
/// A solver started here reaches the same optimum as one started from
/// [`initial_alpha`] — the problem is convex and the stopping rule
/// unchanged — but typically in far fewer iterations, because adjacent
/// regularization values keep most multipliers at or near the same bounds.
pub(crate) fn seeded_alpha(previous: &[f64], upper: f64) -> Vec<f64> {
    let mut alpha: Vec<f64> = previous.iter().map(|&a| a.clamp(0.0, upper)).collect();
    let sum: f64 = alpha.iter().sum();
    if sum < 1.0 {
        let mut deficit = 1.0 - sum;
        for a in alpha.iter_mut() {
            let add = (upper - *a).min(deficit);
            *a += add;
            deficit -= add;
            if deficit <= 0.0 {
                break;
            }
        }
    } else if sum > 1.0 {
        let mut excess = sum - 1.0;
        for a in alpha.iter_mut() {
            let take = (*a).min(excess);
            *a -= take;
            excess -= take;
            if excess <= 0.0 {
                break;
            }
        }
    }
    alpha
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use crate::sparse::SparseVector;

    fn points(rows: &[&[f64]]) -> Vec<SparseVector> {
        rows.iter().map(|r| SparseVector::from_dense(r)).collect()
    }

    fn solve_kernel(
        kernel: Kernel,
        pts: &[SparseVector],
        scale: f64,
        p: &[f64],
        upper: f64,
    ) -> Solution {
        let gram = GramMatrix::compute(kernel, pts);
        let mut q = PrecomputedQ::pinned(&gram, scale);
        let alpha0 = initial_alpha(pts.len(), upper);
        solve(&mut q, p, upper, alpha0, &SolverOptions::default())
    }

    fn assert_feasible(alpha: &[f64], upper: f64) {
        let sum: f64 = alpha.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum(alpha) = {sum}");
        for (i, &a) in alpha.iter().enumerate() {
            assert!(a >= -1e-12 && a <= upper + 1e-12, "alpha[{i}] = {a} out of [0, {upper}]");
        }
    }

    #[test]
    fn initial_alpha_is_feasible() {
        for &(l, upper) in &[(10usize, 0.3f64), (7, 1.0), (25, 0.05), (3, 0.4)] {
            let alpha = initial_alpha(l, upper);
            assert_feasible(&alpha, upper);
        }
    }

    #[test]
    fn single_point_trivially_converges() {
        let pts = points(&[&[1.0, 2.0]]);
        let sol = solve_kernel(Kernel::Linear, &pts, 1.0, &[0.0], 1.0);
        assert!(sol.converged);
        assert_eq!(sol.alpha, vec![1.0]);
    }

    #[test]
    fn two_symmetric_points_split_mass() {
        // min ½αᵀKα with K = [[1, 0], [0, 1]] (orthogonal unit points):
        // optimum is α = (½, ½), objective ¼.
        let pts = points(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let sol = solve_kernel(Kernel::Linear, &pts, 1.0, &[0.0, 0.0], 1.0);
        assert!(sol.converged);
        assert_feasible(&sol.alpha, 1.0);
        assert!((sol.alpha[0] - 0.5).abs() < 1e-3, "alpha = {:?}", sol.alpha);
        assert!((sol.objective - 0.25).abs() < 1e-3);
    }

    #[test]
    fn asymmetric_points_weight_the_smaller() {
        // K = [[4, 0], [0, 1]]: minimizing ½(4a² + (1−a)²) gives a = 1/5.
        let pts = points(&[&[2.0, 0.0], &[0.0, 1.0]]);
        let sol = solve_kernel(Kernel::Linear, &pts, 1.0, &[0.0, 0.0], 1.0);
        assert!(sol.converged);
        assert!((sol.alpha[0] - 0.2).abs() < 1e-3, "alpha = {:?}", sol.alpha);
    }

    #[test]
    fn box_constraint_is_respected() {
        // Same as above but upper = 0.6 forces alpha[1] to its bound
        // (unconstrained optimum wants alpha[1] = 0.8).
        let pts = points(&[&[2.0, 0.0], &[0.0, 1.0]]);
        let sol = solve_kernel(Kernel::Linear, &pts, 1.0, &[0.0, 0.0], 0.6);
        assert!(sol.converged);
        assert_feasible(&sol.alpha, 0.6);
        assert!((sol.alpha[1] - 0.6).abs() < 1e-6, "alpha = {:?}", sol.alpha);
    }

    #[test]
    fn objective_never_worse_than_start() {
        let pts = points(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0], &[0.5, 0.5]]);
        let upper = 0.5;
        let p = vec![0.0; 4];
        let gram = GramMatrix::compute(Kernel::Rbf { gamma: 1.0 }, &pts);
        let mut q = PrecomputedQ::pinned(&gram, 1.0);
        let alpha0 = initial_alpha(4, upper);
        // Start objective.
        let start: f64 = {
            let mut obj = 0.0;
            for i in 0..4 {
                let row = q.row(i);
                for j in 0..4 {
                    obj += 0.5 * alpha0[i] * alpha0[j] * row[j];
                }
            }
            obj
        };
        let sol = solve(&mut q, &p, upper, alpha0, &SolverOptions::default());
        assert!(sol.converged);
        assert!(sol.objective <= start + 1e-12, "objective {} > start {start}", sol.objective);
    }

    #[test]
    fn kkt_conditions_hold_at_optimum() {
        // At the optimum, with rho = G_i for free SVs:
        //   α = 0      ⇒ G_i ≥ rho − eps
        //   α = upper  ⇒ G_i ≤ rho + eps
        let pts =
            points(&[&[1.0, 0.2], &[0.8, 0.3], &[0.9, 0.1], &[0.0, 2.0], &[0.1, 1.9], &[0.5, 0.5]]);
        let upper = 0.4;
        let p = vec![0.0; pts.len()];
        let sol = solve_kernel(Kernel::Rbf { gamma: 0.8 }, &pts, 1.0, &p, upper);
        assert!(sol.converged);
        assert_feasible(&sol.alpha, upper);
        let free: Vec<usize> = (0..pts.len())
            .filter(|&i| sol.alpha[i] > 1e-9 && sol.alpha[i] < upper - 1e-9)
            .collect();
        if free.is_empty() {
            return; // stopping condition trivially satisfied via bounds
        }
        let rho: f64 = free.iter().map(|&i| sol.gradient[i]).sum::<f64>() / free.len() as f64;
        let eps = 2e-3;
        for i in 0..pts.len() {
            if sol.alpha[i] <= 1e-9 {
                assert!(sol.gradient[i] >= rho - eps, "G[{i}]={} rho={rho}", sol.gradient[i]);
            } else if sol.alpha[i] >= upper - 1e-9 {
                assert!(sol.gradient[i] <= rho + eps, "G[{i}]={} rho={rho}", sol.gradient[i]);
            }
        }
    }

    #[test]
    fn linear_term_shifts_solution() {
        // With identical points, p decides: mass flows to the most negative p.
        let pts = points(&[&[1.0], &[1.0], &[1.0]]);
        let p = vec![0.0, -5.0, 0.0];
        let sol = solve_kernel(Kernel::Linear, &pts, 1.0, &p, 1.0);
        assert!(sol.converged);
        assert!(sol.alpha[1] > 0.99, "alpha = {:?}", sol.alpha);
    }

    #[test]
    fn iteration_cap_reports_non_convergence() {
        let pts = points(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5], &[0.2, 0.8]]);
        let gram = GramMatrix::compute(Kernel::Rbf { gamma: 2.0 }, &pts);
        let mut q = PrecomputedQ::pinned(&gram, 1.0);
        let options = SolverOptions { max_iterations: Some(0), ..Default::default() };
        let alpha0 = initial_alpha(4, 0.3);
        let sol = solve(&mut q, &[0.0; 4], 0.3, alpha0, &options);
        assert!(!sol.converged);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn shrinking_matches_unshrunk_solution() {
        // A larger problem with many variables stuck at bounds (small nu
        // upper bound) so shrinking actually triggers.
        let pts: Vec<SparseVector> = (0..120)
            .map(|i| {
                let a = ((i * 37) % 101) as f64 / 101.0;
                let b = ((i * 53 + 17) % 101) as f64 / 101.0;
                SparseVector::from_dense(&[a, b, (i % 5) as f64 * 0.1])
            })
            .collect();
        let upper = 1.0 / (0.2 * pts.len() as f64);
        let p = vec![0.0; pts.len()];
        let solve_with = |shrinking: bool| {
            let gram = GramMatrix::compute(Kernel::Rbf { gamma: 1.5 }, &pts);
            let mut q = PrecomputedQ::pinned(&gram, 1.0);
            let options = SolverOptions { eps: 1e-6, shrinking, ..Default::default() };
            let alpha0 = initial_alpha(pts.len(), upper);
            solve(&mut q, &p, upper, alpha0, &options)
        };
        let with = solve_with(true);
        let without = solve_with(false);
        assert!(with.converged && without.converged);
        assert!(
            (with.objective - without.objective).abs() < 1e-6,
            "objectives differ: {} vs {}",
            with.objective,
            without.objective
        );
        // Gradients must both be exact (shrinking reconstructs at exit).
        for t in 0..pts.len() {
            assert!(
                (with.gradient[t] - without.gradient[t]).abs() < 1e-4,
                "gradient[{t}] differs: {} vs {}",
                with.gradient[t],
                without.gradient[t]
            );
        }
    }

    #[test]
    fn shrinking_final_gradient_is_exact() {
        // Independently recompute G = Qα at the returned solution.
        let pts: Vec<SparseVector> = (0..60)
            .map(|i| SparseVector::from_dense(&[(i % 7) as f64 * 0.3, (i % 11) as f64 * 0.15]))
            .collect();
        let upper = 1.0 / (0.3 * pts.len() as f64);
        let p = vec![0.0; pts.len()];
        let gram = GramMatrix::compute(Kernel::Rbf { gamma: 0.7 }, &pts);
        let mut q = PrecomputedQ::pinned(&gram, 1.0);
        let options = SolverOptions { eps: 1e-5, shrinking: true, ..Default::default() };
        let alpha0 = initial_alpha(pts.len(), upper);
        let sol = solve(&mut q, &p, upper, alpha0, &options);
        for t in 0..pts.len() {
            let expected: f64 = (0..pts.len())
                .map(|j| sol.alpha[j] * Kernel::Rbf { gamma: 0.7 }.compute(&pts[j], &pts[t]))
                .sum();
            assert!(
                (sol.gradient[t] - expected).abs() < 1e-9,
                "stale gradient at {t}: {} vs {expected}",
                sol.gradient[t]
            );
        }
    }

    #[test]
    fn unpinned_budgeted_rows_match_pinned_rows_exactly() {
        // Plain `train`'s unpinned, budget-evicting path must feed the
        // solver the same Q entries as a pinned solve over a shared matrix,
        // so the whole trajectory — α, gradient, objective, iteration
        // count — is bit-identical.
        let pts: Vec<SparseVector> = (0..40)
            .map(|i| {
                SparseVector::from_dense(&[
                    ((i * 37) % 101) as f64 / 101.0,
                    ((i * 53 + 17) % 101) as f64 / 101.0,
                    (i % 5) as f64 * 0.2,
                ])
            })
            .collect();
        let kernels = [
            Kernel::Linear,
            Kernel::Rbf { gamma: 1.3 },
            Kernel::Polynomial { gamma: 0.5, coef0: 1.0, degree: 3 },
            Kernel::Sigmoid { gamma: 0.2, coef0: -0.5 },
        ];
        for kernel in kernels {
            for scale in [1.0, 2.0] {
                let l = pts.len();
                let upper = 1.0 / (0.3 * l as f64);
                // SVDD-style linear term for scale 2, zero otherwise.
                let p: Vec<f64> = if scale == 2.0 {
                    pts.iter().map(|x| -kernel.compute_self(x)).collect()
                } else {
                    vec![0.0; l]
                };
                let options = SolverOptions::default();
                // A two-row private arena (plain `train`'s floor) evicts on
                // nearly every access; a pinned solve never recomputes.
                let private = GramMatrix::private(kernel, &pts, 2 * l * 8);
                let mut unpinned = PrecomputedQ::unpinned(&private, scale);
                let direct = solve(&mut unpinned, &p, upper, initial_alpha(l, upper), &options);
                let stats = private.arena().stats();
                assert!(stats.evictions > 0, "{kernel:?} scale {scale}");
                assert!(stats.bytes <= stats.budget, "{kernel:?} scale {scale}");
                let gram = GramMatrix::compute(kernel, &pts);
                let mut pinned = PrecomputedQ::pinned(&gram, scale);
                let shared = solve(&mut pinned, &p, upper, initial_alpha(l, upper), &options);
                assert_eq!(direct.converged, shared.converged, "{kernel:?} scale {scale}");
                assert_eq!(
                    direct.iterations, shared.iterations,
                    "{kernel:?} scale {scale}: trajectories diverged"
                );
                assert_eq!(direct.alpha, shared.alpha, "{kernel:?} scale {scale}");
                assert_eq!(direct.gradient, shared.gradient, "{kernel:?} scale {scale}");
                assert_eq!(direct.objective, shared.objective, "{kernel:?} scale {scale}");
            }
        }
    }

    #[test]
    fn pinned_solve_counts_zero_copy_hits() {
        let pts = points(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5], &[0.3, 0.7]]);
        let gram = GramMatrix::compute(Kernel::Rbf { gamma: 1.0 }, &pts);
        // Scale 1: every row access is a zero-copy hit.
        let mut q1 = PrecomputedQ::pinned(&gram, 1.0);
        let _ = solve(&mut q1, &[0.0; 4], 0.3, initial_alpha(4, 0.3), &SolverOptions::default());
        let (hits, misses) = q1.cache_stats();
        assert!(hits > 0);
        assert_eq!(misses, 0, "scale-1 rows must be shared zero-copy");
        // Scale 2: each scaled row is materialized at most once.
        let mut q2 = PrecomputedQ::pinned(&gram, 2.0);
        let p: Vec<f64> = (0..4).map(|i| -q2.kernel_diag(i)).collect();
        let _ = solve(&mut q2, &p, 0.5, initial_alpha(4, 0.5), &SolverOptions::default());
        let (_, misses2) = q2.cache_stats();
        assert!(misses2 <= 4, "each scaled row materialized at most once, got {misses2}");
        // A repeated request is served from the memoized scaled row.
        let _ = q2.row(0);
        let (hits_before, misses_before) = q2.cache_stats();
        let _ = q2.row(0);
        assert_eq!(q2.cache_stats(), (hits_before + 1, misses_before));
    }

    #[test]
    fn convergence_flag_is_truthful_under_stress() {
        // Regression for the old stuck-pair exit, which set `converged =
        // true` without re-checking the KKT conditions: whenever the solver
        // reports convergence, the maximal violating pair — measured on an
        // independently recomputed, exact gradient — must be within eps.
        // Exercised across shrinking, a non-PSD kernel and duplicate-heavy
        // data (the TAU-floored denominators most likely to misbehave).
        let mut datasets: Vec<Vec<SparseVector>> = Vec::new();
        datasets.push(
            (0..90)
                .map(|i| {
                    SparseVector::from_dense(&[
                        ((i * 41) % 97) as f64 / 97.0,
                        ((i * 59 + 13) % 97) as f64 / 97.0,
                    ])
                })
                .collect(),
        );
        // Heavy duplication: only 4 distinct points among 80.
        datasets.push((0..80).map(|i| SparseVector::from_dense(&[(i % 4) as f64, 1.0])).collect());
        let kernels = [Kernel::Rbf { gamma: 2.0 }, Kernel::Sigmoid { gamma: 0.3, coef0: -1.0 }];
        for pts in &datasets {
            for kernel in kernels {
                for nu in [0.1, 0.5] {
                    let l = pts.len();
                    let upper = 1.0 / (nu * l as f64);
                    let p = vec![0.0; l];
                    let options =
                        SolverOptions { eps: 1e-5, shrinking: true, ..Default::default() };
                    let gram = GramMatrix::compute(kernel, pts);
                    let mut q = PrecomputedQ::pinned(&gram, 1.0);
                    let sol = solve(&mut q, &p, upper, initial_alpha(l, upper), &options);
                    if !sol.converged {
                        continue;
                    }
                    // Exact gradient, recomputed from scratch.
                    let gradient: Vec<f64> = (0..l)
                        .map(|t| {
                            (0..l)
                                .map(|j| sol.alpha[j] * kernel.compute(&pts[j], &pts[t]))
                                .sum::<f64>()
                        })
                        .collect();
                    let mut gmax = f64::NEG_INFINITY;
                    let mut gmax2 = f64::NEG_INFINITY;
                    for (&a, &g) in sol.alpha.iter().zip(&gradient) {
                        if a < upper {
                            gmax = gmax.max(-g);
                        }
                        if a > 0.0 {
                            gmax2 = gmax2.max(g);
                        }
                    }
                    assert!(
                        gmax + gmax2 < options.eps + 1e-9,
                        "{kernel:?} nu={nu}: converged=true but KKT violation {}",
                        gmax + gmax2
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_alpha_is_feasible_in_both_directions() {
        // Shrinking box: previous solution had a larger upper bound.
        let previous = [0.5, 0.5, 0.0, 0.0];
        for upper in [0.3, 0.5, 0.9] {
            let alpha = seeded_alpha(&previous, upper);
            assert_feasible(&alpha, upper);
        }
        // Growing box from a fully saturated solution.
        let saturated = [0.25, 0.25, 0.25, 0.25];
        let alpha = seeded_alpha(&saturated, 1.0);
        assert_feasible(&alpha, 1.0);
        // A degraded seed (sum drifted above 1) is repaired too.
        let drifted = [0.7, 0.7, 0.0, 0.0];
        let alpha = seeded_alpha(&drifted, 0.8);
        assert_feasible(&alpha, 0.8);
    }

    #[test]
    fn seeded_solve_reaches_cold_start_objective() {
        let pts: Vec<SparseVector> = (0..50)
            .map(|i| {
                SparseVector::from_dense(&[
                    ((i * 37) % 101) as f64 / 101.0,
                    ((i * 53 + 17) % 101) as f64 / 101.0,
                ])
            })
            .collect();
        let kernel = Kernel::Rbf { gamma: 1.2 };
        let l = pts.len();
        let p = vec![0.0; l];
        let options = SolverOptions { eps: 1e-6, ..Default::default() };
        let mut previous: Option<Vec<f64>> = None;
        for nu in [0.9, 0.7, 0.5, 0.3, 0.1] {
            let upper = 1.0 / (nu * l as f64);
            let gram_cold = GramMatrix::compute(kernel, &pts);
            let mut q_cold = PrecomputedQ::pinned(&gram_cold, 1.0);
            let cold = solve(&mut q_cold, &p, upper, initial_alpha(l, upper), &options);
            let seed = match &previous {
                Some(alpha) => seeded_alpha(alpha, upper),
                None => initial_alpha(l, upper),
            };
            assert_feasible(&seed, upper);
            let gram_warm = GramMatrix::compute(kernel, &pts);
            let mut q_warm = PrecomputedQ::pinned(&gram_warm, 1.0);
            let warm = solve(&mut q_warm, &p, upper, seed, &options);
            assert!(cold.converged && warm.converged, "nu = {nu}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "nu = {nu}: warm objective {} vs cold {}",
                warm.objective,
                cold.objective
            );
            previous = Some(warm.alpha);
        }
    }

    #[test]
    fn unpinned_solve_reports_its_private_arena() {
        let pts = points(&[&[1.0, 0.0], &[0.0, 1.0], &[0.5, 0.5], &[0.3, 0.7], &[0.9, 0.1]]);
        let gram = GramMatrix::private(Kernel::Rbf { gamma: 1.0 }, &pts, 1 << 20);
        let mut q = PrecomputedQ::unpinned(&gram, 1.0);
        let alpha0 = initial_alpha(5, 0.25);
        let _ = solve(&mut q, &[0.0; 5], 0.25, alpha0, &SolverOptions::default());
        let (hits, misses) = q.cache_stats();
        assert!(misses <= 5, "each row computed at most once, misses = {misses}");
        assert!(hits > 0, "solver revisits rows");
    }
}
