//! The trained one-class model.
//!
//! Both classifiers of the paper solve the same dual (`Σα = 1`, a box on
//! every `αᵢ`), so once trained both score a sample through the same kernel
//! sum `s = Σᵢ αᵢ·k(svᵢ, x)`. They differ only in the [`Boundary`] that
//! turns `s` into a decision value: the ν-OC-SVM hyperplane (Eq. 6) or the
//! SVDD sphere (Eq. 12). [`OneClassModel`] builds the sums once per scoring
//! path — per point, per probe batch or panel, and over shared Gram rows —
//! and hands every sum to that one boundary.

use crate::gram::GramMatrix;
use crate::kernel::Kernel;
use crate::panel::{kernel_cross_row_into, ProbePanel};
use crate::smo::Solution;
use crate::sparse::SparseVector;
use std::ops::Range;

/// How a trained model turns its kernel sum `s = Σᵢ αᵢ·k(svᵢ, x)` into a
/// decision value (`>= 0` accepts).
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Boundary {
    /// The ν-OC-SVM hyperplane (Eq. 6): `s − ρ`.
    Hyperplane {
        /// The margin offset `ρ`.
        rho: f64,
    },
    /// The SVDD hypersphere (Eq. 12): `R² − ‖Φ(x) − a‖²`, where
    /// `‖Φ(x) − a‖² = k(x, x) − 2s + αᵀKα`.
    Sphere {
        /// The squared radius `R²` (Eq. 11).
        r_squared: f64,
        /// The constant `αᵀKα = Σᵢⱼ αᵢαⱼ k(xᵢ, xⱼ)`.
        alpha_k_alpha: f64,
    },
}

impl Boundary {
    /// The decision value for kernel sum `s`; `k_self` yields `k(x, x)`,
    /// which only the sphere reads.
    fn decide(self, s: f64, k_self: impl FnOnce() -> f64) -> f64 {
        match self {
            Boundary::Hyperplane { rho } => s - rho,
            Boundary::Sphere { r_squared, alpha_k_alpha } => {
                r_squared - (k_self() - 2.0 * s + alpha_k_alpha)
            }
        }
    }

    /// The decision value for an upper bound `s` on the kernel sum, with
    /// the scale of the terms it sums (`s_scale` for `s` itself).
    fn bound(self, s: f64, s_scale: f64, k_self: f64) -> (f64, f64) {
        let scale = match self {
            Boundary::Hyperplane { rho } => s_scale + rho.abs(),
            Boundary::Sphere { r_squared, alpha_k_alpha } => {
                r_squared.abs() + k_self.abs() + 2.0 * s_scale + alpha_k_alpha.abs()
            }
        };
        (self.decide(s, || k_self), scale)
    }
}

/// A trained one-class model: support vectors with their multipliers and
/// the [`Boundary`] of the classifier family that trained them.
///
/// [`NuOcSvm`](crate::NuOcSvm) trains a [`Boundary::Hyperplane`] model and
/// [`Svdd`](crate::Svdd) a [`Boundary::Sphere`] model; every scoring path
/// is the same for both (the paper compares the two families throughout
/// Sect. V).
///
/// # Examples
///
/// ```
/// use ocsvm::{Boundary, Kernel, NuOcSvm, SparseVector, Svdd};
///
/// let train: Vec<SparseVector> =
///     (0..20).map(|i| SparseVector::from_dense(&[1.0, (i % 3) as f64 * 0.01])).collect();
/// let ocsvm = NuOcSvm::new(0.1, Kernel::Linear).train(&train)?;
/// let svdd = Svdd::new(0.5, Kernel::Linear).train(&train)?;
/// assert!(matches!(ocsvm.boundary(), Boundary::Hyperplane { .. }));
/// assert!(matches!(svdd.boundary(), Boundary::Sphere { .. }));
/// for model in [ocsvm, svdd] {
///     assert!(model.accepts(&SparseVector::from_dense(&[1.0, 0.01])));
/// }
/// # Ok::<(), ocsvm::TrainError>(())
/// ```
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OneClassModel {
    pub(crate) support: SupportVectorSet,
    pub(crate) boundary: Boundary,
    /// `ν` (OC-SVM) or `C` (SVDD).
    pub(crate) regularization: f64,
    pub(crate) diagnostics: TrainDiagnostics,
}

impl OneClassModel {
    /// Assembles a freshly solved model from the full multiplier vector
    /// over `points`.
    pub(crate) fn trained(
        points: &[SparseVector],
        solution: &Solution,
        kernel: Kernel,
        boundary: Boundary,
        regularization: f64,
        (cache_hits, cache_misses): (u64, u64),
    ) -> Self {
        let support = SupportVectorSet::from_solution(points, &solution.alpha, kernel);
        let diagnostics = TrainDiagnostics {
            iterations: solution.iterations,
            converged: solution.converged,
            objective: solution.objective,
            train_size: points.len(),
            support_vectors: support.len(),
            cache_hits,
            cache_misses,
        };
        Self { support, boundary, regularization, diagnostics }
    }

    /// The decision boundary (and with it the classifier family).
    pub fn boundary(&self) -> Boundary {
        self.boundary
    }

    /// The regularization the model was trained with: `ν` for a
    /// hyperplane, `C` for a sphere.
    pub fn regularization(&self) -> f64 {
        self.regularization
    }

    /// Signed decision value; `>= 0` means the sample is accepted as
    /// belonging to the modeled class.
    pub fn decision_value(&self, x: &SparseVector) -> f64 {
        let s = self.support.weighted_kernel_sum(x);
        self.boundary.decide(s, || self.support.kernel.compute_self(x))
    }

    /// Whether the sample is accepted (decision value `>= 0`), matching the
    /// `sgn` convention of the paper's Eq. (4)/(12).
    pub fn accepts(&self, x: &SparseVector) -> bool {
        self.decision_value(x) >= 0.0
    }

    /// Number of support vectors retained by the model.
    pub fn support_vector_count(&self) -> usize {
        self.support.len()
    }

    /// The kernel the model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.support.kernel
    }

    /// Training diagnostics (iterations, convergence, cache behaviour).
    pub fn diagnostics(&self) -> TrainDiagnostics {
        self.diagnostics
    }

    /// The affine decision terms of a linear-kernel model, or `None` for
    /// non-linear kernels. With the collapsed `w = Σᵢ αᵢxᵢ`, a hyperplane
    /// has `weights = w`, `bias = −ρ`; a sphere with center `a = w` expands
    /// `R² − ‖x − a‖²` to `(2a)·x + (R² − ‖a‖²) − ‖x‖²`, so
    /// `weights = 2a`, `bias = R² − αᵀKα` and
    /// [`subtracts_probe_norm`](LinearDecisionTerms::subtracts_probe_norm)
    /// is set. See [`LinearDecisionTerms`].
    pub fn linear_decision_terms(&self) -> Option<LinearDecisionTerms> {
        let w = self.support.collapsed.as_ref()?;
        Some(match self.boundary {
            Boundary::Hyperplane { rho } => {
                LinearDecisionTerms { weights: w.clone(), bias: -rho, subtracts_probe_norm: false }
            }
            Boundary::Sphere { r_squared, alpha_k_alpha } => LinearDecisionTerms {
                weights: w.scaled(2.0),
                bias: r_squared - alpha_k_alpha,
                subtracts_probe_norm: true,
            },
        })
    }

    /// A sound upper bound on this model's decision value that one walk
    /// over a probe's non-zero columns evaluates (see [`DecisionBound`]).
    /// Linear models export their exact affine terms; non-linear models a
    /// chord (RBF, polynomial) or Jensen (sigmoid) bound on the kernel
    /// sum, or an unbounded marker outside the domain where that bound is
    /// proven.
    pub fn decision_bound(&self) -> DecisionBound {
        match self.linear_decision_terms() {
            Some(terms) => DecisionBound {
                weights: terms.weights,
                extent: SparseVector::new(),
                shape: BoundShape::Affine {
                    bias: terms.bias,
                    subtracts_probe_norm: terms.subtracts_probe_norm,
                },
            },
            None => self.support.kernel_sum_bound(self.boundary),
        }
    }

    /// Serializes the model in the crate's binary format (OCSV).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write_to<W: std::io::Write>(&self, writer: &mut W) -> std::io::Result<()> {
        crate::persist::write_model(writer, self)
    }

    /// Deserializes a model written by [`OneClassModel::write_to`]; the
    /// stream's kind byte selects the boundary.
    ///
    /// # Errors
    ///
    /// `InvalidData` for wrong magic/version/kind or a corrupt stream;
    /// other I/O errors from the reader.
    pub fn read_from<R: std::io::Read>(reader: &mut R) -> std::io::Result<OneClassModel> {
        crate::persist::read_model(reader)
    }

    /// Decision values for a whole probe micro-batch, amortizing kernel
    /// work over the batch: non-linear kernels pack the probes once into a
    /// [`ProbePanel`] and score it like
    /// [`panel_decision_values`](Self::panel_decision_values); the linear
    /// kernel collapses into one dense-weight pass
    /// ([`LinearBatchScorer::weighted_sums`]).
    ///
    /// Every value is bit-identical to
    /// [`decision_value`](Self::decision_value) on the same probe. Unlike
    /// [`training_decision_values`](Self::training_decision_values) this
    /// needs no training-set indices, so it also works for deserialized
    /// models.
    pub fn batch_decision_values(&self, probes: &[&SparseVector]) -> Vec<f64> {
        self.decide_all(probes, self.support.batch_weighted_kernel_sums(probes))
    }

    /// Decision values for every probe of an already-packed panel, in
    /// packing order, bit-identical to
    /// [`decision_value`](Self::decision_value) per probe. The linear
    /// kernel runs one dense GEMV over the panel
    /// ([`LinearBatchScorer::weighted_sums_panel`]); the others add
    /// `αᵢ·k(svᵢ, ·)` one support vector at a time.
    pub fn panel_decision_values(&self, panel: &ProbePanel) -> Vec<f64> {
        self.decide_all(panel.probes(), self.support.panel_weighted_kernel_sums(panel))
    }

    fn decide_all(&self, probes: &[&SparseVector], sums: Vec<f64>) -> Vec<f64> {
        let kernel = self.support.kernel;
        probes
            .iter()
            .zip(sums)
            .map(|(p, s)| self.boundary.decide(s, || kernel.compute_self(p)))
            .collect()
    }

    /// Whether the model accepts each probe of `panel`, in packing order:
    /// exactly `decision_value(p) >= 0.0` per probe (see
    /// [`panel_acceptance_counted`](Self::panel_acceptance_counted)).
    pub fn panel_acceptance(&self, panel: &ProbePanel) -> Vec<bool> {
        self.panel_acceptance_counted(panel, 0..0).0
    }

    /// [`panel_acceptance`](Self::panel_acceptance) for every probe outside
    /// the packing-order range `skip`, with the number of those probes the
    /// [`DecisionBound`] left to exact scoring — `None` for a linear model,
    /// which scores every probe through one GEMV of its collapsed weight
    /// vector and has no use for the bound. Probes in `skip` are neither
    /// bound-checked nor scored, and read `false`.
    ///
    /// A non-linear model reads its bound's `⟨x, weights⟩` and
    /// `⟨x, extent⟩` for every probe from two [`ProbePanel::dot_into`]
    /// passes. A probe the bound rejects is certainly rejected; one it
    /// admits — or one with a negative or NaN entry, where the bound is
    /// not proven — is scored against the model's support vectors, packed
    /// into one panel: [`kernel_cross_row_into`] yields `k(x, svᵢ)`, bit
    /// for bit `k(svᵢ, x)` (the sparse dot and squared distance are
    /// symmetric), summed in support-vector order like
    /// [`decision_value`](Self::decision_value).
    pub fn panel_acceptance_counted(
        &self,
        panel: &ProbePanel,
        skip: Range<usize>,
    ) -> (Vec<bool>, Option<usize>) {
        if self.support.collapsed.is_some() {
            let values = self.panel_decision_values(panel);
            let accepted =
                values.iter().enumerate().map(|(j, &v)| !skip.contains(&j) && v >= 0.0).collect();
            return (accepted, None);
        }
        let bound = self.decision_bound();
        let mut dots = vec![0.0; panel.probe_count()];
        let mut extent_dots = vec![0.0; panel.probe_count()];
        panel.dot_into(&bound.weights, &mut dots);
        panel.dot_into(&bound.extent, &mut extent_dots);

        let kernel = self.support.kernel;
        let support: Vec<&SparseVector> = self.support.vectors.iter().collect();
        let support = ProbePanel::pack(&support);
        let mut row = vec![0.0; support.probe_count()];
        let mut scored = 0;
        let accepted = panel
            .probes()
            .iter()
            .zip(panel.squared_norms())
            .zip(dots.iter().zip(&extent_dots))
            .enumerate()
            .map(|(j, ((&x, &squared_norm), (&dot, &extent_dot)))| {
                if skip.contains(&j) {
                    return false;
                }
                // Non-negative weights: the bound's magnitude is its dot.
                let proven = x.iter().all(|(_, v)| v >= 0.0);
                if proven && !bound.admits(dot, dot, extent_dot, squared_norm) {
                    return false;
                }
                scored += 1;
                kernel_cross_row_into(kernel, x, &support, &mut row);
                let s = row.iter().zip(&self.support.alpha).map(|(&k, &a)| a * k).sum();
                self.boundary.decide(s, || kernel.compute_self(x)) >= 0.0
            })
            .collect();
        (accepted, Some(scored))
    }

    /// Decision values over the *training set*, read from the shared
    /// [`GramMatrix`] the model was (or could have been) trained with —
    /// no kernel evaluations are performed beyond the matrix's lazily
    /// materialized rows (a sphere's probe self-kernels come from the
    /// matrix diagonal).
    ///
    /// For non-linear kernels the values are bit-identical to calling
    /// [`decision_value`](Self::decision_value) on each training point;
    /// for the linear kernel they agree up to floating-point association
    /// (the on-the-fly path uses a collapsed weight vector).
    ///
    /// Returns `None` when the model was deserialized without its training
    /// indices or `gram` does not match the model's kernel and
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
                .map(|(j, s)| self.boundary.decide(s, || gram.diag_value(j)))
                .collect(),
        )
    }
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
    /// the whole batch: the linear kernel goes through a
    /// [`LinearBatchScorer`] built from the collapsed weight vector, which
    /// picks the sparse walk or a packed GEMV by batch density; the others
    /// pack the batch once into a [`ProbePanel`] and run
    /// [`panel_weighted_kernel_sums`](Self::panel_weighted_kernel_sums).
    /// Every value is bit-identical to [`Self::weighted_kernel_sum`].
    ///
    /// Unlike the training-set row paths this needs no training indices, so
    /// it works for deserialized models too.
    pub(crate) fn batch_weighted_kernel_sums(&self, probes: &[&SparseVector]) -> Vec<f64> {
        match &self.collapsed {
            Some(w) => LinearBatchScorer::from_collapsed(w).weighted_sums(probes),
            None => self.panel_weighted_kernel_sums(&ProbePanel::pack(probes)),
        }
    }

    /// `Σᵢ αᵢ·k(svᵢ, pⱼ)` for every probe of `panel`, bit-identical to
    /// [`Self::weighted_kernel_sum`] per probe.
    ///
    /// The linear kernel runs one dense GEMV of the collapsed weight vector
    /// over the panel ([`LinearBatchScorer::weighted_sums_panel`]), which
    /// adds exactly the products the sparse merge dot adds, in the same
    /// (column-ascending) order. The other kernels add `αᵢ·k(svᵢ, ·)` one
    /// support vector at a time, reusing one row buffer — no per-row
    /// allocation, no row cache. The sums start at the identity
    /// `Iterator::sum` folds from and add the same terms in the same
    /// (support-vector) order as the per-point sum.
    pub(crate) fn panel_weighted_kernel_sums(&self, panel: &ProbePanel) -> Vec<f64> {
        if let Some(w) = &self.collapsed {
            return LinearBatchScorer::from_collapsed(w).weighted_sums_panel(panel);
        }
        let identity: f64 = std::iter::empty::<f64>().sum();
        let mut sums = vec![identity; panel.probe_count()];
        let mut row = vec![0.0; panel.probe_count()];
        for (sv, &a) in self.vectors.iter().zip(&self.alpha) {
            crate::panel::kernel_cross_row_into(self.kernel, sv, panel, &mut row);
            for (s, &k) in sums.iter_mut().zip(&row) {
                *s += a * k;
            }
        }
        sums
    }

    pub(crate) fn len(&self) -> usize {
        self.vectors.len()
    }

    /// The [`DecisionBound`] of a non-linear kernel sum under `boundary`,
    /// or [`BoundShape::Unbounded`] outside the proven domain: a negative
    /// or non-finite support-vector entry or multiplier, `γ < 0`,
    /// `coef0 < 0` (polynomial, sigmoid), a degree past `i32::MAX`, or an
    /// RBF support vector whose `γ‖svᵢ‖²` exceeds [`EXP_LIMIT`].
    fn kernel_sum_bound(&self, boundary: Boundary) -> DecisionBound {
        let unbounded = DecisionBound {
            weights: SparseVector::new(),
            extent: SparseVector::new(),
            shape: BoundShape::Unbounded,
        };
        let non_negative = |v: f64| v.is_finite() && v >= 0.0;
        if !self.alpha.iter().all(|&a| non_negative(a))
            || !self.vectors.iter().all(|sv| sv.iter().all(|(_, v)| non_negative(v)))
        {
            return unbounded;
        }
        // Σᵢ scaleᵢ·svᵢ, summed like the linear kernel's collapsed vector.
        let weighted = |scale: &[f64]| {
            let mut builder = crate::sparse::SparseVectorBuilder::new();
            for (sv, &a) in self.vectors.iter().zip(scale) {
                for (column, value) in sv.iter() {
                    builder.add(column, a * value);
                }
            }
            builder.build_summed()
        };
        let alpha_sum: f64 = self.alpha.iter().sum();
        let (weights, extent, shape) = match self.kernel {
            Kernel::Rbf { gamma } if non_negative(gamma) => {
                let norms: Vec<f64> = self.vectors.iter().map(SparseVector::squared_norm).collect();
                let max_sv_norm = norms.iter().copied().fold(0.0, f64::max);
                // A NaN exponent (0·∞) propagates into a NaN bound, which
                // admits every probe.
                if gamma * max_sv_norm > EXP_LIMIT {
                    return unbounded;
                }
                // αᵢ·wᵢ with wᵢ = e^{−γ‖svᵢ‖²}.
                let scale: Vec<f64> =
                    norms.iter().zip(&self.alpha).map(|(&n, &a)| a * (-gamma * n).exp()).collect();
                let weight_sum = scale.iter().sum();
                let shape = BoundShape::Rbf { gamma, weight_sum, max_sv_norm, boundary };
                (weighted(&scale), self.column_max(), shape)
            }
            Kernel::Polynomial { gamma, coef0, degree }
                if non_negative(gamma) && non_negative(coef0) && degree <= i32::MAX as u32 =>
            {
                let degree = degree as i32;
                let shape = BoundShape::Polynomial { gamma, coef0, degree, alpha_sum, boundary };
                (weighted(&self.alpha), self.column_max(), shape)
            }
            Kernel::Sigmoid { gamma, coef0 } if non_negative(gamma) && non_negative(coef0) => {
                let shape = BoundShape::Sigmoid { gamma, coef0, alpha_sum, boundary };
                (weighted(&self.alpha), SparseVector::new(), shape)
            }
            _ => return unbounded,
        };
        DecisionBound { weights, extent, shape }
    }

    /// The column-wise maximum `m` of the support vectors, so that
    /// `⟨x, svᵢ⟩ ≤ ⟨x, m⟩` for every `x ≥ 0`.
    fn column_max(&self) -> SparseVector {
        let mut entries: Vec<(u32, f64)> = self.vectors.iter().flat_map(|sv| sv.iter()).collect();
        entries.sort_by_key(|&(column, _)| column);
        entries.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.max(next.1);
            }
            same
        });
        SparseVector::from_pairs(entries).expect("sorted, deduplicated columns")
    }
}

/// The affine part of a linear-kernel model's decision function, and the
/// linear case of its [`DecisionBound`]: `decision(x) = weights·x + bias −
/// ‖x‖²·[subtracts probe norm]`.
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

/// Largest exponent the factored RBF bound evaluates. Beyond it
/// `e^{−γ‖x‖²}`, `e^{−γ‖svᵢ‖²}` or `e^{2γT}` could under- or overflow, so
/// the bound admits the probe (or, for a support vector, the model is left
/// unbounded) instead.
const EXP_LIMIT: f64 = 700.0;

/// Relative slack of [`DecisionBound::admits`]. The bound and the exact
/// decision sum the same few hundred terms in different orders, through at
/// most a few hundred ulps of exponent (`γ‖x‖²` and friends are folded into
/// the slack's scale), so they differ by ~`n·ε` of that scale (≈ 2e-13 at
/// the paper's 843 columns); `1e-9` leaves three orders of magnitude of
/// headroom while still pruning everything that rejects by a real margin.
const MARGIN_EPS: f64 = 1e-9;

/// A sound upper bound on a trained model's decision value that reads a
/// non-negative probe `x` only through two inner products, so a candidate
/// prefilter evaluates it for every model in one walk over the probe's
/// non-zero columns ([`OneClassModel::decision_bound`]).
///
/// Window features, support vectors and multipliers are non-negative and
/// `Σα = 1` (Eq. 5/10), so every `tᵢ = ⟨x, svᵢ⟩` lies in `[0, T]` with
/// `T = ⟨x, m⟩`, `m` the column-wise maximum of the support vectors (the
/// [`extent`](Self::extent)). Each kernel then has a bound linear in one
/// weight vector `p` (the [`weights`](Self::weights)):
///
/// - **linear** — the exact affine terms of [`LinearDecisionTerms`];
/// - **RBF** — `k = e^{−γ‖x‖²}·wᵢ·e^{2γtᵢ}` with `wᵢ = e^{−γ‖svᵢ‖²}`, and
///   `e^{2γt}` is convex, so its chord over `[0, T]` gives
///   `s ≤ e^{−γ‖x‖²}·(A + (e^{2γT} − 1)/T·⟨x, u⟩)` with `A = Σαᵢwᵢ` and
///   `p = u = Σαᵢwᵢsvᵢ`;
/// - **polynomial** (`γ, coef0 ≥ 0`) — `(γt + coef0)^d` is convex for
///   `t ≥ 0`, so the same chord applies over `p = c = Σαᵢsvᵢ`;
/// - **sigmoid** (`γ, coef0 ≥ 0`) — `tanh(γt + coef0)` is concave for
///   `t ≥ 0`, so Jensen's inequality gives
///   `s ≤ Σα·tanh(γ⟨x, c⟩/Σα + coef0)`.
///
/// Both boundaries rise with the kernel sum `s` (the hyperplane's `s − ρ`,
/// the sphere's `R² − k(x, x) + 2s − αᵀKα`), so one bound on `s` serves
/// both families. Outside the proven domain — a negative support-vector
/// entry or multiplier, `γ < 0`, `coef0 < 0`, or an exponent past about
/// ±700 — the bound admits every probe.
#[derive(Debug, Clone)]
pub struct DecisionBound {
    /// Weights `p` of the bound's inner product `⟨x, p⟩`.
    pub weights: SparseVector,
    /// Column-wise maximum `m` of the support vectors (empty unless the
    /// bound is a chord: RBF and polynomial kernels); `T = ⟨x, m⟩`.
    pub extent: SparseVector,
    shape: BoundShape,
}

/// The scalar part of a [`DecisionBound`], per kernel.
#[derive(Debug, Clone, Copy)]
enum BoundShape {
    /// Exact affine decision `⟨x, p⟩ + bias − ‖x‖²·[subtracts_probe_norm]`.
    Affine { bias: f64, subtracts_probe_norm: bool },
    /// Chord bound on `e^{2γt}`.
    Rbf { gamma: f64, weight_sum: f64, max_sv_norm: f64, boundary: Boundary },
    /// Chord bound on `(γt + coef0)^d`.
    Polynomial { gamma: f64, coef0: f64, degree: i32, alpha_sum: f64, boundary: Boundary },
    /// Jensen bound on `tanh(γt + coef0)`.
    Sigmoid { gamma: f64, coef0: f64, alpha_sum: f64, boundary: Boundary },
    /// Outside the proven domain: every probe is admitted.
    Unbounded,
}

impl DecisionBound {
    /// Whether a probe `x` with no negative entry may be accepted: `false`
    /// only when the model's exact decision value on `x` is certainly
    /// negative. Reads `x` through `dot = ⟨x, weights⟩`, its absolute mass
    /// `magnitude = Σ|weights_c·x_c|`, `extent_dot = ⟨x, extent⟩` and
    /// `‖x‖²`.
    ///
    /// The bound is rejected only when it falls below
    /// `−MARGIN_EPS·(1 + scale)`, where `scale` sums the magnitudes of the
    /// terms the bound and the exact decision add, so floating-point
    /// association can never prune an accepted probe. A non-finite bound
    /// always admits.
    #[inline]
    pub fn admits(&self, dot: f64, magnitude: f64, extent_dot: f64, squared_norm: f64) -> bool {
        let (bound, scale) = match self.shape {
            BoundShape::Affine { bias, subtracts_probe_norm } => {
                let norm = if subtracts_probe_norm { squared_norm } else { 0.0 };
                (dot + bias - norm, magnitude + bias.abs() + norm)
            }
            BoundShape::Rbf { gamma, weight_sum, max_sv_norm, boundary } => {
                let (probe_exp, extent_exp) = (gamma * squared_norm, 2.0 * gamma * extent_dot);
                if probe_exp > EXP_LIMIT || extent_exp > EXP_LIMIT {
                    return true;
                }
                let slope = if extent_dot > 0.0 { extent_exp.exp_m1() / extent_dot } else { 0.0 };
                let s = (-probe_exp).exp() * (weight_sum + slope * dot);
                // Each kernel value carries the rounding of its exponent.
                let s_scale = s * (1.0 + probe_exp + extent_exp + gamma * max_sv_norm);
                boundary.bound(s, s_scale, 1.0)
            }
            BoundShape::Polynomial { gamma, coef0, degree, alpha_sum, boundary } => {
                let g = |t: f64| (gamma * t + coef0).powi(degree);
                let base = g(0.0);
                let chord =
                    if extent_dot > 0.0 { (g(extent_dot) - base) / extent_dot * dot } else { 0.0 };
                let s = alpha_sum * base + chord;
                boundary.bound(s, s * (1.0 + f64::from(degree)), g(squared_norm))
            }
            BoundShape::Sigmoid { gamma, coef0, alpha_sum, boundary } => {
                let s = if alpha_sum > 0.0 {
                    alpha_sum * (gamma * dot / alpha_sum + coef0).tanh()
                } else {
                    0.0
                };
                let s_scale = alpha_sum * (1.0 + coef0) + gamma * dot + s.abs();
                boundary.bound(s, s_scale, (gamma * squared_norm + coef0).tanh())
            }
            BoundShape::Unbounded => return true,
        };
        bound.partial_cmp(&(-MARGIN_EPS * (1.0 + scale))) != Some(std::cmp::Ordering::Less)
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
                return self.weighted_sums_panel(&ProbePanel::pack(probes));
            }
        }
        probes.iter().map(|p| self.weighted_sum(p)).collect()
    }

    /// The panel GEMV: `Σ_c w[c]·pⱼ[c]` over an already-packed probe
    /// panel, bit-identical to [`weighted_sum`](Self::weighted_sum) per
    /// probe (see [`crate::ProbePanel::gemv_into`]).
    pub fn weighted_sums_panel(&self, panel: &ProbePanel) -> Vec<f64> {
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

    /// A model over `vectors` whose decision on `probe` is exactly zero:
    /// the boundary's constant is solved from the exact kernel sum there.
    fn on_boundary(
        vectors: &[SparseVector],
        alpha: &[f64],
        kernel: Kernel,
        sphere: bool,
        probe: &SparseVector,
    ) -> OneClassModel {
        let support = SupportVectorSet::from_parts(vectors.to_vec(), alpha.to_vec(), kernel);
        let s = support.weighted_kernel_sum(probe);
        let boundary = if sphere {
            let alpha_k_alpha = 0.25;
            let r_squared = kernel.compute_self(probe) - 2.0 * s + alpha_k_alpha;
            Boundary::Sphere { r_squared, alpha_k_alpha }
        } else {
            Boundary::Hyperplane { rho: s }
        };
        let diagnostics = TrainDiagnostics {
            iterations: 0,
            converged: true,
            objective: 0.0,
            train_size: vectors.len(),
            support_vectors: vectors.len(),
            cache_hits: 0,
            cache_misses: 0,
        };
        OneClassModel { support, boundary, regularization: 0.5, diagnostics }
    }

    fn admits(model: &OneClassModel, x: &SparseVector) -> bool {
        let bound = model.decision_bound();
        let magnitude = x.iter().map(|(column, v)| (bound.weights.get(column) * v).abs()).sum();
        bound.admits(bound.weights.dot(x), magnitude, bound.extent.dot(x), x.squared_norm())
    }

    const BOUNDED_KERNELS: [Kernel; 5] = [
        Kernel::Linear,
        Kernel::Rbf { gamma: 0.3 },
        Kernel::Polynomial { gamma: 0.2, coef0: 0.5, degree: 3 },
        Kernel::Polynomial { gamma: 0.4, coef0: 0.0, degree: 1 },
        Kernel::Sigmoid { gamma: 0.15, coef0: 0.2 },
    ];

    #[test]
    fn bounds_admit_probes_exactly_on_the_decision_boundary() {
        // Disjoint and empty probes are where the chord (T = 0) and Jensen
        // (all tᵢ equal) bounds are tight, so only the guard keeps them.
        let vectors = vec![
            SparseVector::from_pairs(vec![(0, 1.0), (2, 0.5)]).unwrap(),
            SparseVector::from_pairs(vec![(1, 2.0), (2, 0.25)]).unwrap(),
            SparseVector::from_pairs(vec![(0, 0.1), (5, 1.5)]).unwrap(),
        ];
        let alpha = [0.2, 0.3, 0.5];
        let probes = [
            SparseVector::new(),
            SparseVector::from_pairs(vec![(7, 0.9), (9, 2.0)]).unwrap(),
            SparseVector::from_pairs(vec![(0, 1.0), (2, 0.5)]).unwrap(),
            SparseVector::from_pairs(vec![(1, 0.3), (5, 0.7), (8, 1.1)]).unwrap(),
        ];
        for kernel in BOUNDED_KERNELS {
            for sphere in [false, true] {
                for probe in &probes {
                    let model = on_boundary(&vectors, &alpha, kernel, sphere, probe);
                    assert!(model.decision_value(probe) >= 0.0, "{kernel:?}");
                    assert!(admits(&model, probe), "{kernel:?} sphere={sphere} {probe:?}");
                }
            }
        }
    }

    #[test]
    fn bounds_prune_probes_that_reject_by_a_margin() {
        let vectors = vec![SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]).unwrap()];
        let far = SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]).unwrap();
        let probe = SparseVector::from_pairs(vec![(5, 1.0)]).unwrap();
        for kernel in BOUNDED_KERNELS {
            // On the boundary at `far`, which scores far above `probe`.
            let model = on_boundary(&vectors, &[1.0], kernel, false, &far);
            assert!(!admits(&model, &probe), "{kernel:?}");
        }
    }

    #[test]
    fn panel_acceptance_scores_only_what_the_bound_admits() {
        let vectors = vec![SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]).unwrap()];
        let far = SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]).unwrap();
        let pruned = SparseVector::from_pairs(vec![(5, 1.0)]).unwrap();
        let signed = SparseVector::from_pairs(vec![(5, -1.0)]).unwrap();
        let probes = [&far, &pruned, &signed];
        let panel = ProbePanel::pack(&probes);
        for kernel in BOUNDED_KERNELS {
            let model = on_boundary(&vectors, &[1.0], kernel, false, &far);
            let (accepted, scored) = model.panel_acceptance_counted(&panel, 0..0);
            let expected: Vec<bool> = probes.iter().map(|p| model.accepts(p)).collect();
            assert_eq!(accepted, expected, "{kernel:?}");
            // `far` is admitted, `pruned` rejected by a margin and `signed`
            // outside the proven domain; linear models score by GEMV.
            assert_eq!(scored, (kernel != Kernel::Linear).then_some(2), "{kernel:?}");
            // A skipped probe is neither scored nor accepted; the others
            // are decided as before.
            let (accepted, scored) = model.panel_acceptance_counted(&panel, 0..1);
            assert_eq!(accepted, [false, expected[1], expected[2]], "{kernel:?}");
            assert_eq!(scored, (kernel != Kernel::Linear).then_some(1), "{kernel:?}");
        }
    }

    #[test]
    fn models_outside_the_proven_domain_admit_every_probe() {
        let plain = vec![SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]).unwrap()];
        let negative = vec![SparseVector::from_pairs(vec![(0, 1.0), (1, -1.0)]).unwrap()];
        let huge = vec![SparseVector::from_pairs(vec![(0, 100.0)]).unwrap()];
        let far = SparseVector::from_pairs(vec![(0, 1.0), (1, 1.0)]).unwrap();
        let probe = SparseVector::from_pairs(vec![(5, 1.0)]).unwrap();
        let cases = [
            (&negative, 1.0, Kernel::Rbf { gamma: 0.3 }),
            (&plain, -1.0, Kernel::Rbf { gamma: 0.3 }),
            (&plain, 1.0, Kernel::Polynomial { gamma: 0.2, coef0: -0.5, degree: 3 }),
            (&plain, 1.0, Kernel::Sigmoid { gamma: 0.2, coef0: -0.1 }),
            (&plain, 1.0, Kernel::Sigmoid { gamma: -0.2, coef0: 0.1 }),
            // γ‖sv‖² = 1000: e^{−γ‖sv‖²} would underflow.
            (&huge, 1.0, Kernel::Rbf { gamma: 0.1 }),
        ];
        for (vectors, alpha, kernel) in cases {
            let model = on_boundary(vectors, &[alpha], kernel, false, &far);
            assert!(admits(&model, &probe), "{kernel:?} α={alpha}");
        }
        // γ‖x‖² = 1000 for the probe: admitted rather than evaluated.
        let model = on_boundary(&plain, &[1.0], Kernel::Rbf { gamma: 0.1 }, false, &far);
        assert!(admits(&model, &SparseVector::from_pairs(vec![(5, 100.0)]).unwrap()));
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
