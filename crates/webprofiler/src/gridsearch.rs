//! Learning-parameter optimization (Sect. IV-C).
//!
//! The paper optimizes in two stages:
//!
//! 1. [`WindowGridSearch`] (Tab. II): the window duration `D` and shift
//!    `S` are optimized *globally* over all users, with a fixed SVDD /
//!    linear / `C = 0.5` model. `ACCself` is computed on the same windows
//!    the model was trained on, `ACCother` against every other user's
//!    training windows. The paper retains `D = 60 s, S = 30 s` — not the
//!    best global `ACC`, but the best `ACCself`, which is what matters for
//!    fast identification.
//! 2. [`ModelGridSearch`] (Tab. III): the kernel and `ν`/`C` value are
//!    optimized *per user* at the retained window configuration, picking
//!    the combination with maximal `ACC = ACCself − ACCother`.

use crate::metrics::{AcceptanceSummary, ConfusionMatrix};
use crate::profile::{ModelKind, ProfileParams, UserProfile};
use crate::schedule::{self, run_chains};
use crate::trainer::{parallel_map, subsample_evenly, ProfileTrainer};
use crate::vocab::Vocabulary;
use crate::window::WindowConfig;
use ocsvm::{
    ApproxParams, ArenaStats, CrossGram, GramMatrix, Kernel, KernelKind, KernelRowArena,
    SolverBackend, SolverOptions, SparseVector,
};
use proxylog::{Dataset, UserId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Per-user window feature vectors, the shared input of both grid-search
/// stages (computing them once per window configuration dominates the cost
/// otherwise).
pub type WindowSets = BTreeMap<UserId, Vec<SparseVector>>;

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Computes user-specific window sets for every user of `dataset`, capped
/// at `max_windows_per_user` by even subsampling.
pub fn compute_window_sets(
    vocab: &Vocabulary,
    dataset: &Dataset,
    config: WindowConfig,
    max_windows_per_user: Option<usize>,
) -> WindowSets {
    let mut trainer = ProfileTrainer::new(vocab).window(config);
    if let Some(max) = max_windows_per_user {
        trainer = trainer.max_training_windows(max);
    }
    let users = dataset.users();
    let sets = parallel_map(&users, |&user| trainer.training_vectors(dataset, user));
    users.into_iter().zip(sets).collect()
}

/// One row of the Tab. II sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowGridRow {
    /// The window configuration evaluated.
    pub config: WindowConfig,
    /// Averaged acceptance over users.
    pub summary: AcceptanceSummary,
}

/// Stage 1: global window-parameter sweep (Tab. II).
#[derive(Debug, Clone)]
pub struct WindowGridSearch<'a> {
    vocab: &'a Vocabulary,
    params: ProfileParams,
    max_windows_per_user: Option<usize>,
}

impl<'a> WindowGridSearch<'a> {
    /// The `(D, S)` pairs of the paper's Tab. II, in seconds.
    pub const PAPER_CANDIDATES: [(u32, u32); 6] =
        [(60, 6), (60, 30), (300, 60), (600, 60), (1800, 300), (3600, 300)];

    /// Creates the sweep with the paper's fixed model for this stage:
    /// SVDD, linear kernel, `C = 0.5`.
    pub fn new(vocab: &'a Vocabulary) -> Self {
        Self {
            vocab,
            params: ProfileParams {
                kind: ModelKind::Svdd,
                kernel: Kernel::Linear,
                regularization: 0.5,
            },
            max_windows_per_user: Some(1_000),
        }
    }

    /// Overrides the fixed model used during the sweep.
    pub fn params(mut self, params: ProfileParams) -> Self {
        self.params = params;
        self
    }

    /// Caps the training windows per user (even subsample). `None` removes
    /// the cap.
    pub fn max_windows_per_user(mut self, max: Option<usize>) -> Self {
        self.max_windows_per_user = max;
        self
    }

    /// Evaluates one window configuration: train a model per user on its
    /// windows, score the full confusion matrix on those same windows.
    pub fn evaluate(&self, train: &Dataset, config: WindowConfig) -> WindowGridRow {
        let windows = compute_window_sets(self.vocab, train, config, self.max_windows_per_user);
        let trainer = ProfileTrainer::new(self.vocab).window(config).params(self.params);
        let users: Vec<UserId> = windows.keys().copied().collect();
        let trained =
            parallel_map(&users, |user| trainer.train_from_vectors(*user, &windows[user]).ok());
        let profiles: BTreeMap<_, _> = users
            .iter()
            .zip(trained)
            .filter_map(|(user, profile)| profile.map(|p| (*user, p)))
            .collect();
        let matrix = ConfusionMatrix::compute(&profiles, &windows);
        WindowGridRow { config, summary: matrix.summary() }
    }

    /// Runs the sweep over `configs` (defaults to the paper's candidates
    /// when empty), returning one row per configuration.
    pub fn run(&self, train: &Dataset, configs: &[WindowConfig]) -> Vec<WindowGridRow> {
        let default: Vec<WindowConfig> = Self::PAPER_CANDIDATES
            .iter()
            .map(|&(d, s)| WindowConfig::new(d, s).expect("paper candidates are valid"))
            .collect();
        let configs = if configs.is_empty() { &default } else { configs };
        configs.iter().map(|&config| self.evaluate(train, config)).collect()
    }
}

/// One cell of the Tab. III sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelGridCell {
    /// Kernel family evaluated (with vocabulary-default parameters).
    pub kernel: KernelKind,
    /// `ν` or `C` value evaluated.
    pub regularization: f64,
    /// Acceptance summary for this user's model.
    pub summary: AcceptanceSummary,
}

/// Counters describing one [`ModelGridSearch::sweep_cells`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepStats {
    /// Users swept.
    pub users: usize,
    /// (user, kernel) chains scheduled.
    pub chains: usize,
    /// Cells that trained and scored successfully.
    pub cells: u64,
    /// Cell tasks executed (includes cells whose training failed).
    pub executed: u64,
    /// Tasks obtained by work stealing.
    pub steals: u64,
    /// Workers the scheduler ran with.
    pub workers: usize,
    /// Cells solved from a warm-start `α` seed.
    pub warm_cells: u64,
    /// Cells solved from the cold uniform start.
    pub cold_cells: u64,
    /// SMO iterations spent in warm-started cells.
    pub warm_iterations: u64,
    /// SMO iterations spent in cold-started cells.
    pub cold_iterations: u64,
    /// Cells whose kept result was solved by exact SMO.
    pub exact_cells: u64,
    /// Cells whose kept result was solved by sampled Frank–Wolfe
    /// ([`SolverBackend::SampledFw`]).
    pub approx_cells: u64,
    /// [`SweepBackend::Auto`] chains that fell back to exact SMO after
    /// calibration.
    pub auto_fallbacks: u64,
    /// Wall-clock nanoseconds spent inside the solver, summed over every
    /// cell solve of the sweep (including the discarded half of each
    /// [`SweepBackend::Auto`] calibration). Scoring and scheduling are
    /// excluded, so this isolates what a backend choice changes.
    pub train_nanos: u64,
    /// Kernel-row arena activity during the sweep (delta, not lifetime).
    pub arena: ArenaStats,
}

impl SweepStats {
    /// Mean SMO iterations per warm-started cell.
    pub fn warm_iterations_per_cell(&self) -> f64 {
        if self.warm_cells == 0 {
            return 0.0;
        }
        self.warm_iterations as f64 / self.warm_cells as f64
    }

    /// Mean SMO iterations per cold-started cell.
    pub fn cold_iterations_per_cell(&self) -> f64 {
        if self.cold_cells == 0 {
            return 0.0;
        }
        self.cold_iterations as f64 / self.cold_cells as f64
    }
}

/// Solver-backend choice for [`ModelGridSearch::sweep_cells`].
///
/// Every (kernel, regularization) cell of the sweep trains through one
/// [`SolverBackend`]; this policy decides which backend each chain gets.
/// It applies to every sweep entry point
/// ([`run_user`](ModelGridSearch::run_user),
/// [`sweep_cells`](ModelGridSearch::sweep_cells),
/// [`sweep_all`](ModelGridSearch::sweep_all),
/// [`optimize_all`](ModelGridSearch::optimize_all)); the final per-user
/// profiles of [`optimized_profiles`](ModelGridSearch::optimized_profiles)
/// always train exact.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepBackend {
    /// Every cell trains with the same backend. `Fixed(ExactSmo)` (the
    /// default) reproduces training each cell on its own bit-for-bit.
    Fixed(SolverBackend),
    /// Per-chain calibration: each chain's first trainable cell is solved
    /// with both sampled Frank–Wolfe and exact SMO, and the whole chain
    /// keeps sampled Frank–Wolfe unless its validation `ACC` trails the
    /// exact one by more than `tolerance` — then the chain falls back to
    /// exact (counted in [`SweepStats::auto_fallbacks`]).
    ///
    /// `ACC` differences live in `[-2, 2]`, so `tolerance ≤ -2` always
    /// falls back (every chain runs exact) and `tolerance ≥ 2` never does
    /// (every chain runs sampled). The calibration cell's discarded solve
    /// is excluded from the warm/cold iteration statistics.
    Auto {
        /// Maximal acceptable `ACC_exact − ACC_sampled` before falling back.
        tolerance: f64,
    },
}

impl Default for SweepBackend {
    fn default() -> Self {
        Self::Fixed(SolverBackend::ExactSmo)
    }
}

/// Stage 2: per-user kernel and `ν`/`C` sweep (Tab. III).
///
/// The sweep is executed by a work-stealing scheduler over *chains*: one
/// chain per (user, kernel), walking the regularization ladder so each
/// cell's `α` solution can warm-start the next (opt in with
/// [`warm_start`](Self::warm_start)). Kernel rows are cached in a
/// process-wide, memory-budgeted [`KernelRowArena`] shared by training and
/// scoring (override with [`arena`](Self::arena)).
#[derive(Debug, Clone)]
pub struct ModelGridSearch<'a> {
    vocab: &'a Vocabulary,
    window: WindowConfig,
    kind: ModelKind,
    max_other_windows: usize,
    regularizations: Vec<f64>,
    warm_start: bool,
    backend: SweepBackend,
    approx: ApproxParams,
    arena: Option<Arc<KernelRowArena>>,
    workers: Option<usize>,
}

impl<'a> ModelGridSearch<'a> {
    /// The `C` (and `ν`) values of the paper's Tab. III rows.
    pub const PAPER_REGULARIZATIONS: [f64; 15] =
        [0.999, 0.99, 0.95, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05, 0.01, 0.001];

    /// A coarser grid for sweeps that optimize many users × window
    /// configurations (Tab. IV).
    pub const COARSE_REGULARIZATIONS: [f64; 8] = [0.99, 0.9, 0.7, 0.5, 0.3, 0.1, 0.05, 0.01];

    /// Creates the sweep at a window configuration (the paper fixes
    /// `D = 60 s, S = 30 s` for this stage) for one classifier family.
    pub fn new(vocab: &'a Vocabulary, window: WindowConfig, kind: ModelKind) -> Self {
        Self {
            vocab,
            window,
            kind,
            max_other_windows: 150,
            regularizations: Self::PAPER_REGULARIZATIONS.to_vec(),
            warm_start: false,
            backend: SweepBackend::default(),
            approx: ApproxParams::default(),
            arena: None,
            workers: None,
        }
    }

    /// Chooses the solver backend of the sweep's cells (default:
    /// [`SweepBackend::Fixed`] exact SMO, bit-identical to training each
    /// cell on its own). See [`SweepBackend`] for the auto-calibrated
    /// policy. Warm-start `α` seeds are only honored by exact-SMO cells;
    /// sampled Frank–Wolfe ignores them (see [`SolverBackend`]).
    pub fn solver_backend(mut self, backend: SweepBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Tunes sampled Frank–Wolfe (subsample size, seed, duality-gap
    /// tolerance). Exact SMO cells ignore it.
    pub fn approx_params(mut self, approx: ApproxParams) -> Self {
        self.approx = approx;
        self
    }

    /// Enables warm-start `α`-seeding between adjacent regularization
    /// values of a chain (default off). Seeding does not change the
    /// optimization problem — a seeded solve reaches the same objective —
    /// but the solver stops anywhere inside its KKT tolerance band, so
    /// knife-edge acceptance decisions (windows whose decision value is
    /// `≈ 0`) may land differently than from a cold start. Leave it off to
    /// reproduce the cold-start sweep bit-for-bit; turn it on to cut SMO
    /// iterations on fine regularization ladders.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Uses a specific kernel-row arena instead of the process-wide
    /// [`KernelRowArena::global`] default, e.g. one with a custom byte
    /// budget for this sweep.
    pub fn arena(mut self, arena: Arc<KernelRowArena>) -> Self {
        self.arena = Some(arena);
        self
    }

    /// Pins the scheduler's worker count (defaults to the machine's
    /// available parallelism; `1` forces a sequential sweep).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Caps the windows sampled from each *other* user when estimating
    /// `ACCother` inside the sweep (an even subsample; the estimate is a
    /// mean, so a moderate sample suffices and cuts the sweep cost by an
    /// order of magnitude). Use `usize::MAX` for the exact value.
    pub fn max_other_windows(mut self, max: usize) -> Self {
        self.max_other_windows = max;
        self
    }

    /// Replaces the `ν`/`C` grid (defaults to
    /// [`Self::PAPER_REGULARIZATIONS`]).
    pub fn regularizations(mut self, values: Vec<f64>) -> Self {
        self.regularizations = values;
        self
    }

    /// Per-user `ACCother` samples: an even subsample of every user's
    /// windows, borrowed from `windows`. Computed once and shared across
    /// all cells — and, in [`optimize_all`](Self::optimize_all), across all
    /// users — instead of cloning each user's vectors for every sweep.
    fn other_window_samples<'w>(
        &self,
        windows: &'w WindowSets,
    ) -> BTreeMap<UserId, Vec<&'w SparseVector>> {
        windows
            .iter()
            .map(|(&u, w)| (u, subsample_evenly(w.iter().collect(), self.max_other_windows)))
            .collect()
    }

    /// Evaluates every kernel × regularization combination for one user.
    ///
    /// `windows` must contain the user's own training windows as well as
    /// the other users' (used for `ACCother`). Cells whose training fails
    /// (e.g. an infeasible `C` for the window count) are skipped.
    ///
    /// A one-user [`sweep_cells`](Self::sweep_cells): the same chains, the
    /// same kernel-row arena and the same cell order, so its cells equal
    /// the user's cells of a full sweep.
    pub fn run_user(&self, windows: &WindowSets, user: UserId) -> Vec<ModelGridCell> {
        self.sweep(windows, Some(user)).0.remove(&user).unwrap_or_default()
    }

    /// The best parameters for one user (maximal `ACC`), or `None` when no
    /// cell trained successfully.
    pub fn best_for_user(&self, windows: &WindowSets, user: UserId) -> Option<ProfileParams> {
        self.pick_best(self.run_user(windows, user))
    }

    fn pick_best(&self, cells: Vec<ModelGridCell>) -> Option<ProfileParams> {
        let best = cells
            .into_iter()
            .max_by(|a, b| a.summary.acc().partial_cmp(&b.summary.acc()).expect("ACC is finite"))?;
        Some(ProfileParams {
            kind: self.kind,
            kernel: Kernel::default_for(best.kernel, self.vocab.n_features()),
            regularization: best.regularization,
        })
    }

    /// Optimizes every user in the window sets through the work-stealing
    /// sweep (see [`sweep_all`](Self::sweep_all), whose statistics this
    /// convenience wrapper discards).
    ///
    /// The `ACCother` window samples are drawn once and shared by reference
    /// across all users' sweeps. Kernel rows live in the shared
    /// [`KernelRowArena`], so memory is bounded by the arena budget rather
    /// than the sum of per-user Gram matrices.
    pub fn optimize_all(&self, windows: &WindowSets) -> BTreeMap<UserId, ProfileParams> {
        self.sweep_all(windows).0
    }

    /// Trains the final per-user profiles at each user's swept-optimal
    /// parameters — the population whose decision weights feed candidate
    /// prefiltering: pass the result straight to
    /// [`CandidateIndex::build`](crate::CandidateIndex::build) (linear
    /// winners export their collapsed weights and bias via
    /// [`UserProfile::linear_decision_terms`], non-linear winners their
    /// coverage sketch).
    ///
    /// Users whose sweep produced no trainable cell are omitted, like
    /// [`optimize_all`](Self::optimize_all) omits them.
    pub fn optimized_profiles(&self, windows: &WindowSets) -> BTreeMap<UserId, UserProfile> {
        let best = self.optimize_all(windows);
        let entries: Vec<(&UserId, &ProfileParams)> = best.iter().collect();
        let trained = parallel_map(&entries, |(&user, params)| {
            let own = windows.get(&user)?;
            ProfileTrainer::new(self.vocab)
                .window(self.window)
                .kind(params.kind)
                .kernel(params.kernel)
                .regularization(params.regularization)
                .train_from_vectors(user, own)
                .ok()
        });
        entries
            .into_iter()
            .zip(trained)
            .filter_map(|((&user, _), profile)| profile.map(|p| (user, p)))
            .collect()
    }

    /// Optimizes every user and reports sweep statistics: best parameters
    /// per user (maximal `ACC`, ties broken exactly as
    /// [`best_for_user`](Self::best_for_user)) plus scheduler / warm-start /
    /// arena counters.
    pub fn sweep_all(&self, windows: &WindowSets) -> (BTreeMap<UserId, ProfileParams>, SweepStats) {
        let (cells, stats) = self.sweep_cells(windows);
        let best = cells
            .into_iter()
            .filter_map(|(user, cells)| self.pick_best(cells).map(|p| (user, p)))
            .collect();
        (best, stats)
    }

    /// Evaluates every (user, kernel, regularization) cell of the sweep on
    /// the work-stealing scheduler, returning each user's cells (ordered by
    /// kernel, then regularization) and the sweep statistics.
    ///
    /// The sweep is decomposed into one *chain* per (user, kernel). A chain
    /// walks [`regularizations`](Self::regularizations) in order, and each
    /// finished cell's `α` vector seeds the next cell's solver (when
    /// [`warm_start`](Self::warm_start) is on; a failed cell passes the
    /// last good seed along). Chains are independent and scheduled across
    /// workers with work stealing, so one expensive user cannot serialize
    /// the sweep. All kernel rows — training and probe scoring — are cached
    /// in the shared memory-budgeted arena keyed by user, kernel and a
    /// content fingerprint.
    pub fn sweep_cells(
        &self,
        windows: &WindowSets,
    ) -> (BTreeMap<UserId, Vec<ModelGridCell>>, SweepStats) {
        self.sweep(windows, None)
    }

    /// [`sweep_cells`](Self::sweep_cells) over every user of `windows`, or
    /// over `only` that user (every user's windows still feed `ACCother`).
    fn sweep(
        &self,
        windows: &WindowSets,
        only: Option<UserId>,
    ) -> (BTreeMap<UserId, Vec<ModelGridCell>>, SweepStats) {
        let swept = |user: &UserId| only.is_none_or(|only| only == *user);
        let samples = self.other_window_samples(windows);
        let arena = self.arena.clone().unwrap_or_else(|| Arc::clone(KernelRowArena::global()));
        let arena_before = arena.stats();
        let n_features = self.vocab.n_features();

        // Per-user context shared by the user's chains: own windows and the
        // flattened `ACCother` probes of every other user, so one cross row
        // covers them all, with the per-user ranges of the acceptance means.
        struct UserCtx<'w> {
            user: UserId,
            own: &'w [SparseVector],
            own_refs: Vec<&'w SparseVector>,
            probes: Vec<&'w SparseVector>,
            ranges: Vec<(usize, usize)>,
        }
        let contexts: Vec<UserCtx<'_>> = windows
            .iter()
            .filter(|&(user, own)| swept(user) && !own.is_empty())
            .map(|(&user, own)| {
                let mut probes: Vec<&SparseVector> = Vec::new();
                let mut ranges: Vec<(usize, usize)> = Vec::new();
                for (_, w) in samples.iter().filter(|&(&u, _)| u != user) {
                    let start = probes.len();
                    probes.extend(w.iter().copied());
                    ranges.push((start, probes.len()));
                }
                UserCtx { user, own, own_refs: own.iter().collect(), probes, ranges }
            })
            .collect();

        // One chain per (user, kernel), in user-major / `KernelKind::ALL`
        // order, so reassembled cells come out kernel by kernel (and thus
        // `pick_best` breaks ties the same way at every entry point).
        struct Chain<'w> {
            ctx: usize,
            kind: KernelKind,
            kernel: Kernel,
            gram: GramMatrix<'w>,
            cross: Option<CrossGram<'w>>,
        }
        let chains: Vec<Chain<'_>> = contexts
            .iter()
            .enumerate()
            .flat_map(|(ctx_idx, ctx)| {
                let arena = &arena;
                KernelKind::ALL.iter().map(move |&kind| {
                    let kernel = Kernel::default_for(kind, n_features);
                    let owner = u64::from(ctx.user.0);
                    // Linear models need no cross rows: their collapsed
                    // weight vector scores each batch as one dense GEMV.
                    let cross = (kernel != Kernel::Linear).then(|| {
                        CrossGram::in_arena(kernel, ctx.own, ctx.probes.clone(), arena, owner)
                    });
                    Chain {
                        ctx: ctx_idx,
                        kind,
                        kernel,
                        gram: GramMatrix::in_arena(kernel, ctx.own, arena, owner),
                        cross,
                    }
                })
            })
            .collect();

        struct CellTask {
            chain: usize,
            reg_idx: usize,
            seed: Option<Vec<f64>>,
            auto_choice: Option<SolverBackend>,
            cells: Vec<ModelGridCell>,
        }
        let seeds: Vec<CellTask> = (0..chains.len())
            .map(|chain| CellTask {
                chain,
                reg_idx: 0,
                seed: None,
                auto_choice: None,
                cells: Vec::with_capacity(self.regularizations.len()),
            })
            .collect();

        let finished: Mutex<Vec<Option<Vec<ModelGridCell>>>> =
            Mutex::new((0..chains.len()).map(|_| None).collect());
        let ok_cells = AtomicU64::new(0);
        let warm_cells = AtomicU64::new(0);
        let cold_cells = AtomicU64::new(0);
        let warm_iterations = AtomicU64::new(0);
        let cold_iterations = AtomicU64::new(0);
        let exact_cells = AtomicU64::new(0);
        let approx_cells = AtomicU64::new(0);
        let auto_fallbacks = AtomicU64::new(0);
        let train_nanos = AtomicU64::new(0);

        let steal_stats = run_chains(
            seeds,
            self.workers.unwrap_or_else(schedule::default_workers),
            |mut task: CellTask| {
                let chain = &chains[task.chain];
                let ctx = &contexts[chain.ctx];
                let regularization = self.regularizations[task.reg_idx];
                // Trains this cell with `backend` and scores it; `None`
                // when the parameters are infeasible for the window count.
                let train_cell = |backend: SolverBackend, seed: Option<&[f64]>| {
                    let trainer = ProfileTrainer::new(self.vocab)
                        .window(self.window)
                        .kind(self.kind)
                        .kernel(chain.kernel)
                        .regularization(regularization)
                        .solver_options(SolverOptions {
                            backend,
                            approx: self.approx,
                            ..SolverOptions::default()
                        });
                    let solve_started = std::time::Instant::now();
                    let solved =
                        trainer.train_from_vectors_seeded(ctx.user, ctx.own, &chain.gram, seed);
                    train_nanos
                        .fetch_add(solve_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    solved.ok().map(|(profile, alpha)| {
                        let iterations = profile.diagnostics().iterations as u64;
                        let cell = self.evaluate_cell(&profile, chain.kind, regularization, {
                            CellInputs {
                                gram: &chain.gram,
                                cross: chain.cross.as_ref(),
                                own_refs: &ctx.own_refs,
                                probes: &ctx.probes,
                                ranges: &ctx.ranges,
                            }
                        });
                        (cell, alpha, iterations)
                    })
                };
                let seed = if self.warm_start { task.seed.as_deref() } else { None };
                let (backend, run) = match &self.backend {
                    SweepBackend::Fixed(backend) => (*backend, train_cell(*backend, seed)),
                    SweepBackend::Auto { tolerance } => match task.auto_choice {
                        Some(backend) => (backend, train_cell(backend, seed)),
                        None => {
                            // Calibration cell: solve with both candidates
                            // and compare validation ACC. Chains whose
                            // first cells are infeasible calibrate at
                            // their first trainable cell instead.
                            let cheap = SolverBackend::SampledFw;
                            let cheap_run = train_cell(cheap, None);
                            let exact_run = train_cell(SolverBackend::ExactSmo, None);
                            let fallback = match (&cheap_run, &exact_run) {
                                (Some((c, ..)), Some((e, ..))) => {
                                    e.summary.acc() - c.summary.acc() > *tolerance
                                }
                                (None, Some(_)) => true,
                                _ => false,
                            };
                            if fallback {
                                auto_fallbacks.fetch_add(1, Ordering::Relaxed);
                            }
                            let backend = if fallback { SolverBackend::ExactSmo } else { cheap };
                            if cheap_run.is_some() || exact_run.is_some() {
                                task.auto_choice = Some(backend);
                            }
                            (backend, if fallback { exact_run } else { cheap_run })
                        }
                    },
                };
                // Sampled Frank–Wolfe ignores `α` seeds, so only exact
                // cells that actually received one count as warm.
                let warm = seed.is_some() && backend == SolverBackend::ExactSmo;
                if let Some((cell, alpha, iterations)) = run {
                    if warm {
                        warm_cells.fetch_add(1, Ordering::Relaxed);
                        warm_iterations.fetch_add(iterations, Ordering::Relaxed);
                    } else {
                        cold_cells.fetch_add(1, Ordering::Relaxed);
                        cold_iterations.fetch_add(iterations, Ordering::Relaxed);
                    }
                    if backend == SolverBackend::ExactSmo {
                        exact_cells.fetch_add(1, Ordering::Relaxed);
                    } else {
                        approx_cells.fetch_add(1, Ordering::Relaxed);
                    }
                    task.cells.push(cell);
                    ok_cells.fetch_add(1, Ordering::Relaxed);
                    // This solution seeds the chain's next regularization.
                    task.seed = Some(alpha);
                }
                task.reg_idx += 1;
                if task.reg_idx < self.regularizations.len() {
                    Some(task)
                } else {
                    finished.lock().expect("sweep results lock")[task.chain] =
                        Some(std::mem::take(&mut task.cells));
                    None
                }
            },
        );

        // Reassemble per user, chains in `KernelKind::ALL` order, cells in
        // regularization order.
        let mut finished = finished.into_inner().expect("sweep results lock");
        let mut by_user: BTreeMap<UserId, Vec<ModelGridCell>> =
            windows.keys().filter(|user| swept(user)).map(|&user| (user, Vec::new())).collect();
        for (chain_idx, chain) in chains.iter().enumerate() {
            let cells = finished[chain_idx].take().unwrap_or_default();
            by_user
                .get_mut(&contexts[chain.ctx].user)
                .expect("chain user present in window sets")
                .extend(cells);
        }

        let stats = SweepStats {
            users: contexts.len(),
            chains: chains.len(),
            cells: ok_cells.into_inner(),
            executed: steal_stats.executed,
            steals: steal_stats.steals,
            workers: steal_stats.workers,
            warm_cells: warm_cells.into_inner(),
            cold_cells: cold_cells.into_inner(),
            warm_iterations: warm_iterations.into_inner(),
            cold_iterations: cold_iterations.into_inner(),
            exact_cells: exact_cells.into_inner(),
            approx_cells: approx_cells.into_inner(),
            auto_fallbacks: auto_fallbacks.into_inner(),
            train_nanos: train_nanos.into_inner(),
            arena: arena.stats().since(&arena_before),
        };
        (by_user, stats)
    }

    /// Scores one trained cell: decision values over the user's own windows
    /// and over the flattened probe set, reduced to `ACCself`/`ACCother`.
    /// Non-linear kernels read shared (arena-cached) rows; linear models
    /// score through their collapsed weight vector, bit-identical to
    /// per-point decisions.
    fn evaluate_cell(
        &self,
        profile: &UserProfile,
        kind: KernelKind,
        regularization: f64,
        inputs: CellInputs<'_, '_>,
    ) -> ModelGridCell {
        let shared = inputs.cross.and_then(|cross| {
            Some((
                profile.training_decision_values(inputs.gram)?,
                profile.cross_decision_values(cross)?,
            ))
        });
        let (self_values, probe_values) = match shared {
            Some(values) => values,
            None => (
                profile.batch_decision_values(inputs.own_refs),
                profile.batch_decision_values(inputs.probes),
            ),
        };
        ModelGridCell {
            kernel: kind,
            regularization,
            summary: acceptance_summary(
                inputs.own_refs.len(),
                inputs.ranges,
                &self_values,
                &probe_values,
            ),
        }
    }
}

/// Borrowed inputs of one sweep-cell evaluation.
struct CellInputs<'c, 'w> {
    gram: &'c GramMatrix<'w>,
    cross: Option<&'c CrossGram<'w>>,
    own_refs: &'c [&'w SparseVector],
    probes: &'c [&'w SparseVector],
    ranges: &'c [(usize, usize)],
}

/// `ACCself`/`ACCother` from decision values: acceptance over the user's
/// own windows, and the mean of the per-user acceptance over each other
/// user's probe range.
fn acceptance_summary(
    own_len: usize,
    ranges: &[(usize, usize)],
    self_values: &[f64],
    probe_values: &[f64],
) -> AcceptanceSummary {
    let accepted = self_values.iter().filter(|&&v| v >= 0.0).count();
    let acc_self = accepted as f64 / own_len as f64;
    let others: Vec<f64> = ranges
        .iter()
        .map(|&(start, end)| {
            if start == end {
                return 0.0;
            }
            let accepted = probe_values[start..end].iter().filter(|&&v| v >= 0.0).count();
            accepted as f64 / (end - start) as f64
        })
        .collect();
    AcceptanceSummary { acc_self, acc_other: mean(&others) }
}

#[cfg(test)]
mod tests {
    use super::*;

    use tracegen::{Scenario, TraceGenerator};

    fn small_dataset() -> Dataset {
        TraceGenerator::new(Scenario::quick_test()).generate()
    }

    #[test]
    fn window_sets_cover_users_and_respect_cap() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(50));
        assert_eq!(sets.len(), dataset.users().len());
        assert!(sets.values().all(|w| w.len() <= 50));
        assert!(sets.values().any(|w| !w.is_empty()));
    }

    #[test]
    fn window_grid_row_has_sane_summary() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let search = WindowGridSearch::new(&vocab).max_windows_per_user(Some(80));
        let row = search.evaluate(&dataset, WindowConfig::new(60, 30).unwrap());
        assert!(row.summary.acc_self > 0.5, "ACCself = {}", row.summary.acc_self);
        assert!(row.summary.acc_other < row.summary.acc_self);
        assert!((0.0..=1.0).contains(&row.summary.acc_other));
    }

    #[test]
    fn run_defaults_to_paper_candidates() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let search = WindowGridSearch::new(&vocab).max_windows_per_user(Some(40));
        let rows = search.run(&dataset, &[]);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[1].config, WindowConfig::new(60, 30).unwrap());
    }

    #[test]
    fn model_grid_search_finds_parameters() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(60));
        let user = *sets.iter().max_by_key(|&(_, w)| w.len()).map(|(u, _)| u).unwrap();
        let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd);
        let cells = search.run_user(&sets, user);
        assert!(!cells.is_empty());
        // 4 kernels × 15 values minus skipped infeasible ones.
        assert!(cells.len() <= 60);
        let best = search.best_for_user(&sets, user).unwrap();
        assert_eq!(best.kind, ModelKind::Svdd);
        assert!(best.regularization > 0.0);
        // The best ACC is at least as good as every cell.
        let best_acc = cells.iter().map(|c| c.summary.acc()).fold(f64::NEG_INFINITY, f64::max);
        let chosen = cells
            .iter()
            .find(|c| {
                Kernel::default_for(c.kernel, vocab.n_features()) == best.kernel
                    && c.regularization == best.regularization
            })
            .unwrap();
        assert!((chosen.summary.acc() - best_acc).abs() < 1e-12);
    }

    #[test]
    fn warm_started_sweep_selects_equally_good_parameters() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(40));
        let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
            .regularizations(vec![0.9, 0.7, 0.5, 0.3, 0.1])
            .warm_start(true)
            .arena(ocsvm::KernelRowArena::with_budget(64 << 20));
        let (warm_best, stats) = search.sweep_all(&sets);
        assert!(stats.warm_cells > 0, "ladder cells after the first should be seeded");
        assert!(stats.arena.hits > 0, "regularization ladder must reuse arena rows");
        assert_eq!(warm_best.len(), sets.len());
        // Warm-started solves stop at a different point inside the solver's
        // KKT tolerance band, so the selected cell may differ from the cold
        // sweep's on knife-edge ties — but judged by the *cold* sweep's own
        // scores, the warm selection must be essentially as good as the
        // cold optimum.
        let (cold_cells, _) = search.clone().warm_start(false).sweep_cells(&sets);
        for (&user, params) in &warm_best {
            let cold = &cold_cells[&user];
            let best_acc = cold.iter().map(|c| c.summary.acc()).fold(f64::NEG_INFINITY, f64::max);
            let chosen = cold
                .iter()
                .find(|c| {
                    Kernel::default_for(c.kernel, vocab.n_features()) == params.kernel
                        && c.regularization == params.regularization
                })
                .expect("warm selection is a cell of the cold sweep");
            assert!(
                chosen.summary.acc() >= best_acc - 0.1,
                "{user}: warm pick acc {} vs cold best {best_acc}",
                chosen.summary.acc()
            );
        }
    }

    #[test]
    fn optimize_all_routes_through_the_sweep() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(30));
        let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::OcSvm)
            .regularizations(vec![0.5, 0.1])
            .arena(ocsvm::KernelRowArena::with_budget(64 << 20));
        let best = search.optimize_all(&sets);
        let (swept, _) = search.sweep_all(&sets);
        assert_eq!(best, swept);
    }

    #[test]
    fn sweep_respects_a_tiny_arena_budget() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(30));
        // A budget far below the working set: rows evict constantly, yet
        // results must match the unconstrained sweep exactly.
        let tight = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
            .regularizations(vec![0.5, 0.1])
            .warm_start(false)
            .arena(ocsvm::KernelRowArena::with_budget(16 << 10));
        let roomy = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
            .regularizations(vec![0.5, 0.1])
            .warm_start(false)
            .arena(ocsvm::KernelRowArena::with_budget(64 << 20));
        let (tight_cells, tight_stats) = tight.sweep_cells(&sets);
        let (roomy_cells, _) = roomy.sweep_cells(&sets);
        assert!(tight_stats.arena.evictions > 0, "tiny budget must evict");
        assert!(tight_stats.arena.bytes <= 16 << 10, "budget respected after the sweep");
        for (user, cells) in &tight_cells {
            let other = &roomy_cells[user];
            assert_eq!(cells.len(), other.len());
            for (a, b) in cells.iter().zip(other) {
                assert_eq!(a.summary.acc_self, b.summary.acc_self);
                assert_eq!(a.summary.acc_other, b.summary.acc_other);
            }
        }
    }

    #[test]
    fn other_window_subsamples_are_identical_across_kernels_and_entry_points() {
        // Regression: every cell of a user's sweep must see the *same*
        // `ACCother` probe subsample regardless of kernel and of whether the
        // sweep entered through `run_user`, `optimize_all` or `sweep_cells`
        // — otherwise ACCother differences between cells would reflect
        // sampling noise, not model quality.
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(50));
        let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
            .max_other_windows(7);
        let first = search.other_window_samples(&sets);
        let second = search.other_window_samples(&sets);
        for (user, sample) in &first {
            let again = &second[user];
            assert_eq!(sample.len(), again.len());
            for (a, b) in sample.iter().zip(again) {
                assert!(std::ptr::eq(*a, *b), "subsample must pick identical windows");
            }
            // And the subsample is the canonical deterministic one.
            let expected = subsample_evenly(sets[user].iter().collect::<Vec<_>>(), 7);
            assert_eq!(sample.len(), expected.len());
            for (a, b) in sample.iter().zip(&expected) {
                assert!(std::ptr::eq(*a, *b));
            }
        }
    }

    #[test]
    fn unknown_user_yields_no_cells() {
        let dataset = small_dataset();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        let sets = compute_window_sets(&vocab, &dataset, WindowConfig::PAPER_DEFAULT, Some(30));
        let search = ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::OcSvm);
        assert!(search.run_user(&sets, UserId(999)).is_empty());
        assert!(search.best_for_user(&sets, UserId(999)).is_none());
    }
}
