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
use crate::trainer::{subsample_evenly, ProfileTrainer};
use crate::vocab::Vocabulary;
use crate::window::WindowConfig;
use ocsvm::{
    ArenaStats, GramMatrix, Kernel, KernelKind, KernelRowArena, ProbePanel, SparseVector,
    DEFAULT_SWEEP_BUDGET,
};
use parcore::parallel_map;
use proxylog::{Dataset, UserId};
use std::collections::BTreeMap;
use std::ops::Range;
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
    /// Wall-clock nanoseconds spent inside the solver, summed over every
    /// cell solve of the sweep. Scoring and scheduling are excluded.
    pub train_nanos: u64,
    /// Kernel-row arena activity during the sweep (delta, not lifetime).
    pub arena: ArenaStats,
    /// `ACCother` (cell, probe) pairs a decision bound examined, per kernel
    /// in [`KernelKind::ALL`] order: every other user's probe, never the
    /// cell's own user's. Linear cells score every probe through one GEMV
    /// and examine none.
    pub bound_pairs: [u64; KernelKind::ALL.len()],
    /// Of [`bound_pairs`](Self::bound_pairs), the pairs the bound admitted
    /// and the support vectors scored exactly, per kernel.
    pub scored_pairs: [u64; KernelKind::ALL.len()],
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

    /// Share of the kernel's bound-examined `ACCother` pairs that the
    /// bound pruned without exact scoring; `None` when it examined none.
    pub fn pruned_share(&self, kind: KernelKind) -> Option<f64> {
        let k = kind_index(kind);
        let examined = self.bound_pairs[k];
        (examined > 0).then(|| 1.0 - self.scored_pairs[k] as f64 / examined as f64)
    }
}

/// Position of `kind` in [`KernelKind::ALL`].
fn kind_index(kind: KernelKind) -> usize {
    KernelKind::ALL.iter().position(|&k| k == kind).expect("every kind is in ALL")
}

/// Stage 2: per-user kernel and `ν`/`C` sweep (Tab. III).
///
/// The sweep is executed by a work-stealing scheduler over *chains*: one
/// chain per (user, kernel), walking the regularization ladder so each
/// cell's `α` solution can warm-start the next (opt in with
/// [`warm_start`](Self::warm_start)). Gram rows are cached in one
/// memory-budgeted [`KernelRowArena`] shared by training and `ACCself`
/// scoring: the one handed to [`arena`](Self::arena), or else one of
/// [`DEFAULT_SWEEP_BUDGET`] bytes that each sweep creates and drops when it
/// returns.
#[derive(Debug, Clone)]
pub struct ModelGridSearch<'a> {
    vocab: &'a Vocabulary,
    window: WindowConfig,
    kind: ModelKind,
    max_other_windows: usize,
    regularizations: Vec<f64>,
    warm_start: bool,
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
            arena: None,
            workers: None,
        }
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

    /// Uses a specific kernel-row arena instead of a fresh
    /// [`DEFAULT_SWEEP_BUDGET`]-byte arena per sweep, e.g. one with a
    /// custom byte budget, or one shared by several sweeps so rows survive
    /// from one to the next.
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
    /// The `ACCother` window samples are drawn once and packed into one
    /// probe panel that every user's chains read. Kernel rows live in the
    /// sweep's [`KernelRowArena`], so cached rows are bounded by the arena
    /// budget rather than the sum of per-user Gram matrices.
    pub fn optimize_all(&self, windows: &WindowSets) -> BTreeMap<UserId, ProfileParams> {
        self.sweep_all(windows).0
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
    /// the sweep. Training's Gram rows are cached in the shared
    /// memory-budgeted arena keyed by user, kernel and a content
    /// fingerprint; `ACCother` probes are scored through the models'
    /// decision bounds and cache no rows.
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
        let arena =
            self.arena.clone().unwrap_or_else(|| KernelRowArena::with_budget(DEFAULT_SWEEP_BUDGET));
        let arena_before = arena.stats();
        let n_features = self.vocab.n_features();

        // The sweep's one `ACCother` probe set: every user's sample,
        // flattened in ascending user order and packed into one panel that
        // every cell scores. A user's `ACCother` averages over every range
        // but its own, so its cells skip its own probes.
        let mut probes: Vec<&SparseVector> = Vec::new();
        let mut ranges: Vec<(UserId, Range<usize>)> = Vec::with_capacity(samples.len());
        for (&user, sample) in &samples {
            let start = probes.len();
            probes.extend(sample.iter().copied());
            ranges.push((user, start..probes.len()));
        }
        let panel = ProbePanel::pack(&probes);

        // Per-user context shared by the user's chains.
        struct UserCtx<'w> {
            user: UserId,
            own: &'w [SparseVector],
            own_refs: Vec<&'w SparseVector>,
            /// The user's own range of the panel's probes.
            own_probes: Range<usize>,
        }
        let contexts: Vec<UserCtx<'_>> = windows
            .iter()
            .filter(|&(user, own)| swept(user) && !own.is_empty())
            .map(|(&user, own)| UserCtx {
                user,
                own,
                own_refs: own.iter().collect(),
                own_probes: ranges
                    .iter()
                    .find(|(probe_user, _)| *probe_user == user)
                    .map_or(0..0, |(_, range)| range.clone()),
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
        }
        let chains: Vec<Chain<'_>> = contexts
            .iter()
            .enumerate()
            .flat_map(|(ctx_idx, ctx)| {
                let arena = &arena;
                KernelKind::ALL.iter().map(move |&kind| {
                    let kernel = Kernel::default_for(kind, n_features);
                    let gram = GramMatrix::in_arena(kernel, ctx.own, arena, u64::from(ctx.user.0));
                    Chain { ctx: ctx_idx, kind, kernel, gram }
                })
            })
            .collect();

        struct CellTask {
            chain: usize,
            reg_idx: usize,
            seed: Option<Vec<f64>>,
            cells: Vec<ModelGridCell>,
        }
        let seeds: Vec<CellTask> = (0..chains.len())
            .map(|chain| CellTask {
                chain,
                reg_idx: 0,
                seed: None,
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
        let train_nanos = AtomicU64::new(0);
        let bound_pairs: [AtomicU64; KernelKind::ALL.len()] = Default::default();
        let scored_pairs: [AtomicU64; KernelKind::ALL.len()] = Default::default();

        let steal_stats = run_chains(
            seeds,
            self.workers.unwrap_or_else(schedule::default_workers),
            |mut task: CellTask| {
                let chain = &chains[task.chain];
                let ctx = &contexts[chain.ctx];
                let regularization = self.regularizations[task.reg_idx];
                let trainer = ProfileTrainer::new(self.vocab)
                    .window(self.window)
                    .kind(self.kind)
                    .kernel(chain.kernel)
                    .regularization(regularization);
                let seed = if self.warm_start { task.seed.as_deref() } else { None };
                let solve_started = std::time::Instant::now();
                let solved =
                    trainer.train_from_vectors_seeded(ctx.user, ctx.own, &chain.gram, seed);
                train_nanos.fetch_add(solve_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                // Infeasible parameters for the window count train nothing.
                if let Ok((profile, alpha)) = solved {
                    let iterations = profile.diagnostics().iterations as u64;
                    let inputs = CellInputs {
                        user: ctx.user,
                        gram: &chain.gram,
                        own_refs: &ctx.own_refs,
                        panel: &panel,
                        ranges: &ranges,
                        own_probes: ctx.own_probes.clone(),
                    };
                    let (cell, scored) =
                        self.evaluate_cell(&profile, chain.kind, regularization, inputs);
                    if let Some(scored) = scored {
                        let k = kind_index(chain.kind);
                        let examined = panel.probe_count() - ctx.own_probes.len();
                        bound_pairs[k].fetch_add(examined as u64, Ordering::Relaxed);
                        scored_pairs[k].fetch_add(scored as u64, Ordering::Relaxed);
                    }
                    if seed.is_some() {
                        warm_cells.fetch_add(1, Ordering::Relaxed);
                        warm_iterations.fetch_add(iterations, Ordering::Relaxed);
                    } else {
                        cold_cells.fetch_add(1, Ordering::Relaxed);
                        cold_iterations.fetch_add(iterations, Ordering::Relaxed);
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
            train_nanos: train_nanos.into_inner(),
            arena: arena.stats().since(&arena_before),
            bound_pairs: bound_pairs.map(AtomicU64::into_inner),
            scored_pairs: scored_pairs.map(AtomicU64::into_inner),
        };
        (by_user, stats)
    }

    /// Scores one trained cell: acceptance over the user's own windows and
    /// over the other users' probes of the sweep's panel, reduced to
    /// `ACCself`/`ACCother`, with the probes the decision bound left to
    /// exact scoring (`None` for linear models). The user's own probes are
    /// skipped: `ACCother` never reads them. `ACCself` reads the user's shared Gram rows (non-linear
    /// kernels) or the collapsed weight vector (linear); `ACCother` goes
    /// through [`OneClassModel::panel_acceptance_counted`]. Every decision
    /// equals the per-point one.
    ///
    /// [`OneClassModel::panel_acceptance_counted`]: ocsvm::OneClassModel::panel_acceptance_counted
    fn evaluate_cell(
        &self,
        profile: &UserProfile,
        kind: KernelKind,
        regularization: f64,
        inputs: CellInputs<'_, '_>,
    ) -> (ModelGridCell, Option<usize>) {
        let self_values = match kind {
            KernelKind::Linear => None,
            _ => profile.training_decision_values(inputs.gram),
        }
        .unwrap_or_else(|| profile.batch_decision_values(inputs.own_refs));
        let (probe_accepted, scored) =
            profile.panel_acceptance_counted(inputs.panel, inputs.own_probes);
        let cell = ModelGridCell {
            kernel: kind,
            regularization,
            summary: acceptance_summary(
                inputs.ranges.iter().filter(|(user, _)| *user != inputs.user),
                &self_values,
                &probe_accepted,
            ),
        };
        (cell, scored)
    }
}

/// Borrowed inputs of one sweep-cell evaluation.
struct CellInputs<'c, 'w> {
    user: UserId,
    gram: &'c GramMatrix<'w>,
    own_refs: &'c [&'w SparseVector],
    /// The sweep's `ACCother` probes (every user's sample), packed once.
    panel: &'c ProbePanel<'c>,
    /// Each user's range of the panel's probes, in ascending user order.
    ranges: &'c [(UserId, Range<usize>)],
    /// `user`'s own range, which the cell does not score.
    own_probes: Range<usize>,
}

/// `ACCself`/`ACCother`: acceptance over the user's own windows (from
/// their decision values), and the mean of the per-user acceptance over
/// each other user's probe range.
fn acceptance_summary<'r>(
    other_ranges: impl Iterator<Item = &'r (UserId, Range<usize>)>,
    self_values: &[f64],
    probe_accepted: &[bool],
) -> AcceptanceSummary {
    let accepted = self_values.iter().filter(|&&v| v >= 0.0).count();
    let acc_self = accepted as f64 / self_values.len() as f64;
    let others: Vec<f64> = other_ranges
        .map(|(_, range)| {
            if range.is_empty() {
                return 0.0;
            }
            let accepted = probe_accepted[range.clone()].iter().filter(|&&a| a).count();
            accepted as f64 / range.len() as f64
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
        let search = |budget: usize| {
            ModelGridSearch::new(&vocab, WindowConfig::PAPER_DEFAULT, ModelKind::Svdd)
                .regularizations(vec![0.5, 0.1])
                .warm_start(false)
                .arena(ocsvm::KernelRowArena::with_budget(budget))
        };
        let (roomy_cells, _) = search(64 << 20).sweep_cells(&sets);
        // Budgets far below the working set — down to none at all and to
        // one row of the largest Gram matrix: rows evict constantly, yet
        // results must match the unconstrained sweep exactly.
        let one_gram_row = sets.values().map(Vec::len).max().unwrap() * std::mem::size_of::<f64>();
        for budget in [16 << 10, 0, one_gram_row] {
            let (tight_cells, tight_stats) = search(budget).sweep_cells(&sets);
            assert!(tight_stats.arena.evictions > 0, "tiny budget {budget} must evict");
            assert!(tight_stats.arena.bytes <= budget, "budget {budget} respected after the sweep");
            assert_eq!(tight_cells.len(), roomy_cells.len());
            for (user, cells) in &tight_cells {
                let other = &roomy_cells[user];
                assert_eq!(cells.len(), other.len());
                for (a, b) in cells.iter().zip(other) {
                    assert_eq!(a.summary.acc_self, b.summary.acc_self);
                    assert_eq!(a.summary.acc_other, b.summary.acc_other);
                }
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
