//! The grid-search side: the kernel × regularisation sweep with warm
//! starts under a kernel-row budget below the Gram bytes, the cell it
//! selects per user, and the re-scoring of selected profiles through
//! `acceptance_ratio`.

use crate::procfs::{self, CpuTimes};
use crate::serve::Profiles;
use ocsvm::{GramMatrix, Kernel, KernelKind, KernelRowArena, SparseVector};
use proxylog::UserId;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use webprofiler::{
    acceptance_ratio, acceptance_ratio_refs, parallel_map, AcceptanceSummary, ModelGridCell,
    ModelGridSearch, ModelKind, ProfileTrainer, SweepStats, Vocabulary, WindowConfig, WindowSets,
};

/// Windows sampled from every other user for `ACCother`.
pub const MAX_OTHER_WINDOWS: usize = 40;

/// The classifier family of every profile the benchmark trains.
pub const KIND: ModelKind = ModelKind::OcSvm;

/// The regularisation ladder each (user, kernel) chain walks.
pub const REGULARIZATIONS: [f64; 8] = ModelGridSearch::COARSE_REGULARIZATIONS;

/// Sweep workers: the machine's cores, at most two.
pub fn workers() -> usize {
    parcore::default_workers().min(2)
}

/// The arena budget: half the bytes the per-user Gram matrices of every
/// kernel would take, so rows are filled and evicted.
fn arena_budget(sets: &WindowSets) -> usize {
    let gram_bytes: usize =
        sets.values().map(|w| w.len() * w.len() * std::mem::size_of::<f64>()).sum();
    gram_bytes * KernelKind::ALL.len() / 2
}

/// One timed sweep.
pub struct SweepRun {
    pub wall: Duration,
    pub cpu: CpuTimes,
    pub stats: SweepStats,
    pub cells: BTreeMap<UserId, Vec<ModelGridCell>>,
}

/// Runs the sweep once on a fresh arena. `sweep_all` is `sweep_cells`
/// plus a per-user argmax; the cells are kept so the selection can be
/// checked.
pub fn run(vocab: &Vocabulary, sets: &WindowSets, clk_tck: f64) -> SweepRun {
    let search = ModelGridSearch::new(vocab, WindowConfig::PAPER_DEFAULT, KIND)
        .regularizations(REGULARIZATIONS.to_vec())
        .max_other_windows(MAX_OTHER_WINDOWS)
        .warm_start(true)
        .workers(workers())
        .arena(KernelRowArena::with_budget(arena_budget(sets)));
    let cpu_before = procfs::cpu_times("self", clk_tck).expect("reading own CPU time");
    let started = Instant::now();
    let (cells, stats) = search.sweep_cells(sets);
    let wall = started.elapsed();
    let cpu = procfs::cpu_times("self", clk_tck).expect("reading own CPU time").since(&cpu_before);
    SweepRun { wall, cpu, stats, cells }
}

/// The cell `sweep_all` selects for each user: the highest `ACC`, the
/// last of equals.
pub fn selected(cells: &BTreeMap<UserId, Vec<ModelGridCell>>) -> BTreeMap<UserId, ModelGridCell> {
    cells
        .iter()
        .filter_map(|(&user, cells)| {
            let best = cells.iter().max_by(|a, b| {
                a.summary.acc().partial_cmp(&b.summary.acc()).expect("ACC is finite")
            })?;
            Some((user, *best))
        })
        .collect()
}

/// Rebuilds each user's selected profile as the sweep trained it: the
/// user's chain for the selected kernel walks the regularisation ladder
/// from its start, each solve seeded with the previous solution, up to the
/// selected value. A cold solve at the same cell can land elsewhere inside
/// the solver's tolerance band.
pub fn train_selected(
    vocab: &Vocabulary,
    sets: &WindowSets,
    selected: &BTreeMap<UserId, ModelGridCell>,
) -> Profiles {
    let entries: Vec<(&UserId, &ModelGridCell)> = selected.iter().collect();
    let trained = parallel_map(&entries, |(&user, cell)| {
        let own = &sets[&user];
        let kernel = Kernel::default_for(cell.kernel, vocab.n_features());
        let rows = GramMatrix::compute(kernel, own);
        let mut seed: Option<Vec<f64>> = None;
        for &regularization in &REGULARIZATIONS {
            let trainer =
                ProfileTrainer::new(vocab).kind(KIND).kernel(kernel).regularization(regularization);
            if let Ok((profile, alpha)) =
                trainer.train_from_vectors_seeded(user, own, &rows, seed.as_deref())
            {
                if regularization == cell.regularization {
                    return profile;
                }
                seed = Some(alpha);
            }
        }
        panic!("{user:?}: the selected cell is not on the ladder or did not train")
    });
    entries.into_iter().map(|(&user, _)| user).zip(trained).collect()
}

/// `ACCself` over each user's own windows and `ACCother` as the mean over
/// every other user's evenly spaced sample, both through
/// `acceptance_ratio`.
pub fn rescore(profiles: &Profiles, sets: &WindowSets) -> BTreeMap<UserId, AcceptanceSummary> {
    let samples: BTreeMap<UserId, Vec<&SparseVector>> = sets
        .iter()
        .map(|(&user, windows)| (user, evenly_spaced(windows, MAX_OTHER_WINDOWS)))
        .collect();
    let entries: Vec<(&UserId, &webprofiler::UserProfile)> = profiles.iter().collect();
    let summaries = parallel_map(&entries, |(&user, profile)| {
        let others: Vec<f64> = samples
            .iter()
            .filter(|(&other, _)| other != user)
            .map(|(_, sample)| acceptance_ratio_refs(profile, sample))
            .collect();
        AcceptanceSummary {
            acc_self: acceptance_ratio(profile, &sets[&user]),
            acc_other: others.iter().sum::<f64>() / others.len().max(1) as f64,
        }
    });
    entries.into_iter().map(|(&user, _)| user).zip(summaries).collect()
}

/// At most `max` items evenly spaced over `items`, the first always kept:
/// the sample the sweep scores `ACCother` on.
fn evenly_spaced(items: &[SparseVector], max: usize) -> Vec<&SparseVector> {
    if items.len() <= max || max == 0 {
        return items.iter().collect();
    }
    let stride = items.len() as f64 / max as f64;
    let mut picked = Vec::with_capacity(max);
    let mut next = 0.0f64;
    for (i, item) in items.iter().enumerate() {
        if i as f64 >= next && picked.len() < max {
            picked.push(item);
            next += stride;
        }
    }
    picked
}

/// Mean `ACC` over users.
pub fn mean_acc<'a>(summaries: impl IntoIterator<Item = &'a AcceptanceSummary>) -> f64 {
    let accs: Vec<f64> = summaries.into_iter().map(AcceptanceSummary::acc).collect();
    accs.iter().sum::<f64>() / accs.len().max(1) as f64
}
