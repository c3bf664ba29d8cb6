//! Two-stage identification at population scale: measures how far the
//! `webprofiler::CandidateIndex` prefilter pushes per-window decision
//! throughput past exhaustive scoring as the enrolled population grows
//! to millions of users, and verifies the equivalence claim while at it:
//! the process exits non-zero unless the two-stage run is bit-identical to
//! exhaustive scoring (`recall_at_k` exactly `1.0`).
//!
//! ```text
//! cargo run -p bench --bin identify_scale --release [--smoke]
//!     [--users N] [--probes N] [--reps N] [--json PATH]
//! ```
//!
//! The probe windows and a seed population come from a real generated
//! corpus (`Scenario::scaled`; `--smoke` uses `quick_test`), so probes
//! have realistic sparsity. The population is then padded with synthetic
//! linear-SVDD distractor users up to `--users` — training a million
//! profiles from a million-user corpus is neither feasible nor necessary
//! for measuring the *scoring* wall, which only sees decision functions.
//!
//! Reported per run:
//!
//! - `decisions_per_sec` / `exhaustive_decisions_per_sec`: probe windows
//!   fully decided against the whole population per second, two-stage vs
//!   exhaustive (`speedup` is their ratio);
//! - `recall_at_k`: fraction of exhaustively-accepted `(window, user)`
//!   pairs the shortlist retained — exactly `1.0` by the decision-bound
//!   guarantee (the name predates the exact shortlist);
//! - `shortlist_mean`: mean candidates receiving an exact score per
//!   window (the work the prefilter could not prune).
//!
//! Each leg is timed in `--reps` trials and the fastest trial counts. A
//! trial repeats its leg back to back until it has run for at least
//! 100 ms and reports the mean time per pass: at smoke scale one two-stage
//! pass takes a few milliseconds, which a single reading times at the
//! resolution of the scheduler rather than of the code.

use bench::{timed_trial, ExperimentConfig};
use ocsvm::{ProbePanel, SparseVector};
use proxylog::UserId;
use std::time::{Duration, Instant};
use tracegen::{Scenario, TraceGenerator};
use webprofiler::{
    parallel_map, CandidateIndex, ProfileTrainer, ShortlistScratch, UserProfile, Vocabulary,
    WindowAggregator, WindowConfig,
};

/// Synthetic users get ids above any corpus user id.
const SYNTHETIC_BASE: u32 = 1 << 20;

fn main() {
    let smoke = ExperimentConfig::has_flag("--smoke");
    let users = flag_or("--users", if smoke { 2_000usize } else { 10_000 });
    let probe_budget = flag_or("--probes", if smoke { 200usize } else { 500 });
    let reps = flag_or("--reps", if smoke { 3usize } else { 2 });

    // Corpus: realistic probe windows plus a trained seed population.
    let scenario = if smoke { Scenario::quick_test() } else { Scenario::scaled(40, 12, 1) };
    let dataset = TraceGenerator::new(scenario).generate();
    let vocab = Vocabulary::new(dataset.taxonomy().clone());
    let (mut profiles, _) =
        ProfileTrainer::new(&vocab).max_training_windows(100).train_all(&dataset);
    let corpus_users = profiles.len();

    let aggregator = WindowAggregator::new(&vocab, WindowConfig::PAPER_DEFAULT);
    let mut probes: Vec<SparseVector> = Vec::new();
    'outer: for device in dataset.devices() {
        for window in aggregator.device_windows(&dataset, device) {
            probes.push(window.features);
            if probes.len() >= probe_budget {
                break 'outer;
            }
        }
    }
    assert!(!probes.is_empty(), "corpus produced no probe windows");

    // Pad to the target population with synthetic linear-SVDD users, each
    // clustered on a deterministic handful of vocabulary columns.
    let pad = users.saturating_sub(corpus_users);
    let trainer = ProfileTrainer::new(&vocab);
    let seeds: Vec<u32> = (0..pad as u32).collect();
    let build_started = Instant::now();
    let synthetic: Vec<(UserId, UserProfile)> = parallel_map(&seeds, |&i| {
        let user = UserId(SYNTHETIC_BASE + i);
        let vectors = synthetic_vectors(u64::from(i), vocab.n_features());
        (user, trainer.train_from_vectors(user, &vectors).expect("synthetic training"))
    });
    profiles.extend(synthetic);
    let train_secs = build_started.elapsed().as_secs_f64();
    eprintln!(
        "# population: {} users ({corpus_users} from corpus, {pad} synthetic, {train_secs:.1} s), \
         {} probe windows",
        profiles.len(),
        probes.len(),
    );

    // Exhaustive baseline: the probes are packed once and every profile
    // scores the packed panel (the streaming engine's exhaustive path).
    let probe_refs: Vec<&SparseVector> = probes.iter().collect();
    let entries: Vec<(&UserId, &UserProfile)> = profiles.iter().collect();
    let mut exhaustive_accepted: Vec<Vec<UserId>> = Vec::new();
    let mut exhaustive_time = Duration::MAX;
    for _ in 0..reps.max(1) {
        let (accepted, per_pass) = timed_trial(|| {
            let panel = ProbePanel::pack(&probe_refs);
            let values: Vec<Vec<f64>> =
                parallel_map(&entries, |(_, profile)| profile.panel_decision_values(&panel));
            (0..probe_refs.len())
                .map(|j| {
                    entries
                        .iter()
                        .zip(&values)
                        .filter(|(_, vals)| vals[j] >= 0.0)
                        .map(|((&user, _), _)| user)
                        .collect::<Vec<UserId>>()
                })
                .collect::<Vec<_>>()
        });
        exhaustive_accepted = accepted;
        exhaustive_time = exhaustive_time.min(per_pass);
    }

    // Two-stage: build the index once, then shortlist + exact rerank.
    let started = Instant::now();
    let index = CandidateIndex::build(&profiles, &vocab);
    let build_secs = started.elapsed().as_secs_f64();
    let mut two_stage_accepted: Vec<Vec<UserId>> = Vec::new();
    let mut shortlisted_total = 0usize;
    let mut two_stage_time = Duration::MAX;
    for _ in 0..reps.max(1) {
        let mut scratch = ShortlistScratch::default();
        let ((accepted, shortlisted), per_pass) = timed_trial(|| {
            let mut shortlisted = 0usize;
            let accepted: Vec<Vec<UserId>> = probes
                .iter()
                .map(|probe| {
                    let shortlist = index.shortlist(probe, 0, &mut scratch);
                    shortlisted += shortlist.len();
                    shortlist
                        .into_iter()
                        .map(|slot| index.user_at(slot))
                        .filter(|user| profiles[user].accepts(probe))
                        .collect()
                })
                .collect();
            (accepted, shortlisted)
        });
        two_stage_accepted = accepted;
        shortlisted_total = shortlisted;
        two_stage_time = two_stage_time.min(per_pass);
    }

    // Recall of exhaustively-accepted pairs; the exact shortlist makes
    // the runs bit-identical.
    let total_accepted: usize = exhaustive_accepted.iter().map(Vec::len).sum();
    let retained: usize = exhaustive_accepted
        .iter()
        .zip(&two_stage_accepted)
        .map(|(exact, two)| exact.iter().filter(|user| two.contains(user)).count())
        .sum();
    let recall_at_k =
        if total_accepted == 0 { 1.0 } else { retained as f64 / total_accepted as f64 };
    let n_probes = probes.len() as f64;
    let exhaustive_dps = n_probes / exhaustive_time.as_secs_f64().max(1e-9);
    let two_stage_dps = n_probes / two_stage_time.as_secs_f64().max(1e-9);
    let speedup = two_stage_dps / exhaustive_dps.max(1e-9);
    let shortlist_mean = shortlisted_total as f64 / n_probes;

    println!("TWO-STAGE IDENTIFICATION ({} users, {} probe windows)", profiles.len(), probes.len());
    println!("  index build        {build_secs:>10.3} s");
    println!(
        "  exhaustive         {:>10.3} s  ({exhaustive_dps:.0} windows/s)",
        exhaustive_time.as_secs_f64(),
    );
    println!(
        "  two-stage          {:>10.3} s  ({two_stage_dps:.0} windows/s)",
        two_stage_time.as_secs_f64(),
    );
    println!("  speedup            {speedup:>10.1} x  over exhaustive scoring");
    println!(
        "  shortlist          {:>10.1}    mean candidates/window ({:.2} % of population)",
        shortlist_mean,
        100.0 * shortlist_mean / profiles.len() as f64,
    );
    println!(
        "  recall@k           {recall_at_k:>10.4}  ({retained}/{total_accepted} accepted pairs)"
    );

    if let Some(path) = ExperimentConfig::arg_value("--json") {
        let metrics = [
            ("users", profiles.len() as f64),
            ("probes", n_probes),
            ("build_secs", build_secs),
            ("exhaustive_decisions_per_sec", exhaustive_dps),
            ("decisions_per_sec", two_stage_dps),
            ("speedup", speedup),
            ("recall_at_k", recall_at_k),
            ("shortlist_mean", shortlist_mean),
        ];
        std::fs::write(&path, bench::json::emit(&metrics)).expect("writing identify metrics");
        eprintln!("# wrote {path}");
    }

    // Exactness is a property, not a tolerance: fail after reporting.
    if recall_at_k < 1.0 || exhaustive_accepted != two_stage_accepted {
        eprintln!("identify_scale: two-stage decisions differ from exhaustive scoring");
        std::process::exit(1);
    }
}

/// Deterministic per-user training vectors: a handful of home columns
/// with mild per-vector value jitter (no RNG dependency; splitmix64).
fn synthetic_vectors(seed: u64, n_features: usize) -> Vec<SparseVector> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0x1234_5678);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut columns: Vec<u32> = (0..6).map(|_| (next() % n_features as u64) as u32).collect();
    columns.sort_unstable();
    columns.dedup();
    columns.truncate(4);
    (0..8)
        .map(|i| {
            let pairs: Vec<(u32, f64)> = columns
                .iter()
                .map(|&c| (c, 0.5 + 0.05 * ((next() % 8) as f64) + 0.01 * (i % 3) as f64))
                .collect();
            SparseVector::from_pairs(pairs).expect("synthetic vector")
        })
        .collect()
}

fn flag_or<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    ExperimentConfig::arg_value(name)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{name} parse error: {e:?}")))
        .unwrap_or(default)
}
