//! The streaming identification engine.

use crate::config::{EngineConfig, PrefilterConfig};
use ocsvm::SparseVector;
use proxylog::{DeviceId, Timestamp, Transaction, UserId};
use std::borrow::Borrow;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};
use webprofiler::{
    majority_vote, parallel_map, CandidateIndex, ShortlistScratch, TransactionWindow, UserProfile,
    Vocabulary, WindowKey, WindowStream,
};

/// Estimated per-batch scoring operations (windows × support vectors,
/// windows × 1 for collapsed linear models) below which a batch is scored
/// inline instead of fanning profiles out across cores — spawning scoped
/// threads costs tens of microseconds, which dwarfs small batches.
const PARALLEL_WORK_THRESHOLD: usize = 16_384;

/// One scored window on a monitored device, with its running vote.
///
/// The identification fields (`start`, `accepted_by`, `actual_users`)
/// match what [`webprofiler::identify_on_device`] produces for the same
/// window, and `vote` matches [`webprofiler::consecutive_window_vote`]
/// over the trailing [`EngineConfig::vote_k`] windows of the device — the
/// engine's batched scoring is bit-identical to offline per-window
/// scoring.
#[derive(Debug, Clone)]
pub struct WindowDecision {
    /// Device the window was observed on.
    pub device: DeviceId,
    /// Window start time (epoch-aligned grid).
    pub start: Timestamp,
    /// Transactions aggregated into the window.
    pub transaction_count: usize,
    /// The window's aggregated feature vector (kept so replays can verify
    /// bit-identity against offline aggregation).
    pub features: SparseVector,
    /// User models that accepted the window, ascending.
    pub accepted_by: Vec<UserId>,
    /// Ground-truth users active in the window, ascending.
    pub actual_users: Vec<UserId>,
    /// Strict-majority vote over the device's trailing windows, if any.
    pub vote: Option<UserId>,
    /// Wall-clock time the window spent closed-but-unscored (decision
    /// latency attributable to micro-batching).
    pub queue_latency: Duration,
}

/// Per-device incremental state: the open-window composer plus the
/// trailing acceptance sets the vote runs over.
#[derive(Debug)]
struct DeviceState<'a> {
    stream: WindowStream<'a>,
    /// Acceptance sets of the last `vote_k` scored windows, oldest first.
    history: VecDeque<Vec<UserId>>,
    /// How much of the stream's `late_dropped` count has already been
    /// folded into the engine's lifetime counter.
    late_synced: u64,
}

/// A closed window waiting for the next scoring batch.
#[derive(Debug)]
struct PendingWindow {
    device: DeviceId,
    window: TransactionWindow,
    enqueued: Instant,
}

/// Counters accumulated over an engine's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Devices with window state.
    pub devices: usize,
    /// Window streams opened: each device's first transaction, and its
    /// first one again after [`StreamEngine::evict_device`].
    pub streams_opened: u64,
    /// Windows closed and queued for scoring. Every closed window is
    /// eventually scored, shed, or still pending, so this equals
    /// `windows_scored + windows_shed + pending_windows()`.
    pub windows_closed: u64,
    /// Windows scored (decisions emitted).
    pub windows_scored: u64,
    /// Closed windows shed by per-device backpressure, never scored.
    pub windows_shed: u64,
    /// Transactions dropped as too late for every window that could have
    /// contained them (summed over devices).
    pub late_dropped: u64,
    /// Scoring batches run.
    pub batches: u64,
    /// Largest batch scored.
    pub max_batch: usize,
    /// Total wall-clock time spent in batched scoring.
    pub scoring: Duration,
    /// Candidates scored: exact profile scorings the shortlist left
    /// (Σ shortlist sizes). Scoring every profile would cost
    /// `windows_scored × profiles`.
    pub prefilter_candidates: u64,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} devices, {} windows scored in {} batches (max {}), \
             {} shed, {} late-dropped, {:.3}s scoring, {} candidates scored",
            self.devices,
            self.windows_scored,
            self.batches,
            self.max_batch,
            self.windows_shed,
            self.late_dropped,
            self.scoring.as_secs_f64(),
            self.prefilter_candidates,
        )
    }
}

/// The enrolled population an engine scores against, keyed by user.
pub type Profiles = BTreeMap<UserId, UserProfile>;

/// Online identification engine over an unbounded transaction stream.
///
/// Feed transactions from any source — a [`proxylog::LogTail`], a
/// channel, a live `tracegen` replay — via [`observe`](Self::observe);
/// decisions come back as soon as their scoring batch runs. See the crate
/// docs for the pipeline and the bit-identity guarantee.
///
/// The engine borrows its vocabulary for `'a`. It borrows its profiles
/// too by default (`P = &'a Profiles`), or owns them: `P` may be anything
/// that [`Borrow`]s a [`Profiles`] map, such as the map itself or an
/// `Arc` of it. An engine that owns its profiles and borrows a `'static`
/// vocabulary is a self-contained value that can live in a struct or
/// behind a lock instead of on a thread's stack.
#[derive(Debug)]
pub struct StreamEngine<'a, P = &'a Profiles> {
    profiles: P,
    vocab: &'a Vocabulary,
    config: EngineConfig,
    devices: BTreeMap<DeviceId, DeviceState<'a>>,
    /// Closed windows across all devices, oldest first, awaiting scoring.
    pending: Vec<PendingWindow>,
    streams_opened: u64,
    windows_closed: u64,
    windows_scored: u64,
    windows_shed: u64,
    /// Lifetime count of too-late transactions, accumulated as streams
    /// report them (exactly like `windows_shed`) so history survives
    /// device eviction.
    late_dropped: u64,
    batches: u64,
    max_batch: usize,
    scoring: Duration,
    /// Exact shortlist over the enrolled population, built once.
    index: CandidateIndex,
    /// Dense per-user scratch reused across windows.
    scratch: ShortlistScratch,
    prefilter_candidates: u64,
}

impl<'a, P: Borrow<Profiles>> StreamEngine<'a, P> {
    /// Creates an engine scoring against `profiles` (borrowed or owned).
    ///
    /// Builds a [`CandidateIndex`] over the profiles once. Each closed
    /// window is scored exactly only by the users on its shortlist, the
    /// users whose decision bound admits it; everyone else provably
    /// rejects it. The shortlist never prunes a user whose exact decision
    /// is `>= 0` (see the `webprofiler::prefilter` module docs), so every
    /// window is decided bit-identically to scoring every profile, for
    /// every kernel and both model families.
    ///
    /// # Panics
    ///
    /// Panics if any [`EngineConfig`] knob that must be positive is zero.
    pub fn new(profiles: P, vocab: &'a Vocabulary, config: EngineConfig) -> Self {
        config.validate();
        let index = CandidateIndex::build(profiles.borrow(), vocab);
        Self {
            profiles,
            vocab,
            config,
            devices: BTreeMap::new(),
            pending: Vec::new(),
            streams_opened: 0,
            windows_closed: 0,
            windows_scored: 0,
            windows_shed: 0,
            late_dropped: 0,
            batches: 0,
            max_batch: 0,
            scoring: Duration::ZERO,
            index,
            scratch: ShortlistScratch::default(),
            prefilter_candidates: 0,
        }
    }

    /// Returns the engine unchanged; `config` is dropped unused.
    ///
    /// Kept only so existing callers still build: this call used to switch
    /// scoring from every profile to the candidate shortlist, which every
    /// engine now always uses (see [`new`](Self::new)).
    pub fn with_prefilter(self, _config: PrefilterConfig) -> Self {
        self
    }

    /// Returns the engine unchanged; `arena` is dropped unused.
    ///
    /// Kept only so existing callers still build: scoring used to charge
    /// non-linear kernel rows to a shared [`ocsvm::KernelRowArena`], but
    /// every closed window is a fresh probe, so no row was ever reused.
    /// Scoring now goes straight through
    /// [`UserProfile::batch_decision_values`], with or without this call.
    pub fn with_arena(self, _arena: std::sync::Arc<ocsvm::KernelRowArena>) -> Self {
        self
    }

    /// The configuration in force.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Closed windows currently waiting for a scoring batch.
    pub fn pending_windows(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one transaction; returns the decisions of any scoring batch
    /// it triggered (usually empty — decisions arrive in bursts of
    /// [`EngineConfig::batch_windows`]).
    ///
    /// Transactions may arrive out of order within the configured
    /// lateness; older stragglers are dropped and counted
    /// ([`EngineStats::late_dropped`]), never scored into a wrong window.
    pub fn observe(&mut self, tx: Transaction) -> Vec<WindowDecision> {
        let device = tx.device;
        if !self.devices.contains_key(&device) {
            self.streams_opened += 1;
            self.devices.insert(
                device,
                DeviceState {
                    stream: WindowStream::new(
                        self.vocab,
                        self.config.window,
                        WindowKey::Device(device),
                    )
                    .with_lateness(self.config.lateness_secs),
                    history: VecDeque::with_capacity(self.config.vote_k),
                    late_synced: 0,
                },
            );
        }
        let state = self.devices.get_mut(&device).expect("just inserted");
        let closed = state.stream.offer(tx);
        // Fold new late drops into the lifetime counter immediately, so
        // the count survives the device's state being evicted.
        let late = state.stream.late_dropped();
        if late > state.late_synced {
            self.late_dropped += late - state.late_synced;
            state.late_synced = late;
        }
        self.enqueue(device, closed);
        if self.pending.len() >= self.config.batch_windows {
            self.score_pending()
        } else {
            Vec::new()
        }
    }

    /// Scores every pending window now, without waiting for a full batch —
    /// for latency-sensitive callers or quiet periods.
    pub fn drain(&mut self) -> Vec<WindowDecision> {
        self.score_pending()
    }

    /// Ends the stream: flushes every device's open windows and scores
    /// everything still pending. The engine stays usable afterwards (its
    /// window streams restart on the next transaction).
    pub fn finish(&mut self) -> Vec<WindowDecision> {
        let flushed: Vec<(DeviceId, Vec<TransactionWindow>)> = self
            .devices
            .iter_mut()
            .map(|(&device, state)| (device, state.stream.flush()))
            .collect();
        for (device, windows) in flushed {
            self.enqueue(device, windows);
        }
        self.score_pending()
    }

    /// Lifetime counters (live devices, streams opened, windows
    /// closed/scored/shed, late drops, batch sizes, scoring time,
    /// candidates scored). All counters except `devices` are cumulative over
    /// the engine's lifetime: evicting a device does not erase what it
    /// already contributed.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            devices: self.devices.len(),
            streams_opened: self.streams_opened,
            windows_closed: self.windows_closed,
            windows_scored: self.windows_scored,
            windows_shed: self.windows_shed,
            late_dropped: self.late_dropped,
            batches: self.batches,
            max_batch: self.max_batch,
            scoring: self.scoring,
            prefilter_candidates: self.prefilter_candidates,
        }
    }

    /// Retires a device's window state — a monitored host going away, or
    /// an idle-state sweep bounding memory. The device's open windows are
    /// flushed and scored (together with everything else pending, like
    /// [`drain`](Self::drain)); the returned decisions include them. The
    /// device's contribution to the lifetime counters
    /// ([`EngineStats::late_dropped`] in particular) is retained. A later
    /// transaction from the same device reopens it from scratch.
    pub fn evict_device(&mut self, device: DeviceId) -> Vec<WindowDecision> {
        if !self.devices.contains_key(&device) {
            return Vec::new();
        }
        let windows = self.devices.get_mut(&device).expect("checked above").stream.flush();
        self.enqueue(device, windows);
        let decisions = self.score_pending();
        self.devices.remove(&device);
        decisions
    }

    /// Queues closed windows for scoring, shedding the device's oldest
    /// pending windows beyond [`EngineConfig::max_pending_per_device`].
    fn enqueue(&mut self, device: DeviceId, windows: Vec<TransactionWindow>) {
        if windows.is_empty() {
            return;
        }
        self.windows_closed += windows.len() as u64;
        let now = Instant::now();
        self.pending.extend(windows.into_iter().map(|window| PendingWindow {
            device,
            window,
            enqueued: now,
        }));
        let queued = self.pending.iter().filter(|p| p.device == device).count();
        if queued > self.config.max_pending_per_device {
            let mut excess = queued - self.config.max_pending_per_device;
            let shed = excess;
            self.pending.retain(|p| {
                if excess > 0 && p.device == device {
                    excess -= 1;
                    false
                } else {
                    true
                }
            });
            self.windows_shed += shed as u64;
        }
    }

    /// Scores every pending window in one micro-batch — each window's
    /// candidate shortlist first, then one exact batched scoring call per
    /// shortlisted profile — then per-window acceptance sets and trailing
    /// votes in arrival order.
    fn score_pending(&mut self) -> Vec<WindowDecision> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let batch: Vec<PendingWindow> = std::mem::take(&mut self.pending);
        let started = Instant::now();
        let probes: Vec<&SparseVector> = batch.iter().map(|p| &p.window.features).collect();
        let shortlists: Vec<Vec<u32>> = probes
            .iter()
            .map(|features| self.index.shortlist(features, 0, &mut self.scratch))
            .collect();
        let accepted = self.score_shortlisted(&probes, &shortlists);
        self.prefilter_candidates += shortlists.iter().map(|l| l.len() as u64).sum::<u64>();
        self.scoring += started.elapsed();
        self.batches += 1;
        self.max_batch = self.max_batch.max(batch.len());
        self.windows_scored += batch.len() as u64;
        let mut decisions = Vec::with_capacity(batch.len());
        for (accepted_by, pending) in accepted.into_iter().zip(batch) {
            let state = self.devices.get_mut(&pending.device).expect("scored unknown device");
            state.history.push_back(accepted_by.clone());
            if state.history.len() > self.config.vote_k {
                state.history.pop_front();
            }
            let vote = majority_vote(state.history.iter().map(|set| set.as_slice()));
            decisions.push(WindowDecision {
                device: pending.device,
                start: pending.window.start,
                transaction_count: pending.window.transaction_count,
                features: pending.window.features,
                accepted_by,
                actual_users: pending.window.users,
                vote,
                queue_latency: pending.enqueued.elapsed(),
            });
        }
        decisions
    }

    /// Exact stage: each shortlisted (user, windows) group runs one
    /// batched exact scoring call over just that user's shortlisted
    /// windows; users outside a window's shortlist provably reject it.
    /// Returns each probe's accepted users, ascending.
    fn score_shortlisted(
        &self,
        probes: &[&SparseVector],
        shortlists: &[Vec<u32>],
    ) -> Vec<Vec<UserId>> {
        // Regroup window-major shortlists into user-major window lists so
        // each profile keeps the batched-scoring amortization.
        let mut per_user: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (j, list) in shortlists.iter().enumerate() {
            for &slot in list {
                per_user.entry(slot).or_default().push(j);
            }
        }
        let items: Vec<(UserId, &UserProfile, Vec<usize>)> = per_user
            .into_iter()
            .map(|(slot, windows)| {
                let user = self.index.user_at(slot);
                let profile = self.profiles.borrow().get(&user).expect("indexed unknown user");
                (user, profile, windows)
            })
            .collect();
        let work: usize = items
            .iter()
            .map(|(_, profile, windows)| match profile.params().kernel {
                ocsvm::Kernel::Linear => windows.len(),
                _ => windows.len() * profile.support_vector_count(),
            })
            .sum();
        let score = |profile: &UserProfile, windows: &[usize]| {
            let sub: Vec<&SparseVector> = windows.iter().map(|&j| probes[j]).collect();
            profile.batch_decision_values(&sub)
        };
        let values: Vec<Vec<f64>> = if work >= PARALLEL_WORK_THRESHOLD {
            parallel_map(&items, |(_, profile, windows)| score(profile, windows))
        } else {
            items.iter().map(|(_, profile, windows)| score(profile, windows)).collect()
        };
        let mut accepted: Vec<Vec<UserId>> = vec![Vec::new(); probes.len()];
        // Slots ascend through the BTreeMap, so each window's accepted
        // set fills in ascending user order — identical to the offline
        // identifier's profile scan.
        for ((user, _, windows), vals) in items.iter().zip(&values) {
            for (&j, &v) in windows.iter().zip(vals) {
                if v >= 0.0 {
                    accepted[j].push(*user);
                }
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proxylog::{AppTypeId, CategoryId, HttpAction, Reputation, SiteId, SubtypeId, UriScheme};
    use tracegen::{Scenario, TraceGenerator};
    use webprofiler::ProfileTrainer;

    fn tx_at(secs: i64, user: u32, device: u32) -> Transaction {
        Transaction {
            timestamp: Timestamp(secs),
            user: UserId(user),
            device: DeviceId(device),
            site: SiteId(0),
            action: HttpAction::Get,
            scheme: UriScheme::Http,
            category: CategoryId(0),
            subtype: SubtypeId(0),
            app_type: AppTypeId(0),
            reputation: Reputation::Minimal,
            private_destination: false,
        }
    }

    fn trained() -> (proxylog::Dataset, Vocabulary) {
        let dataset = TraceGenerator::new(Scenario::quick_test()).generate();
        let vocab = Vocabulary::new(dataset.taxonomy().clone());
        (dataset, vocab)
    }

    #[test]
    fn decisions_arrive_in_batches_and_finish_flushes_the_tail() {
        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let config = EngineConfig { batch_windows: 16, ..EngineConfig::default() };
        let mut engine = StreamEngine::new(&profiles, &vocab, config);
        let mut bursts = Vec::new();
        for tx in dataset.transactions() {
            let decisions = engine.observe(*tx);
            if !decisions.is_empty() {
                assert!(decisions.len() >= 16, "partial batch of {}", decisions.len());
                bursts.push(decisions.len());
            }
        }
        let tail = engine.finish();
        assert!(!bursts.is_empty(), "no full batch ever fired");
        assert!(!tail.is_empty(), "finish flushed nothing");
        let stats = engine.stats();
        assert_eq!(stats.windows_scored, bursts.iter().sum::<usize>() as u64 + tail.len() as u64);
        assert_eq!(stats.windows_shed, 0);
        assert!(stats.max_batch >= 16);
        assert_eq!(stats.devices, dataset.devices().len());
    }

    #[test]
    fn backpressure_sheds_oldest_windows_per_device() {
        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        // A huge batch threshold so nothing is scored while device 0 floods
        // the queue past its quota.
        let config = EngineConfig {
            batch_windows: usize::MAX,
            max_pending_per_device: 4,
            ..EngineConfig::default()
        };
        let mut engine = StreamEngine::new(&profiles, &vocab, config);
        // Non-overlapping 60 s windows, one transaction each, in order:
        // every new window closes the previous one.
        for i in 0..20 {
            let out = engine.observe(tx_at(i64::from(i) * 120, 0, 0));
            assert!(out.is_empty(), "nothing should be scored yet");
        }
        assert_eq!(engine.pending_windows(), 4, "quota bounds the queue");
        let stats = engine.stats();
        assert!(stats.windows_shed > 0);
        let decisions = engine.drain();
        assert_eq!(decisions.len(), 4);
        // The survivors are the newest windows.
        let starts: Vec<i64> = decisions.iter().map(|d| d.start.as_secs()).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
        assert!(starts[0] >= 15 * 120, "oldest windows were shed first: {starts:?}");
    }

    #[test]
    fn drain_scores_partial_batches() {
        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let mut engine = StreamEngine::new(&profiles, &vocab, EngineConfig::default());
        let device = dataset.devices()[0];
        let txs: Vec<Transaction> = dataset.for_device(device).copied().collect();
        for tx in &txs[..txs.len().min(200)] {
            let _ = engine.observe(*tx);
        }
        if engine.pending_windows() > 0 {
            let decisions = engine.drain();
            assert!(!decisions.is_empty());
        }
        assert_eq!(engine.pending_windows(), 0);
        // Draining an empty queue is a no-op.
        assert!(engine.drain().is_empty());
    }

    #[test]
    fn with_arena_scores_like_a_plain_engine_and_leaves_the_arena_untouched() {
        let (dataset, vocab) = trained();
        // RBF profiles, so scoring computes support-vector kernel rows that
        // an arena could cache (linear models collapse to a weight vector).
        let (profiles, _) = ProfileTrainer::new(&vocab)
            .kernel(ocsvm::Kernel::Rbf { gamma: 0.05 })
            .max_training_windows(150)
            .train_all(&dataset);
        let config = EngineConfig { batch_windows: 16, ..EngineConfig::default() };
        let arena = ocsvm::KernelRowArena::with_budget(32 << 20);
        let mut plain = StreamEngine::new(&profiles, &vocab, config);
        let mut shim =
            StreamEngine::new(&profiles, &vocab, config).with_arena(std::sync::Arc::clone(&arena));
        let mut plain_decisions = Vec::new();
        let mut shim_decisions = Vec::new();
        for tx in dataset.transactions().iter().take(2_000) {
            plain_decisions.extend(plain.observe(*tx));
            shim_decisions.extend(shim.observe(*tx));
        }
        plain_decisions.extend(plain.finish());
        shim_decisions.extend(shim.finish());
        assert_eq!(plain_decisions.len(), shim_decisions.len());
        assert!(!shim_decisions.is_empty());
        // Every field but the wall-clock queue latency.
        for (a, b) in plain_decisions.iter().zip(&shim_decisions) {
            assert_eq!(a.device, b.device);
            assert_eq!(a.start, b.start);
            assert_eq!(a.transaction_count, b.transaction_count);
            assert_eq!(a.features, b.features);
            assert_eq!(a.accepted_by, b.accepted_by);
            assert_eq!(a.actual_users, b.actual_users);
            assert_eq!(a.vote, b.vote);
        }
        assert_eq!(arena.stats().requests, 0, "scoring must not consult the arena");
        assert!(arena.is_empty());
    }

    #[test]
    fn prefiltered_engine_is_bit_identical_to_exhaustive() {
        let (dataset, vocab) = trained();
        // Default profiles are linear SVDD; the shortlist keeps every user
        // whose exact affine decision is not clearly negative.
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let config = EngineConfig { batch_windows: 16, ..EngineConfig::default() };
        let mut engine = StreamEngine::new(&profiles, &vocab, config);
        let mut decisions = Vec::new();
        for tx in dataset.transactions() {
            decisions.extend(engine.observe(*tx));
        }
        decisions.extend(engine.finish());
        assert!(!decisions.is_empty());
        // Exhaustive oracle: every profile decides every window, and the
        // vote runs over the device's trailing oracle sets.
        let mut history: BTreeMap<DeviceId, VecDeque<Vec<UserId>>> = BTreeMap::new();
        for decision in &decisions {
            let scan: Vec<UserId> = profiles
                .iter()
                .filter(|(_, profile)| profile.decision_value(&decision.features) >= 0.0)
                .map(|(&user, _)| user)
                .collect();
            assert_eq!(decision.accepted_by, scan, "window at {}", decision.start);
            let trailing = history.entry(decision.device).or_default();
            trailing.push_back(scan);
            if trailing.len() > config.vote_k {
                trailing.pop_front();
            }
            let vote = majority_vote(trailing.iter().map(|set| set.as_slice()));
            assert_eq!(decision.vote, vote, "vote at {}", decision.start);
        }
        let stats = engine.stats();
        assert!(stats.prefilter_candidates > 0);
        assert!(
            stats.prefilter_candidates <= stats.windows_scored * profiles.len() as u64,
            "the shortlist never exceeds the population"
        );
    }

    #[test]
    fn an_engine_owning_its_profiles_decides_like_a_borrowing_one() {
        // An owning engine with a 'static vocabulary can be moved between
        // threads and shared behind a lock.
        fn assert_send<T: Send>() {}
        assert_send::<StreamEngine<'static, Profiles>>();
        assert_send::<StreamEngine<'static, std::sync::Arc<Profiles>>>();

        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let config = EngineConfig { batch_windows: 16, ..EngineConfig::default() };
        let mut borrowing = StreamEngine::new(&profiles, &vocab, config);
        let mut owning = StreamEngine::new(std::sync::Arc::new(profiles.clone()), &vocab, config);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for tx in dataset.transactions() {
            a.extend(borrowing.observe(*tx));
            b.extend(owning.observe(*tx));
        }
        a.extend(borrowing.finish());
        b.extend(owning.finish());
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.device, x.start, &x.accepted_by, x.vote),
                (y.device, y.start, &y.accepted_by, y.vote)
            );
        }
        assert_eq!(borrowing.stats().windows_scored, owning.stats().windows_scored);
    }

    #[test]
    fn late_drops_survive_device_eviction() {
        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let config =
            EngineConfig { batch_windows: usize::MAX, lateness_secs: 0, ..EngineConfig::default() };
        let mut engine = StreamEngine::new(&profiles, &vocab, config);
        // Advance device 0's watermark far past t = 0, then send a
        // straggler from t = 0: with zero lateness its windows are long
        // closed, so it must be dropped and counted.
        let _ = engine.observe(tx_at(10_000, 0, 0));
        let _ = engine.observe(tx_at(0, 0, 0));
        assert_eq!(engine.stats().late_dropped, 1);
        let _ = engine.evict_device(DeviceId(0));
        assert_eq!(
            engine.stats().late_dropped,
            1,
            "lifetime late-drop count must not vanish with the device"
        );
        assert_eq!(engine.stats().devices, 0);
    }

    #[test]
    fn evict_device_flushes_and_scores_its_tail() {
        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let config = EngineConfig { batch_windows: usize::MAX, ..EngineConfig::default() };
        let mut engine = StreamEngine::new(&profiles, &vocab, config);
        let device = dataset.devices()[0];
        for tx in dataset.for_device(device).take(300) {
            let out = engine.observe(*tx);
            assert!(out.is_empty(), "batch threshold keeps everything pending");
        }
        let decisions = engine.evict_device(device);
        assert!(!decisions.is_empty(), "eviction must flush and score the open tail");
        assert!(decisions.iter().all(|d| d.device == device));
        assert_eq!(engine.stats().devices, 0);
        assert_eq!(engine.pending_windows(), 0);
        // Evicting an unknown device is a no-op.
        assert!(engine.evict_device(DeviceId(9_999)).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch_windows must be positive")]
    fn zero_batch_size_is_rejected() {
        let (dataset, vocab) = trained();
        let (profiles, _) =
            ProfileTrainer::new(&vocab).max_training_windows(150).train_all(&dataset);
        let config = EngineConfig { batch_windows: 0, ..EngineConfig::default() };
        let _ = StreamEngine::new(&profiles, &vocab, config);
    }
}
