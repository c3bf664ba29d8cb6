//! The serving side: the `identd` child process, the replayed ingest
//! lines, the check against the offline reference, and the traced
//! in-process replay of the same lines.

use crate::loadgen::{self, DriveOutcome};
use crate::procfs::{self, CpuTimes};
use crate::trace::Tracer;
use identd::json::Json;
use identd::proto::{self, DecisionRecord, Request};
use identd::Client;
use ocsvm::{Kernel, KernelRowArena, SparseVector};
use proxylog::{Dataset, DeviceId, Transaction, UserId};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use streamid::{EngineConfig, PrefilterConfig, StreamEngine, WindowDecision};
use webprofiler::{
    consecutive_window_vote, identify_on_device, majority_vote, CandidateIndex, ShortlistScratch,
    TransactionWindow, UserProfile, Vocabulary, WindowConfig, WindowKey, WindowStream,
};

pub const TENANT: &str = "t0";

/// Flags the daemon runs with: one worker per client connection (the
/// ingest stream and the decide/control connection), and a kernel-row
/// budget that non-linear scoring fills within seconds, so the daemon's
/// peak memory does not depend on how far into the budget a run gets.
/// Every other knob is the daemon's default.
pub const DAEMON_FLAGS: [&str; 6] =
    ["--listen", "127.0.0.1:0", "--workers", "2", "--arena-mb", "64"];

/// Bytes of one stored sparse entry: a `u32` column and an `f64` value.
const ENTRY_BYTES: u64 = 12;

/// The daemon's arena budget (`--arena-mb`), mirrored in-process.
const DAEMON_ARENA_BYTES: usize = 64 << 20;

pub type Profiles = BTreeMap<UserId, UserProfile>;

/// A running `identd` child process.
pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: String,
}

impl Daemon {
    pub fn start(exe: &Path) -> io::Result<Daemon> {
        let mut child = Command::new(exe)
            .args(DAEMON_FLAGS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let pid = child.id().to_string();
        let mut daemon = Daemon { child: None, addr: SocketAddr::from(([127, 0, 0, 1], 0)), pid };
        let stdout = child.stdout.take().expect("stdout is piped");
        daemon.child = Some(child);
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        daemon.addr = line
            .trim()
            .strip_prefix("identd listening on ")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| io::Error::other(format!("identd did not start: {line:?}")))?;
        Ok(daemon)
    }

    /// Waits for the drained daemon to exit; it must exit 0.
    pub fn stop(mut self) -> io::Result<()> {
        let mut child = self.child.take().expect("daemon already stopped");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("identd exited with {status}")))
                };
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("identd did not exit after drain"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Drains a daemon that served nothing (a set-up repetition) and waits
/// for it to exit.
pub fn retire(daemon: Daemon, mut control: Client) -> io::Result<()> {
    control.drain()?;
    drop(control);
    daemon.stop()
}

/// The replayed traffic: the transactions, the exact ingest lines that
/// carry them, and for each window the batch whose transaction closed it.
pub struct Replay {
    pub txs: Vec<Transaction>,
    pub lines: Vec<String>,
    pub batch_txs: usize,
    pub closing_batch: HashMap<(u32, i64), usize>,
    pub wire_bytes: usize,
}

impl Replay {
    /// `batches × batch_txs` consecutive transactions of `replayed`,
    /// starting at an offset drawn from `seed`, cut into ingest lines.
    /// Errors when the corpus is too short.
    pub fn build(
        vocab: &Vocabulary,
        replayed: &Dataset,
        seed: u64,
        batches: usize,
        batch_txs: usize,
    ) -> io::Result<Replay> {
        let wanted = batches * batch_txs;
        let slack = replayed.len().checked_sub(wanted).ok_or_else(|| {
            io::Error::other(format!(
                "corpus too small: {} replay transactions, {wanted} needed",
                replayed.len()
            ))
        })?;
        // Offsets stay within an eighth of the replay's length, so every
        // seed replays traffic from the same stretch of the week.
        let range = slack.min(wanted / 8) as u64;
        let offset = (splitmix64(seed) % (range + 1)) as usize;
        let txs = replayed.transactions()[offset..offset + wanted].to_vec();
        let lines: Vec<String> = txs
            .chunks(batch_txs)
            .map(|chunk| {
                let mut line = Json::Obj(vec![
                    ("verb".into(), Json::str("ingest")),
                    ("tenant".into(), Json::str(TENANT)),
                    ("txs".into(), Json::Arr(chunk.iter().map(proto::tx_to_json).collect())),
                ])
                .to_line();
                line.push('\n');
                line
            })
            .collect();
        let wire_bytes = lines.iter().map(String::len).sum();
        // Each device's windows close exactly as the engine's per-device
        // streams close them (lateness 0, the daemon's default).
        let mut streams: BTreeMap<DeviceId, WindowStream<'_>> = BTreeMap::new();
        let mut closing_batch = HashMap::new();
        for (i, tx) in txs.iter().enumerate() {
            let stream = streams.entry(tx.device).or_insert_with(|| {
                WindowStream::new(vocab, WindowConfig::PAPER_DEFAULT, WindowKey::Device(tx.device))
            });
            for window in stream.offer(*tx) {
                closing_batch.insert((tx.device.0, window.start.as_secs()), i / batch_txs);
            }
        }
        Ok(Replay { txs, lines, batch_txs, closing_batch, wire_bytes })
    }
}

/// One step of the splitmix64 generator: a well-mixed 64-bit value of `x`.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the daemon did during one timed replay.
pub struct ServeRun {
    pub drive: DriveOutcome,
    /// Decisions flushed by the drain, excluded from latency.
    pub flushed: Vec<DecisionRecord>,
    pub txs_sent: usize,
    pub daemon_cpu: CpuTimes,
    pub daemon_peak_mib: f64,
    pub stats: Json,
    pub wall: Duration,
}

/// Replays `replay` against a daemon already holding the tenant's
/// profiles, then drains it and waits for it to exit.
pub fn serve(
    daemon: Daemon,
    mut control: Client,
    replay: &Replay,
    interval: Duration,
    clk_tck: f64,
) -> io::Result<ServeRun> {
    let cpu_before = procfs::cpu_times(&daemon.pid, clk_tck)?;
    let started = Instant::now();
    let lead = Duration::from_millis(20);
    let mut drive = loadgen::drive(daemon.addr, TENANT, &replay.lines, interval, lead)?;
    let wall = started.elapsed();
    let daemon_cpu = procfs::cpu_times(&daemon.pid, clk_tck)?.since(&cpu_before);
    let stats = control.stats()?;
    let daemon_peak_mib = procfs::peak_rss_mib(&daemon.pid)?;
    control.drain()?;
    drive.decide_attempted += 1;
    let flushed = control.decide(TENANT, None).unwrap_or_else(|_| {
        drive.decide_failed += 1;
        Vec::new()
    });
    drop(control);
    daemon.stop()?;
    let txs_sent = drive.timeline.sent.iter().flatten().count() * replay.batch_txs;
    Ok(ServeRun { drive, flushed, txs_sent, daemon_cpu, daemon_peak_mib, stats, wall })
}

/// The offline reference decision of one window: exhaustive scoring of
/// every profile and the consecutive-window vote.
pub struct Expected {
    pub accepted: Vec<u32>,
    pub vote: Option<u32>,
}

/// Reference decisions for every window of the replay, keyed by
/// `(device, window start)`.
pub fn reference(
    profiles: &Profiles,
    vocab: &Vocabulary,
    replay: &Replay,
    vote_k: usize,
    taxonomy: &Arc<proxylog::Taxonomy>,
) -> HashMap<(u32, i64), Expected> {
    let dataset = Dataset::new(Arc::clone(taxonomy), replay.txs.clone());
    let mut expected = HashMap::new();
    for device in dataset.devices() {
        let windows =
            identify_on_device(profiles, vocab, &dataset, device, WindowConfig::PAPER_DEFAULT);
        let votes = consecutive_window_vote(&windows, vote_k);
        for (window, (_, vote)) in windows.iter().zip(votes) {
            expected.insert(
                (device.0, window.start.as_secs()),
                Expected {
                    accepted: window.accepted_by.iter().map(|u| u.0).collect(),
                    vote: vote.map(|u| u.0),
                },
            );
        }
    }
    expected
}

/// How the daemon's decisions compare with the reference.
#[derive(Debug, Default)]
pub struct Verdict {
    pub expected: usize,
    pub matched: usize,
    pub missing: usize,
    pub unexpected: usize,
    pub voted: usize,
    pub vote_correct: usize,
    /// Due-time decision latencies in ms with the batch that closed each
    /// window; missing windows count as infinitely late.
    pub latencies_ms: Vec<(usize, f64)>,
}

pub fn verdict(
    run: &ServeRun,
    replay: &Replay,
    expected: &HashMap<(u32, i64), Expected>,
) -> Verdict {
    let mut verdict = Verdict { expected: expected.len(), ..Verdict::default() };
    let mut seen: HashSet<(u32, i64)> = HashSet::with_capacity(expected.len());
    let timed = run.drive.decisions.iter().map(|(at, r)| (Some(*at), r));
    let flushed = run.flushed.iter().map(|r| (None, r));
    for (at, record) in timed.chain(flushed) {
        let key = (record.device, record.start);
        if !seen.insert(key) {
            verdict.unexpected += 1;
            continue;
        }
        match expected.get(&key) {
            Some(want) if want.accepted == record.accepted && want.vote == record.vote => {
                verdict.matched += 1
            }
            Some(_) => {}
            None => verdict.unexpected += 1,
        }
        if let Some(vote) = record.vote {
            verdict.voted += 1;
            verdict.vote_correct += usize::from(record.actual.contains(&vote));
        }
        if let (Some(at), Some(&batch)) = (at, replay.closing_batch.get(&key)) {
            let due = run.drive.timeline.due[batch];
            verdict.latencies_ms.push((batch, loadgen::ms(at.saturating_sub(due))));
        }
    }
    for key in expected.keys().filter(|key| !seen.contains(key)) {
        verdict.missing += 1;
        if let Some(&batch) = replay.closing_batch.get(key) {
            verdict.latencies_ms.push((batch, f64::INFINITY));
        }
    }
    verdict
}

/// A window decision reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
struct Decided {
    device: u32,
    start: i64,
    accepted: Vec<UserId>,
    vote: Option<UserId>,
}

impl Decided {
    fn of(decision: &WindowDecision) -> Self {
        Decided {
            device: decision.device.0,
            start: decision.start.as_secs(),
            accepted: decision.accepted_by.clone(),
            vote: decision.vote,
        }
    }
}

/// Per-layer figures of the traced in-process replay.
#[derive(Debug, Default)]
pub struct ReplayTrace {
    pub untraced: Duration,
    pub traced: Duration,
    pub decode: Duration,
    pub observe: Duration,
    pub encode: Duration,
    /// Uncovered share of the traced replay span (loop overhead).
    pub replay_gap: f64,
    pub decisions: usize,
    pub batches: u64,
    pub mean_batch_windows: f64,
    pub window_close: Duration,
    pub shortlist: Duration,
    pub score: Duration,
    pub vote: Duration,
    pub stage_gap: f64,
    pub windows: usize,
    pub shortlisted: usize,
    pub kernel_evals: u64,
    pub bytes: u64,
    /// Windows whose shortlisted accepted set equals the exhaustive one.
    pub recall_hits: usize,
    /// Stage re-run decisions that differ from the engine's.
    pub stage_mismatches: usize,
}

fn engine<'a>(profiles: &'a Profiles, vocab: &'a Vocabulary) -> StreamEngine<'a> {
    StreamEngine::new(profiles, vocab, EngineConfig::default())
        .with_arena(KernelRowArena::with_budget(DAEMON_ARENA_BYTES))
        .with_prefilter(PrefilterConfig::default())
}

fn timed(tracer: &mut Option<&mut Tracer>, name: &'static str, batch: u64, f: impl FnOnce()) {
    match tracer {
        Some(tracer) => tracer.span(name, batch, f),
        None => f(),
    }
}

/// Decodes, observes and encodes every ingest line in-process, as the
/// daemon's worker and tenant threads do, optionally inside spans.
fn replay_lines(
    engine: &mut StreamEngine<'_>,
    lines: &[String],
    mut tracer: Option<&mut Tracer>,
) -> Vec<Decided> {
    let mut decided = Vec::new();
    for (batch, line) in lines.iter().enumerate() {
        let batch = batch as u64;
        let mut txs = Vec::new();
        timed(&mut tracer, "decode", batch, || match proto::parse_request(line.trim_end()) {
            Ok(Request::Ingest { txs: parsed, .. }) => txs = parsed,
            other => panic!("replay line is not an ingest request: {other:?}"),
        });
        let mut out = Vec::new();
        timed(&mut tracer, "observe", batch, || {
            for tx in txs.drain(..) {
                out.extend(engine.observe(tx));
            }
            if batch as usize + 1 == lines.len() {
                out.extend(engine.finish());
            }
        });
        timed(&mut tracer, "encode", batch, || {
            for decision in &out {
                std::hint::black_box(DecisionRecord::from_decision(decision).to_json().to_line());
            }
        });
        decided.extend(out.iter().map(Decided::of));
    }
    decided
}

/// The traced run's serving layers: the replay untraced and traced, then
/// the engine's stages re-run one by one and checked against it.
pub fn trace_replay(
    profiles: &Profiles,
    vocab: &Vocabulary,
    replay: &Replay,
    expected: &HashMap<(u32, i64), Expected>,
    tracer: &mut Tracer,
) -> ReplayTrace {
    // Engines are built and dropped outside the timed replays.
    let mut untraced_engine = engine(profiles, vocab);
    let started = Instant::now();
    let engine_decisions = replay_lines(&mut untraced_engine, &replay.lines, None);
    let untraced = started.elapsed();
    drop(untraced_engine);

    let mut traced_engine = engine(profiles, vocab);
    let root = tracer.enter("replay", 0);
    let traced_decisions = replay_lines(&mut traced_engine, &replay.lines, Some(tracer));
    tracer.exit(root);
    let stats = traced_engine.stats();
    drop(traced_engine);
    assert_eq!(engine_decisions, traced_decisions, "tracing changed the engine's decisions");
    let totals = tracer.totals();
    let traced = totals["replay"].total;

    let mut out = ReplayTrace {
        untraced,
        traced,
        decode: totals["decode"].self_time,
        observe: totals["observe"].self_time,
        encode: totals["encode"].self_time,
        replay_gap: totals["replay"].self_time.as_secs_f64() / traced.as_secs_f64(),
        decisions: engine_decisions.len(),
        batches: stats.batches,
        mean_batch_windows: stats.windows_scored as f64 / stats.batches.max(1) as f64,
        ..ReplayTrace::default()
    };

    let stage_decisions = run_stages(profiles, vocab, replay, tracer, &mut out);
    let totals = tracer.totals();
    out.window_close = totals["window_close"].self_time;
    out.shortlist = totals["shortlist"].self_time;
    out.score = totals["score"].self_time;
    out.vote = totals["vote"].self_time;
    out.stage_gap = totals["stages"].self_time.as_secs_f64() / totals["stages"].total.as_secs_f64();
    out.stage_mismatches = engine_decisions.len().abs_diff(stage_decisions.len())
        + engine_decisions.iter().zip(&stage_decisions).filter(|(a, b)| a != b).count();
    out.recall_hits = stage_decisions
        .iter()
        .filter(|d| {
            expected.get(&(d.device, d.start)).is_some_and(|want| {
                want.accepted.iter().copied().eq(d.accepted.iter().map(|u| u.0))
            })
        })
        .count();
    out
}

/// A closed window waiting for its scoring batch.
struct Pending {
    device: DeviceId,
    window: TransactionWindow,
}

/// The engine's pipeline spelled out through the public calls it is made
/// of: per-device `WindowStream::offer`, a 64-window batch shortlisted by
/// `CandidateIndex::shortlist`, exact `batch_decision_values_in` per
/// shortlisted user, then `majority_vote` over each device's history.
fn run_stages(
    profiles: &Profiles,
    vocab: &Vocabulary,
    replay: &Replay,
    tracer: &mut Tracer,
    out: &mut ReplayTrace,
) -> Vec<Decided> {
    let config = EngineConfig::default();
    let top_k = PrefilterConfig::default().top_k;
    let arena = KernelRowArena::with_budget(DAEMON_ARENA_BYTES);
    let index = CandidateIndex::build(profiles, vocab);
    let mut scratch = ShortlistScratch::default();
    let mut streams: BTreeMap<DeviceId, WindowStream<'_>> = BTreeMap::new();
    let mut history: BTreeMap<DeviceId, VecDeque<Vec<UserId>>> = BTreeMap::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut decided = Vec::new();
    let mut batch_id = 0u64;
    let root = tracer.enter("stages", 0);

    let mut score_batch = |pending: &mut Vec<Pending>,
                           history: &mut BTreeMap<DeviceId, VecDeque<Vec<UserId>>>,
                           tracer: &mut Tracer,
                           out: &mut ReplayTrace,
                           decided: &mut Vec<Decided>| {
        if pending.is_empty() {
            return;
        }
        let batch: Vec<Pending> = std::mem::take(pending);
        batch_id += 1;
        let probes: Vec<&SparseVector> = batch.iter().map(|p| &p.window.features).collect();
        let lists: Vec<Vec<u32>> = tracer.span("shortlist", batch_id, || {
            probes.iter().map(|f| index.shortlist(f, top_k, &mut scratch)).collect()
        });
        let mut accepted: Vec<Vec<UserId>> = vec![Vec::new(); probes.len()];
        tracer.span("score", batch_id, || {
            // Regroup window-major shortlists user-major, as the engine
            // does, so each profile scores its windows in one call.
            let mut per_user: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (j, list) in lists.iter().enumerate() {
                out.shortlisted += list.len();
                for &slot in list {
                    per_user.entry(slot).or_default().push(j);
                }
            }
            for (slot, windows) in &per_user {
                let user = index.user_at(*slot);
                let profile = &profiles[&user];
                let sub: Vec<&SparseVector> = windows.iter().map(|&j| probes[j]).collect();
                let values = profile.batch_decision_values_in(&sub, &arena, u64::from(user.0));
                for (&j, &v) in windows.iter().zip(&values) {
                    if v >= 0.0 {
                        accepted[j].push(user);
                    }
                }
                // A linear profile scores through one collapsed weight
                // vector: one dot product per window. Each evaluation
                // reads the probe's entries and as many support-vector
                // (or weight) entries, estimated at the probe's count.
                let evals = match profile.params().kernel {
                    Kernel::Linear => 1,
                    _ => profile.support_vector_count() as u64,
                };
                let entries: u64 = sub.iter().map(|probe| probe.nnz() as u64).sum();
                out.kernel_evals += evals * sub.len() as u64;
                out.bytes += evals * 2 * entries * ENTRY_BYTES;
            }
        });
        out.windows += probes.len();
        drop(probes);
        tracer.span("vote", batch_id, || {
            for (pending, accepted_by) in batch.into_iter().zip(accepted) {
                let trail = history.entry(pending.device).or_default();
                trail.push_back(accepted_by.clone());
                if trail.len() > config.vote_k {
                    trail.pop_front();
                }
                let vote = majority_vote(trail.iter().map(Vec::as_slice));
                decided.push(Decided {
                    device: pending.device.0,
                    start: pending.window.start.as_secs(),
                    accepted: accepted_by,
                    vote,
                });
            }
        });
    };

    for (line, chunk) in replay.txs.chunks(replay.batch_txs).enumerate() {
        let mut span = tracer.enter("window_close", line as u64);
        for tx in chunk {
            let stream = streams.entry(tx.device).or_insert_with(|| {
                WindowStream::new(vocab, config.window, WindowKey::Device(tx.device))
            });
            let device = tx.device;
            pending.extend(stream.offer(*tx).into_iter().map(|window| Pending { device, window }));
            if pending.len() >= config.batch_windows {
                tracer.exit(span);
                score_batch(&mut pending, &mut history, tracer, out, &mut decided);
                span = tracer.enter("window_close", line as u64);
            }
        }
        tracer.exit(span);
    }
    let span = tracer.enter("window_close", u64::MAX);
    for (&device, stream) in streams.iter_mut() {
        pending.extend(stream.flush().into_iter().map(|window| Pending { device, window }));
    }
    tracer.exit(span);
    score_batch(&mut pending, &mut history, tracer, out, &mut decided);
    tracer.exit(root);
    decided
}
