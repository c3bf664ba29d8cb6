//! Per-tenant engine workers.
//!
//! Each tenant namespace owns one OS thread that holds the tenant's
//! profiles and its [`streamid::StreamEngine`] — engine state is single-
//! writer by construction, so no lock ever guards scoring. Connections
//! talk to the thread through a bounded [`Mailbox`]; when a tenant's
//! ingest queue overflows (a producer outrunning the scorer), the
//! *oldest* queued ingest batches are shed and their callers receive a
//! structured `overloaded` reply instead of a disconnect — the same
//! oldest-first degradation policy the engine applies to its own
//! per-device pending windows.

use crate::proto::{DecisionRecord, ProtoError};
use proxylog::{DeviceId, Taxonomy, Transaction};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use streamid::{EngineConfig, ModelStore, PrefilterConfig, StreamEngine};
use webprofiler::Vocabulary;

/// A command sent to a tenant thread. Every variant carries the reply
/// channel its caller blocks on; the thread (or the mailbox, on shed)
/// always answers exactly once.
pub(crate) enum Command {
    /// Feed a transaction batch through the engine.
    Ingest { txs: Vec<Transaction>, reply: Sender<Reply> },
    /// Drain buffered decisions (optionally one device's).
    Decide { device: Option<DeviceId>, reply: Sender<Reply> },
    /// Snapshot counters.
    Stats { reply: Sender<Reply> },
    /// Flush every open window via `evict_device` into the decision
    /// buffer (the drain verb). The engine stays alive for final decides.
    Flush { reply: Sender<Reply> },
    /// Stop the thread.
    Shutdown { reply: Sender<Reply> },
}

/// A tenant thread's answer.
pub(crate) enum Reply {
    /// Transactions ingested and decisions newly produced.
    Ingested { accepted: usize, decided: usize },
    /// Drained decisions.
    Decisions(Vec<DecisionRecord>),
    /// Counter snapshot.
    Stats(Box<TenantStats>),
    /// Windows flushed by a drain.
    Flushed { windows: usize },
    /// Shutdown acknowledged.
    Bye,
    /// The command was shed by mailbox backpressure before the thread saw
    /// it; `queued` is the queue depth that forced the shed.
    Overloaded { queued: usize },
}

/// Per-tenant counter snapshot for the `stats` verb.
#[derive(Debug, Clone, Default)]
pub struct TenantStats {
    /// Enrolled profiles.
    pub profiles: usize,
    /// Devices with live window state.
    pub devices: usize,
    /// Windows scored over the tenant's lifetime.
    pub windows_scored: u64,
    /// Windows shed by the engine's per-device backpressure.
    pub windows_shed: u64,
    /// Too-late transactions dropped.
    pub late_dropped: u64,
    /// Scoring batches run.
    pub batches: u64,
    /// Seconds spent scoring.
    pub scoring_secs: f64,
    /// Windows decided through the candidate prefilter.
    pub prefilter_windows: u64,
    /// Closed windows awaiting a scoring batch.
    pub pending_windows: usize,
    /// Decisions waiting for a `decide` poll.
    pub decisions_buffered: usize,
    /// Decisions dropped because nobody polled within the buffer cap.
    pub decisions_dropped: u64,
    /// Ingest batches shed by mailbox backpressure.
    pub ingests_shed: u64,
    /// Device window streams opened: one per distinct device ingested.
    pub streams_opened: u64,
    /// Windows closed and queued for scoring.
    pub windows_closed: u64,
}

/// Bounded multi-producer mailbox feeding one tenant thread.
///
/// The bound applies to *queued ingest commands* only — control verbs
/// (`decide`, `stats`, `flush`, `shutdown`) always enqueue, so an
/// overloaded tenant stays observable and drainable.
#[derive(Clone)]
pub(crate) struct Mailbox {
    inner: Arc<(Mutex<Queue>, Condvar)>,
    cap: usize,
}

struct Queue {
    commands: VecDeque<Command>,
    ingests: usize,
    shed: u64,
    closed: bool,
}

impl Mailbox {
    pub(crate) fn new(cap: usize) -> Self {
        assert!(cap > 0, "mailbox cap must be positive");
        Self {
            inner: Arc::new((
                Mutex::new(Queue { commands: VecDeque::new(), ingests: 0, shed: 0, closed: false }),
                Condvar::new(),
            )),
            cap,
        }
    }

    /// Enqueues a command, shedding the oldest queued ingest first when a
    /// new ingest would exceed the cap. Shed callers are answered
    /// [`Reply::Overloaded`] immediately from the pushing thread. Returns
    /// `false` if the tenant has shut down (the caller should answer
    /// `unknown_tenant`-style errors itself).
    pub(crate) fn push(&self, command: Command) -> bool {
        let (lock, signal) = &*self.inner;
        let mut queue = lock.lock().expect("mailbox poisoned");
        if queue.closed {
            return false;
        }
        if matches!(command, Command::Ingest { .. }) {
            while queue.ingests >= self.cap {
                let position = queue
                    .commands
                    .iter()
                    .position(|c| matches!(c, Command::Ingest { .. }))
                    .expect("ingest count says one is queued");
                let shed = queue.commands.remove(position).expect("position is in range");
                queue.ingests -= 1;
                queue.shed += 1;
                let depth = queue.commands.len();
                if let Command::Ingest { reply, .. } = shed {
                    // The shed producer may itself have gone away; that is
                    // its problem, not the daemon's.
                    let _ = reply.send(Reply::Overloaded { queued: depth });
                }
            }
            queue.ingests += 1;
        }
        queue.commands.push_back(command);
        signal.notify_one();
        true
    }

    /// Blocks for the next command; `None` once closed and empty.
    fn pop(&self) -> Option<Command> {
        let (lock, signal) = &*self.inner;
        let mut queue = lock.lock().expect("mailbox poisoned");
        loop {
            if let Some(command) = queue.commands.pop_front() {
                if matches!(command, Command::Ingest { .. }) {
                    queue.ingests -= 1;
                }
                return Some(command);
            }
            if queue.closed {
                return None;
            }
            queue = signal.wait(queue).expect("mailbox poisoned");
        }
    }

    fn close(&self) {
        let (lock, signal) = &*self.inner;
        lock.lock().expect("mailbox poisoned").closed = true;
        signal.notify_all();
    }

    fn shed_count(&self) -> u64 {
        self.inner.0.lock().expect("mailbox poisoned").shed
    }
}

/// A running tenant: its mailbox plus the engine thread's handle.
pub(crate) struct TenantHandle {
    pub(crate) mailbox: Mailbox,
    thread: Option<JoinHandle<()>>,
    pub(crate) profiles: usize,
    pub(crate) skipped: usize,
}

impl TenantHandle {
    /// Loads the tenant's profiles from `dir` (strict or lossy) and spawns
    /// its engine thread.
    pub(crate) fn spawn(
        name: &str,
        dir: &str,
        lossy: bool,
        engine_config: EngineConfig,
        mailbox_cap: usize,
        decision_cap: usize,
    ) -> Result<Self, ProtoError> {
        let store = ModelStore::new(dir);
        let (profiles, skipped) = if lossy {
            let (profiles, issues) =
                store.load_lossy().map_err(|e| ProtoError::new("store", format!("{dir}: {e}")))?;
            (profiles, issues.len())
        } else {
            (store.load().map_err(|e| ProtoError::new("store", format!("{dir}: {e}")))?, 0)
        };
        if profiles.is_empty() {
            return Err(ProtoError::new("store", format!("{dir}: no loadable profiles")));
        }
        let loaded = profiles.len();
        let mailbox = Mailbox::new(mailbox_cap);
        let worker_mailbox = mailbox.clone();
        let thread = std::thread::Builder::new()
            .name(format!("identd-{name}"))
            .spawn(move || run_tenant(profiles, engine_config, worker_mailbox, decision_cap))
            .map_err(|e| ProtoError::new("internal", format!("spawning tenant thread: {e}")))?;
        Ok(Self { mailbox, thread: Some(thread), profiles: loaded, skipped })
    }

    /// Requests shutdown and joins the thread.
    pub(crate) fn shutdown(mut self) {
        let (tx, rx) = std::sync::mpsc::channel();
        if self.mailbox.push(Command::Shutdown { reply: tx }) {
            let _ = rx.recv();
        }
        self.mailbox.close();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn run_tenant(
    profiles: BTreeMap<proxylog::UserId, webprofiler::UserProfile>,
    engine_config: EngineConfig,
    mailbox: Mailbox,
    decision_cap: usize,
) {
    // The engine borrows the profiles and vocabulary for its lifetime;
    // both live on this thread's stack, which is exactly why each tenant
    // is a thread rather than a struct in a shared map.
    let vocab = Vocabulary::new(Taxonomy::paper_scale());
    let mut engine = StreamEngine::new(&profiles, &vocab, engine_config)
        .with_prefilter(PrefilterConfig::default());
    let mut buffered: VecDeque<DecisionRecord> = VecDeque::new();
    let mut decisions_dropped = 0u64;
    let mut seen_devices: BTreeSet<DeviceId> = BTreeSet::new();

    let buffer = |buffered: &mut VecDeque<DecisionRecord>,
                  dropped: &mut u64,
                  decisions: Vec<streamid::WindowDecision>| {
        for decision in &decisions {
            buffered.push_back(DecisionRecord::from_decision(decision));
        }
        while buffered.len() > decision_cap {
            buffered.pop_front();
            *dropped += 1;
        }
        decisions.len()
    };

    while let Some(command) = mailbox.pop() {
        match command {
            Command::Ingest { txs, reply } => {
                let accepted = txs.len();
                let mut decided = 0;
                for tx in txs {
                    seen_devices.insert(tx.device);
                    decided += buffer(&mut buffered, &mut decisions_dropped, engine.observe(tx));
                }
                let _ = reply.send(Reply::Ingested { accepted, decided });
            }
            Command::Decide { device, reply } => {
                let drained: Vec<DecisionRecord> = match device {
                    None => buffered.drain(..).collect(),
                    Some(device) => {
                        let (matching, rest): (VecDeque<_>, VecDeque<_>) =
                            buffered.drain(..).partition(|d| d.device == device.0);
                        buffered = rest;
                        matching.into_iter().collect()
                    }
                };
                let _ = reply.send(Reply::Decisions(drained));
            }
            Command::Stats { reply } => {
                let stats = engine.stats();
                let _ = reply.send(Reply::Stats(Box::new(TenantStats {
                    profiles: profiles.len(),
                    devices: stats.devices,
                    windows_scored: stats.windows_scored,
                    windows_shed: stats.windows_shed,
                    late_dropped: stats.late_dropped,
                    batches: stats.batches,
                    scoring_secs: stats.scoring.as_secs_f64(),
                    prefilter_windows: stats.prefilter_windows,
                    pending_windows: engine.pending_windows(),
                    decisions_buffered: buffered.len(),
                    decisions_dropped,
                    ingests_shed: mailbox.shed_count(),
                    streams_opened: stats.streams_opened,
                    windows_closed: stats.windows_closed,
                })));
            }
            Command::Flush { reply } => {
                let mut windows = 0;
                for device in std::mem::take(&mut seen_devices) {
                    windows +=
                        buffer(&mut buffered, &mut decisions_dropped, engine.evict_device(device));
                }
                let _ = reply.send(Reply::Flushed { windows });
            }
            Command::Shutdown { reply } => {
                let _ = reply.send(Reply::Bye);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn ingest_cmd() -> (Command, std::sync::mpsc::Receiver<Reply>) {
        let (tx, rx) = channel();
        (Command::Ingest { txs: Vec::new(), reply: tx }, rx)
    }

    #[test]
    fn mailbox_sheds_oldest_ingest_beyond_the_cap() {
        let mailbox = Mailbox::new(2);
        let (first, first_rx) = ingest_cmd();
        let (second, second_rx) = ingest_cmd();
        let (third, third_rx) = ingest_cmd();
        assert!(mailbox.push(first));
        assert!(mailbox.push(second));
        assert!(mailbox.push(third));
        // The oldest ingest was shed and answered immediately.
        assert!(matches!(first_rx.try_recv(), Ok(Reply::Overloaded { .. })));
        assert!(second_rx.try_recv().is_err(), "still queued");
        assert!(third_rx.try_recv().is_err(), "newest kept");
        assert_eq!(mailbox.shed_count(), 1);
        // Control commands always fit.
        let (tx, _rx) = channel();
        assert!(mailbox.push(Command::Stats { reply: tx }));
        // Queue order: the two surviving ingests then the stats command.
        assert!(matches!(mailbox.pop(), Some(Command::Ingest { .. })));
        assert!(matches!(mailbox.pop(), Some(Command::Ingest { .. })));
        assert!(matches!(mailbox.pop(), Some(Command::Stats { .. })));
    }

    #[test]
    fn closed_mailbox_rejects_pushes_and_drains() {
        let mailbox = Mailbox::new(4);
        let (cmd, _rx) = ingest_cmd();
        assert!(mailbox.push(cmd));
        mailbox.close();
        let (cmd, _rx) = ingest_cmd();
        assert!(!mailbox.push(cmd), "closed mailbox refuses work");
        assert!(mailbox.pop().is_some(), "queued work still drains");
        assert!(mailbox.pop().is_none(), "then signals shutdown");
    }

    #[test]
    fn spawn_fails_cleanly_on_a_bad_store() {
        let err = TenantHandle::spawn(
            "t0",
            "/nonexistent/identd-store",
            false,
            EngineConfig::default(),
            16,
            1024,
        );
        let err = match err {
            Err(err) => err,
            Ok(_) => panic!("expected a store error"),
        };
        assert_eq!(err.code, "store");
    }
}
