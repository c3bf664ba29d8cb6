//! The daemon: accept loop, worker pool, verb dispatch, drain.
//!
//! Connections are accepted by one non-blocking poll thread and handed to
//! a fixed [`parcore::default_workers`]-sized pool over a bounded channel,
//! so a connection burst queues instead of spawning unbounded threads.
//! Workers speak the line protocol from [`crate::proto`] and serve
//! tenant-scoped verbs themselves: each looks the tenant up in the tenant
//! map, locks it and runs its engine on the worker's own thread (see
//! [`crate::tenant`]).
//!
//! `drain` is the shutdown handshake: it stops the accept thread (joining
//! it *before* replying, so a client that got the drain reply can rely on
//! new connections being refused), flushes every tenant's open windows
//! through `evict_device`, and leaves tenants alive so the draining client
//! can collect the flushed decisions with a final `decide`. Once every
//! connection closes, [`Daemon::join`] returns and the process exits 0.

use crate::json::Json;
use crate::proto::{self, DecisionRecord, ProtoError, Request};
use crate::tenant::{Tenant, TenantStats};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use streamid::EngineConfig;

/// Daemon tunables. `Default` gives a loopback ephemeral-port daemon with
/// the paper-scale engine defaults.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads serving connections (0 ⇒ [`parcore::default_workers`]).
    pub workers: usize,
    /// Engine configuration applied to every tenant. Every tenant scores
    /// through the exact candidate prefilter, whose decisions equal
    /// exhaustive scoring bit for bit.
    pub engine: EngineConfig,
    /// Buffered decisions per tenant before oldest-first dropping.
    pub decision_cap: usize,
    /// Longest accepted request line (longer lines are discarded and
    /// answered `line_too_long`).
    pub max_line_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            engine: EngineConfig::default(),
            decision_cap: 65_536,
            max_line_bytes: 8 << 20,
        }
    }
}

/// How often the accept thread re-checks the draining flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);
/// Connections queued between the accept thread and the worker pool.
const CONNECTION_BACKLOG: usize = 64;

/// Loaded tenants by name.
type TenantMap = BTreeMap<String, Arc<Tenant>>;

struct Shared {
    config: DaemonConfig,
    /// Loaded tenants. The map lock is held only to look a tenant up or
    /// replace it; requests run under the tenant's own lock.
    tenants: Mutex<TenantMap>,
    draining: AtomicBool,
    /// The accept thread's handle; taken and joined by the first `drain`.
    accept: Mutex<Option<JoinHandle<()>>>,
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// A running daemon.
pub struct Daemon {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
}

impl Daemon {
    /// Binds the listener, starts the accept thread and worker pool.
    pub fn start(config: DaemonConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let worker_count =
            if config.workers == 0 { parcore::default_workers() } else { config.workers };
        let shared = Arc::new(Shared {
            config,
            tenants: Mutex::new(BTreeMap::new()),
            draining: AtomicBool::new(false),
            accept: Mutex::new(None),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        });

        let (conn_tx, conn_rx) = sync_channel::<TcpStream>(CONNECTION_BACKLOG);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let conn_rx = Arc::clone(&conn_rx);
                std::thread::Builder::new()
                    .name(format!("identd-worker-{i}"))
                    .spawn(move || worker_loop(shared, conn_rx))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("identd-accept".to_string())
            .spawn(move || accept_loop(listener, conn_tx, accept_shared))?;
        *shared.accept.lock().expect("accept handle poisoned") = Some(accept);

        Ok(Self { shared, local_addr, workers })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Loads a tenant before serving traffic (the `--tenant name=dir`
    /// startup path). Returns `(profiles, skipped)`.
    pub fn load_tenant(
        &self,
        name: &str,
        dir: &str,
        lossy: bool,
    ) -> Result<(usize, usize), ProtoError> {
        load_tenant(&self.shared, name, dir, lossy)
    }

    /// Blocks until a client drains the daemon and every connection
    /// closes. The normal exit path of `identd`'s `main`.
    pub fn join(self) {
        // If nobody drained us yet, wait for the drain verb to do it: the
        // accept thread only exits once `draining` is set.
        let accept = self.shared.accept.lock().expect("accept handle poisoned").take();
        if let Some(accept) = accept {
            let _ = accept.join();
        }
        // The accept thread owned the connection sender, so the workers
        // drain the queued connections, finish the live ones, and exit.
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

fn accept_loop(listener: TcpListener, conn_tx: SyncSender<TcpStream>, shared: Arc<Shared>) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                if conn_tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Dropping the listener here closes the socket: refused connections
    // are how clients observe "draining" without a live reply channel.
}

fn worker_loop(shared: Arc<Shared>, conn_rx: Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        let stream = match conn_rx.lock().expect("connection queue poisoned").recv() {
            Ok(stream) => stream,
            Err(_) => break,
        };
        let _ = handle_connection(&shared, stream);
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    Line(Vec<u8>),
    TooLong,
    Eof,
}

/// Reads up to the next `\n`, never buffering more than `max` bytes; an
/// overlong line is discarded through its newline so the connection can
/// resynchronise on the next request.
fn read_line_bounded(reader: &mut BufReader<TcpStream>, max: usize) -> io::Result<LineRead> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() { Ok(LineRead::Eof) } else { Ok(LineRead::Line(line)) };
        }
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            if line.len() + pos > max {
                reader.consume(pos + 1);
                return Ok(LineRead::TooLong);
            }
            line.extend_from_slice(&buf[..pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line(line));
        }
        let chunk = buf.len();
        if line.len() + chunk > max {
            reader.consume(chunk);
            discard_to_newline(reader)?;
            return Ok(LineRead::TooLong);
        }
        line.extend_from_slice(buf);
        reader.consume(chunk);
    }
}

fn discard_to_newline(reader: &mut BufReader<TcpStream>) -> io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let chunk = buf.len();
                reader.consume(chunk);
            }
        }
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match read_line_bounded(&mut reader, shared.config.max_line_bytes)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                let err = ProtoError::new(
                    "line_too_long",
                    format!("request lines are capped at {} bytes", shared.config.max_line_bytes),
                );
                write_reply(&mut writer, shared, Err(err))?;
                continue;
            }
            LineRead::Line(mut bytes) => {
                if bytes.last() == Some(&b'\r') {
                    bytes.pop();
                }
                bytes
            }
        };
        if line.is_empty() {
            continue;
        }
        shared.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match std::str::from_utf8(&line) {
            Err(e) => Err(ProtoError::new("invalid_utf8", e.to_string())),
            Ok(text) => proto::parse_request(text).and_then(|request| dispatch(shared, request)),
        };
        write_reply(&mut writer, shared, reply)?;
    }
}

fn write_reply(
    writer: &mut BufWriter<TcpStream>,
    shared: &Shared,
    reply: Result<Json, ProtoError>,
) -> io::Result<()> {
    let line = match reply {
        Ok(value) => value.to_line(),
        Err(err) => {
            shared.errors.fetch_add(1, Ordering::Relaxed);
            err.to_reply_line()
        }
    };
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn dispatch(shared: &Arc<Shared>, request: Request) -> Result<Json, ProtoError> {
    match request {
        Request::Health => Ok(Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            (
                "status".into(),
                Json::str(if shared.draining.load(Ordering::SeqCst) { "draining" } else { "up" }),
            ),
        ])),
        Request::Stats => stats_reply(shared),
        Request::Drain => drain_reply(shared),
        Request::LoadProfiles { tenant, dir, lossy } => {
            if shared.draining.load(Ordering::SeqCst) {
                return Err(ProtoError::new("draining", "daemon is draining"));
            }
            let (profiles, skipped) = load_tenant(shared, &tenant, &dir, lossy)?;
            Ok(Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("tenant".into(), Json::str(&tenant)),
                ("profiles".into(), Json::Num(profiles as f64)),
                ("skipped".into(), Json::Num(skipped as f64)),
            ]))
        }
        Request::Ingest { tenant, txs } => {
            if shared.draining.load(Ordering::SeqCst) {
                return Err(ProtoError::new("draining", "daemon is draining"));
            }
            let (accepted, decided) = find_tenant(shared, &tenant)?.ingest(txs)?;
            Ok(Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("accepted".into(), Json::Num(accepted as f64)),
                ("decided".into(), Json::Num(decided as f64)),
            ]))
        }
        Request::Decide { tenant, device } => {
            Ok(decisions_reply(&find_tenant(shared, &tenant)?.decide(device)?))
        }
    }
}

fn decisions_reply(decisions: &[DecisionRecord]) -> Json {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("decisions".into(), Json::Arr(decisions.iter().map(DecisionRecord::to_json).collect())),
    ])
}

/// The tenant map, locked. A poisoned map lock is an `internal` error.
fn tenant_map(shared: &Shared) -> Result<MutexGuard<'_, TenantMap>, ProtoError> {
    shared.tenants.lock().map_err(|_| ProtoError::new("internal", "tenant map poisoned"))
}

/// Looks a tenant up. The returned handle keeps the tenant alive for the
/// request even if `load_profiles` replaces it meanwhile.
fn find_tenant(shared: &Shared, tenant: &str) -> Result<Arc<Tenant>, ProtoError> {
    tenant_map(shared)?.get(tenant).cloned().ok_or_else(|| {
        ProtoError::new("unknown_tenant", format!("no tenant {tenant:?}; use load_profiles first"))
    })
}

/// Every loaded tenant, snapshotted so none is queried under the map lock.
fn all_tenants(shared: &Shared) -> Result<Vec<(String, Arc<Tenant>)>, ProtoError> {
    Ok(tenant_map(shared)?.iter().map(|(name, t)| (name.clone(), Arc::clone(t))).collect())
}

fn load_tenant(
    shared: &Shared,
    name: &str,
    dir: &str,
    lossy: bool,
) -> Result<(usize, usize), ProtoError> {
    proto::validate_tenant(name)?;
    let tenant = Tenant::load(dir, lossy, shared.config.engine, shared.config.decision_cap)?;
    let loaded = (tenant.profiles, tenant.skipped);
    // Reloading replaces the namespace; the old engine flushes nothing —
    // callers drain before reloading if they care about open windows.
    // Requests already holding the old tenant finish on it, and it is
    // dropped with the last of them.
    tenant_map(shared)?.insert(name.to_string(), Arc::new(tenant));
    Ok(loaded)
}

fn stats_reply(shared: &Shared) -> Result<Json, ProtoError> {
    // A tenant whose state is poisoned has no counters to report.
    let tenants: Vec<(String, Json)> = all_tenants(shared)?
        .into_iter()
        .filter_map(|(name, tenant)| Some((name, tenant_stats_json(&tenant.stats().ok()?))))
        .collect();
    Ok(Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        (
            "daemon".into(),
            Json::Obj(vec![
                ("draining".into(), Json::Bool(shared.draining.load(Ordering::SeqCst))),
                (
                    "connections".into(),
                    Json::Num(shared.connections.load(Ordering::Relaxed) as f64),
                ),
                ("requests".into(), Json::Num(shared.requests.load(Ordering::Relaxed) as f64)),
                ("errors".into(), Json::Num(shared.errors.load(Ordering::Relaxed) as f64)),
            ]),
        ),
        ("tenants".into(), Json::Obj(tenants)),
    ]))
}

fn tenant_stats_json(stats: &TenantStats) -> Json {
    Json::Obj(vec![
        ("profiles".into(), Json::Num(stats.profiles as f64)),
        ("devices".into(), Json::Num(stats.devices as f64)),
        ("windows_scored".into(), Json::Num(stats.windows_scored as f64)),
        ("windows_shed".into(), Json::Num(stats.windows_shed as f64)),
        ("late_dropped".into(), Json::Num(stats.late_dropped as f64)),
        ("batches".into(), Json::Num(stats.batches as f64)),
        ("scoring_secs".into(), Json::Num(stats.scoring_secs)),
        // Kept for wire compatibility: every window scored is shortlisted
        // first, so the same count as `windows_scored`.
        ("prefilter_windows".into(), Json::Num(stats.windows_scored as f64)),
        ("pending_windows".into(), Json::Num(stats.pending_windows as f64)),
        ("decisions_buffered".into(), Json::Num(stats.decisions_buffered as f64)),
        ("decisions_dropped".into(), Json::Num(stats.decisions_dropped as f64)),
        // Kept for wire compatibility: nothing sheds ingest batches, so 0.
        ("ingests_shed".into(), Json::Num(0.0)),
        ("streams_opened".into(), Json::Num(stats.streams_opened as f64)),
        ("windows_closed".into(), Json::Num(stats.windows_closed as f64)),
        // Kept for wire compatibility: the same count as `batches`.
        ("batches_scored".into(), Json::Num(stats.batches as f64)),
    ])
}

fn drain_reply(shared: &Arc<Shared>) -> Result<Json, ProtoError> {
    shared.draining.store(true, Ordering::SeqCst);
    // Join the accept thread before replying: once the client reads the
    // drain reply, the listener is provably closed.
    let accept = shared.accept.lock().expect("accept handle poisoned").take();
    if let Some(accept) = accept {
        let _ = accept.join();
    }
    // A poisoned tenant has nothing it can flush; the drain goes on.
    let flushed: usize =
        all_tenants(shared)?.iter().filter_map(|(_, tenant)| tenant.flush().ok()).sum();
    Ok(Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("draining".into(), Json::Bool(true)),
        ("flushed".into(), Json::Num(flushed as f64)),
    ]))
}
