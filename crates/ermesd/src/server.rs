//! The daemon: admission control, the shared cache, and the HTTP loop.
//!
//! One acceptor thread hands each connection to its own thread (parsing
//! and response writing are cheap; connections are few), and every
//! *analysis* request is executed on a fixed [`parx::Pool`] whose bounded
//! queue is the admission-control knob: when it is full the request is
//! rejected immediately with `429` instead of queueing latent work. A
//! request may carry a `deadline_ms` query parameter; if the deadline has
//! passed by the time a worker picks the job up, the work is skipped and
//! the client gets a `429` as well (the classic load-shedding pair).
//!
//! # Response identity
//!
//! Responses are **bit-identical to the CLI** at any worker count and any
//! cache warmth:
//!
//! - `POST /analyze` = `ermes analyze` stdout;
//! - `POST /order` = `ermes order` stdout (report, then the ordered spec);
//! - `POST /explore` = `ermes explore` stdout *minus the cache-stats
//!   line*, followed by the explored spec (what the CLI writes to
//!   `--out`);
//! - `POST /sweep` = `ermes sweep` stdout *minus the cache-stats line*.
//!
//! The cache-stats line is the one part of CLI output that depends on
//! run history, so it cannot appear in a response served from a shared
//! warm cache; its counters are served, aggregated, at `GET /metrics`.
//!
//! # The shared cache
//!
//! The server keeps an LRU of decoded specs keyed by the request body's
//! bytes. An entry holds the parsed [`SystemSpec`], its built [`Design`],
//! that design's [`EngineCache`] and an FNV-1a hash of the body, and is
//! filled once: a body seen before is never parsed again, and concurrent
//! requests carrying one new body wait for a single decode. Parsing is
//! deterministic, so equal bytes give an equal design, and an
//! `EngineCache`'s own keys cover selection and ordering state: requests
//! for the same body share a warm cache, requests for different systems
//! can never alias. (Two differently formatted bodies of one system warm
//! two caches.) A body that fails to decode answers `400` and leaves no
//! entry, so malformed traffic cannot displace a warm design. Each engine
//! cache is itself bounded ([`EngineCache::with_capacity`]), so memory is
//! bounded by `design_cache_capacity` decoded specs of at most
//! `cache_capacity` entries each, regardless of uptime.

use crate::cluster::{
    fnv1a, parse_point_wire, parse_trace_header, render_point_wire, shard_key, Cluster,
    ClusterConfig,
};
use crate::commands::{
    analyze_design, cmd_order, explore_design, parse_spec, render_session_report,
    render_sweep_front, render_verify_system, sweep_design, CliError,
};
use crate::http::{read_request, ClientResponse, ReadError, Request, Response};
use crate::json::write_escaped;
use crate::metrics::Metrics;
use crate::session::{apply_edit, parse_edit, SessionStore};
use crate::spec::SystemSpec;
use ermes::{CacheStats, DeltaState, Design, EngineCache};
use parx::{CancelReason, CancelToken};
use std::collections::HashMap;
use std::io::{self, BufReader, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How often the connection thread wakes while its job runs to poll the
/// socket for a client disconnect. Bounds disconnect-detection latency;
/// cancellation latency itself is additionally bounded by the job's
/// innermost polling loop.
const DISCONNECT_POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Most targets one `/sweep` may name; more are answered `400`. A
/// coordinator fans a sweep out with one thread per target, so this also
/// bounds the threads a single request can start.
pub const MAX_SWEEP_TARGETS: usize = 64;

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` = ephemeral port).
    pub addr: String,
    /// Analysis worker threads (`0` = all hardware threads).
    pub workers: usize,
    /// Bound on the admission queue; a full queue sheds with `429`.
    pub queue_capacity: usize,
    /// Per-table bound of each design's [`EngineCache`].
    pub cache_capacity: usize,
    /// How many distinct spec bodies stay decoded, each with its design
    /// and warm engine cache (LRU beyond, keyed by the body's bytes).
    pub design_cache_capacity: usize,
    /// Largest request body (a spec JSON) the server will buffer.
    pub max_body_bytes: usize,
    /// Default per-request deadline in milliseconds (`0` = none); the
    /// `deadline_ms` query parameter overrides it per request.
    pub default_deadline_ms: u64,
    /// How many interactive sessions stay live at once; opening one
    /// beyond the bound evicts the least recently edited session.
    pub session_capacity: usize,
    /// Coordinator mode: when set, `/explore` and `/sweep` are fanned
    /// out to the configured worker daemons (`None` = plain single-node
    /// service). Responses stay bit-identical either way.
    pub cluster: Option<ClusterConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 64,
            cache_capacity: 4096,
            design_cache_capacity: 32,
            max_body_bytes: 4 * 1024 * 1024,
            default_deadline_ms: 0,
            session_capacity: 64,
            cluster: None,
        }
    }
}

/// A posted spec, decoded once per distinct body.
struct Decoded {
    /// The body it was decoded from, shared with the LRU key: a
    /// coordinator forwards these bytes to its workers as they came.
    body: Arc<[u8]>,
    spec: SystemSpec,
    design: Design,
    /// The design's warm engine cache.
    cache: EngineCache,
    /// FNV-1a of `body`: the design label on `/metrics` and the cluster
    /// placement key.
    hash: u64,
}

impl Decoded {
    /// Decodes a request body: UTF-8, the spec, then its design. Model
    /// constraints are checked here, so schema errors never consume a
    /// worker slot. The error is the `400` message.
    fn new(body: Arc<[u8]>, engine_capacity: usize) -> Result<Decoded, String> {
        let spec = parse_spec(body_text(&body)?).map_err(|e| e.to_string())?;
        let design = spec.to_design().map_err(|e| format!("spec error: {e}"))?;
        Ok(Decoded {
            hash: fnv1a(&body),
            body,
            spec,
            design,
            cache: EngineCache::with_capacity(engine_capacity),
        })
    }
}

/// One body's decode, shared by every request that carries it.
struct Slot {
    body: Arc<[u8]>,
    decoded: OnceLock<Result<Arc<Decoded>, String>>,
}

impl Slot {
    fn ready(&self) -> Option<&Arc<Decoded>> {
        self.decoded.get().and_then(|result| result.as_ref().ok())
    }
}

/// LRU of decoded specs, keyed by request body bytes.
struct DesignLru {
    entries: Mutex<Entries>,
    capacity: usize,
    engine_capacity: usize,
}

/// Body → its slot and last-use tick. A slot still decoding is shared
/// with concurrent requests for its body, but neither counts toward the
/// capacity nor shows on `/metrics`.
#[derive(Default)]
struct Entries {
    map: HashMap<Arc<[u8]>, (Arc<Slot>, u64)>,
    tick: u64,
}

impl DesignLru {
    fn new(capacity: usize, engine_capacity: usize) -> DesignLru {
        DesignLru {
            entries: Mutex::default(),
            capacity: capacity.max(1),
            engine_capacity,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Entries> {
        self.entries.lock().expect("design lru poisoned")
    }

    /// `body` decoded, or the `400` message it decodes to.
    fn get(&self, body: &[u8]) -> Result<Arc<Decoded>, String> {
        self.get_with(body, |body| Decoded::new(body, self.engine_capacity))
    }

    /// [`DesignLru::get`] with `decode` run when no entry holds `body`.
    /// The decode runs outside the lock, once per slot: other bodies
    /// decode in parallel, and requests for this one wait for it. Only a
    /// successful decode evicts (the least recently used beyond the
    /// capacity); a failed one removes its slot again, leaving the LRU as
    /// it was.
    fn get_with(
        &self,
        body: &[u8],
        decode: impl FnOnce(Arc<[u8]>) -> Result<Decoded, String>,
    ) -> Result<Arc<Decoded>, String> {
        let slot = {
            let mut entries = self.lock();
            entries.tick += 1;
            let tick = entries.tick;
            match entries.map.get_mut(body) {
                Some((slot, stamp)) => {
                    *stamp = tick;
                    Arc::clone(slot)
                }
                None => {
                    let body: Arc<[u8]> = Arc::from(body);
                    let slot = Arc::new(Slot {
                        body: Arc::clone(&body),
                        decoded: OnceLock::new(),
                    });
                    entries.map.insert(body, (Arc::clone(&slot), tick));
                    slot
                }
            }
        };
        let mut decoded_here = false;
        let result = slot.decoded.get_or_init(|| {
            decoded_here = true;
            decode(Arc::clone(&slot.body)).map(Arc::new)
        });
        match result {
            Ok(decoded) => {
                if decoded_here {
                    self.lock().evict_beyond(self.capacity, &slot);
                }
                Ok(Arc::clone(decoded))
            }
            Err(message) => {
                self.lock().remove(&slot);
                Err(message.clone())
            }
        }
    }

    /// Every decoded entry, for `/metrics`.
    fn ready(&self) -> Vec<Arc<Decoded>> {
        let entries = self.lock();
        let slots = entries.map.values().map(|(slot, _)| slot);
        slots.filter_map(|slot| slot.ready().cloned()).collect()
    }
}

impl Entries {
    fn remove(&mut self, slot: &Arc<Slot>) {
        self.map.retain(|_, (s, _)| !Arc::ptr_eq(s, slot));
    }

    /// Evicts the least recently used decoded entries other than `keep`
    /// until at most `capacity` are decoded.
    fn evict_beyond(&mut self, capacity: usize, keep: &Arc<Slot>) {
        let mut others: Vec<(u64, Arc<Slot>)> = self
            .map
            .values()
            .filter(|(slot, _)| slot.ready().is_some() && !Arc::ptr_eq(slot, keep))
            .map(|(slot, stamp)| (*stamp, Arc::clone(slot)))
            .collect();
        others.sort_by_key(|(stamp, _)| *stamp);
        let excess = (others.len() + 1).saturating_sub(capacity);
        for (_, slot) in &others[..excess] {
            self.remove(slot);
        }
    }
}

/// Aggregated hit/miss/eviction counters and total stored entries across
/// the engine caches of `designs`.
fn aggregate(designs: &[Arc<Decoded>]) -> (CacheStats, usize) {
    let mut stats = CacheStats::default();
    let mut entries = 0;
    for decoded in designs {
        stats = stats.merged(&decoded.cache.stats());
        let (a, o) = decoded.cache.entry_counts();
        entries += a + o;
    }
    (stats, entries)
}

/// Per-design `(fingerprint, stored entries, evictions)` rows, sorted by
/// fingerprint so the `/metrics` output is deterministic. The fingerprint
/// is the body's FNV-1a hash, so a body in canonical form
/// ([`SystemSpec::to_json_pretty`]) keeps the label its canonical JSON had.
fn per_design(designs: &[Arc<Decoded>]) -> Vec<(String, usize, u64)> {
    let mut rows: Vec<(String, usize, u64)> = designs
        .iter()
        .map(|decoded| {
            let (a, o) = decoded.cache.entry_counts();
            let evictions = decoded.cache.stats().evictions;
            (format!("{:016x}", decoded.hash), a + o, evictions)
        })
        .collect();
    rows.sort();
    rows
}

struct Inner {
    metrics: Metrics,
    designs: DesignLru,
    sessions: SessionStore,
    /// `None` once shutdown has begun (taken by the drainer).
    pool: Mutex<Option<parx::Pool>>,
    shutting_down: AtomicBool,
    /// Requests currently between parse and response write; the drainer
    /// waits for this to reach zero so no response is cut off mid-write.
    active: Mutex<usize>,
    idle: Condvar,
    max_body: usize,
    default_deadline_ms: u64,
    /// Present in coordinator mode: the worker fleet `/explore` and
    /// `/sweep` fan out to.
    cluster: Option<Arc<Cluster>>,
}

impl Inner {
    /// Runs `job` on the worker pool, waiting for its result. While the
    /// job runs, the connection socket (when given) is polled for EOF so
    /// a client that hangs up cancels its own in-flight work via
    /// `cancel`; the pool worker is never abandoned — this always waits
    /// for the job to yield (a cancelled job yields within one polling
    /// iteration of its innermost loop).
    fn run_job<T: Send + 'static>(
        &self,
        deadline: Option<Instant>,
        cancel: &CancelToken,
        conn: Option<&TcpStream>,
        job: impl FnOnce() -> Result<T, Failure> + Send + 'static,
    ) -> Result<T, Failure> {
        let (tx, rx) = mpsc::channel();
        {
            let pool = self.pool.lock().expect("pool slot poisoned");
            let Some(pool) = pool.as_ref() else {
                return Err(Failure::Draining);
            };
            pool.try_submit(move || {
                if deadline.is_some_and(|d| Instant::now() > d) {
                    let _ = tx.send(Err(Failure::Expired));
                } else {
                    let _ = tx.send(job());
                }
            })
            .map_err(|_| Failure::QueueFull)?;
        }
        loop {
            match rx.recv_timeout(DISCONNECT_POLL_INTERVAL) {
                Ok(result) => return result,
                // The sender was dropped without sending: the job
                // panicked mid-execution (the pool caught it and
                // respawned the worker).
                Err(mpsc::RecvTimeoutError::Disconnected) => return Err(Failure::Panic),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if peer_disconnected(conn) {
                        cancel.cancel(CancelReason::Disconnected);
                        // Keep waiting: the job observes the token and
                        // returns shortly; the worker slot is freed by
                        // the job itself, never by walking away.
                    }
                }
            }
        }
    }
}

/// Nonblocking EOF probe: true when the client has closed (or reset) the
/// connection. Pipelined request bytes and quiet-but-open sockets both
/// report false. `peek` consumes nothing, so a pipelined request is left
/// intact for the connection loop.
fn peer_disconnected(conn: Option<&TcpStream>) -> bool {
    let Some(stream) = conn else {
        return false;
    };
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// A running analysis service.
///
/// [`Server::start`] binds and spawns the worker pool; [`Server::run`]
/// serves until a `POST /shutdown` arrives, then drains every queued and
/// running job before returning.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors binding `config.addr`.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        // The daemon always runs with tracing on: `/trace` and the
        // per-phase histograms on `/metrics` are part of its API. (The
        // disabled-by-default path matters for the CLI and benchmarks,
        // not here.)
        trace::set_enabled(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            metrics: Metrics::new(),
            designs: DesignLru::new(config.design_cache_capacity, config.cache_capacity),
            sessions: SessionStore::new(config.session_capacity),
            pool: Mutex::new(Some(parx::Pool::new(
                config.workers,
                config.queue_capacity.max(1),
            ))),
            shutting_down: AtomicBool::new(false),
            active: Mutex::new(0),
            idle: Condvar::new(),
            max_body: config.max_body_bytes,
            default_deadline_ms: config.default_deadline_ms,
            cluster: config.cluster.map(Cluster::start),
        });
        Ok(Server {
            listener,
            addr,
            inner,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves requests until `POST /shutdown`, then drains: the listener
    /// stops accepting, every queued and running analysis job finishes,
    /// and every in-flight response is written before this returns.
    ///
    /// # Errors
    ///
    /// Fatal listener I/O errors (per-connection errors only drop that
    /// connection).
    pub fn run(self) -> io::Result<()> {
        let addr = self.addr;
        for stream in self.listener.incoming() {
            if self.inner.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // Responses are written headers-then-body; without
                    // this, Nagle + delayed ACK stalls keep-alive
                    // round-trips by ~40 ms each.
                    let _ = stream.set_nodelay(true);
                    let inner = Arc::clone(&self.inner);
                    std::thread::spawn(move || handle_connection(&inner, stream, addr));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => return Err(e),
            }
        }
        // Drain: stop admitting (the slot becomes `None`), run every job
        // already accepted, then wait for the responses to hit the wire.
        let pool = self.inner.pool.lock().expect("pool slot poisoned").take();
        if let Some(pool) = pool {
            pool.shutdown();
        }
        let mut active = self.inner.active.lock().expect("active poisoned");
        while *active > 0 {
            active = self.inner.idle.wait(active).expect("active poisoned");
        }
        drop(active);
        // Every in-flight forwarded subjob rode a connection thread that
        // just finished, so the prober is the only cluster thread left.
        if let Some(cluster) = &self.inner.cluster {
            cluster.stop();
        }
        Ok(())
    }
}

/// Decrements the active-request count on drop, waking the drainer.
struct ActiveGuard<'a>(&'a Inner);

impl<'a> ActiveGuard<'a> {
    fn enter(inner: &'a Inner) -> ActiveGuard<'a> {
        *inner.active.lock().expect("active poisoned") += 1;
        ActiveGuard(inner)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut active = self.0.active.lock().expect("active poisoned");
        *active -= 1;
        if *active == 0 {
            self.0.idle.notify_all();
        }
    }
}

fn handle_connection(inner: &Inner, stream: TcpStream, server_addr: SocketAddr) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match read_request(&mut reader, inner.max_body) {
            Ok(req) => {
                let guard = ActiveGuard::enter(inner);
                let started = Instant::now();
                let (endpoint, timed, reply) = dispatch(inner, &req, Some(&writer));
                inner
                    .metrics
                    .record_request(endpoint, reply.response.status);
                if timed {
                    inner.metrics.observe_latency(endpoint, started.elapsed());
                }
                let keep = req.keep_alive() && !reply.close_after;
                let write_ok = reply.response.write_to(&mut writer, keep).is_ok();
                drop(guard);
                if reply.initiate_shutdown {
                    initiate_shutdown(inner, server_addr);
                }
                if !write_ok || !keep {
                    return;
                }
            }
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed { status, reason }) => {
                inner.metrics.record_request("malformed", status);
                let _ = Response::text(status, reason + "\n").write_to(&mut writer, false);
                return;
            }
            Err(ReadError::Io(_)) => return,
        }
    }
}

/// Flags the server as draining and unblocks the acceptor (which sits in
/// `accept()`) with a throwaway connection to itself.
fn initiate_shutdown(inner: &Inner, addr: SocketAddr) {
    if !inner.shutting_down.swap(true, Ordering::SeqCst) {
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.write_all(b"");
        }
    }
}

/// A request's answer, and what the connection does after writing it.
struct Reply {
    response: Response,
    close_after: bool,
    initiate_shutdown: bool,
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply {
            response,
            close_after: false,
            initiate_shutdown: false,
        }
    }
}

/// A handler's reply, or the `4xx` its parse step turned the request
/// away with.
type Handled = Result<Reply, Response>;

/// How an endpoint is served.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Answered on the connection thread from server state.
    Plain,
    /// A job through [`Ctx::serve`]; records `ermesd_request_seconds`.
    Job,
    /// A job that also joins its caller's trace: it adopts the
    /// `x-ermes-trace` context and, asked by `x-ermes-trace-tree`,
    /// returns its span tree behind the response — how a coordinator
    /// stitches one tree across nodes.
    Stitched,
}

/// One route: method, path (`{id}` stands for a session id), the
/// `endpoint` label on `/metrics` and the `request` span, how it is
/// served, and its handler.
#[rustfmt::skip]
type Endpoint = (&'static str, &'static str, &'static str, Kind, fn(&Ctx) -> Handled);

#[rustfmt::skip]
static ENDPOINTS: [Endpoint; 15] = [
    ("GET",    "/healthz",             "healthz",          Kind::Plain,    healthz),
    ("GET",    "/metrics",             "metrics",          Kind::Plain,    metrics),
    ("GET",    "/trace",               "trace",            Kind::Plain,    trace_recent),
    ("GET",    "/trace/slow",          "trace_slow",       Kind::Plain,    trace_slow),
    ("POST",   "/shutdown",            "shutdown",         Kind::Plain,    shutdown),
    ("POST",   "/analyze",             "analyze",          Kind::Stitched, analyze),
    ("POST",   "/order",               "order",            Kind::Stitched, order),
    ("POST",   "/explore",             "explore",          Kind::Stitched, explore),
    ("POST",   "/sweep",               "sweep",            Kind::Stitched, sweep),
    ("POST",   "/verify",              "verify",           Kind::Stitched, verify),
    ("POST",   "/shard/sweeppoint",    "shard_sweeppoint", Kind::Stitched, sweep_point),
    ("POST",   "/session",             "session_open",     Kind::Job,      session_open),
    ("POST",   "/session/{id}/edit",   "session_edit",     Kind::Job,      session_edit),
    ("POST",   "/session/{id}/verify", "session_verify",   Kind::Job,      session_verify),
    ("DELETE", "/session/{id}",        "session_close",    Kind::Plain,    session_close),
];

/// Routes `req` through [`ENDPOINTS`] and runs its handler. Returns the
/// `endpoint` label, whether the endpoint records latency, and the
/// reply. A listed path requested with another method is a `405` naming
/// the method it supports — the resource exists, the method is the
/// problem (RFC 9110 §15.5.6 makes `Allow` mandatory); anything else is
/// a `404`.
fn dispatch(inner: &Inner, req: &Request, conn: Option<&TcpStream>) -> (&'static str, bool, Reply) {
    let mut allow = None;
    for &(method, path, endpoint, kind, handler) in &ENDPOINTS {
        let id = match path.split_once("{id}") {
            None => (path == req.path).then_some(0),
            Some((prefix, suffix)) => req
                .path
                .strip_prefix(prefix)
                .and_then(|rest| rest.strip_suffix(suffix).and_then(|id| id.parse().ok())),
        };
        let Some(id) = id else { continue };
        if method != req.method {
            allow = Some(method);
            continue;
        }
        let stitched = kind == Kind::Stitched;
        // A coordinator forwarding here propagates its trace position;
        // adopting it makes this node's request span a child of the
        // coordinator's dispatch span (in id space — the span itself
        // ships back in the tree trailer). Absent or malformed headers
        // adopt the inactive context, a no-op.
        let _adopted =
            stitched.then(|| trace::adopt(parse_trace_header(req.header("x-ermes-trace"))));
        let cx = Ctx {
            inner,
            req,
            conn,
            endpoint,
            id,
            want_tree: stitched && req.header("x-ermes-trace-tree").is_some(),
        };
        return (
            endpoint,
            kind != Kind::Plain,
            handler(&cx).unwrap_or_else(Reply::from),
        );
    }
    let response = match allow {
        Some(method) => {
            let mut response = Response::text(405, "method not allowed\n");
            response.extra_headers.push(("allow", method.to_string()));
            response
        }
        None => Response::text(404, "no such endpoint\n"),
    };
    ("other", false, response.into())
}

/// One routed request, as its handler sees it.
struct Ctx<'a> {
    inner: &'a Inner,
    req: &'a Request,
    conn: Option<&'a TcpStream>,
    endpoint: &'static str,
    /// The path's session `{id}` (0 on other routes).
    id: u64,
    /// Append this request's span tree to the response.
    want_tree: bool,
}

fn shutdown(_: &Ctx) -> Handled {
    Ok(Reply {
        response: Response::text(200, "draining\n"),
        close_after: true,
        initiate_shutdown: true,
    })
}

/// Liveness with per-component detail. The first line stays exactly
/// `ok` (probes — including a coordinator's — and scripts grep for it);
/// each following line is one `component: value` pair so scripts can
/// assert on individual components. A panicked worker is respawned
/// before its thread exits, so health stays green across panics — the
/// restart counter is how an operator notices them. In coordinator mode
/// the fleet's health states and the degraded-fallback count follow.
fn healthz(cx: &Ctx) -> Handled {
    use std::fmt::Write as _;
    let inner = cx.inner;
    let (alive, workers, restarts, queue_depth) = {
        let pool = inner.pool.lock().expect("pool slot poisoned");
        pool.as_ref().map_or((0, 0, 0, 0), |p| {
            (
                p.alive_workers(),
                p.workers(),
                p.worker_restarts(),
                p.queue_depth(),
            )
        })
    };
    let mut body = format!("ok\nworkers: {alive}/{workers} alive\nworker restarts: {restarts}\n");
    let _ = writeln!(body, "sessions live: {}", inner.sessions.live());
    let _ = writeln!(body, "queue depth: {queue_depth}");
    let (journal_live, journal_capacity) = trace::journal_occupancy();
    let flight = trace::flight::stats();
    let _ = writeln!(
        body,
        "trace: journal {journal_live}/{journal_capacity}, flight {} retained, {} dropped",
        flight.retained_live, flight.dropped_total
    );
    if let Some(cluster) = &inner.cluster {
        let states = cluster.worker_states();
        let up = states
            .iter()
            .filter(|(_, s)| *s == parx::HealthState::Up)
            .count();
        let _ = writeln!(body, "cluster workers: {up}/{} up", states.len());
        for (addr, state) in &states {
            let _ = writeln!(body, "cluster worker {addr}: {}", state.label());
        }
        let _ = writeln!(
            body,
            "cluster degraded jobs: {}",
            cluster.metrics.degraded_total()
        );
    }
    Ok(Reply::from(Response::text(200, body)))
}

fn metrics(cx: &Ctx) -> Handled {
    let inner = cx.inner;
    let (queue_depth, running, workers, alive, restarts) = {
        let pool = inner.pool.lock().expect("pool slot poisoned");
        pool.as_ref().map_or((0, 0, 0, 0, 0), |p| {
            (
                p.queue_depth(),
                p.running(),
                p.workers(),
                p.alive_workers(),
                p.worker_restarts(),
            )
        })
    };
    let designs = inner.designs.ready();
    let (stats, cache_entries) = aggregate(&designs);
    let mut gauges: Vec<(&str, &str, f64)> = vec![
        (
            "ermesd_queue_depth",
            "Analysis jobs waiting in the admission queue.",
            queue_depth as f64,
        ),
        (
            "ermesd_jobs_running",
            "Analysis jobs currently executing.",
            running as f64,
        ),
        ("ermesd_workers", "Analysis worker threads.", workers as f64),
        (
            "ermesd_workers_alive",
            "Analysis worker threads currently alive (respawn closes any gap).",
            alive as f64,
        ),
        (
            "ermesd_design_caches",
            "Distinct spec bodies held decoded, each with its design and engine cache.",
            designs.len() as f64,
        ),
        (
            "ermesd_cache_entries",
            "Memoized results stored across all engine caches.",
            cache_entries as f64,
        ),
        (
            "ermesd_cache_analysis_hits",
            "Aggregated analysis-cache hits across live engine caches.",
            stats.analysis_hits as f64,
        ),
        (
            "ermesd_cache_analysis_misses",
            "Aggregated analysis-cache misses across live engine caches.",
            stats.analysis_misses as f64,
        ),
        (
            "ermesd_cache_ordering_hits",
            "Aggregated ordering-cache hits across live engine caches.",
            stats.ordering_hits as f64,
        ),
        (
            "ermesd_cache_ordering_misses",
            "Aggregated ordering-cache misses across live engine caches.",
            stats.ordering_misses as f64,
        ),
        (
            "ermesd_cache_evictions",
            "Aggregated LRU evictions across live engine caches.",
            stats.evictions as f64,
        ),
        (
            "ermes_sessions_live",
            "Interactive analysis sessions currently open.",
            inner.sessions.live() as f64,
        ),
    ];
    let ilp = ilp::stats();
    let mut sampled_counters: Vec<(&str, &str, u64)> = vec![
        (
            "ermes_worker_restarts_total",
            "Pool workers respawned after a job panicked on them.",
            restarts,
        ),
        (
            "ermes_ilp_nodes_total",
            "Branch & bound nodes explored by the selection engine.",
            ilp.nodes,
        ),
        (
            "ermes_session_opened_total",
            "Interactive sessions opened.",
            inner.sessions.opened.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_edits_total",
            "Session edits applied (incremental re-analyses served).",
            inner.sessions.edits.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_closed_total",
            "Interactive sessions closed by the client.",
            inner.sessions.closed.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_evicted_total",
            "Interactive sessions evicted by the LRU bound.",
            inner.sessions.evicted.load(Ordering::Relaxed),
        ),
        (
            "ermes_session_dropped_total",
            "Interactive sessions dropped after a panicked edit.",
            inner.sessions.dropped.load(Ordering::Relaxed),
        ),
        (
            "ermes_trace_header_invalid_total",
            "Present-but-malformed x-ermes-trace headers received.",
            crate::metrics::trace_header_invalid_total(),
        ),
        (
            "ermes_trace_flight_retained_total",
            "Span trees retained by the tail-sampling flight recorder.",
            trace::flight::stats().retained_total,
        ),
        (
            "ermes_trace_flight_dropped_total",
            "Retained span trees lost to flight-recorder ring overflow.",
            trace::flight::stats().dropped_total,
        ),
    ];
    if let Some(cluster) = &inner.cluster {
        let states = cluster.worker_states();
        let count = |s: parx::HealthState| states.iter().filter(|(_, st)| *st == s).count() as f64;
        gauges.push((
            "ermes_cluster_workers_up",
            "Cluster workers currently answering health probes.",
            count(parx::HealthState::Up),
        ));
        gauges.push((
            "ermes_cluster_workers_suspect",
            "Cluster workers with recent probe failures, still dispatchable.",
            count(parx::HealthState::Suspect),
        ));
        gauges.push((
            "ermes_cluster_workers_down",
            "Cluster workers excluded from dispatch until probes recover.",
            count(parx::HealthState::Down),
        ));
        sampled_counters.extend(cluster.metrics.sampled());
    }
    let mut body = inner.metrics.render(&gauges, &sampled_counters);
    let rows = per_design(&designs);
    body.push_str(&crate::metrics::render_per_design_cache(&rows));
    body.push_str(&crate::metrics::render_phase_histograms());
    // Coordinator mode: federate every reachable worker's exposition,
    // each sample gaining a `node` label, so one scrape of the
    // coordinator sees the whole fleet.
    if let Some(cluster) = &inner.cluster {
        for (addr, exposition) in cluster.scrape_worker_metrics() {
            body.push_str(&crate::metrics::federate_exposition(&addr, &exposition));
        }
    }
    Ok(Reply::from(Response::text(200, body)))
}

/// `GET /trace`: the last `n` (default 32, `?n=` to override, capped at
/// the journal capacity) completed job span trees, as JSON. Trees for
/// cancelled or panicked jobs are present too, truncated where work
/// stopped and tagged with `outcome` on the root span.
fn trace_recent(cx: &Ctx) -> Handled {
    let n = cx
        .req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(32)
        .clamp(1, trace::DEFAULT_JOURNAL_CAPACITY);
    let trees = trace::completed_trees(n);
    let mut out = String::from("[");
    for (i, tree) in trees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tree_json(&mut out, tree);
    }
    out.push_str("]\n");
    let mut response = Response::text(200, out);
    response.content_type = "application/json";
    Ok(Reply::from(response))
}

/// `GET /trace/slow`: the flight recorder's retained trees — requests
/// that were slow (rolling per-endpoint p99 exceeders), errored,
/// panicked, degraded, or retried — oldest first, each wrapped with its
/// retention reason. `?n=` caps to the newest `n`.
fn trace_slow(cx: &Ctx) -> Handled {
    use std::fmt::Write as _;
    let n = cx
        .req
        .query_param("n")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(trace::flight::DEFAULT_FLIGHT_CAPACITY)
        .max(1);
    let retained = trace::flight::retained();
    let skip = retained.len().saturating_sub(n);
    let mut out = String::from("[");
    for (i, entry) in retained[skip..].iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"seq\":{},\"reason\":", entry.seq);
        write_escaped(&mut out, entry.reason);
        out.push_str(",\"tree\":");
        write_tree_json(&mut out, &entry.tree);
        out.push('}');
    }
    out.push_str("]\n");
    let mut response = Response::text(200, out);
    response.content_type = "application/json";
    Ok(Reply::from(response))
}

/// Appends this request's completed span tree to a response body, in
/// the versioned wire form behind [`trace::TRAILER_MARKER`], for the
/// coordinator to stitch (and strip before relaying). Only called when
/// the request carried `x-ermes-trace-tree`, so a direct client's bytes
/// never change. `root_id` is the request span's id, captured while it
/// was open; a zero id (tracing disabled) attaches nothing.
fn append_tree_trailer(response: &mut Response, root_id: u64) {
    if root_id == 0 || response.status != 200 {
        return;
    }
    if let Some(tree) = trace::subtree(root_id) {
        response
            .body
            .extend_from_slice(trace::TRAILER_MARKER.as_bytes());
        response.body.extend_from_slice(tree.to_wire().as_bytes());
    }
}

fn write_tree_json(out: &mut String, tree: &trace::SpanTree) {
    use std::fmt::Write as _;
    let r = &tree.record;
    out.push_str("{\"name\":");
    write_escaped(out, r.name);
    let _ = write!(
        out,
        ",\"id\":{},\"parent\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"duration_ns\":{}",
        r.id,
        r.parent,
        r.thread,
        r.start_ns,
        r.end_ns,
        r.duration_ns(),
    );
    if !r.attrs.is_empty() {
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in r.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(out, k);
            out.push(':');
            write_escaped(out, v);
        }
        out.push('}');
    }
    out.push_str(",\"children\":[");
    for (i, child) in tree.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_tree_json(out, child);
    }
    out.push_str("]}");
}

/// Why a request's work produced no result. With success, this is the
/// whole outcome taxonomy: [`outcome_label`] names each case on the
/// `request` span and [`Ctx::respond`] maps it to its status, headers
/// and metric counters (the table in DESIGN.md §6).
enum Failure {
    /// A deterministic verdict, already rendered: bad input (`400`), a
    /// failed methodology (`422`), or one a coordinator relays.
    Error(Response),
    /// The work saw its token fire mid-run: why, and how many of how
    /// many steps it had completed.
    Cancelled(CancelReason, usize, usize),
    /// Shed: the admission queue was full.
    QueueFull,
    /// Shed: the deadline passed before a worker picked the job up.
    Expired,
    /// Shed: the server is draining.
    Draining,
    /// The job panicked on its worker. The pool caught the panic and
    /// respawned the worker; only this request is affected.
    Panic,
    /// The session's lock was poisoned by an earlier job that panicked
    /// holding it.
    Poisoned,
    /// The cluster could not serve the work; it runs locally instead.
    Degraded,
}

impl From<CliError> for Failure {
    fn from(e: CliError) -> Failure {
        match e {
            CliError::Ermes(ermes::ErmesError::Cancelled {
                reason,
                completed,
                total,
            }) => Failure::Cancelled(reason, completed, total),
            CliError::Ermes(_) => Failure::Error(Response::text(422, format!("{e}\n"))),
            CliError::Json(_) | CliError::Spec(_) | CliError::Usage(_) => {
                Failure::Error(bad_request(e))
            }
        }
    }
}

impl From<ermes::ErmesError> for Failure {
    fn from(e: ermes::ErmesError) -> Failure {
        Failure::from(CliError::Ermes(e))
    }
}

/// The `outcome` attribute of a request span.
fn outcome_label<T>(result: &Result<T, Failure>) -> &'static str {
    match result {
        Ok(_) => "ok",
        Err(Failure::Error(_)) => "error",
        Err(Failure::Cancelled(..)) => "cancelled",
        Err(Failure::QueueFull | Failure::Expired | Failure::Draining) => "shed",
        Err(Failure::Panic) => "panic",
        Err(Failure::Poisoned) => "poisoned",
        Err(Failure::Degraded) => "degraded",
    }
}

fn bad_request(message: impl std::fmt::Display) -> Response {
    Response::text(400, format!("{message}\n"))
}

/// One request's work, as its endpoint hands it to [`Ctx::serve`].
struct Job<'a, T> {
    deadline: Option<Instant>,
    /// An extra `request` span attribute: `target`, `session`,
    /// `forwarded` or `fanout`.
    attr: Option<(&'static str, u64)>,
    session: Option<OnSession>,
    work: Work<'a, T>,
}

/// The live session a job runs on, and the `500` body a panic leaves. A
/// panic, or a lock an earlier panic poisoned, drops the session.
type OnSession = (u64, fn(u64) -> String);

/// Where a job's work runs.
enum Work<'a, T> {
    /// On the worker pool: admission control, the deadline, disconnect
    /// polling and panic isolation.
    Pool(Run<'static, T>),
    /// On the connection thread: the coordinator's network-bound
    /// fan-out, which must not hold a pool slot.
    Here(Run<'a, T>),
}

/// A job's work, handed the request's [`CancelToken`].
type Run<'a, T> = Box<dyn FnOnce(&CancelToken) -> Result<T, Failure> + Send + 'a>;

impl<T> Job<'_, T> {
    fn pool(
        deadline: Option<Instant>,
        run: impl FnOnce(&CancelToken) -> Result<T, Failure> + Send + 'static,
    ) -> Self {
        Job {
            deadline,
            attr: None,
            session: None,
            work: Work::Pool(Box::new(run)),
        }
    }
}

impl Ctx<'_> {
    /// The one request path: runs `job` under the `request` span, then
    /// answers with `render` of its result, or with its failure.
    fn serve<T: Send + 'static>(
        &self,
        job: Job<'_, T>,
        render: impl FnOnce(T) -> Response,
    ) -> Reply {
        let session = job.session;
        let (result, tree) = self.execute(job);
        let mut reply = self.respond(result, session, render);
        if let Some(root_id) = tree {
            append_tree_trailer(&mut reply.response, root_id);
        }
        reply
    }

    /// Opens the `request` span, runs the job's work under the request's
    /// token, and labels how it ended. The span is open while the work
    /// is submitted, so the worker's engine spans parent under it, and
    /// closes once the work has yielded: a tree is "completed" even when
    /// its job was cancelled or panicked. Also returns the span's id when
    /// its tree goes behind the response (pool work only).
    fn execute<T: Send + 'static>(&self, job: Job<'_, T>) -> (Result<T, Failure>, Option<u64>) {
        // One token per request: it self-cancels when the deadline
        // passes mid-run, and the connection poll in `run_job` cancels
        // it when the client hangs up. Jobs poll it at iteration
        // boundaries.
        let cancel = CancelToken::with_deadline(job.deadline);
        let request_span = trace::span("request");
        trace::attr("endpoint", self.endpoint);
        if let Some((key, value)) = job.attr {
            trace::attr(key, value);
        }
        let (result, tree) = match job.work {
            Work::Pool(run) => {
                let tree = self.want_tree.then(|| trace::current_context().parent());
                let token = cancel.clone();
                let result = self
                    .inner
                    .run_job(job.deadline, &cancel, self.conn, move || run(&token));
                (result, tree)
            }
            Work::Here(run) => (run(&cancel), None),
        };
        trace::attr("outcome", outcome_label(&result));
        drop(request_span);
        (result, tree)
    }

    /// Maps a job's result to its reply: `render` of a success, or the
    /// failure's status, headers and metric counters.
    fn respond<T>(
        &self,
        result: Result<T, Failure>,
        session: Option<OnSession>,
        render: impl FnOnce(T) -> Response,
    ) -> Reply {
        let inner = self.inner;
        let panicked = matches!(result, Err(Failure::Panic));
        let response = match result {
            Ok(value) => render(value),
            Err(Failure::Error(response)) => response,
            Err(Failure::Cancelled(reason, completed, total)) => {
                cancelled_response(inner, reason, completed, total)
            }
            Err(Failure::QueueFull) => {
                inner.metrics.record_shed(true);
                too_many_requests(inner, "admission queue full; retry later\n")
            }
            Err(Failure::Expired) => {
                inner.metrics.record_shed(false);
                too_many_requests(inner, "deadline expired before a worker was free\n")
            }
            Err(Failure::Draining) => Response::text(503, "server is draining\n"),
            Err(Failure::Panic | Failure::Poisoned) => {
                if panicked {
                    inner.metrics.record_job_panicked();
                }
                // A session's state may be half-edited: it is dropped.
                if let Some((id, _)) = session {
                    inner.sessions.remove(id, &inner.sessions.dropped);
                }
                Response::text(
                    500,
                    match session {
                        None => {
                            "analysis worker panicked on this request; worker restarted\n".into()
                        }
                        Some((id, panic_body)) if panicked => panic_body(id),
                        Some((id, _)) => format!(
                            "session {id} was corrupted by a panicked edit and has been dropped\n"
                        ),
                    },
                )
            }
            Err(Failure::Degraded) => unreachable!("degraded work falls back to a local run"),
        };
        // A 499 means the client is gone; drop the connection after the
        // (best-effort) write instead of waiting for another request.
        Reply {
            close_after: response.status == 499,
            ..Reply::from(response)
        }
    }

    fn deadline(&self) -> Result<Option<Instant>, Response> {
        request_deadline(self.req, self.inner.default_deadline_ms).map_err(bad_request)
    }

    /// The live session the path names; `404` when there is none.
    fn session(&self) -> Result<Arc<Mutex<DeltaState>>, Response> {
        let id = self.id;
        let session = self.inner.sessions.get(id);
        session.ok_or_else(|| Response::text(404, format!("no session {id}\n")))
    }

    /// A pool job on `session`, run under its lock.
    fn session_job<T: Send + 'static>(
        &self,
        session: Arc<Mutex<DeltaState>>,
        deadline: Option<Instant>,
        panic_body: fn(u64) -> String,
        run: impl FnOnce(&mut DeltaState, &CancelToken) -> Result<T, CliError> + Send + 'static,
    ) -> Job<'static, T> {
        let job = Job::pool(deadline, move |cancel| {
            let mut state = session.lock().map_err(|_| Failure::Poisoned)?;
            Ok(run(&mut state, cancel)?)
        });
        Job {
            attr: Some(("session", self.id)),
            session: Some((self.id, panic_body)),
            ..job
        }
    }
}

/// The posted spec, decoded through the design LRU: each distinct body
/// is decoded once per daemon, and jobs that consume a design clone the
/// entry's.
fn spec_input(cx: &Ctx) -> Result<Arc<Decoded>, Response> {
    cx.inner.designs.get(&cx.req.body).map_err(bad_request)
}

fn body_text(body: &[u8]) -> Result<&str, &'static str> {
    std::str::from_utf8(body).map_err(|_| "body is not UTF-8")
}

/// The parse step of the five analysis endpoints.
fn analysis_input(cx: &Ctx) -> Result<(Arc<Decoded>, AnalysisParams), Response> {
    let decoded = spec_input(cx)?;
    let params = AnalysisParams::from_request(cx.req, cx.endpoint, cx.inner.default_deadline_ms);
    Ok((decoded, params.map_err(bad_request)?))
}

/// Per-request parameters of the analysis endpoints.
struct AnalysisParams {
    target: u64,
    targets: Vec<u64>,
    /// Sweep threads. `/explore` shares this parser, so it accepts and
    /// validates `?jobs=` too, but an exploration runs on one thread.
    jobs: usize,
    deadline: Option<Instant>,
}

impl AnalysisParams {
    fn from_request(
        req: &Request,
        endpoint: &str,
        default_deadline_ms: u64,
    ) -> Result<AnalysisParams, String> {
        // Clamped to the host's threads: the bytes do not depend on
        // `jobs`, and a request must not start more threads than exist.
        let jobs = parx::parse_jobs("jobs", req.query_param("jobs"), 1)?.min(parx::max_jobs());
        let target = match endpoint {
            "explore" => req
                .query_param("target")
                .ok_or("explore requires ?target=<cycles>")?
                .parse()
                .map_err(|_| "target must be a non-negative integer".to_string())?,
            _ => 0,
        };
        let targets = match endpoint {
            "sweep" => req
                .query_param("targets")
                .ok_or("sweep requires ?targets=<a,b,c>")?
                .split(',')
                .map(|t| t.trim().parse())
                .collect::<Result<Vec<u64>, _>>()
                .map_err(|_| "targets must be comma-separated non-negative integers".to_string())?,
            _ => Vec::new(),
        };
        if targets.len() > MAX_SWEEP_TARGETS {
            return Err(format!(
                "a sweep takes at most {MAX_SWEEP_TARGETS} targets, got {}",
                targets.len()
            ));
        }
        let deadline = request_deadline(req, default_deadline_ms)?;
        Ok(AnalysisParams {
            target,
            targets,
            jobs,
            deadline,
        })
    }
}

/// Resolves a request's deadline: the `deadline_ms` query parameter,
/// falling back to the server default; `0` disables the deadline.
fn request_deadline(req: &Request, default_deadline_ms: u64) -> Result<Option<Instant>, String> {
    let deadline_ms = match req.query_param("deadline_ms") {
        None => default_deadline_ms,
        Some(text) => text
            .parse()
            .map_err(|_| "deadline_ms must be a non-negative integer".to_string())?,
    };
    Ok((deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms)))
}

/// Runs an analysis command on this node: a pool job against the
/// decoded spec and its warm engine cache, whose output is the whole
/// `200` body (the identity contract at the top of this module).
fn run_locally(
    cx: &Ctx,
    decoded: Arc<Decoded>,
    params: &AnalysisParams,
    command: impl FnOnce(&Decoded, &CancelToken) -> Result<String, CliError> + Send + 'static,
) -> Reply {
    let job = Job::pool(params.deadline, move |cancel| {
        Ok(command(&decoded, cancel)?)
    });
    cx.serve(job, |body| Response::text(200, body))
}

fn analyze(cx: &Ctx) -> Handled {
    let (decoded, params) = analysis_input(cx)?;
    Ok(run_locally(cx, decoded, &params, |d, cancel| {
        analyze_design(&d.design, Some(&d.cache), Some(cancel))
    }))
}

/// `order` and `verify` work on `spec.to_system()`, not on the design:
/// [`Design::new`] snaps process latencies to the nearest Pareto point,
/// which would change their bytes. `order` is one combinatorial pass
/// with no iteration structure to poll; it always runs to completion.
fn order(cx: &Ctx) -> Handled {
    let (decoded, params) = analysis_input(cx)?;
    Ok(run_locally(cx, decoded, &params, |d, _| {
        let (report, json) = cmd_order(&d.spec)?;
        Ok(format!("{report}{json}\n"))
    }))
}

fn verify(cx: &Ctx) -> Handled {
    let (decoded, params) = analysis_input(cx)?;
    Ok(run_locally(cx, decoded, &params, |d, cancel| {
        render_verify_system(&d.spec.to_system()?, Some(cancel))
    }))
}

/// In coordinator mode the exploration is forwarded to the fleet; when
/// the cluster cannot serve it, it runs here, degraded but correct.
fn explore(cx: &Ctx) -> Handled {
    let (decoded, params) = analysis_input(cx)?;
    if let Some(cluster) = &cx.inner.cluster {
        if let Some(reply) = forward_explore(cx, cluster, &decoded, &params) {
            return Ok(reply);
        }
    }
    let target = params.target;
    Ok(run_locally(cx, decoded, &params, move |d, cancel| {
        let design = d.design.clone();
        let (report, json) = explore_design(&d.spec, design, target, &d.cache, Some(cancel))?;
        Ok(format!("{report}{json}\n"))
    }))
}

/// In coordinator mode each ladder target fans out to the fleet.
fn sweep(cx: &Ctx) -> Handled {
    let (decoded, mut params) = analysis_input(cx)?;
    if let Some(cluster) = &cx.inner.cluster {
        if let Some(reply) = coordinator_sweep(cx, cluster, &decoded, &params) {
            return Ok(reply);
        }
    }
    let targets = std::mem::take(&mut params.targets);
    Ok(run_locally(cx, decoded, &params, move |d, cancel| {
        let design = d.design.clone();
        sweep_design(design, &targets, params.jobs, &d.cache, Some(cancel))
    }))
}

/// `POST /shard/sweeppoint?target=N`: the worker-side unit of a
/// distributed sweep — one ladder target explored against the posted
/// spec, answered in the exact-value wire form ([`render_point_wire`])
/// so the coordinator reassembles *values*, never re-parsed rendered
/// text. It runs through the same pipeline as the public endpoints, so
/// coordinator retries see the same shedding statuses human clients do.
fn sweep_point(cx: &Ctx) -> Handled {
    let decoded = spec_input(cx)?;
    let target: u64 = match cx.req.query_param("target") {
        None => return Err(bad_request("sweeppoint requires ?target=<cycles>")),
        Some(text) => text
            .parse()
            .map_err(|_| bad_request("target must be a non-negative integer"))?,
    };
    let deadline = cx.deadline()?;
    let options = ermes::SweepOptions {
        jobs: 1,
        memoize: true,
    };
    let job = Job::pool(deadline, move |cancel| {
        let design = decoded.design.clone();
        let point = ermes::sweep_point(design, target, &options, &decoded.cache, Some(cancel));
        Ok(point?)
    });
    let job = Job {
        attr: Some(("target", target)),
        ..job
    };
    Ok(cx.serve(job, |point| Response::text(200, render_point_wire(&point))))
}

/// `POST /session`: runs the initial full analysis on the worker pool,
/// stores the resulting session, and answers with the analysis —
/// bit-identical to `POST /analyze` on the same spec — plus an
/// `x-ermes-session: {id}` header the client quotes back on edits.
fn session_open(cx: &Ctx) -> Handled {
    let decoded = spec_input(cx)?;
    let job = Job::pool(cx.deadline()?, move |cancel| {
        let state = DeltaState::open_cancellable(decoded.design.clone(), Some(cancel))?;
        let body = render_session_report(&state);
        Ok((state, body))
    });
    Ok(cx.serve(job, |(state, body)| {
        session_response(cx.inner.sessions.insert(state), body)
    }))
}

/// `POST /session/{id}/edit`: applies one reselect/reorder edit under
/// the session's lock and answers with the full re-analysis —
/// bit-identical to `POST /analyze` on a spec capturing the session's
/// post-edit design, but computed incrementally (dirty-SCC reprice for
/// reselects, component-reusing rebuild for reorders). A cancelled edit
/// stays applied with its analysis pending; the next edit settles it
/// first.
fn session_edit(cx: &Ctx) -> Handled {
    let session = cx.session()?;
    let text = body_text(&cx.req.body).map_err(bad_request)?;
    let edit = parse_edit(text).map_err(bad_request)?;
    let job = cx.session_job(
        session,
        cx.deadline()?,
        |id| {
            format!(
                "analysis worker panicked on this edit; worker restarted, session {id} dropped\n"
            )
        },
        move |state, cancel| {
            apply_edit(state, &edit, Some(cancel))?;
            Ok(render_session_report(state))
        },
    );
    Ok(cx.serve(job, |body| {
        cx.inner.sessions.edits.fetch_add(1, Ordering::Relaxed);
        session_response(cx.id, body)
    }))
}

/// `POST /session/{id}/verify`: certifies the session's *current*
/// design — after any number of incremental edits — deadlock-free (or
/// refutes it), bit-identical to `POST /verify` on a spec capturing the
/// session's present state.
fn session_verify(cx: &Ctx) -> Handled {
    let job = cx.session_job(
        cx.session()?,
        cx.deadline()?,
        |id| format!("analysis worker panicked verifying session {id}; worker restarted, session dropped\n"),
        |state, cancel| render_verify_system(state.design().system(), Some(cancel)),
    );
    Ok(cx.serve(job, |body| session_response(cx.id, body)))
}

/// `DELETE /session/{id}`: drops the session (no pool round-trip —
/// freeing the state is cheap and must work even under a full queue).
fn session_close(cx: &Ctx) -> Handled {
    let (id, sessions) = (cx.id, &cx.inner.sessions);
    Ok(Reply::from(if sessions.remove(id, &sessions.closed) {
        Response::text(200, format!("session {id} closed\n"))
    } else {
        Response::text(404, format!("no session {id}\n"))
    }))
}

fn session_response(id: u64, body: String) -> Response {
    let mut response = Response::text(200, body);
    let header = ("x-ermes-session", id.to_string());
    response.extra_headers.push(header);
    response
}

/// Coordinator path for `POST /explore`: the whole request is forwarded
/// to the ring owner of `(body hash, target)` — an exploration is one
/// atomic greedy walk, so the unit of distribution is the request. The
/// worker's verdict (success or deterministic error) is relayed
/// verbatim, which is what keeps the bytes identical to a local run.
/// `None` means the cluster could not serve the job (all replicas
/// exhausted); the caller runs it locally, degraded but correct.
fn forward_explore(
    cx: &Ctx,
    cluster: &Arc<Cluster>,
    decoded: &Decoded,
    params: &AnalysisParams,
) -> Option<Reply> {
    let run = |_: &CancelToken| {
        let key = shard_key(decoded.hash, params.target);
        let target = format!("/explore?target={}", params.target);
        cluster
            .dispatch(key, "POST", &target, &decoded.body)
            .map_err(|_| {
                cluster.metrics.record_degraded();
                Failure::Degraded
            })
    };
    // The worker runs un-deadlined: the coordinator's subjob timeout
    // already bounds the wait, and a relayed deadline would let time
    // burned by a failed first attempt cut a retry short.
    let (result, _) = cx.execute(Job {
        deadline: None,
        attr: Some(("forwarded", 1)),
        session: None,
        work: Work::Here(Box::new(run)),
    });
    match result {
        Err(Failure::Degraded) => None,
        result => Some(cx.respond(result, None, relay)),
    }
}

/// Re-wraps a worker's reply for the coordinator's client: status and
/// body are relayed verbatim (the bit-identity contract), the retry
/// semantics headers survive, and hop-by-hop framing does not.
fn relay(reply: ClientResponse) -> Response {
    let mut response = Response::text(
        reply.status,
        String::from_utf8_lossy(&reply.body).into_owned(),
    );
    for name in ["retry-after", "x-ermes-progress"] {
        if let Some(value) = reply.header(name) {
            response.extra_headers.push((name, value.to_string()));
        }
    }
    response
}

/// Coordinator path for `POST /sweep`: each ladder target is one subjob
/// keyed by `(body hash, target)`, so repeat sweeps of one body land on
/// the same — warm — workers while the ladder spreads over the fleet.
/// Every subjob forwards the client's body as it came, one shared
/// buffer, so a worker's design LRU decodes it once for the whole ladder.
/// Subjobs the cluster cannot serve (retries exhausted, no live
/// workers) are computed in-process: degraded mode trades throughput
/// for availability, never correctness. Points come back as exact
/// values ([`parse_point_wire`]) in ladder order and go through the
/// same [`ermes::prune_front`] + [`render_sweep_front`] as a local
/// sweep, which makes the response bytes identical at any worker
/// count, retry schedule, or failure pattern.
///
/// `None` (all workers `Down` before the fan-out starts) sends the
/// whole request down the local path with its pool admission control.
fn coordinator_sweep(
    cx: &Ctx,
    cluster: &Arc<Cluster>,
    decoded: &Decoded,
    params: &AnalysisParams,
) -> Option<Reply> {
    let states = cluster.worker_states();
    if states.iter().all(|(_, s)| *s == parx::HealthState::Down) {
        cluster.metrics.record_degraded();
        return None;
    }
    let targets = &params.targets;
    let run = |cancel: &CancelToken| {
        let options = ermes::SweepOptions {
            jobs: 1,
            memoize: true,
        };
        // Fan out every target at once: subjobs are network-bound waits,
        // so the thread count is the ladder length, not the local core
        // count. `par_map` preserves ladder order in the gather, which
        // the prune's tie-break depends on.
        let outcomes = parx::par_map(targets.len().max(1), targets, |_, &target| {
            let key = shard_key(decoded.hash, target);
            let path = format!("/shard/sweeppoint?target={target}");
            match cluster.dispatch(key, "POST", &path, &decoded.body) {
                // A 200 whose body does not parse is a worker bug or a
                // truncation the transport missed; recompute rather
                // than trust it.
                Ok(reply) if reply.status == 200 => {
                    match parse_point_wire(&String::from_utf8_lossy(&reply.body)) {
                        Some(point) => Ok(point),
                        None => local_point(cluster, decoded, target, &options, cancel),
                    }
                }
                // A deterministic non-retryable verdict (e.g. `422` for a
                // deadlocking configuration), relayed verbatim: exactly
                // the bytes a local sweep reports for that target.
                Ok(reply) => Err(Failure::Error(relay(reply))),
                Err(_) => local_point(cluster, decoded, target, &options, cancel),
            }
        });
        // The first failure in ladder order wins, matching the serial
        // sweep's error report; a failed fan-out is labelled `error`
        // whatever its cause.
        let points = outcomes
            .into_iter()
            .enumerate()
            .map(|(index, outcome)| match outcome {
                // Re-scoped to targets-within-the-sweep, as the engine's own
                // sweep loop does.
                Err(Failure::Cancelled(reason, ..)) => {
                    let response = cancelled_response(cx.inner, reason, index, targets.len());
                    Err(Failure::Error(response))
                }
                outcome => outcome,
            });
        let points = points.collect::<Result<Vec<_>, _>>()?;
        Ok(render_sweep_front(&ermes::prune_front(points)))
    };
    let job = Job {
        deadline: params.deadline,
        attr: Some(("fanout", targets.len() as u64)),
        session: None,
        work: Work::Here(Box::new(run)),
    };
    Some(cx.serve(job, |body| Response::text(200, body)))
}

/// Degraded-mode unit: computes one sweep target in-process when the
/// cluster could not serve it. Counted so operators see fleet trouble
/// even though clients never do.
fn local_point(
    cluster: &Cluster,
    decoded: &Decoded,
    target: u64,
    options: &ermes::SweepOptions,
    cancel: &CancelToken,
) -> Result<ermes::SweepPoint, Failure> {
    cluster.metrics.record_degraded();
    // A degraded request is flight-recorder material even though its
    // root span will close with `outcome=ok` (the client never sees
    // cluster trouble).
    trace::flight::flag(trace::current_context().trace_id(), "degraded");
    let design = decoded.design.clone();
    let point = ermes::sweep_point(design, target, options, &decoded.cache, Some(cancel));
    Ok(point?)
}

/// A `429` with a `retry-after` computed from the pool's current backlog
/// (see [`retry_after_secs`]).
fn too_many_requests(inner: &Inner, body: impl Into<Vec<u8>>) -> Response {
    let mut response = Response::text(429, body);
    let retry_after = retry_after_secs(inner).to_string();
    response.extra_headers.push(("retry-after", retry_after));
    response
}

/// Seconds a `429`'d client should wait before retrying, from the
/// pool's state at response time: the backlog (queued + running jobs)
/// divided by the worker count is how many drain rounds stand between
/// the client and a free worker. Clamped to `[1, 30]` — an idle server
/// still answers 1, a saturated one never suggests more than half a
/// minute.
fn retry_after_secs(inner: &Inner) -> u64 {
    let (depth, running, workers) = {
        let pool = inner.pool.lock().expect("pool slot poisoned");
        pool.as_ref()
            .map_or((0, 0, 0), |p| (p.queue_depth(), p.running(), p.workers()))
    };
    retry_after_from(depth, running, workers)
}

/// The pure backlog → retry-after mapping behind [`retry_after_secs`].
fn retry_after_from(queue_depth: usize, running: usize, workers: usize) -> u64 {
    ((queue_depth + running) as u64)
        .div_ceil(workers.max(1) as u64)
        .clamp(1, 30)
}

/// Maps a mid-execution cancellation to its HTTP shape: deadline → 429
/// (retryable — the work *was* admitted but ran out of time), client
/// disconnect → 499 (nobody left to answer), shutdown → 503. All three
/// carry the partial-progress metadata in the body and an
/// `x-ermes-progress: completed/total` header.
fn cancelled_response(
    inner: &Inner,
    reason: CancelReason,
    completed: usize,
    total: usize,
) -> Response {
    let body = format!("cancelled ({reason}) after {completed} of {total} steps\n");
    let mut response = match reason {
        CancelReason::Deadline => {
            inner.metrics.record_cancelled_deadline();
            too_many_requests(inner, body)
        }
        CancelReason::Disconnected => {
            inner.metrics.record_cancelled_disconnect();
            Response::text(499, body)
        }
        CancelReason::Shutdown => Response::text(503, body),
    };
    response
        .extra_headers
        .push(("x-ermes-progress", format!("{completed}/{total}")));
    response
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::AtomicUsize;

    /// A two-process spec, distinct per `tag` (a channel latency).
    fn body(tag: u64) -> Vec<u8> {
        format!(
            r#"{{"processes": [{{"name": "a", "latency": 2}}, {{"name": "b", "latency": 3}}],
                "channels": [{{"name": "f", "from": "a", "to": "b", "latency": {tag}}},
                             {{"name": "r", "from": "b", "to": "a", "latency": 1,
                               "initial_tokens": 1}}]}}"#
        )
        .into_bytes()
    }

    /// The LRU's bodies with their last-use ticks, least recent first.
    fn contents(lru: &DesignLru) -> Vec<(Vec<u8>, u64)> {
        let entries = lru.lock();
        let mut rows: Vec<(Vec<u8>, u64)> = entries
            .map
            .iter()
            .map(|(key, (_, stamp))| (key.to_vec(), *stamp))
            .collect();
        rows.sort_by_key(|(_, stamp)| *stamp);
        rows
    }

    #[test]
    fn cache_lru_shares_and_evicts_by_recency() {
        let lru = DesignLru::new(2, 16);
        let decodes = AtomicUsize::new(0);
        let get = |b: &[u8]| {
            let decoded = lru.get_with(b, |body| {
                decodes.fetch_add(1, Ordering::Relaxed);
                Decoded::new(body, 16)
            });
            decoded.expect("valid")
        };
        let (a, b, c) = (body(1), body(2), body(3));
        let a1 = get(&a);
        assert!(Arc::ptr_eq(&a1, &get(&a)), "same body shares one entry");
        get(&b);
        get(&a); // touch a, so b is now the oldest
        get(&c); // evicts b
        assert_eq!(decodes.load(Ordering::Relaxed), 3, "one decode per body");
        let held: Vec<Vec<u8>> = contents(&lru).into_iter().map(|(k, _)| k).collect();
        assert_eq!(held, [a.clone(), c], "LRU victim is b");
        assert!(Arc::ptr_eq(&a1, &get(&a)), "survivor keeps its warmth");
        get(&b);
        assert_eq!(
            decodes.load(Ordering::Relaxed),
            4,
            "an evicted body decodes again"
        );
    }

    #[test]
    fn cache_lru_aggregates_stats_over_live_caches() {
        let lru = DesignLru::new(4, 16);
        let x = lru.get(&body(1)).expect("valid");
        x.cache.analyze(&x.design);
        x.cache.analyze(&x.design);
        lru.get(&body(2)).expect("valid");
        let designs = lru.ready();
        let (stats, entries) = aggregate(&designs);
        assert_eq!(stats.analysis_misses, 1);
        assert_eq!(stats.analysis_hits, 1);
        assert_eq!(entries, 1);
        let rows = per_design(&designs);
        assert_eq!(rows.len(), 2);
        let x_row = (format!("{:016x}", fnv1a(&body(1))), 1, 0);
        assert!(rows.contains(&x_row), "{rows:?}");
    }

    #[test]
    fn design_lru_decodes_a_body_once_for_concurrent_requests() {
        const THREADS: usize = 8;
        let lru = DesignLru::new(4, 16);
        let decodes = AtomicUsize::new(0);
        let b = body(1);
        let decoded: Vec<Arc<Decoded>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let decoded = lru.get_with(&b, |body| {
                            decodes.fetch_add(1, Ordering::Relaxed);
                            // Finish only once every thread holds the
                            // slot (the map's reference plus one each),
                            // so they all arrive while this decode runs.
                            let waiting = || {
                                let entries = lru.lock();
                                Arc::strong_count(&entries.map[&body[..]].0)
                            };
                            let give_up = Instant::now() + Duration::from_secs(10);
                            while waiting() < THREADS + 1 && Instant::now() < give_up {
                                std::thread::yield_now();
                            }
                            Decoded::new(body, 16)
                        });
                        decoded.expect("valid")
                    })
                })
                .collect();
            let joined = threads.into_iter().map(|t| t.join());
            joined
                .collect::<Result<_, _>>()
                .expect("no thread panicked")
        });
        assert_eq!(decodes.load(Ordering::Relaxed), 1, "one decode");
        assert!(
            decoded.iter().all(|d| Arc::ptr_eq(d, &decoded[0])),
            "one entry"
        );
        assert_eq!(lru.ready().len(), 1);
    }

    #[test]
    fn design_lru_failed_decodes_leave_it_as_it_was() {
        let lru = DesignLru::new(2, 16);
        lru.get(&body(1)).expect("valid");
        lru.get(&body(2)).expect("valid");
        let before = contents(&lru);
        // Fails in `parse_spec`: a schema violation.
        let bad_spec = br#"{"processes": [{"name": "p", "latency": -1}], "channels": []}"#;
        let err = lru.get(bad_spec).map(drop).expect_err("negative latency");
        assert!(err.contains("latency"), "{err}");
        // Fails in `to_design`: a channel to an unknown process.
        let bad_design = br#"{"processes": [{"name": "p", "latency": 1}],
            "channels": [{"name": "c", "from": "p", "to": "ghost", "latency": 1}]}"#;
        let err = lru.get(bad_design).map(drop).expect_err("unknown endpoint");
        assert!(
            err.starts_with("spec error:") && err.contains("ghost"),
            "{err}"
        );
        let err = lru.get(b"\xff").map(drop).expect_err("binary");
        assert_eq!(err, "body is not UTF-8");
        assert_eq!(contents(&lru), before, "nothing added, evicted or touched");
    }

    #[test]
    fn retry_after_scales_with_backlog() {
        assert_eq!(retry_after_from(0, 0, 4), 1, "idle server says 1");
        assert_eq!(retry_after_from(1, 1, 1), 2);
        assert_eq!(retry_after_from(8, 2, 2), 5);
        assert_eq!(retry_after_from(7, 1, 2), 4, "rounds up");
        assert_eq!(retry_after_from(1000, 16, 4), 30, "clamped at 30");
        assert_eq!(retry_after_from(3, 1, 0), 4, "zero workers treated as one");
    }

    #[test]
    fn deadline_zero_means_none() {
        let req = Request {
            method: "POST".into(),
            path: "/analyze".into(),
            query: vec![("deadline_ms".into(), "0".into())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        let params = AnalysisParams::from_request(&req, "analyze", 500).expect("valid");
        assert!(params.deadline.is_none(), "explicit 0 disables the default");
    }

    #[test]
    fn bad_query_parameters_are_structured_errors() {
        let mut req = Request {
            method: "POST".into(),
            path: "/explore".into(),
            query: vec![("target".into(), "soon".into())],
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert!(AnalysisParams::from_request(&req, "explore", 0).is_err());
        req.query = vec![("target".into(), "10".into()), ("jobs".into(), "-2".into())];
        assert!(AnalysisParams::from_request(&req, "explore", 0).is_err());
        req.query = vec![("target".into(), "10".into())];
        assert!(AnalysisParams::from_request(&req, "explore", 0).is_ok());
    }

    #[test]
    fn jobs_are_clamped_to_the_host_threads() {
        let mut req = Request {
            method: "POST".into(),
            path: "/explore".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let jobs = |req: &Request| {
            AnalysisParams::from_request(req, "explore", 0)
                .map(|p| p.jobs)
                .ok()
        };
        for (asked, granted) in [
            ("1", 1),
            ("0", 0),
            ("100000", parx::max_jobs()),
            ("18446744073709551615", parx::max_jobs()),
        ] {
            req.query = vec![
                ("target".into(), "10".into()),
                ("jobs".into(), asked.into()),
            ];
            assert_eq!(jobs(&req), Some(granted), "jobs={asked}");
        }
        req.query = vec![("target".into(), "10".into())];
        assert_eq!(jobs(&req), Some(1), "default");
    }
}
