//! Coordinator-side cluster machinery: consistent-hash placement,
//! health-probed workers, and fault-tolerant subjob dispatch.
//!
//! A coordinator ermesd owns a set of worker ermesd addresses. Work is
//! placed on a consistent-hash **ring** (virtual nodes per worker) keyed
//! by the job's content, so the same (design, target) lands on the same
//! worker run after run — that worker's [`ermes::EngineCache`] stays
//! warm — and the death of one worker moves only that worker's keys to
//! their ring successors instead of reshuffling everything.
//!
//! Failure handling is layered:
//!
//! - a background prober polls each worker's `/healthz` and feeds a
//!   hysteresis [`parx::HealthTracker`] (Up → Suspect → Down), so one
//!   dropped packet cannot flap routing;
//! - each subjob dispatch walks the ring's replica order, skipping
//!   `Down` workers, with capped-exponential-backoff retries
//!   ([`parx::Backoff`], seeded by the placement key — deterministic);
//! - a straggling subjob is **hedged**: after `hedge_after_ms` without
//!   an answer the same request is sent to the next replica and the
//!   first response wins (safe because every response is deterministic,
//!   so duplicates are bit-identical by construction);
//! - when every worker is `Down` or every attempt failed, the caller
//!   (server layer) falls back to local in-process execution — the
//!   cluster degrades to exactly the single-node daemon.
//!
//! Chaos testing hooks in at the single point every worker exchange
//! passes through: the `cluster.request` faultpoint, whose network
//! actions (`conn.refuse`, `conn.reset`, `resp.truncate`,
//! `resp.delay(MS)`) are enacted here at the matching protocol stage.
//! Health probes bypass the faultpoint so a seeded plan's decision
//! stream is consumed by dispatches only, in dispatch order — the
//! property that makes a cluster chaos failure replayable.

use crate::http::{read_response, write_request, ClientResponse};
use crate::metrics::ClusterMetrics;
use ermes::SweepPoint;
use parx::{Backoff, Fault, HealthState, HealthTracker};
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Virtual nodes per worker: enough that keys spread evenly with a
/// handful of workers, few enough that ring construction is free.
const VNODES_PER_WORKER: usize = 128;

/// Cap on a worker response the coordinator will buffer (an explore
/// report over a large SoC; sweep-point lines are tiny).
const MAX_RESPONSE_BYTES: usize = 64 * 1024 * 1024;

/// Configuration of the coordinator's worker cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`), as given to `--workers`.
    pub workers: Vec<String>,
    /// Interval between `/healthz` probe rounds, in milliseconds.
    pub probe_interval_ms: u64,
    /// Consecutive failures before a worker turns `Suspect`.
    pub suspect_after: u32,
    /// Consecutive failures before a worker turns `Down`.
    pub down_after: u32,
    /// Consecutive successes before a demoted worker turns `Up` again.
    pub up_after: u32,
    /// Per-exchange socket timeout (connect, read, write), ms.
    pub subjob_timeout_ms: u64,
    /// Dispatch attempts per subjob before giving up (≥ 1). Attempts
    /// after the first walk to the next live ring replica.
    pub attempts: u32,
    /// Base of the capped-exponential retry backoff, ms.
    pub backoff_base_ms: u64,
    /// Cap of the retry backoff, ms.
    pub backoff_cap_ms: u64,
    /// How long to wait on a subjob before hedging it to the next
    /// replica, ms; `0` disables hedging.
    pub hedge_after_ms: u64,
}

impl ClusterConfig {
    /// Defaults tuned for LAN workers; only the address list is
    /// required.
    #[must_use]
    pub fn new(workers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            workers,
            probe_interval_ms: 200,
            suspect_after: 1,
            down_after: 3,
            up_after: 2,
            subjob_timeout_ms: 30_000,
            attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
            hedge_after_ms: 1_500,
        }
    }
}

/// Why a dispatch could not produce a worker response. Every variant is
/// an instruction to the server layer to run the job locally (degraded
/// mode) — a coordinator never surfaces cluster trouble to the client.
#[derive(Debug)]
pub(crate) enum DispatchError {
    /// Every worker is `Down`; nothing was sent.
    NoLiveWorkers,
    /// All attempts failed; carries the last failure for the log.
    Exhausted { attempts: u32, last_error: String },
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::NoLiveWorkers => write!(f, "no live workers"),
            DispatchError::Exhausted {
                attempts,
                last_error,
            } => {
                write!(f, "{attempts} attempts exhausted (last: {last_error})")
            }
        }
    }
}

struct WorkerSlot {
    addr: String,
    health: Mutex<HealthTracker>,
}

/// One request as it travels to a worker; owned so hedge threads can
/// share it. The body is the caller's buffer, shared, never copied.
struct Wire {
    method: String,
    target: String,
    headers: Vec<(&'static str, String)>,
    body: Arc<[u8]>,
}

/// Where a returned worker span tree should be stitched, shared by every
/// exchange thread of one dispatch. `settled` is claimed by the first
/// response the dispatcher would accept (a non-retryable status); that
/// exchange's tree grafts as `role=winner`, every duplicate — a hedge
/// partner or a late retry straggler — as `role=loser`. Best-effort: the
/// claim races the channel, so under a hedge tie the labels can swap.
#[derive(Clone)]
struct GraftPlan {
    ctx: trace::Context,
    settled: Arc<AtomicBool>,
}

/// The coordinator's view of its worker fleet.
pub(crate) struct Cluster {
    config: ClusterConfig,
    workers: Vec<WorkerSlot>,
    /// Sorted `(vnode hash, worker index)` pairs.
    ring: Vec<(u64, usize)>,
    pub(crate) metrics: ClusterMetrics,
    stop: AtomicBool,
    prober: Mutex<Option<JoinHandle<()>>>,
}

impl Cluster {
    /// Builds the ring and starts the background health prober.
    pub(crate) fn start(config: ClusterConfig) -> Arc<Cluster> {
        let workers: Vec<WorkerSlot> = config
            .workers
            .iter()
            .map(|addr| WorkerSlot {
                addr: addr.clone(),
                health: Mutex::new(HealthTracker::new(
                    config.suspect_after,
                    config.down_after,
                    config.up_after,
                )),
            })
            .collect();
        let mut ring: Vec<(u64, usize)> = (0..workers.len())
            .flat_map(|w| {
                let addr = workers[w].addr.clone();
                (0..VNODES_PER_WORKER)
                    .map(move |v| (mix64(fnv1a(format!("{addr}#{v}").as_bytes())), w))
            })
            .collect();
        ring.sort_unstable();
        let cluster = Arc::new(Cluster {
            config,
            workers,
            ring,
            metrics: ClusterMetrics::default(),
            stop: AtomicBool::new(false),
            prober: Mutex::new(None),
        });
        if !cluster.workers.is_empty() {
            let for_probe = Arc::clone(&cluster);
            let handle = std::thread::Builder::new()
                .name("ermesd-prober".into())
                .spawn(move || probe_loop(&for_probe))
                .expect("spawn prober thread");
            *cluster.prober.lock().expect("prober slot poisoned") = Some(handle);
        }
        cluster
    }

    /// Stops and joins the prober. Called at drain, after in-flight
    /// forwarded subjobs have finished.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.prober.lock().expect("prober slot poisoned").take() {
            let _ = handle.join();
        }
    }

    /// `(address, health state)` per worker, in configuration order.
    pub(crate) fn worker_states(&self) -> Vec<(&str, HealthState)> {
        self.workers
            .iter()
            .map(|w| {
                (
                    w.addr.as_str(),
                    w.health.lock().expect("health poisoned").state(),
                )
            })
            .collect()
    }

    fn state_of(&self, w: usize) -> HealthState {
        self.workers[w]
            .health
            .lock()
            .expect("health poisoned")
            .state()
    }

    fn record_outcome(&self, w: usize, ok: bool) {
        let mut health = self.workers[w].health.lock().expect("health poisoned");
        if ok {
            health.record_success();
        } else {
            health.record_failure();
        }
    }

    /// Distinct workers in ring order starting at `key`'s successor.
    /// All workers appear (health is applied at dispatch time, so a
    /// recovered worker reclaims its keys automatically). The key is
    /// scrambled through [`mix64`] first so placement stays uniform even
    /// for keys whose raw bits are clustered.
    pub(crate) fn replicas(&self, key: u64) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.workers.len());
        if self.ring.is_empty() {
            return order;
        }
        let key = mix64(key);
        let start = self.ring.partition_point(|&(h, _)| h < key);
        for i in 0..self.ring.len() {
            let (_, w) = self.ring[(start + i) % self.ring.len()];
            if !order.contains(&w) {
                order.push(w);
                if order.len() == self.workers.len() {
                    break;
                }
            }
        }
        order
    }

    /// Sends one subjob to the ring, with retries and hedging. Returns
    /// the first complete worker response (any status — the caller
    /// decides which statuses to relay and which to retry locally).
    ///
    /// Retries here cover *transport* failures; HTTP-level shedding
    /// (429/503) and panic isolation (500) also count as retryable
    /// because a replica or a later attempt can serve the same bytes —
    /// determinism makes re-dispatch free of split-brain concerns.
    pub(crate) fn dispatch(
        self: &Arc<Self>,
        key: u64,
        method: &str,
        target: &str,
        body: &Arc<[u8]>,
    ) -> Result<ClientResponse, DispatchError> {
        let _dispatch_span = trace::span("dispatch");
        trace::attr("target", target);
        let order = self.replicas(key);
        if order.is_empty() {
            trace::attr("outcome", "no_live_workers");
            return Err(DispatchError::NoLiveWorkers);
        }
        let mut headers: Vec<(&'static str, String)> = Vec::new();
        let ctx = trace::current_context();
        if ctx.is_active() {
            headers.push((
                "x-ermes-trace",
                format!("{}/{}", ctx.trace_id(), ctx.parent()),
            ));
            // Ask the worker to append its span tree to the response so
            // it can be stitched under this dispatch span. Only traced
            // coordinator requests carry this, so direct clients keep
            // byte-identical bodies.
            headers.push(("x-ermes-trace-tree", "1".to_string()));
        }
        let graft = GraftPlan {
            ctx,
            settled: Arc::new(AtomicBool::new(false)),
        };
        let wire = Arc::new(Wire {
            method: method.to_string(),
            target: target.to_string(),
            headers,
            body: Arc::clone(body),
        });
        let mut backoff =
            Backoff::new(self.config.backoff_base_ms, self.config.backoff_cap_ms, key);
        let mut last_error = String::new();
        let attempts = self.config.attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.metrics.record_retry();
                // A request that needed a retry is worth keeping whole.
                trace::flight::flag(ctx.trace_id(), "retried");
                std::thread::sleep(backoff.delay(attempt - 1));
            }
            let live: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&w| self.state_of(w) != HealthState::Down)
                .collect();
            if live.is_empty() {
                trace::attr("outcome", "no_live_workers");
                return Err(DispatchError::NoLiveWorkers);
            }
            let primary = live[attempt as usize % live.len()];
            let hedge = (live.len() > 1 && self.config.hedge_after_ms > 0)
                .then(|| live[(attempt as usize + 1) % live.len()]);
            self.metrics.record_subjob();
            match self.exchange_hedged(primary, hedge, &wire, &graft) {
                Ok(response) if retryable_status(response.status) => {
                    last_error = format!(
                        "worker returned {} ({})",
                        response.status,
                        String::from_utf8_lossy(&response.body).trim()
                    );
                }
                Ok(response) => {
                    trace::attr("outcome", "ok");
                    trace::attr("attempts", attempt + 1);
                    return Ok(response);
                }
                Err(e) => last_error = e.to_string(),
            }
        }
        trace::attr("outcome", "exhausted");
        Err(DispatchError::Exhausted {
            attempts,
            last_error,
        })
    }

    /// One exchange with `primary`, hedged to `hedge` if no answer
    /// arrives within `hedge_after_ms`. First completed response wins;
    /// each worker's health is credited/debited individually.
    fn exchange_hedged(
        self: &Arc<Self>,
        primary: usize,
        hedge: Option<usize>,
        wire: &Arc<Wire>,
        graft: &GraftPlan,
    ) -> std::io::Result<ClientResponse> {
        let (tx, rx) = mpsc::channel();
        self.spawn_exchange(primary, wire, tx.clone(), graft);
        let mut outstanding = 1u32;
        let budget = Duration::from_millis(self.config.subjob_timeout_ms.max(1));
        let mut first_result = match hedge {
            None => None,
            Some(h) => match rx.recv_timeout(Duration::from_millis(self.config.hedge_after_ms)) {
                Ok(result) => Some(result),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    self.metrics.record_hedge();
                    trace::attr("hedged", 1);
                    self.spawn_exchange(h, wire, tx.clone(), graft);
                    outstanding += 1;
                    None
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("tx is still alive in this scope")
                }
            },
        };
        drop(tx);
        loop {
            let result = match first_result.take() {
                Some(result) => result,
                None => match rx.recv_timeout(budget) {
                    Ok(result) => result,
                    Err(_) => {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "subjob timed out on every in-flight worker",
                        ))
                    }
                },
            };
            outstanding -= 1;
            match result {
                Ok(response) => return Ok(response),
                Err(e) if outstanding == 0 => return Err(e),
                Err(_) => {} // the hedge partner is still running
            }
        }
    }

    fn spawn_exchange(
        self: &Arc<Self>,
        worker: usize,
        wire: &Arc<Wire>,
        tx: mpsc::Sender<std::io::Result<ClientResponse>>,
        graft: &GraftPlan,
    ) {
        let cluster = Arc::clone(self);
        let wire = Arc::clone(wire);
        let graft = graft.clone();
        std::thread::spawn(move || {
            let _adopted = trace::adopt(graft.ctx);
            let timeout = Duration::from_millis(cluster.config.subjob_timeout_ms.max(1));
            // Send/recv stamps on *this* clock bracket the exchange: they
            // are the Cristian window the worker's tree is aligned into.
            let send_ns = trace::now_ns();
            let mut result = send_once(&cluster.workers[worker].addr, &wire, timeout);
            let recv_ns = trace::now_ns();
            // Transport outcome feeds health; an HTTP error status is
            // still a live worker.
            cluster.record_outcome(worker, result.is_ok());
            if let Ok(response) = &mut result {
                // Strip unconditionally: the caller (and the client) must
                // see exactly the bytes a direct worker hit would return.
                let tree_text = strip_tree_trailer(&mut response.body);
                let accepted = !retryable_status(response.status)
                    && graft
                        .settled
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                if let Some(text) = tree_text {
                    if let Ok(tree) = trace::SpanTree::from_wire(&text) {
                        let role = if accepted { "winner" } else { "loser" };
                        trace::graft_tree(
                            &tree,
                            graft.ctx,
                            (send_ns, recv_ns),
                            &cluster.workers[worker].addr,
                            &[("role", role)],
                        );
                    }
                }
            }
            let _ = tx.send(result);
        });
    }

    /// Fetches `/metrics` from every worker not currently `Down`, for
    /// federation into the coordinator's exposition. Scrapes ride the
    /// probe path — no `cluster.request` faultpoint — so a seeded chaos
    /// plan's decision stream is still consumed by dispatches only, but
    /// their transport outcomes feed the same health tracker dispatch
    /// routes by.
    pub(crate) fn scrape_worker_metrics(&self) -> Vec<(String, String)> {
        let timeout = Duration::from_millis(self.config.subjob_timeout_ms.clamp(1, 2_000));
        let mut scraped = Vec::new();
        for w in 0..self.workers.len() {
            if self.state_of(w) == HealthState::Down {
                continue;
            }
            let addr = self.workers[w].addr.clone();
            match fetch_text(&addr, "/metrics", timeout) {
                Some(text) => {
                    self.record_outcome(w, true);
                    scraped.push((addr, text));
                }
                None => self.record_outcome(w, false),
            }
        }
        scraped
    }
}

/// Splits a worker response body at the trace-tree trailer, if present:
/// returns the wire document and truncates the body back to the exact
/// bytes a direct client would have received.
fn strip_tree_trailer(body: &mut Vec<u8>) -> Option<String> {
    let marker = trace::TRAILER_MARKER.as_bytes();
    let pos = body
        .windows(marker.len())
        .rposition(|window| window == marker)?;
    let tree = String::from_utf8_lossy(&body[pos + marker.len()..]).into_owned();
    body.truncate(pos);
    Some(tree)
}

/// Statuses worth retrying on another replica: shed (429), draining
/// (503), and an isolated worker-side panic (500). Anything else is a
/// deterministic verdict on the request itself (400/404/405/413/422) or
/// a success, and must be relayed verbatim for bit-identity.
fn retryable_status(status: u16) -> bool {
    matches!(status, 429 | 500 | 503)
}

/// One complete HTTP exchange with a worker, with the `cluster.request`
/// faultpoint enacted at the matching protocol stage.
fn send_once(addr: &str, wire: &Wire, timeout: Duration) -> std::io::Result<ClientResponse> {
    let fault = parx::faultpoint::hit("cluster.request");
    if fault == Fault::ConnRefuse {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            "faultpoint `cluster.request`: injected connection refusal",
        ));
    }
    let sock_addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("worker address `{addr}` did not resolve"),
        )
    })?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    {
        let mut writer = BufWriter::new(&stream);
        write_request(
            &mut writer,
            &wire.method,
            &wire.target,
            &wire.headers,
            &wire.body,
        )?;
    }
    if fault == Fault::ConnReset {
        let _ = stream.shutdown(std::net::Shutdown::Both);
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionReset,
            "faultpoint `cluster.request`: injected connection reset",
        ));
    }
    if let Fault::RespDelay(millis) = fault {
        // The straggler case: the response exists but is slow — this is
        // what the hedge timer races against.
        std::thread::sleep(Duration::from_millis(millis));
    }
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader, MAX_RESPONSE_BYTES)?;
    if fault == Fault::RespTruncate {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "faultpoint `cluster.request`: injected response truncation",
        ));
    }
    Ok(response)
}

/// `/healthz` probe round for every worker. Probes bypass the
/// faultpoint registry (see module docs) and only drive health state.
fn probe_loop(cluster: &Arc<Cluster>) {
    let interval = Duration::from_millis(cluster.config.probe_interval_ms.max(10));
    let timeout = interval.min(Duration::from_millis(1_000));
    while !cluster.stop.load(Ordering::Acquire) {
        for w in 0..cluster.workers.len() {
            if cluster.stop.load(Ordering::Acquire) {
                return;
            }
            let healthy = probe_once(&cluster.workers[w].addr, timeout);
            if !healthy {
                cluster.metrics.record_probe_failure();
            }
            cluster.record_outcome(w, healthy);
        }
        // Sleep in short slices so stop() returns promptly.
        let mut remaining = interval;
        while !remaining.is_zero() && !cluster.stop.load(Ordering::Acquire) {
            let slice = remaining.min(Duration::from_millis(20));
            std::thread::sleep(slice);
            remaining -= slice;
        }
    }
}

/// One plain GET on the probe path (no faultpoint): the body as text on
/// a 200, `None` on any transport or HTTP failure.
fn fetch_text(addr: &str, target: &str, timeout: Duration) -> Option<String> {
    let sock_addr = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&sock_addr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    {
        let mut writer = BufWriter::new(&stream);
        write_request(&mut writer, "GET", target, &[], b"").ok()?;
    }
    let mut reader = BufReader::new(&stream);
    let response = read_response(&mut reader, 4 * 1024 * 1024).ok()?;
    (response.status == 200).then(|| String::from_utf8_lossy(&response.body).into_owned())
}

/// One probe: healthy iff `/healthz` answers 200 with first line `ok`.
fn probe_once(addr: &str, timeout: Duration) -> bool {
    let Ok(mut it) = addr.to_socket_addrs() else {
        return false;
    };
    let Some(sock_addr) = it.next() else {
        return false;
    };
    let Ok(stream) = TcpStream::connect_timeout(&sock_addr, timeout) else {
        return false;
    };
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
    {
        return false;
    }
    {
        let mut writer = BufWriter::new(&stream);
        if write_request(&mut writer, "GET", "/healthz", &[], b"").is_err() {
            return false;
        }
    }
    let mut reader = BufReader::new(&stream);
    match read_response(&mut reader, 64 * 1024) {
        Ok(response) => {
            response.status == 200
                && String::from_utf8_lossy(&response.body)
                    .lines()
                    .next()
                    .is_some_and(|line| line == "ok")
        }
        Err(_) => false,
    }
}

/// FNV-1a over raw bytes — placement keys and vnode hashes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64 finalizer. FNV-1a of short, similar strings (worker
/// addresses differing in one digit) leaves its high bits correlated,
/// which bunches vnodes on the ring; this scrambles them so the ring
/// arcs come out even.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Placement key for a subjob: `body_hash`, the FNV-1a hash of the
/// forwarded spec body (the key of the worker's design LRU, so covering
/// design, selections and orderings), combined with the target, so each
/// ladder entry of one design spreads over the ring while repeat sweeps
/// of the same body land on warm caches. A canonical body hashes like
/// the canonical spec JSON it is.
pub(crate) fn shard_key(body_hash: u64, target: u64) -> u64 {
    body_hash ^ target.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Parses the `x-ermes-trace: trace_id/span_id` header a coordinator
/// attaches to forwarded subjobs. Anything unparsable yields the
/// inactive context (adopting it is a no-op) — but a header that was
/// *present* and malformed is counted in
/// `ermes_trace_header_invalid_total`, because it means a peer thinks it
/// is propagating a trace and silently is not.
pub(crate) fn parse_trace_header(value: Option<&str>) -> trace::Context {
    let Some(value) = value else {
        return trace::Context::none();
    };
    let parsed = value.split_once('/').and_then(|(trace_id, parent)| {
        match (trace_id.trim().parse(), parent.trim().parse()) {
            (Ok(t), Ok(p)) => Some(trace::Context::from_parts(t, p)),
            _ => None,
        }
    });
    parsed.unwrap_or_else(|| {
        crate::metrics::record_trace_header_invalid();
        trace::Context::none()
    })
}

/// Exact wire form of one sweep point, as returned by a worker's
/// `/shard/sweeppoint`: `point TARGET NUM/DEN AREA_BITS MEETS`.
///
/// The cycle time travels as its exact rational and the area as the hex
/// of its IEEE-754 bits — the rendered table (`{:>11.4}`) would lose
/// precision, and the coordinator must reassemble *values*, then render
/// once through the shared renderer, to stay bit-identical with a
/// single-node sweep.
pub(crate) fn render_point_wire(point: &SweepPoint) -> String {
    format!(
        "point {} {}/{} {:016x} {}\n",
        point.target_cycle_time,
        point.cycle_time.numer(),
        point.cycle_time.denom(),
        point.area.to_bits(),
        u8::from(point.meets_target),
    )
}

/// Inverse of [`render_point_wire`]; `None` on any malformation (the
/// dispatcher then treats the response as a transport failure).
pub(crate) fn parse_point_wire(text: &str) -> Option<SweepPoint> {
    let line = text.lines().next()?;
    let mut fields = line.split(' ');
    if fields.next()? != "point" {
        return None;
    }
    let target_cycle_time = fields.next()?.parse().ok()?;
    let (num, den) = fields.next()?.split_once('/')?;
    let (num, den): (i64, i64) = (num.parse().ok()?, den.parse().ok()?);
    if den <= 0 || num < 0 {
        return None;
    }
    let area_bits = u64::from_str_radix(fields.next()?, 16).ok()?;
    let meets = fields.next()?;
    if fields.next().is_some() {
        return None;
    }
    Some(SweepPoint {
        target_cycle_time,
        cycle_time: tmg::Ratio::new(num, den),
        area: f64::from_bits(area_bits),
        meets_target: match meets {
            "1" => true,
            "0" => false,
            _ => return None,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cluster(n: usize) -> Arc<Cluster> {
        // Unroutable TEST-NET addresses: the prober records failures
        // but nothing is dispatched in these unit tests.
        let mut config =
            ClusterConfig::new((0..n).map(|i| format!("192.0.2.{}:7878", i + 1)).collect());
        config.probe_interval_ms = 3_600_000; // effectively off
        Cluster::start(config)
    }

    #[test]
    fn replicas_cover_all_workers_without_duplicates() {
        let cluster = test_cluster(4);
        for key in [0, 1, u64::MAX / 2, u64::MAX, fnv1a(b"spec")] {
            let order = cluster.replicas(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "key {key}: {order:?}");
        }
        cluster.stop();
    }

    #[test]
    fn ring_spreads_keys_and_death_moves_only_the_dead_workers_keys() {
        let cluster = test_cluster(4);
        let mut owned = [0usize; 4];
        let mut moved = 0usize;
        for i in 0..4096u64 {
            let key = fnv1a(format!("job-{i}").as_bytes());
            let order = cluster.replicas(key);
            owned[order[0]] += 1;
            // Simulate worker 2 dying: dispatch filters it out; the key's
            // owner must stay put unless it *was* worker 2.
            let survivor = *order.iter().find(|&&w| w != 2).expect("3 survivors");
            if order[0] != 2 {
                assert_eq!(survivor, order[0], "key {key} moved needlessly");
            } else {
                moved += 1;
            }
        }
        for (w, count) in owned.iter().enumerate() {
            assert!(
                (512..=1536).contains(count),
                "worker {w} owns {count}/4096 keys — ring is unbalanced: {owned:?}"
            );
        }
        assert!(moved > 0, "worker 2 owned nothing?");
        cluster.stop();
    }

    #[test]
    fn same_key_same_owner_across_cluster_instances() {
        let a = test_cluster(3);
        let b = test_cluster(3);
        for i in 0..64u64 {
            let key = fnv1a(format!("k{i}").as_bytes());
            assert_eq!(a.replicas(key), b.replicas(key));
        }
        a.stop();
        b.stop();
    }

    #[test]
    fn point_wire_round_trips_exactly() {
        let point = SweepPoint {
            target_cycle_time: 1_200_000,
            cycle_time: tmg::Ratio::new(7_919, 3),
            area: 0.1 + 0.2, // a value whose decimal rendering lies
            meets_target: true,
        };
        let wire = render_point_wire(&point);
        let back = parse_point_wire(&wire).expect("parses");
        assert_eq!(back, point);
        assert_eq!(back.area.to_bits(), point.area.to_bits(), "exact bits");
    }

    #[test]
    fn malformed_point_wire_is_rejected() {
        for bad in [
            "",
            "point",
            "pt 1 1/1 0 1",
            "point x 1/1 0000000000000000 1",
            "point 1 1 0000000000000000 1",
            "point 1 1/0 0000000000000000 1",
            "point 1 -1/2 0000000000000000 1",
            "point 1 1/1 zz 1",
            "point 1 1/1 0000000000000000 2",
            "point 1 1/1 0000000000000000 1 extra",
        ] {
            assert!(parse_point_wire(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn trace_header_parses_or_falls_back_to_inactive() {
        let ctx = parse_trace_header(Some("12/34"));
        assert_eq!(ctx.trace_id(), 12);
        assert_eq!(ctx.parent(), 34);
        for bad in [None, Some(""), Some("12"), Some("a/b"), Some("12/")] {
            assert!(!parse_trace_header(bad).is_active(), "{bad:?}");
        }
    }

    #[test]
    fn malformed_trace_headers_are_counted_absent_and_valid_ones_are_not() {
        let before = crate::metrics::trace_header_invalid_total();
        let malformed = [
            Some(""),
            Some("12"),
            Some("a/b"),
            Some("12/"),
            Some("/34"),
            Some("12/34/56"),
            Some("0x1/2"),
            Some(" / "),
        ];
        for bad in malformed {
            assert!(!parse_trace_header(bad).is_active(), "{bad:?}");
        }
        // An absent header and a well-formed one are not "invalid".
        let _ = parse_trace_header(None);
        let _ = parse_trace_header(Some("12/34"));
        let counted = crate::metrics::trace_header_invalid_total() - before;
        // `>=` because the counter is process-global and other tests may
        // run concurrently; every malformed case above must have landed.
        assert!(
            counted >= malformed.len() as u64,
            "counted {counted} invalid headers, expected at least {}",
            malformed.len()
        );
    }

    mod trace_headers {
        //! `x-ermes-trace` under hostile input: no header value may
        //! panic the parser; `u64/u64` pairs (each half trimmed) parse to
        //! their numbers, and anything else is the inactive context and
        //! one more `ermes_trace_header_invalid_total`.
        use super::parse_trace_header;
        use crate::metrics::trace_header_invalid_total;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// Characters that reach every branch of the parser.
        const NASTY: [char; 12] = ['0', '7', '9', '/', ' ', '\t', '+', '-', 'x', '.', 'é', '\n'];

        /// The oracle: a header is valid iff it splits at its first `/`
        /// into two halves that, trimmed, are `u64`s.
        fn expected(text: &str) -> Option<(u64, u64)> {
            let (t, p) = text.split_once('/')?;
            Some((t.trim().parse().ok()?, p.trim().parse().ok()?))
        }

        fn check(text: &str) -> Result<(), TestCaseError> {
            let before = trace_header_invalid_total();
            let ctx = parse_trace_header(Some(text));
            match expected(text) {
                Some((t, p)) => {
                    prop_assert_eq!((ctx.trace_id(), ctx.parent()), (t, p), "{:?}", text);
                }
                None => {
                    prop_assert_eq!(ctx, trace::Context::none(), "{:?}", text);
                    // `>`: the counter is process-global and only grows.
                    prop_assert!(
                        trace_header_invalid_total() > before,
                        "{:?} not counted",
                        text
                    );
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_headers_never_panic(bytes in vec(any::<u8>(), 0..48)) {
                check(&String::from_utf8_lossy(&bytes))?;
            }

            #[test]
            fn near_miss_headers_never_panic(picks in vec(0usize..NASTY.len(), 0..24)) {
                check(&picks.iter().map(|&i| NASTY[i]).collect::<String>())?;
            }

            #[test]
            fn valid_pairs_parse(t in any::<u64>(), p in any::<u64>(), pad in 0usize..3) {
                let space = " ".repeat(pad);
                let text = format!("{space}{t}{space}/{space}{p}{space}");
                let ctx = parse_trace_header(Some(&text));
                prop_assert_eq!((ctx.trace_id(), ctx.parent()), (t, p));
            }

            #[test]
            fn mutated_pairs_never_panic(
                t in any::<u64>(),
                p in any::<u64>(),
                at in 0usize..48,
                pick in 0usize..NASTY.len(),
                insert in any::<bool>(),
            ) {
                let mut chars: Vec<char> = format!("{t}/{p}").chars().collect();
                let at = at % (chars.len() + 1);
                if insert || at == chars.len() {
                    chars.insert(at, NASTY[pick]);
                } else {
                    chars[at] = NASTY[pick];
                }
                check(&chars.into_iter().collect::<String>())?;
            }
        }
    }

    #[test]
    fn tree_trailer_strips_back_to_client_bytes() {
        let original = b"point 1000 3/2 3fe0000000000000 1\n".to_vec();
        let mut with_tree = original.clone();
        with_tree.extend_from_slice(trace::TRAILER_MARKER.as_bytes());
        with_tree.extend_from_slice(b"ermes-trace/1 1\n7 0 1 0 10 request\n");
        let tree = strip_tree_trailer(&mut with_tree).expect("trailer found");
        assert_eq!(with_tree, original, "body restored to client bytes");
        let parsed = trace::SpanTree::from_wire(&tree).expect("wire parses");
        assert_eq!(parsed.record.name, "request");
        // A body without a trailer is left untouched.
        let mut plain = original.clone();
        assert!(strip_tree_trailer(&mut plain).is_none());
        assert_eq!(plain, original);
    }

    #[test]
    fn shard_key_separates_targets_and_designs() {
        let (spec_a, spec_b) = (fnv1a(b"{spec-a}"), fnv1a(b"{spec-b}"));
        let a = shard_key(spec_a, 1000);
        assert_eq!(a, shard_key(spec_a, 1000), "stable");
        assert_ne!(a, shard_key(spec_a, 2000));
        assert_ne!(a, shard_key(spec_b, 1000));
    }

    #[test]
    fn retryable_statuses_are_the_transient_ones() {
        for status in [429, 500, 503] {
            assert!(retryable_status(status), "{status}");
        }
        for status in [200, 400, 404, 405, 413, 422, 499] {
            assert!(!retryable_status(status), "{status}");
        }
    }
}
