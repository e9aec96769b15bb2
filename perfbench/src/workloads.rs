//! The four closed-loop workloads: set-up (inputs, independent
//! references, daemons, warm-up) and the clients that drive them.

use crate::http::{Conn, Daemon};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

/// Every workload, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "cli-sweep-soc10k",
    "serve-sweep-mpeg2",
    "session-edit-mpeg2",
    "cluster-sweep-soc1k",
];

/// The E19 target ladder, as multiples of the ordered cycle time.
const SOC_LADDER: [f64; 12] = [
    0.5, 0.65, 0.8, 0.95, 1.1, 1.25, 1.4, 1.6, 2.0, 2.5, 3.5, 5.0,
];

/// The E13/E14 target ladder of the MPEG-2 encoder, in cycles.
const MPEG2_LADDER: [u64; 5] = [900_000, 1_200_000, 1_500_000, 1_800_000, 2_400_000];

/// The CLI's default `--jobs`.
const CLI_JOBS: usize = 1;

/// Pool threads of the single daemon (sweep and session workloads) and
/// of the cluster coordinator.
const DAEMON_WORKERS: usize = 2;

/// Client connections of the session workload.
const CONNECTIONS: usize = 2;

/// Client connections of the two daemon sweep workloads. With two
/// concurrent MPEG-2 sweeps on two vCPUs, `op_p50_ms` jumped between
/// about 35 ms, when each sweep had a core, and about 55 ms, when the
/// host gave them less; over ten runs its spread reached 0.45.
const SWEEP_CONNECTIONS: usize = 1;

/// Worker daemons behind the cluster coordinator, and the pool threads
/// of each.
const CLUSTER_WORKERS: usize = 2;
const CLUSTER_WORKER_THREADS: usize = 1;

/// The socgen seed of the soc workloads: the one `mkspec` and E19 use.
/// It is fixed because socgen instances differ a lot in exploration work.
pub const SOC_DESIGN_SEED: u64 = 42;

/// One closed-loop client: it sends its next request only after the
/// previous reply arrived.
pub trait Client: Send {
    /// Runs one operation; `true` when it succeeded and its output
    /// equals the reference built in set-up.
    fn op(&mut self, traced: bool) -> bool;
}

/// How the spec layer is reached per operation, with the spec text each
/// operation parses or sends.
pub enum SpecPath {
    /// The benchmark itself parses and builds the design, inside its own
    /// `parse` and `design` spans.
    InProcess(Arc<String>),
    /// A daemon parses the body, builds the design twice (precheck and
    /// job) and canonicalises it once per request, and once more of each
    /// per cluster subjob. The benchmark replays those calls to time them.
    Daemon(Arc<String>),
    /// No spec crosses the wire per operation.
    None,
}

/// A workload ready to measure.
pub struct Prepared {
    pub clients: Vec<Box<dyn Client>>,
    /// The daemon the clients talk to comes first (the coordinator on the
    /// cluster workload, whose `/metrics` federates the workers).
    daemons: Vec<Daemon>,
    pub spec: SpecPath,
    /// Engine-cache counters of the in-process CLI path, summed over the
    /// traced operations.
    pub cli_cache: Option<Arc<Mutex<ermes::CacheStats>>>,
    /// `--jobs` in effect and pool sizes, for the run record.
    pub env: Vec<(&'static str, String)>,
}

impl Prepared {
    /// The front daemon's Prometheus text, if the workload has daemons.
    pub fn scrape(&self) -> Option<String> {
        let daemon = self.daemons.first()?;
        let reply = crate::http::once(daemon.addr, "GET", "/metrics", "").expect("scrape /metrics");
        assert_eq!(reply.status, 200, "/metrics refused");
        Some(reply.body)
    }

    /// Stops every daemon, front first, and waits for each to drain.
    pub fn stop(self) {
        drop(self.clients);
        for daemon in self.daemons {
            daemon.stop();
        }
    }
}

/// Builds the named workload and warms it up.
///
/// # Panics
///
/// On an unknown name, or when set-up or warm-up output differs from its
/// reference (the run then prints no result).
pub fn prepare(name: &str, seed: u64) -> Prepared {
    match name {
        "cli-sweep-soc10k" => cli_sweep(),
        "serve-sweep-mpeg2" => serve_sweep(),
        "session-edit-mpeg2" => session_edit(seed),
        "cluster-sweep-soc1k" => cluster_sweep(),
        other => panic!("unknown workload {other:?}; expected one of {NAMES:?}"),
    }
}

fn warm_up(clients: &mut [Box<dyn Client>], ops: usize) {
    for client in clients.iter_mut() {
        for _ in 0..ops {
            assert!(
                client.op(false),
                "warm-up output differs from its reference"
            );
        }
    }
}

/// The socgen instance with `n` worker processes, as a design and as the
/// spec text a user would hand to `ermes`.
fn soc(n: usize) -> (ermes::Design, String) {
    let generated = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, SOC_DESIGN_SEED));
    let design = ermes::Design::new(generated.system, generated.pareto)
        .expect("socgen emits one Pareto set per process");
    let text = ermesd::SystemSpec::from_design(&design).to_json_pretty();
    (design, text)
}

/// The E19 ladder around the cycle time of `design` under Algorithm 1's
/// ordering.
fn soc_ladder(design: &ermes::Design) -> Vec<u64> {
    let mut ordered = design.clone();
    chanorder::order_channels(ordered.system())
        .ordering
        .apply_to(ordered.system_mut())
        .expect("Algorithm 1 orders fit their system");
    let base = ermes::analyze_design(&ordered)
        .cycle_time()
        .expect("generated benchmarks are live")
        .to_f64();
    SOC_LADDER
        .iter()
        .map(|f| ((base * f) as u64).max(1))
        .collect()
}

fn targets_query(targets: &[u64]) -> String {
    let list: Vec<String> = targets.iter().map(u64::to_string).collect();
    list.join(",")
}

/// `ermes sweep` output without its run-history `cache:` line, which the
/// daemon leaves out by design.
fn strip_cache_line(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("cache:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn mpeg2_spec() -> String {
    ermesd::SystemSpec::from_design(&mpeg2sys::mpeg2_design().0).to_json_pretty()
}

// ---------------------------------------------------------------- cli

struct CliSweep {
    text: Arc<String>,
    targets: Vec<u64>,
    /// The unmemoized serial front, rendered.
    expected: String,
    cache: Arc<Mutex<ermes::CacheStats>>,
}

impl Client for CliSweep {
    fn op(&mut self, traced: bool) -> bool {
        if traced {
            self.traced_op()
        } else {
            let Ok(spec) = ermes_cli::parse_spec(&self.text) else {
                return false;
            };
            let Ok(out) = ermes_cli::cmd_sweep(&spec, &self.targets, CLI_JOBS) else {
                return false;
            };
            out.strip_prefix(&self.expected)
                .is_some_and(|rest| rest.starts_with("cache:"))
        }
    }
}

impl CliSweep {
    /// `cmd_sweep` taken apart into its public steps, each in a span of
    /// the benchmark's own, with the cache made here so its counters can
    /// be read.
    fn traced_op(&mut self) -> bool {
        let _op = trace::span("op");
        let spec = {
            let _s = trace::span("parse");
            ermes_cli::parse_spec(&self.text)
        };
        let Ok(spec) = spec else { return false };
        let design = {
            let _s = trace::span("design");
            spec.to_design()
        };
        let Ok(design) = design else { return false };
        let cache = ermes::EngineCache::new();
        let report = {
            let _s = trace::span("sweep");
            let options = ermes::SweepOptions {
                jobs: CLI_JOBS,
                memoize: true,
            };
            ermes::pareto_sweep_cached(design, &self.targets, &options, &cache)
        };
        let Ok(report) = report else { return false };
        let out = {
            let _s = trace::span("render");
            ermes_cli::commands::render_sweep_front(&report.front)
        };
        let stats = cache.stats();
        let mut total = self.cache.lock().expect("cache counters poisoned");
        *total = total.merged(&stats);
        out == self.expected
    }
}

fn cli_sweep() -> Prepared {
    let (design, text) = soc(10_000);
    let targets = soc_ladder(&design);
    let reference = ermes::pareto_sweep_with(
        design,
        &targets,
        &ermes::SweepOptions {
            jobs: 1,
            memoize: false,
        },
    )
    .expect("the reference sweep succeeds");
    let cache = Arc::new(Mutex::new(ermes::CacheStats::default()));
    let text = Arc::new(text);
    // No warm-up: every operation starts from a fresh cache by design,
    // and the reference sweep has already run the same code once.
    let clients: Vec<Box<dyn Client>> = vec![Box::new(CliSweep {
        text: Arc::clone(&text),
        targets,
        expected: ermes_cli::commands::render_sweep_front(&reference.front),
        cache: Arc::clone(&cache),
    })];
    Prepared {
        clients,
        daemons: Vec::new(),
        spec: SpecPath::InProcess(text),
        cli_cache: Some(cache),
        env: vec![("jobs", CLI_JOBS.to_string())],
    }
}

// -------------------------------------------------------------- sweeps

/// A keep-alive client posting one sweep and byte-comparing the reply.
struct SweepPost {
    addr: SocketAddr,
    conn: Option<Conn>,
    path: String,
    body: Arc<String>,
    expected: Arc<String>,
}

impl Client for SweepPost {
    fn op(&mut self, traced: bool) -> bool {
        let _rtt = traced.then(|| trace::span("rtt"));
        let header = traced.then(trace_header);
        if self.conn.is_none() {
            self.conn = Conn::open(self.addr).ok();
        }
        let Some(conn) = self.conn.as_mut() else {
            return false;
        };
        match conn.send("POST", &self.path, &self.body, header.as_deref()) {
            Ok(reply) => reply.status == 200 && reply.body == *self.expected,
            Err(_) => {
                self.conn = None;
                false
            }
        }
    }
}

/// `x-ermes-trace` for the innermost open span, so the daemon's request
/// span nests under the benchmark's round-trip span.
fn trace_header() -> String {
    let ctx = trace::current_context();
    format!("{}/{}", ctx.trace_id(), ctx.parent())
}

fn sweep_clients(addr: SocketAddr, targets: &[u64], body: &Arc<String>) -> Vec<Box<dyn Client>> {
    let spec = ermes_cli::parse_spec(body).expect("the generated spec parses");
    let expected = Arc::new(strip_cache_line(
        &ermes_cli::cmd_sweep(&spec, targets, CLI_JOBS).expect("the reference sweep succeeds"),
    ));
    let path = format!("/sweep?targets={}", targets_query(targets));
    (0..SWEEP_CONNECTIONS)
        .map(|_| {
            Box::new(SweepPost {
                addr,
                conn: None,
                path: path.clone(),
                body: Arc::clone(body),
                expected: Arc::clone(&expected),
            }) as Box<dyn Client>
        })
        .collect()
}

fn serve_sweep() -> Prepared {
    let body = Arc::new(mpeg2_spec());
    let daemon = Daemon::start(ermesd::ServerConfig {
        workers: DAEMON_WORKERS,
        ..ermesd::ServerConfig::default()
    });
    let mut clients = sweep_clients(daemon.addr, &MPEG2_LADDER, &body);
    warm_up(&mut clients, 2);
    Prepared {
        clients,
        daemons: vec![daemon],
        spec: SpecPath::Daemon(body),
        cli_cache: None,
        env: vec![
            ("jobs", CLI_JOBS.to_string()),
            ("daemon_workers", DAEMON_WORKERS.to_string()),
            ("connections", SWEEP_CONNECTIONS.to_string()),
        ],
    }
}

fn cluster_sweep() -> Prepared {
    let (design, text) = soc(1_000);
    let targets = soc_ladder(&design);
    let body = Arc::new(text);
    let workers: Vec<Daemon> = (0..CLUSTER_WORKERS)
        .map(|_| {
            Daemon::start(ermesd::ServerConfig {
                workers: CLUSTER_WORKER_THREADS,
                ..ermesd::ServerConfig::default()
            })
        })
        .collect();
    let coordinator = Daemon::start(ermesd::ServerConfig {
        workers: DAEMON_WORKERS,
        cluster: Some(ermesd::ClusterConfig::new(
            workers.iter().map(|w| w.addr.to_string()).collect(),
        )),
        ..ermesd::ServerConfig::default()
    });
    let mut clients = sweep_clients(coordinator.addr, &targets, &body);
    warm_up(&mut clients, 2);
    let mut daemons = vec![coordinator];
    daemons.extend(workers);
    Prepared {
        clients,
        daemons,
        spec: SpecPath::Daemon(body),
        cli_cache: None,
        env: vec![
            ("jobs", CLI_JOBS.to_string()),
            ("coordinator_workers", DAEMON_WORKERS.to_string()),
            ("cluster_workers", CLUSTER_WORKERS.to_string()),
            ("worker_pool", CLUSTER_WORKER_THREADS.to_string()),
            ("connections", SWEEP_CONNECTIONS.to_string()),
        ],
    }
}

// ------------------------------------------------------------ session

/// One `/session` streaming a fixed cycle of reselect edits.
struct SessionEdits {
    conn: Conn,
    path: String,
    /// `(edit body, analysis expected after it)`, one full cycle: every
    /// multi-point process to point 1 in seeded order, then back to 0.
    cycle: Vec<(String, String)>,
    next: usize,
}

impl Client for SessionEdits {
    fn op(&mut self, traced: bool) -> bool {
        let _rtt = traced.then(|| trace::span("rtt"));
        let header = traced.then(trace_header);
        let (body, expected) = &self.cycle[self.next % self.cycle.len()];
        self.next += 1;
        match self.conn.send("POST", &self.path, body, header.as_deref()) {
            Ok(reply) => reply.status == 200 && reply.body == *expected,
            Err(_) => false,
        }
    }
}

fn reselect(process: &str, point: usize) -> String {
    format!(r#"{{"reselect": {{"process": "{process}", "point": {point}}}}}"#)
}

/// SplitMix64: the seeded edit order needs no RNG dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Opens a session, resets every multi-point process to point 0, and
/// precomputes the edit cycle with `cmd_analyze` of the edited spec as
/// each edit's reference.
fn open_session(addr: SocketAddr, body: &str, seed: u64) -> SessionEdits {
    let mut mirror = ermes_cli::parse_spec(body).expect("the MPEG-2 spec parses");
    let analyze =
        |spec: &ermesd::SystemSpec| ermes_cli::cmd_analyze(spec).expect("the MPEG-2 spec analyzes");
    let mut conn = Conn::open(addr).expect("connect to the daemon");
    let opened = conn
        .send("POST", "/session", body, None)
        .expect("open a session");
    assert_eq!(opened.status, 200, "session refused: {}", opened.body);
    assert_eq!(
        opened.body,
        analyze(&mirror),
        "session open differs from cmd_analyze"
    );
    let path = format!(
        "/session/{}/edit",
        opened.session.expect("x-ermes-session header")
    );

    let multi: Vec<usize> = (0..mirror.processes.len())
        .filter(|&i| {
            mirror.processes[i]
                .pareto
                .as_ref()
                .is_some_and(|p| p.len() >= 2)
        })
        .collect();
    let select = |mirror: &mut ermesd::SystemSpec, i: usize, point: usize| {
        let process = &mut mirror.processes[i];
        process.latency = process.pareto.as_ref().expect("multi-point")[point].latency;
        (reselect(&process.name, point), analyze(mirror))
    };
    for &i in &multi {
        let (edit, expected) = select(&mut mirror, i, 0);
        let reply = conn.send("POST", &path, &edit, None).expect("reset edit");
        assert!(
            reply.status == 200 && reply.body == expected,
            "reset edit differs"
        );
    }

    let mut order = multi;
    let mut rng = SplitMix(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut cycle = Vec::with_capacity(2 * order.len());
    for point in [1, 0] {
        for &i in &order {
            cycle.push(select(&mut mirror, i, point));
        }
    }
    SessionEdits {
        conn,
        path,
        cycle,
        next: 0,
    }
}

fn session_edit(seed: u64) -> Prepared {
    let body = mpeg2_spec();
    let daemon = Daemon::start(ermesd::ServerConfig {
        workers: DAEMON_WORKERS,
        ..ermesd::ServerConfig::default()
    });
    let sessions: Vec<SessionEdits> = (0..CONNECTIONS as u64)
        .map(|c| open_session(daemon.addr, &body, seed ^ (c << 32)))
        .collect();
    let cycle = sessions[0].cycle.len();
    let mut clients: Vec<Box<dyn Client>> = sessions
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn Client>)
        .collect();
    // One whole cycle each, so the measured edits start from a warm state.
    warm_up(&mut clients, cycle);
    Prepared {
        clients,
        daemons: vec![daemon],
        spec: SpecPath::None,
        cli_cache: None,
        env: vec![
            ("daemon_workers", DAEMON_WORKERS.to_string()),
            ("connections", CONNECTIONS.to_string()),
        ],
    }
}
