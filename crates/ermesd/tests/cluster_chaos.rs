//! Chaos tests of the coordinator/worker cluster: a worker killed
//! mid-sweep, a fleet that is entirely unreachable, drain under load,
//! and seeded network faults on the coordinator's client path. The
//! invariant under every failure is the same: a `200` response is
//! bit-identical to what a single-node daemon would have produced.

use ermesd::json::{self, Value};
use ermesd::{ClusterConfig, Server, ServerConfig, SystemSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

/// Serializes the tests in this binary: they are CPU-heavy (real sweeps
/// on real sockets) and one of them flips the process-global faultpoint
/// plan.
static GATE: Mutex<()> = Mutex::new(());

fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Cluster settings tuned for tests: fast probes, fast retries, long
/// subjob timeout (debug-build sweeps are slow).
fn test_cluster(worker_addrs: Vec<String>) -> ClusterConfig {
    let mut config = ClusterConfig::new(worker_addrs);
    config.probe_interval_ms = 50;
    config.suspect_after = 1;
    config.down_after = 2;
    config.up_after = 2;
    config.subjob_timeout_ms = 120_000;
    config.backoff_base_ms = 1;
    config.backoff_cap_ms = 20;
    config
}

/// One-shot request on its own connection; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("server reachable");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    stream.flush().expect("flushed");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line `{status_line}`"));
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric content-length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("complete body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    request(addr, "POST", path, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, "GET", path, "")
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let (status, _) = post(addr, "/shutdown", "");
    assert_eq!(status, 200);
    handle.join().expect("server thread").expect("clean drain");
}

fn metric_value(metrics: &str, line_prefix: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric `{line_prefix}` missing in:\n{metrics}"))
}

fn soc_spec(processes: usize, seed: u64) -> String {
    let soc = socgen::generate(socgen::SocGenConfig::sized(
        processes,
        processes * 3 / 2,
        seed,
    ));
    let design = ermes::Design::new(soc.system, soc.pareto).expect("well-formed");
    SystemSpec::from_design(&design).to_json_pretty()
}

/// `json` without the whitespace outside its string literals.
fn compact_json(json: &str) -> String {
    let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
    for c in json.chars() {
        if in_string {
            in_string = escaped || c != '"';
            escaped = !escaped && c == '\\';
        } else if c.is_whitespace() {
            continue;
        } else {
            in_string = c == '"';
        }
        out.push(c);
    }
    out
}

/// What a single-node daemon answers for this sweep — the reference
/// bytes every clustered response must reproduce exactly.
fn single_node_sweep(path: &str, spec: &str) -> String {
    let (addr, handle) = start(ServerConfig::default());
    let (status, body) = post(addr, path, spec);
    assert_eq!(status, 200, "{body}");
    shutdown(addr, handle);
    body
}

/// A real worker daemon in a child process (so it can be SIGKILLed),
/// bound to an ephemeral port parsed from its startup banner. The
/// returned reader keeps the stdout pipe open — dropping it would make
/// the daemon's shutdown banner a fatal broken pipe.
fn spawn_worker_process() -> (Child, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ermesd"))
        .args(["--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn worker daemon");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut banner = String::new();
    reader.read_line(&mut banner).expect("startup banner");
    let addr = banner
        .trim()
        .rsplit("http://")
        .next()
        .expect("banner has address")
        .to_string();
    (child, addr, reader)
}

/// An in-process worker daemon, for tests that do not need to kill one.
fn spawn_worker_inprocess() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
}

const SWEEP: &str = "/sweep?targets=1,10,100,1000,10000,100000,1000000,10000000";

/// Recursively check one span-tree node from `GET /trace` JSON: spans
/// end after they start and stay inside their parent's interval — the
/// graft's clock-alignment guarantee — except across the boundary of a
/// `role: loser` subtree (a hedge duplicate or late retry straggler may
/// graft after its parent dispatch span closed). Collects grafted
/// `host` attributes and counts `dispatch` spans, each of which must
/// carry an `outcome` attribute on every exit path.
fn check_tree_node(
    node: &Value,
    parent: Option<(u64, u64)>,
    hosts: &mut Vec<String>,
    dispatch_spans: &mut usize,
) {
    let bound = |key: &str| {
        node.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("span misses `{key}`"))
    };
    let (start, end) = (bound("start_ns"), bound("end_ns"));
    assert!(start <= end, "span ends before it starts");
    let attr = |key: &str| {
        node.get("attrs")
            .and_then(|a| a.get(key))
            .and_then(Value::as_str)
    };
    if let Some((ps, pe)) = parent {
        if attr("role") != Some("loser") {
            assert!(
                ps <= start && end <= pe,
                "span [{start}, {end}] escapes its parent's interval [{ps}, {pe}]"
            );
        }
    }
    if let Some(host) = attr("host") {
        hosts.push(host.to_string());
    }
    if node.get("name").and_then(Value::as_str) == Some("dispatch") {
        assert!(
            attr("outcome").is_some(),
            "every dispatch span records an outcome"
        );
        *dispatch_spans += 1;
    }
    if let Some(children) = node.get("children").and_then(Value::as_array) {
        for child in children {
            check_tree_node(child, Some((start, end)), hosts, dispatch_spans);
        }
    }
}

/// Fetch and structurally validate every tree on a coordinator's
/// `GET /trace`; returns the grafted hosts and dispatch-span count.
fn check_coordinator_trace(coord: SocketAddr) -> (Vec<String>, usize) {
    let (status, body) = get(coord, "/trace?n=64");
    assert_eq!(status, 200);
    let root = json::parse(&body).expect("trace JSON parses");
    let trees = root.as_array().expect("trace is an array of trees");
    let mut hosts = Vec::new();
    let mut dispatch_spans = 0;
    for tree in trees {
        check_tree_node(tree, None, &mut hosts, &mut dispatch_spans);
    }
    (hosts, dispatch_spans)
}

/// Acceptance gate: SIGKILL one of two workers mid-sweep; the in-flight
/// sweep completes `200` with bytes identical to a single-node daemon
/// (subjobs on the dead worker are retried onto the survivor), and so
/// does a fresh sweep issued after the kill.
#[test]
fn mid_sweep_worker_kill_completes_bit_identically() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = soc_spec(1_200, 3);
    let expected = single_node_sweep(SWEEP, &spec);

    let (mut victim, victim_addr, _victim_out) = spawn_worker_process();
    let (mut survivor, survivor_addr, _survivor_out) = spawn_worker_process();
    let (coord, coord_handle) = start(ServerConfig {
        cluster: Some(test_cluster(vec![victim_addr, survivor_addr.clone()])),
        ..ServerConfig::default()
    });
    // The span journal is process-global, and earlier tests in this
    // binary ran *in-process* worker fleets: their worker-side spans
    // land raw in this same journal and may outlive their dispatch
    // parents (a hedge or retry settles first). This test's fleet is
    // out-of-process — clear the journal so `/trace` holds exactly the
    // trees stitched here.
    trace::reset();

    let spec_for_client = spec.clone();
    let in_flight = std::thread::spawn(move || post(coord, SWEEP, &spec_for_client));
    std::thread::sleep(Duration::from_millis(300));
    victim.kill().expect("SIGKILL victim worker");
    let (status, body) = in_flight.join().expect("client thread");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "mid-kill sweep must stay bit-identical");

    // A sweep that *starts* with the worker already dead: dispatch sees
    // the failure (or the prober has marked it Down) and the survivor
    // serves everything.
    let (status, body) = post(coord, SWEEP, &spec);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, expected, "post-kill sweep must stay bit-identical");
    let (_, metrics) = get(coord, "/metrics");
    assert!(
        metric_value(&metrics, "ermes_cluster_subjobs_total") > 0,
        "sweeps were fanned out:\n{metrics}"
    );
    // Metrics federation: the surviving worker is Up, so its samples
    // appear under a `node` label; the dead one is skipped, not hung on.
    assert!(
        metrics.contains(&format!("node=\"{survivor_addr}\"")),
        "survivor's metrics federated under its node label:\n{metrics}"
    );

    // The stitched trace survives the kill truncated but well-formed:
    // every tree on `/trace` passes the structural checks (monotonic,
    // parent-contained after clock alignment), dispatch spans carry
    // outcome attributes, and the survivor's subjob subtrees were
    // grafted with its host attribute. The victim's subtrees may or may
    // not be present depending on how far it got before the kill.
    let (hosts, dispatch_spans) = check_coordinator_trace(coord);
    assert!(dispatch_spans > 0, "dispatch spans recorded");
    assert!(
        hosts.iter().any(|h| h == &survivor_addr),
        "survivor {survivor_addr} grafted into the coordinator trace (saw {hosts:?})"
    );

    // Tail sampling: a request whose subjobs were retried (onto the
    // survivor) or recomputed degraded is exactly what the flight
    // recorder keeps.
    let (status, slow) = get(coord, "/trace/slow");
    assert_eq!(status, 200);
    assert!(
        slow.contains("\"reason\":\"retried\"") || slow.contains("\"reason\":\"degraded\""),
        "the mid-kill sweep is retained by the flight recorder:\n{slow}"
    );

    shutdown(coord, coord_handle);
    let _ = victim.wait();
    let survivor_sock: SocketAddr = survivor_addr.parse().expect("worker address parses");
    let (status, _) = post(survivor_sock, "/shutdown", "");
    assert_eq!(status, 200);
    let _ = survivor.wait();
}

/// Every worker unreachable from the start: the coordinator runs jobs
/// in-process (degraded mode), answers bit-identically, counts the
/// fallbacks, and reports the fleet on `/healthz` in parseable lines.
#[test]
fn all_workers_down_serves_locally_and_counts_degraded() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Bind-then-drop yields ports that refuse connections.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        })
        .collect();
    let spec = soc_spec(200, 17);
    let expected_sweep = single_node_sweep("/sweep?targets=10,1000,100000", &spec);
    let expected_explore = single_node_sweep("/explore?target=1000", &spec);

    let mut cluster = test_cluster(dead);
    cluster.attempts = 2;
    let (coord, handle) = start(ServerConfig {
        cluster: Some(cluster),
        ..ServerConfig::default()
    });

    let (status, body) = post(coord, "/sweep?targets=10,1000,100000", &spec);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, expected_sweep,
        "degraded sweep must stay bit-identical"
    );
    let (status, body) = post(coord, "/explore?target=1000", &spec);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, expected_explore,
        "degraded explore must stay bit-identical"
    );

    let (_, metrics) = get(coord, "/metrics");
    assert!(
        metric_value(&metrics, "ermes_cluster_degraded_total") > 0,
        "local fallbacks are counted:\n{metrics}"
    );

    let (status, health) = get(coord, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.lines().next(), Some("ok"), "first line stays `ok`");
    for needle in [
        "sessions live: ",
        "queue depth: ",
        "trace: journal ",
        "cluster workers: ",
        "cluster degraded jobs: ",
    ] {
        assert!(
            health.lines().any(|l| l.starts_with(needle)),
            "healthz misses `{needle}`:\n{health}"
        );
    }
    assert_eq!(
        health
            .lines()
            .filter(|l| l.starts_with("cluster worker "))
            .count(),
        2,
        "one line per fleet worker:\n{health}"
    );

    // Degraded requests are tail-sampled: the flight recorder keeps
    // their full trees under the `degraded` reason.
    let (status, slow) = get(coord, "/trace/slow");
    assert_eq!(status, 200);
    assert!(
        slow.contains("\"reason\":\"degraded\""),
        "degraded requests retained by the flight recorder:\n{slow}"
    );

    shutdown(coord, handle);
}

/// `POST /shutdown` while clustered sweeps are in flight: every request
/// the coordinator accepted completes with the exact single-node bytes;
/// none is cut off mid-response.
#[test]
fn drain_under_load_completes_every_accepted_sweep() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = soc_spec(600, 23);
    const PATH: &str = "/sweep?targets=1,100,10000,1000000";
    let expected = single_node_sweep(PATH, &spec);

    let (worker_a, worker_a_handle) = spawn_worker_inprocess();
    let (worker_b, worker_b_handle) = spawn_worker_inprocess();
    let (coord, coord_handle) = start(ServerConfig {
        cluster: Some(test_cluster(vec![
            worker_a.to_string(),
            worker_b.to_string(),
        ])),
        ..ServerConfig::default()
    });

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || post(coord, PATH, &spec))
        })
        .collect();
    // Let the requests get accepted, then pull the plug mid-flight.
    std::thread::sleep(Duration::from_millis(200));
    let (status, _) = post(coord, "/shutdown", "");
    assert_eq!(status, 200);

    let mut completed = 0;
    for client in clients {
        let (status, body) = client.join().expect("client thread");
        assert_eq!(status, 200, "an accepted sweep was lost in drain: {body}");
        assert_eq!(body, expected, "drained sweep must stay bit-identical");
        completed += 1;
    }
    assert_eq!(completed, 4, "zero accepted requests lost");
    coord_handle
        .join()
        .expect("coordinator thread")
        .expect("clean drain");
    shutdown(worker_a, worker_a_handle);
    shutdown(worker_b, worker_b_handle);
}

/// Seeded faults on the coordinator's worker-client path (connection
/// resets at 40% probability): dispatch retries onto replicas — or, if
/// a subjob exhausts its attempts, recomputes locally — and the bytes
/// never change. The retry counter proves the faults actually fired.
#[test]
fn injected_network_faults_retry_transparently_bit_identically() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = soc_spec(200, 29);
    const PATH: &str = "/sweep?targets=5,50,500,5000,50000";
    let expected = single_node_sweep(PATH, &spec);

    let (worker_a, worker_a_handle) = spawn_worker_inprocess();
    let (worker_b, worker_b_handle) = spawn_worker_inprocess();
    parx::faultpoint::activate("seed=7;cluster.request=conn.reset@0.4").expect("plan parses");
    let (coord, coord_handle) = start(ServerConfig {
        cluster: Some(test_cluster(vec![
            worker_a.to_string(),
            worker_b.to_string(),
        ])),
        ..ServerConfig::default()
    });

    for round in 0..3 {
        let (status, body) = post(coord, PATH, &spec);
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(
            body, expected,
            "round {round}: chaos sweep must stay bit-identical"
        );
    }
    let (_, metrics) = get(coord, "/metrics");
    assert!(
        metric_value(&metrics, "ermes_cluster_retries_total") > 0,
        "the injected resets forced retries:\n{metrics}"
    );

    parx::faultpoint::deactivate();
    // Workers decode the client's bytes as they came: a non-canonical
    // copy of the spec sweeps to the same front.
    let compact = compact_json(&spec);
    assert!(compact.len() < spec.len());
    let (status, body) = post(coord, PATH, &compact);
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        body, expected,
        "a compacted spec must sweep bit-identically"
    );
    shutdown(coord, coord_handle);
    shutdown(worker_a, worker_a_handle);
    shutdown(worker_b, worker_b_handle);
}
