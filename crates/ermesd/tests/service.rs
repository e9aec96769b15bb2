//! End-to-end tests of the daemon: concurrent clients against a live
//! server on an ephemeral port, checked bit for bit against the serial
//! command output; admission control (queue-full and deadline 429s);
//! metrics consistency; worker-count determinism; graceful drain.

use ermesd::server::MAX_SWEEP_TARGETS;
use ermesd::{ClusterConfig, Server, ServerConfig, SystemSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

const MOTIVATING: &str = include_str!("../../cli/testdata/motivating.json");

fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::start(config).expect("bind ephemeral port");
    let addr = server.addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// A fully parsed response: status, headers (lower-cased names), body.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// One-shot request on its own connection, headers included.
fn request_full(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
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
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().expect("numeric content-length");
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    Reply {
        status,
        headers,
        body: String::from_utf8(body).expect("utf-8 body"),
    }
}

/// One-shot request on its own connection; returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let reply = request_full(addr, method, path, body);
    (reply.status, reply.body)
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

fn mpeg2_spec_json() -> String {
    SystemSpec::from_design(&mpeg2sys::mpeg2_design().0).to_json_pretty()
}

/// Strips the run-history cache-stats line from CLI output.
fn strip_cache_line(text: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

fn metric_value(metrics: &str, line_prefix: &str) -> u64 {
    metrics
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric `{line_prefix}` missing in:\n{metrics}"))
}

/// Polls `/metrics` until `line_prefix` reports `want` (the gauges are
/// sampled at scrape time, so this observes real server state).
fn wait_for_gauge(addr: SocketAddr, line_prefix: &str, want: u64) {
    for _ in 0..3000 {
        let (_, metrics) = get(addr, "/metrics");
        if metric_value(&metrics, line_prefix) == want {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("gauge `{line_prefix}` never reached {want}");
}

/// A sweep naming more than [`MAX_SWEEP_TARGETS`] targets is refused
/// before any work starts — by a plain daemon and by a coordinator,
/// whose fan-out would otherwise start one thread per target — while a
/// sweep at the cap is served.
#[test]
fn oversized_sweeps_are_rejected_before_any_work() {
    let ladder = |n: usize| {
        let targets: Vec<String> = (1..=n).map(|t| (t * 10).to_string()).collect();
        format!("/sweep?targets={}", targets.join(","))
    };
    // Bind-then-drop yields worker ports that refuse connections; the
    // refusal must come before the coordinator dispatches anything.
    let dead = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("ephemeral port")
        .to_string();
    let plain = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let coordinator = start(ServerConfig {
        cluster: Some(ClusterConfig::new(vec![dead])),
        ..ServerConfig::default()
    });
    for (addr, _) in [&plain, &coordinator] {
        let (status, body) = post(*addr, &ladder(MAX_SWEEP_TARGETS + 1), MOTIVATING);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("at most"), "{body}");
    }
    let (status, body) = post(plain.0, &ladder(MAX_SWEEP_TARGETS), MOTIVATING);
    assert_eq!(status, 200, "{body}");
    for (addr, handle) in [plain, coordinator] {
        shutdown(addr, handle);
    }
}

#[test]
fn concurrent_clients_get_cli_identical_responses_and_metrics_add_up() {
    const CLIENTS: usize = 32;
    const TARGET: u64 = 1_000_000_000;
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        queue_capacity: 256,
        ..ServerConfig::default()
    });

    let motivating = SystemSpec::from_json(MOTIVATING).expect("testdata parses");
    let mpeg2_json = mpeg2_spec_json();
    let mpeg2 = SystemSpec::from_json(&mpeg2_json).expect("round-trips");

    // The serial ground truth, computed once via the shared command layer
    // (identical to `ermes analyze` / `ermes explore` stdout).
    let expect_analyze_motivating = ermesd::cmd_analyze(&motivating).expect("analyzes");
    let expect_analyze_mpeg2 = ermesd::cmd_analyze(&mpeg2).expect("analyzes");
    let explore_expected = |spec: &SystemSpec| {
        let (report, json) = ermesd::cmd_explore(spec, TARGET).expect("explores");
        format!("{}{json}\n", strip_cache_line(&report))
    };
    let expect_explore_motivating = explore_expected(&motivating);
    let expect_explore_mpeg2 = explore_expected(&mpeg2);

    let outcomes: Vec<(usize, u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let motivating_json = MOTIVATING.to_string();
                let mpeg2_json = mpeg2_json.clone();
                scope.spawn(move || {
                    let (path, body): (String, &str) = match i % 4 {
                        0 => ("/analyze".into(), &motivating_json),
                        1 => ("/analyze".into(), &mpeg2_json),
                        2 => (format!("/explore?target={TARGET}"), &motivating_json),
                        _ => (format!("/explore?target={TARGET}"), &mpeg2_json),
                    };
                    let (status, response) = post(addr, &path, body);
                    (i, status, response)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (i, status, response) in outcomes {
        assert_eq!(status, 200, "client {i}: {response}");
        let expected = match i % 4 {
            0 => &expect_analyze_motivating,
            1 => &expect_analyze_mpeg2,
            2 => &expect_explore_motivating,
            _ => &expect_explore_mpeg2,
        };
        assert_eq!(&response, expected, "client {i} diverged from the CLI");
    }

    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let analyze_ok = metric_value(
        &metrics,
        "ermesd_requests_total{endpoint=\"analyze\",status=\"200\"}",
    );
    let explore_ok = metric_value(
        &metrics,
        "ermesd_requests_total{endpoint=\"explore\",status=\"200\"}",
    );
    assert_eq!(analyze_ok, (CLIENTS / 2) as u64);
    assert_eq!(explore_ok, (CLIENTS / 2) as u64);
    assert_eq!(
        metric_value(&metrics, "ermesd_request_seconds_count"),
        CLIENTS as u64,
        "every analysis request observed exactly once"
    );
    // Two distinct base designs were served, each behind one shared cache.
    assert_eq!(metric_value(&metrics, "ermesd_design_caches"), 2);
    let hits = metric_value(&metrics, "ermesd_cache_analysis_hits");
    let misses = metric_value(&metrics, "ermesd_cache_analysis_misses");
    assert!(
        hits > 0,
        "32 clients on 2 designs must share work:\n{metrics}"
    );
    assert!(misses > 0);
    // The explore requests above drove the selection engine, so the
    // sampled solver counter must be present and non-zero.
    assert!(
        metric_value(&metrics, "ermes_ilp_nodes_total") > 0,
        "exploration must have explored branch & bound nodes:\n{metrics}"
    );
    shutdown(addr, handle);
}

#[test]
fn responses_are_identical_at_any_worker_count() {
    const TARGET: u64 = 900; // forces real exploration on the motivating system
    let sweep_path = "/sweep?targets=900,1200,5000&jobs=2";
    let mut per_worker_count = Vec::new();
    for workers in [1, 2, 4] {
        let (addr, handle) = start(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let explore = post(
            addr,
            &format!("/explore?target={TARGET}&jobs=2"),
            MOTIVATING,
        );
        let sweep = post(addr, sweep_path, MOTIVATING);
        assert_eq!(explore.0, 200, "{}", explore.1);
        assert_eq!(sweep.0, 200, "{}", sweep.1);
        per_worker_count.push((explore.1, sweep.1));
        shutdown(addr, handle);
    }
    let spec = SystemSpec::from_json(MOTIVATING).expect("parses");
    let (report, json) = ermesd::cmd_explore(&spec, TARGET).expect("explores");
    let expect_explore = format!("{}{json}\n", strip_cache_line(&report));
    let expect_sweep =
        strip_cache_line(&ermesd::cmd_sweep(&spec, &[900, 1200, 5000], 1).expect("sweeps"));
    for (explore, sweep) in per_worker_count {
        assert_eq!(explore, expect_explore);
        assert_eq!(sweep, expect_sweep);
    }
}

#[test]
fn full_queue_and_expired_deadlines_shed_with_429() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        // The heavy spec's JSON exceeds the default 4 MiB body cap.
        max_body_bytes: 32 * 1024 * 1024,
        ..ServerConfig::default()
    });
    // A deliberately heavy request to occupy the single worker — sized
    // so the sweep outlasts the 50 ms deadline below by a wide margin.
    let soc = socgen::generate(socgen::SocGenConfig::sized(2_000, 3_000, 11));
    let design = ermes::Design::new(soc.system, soc.pareto).expect("well-formed");
    let heavy = SystemSpec::from_design(&design).to_json_pretty();
    let heavy_path = "/sweep?targets=1,1000,100000,1000000,100000000,10000000000";

    let (slow, queued, bounced) = std::thread::scope(|scope| {
        let slow = scope.spawn(|| post(addr, heavy_path, &heavy));
        // Wait until the heavy request has actually reached the worker
        // (parsing a 2000-process spec takes a while; sleeping a fixed
        // interval would race it).
        wait_for_gauge(addr, "ermesd_jobs_running ", 1);
        // Fills the queue's single slot; its 50 ms deadline will be long
        // gone by the time the worker frees up.
        let queued = scope.spawn(|| post(addr, "/analyze?deadline_ms=50", MOTIVATING));
        wait_for_gauge(addr, "ermesd_queue_depth ", 1);
        // Queue full: rejected on the spot.
        let bounced = scope.spawn(|| request_full(addr, "POST", "/analyze", MOTIVATING));
        (
            slow.join().expect("client"),
            queued.join().expect("client"),
            bounced.join().expect("client"),
        )
    });
    assert_eq!(slow.0, 200, "{}", slow.1);
    assert_eq!(
        bounced.status, 429,
        "queue-full must shed: {}",
        bounced.body
    );
    assert!(bounced.body.contains("queue full"), "{}", bounced.body);
    // The hint scales with the backlog: at bounce time one job is
    // running and one is queued behind a single worker, so the advice
    // is two job-drains, not the old hardcoded `1`.
    assert_eq!(
        bounced.header("retry-after"),
        Some("2"),
        "retry-after must reflect backlog / workers"
    );
    assert_eq!(queued.0, 429, "expired deadline must shed: {}", queued.1);
    assert!(queued.1.contains("deadline"), "{}", queued.1);

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "ermesd_shed_queue_full_total"), 1);
    assert_eq!(metric_value(&metrics, "ermesd_shed_deadline_total"), 1);
    shutdown(addr, handle);
}

#[test]
fn malformed_inputs_map_to_clean_http_errors() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Truncated JSON.
    let (status, body) = post(addr, "/analyze", &MOTIVATING[..40]);
    assert_eq!(status, 400, "{body}");
    // Schema violation names the field.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"processes": [{"name": "p", "latency": -1}], "channels": []}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("latency"), "{body}");
    // Model violation names the element.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"processes": [{"name": "p", "latency": 1}],
            "channels": [{"name": "c", "from": "p", "to": "ghost", "latency": 1}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("ghost"), "{body}");
    // Empty Pareto frontier.
    let (status, body) = post(
        addr,
        "/analyze",
        r#"{"processes": [{"name": "p", "latency": 1, "pareto": []},
                          {"name": "q", "latency": 1}],
            "channels": [{"name": "c", "from": "p", "to": "q", "latency": 1}]}"#,
    );
    assert_eq!(status, 400);
    assert!(body.contains("pareto"), "{body}");
    // Delays whose sums overflow the cycle-time solvers' integers: a live
    // 600-process ring, every latency at the JSON maximum 2^53.
    let top = 1u64 << 53;
    let processes: Vec<String> = (0..600)
        .map(|i| format!(r#"{{"name": "p{i}", "latency": {top}}}"#))
        .collect();
    let channels: Vec<String> = (0..600)
        .map(|i| {
            format!(
                r#"{{"name": "c{i}", "from": "p{i}", "to": "p{}", "latency": {top}, "initial_tokens": {}}}"#,
                (i + 1) % 600,
                u64::from(i == 599)
            )
        })
        .collect();
    let ring = format!(
        r#"{{"processes": [{}], "channels": [{}]}}"#,
        processes.join(","),
        channels.join(",")
    );
    for path in ["/analyze", "/session"] {
        let (status, body) = post(addr, path, &ring);
        assert_eq!(status, 400, "{path}: {body}");
        assert!(body.contains("latency"), "{path}: {body}");
    }
    // A body that fails to decode leaves no entry in the design LRU.
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "ermesd_design_caches"), 0);
    // Missing required query parameter.
    let (status, body) = post(addr, "/explore", MOTIVATING);
    assert_eq!(status, 400);
    assert!(body.contains("target"), "{body}");
    // Unknown route and wrong method.
    assert_eq!(get(addr, "/nope").0, 404);
    assert_eq!(get(addr, "/analyze").0, 405);
    // RFC 9110: a 405 on a known path names the allowed method.
    for path in [
        "/analyze", "/order", "/explore", "/sweep", "/verify", "/session",
    ] {
        let reply = request_full(addr, "GET", path, "");
        assert_eq!(reply.status, 405, "GET {path}");
        assert_eq!(reply.header("allow"), Some("POST"), "GET {path}");
    }
    for path in ["/healthz", "/metrics", "/trace"] {
        let reply = request_full(addr, "POST", path, "");
        assert_eq!(reply.status, 405, "POST {path}");
        assert_eq!(reply.header("allow"), Some("GET"), "POST {path}");
    }
    for sub in ["/session/0/edit", "/session/0/verify"] {
        let reply = request_full(addr, "PUT", sub, "");
        assert_eq!(reply.status, 405, "PUT {sub}");
        assert_eq!(reply.header("allow"), Some("POST"), "PUT {sub}");
    }
    let reply = request_full(addr, "GET", "/session/0", "");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("DELETE"));
    // Sub-resources that don't exist stay 404 regardless of method.
    assert_eq!(post(addr, "/session/0/nope", "").0, 404);
    // A deadlocking system is a semantic failure, not a bad request.
    let (status, body) = post(
        addr,
        "/explore?target=10",
        r#"{"processes": [{"name": "a", "latency": 1}, {"name": "b", "latency": 1}],
            "channels": [{"name": "f", "from": "a", "to": "b", "latency": 1},
                         {"name": "r", "from": "b", "to": "a", "latency": 1}]}"#,
    );
    assert_eq!(status, 422, "{body}");
    shutdown(addr, handle);
}

#[test]
fn graceful_shutdown_drains_in_flight_work() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServerConfig::default()
    });
    let results = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || post(addr, "/explore?target=900", MOTIVATING)))
            .collect();
        // Let the requests reach the queue, then pull the plug.
        std::thread::sleep(Duration::from_millis(100));
        let (status, body) = post(addr, "/shutdown", "");
        assert_eq!(status, 200, "{body}");
        clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect::<Vec<_>>()
    });
    handle
        .join()
        .expect("server thread")
        .expect("drain returns cleanly");
    for (status, body) in results {
        assert_eq!(
            status, 200,
            "admitted work must finish during drain: {body}"
        );
        assert!(body.contains("best: iteration"), "{body}");
    }
}

/// Tentpole: every `/session/{id}/edit` response must be byte-identical
/// to `POST /analyze` on a spec capturing the session's post-edit
/// design. The test mirrors each edit onto a client-side spec and
/// compares against the from-scratch command layer.
#[test]
fn session_edits_are_bit_identical_to_stateless_analysis() {
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let json = mpeg2_spec_json();
    let mut mirror = SystemSpec::from_json(&json).expect("round-trips");

    let opened = request_full(addr, "POST", "/session", &json);
    assert_eq!(opened.status, 200, "{}", opened.body);
    let id = opened
        .header("x-ermes-session")
        .expect("open returns the session id")
        .to_string();
    assert_eq!(
        opened.body,
        ermesd::cmd_analyze(&mirror).expect("analyzes"),
        "the opening analysis matches the CLI"
    );
    let edit_path = format!("/session/{id}/edit");

    // Re-select a process with a multi-point frontier, there and back.
    let pi = mirror
        .processes
        .iter()
        .position(|p| p.pareto.as_ref().is_some_and(|f| f.len() >= 2))
        .expect("mpeg2 has a multi-point frontier");
    let pname = mirror.processes[pi].name.clone();
    for point in [1usize, 0] {
        let body = format!(r#"{{"reselect": {{"process": "{pname}", "point": {point}}}}}"#);
        let reply = request_full(addr, "POST", &edit_path, &body);
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.header("x-ermes-session"), Some(id.as_str()));
        // Mirror the edit: selection round-trips through the spec as the
        // declared latency snapping to the matching frontier point.
        mirror.processes[pi].latency = mirror.processes[pi].pareto.as_ref().unwrap()[point].latency;
        assert_eq!(
            reply.body,
            ermesd::cmd_analyze(&mirror).expect("analyzes"),
            "reselect to point {point} diverged from a from-scratch analysis"
        );
    }

    // Reorder a multi-input process: reverse its get order.
    let qi = mirror
        .processes
        .iter()
        .position(|p| p.get_order.as_ref().is_some_and(|g| g.len() >= 2))
        .expect("mpeg2 has a multi-input process");
    let qname = mirror.processes[qi].name.clone();
    let mut gets = mirror.processes[qi]
        .get_order
        .clone()
        .expect("from_design sets orders");
    gets.reverse();
    let puts = mirror.processes[qi]
        .put_order
        .clone()
        .expect("from_design sets orders");
    let quoted = |names: &[String]| {
        names
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let body = format!(
        r#"{{"reorder": {{"process": "{qname}", "gets": [{}], "puts": [{}]}}}}"#,
        quoted(&gets),
        quoted(&puts)
    );
    let reply = request_full(addr, "POST", &edit_path, &body);
    assert_eq!(reply.status, 200, "{}", reply.body);
    mirror.processes[qi].get_order = Some(gets);
    assert_eq!(
        reply.body,
        ermesd::cmd_analyze(&mirror).expect("analyzes"),
        "reorder diverged from a from-scratch analysis"
    );

    // Close; the id is gone for edits and for a second close alike.
    assert_eq!(
        request(addr, "DELETE", &format!("/session/{id}"), "").0,
        200
    );
    assert_eq!(post(addr, &edit_path, &body).0, 404);
    assert_eq!(
        request(addr, "DELETE", &format!("/session/{id}"), "").0,
        404
    );
    shutdown(addr, handle);
}

/// `/verify` certifies a live spec bit-identically to the CLI command,
/// and `/session/{id}/verify` tracks the session's *current* design
/// across edits rather than the spec it was opened with.
#[test]
fn verify_endpoints_certify_and_track_session_edits() {
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let json = mpeg2_spec_json();
    let mut mirror = SystemSpec::from_json(&json).expect("round-trips");

    // Stateless: the daemon's certificate is the CLI's, byte for byte.
    let (status, body) = post(addr, "/verify", &json);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("CERTIFIED deadlock-free"), "{body}");
    assert!(body.contains("f64 bit-identical"), "{body}");
    assert_eq!(body, ermesd::cmd_verify(&mirror).expect("verifies"));

    // A structurally broken spec is refuted with a witness, not a 4xx:
    // the request itself is well-formed.
    let (status, body) = post(
        addr,
        "/verify",
        r#"{"processes": [{"name": "a", "latency": 1}, {"name": "b", "latency": 1}],
            "channels": [{"name": "f", "from": "a", "to": "b", "latency": 1},
                         {"name": "r", "from": "b", "to": "a", "latency": 1}]}"#,
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("REFUTED"), "{body}");
    assert!(body.contains("token-free cycle"), "{body}");

    // Stateful: open a session, verify, edit, verify again — each
    // certificate matches a from-scratch `verify` of the mirrored spec.
    let opened = request_full(addr, "POST", "/session", &json);
    assert_eq!(opened.status, 200, "{}", opened.body);
    let id = opened.header("x-ermes-session").expect("id").to_string();
    let verify_path = format!("/session/{id}/verify");

    let reply = request_full(addr, "POST", &verify_path, "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.header("x-ermes-session"), Some(id.as_str()));
    assert_eq!(reply.body, ermesd::cmd_verify(&mirror).expect("verifies"));

    let pi = mirror
        .processes
        .iter()
        .position(|p| p.pareto.as_ref().is_some_and(|f| f.len() >= 2))
        .expect("mpeg2 has a multi-point frontier");
    let pname = mirror.processes[pi].name.clone();
    let edit = format!(r#"{{"reselect": {{"process": "{pname}", "point": 1}}}}"#);
    let (status, body) = post(addr, &format!("/session/{id}/edit"), &edit);
    assert_eq!(status, 200, "{body}");
    mirror.processes[pi].latency = mirror.processes[pi].pareto.as_ref().unwrap()[1].latency;

    let reply = request_full(addr, "POST", &verify_path, "");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply.body,
        ermesd::cmd_verify(&mirror).expect("verifies"),
        "session verify must see the post-edit design"
    );

    // Gone session: clean 404.
    assert_eq!(
        request(addr, "DELETE", &format!("/session/{id}"), "").0,
        200
    );
    assert_eq!(post(addr, &verify_path, "").0, 404);
    shutdown(addr, handle);
}

/// Sessions are LRU-bounded, invalid edits fail without killing the
/// session, and the lifecycle counters add up on `/metrics`.
#[test]
fn sessions_are_lru_bounded_and_bad_edits_fail_cleanly() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        session_capacity: 1,
        ..ServerConfig::default()
    });
    let json = mpeg2_spec_json();
    let spec = SystemSpec::from_json(&json).expect("round-trips");
    let open = |_| {
        let reply = request_full(addr, "POST", "/session", &json);
        assert_eq!(reply.status, 200, "{}", reply.body);
        reply
            .header("x-ermes-session")
            .expect("id header")
            .to_string()
    };

    let a = open(());
    let a_edit = format!("/session/{a}/edit");
    // Malformed, unknown-name, and out-of-range edits are clean client
    // errors; none of them consumes the session.
    assert_eq!(post(addr, &a_edit, "not json").0, 400);
    assert_eq!(
        post(
            addr,
            &a_edit,
            r#"{"reselect": {"process": "ghost", "point": 0}}"#
        )
        .0,
        400
    );
    let pname = &spec
        .processes
        .iter()
        .find(|p| p.pareto.is_some())
        .expect("a process with a frontier")
        .name;
    let (status, body) = post(
        addr,
        &a_edit,
        &format!(r#"{{"reselect": {{"process": "{pname}", "point": 999}}}}"#),
    );
    assert_eq!(status, 422, "{body}");

    // Still alive after the failures: a valid edit succeeds.
    let ok_edit = format!(r#"{{"reselect": {{"process": "{pname}", "point": 0}}}}"#);
    assert_eq!(post(addr, &a_edit, &ok_edit).0, 200);

    // Capacity 1: opening a second session evicts the first.
    let b = open(());
    assert_ne!(a, b, "session ids are never reused");
    assert_eq!(
        post(addr, &a_edit, &ok_edit).0,
        404,
        "evicted session is gone"
    );
    assert_eq!(post(addr, &format!("/session/{b}/edit"), &ok_edit).0, 200);

    // Route-shape errors.
    assert_eq!(get(addr, &format!("/session/{b}/edit")).0, 405);
    assert_eq!(get(addr, "/session").0, 405);
    assert_eq!(post(addr, "/session/abc/edit", &ok_edit).0, 404);
    assert_eq!(request(addr, "DELETE", "/session/abc", "").0, 404);

    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "ermes_sessions_live"), 1);
    assert_eq!(metric_value(&metrics, "ermes_session_opened_total"), 2);
    assert_eq!(metric_value(&metrics, "ermes_session_evicted_total"), 1);
    assert_eq!(metric_value(&metrics, "ermes_session_edits_total"), 2);
    assert_eq!(
        metric_value(
            &metrics,
            "ermesd_requests_total{endpoint=\"session_edit\",status=\"200\"}"
        ),
        2
    );

    assert_eq!(request(addr, "DELETE", &format!("/session/{b}"), "").0, 200);
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(metric_value(&metrics, "ermes_sessions_live"), 0);
    assert_eq!(metric_value(&metrics, "ermes_session_closed_total"), 1);
    shutdown(addr, handle);
}

#[test]
fn healthz_and_keep_alive_roundtrip() {
    let (addr, handle) = start(ServerConfig::default());
    // Two requests over one keep-alive connection.
    let mut stream = TcpStream::connect(addr).expect("reachable");
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
            .expect("written");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("status");
        assert!(line.starts_with("HTTP/1.1 200"), "{line}");
        let mut content_length = 0;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            if header.trim_end().is_empty() {
                break;
            }
            if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        // First line is the stable probe token; the rest reports worker
        // liveness and restart history.
        let text = String::from_utf8(body).expect("utf-8");
        assert_eq!(text.lines().next(), Some("ok"), "{text}");
        assert!(text.contains("alive"), "{text}");
        assert!(text.contains("worker restarts: 0"), "{text}");
    }
    shutdown(addr, handle);
}

/// A body nested deeper than the JSON parser's cap is a clean `400`,
/// never a stack overflow that takes the whole daemon down: a megabyte
/// of `[` to `/analyze` and to a session edit, then the daemon is still
/// healthy and still answers bit-identically to the CLI.
#[test]
fn hostile_nesting_is_a_bad_request_not_a_crash() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let hostile = "[".repeat(1 << 20);
    let (status, body) = post(addr, "/analyze", &hostile);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");

    let opened = request_full(addr, "POST", "/session", MOTIVATING);
    assert_eq!(opened.status, 200, "{}", opened.body);
    let id = opened.header("x-ermes-session").expect("session id");
    let (status, body) = post(addr, &format!("/session/{id}/edit"), &hostile);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting deeper than"), "{body}");

    let (status, health) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.lines().next(), Some("ok"), "{health}");
    let spec = SystemSpec::from_json(MOTIVATING).expect("testdata parses");
    assert_eq!(
        post(addr, "/analyze", MOTIVATING),
        (200, ermesd::cmd_analyze(&spec).expect("analyzes"))
    );
    shutdown(addr, handle);
}

/// `/shard/sweeppoint` is a pool endpoint with admission control like
/// the public ones, so it records service latency under its own label.
#[test]
fn shard_sweep_points_record_request_latency() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (status, body) = post(addr, "/shard/sweeppoint?target=1200", MOTIVATING);
    assert_eq!(status, 200, "{body}");
    let (_, metrics) = get(addr, "/metrics");
    assert_eq!(
        metric_value(
            &metrics,
            "ermesd_request_seconds_count{endpoint=\"shard_sweeppoint\"}"
        ),
        1,
        "{metrics}"
    );
    shutdown(addr, handle);
}

/// Only the endpoints that join a coordinator's trace answer a request
/// for their span tree: `/analyze` appends the tree of its `request`
/// span behind the CLI bytes, while a session endpoint ignores the
/// header and answers the plain analysis.
#[test]
fn only_stitched_endpoints_append_their_span_tree() {
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let expected =
        ermesd::cmd_analyze(&SystemSpec::from_json(MOTIVATING).expect("parses")).expect("analyzes");
    let with_tree = |path: &str| {
        let mut stream = TcpStream::connect(addr).expect("server reachable");
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nconnection: close\r\nx-ermes-trace-tree: 1\r\n\
             content-length: {}\r\n\r\n{MOTIVATING}",
            MOTIVATING.len()
        )
        .expect("request written");
        let reply =
            ermesd::http::read_response(&mut BufReader::new(stream), usize::MAX).expect("response");
        assert_eq!(reply.status, 200, "POST {path}");
        String::from_utf8(reply.body).expect("utf-8 body")
    };

    let analyzed = with_tree("/analyze");
    let (plain, wire) = analyzed
        .split_once(trace::TRAILER_MARKER)
        .expect("/analyze appends its span tree");
    assert_eq!(plain, expected);
    let tree = trace::SpanTree::from_wire(wire).expect("well-formed tree");
    assert_eq!(tree.record.name, "request");
    assert_eq!(tree.record.attr("endpoint"), Some("analyze"));
    assert_eq!(tree.record.attr("outcome"), Some("ok"));

    assert_eq!(
        with_tree("/session"),
        expected,
        "sessions never append a tree"
    );
    shutdown(addr, handle);
}
