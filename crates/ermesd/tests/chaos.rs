//! Chaos tests: the daemon under deterministic fault injection.
//!
//! Each test installs a [`parx::faultpoint`] plan (panics, delays, short
//! writes at named points in the worker loop, cache population, and the
//! response-write path), drives real HTTP traffic against a live server,
//! and asserts the fault-tolerance contract: a panic is isolated to the
//! one request that hit it, cancellation is timely, no client ever
//! receives a corrupted-but-complete response, and the server always
//! drains cleanly afterwards.
//!
//! The faultpoint registry is process-global, so every test serializes
//! on [`GATE`] and deactivates its plan before releasing it.

use ermesd::{Server, ServerConfig, SystemSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Serializes tests that install fault plans (the registry is global).
static GATE: Mutex<()> = Mutex::new(());

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

/// One-shot request on its own connection. `Err` on any transport-level
/// failure, including a response truncated before the blank line or
/// short of its `content-length` — the detectable shapes a short write
/// produces (a truncated response must never look complete).
fn try_request(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::other("EOF before status line"));
    }
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("bad status line `{status_line}`")))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            // EOF mid-headers: a short write, reported as such.
            return Err(std::io::Error::other("EOF before end of headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| std::io::Error::other("bad content-length"))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Reply {
        status,
        headers,
        body: String::from_utf8(body).map_err(|_| std::io::Error::other("non-UTF-8 body"))?,
    })
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let reply = try_request(addr, method, path, body).expect("transport");
    (reply.status, reply.body)
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let (status, _) = request(addr, "POST", "/shutdown", "");
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

/// Polls `/metrics` until `line_prefix` reports at least `want`.
fn wait_for_metric_at_least(addr: SocketAddr, line_prefix: &str, want: u64) -> u64 {
    for _ in 0..3000 {
        let (_, metrics) = request(addr, "GET", "/metrics", "");
        let value = metric_value(&metrics, line_prefix);
        if value >= want {
            return value;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("metric `{line_prefix}` never reached {want}");
}

/// A deliberately heavy request: a large synthetic SoC swept over a long
/// target ladder, taking seconds — plenty of iterations for a
/// cancellation to land in. Sized so the sweep comfortably outlasts the
/// deadlines below (a 300-process spec finishes in well under 300 ms).
fn heavy_spec() -> String {
    let soc = socgen::generate(socgen::SocGenConfig::sized(4_000, 6_000, 11));
    let design = ermes::Design::new(soc.system, soc.pareto).expect("well-formed");
    SystemSpec::from_design(&design).to_json_pretty()
}

const HEAVY_SWEEP: &str = "/sweep?targets=1,5,1000,5000,100000,500000,1000000,5000000,100000000,500000000,10000000000,50000000000";

/// Acceptance: an injected worker panic yields a 500 for exactly that
/// request; concurrent requests complete bit-identically to the CLI;
/// the worker is respawned (`ermes_worker_restarts_total` increments)
/// and `/healthz` stays green.
#[test]
fn injected_worker_panic_is_isolated_to_one_request() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    parx::faultpoint::activate("seed=1;worker.job=panic#1").expect("plan parses");
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let spec = SystemSpec::from_json(MOTIVATING).expect("testdata parses");
    let expected = ermesd::cmd_analyze(&spec).expect("analyzes");

    let outcomes: Vec<(u16, String)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || request(addr, "POST", "/analyze", MOTIVATING)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });

    let failures: Vec<&(u16, String)> = outcomes.iter().filter(|(s, _)| *s != 200).collect();
    assert_eq!(failures.len(), 1, "exactly one request hit the panic");
    assert_eq!(failures[0].0, 500);
    assert!(
        failures[0].1.contains("panicked") && failures[0].1.contains("restarted"),
        "{}",
        failures[0].1
    );
    for (status, body) in outcomes.iter().filter(|(s, _)| *s == 200) {
        assert_eq!(*status, 200);
        assert_eq!(body, &expected, "survivors are bit-identical to the CLI");
    }

    // The respawn races the 500 (the replacement is spawned just after
    // the panic is caught); observe it through the scrape.
    wait_for_metric_at_least(addr, "ermes_worker_restarts_total", 1);
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "ermesd_jobs_panicked_total"), 1);
    assert_eq!(metric_value(&metrics, "ermesd_workers_alive"), 2);
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.lines().next(), Some("ok"), "{health}");
    assert!(health.contains("workers: 2/2 alive"), "{health}");
    assert!(health.contains("worker restarts: 1"), "{health}");

    parx::faultpoint::deactivate();
    shutdown(addr, handle);
}

/// A panic during a session edit is isolated to that session: the
/// poisoned state is dropped (the client sees a 500 and then 404s),
/// while other sessions keep serving bit-identical edits and the
/// worker is respawned.
#[test]
fn injected_panic_during_edit_drops_only_that_session() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    parx::faultpoint::deactivate();
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let json = SystemSpec::from_design(&mpeg2sys::mpeg2_design().0).to_json_pretty();
    let spec = SystemSpec::from_json(&json).expect("round-trips");
    let pname = &spec
        .processes
        .iter()
        .find(|p| p.pareto.is_some())
        .expect("mpeg2 has a frontier")
        .name;
    let edit = format!(r#"{{"reselect": {{"process": "{pname}", "point": 0}}}}"#);

    let open = |_| {
        let reply = try_request(addr, "POST", "/session", &json).expect("transport");
        assert_eq!(reply.status, 200, "{}", reply.body);
        reply.header("x-ermes-session").expect("id").to_string()
    };
    let a = open(());
    let b = open(());

    // The next pool job is the doomed edit (session routes skip the pool
    // for close, and nothing else is in flight).
    parx::faultpoint::activate("seed=7;worker.job=panic#1").expect("plan parses");
    let reply = try_request(addr, "POST", &format!("/session/{a}/edit"), &edit).expect("transport");
    assert_eq!(reply.status, 500, "{}", reply.body);
    assert!(
        reply.body.contains("panicked") && reply.body.contains("dropped"),
        "{}",
        reply.body
    );
    parx::faultpoint::deactivate();

    // The corrupted session is gone; its sibling is untouched and still
    // bit-identical to a from-scratch analysis of the edited design.
    let (status, _) = request(addr, "POST", &format!("/session/{a}/edit"), &edit);
    assert_eq!(status, 404, "poisoned session must be dropped");
    let reply = try_request(addr, "POST", &format!("/session/{b}/edit"), &edit).expect("transport");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let mut mirror = spec.clone();
    let pi = mirror
        .processes
        .iter()
        .position(|p| &p.name == pname)
        .unwrap();
    mirror.processes[pi].latency = mirror.processes[pi].pareto.as_ref().unwrap()[0].latency;
    let expected = ermesd::cmd_analyze(&mirror).expect("analyzes");
    assert_eq!(reply.body, expected, "sibling session diverged");

    wait_for_metric_at_least(addr, "ermes_worker_restarts_total", 1);
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "ermesd_workers_alive"), 2);
    assert_eq!(metric_value(&metrics, "ermes_session_dropped_total"), 1);
    assert_eq!(metric_value(&metrics, "ermes_sessions_live"), 1);
    shutdown(addr, handle);
}

/// Satellite: a deadline that expires mid-execution (after the worker
/// picked the job up) returns a timely 429 with partial-progress
/// metadata instead of blocking until the sweep completes.
#[test]
fn mid_run_deadline_returns_timely_429_with_progress() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    parx::faultpoint::deactivate();
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        // The heavy spec's JSON exceeds the default 4 MiB body cap.
        max_body_bytes: 32 * 1024 * 1024,
        ..ServerConfig::default()
    });
    let heavy = heavy_spec();
    // The deadline must sit between the request's pre-run overhead
    // (reading and parsing an ~9 MB spec, which counts against the
    // deadline before the first sweep step) and the full sweep time.
    // Both scale with machine speed, but debug builds inflate the parse
    // far more than the sweep, so the window is profile-dependent.
    let deadline_ms = if cfg!(debug_assertions) { 2_000 } else { 400 };
    let started = Instant::now();
    let reply = try_request(
        addr,
        "POST",
        &format!("{HEAVY_SWEEP}&deadline_ms={deadline_ms}"),
        &heavy,
    )
    .expect("transport");
    let elapsed = started.elapsed();
    assert_eq!(reply.status, 429, "{}", reply.body);
    // "cancelled (…) after N of M steps" distinguishes the mid-run path
    // from the queued-too-long shed ("before a worker was free").
    assert!(
        reply.body.contains("cancelled (deadline expired) after"),
        "{}",
        reply.body
    );
    assert!(reply.body.contains("of 12 steps"), "{}", reply.body);
    assert!(reply.header("retry-after").is_some());
    let progress = reply.header("x-ermes-progress").expect("progress header");
    assert!(progress.ends_with("/12"), "{progress}");
    // Timely: the full sweep takes far longer than the deadline plus a
    // generous bound on one Howard iteration of this system.
    assert!(elapsed < Duration::from_secs(10), "{elapsed:?}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric_value(&metrics, "ermesd_cancelled_deadline_total"), 1);
    shutdown(addr, handle);
}

/// Tentpole: a client that hangs up mid-run cancels its own in-flight
/// job (observed via the EOF poll), freeing the worker long before the
/// sweep would have finished.
#[test]
fn client_disconnect_cancels_in_flight_work() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    parx::faultpoint::deactivate();
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        // The heavy spec's JSON exceeds the default 4 MiB body cap.
        max_body_bytes: 32 * 1024 * 1024,
        ..ServerConfig::default()
    });
    let heavy = heavy_spec();
    {
        let mut stream = TcpStream::connect(addr).expect("reachable");
        write!(
            stream,
            "POST {HEAVY_SWEEP} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{heavy}",
            heavy.len()
        )
        .expect("request written");
        stream.flush().expect("flushed");
        // Hang up without reading the response.
    }
    wait_for_metric_at_least(addr, "ermesd_cancelled_disconnect_total", 1);
    // The worker is free again: a normal request completes promptly.
    let spec = SystemSpec::from_json(MOTIVATING).expect("parses");
    let expected = ermesd::cmd_analyze(&spec).expect("analyzes");
    let (status, body) = request(addr, "POST", "/analyze", MOTIVATING);
    assert_eq!(status, 200);
    assert_eq!(body, expected);
    shutdown(addr, handle);
}

/// Tentpole: short writes on the response path are always detectable —
/// a client never receives a truncated response that parses as complete,
/// and a retry after the fault drains gets the exact CLI bytes.
#[test]
fn short_writes_never_corrupt_a_response() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    parx::faultpoint::activate("seed=3;http.write=short#3").expect("plan parses");
    let (addr, handle) = start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let spec = SystemSpec::from_json(MOTIVATING).expect("parses");
    let expected = ermesd::cmd_analyze(&spec).expect("analyzes");

    let mut truncated = 0;
    let mut reply = None;
    for _ in 0..10 {
        match try_request(addr, "POST", "/analyze", MOTIVATING) {
            Ok(ok) => {
                reply = Some(ok);
                break;
            }
            Err(_) => truncated += 1, // detected short write; retry
        }
    }
    let reply = reply.expect("a retry eventually succeeds");
    assert_eq!(truncated, 3, "the plan truncates exactly the first 3");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.body, expected, "retried response is bit-identical");

    parx::faultpoint::deactivate();
    shutdown(addr, handle);
}

/// The integrated chaos run: probabilistic panics, cache-population
/// delays, parse delays, and short writes under a fixed seed, against a
/// client that retries with backoff on 429/500/transport errors. Every
/// request eventually succeeds bit-identically, the restart accounting
/// balances, and the server drains cleanly.
#[test]
fn mixed_chaos_with_retrying_client_stays_consistent_and_drains() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    parx::faultpoint::activate(
        "seed=4;worker.job=panic@0.15;cache.insert=delay(25)@0.5;\
         json.parse=delay(10)@0.3;http.write=short@0.1",
    )
    .expect("plan parses");
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let spec = SystemSpec::from_json(MOTIVATING).expect("parses");
    let expect_analyze = ermesd::cmd_analyze(&spec).expect("analyzes");
    let (report, json) = ermesd::cmd_explore(&spec, 900).expect("explores");
    let report: String = report
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .collect::<Vec<_>>()
        .join("\n");
    let expect_explore = format!("{report}\n{json}\n");

    let mut panics_seen = 0u64;
    for i in 0..24 {
        let (path, expected) = if i % 2 == 0 {
            ("/analyze", &expect_analyze)
        } else {
            ("/explore?target=900", &expect_explore)
        };
        let mut done = false;
        for attempt in 0..20 {
            match try_request(addr, "POST", path, MOTIVATING) {
                Ok(reply) if reply.status == 200 => {
                    assert_eq!(&reply.body, expected, "request {i} corrupted");
                    done = true;
                    break;
                }
                Ok(reply) if reply.status == 500 => panics_seen += 1,
                Ok(reply) => assert_eq!(reply.status, 429, "unexpected {}", reply.status),
                Err(_) => {} // short write; retry
            }
            std::thread::sleep(Duration::from_millis(5 * (attempt + 1)));
        }
        assert!(done, "request {i} never succeeded under chaos");
    }

    parx::faultpoint::deactivate();
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let restarts = metric_value(&metrics, "ermes_worker_restarts_total");
    let panicked = metric_value(&metrics, "ermesd_jobs_panicked_total");
    assert_eq!(
        restarts, panicked,
        "every caught panic respawned exactly one worker:\n{metrics}"
    );
    assert!(
        panicked >= panics_seen,
        "the scrape saw at least the panics the client saw"
    );
    assert_eq!(metric_value(&metrics, "ermesd_workers_alive"), 2);
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.lines().next(), Some("ok"), "{health}");
    shutdown(addr, handle);
}
