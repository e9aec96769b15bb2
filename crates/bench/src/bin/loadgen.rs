//! Load generator for the `ermesd` analysis service.
//!
//! ```text
//! loadgen [--connections <n>] [--requests <n>] [--workers <n>] [--addr <host:port>]
//!         [--chaos]
//! ```
//!
//! Without `--addr` it spawns an in-process server on an ephemeral port
//! (so the numbers include no network beyond loopback). Each connection
//! drives a keep-alive HTTP/1.1 session with a mixed workload over the
//! MPEG-2 encoder system and a synthetic `socgen` SoC — `/analyze`,
//! `/explore`, and `/sweep` — and every response is checked against the
//! equivalent direct command output (the daemon's bit-identity
//! contract), so the load test is also a correctness test. The workload
//! runs twice: the *cold* phase starts with empty caches, the *warm*
//! phase repeats the identical request set against warm ones — the
//! before/after of the shared cross-request cache.
//!
//! `--chaos` turns the client into a fault-tolerant one: 429/500/503
//! responses and transport errors (a fault-injected short write kills
//! the connection) are retried with exponential backoff plus
//! deterministic jitter, reconnecting as needed. Every request must
//! still eventually succeed **bit-identically** — under chaos the run
//! asserts no response corruption, no deadlock (bounded retries), and a
//! clean drain. Against an external daemon, start it with
//! `ERMES_FAULTPOINTS=...`; without `--addr` the in-process server gets
//! a default fault plan unless the environment already set one.

use ermesd::{Server, ServerConfig, SystemSpec};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Fault plan for in-process `--chaos` runs when `ERMES_FAULTPOINTS`
/// does not override it: occasional worker panics, cache-insert delays,
/// and response short writes, all on a fixed seed.
const DEFAULT_CHAOS_PLAN: &str =
    "seed=42;worker.job=panic@0.1;cache.insert=delay(20)@0.3;http.write=short@0.05";

/// Retry ceiling per request under `--chaos`; hitting it fails the run
/// (that would be a stuck service, the thing chaos mode must rule out).
const CHAOS_MAX_ATTEMPTS: u32 = 20;

// Both targets sit below what the systems can reach, so every request
// runs the full exploration loop instead of stopping at iteration 0 —
// that is the compute the shared cross-request cache gets to save.
const EXPLORE_TARGET: u64 = 1_000_000;
const SWEEP_TARGETS: &str = "22000,44000,88000";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// One request of the workload: `(endpoint label, path, body, expected response)`.
struct WorkItem {
    label: &'static str,
    path: String,
    body: String,
    expected: String,
}

/// Strips the CLI's run-history cache-stats line (absent from daemon
/// responses by design).
fn strip_cache_line(text: &str) -> String {
    let mut out: String = text
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .collect::<Vec<_>>()
        .join("\n");
    out.push('\n');
    out
}

fn build_workload() -> Vec<WorkItem> {
    let (mpeg2, _) = mpeg2sys::mpeg2_design();
    let mpeg2_spec = SystemSpec::from_design(&mpeg2);
    let soc = socgen::generate(socgen::SocGenConfig::sized(40, 80, 7));
    let soc_design = ermes::Design::new(soc.system, soc.pareto).expect("socgen is well-formed");
    let soc_spec = SystemSpec::from_design(&soc_design);

    let analyze_mpeg2 = ermesd::cmd_analyze(&mpeg2_spec).expect("mpeg2 analyzes");
    let analyze_soc = ermesd::cmd_analyze(&soc_spec).expect("socgen analyzes");
    let (explore_report, explore_json) =
        ermesd::cmd_explore(&mpeg2_spec, EXPLORE_TARGET).expect("mpeg2 explores");
    let explore_expected = format!("{}{explore_json}\n", strip_cache_line(&explore_report));
    let sweep_targets: Vec<u64> = SWEEP_TARGETS
        .split(',')
        .map(|t| t.parse().expect("targets are numeric"))
        .collect();
    let sweep_expected =
        strip_cache_line(&ermesd::cmd_sweep(&soc_spec, &sweep_targets, 1).expect("socgen sweeps"));

    vec![
        WorkItem {
            label: "analyze(mpeg2)",
            path: "/analyze".into(),
            body: mpeg2_spec.to_json_pretty(),
            expected: analyze_mpeg2,
        },
        WorkItem {
            label: "analyze(socgen)",
            path: "/analyze".into(),
            body: soc_spec.to_json_pretty(),
            expected: analyze_soc,
        },
        WorkItem {
            label: "explore(mpeg2)",
            path: format!("/explore?target={EXPLORE_TARGET}"),
            body: mpeg2_spec.to_json_pretty(),
            expected: explore_expected,
        },
        WorkItem {
            label: "sweep(socgen)",
            path: format!("/sweep?targets={SWEEP_TARGETS}"),
            body: soc_spec.to_json_pretty(),
            expected: sweep_expected,
        },
    ]
}

/// Sends one keep-alive POST and reads the full response. The request
/// line is written here because [`ermesd::http::write_request`] always
/// closes the connection; the response goes through the coordinator's
/// own reader, which reports a truncated (possibly fault-injected
/// short-write) response as a transport error.
fn post(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    write!(
        writer,
        "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()?;
    let response = ermesd::http::read_response(reader, bench::fleet::MAX_RESPONSE)?;
    let body =
        String::from_utf8(response.body).map_err(|_| std::io::Error::other("non-UTF-8 body"))?;
    Ok((response.status, body))
}

/// Per-phase outcome of one connection. Latencies carry the workload
/// item index so the phase report can split them per endpoint.
struct ConnStats {
    latencies_us: Vec<(usize, u64)>,
    mismatches: usize,
    failures: usize,
    retries: usize,
    server_errors: usize,
    sheds: usize,
    transport_errors: usize,
}

impl ConnStats {
    fn new(requests: usize) -> Self {
        ConnStats {
            latencies_us: Vec::with_capacity(requests),
            mismatches: 0,
            failures: 0,
            retries: 0,
            server_errors: 0,
            sheds: 0,
            transport_errors: 0,
        }
    }

    fn all_failed(requests: usize) -> Self {
        let mut stats = Self::new(requests);
        stats.failures = requests;
        stats
    }
}

/// SplitMix64 for backoff jitter — deterministic per connection, so a
/// chaos run is reproducible end to end (the daemon's faultpoint RNG is
/// seeded too). `bench` takes no RNG dependency; this is 4 lines.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Fault-tolerant variant of [`drive_connection`]: retries sheds (429),
/// isolated worker panics (500), overload (503), and transport errors
/// (truncated responses kill the connection; we reconnect) with
/// exponential backoff plus deterministic jitter. Every request must
/// eventually return 200 **and** match the CLI bit for bit — anything
/// else after [`CHAOS_MAX_ATTEMPTS`] counts as a failure, which the
/// phase asserts to zero.
fn drive_connection_chaos(addr: &str, items: &[WorkItem], requests: usize, id: u64) -> ConnStats {
    let mut stats = ConnStats::new(requests);
    let mut rng = Rng(0x10adu64 ^ (id << 32));
    let mut conn = connect(addr).ok();
    for i in 0..requests {
        let item = &items[i % items.len()];
        let started = Instant::now();
        let mut done = false;
        for attempt in 0..CHAOS_MAX_ATTEMPTS {
            if attempt > 0 {
                stats.retries += 1;
                // 2ms, 4ms, 8ms… capped at 64ms, plus up to 100% jitter
                // to decorrelate the retrying connections.
                let base = 2u64 << attempt.min(5);
                std::thread::sleep(Duration::from_millis(base + rng.next() % base));
            }
            let Some((writer, reader)) = conn.as_mut() else {
                conn = connect(addr).ok();
                continue;
            };
            match post(writer, reader, &item.path, &item.body) {
                Ok((200, body)) => {
                    stats.latencies_us.push((
                        i % items.len(),
                        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                    ));
                    if body != item.expected {
                        stats.mismatches += 1;
                        eprintln!(
                            "MISMATCH on {}: daemon response differs from CLI",
                            item.label
                        );
                    }
                    done = true;
                    break;
                }
                Ok((429, _)) => stats.sheds += 1,
                Ok((500 | 503, _)) => stats.server_errors += 1,
                Ok((status, body)) => {
                    // Anything else (4xx on a well-formed request) is a
                    // contract violation, not a transient — don't retry.
                    stats.failures += 1;
                    eprintln!("unexpected {status} on {}: {}", item.label, body.trim_end());
                    done = true;
                    break;
                }
                Err(_) => {
                    // Truncated or dropped response: the connection state
                    // is unknowable, so abandon it and reconnect.
                    stats.transport_errors += 1;
                    conn = None;
                }
            }
        }
        if !done {
            stats.failures += 1;
            eprintln!(
                "GAVE UP on {} after {CHAOS_MAX_ATTEMPTS} attempts",
                item.label
            );
        }
    }
    stats
}

fn drive_connection(addr: &str, items: &[WorkItem], requests: usize) -> ConnStats {
    let mut stats = ConnStats::new(requests);
    let Ok((mut writer, mut reader)) = connect(addr) else {
        return ConnStats::all_failed(requests);
    };
    for i in 0..requests {
        let item = &items[i % items.len()];
        let started = Instant::now();
        match post(&mut writer, &mut reader, &item.path, &item.body) {
            Ok((200, body)) => {
                stats.latencies_us.push((
                    i % items.len(),
                    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                ));
                if body != item.expected {
                    stats.mismatches += 1;
                    eprintln!(
                        "MISMATCH on {}: daemon response differs from CLI",
                        item.label
                    );
                }
            }
            Ok((429, _)) => stats.failures += 1, // shed under overload: expected behavior
            Ok((status, body)) => {
                stats.failures += 1;
                eprintln!("unexpected {status} on {}: {}", item.label, body.trim_end());
            }
            Err(e) => {
                stats.failures += 1;
                eprintln!("transport error on {}: {e}", item.label);
                return stats;
            }
        }
    }
    stats
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * (sorted_us.len() - 1) as f64).round() as usize;
    sorted_us[rank] as f64 / 1000.0
}

/// Prints one latency histogram per workload endpoint, bucketed on the
/// same logarithmic bounds the daemon uses for `ermesd_request_seconds`
/// ([`ermesd::metrics::LATENCY_BUCKETS`]) so the client-side view lines
/// up with a `/metrics` scrape. Empty buckets are elided.
fn print_endpoint_histograms(items: &[WorkItem], stats: &[ConnStats]) {
    const BUCKETS: [f64; 14] = ermesd::metrics::LATENCY_BUCKETS;
    for (index, item) in items.iter().enumerate() {
        let mut counts = [0u64; BUCKETS.len() + 1];
        let mut total = 0u64;
        let mut sum_us = 0u64;
        for &(i, us) in stats.iter().flat_map(|s| &s.latencies_us) {
            if i != index {
                continue;
            }
            let seconds = us as f64 / 1e6;
            let bucket = BUCKETS
                .iter()
                .position(|&b| seconds <= b)
                .unwrap_or(BUCKETS.len());
            counts[bucket] += 1;
            total += 1;
            sum_us += us;
        }
        if total == 0 {
            continue;
        }
        println!(
            "       {:<16} {total} ok, mean {:.2} ms",
            item.label,
            sum_us as f64 / total as f64 / 1000.0
        );
        let widest = counts.iter().copied().max().unwrap_or(1).max(1);
        for (bucket, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let le = if bucket < BUCKETS.len() {
                format!("{:>8.4}", BUCKETS[bucket])
            } else {
                "    +Inf".into()
            };
            let bar = "#".repeat((count * 32).div_ceil(widest) as usize);
            println!("         le={le}s {count:>5}  {bar}");
        }
    }
}

/// One GET on its own connection; the response body as text.
fn get(addr: &str, path: &str) -> std::io::Result<String> {
    let response = bench::fleet::exchange(addr, "GET", path, b"")?;
    String::from_utf8(response.body).map_err(|_| std::io::Error::other("non-UTF-8 body"))
}

/// Scrapes `/metrics` and prints the engine's per-phase time split
/// (`ermes_phase_seconds_sum`/`_count`): where the daemon actually spent
/// the workload's compute, as opposed to the client-side request
/// latencies above. Degrades to a notice if the scrape fails (e.g. a
/// remote daemon built without tracing).
fn print_phase_report(addr: &str) {
    let body = match get(addr, "/metrics") {
        Ok(body) => body,
        Err(e) => {
            println!("\nno per-phase report: /metrics scrape failed ({e})");
            return;
        }
    };
    let mut phases: Vec<(String, f64, u64)> = Vec::new();
    for line in body.lines() {
        let Some(rest) = line.strip_prefix("ermes_phase_seconds_sum{phase=\"") else {
            continue;
        };
        let Some((phase, sum)) = rest.split_once("\"} ") else {
            continue;
        };
        let count = body
            .lines()
            .find_map(|l| {
                l.strip_prefix(&format!("ermes_phase_seconds_count{{phase=\"{phase}\"}} "))
            })
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if let Ok(sum) = sum.parse::<f64>() {
            phases.push((phase.to_string(), sum, count));
        }
    }
    if phases.is_empty() {
        println!("\nno per-phase report: daemon exported no ermes_phase_seconds");
        return;
    }
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\ndaemon-side phase totals (ermes_phase_seconds from /metrics):");
    println!("  phase            count     total[s]      mean[ms]");
    for (phase, sum, count) in phases {
        println!(
            "  {phase:<14} {count:>7} {sum:>12.3} {:>13.4}",
            if count == 0 {
                f64::NAN
            } else {
                sum * 1000.0 / count as f64
            }
        );
    }
}

/// Asserts the structured `/healthz` contract: the first line is
/// exactly `ok`, and every per-component line is present and parseable
/// (`workers: A/B alive`, `worker restarts: N`, `sessions live: N`,
/// `queue depth: N`). Scripts and cluster coordinators rely on these
/// shapes, so the load test pins them. Retries a few times — under
/// `--chaos` a fault-injected short write can truncate any response.
fn assert_structured_healthz(addr: &str) {
    let mut last_err = String::new();
    for _ in 0..10 {
        match get(addr, "/healthz") {
            Ok(body) => {
                assert_eq!(
                    body.lines().next(),
                    Some("ok"),
                    "healthz first line must be exactly `ok`:\n{body}"
                );
                let component = |prefix: &str| -> String {
                    body.lines()
                        .find_map(|l| l.strip_prefix(prefix))
                        .unwrap_or_else(|| panic!("healthz misses `{prefix}`:\n{body}"))
                        .to_string()
                };
                let workers = component("workers: ");
                let (alive, total) = workers
                    .trim_end_matches(" alive")
                    .split_once('/')
                    .expect("workers line is A/B alive");
                let alive: u64 = alive.parse().expect("alive count is numeric");
                let total: u64 = total.parse().expect("worker count is numeric");
                assert!(alive <= total, "alive workers bounded by pool size");
                let _: u64 = component("worker restarts: ")
                    .parse()
                    .expect("restart count is numeric");
                let _: u64 = component("sessions live: ")
                    .parse()
                    .expect("session count is numeric");
                let _: u64 = component("queue depth: ")
                    .parse()
                    .expect("queue depth is numeric");
                // `trace: journal L/C, flight N retained, M dropped`
                let tr = component("trace: journal ");
                let (journal, flight) = tr.split_once(", flight ").expect("trace line has flight");
                let (live, cap) = journal.split_once('/').expect("journal occupancy is L/C");
                let live: u64 = live.parse().expect("journal live count is numeric");
                let cap: u64 = cap.parse().expect("journal capacity is numeric");
                assert!(live <= cap, "journal occupancy bounded by capacity");
                let (retained, dropped) = flight
                    .split_once(" retained, ")
                    .expect("flight component is `N retained, M dropped`");
                let _: u64 = retained.parse().expect("flight retained count is numeric");
                let _: u64 = dropped
                    .strip_suffix(" dropped")
                    .expect("flight line ends in `dropped`")
                    .parse()
                    .expect("flight dropped count is numeric");
                println!("healthz structured: {total} workers ({alive} alive)");
                return;
            }
            Err(e) => last_err = e.to_string(),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("healthz unreachable after retries: {last_err}");
}

fn run_phase(
    name: &str,
    addr: &str,
    items: &[WorkItem],
    connections: usize,
    requests: usize,
    chaos: bool,
) {
    let started = Instant::now();
    let stats: Vec<ConnStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|id| {
                scope.spawn(move || {
                    if chaos {
                        drive_connection_chaos(addr, items, requests, id as u64)
                    } else {
                        drive_connection(addr, items, requests)
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = stats
        .iter()
        .flat_map(|s| s.latencies_us.iter().map(|&(_, us)| us))
        .collect();
    latencies.sort_unstable();
    let ok = latencies.len();
    let mismatches: usize = stats.iter().map(|s| s.mismatches).sum();
    let failures: usize = stats.iter().map(|s| s.failures).sum();
    println!(
        "{name:<5}  {ok:>5}  {failures:>6}  {:>9.1}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}",
        ok as f64 / wall,
        percentile(&latencies, 50.0),
        percentile(&latencies, 90.0),
        percentile(&latencies, 99.0),
        latencies.last().map_or(f64::NAN, |&l| l as f64 / 1000.0),
    );
    if chaos {
        let retries: usize = stats.iter().map(|s| s.retries).sum();
        let server_errors: usize = stats.iter().map(|s| s.server_errors).sum();
        let sheds: usize = stats.iter().map(|s| s.sheds).sum();
        let transport: usize = stats.iter().map(|s| s.transport_errors).sum();
        println!(
            "       chaos: {retries} retries ({server_errors} 5xx, {sheds} 429, \
             {transport} truncated/dropped), {ok}/{} eventually ok",
            connections * requests
        );
        print_endpoint_histograms(items, &stats);
        assert_eq!(
            failures, 0,
            "under chaos every request must eventually succeed"
        );
    }
    assert_eq!(
        mismatches, 0,
        "daemon responses must match the CLI bit for bit"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let connections: usize = flag(&args, "--connections").map_or(8, |s| {
        s.parse().expect("--connections takes a positive integer")
    });
    let requests: usize = flag(&args, "--requests").map_or(24, |s| {
        s.parse().expect("--requests takes a positive integer")
    });
    let workers = parx::parse_jobs("--workers", flag(&args, "--workers").as_deref(), 0)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
    let chaos = args.iter().any(|a| a == "--chaos");

    println!("building workload (mpeg2sys + socgen, expected outputs via direct commands)…");
    let items = build_workload();

    let (addr, server_thread) = match flag(&args, "--addr") {
        Some(addr) => (addr, None),
        None => {
            if chaos && std::env::var(parx::faultpoint::FAULTPOINTS_ENV).is_err() {
                parx::faultpoint::activate(DEFAULT_CHAOS_PLAN).expect("default plan parses");
            }
            let server = Server::start(ServerConfig {
                workers,
                ..ServerConfig::default()
            })
            .expect("bind ephemeral port");
            let addr = server.addr().to_string();
            let handle = std::thread::spawn(move || server.run());
            (addr, Some(handle))
        }
    };
    if chaos {
        match server_thread {
            Some(_) => println!(
                "chaos mode: retrying client, fault plan {}",
                std::env::var(parx::faultpoint::FAULTPOINTS_ENV)
                    .unwrap_or_else(|_| DEFAULT_CHAOS_PLAN.into())
            ),
            None => println!(
                "chaos mode: retrying client (fault plan is the remote daemon's {})",
                parx::faultpoint::FAULTPOINTS_ENV
            ),
        }
    }
    println!(
        "target {addr}: {connections} connections x {requests} requests, {} workers\n",
        if workers == 0 {
            "all".to_string()
        } else {
            workers.to_string()
        }
    );
    println!("phase     ok  failed  req/s      p50[ms]   p90[ms]   p99[ms]   max[ms]");
    run_phase("cold", &addr, &items, connections, requests, chaos);
    run_phase("warm", &addr, &items, connections, requests, chaos);
    assert_structured_healthz(&addr);
    print_phase_report(&addr);

    if let Some(handle) = server_thread {
        // Under chaos the shutdown reply itself may be cut short; the
        // drain still happens, and the join below is the assertion.
        let _ = bench::fleet::exchange(&addr, "POST", "/shutdown", b"");
        handle
            .join()
            .expect("server thread")
            .expect("server drains cleanly");
        println!("\nserver drained cleanly");
    }
}
