//! The `ermes` command-line tool.

use ermes_cli::{
    cmd_analyze, cmd_buffers, cmd_dot, cmd_explore, cmd_fsm, cmd_order, cmd_refine,
    cmd_simulate_traced, cmd_stalls, cmd_sweep, cmd_verify, parse_spec,
};

const USAGE: &str = "\
ermes — compositional HLS methodology (DAC'14 reproduction)

USAGE:
    ermes analyze  <spec.json>
    ermes verify   <spec.json>
    ermes order    <spec.json> [--out <file>]
    ermes refine   <spec.json> [--passes <n>] [--out <file>]
    ermes sweep    <spec.json> --targets <a,b,c> [--jobs <n>]
    ermes explore  <spec.json> --target <cycles> [--out <file>]
    ermes buffers  <spec.json> --target <cycles> [--budget <slots>]
    ermes simulate <spec.json> [--iterations <n>] [--vcd <file>]
    ermes stalls   <spec.json> [--iterations <n>]
    ermes dot      <spec.json>
    ermes fsm      <spec.json> <process>
    ermes serve    [--addr <host:port>] [--workers <n>] [--queue <n>]
                   [--coordinator]  (then --workers lists host:port peers)
    ermes top      [host:port] [--slow <n>]

`--jobs <n>` spreads the sweep's targets over worker threads (0 = all
hardware threads, default 1); results are bit-identical at any value.
`serve` runs the analysis daemon (see the `ermesd` crate): POST
/analyze, /order, /explore?target=N, /sweep?targets=a,b,c, /verify;
GET /healthz, /metrics, /trace, /trace/slow. `top` summarizes a
running daemon: per-phase time from /metrics (per node when the daemon
is a cluster coordinator federating its workers) plus the flight
recorder's retained slow/errored/degraded requests from /trace/slow.
`verify` certifies the spec deadlock-free (exact steady-state period,
cross-checked against the spectral analysis) or refutes it with a
concrete counterexample trace.

Every analysis command also accepts:
    --trace-out <file>        write a Chrome-trace JSON of the run (open
                              in chrome://tracing or ui.perfetto.dev)
    --trace-out-folded <file> write collapsed stacks (`a;b;c weight_ns`
                              lines) for flamegraph tooling
    --trace-summary           print per-phase time, cache hit rate, ILP
                              solver counters (solves, nodes), and the
                              slowest SCCs after the output

Tracing stays off (a single atomic check per engine phase) unless one of
the flags is given; results are bit-identical either way.
";

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let defaults = ermesd::ServerConfig::default();
    // `--coordinator` repurposes `--workers` as the fleet address list,
    // mirroring the standalone `ermesd` binary.
    let (workers, cluster) = if args.iter().any(|a| a == "--coordinator") {
        let list = flag(args, "--workers")
            .ok_or("--coordinator requires --workers <host:port,host:port,...>")?;
        let addrs: Vec<String> = list
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect();
        if addrs.is_empty() || addrs.iter().any(|a| !a.contains(':')) {
            return Err(
                "--workers must list host:port worker addresses in coordinator mode".into(),
            );
        }
        (0, Some(ermesd::ClusterConfig::new(addrs)))
    } else {
        (
            parx::parse_jobs("--workers", flag(args, "--workers").as_deref(), 0)?,
            None,
        )
    };
    let config = ermesd::ServerConfig {
        addr: flag(args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into()),
        workers,
        cluster,
        queue_capacity: flag(args, "--queue").map_or(Ok(defaults.queue_capacity), |s| {
            s.parse().map_err(|_| "--queue takes a positive integer")
        })?,
        ..defaults
    };
    let server = ermesd::Server::start(config)?;
    println!("ermesd listening on http://{}", server.addr());
    server.run()?;
    println!("ermesd drained and stopped");
    Ok(())
}

/// One blocking `GET` against a daemon, over the same hand-rolled
/// HTTP/1.1 client the coordinator uses for its workers.
fn http_get(addr: &str, target: &str) -> Result<(u16, String), Box<dyn std::error::Error>> {
    let stream = std::net::TcpStream::connect(addr)?;
    let timeout = Some(std::time::Duration::from_secs(5));
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    let mut writer = stream.try_clone()?;
    ermesd::http::write_request(
        &mut writer,
        "GET",
        target,
        &[("host", addr.to_string())],
        &[],
    )?;
    let response =
        ermesd::http::read_response(&mut std::io::BufReader::new(stream), 16 * 1024 * 1024)?;
    Ok((
        response.status,
        String::from_utf8_lossy(&response.body).into_owned(),
    ))
}

/// `ermes top`: summarize a running daemon — per-phase engine time from
/// `/metrics` (per node when the daemon is a coordinator federating its
/// workers) and the flight recorder's retained requests from
/// `/trace/slow`.
fn top(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let addr = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:7878".into());
    let slow_n: usize = flag(args, "--slow").map_or(Ok(8), |s| s.parse())?;

    let (status, metrics) = http_get(&addr, "/metrics")?;
    if status != 200 {
        return Err(format!("GET /metrics returned {status}").into());
    }
    // (node, phase) -> (sum seconds, count); the coordinator's own
    // samples carry no `node` label, federated worker samples do.
    let mut phases: std::collections::BTreeMap<(String, String), (f64, u64)> =
        std::collections::BTreeMap::new();
    for line in metrics.lines() {
        let (suffix, is_sum) = if let Some(rest) = line.strip_prefix("ermes_phase_seconds_sum{") {
            (rest, true)
        } else if let Some(rest) = line.strip_prefix("ermes_phase_seconds_count{") {
            (rest, false)
        } else {
            continue;
        };
        let Some((labels, value)) = suffix.split_once("} ") else {
            continue;
        };
        let mut node = String::from("(coordinator)");
        let mut phase = String::new();
        for label in labels.split(',') {
            if let Some((k, v)) = label.split_once('=') {
                let v = v.trim_matches('"').to_string();
                match k {
                    "node" => node = v,
                    "phase" => phase = v,
                    _ => {}
                }
            }
        }
        if phase.is_empty() {
            continue;
        }
        let entry = phases.entry((node, phase)).or_insert((0.0, 0));
        if is_sum {
            entry.0 = value.parse().unwrap_or(0.0);
        } else {
            entry.1 = value.parse().unwrap_or(0);
        }
    }
    println!("{addr} — engine phases");
    if phases.is_empty() {
        println!("  (no phase samples yet — run a traced or load-bearing request first)");
    } else {
        println!(
            "  {:<22} {:<16} {:>8} {:>12} {:>10}",
            "node", "phase", "count", "total", "mean"
        );
        for ((node, phase), (sum, count)) in &phases {
            let mean_ms = if *count > 0 {
                sum * 1e3 / *count as f64
            } else {
                0.0
            };
            println!("  {node:<22} {phase:<16} {count:>8} {sum:>11.3}s {mean_ms:>8.2}ms");
        }
    }

    let (status, slow) = http_get(&addr, &format!("/trace/slow?n={slow_n}"))?;
    if status != 200 {
        return Err(format!("GET /trace/slow returned {status}").into());
    }
    println!("\nflight recorder — retained requests (newest {slow_n})");
    let mut any = false;
    // The body is `[{"seq":N,"reason":"...","tree":{...}},...]`; pick
    // out each entry's seq, reason, and root name/duration without a
    // full JSON parse — the daemon emits these fields in fixed order.
    for chunk in slow.split("{\"seq\":").skip(1) {
        let seq: &str = chunk
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap_or("?");
        let reason = field_after(chunk, "\"reason\":\"").unwrap_or("?");
        let name = field_after(chunk, "\"name\":\"").unwrap_or("?");
        let duration_ms = field_after(chunk, "\"duration_ns\":")
            .and_then(|v| v.parse::<f64>().ok())
            .map_or(0.0, |ns| ns / 1e6);
        println!("  #{seq:<6} {reason:<10} {name:<16} {duration_ms:>10.2}ms");
        any = true;
    }
    if !any {
        println!("  (none retained — no slow, errored, degraded, or retried requests)");
    }
    Ok(())
}

/// The run of non-delimiter characters right after `key` in `text`
/// (stops at `"`, `,`, or `}`).
fn field_after<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let rest = &text[text.find(key)? + key.len()..];
    Some(rest.split(['"', ',', '}']).next().unwrap_or(rest))
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("serve") {
        return serve(&args);
    }
    if args.first().map(String::as_str) == Some("top") {
        return top(&args);
    }
    let (Some(command), Some(path)) = (args.first(), args.get(1)) else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let trace_out = flag(&args, "--trace-out");
    let trace_out_folded = flag(&args, "--trace-out-folded");
    let trace_summary = args.iter().any(|a| a == "--trace-summary");
    if trace_out.is_some() || trace_out_folded.is_some() || trace_summary {
        trace::set_enabled(true);
    }
    let command_span = trace::span("command");
    trace::attr("cmd", command.as_str());
    let text = std::fs::read_to_string(path)?;
    let spec = parse_spec(&text)?;
    match command.as_str() {
        "analyze" => print!("{}", cmd_analyze(&spec)?),
        "verify" => print!("{}", cmd_verify(&spec)?),
        "order" => {
            let (report, json) = cmd_order(&spec)?;
            print!("{report}");
            match flag(&args, "--out") {
                Some(out) => std::fs::write(out, json)?,
                None => println!("{json}"),
            }
        }
        "explore" => {
            let target: u64 = flag(&args, "--target")
                .ok_or("explore requires --target <cycles>")?
                .parse()?;
            let (report, json) = cmd_explore(&spec, target)?;
            print!("{report}");
            if let Some(out) = flag(&args, "--out") {
                std::fs::write(out, json)?;
            }
        }
        "buffers" => {
            let target: u64 = flag(&args, "--target")
                .ok_or("buffers requires --target <cycles>")?
                .parse()?;
            let budget: u64 = flag(&args, "--budget").map_or(Ok(4), |s| s.parse())?;
            print!("{}", cmd_buffers(&spec, target, budget)?);
        }
        "simulate" => {
            let iterations: u64 = flag(&args, "--iterations").map_or(Ok(200), |s| s.parse())?;
            let vcd_path = flag(&args, "--vcd");
            let (report, vcd) = cmd_simulate_traced(&spec, iterations, vcd_path.is_some())?;
            print!("{report}");
            if let Some(path) = vcd_path {
                std::fs::write(path, vcd)?;
            }
        }
        "refine" => {
            let passes: usize = flag(&args, "--passes").map_or(Ok(8), |s| s.parse())?;
            let (report, json) = cmd_refine(&spec, passes)?;
            print!("{report}");
            if let Some(out) = flag(&args, "--out") {
                std::fs::write(out, json)?;
            }
        }
        "sweep" => {
            let targets: Vec<u64> = flag(&args, "--targets")
                .ok_or("sweep requires --targets <a,b,c>")?
                .split(',')
                .map(|t| t.trim().parse())
                .collect::<Result<_, _>>()?;
            let jobs = parx::parse_jobs("--jobs", flag(&args, "--jobs").as_deref(), 1)?;
            print!("{}", cmd_sweep(&spec, &targets, jobs)?);
        }
        "stalls" => {
            let iterations: u64 = flag(&args, "--iterations").map_or(Ok(200), |s| s.parse())?;
            print!("{}", cmd_stalls(&spec, iterations)?);
        }
        "dot" => print!("{}", cmd_dot(&spec)?),
        "fsm" => {
            let process = args.get(2).ok_or("fsm requires a process name")?;
            print!("{}", cmd_fsm(&spec, process)?);
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
    // Close the root span before exporting so the command's own tree is
    // complete in the journal.
    drop(command_span);
    if let Some(out) = trace_out {
        std::fs::write(out, trace::chrome_trace())?;
    }
    if let Some(out) = trace_out_folded {
        std::fs::write(out, trace::folded_trace(trace::DEFAULT_JOURNAL_CAPACITY))?;
    }
    if trace_summary {
        print!("\n{}", trace::summary_report());
        let ilp = ilp::stats();
        if ilp.solves > 0 {
            println!("ilp solver: {} solves, {} nodes", ilp.solves, ilp.nodes);
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
