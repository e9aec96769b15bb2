//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--experiment <id>] [--jobs <n>]
//! ```
//!
//! Ids: `fig2`, `fig2b`, `fig3`, `fig4`, `orders`, `table1`, `m1`,
//! `fig6-timing`, `fig6-area`, `scalability`, `scale`, `phases`,
//! `incremental`, `verify`, `cluster`, `tracecluster`, `pipeline`, or
//! `all` (default). `--jobs` sets the worker-thread count of the parallel
//! part of E9 (`0` = all hardware threads, the default). See
//! EXPERIMENTS.md for the paper-versus-measured record.

use bench::experiments;
use ermes::StepAction;

fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn run_fig2() {
    banner("E1 / Fig. 2(a) — motivating example: deadlock and ordering");
    let r = experiments::fig2();
    println!(
        "ordering space              : {} (paper: 36)",
        r.ordering_space
    );
    println!(
        "Section-2 ordering          : {} (paper: deadlock)",
        if r.deadlock_order_deadlocks {
            "deadlock"
        } else {
            "live"
        }
    );
    println!(
        "cycle-accurate simulation   : {}",
        if r.simulation_stalls {
            "stalls"
        } else {
            "runs"
        }
    );
    println!(
        "suboptimal ordering CT      : {} (paper: 20)",
        r.suboptimal_cycle_time
    );
    println!(
        "optimal ordering CT         : {} (paper: 12, 40% better)",
        r.optimal_cycle_time
    );
}

fn run_fig2b() {
    banner("E2 / Fig. 2(b) — the FSM a commercial HLS tool generates for P2");
    println!("{}", experiments::fig2b());
}

fn run_fig3() {
    banner("E3 / Fig. 3 — TMG model of the motivating system");
    let r = experiments::fig3();
    println!(
        "transitions                 : {} (7 processes + 8 channels)",
        r.transitions
    );
    println!("places                      : {}", r.places);
    println!(
        "initial tokens              : {} (one per process)",
        r.initial_tokens
    );
    println!(
        "places feeding channel b    : {} (its put-place and get-place)",
        r.channel_b_feed_count
    );
}

fn run_fig4() {
    banner("E4 / Fig. 4 — channel-ordering algorithm on the example");
    let r = experiments::fig4();
    println!(
        "head weights (e, d, g)      : {:?} (paper: (19, 13, 17))",
        r.head_weights_e_d_g
    );
    println!(
        "tail weights (b, d, f)      : {:?} (paper: (16, 10, 13))",
        r.tail_weights_b_d_f
    );
    println!(
        "P6 get order                : {:?} (paper: d, g, e)",
        r.p6_gets
    );
    println!(
        "P2 put order                : {:?} (paper: b, f, d)",
        r.p2_puts
    );
    println!(
        "algorithm cycle time        : {} (paper: 12)",
        r.algorithm_cycle_time
    );
    println!(
        "exhaustive optimum          : {} over all 36 orderings",
        r.exhaustive_optimum
    );
    println!(
        "improvement vs suboptimal   : {:.1}% (paper: 40%)",
        r.improvement_percent
    );
}

fn run_orders() {
    banner("E10 — ordering-space formula");
    let ex = sysgraph::MotivatingExample::new();
    println!(
        "Π (|in(p)|! · |out(p)|!)    : {} (paper: 36)",
        ex.system.ordering_space()
    );
    let (_, topo) = mpeg2sys::mpeg2_design();
    println!(
        "same formula on the MPEG-2  : {} orderings",
        topo.system.ordering_space()
    );
}

fn run_table1() {
    banner("E5 / Table 1 — MPEG-2 encoder experimental setup");
    println!("{}", mpeg2sys::Table1::measure());
    println!("(paper: 26 processes, 60 channels, 171 Pareto points, 352x240)");
}

fn run_m1() {
    banner("E6 — M1: channel reordering only");
    let r = experiments::m1_reordering();
    println!(
        "CT before (conservative)    : {:.1} KCycles",
        r.before.to_f64() / 1e3
    );
    println!(
        "CT after reordering         : {:.1} KCycles",
        r.after.to_f64() / 1e3
    );
    println!(
        "improvement                 : {:.1}% at constant area {:.3} mm2",
        r.improvement_percent, r.area
    );
    println!(
        "random statement orders     : {}/40 deadlock the encoder",
        r.random_orders_deadlocking
    );
    println!("(paper: 5% CT improvement, no area change — see EXPERIMENTS.md)");
}

fn action_name(a: StepAction) -> &'static str {
    match a {
        StepAction::Initial => "initial",
        StepAction::TimingOptimization => "timing-optimization",
        StepAction::AreaRecovery => "area-recovery",
        StepAction::Converged => "converged",
    }
}

fn run_fig6(target_kcycles: u64, label: &str, paper: &str) {
    banner(label);
    let trace = experiments::fig6(target_kcycles);
    println!("iter  action               CT [KCycles]   area [mm2]  meets");
    for r in &trace.iterations {
        println!(
            "{:>4}  {:<20} {:>12.1} {:>12.3}  {}",
            r.index,
            action_name(r.action),
            r.cycle_time.to_f64() / 1e3,
            r.area,
            if r.meets_target { "yes" } else { "no" }
        );
    }
    println!(
        "best point (iteration {})   : CT {:.1} KCycles, area {:.3} mm2",
        trace.best_index,
        trace.best().cycle_time.to_f64() / 1e3,
        trace.best().area
    );
    println!(
        "speed-up {:.2}x, area change {:+.2}%   ({paper})",
        trace.speedup(),
        100.0 * trace.area_change()
    );
    println!(
        "{}",
        ermes::render_trace(&trace, target_kcycles * 1_000, 12)
    );
}

fn run_sweep() {
    banner("System-level Pareto front of the MPEG-2 (multi-target sweep)");
    println!("target [KC]   best CT [KC]   area [mm2]  meets");
    for p in experiments::mpeg2_sweep() {
        println!(
            "{:>11.0}   {:>12.1}   {:>10.3}  {}",
            p.target_cycle_time as f64 / 1e3,
            p.cycle_time.to_f64() / 1e3,
            p.area,
            if p.meets_target { "yes" } else { "no" }
        );
    }
    let (slow, fast) = experiments::motivating_stalls();
    println!(
        "
stall cycles on the motivating example (200 iterations):"
    );
    println!("  suboptimal ordering: {slow}");
    println!(
        "  optimal ordering   : {fast} ({:.1}% less waiting)",
        100.0 * (slow - fast) as f64 / slow as f64
    );
}

fn run_ablation() {
    banner("Ablation — design-choice studies (DESIGN.md §7)");
    let r = experiments::ablation();
    println!(
        "tie-break (symmetric systems, {} trials):",
        r.symmetric_trials
    );
    println!(
        "  paper's timestamp rule    : {} deadlocks",
        r.timestamp_deadlocks
    );
    println!(
        "  adversarial tie resolution: {} deadlocks",
        r.adversarial_deadlocks
    );
    println!("in-loop reordering (M2 timing exploration, best CT):");
    println!(
        "  with reordering           : {:.1} KCycles",
        r.explore_with_reorder / 1e3
    );
    println!(
        "  without reordering        : {:.1} KCycles",
        r.explore_without_reorder / 1e3
    );
    println!("buffer sizing on M1 (one extra FIFO slot):");
    println!(
        "  deepen `{}`: CT {:.1}K -> {:.1}K",
        r.buffer_channel,
        r.buffer_before / 1e3,
        r.buffer_after / 1e3
    );
}

fn run_scalability(jobs: usize) {
    banner("E9 — scalability on synthetic SoCs (feedback + reconvergence)");
    println!("processes  channels  ordering[ms]  analysis[ms]  exploration[ms]");
    for row in experiments::scalability(&[100, 500, 1_000, 5_000, 10_000]) {
        println!(
            "{:>9}  {:>8}  {:>12.1}  {:>12.1}  {:>15.1}",
            row.processes, row.channels, row.ordering_ms, row.analysis_ms, row.exploration_ms
        );
    }
    println!("(paper: \"a few minutes in the worst cases\" at 10,000/15,000)");

    println!("\nmulti-target Pareto sweep, seed engine vs memoized engine (12-target ladder):");
    println!(
        "processes  channels  jobs  seed[ms]  cold[ms]  warm[ms]  cold-spd  warm-spd  identical  cache-hit"
    );
    for row in experiments::parallel_sweep(&[250, 1_000, 5_000], jobs) {
        println!(
            "{:>9}  {:>8}  {:>4}  {:>8.1}  {:>8.1}  {:>8.1}  {:>7.2}x  {:>7.2}x  {:>9}  {:>8.0}%",
            row.processes,
            row.channels,
            row.jobs,
            row.serial_ms,
            row.parallel_ms,
            row.resweep_ms,
            row.speedup,
            row.resweep_speedup,
            if row.identical { "yes" } else { "NO" },
            row.analysis_hit_rate * 100.0,
        );
    }
    println!("(seed = serial, unmemoized; cold = shared cache, first sweep; warm = re-sweep");
    println!(" against the filled cache, the iterative-DSE case; fronts compared with exact");
    println!(" Ratio equality; hit-rate is the analysis cache over both engine runs)");
}

fn scale_json(jobs: usize, baseline_cap: usize, rows: &[experiments::ScaleRow]) -> String {
    fn opt(v: Option<f64>) -> String {
        v.map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
    }
    let mut out = String::from("{\n  \"experiment\": \"E19\",\n");
    out.push_str(&format!("  \"jobs\": {},\n", parx::resolve_jobs(jobs)));
    out.push_str(&format!("  \"baseline_cap\": {baseline_cap},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"processes\": {},\n", row.processes));
        out.push_str(&format!("      \"channels\": {},\n", row.channels));
        out.push_str(&format!("      \"ordering_ms\": {:.3},\n", row.ordering_ms));
        out.push_str(&format!("      \"analysis_ms\": {:.3},\n", row.analysis_ms));
        out.push_str(&format!(
            "      \"baseline_ms\": {},\n",
            opt(row.baseline_ms)
        ));
        out.push_str(&format!("      \"cold_ms\": {:.3},\n", row.cold_ms));
        out.push_str(&format!("      \"warm_ms\": {:.3},\n", row.warm_ms));
        out.push_str(&format!(
            "      \"cold_speedup\": {},\n",
            opt(row.cold_speedup)
        ));
        out.push_str(&format!(
            "      \"warm_speedup\": {},\n",
            opt(row.warm_speedup)
        ));
        out.push_str(&format!("      \"identical\": {},\n", row.identical));
        out.push_str(&format!("      \"peak_rss_mb\": {:.1},\n", row.peak_rss_mb));
        out.push_str(&format!("      \"rss_mb\": {:.1}\n", row.rss_mb));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// E19: the paper's 10k-process benchmark as a first-class perf ladder
/// (soc:1k → soc:10k). Each rung runs ordering, analysis, and the
/// 12-target Pareto sweep cold and warm; the seed-engine baseline
/// (serial, unmemoized) runs on the rungs below `BASELINE_CAP` so the
/// speedup is measured in the same run it gates.
fn run_scale(jobs: usize) {
    banner("E19 — flat-graph scale ladder: soc:1k → soc:10k, cold + warm sweep, peak RSS");
    const BASELINE_CAP: usize = 2_500;
    let sizes = [1_000, 2_500, 5_000, 10_000];
    let rows = experiments::scale_ladder(&sizes, jobs, BASELINE_CAP);
    println!(
        "processes  channels  order[ms]  howard[ms]  seed[ms]  cold[ms]  warm[ms]  cold-spd  warm-spd  identical  peakRSS[MiB]"
    );
    for row in &rows {
        let fmt_opt = |v: Option<f64>, w: usize, suffix: &str| {
            v.map_or_else(
                || format!("{:>w$}", "-", w = w + suffix.len()),
                |v| format!("{v:>w$.1}{suffix}"),
            )
        };
        println!(
            "{:>9}  {:>8}  {:>9.1}  {:>10.1}  {}  {:>8.1}  {:>8.1}  {} {}  {:>9}  {:>12.1}",
            row.processes,
            row.channels,
            row.ordering_ms,
            row.analysis_ms,
            fmt_opt(row.baseline_ms, 8, ""),
            row.cold_ms,
            row.warm_ms,
            fmt_opt(row.cold_speedup, 7, "x"),
            fmt_opt(row.warm_speedup, 7, "x"),
            if row.identical { "yes" } else { "NO" },
            row.peak_rss_mb,
        );
    }
    assert!(
        rows.iter().all(|r| r.identical),
        "every sweep pair must produce exactly equal fronts"
    );
    let json = scale_json(jobs, BASELINE_CAP, &rows);
    match std::fs::write("BENCH_scale.json", &json) {
        Ok(()) => println!("\nwrote BENCH_scale.json"),
        Err(e) => eprintln!("\ncould not write BENCH_scale.json: {e}"),
    }
    println!("\n(seed = the pre-memoization engine: serial, one independent exploration per");
    println!(" target, skipped above {BASELINE_CAP} processes to bound ladder wall time; cold");
    println!(" = memoized engine on a fresh shared cache; warm = the same ladder replayed");
    println!(" against the filled cache. Peak RSS is VmHWM after the rung — sizes ascend,");
    println!(" so each value is the high-water mark that rung's working set pushed)");
}

/// Hand-rolled JSON for E13's machine-readable record: no serde in the
/// workspace, and the schema is five flat fields per stage.
fn phases_json(targets: &[u64], jobs: usize, rows: &[experiments::PhaseBreakdownRow]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"E13\",\n");
    let targets: Vec<String> = targets.iter().map(ToString::to_string).collect();
    out.push_str(&format!("  \"targets\": [{}],\n", targets.join(", ")));
    out.push_str(&format!("  \"jobs\": {},\n", parx::resolve_jobs(jobs)));
    out.push_str("  \"stages\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"stage\": \"{}\",\n", row.stage));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", row.wall_ms));
        out.push_str(&format!("      \"ilp_ms\": {:.3},\n", row.phase_ms("ilp")));
        out.push_str(&format!("      \"ilp_solves\": {},\n", row.ilp.solves));
        out.push_str(&format!("      \"ilp_nodes\": {}\n", row.ilp.nodes));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_phases(jobs: usize) {
    banner("E13 — per-phase time breakdown, MPEG-2 sweep (seed / cold / warm)");
    let targets = [900_000, 1_200_000, 1_500_000, 1_800_000, 2_400_000];
    println!("targets: {targets:?}, jobs: {}", parx::resolve_jobs(jobs));
    let rows = experiments::phase_breakdown(&targets, jobs);
    for row in &rows {
        println!("\n{} stage — wall {:.1} ms", row.stage, row.wall_ms);
        println!("  phase            count     total[ms]    % of wall");
        for (phase, count, total_ms) in &row.phases {
            println!(
                "  {phase:<14} {count:>7} {total_ms:>13.1} {:>11.1}%",
                100.0 * total_ms / row.wall_ms
            );
        }
        println!(
            "  ilp solver: {} solves, {} nodes",
            row.ilp.solves, row.ilp.nodes
        );
    }
    let json = phases_json(&targets, jobs, &rows);
    match std::fs::write("BENCH_ilp.json", &json) {
        Ok(()) => println!("\nwrote BENCH_ilp.json (solver wall time + counters per stage)"),
        Err(e) => eprintln!("\ncould not write BENCH_ilp.json: {e}"),
    }
    println!("\n(phases nest — howard inside analysis inside a cache probe — and with");
    println!(" jobs > 1 they accumulate across workers, so columns are not additive and");
    println!(" can exceed wall time; the warm stage shows the cache absorbing analysis");
    println!(" and chanorder into sub-millisecond probes, leaving ILP as the one phase");
    println!(" the memo cannot remove)");
}

fn incremental_json(r: &experiments::IncrementalResult) -> String {
    format!(
        "{{\n  \"experiment\": \"E15\",\n  \"system\": \"mpeg2\",\n  \
         \"full_reanalysis_us\": {:.3},\n  \"per_edit_us\": {:.3},\n  \
         \"render_us\": {:.3},\n  \"speedup\": {:.1},\n  \"batches\": {},\n  \
         \"full_iters_per_batch\": {},\n  \"edit_iters_per_batch\": {}\n}}\n",
        r.full_us, r.per_edit_us, r.render_us, r.speedup, r.batches, r.full_iters, r.edit_iters
    )
}

fn run_incremental() {
    banner("E15 — incremental session engine: per-edit latency vs stateless re-analysis");
    let r = experiments::incremental_latency();
    println!("system: MPEG-2 encoder; one process alternated between two Pareto points");
    println!(
        "full stateless pass  : {:>9.1} us  (parse + design + cache key + warm cached analyze + render)",
        r.full_us
    );
    println!(
        "session per-edit     : {:>9.2} us  (dirty-SCC reprice on a live DeltaState)",
        r.per_edit_us
    );
    println!(
        "render from state    : {:>9.2} us  (bottleneck report off the cached analysis)",
        r.render_us
    );
    println!(
        "speedup              : {:>9.1} x  (acceptance bar: 50x)",
        r.speedup
    );
    let json = incremental_json(&r);
    match std::fs::write("BENCH_incremental.json", &json) {
        Ok(()) => println!("\nwrote BENCH_incremental.json"),
        Err(e) => eprintln!("\ncould not write BENCH_incremental.json: {e}"),
    }
    println!(
        "\n(each figure is a median over {} batches — {} stateless / {} edit iterations",
        r.batches, r.full_iters, r.edit_iters
    );
    println!(" per batch — because single-iteration timings at this scale are 10-15% noisy;");
    println!(" the stateless path is measured with its analysis cache warm, so the speedup");
    println!(" is a floor: a cold or evicted cache would widen it)");
}

fn verify_json(sizes: &[usize], rows: &[experiments::VerifyRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E16\",\n");
    out.push_str(&format!("  \"sizes\": {sizes:?},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"processes\": {},\n", row.processes));
        out.push_str(&format!("      \"channels\": {},\n", row.channels));
        out.push_str(&format!("      \"components\": {},\n", row.components));
        out.push_str(&format!("      \"method\": \"{}\",\n", row.method));
        out.push_str(&format!("      \"states\": {},\n", row.states));
        out.push_str(&format!("      \"events\": {},\n", row.events));
        out.push_str(&format!("      \"verify_ms\": {:.3},\n", row.verify_ms));
        out.push_str(&format!("      \"howard_ms\": {:.3},\n", row.howard_ms));
        out.push_str(&format!(
            "      \"bits_identical\": {}\n",
            row.bits_identical
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_verify() {
    banner("E16 — formal certification wall time vs design size (socgen ladder)");
    let sizes = [8, 16, 32, 64, 128];
    let rows = experiments::verify_ladder(&sizes);
    println!(
        "  procs  chans  comps  method      states     events  verify[ms]  howard[ms]  period"
    );
    for row in &rows {
        println!(
            "  {:>5}  {:>5}  {:>5}  {:<9} {:>8} {:>10}  {:>10.2}  {:>10.2}  {}",
            row.processes,
            row.channels,
            row.components,
            row.method,
            row.states,
            row.events,
            row.verify_ms,
            row.howard_ms,
            if row.bits_identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
    }
    assert!(
        rows.iter().all(|r| r.bits_identical),
        "every certified period must match Howard bit for bit"
    );
    let json = verify_json(&sizes, &rows);
    match std::fs::write("BENCH_verify.json", &json) {
        Ok(()) => println!("\nwrote BENCH_verify.json"),
        Err(e) => eprintln!("\ncould not write BENCH_verify.json: {e}"),
    }
    println!("\n(verify = static pass + untimed reachability/k-induction + exact recurrence");
    println!(" extraction; howard = one spectral analysis of the same lowered TMG. The");
    println!(" certifier pays for deadlock *proof* and an exact period, the spectral pass");
    println!(" only for the period — the gap is the price of the certificate)");
}

/// Minimal HTTP client for the cluster experiment: one-shot POST (or
/// GET for `body == None`) on its own connection.
fn cluster_http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    use std::io::{BufRead as _, Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("daemon reachable");
    let _ = stream.set_nodelay(true);
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("request written");
    stream.flush().expect("flushed");
    let mut reader = std::io::BufReader::new(stream);
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
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("numeric content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("complete body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

struct ClusterRow {
    workers: usize,
    wall_s: f64,
    sweeps_per_s: f64,
    speedup: f64,
    bits_identical: bool,
    degraded: u64,
}

fn cluster_json(targets: &[u64], rounds: usize, rows: &[ClusterRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E17\",\n");
    out.push_str("  \"system\": \"socgen-240\",\n");
    out.push_str(&format!("  \"targets\": {targets:?},\n"));
    out.push_str(&format!("  \"rounds\": {rounds},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workers\": {},\n", row.workers));
        out.push_str(&format!("      \"wall_s\": {:.4},\n", row.wall_s));
        out.push_str(&format!(
            "      \"sweeps_per_s\": {:.4},\n",
            row.sweeps_per_s
        ));
        out.push_str(&format!("      \"speedup\": {:.3},\n", row.speedup));
        out.push_str(&format!("      \"degraded_jobs\": {},\n", row.degraded));
        out.push_str(&format!(
            "      \"bits_identical\": {}\n",
            row.bits_identical
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// E17: clustered sweep throughput at 1/2/3/4 workers. Every sweep is
/// cold (distinct socgen seeds per round, same seeds across worker
/// counts) so the fan-out parallelism — not cache warmth — is what the
/// ladder measures, and every clustered response is checked bit for bit
/// against a single-node daemon.
fn run_cluster() {
    banner("E17 — clustered sweep throughput vs worker count (socgen ladder)");
    let targets: Vec<u64> = vec![
        500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
        2_500_000,
    ];
    let path = format!(
        "/sweep?targets={}",
        targets
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    const ROUNDS: usize = 3;
    let specs: Vec<String> = (0..ROUNDS)
        .map(|round| {
            let soc = socgen::generate(socgen::SocGenConfig::sized(240, 360, 1_000 + round as u64));
            let design = ermes::Design::new(soc.system, soc.pareto).expect("well-formed");
            ermesd::SystemSpec::from_design(&design).to_json_pretty()
        })
        .collect();

    // Single-node reference bytes, one per round's design.
    let single = ermesd::Server::start(ermesd::ServerConfig::default()).expect("bind");
    let single_addr = single.addr();
    let single_handle = std::thread::spawn(move || single.run());
    let expected: Vec<String> = specs
        .iter()
        .map(|spec| {
            let (status, body) = cluster_http(single_addr, "POST", &path, spec);
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    let (status, _) = cluster_http(single_addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    single_handle.join().expect("thread").expect("clean drain");

    println!("  workers  wall[s]  sweeps/s  speedup  degraded  identity");
    let mut rows: Vec<ClusterRow> = Vec::new();
    let mut base_wall = f64::NAN;
    for workers in [1usize, 2, 3, 4] {
        let fleet: Vec<(std::net::SocketAddr, _)> = (0..workers)
            .map(|_| {
                let server = ermesd::Server::start(ermesd::ServerConfig {
                    workers: 1,
                    ..ermesd::ServerConfig::default()
                })
                .expect("bind worker");
                let addr = server.addr();
                (addr, std::thread::spawn(move || server.run()))
            })
            .collect();
        let mut cluster =
            ermesd::ClusterConfig::new(fleet.iter().map(|(addr, _)| addr.to_string()).collect());
        cluster.probe_interval_ms = 200;
        let coordinator = ermesd::Server::start(ermesd::ServerConfig {
            cluster: Some(cluster),
            ..ermesd::ServerConfig::default()
        })
        .expect("bind coordinator");
        let coord_addr = coordinator.addr();
        let coord_handle = std::thread::spawn(move || coordinator.run());

        let started = std::time::Instant::now();
        let mut identical = true;
        for (spec, want) in specs.iter().zip(&expected) {
            let (status, body) = cluster_http(coord_addr, "POST", &path, spec);
            assert_eq!(status, 200, "{body}");
            identical &= body == *want;
        }
        let wall = started.elapsed().as_secs_f64();
        let (_, metrics) = cluster_http(coord_addr, "GET", "/metrics", "");
        let degraded = metrics
            .lines()
            .find(|l| l.starts_with("ermes_cluster_degraded_total"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);

        let (status, _) = cluster_http(coord_addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        coord_handle.join().expect("thread").expect("clean drain");
        for (addr, handle) in fleet {
            let (status, _) = cluster_http(addr, "POST", "/shutdown", "");
            assert_eq!(status, 200);
            handle.join().expect("thread").expect("clean drain");
        }

        if workers == 1 {
            base_wall = wall;
        }
        let row = ClusterRow {
            workers,
            wall_s: wall,
            sweeps_per_s: ROUNDS as f64 / wall,
            speedup: base_wall / wall,
            bits_identical: identical,
            degraded,
        };
        println!(
            "  {:>7}  {:>7.2}  {:>8.3}  {:>6.2}x  {:>8}  {}",
            row.workers,
            row.wall_s,
            row.sweeps_per_s,
            row.speedup,
            row.degraded,
            if row.bits_identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
        rows.push(row);
    }
    assert!(
        rows.iter().all(|r| r.bits_identical),
        "every clustered sweep must match the single-node daemon bit for bit"
    );
    let json = cluster_json(&targets, ROUNDS, &rows);
    match std::fs::write("BENCH_cluster.json", &json) {
        Ok(()) => println!("\nwrote BENCH_cluster.json"),
        Err(e) => eprintln!("\ncould not write BENCH_cluster.json: {e}"),
    }
    println!("\n(each round sweeps a fresh design, so caches start cold and the ladder");
    println!(" measures fan-out parallelism; speedup saturates at min(workers, cores,");
    println!(" ladder length). Degraded jobs are subjobs the fleet could not serve that");
    println!(" the coordinator computed locally — nonzero means the run saw faults)");
}

struct TraceClusterRow {
    workers: usize,
    untraced_ms: f64,
    traced_ms: f64,
    overhead_percent: f64,
    stitched_hosts: usize,
    bits_identical: bool,
}

fn tracecluster_json(targets: &[u64], rounds: usize, rows: &[TraceClusterRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"E18\",\n");
    out.push_str("  \"system\": \"socgen-120\",\n");
    out.push_str(&format!("  \"targets\": {targets:?},\n"));
    out.push_str(&format!("  \"rounds\": {rounds},\n"));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workers\": {},\n", row.workers));
        out.push_str(&format!(
            "      \"untraced_ms_per_sweep\": {:.4},\n",
            row.untraced_ms
        ));
        out.push_str(&format!(
            "      \"traced_ms_per_sweep\": {:.4},\n",
            row.traced_ms
        ));
        out.push_str(&format!(
            "      \"overhead_percent\": {:.3},\n",
            row.overhead_percent
        ));
        out.push_str(&format!(
            "      \"stitched_hosts\": {},\n",
            row.stitched_hosts
        ));
        out.push_str(&format!(
            "      \"bits_identical\": {}\n",
            row.bits_identical
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// E18: what distributed tracing costs a clustered sweep. The same
/// in-process fleet serves each sweep twice on warm caches — once with
/// tracing (and therefore span-tree stitching, trailers, clock
/// alignment) disabled process-wide, once enabled — and the row records
/// the per-sweep latency of each, that the response bytes agree, and
/// that the traced runs really stitched worker subtrees (distinct
/// `host` attributes on the coordinator's `/trace`).
fn run_tracecluster() {
    banner("E18 — stitched-trace overhead: traced vs untraced clustered sweeps");
    let targets: Vec<u64> = vec![1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000];
    let path = format!(
        "/sweep?targets={}",
        targets
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    const ROUNDS: usize = 3;
    let specs: Vec<String> = (0..ROUNDS)
        .map(|round| {
            let soc = socgen::generate(socgen::SocGenConfig::sized(120, 180, 2_000 + round as u64));
            let design = ermes::Design::new(soc.system, soc.pareto).expect("well-formed");
            ermesd::SystemSpec::from_design(&design).to_json_pretty()
        })
        .collect();

    println!("  workers  untraced[ms]  traced[ms]  overhead  hosts  identity");
    let mut rows: Vec<TraceClusterRow> = Vec::new();
    for workers in [1usize, 2, 4] {
        let fleet: Vec<(std::net::SocketAddr, _)> = (0..workers)
            .map(|_| {
                let server = ermesd::Server::start(ermesd::ServerConfig {
                    workers: 1,
                    ..ermesd::ServerConfig::default()
                })
                .expect("bind worker");
                let addr = server.addr();
                (addr, std::thread::spawn(move || server.run()))
            })
            .collect();
        let mut cluster =
            ermesd::ClusterConfig::new(fleet.iter().map(|(addr, _)| addr.to_string()).collect());
        cluster.probe_interval_ms = 200;
        let coordinator = ermesd::Server::start(ermesd::ServerConfig {
            cluster: Some(cluster),
            ..ermesd::ServerConfig::default()
        })
        .expect("bind coordinator");
        let coord_addr = coordinator.addr();
        let coord_handle = std::thread::spawn(move || coordinator.run());

        // The span journal is process-global, so clear the previous
        // fleet's grafts before this one records (the host census below
        // must see only this iteration's workers).
        trace::reset();

        // Warm every cache untimed so both timed passes measure the
        // same steady state (sweeps all cache hits, stitching the only
        // variable), then time untraced and traced passes.
        for spec in &specs {
            let (status, body) = cluster_http(coord_addr, "POST", &path, spec);
            assert_eq!(status, 200, "{body}");
        }
        let timed_pass = |on: bool| -> (f64, Vec<String>) {
            trace::set_enabled(on);
            let started = std::time::Instant::now();
            let bodies = specs
                .iter()
                .map(|spec| {
                    let (status, body) = cluster_http(coord_addr, "POST", &path, spec);
                    assert_eq!(status, 200, "{body}");
                    body
                })
                .collect();
            (
                started.elapsed().as_secs_f64() * 1e3 / ROUNDS as f64,
                bodies,
            )
        };
        let (untraced_ms, untraced_bodies) = timed_pass(false);
        let (traced_ms, traced_bodies) = timed_pass(true);
        let identical = untraced_bodies == traced_bodies;

        // Count distinct worker hosts stitched into the coordinator's
        // journal — the proof the traced pass exercised the wire path.
        let (_, trace_body) = cluster_http(coord_addr, "GET", "/trace?n=64", "");
        let mut hosts: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for chunk in trace_body.split("\"host\":\"").skip(1) {
            hosts.insert(chunk.split('"').next().unwrap_or(""));
        }

        let (status, _) = cluster_http(coord_addr, "POST", "/shutdown", "");
        assert_eq!(status, 200);
        coord_handle.join().expect("thread").expect("clean drain");
        for (addr, handle) in fleet {
            let (status, _) = cluster_http(addr, "POST", "/shutdown", "");
            assert_eq!(status, 200);
            handle.join().expect("thread").expect("clean drain");
        }

        let row = TraceClusterRow {
            workers,
            untraced_ms,
            traced_ms,
            overhead_percent: 100.0 * (traced_ms - untraced_ms) / untraced_ms,
            stitched_hosts: hosts.len(),
            bits_identical: identical,
        };
        println!(
            "  {:>7}  {:>12.2}  {:>10.2}  {:>7.1}%  {:>5}  {}",
            row.workers,
            row.untraced_ms,
            row.traced_ms,
            row.overhead_percent,
            row.stitched_hosts,
            if row.bits_identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
        assert!(
            row.stitched_hosts >= workers.min(targets.len()),
            "traced pass must stitch a subtree from every worker that served a subjob"
        );
        rows.push(row);
    }
    assert!(
        rows.iter().all(|r| r.bits_identical),
        "sweep bytes must not depend on whether tracing is enabled"
    );
    let json = tracecluster_json(&targets, ROUNDS, &rows);
    match std::fs::write("BENCH_tracecluster.json", &json) {
        Ok(()) => println!("\nwrote BENCH_tracecluster.json"),
        Err(e) => eprintln!("\ncould not write BENCH_tracecluster.json: {e}"),
    }
    println!("\n(caches are warmed before either timed pass, so subjob compute is at its");
    println!(" minimum and the overhead column is a worst case: per-subjob trailer");
    println!(" serialization, parsing, clock alignment, and journal grafts over sweeps");
    println!(" that otherwise only replay memoized values)");
}

fn run_pipeline() {
    banner("Functional MPEG-2-style pipeline on the process-network engine");
    let frames: Vec<mpeg2sys::Frame> = (0..6)
        .map(|i| {
            mpeg2sys::Frame::synthetic(
                mpeg2sys::frame::FUNC_WIDTH,
                mpeg2sys::frame::FUNC_HEIGHT,
                i * 3,
                i,
            )
        })
        .collect();
    let golden = mpeg2sys::encode_sequence(&frames, mpeg2sys::CodecConfig::default());
    let piped = mpeg2sys::run_pipeline(frames.clone(), mpeg2sys::CodecConfig::default());
    let identical = piped
        .encoded
        .iter()
        .zip(&golden)
        .all(|(a, b)| *a == b.bytes);
    let total_bits: usize = piped.encoded.iter().map(|b| b.len() * 8).sum();
    println!("frames encoded              : {}", piped.encoded.len());
    println!("network cycles              : {}", piped.cycles);
    println!(
        "bitstream vs golden encoder : {}",
        if identical {
            "bit-identical"
        } else {
            "MISMATCH"
        }
    );
    println!("total bits                  : {total_bits}");
    let decoded = mpeg2sys::decode_sequence(
        &piped.encoded,
        mpeg2sys::frame::FUNC_WIDTH,
        mpeg2sys::frame::FUNC_HEIGHT,
    )
    .expect("well-formed stream");
    let psnr = decoded
        .last()
        .map(|d| d.psnr(frames.last().expect("non-empty")))
        .unwrap_or(0.0);
    println!("last-frame PSNR             : {psnr:.1} dB");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let experiment = args
        .iter()
        .position(|a| a == "--experiment")
        .and_then(|i| args.get(i + 1))
        .map_or("all", String::as_str);
    let jobs = parx::parse_jobs(
        "--jobs",
        args.iter()
            .position(|a| a == "--jobs")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str),
        0,
    )
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    match experiment {
        "fig2" => run_fig2(),
        "fig2b" => run_fig2b(),
        "fig3" => run_fig3(),
        "fig4" => run_fig4(),
        "orders" => run_orders(),
        "table1" => run_table1(),
        "m1" => run_m1(),
        "fig6-timing" => run_fig6(
            2_000,
            "E7 / Fig. 6 (left) — timing optimization, TCT = 2,000 KCycles",
            "paper: 2x speed-up, +44.57% area",
        ),
        "fig6-area" => run_fig6(
            4_000,
            "E8 / Fig. 6 (right) — area recovery, TCT = 4,000 KCycles",
            "paper: -32.46% area, <1% CT degradation",
        ),
        "scalability" => run_scalability(jobs),
        "scale" => run_scale(jobs),
        "phases" => run_phases(jobs),
        "incremental" => run_incremental(),
        "verify" => run_verify(),
        "cluster" => run_cluster(),
        "tracecluster" => run_tracecluster(),
        "pipeline" => run_pipeline(),
        "ablation" => run_ablation(),
        "sweep" => run_sweep(),
        "all" => {
            run_fig2();
            run_fig2b();
            run_fig3();
            run_fig4();
            run_orders();
            run_table1();
            run_m1();
            run_fig6(
                2_000,
                "E7 / Fig. 6 (left) — timing optimization, TCT = 2,000 KCycles",
                "paper: 2x speed-up, +44.57% area",
            );
            run_fig6(
                4_000,
                "E8 / Fig. 6 (right) — area recovery, TCT = 4,000 KCycles",
                "paper: -32.46% area, <1% CT degradation",
            );
            run_pipeline();
            run_ablation();
            run_sweep();
            run_scalability(jobs);
            run_scale(jobs);
            run_phases(jobs);
            run_incremental();
            run_verify();
            run_cluster();
            run_tracecluster();
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!(
                "known: fig2 fig2b fig3 fig4 orders table1 m1 fig6-timing fig6-area scalability scale phases incremental verify cluster tracecluster pipeline ablation sweep all"
            );
            std::process::exit(2);
        }
    }
}
