//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--experiment <id>] [--jobs <n>]
//! ```
//!
//! Ids: `fig2`, `fig2b`, `fig3`, `fig4`, `orders`, `table1`, `m1`,
//! `fig6-timing`, `fig6-area`, `scale`, `phases`, `incremental`,
//! `verify`, `cluster`, `tracecluster`, `pipeline`, `ablation`, `sweep`,
//! or `all` (default). `--jobs` sets the worker-thread count of the
//! memoized sweeps of E13 and E19 (`0` = all hardware threads, the
//! default). The ladders write their `BENCH_*.json` reports (one shape,
//! [`bench::report`]) to the working directory. See EXPERIMENTS.md for
//! the paper-versus-measured record.

use bench::experiments;
use bench::fleet::{request, Daemon, Fleet};
use bench::report::{Report, Row};
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

/// Longest the paper's §6 flow may take on any rung of E19 (the 10k rung
/// is the binding one): the paper reports "a few minutes in the worst
/// cases" at 10,000 processes.
const FLOW_BUDGET_S: f64 = 120.0;

/// E19 (and E9's scale claim): the paper's 10,000-process benchmark as a
/// perf ladder, soc:100 → soc:10k. Each rung runs the §6 flow (generate,
/// order, lower + Howard, greedy exploration) under [`FLOW_BUDGET_S`],
/// re-checks the analysis bit for bit, and sweeps the 12-target ladder
/// seed / cold / warm; the seed stage runs on the rungs up to
/// `BASELINE_CAP` so the speedup is measured in the same run it gates.
fn run_scale(jobs: usize) {
    banner("E19 — scale ladder: soc:100 → soc:10k, §6 flow, seed/cold/warm sweep, peak RSS");
    const BASELINE_CAP: usize = 2_500;
    let sizes = [100, 500, 1_000, 2_500, 5_000, 10_000];
    let rows = experiments::scale_ladder(&sizes, jobs, BASELINE_CAP);
    println!(
        "processes  channels  order[ms]  howard[ms]  explore[ms]  flow[s]  seed[ms]  cold[ms]  warm[ms]  cold-spd  warm-spd  identical  hit  peakRSS[MiB]"
    );
    let fmt_opt = |v: Option<f64>, w: usize, suffix: &str| {
        v.map_or_else(
            || format!("{:>w$}", "-", w = w + suffix.len()),
            |v| format!("{v:>w$.1}{suffix}"),
        )
    };
    let mut report = Report::new(
        "E19",
        Row::new()
            .with("jobs", parx::resolve_jobs(jobs))
            .with("baseline_cap", BASELINE_CAP)
            .with("flow_budget_s", FLOW_BUDGET_S)
            .with("sizes", &sizes[..]),
    );
    for row in &rows {
        println!(
            "{:>9}  {:>8}  {:>9.1}  {:>10.1}  {:>11.1}  {:>7.2}  {}  {:>8.1}  {:>8.1}  {} {}  {:>9}  {:>3.0}%  {:>12.1}",
            row.processes,
            row.channels,
            row.ordering_ms,
            row.analysis_ms,
            row.explore_ms,
            row.flow_s(),
            fmt_opt(row.baseline_ms, 8, ""),
            row.cold_ms,
            row.warm_ms,
            fmt_opt(row.cold_speedup, 7, "x"),
            fmt_opt(row.warm_speedup, 7, "x"),
            if row.identical && row.reanalysis_identical {
                "yes"
            } else {
                "NO"
            },
            row.analysis_hit_rate * 100.0,
            row.peak_rss_mb,
        );
        report.push(
            Row::new()
                .with("processes", row.processes)
                .with("channels", row.channels)
                .with("generate_ms", row.generate_ms)
                .with("ordering_ms", row.ordering_ms)
                .with("analysis_ms", row.analysis_ms)
                .with("explore_ms", row.explore_ms)
                .with("flow_s", row.flow_s())
                .with("targets", row.targets)
                .with("baseline_ms", row.baseline_ms)
                .with("cold_ms", row.cold_ms)
                .with("warm_ms", row.warm_ms)
                .with("cold_speedup", row.cold_speedup)
                .with("warm_speedup", row.warm_speedup)
                .with("identical", row.identical)
                .with("reanalysis_identical", row.reanalysis_identical)
                .with("analysis_hit_rate", row.analysis_hit_rate)
                .with("peak_rss_mb", row.peak_rss_mb)
                .with("rss_mb", row.rss_mb),
        );
    }
    report.write("BENCH_scale.json");
    for row in &rows {
        assert!(
            row.identical,
            "every sweep pair must produce exactly equal fronts ({} processes)",
            row.processes
        );
        assert!(
            row.reanalysis_identical,
            "a re-analysis must equal the first to the bit ({} processes)",
            row.processes
        );
        assert!(
            row.flow_s() < FLOW_BUDGET_S,
            "the §6 flow at {} processes took {:.1} s of its {FLOW_BUDGET_S:.0} s budget",
            row.processes,
            row.flow_s()
        );
    }
    println!("\n(paper: \"a few minutes in the worst cases\" at 10,000/15,000; flow = generate +");
    println!(" order + lower/Howard + greedy exploration toward 0.7x the cycle time in at most");
    println!(" 4 iterations. seed = the pre-memoization engine: serial, one independent");
    println!(" exploration per target, skipped above {BASELINE_CAP} processes to bound the");
    println!(" ladder's wall time; cold = memoized engine on a fresh shared cache; warm = the");
    println!(" same ladder replayed against the filled cache, hit = its analysis-cache hit");
    println!(" rate. identical = every front pair equal and a second analysis bit-identical");
    println!(" to the first. Peak RSS is VmHWM after the rung — sizes ascend, so each value");
    println!(" is the high-water mark that rung's working set pushed)");
}

fn run_phases(jobs: usize) {
    banner("E13 — per-phase time breakdown, MPEG-2 sweep (seed / cold / warm)");
    let targets = [900_000, 1_200_000, 1_500_000, 1_800_000, 2_400_000];
    println!("targets: {targets:?}, jobs: {}", parx::resolve_jobs(jobs));
    let rows = experiments::phase_breakdown(&targets, jobs);
    let mut report = Report::new(
        "E13",
        Row::new()
            .with("system", "mpeg2")
            .with("targets", &targets[..])
            .with("jobs", parx::resolve_jobs(jobs)),
    );
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
        report.push(
            Row::new()
                .with("stage", row.stage)
                .with("wall_ms", row.wall_ms)
                .with("ilp_ms", row.phase_ms("ilp"))
                .with("ilp_solves", row.ilp.solves)
                .with("ilp_nodes", row.ilp.nodes),
        );
    }
    report.write("BENCH_ilp.json");
    println!("\n(phases nest — howard inside analysis inside a cache probe — and with");
    println!(" jobs > 1 they accumulate across workers, so columns are not additive and");
    println!(" can exceed wall time; the warm stage shows the cache absorbing analysis");
    println!(" and chanorder into sub-millisecond probes, leaving ILP as the one phase");
    println!(" the memo cannot remove)");
}

/// E15's asserted floor on the session speedup: about a third of the
/// lowest reading so far (31.7x on a 2-vCPU host), so host noise does not
/// trip it, while a session path that lost its incremental reprice
/// (readings near 1x) does.
const INCREMENTAL_BAR: f64 = 10.0;

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
        "speedup              : {:>9.1} x  (acceptance bar: {INCREMENTAL_BAR:.0}x)",
        r.speedup
    );
    let mut report = Report::new(
        "E15",
        Row::new()
            .with("system", "mpeg2")
            .with("batches", r.batches)
            .with("full_iters_per_batch", r.full_iters)
            .with("edit_iters_per_batch", r.edit_iters),
    );
    report.push(
        Row::new()
            .with("full_reanalysis_us", r.full_us)
            .with("per_edit_us", r.per_edit_us)
            .with("render_us", r.render_us)
            .with("speedup", r.speedup),
    );
    report.write("BENCH_incremental.json");
    println!(
        "\n(each figure is a median over {} batches — {} stateless / {} edit iterations",
        r.batches, r.full_iters, r.edit_iters
    );
    println!(" per batch — because single-iteration timings at this scale are 10-15% noisy;");
    println!(" the stateless path is measured with its analysis cache warm, so the speedup");
    println!(" is a floor: a cold or evicted cache would widen it)");
    assert!(
        r.speedup >= INCREMENTAL_BAR,
        "the session per-edit speedup {:.1}x is under its {INCREMENTAL_BAR:.0}x bar",
        r.speedup
    );
}

fn run_verify() {
    banner("E16 — formal certification wall time vs design size (socgen ladder)");
    let sizes = [8, 16, 32, 64, 128, 1_000];
    let rows = experiments::verify_ladder(&sizes);
    println!(
        "  procs  chans  comps  method      states     events  verify[ms]  howard[ms]  period"
    );
    let mut report = Report::new("E16", Row::new().with("sizes", &sizes[..]));
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
        report.push(
            Row::new()
                .with("processes", row.processes)
                .with("channels", row.channels)
                .with("components", row.components)
                .with("method", row.method)
                .with("states", row.states)
                .with("events", row.events)
                .with("verify_ms", row.verify_ms)
                .with("howard_ms", row.howard_ms)
                .with("bits_identical", row.bits_identical),
        );
    }
    report.write("BENCH_verify.json");
    assert!(
        rows.iter().all(|r| r.bits_identical),
        "every certified period must match Howard bit for bit"
    );
    println!("\n(verify = static pass + untimed reachability/k-induction + exact recurrence");
    println!(" extraction; howard = one spectral analysis of the same lowered TMG. The");
    println!(" certifier pays for deadlock *proof* and an exact period, the spectral pass");
    println!(" only for the period — the gap is the price of the certificate. The 1,000-");
    println!(" process rung is the soc:1k design of E19, ordered by Algorithm 1)");
}

/// `/sweep?targets=a,b,c`.
fn sweep_path(targets: &[u64]) -> String {
    let list: Vec<String> = targets.iter().map(u64::to_string).collect();
    format!("/sweep?targets={}", list.join(","))
}

/// `rounds` socgen specs of `processes` processes, seeds from `seed`.
fn socgen_specs(processes: usize, rounds: usize, seed: u64) -> Vec<String> {
    (0..rounds)
        .map(|round| {
            let soc = socgen::generate(socgen::SocGenConfig::sized(
                processes,
                processes * 3 / 2,
                seed + round as u64,
            ));
            let design = ermes::Design::new(soc.system, soc.pareto).expect("well-formed");
            ermesd::SystemSpec::from_design(&design).to_json_pretty()
        })
        .collect()
}

/// E17: clustered sweep throughput at 1/2/3/4 workers. Every sweep is
/// cold (distinct socgen seeds per round, same seeds across worker
/// counts) so the fan-out parallelism — not cache warmth — is what the
/// ladder measures, and every clustered response is checked bit for bit
/// against a single-node daemon.
fn run_cluster() {
    banner("E17 — clustered sweep throughput vs worker count (socgen ladder)");
    let targets: [u64; 12] = [
        500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000,
        2_500_000,
    ];
    let path = sweep_path(&targets);
    const ROUNDS: usize = 3;
    let specs = socgen_specs(240, ROUNDS, 1_000);

    // Single-node reference bytes, one per round's design.
    let single = Daemon::start(ermesd::ServerConfig::default());
    let expected: Vec<String> = specs
        .iter()
        .map(|spec| {
            let (status, body) = request(single.addr(), "POST", &path, spec);
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    single.shutdown();

    println!("  workers  wall[s]  sweeps/s  speedup  degraded  identity");
    let mut report = Report::new(
        "E17",
        Row::new()
            .with("system", "socgen-240")
            .with("targets", &targets[..])
            .with("rounds", ROUNDS),
    );
    let mut all_identical = true;
    let mut base_wall = f64::NAN;
    for workers in [1usize, 2, 3, 4] {
        let fleet = Fleet::start(workers);
        let started = std::time::Instant::now();
        let mut identical = true;
        for (spec, want) in specs.iter().zip(&expected) {
            let (status, body) = request(fleet.addr(), "POST", &path, spec);
            assert_eq!(status, 200, "{body}");
            identical &= body == *want;
        }
        let wall = started.elapsed().as_secs_f64();
        let (_, metrics) = request(fleet.addr(), "GET", "/metrics", "");
        let degraded: u64 = metrics
            .lines()
            .find(|l| l.starts_with("ermes_cluster_degraded_total"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        fleet.shutdown();

        if workers == 1 {
            base_wall = wall;
        }
        let (sweeps_per_s, speedup) = (ROUNDS as f64 / wall, base_wall / wall);
        println!(
            "  {workers:>7}  {wall:>7.2}  {sweeps_per_s:>8.3}  {speedup:>6.2}x  {degraded:>8}  {}",
            if identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
        report.push(
            Row::new()
                .with("workers", workers)
                .with("wall_s", wall)
                .with("sweeps_per_s", sweeps_per_s)
                .with("speedup", speedup)
                .with("degraded_jobs", degraded)
                .with("bits_identical", identical),
        );
        all_identical &= identical;
    }
    report.write("BENCH_cluster.json");
    assert!(
        all_identical,
        "every clustered sweep must match the single-node daemon bit for bit"
    );
    println!("\n(each round sweeps a fresh design, so caches start cold and the ladder");
    println!(" measures fan-out parallelism; speedup saturates at min(workers, cores,");
    println!(" ladder length). Degraded jobs are subjobs the fleet could not serve that");
    println!(" the coordinator computed locally — nonzero means the run saw faults)");
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
    let targets: [u64; 6] = [1_000, 5_000, 25_000, 100_000, 500_000, 2_500_000];
    let path = sweep_path(&targets);
    const ROUNDS: usize = 3;
    let specs = socgen_specs(120, ROUNDS, 2_000);

    println!("  workers  untraced[ms]  traced[ms]  overhead  hosts  identity");
    let mut report = Report::new(
        "E18",
        Row::new()
            .with("system", "socgen-120")
            .with("targets", &targets[..])
            .with("rounds", ROUNDS),
    );
    let mut all_identical = true;
    for workers in [1usize, 2, 4] {
        let fleet = Fleet::start(workers);
        // The span journal is process-global, so clear the previous
        // fleet's grafts before this one records (the host census below
        // must see only this iteration's workers).
        trace::reset();

        // Warm every cache untimed so both timed passes measure the
        // same steady state (sweeps all cache hits, stitching the only
        // variable), then time untraced and traced passes.
        for spec in &specs {
            let (status, body) = request(fleet.addr(), "POST", &path, spec);
            assert_eq!(status, 200, "{body}");
        }
        let timed_pass = |on: bool| -> (f64, Vec<String>) {
            trace::set_enabled(on);
            let started = std::time::Instant::now();
            let bodies = specs
                .iter()
                .map(|spec| {
                    let (status, body) = request(fleet.addr(), "POST", &path, spec);
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
        let (_, trace_body) = request(fleet.addr(), "GET", "/trace?n=64", "");
        let mut hosts: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for chunk in trace_body.split("\"host\":\"").skip(1) {
            hosts.insert(chunk.split('"').next().unwrap_or(""));
        }
        fleet.shutdown();

        let overhead_percent = 100.0 * (traced_ms - untraced_ms) / untraced_ms;
        println!(
            "  {workers:>7}  {untraced_ms:>12.2}  {traced_ms:>10.2}  {overhead_percent:>7.1}%  {:>5}  {}",
            hosts.len(),
            if identical {
                "bit-identical"
            } else {
                "MISMATCH"
            }
        );
        assert!(
            hosts.len() >= workers.min(targets.len()),
            "traced pass must stitch a subtree from every worker that served a subjob"
        );
        report.push(
            Row::new()
                .with("workers", workers)
                .with("untraced_ms_per_sweep", untraced_ms)
                .with("traced_ms_per_sweep", traced_ms)
                .with("overhead_percent", overhead_percent)
                .with("stitched_hosts", hosts.len())
                .with("bits_identical", identical),
        );
        all_identical &= identical;
    }
    report.write("BENCH_tracecluster.json");
    assert!(
        all_identical,
        "sweep bytes must not depend on whether tracing is enabled"
    );
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

/// One experiment: its `--experiment` id and its runner, which gets the
/// `--jobs` value.
type Experiment = (&'static str, fn(usize));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: &[Experiment] = &[
    ("fig2", |_| run_fig2()),
    ("fig2b", |_| run_fig2b()),
    ("fig3", |_| run_fig3()),
    ("fig4", |_| run_fig4()),
    ("orders", |_| run_orders()),
    ("table1", |_| run_table1()),
    ("m1", |_| run_m1()),
    ("fig6-timing", |_| {
        run_fig6(
            2_000,
            "E7 / Fig. 6 (left) — timing optimization, TCT = 2,000 KCycles",
            "paper: 2x speed-up, +44.57% area",
        );
    }),
    ("fig6-area", |_| {
        run_fig6(
            4_000,
            "E8 / Fig. 6 (right) — area recovery, TCT = 4,000 KCycles",
            "paper: -32.46% area, <1% CT degradation",
        );
    }),
    ("pipeline", |_| run_pipeline()),
    ("ablation", |_| run_ablation()),
    ("sweep", |_| run_sweep()),
    ("scale", run_scale),
    ("phases", run_phases),
    ("incremental", |_| run_incremental()),
    ("verify", |_| run_verify()),
    ("cluster", |_| run_cluster()),
    ("tracecluster", |_| run_tracecluster()),
];

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

    if experiment == "all" {
        for (_, run) in EXPERIMENTS {
            run(jobs);
        }
        return;
    }
    match EXPERIMENTS.iter().find(|(id, _)| *id == experiment) {
        Some((_, run)) => run(jobs),
        None => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("unknown experiment `{experiment}`");
            eprintln!("known: {} all", known.join(" "));
            std::process::exit(2);
        }
    }
}
