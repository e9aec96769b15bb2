//! The experiment implementations behind the `repro` binary.
//!
//! One function per paper artifact (see DESIGN.md's experiment index);
//! each returns a plain-data summary that the binary prints and the
//! integration tests assert against.

use chanorder::{cycle_time_of, exhaustive_best_ordering, order_channels};
use ermes::{explore, reordering_gain, ExplorationConfig, ExplorationTrace};
use std::time::Instant;
use sysgraph::{chan_index as ci, lower_to_tmg, proc_index as pi, MotivatingExample};
use tmg::Ratio;

/// E1 — Fig. 2(a): the motivating example's three orderings.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// `Π (in! · out!)` for the system (paper: 36).
    pub ordering_space: u128,
    /// The Section 2 ordering deadlocks (model verdict).
    pub deadlock_order_deadlocks: bool,
    /// ...and the cycle-accurate simulation stalls too.
    pub simulation_stalls: bool,
    /// Cycle time of the deadlock-free but slow ordering (paper: 20).
    pub suboptimal_cycle_time: Ratio,
    /// Cycle time of the optimal ordering (paper: 12).
    pub optimal_cycle_time: Ratio,
}

/// Runs E1.
#[must_use]
pub fn fig2() -> Fig2Result {
    let ex = MotivatingExample::new();
    let deadlock = cycle_time_of(&ex.system, &ex.deadlock_ordering())
        .expect("valid ordering")
        .is_deadlock();
    let mut sys = ex.system.clone();
    ex.deadlock_ordering().apply_to(&mut sys).expect("valid");
    let stalls = pnsim::simulate_timing(&sys, 20).deadlocked;
    let suboptimal = cycle_time_of(&ex.system, &ex.suboptimal_ordering())
        .expect("valid ordering")
        .cycle_time()
        .expect("live");
    let optimal = cycle_time_of(&ex.system, &ex.optimal_ordering())
        .expect("valid ordering")
        .cycle_time()
        .expect("live");
    Fig2Result {
        ordering_space: ex.system.ordering_space(),
        deadlock_order_deadlocks: deadlock,
        simulation_stalls: stalls,
        suboptimal_cycle_time: suboptimal,
        optimal_cycle_time: optimal,
    }
}

/// E2 — Fig. 2(b): the FSM of process P2 as text.
#[must_use]
pub fn fig2b() -> String {
    let ex = MotivatingExample::new();
    pnsim::process_fsm(&ex.system, ex.processes[pi::P2]).to_string()
}

/// E3 — Fig. 3: structure of the TMG lowered from the motivating system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig3Result {
    /// One transition per process plus one per channel.
    pub transitions: usize,
    /// Chain places (two per channel plus per-process links).
    pub places: usize,
    /// Initial tokens: one per process iteration start.
    pub initial_tokens: u64,
    /// The put-place and get-place feeding channel b's transition.
    pub channel_b_feed_count: usize,
}

/// Runs E3.
#[must_use]
pub fn fig3() -> Fig3Result {
    let ex = MotivatingExample::new();
    let lowered = lower_to_tmg(&ex.system);
    let g = lowered.tmg();
    Fig3Result {
        transitions: g.transition_count(),
        places: g.place_count(),
        initial_tokens: g.total_tokens(),
        channel_b_feed_count: sysgraph::channel_places(&lowered, ex.channels[ci::B]).len(),
    }
}

/// E4 — Fig. 4: the channel-ordering algorithm's labels and result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Head weights of arcs (e, d, g) — paper: (19, 13, 17).
    pub head_weights_e_d_g: (u64, u64, u64),
    /// Tail weights of arcs (b, d, f) — paper: (16, 10, 13).
    pub tail_weights_b_d_f: (u64, u64, u64),
    /// P6's computed get order as channel names — paper: d, g, e.
    pub p6_gets: Vec<String>,
    /// P2's computed put order as channel names — paper: b, f, d.
    pub p2_puts: Vec<String>,
    /// Cycle time achieved by the algorithm (paper: 12).
    pub algorithm_cycle_time: Ratio,
    /// Exhaustive optimum over all 36 orderings (paper: 12).
    pub exhaustive_optimum: Ratio,
    /// Improvement over the suboptimal ordering (paper: 40 %).
    pub improvement_percent: f64,
}

/// Runs E4.
#[must_use]
pub fn fig4() -> Fig4Result {
    let ex = MotivatingExample::new();
    let solution = order_channels(&ex.system);
    let hw = |i: usize| solution.head_labels[ex.channels[i].index()].weight;
    let tw = |i: usize| solution.tail_labels[ex.channels[i].index()].weight;
    let algorithm_ct = cycle_time_of(&ex.system, &solution.ordering)
        .expect("valid ordering")
        .cycle_time()
        .expect("live");
    let exhaustive = exhaustive_best_ordering(&ex.system, 1_000).expect("small space");
    let suboptimal = cycle_time_of(&ex.system, &ex.suboptimal_ordering())
        .expect("valid ordering")
        .cycle_time()
        .expect("live");
    Fig4Result {
        head_weights_e_d_g: (hw(ci::E), hw(ci::D), hw(ci::G)),
        tail_weights_b_d_f: (tw(ci::B), tw(ci::D), tw(ci::F)),
        p6_gets: solution
            .ordering
            .gets(ex.processes[pi::P6])
            .iter()
            .map(|c| ex.system.channel(*c).name().to_string())
            .collect(),
        p2_puts: solution
            .ordering
            .puts(ex.processes[pi::P2])
            .iter()
            .map(|c| ex.system.channel(*c).name().to_string())
            .collect(),
        algorithm_cycle_time: algorithm_ct,
        exhaustive_optimum: exhaustive.best_cycle_time,
        improvement_percent: 100.0 * (suboptimal.to_f64() - algorithm_ct.to_f64())
            / suboptimal.to_f64(),
    }
}

/// E6 — the M1 experiment: reordering only.
#[derive(Debug, Clone, PartialEq)]
pub struct M1Result {
    /// Cycle time under the conservative ordering, in cycles.
    pub before: Ratio,
    /// Cycle time after running the channel-ordering algorithm.
    pub after: Ratio,
    /// Improvement in percent (paper: 5 %).
    pub improvement_percent: f64,
    /// Area before and after — identical by construction (paper: "without
    /// any increase in area occupation").
    pub area: f64,
    /// How many of 40 random statement orders deadlock the encoder — the
    /// risk ERMES removes "without the support of a tool like ERMES, it
    /// is difficult to go beyond such conservative ordering".
    pub random_orders_deadlocking: usize,
}

/// Runs E6.
#[must_use]
pub fn m1_reordering() -> M1Result {
    let (mut design, _) = mpeg2sys::m1_design();
    let conservative = chanorder::conservative_ordering(design.system());
    conservative
        .apply_to(design.system_mut())
        .expect("valid ordering");
    let area = design.area();
    let random_orders_deadlocking = (0..40u64)
        .filter(|&seed| {
            chanorder::cycle_time_of(
                design.system(),
                &chanorder::random_ordering(design.system(), seed),
            )
            .expect("valid ordering")
            .is_deadlock()
        })
        .count();
    let (before, after) = reordering_gain(&mut design).expect("live system");
    assert!((design.area() - area).abs() < 1e-12, "area must not change");
    M1Result {
        before,
        after,
        improvement_percent: 100.0 * (before.to_f64() - after.to_f64()) / before.to_f64(),
        area,
        random_orders_deadlocking,
    }
}

/// E7/E8 — the two Fig. 6 explorations from M2.
#[must_use]
pub fn fig6(target_kcycles: u64) -> ExplorationTrace {
    let (design, _) = mpeg2sys::m2_design();
    explore(
        design,
        ExplorationConfig::with_target(target_kcycles * 1_000),
    )
    .expect("MPEG-2 explorations succeed")
}

/// One row of the E16 verification ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRow {
    /// Worker process count requested from the generator.
    pub processes: usize,
    /// Channel count of the generated system.
    pub channels: usize,
    /// Weakly-connected components the checker split the system into.
    pub components: usize,
    /// How the certificate was obtained (`bmc` or `induction`).
    pub method: &'static str,
    /// States the bounded search visited across all components.
    pub states: usize,
    /// Simulation events the period extractor replayed.
    pub events: u64,
    /// Milliseconds for the full certification (statics + BMC/induction
    /// + period extraction).
    pub verify_ms: f64,
    /// Milliseconds for one Howard cycle-time analysis of the same
    /// system (the cross-checked reference).
    pub howard_ms: f64,
    /// The certified period's f64 bits equal Howard's.
    pub bits_identical: bool,
}

/// Runs E16: formal certification wall time vs. design size on the
/// socgen ladder, with the period cross-checked against Howard per row.
///
/// # Panics
///
/// Panics if a generated benchmark fails to certify or the certified
/// period misses the recurrence budget — both would invalidate the
/// experiment rather than merely slow it down.
#[must_use]
pub fn verify_ladder(sizes: &[usize]) -> Vec<VerifyRow> {
    sizes
        .iter()
        .map(|&n| {
            // As in the paper's flow (and E19): order statements first —
            // raw generated systems can self-block under the default
            // insertion orders, which is the verifier's *refutation*
            // case, not its certification ladder.
            let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, 42));
            let mut sys = soc.system;
            let solution = order_channels(&sys);
            solution.ordering.apply_to(&mut sys).expect("valid");

            let t0 = Instant::now();
            let report = verify::verify(&sys);
            let verify_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t1 = Instant::now();
            let verdict = tmg::analyze(lower_to_tmg(&sys).tmg());
            let howard_ms = t1.elapsed().as_secs_f64() * 1e3;

            let verify::VerifyVerdict::Certified {
                method,
                states,
                period,
                events,
            } = &report.verdict
            else {
                panic!("generated benchmarks are live: {:?}", report.verdict)
            };
            let period = period.expect("recurrence within budget");
            let reference = verdict.cycle_time().expect("live");
            VerifyRow {
                processes: n,
                channels: sys.channel_count(),
                components: report.components,
                method: method.name(),
                states: *states,
                events: *events,
                verify_ms,
                howard_ms,
                bits_identical: period.to_f64().to_bits() == reference.to_f64().to_bits(),
            }
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process in MiB, from
/// `/proc/self/status`. Returns `0.0` where the file is unavailable
/// (non-Linux), so callers can always print the column.
fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`) of this process in MiB.
fn current_rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

fn proc_status_kb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// One of the three sweeps the engine ladders (E13, E19) compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The serial sweep without memoization: one independent exploration
    /// per target, re-lowering and re-solving everything.
    Seed,
    /// The memoized sweep on a fresh [`ermes::EngineCache`].
    Cold,
    /// The same ladder replayed on the cache the cold sweep filled (the
    /// iterative design-space-exploration case).
    Warm,
}

impl Stage {
    /// The stages in the order they must run.
    pub const ALL: [Stage; 3] = [Stage::Seed, Stage::Cold, Stage::Warm];

    /// `seed`, `cold` or `warm`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Seed => "seed",
            Stage::Cold => "cold",
            Stage::Warm => "warm",
        }
    }
}

/// The one seed / cold / warm runner: one design swept over one target
/// ladder, the memoized stages sharing one cache.
#[derive(Debug)]
pub struct SweepStages {
    design: ermes::Design,
    targets: Vec<u64>,
    jobs: usize,
    cache: ermes::EngineCache,
}

impl SweepStages {
    /// A runner with an empty cache; `jobs` is the memoized stages'
    /// worker-thread count (`0` = all hardware threads).
    #[must_use]
    pub fn new(design: ermes::Design, targets: Vec<u64>, jobs: usize) -> Self {
        SweepStages {
            design,
            targets,
            jobs,
            cache: ermes::EngineCache::new(),
        }
    }

    /// Runs one stage and returns its wall time in milliseconds and its
    /// report. [`Stage::Warm`] replays whatever [`Stage::Cold`] stored,
    /// so run them in that order.
    ///
    /// # Panics
    ///
    /// If the sweep fails: the ladders sweep live designs only.
    #[must_use]
    pub fn run(&self, stage: Stage) -> (f64, ermes::SweepReport) {
        let started = Instant::now();
        let report = match stage {
            Stage::Seed => ermes::pareto_sweep_with(
                self.design.clone(),
                &self.targets,
                &ermes::SweepOptions {
                    jobs: 1,
                    memoize: false,
                },
            ),
            Stage::Cold | Stage::Warm => ermes::pareto_sweep_cached(
                self.design.clone(),
                &self.targets,
                &ermes::SweepOptions {
                    jobs: self.jobs,
                    memoize: true,
                },
                &self.cache,
            ),
        }
        .unwrap_or_else(|e| panic!("{} sweep failed: {e}", stage.name()));
        (started.elapsed().as_secs_f64() * 1e3, report)
    }
}

/// One rung of the E19 scale ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleRow {
    /// Worker process count requested from the generator.
    pub processes: usize,
    /// Channel count of the generated system.
    pub channels: usize,
    /// Milliseconds to generate the system.
    pub generate_ms: f64,
    /// Milliseconds for one channel-ordering run (Algorithm 1).
    pub ordering_ms: f64,
    /// Milliseconds for one lowering + Howard analysis.
    pub analysis_ms: f64,
    /// A second analysis of the same ordered system equals the first:
    /// `Eq` on the verdict, f64 bits on the cycle time.
    pub reanalysis_identical: bool,
    /// Milliseconds for a greedy ERMES exploration toward 0.7× the cycle
    /// time, at most 4 iterations (the paper's §6 flow).
    pub explore_ms: f64,
    /// Targets in the sweep ladder.
    pub targets: usize,
    /// [`Stage::Seed`] sweep, in milliseconds. `None` on rungs where it is
    /// skipped to keep the ladder inside a CI budget.
    pub baseline_ms: Option<f64>,
    /// [`Stage::Cold`] sweep, in milliseconds.
    pub cold_ms: f64,
    /// [`Stage::Warm`] sweep, in milliseconds.
    pub warm_ms: f64,
    /// `baseline_ms / cold_ms` where the baseline ran.
    pub cold_speedup: Option<f64>,
    /// `baseline_ms / warm_ms` where the baseline ran.
    pub warm_speedup: Option<f64>,
    /// Fronts compared with exact `Ratio` equality across every run pair.
    pub identical: bool,
    /// Analysis-cache hit rate of the warm sweep.
    pub analysis_hit_rate: f64,
    /// `VmHWM` after the rung, MiB (sizes ascend, so each rung's value is
    /// the high-water mark its own working set pushed).
    pub peak_rss_mb: f64,
    /// `VmRSS` after the rung, MiB.
    pub rss_mb: f64,
}

impl ScaleRow {
    /// Seconds of the paper's §6 flow on this rung: generate, order,
    /// lower + Howard, and the greedy exploration.
    #[must_use]
    pub fn flow_s(&self) -> f64 {
        (self.generate_ms + self.ordering_ms + self.analysis_ms + self.explore_ms) / 1e3
    }
}

/// The 12-target sweep ladder, 0.5× to 5× the cycle time `base`.
fn sweep_ladder(base: f64) -> Vec<u64> {
    [
        0.5, 0.65, 0.8, 0.95, 1.1, 1.25, 1.4, 1.6, 2.0, 2.5, 3.5, 5.0,
    ]
    .iter()
    .map(|f| ((base * f) as u64).max(1))
    .collect()
}

/// Runs E19, the paper's scale claim (§6: 10,000 processes and 15,000
/// channels) as a perf ladder. Each rung generates the seeded socgen
/// system, orders it, analyzes it twice (the two verdicts must agree to
/// the bit), explores it greedily toward 0.7× its cycle time, then
/// sweeps the 12-target ladder through [`SweepStages`] — the seed stage
/// capped at `baseline_cap` processes — and records wall clock and
/// resident-set high-water marks, checking every front pair for exact
/// equality.
///
/// # Panics
///
/// Panics if a generated benchmark fails to order, analyze, explore or
/// sweep — any of which would invalidate the ladder.
#[must_use]
pub fn scale_ladder(sizes: &[usize], jobs: usize, baseline_cap: usize) -> Vec<ScaleRow> {
    sizes
        .iter()
        .map(|&n| {
            let t0 = Instant::now();
            let soc = socgen::generate(socgen::SocGenConfig::sized(n, n * 3 / 2, 42));
            let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
            let channels = soc.system.channel_count();

            let t1 = Instant::now();
            let solution = order_channels(&soc.system);
            let ordering_ms = t1.elapsed().as_secs_f64() * 1e3;

            let mut ordered = soc.system.clone();
            solution.ordering.apply_to(&mut ordered).expect("valid");
            let t2 = Instant::now();
            let verdict = tmg::analyze(lower_to_tmg(&ordered).tmg());
            let analysis_ms = t2.elapsed().as_secs_f64() * 1e3;
            let cycle_time = verdict.cycle_time().expect("generated benchmarks are live");
            let again = tmg::analyze(lower_to_tmg(&ordered).tmg());
            let reanalysis_identical = again == verdict
                && again
                    .cycle_time()
                    .is_some_and(|ct| ct.to_f64().to_bits() == cycle_time.to_f64().to_bits());

            let design = ermes::Design::new(soc.system, soc.pareto).expect("sizes match");
            let target = (cycle_time.to_f64() * 0.7) as u64;
            let t3 = Instant::now();
            let _ = explore(
                design.clone(),
                ExplorationConfig {
                    max_iterations: 4,
                    strategy: ermes::OptStrategy::Greedy,
                    ..ExplorationConfig::with_target(target.max(1))
                },
            )
            .expect("exploration succeeds");
            let explore_ms = t3.elapsed().as_secs_f64() * 1e3;

            let targets = sweep_ladder(cycle_time.to_f64());
            let stages = SweepStages::new(design, targets.clone(), jobs);
            let baseline = (n <= baseline_cap).then(|| stages.run(Stage::Seed));
            let (cold_ms, cold) = stages.run(Stage::Cold);
            let (warm_ms, warm) = stages.run(Stage::Warm);

            let identical = warm.front == cold.front
                && baseline
                    .as_ref()
                    .is_none_or(|(_, seed)| seed.front == cold.front);
            let baseline_ms = baseline.map(|(ms, _)| ms);
            ScaleRow {
                processes: n,
                channels,
                generate_ms,
                ordering_ms,
                analysis_ms,
                reanalysis_identical,
                explore_ms,
                targets: targets.len(),
                baseline_ms,
                cold_ms,
                warm_ms,
                cold_speedup: baseline_ms.map(|b| b / cold_ms),
                warm_speedup: baseline_ms.map(|b| b / warm_ms),
                identical,
                analysis_hit_rate: warm.cache.analysis_hit_rate(),
                peak_rss_mb: peak_rss_mb(),
                rss_mb: current_rss_mb(),
            }
        })
        .collect()
}

/// The system-level Pareto front of the MPEG-2 encoder across target
/// cycle times (the "set of Pareto-optimal implementations for the
/// overall system" the paper starts from, re-derived by ERMES).
#[must_use]
pub fn mpeg2_sweep() -> Vec<ermes::SweepPoint> {
    let (design, _) = mpeg2sys::m2_design();
    ermes::pareto_sweep(
        design,
        &[
            1_000_000, 1_500_000, 2_000_000, 3_000_000, 4_000_000, 6_000_000,
        ],
    )
    .expect("MPEG-2 sweeps")
}

/// E13 — one stage of the per-phase time breakdown: where a sweep of
/// the MPEG-2 encoder actually spends its milliseconds.
#[derive(Debug, Clone)]
pub struct PhaseBreakdownRow {
    /// `"seed"` (serial, unmemoized), `"cold"` (shared cache, first
    /// sweep), or `"warm"` (re-sweep against the filled cache).
    pub stage: &'static str,
    /// Wall-clock time of the stage, in milliseconds.
    pub wall_ms: f64,
    /// Per-phase `(span name, spans observed, total milliseconds)`,
    /// sorted by total time descending. Phases overlap (a `howard` span
    /// runs inside an `analysis` span), so the totals exceed wall time.
    pub phases: Vec<(&'static str, u64, f64)>,
    /// Selection-engine counter increments attributable to this stage
    /// (solves and branch & bound nodes).
    pub ilp: ilp::IlpStats,
}

impl PhaseBreakdownRow {
    /// Total milliseconds spent in spans of the given phase during this
    /// stage, `0.0` when the phase never ran.
    #[must_use]
    pub fn phase_ms(&self, phase: &str) -> f64 {
        self.phases
            .iter()
            .find(|(name, _, _)| *name == phase)
            .map_or(0.0, |(_, _, ms)| *ms)
    }
}

/// Runs E13: the MPEG-2 encoder swept over `targets` through the three
/// [`SweepStages`] (the same three stages as E11 and E19) with engine
/// tracing enabled, reporting each stage's per-phase time split from
/// the `ermes_phase_seconds` histograms. This is the observability
/// counterpart of E11: it shows *which* phases the cache removes
/// (analysis, ILP, ordering collapse to cache probes) rather than just
/// that the total shrinks.
///
/// # Panics
///
/// Panics if the MPEG-2 design fails to sweep (it is live by
/// construction).
#[must_use]
pub fn phase_breakdown(targets: &[u64], jobs: usize) -> Vec<PhaseBreakdownRow> {
    let (design, _) = mpeg2sys::mpeg2_design();
    let stages = SweepStages::new(design, targets.to_vec(), jobs);
    let was_enabled = trace::enabled();
    trace::set_enabled(true);
    let rows = Stage::ALL
        .iter()
        .map(|&stage| {
            trace::reset();
            let before = ilp::stats();
            let (wall_ms, _) = stages.run(stage);
            let ilp = ilp::stats().delta_since(&before);
            let mut phases: Vec<(&'static str, u64, f64)> = trace::phase_snapshot()
                .iter()
                .map(|p| (p.phase, p.count, p.sum_seconds * 1e3))
                .collect();
            phases.sort_by(|a, b| b.2.total_cmp(&a.2));
            PhaseBreakdownRow {
                stage: stage.name(),
                wall_ms,
                phases,
                ilp,
            }
        })
        .collect();
    trace::set_enabled(was_enabled);
    trace::reset();
    rows
}

/// Stall statistics of the motivating example under its two live
/// orderings: `(suboptimal stall cycles, optimal stall cycles)` summed
/// over all processes of a 200-iteration run.
#[must_use]
pub fn motivating_stalls() -> (u64, u64) {
    let total = |ordering: sysgraph::ChannelOrdering| -> u64 {
        let mut ex = MotivatingExample::new();
        ordering.apply_to(&mut ex.system).expect("valid");
        let outcome = pnsim::simulate_timing(&ex.system, 200);
        pnsim::stall_report(&ex.system, &outcome)
            .iter()
            .map(|s| s.stall_cycles)
            .sum()
    };
    let ex = MotivatingExample::new();
    (
        total(ex.suboptimal_ordering()),
        total(ex.optimal_ordering()),
    )
}

/// Ablation results (design-choice studies promised in DESIGN.md §7).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Of `symmetric_trials` symmetric systems, how many deadlock under
    /// the paper's timestamp tie-break (must be 0).
    pub timestamp_deadlocks: usize,
    /// ...and under the adversarial tie resolution (must be > 0).
    pub adversarial_deadlocks: usize,
    /// Trials run.
    pub symmetric_trials: usize,
    /// Best cycle time of the M2 timing exploration *with* in-loop
    /// channel reordering, in cycles.
    pub explore_with_reorder: f64,
    /// ...and with reordering disabled.
    pub explore_without_reorder: f64,
    /// MPEG-2 buffer-sizing: cycle time before and after one extra FIFO
    /// slot on the most profitable critical channel, with its name.
    pub buffer_before: f64,
    /// Cycle time after the best single-slot insertion.
    pub buffer_after: f64,
    /// The channel that was deepened.
    pub buffer_channel: String,
}

/// Runs the ablation studies.
#[must_use]
pub fn ablation() -> AblationResult {
    // --- Tie-break necessity on symmetric structures. -------------------
    let mut timestamp_deadlocks = 0;
    let mut adversarial_deadlocks = 0;
    let trials = 20;
    for k in 0..trials {
        // A hub feeding a join through 2..4 identical parallel channels.
        let mut sys = sysgraph::SystemGraph::new();
        let src = sys.add_process("src", 1);
        let hub = sys.add_process("hub", 2);
        let join = sys.add_process("join", 2);
        let snk = sys.add_process("snk", 1);
        sys.add_channel("in", src, hub, 1).expect("valid");
        for i in 0..(2 + k % 3) {
            sys.add_channel(format!("d{i}"), hub, join, 2 + (k % 4) as u64)
                .expect("valid");
        }
        sys.add_channel("out", join, snk, 1).expect("valid");
        for (policy, counter) in [
            (chanorder::TieBreak::Timestamp, &mut timestamp_deadlocks),
            (chanorder::TieBreak::Adversarial, &mut adversarial_deadlocks),
        ] {
            let solution = chanorder::order_channels_with(
                &sys,
                chanorder::OrderingOptions { tie_break: policy },
            );
            if cycle_time_of(&sys, &solution.ordering)
                .expect("valid")
                .is_deadlock()
            {
                *counter += 1;
            }
        }
    }

    // --- Reordering inside the exploration loop. -------------------------
    let run = |reorder: bool| -> f64 {
        let (design, _) = mpeg2sys::m2_design();
        let trace = explore(
            design,
            ExplorationConfig {
                reorder,
                ..ExplorationConfig::with_target(2_000_000)
            },
        )
        .expect("M2 explores");
        trace.best().cycle_time.to_f64()
    };
    let explore_with_reorder = run(true);
    let explore_without_reorder = run(false);

    // --- Buffer sizing on the case study (the §7 extension). -------------
    let (mut design, _) = mpeg2sys::m1_design();
    let solution = order_channels(design.system());
    solution
        .ordering
        .apply_to(design.system_mut())
        .expect("valid");
    let buffer_before = ermes::analyze_design(&design)
        .cycle_time()
        .expect("live")
        .to_f64();
    let effects = ermes::buffer_sensitivity(&design).expect("live");
    let best = effects
        .iter()
        .min_by(|a, b| a.cycle_time.cmp(&b.cycle_time))
        .expect("critical channels exist");
    AblationResult {
        timestamp_deadlocks,
        adversarial_deadlocks,
        symmetric_trials: trials,
        explore_with_reorder,
        explore_without_reorder,
        buffer_before,
        buffer_after: best.cycle_time.to_f64(),
        buffer_channel: design.system().channel(best.channel).name().to_string(),
    }
}

/// E15 — per-edit latency of the incremental session engine against the
/// full stateless handler path, on the MPEG-2 encoder.
#[derive(Debug, Clone)]
pub struct IncrementalResult {
    /// Median microseconds for one stateless `/analyze`-equivalent pass
    /// over an edited spec: JSON parse, one design build, canonical
    /// cache key, memoized analysis (kept warm — the *best* case for the
    /// stateless path), and rendering.
    pub full_us: f64,
    /// Median microseconds for one session reselect (dirty-SCC reprice).
    pub per_edit_us: f64,
    /// Median microseconds to derive the bottleneck report and render it
    /// from the cached session state (on top of `per_edit_us` when a
    /// response body is needed).
    pub render_us: f64,
    /// `full_us / per_edit_us`.
    pub speedup: f64,
    /// Batches each median is taken over.
    pub batches: usize,
    /// Iterations per batch on the stateless path.
    pub full_iters: usize,
    /// Iterations per batch on the per-edit and render paths.
    pub edit_iters: usize,
}

/// Runs E15: alternates one process of the MPEG-2 encoder between two
/// Pareto points, measuring (a) the full stateless handler work a
/// distinct edited spec costs `/analyze` even with the analysis cache
/// warm, and (b) the same edit applied to a live [`ermes::DeltaState`].
/// Single-iteration timings at this scale are ±10–15% noisy, so each
/// figure is a median over batches of many iterations.
///
/// # Panics
///
/// Panics if the MPEG-2 design has no multi-point frontier (it does by
/// construction).
#[must_use]
pub fn incremental_latency() -> IncrementalResult {
    let (design, _) = mpeg2sys::mpeg2_design();
    let p = design
        .system()
        .process_ids()
        .find(|&q| design.pareto(q).len() >= 2)
        .expect("mpeg2 has a multi-point frontier");
    let variants: Vec<String> = (0..2)
        .map(|i| {
            let mut d = design.clone();
            d.select(p, i).expect("frontier point");
            ermesd::SystemSpec::from_design(&d).to_json_pretty()
        })
        .collect();

    const BATCHES: usize = 7;
    const FULL_ITERS: usize = 300;
    const EDIT_ITERS: usize = 20_000;
    let median = |mut xs: Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };

    // The stateless path, measured at its steady state: the cache is
    // pre-warmed with both variants so no batch pays a cold miss.
    let cache = ermes::EngineCache::new();
    let mut sink = 0usize;
    for v in &variants {
        let spec = ermesd::SystemSpec::from_json(v).expect("round-trips");
        let design = spec.to_design().expect("well-formed");
        sink += ermesd::analyze_design(&design, Some(&cache), None)
            .expect("analyzes")
            .len();
    }
    let full_us = median(
        (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for i in 0..FULL_ITERS {
                    let spec =
                        ermesd::SystemSpec::from_json(&variants[i % 2]).expect("round-trips");
                    let design = spec.to_design().expect("well-formed");
                    sink += spec.to_json_pretty().len(); // canonical cache key
                    sink += ermesd::analyze_design(&design, Some(&cache), None)
                        .expect("analyzes")
                        .len();
                }
                t.elapsed().as_secs_f64() * 1e6 / FULL_ITERS as f64
            })
            .collect(),
    );

    // The session path: the same alternating edit as a dirty-SCC reprice.
    let mut st = ermes::DeltaState::open(design.clone());
    let per_edit_us = median(
        (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for i in 0..EDIT_ITERS {
                    let r = st.reselect(p, i % 2, None).expect("valid point");
                    sink += r.critical_processes.len();
                }
                t.elapsed().as_secs_f64() * 1e6 / EDIT_ITERS as f64
            })
            .collect(),
    );

    // Turning the cached state into a response body.
    let render_us = median(
        (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..EDIT_ITERS {
                    sink += st.bottleneck().map_or(0, |b| b.render().len());
                }
                t.elapsed().as_secs_f64() * 1e6 / EDIT_ITERS as f64
            })
            .collect(),
    );
    std::hint::black_box(sink);

    IncrementalResult {
        full_us,
        per_edit_us,
        render_us,
        speedup: full_us / per_edit_us,
        batches: BATCHES,
        full_iters: FULL_ITERS,
        edit_iters: EDIT_ITERS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_matches_paper_numbers() {
        let r = fig2();
        assert_eq!(r.ordering_space, 36);
        assert!(r.deadlock_order_deadlocks);
        assert!(r.simulation_stalls);
        assert_eq!(r.suboptimal_cycle_time, Ratio::new(20, 1));
        assert_eq!(r.optimal_cycle_time, Ratio::new(12, 1));
    }

    #[test]
    fn fig4_matches_paper_labels_and_orders() {
        let r = fig4();
        assert_eq!(r.head_weights_e_d_g, (19, 13, 17));
        assert_eq!(r.tail_weights_b_d_f, (16, 10, 13));
        assert_eq!(r.p6_gets, vec!["d", "g", "e"]);
        assert_eq!(r.p2_puts, vec!["b", "f", "d"]);
        assert_eq!(r.algorithm_cycle_time, Ratio::new(12, 1));
        assert_eq!(r.exhaustive_optimum, Ratio::new(12, 1));
        assert!((r.improvement_percent - 40.0).abs() < 1e-9);
    }

    #[test]
    fn fig3_structure() {
        let r = fig3();
        // 7 processes + 8 channels.
        assert_eq!(r.transitions, 15);
        assert_eq!(r.channel_b_feed_count, 2);
        assert_eq!(r.initial_tokens, 7, "one token per process");
    }

    #[test]
    fn fig2b_fsm_text() {
        let text = fig2b();
        assert!(text.contains("FSM of P2"));
        assert!(text.contains("stall self-loop"));
    }

    #[test]
    fn sweep_front_is_monotone() {
        let front = mpeg2_sweep();
        assert!(front.len() >= 3, "expected a multi-point front");
        for w in front.windows(2) {
            assert!(w[0].cycle_time < w[1].cycle_time);
            assert!(w[0].area > w[1].area);
        }
    }

    #[test]
    fn optimal_ordering_stalls_less() {
        let (slow, fast) = motivating_stalls();
        assert!(fast < slow, "optimal {fast} vs suboptimal {slow}");
    }

    #[test]
    fn ablation_confirms_design_choices() {
        let r = ablation();
        assert_eq!(r.timestamp_deadlocks, 0, "the paper's tie-break is safe");
        assert!(
            r.adversarial_deadlocks > 0,
            "the ablation control must fail"
        );
        assert!(r.buffer_after <= r.buffer_before);
    }

    #[test]
    fn scale_ladder_fronts_are_identical() {
        // Small sizes keep the test fast; `repro --experiment scale` runs
        // the ladder to 10,000 processes. The contract under test is the
        // bit-identity flags and sane counters, not the speedup.
        let rows = scale_ladder(&[60, 120], 4, usize::MAX);
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert!(
                row.identical,
                "fronts diverged at {} processes",
                row.processes
            );
            assert!(row.reanalysis_identical, "at {} processes", row.processes);
            assert!(row.baseline_ms > Some(0.0) && row.cold_ms > 0.0 && row.warm_ms > 0.0);
            assert!(row.targets == 12);
            assert!((0.0..=1.0).contains(&row.analysis_hit_rate));
            // The warm re-sweep replays only cached configurations.
            assert!(
                row.analysis_hit_rate > 0.0,
                "warm re-sweep produced no cache hits at {} processes",
                row.processes
            );
        }
    }

    #[test]
    fn m1_reordering_holds_performance_and_avoids_deadlock() {
        let r = m1_reordering();
        // Our reconstruction's frame loop is ordering-insensitive (see
        // EXPERIMENTS.md): the algorithm must match the conservative
        // order within 1%, never regress materially, and the deadlock
        // statistic must show why the tool is needed at all.
        let rel = (r.after.to_f64() - r.before.to_f64()) / r.before.to_f64();
        assert!(rel < 0.01, "algorithm regressed by {:.3}%", rel * 100.0);
        assert!(
            r.random_orders_deadlocking > 30,
            "random orders were unexpectedly safe: {}",
            r.random_orders_deadlocking
        );
    }
}
