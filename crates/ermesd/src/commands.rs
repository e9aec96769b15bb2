//! The CLI commands, as testable functions returning their output text.

use crate::json::JsonError;
use crate::spec::{SpecError, SystemSpec};
use ermes::ExplorationConfig;
use std::fmt::Write as _;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// The spec file could not be interpreted.
    Spec(SpecError),
    /// The JSON payload is malformed.
    Json(JsonError),
    /// The methodology failed (deadlock, solver failure).
    Ermes(ermes::ErmesError),
    /// The command references something the spec does not contain.
    Usage(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Spec(e) => write!(f, "spec error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::Ermes(e) => write!(f, "methodology error: {e}"),
            CliError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

impl From<JsonError> for CliError {
    fn from(e: JsonError) -> Self {
        CliError::Json(e)
    }
}

impl From<ermes::ErmesError> for CliError {
    fn from(e: ermes::ErmesError) -> Self {
        CliError::Ermes(e)
    }
}

/// Parses a spec from JSON text.
///
/// # Errors
///
/// [`CliError::Json`] on malformed JSON.
///
/// # Panics
///
/// Only under an active fault plan naming `json.parse` (chaos testing).
pub fn parse_spec(json: &str) -> Result<SystemSpec, CliError> {
    let _ = parx::faultpoint::hit("json.parse");
    Ok(SystemSpec::from_json(json)?)
}

/// Maps a [`parx::Cancelled`] poll result into the structured
/// [`ermes::ErmesError::Cancelled`] with partial-progress metadata.
fn cancelled(err: parx::Cancelled, completed: usize, total: usize) -> CliError {
    CliError::Ermes(ermes::ErmesError::Cancelled {
        reason: err.reason,
        completed,
        total,
    })
}

/// `ermes analyze <spec>` — cycle time, throughput, critical cycle.
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_analyze(spec: &SystemSpec) -> Result<String, CliError> {
    analyze_design(&spec.to_design()?, None, None)
}

/// The `analyze` command on a built design, shared by the CLI and the
/// daemon. `cache` memoizes the analysis across requests on the same
/// base design; `cancel` is polled at analysis iteration boundaries.
/// The output is bit-identical with or without either.
///
/// # Errors
///
/// [`ermes::ErmesError::Cancelled`] (wrapped) when `cancel` fires
/// mid-analysis.
pub fn analyze_design(
    design: &ermes::Design,
    cache: Option<&ermes::EngineCache>,
    cancel: Option<&parx::CancelToken>,
) -> Result<String, CliError> {
    let report = ermes::ExploreOptions { cache, cancel }
        .analyze(design)
        .map_err(|e| cancelled(e, 0, 1))?;
    Ok(render_report(design, &report, None))
}

/// Renders a session's cached analysis — byte-identical to
/// [`cmd_analyze`] on a spec capturing the session's current design,
/// without re-running any analysis: the lowered TMG and the bottleneck
/// diagnosis come from the [`ermes::DeltaState`] itself.
#[must_use]
pub fn render_session_report(state: &ermes::DeltaState) -> String {
    render_report(state.design(), state.report(), Some(state))
}

/// The one `analyze` response composition. `session` supplies the
/// cached lowering and bottleneck state on the stateful path; the
/// stateless path recomputes both (the bit-identity contract between
/// the two rests on this being a single function).
fn render_report(
    design: &ermes::Design,
    report: &ermes::PerfReport,
    session: Option<&ermes::DeltaState>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "processes: {}  channels: {}  area: {:.4}",
        design.system().process_count(),
        design.system().channel_count(),
        design.area()
    );
    match report.cycle_time() {
        None => {
            let _ = writeln!(out, "verdict: DEADLOCK");
            if let tmg::Verdict::Deadlock { witness } = &report.verdict {
                let fresh;
                let lowered = match session {
                    Some(s) => s.lowered(),
                    None => {
                        fresh = sysgraph::lower_to_tmg(design.system());
                        &fresh
                    }
                };
                let _ = writeln!(out, "token-free cycle ({} places):", witness.len());
                for p in witness {
                    let place = lowered.tmg().place(*p);
                    let _ = writeln!(
                        out,
                        "  {} -> {}",
                        lowered.transition_name(design.system(), place.producer()),
                        lowered.transition_name(design.system(), place.consumer())
                    );
                }
            }
        }
        Some(ct) => {
            let _ = writeln!(out, "verdict: live");
            let _ = writeln!(out, "cycle time: {ct} cycles");
            if let Some(tp) = report.verdict.throughput() {
                let _ = writeln!(out, "throughput: {tp} items/cycle");
            }
            let names: Vec<&str> = report
                .critical_processes
                .iter()
                .map(|&p| design.system().process(p).name())
                .collect();
            let _ = writeln!(out, "critical processes: {names:?}");
            let bottleneck = match session {
                Some(s) => s.bottleneck(),
                None => ermes::bottleneck_report(design),
            };
            if let Some(bottleneck) = bottleneck {
                let _ = write!(out, "{}", bottleneck.render());
            }
        }
    }
    out
}

/// `ermes verify <spec>` — formal deadlock-freedom certification with
/// the exact steady-state period, cross-checked against Howard's cycle
/// ratio on the lowered TMG (the two must agree to `f64` bit identity).
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_verify(spec: &SystemSpec) -> Result<String, CliError> {
    let sys = spec.to_system()?;
    render_verify_system(&sys, None)
}

/// The one `verify` response composition, shared by the CLI, the
/// stateless endpoint, and the session endpoint (which verifies its
/// live design directly). `cancel` is polled inside both the state
/// search and the cross-check; with a live token the output is
/// bit-identical. Progress metadata on cancellation counts two steps:
/// the certifier itself, then the Howard cross-check.
///
/// # Errors
///
/// [`ermes::ErmesError::Cancelled`] (wrapped) when `cancel` fires.
pub fn render_verify_system(
    sys: &sysgraph::SystemGraph,
    cancel: Option<&parx::CancelToken>,
) -> Result<String, CliError> {
    let report = verify::verify_system(sys, &verify::VerifyConfig::default(), cancel)
        .map_err(|e| cancelled(e, 0, 2))?;
    let lowered = sysgraph::lower_to_tmg(sys);
    let howard = tmg::IncrementalAnalysis::new_with_cancel(lowered.tmg(), cancel)
        .map_err(|e| cancelled(e, 1, 2))?
        .into_verdict();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "processes: {}  channels: {}  components: {}",
        report.processes, report.channels, report.components
    );
    if report.statics.is_clean() {
        let _ = writeln!(out, "static analysis: clean");
    } else {
        let _ = writeln!(
            out,
            "static analysis: {} finding(s)",
            report.statics.findings.len()
        );
        for finding in &report.statics.findings {
            let _ = writeln!(out, "  - {finding}");
        }
    }
    match &report.verdict {
        verify::VerifyVerdict::Certified {
            method,
            states,
            period,
            ..
        } => {
            let _ = writeln!(
                out,
                "verdict: CERTIFIED deadlock-free ({}, {} states)",
                method.name(),
                states
            );
            match period {
                Some(period) => {
                    let _ = writeln!(out, "period: {period} cycles (exact)");
                }
                None => {
                    let _ = writeln!(out, "period: unavailable (recurrence budget exhausted)");
                }
            }
            match howard.cycle_time() {
                Some(reference) => {
                    let identical = *period == Some(reference)
                        && period
                            .is_some_and(|p| p.to_f64().to_bits() == reference.to_f64().to_bits());
                    if identical {
                        let _ = writeln!(
                            out,
                            "cross-check: howard cycle time {reference} — f64 bit-identical"
                        );
                    } else if period.is_none() {
                        let _ = writeln!(out, "cross-check: howard cycle time {reference}");
                    } else {
                        let _ = writeln!(
                            out,
                            "cross-check: MISMATCH — howard says {reference}, verify says {:?}",
                            period.map(|p| p.to_string())
                        );
                    }
                }
                None => {
                    let _ = writeln!(
                        out,
                        "cross-check: MISMATCH — howard says DEADLOCK, verify certified"
                    );
                }
            }
        }
        verify::VerifyVerdict::Refuted {
            processes,
            cycle,
            trace,
            blocked,
        } => {
            let _ = writeln!(
                out,
                "verdict: REFUTED — deadlock in component {processes:?}"
            );
            let _ = writeln!(out, "token-free cycle ({} ops):", cycle.len());
            for line in cycle {
                let _ = writeln!(out, "  {line}");
            }
            if trace.is_empty() {
                let _ = writeln!(
                    out,
                    "counterexample: blocked from reset (no step completes)"
                );
            } else {
                let _ = writeln!(out, "counterexample trace ({} steps):", trace.len());
                for line in trace {
                    let _ = writeln!(out, "  {line}");
                }
            }
            if !blocked.is_empty() {
                let _ = writeln!(out, "blocked operations:");
                for line in blocked {
                    let _ = writeln!(out, "  {line}");
                }
            }
            if howard.is_deadlock() {
                let _ = writeln!(out, "cross-check: howard agrees (DEADLOCK)");
            } else {
                let _ = writeln!(
                    out,
                    "cross-check: MISMATCH — howard says live, verify refuted"
                );
            }
        }
        verify::VerifyVerdict::Unknown { reason, states } => {
            let _ = writeln!(out, "verdict: UNKNOWN — {reason} ({states} states)");
        }
    }
    Ok(out)
}

/// `ermes order <spec>` — run Algorithm 1 and return the report plus the
/// updated spec JSON (with explicit statement orders).
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_order(spec: &SystemSpec) -> Result<(String, String), CliError> {
    let sys = spec.to_system()?;
    let before = tmg::analyze(sysgraph::lower_to_tmg(&sys).tmg());
    let solution = chanorder::order_channels(&sys);
    let mut ordered = sys.clone();
    solution
        .ordering
        .apply_to(&mut ordered)
        .map_err(|_| CliError::Usage("ordering failed to apply".into()))?;
    let after = tmg::analyze(sysgraph::lower_to_tmg(&ordered).tmg());
    let mut out = String::new();
    let fmt_verdict = |v: &tmg::Verdict| match v.cycle_time() {
        Some(ct) => format!("live, cycle time {ct}"),
        None => "DEADLOCK".to_string(),
    };
    let _ = writeln!(out, "before: {}", fmt_verdict(&before));
    let _ = writeln!(out, "after : {}", fmt_verdict(&after));
    let new_spec = spec.with_system_state(&ordered);
    Ok((out, new_spec.to_json_pretty()))
}

/// `ermes explore <spec> --target <cycles>` — the Fig. 5 loop.
///
/// # Errors
///
/// [`CliError`] on malformed specs or a deadlocking system.
pub fn cmd_explore(spec: &SystemSpec, target: u64) -> Result<(String, String), CliError> {
    let cache = ermes::EngineCache::new();
    let (mut out, json) = explore_design(spec, spec.to_design()?, target, &cache, None)?;
    out.push_str(&cache_stats_line(&cache.stats()));
    Ok((out, json))
}

/// The `explore` command on `spec`'s built design, shared by the CLI
/// and the daemon: the iteration table and the explored spec, without
/// the CLI's trailing per-run cache-statistics line (which varies with
/// the cache's warmth and so cannot appear in a bit-stable daemon
/// response; the daemon serves those counters, aggregated, at
/// `GET /metrics`). `cancel` is polled at exploration iteration
/// boundaries and inside each cycle-time analysis; with a live token
/// the output is bit-identical.
///
/// # Errors
///
/// [`CliError`] on a deadlocking system, or a fired token
/// ([`ermes::ErmesError::Cancelled`] with progress metadata).
pub fn explore_design(
    spec: &SystemSpec,
    design: ermes::Design,
    target: u64,
    cache: &ermes::EngineCache,
    cancel: Option<&parx::CancelToken>,
) -> Result<(String, String), CliError> {
    let options = ermes::ExploreOptions {
        cache: Some(cache),
        cancel,
    };
    let trace = ermes::explore_with(design, ExplorationConfig::with_target(target), &options)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "iter  action                cycle-time      area  meets"
    );
    for r in &trace.iterations {
        let _ = writeln!(
            out,
            "{:>4}  {:<20} {:>11} {:>9.4}  {}",
            r.index,
            format!("{:?}", r.action),
            r.cycle_time.to_string(),
            r.area,
            if r.meets_target { "yes" } else { "no" }
        );
    }
    let _ = writeln!(
        out,
        "best: iteration {} (cycle time {}, area {:.4})",
        trace.best_index,
        trace.best().cycle_time,
        trace.best().area
    );
    let new_spec = spec.with_system_state(trace.design.system());
    Ok((out, new_spec.to_json_pretty()))
}

/// The CLI's per-run cache-statistics footer.
fn cache_stats_line(stats: &ermes::CacheStats) -> String {
    format!(
        "cache: analysis {}/{} hits ({:.0}%), ordering {}/{} hits ({:.0}%)\n",
        stats.analysis_hits,
        stats.analysis_hits + stats.analysis_misses,
        stats.analysis_hit_rate() * 100.0,
        stats.ordering_hits,
        stats.ordering_hits + stats.ordering_misses,
        stats.ordering_hit_rate() * 100.0,
    )
}

/// `ermes simulate <spec> --iterations <n> [--vcd <file>]` —
/// cycle-accurate execution, optionally dumping a channel-activity
/// waveform. Returns `(report, vcd_document)`.
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_simulate(spec: &SystemSpec, iterations: u64) -> Result<String, CliError> {
    Ok(cmd_simulate_traced(spec, iterations, false)?.0)
}

/// [`cmd_simulate`] with waveform capture: the second element is the VCD
/// document when `trace` is set (empty otherwise).
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_simulate_traced(
    spec: &SystemSpec,
    iterations: u64,
    trace: bool,
) -> Result<(String, String), CliError> {
    let sys = spec.to_system()?;
    let kernels: Vec<Box<dyn pnsim::Kernel<u8>>> = sys
        .process_ids()
        .map(|p| {
            Box::new(pnsim::FixedLatency::new(
                sys.process(p).latency(),
                sys.put_order(p).len(),
                0u8,
            )) as Box<dyn pnsim::Kernel<u8>>
        })
        .collect();
    let (outcome, _) = pnsim::run(
        &sys,
        kernels,
        pnsim::SimConfig {
            max_iterations: Some(iterations),
            record_sink_inputs: false,
            record_transfers: trace,
            ..pnsim::SimConfig::default()
        },
    );
    let mut out = String::new();
    if outcome.deadlocked {
        let _ = writeln!(out, "execution DEADLOCKED at cycle {}", outcome.time);
    } else {
        let _ = writeln!(out, "ran to cycle {}", outcome.time);
        if let Some(ct) = outcome.estimated_cycle_time() {
            let _ = writeln!(out, "steady-state cycle time: {ct:.2}");
        }
    }
    let vcd = if trace {
        pnsim::transfers_to_vcd(&sys, &outcome.transfers)
    } else {
        String::new()
    };
    Ok((out, vcd))
}

/// `ermes buffers <spec> --target <cycles> --budget <slots>` — FIFO
/// sizing (the Section 7 extension).
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_buffers(spec: &SystemSpec, target: u64, budget: u64) -> Result<String, CliError> {
    let design = spec.to_design()?;
    let before = ermes::analyze_design(&design)
        .cycle_time()
        .ok_or_else(|| CliError::Usage("system deadlocks; run `order` first".into()))?;
    let (sized, assignments) = ermes::size_buffers(design, target, budget);
    let after = ermes::analyze_design(&sized)
        .cycle_time()
        .expect("buffering cannot deadlock a live system");
    let mut out = String::new();
    let _ = writeln!(out, "cycle time: {before} -> {after}");
    if assignments.is_empty() {
        let _ = writeln!(out, "no profitable buffer found");
    }
    for (c, depth) in assignments {
        let _ = writeln!(
            out,
            "deepen channel `{}` to {} slots",
            sized.system().channel(c).name(),
            depth
        );
    }
    Ok(out)
}

/// `ermes refine <spec> [--passes <n>]` — Algorithm 1 followed by
/// local-search refinement; returns the report plus the refined spec.
///
/// # Errors
///
/// [`CliError`] on malformed or deadlocking specs.
pub fn cmd_refine(spec: &SystemSpec, passes: usize) -> Result<(String, String), CliError> {
    let sys = spec.to_system()?;
    let solution = chanorder::order_channels(&sys);
    let base = chanorder::cycle_time_of(&sys, &solution.ordering)
        .map_err(|_| CliError::Usage("ordering failed to apply".into()))?
        .cycle_time()
        .ok_or_else(|| CliError::Usage("system deadlocks under the computed order".into()))?;
    let refined = chanorder::refine_ordering(
        &sys,
        &solution.ordering,
        chanorder::RefineConfig { max_passes: passes },
    );
    let mut out = String::new();
    let _ = writeln!(out, "algorithm: cycle time {base}");
    let _ = writeln!(
        out,
        "refined  : cycle time {} ({} improving move(s))",
        refined.cycle_time, refined.moves
    );
    let mut best = sys.clone();
    refined
        .ordering
        .apply_to(&mut best)
        .map_err(|_| CliError::Usage("refined ordering failed to apply".into()))?;
    Ok((out, spec.with_system_state(&best).to_json_pretty()))
}

/// `ermes sweep <spec> --targets a,b,c [--jobs <n>]` — the system-level
/// Pareto front. The target ladder runs on up to `jobs` worker threads
/// (`0` = all hardware threads) over one shared memoization cache; the
/// front is bit-identical at any value.
///
/// # Errors
///
/// [`CliError`] on malformed specs or exploration failure.
pub fn cmd_sweep(spec: &SystemSpec, targets: &[u64], jobs: usize) -> Result<String, CliError> {
    let cache = ermes::EngineCache::new();
    let mut out = sweep_design(spec.to_design()?, targets, jobs, &cache, None)?;
    out.push_str(&cache_stats_line(&cache.stats()));
    Ok(out)
}

/// The `sweep` command on a built design, shared by the CLI and the
/// daemon, without the CLI's trailing cache-statistics line (see
/// [`explore_design`] for why). `cancel` is polled per target;
/// cancellation progress counts completed targets in ladder order.
///
/// # Errors
///
/// [`CliError`] on exploration failure or a fired token
/// ([`ermes::ErmesError::Cancelled`] with progress metadata).
pub fn sweep_design(
    design: ermes::Design,
    targets: &[u64],
    jobs: usize,
    cache: &ermes::EngineCache,
    cancel: Option<&parx::CancelToken>,
) -> Result<String, CliError> {
    let options = ermes::SweepOptions {
        jobs,
        memoize: true,
    };
    let report = match cancel {
        Some(token) => ermes::pareto_sweep_cancellable(design, targets, &options, cache, token)?,
        None => ermes::pareto_sweep_cached(design, targets, &options, cache)?,
    };
    Ok(render_sweep_front(&report.front))
}

/// Renders a pruned sweep front as the `ermes sweep` table. This is the
/// single serialization point for sweep results: the CLI, the daemon's
/// `/sweep`, and the cluster coordinator reassembling remotely computed
/// points all call it, which is what makes their bytes identical.
#[must_use]
pub fn render_sweep_front(front: &[ermes::SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "target        best-ct        area  meets");
    for p in front {
        let _ = writeln!(
            out,
            "{:>9} {:>12} {:>11.4}  {}",
            p.target_cycle_time,
            p.cycle_time.to_string(),
            p.area,
            if p.meets_target { "yes" } else { "no" }
        );
    }
    out
}

/// `ermes stalls <spec> --iterations <n>` — per-process stall statistics
/// from a cycle-accurate run (Section 2's "cycles spent waiting").
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_stalls(spec: &SystemSpec, iterations: u64) -> Result<String, CliError> {
    let sys = spec.to_system()?;
    let outcome = pnsim::simulate_timing(&sys, iterations);
    let mut out = String::new();
    if outcome.deadlocked {
        let _ = writeln!(out, "execution DEADLOCKED at cycle {}", outcome.time);
        return Ok(out);
    }
    let _ = writeln!(out, "process               iters     busy    stall  stall%");
    for s in pnsim::stall_report(&sys, &outcome) {
        let _ = writeln!(
            out,
            "{:<20} {:>6} {:>8} {:>8}  {:>5.1}%",
            sys.process(s.process).name(),
            s.iterations,
            s.busy_cycles,
            s.stall_cycles,
            s.stall_fraction * 100.0
        );
    }
    Ok(out)
}

/// `ermes dot <spec>` — Graphviz export.
///
/// # Errors
///
/// [`CliError`] on malformed specs.
pub fn cmd_dot(spec: &SystemSpec) -> Result<String, CliError> {
    Ok(sysgraph::to_dot(&spec.to_system()?))
}

/// `ermes fsm <spec> <process>` — the Fig. 2(b) FSM of one process.
///
/// # Errors
///
/// [`CliError::Usage`] if the process does not exist.
pub fn cmd_fsm(spec: &SystemSpec, process: &str) -> Result<String, CliError> {
    let sys = spec.to_system()?;
    let pid = sys
        .process_ids()
        .find(|&p| sys.process(p).name() == process)
        .ok_or_else(|| CliError::Usage(format!("no process named `{process}`")))?;
    Ok(pnsim::process_fsm(&sys, pid).to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "processes": [
            {"name": "src", "latency": 1},
            {"name": "worker", "latency": 6,
             "pareto": [{"latency": 3, "area": 2.0}, {"latency": 6, "area": 1.0}]},
            {"name": "snk", "latency": 1}
        ],
        "channels": [
            {"name": "in", "from": "src", "to": "worker", "latency": 1},
            {"name": "out", "from": "worker", "to": "snk", "latency": 1}
        ]
    }"#;

    #[test]
    fn analyze_reports_cycle_time() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_analyze(&spec).expect("analyzes");
        assert!(out.contains("verdict: live"));
        assert!(out.contains("cycle time: 8 cycles"));
        assert!(out.contains("worker"));
    }

    #[test]
    fn verify_certifies_live_specs_with_bit_identical_period() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_verify(&spec).expect("verifies");
        assert!(out.contains("verdict: CERTIFIED deadlock-free"), "{out}");
        assert!(out.contains("period: 8 cycles (exact)"), "{out}");
        assert!(
            out.contains("cross-check: howard cycle time 8 — f64 bit-identical"),
            "{out}"
        );
        assert!(out.contains("static analysis: clean"), "{out}");
    }

    #[test]
    fn verify_refutes_a_starved_loop_with_a_witness() {
        let spec = parse_spec(
            r#"{
                "processes": [
                    {"name": "a", "latency": 2},
                    {"name": "b", "latency": 3}
                ],
                "channels": [
                    {"name": "fwd", "from": "a", "to": "b", "latency": 1},
                    {"name": "fb", "from": "b", "to": "a", "latency": 1}
                ]
            }"#,
        )
        .expect("valid");
        let starved = cmd_verify(&spec).expect("renders");
        assert!(starved.contains("starved channel cycle"), "{starved}");
        // The paper's Section 2 statement order, which blocks the
        // motivating example on itself.
        let mut ex = sysgraph::MotivatingExample::new();
        ex.deadlock_ordering()
            .apply_to(&mut ex.system)
            .expect("the ordering fits");
        let self_blocking = render_verify_system(&ex.system, None).expect("renders");
        for out in [&starved, &self_blocking] {
            assert!(out.contains("verdict: REFUTED"), "{out}");
            assert!(out.contains("token-free cycle"), "{out}");
            assert!(
                out.contains("cross-check: howard agrees (DEADLOCK)"),
                "{out}"
            );
            assert!(out.contains("counterexample"), "{out}");
        }
    }

    #[test]
    fn verify_cancellable_is_bit_identical_with_a_live_token() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let token = parx::CancelToken::new();
        let plain = cmd_verify(&spec).expect("verifies");
        let sys = spec.to_system().expect("valid");
        let cancellable = render_verify_system(&sys, Some(&token)).expect("verifies");
        assert_eq!(plain, cancellable);
    }

    #[test]
    fn verify_cancelled_token_maps_to_structured_error() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let token = parx::CancelToken::new();
        token.cancel(parx::CancelReason::Shutdown);
        let sys = spec.to_system().expect("valid");
        let err = render_verify_system(&sys, Some(&token)).expect_err("cancelled");
        assert!(matches!(
            err,
            CliError::Ermes(ermes::ErmesError::Cancelled { .. })
        ));
    }

    #[test]
    fn order_roundtrips_spec() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let (report, json) = cmd_order(&spec).expect("orders");
        assert!(report.contains("after : live"));
        let reparsed = parse_spec(&json).expect("output is valid json");
        assert!(reparsed.processes[1].get_order.is_some());
    }

    #[test]
    fn explore_meets_easy_target() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let (report, json) = cmd_explore(&spec, 6).expect("explores");
        assert!(report.contains("best: iteration"));
        assert!(report.contains("cache:"), "{report}");
        let reparsed = parse_spec(&json).expect("valid json");
        // The worker must have switched to its fast implementation.
        assert_eq!(reparsed.processes[1].latency, 3);
    }

    #[test]
    fn simulate_matches_analysis() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_simulate(&spec, 200).expect("simulates");
        assert!(out.contains("steady-state cycle time: 8.00"), "{out}");
    }

    #[test]
    fn simulate_traced_produces_vcd() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let (report, vcd) = cmd_simulate_traced(&spec, 50, true).expect("simulates");
        assert!(report.contains("steady-state"));
        assert!(vcd.contains("$enddefinitions"));
        assert!(vcd.contains("$var wire 1"));
    }

    #[test]
    fn fsm_prints_and_unknown_process_errors() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_fsm(&spec, "worker").expect("exists");
        assert!(out.contains("FSM of worker"));
        assert!(cmd_fsm(&spec, "ghost").is_err());
    }

    #[test]
    fn refine_never_regresses() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let (report, json) = cmd_refine(&spec, 4).expect("refines");
        assert!(report.contains("algorithm: cycle time"));
        assert!(parse_spec(&json).is_ok());
    }

    #[test]
    fn sweep_renders_a_front() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_sweep(&spec, &[5, 10, 100], 1).expect("sweeps");
        assert!(out.contains("best-ct"), "{out}");
        assert!(out.contains("cache:"), "{out}");
    }

    /// The `cache:` trailer included: a lookup that loses a race to
    /// store the same configuration counts as a hit, so parallel workers
    /// report the serial counters. The socgen design over the E19 ladder
    /// (0.5x to 5x the cycle time under Algorithm 1) is where workers do
    /// race on the same configurations.
    #[test]
    fn sweep_is_identical_at_any_job_count() {
        let soc = socgen::generate(socgen::SocGenConfig::sized(120, 180, 42));
        let design = ermes::Design::new(soc.system, soc.pareto).expect("sizes match");
        let mut ordered = design.clone();
        chanorder::order_channels(ordered.system())
            .ordering
            .apply_to(ordered.system_mut())
            .expect("valid ordering");
        let base = ermes::analyze_design(&ordered)
            .cycle_time()
            .expect("generated benchmarks are live")
            .to_f64();
        let ladder: Vec<u64> = [
            0.5, 0.65, 0.8, 0.95, 1.1, 1.25, 1.4, 1.6, 2.0, 2.5, 3.5, 5.0,
        ]
        .iter()
        .map(|f| ((base * f) as u64).max(1))
        .collect();
        for (spec, targets) in [
            (parse_spec(SAMPLE).expect("valid"), vec![5, 10, 100]),
            (SystemSpec::from_design(&design), ladder),
        ] {
            let serial = cmd_sweep(&spec, &targets, 1).expect("sweeps");
            assert!(serial.contains("cache: analysis"), "{serial}");
            for jobs in [2, 2, 4, 0] {
                let parallel = cmd_sweep(&spec, &targets, jobs).expect("sweeps");
                assert_eq!(parallel, serial, "jobs = {jobs}");
            }
        }
    }

    #[test]
    fn analyze_includes_bottleneck_diagnosis() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_analyze(&spec).expect("analyzes");
        assert!(out.contains("critical cycle:"), "{out}");
    }

    #[test]
    fn stalls_reports_every_process() {
        let spec = parse_spec(SAMPLE).expect("valid");
        let out = cmd_stalls(&spec, 100).expect("simulates");
        assert!(out.contains("worker"));
        assert!(out.contains("stall%"));
    }

    #[test]
    fn dot_contains_graph() {
        let spec = parse_spec(SAMPLE).expect("valid");
        assert!(cmd_dot(&spec).expect("renders").contains("digraph"));
    }

    #[test]
    fn buffers_reports_on_loop_systems() {
        let spec = parse_spec(
            r#"{
                "processes": [
                    {"name": "a", "latency": 10},
                    {"name": "b", "latency": 10}
                ],
                "channels": [
                    {"name": "fwd", "from": "a", "to": "b", "latency": 1},
                    {"name": "fb", "from": "b", "to": "a", "latency": 1, "initial_tokens": 1}
                ]
            }"#,
        )
        .expect("valid");
        let out = cmd_buffers(&spec, 1, 4).expect("sizes");
        assert!(out.contains("->"), "{out}");
    }
}
