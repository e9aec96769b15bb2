//! The ERMES design-space-exploration loop (Fig. 5 of the paper).
//!
//! Each iteration: analyze the system-level performance (cycle time and
//! critical cycle via the TMG model), compute the slack against the
//! target cycle time, then either *recover area* (slack > 0) or *optimize
//! timing* (slack ≤ 0) by re-selecting Pareto-optimal implementations,
//! and finally re-run the channel-ordering algorithm on the new process
//! latencies. Previously visited configurations are excluded by no-good
//! cuts; the loop stops when the active optimization proposes no change.
//!
//! One run is one *chain* of analyses: [`explore_with`] carries one
//! [`tmg::IncrementalAnalysis`] from iteration to iteration, so each
//! analysis (each cache miss, when a cache is set) starts Howard from the
//! policies the previous one converged to. An iteration changes a few
//! selections and, through Algorithm 1, the statement order of many
//! processes, so every analysis re-lowers the system; the carried policy
//! is what survives. Results do not depend on it.

use crate::analysis::{analyze_design, analyze_report, target_ratio, PerfReport};
use crate::cache::EngineCache;
use crate::design::Design;
use crate::error::ErmesError;
use crate::opt::{area_recovery, timing_optimization, OptStrategy};
use sysgraph::ProcessId;
use tmg::{IncrementalAnalysis, Ratio};

/// Configuration of an exploration run.
#[derive(Debug, Clone, Copy)]
pub struct ExplorationConfig {
    /// Target cycle time (TCT), in cycles.
    pub target_cycle_time: u64,
    /// Maximum number of optimization iterations.
    pub max_iterations: usize,
    /// Stop early when the best point has not improved for this many
    /// consecutive iterations (the loop keeps probing excluded
    /// configurations otherwise).
    pub stall_limit: usize,
    /// Solver strategy for the selection problems.
    pub strategy: OptStrategy,
    /// Re-run the channel-ordering algorithm after each selection change
    /// (and once before the first analysis).
    pub reorder: bool,
}

impl ExplorationConfig {
    /// A configuration with the given target and the defaults the paper's
    /// experiments use (up to 16 iterations, auto strategy, reordering).
    #[must_use]
    pub fn with_target(target_cycle_time: u64) -> Self {
        ExplorationConfig {
            target_cycle_time,
            max_iterations: 16,
            stall_limit: 4,
            strategy: OptStrategy::Auto,
            reorder: true,
        }
    }
}

/// Engine options orthogonal to the [`ExplorationConfig`]: whether
/// results are memoized in a shared [`EngineCache`], and the token that
/// cancels the work.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExploreOptions<'a> {
    /// Memoization cache shared across runs on the same base design.
    pub cache: Option<&'a EngineCache>,
    /// Cooperative cancellation token. When set, the loop polls it at
    /// every iteration boundary and the underlying analysis polls it
    /// between Howard policy-improvement rounds, so a fired token stops
    /// the exploration within one bounded iteration instead of at run
    /// completion. The `Ok` path is bit-identical with or without it.
    pub cancel: Option<&'a parx::CancelToken>,
}

impl ExploreOptions<'_> {
    /// [`analyze_design`] under these options: through the cache when one
    /// is set, polling the token when one is set. The report is
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// [`parx::Cancelled`] when the token fired before the analysis
    /// finished.
    pub fn analyze(&self, design: &Design) -> Result<PerfReport, parx::Cancelled> {
        self.analyze_in(design, None)
    }

    /// [`Self::analyze`], solving a miss as the next analysis of `chain`
    /// when one is given (see the [module docs](self)).
    fn analyze_in(
        &self,
        design: &Design,
        chain: Option<&mut IncrementalAnalysis>,
    ) -> Result<PerfReport, parx::Cancelled> {
        match self.cache {
            Some(cache) => cache.analyze_with(design, chain, self.cancel),
            None => analyze_report(design, chain, self.cancel),
        }
    }

    fn reorder(&self, design: &mut Design) {
        let ordering = match self.cache {
            Some(cache) => cache.order(design),
            None => chanorder::order_channels(design.system()).ordering,
        };
        ordering
            .apply_to(design.system_mut())
            .expect("algorithm orderings are valid permutations");
    }
}

/// What an iteration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepAction {
    /// The starting point (after initial reordering).
    Initial,
    /// Slack ≤ 0: critical-cycle latencies were reduced.
    TimingOptimization,
    /// Slack > 0: area was recovered within the slack.
    AreaRecovery,
    /// The active optimization proposed no further change.
    Converged,
}

/// One row of the exploration trace (one point of Fig. 6).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index (0 = initial).
    pub index: usize,
    /// Action taken to arrive at this point.
    pub action: StepAction,
    /// Cycle time after the action (and reordering).
    pub cycle_time: Ratio,
    /// Total design area after the action.
    pub area: f64,
    /// True if `cycle_time <= target`.
    pub meets_target: bool,
    /// Processes on the critical cycle at this point.
    pub critical_processes: Vec<ProcessId>,
}

/// The exploration result: the trace of Fig. 6 plus the final design.
#[derive(Debug, Clone)]
pub struct ExplorationTrace {
    /// Iteration records, starting with the initial point.
    pub iterations: Vec<IterationRecord>,
    /// The design in its best configuration and ordering (see
    /// [`ExplorationTrace::best_index`]).
    pub design: Design,
    /// Index of the iteration whose configuration the final design holds:
    /// the smallest-area target-meeting point, or — if no point meets the
    /// target — the fastest one.
    pub best_index: usize,
}

impl ExplorationTrace {
    /// The last record of the trace.
    ///
    /// # Panics
    ///
    /// Never panics: the trace always contains the initial record.
    #[must_use]
    pub fn last(&self) -> &IterationRecord {
        self.iterations.last().expect("trace starts with Initial")
    }

    /// The record the final design corresponds to.
    #[must_use]
    pub fn best(&self) -> &IterationRecord {
        &self.iterations[self.best_index]
    }

    /// Speed-up of the best point relative to the initial one.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.iterations[0].cycle_time.to_f64() / self.best().cycle_time.to_f64()
    }

    /// Relative area change (best − initial) / initial.
    #[must_use]
    pub fn area_change(&self) -> f64 {
        let initial = self.iterations[0].area;
        (self.best().area - initial) / initial
    }
}

fn reorder_if(design: &mut Design, reorder: bool) {
    if reorder {
        let solution = chanorder::order_channels(design.system());
        solution
            .ordering
            .apply_to(design.system_mut())
            .expect("algorithm orderings are valid permutations");
    }
}

fn record(
    index: usize,
    action: StepAction,
    report: &PerfReport,
    design: &Design,
    target: u64,
) -> Result<IterationRecord, ErmesError> {
    let cycle_time = report.cycle_time().ok_or(ErmesError::Deadlock)?;
    Ok(IterationRecord {
        index,
        action,
        cycle_time,
        area: design.area(),
        meets_target: cycle_time <= target_ratio(target),
        critical_processes: report.critical_processes.clone(),
    })
}

/// Which optimization Fig. 5 dispatches to, decided exactly: the target
/// is met (`CT ≤ TCT`, slack ≥ 0 — boundary included) → area recovery;
/// otherwise timing optimization. Rational comparison, no `f64`.
fn choose_action(cycle_time: Ratio, target: u64) -> StepAction {
    if cycle_time <= target_ratio(target) {
        StepAction::AreaRecovery
    } else {
        StepAction::TimingOptimization
    }
}

/// Clamped target for exact integer budget arithmetic (see
/// [`target_ratio`]: cycle times never exceed `i64::MAX`).
fn clamped_target(target: u64) -> i128 {
    i128::from(i64::try_from(target).unwrap_or(i64::MAX))
}

/// `⌊TCT − CT⌋` in whole cycles — the area-recovery latency budget.
/// Caller guarantees `CT ≤ TCT`, so the result is non-negative.
fn floor_slack(cycle_time: Ratio, target: u64) -> i64 {
    let num = i128::from(cycle_time.numer());
    let den = i128::from(cycle_time.denom());
    let diff = clamped_target(target) * den - num;
    debug_assert!(diff >= 0, "caller checked CT <= TCT");
    // Floor division: both operands non-negative, so `/` truncates down.
    i64::try_from(diff / den).expect("slack is at most the i64 target")
}

/// `⌈CT − TCT⌉` in whole cycles — the timing-optimization deficit.
/// Caller guarantees `CT > TCT`, so the result is strictly positive.
fn ceil_deficit(cycle_time: Ratio, target: u64) -> i64 {
    let num = i128::from(cycle_time.numer());
    let den = i128::from(cycle_time.denom());
    let diff = num - clamped_target(target) * den;
    debug_assert!(diff > 0, "caller checked CT > TCT");
    i64::try_from((diff + den - 1) / den).expect("deficit is at most the i64 cycle time")
}

/// Runs the exploration loop on `design`.
///
/// # Errors
///
/// [`ErmesError::Deadlock`] if the system deadlocks even after
/// reordering (only possible for topologies that are starved regardless
/// of statement order).
///
/// # Examples
///
/// ```
/// use ermes::{explore, Design, ExplorationConfig};
/// use hlsim::{characterize, KernelSpec};
/// use sysgraph::SystemGraph;
///
/// let mut sys = SystemGraph::new();
/// let src = sys.add_process("src", 1);
/// let p = sys.add_process("p", 0);
/// let snk = sys.add_process("snk", 1);
/// sys.add_channel("in", src, p, 2)?;
/// sys.add_channel("out", p, snk, 2)?;
/// let single = |l: u64| hlsim::ParetoSet::from_candidates(vec![hlsim::MicroArch {
///     knobs: hlsim::HlsKnobs::baseline(), latency: l, area: 0.01,
/// }]);
/// let pareto = vec![
///     single(1),
///     characterize(&KernelSpec::new("k", 32, 16, 0.05, 0.01)),
///     single(1),
/// ];
/// let design = Design::new(sys, pareto)?;
/// let trace = explore(design, ExplorationConfig::with_target(100))?;
/// assert!(trace.last().meets_target);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn explore(design: Design, config: ExplorationConfig) -> Result<ExplorationTrace, ErmesError> {
    explore_with(design, config, &ExploreOptions::default())
}

/// Maps a low-level [`parx::Cancelled`] into the methodology-level
/// error carrying exploration progress: `completed` iterations out of
/// the `total` the configuration allows.
fn cancelled(err: parx::Cancelled, completed: usize, total: usize) -> ErmesError {
    ErmesError::Cancelled {
        reason: err.reason,
        completed,
        total,
    }
}

/// [`explore`] with explicit engine options: an optional shared
/// [`EngineCache`] and an optional [`parx::CancelToken`]. The trace is
/// bit-identical to the plain run with or without the cache or a
/// (non-firing) token.
///
/// # Errors
///
/// Same as [`explore`]; additionally [`ErmesError::Cancelled`] — with
/// the iterations completed before the stop — when `options.cancel`
/// fires mid-run.
pub fn explore_with(
    mut design: Design,
    config: ExplorationConfig,
    options: &ExploreOptions<'_>,
) -> Result<ExplorationTrace, ErmesError> {
    let _span = trace::span("explore");
    trace::attr("target", config.target_cycle_time);
    // The initial record reflects the design as given (the paper's Fig. 6
    // starts at M2 under its conservative ordering); reordering happens as
    // part of each optimization iteration. A start that deadlocks under
    // its given ordering is repaired by reordering right away — deadlock
    // removal is the ordering algorithm's first job (Section 4).
    let total = config.max_iterations;
    let mut chain = IncrementalAnalysis::default();
    let mut report = options
        .analyze_in(&design, Some(&mut chain))
        .map_err(|c| cancelled(c, 0, total))?;
    if report.is_deadlock() && config.reorder {
        options.reorder(&mut design);
        report = options
            .analyze_in(&design, Some(&mut chain))
            .map_err(|c| cancelled(c, 0, total))?;
    }
    let mut iterations = vec![record(
        0,
        StepAction::Initial,
        &report,
        &design,
        config.target_cycle_time,
    )?];
    let mut visited: Vec<Vec<usize>> = vec![design.selection().to_vec()];
    // Configuration and statement ordering behind every record, so the
    // best point can be restored exactly.
    let mut configs: Vec<Vec<usize>> = vec![design.selection().to_vec()];
    let mut orderings: Vec<sysgraph::ChannelOrdering> =
        vec![sysgraph::ChannelOrdering::of(design.system())];

    // Stagnation detection: a record improves on the incumbent when it
    // meets the target at a smaller area, or — while infeasible — runs at
    // a strictly smaller (exact, rational) cycle time.
    let improves = |r: &IterationRecord, best: &IterationRecord| -> bool {
        match (r.meets_target, best.meets_target) {
            (true, false) => true,
            (false, true) => false,
            (true, true) => r.area < best.area,
            (false, false) => r.cycle_time < best.cycle_time,
        }
    };
    let mut incumbent = iterations[0].clone();
    let mut stalled = 0usize;

    for index in 1..=config.max_iterations {
        let _iteration_span = trace::span("iteration");
        trace::attr("iter", index);
        if let Some(token) = options.cancel {
            token.check().map_err(|c| cancelled(c, index - 1, total))?;
        }
        let cycle_time = report.cycle_time().ok_or(ErmesError::Deadlock)?;
        // Dispatch on the exact rational slack sign (slack = 0, the
        // target met with nothing to spare, recovers area with a zero
        // latency budget rather than re-optimizing timing).
        let action = choose_action(cycle_time, config.target_cycle_time);
        trace::attr("action", format!("{action:?}"));
        let proposal = match action {
            StepAction::AreaRecovery => area_recovery(
                &design,
                &report.critical_processes,
                floor_slack(cycle_time, config.target_cycle_time),
                &visited,
                Some(config.target_cycle_time),
                config.strategy,
            ),
            StepAction::TimingOptimization => timing_optimization(
                &design,
                &report.critical_processes,
                ceil_deficit(cycle_time, config.target_cycle_time),
                &visited,
                config.strategy,
            ),
            StepAction::Initial | StepAction::Converged => {
                unreachable!("choose_action returns an optimization step")
            }
        };
        match proposal {
            None => {
                // No further change: the paper's final confirming step.
                let mut rec = iterations.last().expect("non-empty").clone();
                rec.index = index;
                rec.action = StepAction::Converged;
                iterations.push(rec);
                break;
            }
            Some(selection) => {
                design.apply_selection(&selection.selection)?;
                visited.push(selection.selection.clone());
                configs.push(selection.selection);
                if config.reorder {
                    options.reorder(&mut design);
                }
                orderings.push(sysgraph::ChannelOrdering::of(design.system()));
                report = options
                    .analyze_in(&design, Some(&mut chain))
                    .map_err(|c| cancelled(c, index - 1, total))?;
                let rec = record(index, action, &report, &design, config.target_cycle_time)?;
                if improves(&rec, &incumbent) {
                    incumbent = rec.clone();
                    stalled = 0;
                } else {
                    stalled += 1;
                }
                iterations.push(rec);
                if stalled >= config.stall_limit {
                    let mut rec = iterations.last().expect("non-empty").clone();
                    rec.index = index + 1;
                    rec.action = StepAction::Converged;
                    iterations.push(rec);
                    break;
                }
            }
        }
    }

    // Restore the best point exactly — selection *and* statement order:
    // the smallest-area iteration that meets the target, or the fastest
    // iteration when none does. (A `Converged` record shares its
    // predecessor's configuration.)
    let best_index = iterations
        .iter()
        .filter(|r| r.meets_target)
        .min_by(|a, b| a.area.partial_cmp(&b.area).expect("areas are finite"))
        .map(|r| r.index)
        .unwrap_or_else(|| {
            iterations
                .iter()
                .min_by_key(|r| r.cycle_time)
                .expect("trace is non-empty")
                .index
        });
    let slot = best_index.min(configs.len() - 1);
    design.apply_selection(&configs[slot])?;
    orderings[slot]
        .apply_to(design.system_mut())
        .expect("recorded orderings remain valid");

    Ok(ExplorationTrace {
        iterations,
        design,
        best_index,
    })
}

/// The M1 experiment of Section 6: keep every implementation fixed and
/// measure the cycle-time improvement from channel reordering alone.
/// Returns `(before, after)` cycle times.
///
/// # Errors
///
/// [`ErmesError::Deadlock`] if the system deadlocks under its current
/// ordering or after reordering.
pub fn reordering_gain(design: &mut Design) -> Result<(Ratio, Ratio), ErmesError> {
    let before = analyze_design(design)
        .cycle_time()
        .ok_or(ErmesError::Deadlock)?;
    reorder_if(design, true);
    let after = analyze_design(design)
        .cycle_time()
        .ok_or(ErmesError::Deadlock)?;
    Ok((before, after))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsim::{HlsKnobs, MicroArch, ParetoSet};
    use sysgraph::SystemGraph;

    fn pareto(points: &[(u64, f64)]) -> ParetoSet {
        ParetoSet::from_candidates(
            points
                .iter()
                .map(|&(latency, area)| MicroArch {
                    knobs: HlsKnobs::baseline(),
                    latency,
                    area,
                })
                .collect(),
        )
    }

    /// A three-stage pipeline with rich Pareto sets on the middle stages.
    fn pipeline_design() -> Design {
        let mut sys = SystemGraph::new();
        let src = sys.add_process("src", 1);
        let s1 = sys.add_process("s1", 0);
        let s2 = sys.add_process("s2", 0);
        let snk = sys.add_process("snk", 1);
        sys.add_channel("a", src, s1, 1).expect("valid");
        sys.add_channel("b", s1, s2, 1).expect("valid");
        sys.add_channel("c", s2, snk, 1).expect("valid");
        Design::new(
            sys,
            vec![
                pareto(&[(1, 0.01)]),
                pareto(&[(10, 5.0), (20, 3.0), (40, 1.5), (80, 0.8)]),
                pareto(&[(15, 4.0), (30, 2.0), (60, 1.0)]),
                pareto(&[(1, 0.01)]),
            ],
        )
        .expect("sizes match")
    }

    #[test]
    fn timing_exploration_reaches_feasible_target() {
        let mut design = pipeline_design();
        design.select_smallest();
        let trace = explore(design, ExplorationConfig::with_target(50)).expect("explores");
        assert!(!trace.iterations[0].meets_target, "starts violating");
        assert!(trace.last().meets_target, "ends meeting the target");
        assert!(trace.speedup() > 1.0);
        // Timing optimization costs area.
        assert!(trace.area_change() > 0.0);
    }

    #[test]
    fn area_exploration_reduces_area_within_target() {
        let mut design = pipeline_design();
        design.select_fastest();
        let initial_area = design.area();
        let trace = explore(design, ExplorationConfig::with_target(100)).expect("explores");
        assert!(trace.iterations[0].meets_target);
        assert!(trace.last().area < initial_area, "area was recovered");
        assert!(trace.last().meets_target, "target still met at the end");
    }

    #[test]
    fn exploration_terminates_with_converged_step() {
        let mut design = pipeline_design();
        design.select_fastest();
        let trace = explore(design, ExplorationConfig::with_target(1_000)).expect("explores");
        assert_eq!(trace.last().action, StepAction::Converged);
        assert!(trace.iterations.len() <= 17);
    }

    #[test]
    fn infeasible_target_settles_at_fastest() {
        let mut design = pipeline_design();
        design.select_smallest();
        let trace = explore(design, ExplorationConfig::with_target(5)).expect("explores");
        // Target 5 is unreachable; the loop should still terminate with
        // the fastest critical path it can buy.
        assert!(!trace.last().meets_target);
        assert!(trace.last().cycle_time < trace.iterations[0].cycle_time);
    }

    #[test]
    fn trace_indices_are_sequential() {
        let mut design = pipeline_design();
        design.select_smallest();
        let trace = explore(design, ExplorationConfig::with_target(60)).expect("explores");
        for (i, rec) in trace.iterations.iter().enumerate() {
            assert_eq!(rec.index, i);
        }
    }

    #[test]
    fn boundary_slack_zero_dispatches_area_recovery() {
        // Regression: the old branch tested `slack > 0.0`, so a cycle
        // time exactly equal to the target fell into timing optimization
        // even though the constraint is met. Slack 0 must recover area.
        assert_eq!(
            choose_action(Ratio::new(50, 1), 50),
            StepAction::AreaRecovery
        );
        assert_eq!(
            choose_action(Ratio::new(101, 2), 50), // 50.5 > 50
            StepAction::TimingOptimization
        );
        assert_eq!(
            choose_action(Ratio::new(99, 2), 50),
            StepAction::AreaRecovery
        );
        assert_eq!(floor_slack(Ratio::new(50, 1), 50), 0);
        assert_eq!(floor_slack(Ratio::new(99, 2), 50), 0); // ⌊0.5⌋
        assert_eq!(floor_slack(Ratio::new(7, 2), 50), 46); // ⌊46.5⌋
        assert_eq!(ceil_deficit(Ratio::new(101, 2), 50), 1); // ⌈0.5⌉
        assert_eq!(ceil_deficit(Ratio::new(120, 1), 50), 70);
    }

    #[test]
    fn exploration_at_exact_boundary_starts_with_area_recovery() {
        let mut design = pipeline_design();
        design.select_fastest();
        let ct = analyze_design(&design).cycle_time().expect("live");
        assert_eq!(ct.denom(), 1, "pipeline cycle time is integral");
        let target = u64::try_from(ct.numer()).expect("positive");
        let trace = explore(design, ExplorationConfig::with_target(target)).expect("explores");
        assert!(trace.iterations[0].meets_target, "slack is exactly zero");
        // The first optimization step must not be timing optimization —
        // the target is already met.
        assert_ne!(trace.iterations[1].action, StepAction::TimingOptimization);
        assert!(trace.last().meets_target);
    }

    #[test]
    fn exact_slack_is_immune_to_f64_rounding() {
        // CT and TCT one cycle apart but both beyond 2^53: their f64
        // images coincide, so the old float slack was 0.0 and dispatched
        // timing optimization on a design that meets its target.
        let big = 1i64 << 60;
        let ct = Ratio::from_integer(big + 1);
        let target = (big + 2) as u64;
        assert_eq!(ct.to_f64(), target as f64, "f64 cannot tell them apart");
        assert_eq!(choose_action(ct, target), StepAction::AreaRecovery);
        assert_eq!(floor_slack(ct, target), 1);
        let ct_over = Ratio::from_integer(big + 3);
        assert_eq!(
            choose_action(ct_over, target),
            StepAction::TimingOptimization
        );
        assert_eq!(ceil_deficit(ct_over, target), 1);
    }

    #[test]
    fn target_beyond_i64_max_does_not_panic() {
        // Regression: `record()` used `target as i64`, wrapping u64
        // targets above i64::MAX negative and panicking inside
        // Ratio::from_integer. They must saturate and count as met.
        let mut design = pipeline_design();
        design.select_smallest();
        let trace = explore(design, ExplorationConfig::with_target(u64::MAX)).expect("explores");
        assert!(trace.iterations[0].meets_target);
        assert!(trace.last().meets_target);
        assert_eq!(floor_slack(Ratio::new(3, 1), u64::MAX), i64::MAX - 3);
    }

    #[test]
    fn explore_with_cache_and_jobs_matches_plain() {
        let make = || {
            let mut d = pipeline_design();
            d.select_smallest();
            d
        };
        let config = ExplorationConfig::with_target(50);
        let plain = explore(make(), config).expect("explores");
        let cache = EngineCache::new();
        for pass in 0..2 {
            let opts = ExploreOptions {
                cache: Some(&cache),
                cancel: None,
            };
            let run = explore_with(make(), config, &opts).expect("explores");
            assert_eq!(run.iterations, plain.iterations, "pass {pass}");
            assert_eq!(run.best_index, plain.best_index);
            assert_eq!(
                run.design.selection(),
                plain.design.selection(),
                "pass {pass}"
            );
        }
        let stats = cache.stats();
        // The second run revisits every configuration of the first.
        assert!(stats.analysis_hits > 0, "cache was exercised: {stats:?}");
    }

    #[test]
    fn live_token_leaves_the_trace_bit_identical() {
        let make = || {
            let mut d = pipeline_design();
            d.select_smallest();
            d
        };
        let config = ExplorationConfig::with_target(50);
        let plain = explore(make(), config).expect("explores");
        let token = parx::CancelToken::new();
        let opts = ExploreOptions {
            cache: None,
            cancel: Some(&token),
        };
        let run = explore_with(make(), config, &opts).expect("token never fires");
        assert_eq!(run.iterations, plain.iterations);
        assert_eq!(run.design.selection(), plain.design.selection());
    }

    #[test]
    fn fired_token_stops_exploration_with_progress() {
        let mut design = pipeline_design();
        design.select_smallest();
        let token = parx::CancelToken::new();
        token.cancel(parx::CancelReason::Deadline);
        let opts = ExploreOptions {
            cache: None,
            cancel: Some(&token),
        };
        let err = explore_with(design, ExplorationConfig::with_target(50), &opts)
            .expect_err("token already fired");
        match err {
            ErmesError::Cancelled {
                reason,
                completed,
                total,
            } => {
                assert_eq!(reason, parx::CancelReason::Deadline);
                assert_eq!(completed, 0, "stopped before the first iteration");
                assert_eq!(total, 16);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn reordering_gain_on_motivating_example() {
        let ex = sysgraph::MotivatingExample::new();
        let mut sys = ex.system.clone();
        ex.suboptimal_ordering().apply_to(&mut sys).expect("valid");
        let pareto: Vec<ParetoSet> = sys
            .process_ids()
            .map(|p| pareto(&[(sys.process(p).latency(), 0.1)]))
            .collect();
        let mut design = Design::new(sys, pareto).expect("sizes match");
        let (before, after) = reordering_gain(&mut design).expect("live");
        assert_eq!(before, Ratio::new(20, 1));
        assert_eq!(after, Ratio::new(12, 1));
    }
}
