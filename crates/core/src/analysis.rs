//! System-level performance analysis of a design.
//!
//! Wraps the TMG pipeline (lower → analyze → map back) and reports the
//! quantities the methodology loop consumes: cycle time, and the
//! processes/channels on the critical cycle (the targets of timing
//! optimization).

use crate::design::Design;
use sysgraph::{lower_to_tmg, ChannelId, LoweredTmg, ProcessId};
use tmg::{IncrementalAnalysis, Ratio, Verdict};

/// Performance report of a design under its current ordering/selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfReport {
    /// The raw TMG verdict.
    pub verdict: Verdict,
    /// Processes whose computation transitions lie on the critical cycle.
    pub critical_processes: Vec<ProcessId>,
    /// Channels whose transfer transitions lie on the critical cycle.
    pub critical_channels: Vec<ChannelId>,
}

impl PerfReport {
    /// The cycle time, if the design is live.
    #[must_use]
    pub fn cycle_time(&self) -> Option<Ratio> {
        self.verdict.cycle_time()
    }

    /// True if the design deadlocks.
    #[must_use]
    pub fn is_deadlock(&self) -> bool {
        self.verdict.is_deadlock()
    }

    /// Performance slack `sp = TCT − CT` against a target cycle time,
    /// in cycles (Section 5). Positive slack means the constraint is met.
    ///
    /// This is a *reporting* convenience: the value is `f64` and loses
    /// precision for large targets or fine rational cycle times. Decision
    /// logic must use [`PerfReport::meets_target`], which compares
    /// exactly.
    ///
    /// Returns `None` for deadlocked or acyclic designs.
    #[must_use]
    pub fn slack(&self, target_cycle_time: u64) -> Option<f64> {
        self.cycle_time()
            .map(|ct| target_cycle_time as f64 - ct.to_f64())
    }

    /// Exact constraint check: `CT ≤ TCT` under rational arithmetic
    /// (slack ≥ 0, boundary included). Returns `None` for deadlocked or
    /// acyclic designs.
    #[must_use]
    pub fn meets_target(&self, target_cycle_time: u64) -> Option<bool> {
        self.cycle_time()
            .map(|ct| ct <= target_ratio(target_cycle_time))
    }
}

/// The target cycle time as an exact [`Ratio`], saturating at `i64::MAX`.
///
/// `Ratio` carries an `i64` numerator/denominator with a non-negative
/// value, so every representable cycle time is at most `i64::MAX`:
/// saturating the conversion keeps all comparisons against a too-large
/// `u64` target exact (the target is simply "met by everything"), where a
/// plain `as i64` cast would wrap negative and panic inside
/// `Ratio::from_integer`.
#[must_use]
pub fn target_ratio(target_cycle_time: u64) -> Ratio {
    Ratio::from_integer(i64::try_from(target_cycle_time).unwrap_or(i64::MAX))
}

/// Analyzes the design's system with the TMG model and maps the critical
/// cycle back to processes and channels.
///
/// # Examples
///
/// ```
/// use ermes::{analyze_design, Design};
/// use hlsim::{characterize, KernelSpec};
/// use sysgraph::SystemGraph;
///
/// let mut sys = SystemGraph::new();
/// let a = sys.add_process("a", 0);
/// let b = sys.add_process("b", 0);
/// sys.add_channel("x", a, b, 2)?;
/// let pareto = vec![
///     characterize(&KernelSpec::new("ka", 8, 4, 0.01, 0.002)),
///     characterize(&KernelSpec::new("kb", 16, 8, 0.02, 0.003)),
/// ];
/// let design = Design::new(sys, pareto)?;
/// let report = analyze_design(&design);
/// assert!(!report.is_deadlock());
/// assert!(!report.critical_processes.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn analyze_design(design: &Design) -> PerfReport {
    analyze_report(design, None, None).expect("no cancel token, cannot be cancelled")
}

/// [`analyze_design`] with the per-SCC Howard solves polling `cancel`
/// between policy-improvement rounds, analyzed as the next state of
/// `chain` when one is given (an exploration chain, whose Howard solves
/// start from its last converged policies) and from a fresh state
/// otherwise. On the `Ok` path the report is bit-identical to the
/// uncancellable one-shot call either way.
pub(crate) fn analyze_report(
    design: &Design,
    chain: Option<&mut IncrementalAnalysis>,
    cancel: Option<&parx::CancelToken>,
) -> Result<PerfReport, parx::Cancelled> {
    let lowered = lower_to_tmg(design.system());
    let verdict = match chain {
        Some(chain) => chain.reanalyze(lowered.tmg(), cancel)?.clone(),
        None => IncrementalAnalysis::new_with_cancel(lowered.tmg(), cancel)?.into_verdict(),
    };
    Ok(report_from(&lowered, verdict))
}

/// Maps a verdict's critical cycle back to the processes and channels of
/// the system `lowered` came from — the one critical-set mapping, shared
/// by one-shot analyses and [`DeltaState`](crate::DeltaState) sessions.
pub(crate) fn report_from(lowered: &LoweredTmg, verdict: Verdict) -> PerfReport {
    let (critical_processes, critical_channels) = match &verdict {
        Verdict::Live { critical, .. } => (
            lowered.processes_of(&critical.transitions),
            lowered.channels_of(&critical.transitions),
        ),
        _ => (Vec::new(), Vec::new()),
    };
    PerfReport {
        verdict,
        critical_processes,
        critical_channels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlsim::{HlsKnobs, MicroArch, ParetoSet};
    use sysgraph::SystemGraph;

    fn singleton(latency: u64) -> ParetoSet {
        ParetoSet::from_candidates(vec![MicroArch {
            knobs: HlsKnobs::baseline(),
            latency,
            area: 1.0,
        }])
    }

    #[test]
    fn critical_cycle_contains_the_bottleneck() {
        let mut sys = SystemGraph::new();
        let src = sys.add_process("src", 1);
        let slow = sys.add_process("slow", 50);
        let snk = sys.add_process("snk", 1);
        sys.add_channel("a", src, slow, 1).expect("valid");
        sys.add_channel("b", slow, snk, 1).expect("valid");
        let design =
            Design::new(sys, vec![singleton(1), singleton(50), singleton(1)]).expect("sizes match");
        let report = analyze_design(&design);
        assert!(report
            .critical_processes
            .contains(&ProcessId::from_index(1)));
        assert_eq!(report.cycle_time(), Some(Ratio::new(52, 1)));
    }

    #[test]
    fn slack_sign_matches_target() {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 10);
        let b = sys.add_process("b", 1);
        sys.add_channel("x", a, b, 1).expect("valid");
        let design = Design::new(sys, vec![singleton(10), singleton(1)]).expect("sizes match");
        let report = analyze_design(&design);
        // CT = 12 (10 + 1 + 1 loop through a).
        assert!(report.slack(20).expect("live") > 0.0);
        assert!(report.slack(10).expect("live") < 0.0);
    }

    #[test]
    fn meets_target_is_exact_at_the_boundary() {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 10);
        let b = sys.add_process("b", 1);
        sys.add_channel("x", a, b, 1).expect("valid");
        let design = Design::new(sys, vec![singleton(10), singleton(1)]).expect("sizes match");
        let report = analyze_design(&design);
        let ct = report.cycle_time().expect("live");
        assert_eq!(ct.denom(), 1, "integral cycle time");
        let exact = u64::try_from(ct.numer()).expect("positive");
        // A target of exactly CT is met (slack 0); one cycle less is not.
        assert_eq!(report.meets_target(exact), Some(true));
        assert_eq!(report.meets_target(exact - 1), Some(false));
        assert_eq!(report.meets_target(exact + 1), Some(true));
    }

    #[test]
    fn huge_targets_saturate_instead_of_wrapping() {
        // u64 targets above i64::MAX used to wrap negative in an `as i64`
        // cast and panic inside Ratio::from_integer. They must saturate:
        // every finite cycle time meets such a target.
        assert_eq!(target_ratio(u64::MAX), Ratio::from_integer(i64::MAX));
        assert_eq!(target_ratio(7), Ratio::from_integer(7));
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 3);
        let b = sys.add_process("b", 2);
        sys.add_channel("x", a, b, 1).expect("valid");
        let design = Design::new(sys, vec![singleton(3), singleton(2)]).expect("sizes match");
        let report = analyze_design(&design);
        assert_eq!(report.meets_target(u64::MAX), Some(true));
        assert_eq!(report.meets_target(1 + i64::MAX as u64), Some(true));
    }

    #[test]
    fn parallel_analysis_matches_serial() {
        let mut sys = SystemGraph::new();
        let mut prev = sys.add_process("p0", 4);
        let mut sets = vec![singleton(4)];
        for i in 1..8 {
            let p = sys.add_process(format!("p{i}"), 2 + i % 3);
            sys.add_channel(format!("c{i}"), prev, p, 1 + i % 2)
                .expect("valid");
            sets.push(singleton(2 + i % 3));
            prev = p;
        }
        let design = Design::new(sys, sets).expect("sizes match");
        let serial = analyze_design(&design);
        assert_eq!(analyze_design(&design), serial);
    }

    #[test]
    fn deadlocked_design_has_empty_critical_sets() {
        let ex = sysgraph::MotivatingExample::new();
        let pareto: Vec<ParetoSet> = ex
            .system
            .process_ids()
            .map(|p| singleton(ex.system.process(p).latency()))
            .collect();
        let design = Design::new(ex.system, pareto).expect("sizes match");
        let report = analyze_design(&design);
        assert!(report.is_deadlock());
        assert!(report.critical_processes.is_empty());
        assert_eq!(report.slack(100), None);
    }
}
