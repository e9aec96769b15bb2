//! Stateful delta analysis of a design under interactive edits.
//!
//! An interactive client (the `ermesd` session API, an IDE plugin, a
//! designer at a REPL) edits one knob at a time: reselect a process's
//! micro-architecture, or reorder a process's channel accesses. Paying a
//! full spec-parse → lower → analyze pipeline per keystroke is wasteful
//! when one edit perturbs one transition delay out of hundreds.
//!
//! [`DeltaState`] holds the design, its lowered TMG, and a
//! [`tmg::IncrementalAnalysis`] across edits:
//!
//! - [`reselect`](DeltaState::reselect) — a latency-only change. The
//!   lowered graph is patched in place (one transition delay) and only
//!   the strongly connected components containing an affected edge are
//!   re-solved ([`tmg::IncrementalAnalysis::reprice`]).
//! - [`reorder`](DeltaState::reorder) — a structural change. The system
//!   is re-lowered and the analysis rebuilt, reusing cached per-component
//!   results where the component is untouched
//!   ([`tmg::IncrementalAnalysis::rebuild`]).
//!
//! Every report produced this way is **bit-identical** to
//! [`analyze_design`](crate::analyze_design) on the same design: the
//! incremental layer guarantees the verdict, and the critical-set mapping
//! runs the same code on the same inputs. The differential proptest suite
//! pins this equivalence across random edit sequences.
//!
//! Cancellation follows the service discipline: a cancelled edit leaves
//! the design mutated (the edit *is* applied) but the analysis pending;
//! [`refresh`](DeltaState::refresh) — or simply the next edit — finishes
//! the catch-up work before any report is produced.

use crate::analysis::{report_from, PerfReport};
use crate::design::Design;
use crate::error::ErmesError;
use sysgraph::{lower_to_tmg, ChannelId, LoweredTmg, ProcessId};
use tmg::IncrementalAnalysis;

/// Analysis work owed after a cancelled edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// The cached report matches the design.
    Clean,
    /// Delay edits were applied to the lowered graph but some dirty
    /// components are still unsolved; a reprice pass settles them.
    Reprice,
    /// The system was re-lowered but the analysis still describes the old
    /// structure; only a rebuild settles it.
    Rebuild,
}

/// A design plus cached analysis state, updated incrementally per edit.
///
/// # Examples
///
/// ```
/// use ermes::{analyze_design, Design, DeltaState};
/// use hlsim::{characterize, KernelSpec};
/// use sysgraph::{ProcessId, SystemGraph};
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
///
/// let mut session = DeltaState::open(design);
/// let report = session.reselect(ProcessId::from_index(0), 1, None)?.clone();
/// // The per-edit report is bit-identical to a from-scratch analysis.
/// assert_eq!(report, analyze_design(session.design()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct DeltaState {
    design: Design,
    lowered: LoweredTmg,
    inc: IncrementalAnalysis,
    report: PerfReport,
    pending: Pending,
}

impl DeltaState {
    /// Opens a session on `design`, running the initial full analysis.
    #[must_use]
    pub fn open(design: Design) -> Self {
        Self::open_cancellable(design, None).expect("no cancel token, cannot be cancelled")
    }

    /// [`open`](Self::open), but the initial analysis polls `cancel`.
    ///
    /// # Errors
    ///
    /// [`ErmesError::Cancelled`] when the token fired first.
    pub fn open_cancellable(
        design: Design,
        cancel: Option<&parx::CancelToken>,
    ) -> Result<Self, ErmesError> {
        let lowered = lower_to_tmg(design.system());
        // The first solve is a rebuild from the empty graph, so a session
        // traces its opening like every structural edit.
        let mut inc = IncrementalAnalysis::default();
        inc.rebuild(lowered.tmg(), cancel)
            .map_err(cancelled_to_error)?;
        let report = report_from(&lowered, inc.verdict().clone());
        Ok(DeltaState {
            design,
            lowered,
            inc,
            report,
            pending: Pending::Clean,
        })
    }

    /// The design in its current (post-edit) state.
    #[must_use]
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The lowered TMG kept in sync with the design.
    #[must_use]
    pub fn lowered(&self) -> &LoweredTmg {
        &self.lowered
    }

    /// The performance report of the last settled analysis. Always
    /// bit-identical to [`analyze_design`](crate::analyze_design) of
    /// [`design`](Self::design) — unless an edit was cancelled mid-flight,
    /// in which case [`refresh`](Self::refresh) settles it first.
    #[must_use]
    pub fn report(&self) -> &PerfReport {
        &self.report
    }

    /// The critical-cycle diagnosis for the current report, from cached
    /// state (no re-analysis). `None` when the design deadlocks.
    #[must_use]
    pub fn bottleneck(&self) -> Option<crate::BottleneckReport> {
        crate::bottleneck::bottleneck_report_with(&self.design, &self.lowered, &self.report.verdict)
    }

    /// Selects implementation `idx` for process `p` and re-analyzes
    /// incrementally (dirty-SCC reprice).
    ///
    /// # Errors
    ///
    /// - [`ErmesError::SelectionOutOfRange`] if `idx` is invalid; the
    ///   state is unchanged.
    /// - [`ErmesError::Cancelled`] if `cancel` fired mid-analysis; the
    ///   selection *is* applied and the analysis is left pending (see
    ///   [`refresh`](Self::refresh)).
    pub fn reselect(
        &mut self,
        p: ProcessId,
        idx: usize,
        cancel: Option<&parx::CancelToken>,
    ) -> Result<&PerfReport, ErmesError> {
        self.design.select(p, idx)?;
        self.lowered.set_process_latency(p, self.design.latency(p));
        let touched = [self.lowered.process_transition(p)];
        let result = match self.pending {
            // A cancelled rebuild means the cached SCC state describes an
            // older structure: reprice would patch the wrong graph.
            Pending::Rebuild => self.inc.rebuild(self.lowered.tmg(), cancel),
            // A clean reprice; a pending one additionally settles the
            // dirty components the cancelled pass left behind.
            Pending::Clean | Pending::Reprice => {
                self.inc.reprice(self.lowered.tmg(), &touched, cancel)
            }
        };
        match result {
            Ok(_) => {
                self.pending = Pending::Clean;
                self.report = report_from(&self.lowered, self.inc.verdict().clone());
                Ok(&self.report)
            }
            Err(c) => {
                if self.pending != Pending::Rebuild {
                    self.pending = Pending::Reprice;
                }
                Err(cancelled_to_error(c))
            }
        }
    }

    /// Replaces the channel-access orders of process `p` and re-analyzes
    /// (structural rebuild with per-component reuse). The edit is atomic:
    /// on a rejected order, neither order is changed.
    ///
    /// # Errors
    ///
    /// - [`ErmesError::Ordering`] if either order is not a permutation of
    ///   the process's channels; the state is unchanged.
    /// - [`ErmesError::Cancelled`] if `cancel` fired mid-analysis; the
    ///   orders *are* applied and the analysis is left pending (see
    ///   [`refresh`](Self::refresh)).
    pub fn reorder(
        &mut self,
        p: ProcessId,
        gets: Vec<ChannelId>,
        puts: Vec<ChannelId>,
        cancel: Option<&parx::CancelToken>,
    ) -> Result<&PerfReport, ErmesError> {
        let previous_gets = self.design.system().get_order(p).to_vec();
        self.design
            .system_mut()
            .set_get_order(p, gets)
            .map_err(ErmesError::Ordering)?;
        if let Err(e) = self.design.system_mut().set_put_order(p, puts) {
            self.design
                .system_mut()
                .set_get_order(p, previous_gets)
                .expect("restoring the previous order is a permutation");
            return Err(ErmesError::Ordering(e));
        }
        self.lowered = lower_to_tmg(self.design.system());
        match self.inc.rebuild(self.lowered.tmg(), cancel) {
            Ok(_) => {
                self.pending = Pending::Clean;
                self.report = report_from(&self.lowered, self.inc.verdict().clone());
                Ok(&self.report)
            }
            Err(c) => {
                self.pending = Pending::Rebuild;
                Err(cancelled_to_error(c))
            }
        }
    }

    /// Settles any analysis left pending by a cancelled edit. A no-op on
    /// a clean state; callers may retry until it succeeds.
    ///
    /// # Errors
    ///
    /// [`ErmesError::Cancelled`] when `cancel` fired again; the state
    /// stays pending and retryable.
    pub fn refresh(
        &mut self,
        cancel: Option<&parx::CancelToken>,
    ) -> Result<&PerfReport, ErmesError> {
        let result = match self.pending {
            Pending::Clean => return Ok(&self.report),
            Pending::Reprice => self.inc.reprice(self.lowered.tmg(), &[], cancel),
            Pending::Rebuild => self.inc.rebuild(self.lowered.tmg(), cancel),
        };
        match result {
            Ok(_) => {
                self.pending = Pending::Clean;
                self.report = report_from(&self.lowered, self.inc.verdict().clone());
                Ok(&self.report)
            }
            Err(c) => Err(cancelled_to_error(c)),
        }
    }
}

fn cancelled_to_error(c: parx::Cancelled) -> ErmesError {
    ErmesError::Cancelled {
        reason: c.reason,
        completed: 0,
        total: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_design;
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

    /// src -> mid -> snk pipeline plus a fan-out from mid, so reorders
    /// have structure to act on.
    fn pipeline_design() -> Design {
        let mut sys = SystemGraph::new();
        let src = sys.add_process("src", 1);
        let mid = sys.add_process("mid", 10);
        let snk = sys.add_process("snk", 2);
        let tap = sys.add_process("tap", 3);
        sys.add_channel("a", src, mid, 1).expect("valid");
        sys.add_channel("b", mid, snk, 1).expect("valid");
        sys.add_channel("t", mid, tap, 2).expect("valid");
        Design::new(
            sys,
            vec![
                pareto(&[(1, 0.5)]),
                pareto(&[(4, 9.0), (10, 3.0), (25, 1.0)]),
                pareto(&[(2, 1.0), (8, 0.25)]),
                pareto(&[(3, 0.75)]),
            ],
        )
        .expect("sizes match")
    }

    #[test]
    fn open_matches_full_analysis() {
        let design = pipeline_design();
        let expected = analyze_design(&design);
        let session = DeltaState::open(design);
        assert_eq!(session.report(), &expected);
    }

    #[test]
    fn reselect_sequence_matches_full_reanalysis() {
        let mut session = DeltaState::open(pipeline_design());
        let mid = ProcessId::from_index(1);
        let snk = ProcessId::from_index(2);
        for (p, idx) in [(mid, 0), (snk, 1), (mid, 2), (mid, 1), (snk, 0)] {
            let report = session.reselect(p, idx, None).expect("valid edit").clone();
            assert_eq!(report, analyze_design(session.design()));
            assert_eq!(session.design().selected(p), idx);
        }
    }

    #[test]
    fn reorder_matches_full_reanalysis() {
        let mut session = DeltaState::open(pipeline_design());
        let mid = ProcessId::from_index(1);
        let gets = session.design().system().get_order(mid).to_vec();
        let mut puts = session.design().system().put_order(mid).to_vec();
        puts.reverse();
        let report = session
            .reorder(mid, gets, puts.clone(), None)
            .expect("valid permutation")
            .clone();
        assert_eq!(report, analyze_design(session.design()));
        assert_eq!(session.design().system().put_order(mid), &puts[..]);
    }

    #[test]
    fn invalid_selection_leaves_state_unchanged() {
        let mut session = DeltaState::open(pipeline_design());
        let before = session.report().clone();
        let err = session
            .reselect(ProcessId::from_index(1), 99, None)
            .expect_err("out of range");
        assert!(matches!(err, ErmesError::SelectionOutOfRange { .. }));
        assert_eq!(session.report(), &before);
        assert_eq!(session.report(), &analyze_design(session.design()));
    }

    #[test]
    fn invalid_reorder_is_atomic() {
        let mut session = DeltaState::open(pipeline_design());
        let mid = ProcessId::from_index(1);
        let gets = session.design().system().get_order(mid).to_vec();
        let mut reversed_gets = gets.clone();
        reversed_gets.reverse();
        let before_report = session.report().clone();
        // Valid gets, invalid puts: the gets change must be rolled back.
        let err = session
            .reorder(mid, reversed_gets, vec![], None)
            .expect_err("puts not a permutation");
        assert!(matches!(err, ErmesError::Ordering(_)));
        assert_eq!(session.design().system().get_order(mid), &gets[..]);
        assert_eq!(session.report(), &before_report);
    }

    #[test]
    fn cancelled_reselect_is_settled_by_refresh() {
        use parx::{CancelReason, CancelToken};
        let mut session = DeltaState::open(pipeline_design());
        let mid = ProcessId::from_index(1);
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        let err = session
            .reselect(mid, 0, Some(&token))
            .expect_err("token fired");
        assert!(matches!(err, ErmesError::Cancelled { .. }));
        // The edit is applied; the analysis catches up on refresh.
        assert_eq!(session.design().selected(mid), 0);
        let report = session.refresh(None).expect("not cancelled").clone();
        assert_eq!(report, analyze_design(session.design()));
        // Refresh on a clean state is a no-op.
        assert_eq!(session.refresh(None).expect("clean"), &report);
    }

    #[test]
    fn cancelled_reorder_is_settled_by_next_edit() {
        use parx::{CancelReason, CancelToken};
        let mut session = DeltaState::open(pipeline_design());
        let mid = ProcessId::from_index(1);
        let gets = session.design().system().get_order(mid).to_vec();
        let mut puts = session.design().system().put_order(mid).to_vec();
        puts.reverse();
        let token = CancelToken::new();
        token.cancel(CancelReason::Shutdown);
        session
            .reorder(mid, gets, puts, Some(&token))
            .expect_err("token fired");
        // The next (valid) edit settles the pending rebuild first.
        let report = session.reselect(mid, 0, None).expect("valid").clone();
        assert_eq!(report, analyze_design(session.design()));
    }

    #[test]
    fn bottleneck_matches_standalone_report() {
        let session = DeltaState::open(pipeline_design());
        let cached = session.bottleneck().expect("live design");
        let standalone = crate::bottleneck_report(session.design()).expect("live design");
        assert_eq!(cached, standalone);
    }
}
