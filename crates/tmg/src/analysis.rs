//! System-level performance analysis of a timed marked graph.
//!
//! This is the entry point ERMES calls instead of simulating (Section 3 of
//! the paper): it classifies the graph as deadlocked (token-free cycle),
//! live (finite cycle time with a critical cycle), or acyclic, using
//! Howard's algorithm with the parametric solver as a safety fallback.

use crate::deadlock::find_token_free_cycle;
use crate::graph::Tmg;
use crate::howard::CycleRatioResult;
use crate::ids::{PlaceId, TransitionId};
use crate::incremental::IncrementalAnalysis;
use crate::parametric::max_cycle_ratio_parametric;
use crate::ratio::Ratio;
use crate::ratio_graph::RatioGraph;

/// A critical cycle: the cycle whose delay-to-token ratio equals the cycle
/// time of the graph. Improving the system requires shortening a delay on
/// this cycle (Section 5's timing optimization targets exactly these
/// transitions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalCycle {
    /// Places along the cycle, in traversal order.
    pub places: Vec<PlaceId>,
    /// Transitions along the cycle (the consumers of `places`), in the
    /// same order.
    pub transitions: Vec<TransitionId>,
    /// Total transition delay around the cycle.
    pub delay_sum: u64,
    /// Total tokens around the cycle (strictly positive for live graphs).
    pub token_sum: u64,
}

/// Outcome of [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A token-free cycle exists: the system will deadlock regardless of
    /// timing. Carries the witness cycle's places.
    Deadlock {
        /// Places of one token-free cycle.
        witness: Vec<PlaceId>,
    },
    /// Every cycle carries tokens: the system runs forever with the given
    /// cycle time (Definition 2) achieved on the critical cycle.
    Live {
        /// The cycle time π(G): average time between consecutive firings
        /// of any transition (strongly connected graphs).
        cycle_time: Ratio,
        /// One cycle achieving the minimum cycle mean.
        critical: CriticalCycle,
    },
    /// The graph has no cycles; steady-state throughput is unconstrained
    /// by feedback. (Does not occur for the paper's process networks, whose
    /// processes always loop.)
    Acyclic,
}

impl Verdict {
    /// The cycle time, if the system is live.
    #[must_use]
    pub fn cycle_time(&self) -> Option<Ratio> {
        match self {
            Verdict::Live { cycle_time, .. } => Some(*cycle_time),
            _ => None,
        }
    }

    /// True when the verdict is [`Verdict::Deadlock`].
    #[must_use]
    pub fn is_deadlock(&self) -> bool {
        matches!(self, Verdict::Deadlock { .. })
    }

    /// The throughput 1/π(G), if the system is live and π(G) > 0.
    #[must_use]
    pub fn throughput(&self) -> Option<Ratio> {
        self.cycle_time().and_then(Ratio::recip)
    }
}

/// Analyzes a timed marked graph: deadlock check, then exact cycle time
/// with a critical-cycle witness.
///
/// This is the first solve of an [`IncrementalAnalysis`], whose state is
/// dropped once the verdict is taken; use that type directly to keep the
/// state across edits or to poll a cancellation token.
///
/// # Examples
///
/// ```
/// use tmg::{analyze, TmgBuilder, Verdict, Ratio};
/// let mut b = TmgBuilder::new();
/// let a = b.add_transition("producer", 3);
/// let c = b.add_transition("consumer", 2);
/// b.add_place(a, c, 1);
/// b.add_place(c, a, 0);
/// let g = b.build()?;
/// match analyze(&g) {
///     Verdict::Live { cycle_time, .. } => assert_eq!(cycle_time, Ratio::new(5, 1)),
///     other => panic!("expected live, got {other:?}"),
/// }
/// # Ok::<(), tmg::TmgError>(())
/// ```
#[must_use]
pub fn analyze(graph: &Tmg) -> Verdict {
    IncrementalAnalysis::new(graph).into_verdict()
}

/// Exact cycle time computed with the parametric baseline solver instead
/// of Howard's algorithm. Exposed for cross-validation and benchmarking.
#[must_use]
pub fn analyze_parametric(graph: &Tmg) -> Verdict {
    if let Some(witness) = find_token_free_cycle(graph) {
        return Verdict::Deadlock { witness };
    }
    let rg = RatioGraph::from_tmg(graph);
    cycle_verdict(graph, &rg, max_cycle_ratio_parametric(&rg))
}

/// The verdict of a deadlock-free graph from its maximum-ratio cycle
/// (`None` when `rg` has no cycle): maps the witness's ratio-graph edges
/// back to the places and transitions of `graph`.
pub(crate) fn cycle_verdict(
    graph: &Tmg,
    rg: &RatioGraph,
    best: Option<CycleRatioResult>,
) -> Verdict {
    let Some(result) = best else {
        return Verdict::Acyclic;
    };
    let places: Vec<PlaceId> = result
        .cycle_edges
        .iter()
        .map(|&e| rg.edges[e].place.expect("edge lowered from a place"))
        .collect();
    let transitions: Vec<TransitionId> =
        places.iter().map(|&p| graph.place(p).consumer()).collect();
    Verdict::Live {
        cycle_time: result.ratio,
        critical: CriticalCycle {
            delay_sum: transitions
                .iter()
                .map(|&t| graph.transition(t).delay())
                .sum(),
            token_sum: places
                .iter()
                .map(|&p| graph.place(p).initial_tokens())
                .sum(),
            places,
            transitions,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TmgBuilder;

    #[test]
    fn deadlock_wins_over_cycle_time() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 1);
        let c = b.add_transition("c", 1);
        b.add_place(a, c, 0);
        b.add_place(c, a, 0);
        // A live self-loop elsewhere does not mask the deadlock.
        let d = b.add_transition("d", 5);
        b.add_place(d, d, 1);
        let g = b.build().expect("valid");
        assert!(analyze(&g).is_deadlock());
    }

    #[test]
    fn live_ring_reports_exact_cycle_time_and_critical_cycle() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 3);
        let c = b.add_transition("c", 2);
        b.add_place(a, c, 1);
        b.add_place(c, a, 0);
        let g = b.build().expect("valid");
        match analyze(&g) {
            Verdict::Live {
                cycle_time,
                critical,
            } => {
                assert_eq!(cycle_time, Ratio::new(5, 1));
                assert_eq!(critical.delay_sum, 5);
                assert_eq!(critical.token_sum, 1);
                assert_eq!(critical.places.len(), 2);
            }
            other => panic!("expected live, got {other:?}"),
        }
    }

    #[test]
    fn acyclic_graph() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 3);
        let c = b.add_transition("c", 2);
        b.add_place(a, c, 1);
        let g = b.build().expect("valid");
        assert_eq!(analyze(&g), Verdict::Acyclic);
    }

    #[test]
    fn throughput_is_reciprocal() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 4);
        b.add_place(a, a, 2);
        let g = b.build().expect("valid");
        let v = analyze(&g);
        assert_eq!(v.cycle_time(), Some(Ratio::new(2, 1)));
        assert_eq!(v.throughput(), Some(Ratio::new(1, 2)));
    }

    #[test]
    fn parametric_agrees_with_howard() {
        let mut b = TmgBuilder::new();
        let t: Vec<_> = (0..5)
            .map(|i| b.add_transition(format!("t{i}"), (i as u64) * 3 + 1))
            .collect();
        for i in 0..5 {
            b.add_place(t[i], t[(i + 1) % 5], u64::from(i == 0));
        }
        b.add_place(t[2], t[0], 1);
        b.add_place(t[0], t[2], 1);
        let g = b.build().expect("valid");
        assert_eq!(
            analyze(&g).cycle_time(),
            analyze_parametric(&g).cycle_time()
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical() {
        // A dozen disjoint rings of distinct sizes/delays → a dozen SCCs
        // with distinct ratios, plus cross-SCC edges to keep Tarjan busy.
        let mut b = TmgBuilder::new();
        let mut firsts = Vec::new();
        for k in 0..12u64 {
            let n = 3 + (k as usize % 4);
            let t: Vec<_> = (0..n)
                .map(|i| b.add_transition(format!("r{k}_{i}"), k + i as u64 + 1))
                .collect();
            for i in 0..n {
                b.add_place(t[i], t[(i + 1) % n], u64::from(i == 0) + k % 2);
            }
            firsts.push(t[0]);
        }
        for pair in firsts.windows(2) {
            b.add_place(pair[0], pair[1], 1);
        }
        let g = b.build().expect("valid");
        let serial = analyze(&g);
        assert!(serial.cycle_time().is_some(), "rings are live");
        assert_eq!(analyze(&g), serial);
    }

    #[test]
    fn cancellable_analysis_matches_plain_analysis_when_live() {
        use parx::{CancelReason, CancelToken};
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 3);
        let c = b.add_transition("c", 2);
        b.add_place(a, c, 1);
        b.add_place(c, a, 0);
        let g = b.build().expect("valid");
        let token = CancelToken::new();
        let verdict = IncrementalAnalysis::new_with_cancel(&g, Some(&token))
            .expect("token is live")
            .into_verdict();
        assert_eq!(verdict, analyze(&g), "same verdict, bit-identical");
        token.cancel(CancelReason::Deadline);
        let err = IncrementalAnalysis::new_with_cancel(&g, Some(&token)).expect_err("token fired");
        assert_eq!(err.reason, CancelReason::Deadline);
    }

    #[test]
    fn critical_cycle_is_closed() {
        let mut b = TmgBuilder::new();
        let t: Vec<_> = (0..4)
            .map(|i| b.add_transition(format!("t{i}"), 2 * (i as u64) + 1))
            .collect();
        for i in 0..4 {
            b.add_place(t[i], t[(i + 1) % 4], u64::from(i % 2 == 0));
        }
        let g = b.build().expect("valid");
        match analyze(&g) {
            Verdict::Live { critical, .. } => {
                for (i, &p) in critical.places.iter().enumerate() {
                    let next = critical.places[(i + 1) % critical.places.len()];
                    assert_eq!(g.place(p).consumer(), g.place(next).producer());
                }
            }
            other => panic!("expected live, got {other:?}"),
        }
    }
}
