//! Timed marked graphs and exact cycle-time analysis.
//!
//! This crate implements the performance model of *“A Design Methodology
//! for Compositional High-Level Synthesis of Communication-Centric SoCs”*
//! (Di Guglielmo, Pilato, Carloni — DAC 2014), Section 3: hardware systems
//! assembled from latency-insensitive processes are modeled as **timed
//! marked graphs** (TMGs), a subclass of Petri nets in which every place
//! has exactly one producer and one consumer transition.
//!
//! The throughput of such a system is the reciprocal of its **cycle time**
//! π(G): the maximum over all cycles of the ratio between total transition
//! delay and total token count. The crate provides:
//!
//! - [`TmgBuilder`]/[`Tmg`]: graph construction with the marked-graph
//!   restriction enforced by construction, plus token-game execution
//!   ([`Marking`]).
//! - [`analyze`]: deadlock detection (token-free cycle) and exact cycle
//!   time with a critical-cycle witness, via **Howard's policy-iteration
//!   algorithm** — the method the paper adopts — with exact rational
//!   arithmetic ([`Ratio`]).
//! - [`IncrementalAnalysis`]: the one solver driver behind [`analyze`],
//!   kept alive across delay and structural edits so that only the
//!   strongly connected components an edit touches are re-solved, each
//!   from the policy its last solve converged to (the reported critical
//!   cycle does not depend on that start), and cooperatively
//!   cancellable.
//! - [`analyze_parametric`]: an independent Lawler-style solver, Howard's
//!   fallback when a component hits the policy-iteration round cap and
//!   the oracle the property tests check Howard against.
//! - [`simulate`]: the earliest-firing-time execution the analytic model
//!   replaces, for validating π(G) empirically.
//!
//! # Examples
//!
//! A producer and a consumer coupled by a rendezvous channel form a loop
//! whose single token paces the whole system:
//!
//! ```
//! use tmg::{analyze, TmgBuilder, Verdict, Ratio};
//!
//! let mut b = TmgBuilder::new();
//! let producer = b.add_transition("producer", 3);
//! let consumer = b.add_transition("consumer", 2);
//! b.add_place(producer, consumer, 1); // data place, one token
//! b.add_place(consumer, producer, 0); // backpressure place, empty
//! let graph = b.build()?;
//!
//! match analyze(&graph) {
//!     Verdict::Live { cycle_time, critical } => {
//!         assert_eq!(cycle_time, Ratio::new(5, 1)); // 3 + 2 cycles per item
//!         assert_eq!(critical.transitions.len(), 2);
//!     }
//!     other => panic!("unexpected verdict: {other:?}"),
//! }
//! # Ok::<(), tmg::TmgError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
#[cfg(test)]
mod cycles;
mod deadlock;
mod dot;
mod error;
mod graph;
mod howard;
mod ids;
mod incremental;
mod parametric;
mod ratio;
mod ratio_graph;
mod scc;
mod sim;

pub use analysis::{analyze, analyze_parametric, CriticalCycle, Verdict};
pub use deadlock::find_token_free_cycle;
pub use dot::to_dot;
pub use error::TmgError;
pub use graph::{Marking, Place, Tmg, TmgBuilder, Transition};
pub use ids::{PlaceId, TransitionId};
pub use incremental::IncrementalAnalysis;
pub use ratio::Ratio;
pub use sim::{simulate, SimulationOutcome};

#[cfg(test)]
mod oracle_tests {
    //! Cross-validation of the two solvers against the brute-force
    //! cycle-enumeration oracle on a deterministic family of graphs.
    use crate::cycles::{max_cycle_ratio_brute, BruteForceOutcome};
    use crate::howard::{howard_on_component, HowardOutcome, HowardScratch};
    use crate::parametric::{find_any_cycle, max_cycle_ratio_parametric};
    use crate::ratio::Ratio;
    use crate::ratio_graph::RatioGraph;
    use crate::scc::tarjan;

    fn howard_max(g: &RatioGraph) -> Option<Ratio> {
        let scc = tarjan(g);
        let groups = scc.groups();
        let mut scratch = HowardScratch::new();
        let mut best: Option<Ratio> = None;
        for c in 0..groups.len() {
            match howard_on_component(
                &mut scratch,
                g,
                &scc,
                groups.group(c),
                &mut Vec::new(),
                None,
            ) {
                Ok(HowardOutcome::Converged(r)) => {
                    if best.is_none_or(|b| r.ratio > b) {
                        best = Some(r.ratio);
                    }
                }
                Ok(HowardOutcome::NoCycle) => {}
                other => panic!("component {c}: {other:?}"),
            }
        }
        best
    }

    /// Deterministic pseudo-random generator (xorshift) so the oracle
    /// family is reproducible without pulling `rand` into this crate.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    fn random_graph(seed: u64, nodes: usize, edges: usize) -> RatioGraph {
        let mut rng = XorShift(seed | 1);
        let mut g = RatioGraph::with_nodes(nodes);
        for _ in 0..edges {
            let a = rng.below(nodes as u64) as usize;
            let b = rng.below(nodes as u64) as usize;
            let delay = rng.below(20) as i64;
            // Bias tokens toward small counts but keep them positive often
            // enough that most graphs have no zero-token cycle.
            let tokens = (rng.below(3)) as i64;
            g.add_edge(a, b, delay, tokens, None);
        }
        g
    }

    #[test]
    fn howard_and_parametric_match_brute_force() {
        let mut live = 0;
        for seed in 1..200u64 {
            let g = random_graph(seed, 2 + (seed % 6) as usize, 3 + (seed % 9) as usize);
            match max_cycle_ratio_brute(&g) {
                BruteForceOutcome::Acyclic => {
                    assert_eq!(howard_max(&g), None, "seed {seed}");
                    assert!(find_any_cycle(&g).is_none(), "seed {seed}");
                }
                BruteForceOutcome::ZeroTokenCycle(_) => {
                    // Solvers require zero-token cycles to be pre-excluded;
                    // the analysis facade handles this via the deadlock
                    // check, so nothing to compare here.
                }
                BruteForceOutcome::Finite(expected) => {
                    live += 1;
                    assert_eq!(howard_max(&g), Some(expected.ratio), "seed {seed}");
                    let param = max_cycle_ratio_parametric(&g).expect("cyclic");
                    assert_eq!(param.ratio, expected.ratio, "seed {seed}");
                }
            }
        }
        assert!(
            live > 50,
            "oracle family too degenerate: {live} live graphs"
        );
    }
}
