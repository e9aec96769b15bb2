//! Elementary-cycle enumeration — the brute-force oracle.
//!
//! The paper notes that computing the minimum cycle mean by enumerating all
//! elementary cycles (Definition 3) is impractical; we implement it anyway,
//! for *small* graphs, as the ground truth against which the efficient
//! solvers ([`howard`](crate::howard), [`parametric`](crate::parametric))
//! are property-tested.

use crate::howard::CycleRatioResult;
use crate::ratio::Ratio;
use crate::ratio_graph::{EdgeIdx, RatioGraph};

/// Enumerates every elementary cycle of the graph as a list of edge
/// indices in traversal order.
///
/// Runs the simple rooted-backtracking scheme: for each root vertex `s` in
/// increasing order, explore simple paths using only vertices `>= s` and
/// record a cycle whenever an edge returns to `s`. Exponential in the worst
/// case — intended for graphs of at most a couple of dozen vertices.
pub(crate) fn enumerate_elementary_cycles(graph: &RatioGraph) -> Vec<Vec<EdgeIdx>> {
    let n = graph.node_count;
    let mut cycles = Vec::new();
    let mut on_path = vec![false; n];
    let mut path_edges: Vec<EdgeIdx> = Vec::new();

    fn dfs(
        graph: &RatioGraph,
        root: usize,
        v: usize,
        on_path: &mut Vec<bool>,
        path_edges: &mut Vec<EdgeIdx>,
        cycles: &mut Vec<Vec<EdgeIdx>>,
    ) {
        for &e in graph.out(v) {
            let e = e as usize;
            let w = graph.edges[e].to;
            if w == root {
                let mut cycle = path_edges.clone();
                cycle.push(e);
                cycles.push(cycle);
            } else if w > root && !on_path[w] {
                on_path[w] = true;
                path_edges.push(e);
                dfs(graph, root, w, on_path, path_edges, cycles);
                path_edges.pop();
                on_path[w] = false;
            }
        }
    }

    for root in 0..n {
        on_path[root] = true;
        dfs(
            graph,
            root,
            root,
            &mut on_path,
            &mut path_edges,
            &mut cycles,
        );
        on_path[root] = false;
    }
    cycles
}

/// Outcome of the brute-force maximum-cycle-ratio computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BruteForceOutcome {
    /// The graph has no cycle at all.
    Acyclic,
    /// Some cycle has zero tokens: the ratio is unbounded (deadlock).
    ZeroTokenCycle(Vec<EdgeIdx>),
    /// The exact maximum finite ratio with a witness cycle.
    Finite(CycleRatioResult),
}

/// Exhaustive maximum cycle ratio over all elementary cycles.
pub(crate) fn max_cycle_ratio_brute(graph: &RatioGraph) -> BruteForceOutcome {
    let cycles = enumerate_elementary_cycles(graph);
    if cycles.is_empty() {
        return BruteForceOutcome::Acyclic;
    }
    let mut best: Option<CycleRatioResult> = None;
    for cycle in cycles {
        let delay: i64 = cycle.iter().map(|&e| graph.edges[e].delay).sum();
        let tokens: i64 = cycle.iter().map(|&e| graph.edges[e].tokens).sum();
        if tokens == 0 {
            return BruteForceOutcome::ZeroTokenCycle(cycle);
        }
        let ratio = Ratio::new(delay, tokens);
        if best.as_ref().is_none_or(|b| ratio > b.ratio) {
            best = Some(CycleRatioResult {
                ratio,
                cycle_edges: cycle,
            });
        }
    }
    BruteForceOutcome::Finite(best.expect("at least one cycle"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_has_one_cycle() {
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 2, 1, 1, None);
        g.add_edge(2, 0, 1, 1, None);
        let cycles = enumerate_elementary_cycles(&g);
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 3);
    }

    #[test]
    fn complete_digraph_on_three_vertices() {
        let mut g = RatioGraph::with_nodes(3);
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    g.add_edge(a, b, 1, 1, None);
                }
            }
        }
        // K3 directed: 3 two-cycles + 2 three-cycles.
        let cycles = enumerate_elementary_cycles(&g);
        assert_eq!(cycles.len(), 5);
    }

    #[test]
    fn self_loops_are_cycles() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 0, 1, 1, None);
        g.add_edge(1, 1, 1, 1, None);
        assert_eq!(enumerate_elementary_cycles(&g).len(), 2);
    }

    #[test]
    fn brute_force_detects_zero_token_cycle() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 1, 0, None);
        g.add_edge(1, 0, 1, 0, None);
        assert!(matches!(
            max_cycle_ratio_brute(&g),
            BruteForceOutcome::ZeroTokenCycle(_)
        ));
    }

    #[test]
    fn brute_force_matches_hand_computation() {
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 2, 1, None);
        g.add_edge(1, 0, 6, 1, None);
        g.add_edge(1, 2, 4, 0, None);
        g.add_edge(2, 1, 5, 1, None);
        match max_cycle_ratio_brute(&g) {
            BruteForceOutcome::Finite(r) => assert_eq!(r.ratio, Ratio::new(9, 1)),
            other => panic!("expected finite outcome, got {other:?}"),
        }
    }

    #[test]
    fn acyclic_outcome() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 1, 1, None);
        assert_eq!(max_cycle_ratio_brute(&g), BruteForceOutcome::Acyclic);
    }
}
