//! Howard's policy-iteration algorithm for the maximum cycle ratio.
//!
//! This is the algorithm the paper adopts (its reference [2],
//! Cochet-Terrasson et al.) to compute the cycle time of a timed marked
//! graph: the maximum over all cycles of `Σdelay / Σtokens`. It maintains a
//! *policy* (one outgoing edge per vertex), evaluates the unique cycle each
//! policy path leads to, and greedily improves the policy first by cycle
//! ratio and then by bias value until a fixed point. All arithmetic is
//! exact: ratios are canonical fractions and bias values are 128-bit
//! integers scaled by the ratio denominator.
//!
//! The solver runs per strongly connected component; cycles with zero
//! tokens (infinite ratio — structural deadlock) must be excluded by the
//! caller, which [`IncrementalAnalysis`](crate::IncrementalAnalysis) does
//! with the token-free cycle check.

use crate::ratio::Ratio;
use crate::ratio_graph::{EdgeIdx, RatioGraph};
use crate::scc::SccDecomposition;
use parx::{CancelToken, Cancelled};

/// A critical cycle with its exact ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CycleRatioResult {
    pub ratio: Ratio,
    /// Edge indices of one cycle achieving the ratio, in traversal order.
    pub cycle_edges: Vec<EdgeIdx>,
}

/// Integer width the policy iteration computes in.
///
/// The algorithm needs products of delays, tokens, and ratio components,
/// plus sums of up to `k + 1` such products (bias chains). `i128` is always
/// wide enough; when the per-component magnitude bounds prove `i64` cannot
/// overflow either, the solver runs the *same* arithmetic in `i64` — the
/// values are identical integers, so the narrow path is bit-identical to
/// the wide one, just ~2-3× faster on the hot scans.
trait WideInt: Copy + Ord + Default + std::ops::Add<Output = Self> {
    fn mul(a: i64, b: i64) -> Self;
}

impl WideInt for i64 {
    #[inline]
    fn mul(a: i64, b: i64) -> i64 {
        // Callers dispatch here only when the component-wide bounds prove
        // this cannot overflow.
        a * b
    }
}

impl WideInt for i128 {
    #[inline]
    fn mul(a: i64, b: i64) -> i128 {
        i128::from(a) * i128::from(b)
    }
}

/// Reduced cost of an edge under ratio `num/den`, scaled by `den`.
#[inline]
fn reduced_cost<W: WideInt>(delay: i64, tokens: i64, ratio: Ratio) -> W {
    W::mul(delay, ratio.denom()) + W::mul(-ratio.numer(), tokens)
}

/// Exact `a > b` by cross multiplication.
#[inline]
fn ratio_gt<W: WideInt>(a: Ratio, b: Ratio) -> bool {
    W::mul(a.numer(), b.denom()) > W::mul(b.numer(), a.denom())
}

/// A component-internal edge, copied into contiguous scratch memory.
///
/// The policy iteration reads each edge's head and weights thousands of
/// times; chasing them through `graph.edges[out_list[i]]` costs two
/// dependent loads per read. Copying the component's edges into one dense
/// array (with heads already relabeled to local indices) makes every hot
/// read a single sequential load. The values are verbatim copies, so the
/// iteration computes exactly what it would on the original arrays.
#[derive(Debug, Clone, Copy, Default)]
struct LocalEdge {
    /// Head vertex, in component-local indexing.
    to: u32,
    /// Original edge index, for witness extraction.
    global: u32,
    delay: i64,
    tokens: i64,
}

/// Reusable working memory for [`howard_on_component`].
///
/// One solve of a `k`-vertex component needs a dozen short-lived vectors;
/// allocating them per call dominates the runtime of small solves. Holding
/// a scratch across calls (as each incremental analysis does for its
/// lifetime) makes repeated solves allocation-free in the steady state. The scratch
/// carries **no state between calls** — every field is (re)initialized
/// before use — so reusing one never changes a result.
#[derive(Debug, Default)]
pub(crate) struct HowardScratch {
    /// Global vertex -> local index within the current component. Sized to
    /// the graph's node count; entries for non-members are stale and never
    /// read (all reads go through edges internal to the component).
    local: Vec<usize>,
    /// CSR offsets of internal out-edges per local vertex (`k + 1` entries).
    out_start: Vec<usize>,
    /// CSR edge list: internal out-edges grouped by local source vertex,
    /// in ascending edge-index order within each group (the same order the
    /// per-vertex `Vec` construction used to produce).
    edges: Vec<LocalEdge>,
    /// Write cursors for the CSR fill pass.
    cursor: Vec<usize>,
    /// Current policy: one index into [`Self::edges`] per local vertex.
    policy: Vec<usize>,
    lambda: Vec<Ratio>,
    /// Bias values for the narrow (overflow-proven-impossible) path.
    bias64: Vec<i64>,
    /// Bias values for the wide fallback path.
    bias128: Vec<i128>,
    /// Evaluation state: 0 = unvisited, 1 = on current path, 2 = resolved.
    state: Vec<u8>,
    /// Current evaluation walk, reused across starts and iterations.
    path: Vec<usize>,
    /// Cycle-extraction visit positions.
    seen_at: Vec<usize>,
    /// Cycle-extraction visit order.
    order: Vec<usize>,
}

impl HowardScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one component's solve found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HowardOutcome {
    /// The component has no internal edge, hence no cycle (a single
    /// vertex without a self-loop).
    NoCycle,
    /// Policy iteration hit its round cap before a fixed point; the
    /// component's ratio is unknown and the caller owes a fallback.
    Capped,
    /// The component's maximum cycle ratio with a witness cycle.
    Converged(CycleRatioResult),
}

/// Runs Howard's algorithm on one strongly connected component.
///
/// `members` lists the vertices of the component; all cycles through them
/// are assumed to have positive token sums. `scratch` only changes where
/// the working vectors live, never what the iteration computes. Returns
/// `Err(Cancelled)` when `cancel` fires between policy-improvement
/// rounds — the poll granularity that bounds cancellation latency to one
/// round.
pub(crate) fn howard_on_component(
    scratch: &mut HowardScratch,
    graph: &RatioGraph,
    scc: &SccDecomposition,
    members: &[u32],
    cancel: Option<&CancelToken>,
) -> Result<HowardOutcome, Cancelled> {
    let k = members.len();
    let comp = scc.component[members[0] as usize];
    let HowardScratch {
        local,
        out_start,
        edges,
        cursor,
        policy,
        lambda,
        bias64,
        bias128,
        state,
        path,
        seen_at,
        order,
    } = scratch;

    // Local relabeling. Stale entries for other vertices are never read:
    // every lookup goes through an edge whose endpoints are in `members`.
    if local.len() < graph.node_count {
        local.resize(graph.node_count, usize::MAX);
    }
    for (i, &v) in members.iter().enumerate() {
        local[v as usize] = i;
    }

    // Internal edges only, in CSR form. Grouping by counting sort over the
    // ascending edge-index scan preserves the per-vertex edge order of the
    // original `Vec<Vec<EdgeIdx>>` construction.
    out_start.clear();
    out_start.resize(k + 1, 0);
    for e in &graph.edges {
        if scc.component[e.from] == comp && scc.component[e.to] == comp {
            out_start[local[e.from] + 1] += 1;
        }
    }
    for i in 0..k {
        out_start[i + 1] += out_start[i];
    }
    let edge_total = out_start[k];
    if edge_total == 0 {
        return Ok(HowardOutcome::NoCycle);
    }
    cursor.clear();
    cursor.extend_from_slice(&out_start[..k]);
    edges.clear();
    edges.resize(edge_total, LocalEdge::default());
    for (idx, e) in graph.edges.iter().enumerate() {
        if scc.component[e.from] == comp && scc.component[e.to] == comp {
            let u = local[e.from];
            edges[cursor[u]] = LocalEdge {
                to: local[e.to] as u32,
                global: idx as u32,
                delay: e.delay,
                tokens: e.tokens,
            };
            cursor[u] += 1;
        }
    }
    // In a non-trivial SCC every vertex has an internal out-edge; a trivial
    // SCC (single vertex) only qualifies with a self-loop, checked above.
    debug_assert!((0..k).all(|u| out_start[u + 1] > out_start[u]));

    // Seed each vertex with its maximum-delay out-edge (first one on ties).
    // Howard improves the policy monotonically upward, so starting near
    // the heavy edges reaches the critical cycle in fewer rounds than the
    // arbitrary first-edge seed; the seed is a pure function of the graph,
    // keeping the whole iteration deterministic.
    policy.clear();
    policy.extend((0..k).map(|u| {
        let mut best = out_start[u];
        for cand in out_start[u] + 1..out_start[u + 1] {
            let e = &edges[cand];
            let b = &edges[best];
            // d1/(t1+1) > d2/(t2+1) by cross multiplication.
            if i128::from(e.delay) * i128::from(b.tokens + 1)
                > i128::from(b.delay) * i128::from(e.tokens + 1)
            {
                best = cand;
            }
        }
        best
    }));
    lambda.clear();
    lambda.resize(k, Ratio::zero());
    state.clear();
    state.resize(k, 0u8);

    // Magnitude bounds over the component decide the arithmetic width.
    // Every ratio is a (sub)cycle delay sum over a (sub)cycle token sum,
    // so numerators are bounded by the component's total delay and
    // denominators by its total tokens; reduced costs by `d·den + num·t`;
    // bias chains by `k + 1` reduced costs. When all of it fits `i64`
    // comfortably, the narrow path computes the identical integers.
    let mut d_max: i128 = 0;
    let mut t_max: i128 = 0;
    let mut d_sum: i128 = 0;
    let mut t_sum: i128 = 0;
    for e in edges.iter() {
        d_max = d_max.max(i128::from(e.delay));
        t_max = t_max.max(i128::from(e.tokens));
        d_sum += i128::from(e.delay);
        t_sum += i128::from(e.tokens);
    }
    let num_max = d_sum.max(1);
    let den_max = t_sum.max(1);
    let rc_max = d_max * den_max + num_max * t_max;
    let bias_max = (k as i128 + 1) * rc_max;
    let limit = i128::from(i64::MAX) / 4;
    let converged = if bias_max < limit && num_max * den_max < limit {
        bias64.clear();
        bias64.resize(k, 0i64);
        iterate::<i64>(
            edges, out_start, policy, lambda, bias64, state, path, k, cancel,
        )?
    } else {
        bias128.clear();
        bias128.resize(k, 0i128);
        iterate::<i128>(
            edges, out_start, policy, lambda, bias128, state, path, k, cancel,
        )?
    };
    Ok(match converged {
        Some(best) => {
            HowardOutcome::Converged(extract_policy_cycle(edges, policy, best, seen_at, order))
        }
        None => HowardOutcome::Capped,
    })
}

/// The policy-iteration loop: evaluate the current policy, then run one
/// fused improvement sweep that switches each vertex's policy to any
/// out-edge offering a lexicographically larger `(cycle ratio, bias)`,
/// until a fixed point or the iteration cap. Returns the lambda-maximal
/// vertex on convergence (the witness extraction start), `None` on cap.
///
/// The improvement sweep alternates direction by iteration parity. Within
/// one sweep an improvement at vertex `v` is visible to every vertex
/// scanned after it (Gauss–Seidel), so values propagate arbitrarily far
/// along edges oriented *with* the scan in a single round but only one
/// step per round against it; alternating the direction lets chains of
/// either orientation collapse in one round each, roughly halving the
/// round count on pipeline-shaped graphs. The direction schedule is a
/// pure function of the iteration index, so the solve stays
/// deterministic.
#[allow(clippy::too_many_arguments)]
fn iterate<W: WideInt>(
    edges: &[LocalEdge],
    out_start: &[usize],
    policy: &mut [usize],
    lambda: &mut [Ratio],
    bias: &mut [W],
    state: &mut [u8],
    path: &mut Vec<usize>,
    k: usize,
    cancel: Option<&CancelToken>,
) -> Result<Option<usize>, Cancelled> {
    let max_iterations = 64 + 8 * k;
    for iteration in 0..max_iterations {
        if let Some(token) = cancel {
            token.check()?;
        }
        // --- Evaluate the current policy. -------------------------------
        state.iter_mut().for_each(|s| *s = 0);
        for start in 0..k {
            if state[start] != 0 {
                continue;
            }
            // Walk the functional graph recording the path.
            path.clear();
            path.push(start);
            state[start] = 1;
            loop {
                let v = *path.last().expect("path non-empty");
                let w = edges[policy[v]].to as usize;
                match state[w] {
                    0 => {
                        state[w] = 1;
                        path.push(w);
                    }
                    1 => {
                        // Found a new policy cycle starting at `w`.
                        let cycle_start = path
                            .iter()
                            .position(|&x| x == w)
                            .expect("on-path node is in path");
                        let cycle = &path[cycle_start..];
                        let mut delay_sum: i64 = 0;
                        let mut token_sum: i64 = 0;
                        for &u in cycle {
                            let e = &edges[policy[u]];
                            delay_sum += e.delay;
                            token_sum += e.tokens;
                        }
                        debug_assert!(token_sum > 0, "zero-token cycle must be pre-excluded");
                        let ratio = Ratio::new(delay_sum, token_sum);
                        // Bias around the cycle: x(u) = rc(u) + x(next(u)),
                        // anchored at x(cycle[0]) = 0.
                        lambda[cycle[0]] = ratio;
                        bias[cycle[0]] = W::default();
                        for i in (1..cycle.len()).rev() {
                            let u = cycle[i];
                            let e = &edges[policy[u]];
                            let next = e.to as usize;
                            lambda[u] = ratio;
                            bias[u] = reduced_cost::<W>(e.delay, e.tokens, ratio) + bias[next];
                        }
                        for &u in cycle {
                            state[u] = 2;
                        }
                        // Prefix of the path drains into the cycle.
                        for i in (0..cycle_start).rev() {
                            let u = path[i];
                            let e = &edges[policy[u]];
                            let next = e.to as usize;
                            lambda[u] = lambda[next];
                            bias[u] = reduced_cost::<W>(e.delay, e.tokens, lambda[u]) + bias[next];
                            state[u] = 2;
                        }
                        break;
                    }
                    _ => {
                        // Path drains into an already-resolved region.
                        for i in (0..path.len()).rev() {
                            let u = path[i];
                            let e = &edges[policy[u]];
                            let next = e.to as usize;
                            lambda[u] = lambda[next];
                            bias[u] = reduced_cost::<W>(e.delay, e.tokens, lambda[u]) + bias[next];
                            state[u] = 2;
                        }
                        break;
                    }
                }
            }
        }

        // --- Improve: lexicographically by (ratio, bias). ---------------
        // One fused sweep switches `u`'s policy to any out-edge whose head
        // offers a strictly larger cycle ratio, or — at equal ratio — a
        // strictly larger chained bias. On a ratio adoption the bias is
        // set to the chained value along the new edge so later
        // comparisons in the same sweep stay meaningful (the next
        // evaluation recomputes the exact values either way). Improvements
        // made earlier in the sweep are visible to vertices scanned later
        // (Gauss–Seidel), and the scan direction alternates by iteration
        // parity so chains of either orientation collapse quickly.
        let forward = iteration % 2 == 0;
        let mut improved = false;
        for step in 0..k {
            let u = if forward { step } else { k - 1 - step };
            let out_edges = edges[..out_start[u + 1]].iter().enumerate();
            for (cand, e) in out_edges.skip(out_start[u]) {
                let v = e.to as usize;
                if lambda[v] != lambda[u] {
                    // Canonical form: distinct fields <=> distinct values,
                    // so the cheap inequality gates the multiplication.
                    if ratio_gt::<W>(lambda[v], lambda[u]) {
                        lambda[u] = lambda[v];
                        bias[u] = reduced_cost::<W>(e.delay, e.tokens, lambda[v]) + bias[v];
                        policy[u] = cand;
                        improved = true;
                    }
                } else {
                    let candidate = reduced_cost::<W>(e.delay, e.tokens, lambda[u]) + bias[v];
                    if candidate > bias[u] {
                        bias[u] = candidate;
                        policy[u] = cand;
                        improved = true;
                    }
                }
            }
        }
        if !improved {
            // Converged: the lambda-maximal vertex anchors the witness.
            trace::attr("iters", iteration + 1);
            let best = (0..k)
                .max_by(|&a, &b| lambda[a].cmp(&lambda[b]))
                .expect("component non-empty");
            return Ok(Some(best));
        }
    }
    trace::attr("iters", max_iterations);
    Ok(None)
}

/// Follows the policy from `start` until a vertex repeats and returns the
/// cycle reached, with its exact ratio.
fn extract_policy_cycle(
    edges: &[LocalEdge],
    policy: &[usize],
    start: usize,
    seen_at: &mut Vec<usize>,
    order: &mut Vec<usize>,
) -> CycleRatioResult {
    let k = policy.len();
    seen_at.clear();
    seen_at.resize(k, usize::MAX);
    order.clear();
    let mut v = start;
    loop {
        if seen_at[v] != usize::MAX {
            let cycle_nodes = &order[seen_at[v]..];
            let cycle_edges: Vec<EdgeIdx> = cycle_nodes
                .iter()
                .map(|&u| edges[policy[u]].global as EdgeIdx)
                .collect();
            let delay_sum: i64 = cycle_nodes.iter().map(|&u| edges[policy[u]].delay).sum();
            let token_sum: i64 = cycle_nodes.iter().map(|&u| edges[policy[u]].tokens).sum();
            return CycleRatioResult {
                ratio: Ratio::new(delay_sum, token_sum),
                cycle_edges,
            };
        }
        seen_at[v] = order.len();
        order.push(v);
        v = edges[policy[v]].to as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::tarjan;

    fn solve(g: &RatioGraph) -> Option<CycleRatioResult> {
        let scc = tarjan(g);
        let groups = scc.groups();
        let mut scratch = HowardScratch::new();
        let mut best: Option<CycleRatioResult> = None;
        for c in 0..groups.len() {
            match howard_on_component(&mut scratch, g, &scc, groups.group(c), None) {
                Ok(HowardOutcome::Converged(r)) => {
                    if best.as_ref().is_none_or(|b| r.ratio > b.ratio) {
                        best = Some(r);
                    }
                }
                Ok(HowardOutcome::NoCycle) => {}
                other => panic!("component {c}: {other:?}"),
            }
        }
        best
    }

    #[test]
    fn cancelled_token_stops_the_solve() {
        use parx::{CancelReason, CancelToken};
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 0, 1, 1, None);
        let scc = tarjan(&g);
        let groups = scc.groups();
        let token = CancelToken::new();
        token.cancel(CancelReason::Disconnected);
        let err = howard_on_component(
            &mut HowardScratch::new(),
            &g,
            &scc,
            groups.group(0),
            Some(&token),
        )
        .expect_err("token already cancelled");
        assert_eq!(err.reason, CancelReason::Disconnected);
    }

    #[test]
    fn single_self_loop() {
        let mut g = RatioGraph::with_nodes(1);
        g.add_edge(0, 0, 7, 2, None);
        let r = solve(&g).expect("cycle exists");
        assert_eq!(r.ratio, Ratio::new(7, 2));
        assert_eq!(r.cycle_edges, vec![0]);
    }

    #[test]
    fn picks_worse_of_two_loops() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 0, 3, 1, None); // ratio 3
        g.add_edge(1, 1, 7, 2, None); // ratio 3.5  <- critical
        g.add_edge(0, 1, 0, 1, None);
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(7, 2));
    }

    #[test]
    fn two_cycles_sharing_a_vertex() {
        let mut g = RatioGraph::with_nodes(3);
        // Cycle A: 0 -> 1 -> 0 with delay 10, tokens 2 (ratio 5).
        g.add_edge(0, 1, 4, 1, None);
        g.add_edge(1, 0, 6, 1, None);
        // Cycle B: 0 -> 2 -> 0 with delay 9, tokens 1 (ratio 9) <- critical.
        g.add_edge(0, 2, 4, 0, None);
        g.add_edge(2, 0, 5, 1, None);
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(9, 1));
        assert_eq!(r.cycle_edges.len(), 2);
    }

    #[test]
    fn critical_cycle_witness_is_consistent() {
        let mut g = RatioGraph::with_nodes(4);
        g.add_edge(0, 1, 2, 1, None);
        g.add_edge(1, 2, 3, 0, None);
        g.add_edge(2, 0, 4, 1, None);
        g.add_edge(2, 3, 1, 0, None);
        g.add_edge(3, 2, 8, 1, None);
        let r = solve(&g).expect("cycles exist");
        // Cycle 2->3->2: ratio 9/1; cycle 0->1->2->0: ratio 9/2.
        assert_eq!(r.ratio, Ratio::new(9, 1));
        // Witness edges must form a closed walk achieving the ratio.
        let d: i64 = r.cycle_edges.iter().map(|&e| g.edges[e].delay).sum();
        let w: i64 = r.cycle_edges.iter().map(|&e| g.edges[e].tokens).sum();
        assert_eq!(Ratio::new(d, w), r.ratio);
        for (i, &e) in r.cycle_edges.iter().enumerate() {
            let next = r.cycle_edges[(i + 1) % r.cycle_edges.len()];
            assert_eq!(g.edges[e].to, g.edges[next].from);
        }
    }

    #[test]
    fn acyclic_graph_returns_none() {
        let mut g = RatioGraph::with_nodes(3);
        g.add_edge(0, 1, 5, 1, None);
        g.add_edge(1, 2, 5, 1, None);
        assert!(solve(&g).is_none());
    }

    #[test]
    fn parallel_edges_are_considered() {
        let mut g = RatioGraph::with_nodes(2);
        g.add_edge(0, 1, 1, 1, None);
        g.add_edge(1, 0, 1, 1, None); // ratio 1
        g.add_edge(1, 0, 9, 1, None); // ratio 5 with first edge <- critical
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(10, 2));
    }

    #[test]
    fn larger_ring_with_cross_chords() {
        // Ring of 6 with delay 1 per edge and two tokens: ratio 3.
        // A chord creating a tighter loop of delay 15 over 1 token: 15.
        let mut g = RatioGraph::with_nodes(6);
        for i in 0..6 {
            g.add_edge(i, (i + 1) % 6, 1, i64::from(i <= 1), None);
        }
        g.add_edge(3, 1, 13, 0, None);
        g.add_edge(1, 3, 2, 1, None);
        let r = solve(&g).expect("cycles exist");
        assert_eq!(r.ratio, Ratio::new(15, 1));
    }

    #[test]
    fn scratch_reuse_across_mismatched_components_is_bit_identical() {
        // Solve a large component, then a small one, then the large one
        // again with the *same* scratch; every answer must match a
        // fresh-scratch solve bit for bit.
        let mut big = RatioGraph::with_nodes(10);
        for i in 0..10 {
            g_edge(&mut big, i, (i + 1) % 10, 1 + i as i64, i64::from(i == 0));
        }
        big.add_edge(4, 1, 17, 1, None);
        let mut small = RatioGraph::with_nodes(2);
        small.add_edge(0, 1, 3, 1, None);
        small.add_edge(1, 0, 2, 1, None);

        let scc_big = tarjan(&big);
        let scc_small = tarjan(&small);
        let mem_big = scc_big.groups();
        let mem_small = scc_small.groups();

        let mut scratch = HowardScratch::new();
        for _ in 0..3 {
            for (g, scc, members) in [
                (&big, &scc_big, mem_big.group(0)),
                (&small, &scc_small, mem_small.group(0)),
            ] {
                let reused = howard_on_component(&mut scratch, g, scc, members, None)
                    .expect("not cancelled");
                let fresh = howard_on_component(&mut HowardScratch::new(), g, scc, members, None)
                    .expect("not cancelled");
                assert_eq!(reused, fresh);
            }
        }
    }

    fn g_edge(g: &mut RatioGraph, from: usize, to: usize, delay: i64, tokens: i64) {
        g.add_edge(from, to, delay, tokens, None);
    }
}
