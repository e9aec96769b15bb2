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
//!
//! # Warm starts and the witness rule
//!
//! Policy iteration converges from any start policy, so a caller that
//! re-solves an edited graph passes the *heads* of its last converged
//! policy (for each vertex, the head vertex of its policy edge): each
//! vertex starts on its first internal out-edge to its carried head, and
//! on the max-delay seed edge when it has none. The converged policy is
//! written back into the heads. Only the round count depends on them.
//!
//! The reported witness must not depend on the start, so it is not read
//! off the converged policy. After convergence every vertex of the
//! component has the same ratio λ*, and an edge `u → v` is *tight* when
//! `rc(u, v) + bias(v) = bias(u)` under the converged biases. A *critical
//! class* is a strongly connected class of the tight subgraph that holds
//! a cycle; the classes are those of the critical graph (the union of
//! the λ*-cycles), a property of the graph alone.
//!
//! - **One class.** The biases are a max-plus eigenvector, unique up to a
//!   constant when the critical graph is strongly connected, so the tight
//!   subgraph is the same from every start. The witness walks it from the
//!   component's last member, always along the first tight out-edge in
//!   edge order, and is the cycle closed at the first repeated vertex.
//! - **Two or more classes** (tied critical cycles). Biases and tight
//!   edges then depend on the start, so the solve re-runs from the seed
//!   policy (unless it started there) and follows that policy from the
//!   last member, as a cold solve always has. The same re-seed runs when
//!   a warm solve hits the round cap, so a capped outcome is a cold one.
//!
//! The `howard` span records `iters` (policy rounds, both solves of a
//! re-seed included), `warm` (vertices that started from a carried head;
//! 0 for a cold solve) and, only when the solve re-ran from the seed,
//! `reseeded=1`.

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

/// Marks a vertex without a carried head in a heads vector.
pub(crate) const NO_HEAD: u32 = u32::MAX;

/// Reusable working memory for [`howard_on_component`].
///
/// One solve of a `k`-vertex component needs a dozen short-lived vectors;
/// allocating them per call dominates the runtime of small solves. Holding
/// a scratch across calls (as each incremental analysis does for its
/// lifetime) makes repeated solves allocation-free in the steady state. The scratch
/// carries **no state between calls** — every field but the `reseeds`
/// statistic is (re)initialized before use — so reusing one never changes
/// a result.
#[derive(Debug, Default)]
pub(crate) struct HowardScratch {
    /// Solves that re-ran from the seed policy (tied critical classes or
    /// a capped warm start), counted across calls.
    #[cfg_attr(not(test), allow(dead_code))]
    pub reseeds: u64,
    /// Global vertex -> local index within the current component. Sized to
    /// the graph's node count; entries for non-members are stale and never
    /// read (all reads go through edges internal to the component).
    local: Vec<usize>,
    /// Write cursors for the CSR fill pass.
    cursor: Vec<usize>,
    /// Bias values for the narrow (overflow-proven-impossible) path.
    bias64: Vec<i64>,
    /// Bias values for the wide fallback path.
    bias128: Vec<i128>,
    work: Work,
}

impl HowardScratch {
    pub fn new() -> Self {
        Self::default()
    }
}

/// The component-local arrays one solve iterates over, apart from the
/// biases (whose integer width is chosen per component).
#[derive(Debug, Default)]
struct Work {
    /// CSR offsets of internal out-edges per local vertex (`k + 1` entries).
    out_start: Vec<usize>,
    /// CSR edge list: internal out-edges grouped by local source vertex,
    /// in ascending edge-index order within each group (the same order the
    /// per-vertex `Vec` construction used to produce).
    edges: Vec<LocalEdge>,
    /// The max-delay seed edge of each local vertex.
    seed: Vec<usize>,
    /// Current policy: one index into [`Self::edges`] per local vertex.
    policy: Vec<usize>,
    lambda: Vec<Ratio>,
    /// Evaluation state: 0 = unvisited, 1 = on current path, 2 = resolved.
    /// Class counting reuses it as the Tarjan on-stack flag.
    state: Vec<u8>,
    /// Current evaluation walk, reused across starts and iterations.
    /// Class counting reuses it as the Tarjan stack.
    path: Vec<usize>,
    /// Tarjan visit index per local vertex, for counting critical classes.
    tindex: Vec<usize>,
    /// Tarjan lowlink per local vertex.
    tlow: Vec<usize>,
    /// Tarjan DFS frames: (vertex, next edge position).
    tframes: Vec<(usize, usize)>,
    /// Cycle-extraction visit positions.
    seen_at: Vec<usize>,
    /// Cycle-extraction visit order.
    order: Vec<usize>,
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
/// are assumed to have positive token sums. `heads` carries a policy from
/// the caller's previous solves (see the [module docs](self)): it is
/// indexed by vertex, grown to the graph's vertex count with [`NO_HEAD`],
/// read for the start policy, and overwritten with the converged policy.
/// It may hold anything — stale entries, or heads taken from another
/// graph — because it changes only the round count, never the outcome.
/// `scratch` only changes where the working vectors live. Returns
/// `Err(Cancelled)` when `cancel` fires between policy-improvement rounds
/// — the poll granularity that bounds cancellation latency to one round.
pub(crate) fn howard_on_component(
    scratch: &mut HowardScratch,
    graph: &RatioGraph,
    scc: &SccDecomposition,
    members: &[u32],
    heads: &mut Vec<u32>,
    cancel: Option<&CancelToken>,
) -> Result<HowardOutcome, Cancelled> {
    let k = members.len();
    let comp = scc.component[members[0] as usize];
    let HowardScratch {
        reseeds,
        local,
        cursor,
        bias64,
        bias128,
        work,
    } = scratch;
    let Work {
        out_start,
        edges,
        seed,
        policy,
        ..
    } = work;

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

    // The seed: each vertex's maximum-delay out-edge (first one on ties).
    // Howard improves the policy monotonically upward, so starting near
    // the heavy edges reaches the critical cycle in fewer rounds than the
    // arbitrary first-edge seed; the seed is a pure function of the graph.
    seed.clear();
    seed.extend((0..k).map(|u| {
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

    // The start: each vertex's first internal out-edge to its carried
    // head, else its seed edge.
    if heads.len() < graph.node_count {
        heads.resize(graph.node_count, NO_HEAD);
    }
    let mut warm = 0usize;
    policy.clear();
    policy.extend((0..k).map(|u| {
        let head = heads[members[u] as usize];
        let carried = (head != NO_HEAD)
            .then(|| {
                (out_start[u]..out_start[u + 1]).find(|&e| members[edges[e].to as usize] == head)
            })
            .flatten();
        match carried {
            Some(e) => {
                warm += 1;
                e
            }
            None => seed[u],
        }
    }));
    let from_seed = policy == seed;

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
    let solved = if bias_max < limit && num_max * den_max < limit {
        work.converge(bias64, from_seed, cancel)?
    } else {
        work.converge(bias128, from_seed, cancel)?
    };
    trace::attr("iters", solved.rounds);
    trace::attr("warm", warm);
    if solved.reseeded {
        // Only on the rare tie path: a fifth attribute would double the
        // span's attribute vector in the trace journal.
        trace::attr("reseeded", 1);
        *reseeds += 1;
    }
    Ok(match solved.witness {
        Some(witness) => {
            for (u, &p) in work.policy.iter().enumerate() {
                heads[members[u] as usize] = members[work.edges[p].to as usize];
            }
            HowardOutcome::Converged(witness)
        }
        None => HowardOutcome::Capped,
    })
}

/// What [`Work::converge`] found: the witness (`None` when capped), the
/// policy rounds spent, and whether the solve re-ran from the seed.
struct Solved {
    witness: Option<CycleRatioResult>,
    rounds: usize,
    reseeded: bool,
}

impl Work {
    /// Iterates the start policy to a fixed point and takes the witness by
    /// the rule of the [module docs](self): the tight walk when there is
    /// one critical class, else the seed policy's cycle. A start other
    /// than the seed re-solves from the seed first when the classes tie
    /// or the round cap hits, so the outcome is always a cold solve's.
    fn converge<W: WideInt>(
        &mut self,
        bias: &mut Vec<W>,
        from_seed: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<Solved, Cancelled> {
        let k = self.policy.len();
        bias.clear();
        bias.resize(k, W::default());
        // Rounds spent, and the critical classes of the converged policy
        // (0 when capped). The hot loops run on plain slices.
        let solve = |work: &mut Work, bias: &mut [W]| -> Result<(usize, usize), Cancelled> {
            work.lambda.clear();
            work.lambda.resize(k, Ratio::zero());
            work.state.clear();
            work.state.resize(k, 0);
            let Some(rounds) = iterate(
                &work.edges,
                &work.out_start,
                &mut work.policy,
                &mut work.lambda,
                bias,
                &mut work.state,
                &mut work.path,
                cancel,
            )?
            else {
                return Ok((max_rounds(k), 0));
            };
            Ok((rounds, work.critical_classes(bias)))
        };
        let (mut rounds, mut classes) = solve(self, bias)?;
        let reseeded = classes != 1 && !from_seed;
        if reseeded {
            self.policy.copy_from_slice(&self.seed);
            let (more, again) = solve(self, bias)?;
            rounds += more;
            classes = again;
        }
        let witness = match classes {
            0 => None,
            1 => {
                let tight = Tight {
                    edges: &self.edges,
                    out_start: &self.out_start,
                    ratio: self.lambda[0],
                    bias,
                };
                Some(extract_cycle(
                    &self.edges,
                    k,
                    &mut self.seen_at,
                    &mut self.order,
                    |u| tight.first_out(u),
                ))
            }
            // Every vertex ties at λ*, and a cold solve has always
            // followed its policy from the last one (the last maximum).
            _ => Some(extract_cycle(
                &self.edges,
                k,
                &mut self.seen_at,
                &mut self.order,
                |u| self.policy[u],
            )),
        };
        Ok(Solved {
            witness,
            rounds,
            reseeded,
        })
    }

    /// The number of critical classes after convergence, counted up to 2:
    /// strongly connected classes of the tight subgraph that hold a cycle
    /// (one iterative Tarjan pass over the tight edges).
    fn critical_classes<W: WideInt>(&mut self, bias: &[W]) -> usize {
        const UNSEEN: usize = usize::MAX;
        let k = self.policy.len();
        let Work {
            edges,
            out_start,
            lambda,
            state: on_stack,
            path: stack,
            tindex: index,
            tlow: low,
            tframes: frames,
            ..
        } = self;
        let tight = Tight {
            edges,
            out_start,
            ratio: lambda[0],
            bias,
        };
        index.clear();
        index.resize(k, UNSEEN);
        low.clear();
        low.resize(k, 0);
        on_stack.clear();
        on_stack.resize(k, 0);
        let (index, low, on_stack) = (&mut index[..], &mut low[..], &mut on_stack[..]);
        stack.clear();
        frames.clear();
        let mut next = 0usize;
        let mut classes = 0usize;
        for root in 0..k {
            if index[root] != UNSEEN {
                continue;
            }
            index[root] = next;
            low[root] = next;
            next += 1;
            stack.push(root);
            on_stack[root] = 1;
            frames.push((root, out_start[root]));
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                if *pos < out_start[v + 1] {
                    let e = *pos;
                    *pos += 1;
                    if !tight.is_tight(v, e) {
                        continue;
                    }
                    let w = edges[e].to as usize;
                    if index[w] == UNSEEN {
                        index[w] = next;
                        low[w] = next;
                        next += 1;
                        stack.push(w);
                        on_stack[w] = 1;
                        frames.push((w, out_start[w]));
                    } else if on_stack[w] == 1 {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut size = 0usize;
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = 0;
                        size += 1;
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = size > 1
                        || (out_start[v]..out_start[v + 1])
                            .any(|e| edges[e].to as usize == v && tight.is_tight(v, e));
                    if cyclic {
                        classes += 1;
                        if classes > 1 {
                            return classes;
                        }
                    }
                }
            }
        }
        classes
    }
}

/// The tight subgraph of a converged component: edge `e` out of `u` is
/// tight when `rc(e) + bias(head e) = bias(u)` under the common ratio.
struct Tight<'a, W> {
    edges: &'a [LocalEdge],
    out_start: &'a [usize],
    ratio: Ratio,
    bias: &'a [W],
}

impl<W: WideInt> Tight<'_, W> {
    #[inline]
    fn is_tight(&self, u: usize, e: usize) -> bool {
        let e = &self.edges[e];
        reduced_cost::<W>(e.delay, e.tokens, self.ratio) + self.bias[e.to as usize] == self.bias[u]
    }

    /// `u`'s first tight out-edge in edge order (its policy edge is one).
    fn first_out(&self, u: usize) -> usize {
        (self.out_start[u]..self.out_start[u + 1])
            .find(|&e| self.is_tight(u, e))
            .expect("a converged policy edge is tight")
    }
}

/// The policy-iteration loop: evaluate the current policy, then run
/// one fused improvement sweep that switches each vertex's policy to
/// any out-edge offering a lexicographically larger `(cycle ratio,
/// bias)`, until a fixed point or the round cap. Returns the rounds
/// spent on convergence, `None` on cap.
///
/// The improvement sweep alternates direction by iteration parity.
/// Within one sweep an improvement at vertex `v` is visible to every
/// vertex scanned after it (Gauss–Seidel), so values propagate
/// arbitrarily far along edges oriented *with* the scan in a single
/// round but only one step per round against it; alternating the
/// direction lets chains of either orientation collapse in one round
/// each, roughly halving the round count on pipeline-shaped graphs.
/// The direction schedule is a pure function of the iteration index,
/// so the solve stays deterministic.
#[allow(clippy::too_many_arguments)]
fn iterate<W: WideInt>(
    edges: &[LocalEdge],
    out_start: &[usize],
    policy: &mut [usize],
    lambda: &mut [Ratio],
    bias: &mut [W],
    state: &mut [u8],
    path: &mut Vec<usize>,
    cancel: Option<&CancelToken>,
) -> Result<Option<usize>, Cancelled> {
    let k = policy.len();
    for iteration in 0..max_rounds(k) {
        if let Some(token) = cancel {
            token.check()?;
        }
        // --- Evaluate the current policy. ---------------------------
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

        // --- Improve: lexicographically by (ratio, bias). -----------
        // One fused sweep switches `u`'s policy to any out-edge whose
        // head offers a strictly larger cycle ratio, or — at equal
        // ratio — a strictly larger chained bias. On a ratio adoption
        // the bias is set to the chained value along the new edge so
        // later comparisons in the same sweep stay meaningful (the
        // next evaluation recomputes the exact values either way).
        // Improvements made earlier in the sweep are visible to
        // vertices scanned later (Gauss–Seidel), and the scan
        // direction alternates by iteration parity so chains of either
        // orientation collapse quickly.
        let forward = iteration % 2 == 0;
        let mut improved = false;
        for step in 0..k {
            let u = if forward { step } else { k - 1 - step };
            let out_edges = edges[..out_start[u + 1]].iter().enumerate();
            for (cand, e) in out_edges.skip(out_start[u]) {
                let v = e.to as usize;
                if lambda[v] != lambda[u] {
                    // Canonical form: distinct fields <=> distinct
                    // values, so the cheap inequality gates the
                    // multiplication.
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
            // A fixed point: no edge leads to a larger ratio, so in a
            // strongly connected component every vertex has λ*.
            debug_assert!(lambda.iter().all(|&l| l == lambda[0]));
            return Ok(Some(iteration + 1));
        }
    }
    Ok(None)
}

/// Howard's round cap for a `k`-vertex component.
fn max_rounds(k: usize) -> usize {
    64 + 8 * k
}

/// Follows `next_edge` (a local edge index per local vertex) from the
/// last of the `k` local vertices until a vertex repeats and returns the
/// cycle reached, with its exact ratio.
fn extract_cycle(
    edges: &[LocalEdge],
    k: usize,
    seen_at: &mut Vec<usize>,
    order: &mut Vec<usize>,
    next_edge: impl Fn(usize) -> usize,
) -> CycleRatioResult {
    seen_at.clear();
    seen_at.resize(k, usize::MAX);
    order.clear();
    let mut v = k - 1;
    loop {
        if seen_at[v] != usize::MAX {
            let cycle_edges: Vec<usize> =
                order[seen_at[v]..].iter().map(|&u| next_edge(u)).collect();
            let delay_sum: i64 = cycle_edges.iter().map(|&e| edges[e].delay).sum();
            let token_sum: i64 = cycle_edges.iter().map(|&e| edges[e].tokens).sum();
            return CycleRatioResult {
                ratio: Ratio::new(delay_sum, token_sum),
                cycle_edges: cycle_edges
                    .iter()
                    .map(|&e| edges[e].global as EdgeIdx)
                    .collect(),
            };
        }
        seen_at[v] = order.len();
        order.push(v);
        v = edges[next_edge(v)].to as usize;
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
            match howard_on_component(
                &mut scratch,
                g,
                &scc,
                groups.group(c),
                &mut Vec::new(),
                None,
            ) {
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
            &mut Vec::new(),
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
                let reused =
                    howard_on_component(&mut scratch, g, scc, members, &mut Vec::new(), None)
                        .expect("not cancelled");
                let fresh = howard_on_component(
                    &mut HowardScratch::new(),
                    g,
                    scc,
                    members,
                    &mut Vec::new(),
                    None,
                )
                .expect("not cancelled");
                assert_eq!(reused, fresh);
            }
        }
    }

    fn g_edge(g: &mut RatioGraph, from: usize, to: usize, delay: i64, tokens: i64) {
        g.add_edge(from, to, delay, tokens, None);
    }

    /// Solves the single component of `g` from `heads`.
    fn solve_from(
        scratch: &mut HowardScratch,
        g: &RatioGraph,
        heads: &mut Vec<u32>,
    ) -> CycleRatioResult {
        let scc = tarjan(g);
        let groups = scc.groups();
        assert_eq!(groups.len(), 1, "one strongly connected component");
        match howard_on_component(scratch, g, &scc, groups.group(0), heads, None) {
            Ok(HowardOutcome::Converged(r)) => r,
            other => panic!("{other:?}"),
        }
    }

    /// Two loops of ratio 6 (`0 ⇄ 1` and `2 ⇄ 3`), bridged into one
    /// component by token-heavy edges whose cycles have ratio 1. The
    /// bridge `3 → 0` comes before `3 → 2` in edge order.
    fn tied_loops() -> RatioGraph {
        let mut g = RatioGraph::with_nodes(4);
        g_edge(&mut g, 0, 1, 3, 1); // e0
        g_edge(&mut g, 1, 0, 3, 0); // e1
        g_edge(&mut g, 3, 0, 0, 2); // e2: bridge
        g_edge(&mut g, 2, 3, 3, 1); // e3
        g_edge(&mut g, 3, 2, 3, 0); // e4
        g_edge(&mut g, 1, 2, 0, 2); // e5: bridge
        g
    }

    #[test]
    fn a_warm_start_on_a_tie_reseeds_and_returns_the_cold_witness() {
        let g = tied_loops();
        let mut scratch = HowardScratch::new();
        let mut cold_heads = Vec::new();
        let cold = solve_from(&mut scratch, &g, &mut cold_heads);
        assert_eq!(cold.ratio, Ratio::new(6, 1));
        // The seed policy closes both loops; the last vertex reaches the
        // loop 2 ⇄ 3, and a cold solve never re-seeds.
        assert_eq!(cold.cycle_edges, vec![4, 3]);
        assert_eq!(cold_heads, vec![1, 0, 3, 2]);
        assert_eq!(scratch.reseeds, 0);

        // Start vertex 3 on the bridge into the *other* loop. That policy
        // is converged too, and under its biases the bridge is tight and
        // first in edge order: the tight walk from vertex 3 would report
        // the loop 0 ⇄ 1. Two critical classes send the solve back to
        // the seed instead.
        let mut warm_heads = vec![NO_HEAD, NO_HEAD, NO_HEAD, 0];
        let warm = solve_from(&mut scratch, &g, &mut warm_heads);
        assert_eq!(scratch.reseeds, 1, "the tie re-seeded");
        assert_eq!(warm, cold, "cold witness, edge for edge");
        assert_eq!(warm_heads, cold_heads, "heads of the re-seeded policy");
    }

    #[test]
    fn one_critical_class_takes_the_tight_walk_from_any_start() {
        // Ratio 15 on 1 -> 3 -> 4 -> 1 (edges 6, 3, 4), other cycles
        // lighter: one class, so every start gives the same witness.
        let mut g = RatioGraph::with_nodes(6);
        for i in 0..6 {
            g_edge(&mut g, i, (i + 1) % 6, 1, i64::from(i <= 1));
        }
        g_edge(&mut g, 3, 1, 13, 0);
        g_edge(&mut g, 1, 3, 2, 1);
        let mut scratch = HowardScratch::new();
        let cold = solve_from(&mut scratch, &g, &mut Vec::new());
        assert_eq!(cold.ratio, Ratio::new(15, 1));
        for start in 0..6u32 {
            for other in 0..7u32 {
                // Every vertex aims at `start`; vertex `start` at `other`
                // (7 matches no vertex, so it falls back to the seed).
                let mut heads: Vec<u32> = (0..6)
                    .map(|v| if v == start { other } else { start })
                    .collect();
                let warm = solve_from(&mut scratch, &g, &mut heads);
                assert_eq!(warm, cold, "heads aimed at {start}/{other}");
            }
        }
        assert_eq!(scratch.reseeds, 0, "one class never re-seeds");
    }
}
