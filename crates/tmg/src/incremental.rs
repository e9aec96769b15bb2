//! Incremental (dirty-SCC) cycle-time analysis — the crate's one solver
//! driver.
//!
//! [`IncrementalAnalysis::new`] runs the whole pipeline once: deadlock
//! check, ratio-graph lowering, SCC decomposition, one Howard solve per
//! component, and the reduction to a verdict; [`analyze`](crate::analyze)
//! is exactly that first solve. The state is then kept alive between
//! edits, and only what an edit can actually invalidate is re-derived:
//!
//! - **Delay-only edits** ([`IncrementalAnalysis::reprice`]) — a process
//!   reselect changes transition delays but no structure. The deadlock
//!   witness (structure + tokens only), the ratio graph's shape, and the
//!   SCC decomposition all remain valid; only components containing an
//!   *internal* edge whose delay changed are re-solved. Cached cycle
//!   ratios of clean components are reused as-is.
//! - **Structural edits** ([`IncrementalAnalysis::rebuild`]) — a channel
//!   reorder rewires places, so deadlock/ratio-graph/SCCs are re-derived;
//!   per-component Howard results are still reused for any component whose
//!   member set and internal edges (indices, endpoints, weights) are
//!   unchanged.
//!
//! - **Any next graph** ([`IncrementalAnalysis::reanalyze`]) — the work of
//!   a rebuild, traced as an analysis: the exploration loop carries one
//!   state per chain and analyzes each of its cache misses through it.
//!
//! Every re-solve is **warm**: the state carries the *heads* of its last
//! converged Howard policies (for each transition, the head of its policy
//! edge), and Howard starts each solve from them. Transition indices are
//! stable across re-lowerings of one system, so the heads of one
//! iteration of the loop are a good start for the next. The witness is
//! not read off the converged policy but taken by a fixed rule over the
//! converged biases, which yields the same cycle from every start (the
//! rule and its argument are documented with the solver, `howard.rs`).
//!
//! Every verdict produced this way is **bit-identical** to a from-scratch
//! [`analyze`](crate::analyze) of the same graph: clean components reuse
//! results a fresh solve would recompute from identical inputs with the
//! same deterministic algorithm, dirty components run that very
//! algorithm — whose result, witness included, does not depend on the
//! start policy — and one reduction turns the per-component results into
//! the verdict. The differential test suites pin this equivalence.
//!
//! Cancellation is cooperative and leaves the state *resumable*: dirty
//! flags are only cleared after a component's re-solve completes, so a
//! cancelled [`reprice`](IncrementalAnalysis::reprice) can simply be
//! retried. A cancelled [`rebuild`](IncrementalAnalysis::rebuild) leaves
//! the previous analysis untouched (the new state is committed atomically
//! at the end), except that the solves that finished before the cancel
//! may already have advanced the carried heads — which only changes how
//! fast later solves converge. Callers that already mutated their graph
//! must retry the rebuild before trusting
//! [`verdict`](IncrementalAnalysis::verdict).

use crate::analysis::cycle_verdict;
use crate::deadlock::find_token_free_cycle;
use crate::graph::Tmg;
use crate::howard::{howard_on_component, CycleRatioResult, HowardOutcome, HowardScratch};
use crate::ids::TransitionId;
use crate::parametric::max_cycle_ratio_parametric;
use crate::ratio_graph::RatioGraph;
use crate::scc::{tarjan, SccDecomposition, SccGroups};
use crate::Verdict;
use parx::{CancelToken, Cancelled};

/// Cached analysis state that tracks a [`Tmg`] across edits.
///
/// See the [module docs](self) for the invalidation model. The
/// [`Default`] state is the analysis of the empty graph; a
/// [`rebuild`](Self::rebuild) from it is a first solve traced as a
/// structural edit.
///
/// # Examples
///
/// ```
/// use tmg::{analyze, IncrementalAnalysis, TmgBuilder};
/// let mut b = TmgBuilder::new();
/// let a = b.add_transition("a", 3);
/// let c = b.add_transition("c", 2);
/// b.add_place(a, c, 1);
/// b.add_place(c, a, 0);
/// let mut g = b.build()?;
///
/// let mut inc = IncrementalAnalysis::new(&g);
/// assert_eq!(inc.verdict(), &analyze(&g));
///
/// // Speed up transition `a` and reprice: same verdict as re-analyzing.
/// g.set_transition_delay(a, 1);
/// inc.reprice(&g, &[a], None)?;
/// assert_eq!(inc.verdict(), &analyze(&g));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IncrementalAnalysis {
    rg: RatioGraph,
    scc: SccDecomposition,
    /// Flat (CSR) member grouping of the cached decomposition.
    components: SccGroups,
    /// Cached per-component Howard outcomes, indexed like `components`.
    results: Vec<HowardOutcome>,
    /// Components whose cached result is stale (set on edit, cleared only
    /// after a successful re-solve — the cancellation-resume invariant).
    dirty: Vec<bool>,
    scratch: HowardScratch,
    /// The carried policy: per transition, the head of its edge in the
    /// last converged solve of its component (`NO_HEAD` before any).
    heads: Vec<u32>,
    verdict: Verdict,
}

impl Default for IncrementalAnalysis {
    fn default() -> Self {
        IncrementalAnalysis {
            rg: RatioGraph::default(),
            scc: SccDecomposition::default(),
            components: SccGroups::default(),
            results: Vec::new(),
            dirty: Vec::new(),
            scratch: HowardScratch::new(),
            heads: Vec::new(),
            verdict: Verdict::Acyclic,
        }
    }
}

impl IncrementalAnalysis {
    /// Analyzes `graph` from scratch and caches every intermediate result.
    ///
    /// The initial [`verdict`](Self::verdict) is bit-identical to
    /// [`analyze`](crate::analyze).
    #[must_use]
    pub fn new(graph: &Tmg) -> Self {
        Self::new_with_cancel(graph, None).expect("no cancel token, cannot be cancelled")
    }

    /// [`new`](Self::new), but cooperatively cancellable: the per-SCC
    /// Howard solves poll `cancel` between policy-improvement rounds.
    /// Traced as one `analysis` span with a `howard` child per solve.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before the analysis finished.
    pub fn new_with_cancel(graph: &Tmg, cancel: Option<&CancelToken>) -> Result<Self, Cancelled> {
        let mut state = IncrementalAnalysis::default();
        state.reanalyze(graph, cancel)?;
        Ok(state)
    }

    /// Analyzes `graph` — any graph, the next one of a chain of analyses
    /// — reusing what [`rebuild`](Self::rebuild) reuses and starting every
    /// Howard solve from the carried heads. Traced like a first solve: one
    /// `analysis` span with a `howard` child per solve.
    ///
    /// The verdict is bit-identical to [`analyze`](crate::analyze) of
    /// `graph`, whatever the state analyzed before.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the token fired before the analysis finished;
    /// the state is then left as a cancelled [`rebuild`](Self::rebuild)
    /// leaves it.
    pub fn reanalyze(
        &mut self,
        graph: &Tmg,
        cancel: Option<&CancelToken>,
    ) -> Result<&Verdict, Cancelled> {
        let _span = trace::span("analysis");
        self.resolve(graph, cancel)?;
        if !self.verdict.is_deadlock() {
            trace::attr("sccs", self.components.len());
        }
        Ok(&self.verdict)
    }

    /// The verdict for the last successfully analyzed graph state.
    #[must_use]
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// Consumes the state, keeping only its verdict.
    #[must_use]
    pub fn into_verdict(self) -> Verdict {
        self.verdict
    }

    /// Number of strongly connected components in the cached decomposition
    /// (zero while the graph is deadlocked, since no ratio analysis runs).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Re-analyzes after a **delay-only** edit: the delays of `touched`
    /// transitions changed (to their current values in `graph`), but
    /// structure and tokens did not.
    ///
    /// Updates the affected ratio-graph edges in place, re-solves only the
    /// components with a changed internal edge, and rebuilds the verdict.
    /// Returns the number of components re-solved.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `cancel` fired mid-solve. The state stays
    /// resumable: re-solved components keep their fresh results, pending
    /// ones stay dirty, and the next `reprice` (even with no new touched
    /// transitions) finishes the job.
    ///
    /// # Panics
    ///
    /// Panics if a touched transition is out of range for `graph`, or if
    /// `graph` structurally differs from the graph this state was built
    /// from (use [`rebuild`](Self::rebuild) for structural edits).
    pub fn reprice(
        &mut self,
        graph: &Tmg,
        touched: &[TransitionId],
        cancel: Option<&CancelToken>,
    ) -> Result<usize, Cancelled> {
        let _span = trace::span("reprice");
        assert_eq!(
            self.rg.edges.len(),
            graph.place_count(),
            "reprice requires an unchanged graph structure"
        );
        if self.verdict.is_deadlock() {
            // Deadlock depends on structure and tokens only; delay edits
            // cannot wake the system up, and no ratio state is cached.
            trace::attr("dirty", 0usize);
            return Ok(0);
        }
        // Edge index == place index (RatioGraph::from_tmg adds one edge per
        // place in id order), and each edge carries the delay of the
        // place's consumer: a touched transition perturbs exactly the
        // edges of its input places.
        for &t in touched {
            let delay = i64::try_from(graph.transition(t).delay()).expect("delay fits i64");
            for &p in graph.input_places(t) {
                let e = &mut self.rg.edges[p.index()];
                if e.delay != delay {
                    e.delay = delay;
                    // Only cycles see edge weights, and every cycle lies
                    // inside one SCC: cross-component edges can't affect
                    // any cached ratio.
                    let c_from = self.scc.component[e.from];
                    if c_from == self.scc.component[e.to] {
                        self.dirty[c_from] = true;
                    }
                }
            }
        }
        let mut resolved = 0usize;
        for i in 0..self.components.len() {
            if self.dirty[i] {
                self.results[i] = solve_component(
                    &mut self.scratch,
                    &mut self.heads,
                    &self.rg,
                    &self.scc,
                    &self.components,
                    i,
                    cancel,
                )?;
                self.dirty[i] = false;
                resolved += 1;
            }
        }
        trace::attr("dirty", resolved);
        let best = best_cycle(&self.rg, &self.results, cancel)?;
        self.verdict = cycle_verdict(graph, &self.rg, best);
        Ok(resolved)
    }

    /// Re-analyzes after a **structural** edit (e.g. a channel reorder):
    /// re-derives the deadlock witness, the ratio graph, and the SCC
    /// decomposition from `graph`, reusing cached Howard results for every
    /// component whose members and internal edges are unchanged. Returns
    /// the number of components solved.
    ///
    /// The new state is committed atomically: on cancellation the previous
    /// analysis is left untouched (only the carried heads may have
    /// advanced, see the [module docs](self)), and the caller must retry
    /// before trusting [`verdict`](Self::verdict) again.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when `cancel` fired before the rebuild finished.
    pub fn rebuild(
        &mut self,
        graph: &Tmg,
        cancel: Option<&CancelToken>,
    ) -> Result<usize, Cancelled> {
        let _span = trace::span("rebuild");
        let solved = self.resolve(graph, cancel)?;
        trace::attr("reused", self.components.len() - solved);
        Ok(solved)
    }

    /// The work of [`rebuild`](Self::rebuild), untraced:
    /// [`reanalyze`](Self::reanalyze) runs it too.
    fn resolve(&mut self, graph: &Tmg, cancel: Option<&CancelToken>) -> Result<usize, Cancelled> {
        if let Some(witness) = find_token_free_cycle(graph) {
            // No ratio state is kept for a deadlocked graph; the ratio
            // graph stays only so `reprice` can check the structure.
            *self = IncrementalAnalysis {
                rg: RatioGraph::from_tmg(graph),
                scratch: std::mem::take(&mut self.scratch),
                heads: std::mem::take(&mut self.heads),
                verdict: Verdict::Deadlock { witness },
                ..IncrementalAnalysis::default()
            };
            return Ok(0);
        }
        let rg = RatioGraph::from_tmg(graph);
        let scc = tarjan(&rg);
        let components = scc.groups();
        let mut results = Vec::with_capacity(components.len());
        let mut solved = 0usize;
        for i in 0..components.len() {
            let outcome = match self.reusable_component(&rg, &scc, components.group(i)) {
                Some(old) => self.results[old].clone(),
                None => {
                    solved += 1;
                    solve_component(
                        &mut self.scratch,
                        &mut self.heads,
                        &rg,
                        &scc,
                        &components,
                        i,
                        cancel,
                    )?
                }
            };
            results.push(outcome);
        }
        let best = best_cycle(&rg, &results, cancel)?;
        self.verdict = cycle_verdict(graph, &rg, best);
        self.dirty = vec![false; components.len()];
        self.rg = rg;
        self.scc = scc;
        self.components = components;
        self.results = results;
        Ok(solved)
    }

    /// Finds a cached component equal to `members` under the new graph:
    /// same member list and identical internal edges (index, endpoints,
    /// delay, tokens, place). Such a component feeds the deterministic
    /// per-component solver the exact same input, so its cached result —
    /// including the witness's edge indices — is what a fresh solve would
    /// return.
    fn reusable_component(
        &self,
        rg: &RatioGraph,
        scc: &SccDecomposition,
        members: &[u32],
    ) -> Option<usize> {
        let &first = members.first()?;
        let first = first as usize;
        let old = *self.scc.component.get(first)?;
        if self.dirty.get(old).copied().unwrap_or(true) {
            return None;
        }
        if old >= self.components.len() || self.components.group(old) != members {
            return None;
        }
        if self.rg.node_count != rg.node_count || self.rg.edges.len() != rg.edges.len() {
            return None;
        }
        let comp = scc.component[first];
        let old_comp = self.scc.component[first];
        for (idx, e) in rg.edges.iter().enumerate() {
            let internal = scc.component[e.from] == comp && scc.component[e.to] == comp;
            let was = {
                let o = &self.rg.edges[idx];
                self.scc.component[o.from] == old_comp && self.scc.component[o.to] == old_comp
            };
            if internal != was {
                return None;
            }
            if internal && *e != self.rg.edges[idx] {
                return None;
            }
        }
        Some(old)
    }
}

/// One traced Howard solve of component `i`, started from `heads`.
fn solve_component(
    scratch: &mut HowardScratch,
    heads: &mut Vec<u32>,
    rg: &RatioGraph,
    scc: &SccDecomposition,
    components: &SccGroups,
    i: usize,
    cancel: Option<&CancelToken>,
) -> Result<HowardOutcome, Cancelled> {
    let _span = trace::span("howard");
    trace::attr("scc", i);
    let members = components.group(i);
    trace::attr("nodes", members.len());
    howard_on_component(scratch, rg, scc, members, heads, cancel)
}

/// Reduces per-component outcomes to the graph's maximum-ratio cycle:
/// the first strictly greatest ratio in component order, or — when any
/// component hit Howard's round cap, so its ratio is unknown — the
/// parametric solver's answer over the whole graph. `None` means `rg`
/// has no cycle.
///
/// # Errors
///
/// [`Cancelled`] when `cancel` fired before the (uncancellable)
/// parametric fallback would start.
fn best_cycle(
    rg: &RatioGraph,
    outcomes: &[HowardOutcome],
    cancel: Option<&CancelToken>,
) -> Result<Option<CycleRatioResult>, Cancelled> {
    let mut best: Option<&CycleRatioResult> = None;
    for outcome in outcomes {
        match outcome {
            HowardOutcome::NoCycle => {}
            HowardOutcome::Converged(r) => {
                if best.is_none_or(|b| r.ratio > b.ratio) {
                    best = Some(r);
                }
            }
            HowardOutcome::Capped => {
                if let Some(token) = cancel {
                    token.check()?;
                }
                return Ok(max_cycle_ratio_parametric(rg));
            }
        }
    }
    Ok(best.cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TmgBuilder;
    use crate::{analyze, Ratio};

    fn ring(delays: &[u64], tokens: &[u64]) -> (Tmg, Vec<TransitionId>) {
        let mut b = TmgBuilder::new();
        let ts: Vec<_> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| b.add_transition(format!("t{i}"), d))
            .collect();
        for i in 0..ts.len() {
            b.add_place(ts[i], ts[(i + 1) % ts.len()], tokens[i]);
        }
        (b.build().expect("valid"), ts)
    }

    #[test]
    fn initial_verdict_matches_analyze() {
        let (g, _) = ring(&[3, 2, 5], &[1, 0, 1]);
        let inc = IncrementalAnalysis::new(&g);
        assert_eq!(inc.verdict(), &analyze(&g));
    }

    #[test]
    fn reprice_matches_fresh_analysis() {
        let (mut g, ts) = ring(&[3, 2, 5], &[1, 0, 1]);
        let mut inc = IncrementalAnalysis::new(&g);
        for (t, d) in [(0, 9u64), (1, 1), (2, 2), (0, 3), (2, 40)] {
            g.set_transition_delay(ts[t], d);
            inc.reprice(&g, &[ts[t]], None).expect("not cancelled");
            assert_eq!(inc.verdict(), &analyze(&g), "after t{t} -> {d}");
        }
    }

    #[test]
    fn untouched_components_are_not_resolved() {
        // Two disjoint rings -> two SCCs. Editing one must re-solve one.
        let mut b = TmgBuilder::new();
        let a0 = b.add_transition("a0", 3);
        let a1 = b.add_transition("a1", 2);
        b.add_place(a0, a1, 1);
        b.add_place(a1, a0, 0);
        let c0 = b.add_transition("c0", 7);
        let c1 = b.add_transition("c1", 1);
        b.add_place(c0, c1, 1);
        b.add_place(c1, c0, 1);
        let mut g = b.build().expect("valid");
        let mut inc = IncrementalAnalysis::new(&g);
        assert_eq!(inc.component_count(), 2);

        g.set_transition_delay(a0, 11);
        let solved = inc.reprice(&g, &[a0], None).expect("not cancelled");
        assert_eq!(solved, 1, "only the edited ring re-solves");
        assert_eq!(inc.verdict(), &analyze(&g));

        // A no-op edit (same delay) re-solves nothing.
        let solved = inc.reprice(&g, &[a0], None).expect("not cancelled");
        assert_eq!(solved, 0);
        assert_eq!(inc.verdict(), &analyze(&g));
    }

    #[test]
    fn rebuild_reuses_unchanged_components() {
        let mut b = TmgBuilder::new();
        let a0 = b.add_transition("a0", 3);
        let a1 = b.add_transition("a1", 2);
        b.add_place(a0, a1, 1);
        b.add_place(a1, a0, 0);
        let c0 = b.add_transition("c0", 7);
        let c1 = b.add_transition("c1", 1);
        b.add_place(c0, c1, 1);
        b.add_place(c1, c0, 1);
        let mut g = b.build().expect("valid");
        let mut inc = IncrementalAnalysis::new(&g);

        // Delay edit routed through rebuild (as a structural edit would
        // be): the untouched ring's cached result is reused.
        g.set_transition_delay(c0, 9);
        let solved = inc.rebuild(&g, None).expect("not cancelled");
        assert_eq!(solved, 1, "one component changed, one reused");
        assert_eq!(inc.verdict(), &analyze(&g));
    }

    #[test]
    fn deadlocked_graph_stays_deadlocked_under_reprice() {
        let mut b = TmgBuilder::new();
        let a = b.add_transition("a", 1);
        let c = b.add_transition("c", 1);
        b.add_place(a, c, 0);
        b.add_place(c, a, 0);
        let mut g = b.build().expect("valid");
        let mut inc = IncrementalAnalysis::new(&g);
        assert!(inc.verdict().is_deadlock());
        assert_eq!(inc.verdict(), &analyze(&g));
        g.set_transition_delay(a, 42);
        inc.reprice(&g, &[a], None).expect("not cancelled");
        assert!(inc.verdict().is_deadlock());
        assert_eq!(inc.verdict(), &analyze(&g));
    }

    #[test]
    fn cancelled_reprice_is_resumable() {
        use parx::{CancelReason, CancelToken};
        let (mut g, ts) = ring(&[3, 2, 5], &[1, 0, 1]);
        let mut inc = IncrementalAnalysis::new(&g);
        g.set_transition_delay(ts[0], 9);
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        let err = inc
            .reprice(&g, &[ts[0]], Some(&token))
            .expect_err("token fired");
        assert_eq!(err.reason, CancelReason::Deadline);
        // Retry with a live token: the dirty flag survived, the verdict
        // catches up with no touched transitions passed at all.
        let solved = inc.reprice(&g, &[], None).expect("not cancelled");
        assert_eq!(solved, 1);
        assert_eq!(inc.verdict(), &analyze(&g));
    }

    #[test]
    fn reprice_tracks_exact_ratios() {
        let (mut g, ts) = ring(&[4, 0], &[2, 0]);
        let mut inc = IncrementalAnalysis::new(&g);
        assert_eq!(inc.verdict().cycle_time(), Some(Ratio::new(2, 1)));
        g.set_transition_delay(ts[1], 3);
        inc.reprice(&g, &[ts[1]], None).expect("not cancelled");
        assert_eq!(inc.verdict().cycle_time(), Some(Ratio::new(7, 2)));
        assert_eq!(inc.verdict(), &analyze(&g));
    }

    #[test]
    fn a_capped_component_falls_back_to_the_parametric_maximum() {
        // Two disjoint rings: ratio 10/1 on {0, 1} and 3/1 on {2, 3}.
        let mut rg = RatioGraph::with_nodes(4);
        rg.add_edge(0, 1, 4, 1, None);
        rg.add_edge(1, 0, 6, 0, None);
        rg.add_edge(2, 3, 1, 1, None);
        rg.add_edge(3, 2, 2, 0, None);
        let scc = tarjan(&rg);
        let groups = scc.groups();
        let mut scratch = HowardScratch::new();
        let mut outcomes: Vec<HowardOutcome> = (0..groups.len())
            .map(|c| {
                howard_on_component(
                    &mut scratch,
                    &rg,
                    &scc,
                    groups.group(c),
                    &mut Vec::new(),
                    None,
                )
                .expect("not cancelled")
            })
            .collect();
        let parametric = max_cycle_ratio_parametric(&rg).expect("cyclic");
        assert_eq!(parametric.ratio, Ratio::new(10, 1));
        let converged = best_cycle(&rg, &outcomes, None).expect("not cancelled");
        assert_eq!(converged.map(|r| r.ratio), Some(Ratio::new(10, 1)));

        // The heavier ring hits the round cap while the lighter one
        // converges: the reduction must not settle for the lighter ratio.
        let heavy = outcomes
            .iter()
            .position(|o| matches!(o, HowardOutcome::Converged(r) if r.ratio == Ratio::new(10, 1)))
            .expect("heavy ring converged");
        outcomes[heavy] = HowardOutcome::Capped;
        let fallback = best_cycle(&rg, &outcomes, None).expect("not cancelled");
        assert_eq!(fallback, Some(parametric.clone()));
        outcomes.reverse();
        let fallback = best_cycle(&rg, &outcomes, None).expect("not cancelled");
        assert_eq!(fallback, Some(parametric));

        // A fired token stops the reduction before the fallback starts.
        let token = parx::CancelToken::new();
        token.cancel(parx::CancelReason::Deadline);
        assert!(best_cycle(&rg, &outcomes, Some(&token)).is_err());
    }

    /// Carried heads only change speed: whatever heads a state holds —
    /// arbitrary values, or the heads of another graph — every verdict of
    /// a chain of reprice, rebuild and reanalyze steps equals a fresh
    /// [`analyze`], ratio and witness edge for edge.
    mod warm_chains {
        use super::*;
        use crate::howard::NO_HEAD;
        use proptest::prelude::*;

        /// A graph as places over `delays.len()` transitions. `ring`
        /// shapes are a ring carrying one token on its first place plus
        /// chord places (the graphs of the crate's ring property suite);
        /// `tie` shapes are two loops with equal delay sums and one token
        /// each, bridged both ways by places of two tokens, so the one
        /// component has two tied critical cycles.
        #[derive(Debug, Clone)]
        struct Shape {
            delays: Vec<u64>,
            places: Vec<(usize, usize, u64)>,
        }

        impl Shape {
            fn build(&self) -> Tmg {
                let mut b = TmgBuilder::new();
                let ts: Vec<_> = self
                    .delays
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| b.add_transition(format!("t{i}"), d))
                    .collect();
                for &(from, to, tokens) in &self.places {
                    b.add_place(ts[from], ts[to], tokens);
                }
                b.build().expect("non-empty")
            }
        }

        fn arb_ring() -> impl Strategy<Value = Shape> {
            (
                2usize..8,
                proptest::collection::vec(0u64..6, 8usize),
                proptest::collection::vec((0usize..8, 0usize..8, 0u64..3), 0..10),
            )
                .prop_map(|(n, delays, chords)| Shape {
                    delays: delays[..n].iter().map(|d| d + 1).collect(),
                    places: (0..n)
                        .map(|i| (i, (i + 1) % n, u64::from(i == 0)))
                        .chain(chords.into_iter().map(|(a, c, t)| (a % n, c % n, t)))
                        .collect(),
                })
        }

        fn arb_tie() -> impl Strategy<Value = Shape> {
            (
                proptest::collection::vec(0u64..6, 1..5),
                0usize..4,
                (0usize..8, 0usize..8),
            )
                .prop_map(|(loop_delays, rotate, (out_at, back_at))| {
                    let n = loop_delays.len();
                    // The second loop runs the first one's delays rotated:
                    // the same delay sum, hence the same ratio.
                    let mut delays: Vec<u64> = loop_delays.iter().map(|d| d + 1).collect();
                    let mut second = delays.clone();
                    second.rotate_left(rotate % n);
                    delays.extend(second);
                    let mut places = Vec::new();
                    for base in [0, n] {
                        for i in 0..n {
                            places.push((base + i, base + (i + 1) % n, u64::from(i == 0)));
                        }
                    }
                    places.push((out_at % n, n + back_at % n, 2));
                    places.push((n + out_at % n, back_at % n, 2));
                    Shape { delays, places }
                })
        }

        /// One step of a chain: a delay edit (reprice), a token edit
        /// (rebuild, or reanalyze when `via_reanalyze`), or heads replaced
        /// by arbitrary values.
        #[derive(Debug, Clone)]
        enum Step {
            Reprice {
                at: usize,
                delay: u64,
            },
            Restructure {
                at: usize,
                tokens: u64,
                via_reanalyze: bool,
            },
            Heads(Vec<u32>),
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            (
                0u8..3,
                0usize..32,
                0u64..9,
                proptest::collection::vec(0u32..20, 0..24),
            )
                .prop_map(|(kind, at, value, heads)| match kind {
                    0 => Step::Reprice { at, delay: value },
                    1 => Step::Restructure {
                        at,
                        tokens: value % 3,
                        via_reanalyze: value % 2 == 0,
                    },
                    _ => Step::Heads(
                        heads
                            .into_iter()
                            .map(|h| if h == 19 { NO_HEAD } else { h })
                            .collect(),
                    ),
                })
        }

        /// Runs one chain on `shape`, starting from `heads`; returns the
        /// re-seeds it took, or the first mismatch against [`analyze`].
        fn run_chain(
            mut shape: Shape,
            heads: Vec<u32>,
            steps: &[Step],
        ) -> Result<u64, TestCaseError> {
            let mut g = shape.build();
            let mut inc = IncrementalAnalysis {
                heads,
                ..IncrementalAnalysis::default()
            };
            inc.rebuild(&g, None).expect("not cancelled");
            prop_assert_eq!(inc.verdict(), &analyze(&g), "first solve");
            for (i, step) in steps.iter().enumerate() {
                match step {
                    Step::Reprice { at, delay } => {
                        let t = TransitionId::from_index(at % shape.delays.len());
                        shape.delays[t.index()] = *delay;
                        g.set_transition_delay(t, *delay);
                        inc.reprice(&g, &[t], None).expect("not cancelled");
                    }
                    Step::Restructure {
                        at,
                        tokens,
                        via_reanalyze,
                    } => {
                        let at = at % shape.places.len();
                        shape.places[at].2 = *tokens;
                        g = shape.build();
                        if *via_reanalyze {
                            inc.reanalyze(&g, None).expect("not cancelled");
                        } else {
                            inc.rebuild(&g, None).expect("not cancelled");
                        }
                    }
                    Step::Heads(heads) => {
                        // Heads only reach a re-solve, so mark every
                        // component dirty and re-solve them all.
                        inc.heads = heads.clone();
                        inc.dirty.iter_mut().for_each(|d| *d = true);
                        inc.reprice(&g, &[], None).expect("not cancelled");
                    }
                }
                prop_assert_eq!(inc.verdict(), &analyze(&g), "after step {} ({:?})", i, step);
            }
            Ok(inc.scratch.reseeds)
        }

        /// The heads a chain ends with after solving `shape`.
        fn heads_of(shape: &Shape) -> Vec<u32> {
            let mut inc = IncrementalAnalysis::default();
            inc.rebuild(&shape.build(), None).expect("not cancelled");
            inc.heads
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn arbitrary_heads_never_change_a_ring_verdict(
                shape in arb_ring(),
                other in arb_ring(),
                heads in proptest::collection::vec(0u32..20, 0..24),
                foreign in any::<bool>(),
                steps in proptest::collection::vec(arb_step(), 1..8),
            ) {
                let heads = if foreign { heads_of(&other) } else { heads };
                run_chain(shape, heads, &steps)?;
            }
        }

        /// Tied critical cycles under arbitrary heads: the verdicts hold,
        /// and the tie path — a re-solve from the seed — actually runs.
        #[test]
        fn tied_cycles_reseed_and_keep_every_verdict() {
            let mut reseeds = 0u64;
            proptest::run_cases(
                &ProptestConfig::with_cases(128),
                "tied_cycles_reseed_and_keep_every_verdict",
                |rng| {
                    let shape = arb_tie().generate(rng);
                    let other = arb_ring().generate(rng);
                    let heads = proptest::collection::vec(0u32..20, 0..24).generate(rng);
                    let heads = if rng.next_u64() % 2 == 0 {
                        heads_of(&other)
                    } else {
                        heads
                    };
                    let steps = proptest::collection::vec(arb_step(), 1..8).generate(rng);
                    reseeds += run_chain(shape, heads, &steps)?;
                    Ok(())
                },
            );
            assert!(reseeds > 0, "no solve took the re-seed path");
        }
    }
}
