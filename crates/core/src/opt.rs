//! IP-selection optimization: area recovery and timing optimization.
//!
//! Section 5 of the paper. Given the performance slack `sp = TCT − CT`:
//!
//! - **Area recovery** (`sp ≥ 0`): re-select implementations to maximize
//!   the cumulative area gain, subject to the cumulative latency increase
//!   of the processes on the critical cycle staying within the slack.
//! - **Timing optimization** (`sp < 0`): re-select implementations of the
//!   critical-cycle processes to maximize the cumulative latency gain.
//!
//! Both are multiple-choice knapsacks — each process adopts exactly one
//! Pareto point — with *no-good cuts* that "discard the configurations
//! already optimized" (the paper's termination device). Both exist in two
//! strategies: the exact knapsack engine
//! ([`ilp::solve_multiple_choice_knapsack`], where the paper uses GLPK)
//! and a greedy heuristic for the 10,000-process scalability benchmarks,
//! where an exact solve would dominate runtime.

use crate::design::Design;
use ilp::{solve_multiple_choice_knapsack, McItem};
use sysgraph::ProcessId;

/// A proposed re-selection of implementations.
#[derive(Debug, Clone, PartialEq)]
pub struct IpSelection {
    /// New implementation index per process.
    pub selection: Vec<usize>,
    /// Objective value (cumulative area gain or latency gain).
    pub objective: f64,
}

/// Solver strategy for the selection problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptStrategy {
    /// The exact multiple-choice knapsack engine.
    Exact,
    /// Greedy frontier walk (used for very large designs).
    Greedy,
    /// [`OptStrategy::Exact`] up to 400 decision variables, then
    /// [`OptStrategy::Greedy`].
    #[default]
    Auto,
}

const AUTO_EXACT_LIMIT: usize = 400;

fn resolve(strategy: OptStrategy, variables: usize) -> OptStrategy {
    match strategy {
        OptStrategy::Auto => {
            if variables <= AUTO_EXACT_LIMIT {
                OptStrategy::Exact
            } else {
                OptStrategy::Greedy
            }
        }
        s => s,
    }
}

/// A selection problem in the engine's terms: one group per modeled
/// process, in process order.
#[derive(Debug)]
struct Knapsack {
    /// The modeled processes.
    processes: Vec<usize>,
    /// Per group, its items.
    groups: Vec<Vec<McItem>>,
    /// Per group, the Pareto index each item stands for.
    points: Vec<Vec<usize>>,
    capacity: Option<i64>,
    /// The visited configurations this problem can express, as item
    /// indexes per group.
    forbidden: Vec<Vec<usize>>,
}

impl Knapsack {
    /// The engine's answer as a full selection: unmodeled processes keep
    /// their current implementation.
    fn solve(&self, design: &Design) -> Option<IpSelection> {
        let best = solve_multiple_choice_knapsack(&self.groups, self.capacity, &self.forbidden)?;
        let mut selection = design.selection().to_vec();
        for ((&p, points), &choice) in self.processes.iter().zip(&self.points).zip(&best.choices) {
            selection[p] = points[choice];
        }
        Some(IpSelection {
            selection,
            objective: best.value,
        })
    }
}

/// `latency − current` in cycles, saturated to the `i64` range.
fn latency_delta(latency: u64, current: u64) -> i64 {
    let delta = i128::from(latency) - i128::from(current);
    i64::try_from(delta).unwrap_or(if delta < 0 { i64::MIN } else { i64::MAX })
}

/// Area recovery: maximize total area gain while the critical-cycle
/// latency increase stays within `slack`. Returns `None` when no
/// configuration with a positive area gain exists (outside `forbidden`).
///
/// When `target_cycle_time` is given, implementations whose latency would
/// push the process's own loop (computation plus incident channel
/// latencies — a lower bound on any cycle through it) past the target are
/// excluded up front; this is the paper's "maintaining CT < TCT" side
/// condition on the knapsack.
#[must_use]
pub fn area_recovery(
    design: &Design,
    critical: &[ProcessId],
    slack: i64,
    forbidden: &[Vec<usize>],
    target_cycle_time: Option<u64>,
    strategy: OptStrategy,
) -> Option<IpSelection> {
    let variables: usize = design
        .system()
        .process_ids()
        .map(|p| design.pareto(p).len())
        .sum();
    let caps = latency_caps(design, target_cycle_time);
    match resolve(strategy, variables) {
        OptStrategy::Greedy => area_recovery_greedy(design, critical, slack, forbidden, &caps),
        _ => area_knapsack(design, critical, slack, forbidden, &caps)
            .solve(design)
            .filter(|s| s.objective > 1e-9),
    }
}

/// Per-process latency cap implied by the target cycle time: the cycle
/// time of the whole system is at least `latency(p) + Σ incident channel
/// latencies` for every process `p`, so implementations exceeding
/// `TCT − overhead(p)` can never be part of a target-meeting design.
fn latency_caps(design: &Design, target_cycle_time: Option<u64>) -> Vec<u64> {
    let sys = design.system();
    let mut overhead = vec![0u64; sys.process_count()];
    for c in sys.channel_ids() {
        let ch = sys.channel(c);
        overhead[ch.from().index()] += ch.latency();
        overhead[ch.to().index()] += ch.latency();
    }
    match target_cycle_time {
        None => vec![u64::MAX; sys.process_count()],
        Some(tct) => overhead.iter().map(|&o| tct.saturating_sub(o)).collect(),
    }
}

fn is_critical(design: &Design, critical: &[ProcessId]) -> Vec<bool> {
    let mut v = vec![false; design.system().process_count()];
    for &p in critical {
        v[p.index()] = true;
    }
    v
}

/// The area-recovery knapsack: every process is a group of the
/// implementations within its latency cap (plus the current one, so the
/// problem stays feasible), worth their area gain; the latency increase
/// of critical processes consumes the slack.
fn area_knapsack(
    design: &Design,
    critical: &[ProcessId],
    slack: i64,
    forbidden: &[Vec<usize>],
    caps: &[u64],
) -> Knapsack {
    let sys = design.system();
    let crit = is_critical(design, critical);
    let mut knapsack = Knapsack {
        processes: Vec::with_capacity(sys.process_count()),
        groups: Vec::with_capacity(sys.process_count()),
        points: Vec::with_capacity(sys.process_count()),
        capacity: (!critical.is_empty()).then_some(slack),
        forbidden: Vec::new(),
    };
    for p in sys.process_ids() {
        let current_latency = design.latency(p);
        let current_area = design.process_area(p);
        let (mut items, mut points) = (Vec::new(), Vec::new());
        for (i, m) in design.pareto(p).points().iter().enumerate() {
            if m.latency > caps[p.index()] && i != design.selected(p) {
                continue;
            }
            let weight = if crit[p.index()] {
                latency_delta(m.latency, current_latency)
            } else {
                0
            };
            items.push(McItem {
                value: current_area - m.area,
                weight,
            });
            points.push(i);
        }
        knapsack.processes.push(p.index());
        knapsack.groups.push(items);
        knapsack.points.push(points);
    }
    // A visited configuration that selects an excluded implementation
    // cannot be produced by this problem: it needs no cut.
    knapsack.forbidden = forbidden
        .iter()
        .filter_map(|f| {
            let expressed: Option<Vec<usize>> = f
                .iter()
                .zip(&knapsack.points)
                .map(|(s, points)| points.iter().position(|i| i == s))
                .collect();
            expressed.filter(|e| !e.is_empty())
        })
        .collect();
    knapsack
}

fn area_recovery_greedy(
    design: &Design,
    critical: &[ProcessId],
    slack: i64,
    forbidden: &[Vec<usize>],
    caps: &[u64],
) -> Option<IpSelection> {
    let sys = design.system();
    let crit = is_critical(design, critical);
    let mut selection: Vec<usize> = design.selection().to_vec();
    let mut budget = slack;
    let mut gain = 0.0;
    // Candidate moves: (gain per unit cost, process, new index).
    // Non-critical moves cost nothing: take the smallest implementation.
    for p in sys.process_ids() {
        let set = design.pareto(p);
        if !crit[p.index()] {
            // The smallest implementation that respects the latency cap.
            let best = set
                .points()
                .iter()
                .enumerate()
                .filter(|(_, m)| m.latency <= caps[p.index()])
                .max_by_key(|(i, _)| *i)
                .map(|(i, _)| i);
            if let Some(best) = best {
                if set.points()[best].area < design.process_area(p) - 1e-12 {
                    gain += design.process_area(p) - set.points()[best].area;
                    selection[p.index()] = best;
                }
            }
        }
    }
    // Critical moves: walk each frontier greedily by area-gain per cycle.
    loop {
        let mut best: Option<(f64, usize, usize, i64, f64)> = None; // (ratio, p, idx, cost, dgain)
        for p in sys.process_ids() {
            if !crit[p.index()] {
                continue;
            }
            let set = design.pareto(p);
            let cur_idx = selection[p.index()];
            let cur = &set.points()[cur_idx];
            for (i, m) in set.points().iter().enumerate().skip(cur_idx + 1) {
                let cost = m.latency as i64 - cur.latency as i64;
                let dgain = cur.area - m.area;
                if dgain <= 1e-12 || cost > budget || m.latency > caps[p.index()] {
                    continue;
                }
                let ratio = dgain / (cost.max(1) as f64);
                if best.as_ref().is_none_or(|b| ratio > b.0) {
                    best = Some((ratio, p.index(), i, cost, dgain));
                }
            }
        }
        let Some((_, pidx, i, cost, dgain)) = best else {
            break;
        };
        budget -= cost;
        gain += dgain;
        selection[pidx] = i;
    }
    if gain <= 1e-9 || forbidden.contains(&selection) || selection == design.selection() {
        return None;
    }
    Some(IpSelection {
        selection,
        objective: gain,
    })
}

/// Timing optimization: re-select implementations of the critical-cycle
/// processes to close a cycle-time `deficit` (CT − TCT), per the paper's
/// "minimize the difference CT − TCT". The primary formulation is the
/// dual the paper alludes to: **minimize the area increase subject to a
/// cumulative latency gain of at least `deficit`**; when the deficit is
/// unreachable it falls back to maximizing the latency gain outright.
/// Non-critical selections stay fixed. Returns `None` when no
/// configuration strictly reduces the critical latency.
#[must_use]
pub fn timing_optimization(
    design: &Design,
    critical: &[ProcessId],
    deficit: i64,
    forbidden: &[Vec<usize>],
    strategy: OptStrategy,
) -> Option<IpSelection> {
    let variables: usize = critical.iter().map(|&p| design.pareto(p).len()).sum();
    match resolve(strategy, variables) {
        OptStrategy::Greedy => timing_optimization_greedy(design, critical, deficit, forbidden),
        _ => timing_optimization_exact(design, critical, deficit, forbidden),
    }
}

fn timing_optimization_exact(
    design: &Design,
    critical: &[ProcessId],
    deficit: i64,
    forbidden: &[Vec<usize>],
) -> Option<IpSelection> {
    // Primary: minimize area increase subject to gain >= deficit.
    if deficit > 0 {
        let dual = timing_knapsack(design, critical, forbidden, Some(-deficit), |m, p| McItem {
            // Maximize area gain == minimize area increase.
            value: design.process_area(p) - m.area,
            weight: latency_delta(m.latency, design.latency(p)),
        });
        if let Some(sel) = dual.solve(design) {
            if sel.selection != design.selection() {
                return Some(sel);
            }
        }
    }
    // Fallback: the deficit is unreachable — buy all the speed there is.
    let max_gain = timing_knapsack(design, critical, forbidden, None, |m, p| McItem {
        value: design.latency(p) as f64 - m.latency as f64,
        weight: 0,
    });
    max_gain.solve(design).filter(|s| s.objective > 1e-9)
}

/// The timing knapsacks: one group per critical process (in process
/// order) over all of its implementations, priced by `item`. Non-critical
/// selections are fixed, so only the visited configurations that agree
/// with the current one outside the critical processes need a cut.
fn timing_knapsack(
    design: &Design,
    critical: &[ProcessId],
    forbidden: &[Vec<usize>],
    capacity: Option<i64>,
    item: impl Fn(&hlsim::MicroArch, ProcessId) -> McItem,
) -> Knapsack {
    let crit = is_critical(design, critical);
    let processes: Vec<usize> = (0..crit.len()).filter(|&i| crit[i]).collect();
    let groups = processes
        .iter()
        .map(|&i| {
            let p = ProcessId::from_index(i);
            design
                .pareto(p)
                .points()
                .iter()
                .map(|m| item(m, p))
                .collect()
        })
        .collect();
    let points = processes
        .iter()
        .map(|&i| (0..design.pareto(ProcessId::from_index(i)).len()).collect())
        .collect();
    let forbidden = forbidden
        .iter()
        .filter(|f| {
            f.iter()
                .enumerate()
                .all(|(i, &s)| crit[i] || s == design.selection()[i])
        })
        .filter_map(|f| processes.iter().map(|&i| f.get(i).copied()).collect())
        .filter(|f: &Vec<usize>| !f.is_empty())
        .collect();
    Knapsack {
        processes,
        groups,
        points,
        capacity,
        forbidden,
    }
}

fn timing_optimization_greedy(
    design: &Design,
    critical: &[ProcessId],
    deficit: i64,
    forbidden: &[Vec<usize>],
) -> Option<IpSelection> {
    let mut selection = design.selection().to_vec();
    let mut gain = 0.0f64;
    if deficit > 0 {
        // Buy speed cheapest-first (area per cycle gained) until the
        // deficit is covered.
        let mut remaining = deficit as f64;
        loop {
            if remaining <= 0.0 {
                break;
            }
            let mut best: Option<(f64, usize, usize, f64)> = None; // (cost ratio, p, idx, dgain)
            for &p in critical {
                let set = design.pareto(p);
                let cur_idx = selection[p.index()];
                let cur = &set.points()[cur_idx];
                for (i, m) in set.points().iter().enumerate().take(cur_idx) {
                    let dgain = cur.latency as f64 - m.latency as f64;
                    if dgain <= 0.0 {
                        continue;
                    }
                    let cost = (m.area - cur.area).max(0.0);
                    let ratio = cost / dgain;
                    if best.as_ref().is_none_or(|b| ratio < b.0) {
                        best = Some((ratio, p.index(), i, dgain));
                    }
                }
            }
            let Some((_, pidx, i, dgain)) = best else {
                break;
            };
            remaining -= dgain;
            gain += dgain;
            selection[pidx] = i;
        }
    } else {
        for &p in critical {
            let cur = design.latency(p);
            let fastest = design.pareto(p).fastest().latency;
            if fastest < cur {
                gain += (cur - fastest) as f64;
                selection[p.index()] = 0;
            }
        }
    }
    if gain <= 1e-9 || forbidden.contains(&selection) || selection == design.selection() {
        return None;
    }
    Some(IpSelection {
        selection,
        objective: gain,
    })
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

    /// Two processes in a pipeline, both on the critical cycle.
    fn design() -> Design {
        let mut sys = SystemGraph::new();
        let a = sys.add_process("a", 5);
        let b = sys.add_process("b", 8);
        sys.add_channel("x", a, b, 1).expect("valid");
        Design::new(
            sys,
            vec![
                pareto(&[(5, 3.0), (9, 2.0), (15, 1.0)]),
                pareto(&[(8, 4.0), (12, 2.5)]),
            ],
        )
        .expect("sizes match")
    }

    fn all_processes(d: &Design) -> Vec<ProcessId> {
        d.system().process_ids().collect()
    }

    #[test]
    fn area_recovery_respects_slack() {
        let d = design();
        // Slack 4: can afford a -> (9, 2.0) [cost 4] or b -> (12, 2.5)
        // [cost 4], not both. Best single move: b gains 1.5, a gains 1.0.
        let crit = all_processes(&d);
        let sel = area_recovery(&d, &crit, 4, &[], None, OptStrategy::Exact).expect("gain exists");
        assert!((sel.objective - 1.5).abs() < 1e-6, "got {}", sel.objective);
        assert_eq!(sel.selection, vec![0, 1]);
    }

    #[test]
    fn area_recovery_with_large_slack_takes_everything() {
        let d = design();
        let crit = all_processes(&d);
        let sel =
            area_recovery(&d, &crit, 100, &[], None, OptStrategy::Exact).expect("gain exists");
        assert_eq!(sel.selection, vec![2, 1]);
        assert!((sel.objective - 3.5).abs() < 1e-6);
    }

    #[test]
    fn area_recovery_none_when_no_gain() {
        let mut d = design();
        d.select_smallest();
        let crit = all_processes(&d);
        assert_eq!(
            area_recovery(&d, &crit, 100, &[], None, OptStrategy::Exact),
            None
        );
    }

    #[test]
    fn no_good_cut_excludes_best() {
        let d = design();
        let crit = all_processes(&d);
        let best = area_recovery(&d, &crit, 100, &[], None, OptStrategy::Exact).expect("gain");
        let second = area_recovery(
            &d,
            &crit,
            100,
            std::slice::from_ref(&best.selection),
            None,
            OptStrategy::Exact,
        )
        .expect("still gains");
        assert_ne!(second.selection, best.selection);
        assert!(second.objective < best.objective + 1e-9);
    }

    #[test]
    fn timing_optimization_picks_fastest_on_critical() {
        let mut d = design();
        d.select_smallest();
        let crit = all_processes(&d);
        let sel = timing_optimization(&d, &crit, 0, &[], OptStrategy::Exact).expect("gain exists");
        assert_eq!(sel.selection, vec![0, 0]);
        // Gains: (15-5) + (12-8) = 14.
        assert!((sel.objective - 14.0).abs() < 1e-6);
    }

    #[test]
    fn timing_optimization_only_touches_critical() {
        let mut d = design();
        d.select_smallest();
        let only_b = vec![ProcessId::from_index(1)];
        let sel =
            timing_optimization(&d, &only_b, 0, &[], OptStrategy::Exact).expect("gain exists");
        assert_eq!(sel.selection[0], 2, "non-critical process untouched");
        assert_eq!(sel.selection[1], 0);
    }

    #[test]
    fn timing_optimization_none_when_already_fastest() {
        let mut d = design();
        d.select_fastest();
        let crit = all_processes(&d);
        assert_eq!(
            timing_optimization(&d, &crit, 0, &[], OptStrategy::Exact),
            None
        );
    }

    #[test]
    fn greedy_matches_exact_on_simple_cases() {
        let d = design();
        let crit = all_processes(&d);
        for slack in [0i64, 4, 7, 100] {
            let exact = area_recovery(&d, &crit, slack, &[], None, OptStrategy::Exact);
            let greedy = area_recovery(&d, &crit, slack, &[], None, OptStrategy::Greedy);
            match (exact, greedy) {
                (None, None) => {}
                (Some(e), Some(g)) => {
                    assert!(g.objective <= e.objective + 1e-9, "greedy beat exact?");
                    assert!(g.objective > 0.0);
                }
                (e, g) => panic!("divergence at slack {slack}: exact {e:?} greedy {g:?}"),
            }
        }
    }

    #[test]
    fn auto_uses_exact_for_small_problems() {
        let d = design();
        let crit = all_processes(&d);
        let auto = area_recovery(&d, &crit, 4, &[], None, OptStrategy::Auto);
        let exact = area_recovery(&d, &crit, 4, &[], None, OptStrategy::Exact);
        assert_eq!(auto, exact);
    }

    /// The engine's answer to `k` must be the oracle's — the oracle
    /// solves the equivalent 0/1 ILP by simplex branch & bound — with the
    /// same objective bits and the same selection, except at an exact
    /// tie, where the engine's written tie-break picks the
    /// lexicographically smaller selection.
    fn assert_matches_oracle(k: &Knapsack) -> Option<ilp::McSelection> {
        let engine = solve_multiple_choice_knapsack(&k.groups, k.capacity, &k.forbidden);
        let oracle = ilp::seed::solve_multiple_choice(&k.groups, k.capacity, &k.forbidden)
            .expect("oracle solves");
        match (&engine, &oracle) {
            (None, None) => {}
            (Some(e), Some(o)) => {
                assert_eq!(e.value.to_bits(), o.value.to_bits(), "{k:?}");
                assert!(e.choices <= o.choices, "{k:?}: {e:?} vs {o:?}");
            }
            _ => panic!("feasibility differs on {k:?}: {engine:?} vs {oracle:?}"),
        }
        engine
    }

    /// Walks a no-good cut chain the way the exploration loop does —
    /// forbid each answer and solve again — checking every step against
    /// the oracle.
    fn check_chain(design: &Design, mut knapsack: impl FnMut(&[Vec<usize>]) -> Knapsack) {
        let mut visited = vec![design.selection().to_vec()];
        for _ in 0..8 {
            let k = knapsack(&visited);
            if assert_matches_oracle(&k).is_none() {
                return;
            }
            let Some(sel) = k.solve(design) else { return };
            visited.push(sel.selection);
        }
    }

    #[test]
    fn exact_seed_is_bit_identical_to_exact() {
        let crit = all_processes(&design());
        let caps = latency_caps(&design(), None);
        for start in 0..3 {
            let mut d = design();
            match start {
                0 => {}
                1 => d.select_smallest(),
                _ => d.select_fastest(),
            }
            for slack in [0i64, 4, 7, 100] {
                check_chain(&d, |visited| {
                    area_knapsack(&d, &crit, slack, visited, &caps)
                });
            }
            for deficit in [1i64, 3, 6, 40] {
                check_chain(&d, |visited| {
                    timing_knapsack(&d, &crit, visited, Some(-deficit), |m, p| McItem {
                        value: d.process_area(p) - m.area,
                        weight: latency_delta(m.latency, d.latency(p)),
                    })
                });
            }
            check_chain(&d, |visited| {
                timing_knapsack(&d, &crit, visited, None, |m, p| McItem {
                    value: d.latency(p) as f64 - m.latency as f64,
                    weight: 0,
                })
            });
        }
    }

    #[test]
    fn cut_chains_exhaust_the_configurations() {
        // Each answer is forbidden in turn: the chain visits distinct
        // selections, never improving, until area recovery proposes none.
        let d = design();
        let crit = all_processes(&d);
        let mut forbidden: Vec<Vec<usize>> = Vec::new();
        let mut last = f64::INFINITY;
        while let Some(sel) = area_recovery(&d, &crit, 100, &forbidden, None, OptStrategy::Exact) {
            assert!(!forbidden.contains(&sel.selection));
            assert!(sel.objective <= last);
            last = sel.objective;
            forbidden.push(sel.selection);
        }
        // Six configurations, five with a positive gain.
        assert_eq!(forbidden.len(), 5);
    }
}
