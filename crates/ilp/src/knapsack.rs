//! The exact selection engine: multiple-choice knapsack (MCKP) by
//! depth-first branch & bound under the MCKP LP bound.
//!
//! Both selection problems of the paper's Section 5 have one shape:
//! every process adopts exactly one of its Pareto points (a *group* of
//! items), the picks share one latency budget (the knapsack row), and
//! the configurations already visited are excluded (no-good cuts). This
//! module solves that shape and nothing more general; the search order,
//! the acceptance test and the tie-break are written down on
//! [`solve_multiple_choice_knapsack`].

use crate::stats;

/// Half-width of the near-tie band for ERMES-scale values (areas of order
/// one): the tolerance the selection problems have always used.
const TIE_TOL: f64 = 1e-9;

/// Near-tie branches one solve may take before near ties are pruned.
const NEAR_TIE_BRANCHES: u64 = 20;

/// An item of a multiple-choice knapsack group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McItem {
    /// Value when the item is chosen (may be negative).
    pub value: f64,
    /// Integer weight consumed (may be negative: choosing this item frees
    /// capacity).
    pub weight: i64,
}

/// The answer of [`solve_multiple_choice_knapsack`].
#[derive(Debug, Clone, PartialEq)]
pub struct McSelection {
    /// Chosen item index per group.
    pub choices: Vec<usize>,
    /// The chosen items' values summed in group order.
    pub value: f64,
}

/// Solves the multiple-choice knapsack exactly: choose one item per group
/// maximizing the total value, subject to a total weight `<= capacity`
/// (when given), and differing from every `forbidden` choice vector.
///
/// Returns `None` when no selection qualifies (an empty group, a
/// capacity no selection fits, or every fitting selection forbidden).
/// Every call counts one solve and its search nodes in [`crate::stats`]
/// and runs inside an `ilp` trace span.
///
/// # Search
///
/// - **Order.** Depth first over the groups: first those whose items
///   differ in weight (they interact through the capacity), then the
///   rest, each in index order. A node's children (the items of the next
///   group) are visited by decreasing bound, equal bounds by increasing
///   item index.
/// - **Bound.** The node's prefix sum plus the LP relaxation of the
///   remaining groups under the remaining capacity (Sinha & Zoltners):
///   each group starts at its lightest item and climbs its upper convex
///   hull, and the hull steps of all groups are taken steepest first,
///   the last one fractionally. Without a capacity the bound is the sum
///   of the groups' largest values. A child that cannot fit the capacity
///   even with the lightest items of the remaining groups is dropped.
/// - **Objective.** A selection's value is the `f64` sum of its items'
///   values folded in group order — bit for bit what [`crate::seed`]
///   computes for the same selection.
/// - **Acceptance and tie-break.** A leaf that is not forbidden replaces
///   the incumbent when its value is strictly greater, or equal and its
///   choice vector is lexicographically smaller. The answer is the
///   lexicographically smallest selection of maximum value; with Pareto
///   points listed fastest first, ties go to the faster implementation of
///   the lowest-indexed process.
/// - **Near ties.** A node is entered when its bound exceeds the
///   incumbent by more than a slop, and skipped when it falls short of
///   the incumbent by more than the slop. The slop is `1e-9` plus a
///   rounding allowance proportional to the group count and the largest
///   possible value magnitude, so a skipped node provably holds nothing
///   at least as good. A bound inside the band is a *near tie*: the node
///   may hold an equal-valued, or a by-rounding larger, selection. A
///   near-tie node that is its parent's best-bound child is entered
///   freely, so diving below a near tie costs nothing extra; any other
///   near-tie node is a *near-tie branch*. Each solve takes at most 20
///   near-tie branches and prunes near ties after that, which is the
///   classic `bound <= incumbent + tolerance` rule. The cap bounds inputs
///   with exponentially many equal-valued optima (identical groups whose
///   points lie on one line) to one dive per branch; below it the answer
///   is the exact `f64` maximum under the tie-break above.
///
/// # Examples
///
/// ```
/// use ilp::{solve_multiple_choice_knapsack, McItem};
/// let item = |value, weight| McItem { value, weight };
/// let groups = vec![
///     vec![item(9.0, 5), item(5.0, 3)],
///     vec![item(8.0, 5), item(4.0, 2)],
/// ];
/// let best = solve_multiple_choice_knapsack(&groups, Some(7), &[]).expect("feasible");
/// assert_eq!((best.choices, best.value), (vec![0, 1], 13.0)); // 9 + 4 at weight 7
/// // Excluding that selection yields the runner-up.
/// let next = solve_multiple_choice_knapsack(&groups, Some(7), &[vec![0, 1]]).expect("feasible");
/// assert_eq!((next.choices, next.value), (vec![1, 1], 9.0));
/// ```
#[must_use]
pub fn solve_multiple_choice_knapsack(
    groups: &[Vec<McItem>],
    capacity: Option<i64>,
    forbidden: &[Vec<usize>],
) -> Option<McSelection> {
    let _span = trace::span("ilp");
    trace::attr("vars", groups.iter().map(Vec::len).sum::<usize>());
    stats::record_solve();
    let mut search = Search::new(groups, capacity, forbidden);
    if groups.iter().all(|items| !items.is_empty()) {
        search.run();
    }
    trace::attr("bb_nodes", search.nodes);
    stats::record_nodes(search.nodes);
    search.best
}

/// One step of a group's upper convex hull.
struct Segment {
    /// Depth at which the step's group is branched on.
    depth: usize,
    weight: i128,
    value: f64,
    slope: f64,
}

/// A node on the depth-first stack: its prefix and its children, best
/// bound first.
struct Frame {
    value: f64,
    weight: i128,
    children: Vec<(f64, usize)>,
    next: usize,
}

struct Search<'a> {
    groups: &'a [Vec<McItem>],
    capacity: Option<i128>,
    forbidden: &'a [Vec<usize>],
    /// The group branched on at each depth.
    order: Vec<usize>,
    /// Per depth `k`: the weight of the lightest items of the groups
    /// branched on at depths `k..`.
    min_weight: Vec<i128>,
    /// Per depth `k`: the value of the groups at depths `k..` at the
    /// bound's starting point (the hulls' first points with a capacity,
    /// else the largest values).
    base_value: Vec<f64>,
    /// Hull steps of every group, steepest first.
    segments: Vec<Segment>,
    slop: f64,
    path: Vec<usize>,
    best: Option<McSelection>,
    near_ties_left: u64,
    nodes: u64,
}

impl<'a> Search<'a> {
    fn new(groups: &'a [Vec<McItem>], capacity: Option<i64>, forbidden: &'a [Vec<usize>]) -> Self {
        let n = groups.len();
        let capacity = capacity.map(i128::from);
        let coupled = |g: &usize| {
            let items = &groups[*g];
            capacity.is_some() && items.iter().any(|i| i.weight != items[0].weight)
        };
        let order: Vec<usize> = (0..n)
            .filter(coupled)
            .chain((0..n).filter(|g| !coupled(g)))
            .collect();
        let hulls: Vec<Vec<(i128, f64)>> = order.iter().map(|&g| upper_hull(&groups[g])).collect();
        let mut min_weight = vec![0i128; n + 1];
        let mut base_value = vec![0.0f64; n + 1];
        for (depth, hull) in hulls.iter().enumerate().rev() {
            let (Some(first), Some(last)) = (hull.first(), hull.last()) else {
                continue; // an empty group: the search never runs
            };
            min_weight[depth] = min_weight[depth + 1] + first.0;
            let start = if capacity.is_some() { first.1 } else { last.1 };
            base_value[depth] = base_value[depth + 1] + start;
        }
        let mut segments = Vec::new();
        if capacity.is_some() {
            for (depth, hull) in hulls.iter().enumerate() {
                segments.extend(hull.windows(2).map(|pair| Segment {
                    depth,
                    weight: pair[1].0 - pair[0].0,
                    value: pair[1].1 - pair[0].1,
                    slope: slope(pair[0], pair[1]),
                }));
            }
        }
        // Stable: equal slopes keep depth order, and each group's own
        // slopes strictly decrease, so its steps stay in hull order.
        segments.sort_by(|a, b| b.slope.total_cmp(&a.slope));
        let magnitude: f64 = groups
            .iter()
            .map(|items| items.iter().fold(0.0f64, |m, i| m.max(i.value.abs())))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let slop = TIE_TOL + (n + 2) as f64 * f64::EPSILON * magnitude;
        Search {
            groups,
            capacity,
            forbidden,
            order,
            min_weight,
            base_value,
            segments,
            slop,
            path: vec![0; n],
            best: None,
            near_ties_left: NEAR_TIE_BRANCHES,
            nodes: 0,
        }
    }

    /// Upper bound on any completion, by the groups at depths `depth..`,
    /// of a prefix with this value and weight; `None` when no completion
    /// fits.
    fn bound(&self, depth: usize, value: f64, weight: i128) -> Option<f64> {
        let Some(capacity) = self.capacity else {
            return Some(value + self.base_value[depth]);
        };
        let mut room = capacity - weight - self.min_weight[depth];
        if room < 0 {
            return None;
        }
        let mut rest = self.base_value[depth];
        for s in self.segments.iter().filter(|s| s.depth >= depth) {
            if s.weight <= room {
                rest += s.value;
                room -= s.weight;
            } else {
                #[allow(clippy::cast_precision_loss)]
                let part = room as f64 / s.weight as f64;
                rest += s.value * part;
                break;
            }
        }
        Some(value + rest)
    }

    /// The fitting items of the group at `depth` after a prefix, best
    /// bound first (a stable sort: equal bounds keep item order).
    fn frame(&self, depth: usize, value: f64, weight: i128) -> Frame {
        let mut children: Vec<(f64, usize)> = self.groups[self.order[depth]]
            .iter()
            .enumerate()
            .filter_map(|(i, item)| {
                let bound = self.bound(
                    depth + 1,
                    value + item.value,
                    weight + i128::from(item.weight),
                )?;
                Some((bound, i))
            })
            .collect();
        children.sort_by(|a, b| b.0.total_cmp(&a.0));
        Frame {
            value,
            weight,
            children,
            next: 0,
        }
    }

    /// Whether a node with this bound is entered (see
    /// [`solve_multiple_choice_knapsack`]); `first` marks its parent's
    /// best-bound child.
    fn admit(&mut self, bound: f64, first: bool) -> bool {
        let Some(best) = &self.best else {
            return true;
        };
        if bound > best.value + self.slop || (first && bound + self.slop >= best.value) {
            return true;
        }
        if bound + self.slop < best.value || self.near_ties_left == 0 {
            return false;
        }
        self.near_ties_left -= 1;
        true
    }

    /// Scores the completed path: its values folded in group order.
    fn leaf(&mut self) {
        if self.forbidden.contains(&self.path) {
            return;
        }
        let value = self
            .path
            .iter()
            .zip(self.groups)
            .fold(0.0, |acc, (&c, items)| acc + items[c].value);
        let better = self.best.as_ref().is_none_or(|best| {
            value > best.value || (value == best.value && self.path < best.choices)
        });
        if better {
            self.best = Some(McSelection {
                choices: self.path.clone(),
                value,
            });
        }
    }

    fn run(&mut self) {
        self.nodes = 1;
        if self.bound(0, 0.0, 0).is_none() {
            return;
        }
        let depth_limit = self.groups.len();
        if depth_limit == 0 {
            self.leaf();
            return;
        }
        let mut stack = vec![self.frame(0, 0.0, 0)];
        while !stack.is_empty() {
            let depth = stack.len() - 1;
            let top = &mut stack[depth];
            let Some(&(bound, i)) = top.children.get(top.next) else {
                stack.pop();
                continue;
            };
            let first = top.next == 0;
            top.next += 1;
            let group = self.order[depth];
            let item = self.groups[group][i];
            let (value, weight) = (top.value + item.value, top.weight + i128::from(item.weight));
            if !self.admit(bound, first) {
                // Siblings come in decreasing bound order: none of the
                // rest would be admitted either.
                stack.pop();
                continue;
            }
            self.nodes += 1;
            self.path[group] = i;
            if depth + 1 == depth_limit {
                self.leaf();
            } else {
                stack.push(self.frame(depth + 1, value, weight));
            }
        }
    }
}

/// Slope of the hull step from `a` to `b` (`b` strictly heavier).
fn slope(a: (i128, f64), b: (i128, f64)) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let run = (b.0 - a.0) as f64;
    (b.1 - a.1) / run
}

/// The upper convex hull of a group's `(weight, value)` points: from the
/// lightest (most valuable among equally light) item to the most valuable
/// one, keeping only points strictly above the chord of their neighbours.
fn upper_hull(items: &[McItem]) -> Vec<(i128, f64)> {
    let mut points: Vec<(i128, f64)> = items
        .iter()
        .map(|i| (i128::from(i.weight), i.value))
        .collect();
    points.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)));
    let mut hull: Vec<(i128, f64)> = Vec::with_capacity(points.len());
    for p in points {
        if hull.last().is_some_and(|last| p.1 <= last.1) {
            continue; // no lighter, no more valuable: dominated
        }
        while let [.., a, b] = hull[..] {
            if slope(a, b) <= slope(b, p) {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(p);
    }
    hull
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(value: f64, weight: i64) -> McItem {
        McItem { value, weight }
    }

    #[test]
    fn two_group_example() {
        let groups = vec![
            vec![item(9.0, 5), item(5.0, 3)],
            vec![item(8.0, 5), item(4.0, 2)],
        ];
        let s = solve_multiple_choice_knapsack(&groups, Some(7), &[]).expect("feasible");
        assert_eq!(s.value, 13.0);
        assert_eq!(s.choices, vec![0, 1]);
    }

    #[test]
    fn negative_weights_free_capacity() {
        // Picking the second item of group 0 frees capacity for group 1.
        let groups = vec![
            vec![item(1.0, 2), item(0.5, -3)],
            vec![item(10.0, 4), item(1.0, 0)],
        ];
        let s = solve_multiple_choice_knapsack(&groups, Some(1), &[]).expect("feasible");
        assert_eq!(s.choices, vec![1, 0]);
        assert_eq!(s.value, 10.5);
    }

    #[test]
    fn empty_group_is_infeasible() {
        let groups = vec![vec![item(1.0, 1)], vec![]];
        assert_eq!(solve_multiple_choice_knapsack(&groups, Some(5), &[]), None);
        assert_eq!(solve_multiple_choice_knapsack(&groups, None, &[]), None);
    }

    #[test]
    fn infeasible_capacity() {
        let groups = vec![vec![item(1.0, 5)], vec![item(1.0, 5)]];
        assert_eq!(solve_multiple_choice_knapsack(&groups, Some(3), &[]), None);
    }

    #[test]
    fn no_groups_is_the_empty_selection() {
        let empty = McSelection {
            choices: Vec::new(),
            value: 0.0,
        };
        assert_eq!(solve_multiple_choice_knapsack(&[], None, &[]), Some(empty));
        assert_eq!(solve_multiple_choice_knapsack(&[], Some(-1), &[]), None);
        assert_eq!(solve_multiple_choice_knapsack(&[], None, &[vec![]]), None);
    }

    #[test]
    fn ties_go_to_the_lexicographically_smallest_selection() {
        // Every selection of weight 2 is worth 2.0: (0,2), (1,1), (2,0).
        let line = vec![item(0.0, 0), item(1.0, 1), item(2.0, 2)];
        let groups = vec![line.clone(), line];
        let s = solve_multiple_choice_knapsack(&groups, Some(2), &[]).expect("feasible");
        assert_eq!(s.choices, vec![0, 2]);
        let s = solve_multiple_choice_knapsack(&groups, Some(2), &[vec![0, 2]]).expect("feasible");
        assert_eq!(s.choices, vec![1, 1]);
    }

    #[test]
    fn hull_drops_dominated_and_interior_points() {
        let hull = upper_hull(&[
            item(1.0, 0),
            item(0.5, 1), // dominated by the lighter, more valuable item
            item(3.5, 2),
            item(4.5, 4), // below the chord from (2, 3.5) to (5, 6)
            item(6.0, 5),
            item(6.0, 7), // dominated: heavier at equal value
            item(7.0, 9), // on the line through (5, 6) and (13, 8): dropped
            item(8.0, 13),
        ]);
        assert_eq!(hull, vec![(0, 1.0), (2, 3.5), (5, 6.0), (13, 8.0)]);
    }

    #[test]
    fn matches_oracle_on_random_family() {
        // Fine values make ties improbable, so the engine must return the
        // oracle's selection and objective bits exactly.
        let mut state = 0xdead_beef_1234_5678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..300 {
            let n_groups = (next() % 6 + 1) as usize;
            let groups: Vec<Vec<McItem>> = (0..n_groups)
                .map(|_| {
                    (0..(next() % 5 + 1))
                        .map(|_| McItem {
                            value: (next() % 20_011) as f64 / 997.0 - 5.0,
                            weight: (next() % 13) as i64 - 4,
                        })
                        .collect()
                })
                .collect();
            let capacity = (case % 3 != 0).then(|| (next() % 15) as i64 - 3);
            let mut forbidden = Vec::new();
            for _ in 0..case % 4 {
                let engine = solve_multiple_choice_knapsack(&groups, capacity, &forbidden);
                let oracle = crate::seed::solve_multiple_choice(&groups, capacity, &forbidden)
                    .expect("oracle solves");
                assert_eq!(engine, oracle, "case {case}: {groups:?} cap {capacity:?}");
                let Some(engine) = engine else { break };
                forbidden.push(engine.choices);
            }
        }
    }

    /// Identical groups whose points lie on one line, under a capacity
    /// the optimum uses exactly: every way to spend the capacity is worth
    /// the same up to rounding, so an unbounded exact search enumerates
    /// exponentially many near ties. The cap keeps the search small.
    #[test]
    fn identical_collinear_groups_stay_bounded() {
        for n in [16usize, 40] {
            let line: Vec<McItem> = (0..5)
                .map(|k| McItem {
                    value: 0.1 * k as f64,
                    weight: k,
                })
                .collect();
            let groups = vec![line; n];
            let capacity = 2 * n as i64;
            let mut search = Search::new(&groups, Some(capacity), &[]);
            search.run();
            let best = search.best.expect("feasible");
            let weight: i64 = best.choices.iter().map(|&c| groups[0][c].weight).sum();
            assert_eq!(weight, capacity, "n = {n}");
            assert!((best.value - 0.2 * n as f64).abs() < 1e-9, "n = {n}");
            // The root, one dive to the first optimum, and one dive per
            // near-tie branch.
            let bound = 1 + n as u64 * (1 + NEAR_TIE_BRANCHES);
            assert!(search.nodes <= bound, "n = {n}: {} nodes", search.nodes);
        }
    }
}
