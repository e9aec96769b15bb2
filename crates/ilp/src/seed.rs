//! The original ("seed") solver, kept as the test oracle.
//!
//! This module preserves the first solver this crate shipped: a dense
//! two-phase primal simplex over a standard-form tableau (binary bounds
//! materialized as explicit `x <= 1` rows) driving a depth-first branch &
//! bound over general 0/1 problems built with [`Problem`]. Production
//! code never calls it: the differential tests pose each selection
//! problem both to [`crate::solve_multiple_choice_knapsack`] and, as the
//! equivalent [`Problem`], to [`solve`], and require the same objective
//! bits and the same selection, up to exact ties that the engine's
//! written tie-break resolves.
//!
//! The algorithms and tolerances here are intentionally frozen; do not
//! "improve" this module — it is the reference the engine is held to.

use crate::knapsack::{McItem, McSelection};
use crate::model::{Problem, Sense, Solution, SolveError, VarId};
use crate::stats;

const EPS: f64 = 1e-9;
const INT_TOL: f64 = 1e-6;

/// Result of solving the LP relaxation of a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value of the relaxation (an upper bound for the
    /// integer problem).
    pub objective: f64,
    /// Variable values in `[0, 1]`.
    pub values: Vec<f64>,
}

/// Extra `x <= 1` bound rows plus the user constraints, in tableau form.
struct Standardized {
    /// Row-major coefficients of structural variables.
    rows: Vec<Vec<f64>>,
    senses: Vec<Sense>,
    rhs: Vec<f64>,
}

fn standardize(problem: &Problem, fixed: &[Option<bool>]) -> Standardized {
    let n = problem.variable_count();
    let mut rows = Vec::new();
    let mut senses = Vec::new();
    let mut rhs = Vec::new();
    for c in &problem.constraints {
        let mut row = vec![0.0; n];
        let mut b = c.rhs;
        for &(v, a) in &c.terms {
            match fixed[v.0] {
                Some(true) => b -= a,
                Some(false) => {}
                None => row[v.0] += a,
            }
        }
        rows.push(row);
        senses.push(c.sense);
        rhs.push(b);
    }
    // Upper bounds x_j <= 1 for free variables.
    for j in 0..n {
        if fixed[j].is_none() {
            let mut row = vec![0.0; n];
            row[j] = 1.0;
            rows.push(row);
            senses.push(Sense::Le);
            rhs.push(1.0);
        }
    }
    Standardized { rows, senses, rhs }
}

/// Solves the LP relaxation of `problem` with some variables fixed to
/// 0/1 (`fixed[j] = Some(value)`), as used by branch & bound.
///
/// # Errors
///
/// [`SolveError::Infeasible`], [`SolveError::Unbounded`] or
/// [`SolveError::IterationLimit`].
fn solve_relaxation_fixed(
    problem: &Problem,
    fixed: &[Option<bool>],
) -> Result<LpSolution, SolveError> {
    let n = problem.variable_count();
    let std_form = standardize(problem, fixed);
    let m = std_form.rows.len();

    // Column layout: [structural n] [slack/surplus per row] [artificial per
    // row where needed]. We allocate slack and artificial lazily below.
    let mut slack_col = vec![usize::MAX; m];
    let mut art_col = vec![usize::MAX; m];
    let mut ncols = n;
    for i in 0..m {
        // Normalize to non-negative RHS first.
        // (handled below by flipping; here only count columns)
        let sense = effective_sense(std_form.senses[i], std_form.rhs[i]);
        match sense {
            Sense::Le => {
                slack_col[i] = ncols;
                ncols += 1;
            }
            Sense::Ge => {
                slack_col[i] = ncols;
                ncols += 1;
                art_col[i] = ncols;
                ncols += 1;
            }
            Sense::Eq => {
                art_col[i] = ncols;
                ncols += 1;
            }
        }
    }

    // Build tableau rows: coefficients with flipped sign when rhs < 0.
    let mut tab = vec![vec![0.0; ncols + 1]; m];
    let mut basis = vec![usize::MAX; m];
    for i in 0..m {
        let flip = std_form.rhs[i] < 0.0;
        let sgn = if flip { -1.0 } else { 1.0 };
        for (j, &coeff) in std_form.rows[i].iter().enumerate().take(n) {
            tab[i][j] = sgn * coeff;
        }
        tab[i][ncols] = sgn * std_form.rhs[i];
        let sense = effective_sense(std_form.senses[i], std_form.rhs[i]);
        match sense {
            Sense::Le => {
                tab[i][slack_col[i]] = 1.0;
                basis[i] = slack_col[i];
            }
            Sense::Ge => {
                tab[i][slack_col[i]] = -1.0;
                tab[i][art_col[i]] = 1.0;
                basis[i] = art_col[i];
            }
            Sense::Eq => {
                tab[i][art_col[i]] = 1.0;
                basis[i] = art_col[i];
            }
        }
    }

    // Artificial columns may start in the basis but must never *enter*
    // it — in either phase (an artificial allowed to re-enter during
    // phase 1 can survive into phase 2 carrying a constraint violation).
    let is_artificial: Vec<bool> = (0..ncols).map(|j| art_col.contains(&j)).collect();

    // ---- Phase 1: maximize -(sum of artificials). ----------------------
    let has_artificials = art_col.iter().any(|&c| c != usize::MAX);
    if has_artificials {
        let mut cost = vec![0.0; ncols + 1];
        for &c in &art_col {
            if c != usize::MAX {
                cost[c] = -1.0;
            }
        }
        reprice(&mut cost, &tab, &basis);
        run_simplex(&mut tab, &mut cost, &mut basis, Some(&is_artificial))?;
        let obj = -cost[ncols];
        if obj < -1e-7 {
            return Err(SolveError::Infeasible);
        }
        // Pivot any artificial still sitting in the basis (at value 0)
        // out of it where possible; rows that stay artificial are
        // redundant.
        for i in 0..m {
            if basis[i] < ncols && is_artificial[basis[i]] {
                if let Some(j) = (0..ncols).find(|&j| !is_artificial[j] && tab[i][j].abs() > EPS) {
                    pivot(&mut tab, &mut cost, &mut basis, i, j);
                }
            }
        }
    }

    let banned = is_artificial;

    // ---- Phase 2: original objective. ----------------------------------
    let mut cost = vec![0.0; ncols + 1];
    for (j, fix) in fixed.iter().enumerate() {
        if fix.is_none() {
            cost[j] = problem.objective[j];
        }
    }
    reprice(&mut cost, &tab, &basis);
    run_simplex(&mut tab, &mut cost, &mut basis, Some(&banned))?;

    // Extract the solution.
    let mut values = vec![0.0; n];
    for i in 0..m {
        if basis[i] < n {
            values[basis[i]] = tab[i][ncols];
        }
    }
    let mut objective = 0.0;
    for j in 0..n {
        match fixed[j] {
            Some(true) => {
                values[j] = 1.0;
                objective += problem.objective[j];
            }
            Some(false) => values[j] = 0.0,
            None => objective += problem.objective[j] * values[j],
        }
    }
    Ok(LpSolution { objective, values })
}

/// Sense after the row is normalized to a non-negative RHS.
fn effective_sense(sense: Sense, rhs: f64) -> Sense {
    if rhs >= 0.0 {
        sense
    } else {
        match sense {
            Sense::Le => Sense::Ge,
            Sense::Ge => Sense::Le,
            Sense::Eq => Sense::Eq,
        }
    }
}

/// Rewrites `cost` as reduced costs w.r.t. the current basis: subtracts
/// `cost[basic] * row` for every basic column with non-zero cost.
fn reprice(cost: &mut [f64], tab: &[Vec<f64>], basis: &[usize]) {
    for (i, &b) in basis.iter().enumerate() {
        let cb = cost[b];
        if cb.abs() > 0.0 {
            let row = &tab[i];
            for (c, &t) in cost.iter_mut().zip(row.iter()) {
                *c -= cb * t;
            }
        }
    }
}

/// Performs one pivot on `(row, col)`.
fn pivot(tab: &mut [Vec<f64>], cost: &mut [f64], basis: &mut [usize], row: usize, col: usize) {
    let piv = tab[row][col];
    debug_assert!(piv.abs() > EPS, "pivot on a zero element");
    let inv = 1.0 / piv;
    for t in tab[row].iter_mut() {
        *t *= inv;
    }
    let pivot_row = tab[row].clone();
    for (i, r) in tab.iter_mut().enumerate() {
        if i != row {
            let factor = r[col];
            if factor.abs() > EPS {
                for (t, &p) in r.iter_mut().zip(pivot_row.iter()) {
                    *t -= factor * p;
                }
            }
        }
    }
    let factor = cost[col];
    if factor.abs() > EPS {
        for (c, &p) in cost.iter_mut().zip(pivot_row.iter()) {
            *c -= factor * p;
        }
    }
    basis[row] = col;
}

/// Runs primal simplex (maximization): Dantzig rule with a Bland fallback
/// once the iteration count grows, capped to guard against cycling.
fn run_simplex(
    tab: &mut [Vec<f64>],
    cost: &mut [f64],
    basis: &mut [usize],
    banned: Option<&[bool]>,
) -> Result<(), SolveError> {
    let m = tab.len();
    let ncols = cost.len() - 1;
    let bland_after = 20 * (m + ncols) + 200;
    let max_iters = 200 * (m + ncols) + 2_000;
    for iter in 0..max_iters {
        let use_bland = iter > bland_after;
        // Entering column: positive reduced cost (maximization).
        let mut entering = None;
        let mut best = 1e-7;
        for j in 0..ncols {
            if banned.is_some_and(|b| b[j]) {
                continue;
            }
            if cost[j] > best {
                entering = Some(j);
                if use_bland {
                    break;
                }
                best = cost[j];
            }
        }
        let Some(col) = entering else {
            return Ok(());
        };
        // Leaving row: minimum ratio.
        let mut leaving = None;
        let mut best_ratio = f64::INFINITY;
        for i in 0..m {
            let a = tab[i][col];
            if a > EPS {
                let ratio = tab[i][ncols] / a;
                if ratio < best_ratio - EPS
                    || (use_bland
                        && (ratio - best_ratio).abs() <= EPS
                        && leaving.is_some_and(|l: usize| basis[i] < basis[l]))
                {
                    best_ratio = ratio;
                    leaving = Some(i);
                }
            }
        }
        let Some(row) = leaving else {
            return Err(SolveError::Unbounded);
        };
        pivot(tab, cost, basis, row, col);
    }
    Err(SolveError::IterationLimit)
}

/// Solves the `[0, 1]` LP relaxation with the reference two-phase simplex.
///
/// # Errors
///
/// [`SolveError::Infeasible`], [`SolveError::Unbounded`] or
/// [`SolveError::IterationLimit`].
pub fn solve_relaxation(problem: &Problem) -> Result<LpSolution, SolveError> {
    solve_relaxation_fixed(problem, &vec![None; problem.variable_count()])
}

/// Solves the 0/1 problem exactly with the reference depth-first branch &
/// bound over the two-phase simplex.
///
/// # Errors
///
/// [`SolveError::Infeasible`] when no 0/1 assignment satisfies the
/// constraints; [`SolveError::Unbounded`]/[`SolveError::IterationLimit`]
/// propagate simplex failures.
pub fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    let _span = trace::span("ilp");
    let n = problem.variable_count();
    trace::attr("vars", n);
    stats::record_solve();
    let mut best: Option<Solution> = None;
    let mut stack: Vec<Vec<Option<bool>>> = vec![vec![None; n]];
    let mut explored = 0u64;

    while let Some(fixed) = stack.pop() {
        explored += 1;
        let lp = match solve_relaxation_fixed(problem, &fixed) {
            Ok(lp) => lp,
            Err(SolveError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        if let Some(ref incumbent) = best {
            if lp.objective <= incumbent.objective + 1e-9 {
                continue; // bound cannot improve the incumbent
            }
        }
        // Most fractional variable; ties resolve to the lowest index
        // because the comparison is strict.
        let mut branch_var = None;
        let mut most_fractional = INT_TOL;
        for (j, &v) in lp.values.iter().enumerate() {
            if fixed[j].is_none() {
                let frac = (v - v.round()).abs();
                if frac > most_fractional {
                    most_fractional = frac;
                    branch_var = Some(j);
                }
            }
        }
        match branch_var {
            None => {
                // Integral: candidate solution.
                let values: Vec<f64> = lp
                    .values
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| match fixed[j] {
                        Some(true) => 1.0,
                        Some(false) => 0.0,
                        None => v.round(),
                    })
                    .collect();
                let objective: f64 = values
                    .iter()
                    .zip(&problem.objective)
                    .map(|(&v, &c)| v * c)
                    .sum();
                if best.as_ref().is_none_or(|b| objective > b.objective) {
                    best = Some(Solution { objective, values });
                }
            }
            Some(j) => {
                // Explore the rounded-up branch first (often better).
                let mut down = fixed.clone();
                down[j] = Some(false);
                stack.push(down);
                let mut up = fixed;
                up[j] = Some(true);
                stack.push(up);
            }
        }
    }
    trace::attr("bb_nodes", explored);
    stats::record_nodes(explored);
    best.ok_or(SolveError::Infeasible)
}

/// A multiple-choice knapsack, as taken by
/// [`crate::solve_multiple_choice_knapsack`], restated as a 0/1 ILP: one
/// binary per item in group order, an exactly-one row per group, the
/// capacity row when there is one, and a no-good row `Σ x <= groups − 1`
/// per forbidden choice vector.
#[must_use]
pub fn multiple_choice_problem(
    groups: &[Vec<McItem>],
    capacity: Option<i64>,
    forbidden: &[Vec<usize>],
) -> Problem {
    let mut problem = Problem::new();
    let mut vars: Vec<Vec<VarId>> = Vec::with_capacity(groups.len());
    for (g, items) in groups.iter().enumerate() {
        let row: Vec<VarId> = items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                let v = problem.add_binary(format!("x{g}_{i}"));
                problem.set_objective_coeff(v, item.value);
                v
            })
            .collect();
        let ones = row.iter().map(|&v| (v, 1.0)).collect();
        problem.add_constraint(format!("one{g}"), ones, Sense::Eq, 1.0);
        vars.push(row);
    }
    if let Some(capacity) = capacity {
        let terms = groups
            .iter()
            .zip(&vars)
            .flat_map(|(items, row)| items.iter().zip(row))
            .map(|(item, &v)| (v, item.weight as f64))
            .collect();
        problem.add_constraint("capacity", terms, Sense::Le, capacity as f64);
    }
    for f in forbidden.iter().filter(|f| f.len() == groups.len()) {
        let terms: Option<Vec<(VarId, f64)>> = f
            .iter()
            .zip(&vars)
            .map(|(&c, row)| row.get(c).map(|&v| (v, 1.0)))
            .collect();
        if let Some(terms) = terms.filter(|t| !t.is_empty()) {
            let bound = terms.len() as f64 - 1.0;
            problem.add_constraint("no_good", terms, Sense::Le, bound);
        }
    }
    problem
}

/// The oracle's answer to a multiple-choice knapsack:
/// [`multiple_choice_problem`] solved by [`solve`] and read back as one
/// item index per group. `Ok(None)` when infeasible.
///
/// # Errors
///
/// [`SolveError::Unbounded`]/[`SolveError::IterationLimit`] propagate
/// simplex failures.
pub fn solve_multiple_choice(
    groups: &[Vec<McItem>],
    capacity: Option<i64>,
    forbidden: &[Vec<usize>],
) -> Result<Option<McSelection>, SolveError> {
    let solution = match solve(&multiple_choice_problem(groups, capacity, forbidden)) {
        Ok(s) => s,
        Err(SolveError::Infeasible) => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut offset = 0;
    let choices = groups
        .iter()
        .map(|items| {
            let row = &solution.values[offset..offset + items.len()];
            offset += items.len();
            row.iter()
                .position(|&v| v > 0.5)
                .expect("exactly one item per group")
        })
        .collect();
    Ok(Some(McSelection {
        choices,
        value: solution.objective,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Problem;

    #[test]
    fn unconstrained_binaries_saturate() {
        let mut p = Problem::new();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective_coeff(a, 2.0);
        p.set_objective_coeff(b, -1.0);
        let lp = solve_relaxation(&p).expect("feasible");
        assert!((lp.objective - 2.0).abs() < 1e-6);
        assert!((lp.values[a.index()] - 1.0).abs() < 1e-6);
        assert!(lp.values[b.index()].abs() < 1e-6);
    }

    #[test]
    fn fixed_variables_are_honored() {
        let mut p = Problem::new();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective_coeff(a, 5.0);
        p.set_objective_coeff(b, 3.0);
        p.add_constraint("cap", vec![(a, 1.0), (b, 1.0)], Sense::Le, 1.0);
        let lp = solve_relaxation_fixed(&p, &[Some(false), None]).expect("feasible");
        assert!((lp.objective - 3.0).abs() < 1e-6);
        assert_eq!(lp.values[a.index()], 0.0);
    }

    /// Regression: proptest found an instance where an artificial
    /// variable re-entered the basis during phase 1 and survived into
    /// phase 2, silently dropping an equality constraint. Artificials are
    /// now banned from entering in both phases.
    #[test]
    fn artificials_must_not_reenter_phase_one() {
        let mut p = Problem::new();
        let x00 = p.add_binary("x00");
        let x10 = p.add_binary("x10");
        let x11 = p.add_binary("x11");
        let x20 = p.add_binary("x20");
        let x30 = p.add_binary("x30");
        p.set_objective_coeff(x00, -0.718_959_338_992_342_9);
        p.set_objective_coeff(x10, 6.006_242_102_509_493);
        p.add_constraint("g0", vec![(x00, 1.0)], Sense::Eq, 1.0);
        p.add_constraint("g1", vec![(x10, 1.0), (x11, 1.0)], Sense::Eq, 1.0);
        p.add_constraint("g2", vec![(x20, 1.0)], Sense::Eq, 1.0);
        p.add_constraint("g3", vec![(x30, 1.0)], Sense::Eq, 1.0);
        p.add_constraint(
            "cap",
            vec![(x00, 7.0), (x10, 6.0), (x11, 5.0), (x20, 2.0), (x30, 5.0)],
            Sense::Le,
            19.0,
        );
        let lp = solve_relaxation(&p).expect("feasible");
        assert!(
            lp.values[x00.index()] > 1.0 - 1e-6,
            "equality constraint dropped: x00 = {}",
            lp.values[x00.index()]
        );
        let s = solve(&p).expect("feasible");
        assert!((s.objective + 0.718_959_338_992_342_9).abs() < 1e-6);
    }

    #[test]
    fn seed_branch_and_bound_solves_knapsack() {
        let mut p = Problem::new();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective_coeff(a, 3.0);
        p.set_objective_coeff(b, 4.0);
        p.add_constraint("capacity", vec![(a, 2.0), (b, 3.0)], Sense::Le, 3.0);
        let s = solve(&p).expect("feasible");
        assert_eq!(s.objective, 4.0);
        assert!(!s.is_one(a) && s.is_one(b));
    }

    #[test]
    fn seed_detects_integer_infeasibility() {
        let mut p = Problem::new();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.add_constraint("half", vec![(a, 1.0), (b, 1.0)], Sense::Eq, 1.5);
        assert_eq!(solve(&p), Err(SolveError::Infeasible));
    }
}
