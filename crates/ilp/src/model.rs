//! Problem-builder API for general 0/1 integer linear programs.
//!
//! The paper hands its IP-selection steps (area recovery and timing
//! optimization, Section 5) to GLPK as 0/1 ILPs. Here that general form
//! is the input of the [`crate::seed`] oracle: the tests restate each
//! selection problem with this builder — binary variables, a linear
//! objective (maximized) and linear constraints — and check the knapsack
//! engine against the oracle's answer.

use std::fmt;

/// Identifier of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The dense index of the variable.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `Σ a_j x_j <= b`
    Le,
    /// `Σ a_j x_j >= b`
    Ge,
    /// `Σ a_j x_j == b`
    Eq,
}

/// A linear constraint over the problem's variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub(crate) name: String,
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) sense: Sense,
    pub(crate) rhs: f64,
}

impl Constraint {
    /// The constraint's name (diagnostics only).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The left-hand-side terms as `(variable, coefficient)` pairs.
    #[must_use]
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// The constraint sense.
    #[must_use]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// The right-hand side.
    #[must_use]
    pub fn rhs(&self) -> f64 {
        self.rhs
    }
}

/// A 0/1 maximization problem.
///
/// # Examples
///
/// A two-item knapsack:
///
/// ```
/// use ilp::{Problem, Sense};
/// let mut p = Problem::new();
/// let a = p.add_binary("a");
/// let b = p.add_binary("b");
/// p.set_objective_coeff(a, 3.0);
/// p.set_objective_coeff(b, 4.0);
/// p.add_constraint("capacity", vec![(a, 2.0), (b, 3.0)], Sense::Le, 3.0);
/// let solution = ilp::seed::solve(&p)?;
/// assert_eq!(solution.objective, 4.0); // take b only
/// assert!(!solution.is_one(a) && solution.is_one(b));
/// # Ok::<(), ilp::SolveError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) var_names: Vec<String>,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// Creates an empty maximization problem.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a binary (0/1) decision variable with objective coefficient 0.
    pub fn add_binary(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId(self.var_names.len());
        self.var_names.push(name.into());
        self.objective.push(0.0);
        id
    }

    /// Sets the objective coefficient of `var` (the objective is
    /// maximized).
    ///
    /// # Panics
    ///
    /// Panics if `var` was not created by this problem.
    pub fn set_objective_coeff(&mut self, var: VarId, coeff: f64) {
        self.objective[var.0] = coeff;
    }

    /// Adds a linear constraint.
    ///
    /// # Panics
    ///
    /// Panics if any referenced variable was not created by this problem.
    pub fn add_constraint(
        &mut self,
        name: impl Into<String>,
        terms: Vec<(VarId, f64)>,
        sense: Sense,
        rhs: f64,
    ) {
        for &(v, _) in &terms {
            assert!(v.0 < self.var_names.len(), "unknown variable {v}");
        }
        self.constraints.push(Constraint {
            name: name.into(),
            terms,
            sense,
            rhs,
        });
    }

    /// Number of variables.
    #[must_use]
    pub fn variable_count(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    #[must_use]
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// The constraints, in insertion order.
    #[must_use]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The objective coefficients, indexed by [`VarId::index`].
    #[must_use]
    pub fn objective_coeffs(&self) -> &[f64] {
        &self.objective
    }
}

/// A feasible assignment returned by [`crate::seed::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Objective value achieved.
    pub objective: f64,
    /// Variable values, indexed by [`VarId::index`]; integral solutions
    /// hold exact `0.0`/`1.0`.
    pub values: Vec<f64>,
}

impl Solution {
    /// True if `var` is set (value 1) in this solution.
    #[must_use]
    pub fn is_one(&self, var: VarId) -> bool {
        self.values[var.0] > 0.5
    }

    /// The variables set to 1, in index order.
    #[must_use]
    pub fn ones(&self) -> Vec<VarId> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0.5)
            .map(|(i, _)| VarId(i))
            .collect()
    }
}

/// Errors returned by the [`crate::seed`] solver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The LP relaxation is unbounded (cannot happen for pure 0/1
    /// problems with finite coefficients, but the simplex reports it for
    /// general LPs).
    Unbounded,
    /// The simplex exceeded its iteration budget (numerical trouble).
    IterationLimit,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "relaxation is unbounded"),
            SolveError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_sizes() {
        let mut p = Problem::new();
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective_coeff(a, 1.0);
        p.add_constraint("c", vec![(a, 1.0), (b, 1.0)], Sense::Le, 1.0);
        assert_eq!(p.variable_count(), 2);
        assert_eq!(p.constraint_count(), 1);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn foreign_variable_in_constraint_panics() {
        let mut p = Problem::new();
        let _a = p.add_binary("a");
        p.add_constraint("bad", vec![(VarId(5), 1.0)], Sense::Le, 1.0);
    }

    #[test]
    fn solution_helpers() {
        let s = Solution {
            objective: 2.0,
            values: vec![1.0, 0.0, 1.0],
        };
        assert!(s.is_one(VarId(0)));
        assert!(!s.is_one(VarId(1)));
        assert_eq!(s.ones(), vec![VarId(0), VarId(2)]);
    }

    #[test]
    fn errors_are_well_behaved() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<SolveError>();
    }
}
