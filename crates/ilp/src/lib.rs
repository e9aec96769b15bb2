//! From-scratch exact selection for the ERMES exploration loop.
//!
//! The DAC'14 ERMES methodology formulates its IP-selection steps — *area
//! recovery* and *timing optimization* over the processes of the critical
//! cycle (Section 5) — as knapsack variants, solved in the original work
//! with GLPK. Each is a multiple-choice knapsack: every process adopts
//! exactly one Pareto point, the picks share one latency budget, and the
//! configurations already visited are excluded. This crate provides:
//!
//! - [`solve_multiple_choice_knapsack`]: the production engine, a
//!   depth-first branch & bound under the MCKP LP bound with a written
//!   tie rule (see its module docs);
//! - [`seed`] and the [`Problem`] builder: the original general 0/1 ILP
//!   solver (two-phase simplex under depth-first branch & bound), kept
//!   frozen as the oracle the engine is tested against;
//! - [`stats`]: process-wide solver counters for ermesd `/metrics` and
//!   the CLI trace summary.
//!
//! # Examples
//!
//! A one-implementation-per-process selection under a latency budget,
//! solved by the engine and cross-checked against the oracle:
//!
//! ```
//! use ilp::{solve_multiple_choice_knapsack, McItem, Problem, Sense};
//!
//! // Process A: fast-but-big (no area recovered) or slow-but-small
//! // (0.7 recovered for 4 cycles of slack); 5 cycles are available.
//! let groups = vec![vec![
//!     McItem { value: 0.0, weight: 0 },
//!     McItem { value: 0.7, weight: 4 },
//! ]];
//! let best = solve_multiple_choice_knapsack(&groups, Some(5), &[]).expect("feasible");
//! assert_eq!(best.choices, vec![1]);
//!
//! // The same problem as a general 0/1 ILP for the oracle.
//! let mut p = Problem::new();
//! let a_fast = p.add_binary("a_fast");
//! let a_small = p.add_binary("a_small");
//! p.set_objective_coeff(a_small, 0.7);
//! p.add_constraint("one_a", vec![(a_fast, 1.0), (a_small, 1.0)], Sense::Eq, 1.0);
//! p.add_constraint("slack", vec![(a_small, 4.0)], Sense::Le, 5.0);
//! let oracle = ilp::seed::solve(&p)?;
//! assert!(oracle.is_one(a_small));
//! assert_eq!(oracle.objective, best.value);
//! # Ok::<(), ilp::SolveError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod knapsack;
mod model;
pub mod seed;
mod stats;

pub use knapsack::{solve_multiple_choice_knapsack, McItem, McSelection};
pub use model::{Constraint, Problem, Sense, Solution, SolveError, VarId};
pub use stats::{stats, IlpStats};
