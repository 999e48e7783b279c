//! Linear and mixed-integer programming for the E-BLOW workspace.
//!
//! The E-BLOW paper solves its ILP formulations (3), (4) and (7) and their LP
//! relaxations with GUROBI. No production-grade ILP solver is available as a
//! pure-Rust offline dependency, so this crate provides the substrate from
//! scratch:
//!
//! * [`LpProblem`] — a model builder (variables with bounds, linear
//!   constraints, min/max objective).
//! * [`Simplex`] — a dense two-phase primal simplex with **bounded
//!   variables** (nonbasic variables may rest at either bound; the ratio
//!   test includes bound flips), Dantzig pricing with a Bland's-rule
//!   fallback to escape degenerate cycling.
//! * [`BranchBound`] — a depth-first branch-and-bound MILP solver with LP
//!   bounding, most-fractional branching and time/node limits, used where
//!   the paper uses GUROBI on small exact models: the "ILP" column of
//!   Table 5, including its "NA after the time limit" protocol.
//!
//! The implementation favours robustness over speed: the tableau is dense,
//! which is appropriate for the few-hundred-variable models E-BLOW actually
//! sends to the exact solver. The large successive-rounding LPs never reach
//! this crate; they are handled by the structure-exploiting oracle in
//! `eblow-core` (`CombinatorialOracle`; README, *LP oracle backends*).
//!
//! # Example
//!
//! ```
//! use eblow_lp::{LpProblem, Relation, LpStatus};
//!
//! // max 3x + 2y  s.t.  x + y ≤ 4,  x ≤ 2,  0 ≤ x,y
//! let mut lp = LpProblem::maximize();
//! let x = lp.add_var(0.0, f64::INFINITY, 3.0);
//! let y = lp.add_var(0.0, f64::INFINITY, 2.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(&[(x, 1.0)], Relation::Le, 2.0);
//! let sol = lp.solve().unwrap();
//! assert_eq!(sol.status, LpStatus::Optimal);
//! assert!((sol.objective - 10.0).abs() < 1e-6); // x=2, y=2
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod milp;
mod problem;
mod simplex;

pub use milp::{BranchBound, MilpConfig, MilpSolution, MilpStatus};
pub use problem::{LpProblem, LpSolution, LpStatus, Relation, RowId, Sense, VarId};
pub use simplex::{Simplex, SimplexConfig};
