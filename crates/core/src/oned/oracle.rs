//! Pluggable LP oracle backends for the simplified 1D formulation (4).
//!
//! The successive-rounding loop (Algorithm 1) and fast ILP convergence
//! (Algorithm 2) only need *some* solver for the LP relaxation of
//! formulation (4); historically that solver was the structure-exploiting
//! combinatorial fixed point hard-wired in [`mkp_lp`](super::mkp_lp). The
//! [`LpOracle`] trait turns the oracle into an interchangeable backend, the
//! shape the LP-modeling ecosystem uses (a problem IR handed to pluggable
//! solvers), so the dense simplex in `eblow-lp` — and eventually external
//! solvers — can be raced and cross-checked against the combinatorial
//! solve.
//!
//! Two backends ship today:
//!
//! * [`CombinatorialOracle`] — the default: density-greedy multiple-knapsack
//!   fill inside a `B_j` fixed point (exact for formulation (5), the paper's
//!   Lemma 3-4 approximation of (4)). Microsecond-scale at MCC size.
//! * [`SimplexOracle`] — lowers formulation (4) *with `B_j` as a decision
//!   variable* onto [`eblow_lp::LpProblem`] and solves it with the dense
//!   two-phase simplex. Exact for (4), but the tableau is dense in
//!   `items × rows`, so it refuses instances above a cell cutoff with an
//!   explicit [`OracleError::TooLarge`].
//!
//! Successive rounding solves a *shrinking sequence* of LPs, so the trait
//! also exposes [`LpOracle::solve_lp_warm`]: an
//! [`LpHint`](super::LpHint)-carrying variant whose contract is "same
//! solution, cheaper solve". The combinatorial backend seeds its density
//! sort with the previous iteration's order (adaptive sorting makes the
//! nearly-sorted case ~linear); the simplex backend falls back to the cold
//! solve.
//!
//! ## Backend agreement
//!
//! On *blank-free* items the combinatorial and simplex backends solve the
//! identical fractional multiple knapsack, whose optimum is the aggregate
//! density-greedy fill — their objectives agree to floating-point tolerance
//! (property-tested in `tests/proptest_core.rs`). With heterogeneous blanks
//! the simplex solves the *true* (4), where `B_j ≥ s_i · a_ij` lets a
//! fractionally-assigned character pay only a fraction of its blank; the
//! combinatorial fixed point charges the full blank (the Lemma 3-4
//! approximation). The simplex objective therefore sits at or slightly
//! above the combinatorial one; on the reference instances the gap is a few
//! percent (checked by `eblow-eval agree`).

use super::mkp_lp::{solve_mkp_lp, solve_mkp_lp_warm, LpHint, MkpItem, MkpLpSolution, RowBase};
use eblow_lp::{LpProblem, LpStatus, Simplex, SimplexConfig};
use std::fmt;

/// Why an oracle declined or failed to solve an instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The instance exceeds the backend's size cutoff (`items × rows`
    /// cells). Callers should fall back to a scalable backend — the engine
    /// registry encodes this in `Strategy::supports`.
    TooLarge {
        /// `items.len() * base.len()` of the refused instance.
        cells: usize,
        /// The backend's cutoff.
        limit: usize,
    },
    /// The backend ran but did not produce an optimal solution (e.g. the
    /// simplex hit its pivot limit).
    Failed(String),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::TooLarge { cells, limit } => {
                write!(f, "instance too large for backend: {cells} cells > {limit}")
            }
            OracleError::Failed(reason) => write!(f, "oracle failed: {reason}"),
        }
    }
}

impl std::error::Error for OracleError {}

/// A solver for the LP relaxation of formulation (4).
///
/// Input: the unsolved [`MkpItem`]s, the committed per-row state, and the
/// stencil width; output: a fractional [`MkpLpSolution`]. Implementations
/// must be `Send + Sync` (one oracle instance is shared across racing
/// planner threads) and `Debug` (configs embedding an oracle stay
/// debuggable).
pub trait LpOracle: fmt::Debug + Send + Sync {
    /// Stable backend name (registry suffix, report label).
    fn name(&self) -> &'static str;

    /// Upper bound on `items × rows` cells this backend will attempt, if
    /// any. The engine uses this to gate `Strategy::supports` so a
    /// size-limited backend never enters a race it must refuse.
    fn max_cells(&self) -> Option<usize> {
        None
    }

    /// Solves the LP relaxation for `items` against rows of width
    /// `stencil_w` with committed content `base`.
    ///
    /// # Errors
    ///
    /// [`OracleError::TooLarge`] when the instance exceeds
    /// [`LpOracle::max_cells`]; [`OracleError::Failed`] when the backend ran
    /// but found no optimal solution.
    fn solve_lp(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
    ) -> Result<MkpLpSolution, OracleError>;

    /// Warm-started [`solve_lp`](LpOracle::solve_lp): `hint` carries state
    /// from the previous solve of a shrinking sequence (successive
    /// rounding's per-iteration LPs) — the density order for the
    /// combinatorial backend.
    ///
    /// **Contract:** the solution must be *identical* to `solve_lp` on the
    /// same inputs; a hint may only change how fast the solve runs, never
    /// what it returns (so warm-started rounding stays bit-reproducible
    /// against cold-started rounding). Backends without warm-start support
    /// use this default, which ignores the hint.
    fn solve_lp_warm(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
        hint: &mut LpHint,
    ) -> Result<MkpLpSolution, OracleError> {
        let _ = hint;
        self.solve_lp(items, base, stencil_w)
    }
}

/// Builds the all-zero solution over `items` (nothing assigned).
fn empty_solution(items: &[MkpItem], base: &[RowBase]) -> MkpLpSolution {
    MkpLpSolution {
        fracs: vec![Vec::new(); items.len()],
        max_frac: vec![0.0; items.len()],
        argmax_row: vec![0; items.len()],
        objective: 0.0,
        blanks: base.iter().map(|b| b.max_blank).collect(),
    }
}

/// The default backend: the structure-exploiting density-greedy fixed point
/// of [`solve_mkp_lp`]. Never refuses an instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CombinatorialOracle;

impl LpOracle for CombinatorialOracle {
    fn name(&self) -> &'static str {
        "combinatorial"
    }

    fn solve_lp(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
    ) -> Result<MkpLpSolution, OracleError> {
        Ok(solve_mkp_lp(items, base, stencil_w))
    }

    fn solve_lp_warm(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
        hint: &mut LpHint,
    ) -> Result<MkpLpSolution, OracleError> {
        Ok(solve_mkp_lp_warm(items, base, stencil_w, hint))
    }
}

/// Dense-simplex backend: formulation (4) lowered onto
/// [`eblow_lp::LpProblem`] with `a_ij ∈ [0, 1]` and per-row blank variables
/// `B_j`, solved exactly by the two-phase simplex.
///
/// The tableau is dense in `items × rows`, so instances above 2 500 cells
/// (≈ milliseconds per solve; the tableau grows quadratically past that)
/// are refused with [`OracleError::TooLarge`] — use the combinatorial
/// backend beyond that.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplexOracle;

/// The largest `items × rows` cell count [`SimplexOracle`] solves.
const SIMPLEX_MAX_CELLS: usize = 2_500;

impl LpOracle for SimplexOracle {
    fn name(&self) -> &'static str {
        "simplex"
    }

    fn max_cells(&self) -> Option<usize> {
        Some(SIMPLEX_MAX_CELLS)
    }

    fn solve_lp(
        &self,
        items: &[MkpItem],
        base: &[RowBase],
        stencil_w: u64,
    ) -> Result<MkpLpSolution, OracleError> {
        let cells = items.len() * base.len();
        if cells > SIMPLEX_MAX_CELLS {
            return Err(OracleError::TooLarge {
                cells,
                limit: SIMPLEX_MAX_CELLS,
            });
        }

        // Rows with no item capacity left (committed width plus committed
        // blank already at or beyond W) carry no variables; items with
        // non-positive profit stay at 0, as in the combinatorial backend.
        let open: Vec<usize> = (0..base.len())
            .filter(|&j| stencil_w.saturating_sub(base[j].eff_used) > base[j].max_blank)
            .collect();
        let active: Vec<usize> = (0..items.len())
            .filter(|&k| items[k].profit > 0.0)
            .collect();
        if open.is_empty() || active.is_empty() {
            return Ok(empty_solution(items, base));
        }
        let max_item_blank = active.iter().map(|&k| items[k].blank).max().unwrap_or(0);

        let mut lp = LpProblem::maximize();
        // a_kj ∈ [0, 1] with objective profit_k, for active items × open rows.
        let avars: Vec<Vec<eblow_lp::VarId>> = active
            .iter()
            .map(|&k| {
                open.iter()
                    .map(|_| lp.add_var(0.0, 1.0, items[k].profit))
                    .collect()
            })
            .collect();
        // B_j ∈ [committed max blank, max candidate blank].
        let bvars: Vec<eblow_lp::VarId> = open
            .iter()
            .map(|&j| {
                let lb = base[j].max_blank as f64;
                lp.add_var(lb, lb.max(max_item_blank as f64), 0.0)
            })
            .collect();
        // (4a): Σ_k w̃_k a_kj + B_j ≤ W − eff_used_j per open row.
        for (oj, &j) in open.iter().enumerate() {
            let mut terms: Vec<(eblow_lp::VarId, f64)> = active
                .iter()
                .enumerate()
                .map(|(ak, &k)| (avars[ak][oj], items[k].eff_width.max(1) as f64))
                .collect();
            terms.push((bvars[oj], 1.0));
            lp.add_constraint(
                &terms,
                eblow_lp::Relation::Le,
                (stencil_w - base[j].eff_used) as f64,
            );
        }
        // (4b): B_j ≥ s_k a_kj — redundant when s_k is already within the
        // committed blank, so only the binding pairs enter the tableau.
        for (ak, &k) in active.iter().enumerate() {
            for (oj, &j) in open.iter().enumerate() {
                if items[k].blank > base[j].max_blank {
                    lp.add_constraint(
                        &[(bvars[oj], 1.0), (avars[ak][oj], -(items[k].blank as f64))],
                        eblow_lp::Relation::Ge,
                        0.0,
                    );
                }
            }
        }
        // (4c): Σ_j a_kj ≤ 1 per item (the [0,1] bound covers single rows).
        if open.len() > 1 {
            for row in &avars {
                let terms: Vec<_> = row.iter().map(|&v| (v, 1.0)).collect();
                lp.add_constraint(&terms, eblow_lp::Relation::Le, 1.0);
            }
        }

        // Bound the pivot budget well below the solver's size-derived
        // default: a degenerate instance must cost one bounded solve (the
        // caller breaks off on `Failed`), not stall a whole rounding loop —
        // this is an inner-loop oracle, not a one-shot solve.
        let pivot_cap = 12 * (lp.num_vars() + lp.num_rows()) + 500;
        let sol = Simplex::new(SimplexConfig {
            max_iters: Some(pivot_cap),
        })
        .solve(&lp);
        if sol.status != LpStatus::Optimal {
            return Err(OracleError::Failed(format!(
                "simplex terminated with status {}",
                sol.status
            )));
        }

        let mut fracs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); items.len()];
        for (ak, &k) in active.iter().enumerate() {
            for (oj, &j) in open.iter().enumerate() {
                let v = sol.values[avars[ak][oj].index()].clamp(0.0, 1.0);
                if v > 1e-9 {
                    fracs[k].push((j, v));
                }
            }
        }
        let mut blanks: Vec<u64> = base.iter().map(|b| b.max_blank).collect();
        for (oj, &j) in open.iter().enumerate() {
            // The relaxation may hold B_j *below* the max blank of
            // fractionally-assigned items — that slack is exactly what
            // distinguishes (4) from the Lemma 3-4 approximation. Floor the
            // continuous value so `row load ≤ W − eff_used − blanks[j]`
            // stays true after integerization.
            blanks[j] = blanks[j].max(sol.values[bvars[oj].index()].floor() as u64);
        }
        Ok(super::mkp_lp::finish(items, fracs, blanks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(i: usize, eff: u64, blank: u64, profit: f64) -> MkpItem {
        MkpItem {
            char_index: i,
            eff_width: eff,
            blank,
            profit,
        }
    }

    fn feasible(items: &[MkpItem], base: &[RowBase], w: u64, sol: &MkpLpSolution) -> bool {
        let mut load = vec![0.0f64; base.len()];
        for (k, fr) in sol.fracs.iter().enumerate() {
            let total: f64 = fr.iter().map(|&(_, f)| f).sum();
            if total > 1.0 + 1e-9 {
                return false;
            }
            for &(j, f) in fr {
                load[j] += f * items[k].eff_width as f64;
            }
        }
        (0..base.len())
            .all(|j| load[j] <= w.saturating_sub(base[j].eff_used + sol.blanks[j]) as f64 + 1e-6)
    }

    #[test]
    fn backends_agree_on_blank_free_items() {
        // Zero blanks ⇒ (4) is a pure fractional MKP; both backends must
        // find the aggregate density-greedy optimum.
        let items: Vec<MkpItem> = (0..12)
            .map(|i| {
                item(
                    i,
                    10 + (i as u64 * 7) % 25,
                    0,
                    5.0 + (i as f64 * 13.0) % 40.0,
                )
            })
            .collect();
        let base = vec![RowBase::default(); 3];
        let comb = CombinatorialOracle.solve_lp(&items, &base, 70).unwrap();
        let simp = SimplexOracle.solve_lp(&items, &base, 70).unwrap();
        let scale = comb.objective.abs().max(1.0);
        assert!(
            (comb.objective - simp.objective).abs() <= 1e-6 * scale,
            "combinatorial {} vs simplex {}",
            comb.objective,
            simp.objective
        );
        assert!(feasible(&items, &base, 70, &comb));
        assert!(feasible(&items, &base, 70, &simp));
    }

    #[test]
    fn simplex_exploits_fractional_blank_slack() {
        // The motivating gap: (4) lets B absorb only s·a, so the simplex
        // may beat the full-blank fixed point — never the other way.
        let items = vec![item(0, 30, 20, 100.0), item(1, 30, 2, 99.0)];
        let base = vec![RowBase::default()];
        let comb = CombinatorialOracle.solve_lp(&items, &base, 62).unwrap();
        let simp = SimplexOracle.solve_lp(&items, &base, 62).unwrap();
        assert!(
            simp.objective >= comb.objective - 1e-9,
            "simplex {} below combinatorial {}",
            simp.objective,
            comb.objective
        );
        assert!(feasible(&items, &base, 62, &simp));
    }

    #[test]
    fn simplex_refuses_oversized_instances() {
        let items: Vec<MkpItem> = (0..100).map(|i| item(i, 10, 2, 1.0)).collect();
        let base = vec![RowBase::default(); 26];
        let err = SimplexOracle.solve_lp(&items, &base, 100).unwrap_err();
        assert_eq!(
            err,
            OracleError::TooLarge {
                cells: 2600,
                limit: 2500
            }
        );
        assert_eq!(SimplexOracle.max_cells(), Some(2500));
    }

    #[test]
    fn simplex_respects_committed_rows() {
        // Mirrors the combinatorial `respects_committed_usage` case.
        let items = vec![item(0, 40, 6, 10.0)];
        let base = vec![RowBase {
            eff_used: 70,
            max_blank: 8,
        }];
        let sol = SimplexOracle.solve_lp(&items, &base, 100).unwrap();
        // cap = 100 − 70 − 8 = 22 < 40 → only a fraction fits.
        assert!(sol.max_frac[0] > 0.0 && sol.max_frac[0] < 1.0);
        assert!(feasible(&items, &base, 100, &sol));
    }

    #[test]
    fn simplex_handles_saturated_rows() {
        // A row whose committed content already exceeds W must get nothing
        // (and must not underflow the W − eff_used arithmetic).
        let items = vec![item(0, 10, 2, 5.0)];
        let base = vec![
            RowBase {
                eff_used: 150,
                max_blank: 4,
            },
            RowBase::default(),
        ];
        let sol = SimplexOracle.solve_lp(&items, &base, 100).unwrap();
        assert!(sol.fracs[0].iter().all(|&(j, _)| j == 1));
        assert!((sol.max_frac[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_names_and_errors_display() {
        assert_eq!(CombinatorialOracle.name(), "combinatorial");
        assert_eq!(SimplexOracle.name(), "simplex");
        assert!(CombinatorialOracle.max_cells().is_none());
        let msg = OracleError::TooLarge {
            cells: 10,
            limit: 5,
        }
        .to_string();
        assert!(msg.contains("10") && msg.contains('5'));
    }
}
