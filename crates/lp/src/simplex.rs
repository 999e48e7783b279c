use crate::problem::{LpProblem, LpSolution, LpStatus, Relation, Sense};

/// Configuration of the [`Simplex`] solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplexConfig {
    /// Hard pivot limit; `None` derives `100·(m+n) + 1000` from the problem.
    pub max_iters: Option<usize>,
}

/// Primal feasibility tolerance (a phase-1 objective below this, scaled by
/// the row count, counts as feasible).
const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost tolerance for optimality.
const COST_TOL: f64 = 1e-7;
/// Minimum pivot magnitude.
const PIVOT_TOL: f64 = 1e-9;
/// Switch from Dantzig to Bland's rule after this many consecutive
/// degenerate pivots (anti-cycling).
const BLAND_AFTER: usize = 64;

/// Dense two-phase primal simplex with bounded variables.
///
/// Nonbasic variables rest at either their lower or upper bound; the ratio
/// test includes *bound flips* (a nonbasic variable travelling from one
/// bound to the other without a basis change), which is essential for the
/// 0/1-box LP relaxations E-BLOW produces.
///
/// The tableau is dense (`m × (n + slacks + artificials)` of `f64`), which
/// is the right trade-off for the few-hundred-variable models this
/// workspace sends to the exact solver.
#[derive(Debug, Clone, Default)]
pub struct Simplex {
    config: SimplexConfig,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(usize),
    AtLower,
    AtUpper,
}

struct Tableau {
    /// `m × total` coefficient matrix, row-reduced in place.
    tab: Vec<Vec<f64>>,
    /// `B⁻¹ b` column (all nonbasics at zero).
    rhs0: Vec<f64>,
    /// Current value of each basic variable (shifted space), per row.
    xb: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// State of every column.
    state: Vec<VarState>,
    /// Shifted upper bound of every column (`lb` is 0 after shifting).
    ub: Vec<f64>,
    /// Phase-2 cost of every column (shifted space).
    cost: Vec<f64>,
    /// Current reduced costs.
    dcost: Vec<f64>,
    /// Marks artificial columns (interleaved with slacks).
    is_art: Vec<bool>,
    iterations: usize,
}

impl Simplex {
    /// Creates a solver with the given configuration.
    pub fn new(config: SimplexConfig) -> Self {
        Simplex { config }
    }

    /// Solves `problem`, returning statuses rather than errors: inspect
    /// [`LpSolution::status`].
    pub fn solve(&self, problem: &LpProblem) -> LpSolution {
        let n = problem.num_vars();
        let m = problem.num_rows();
        let minimize = problem.sense() == Sense::Minimize;

        // ---- build the computational form ---------------------------------
        // Shift every variable by its lower bound; normalize Ge rows to Le.
        let lb: Vec<f64> = problem.vars.iter().map(|v| v.lb).collect();
        let span: Vec<f64> = problem.vars.iter().map(|v| v.ub - v.lb).collect();

        // Count slacks (Le/Ge rows get one; Eq rows none).
        let n_slack = problem
            .rows
            .iter()
            .filter(|r| r.rel != Relation::Eq)
            .count();
        let total_guess = n + n_slack + m;
        let mut tab: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut rhs0: Vec<f64> = Vec::with_capacity(m);
        let mut basis: Vec<usize> = Vec::with_capacity(m);
        let mut ub = vec![0.0f64; total_guess];
        let mut cost = vec![0.0f64; total_guess];
        for j in 0..n {
            ub[j] = span[j];
            cost[j] = if minimize {
                problem.vars[j].obj
            } else {
                -problem.vars[j].obj
            };
        }
        let mut next_col = n;
        let mut art_cols: Vec<usize> = Vec::new();

        for row in &problem.rows {
            let mut coeffs = vec![0.0f64; total_guess];
            let mut shift = 0.0;
            for &(i, a) in &row.terms {
                coeffs[i] += a;
                shift += a * lb[i];
            }
            let mut b = row.rhs - shift;
            // Normalize Ge to Le by negation.
            let mut rel = row.rel;
            if rel == Relation::Ge {
                for c in coeffs[..n].iter_mut() {
                    *c = -*c;
                }
                b = -b;
                rel = Relation::Le;
            }
            let slack_col = if rel == Relation::Le {
                let col = next_col;
                next_col += 1;
                ub[col] = f64::INFINITY;
                coeffs[col] = 1.0;
                Some(col)
            } else {
                None
            };
            // Make rhs non-negative so the initial basic value is feasible.
            if b < 0.0 {
                for c in coeffs[..next_col].iter_mut() {
                    *c = -*c;
                }
                b = -b;
            }
            // Pick the initial basic column: the slack if its coefficient is
            // +1 after possible negation; otherwise an artificial.
            let basic = match slack_col {
                Some(col) if coeffs[col] > 0.5 => col,
                _ => {
                    let col = next_col;
                    next_col += 1;
                    ub[col] = f64::INFINITY;
                    coeffs[col] = 1.0;
                    art_cols.push(col);
                    col
                }
            };
            basis.push(basic);
            tab.push(coeffs);
            rhs0.push(b);
        }
        let total = next_col;
        for row in tab.iter_mut() {
            row.truncate(total);
        }
        ub.truncate(total);
        cost.truncate(total);
        let mut is_art = vec![false; total];
        for &c in &art_cols {
            is_art[c] = true;
        }

        let mut state = vec![VarState::AtLower; total];
        for (r, &bv) in basis.iter().enumerate() {
            state[bv] = VarState::Basic(r);
        }

        let mut t = Tableau {
            xb: rhs0.clone(),
            tab,
            rhs0,
            basis,
            state,
            ub,
            cost,
            dcost: vec![0.0; total],
            is_art,
            iterations: 0,
        };

        let max_iters = self.config.max_iters.unwrap_or(100 * (m + total) + 1000);

        // ---- phase 1 -------------------------------------------------------
        if !art_cols.is_empty() {
            let phase1_cost: Vec<f64> = (0..total)
                .map(|j| if t.is_art[j] { 1.0 } else { 0.0 })
                .collect();
            t.reset_reduced_costs(&phase1_cost);
            let status = t.iterate(&phase1_cost, max_iters, true);
            if status == LpStatus::IterationLimit {
                return self.finish(problem, &t, lb, LpStatus::IterationLimit, minimize);
            }
            let infeas: f64 = (0..t.tab.len())
                .map(|r| {
                    if t.is_art[t.basis[r]] {
                        t.xb[r].max(0.0)
                    } else {
                        0.0
                    }
                })
                .sum();
            if infeas > FEAS_TOL * (1.0 + m as f64) {
                return self.finish(problem, &t, lb, LpStatus::Infeasible, minimize);
            }
            t.expel_artificials();
            // Freeze artificials at zero.
            for j in 0..total {
                if t.is_art[j] {
                    t.ub[j] = 0.0;
                }
            }
        }

        // ---- phase 2 -------------------------------------------------------
        let phase2_cost = t.cost.clone();
        t.reset_reduced_costs(&phase2_cost);
        let status = t.iterate(&phase2_cost, max_iters, false);
        self.finish(problem, &t, lb, status, minimize)
    }

    fn finish(
        &self,
        problem: &LpProblem,
        t: &Tableau,
        lb: Vec<f64>,
        status: LpStatus,
        minimize: bool,
    ) -> LpSolution {
        let mut values = vec![0.0f64; problem.num_vars()];
        for j in 0..problem.num_vars() {
            let shifted = match t.state[j] {
                VarState::Basic(r) => t.xb[r],
                VarState::AtLower => 0.0,
                VarState::AtUpper => t.ub[j],
            };
            values[j] = lb[j] + shifted;
        }
        let raw_obj = problem.objective_value(&values);
        let objective = if status == LpStatus::Optimal {
            raw_obj
        } else if minimize {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        LpSolution {
            status,
            objective,
            values,
            iterations: t.iterations,
        }
    }
}

impl Tableau {
    fn num_rows(&self) -> usize {
        self.tab.len()
    }

    fn num_cols(&self) -> usize {
        self.ub.len()
    }

    /// Recomputes `dcost = c − c_B^T B⁻¹ A` from scratch for the cost
    /// vector `c`.
    fn reset_reduced_costs(&mut self, c: &[f64]) {
        let total = self.num_cols();
        let m = self.num_rows();
        self.dcost.copy_from_slice(c);
        for r in 0..m {
            let cb = c[self.basis[r]];
            if cb != 0.0 {
                let row = &self.tab[r];
                for j in 0..total {
                    self.dcost[j] -= cb * row[j];
                }
            }
        }
        // Basic columns must have exactly zero reduced cost.
        for &bv in &self.basis {
            self.dcost[bv] = 0.0;
        }
    }

    /// Refreshes `xb` from `rhs0` and the at-upper set (kills float drift).
    fn refresh_xb(&mut self) {
        let m = self.num_rows();
        self.xb.copy_from_slice(&self.rhs0);
        for j in 0..self.num_cols() {
            if self.state[j] == VarState::AtUpper && self.ub[j] != 0.0 {
                let u = self.ub[j];
                for r in 0..m {
                    let a = self.tab[r][j];
                    if a != 0.0 {
                        self.xb[r] -= a * u;
                    }
                }
            }
        }
    }

    /// Gauss-Jordan pivot on `(row, col)`, updating reduced costs.
    fn pivot(&mut self, row: usize, col: usize) {
        let m = self.num_rows();
        let total = self.num_cols();
        let piv = self.tab[row][col];
        debug_assert!(piv.abs() > 0.0);
        let inv = 1.0 / piv;
        for v in self.tab[row].iter_mut() {
            *v *= inv;
        }
        self.rhs0[row] *= inv;
        let prow = self.tab[row].clone();
        let prhs = self.rhs0[row];
        for r in 0..m {
            if r == row {
                continue;
            }
            let f = self.tab[r][col];
            if f != 0.0 {
                let dst = &mut self.tab[r];
                for j in 0..total {
                    dst[j] -= f * prow[j];
                }
                dst[col] = 0.0;
                self.rhs0[r] -= f * prhs;
            }
        }
        let f = self.dcost[col];
        if f != 0.0 {
            for j in 0..total {
                self.dcost[j] -= f * prow[j];
            }
            self.dcost[col] = 0.0;
        }
    }

    /// Runs primal iterations until optimality, unboundedness or the
    /// iteration limit. In phase 1 (`phase1 = true`) unboundedness cannot
    /// occur (the objective is bounded below by zero).
    fn iterate(&mut self, _c: &[f64], max_iters: usize, phase1: bool) -> LpStatus {
        let mut degenerate_streak = 0usize;
        loop {
            if self.iterations >= max_iters {
                return LpStatus::IterationLimit;
            }
            let bland = degenerate_streak >= BLAND_AFTER;

            // ---- pricing: pick the entering column ------------------------
            let mut enter: Option<(usize, f64, f64)> = None; // (col, score, dir)
            for j in 0..self.num_cols() {
                if !phase1 && self.is_art[j] {
                    continue; // artificials frozen in phase 2
                }
                let (score, dir) = match self.state[j] {
                    VarState::Basic(_) => continue,
                    VarState::AtLower => (-self.dcost[j], 1.0),
                    VarState::AtUpper => (self.dcost[j], -1.0),
                };
                if score > COST_TOL && self.ub[j] > 0.0 {
                    match (&enter, bland) {
                        (None, _) => enter = Some((j, score, dir)),
                        (Some(_), true) => {} // Bland: first eligible index
                        (Some((_, best, _)), false) if score > *best => {
                            enter = Some((j, score, dir))
                        }
                        _ => {}
                    }
                    if bland {
                        break;
                    }
                }
            }
            let Some((e, _, dir)) = enter else {
                return LpStatus::Optimal;
            };

            // ---- ratio test ------------------------------------------------
            // Entering variable moves by t ≥ 0 in direction `dir`;
            // basic i changes by −dir·α_i·t.
            let mut t_max = self.ub[e]; // bound flip limit (may be ∞)
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            let mut best_piv = 0.0f64;
            for r in 0..self.num_rows() {
                let a = self.tab[r][e];
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let rate = dir * a; // xb[r] decreases at `rate` per unit t
                let (limit, at_upper) = if rate > 0.0 {
                    // moving down toward its lower bound (0)
                    (self.xb[r] / rate, false)
                } else {
                    let u = self.ub[self.basis[r]];
                    if u.is_infinite() {
                        continue;
                    }
                    ((u - self.xb[r]) / -rate, true)
                };
                let limit = limit.max(0.0);
                if limit < t_max - 1e-9 {
                    // Strictly tighter: this row limits the step.
                    t_max = limit;
                    leave = Some((r, at_upper));
                    best_piv = a.abs();
                } else if limit <= t_max + 1e-9 {
                    // Tie with the current limit: prefer the larger pivot
                    // magnitude for numerical stability (Harris-style).
                    if leave.is_none() || a.abs() > best_piv {
                        t_max = t_max.min(limit);
                        leave = Some((r, at_upper));
                        best_piv = a.abs();
                    }
                }
            }

            if t_max.is_infinite() {
                return LpStatus::Unbounded;
            }
            self.iterations += 1;
            if t_max <= 1e-12 {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }

            match leave {
                None => {
                    // Pure bound flip of the entering variable.
                    let u = self.ub[e];
                    for r in 0..self.num_rows() {
                        let a = self.tab[r][e];
                        if a != 0.0 {
                            self.xb[r] -= dir * a * u;
                        }
                    }
                    self.state[e] = if dir > 0.0 {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };
                }
                Some((r, at_upper)) => {
                    // Update basic values, then swap e into the basis.
                    for i in 0..self.num_rows() {
                        let a = self.tab[i][e];
                        if a != 0.0 {
                            self.xb[i] -= dir * a * t_max;
                        }
                    }
                    let leaving = self.basis[r];
                    self.state[leaving] = if at_upper {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };
                    let new_val = match self.state[e] {
                        VarState::AtLower => dir * t_max,
                        VarState::AtUpper => self.ub[e] + dir * t_max,
                        VarState::Basic(_) => unreachable!("entering var is nonbasic"),
                    };
                    self.state[e] = VarState::Basic(r);
                    self.basis[r] = e;
                    self.pivot(r, e);
                    self.xb[r] = new_val;
                }
            }

            if self.iterations.is_multiple_of(128) {
                self.refresh_xb();
            }
        }
    }

    /// After phase 1, pivots artificial variables out of the basis where
    /// possible (they are all at value ~0).
    fn expel_artificials(&mut self) {
        for r in 0..self.num_rows() {
            if !self.is_art[self.basis[r]] {
                continue;
            }
            // Find any non-artificial nonbasic column usable as a pivot.
            let col = (0..self.num_cols()).find(|&j| {
                !self.is_art[j]
                    && !matches!(self.state[j], VarState::Basic(_))
                    && self.tab[r][j].abs() > PIVOT_TOL
            });
            if let Some(j) = col {
                let old = self.basis[r];
                let old_val = self.xb[r];
                // Degenerate swap: entering at bound takes value ~0.
                let entering_val = match self.state[j] {
                    VarState::AtLower => 0.0,
                    VarState::AtUpper => self.ub[j],
                    VarState::Basic(_) => unreachable!(),
                };
                self.state[old] = VarState::AtLower;
                self.state[j] = VarState::Basic(r);
                self.basis[r] = j;
                self.pivot(r, j);
                // The entering variable keeps its (bound) value; the row
                // stays at that value plus the tiny artificial residue.
                self.xb[r] = entering_val + old_val;
                self.refresh_xb();
            }
            // If no pivot exists the row is redundant; the artificial stays
            // basic at zero with a frozen upper bound.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LpProblem, LpStatus, Relation};

    fn assert_opt(lp: &LpProblem, expect_obj: f64, expect_x: Option<&[f64]>) {
        let sol = Simplex::default().solve(lp);
        assert_eq!(sol.status, LpStatus::Optimal, "status: {:?}", sol.status);
        assert!(
            (sol.objective - expect_obj).abs() < 1e-6,
            "objective {} vs expected {expect_obj}",
            sol.objective
        );
        assert!(lp.is_feasible(&sol.values, 1e-6), "solution infeasible");
        if let Some(x) = expect_x {
            for (a, b) in sol.values.iter().zip(x) {
                assert!((a - b).abs() < 1e-6, "{:?} vs {:?}", sol.values, x);
            }
        }
    }

    #[test]
    fn simple_max_2d() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(0.0, f64::INFINITY, 3.0);
        let y = lp.add_var(0.0, f64::INFINITY, 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        assert_opt(&lp, 36.0, Some(&[2.0, 6.0]));
    }

    #[test]
    fn bounded_vars_hit_upper_bounds() {
        // max x + y with x ≤ 2, y ≤ 3 as *bounds* (exercises bound flips).
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(0.0, 2.0, 1.0);
        let y = lp.add_var(0.0, 3.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 10.0);
        assert_opt(&lp, 5.0, Some(&[2.0, 3.0]));
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min 2x + 3y s.t. x + y = 4, x ≥ 1, y ≥ 1
        let mut lp = LpProblem::minimize();
        let x = lp.add_var(0.0, f64::INFINITY, 2.0);
        let y = lp.add_var(0.0, f64::INFINITY, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 1.0);
        lp.add_constraint(&[(y, 1.0)], Relation::Ge, 1.0);
        assert_opt(&lp, 9.0, Some(&[3.0, 1.0]));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::minimize();
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        let sol = Simplex::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        let sol = Simplex::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds_shifted() {
        // min x + y with x ∈ [-5, 5], y ∈ [-5, 5], x + y ≥ -3
        let mut lp = LpProblem::minimize();
        let x = lp.add_var(-5.0, 5.0, 1.0);
        let y = lp.add_var(-5.0, 5.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, -3.0);
        assert_opt(&lp, -3.0, None);
    }

    #[test]
    fn fractional_knapsack_matches_greedy() {
        // max Σ p_i x_i, Σ w_i x_i ≤ C, 0 ≤ x ≤ 1 — LP optimum is the
        // density-greedy solution with one fractional item.
        let profits = [60.0, 100.0, 120.0, 30.0];
        let weights = [10.0, 20.0, 30.0, 15.0];
        let cap = 50.0;
        let mut lp = LpProblem::maximize();
        let vars: Vec<_> = profits.iter().map(|&p| lp.add_var(0.0, 1.0, p)).collect();
        let terms: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
        lp.add_constraint(&terms, Relation::Le, cap);
        // densities: 6, 5, 4, 2 → take item0 (10), item1 (20), 2/3 of item2
        assert_opt(&lp, 60.0 + 100.0 + 120.0 * (2.0 / 3.0), None);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate corner: multiple constraints meet at the optimum.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(0.0, f64::INFINITY, 1.0);
        let y = lp.add_var(0.0, f64::INFINITY, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 2.0);
        assert_opt(&lp, 1.0, None);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(2.0, 2.0, 5.0);
        let y = lp.add_var(0.0, 4.0, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 5.0);
        assert_opt(&lp, 13.0, Some(&[2.0, 3.0]));
    }

    #[test]
    fn empty_constraint_list() {
        let mut lp = LpProblem::maximize();
        let _x = lp.add_var(0.0, 7.0, 2.0);
        let sol = Simplex::default().solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 14.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_equalities_ok() {
        let mut lp = LpProblem::minimize();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        lp.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 8.0); // redundant
        assert_opt(&lp, 4.0, Some(&[4.0, 0.0]));
    }
}
