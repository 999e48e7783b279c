use crate::problem::{LpProblem, LpStatus, Sense, VarId};
use crate::simplex::Simplex;
use std::time::{Duration, Instant};

/// Configuration of the [`BranchBound`] MILP solver.
#[derive(Debug, Clone, Copy)]
pub struct MilpConfig {
    /// Wall-clock budget. When exceeded, the best incumbent (if any) is
    /// returned with [`MilpStatus::TimedOut`] / [`MilpStatus::Feasible`].
    pub time_limit: Duration,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            time_limit: Duration::from_secs(600),
        }
    }
}

/// Maximum number of branch-and-bound nodes.
const NODE_LIMIT: usize = 10_000_000;
/// Integrality tolerance: `x` counts as integral if within this of an
/// integer.
const INT_TOL: f64 = 1e-6;

/// Termination status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MilpStatus {
    /// The incumbent is proven optimal.
    Optimal,
    /// A feasible incumbent exists but the search hit a limit before proving
    /// optimality.
    Feasible,
    /// The problem has no feasible integer point.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// A limit was hit with no incumbent found (the paper's "NA" entries).
    TimedOut,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Termination status.
    pub status: MilpStatus,
    /// Incumbent objective (problem sense); meaningful for
    /// `Optimal`/`Feasible`.
    pub objective: f64,
    /// Incumbent variable values.
    pub values: Vec<f64>,
    /// Nodes explored.
    pub nodes: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Depth-first branch-and-bound over LP relaxations.
///
/// Matches how the paper uses GUROBI on its ILP formulations: solve the LP
/// relaxation, branch on a fractional integer variable (most-fractional
/// rule, "round-toward" child first), prune by bound against the incumbent,
/// and stop at the time limit reporting "NA" when no incumbent exists —
/// exactly the protocol of Table 5.
///
/// # Example
///
/// ```
/// use eblow_lp::{BranchBound, LpProblem, MilpStatus, Relation};
///
/// // 0/1 knapsack: max 10a + 6b + 4c, 5a + 4b + 3c ≤ 8
/// let mut lp = LpProblem::maximize();
/// let a = lp.add_binary(10.0);
/// let b = lp.add_binary(6.0);
/// let c = lp.add_binary(4.0);
/// lp.add_constraint(&[(a, 5.0), (b, 4.0), (c, 3.0)], Relation::Le, 8.0);
/// let sol = BranchBound::default().solve(&lp, &[a, b, c]);
/// assert_eq!(sol.status, MilpStatus::Optimal);
/// assert!((sol.objective - 14.0).abs() < 1e-6); // a + c
/// ```
#[derive(Debug, Clone, Default)]
pub struct BranchBound {
    config: MilpConfig,
}

struct Node {
    /// `(var, lb, ub)` bound overrides accumulated along the path.
    bounds: Vec<(VarId, f64, f64)>,
}

impl BranchBound {
    /// Creates a solver with the given configuration.
    pub fn new(config: MilpConfig) -> Self {
        BranchBound { config }
    }

    /// Solves `problem` with the variables in `integers` restricted to
    /// integer values.
    ///
    /// The problem itself is not modified; bound changes are applied to a
    /// scratch copy per node.
    pub fn solve(&self, problem: &LpProblem, integers: &[VarId]) -> MilpSolution {
        self.solve_cancellable(problem, integers, None, None)
    }

    /// Like [`BranchBound::solve`], but seeded with a known feasible point
    /// (warm start). The seed is validated — an infeasible or fractional
    /// seed is silently ignored — and then used for bound pruning from the
    /// first node, which is often decisive on big-M formulations.
    pub fn solve_with_incumbent(
        &self,
        problem: &LpProblem,
        integers: &[VarId],
        initial: Option<&[f64]>,
    ) -> MilpSolution {
        self.solve_cancellable(problem, integers, initial, None)
    }

    /// The fully general entry point: optional warm start plus an optional
    /// cooperative stop flag, polled once per branch-and-bound node. When
    /// the flag is raised the search stops exactly like a time limit: the
    /// best incumbent so far (if any) is returned as
    /// [`MilpStatus::Feasible`], otherwise [`MilpStatus::TimedOut`], so a
    /// solve can be held inside a portfolio deadline.
    pub fn solve_cancellable(
        &self,
        problem: &LpProblem,
        integers: &[VarId],
        initial: Option<&[f64]>,
        stop: Option<&std::sync::atomic::AtomicBool>,
    ) -> MilpSolution {
        let start = Instant::now();
        let minimize = problem.sense() == Sense::Minimize;
        let simplex = Simplex::default();

        // Internal convention: minimize `score` = objective if minimizing,
        // −objective if maximizing.
        let score = |obj: f64| if minimize { obj } else { -obj };

        let mut incumbent: Option<(f64, Vec<f64>)> = None; // (score, values)
        if let Some(seed) = initial {
            let integral = integers.iter().all(|v| {
                let x = seed.get(v.index()).copied().unwrap_or(f64::NAN);
                (x - x.round()).abs() <= INT_TOL
            });
            if integral && problem.is_feasible(seed, 1e-6) {
                incumbent = Some((score(problem.objective_value(seed)), seed.to_vec()));
            }
        }
        let mut nodes = 0usize;
        let mut stack = vec![Node { bounds: Vec::new() }];
        let mut scratch = problem.clone();
        let mut root_unbounded = false;
        let mut limit_hit = false;

        while let Some(node) = stack.pop() {
            if start.elapsed() > self.config.time_limit
                || nodes >= NODE_LIMIT
                || stop.is_some_and(|s| s.load(std::sync::atomic::Ordering::Relaxed))
            {
                limit_hit = true;
                break;
            }
            nodes += 1;

            // Apply node bounds onto a scratch copy of the problem.
            scratch.clone_from(problem);
            let mut conflict = false;
            for &(v, lb, ub) in &node.bounds {
                let (cur_lb, cur_ub) = scratch.bounds(v);
                let nlb = cur_lb.max(lb);
                let nub = cur_ub.min(ub);
                if nlb > nub {
                    conflict = true;
                    break;
                }
                scratch.set_bounds(v, nlb, nub);
            }
            if conflict {
                continue;
            }

            let rel = simplex.solve(&scratch);
            match rel.status {
                LpStatus::Infeasible => continue,
                LpStatus::Unbounded => {
                    if node.bounds.is_empty() {
                        root_unbounded = true;
                        break;
                    }
                    continue; // can't bound; should not happen with boxed integers
                }
                LpStatus::IterationLimit => continue,
                LpStatus::Optimal => {}
            }
            let node_score = score(rel.objective);
            if let Some((best, _)) = &incumbent {
                if node_score >= *best - 1e-9 {
                    continue; // bound prune
                }
            }

            // Find the most fractional integer variable, preferring earlier
            // entries of `integers`: callers list structural decision
            // variables (character selection) before ordering binaries, so
            // the search fixes selections first — a large win on the big-M
            // placement formulations.
            let mut branch: Option<(VarId, f64, f64)> = None; // (var, value, frac-dist)
            let prefix = integers.len().min(64);
            for (rank, &v) in integers.iter().enumerate() {
                let x = rel.values[v.index()];
                let dist = (x - x.round()).abs();
                if dist > INT_TOL {
                    let closeness = (x - x.floor() - 0.5).abs(); // 0 = most fractional
                    match branch {
                        Some((_, _, best_c)) if closeness >= best_c => {}
                        _ => branch = Some((v, x, closeness)),
                    }
                    if rank < prefix && branch.is_some_and(|(bv, _, _)| bv == v) {
                        // keep scanning the prefix for a more fractional one
                        continue;
                    }
                }
                if rank + 1 == prefix && branch.is_some() {
                    break; // a fractional selection variable exists: use it
                }
            }

            match branch {
                None => {
                    // Integral: candidate incumbent.
                    if incumbent
                        .as_ref()
                        .map(|(best, _)| node_score < *best - 1e-9)
                        .unwrap_or(true)
                    {
                        incumbent = Some((node_score, rel.values.clone()));
                    }
                }
                Some((v, x, _)) => {
                    let floor = x.floor();
                    let up_first = x - floor > 0.5;
                    let mut lo = node.bounds.clone();
                    lo.push((v, f64::NEG_INFINITY.max(-1e18), floor));
                    let mut hi = node.bounds.clone();
                    hi.push((v, floor + 1.0, 1e18));
                    // DFS: push the "away" child first so the "toward" child
                    // (closer to the LP value) is explored next.
                    if up_first {
                        stack.push(Node { bounds: lo });
                        stack.push(Node { bounds: hi });
                    } else {
                        stack.push(Node { bounds: hi });
                        stack.push(Node { bounds: lo });
                    }
                }
            }
        }

        let elapsed = start.elapsed();
        match incumbent {
            Some((s, values)) => {
                let objective = if minimize { s } else { -s };
                let status = if limit_hit {
                    MilpStatus::Feasible
                } else {
                    MilpStatus::Optimal
                };
                MilpSolution {
                    status,
                    objective,
                    values,
                    nodes,
                    elapsed,
                }
            }
            None => MilpSolution {
                status: if root_unbounded {
                    MilpStatus::Unbounded
                } else if limit_hit {
                    MilpStatus::TimedOut
                } else {
                    MilpStatus::Infeasible
                },
                objective: f64::NAN,
                values: Vec::new(),
                nodes,
                elapsed,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Relation;

    #[test]
    fn knapsack_exact() {
        let profits = [10.0, 13.0, 7.0, 8.0, 4.0];
        let weights = [5.0, 6.0, 4.0, 5.0, 3.0];
        let cap = 12.0;
        let mut lp = LpProblem::maximize();
        let vars: Vec<_> = profits.iter().map(|&p| lp.add_binary(p)).collect();
        let terms: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
        lp.add_constraint(&terms, Relation::Le, cap);
        let sol = BranchBound::default().solve(&lp, &vars);
        assert_eq!(sol.status, MilpStatus::Optimal);
        // brute force: best is items 1 + 3 (13+8=21, weight 11) vs 0+1 (23, weight 11) ✓
        assert!((sol.objective - 23.0).abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn integer_infeasible() {
        // 2x = 1 with x binary has a fractional-only solution.
        let mut lp = LpProblem::minimize();
        let x = lp.add_binary(1.0);
        lp.add_constraint(&[(x, 2.0)], Relation::Eq, 1.0);
        let sol = BranchBound::default().solve(&lp, &[x]);
        assert_eq!(sol.status, MilpStatus::Infeasible);
    }

    #[test]
    fn general_integers_branch() {
        // max x + y, 3x + 2y ≤ 12, x,y ∈ Z ∩ [0, 10]
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 12.0);
        let sol = BranchBound::default().solve(&lp, &[x, y]);
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective - 6.0).abs() < 1e-6); // x=0, y=6
    }

    #[test]
    fn time_limit_reports_na() {
        // A deliberately tiny budget on a nontrivial model yields TimedOut
        // (the "NA" protocol of Table 5) or an early Feasible incumbent.
        let mut lp = LpProblem::maximize();
        let n = 18;
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_binary(1.0 + (i as f64 * 0.37).sin().abs()))
            .collect();
        for k in 0..n {
            let terms: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i * k) as f64 * 0.11).cos().abs()))
                .collect();
            lp.add_constraint(&terms, Relation::Le, n as f64 / 2.0);
        }
        let cfg = MilpConfig {
            time_limit: Duration::from_micros(1),
        };
        let sol = BranchBound::new(cfg).solve(&lp, &vars);
        assert!(matches!(
            sol.status,
            MilpStatus::TimedOut | MilpStatus::Feasible
        ));
    }

    #[test]
    fn respects_existing_bounds() {
        // Branching must not loosen user bounds.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var(2.0, 7.0, 1.0);
        lp.add_constraint(&[(x, 2.0)], Relation::Le, 9.1);
        let sol = BranchBound::default().solve(&lp, &[x]);
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!((sol.objective - 4.0).abs() < 1e-6); // x = 4 (4.55 floor)
    }
}
