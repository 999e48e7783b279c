//! Exact ILP formulations (3) and (7) of the paper, for the Table 5
//! comparison ("ILP vs E-BLOW").
//!
//! These are the *unified* formulations that co-optimize character selection
//! and physical placement. They are exact but explode combinatorially —
//! which is precisely the phenomenon Table 5 documents (GUROBI needs 1510 s
//! at 12 characters and times out at 14). Our [`eblow_lp::BranchBound`]
//! plays GUROBI's role, including the "NA after the time limit" protocol.
//!
//! Formulation (3), 1DOSP: binaries `a_ik` (character `i` on row `k`) and
//! `p_ij` (left/right order), continuous `x_i`, big-M disjunctions
//! (3d)/(3e) with overlap-adjusted widths `w_ij = w_i − o^h_ij`.
//!
//! Formulation (7), 2DOSP: binaries `a_i`, `p_ij`, `q_ij`, continuous
//! `x_i, y_i`; the four big-M constraints (7b)–(7e) activate exactly one
//! separation direction per selected pair.
//!
//! A candidate that cannot fit the stencil has its assignments fixed to 0
//! and stays out of the pair constraints and the valid cuts: with both
//! assignments at 0, big-M = W (or H) still cannot switch off a pair whose
//! paired width exceeds about 4W, which would make even the empty
//! selection infeasible.

use eblow_lp::{BranchBound, LpProblem, MilpConfig, MilpStatus, Relation, VarId};
use eblow_model::{overlap, CharId, Instance, ModelError, Placement1d, Placement2d, Row};
use std::time::Duration;

/// Result of an exact ILP solve.
#[derive(Debug, Clone)]
pub struct IlpOutcome {
    /// Status of the underlying branch & bound.
    pub status: MilpStatus,
    /// Proven-optimal (or best incumbent) system writing time; `None` when
    /// no incumbent was found in time (the paper's "NA").
    pub total_time: Option<u64>,
    /// Characters selected onto the stencil.
    pub selected: Vec<usize>,
    /// Number of binary variables in the model (Table 5's "binary #").
    pub binary_vars: usize,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Wall-clock time spent solving.
    pub elapsed: Duration,
    /// Reconstructed 1D placement (1D solves only).
    pub placement_1d: Option<Placement1d>,
    /// Reconstructed 2D placement (2D solves only).
    pub placement_2d: Option<Placement2d>,
}

/// Orders a reconstructed row by solver `x` coordinate. `total_cmp` (not
/// `partial_cmp().unwrap()`): a pathological solver value (NaN from an
/// Inf−Inf big-M corner) must degrade to an arbitrary-but-stable order,
/// never panic the reconstruction; ties break by candidate index so the
/// placement stays deterministic.
fn sort_row_by_x(r: &mut [(f64, usize)]) {
    r.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

/// Builds and solves formulation (3) for a row-structured instance.
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
// audit:allow(stop-flag-reachability): bounded O(n²) model build; the branch-and-bound solve enforces time_limit internally
pub fn solve_ilp_1d(instance: &Instance, time_limit: Duration) -> Result<IlpOutcome, ModelError> {
    let started = std::time::Instant::now();
    let m = instance.num_rows()?;
    let n = instance.num_chars();
    let w = instance.stencil().width() as f64;
    let big_w = w;
    let row_height = instance.stencil().row_height().unwrap_or(u64::MAX);
    let fits: Vec<bool> = (0..n)
        .map(|i| {
            let c = instance.char(i);
            c.width() <= instance.stencil().width() && c.height() <= row_height
        })
        .collect();

    let mut lp = LpProblem::minimize();
    let t_total = lp.add_var(0.0, f64::INFINITY, 1.0);
    // a_ik — character i assigned to row k.
    let a: Vec<Vec<VarId>> = (0..n)
        .map(|_| (0..m).map(|_| lp.add_binary(0.0)).collect())
        .collect();
    // x_i ∈ [0, W − w_i] (characters wider than W are fixed off).
    let x: Vec<VarId> = (0..n)
        .map(|i| {
            let wi = instance.char(i).width() as f64;
            lp.add_var(0.0, (w - wi).max(0.0), 0.0)
        })
        .collect();
    // p_ij for i < j.
    let mut p = vec![vec![None; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            p[i][j] = Some(lp.add_binary(0.0));
        }
    }

    // (3a): T_total ≥ T_VSB_c − Σ_ik R_ic a_ik.
    for c in 0..instance.num_regions() {
        let mut terms = vec![(t_total, 1.0)];
        for (i, ai) in a.iter().enumerate() {
            let r = instance.reduction(i, c) as f64;
            if r != 0.0 {
                for &aik in ai {
                    terms.push((aik, r));
                }
            }
        }
        lp.add_constraint(&terms, Relation::Ge, instance.vsb_time(c) as f64);
    }
    // (3c): Σ_k a_ik ≤ 1; characters too wide/tall are excluded.
    for (ai, &fits) in a.iter().zip(&fits) {
        let terms: Vec<_> = ai.iter().map(|&v| (v, 1.0)).collect();
        lp.add_constraint(&terms, Relation::Le, if fits { 1.0 } else { 0.0 });
    }
    // Valid capacity cuts (not in the paper's formulation, but implied by
    // Lemma 1): a row cannot hold characters whose left- or right-reduced
    // widths exceed the stencil width. These strengthen the otherwise
    // big-M-weak LP relaxation so branch & bound can prove bounds.
    for k in 0..m {
        for reduce_left in [true, false] {
            let terms: Vec<_> = (0..n)
                .filter(|&i| fits[i])
                .map(|i| {
                    let c = instance.char(i);
                    let red = if reduce_left {
                        c.width() - c.blanks().left
                    } else {
                        c.width() - c.blanks().right
                    };
                    (a[i][k], red as f64)
                })
                .collect();
            lp.add_constraint(&terms, Relation::Le, w);
        }
    }
    // (3d)/(3e) per pair of fitting characters and row.
    for i in (0..n).filter(|&i| fits[i]) {
        for j in ((i + 1)..n).filter(|&j| fits[j]) {
            let pij = p[i][j].unwrap();
            let ci = instance.char(i);
            let cj = instance.char(j);
            let wij = overlap::paired_width(ci, cj) as f64;
            let wji = overlap::paired_width(cj, ci) as f64;
            for k in 0..m {
                // x_i + w_ij − x_j ≤ W(2 + p_ij − a_ik − a_jk)
                lp.add_constraint(
                    &[
                        (x[i], 1.0),
                        (x[j], -1.0),
                        (p[i][j].unwrap(), -big_w),
                        (a[i][k], big_w),
                        (a[j][k], big_w),
                    ],
                    Relation::Le,
                    2.0 * big_w - wij,
                );
                // x_j + w_ji − x_i ≤ W(3 − p_ij − a_ik − a_jk)
                lp.add_constraint(
                    &[
                        (x[j], 1.0),
                        (x[i], -1.0),
                        (pij, big_w),
                        (a[i][k], big_w),
                        (a[j][k], big_w),
                    ],
                    Relation::Le,
                    3.0 * big_w - wji,
                );
            }
        }
    }

    let mut integers: Vec<VarId> = a.iter().flatten().copied().collect();
    for i in 0..n {
        for j in (i + 1)..n {
            integers.push(p[i][j].unwrap());
        }
    }
    let binary_vars = integers.len();

    // Warm start: seed with an E-BLOW plan mapped into (3)'s variables.
    let seed = crate::oned::Eblow1d::default()
        .plan(instance)
        .ok()
        .map(|plan| {
            let mut v = vec![0.0f64; lp.num_vars()];
            let mut xs = vec![0.0f64; n];
            for (k, row) in plan.placement.rows().iter().enumerate() {
                for (pos, id) in row.order().iter().enumerate() {
                    v[a[id.index()][k].index()] = 1.0;
                    xs[id.index()] = row.packed_positions(instance)[pos] as f64;
                }
            }
            for i in 0..n {
                v[x[i].index()] = xs[i];
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    // p_ij = 1 ⇔ i right of j; order by packed x positions.
                    v[p[i][j].unwrap().index()] = if xs[i] <= xs[j] { 0.0 } else { 1.0 };
                }
            }
            v[t_total.index()] = plan.total_time as f64;
            v
        });

    let solver = BranchBound::new(MilpConfig { time_limit });
    let sol = solver.solve_with_incumbent(&lp, &integers, seed.as_deref());

    let mut outcome = IlpOutcome {
        status: sol.status,
        total_time: None,
        selected: Vec::new(),
        binary_vars,
        nodes: sol.nodes,
        elapsed: started.elapsed(),
        placement_1d: None,
        placement_2d: None,
    };
    if matches!(sol.status, MilpStatus::Optimal | MilpStatus::Feasible) {
        // Reconstruct rows ordered by x.
        let mut rows: Vec<Vec<(f64, usize)>> = vec![Vec::new(); m];
        for i in 0..n {
            for k in 0..m {
                if sol.values[a[i][k].index()] > 0.5 {
                    rows[k].push((sol.values[x[i].index()], i));
                    outcome.selected.push(i);
                }
            }
        }
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|mut r| {
                sort_row_by_x(&mut r);
                Row::from_order(r.into_iter().map(|(_, i)| CharId::from(i)).collect())
            })
            .collect();
        let placement = Placement1d::from_rows(rows);
        let sel = placement.selection(n);
        outcome.total_time = Some(instance.total_writing_time(&sel));
        outcome.placement_1d = Some(placement);
    }
    Ok(outcome)
}

/// Builds and solves formulation (7) for a 2D instance.
// audit:allow(stop-flag-reachability): bounded O(n²) model build on Table-5-sized instances; the solve enforces time_limit internally
pub fn solve_ilp_2d(instance: &Instance, time_limit: Duration) -> IlpOutcome {
    let started = std::time::Instant::now();
    let n = instance.num_chars();
    let w = instance.stencil().width() as f64;
    let h = instance.stencil().height() as f64;
    let fits: Vec<bool> = (0..n)
        .map(|i| {
            let c = instance.char(i);
            c.width() <= instance.stencil().width() && c.height() <= instance.stencil().height()
        })
        .collect();

    let mut lp = LpProblem::minimize();
    let t_total = lp.add_var(0.0, f64::INFINITY, 1.0);
    let a: Vec<VarId> = (0..n).map(|_| lp.add_binary(0.0)).collect();
    let x: Vec<VarId> = (0..n)
        .map(|i| lp.add_var(0.0, (w - instance.char(i).width() as f64).max(0.0), 0.0))
        .collect();
    let y: Vec<VarId> = (0..n)
        .map(|i| lp.add_var(0.0, (h - instance.char(i).height() as f64).max(0.0), 0.0))
        .collect();
    let mut pq: Vec<Vec<Option<(VarId, VarId)>>> = vec![vec![None; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            pq[i][j] = Some((lp.add_binary(0.0), lp.add_binary(0.0)));
        }
    }

    // (7a)
    for c in 0..instance.num_regions() {
        let mut terms = vec![(t_total, 1.0)];
        for (i, &ai) in a.iter().enumerate() {
            let r = instance.reduction(i, c) as f64;
            if r != 0.0 {
                terms.push((ai, r));
            }
        }
        lp.add_constraint(&terms, Relation::Ge, instance.vsb_time(c) as f64);
    }
    // Exclusions for characters that cannot fit at all.
    for i in (0..n).filter(|&i| !fits[i]) {
        lp.set_bounds(a[i], 0.0, 0.0);
    }
    // Valid area cut: trimming each character's left/bottom blanks leaves
    // pairwise-disjoint regions inside the stencil, so their areas sum to
    // at most W·H. Strengthens the big-M LP bound considerably.
    {
        let terms: Vec<_> = (0..n)
            .filter(|&i| fits[i])
            .map(|i| {
                // In f64: the rounded product is the same wherever the
                // `u64` one fits, and a row-structured stencil's sides
                // may reach 2⁶⁴.
                let c = instance.char(i);
                let width = (c.width() - c.blanks().left) as f64;
                (a[i], width * (c.height() - c.blanks().bottom) as f64)
            })
            .collect();
        lp.add_constraint(&terms, Relation::Le, w * h);
    }
    // (7b)–(7e) per unordered pair of fitting characters.
    // audit:allow(stop-flag-coverage): bounded O(n²) model build on the Table-5-sized instances ilp2d supports; the solve itself honors time_limit
    for i in (0..n).filter(|&i| fits[i]) {
        // audit:allow(stop-flag-coverage): same bounded model build as the enclosing loop
        for j in ((i + 1)..n).filter(|&j| fits[j]) {
            let (pij, qij) = pq[i][j].unwrap();
            let ci = instance.char(i);
            let cj = instance.char(j);
            let wij = overlap::paired_width(ci, cj) as f64;
            let wji = overlap::paired_width(cj, ci) as f64;
            let hij = (ci.height() - overlap::v_overlap(ci, cj)) as f64;
            let hji = (cj.height() - overlap::v_overlap(cj, ci)) as f64;
            // (7b): x_i + w_ij ≤ x_j + W(2 + p + q − a_i − a_j)
            lp.add_constraint(
                &[
                    (x[i], 1.0),
                    (x[j], -1.0),
                    (pij, -w),
                    (qij, -w),
                    (a[i], w),
                    (a[j], w),
                ],
                Relation::Le,
                2.0 * w - wij,
            );
            // (7c): x_j + w_ji ≤ x_i + W(3 + p − q − a_i − a_j)
            lp.add_constraint(
                &[
                    (x[j], 1.0),
                    (x[i], -1.0),
                    (pij, -w),
                    (qij, w),
                    (a[i], w),
                    (a[j], w),
                ],
                Relation::Le,
                3.0 * w - wji,
            );
            // (7d): y_i + h_ij ≤ y_j + H(3 − p + q − a_i − a_j)
            lp.add_constraint(
                &[
                    (y[i], 1.0),
                    (y[j], -1.0),
                    (pij, h),
                    (qij, -h),
                    (a[i], h),
                    (a[j], h),
                ],
                Relation::Le,
                3.0 * h - hij,
            );
            // (7e): y_j + h_ji ≤ y_i + H(4 − p − q − a_i − a_j)
            lp.add_constraint(
                &[
                    (y[j], 1.0),
                    (y[i], -1.0),
                    (pij, h),
                    (qij, h),
                    (a[i], h),
                    (a[j], h),
                ],
                Relation::Le,
                4.0 * h - hji,
            );
        }
    }

    let mut integers: Vec<VarId> = a.clone();
    for i in 0..n {
        for j in (i + 1)..n {
            let (pij, qij) = pq[i][j].unwrap();
            integers.push(pij);
            integers.push(qij);
        }
    }
    let binary_vars = integers.len();

    // Warm start from an E-BLOW 2D plan mapped into (7)'s variables.
    let seed = crate::twod::Eblow2d::default()
        .plan(instance)
        .ok()
        .map(|plan| {
            let mut v = vec![0.0f64; lp.num_vars()];
            let mut pos: Vec<Option<(i64, i64)>> = vec![None; n];
            for pc in plan.placement.placed() {
                pos[pc.id.index()] = Some((pc.x, pc.y));
                v[a[pc.id.index()].index()] = 1.0;
                v[x[pc.id.index()].index()] = pc.x as f64;
                v[y[pc.id.index()].index()] = pc.y as f64;
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    let (pij, qij) = pq[i][j].unwrap();
                    // Choose (p, q) activating a satisfied separation:
                    // (0,0)→i left, (0,1)→j left, (1,0)→i below, (1,1)→i above.
                    let (pv, qv) = match (pos[i], pos[j]) {
                        (Some((xi, yi)), Some((xj, yj))) => {
                            let ci = instance.char(i);
                            let cj = instance.char(j);
                            let wij = overlap::paired_width(ci, cj) as i64;
                            let wji = overlap::paired_width(cj, ci) as i64;
                            let hij = (ci.height() - overlap::v_overlap(ci, cj)) as i64;
                            let hji = (cj.height() - overlap::v_overlap(cj, ci)) as i64;
                            if xi + wij <= xj {
                                (0.0, 0.0)
                            } else if xj + wji <= xi {
                                (0.0, 1.0)
                            } else if yi + hij <= yj {
                                (1.0, 0.0)
                            } else {
                                debug_assert!(yj + hji <= yi, "plan must be legal");
                                (1.0, 1.0)
                            }
                        }
                        _ => (0.0, 0.0),
                    };
                    v[pij.index()] = pv;
                    v[qij.index()] = qv;
                }
            }
            v[t_total.index()] = plan.total_time as f64;
            v
        });

    let solver = BranchBound::new(MilpConfig { time_limit });
    let sol = solver.solve_with_incumbent(&lp, &integers, seed.as_deref());

    let mut outcome = IlpOutcome {
        status: sol.status,
        total_time: None,
        selected: Vec::new(),
        binary_vars,
        nodes: sol.nodes,
        elapsed: started.elapsed(),
        placement_1d: None,
        placement_2d: None,
    };
    if matches!(sol.status, MilpStatus::Optimal | MilpStatus::Feasible) {
        let mut placement = Placement2d::new();
        for i in 0..n {
            if sol.values[a[i].index()] > 0.5 {
                outcome.selected.push(i);
                placement.push(eblow_model::PlacedChar {
                    id: CharId::from(i),
                    x: sol.values[x[i].index()].round() as i64,
                    y: sol.values[y[i].index()].round() as i64,
                });
            }
        }
        let sel = placement.selection(n);
        outcome.total_time = Some(instance.total_writing_time(&sel));
        outcome.placement_2d = Some(placement);
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Character, Stencil};

    /// 3 symmetric chars of width 40, blanks 10, one row of length 100:
    /// any two fit (40+40−10 = 70 ≤ 100), three do not (70+30=100... they
    /// do fit exactly! width = 3·40 − 2·10 = 100). Use W=95 so only two fit.
    fn tiny_1d() -> Instance {
        let chars = vec![
            Character::new(40, 40, [10, 10, 0, 0], 10).unwrap(),
            Character::new(40, 40, [10, 10, 0, 0], 8).unwrap(),
            Character::new(40, 40, [10, 10, 0, 0], 6).unwrap(),
        ];
        Instance::new(
            Stencil::with_rows(95, 40, 40).unwrap(),
            chars,
            vec![vec![1], vec![1], vec![1]],
        )
        .unwrap()
    }

    #[test]
    fn ilp_1d_finds_optimum_on_tiny_case() {
        let inst = tiny_1d();
        let out = solve_ilp_1d(&inst, Duration::from_secs(60)).unwrap();
        assert_eq!(out.status, MilpStatus::Optimal);
        // T_VSB = 10+8+6 = 24. Best: select chars 0,1 → 24 − 9 − 7 = 8.
        assert_eq!(out.total_time, Some(8));
        assert_eq!(out.selected.len(), 2);
        let placement = out.placement_1d.unwrap();
        placement.validate(&inst).unwrap();
        // binary count: a_ik (3) + p_ij (3) = 6
        assert_eq!(out.binary_vars, 6);
    }

    #[test]
    fn row_reconstruction_survives_nan_x() {
        // Regression for the NaN-unsafe `partial_cmp().unwrap()` sort in
        // the row reconstruction: NaN coordinates must order stably (after
        // every finite value, ties by index), not panic.
        let mut r = vec![(f64::NAN, 2), (1.0, 1), (f64::NAN, 0), (0.5, 3)];
        sort_row_by_x(&mut r);
        assert_eq!(
            r.iter().map(|&(_, i)| i).collect::<Vec<_>>(),
            vec![3, 1, 0, 2]
        );
    }

    #[test]
    fn ilp_1d_rejects_2d_instance() {
        let chars = vec![Character::new(10, 10, [1, 1, 1, 1], 2).unwrap()];
        let inst = Instance::new(Stencil::new(50, 50).unwrap(), chars, vec![vec![1]]).unwrap();
        assert!(solve_ilp_1d(&inst, Duration::from_secs(1)).is_err());
    }

    #[test]
    fn ilp_2d_finds_optimum_on_tiny_case() {
        // 2 chars 40×40 with blanks 10 on a 70×70 stencil: both fit by
        // sharing (40+40−10 = 70).
        let chars = vec![
            Character::new(40, 40, [10, 10, 10, 10], 10).unwrap(),
            Character::new(40, 40, [10, 10, 10, 10], 9).unwrap(),
        ];
        let inst =
            Instance::new(Stencil::new(70, 70).unwrap(), chars, vec![vec![1], vec![1]]).unwrap();
        let out = solve_ilp_2d(&inst, Duration::from_secs(60));
        assert_eq!(out.status, MilpStatus::Optimal);
        // T_VSB = 19; both selected → 19 − 9 − 8 = 2.
        assert_eq!(out.total_time, Some(2));
        let placement = out.placement_2d.unwrap();
        placement.validate(&inst).unwrap();
        assert_eq!(out.binary_vars, 2 + 2);
    }

    #[test]
    fn ilp_2d_respects_outline_when_sharing_insufficient() {
        // 69×69 stencil: two 40-wide chars cannot coexist (need 70).
        let chars = vec![
            Character::new(40, 40, [10, 10, 10, 10], 10).unwrap(),
            Character::new(40, 40, [10, 10, 10, 10], 9).unwrap(),
        ];
        let inst =
            Instance::new(Stencil::new(69, 69).unwrap(), chars, vec![vec![1], vec![1]]).unwrap();
        let out = solve_ilp_2d(&inst, Duration::from_secs(60));
        assert_eq!(out.status, MilpStatus::Optimal);
        // Only the higher-saving char selected: 19 − 9 = 10.
        assert_eq!(out.total_time, Some(10));
        assert_eq!(out.selected, vec![0]);
    }

    #[test]
    fn time_limit_produces_na() {
        let inst = tiny_1d();
        let out = solve_ilp_1d(&inst, Duration::from_nanos(1)).unwrap();
        assert!(matches!(
            out.status,
            MilpStatus::TimedOut | MilpStatus::Feasible
        ));
        if out.status == MilpStatus::TimedOut {
            assert_eq!(out.total_time, None); // the paper's "NA"
        }
    }
}
