//! LP oracle for the simplified 1D formulation (4).
//!
//! The successive-rounding loop needs the LP relaxation of
//!
//! ```text
//! max  Σ_i Σ_j profit_i · a_ij
//! s.t. Σ_i (w_i − s_i) · a_ij ≤ W − B_j      ∀ rows j     (4a)
//!      B_j ≥ s_i · a_ij                       ∀ i, j       (4b)
//!      Σ_j a_ij ≤ 1                           ∀ i          (4c)
//!      0 ≤ a_ij ≤ 1
//! ```
//!
//! at MCC scale (`n·m` up to 200 000 variables) — far beyond a dense
//! tableau. The paper itself proves the structure we exploit: §3.1 shows
//! (4) is a multiple-knapsack program (5) up to the `B_j ≈ maxs`
//! approximation (Lemmas 3-4). For a *fixed* `B_j` vector, the relaxation
//! decomposes into a fractional multiple knapsack whose optimal vertex is
//! the density-greedy fill (items sorted by `profit_i / (w_i − s_i)`,
//! split only at row boundaries). We wrap that exact combinatorial solve in
//! a fixed-point loop on `B_j` (which only grows, so it converges in a few
//! passes). The result has the vertex shape the paper reports in Fig. 6 —
//! almost all `a_ij ∈ {0, 1}`, a few fractional at row boundaries.
//!
//! Every solve stands alone: it computes each item's density once and
//! sorts, whatever the previous solve of successive rounding's shrinking
//! sequence returned. Seeding the sort with that solve's order moved no
//! plan and no end-to-end wall (README, *Performance*), so no state is
//! carried between solves.

use crate::profit::RegionTimes;
use eblow_model::Instance;

/// One unsolved item of the knapsack relaxation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MkpItem {
    /// Index of the character in the instance (for reporting).
    pub char_index: usize,
    /// Effective width `w_i − s_i` under the S-Blank assumption.
    pub eff_width: u64,
    /// Symmetric blank `s_i`.
    pub blank: u64,
    /// Dynamic profit (Eqn. (6)); items with non-positive profit stay at 0.
    pub profit: f64,
}

impl MkpItem {
    /// One character of `instance` priced with the current region times.
    pub fn of_char(instance: &Instance, region_times: &RegionTimes, i: usize) -> MkpItem {
        let c = instance.char(i);
        MkpItem {
            char_index: i,
            eff_width: c.effective_width(),
            blank: c.symmetric_blank(),
            profit: region_times.profit(instance, i),
        }
    }

    /// The first-iteration item set of the 1D pipeline: every character
    /// that physically fits a row (the same eligibility filter
    /// [`Eblow1d`](super::Eblow1d) applies), priced with fresh region
    /// times. The canonical construction for cross-backend comparisons —
    /// `eblow-eval agree`, the facade agreement test, and the oracle
    /// property test all consume this, so they cross-check the *same* LP.
    ///
    /// Returns an empty set for non-row-structured instances.
    pub fn initial_set(instance: &Instance) -> Vec<MkpItem> {
        let Some(row_height) = instance.stencil().row_height() else {
            return Vec::new();
        };
        let w = instance.stencil().width();
        let region_times = RegionTimes::new(instance);
        (0..instance.num_chars())
            .filter(|&i| {
                let c = instance.char(i);
                c.height() <= row_height && c.width() <= w
            })
            .map(|i| MkpItem::of_char(instance, &region_times, i))
            .collect()
    }
}

/// Positive-profit item indices in density order (profit per effective µm,
/// descending; ties break by `char_index`): the fill order of the greedy
/// vertex. Each density is computed once, before the sort, and
/// (density, `char_index`) is a strict total order, so the sorted output
/// is unique.
///
/// `total_cmp` (not `partial_cmp().unwrap()`) keeps the sort panic-free
/// even for hostile non-finite profits; NaN profits fail the `> 0.0`
/// filter and never enter the order at all.
fn density_order(items: &[MkpItem]) -> Vec<usize> {
    let densities: Vec<f64> = items
        .iter()
        .map(|it| it.profit / it.eff_width.max(1) as f64)
        .collect();
    let mut order: Vec<usize> = (0..items.len())
        .filter(|&k| items[k].profit > 0.0)
        .collect();
    order.sort_by(|&a, &b| {
        densities[b]
            .total_cmp(&densities[a])
            .then(items[a].char_index.cmp(&items[b].char_index))
    });
    order
}

/// Per-row state the LP must respect: already-committed usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowBase {
    /// `Σ (w_i − s_i)` over committed characters.
    pub eff_used: u64,
    /// `max s_i` over committed characters (0 when empty).
    pub max_blank: u64,
}

/// Fractional LP solution: assignments per item.
#[derive(Debug, Clone)]
pub struct MkpLpSolution {
    /// `fracs[k]` lists `(row, a_kj)` with `a_kj > 0` for item `k`.
    pub fracs: Vec<Vec<(usize, f64)>>,
    /// Largest `a_kj` per item (0 when unassigned).
    pub max_frac: Vec<f64>,
    /// Row achieving `max_frac` (meaningless when `max_frac == 0`).
    pub argmax_row: Vec<usize>,
    /// LP objective `Σ profit_i Σ_j a_ij`.
    pub objective: f64,
    /// Final `B_j` estimates used by the last pass.
    pub blanks: Vec<u64>,
}

/// Solves the LP relaxation of formulation (4) for the given unsolved items
/// against rows with capacity `W`, respecting committed content.
///
/// Deterministic: ties in density order break by `char_index`.
// audit:allow(stop-flag-reachability): fixed four-pass fixed point, O(items) per pass; the rounding loop around the oracle polls the flag
pub fn solve_mkp_lp(items: &[MkpItem], base: &[RowBase], stencil_w: u64) -> MkpLpSolution {
    let n = items.len();
    let m = base.len();
    let mut fracs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let mut blanks: Vec<u64> = base.iter().map(|b| b.max_blank).collect();
    if n == 0 || m == 0 {
        return finish(items, fracs, blanks);
    }
    // Degenerate capacity: when the committed content (or a stencil
    // narrower than every committed row's blank — the underflow-prone
    // `W − B_j` edge) leaves no row any room, the fixed-point passes would
    // churn through the full density order placing nothing. Return the
    // empty solution immediately.
    if (0..m).all(|j| stencil_w <= base[j].eff_used + base[j].max_blank) {
        return finish(items, fracs, blanks);
    }

    // Density order (profit per effective µm), positive-profit items only.
    let order = density_order(items);

    // B_j fixed point: capacities shrink as blank estimates grow.
    // audit:allow(stop-flag-coverage): fixed four-pass fixed point, O(items) per pass; the rounding loop around the oracle polls the flag
    for _pass in 0..4 {
        for f in fracs.iter_mut() {
            f.clear();
        }
        let caps: Vec<f64> = (0..m)
            .map(|j| stencil_w.saturating_sub(base[j].eff_used + blanks[j]) as f64)
            .collect();
        // Greedy fill: walk rows in order, splitting items at boundaries.
        let mut row = 0usize;
        let mut room = caps.first().copied().unwrap_or(0.0);
        let mut new_blanks = blanks.clone();
        'items: for &k in &order {
            let w = items[k].eff_width.max(1) as f64;
            let mut remaining = 1.0f64;
            while remaining > 1e-12 {
                if room <= 1e-9 {
                    row += 1;
                    if row >= m {
                        break 'items;
                    }
                    room = caps[row];
                    continue;
                }
                let take = remaining.min(room / w);
                if take > 1e-12 {
                    fracs[k].push((row, take));
                    new_blanks[row] = new_blanks[row].max(items[k].blank);
                    room -= take * w;
                    remaining -= take;
                } else {
                    // Row too full for any share of this item.
                    row += 1;
                    if row >= m {
                        break 'items;
                    }
                    room = caps[row];
                }
            }
        }
        if new_blanks == blanks {
            break;
        }
        blanks = new_blanks;
    }
    finish(items, fracs, blanks)
}

/// Assembles an [`MkpLpSolution`] from raw per-item fractions: recomputes
/// the derived fields (`max_frac`, `argmax_row`, `objective`). Shared with
/// the other LP oracle backends so every backend derives the invariant
/// fields identically.
pub(crate) fn finish(
    items: &[MkpItem],
    fracs: Vec<Vec<(usize, f64)>>,
    blanks: Vec<u64>,
) -> MkpLpSolution {
    let n = items.len();
    let mut max_frac = vec![0.0f64; n];
    let mut argmax_row = vec![0usize; n];
    let mut objective = 0.0;
    for k in 0..n {
        for &(j, f) in &fracs[k] {
            objective += items[k].profit * f;
            if f > max_frac[k] {
                max_frac[k] = f;
                argmax_row[k] = j;
            }
        }
    }
    MkpLpSolution {
        fracs,
        max_frac,
        argmax_row,
        objective,
        blanks,
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

    #[test]
    fn fills_by_density_and_splits_at_boundaries() {
        // Two rows of capacity 100 − blanks. Items sized 60: one splits.
        let items = vec![
            item(0, 60, 5, 120.0), // density 2.0
            item(1, 60, 5, 90.0),  // density 1.5
            item(2, 60, 5, 60.0),  // density 1.0
        ];
        let base = vec![RowBase::default(); 2];
        let sol = solve_mkp_lp(&items, &base, 100);
        // caps = 95 each (blank fixpoint raises B to 5).
        assert_eq!(sol.blanks, vec![5, 5]);
        // item0 fully in row0 (95-60=35 room), item1 split 35/60 in row0,
        // rest in row1, item2 split with what remains.
        assert!((sol.max_frac[0] - 1.0).abs() < 1e-9);
        let f1: f64 = sol.fracs[1].iter().map(|&(_, f)| f).sum();
        assert!((f1 - 1.0).abs() < 1e-9, "item1 fully placed across rows");
        // item2 also fits fully: row1 has 95 − 25 = 70 ≥ 60 left after
        // item1's spill-over.
        let f2: f64 = sol.fracs[2].iter().map(|&(_, f)| f).sum();
        assert!((f2 - 1.0).abs() < 1e-9, "item2 fits in row1's leftover");
        let used: f64 = (0..3)
            .flat_map(|k| sol.fracs[k].iter().map(move |&(_, f)| f * 60.0))
            .sum();
        assert!((used - 180.0).abs() < 1e-6);
    }

    #[test]
    fn objective_matches_fractional_greedy_upper_bound() {
        // Aggregate capacity argument: LP objective equals greedy value.
        let items = vec![
            item(0, 30, 4, 90.0),
            item(1, 20, 4, 40.0),
            item(2, 50, 4, 75.0),
            item(3, 10, 4, 12.0),
        ];
        let base = vec![RowBase::default(); 2];
        let w = 50u64;
        let sol = solve_mkp_lp(&items, &base, w);
        // caps = 46 per row after blank 4. densities: 3.0, 2.0, 1.5, 1.2
        // fill: item0 (30) → row0 room 16; item1 split 16/20 → row1 4/20;
        // row1 room 46-? ... just trust the invariant: greedy on aggregate.
        let mut order = [0usize, 1, 2, 3];
        // `total_cmp`: even oracle code in tests keeps comparators NaN-total.
        order.sort_by(|&a, &b| {
            (items[b].profit / items[b].eff_width as f64)
                .total_cmp(&(items[a].profit / items[a].eff_width as f64))
        });
        let mut room = 2.0 * 46.0;
        let mut best = 0.0;
        for &k in &order {
            let take = (room / items[k].eff_width as f64).min(1.0);
            best += take * items[k].profit;
            room -= take * items[k].eff_width as f64;
            if room <= 0.0 {
                break;
            }
        }
        assert!(
            (sol.objective - best).abs() < 1e-6,
            "lp {} vs greedy {best}",
            sol.objective
        );
    }

    #[test]
    fn respects_committed_usage() {
        let items = vec![item(0, 40, 6, 10.0)];
        let base = vec![RowBase {
            eff_used: 70,
            max_blank: 8,
        }];
        // cap = 100 − 70 − 8 = 22 < 40 → only a fraction fits.
        let sol = solve_mkp_lp(&items, &base, 100);
        assert!(sol.max_frac[0] > 0.0 && sol.max_frac[0] < 1.0);
        assert!((sol.max_frac[0] - 22.0 / 40.0).abs() < 1e-9);
    }

    #[test]
    fn nonpositive_profit_items_stay_zero() {
        let items = vec![item(0, 10, 2, 0.0), item(1, 10, 2, -5.0)];
        let base = vec![RowBase::default()];
        let sol = solve_mkp_lp(&items, &base, 100);
        assert_eq!(sol.max_frac, vec![0.0, 0.0]);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn blank_fixpoint_grows_monotonically() {
        // A big-blank item forces the row's B up, shrinking capacity for
        // everyone; the fixpoint must account for it.
        let items = vec![item(0, 30, 20, 100.0), item(1, 30, 2, 99.0)];
        let base = vec![RowBase::default()];
        let sol = solve_mkp_lp(&items, &base, 62);
        // After B=20: cap = 42 → item0 fits (30), item1 gets 12/30.
        assert_eq!(sol.blanks, vec![20]);
        assert!((sol.max_frac[0] - 1.0).abs() < 1e-9);
        assert!(sol.max_frac[1] < 0.5);
    }

    #[test]
    fn stencil_narrower_than_committed_blanks_returns_empty() {
        // Regression: W smaller than every committed row's max_blank used
        // to walk the whole density order against zero-capacity rows; it
        // must return the empty solution (and certainly never underflow
        // `W − B_j`).
        let items: Vec<MkpItem> = (0..50).map(|i| item(i, 10, 2, 5.0)).collect();
        let base = vec![
            RowBase {
                eff_used: 0,
                max_blank: 30,
            };
            3
        ];
        let sol = solve_mkp_lp(&items, &base, 20);
        assert_eq!(sol.objective, 0.0);
        assert!(sol.fracs.iter().all(Vec::is_empty));
        assert_eq!(sol.blanks, vec![30, 30, 30]);

        // Fully committed rows (eff_used alone ≥ W) hit the same early out.
        let base = vec![RowBase {
            eff_used: 25,
            max_blank: 0,
        }];
        let sol = solve_mkp_lp(&items, &base, 20);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn nan_profit_items_are_excluded_without_panicking() {
        // Regression for the NaN-unsafe `partial_cmp().unwrap()` sort: a
        // NaN-profit item must neither panic the density order nor be
        // assigned anything.
        let items = vec![
            item(0, 10, 2, f64::NAN),
            item(1, 10, 2, 5.0),
            item(2, 12, 2, 7.0),
        ];
        let base = vec![RowBase::default()];
        let sol = solve_mkp_lp(&items, &base, 100);
        assert_eq!(sol.max_frac[0], 0.0, "NaN item stays unassigned");
        assert!(sol.fracs[0].is_empty());
        assert!((sol.max_frac[1] - 1.0).abs() < 1e-9);
        assert!(sol.objective.is_finite());
        assert_eq!(density_order(&items), vec![2, 1]);
    }

    #[test]
    fn empty_inputs() {
        let sol = solve_mkp_lp(&[], &[RowBase::default()], 100);
        assert_eq!(sol.objective, 0.0);
        let sol = solve_mkp_lp(&[item(0, 10, 1, 5.0)], &[], 100);
        assert_eq!(sol.max_frac, vec![0.0]);
    }

    #[test]
    fn solution_is_lp_feasible() {
        // Σ_j a_ij ≤ 1, row capacities respected with final blanks.
        let items: Vec<MkpItem> = (0..40)
            .map(|i| {
                item(
                    i,
                    10 + (i as u64 * 7) % 30,
                    2 + (i as u64) % 9,
                    1.0 + i as f64,
                )
            })
            .collect();
        let base = vec![RowBase::default(); 3];
        let w = 120u64;
        let sol = solve_mkp_lp(&items, &base, w);
        let mut row_load = [0.0f64; 3];
        for (k, fr) in sol.fracs.iter().enumerate() {
            let total: f64 = fr.iter().map(|&(_, f)| f).sum();
            assert!(total <= 1.0 + 1e-9);
            for &(j, f) in fr {
                row_load[j] += f * items[k].eff_width as f64;
                assert!(items[k].blank <= sol.blanks[j]);
            }
        }
        for j in 0..3 {
            assert!(row_load[j] <= (w - sol.blanks[j]) as f64 + 1e-6);
        }
    }
}
