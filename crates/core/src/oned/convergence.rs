//! Fast ILP convergence (paper §3.3, Algorithm 2).
//!
//! When successive rounding slows down — late iterations commit only a few
//! characters each — E-BLOW stops rounding early and settles the remaining
//! assignment in one pass: LP values below `Lth` are fixed to 0, values
//! above `Uth` are committed to 1, and only the (few) pairs in between go
//! to a residual. Fig. 6 of the paper shows why this works: the final LP's
//! values cluster near 0, so the residual holds on the order of a hundred
//! pairs even when the LP had thousands.
//!
//! The paper solves that residual as a small ILP whose row capacity is the
//! S-Blank model (4a). Near capacity (4a) accepts picks that exact
//! admission ([`RowState::admits`]) refuses, so an ILP-optimal residual
//! can be uncommittable. The residual is instead walked greedily in
//! decreasing dynamic profit against the exact admission test: every pick
//! it makes is committable by construction, and the pass costs one
//! admission probe per pair.

use super::mkp_lp::{MkpItem, MkpLpSolution, RowBase};
use super::oracle::LpOracle;
use super::rounding::{commit_lp_row_first, RowState};
use crate::cancel::StopFlag;
use crate::profit::RegionTimes;
use eblow_model::{CharId, Instance};

/// Middle-band pairs handed to the residual across runs (counter
/// `converge.ilp_vars`).
static CONVERGE_ILP_VARS: eblow_trace::Counter = eblow_trace::Counter::new("converge.ilp_vars");
/// Characters committed by the `a_ij > Uth` shortcut (counter
/// `converge.by_threshold`).
static CONVERGE_BY_THRESHOLD: eblow_trace::Counter =
    eblow_trace::Counter::new("converge.by_threshold");
/// Characters committed by the residual (counter `converge.by_ilp`).
static CONVERGE_BY_ILP: eblow_trace::Counter = eblow_trace::Counter::new("converge.by_ilp");

/// Tunables for Algorithm 2.
#[derive(Debug, Clone, Copy)]
pub struct ConvergenceConfig {
    /// LP values below this are fixed to 0 (paper: 0.1).
    pub lth: f64,
    /// LP values above this are committed to 1 (paper: 0.9).
    pub uth: f64,
    /// Cap on residual pairs; the lowest-value pairs beyond the cap are
    /// dropped (they get another chance in the post stages).
    pub max_vars: usize,
}

impl Default for ConvergenceConfig {
    fn default() -> Self {
        ConvergenceConfig {
            lth: 0.1,
            uth: 0.9,
            max_vars: 800,
        }
    }
}

/// Statistics of one convergence run (reported by the eval harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConvergenceStats {
    /// Characters committed by the `a_ij > Uth` shortcut.
    pub committed_by_threshold: usize,
    /// Middle-band `(item, row)` pairs handed to the residual (the paper's
    /// residual ILP binaries).
    pub ilp_vars: usize,
    /// Characters committed by the residual.
    pub committed_by_ilp: usize,
}

/// Runs Algorithm 2: threshold-commit, then an exact-admission residual
/// over the middle-band pairs. Mutates `rows` and `region_times` in place
/// and returns the set of characters that remain unplaced plus statistics.
///
/// `lp` is the fractional solution Algorithm 1 left behind, aligned with
/// `items`. Pass `None` to have `oracle` solve it here from the current row
/// state — the standalone mode that lets Algorithm 2 run even when rounding
/// ended without an LP (cancelled before the first iteration, or its
/// backend refused). If that solve fails too, everything stays unplaced.
///
/// The residual visits the middle-band pairs in decreasing dynamic profit
/// (ties: higher LP value, then lower pair index) and commits a pair to its
/// LP row only when [`RowState::admits`] accepts it there. When `stop` is
/// raised the (cheap) threshold pass still runs, and the residual ends at
/// its next pick; the pairs it did not reach go back to the unplaced pool.
#[allow(clippy::too_many_arguments)] // mirrors Algorithm 2's inputs 1:1
pub fn fast_ilp_convergence<O: LpOracle + ?Sized>(
    instance: &Instance,
    rows: &mut [RowState],
    region_times: &mut RegionTimes,
    items: &[MkpItem],
    lp: Option<&MkpLpSolution>,
    config: &ConvergenceConfig,
    oracle: &O,
    stop: StopFlag<'_>,
) -> (Vec<usize>, ConvergenceStats) {
    let w = instance.stencil().width();
    let mut stats = ConvergenceStats::default();
    let mut placed = vec![false; items.len()];

    let solved_here;
    let lp: &MkpLpSolution = match lp {
        Some(lp) => lp,
        None => {
            let bases: Vec<RowBase> = rows.iter().map(RowState::base).collect();
            match oracle.solve_lp(items, &bases, w) {
                Ok(sol) => {
                    solved_here = sol;
                    &solved_here
                }
                Err(_) => {
                    let leftover = items.iter().map(|it| it.char_index).collect();
                    return (leftover, stats);
                }
            }
        }
    };

    // Pass 1: commit every a_kj > Uth (lines 5-8 of Algorithm 2).
    for k in 0..items.len() {
        let i = items[k].char_index;
        if lp.max_frac[k] > config.uth
            && commit_lp_row_first(rows, instance, CharId::from(i), lp.argmax_row[k], w)
        {
            region_times.select(instance, i);
            placed[k] = true;
            stats.committed_by_threshold += 1;
        }
    }

    // Middle band: pairs with Lth ≤ a_kj ≤ Uth (and unplaced items), the
    // `max_vars` highest LP values kept.
    let mut pairs: Vec<(usize, usize, f64)> = Vec::new(); // (item k, row j, a)
    for k in 0..items.len() {
        if placed[k] {
            continue;
        }
        for &(j, f) in &lp.fracs[k] {
            if f >= config.lth && f <= config.uth {
                pairs.push((k, j, f));
            }
        }
    }
    pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
    pairs.truncate(config.max_vars);

    if !pairs.is_empty() && !stop.is_set() {
        // Only count pairs the residual actually received — a run
        // cancelled before it starts walks nothing.
        stats.ilp_vars = pairs.len();
        // Visit in decreasing dynamic profit as priced after the threshold
        // pass (the paper's residual objective). `pairs` is already in
        // decreasing LP value, then pair index, so the stable sort keeps
        // both as tie-breaks.
        let mut residual: Vec<(f64, usize, usize)> = pairs
            .iter()
            .map(|&(k, j, _)| (region_times.profit(instance, items[k].char_index), k, j))
            .collect();
        residual.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (_, k, j) in residual {
            if stop.is_set() {
                break;
            }
            if placed[k] {
                continue;
            }
            let id = CharId::from(items[k].char_index);
            if rows[j].admits(instance, id, w) {
                rows[j].commit(instance, id);
                region_times.select(instance, items[k].char_index);
                placed[k] = true;
                stats.committed_by_ilp += 1;
            }
        }
    }

    let leftover: Vec<usize> = (0..items.len())
        .filter(|&k| !placed[k])
        .map(|k| items[k].char_index)
        .collect();
    CONVERGE_ILP_VARS.add(stats.ilp_vars as u64);
    CONVERGE_BY_THRESHOLD.add(stats.committed_by_threshold as u64);
    CONVERGE_BY_ILP.add(stats.committed_by_ilp as u64);
    eblow_trace::instant_with(
        "converge.done",
        stats.committed_by_threshold as i64,
        stats.committed_by_ilp as i64,
        || format!("ilp_vars={} leftover={}", stats.ilp_vars, leftover.len()),
    );
    (leftover, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oned::mkp_lp::{solve_mkp_lp, RowBase};
    use crate::oned::oracle::CombinatorialOracle;
    use eblow_model::{Character, Stencil};

    fn instance(n: usize) -> Instance {
        let chars: Vec<Character> = (0..n)
            .map(|i| Character::new(30, 40, [4, 4, 0, 0], 5 + i as u64).unwrap())
            .collect();
        let repeats = (0..n).map(|i| vec![1 + (i as u64 % 3)]).collect();
        Instance::new(Stencil::with_rows(100, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    fn items_for(inst: &Instance, rt: &RegionTimes) -> Vec<MkpItem> {
        (0..inst.num_chars())
            .map(|i| {
                let c = inst.char(i);
                MkpItem {
                    char_index: i,
                    eff_width: c.effective_width(),
                    blank: c.symmetric_blank(),
                    profit: rt.profit(inst, i),
                }
            })
            .collect()
    }

    #[test]
    fn commits_high_lp_values_and_solves_residual() {
        let inst = instance(8);
        let mut rows = vec![RowState::default(); 2];
        let mut rt = RegionTimes::new(&inst);
        let items = items_for(&inst, &rt);
        let bases: Vec<RowBase> = rows.iter().map(RowState::base).collect();
        let lp = solve_mkp_lp(&items, &bases, 100);
        let (leftover, stats) = fast_ilp_convergence(
            &inst,
            &mut rows,
            &mut rt,
            &items,
            Some(&lp),
            &Default::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        let placed: usize = rows.iter().map(|r| r.members.len()).sum();
        assert_eq!(placed + leftover.len(), 8);
        assert!(placed >= 4, "2×100 capacity fits ≥4 items of eff 26");
        assert!(stats.committed_by_threshold + stats.committed_by_ilp == placed);
        for r in &rows {
            assert!(r.width_estimate() <= 100);
        }
    }

    #[test]
    fn respects_existing_row_content() {
        let inst = instance(4);
        let mut rows = vec![RowState::default()];
        // Pre-fill the single row close to capacity with real characters
        // (the admission test re-runs the ordering DP over the members).
        rows[0].commit(&inst, CharId(0));
        rows[0].commit(&inst, CharId(1));
        let mut rt = RegionTimes::new(&inst);
        rt.select(&inst, 0);
        rt.select(&inst, 1);
        let items: Vec<MkpItem> = (2..4)
            .map(|i| {
                let c = inst.char(i);
                MkpItem {
                    char_index: i,
                    eff_width: c.effective_width(),
                    blank: c.symmetric_blank(),
                    profit: rt.profit(&inst, i),
                }
            })
            .collect();
        let bases: Vec<RowBase> = rows.iter().map(RowState::base).collect();
        let lp = solve_mkp_lp(&items, &bases, 100);
        let (_, _) = fast_ilp_convergence(
            &inst,
            &mut rows,
            &mut rt,
            &items,
            Some(&lp),
            &Default::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        // Row must stay within the stencil under the true DP width.
        let (_, width) = crate::oned::refine_row(&inst, &rows[0].members, 20);
        assert!(width <= 100);
        // 2×26 committed + blanks: exactly one more 26-eff char fits.
        assert!(rows[0].members.len() <= 3);
    }

    #[test]
    fn standalone_mode_solves_its_own_lp() {
        // `lp: None` → Algorithm 2 asks the oracle itself and can still
        // commit; the outcome must match handing it the same LP explicitly.
        let inst = instance(8);
        let mut rt = RegionTimes::new(&inst);
        let items = items_for(&inst, &rt);

        let mut rows_a = vec![RowState::default(); 2];
        let mut rt_a = rt.clone();
        let (left_a, stats_a) = fast_ilp_convergence(
            &inst,
            &mut rows_a,
            &mut rt_a,
            &items,
            None,
            &Default::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );

        let mut rows_b = vec![RowState::default(); 2];
        let bases: Vec<RowBase> = rows_b.iter().map(RowState::base).collect();
        let lp = solve_mkp_lp(&items, &bases, 100);
        let (left_b, stats_b) = fast_ilp_convergence(
            &inst,
            &mut rows_b,
            &mut rt,
            &items,
            Some(&lp),
            &Default::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        assert_eq!(left_a, left_b);
        assert_eq!(stats_a.ilp_vars, stats_b.ilp_vars);
    }

    /// Algorithm 1 then Algorithm 2 (with `config`) on `inst`, as the
    /// pipeline chains them; returns the final rows and the stage's stats.
    fn converge_after_rounding(
        inst: &Instance,
        config: &ConvergenceConfig,
    ) -> (Vec<RowState>, ConvergenceStats) {
        let eligible: Vec<usize> = (0..inst.num_chars()).collect();
        let mut out = crate::oned::successive_rounding(
            inst,
            &eligible,
            inst.num_rows().unwrap(),
            &Default::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        let lp = out.last_lp.take().expect("rounding leaves its last LP");
        let (_, stats) = fast_ilp_convergence(
            inst,
            &mut out.rows,
            &mut out.region_times,
            &out.last_items,
            Some(&lp),
            config,
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        (out.rows, stats)
    }

    #[test]
    fn every_residual_commit_keeps_its_row_within_the_stencil() {
        // On 1M-4 the residual commits characters that rounding left
        // behind; each must leave its row refinable within W, so the
        // refinement stage never has to evict it again.
        let inst = eblow_gen::benchmark(eblow_gen::Family::M1(4));
        let w = inst.stencil().width();
        let (rows, stats) = converge_after_rounding(&inst, &ConvergenceConfig::default());
        assert!(stats.committed_by_ilp > 0, "{stats:?}");

        // With an empty middle band the stage stops after the threshold
        // pass: per row, the members the residual started from.
        let threshold_only = ConvergenceConfig {
            lth: f64::INFINITY,
            ..Default::default()
        };
        let (start, start_stats) = converge_after_rounding(&inst, &threshold_only);
        assert_eq!(start_stats.ilp_vars, 0);
        assert_eq!(
            start_stats.committed_by_threshold,
            stats.committed_by_threshold
        );
        let mut checked = 0;
        for (r, (row, from)) in rows.iter().zip(&start).enumerate() {
            let first = from.members.len();
            assert_eq!(row.members[..first], from.members[..], "row {r}");
            // Members are pushed in commit order, so each longer prefix is
            // the row right after one more residual commit.
            for len in first + 1..=row.members.len() {
                let (_, width) = crate::oned::refine_row(&inst, &row.members[..len], 20);
                assert!(width <= w, "row {r} after commit {len}: {width} > {w}");
                checked += 1;
            }
        }
        assert_eq!(checked, stats.committed_by_ilp);
    }

    #[test]
    fn raised_stop_skips_the_residual_but_not_the_threshold_pass() {
        let inst = instance(8);
        let rt = RegionTimes::new(&inst);
        let items = items_for(&inst, &rt);
        let bases = vec![RowBase::default(); 2];
        let lp = solve_mkp_lp(&items, &bases, 100);
        let run = |stop: StopFlag<'_>| {
            let mut rows = vec![RowState::default(); 2];
            let mut rt = rt.clone();
            fast_ilp_convergence(
                &inst,
                &mut rows,
                &mut rt,
                &items,
                Some(&lp),
                &Default::default(),
                &CombinatorialOracle,
                stop,
            )
            .1
        };
        let raised = std::sync::atomic::AtomicBool::new(true);
        let stopped = run(StopFlag::new(&raised));
        let full = run(StopFlag::NEVER);
        assert!(full.committed_by_threshold > 0, "{full:?}");
        assert_eq!(stopped.committed_by_threshold, full.committed_by_threshold);
        assert_eq!((stopped.ilp_vars, stopped.committed_by_ilp), (0, 0));
    }

    #[test]
    fn empty_residual_is_fine() {
        let inst = instance(2);
        let mut rows = vec![RowState::default(); 2];
        let mut rt = RegionTimes::new(&inst);
        let items: Vec<MkpItem> = Vec::new();
        let lp = solve_mkp_lp(&items, &[RowBase::default(), RowBase::default()], 100);
        let (leftover, stats) = fast_ilp_convergence(
            &inst,
            &mut rows,
            &mut rt,
            &items,
            Some(&lp),
            &Default::default(),
            &CombinatorialOracle,
            StopFlag::NEVER,
        );
        assert!(leftover.is_empty());
        assert_eq!(stats.ilp_vars, 0);
    }
}
