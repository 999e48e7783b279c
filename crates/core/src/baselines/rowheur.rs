//! A deterministic row-structure heuristic in the spirit of \[25\]
//! (Kuang & Young, ISPD'14).
//!
//! \[25\] exploits the row structure directly: characters are ranked by
//! profit per effective micrometer and rows are filled one at a time under
//! the *exact* symmetric-blank capacity (Lemma 1), ordering each row by
//! blank descending (provably optimal for symmetric blanks). A final
//! insertion pass tops rows up. The paper's Table 3 shows \[25\] at
//! ~0.01 s, and `eblow-eval table3` measures a Row\[25\] CPU average of
//! 0.007–0.010 s over the Table 3 cases on a 2-core VM (three runs). The
//! cost is the per-candidate probes: the Lemma 1 estimate is optimistic
//! for asymmetric blanks, so each character verifies up to
//! [`PROBE_ROWS`] rows with the exact ordering DP before it is placed:
//! 131 388 probes on 1H-1 (`rowheur.probes`). Each resumes the row's
//! cached DP frontier near the candidate and stops once the row's
//! completion table shows that no completion fits, and the plan takes
//! 28–60 ms, median 39 ms (`bench_hotpaths` `row_heuristic_1h1`, 20 runs
//! on a 2-core VM). There is no MCC balancing: profits are static region
//! sums, so the bottleneck region is not re-weighted as selection
//! proceeds.

use crate::cancel::StopFlag;
use crate::oned::{finish_plan, ProbedRow, WidthScratch};
use crate::profit::static_profits;
use crate::Plan1d;
use eblow_model::{CharId, Instance, ModelError, Placement1d, Row};
use eblow_trace as trace;
use std::time::Instant;

/// Row-admission probes of the fill (counter `rowheur.probes`).
static PROBES: trace::Counter = trace::Counter::new("rowheur.probes");

/// How many of the best-ranked rows each character probes with the exact
/// ordering DP before being declared a leftover.
const PROBE_ROWS: usize = 12;

/// Plans a 1D stencil with the deterministic row heuristic.
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
pub fn row_heuristic_1d(instance: &Instance) -> Result<Plan1d, ModelError> {
    row_heuristic_1d_with_stop(instance, StopFlag::NEVER)
}

/// Like [`row_heuristic_1d`], but polls `stop` in the row-fill and top-up
/// loops (each step runs the exact-ordering DP, so an unpolled pass is
/// unbounded in principle — a 4000-candidate fill was observed blowing a
/// 3 s portfolio deadline by 2 s). On cancellation the characters not yet
/// placed simply stay off the stencil; the overflow-repair pass still runs,
/// so the result always validates.
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
pub fn row_heuristic_1d_with_stop(
    instance: &Instance,
    stop: StopFlag<'_>,
) -> Result<Plan1d, ModelError> {
    let started = Instant::now();
    let num_rows = instance.num_rows()?;
    let row_height = instance
        .stencil()
        .row_height()
        .ok_or(ModelError::NotRowStructured)?;
    let w = instance.stencil().width();

    let profits = static_profits(instance);
    let mut order: Vec<usize> = (0..instance.num_chars())
        .filter(|&i| {
            let c = instance.char(i);
            c.height() <= row_height && c.width() <= w && profits[i] > 0.0
        })
        .collect();
    // Profit-descending: with heavy-tailed character values, missing one
    // complex character costs more than missing several simple ones, so
    // the row heuristic ranks by absolute profit and lets the exact
    // capacity test control packing.
    order.sort_by(|&a, &b| profits[b].total_cmp(&profits[a]).then(a.cmp(&b)));

    // Fill rows under the exact Lemma 1 capacity; best-fit row choice.
    let mut sets: Vec<Vec<CharId>> = vec![Vec::new(); num_rows];
    // Each row's members as a probe-ready row, maintained incrementally so
    // probes resume the DP walk from a cached frontier.
    let mut row_keys: Vec<ProbedRow> = vec![ProbedRow::default(); num_rows];
    let mut eff: Vec<u64> = vec![0; num_rows];
    let mut blank: Vec<u64> = vec![0; num_rows];
    let mut leftovers: Vec<usize> = Vec::new();
    let mut ranked: Vec<(u64, usize)> = Vec::with_capacity(num_rows);
    // Width-DP buffers shared by every probe, allocation-free after warm-up.
    let mut scratch = WidthScratch::default();
    let mut probes = 0u64;
    for &i in &order {
        if stop.is_set() {
            // Deadline: whatever is not yet placed stays off the stencil.
            break;
        }
        let c = instance.char(i);
        let e = c.effective_width();
        let s = c.symmetric_blank();
        let id = CharId::from(i);
        // Rank rows by wasted capacity growth, then verify the best ones
        // with the exact ordering DP (the Lemma 1 estimate is optimistic
        // for asymmetric blanks). The staged probe admits on a beam-1
        // insertion chain (the width of one concrete order) before the
        // beam-6 DP runs — same decisions, far fewer DPs.
        // Estimates past `u64` never rank.
        ranked.clear();
        ranked.extend((0..num_rows).filter_map(|r| {
            let new_width = u128::from(eff[r]) + u128::from(e) + u128::from(blank[r].max(s));
            (new_width <= u128::from(w) + 8).then(|| {
                let growth = blank[r].max(s) - blank[r];
                let slack = u128::from(w).saturating_sub(new_width) as u64;
                (growth.saturating_mul(1000).saturating_add(slack), r)
            })
        }));
        ranked.sort_unstable();
        // Place into the best-ranked row the exact ordering DP admits.
        let placed_row = ranked.iter().take(PROBE_ROWS).map(|&(_, r)| r).find(|&r| {
            probes += 1;
            row_keys[r].admits(instance, id, 6, w, &mut scratch).fits()
        });
        match placed_row {
            Some(r) => {
                sets[r].push(id);
                row_keys[r].insert(instance, id);
                eff[r] += e;
                blank[r] = blank[r].max(s);
            }
            None => leftovers.push(i),
        }
    }
    PROBES.add(probes);

    // In-row order: the insertion-order DP (optimal under symmetric
    // blanks, near-optimal otherwise) with a small beam — still linear-ish
    // and deterministic, as a row-structure method demands.
    let mut rows: Vec<Row> = sets
        .iter()
        .map(|ids| {
            let (order, _) = crate::oned::refine_row(instance, ids, 8);
            Row::from_order(order)
        })
        .collect();

    // Repair residual overflows by dropping the *least profitable* member.
    let mut dropped: Vec<usize> = Vec::new();
    for row in rows.iter_mut() {
        while row.checked_width(instance).is_none_or(|x| x > w) && !row.is_empty() {
            let (pos, _) = row
                .order()
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| profits[a.index()].total_cmp(&profits[b.index()]))
                .expect("non-empty row");
            dropped.push(row.remove(pos).index());
        }
    }
    // Greedy top-up at the width-minimal position (middle positions
    // included), most valuable first. Each row's width is measured once
    // and then kept current by the delta of every insertion it takes.
    leftovers.extend(dropped);
    leftovers.sort_by(|&a, &b| profits[b].total_cmp(&profits[a]).then(a.cmp(&b)));
    let mut widths: Vec<u64> = rows.iter().map(|row| row.min_width(instance)).collect();
    for i in leftovers {
        if stop.is_set() {
            break;
        }
        let id = CharId::from(i);
        for (row, wid) in rows.iter_mut().zip(widths.iter_mut()) {
            if let Some((pos, delta)) = row.best_insertion(instance, id, *wid, w) {
                row.insert(pos, id);
                *wid += delta;
                debug_assert_eq!(*wid, row.min_width(instance));
                break;
            }
        }
    }

    Ok(finish_plan(
        instance,
        Placement1d::from_rows(rows),
        started,
        None,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    #[test]
    fn plan_is_valid_and_fast_quality() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(51));
        let plan = row_heuristic_1d(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        // Should clearly beat the naive greedy on packing quality.
        let greedy = super::super::greedy_1d(&inst).unwrap();
        assert!(
            plan.selection.count() + 2 >= greedy.selection.count(),
            "row heuristic should pack at least comparably"
        );
    }

    #[test]
    fn pre_cancelled_plan_is_still_valid() {
        use std::sync::atomic::AtomicBool;
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(52));
        let stop = AtomicBool::new(true);
        let plan = row_heuristic_1d_with_stop(&inst, StopFlag::new(&stop)).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        // A cancelled run can never beat the uncancelled one.
        let full = row_heuristic_1d(&inst).unwrap();
        assert!(plan.total_time >= full.total_time);
    }

    #[test]
    fn single_region_quality_is_near_eblow() {
        // On single-CP instances [25]-style methods are competitive
        // (Table 3 shows them winning some 1D-x cases).
        let cfg = GenConfig {
            n_regions: 1,
            ..GenConfig::tiny_1d(77)
        };
        let inst = eblow_gen::generate(&cfg);
        let rh = row_heuristic_1d(&inst).unwrap();
        let eb = crate::oned::Eblow1d::default().plan(&inst).unwrap();
        // Within 25% of E-BLOW on a tiny instance.
        assert!(
            (rh.total_time as f64) <= eb.total_time as f64 * 1.25 + 10.0,
            "row heuristic {} vs eblow {}",
            rh.total_time,
            eb.total_time
        );
    }
}
