//! The "Greedy in \[24\]" 1D baseline.

use crate::cancel::StopFlag;
use crate::oned::finish_plan;
use crate::profit::static_profits;
use crate::Plan1d;
use eblow_model::{CharId, Instance, ModelError, Placement1d, Row};
use std::time::Instant;

/// Greedy 1D planner: characters sorted by static profit (total shot
/// reduction), inserted first-fit at the **right end** of the first row
/// with space, *without exploiting blank overlapping* (the greedy baseline
/// predates the overlapping-aware methods it is compared against). No
/// in-row reordering, no region balancing — the Table 3 "Greedy in \[24\]"
/// column.
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
pub fn greedy_1d(instance: &Instance) -> Result<Plan1d, ModelError> {
    greedy_1d_with_stop(instance, StopFlag::NEVER)
}

/// Like [`greedy_1d`], but polls `stop` in the first-fit loop so a
/// portfolio deadline turns into an immediate (valid, partial) return —
/// cheap per item, but on 4000-candidate instances the unpolled loop was
/// still the difference between "fast in practice" and "bounded in
/// principle".
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
pub fn greedy_1d_with_stop(instance: &Instance, stop: StopFlag<'_>) -> Result<Plan1d, ModelError> {
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
    order.sort_by(|&a, &b| profits[b].total_cmp(&profits[a]).then(a.cmp(&b)));

    let mut rows: Vec<Row> = vec![Row::new(); num_rows];
    let mut widths: Vec<u64> = vec![0; num_rows];
    for i in order {
        if stop.is_set() {
            break;
        }
        let c = instance.char(i);
        // Overlap-unaware: every character consumes its full width.
        for r in 0..num_rows {
            if widths[r].checked_add(c.width()).is_some_and(|x| x <= w) {
                rows[r].push_right(CharId::from(i));
                widths[r] += c.width();
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
    fn greedy_plan_is_valid() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(21));
        let plan = greedy_1d(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert!(plan.selection.count() > 0);
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
    }

    #[test]
    fn greedy_never_beats_eblow_by_much() {
        // Sanity direction check on a couple of seeds: E-BLOW ≤ greedy
        // almost always (greedy lacks ordering + balancing).
        let mut eblow_wins = 0;
        for seed in [3u64, 4, 5] {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            let g = greedy_1d(&inst).unwrap();
            let e = crate::oned::Eblow1d::default().plan(&inst).unwrap();
            if e.total_time <= g.total_time {
                eblow_wins += 1;
            }
        }
        assert!(eblow_wins >= 2, "E-BLOW should usually beat greedy");
    }

    #[test]
    fn pre_cancelled_plan_is_still_valid() {
        use std::sync::atomic::AtomicBool;
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(22));
        let stop = AtomicBool::new(true);
        let plan = greedy_1d_with_stop(&inst, StopFlag::new(&stop)).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert_eq!(
            plan.selection.count(),
            0,
            "pre-cancelled greedy places nothing"
        );
        let full = greedy_1d(&inst).unwrap();
        assert!(plan.total_time >= full.total_time);
    }

    #[test]
    fn rejects_2d_instance() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(2));
        assert!(greedy_1d(&inst).is_err());
    }
}
