//! The "Greedy in \[24\]" 2D baseline.

use crate::cancel::StopFlag;
use crate::profit::static_profits;
use crate::twod::finish_plan_2d;
use crate::Plan2d;
use eblow_model::{CharId, Instance, ModelError, PlacedChar, Placement2d};
use std::time::Instant;

/// Greedy 2D planner: profit-density-sorted shelf packing **without** any
/// blank sharing. This is the Table 4 "Greedy" column — fast, but it both
/// places fewer characters (no overlap) and picks them without balancing,
/// giving ~41% higher writing time than E-BLOW in the paper.
///
/// # Errors
///
/// As [`Eblow2d::plan`](crate::twod::Eblow2d::plan): a row-structured
/// instance with a stencil side above
/// [`Stencil::MAX_2D_SIDE`](eblow_model::Stencil::MAX_2D_SIDE) is refused.
pub fn greedy_2d(instance: &Instance) -> Result<Plan2d, ModelError> {
    greedy_2d_with_stop(instance, StopFlag::NEVER)
}

/// Like [`greedy_2d`], but polls `stop` in the shelf-packing loop; on
/// cancellation the shelves packed so far form the (valid) plan.
///
/// # Errors
///
/// As [`greedy_2d`].
pub fn greedy_2d_with_stop(instance: &Instance, stop: StopFlag<'_>) -> Result<Plan2d, ModelError> {
    let started = Instant::now();
    instance.stencil().check_2d()?;
    let w = instance.stencil().width() as i64;
    let h = instance.stencil().height() as i64;

    let profits = static_profits(instance);
    let stencil = instance.stencil();
    let mut order: Vec<usize> = (0..instance.num_chars())
        .filter(|&i| {
            let c = instance.char(i);
            c.width() <= stencil.width() && c.height() <= stencil.height() && profits[i] > 0.0
        })
        .collect();
    order.sort_by(|&a, &b| {
        let da = profits[a] / instance.char(a).area() as f64;
        let db = profits[b] / instance.char(b).area() as f64;
        db.total_cmp(&da).then(a.cmp(&b))
    });

    // Hard-rectangle shelves: no sharing anywhere.
    let mut placement = Placement2d::new();
    let mut x = 0i64;
    let mut y = 0i64;
    let mut shelf_h = 0i64;
    for i in order {
        if stop.is_set() {
            break;
        }
        let c = instance.char(i);
        let (cw, ch) = (c.width() as i64, c.height() as i64);
        if x + cw > w {
            y += shelf_h;
            x = 0;
            shelf_h = 0;
        }
        if y + ch > h {
            // This one doesn't fit on the current shelf level; try next
            // candidates (a shorter character may still fit).
            if x == 0 {
                continue;
            }
            x = 0;
            y += shelf_h;
            shelf_h = 0;
            if y + ch > h {
                continue;
            }
        }
        placement.push(PlacedChar {
            id: CharId::from(i),
            x,
            y,
        });
        x += cw;
        shelf_h = shelf_h.max(ch);
    }
    debug_assert!(placement.validate(instance).is_ok());
    Ok(finish_plan_2d(instance, placement, started))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    #[test]
    fn greedy_2d_is_valid() {
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(61));
        let plan = greedy_2d(&inst).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert!(plan.selection.count() > 0);
    }

    #[test]
    fn pre_cancelled_plan_is_still_valid() {
        use std::sync::atomic::AtomicBool;
        let inst = eblow_gen::generate(&GenConfig::tiny_2d(62));
        let stop = AtomicBool::new(true);
        let plan = greedy_2d_with_stop(&inst, StopFlag::new(&stop)).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        let full = greedy_2d(&inst).unwrap();
        assert!(plan.total_time >= full.total_time);
    }

    #[test]
    fn eblow_2d_usually_beats_greedy() {
        let mut wins = 0;
        for seed in [71u64, 72, 73] {
            let inst = eblow_gen::generate(&GenConfig::tiny_2d(seed));
            let g = greedy_2d(&inst).unwrap();
            let e = crate::twod::Eblow2d::default().plan(&inst).unwrap();
            if e.total_time <= g.total_time {
                wins += 1;
            }
        }
        assert!(wins >= 2, "E-BLOW 2D should usually beat greedy");
    }
}
