//! Cross-crate integration tests for the 2D planners.

use eblow::gen::{generate, GenConfig};
use eblow::lp::MilpStatus;
use eblow::model::{Character, Instance, ModelError, Stencil};
use eblow::planner::baselines::{greedy_2d, sa_2d};
use eblow::planner::ilp::solve_ilp_2d;
use eblow::planner::twod::{Eblow2d, Eblow2dConfig};
use std::time::Duration;

#[test]
fn all_2d_planners_are_valid() {
    for seed in 1..=4u64 {
        let inst = generate(&GenConfig::tiny_2d(seed));
        let plans = vec![
            ("greedy", greedy_2d(&inst).unwrap()),
            ("sa24", sa_2d(&inst).unwrap()),
            ("eblow", Eblow2d::default().plan(&inst).unwrap()),
        ];
        for (name, plan) in plans {
            plan.placement
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{name} invalid on seed {seed}: {e}"));
            assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        }
    }
}

#[test]
fn eblow_2d_beats_greedy_in_aggregate() {
    let mut eblow_total = 0u64;
    let mut greedy_total = 0u64;
    for seed in 10..=14u64 {
        let inst = generate(&GenConfig::tiny_2d(seed));
        eblow_total += Eblow2d::default().plan(&inst).unwrap().total_time;
        greedy_total += greedy_2d(&inst).unwrap().total_time;
    }
    assert!(
        eblow_total < greedy_total,
        "E-BLOW 2D ({eblow_total}) must beat greedy ({greedy_total}) in aggregate"
    );
}

#[test]
fn clustering_ablation_remains_valid_and_sane() {
    let inst = generate(&GenConfig::tiny_2d(21));
    let clustered = Eblow2d::default().plan(&inst).unwrap();
    let unclustered = Eblow2d::new(Eblow2dConfig {
        clustering: false,
        ..Default::default()
    })
    .plan(&inst)
    .unwrap();
    clustered.placement.validate(&inst).unwrap();
    unclustered.placement.validate(&inst).unwrap();
    let (a, b) = (
        clustered.total_time.max(1) as f64,
        unclustered.total_time.max(1) as f64,
    );
    assert!(a / b < 1.6 && b / a < 1.6, "ablation diverges: {a} vs {b}");
}

#[test]
fn planner_runs_on_row_structured_instances_too() {
    // A 1D instance is a legal 2D instance (rows ignored).
    let inst = generate(&GenConfig::tiny_1d(5));
    let plan = Eblow2d::default().plan(&inst).unwrap();
    plan.placement.validate(&inst).unwrap();
}

/// Six characters of `(2³⁰)²` with 1 µm blanks on a stencil of
/// `side × side`: at `side = 2³¹` two fit a row and three never do.
fn huge_2d_instance(stencil: Stencil) -> Instance {
    let side = 1 << 30;
    let chars = vec![Character::new(side, side, [1; 4], 5).unwrap(); 6];
    Instance::new(stencil, chars, vec![vec![1]; 6]).unwrap()
}

/// At the largest 2D side every 2D planner returns a plan that validates;
/// at most four of the six characters fit.
#[test]
fn planners_are_valid_at_the_2d_size_bound() {
    let max = Stencil::MAX_2D_SIDE;
    let inst = huge_2d_instance(Stencil::new(max, max).unwrap());
    let plans = [
        ("greedy", greedy_2d(&inst).unwrap()),
        ("sa24", sa_2d(&inst).unwrap()),
        ("eblow", Eblow2d::default().plan(&inst).unwrap()),
    ];
    for (name, plan) in plans {
        plan.placement
            .validate(&inst)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        let placed = plan.selection.count();
        assert!((1..=4).contains(&placed), "{name} placed {placed}");
    }
}

/// Row-structured widths keep the full `u64` range, but the 2D planners
/// refuse a row-structured stencil with a side above the 2D bound.
#[test]
fn planners_refuse_row_stencils_past_the_2d_size_bound() {
    let max = Stencil::MAX_2D_SIDE;
    for (w, h) in [(max + 1, max), (max, max + 1)] {
        let inst = huge_2d_instance(Stencil::with_rows(w, h, 1 << 30).unwrap());
        let refused = Err(ModelError::StencilTooLarge {
            width: w,
            height: h,
        });
        assert_eq!(
            Eblow2d::default().plan(&inst).map(|p| p.total_time),
            refused
        );
        assert_eq!(sa_2d(&inst).map(|p| p.total_time), refused);
        assert_eq!(greedy_2d(&inst).map(|p| p.total_time), refused);
    }
}

/// Four 40 × 40 characters with 5 µm blanks and one `width × 10` one on a
/// 100 × 100 stencil, one region. The four fit in two shelves; the wide
/// one never fits.
fn instance_with_one_char_of_width(width: u64) -> Instance {
    let mut chars = vec![Character::new(40, 40, [5; 4], 5).unwrap(); 4];
    chars.push(Character::new(width, 10, [5; 4], 5).unwrap());
    Instance::new(Stencil::new(100, 100).unwrap(), chars, vec![vec![1]; 5]).unwrap()
}

/// The by-name 2D planners leave a candidate wider than the stencil out.
/// `ilp2d` proves the optimum, all four 40 × 40 characters: T = 25 − 16.
/// Big-M = W in (7b)–(7e) cannot switch off a pair with a 1 000-wide
/// character, which made even the empty selection infeasible, and at
/// 2⁶³ the area cut's `u64` product overflowed. `greedy2d` compared the
/// width as `i64`, so a 2⁶³-wide character passed its fit filter.
#[test]
fn by_name_planners_leave_out_candidates_wider_than_the_stencil() {
    for width in [1_000, 1 << 63] {
        let inst = instance_with_one_char_of_width(width);
        let ilp = solve_ilp_2d(&inst, Duration::from_secs(30));
        assert_eq!(ilp.status, MilpStatus::Optimal, "width {width}");
        assert_eq!(ilp.total_time, Some(9), "width {width}");
        ilp.placement_2d.unwrap().validate(&inst).unwrap();
        let greedy = greedy_2d(&inst).unwrap();
        greedy.placement.validate(&inst).unwrap();
        assert_eq!(
            greedy.total_time,
            inst.total_writing_time(&greedy.selection)
        );
        assert!(!greedy.selection.contains(4), "width {width}");
    }
}

/// `ilp2d`'s area cut multiplies the pattern sides in `f64`. On a
/// row-structured stencil of 2⁴⁰ µm a side, two characters of 2⁴⁰ µm a
/// side overflowed the `u64` product (a debug-build panic). One fits:
/// T = 10 − 4.
#[test]
fn ilp2d_area_cut_survives_row_stencils_past_the_2d_bound() {
    let side = 1 << 40;
    let chars = vec![Character::new(side, side, [0; 4], 5).unwrap(); 2];
    let stencil = Stencil::with_rows(side, side, side).unwrap();
    let inst = Instance::new(stencil, chars, vec![vec![1]; 2]).unwrap();
    let out = solve_ilp_2d(&inst, Duration::from_secs(30));
    assert_eq!(out.status, MilpStatus::Optimal);
    assert_eq!(out.total_time, Some(6));
    out.placement_2d.unwrap().validate(&inst).unwrap();
}
