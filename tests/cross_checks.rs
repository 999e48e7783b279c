//! Cross-crate correctness checks: exact solvers vs heuristics vs certified
//! brute force, the NP-hardness chain against the real planner, and
//! property-based end-to-end invariants.

use eblow::gen::{benchmark, generate, Family, GenConfig};
use eblow::hardness::{brute_force_min_row, bss_to_osp};
use eblow::lp::MilpStatus;
use eblow::planner::ilp::{solve_ilp_1d, solve_ilp_2d};
use eblow::planner::oned::Eblow1d;
use eblow::planner::twod::Eblow2d;
use proptest::prelude::*;
use std::time::Duration;

#[test]
fn eblow_matches_certified_optimum_on_all_tiny_1d_cases() {
    // The Table 5 headline: E-BLOW reaches the optimum on every 1T case.
    for k in 1..=5u8 {
        let inst = benchmark(Family::T1(k));
        let plan = Eblow1d::default().plan(&inst).unwrap();
        let optimum = brute_force_min_row(&inst);
        assert_eq!(
            plan.total_time, optimum,
            "1T-{k}: E-BLOW {} vs certified optimum {optimum}",
            plan.total_time
        );
    }
}

#[test]
fn exact_ilp_agrees_with_brute_force_when_it_proves() {
    let inst = benchmark(Family::T1(3));
    let out = solve_ilp_1d(&inst, Duration::from_secs(2)).unwrap();
    let optimum = brute_force_min_row(&inst);
    // The E-BLOW warm start guarantees an incumbent, proven or not.
    out.placement_1d
        .expect("seeded branch-and-bound always has an incumbent")
        .validate(&inst)
        .unwrap();
    let t = out.total_time.expect("incumbent writing time");
    assert!(
        t >= optimum,
        "ILP T {t} below the certified optimum {optimum}"
    );
    if out.status == MilpStatus::Optimal {
        assert_eq!(t, optimum, "proven ILP T {t} != certified optimum");
    }
}

#[test]
fn exact_ilp_2d_incumbent_is_reachable_by_eblow() {
    let inst = benchmark(Family::T2(1));
    let ilp = solve_ilp_2d(&inst, Duration::from_secs(2));
    let plan = Eblow2d::default().plan(&inst).unwrap();
    // E-BLOW seeds the ILP, so an incumbent always exists and can only be
    // equal or better.
    ilp.placement_2d
        .expect("seeded branch-and-bound always has an incumbent")
        .validate(&inst)
        .unwrap();
    let t = ilp.total_time.expect("incumbent writing time");
    assert!(
        t <= plan.total_time,
        "ILP incumbent {t} worse than its E-BLOW seed {}",
        plan.total_time
    );
}

#[test]
fn hardness_chain_agrees_with_planner() {
    // Planted yes-instances: the planner should reach the yes-threshold.
    for (xs, s) in [
        (vec![1100u64, 1200, 2000], 2300u64),
        (vec![60, 70, 80, 90], 150),
    ] {
        let osp = bss_to_osp(&xs, s);
        let optimum = brute_force_min_row(&osp.instance);
        assert_eq!(optimum, osp.yes_writing_time());
        let plan = Eblow1d::default().plan(&osp.instance).unwrap();
        assert_eq!(plan.total_time, optimum, "xs={xs:?} s={s}");
    }
}

#[test]
fn instance_io_roundtrips_all_benchmark_families() {
    for fam in [
        Family::D1(1),
        Family::M1(2),
        Family::D2(3),
        Family::M2(4),
        Family::T1(1),
        Family::T2(2),
    ] {
        let inst = benchmark(fam);
        let text = eblow::model::io::to_string(&inst);
        let back = eblow::model::io::from_str(&text).unwrap();
        assert_eq!(inst, back, "{} failed to roundtrip", fam.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generated instance yields a valid, accounting-consistent plan.
    #[test]
    fn random_instances_plan_validly(seed in 0u64..5000) {
        let inst = generate(&GenConfig::tiny_1d(seed));
        let plan = Eblow1d::default().plan(&inst).unwrap();
        prop_assert!(plan.placement.validate(&inst).is_ok());
        prop_assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
        // Row widths never exceed the stencil.
        for row in plan.placement.rows() {
            prop_assert!(row.min_width(&inst) <= inst.stencil().width());
        }
    }

    /// 2D plans keep every placed pair disjunctively separated.
    #[test]
    fn random_2d_instances_plan_validly(seed in 0u64..5000) {
        let inst = generate(&GenConfig::tiny_2d(seed));
        let plan = Eblow2d::default().plan(&inst).unwrap();
        prop_assert!(plan.placement.validate(&inst).is_ok());
        prop_assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
    }

    /// The LP oracle's objective never exceeds the aggregate fractional
    /// knapsack bound, and the planner's final selection is feasible.
    #[test]
    fn planted_bss_instances_stay_consistent(
        mut xs in prop::collection::vec(600u64..1000, 2..8),
        pick in prop::collection::vec(any::<bool>(), 8),
    ) {
        // Build a planted yes-instance: s = sum of a random subset.
        let s: u64 = xs.iter().zip(&pick).filter(|(_, &p)| p).map(|(x, _)| *x).sum();
        xs.sort_unstable();
        let osp = bss_to_osp(&xs, s);
        let optimum = brute_force_min_row(&osp.instance);
        prop_assert_eq!(optimum, osp.yes_writing_time());
        let plan = Eblow1d::default().plan(&osp.instance).unwrap();
        prop_assert!(plan.placement.validate(&osp.instance).is_ok());
        prop_assert!(plan.total_time >= optimum);
    }
}
