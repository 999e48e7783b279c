//! Cross-crate integration tests for the 1D planners: every planner must
//! produce placements the model validator accepts, and the quality order of
//! the paper's Table 3 must hold in aggregate.

use eblow::gen::{benchmark, generate, Family, GenConfig};
use eblow::lp::MilpStatus;
use eblow::model::{Character, Instance, Selection, Stencil};
use eblow::planner::baselines::{greedy_1d, heuristic_1d, row_heuristic_1d};
use eblow::planner::ilp::solve_ilp_1d;
use eblow::planner::oned::{Eblow1d, Eblow1dConfig};
use std::time::Duration;

fn seeds() -> impl Iterator<Item = u64> {
    1..=6u64
}

#[test]
fn every_planner_is_valid_on_random_instances() {
    for seed in seeds() {
        let inst = generate(&GenConfig::tiny_1d(seed));
        let plans = vec![
            ("greedy", greedy_1d(&inst).unwrap()),
            ("heur24", heuristic_1d(&inst).unwrap()),
            ("row25", row_heuristic_1d(&inst).unwrap()),
            ("eblow", Eblow1d::default().plan(&inst).unwrap()),
        ];
        for (name, plan) in plans {
            plan.placement
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{name} invalid on seed {seed}: {e}"));
            // Reported totals must match the model's own accounting.
            assert_eq!(
                plan.total_time,
                inst.total_writing_time(&plan.selection),
                "{name} mis-reports writing time on seed {seed}"
            );
            assert_eq!(plan.selection.count(), plan.placement.num_placed());
        }
    }
}

#[test]
fn eblow_beats_or_ties_every_baseline_in_aggregate() {
    let mut eblow_total = 0u64;
    let mut greedy_total = 0u64;
    let mut heur_total = 0u64;
    let mut row_total = 0u64;
    for seed in seeds() {
        let inst = generate(&GenConfig::tiny_1d(100 + seed));
        eblow_total += Eblow1d::default().plan(&inst).unwrap().total_time;
        greedy_total += greedy_1d(&inst).unwrap().total_time;
        heur_total += heuristic_1d(&inst).unwrap().total_time;
        row_total += row_heuristic_1d(&inst).unwrap().total_time;
    }
    assert!(eblow_total <= greedy_total, "E-BLOW worse than greedy");
    assert!(eblow_total <= heur_total, "E-BLOW worse than heur24");
    assert!(eblow_total <= row_total, "E-BLOW worse than row25");
}

#[test]
fn selection_always_improves_over_empty_stencil() {
    for seed in seeds() {
        let inst = generate(&GenConfig::tiny_1d(200 + seed));
        let vsb = inst.total_writing_time(&Selection::none(inst.num_chars()));
        let plan = Eblow1d::default().plan(&inst).unwrap();
        assert!(plan.total_time <= vsb);
    }
}

#[test]
fn eblow1_improves_on_eblow0_in_aggregate() {
    // Fig. 11's claim at integration scope.
    let mut t0 = 0u64;
    let mut t1 = 0u64;
    for seed in seeds() {
        let inst = generate(&GenConfig::tiny_1d(300 + seed));
        t0 += Eblow1d::new(Eblow1dConfig::eblow0())
            .plan(&inst)
            .unwrap()
            .total_time;
        t1 += Eblow1d::new(Eblow1dConfig::eblow1())
            .plan(&inst)
            .unwrap()
            .total_time;
    }
    assert!(t1 <= t0, "E-BLOW-1 ({t1}) must not lose to E-BLOW-0 ({t0})");
}

#[test]
fn lp_backends_agree_on_reference_instances_through_the_facade() {
    // The acceptance cross-check at facade scope: first-iteration LP
    // objectives of the combinatorial and simplex backends within 5%
    // relative on the tiny reference cases, and both rounded plans valid.
    use eblow::planner::oned::{CombinatorialOracle, LpOracle, MkpItem, RowBase, SimplexOracle};
    use std::sync::Arc;
    for k in 1..=5u8 {
        let inst = benchmark(Family::T1(k));
        // The canonical first-iteration construction — the same items the
        // pipeline, `eblow-eval agree`, and the oracle proptest use.
        let items = MkpItem::initial_set(&inst);
        let rows = vec![RowBase::default(); inst.num_rows().unwrap()];
        let w = inst.stencil().width();
        let comb = CombinatorialOracle.solve_lp(&items, &rows, w).unwrap();
        let simp = SimplexOracle.solve_lp(&items, &rows, w).unwrap();
        let scale = comb.objective.abs().max(simp.objective.abs()).max(1.0);
        assert!(
            (comb.objective - simp.objective).abs() <= 0.05 * scale,
            "1T-{k}: combinatorial {} vs simplex {}",
            comb.objective,
            simp.objective
        );

        let simp_plan = Eblow1d::new(Eblow1dConfig::default().with_oracle(Arc::new(SimplexOracle)))
            .plan(&inst)
            .unwrap();
        simp_plan.placement.validate(&inst).unwrap();
        let comb_plan = Eblow1d::default().plan(&inst).unwrap();
        comb_plan.placement.validate(&inst).unwrap();
    }
}

#[test]
fn stop_flag_makes_every_baseline_return_quickly_and_validly() {
    use eblow::planner::baselines::{greedy_1d_with_stop, row_heuristic_1d_with_stop};
    use eblow::planner::StopFlag;
    use std::sync::atomic::AtomicBool;
    let inst = generate(&GenConfig::tiny_1d(55));
    let stop = AtomicBool::new(true);
    for plan in [
        greedy_1d_with_stop(&inst, StopFlag::new(&stop)).unwrap(),
        row_heuristic_1d_with_stop(&inst, StopFlag::new(&stop)).unwrap(),
    ] {
        plan.placement.validate(&inst).unwrap();
        assert_eq!(plan.total_time, inst.total_writing_time(&plan.selection));
    }
}

#[test]
fn deterministic_replanning() {
    let inst = generate(&GenConfig::tiny_1d(77));
    let a = Eblow1d::default().plan(&inst).unwrap();
    let b = Eblow1d::default().plan(&inst).unwrap();
    assert_eq!(a.placement, b.placement);
    assert_eq!(a.total_time, b.total_time);
}

#[test]
fn paper_benchmark_shapes() {
    // Smoke-run one real benchmark end to end (kept small: 1D-1).
    let inst = benchmark(Family::D1(1));
    let plan = Eblow1d::default().plan(&inst).unwrap();
    plan.placement.validate(&inst).unwrap();
    // The paper's 1D cases place the vast majority of the 1000 candidates.
    assert!(plan.selection.count() > 600, "{}", plan.selection.count());
    let trace = plan.trace.expect("trace");
    assert!(
        trace.unsolved_per_iter.len() >= 2,
        "multi-iteration rounding"
    );
}

#[test]
fn fast_ilp_convergence_lowers_t_on_1m_4() {
    // Algorithm 2 must commit characters that change the plan: on 1M-4
    // its residual places pairs that rounding left behind, and the full
    // pipeline beats the same pipeline with the stage switched off.
    let inst = benchmark(Family::M1(4));
    let with = Eblow1d::default().plan(&inst).unwrap();
    let without = Eblow1d::new(Eblow1dConfig {
        fast_ilp: false,
        ..Default::default()
    })
    .plan(&inst)
    .unwrap();
    with.placement.validate(&inst).unwrap();
    assert!(
        with.total_time < without.total_time,
        "fast ILP convergence {} vs without {}",
        with.total_time,
        without.total_time
    );
}

#[test]
fn eblow1_never_loses_to_eblow0_on_table3_cases() {
    // Fig. 11 per case, not just in aggregate: on every 1D-k and 1M-k
    // benchmark E-BLOW-1 reaches a writing time no worse than E-BLOW-0's.
    let cases = (1..=4u8).map(Family::D1).chain((1..=8u8).map(Family::M1));
    for family in cases {
        let inst = benchmark(family);
        let t0 = Eblow1d::new(Eblow1dConfig::eblow0())
            .plan(&inst)
            .unwrap()
            .total_time;
        let t1 = Eblow1d::default().plan(&inst).unwrap().total_time;
        assert!(
            t1 <= t0,
            "{}: E-BLOW-1 ({t1}) lost to E-BLOW-0 ({t0})",
            family.name()
        );
    }
}

/// `ilp1d` leaves a candidate wider than the rows out and proves the
/// optimum: the four 40 × 40 characters, T = 25 − 16. Big-M = W in
/// (3d)/(3e) cannot switch off a pair with the 1 000-wide character, which
/// made even the empty selection infeasible.
#[test]
fn ilp1d_leaves_out_candidates_wider_than_the_rows() {
    let mut chars = vec![Character::new(40, 40, [5, 5, 0, 0], 5).unwrap(); 4];
    chars.push(Character::new(1_000, 40, [5, 5, 0, 0], 5).unwrap());
    let stencil = Stencil::with_rows(200, 80, 40).unwrap();
    let inst = Instance::new(stencil, chars, vec![vec![1]; 5]).unwrap();
    let out = solve_ilp_1d(&inst, Duration::from_secs(30)).unwrap();
    assert_eq!(out.status, MilpStatus::Optimal);
    assert_eq!(out.total_time, Some(9));
    out.placement_1d.unwrap().validate(&inst).unwrap();
}
