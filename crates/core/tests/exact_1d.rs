//! Exactness of `solve_exact_1d` against independent oracles: the Lemma 1
//! subset brute force, the all-permutations row width, the 1D planners and
//! the branch-and-bound ILP (3).

use eblow_core::baselines::{greedy_1d, heuristic_1d, row_heuristic_1d};
use eblow_core::ilp::solve_ilp_1d;
use eblow_core::oned::{
    brute_force_min_width, solve_exact_1d, Eblow1d, Eblow1dConfig, SimplexOracle,
};
use eblow_core::StopFlag;
use eblow_gen::{Family, GenConfig};
use eblow_hardness::brute_force_min_row;
use eblow_lp::MilpStatus;
use eblow_model::{CharId, Character, Instance, Stencil};
use proptest::prelude::*;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Characters `(width, left, right, shots)`, height 40, one repeat each in
/// one region, on `rows` rows of width `w`.
fn row_instance(specs: &[(u64, u64, u64, u64)], w: u64, rows: u64) -> Instance {
    let chars: Vec<Character> = specs
        .iter()
        .map(|&(cw, l, r, shots)| Character::new(cw, 40, [l, r, 0, 0], shots).unwrap())
        .collect();
    let n = chars.len();
    Instance::new(
        Stencil::with_rows(w, 40 * rows, 40).unwrap(),
        chars,
        vec![vec![1]; n],
    )
    .unwrap()
}

#[test]
fn certifies_the_brute_force_optimum_on_every_1t_case() {
    for k in 1..=5u8 {
        let inst = eblow_gen::benchmark(Family::T1(k));
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        assert!(exact.proven_optimal, "1T-{k} not proven");
        assert_eq!(exact.plan.total_time, brute_force_min_row(&inst), "1T-{k}");
        exact.plan.placement.validate(&inst).unwrap();
    }
}

#[test]
fn a_raised_stop_flag_returns_a_valid_unproven_plan() {
    let stop = AtomicBool::new(true);
    let multi_row = eblow_gen::generate(&GenConfig {
        n_chars: 12,
        ..GenConfig::tiny_1d(7)
    });
    for inst in [eblow_gen::benchmark(Family::T1(5)), multi_row] {
        let exact = solve_exact_1d(&inst, StopFlag::new(&stop)).unwrap();
        assert!(!exact.proven_optimal);
        exact.plan.placement.validate(&inst).unwrap();
        assert_eq!(
            exact.plan.total_time,
            inst.total_writing_time(&exact.plan.selection)
        );
    }
}

/// Fourteen characters a third of `u64::MAX` wide: every width sum of
/// more than two overflows, and exactly two fit a row. Symmetric blanks
/// take the Lemma 1 path, asymmetric ones the Held-Karp path.
#[test]
fn widths_near_u64_max_saturate_instead_of_wrapping() {
    let wide = u64::MAX / 3;
    for (l, r) in [(4, 4), (1, 5)] {
        let specs: Vec<(u64, u64, u64, u64)> = (0..14).map(|i| (wide, l, r, 2 + i)).collect();
        // Σ shots = 119; the savers are 1..=14 shots, largest last.
        for (rows, t) in [(1, 119 - 14 - 13), (2, 119 - 14 - 13 - 12 - 11)] {
            let inst = row_instance(&specs, u64::MAX - 100, rows);
            let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
            assert!(exact.proven_optimal);
            assert_eq!(exact.plan.total_time, t, "blanks ({l}, {r}), {rows} rows");
            exact.plan.placement.validate(&inst).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One row, symmetric blanks: Lemma 1 is exact, so the certified `T`
    /// equals the subset brute force.
    #[test]
    fn single_row_symmetric_matches_brute_force(
        seed in 0u64..5000,
        n in 1usize..15,
        regions in 1usize..4,
    ) {
        let inst = eblow_gen::generate(&GenConfig {
            n_chars: n,
            n_regions: regions,
            stencil_w: 200,
            stencil_h: 40,
            width: (30, 50),
            blank: (2, 14),
            symmetric_blanks: true,
            ..GenConfig::tiny_1d(seed)
        });
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        prop_assert!(exact.proven_optimal);
        prop_assert_eq!(exact.plan.total_time, brute_force_min_row(&inst));
        prop_assert!(exact.plan.placement.validate(&inst).is_ok());
    }

    /// Asymmetric blanks: the Held-Karp row width equals the minimum over
    /// all orders. Every character saves shots, so on a stencil exactly
    /// that wide the optimum places all of them, and one micrometre
    /// narrower it cannot.
    #[test]
    fn held_karp_width_matches_all_permutations(
        specs in prop::collection::vec((30u64..60, 1u64..15, 1u64..15, 2u64..30), 2..9),
    ) {
        let mut specs: Vec<(u64, u64, u64, u64)> = specs
            .into_iter()
            .map(|(w, l, r, shots)| (w, l.min(w / 2 - 1), r.min(w / 2 - 1), shots))
            .collect();
        if specs[0].1 == specs[0].2 {
            specs[0].1 -= 1;
        }
        let n = specs.len();
        let ids: Vec<CharId> = (0..n).map(CharId::from).collect();
        let width = brute_force_min_width(&row_instance(&specs, 100_000, 1), &ids);

        let exact_fit = row_instance(&specs, width, 1);
        let exact = solve_exact_1d(&exact_fit, StopFlag::NEVER).unwrap();
        prop_assert!(exact.proven_optimal);
        prop_assert_eq!(exact.plan.selection.count(), n);
        prop_assert_eq!(exact.plan.placement.rows()[0].min_width(&exact_fit), width);
        prop_assert!(exact.plan.placement.validate(&exact_fit).is_ok());

        let narrower = row_instance(&specs, width - 1, 1);
        let exact = solve_exact_1d(&narrower, StopFlag::NEVER).unwrap();
        prop_assert!(exact.plan.selection.count() < n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Several rows and regions, asymmetric blanks: the certified plan
    /// validates, no other 1D planner beats it, and it matches the ILP
    /// whenever branch-and-bound proves its own optimum.
    #[test]
    fn multi_row_multi_region_plans_are_optimal(
        seed in 0u64..5000,
        n in 3usize..11,
        rows in 2u64..4,
        regions in 2usize..5,
    ) {
        let inst = eblow_gen::generate(&GenConfig {
            n_chars: n,
            n_regions: regions,
            stencil_w: 110,
            stencil_h: 40 * rows,
            ..GenConfig::tiny_1d(seed)
        });
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        prop_assert!(exact.proven_optimal);
        prop_assert!(exact.plan.placement.validate(&inst).is_ok());
        let t = exact.plan.total_time;
        prop_assert_eq!(t, inst.total_writing_time(&exact.plan.selection));

        let simplex = Eblow1dConfig::default().with_oracle(Arc::new(SimplexOracle));
        let others = [
            ("eblow1d", Eblow1d::default().plan(&inst)),
            ("eblow1d-0", Eblow1d::new(Eblow1dConfig::eblow0()).plan(&inst)),
            ("eblow1d@simplex", Eblow1d::new(simplex).plan(&inst)),
            ("heuristic1d", heuristic_1d(&inst)),
            ("rowheur1d", row_heuristic_1d(&inst)),
            ("greedy1d", greedy_1d(&inst)),
        ];
        for (name, plan) in others {
            let other = plan.unwrap().total_time;
            prop_assert!(t <= other, "{name} reached {other} < exact {t}");
        }

        let ilp = solve_ilp_1d(&inst, Duration::from_secs(1)).unwrap();
        let ilp_t = ilp.total_time.expect("the seeded ILP has an incumbent");
        prop_assert!(t <= ilp_t, "ILP incumbent {ilp_t} < exact {t}");
        if ilp.status == MilpStatus::Optimal {
            prop_assert_eq!(t, ilp_t);
        }
    }
}
