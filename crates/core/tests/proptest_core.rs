//! Property-based tests of the core algorithms against brute-force oracles.

use eblow_core::oned::{
    brute_force_min_width, refine_row, solve_mkp_lp, CombinatorialOracle, LpOracle, MkpItem,
    RowBase, SimplexOracle,
};
use eblow_gen::GenConfig;
use eblow_model::{CharId, Character, Instance, Stencil};
use proptest::prelude::*;

fn row_instance(specs: &[(u64, u64, u64)]) -> Instance {
    let chars: Vec<Character> = specs
        .iter()
        .map(|&(w, l, r)| Character::new(w, 40, [l, r, 0, 0], 5).unwrap())
        .collect();
    let n = chars.len();
    Instance::new(
        Stencil::with_rows(1_000_000, 40, 40).unwrap(),
        chars,
        vec![vec![1]; n],
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The refinement DP (end-insertion, beam ∞) never beats the true
    /// permutation optimum and is near it; for symmetric blanks it matches
    /// exactly (Lemma 1).
    #[test]
    fn refine_dp_vs_brute_force(
        specs in prop::collection::vec((30u64..60, 1u64..14, 1u64..14), 2..7),
    ) {
        let specs: Vec<(u64, u64, u64)> = specs
            .into_iter()
            .map(|(w, l, r)| (w, l.min(w / 2), r.min(w / 2)))
            .collect();
        let inst = row_instance(&specs);
        let ids: Vec<CharId> = (0..specs.len()).map(CharId::from).collect();
        let (order, dp_width) = refine_row(&inst, &ids, 1024);
        let brute = brute_force_min_width(&inst, &ids);
        prop_assert!(dp_width >= brute, "DP below the permutation optimum?!");
        // End-insertion explores 2^{n-1} of n! orders; allow a small gap.
        prop_assert!(
            dp_width as f64 <= brute as f64 * 1.05 + 4.0,
            "DP {dp_width} far from optimum {brute}"
        );
        // The returned order must realize the returned width.
        let chars: Vec<&Character> = order.iter().map(|id| inst.char(id.index())).collect();
        prop_assert_eq!(eblow_model::overlap::row_width_ordered(&chars), dp_width);
    }

    /// Symmetric blanks: DP == Lemma 1 closed form == brute force.
    #[test]
    fn refine_dp_symmetric_exact(
        specs in prop::collection::vec((30u64..60, 1u64..14), 2..7),
    ) {
        let specs: Vec<(u64, u64, u64)> = specs
            .into_iter()
            .map(|(w, s)| (w, s.min(w / 2), s.min(w / 2)))
            .collect();
        let inst = row_instance(&specs);
        let ids: Vec<CharId> = (0..specs.len()).map(CharId::from).collect();
        let (_, dp_width) = refine_row(&inst, &ids, 64);
        let lemma = eblow_model::overlap::symmetric_min_length(
            specs.iter().map(|&(w, s, _)| (w, s)),
        );
        prop_assert_eq!(dp_width, lemma);
    }

    /// The MKP LP oracle returns a feasible fractional solution whose
    /// objective equals the aggregate fractional-knapsack optimum.
    #[test]
    fn mkp_lp_feasible_and_tight(
        items in prop::collection::vec((10u64..50, 1u64..10, 1u64..500u64), 1..30),
        rows in 1usize..5,
        width in 80u64..200,
    ) {
        let items: Vec<MkpItem> = items
            .iter()
            .enumerate()
            .map(|(i, &(eff, blank, profit))| MkpItem {
                char_index: i,
                eff_width: eff,
                blank,
                profit: profit as f64,
            })
            .collect();
        let base = vec![RowBase::default(); rows];
        let sol = solve_mkp_lp(&items, &base, width);

        // Feasibility: Σ_j a_ij ≤ 1, capacities respected under final B_j.
        let mut load = vec![0.0f64; rows];
        for (k, fr) in sol.fracs.iter().enumerate() {
            let total: f64 = fr.iter().map(|&(_, f)| f).sum();
            prop_assert!(total <= 1.0 + 1e-9);
            for &(j, f) in fr {
                prop_assert!(f >= -1e-12);
                load[j] += f * items[k].eff_width as f64;
            }
        }
        for j in 0..rows {
            prop_assert!(load[j] <= (width.saturating_sub(sol.blanks[j])) as f64 + 1e-6);
        }

        // Tightness: objective equals the density-greedy aggregate bound
        // with the final blanks.
        let caps: f64 = (0..rows)
            .map(|j| width.saturating_sub(sol.blanks[j]) as f64)
            .sum();
        let mut order: Vec<usize> = (0..items.len()).filter(|&k| items[k].profit > 0.0).collect();
        // `total_cmp`: even oracle code in tests keeps comparators NaN-total.
        order.sort_by(|&a, &b| {
            (items[b].profit / items[b].eff_width as f64)
                .total_cmp(&(items[a].profit / items[a].eff_width as f64))
        });
        let mut room = caps;
        let mut bound = 0.0;
        for &k in &order {
            let take = (room / items[k].eff_width as f64).clamp(0.0, 1.0);
            bound += take * items[k].profit;
            room -= take * items[k].eff_width as f64;
            if room <= 0.0 {
                break;
            }
        }
        prop_assert!(sol.objective <= bound + 1e-6,
            "objective {} exceeds aggregate bound {bound}", sol.objective);
    }

    /// Backend agreement (the cross-check the pluggable oracle exists for):
    /// on random small *blank-free* instances from `eblow-gen`, both
    /// [`LpOracle`] backends solve the identical fractional multiple
    /// knapsack, so their objectives must agree to 1e-6 relative. (Blanks are zeroed
    /// because with them formulation (4) lets the simplex hold `B_j` below
    /// the max assigned blank — the Lemma 3-4 gap, checked separately with
    /// a loose tolerance by `eblow-eval agree`.)
    #[test]
    fn lp_oracle_backends_agree_on_blank_free_instances(
        seed in 0u64..2000,
        n in 4usize..20,
        rows in 1u64..4,
    ) {
        let cfg = GenConfig {
            n_chars: n,
            blank: (0, 0),
            stencil_h: rows * 40,
            ..GenConfig::tiny_1d(seed)
        };
        let inst = eblow_gen::generate(&cfg);
        let items = MkpItem::initial_set(&inst);
        let base = vec![RowBase::default(); rows as usize];
        let w = inst.stencil().width();

        let comb = CombinatorialOracle.solve_lp(&items, &base, w).unwrap();
        let simp = SimplexOracle.solve_lp(&items, &base, w).unwrap();

        let scale = comb.objective.abs().max(simp.objective.abs()).max(1.0);
        prop_assert!(
            (comb.objective - simp.objective).abs() <= 1e-6 * scale,
            "combinatorial {} vs simplex {} (seed {seed}, n {n}, rows {rows})",
            comb.objective,
            simp.objective
        );
    }

    /// The sparse profit accounting (`RegionTimes::profit`/`profits`)
    /// is bit-identical to a dense recompute of Eqn. (6) from the public
    /// dense accessors, across a random select trajectory.
    #[test]
    fn sparse_profits_match_dense_reference(seed in 1u64..2000) {
        use eblow_core::profit::RegionTimes;
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
        let n = inst.num_chars();
        let mut rt = RegionTimes::new(&inst);
        let mut state = seed | 1;
        let mut selected = vec![false; n];
        for _step in 0..12 {
            // Dense reference: Eqn. (6) exactly as the pre-CSR code wrote it.
            let times = rt.times().to_vec();
            let t_max = times.iter().copied().max().unwrap_or(0);
            prop_assert_eq!(rt.total(), t_max);
            for i in 0..n {
                let expect = if t_max == 0 {
                    0.0
                } else {
                    let saving = inst.char(i).shot_saving() as f64;
                    let mut p = 0.0;
                    for (c, &t) in times.iter().enumerate() {
                        p += (t as f64 / t_max as f64) * saving * inst.repeats(i, c) as f64;
                    }
                    p
                };
                prop_assert_eq!(rt.profit(&inst, i).to_bits(), expect.to_bits());
            }
            let profits = rt.profits(&inst);
            for i in 0..n {
                prop_assert_eq!(profits[i].to_bits(), rt.profit(&inst, i).to_bits());
            }
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % n as u64) as usize;
            if selected[i] {
                rt.deselect(&inst, i);
            } else {
                rt.select(&inst, i);
            }
            selected[i] = !selected[i];
        }
    }
}
