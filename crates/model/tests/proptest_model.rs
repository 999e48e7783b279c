//! Property-based tests of the domain model's geometric and accounting
//! invariants.

use eblow_model::{overlap, simulate, Character, Instance, Selection, Stencil};
use proptest::prelude::*;

/// Strategy: a legal character (blanks always fit the outline).
fn character() -> impl Strategy<Value = Character> {
    (
        10u64..80,
        10u64..80,
        0u64..12,
        0u64..12,
        0u64..12,
        0u64..12,
        1u64..200,
    )
        .prop_map(|(w, h, bl, br, bb, bt, shots)| {
            let bl = bl.min(w / 2);
            let br = br.min(w - bl);
            let bb = bb.min(h / 2);
            let bt = bt.min(h - bb);
            Character::new(w, h, [bl, br, bb, bt], shots).expect("constructed to be legal")
        })
}

fn instance() -> impl Strategy<Value = Instance> {
    (
        prop::collection::vec(character(), 1..12),
        prop::collection::vec(prop::collection::vec(0u64..20, 3), 12),
    )
        .prop_map(|(chars, reps)| {
            let n = chars.len();
            let repeats: Vec<Vec<u64>> = reps.into_iter().take(n).collect();
            Instance::new(Stencil::new(10_000, 10_000).unwrap(), chars, repeats).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Overlap is symmetric in the min sense and bounded by both blanks.
    #[test]
    fn overlap_bounds(a in character(), b in character()) {
        let o = overlap::h_overlap(&a, &b);
        prop_assert!(o <= a.blanks().right);
        prop_assert!(o <= b.blanks().left);
        prop_assert_eq!(o, a.blanks().right.min(b.blanks().left));
        let v = overlap::v_overlap(&a, &b);
        prop_assert!(v <= a.blanks().top && v <= b.blanks().bottom);
    }

    /// Ordered row width is between Σw − Σ(max blank) and Σw.
    #[test]
    fn row_width_bounds(chars in prop::collection::vec(character(), 1..8)) {
        let refs: Vec<&Character> = chars.iter().collect();
        let width = overlap::row_width_ordered(&refs);
        let total: u64 = chars.iter().map(|c| c.width()).sum();
        prop_assert!(width <= total);
        let max_shared: u64 = chars
            .windows(2)
            .map(|p| p[0].blanks().right.min(p[1].blanks().left))
            .sum();
        prop_assert_eq!(width, total - max_shared);
    }

    /// Lemma 1: for symmetric blanks, the blank-descending order achieves
    /// the closed-form minimum, and no permutation beats it.
    #[test]
    fn lemma1_is_a_lower_bound(blanks in prop::collection::vec(1u64..15, 2..6)) {
        let chars: Vec<Character> = blanks
            .iter()
            .map(|&s| Character::new(40, 40, [s, s, 0, 0], 2).unwrap())
            .collect();
        let lemma = overlap::symmetric_min_length(
            chars.iter().map(|c| (c.width(), c.blanks().left)),
        );
        // Exhaustive over permutations (≤ 5! = 120).
        let mut idx: Vec<usize> = (0..chars.len()).collect();
        let mut best = u64::MAX;
        permute(&mut idx, 0, &mut |perm| {
            let refs: Vec<&Character> = perm.iter().map(|&i| &chars[i]).collect();
            best = best.min(overlap::row_width_ordered(&refs));
        });
        prop_assert_eq!(lemma, best);
    }

    /// Writing-time accounting: simulation == analytic formula, and
    /// selecting more characters never increases any region's time.
    #[test]
    fn accounting_consistent_and_monotone(inst in instance(), bits in prop::collection::vec(any::<bool>(), 12)) {
        let n = inst.num_chars();
        let sel = Selection::from_mask(bits[..n].to_vec());
        let report = simulate::simulate_writing(&inst, &sel);
        let analytic = inst.writing_times(&sel);
        let simulated: Vec<u64> = report.columns.iter().map(|c| c.total).collect();
        prop_assert_eq!(&simulated, &analytic);

        // Monotonicity: flipping one candidate on can only help.
        let first_off: Option<usize> = sel.iter_unselected().next();
        if let Some(off) = first_off {
            let mut more = sel.clone();
            more.insert(off);
            let t2 = inst.writing_times(&more);
            for (a, b) in analytic.iter().zip(&t2) {
                prop_assert!(b <= a);
            }
        }
    }

    /// Text format io is a lossless bijection on generated instances.
    #[test]
    fn io_roundtrip(inst in instance()) {
        let text = eblow_model::io::to_string(&inst);
        let back = eblow_model::io::from_str(&text).unwrap();
        prop_assert_eq!(inst, back);
    }

    /// The CSR layout agrees *bit-exactly* with a reference dense
    /// recompute of every accounting quantity: `repeat_row`, `repeats`,
    /// `reduction`, `total_reduction`, `vsb_times`, and `writing_times`
    /// under arbitrary selections — and the sparse view contains exactly
    /// the nonzero columns with `reduction = t_ic · (n_i − 1)`.
    #[test]
    fn sparse_layout_matches_dense_reference(
        chars in prop::collection::vec(character(), 1..12),
        reps in prop::collection::vec(prop::collection::vec(0u64..20, 3), 12),
        sel_seed in any::<u64>(),
    ) {
        let n = chars.len();
        let p = 3;
        // The reference dense matrix is the constructor's input.
        let dense: Vec<Vec<u64>> = reps.into_iter().take(n).collect();
        let inst = Instance::new(Stencil::new(10_000, 10_000).unwrap(), chars, dense.clone()).unwrap();
        for i in 0..n {
            let saving = inst.char(i).shot_saving();
            prop_assert_eq!(inst.repeat_row(i).collect::<Vec<_>>(), dense[i].clone());
            let mut total = 0u64;
            let mut nnz = Vec::new();
            for c in 0..p {
                prop_assert_eq!(inst.repeats(i, c), dense[i][c]);
                let red = dense[i][c] * saving;
                prop_assert_eq!(inst.reduction(i, c), red);
                total += red;
                if dense[i][c] > 0 {
                    nnz.push((c as u32, dense[i][c], red));
                }
            }
            prop_assert_eq!(inst.total_reduction(i), total);
            let sparse: Vec<(u32, u64, u64)> = inst
                .sparse_row(i)
                .iter()
                .map(|e| (e.region, e.repeats, e.reduction))
                .collect();
            prop_assert_eq!(sparse, nnz);
        }
        // Reference VSB times and writing times, dense formulas.
        let mut vsb = vec![0u64; p];
        for i in 0..n {
            for c in 0..p {
                vsb[c] += dense[i][c] * inst.char(i).vsb_shots();
            }
        }
        prop_assert_eq!(inst.vsb_times(), &vsb[..]);
        let mut state = sel_seed | 1;
        for _ in 0..8 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let sel = Selection::from_mask((0..n).map(|i| (state >> (i % 64)) & 1 == 1).collect());
            let mut expect = vsb.clone();
            for i in sel.iter_selected() {
                for c in 0..p {
                    expect[c] -= inst.reduction(i, c);
                }
            }
            prop_assert_eq!(inst.writing_times(&sel), expect);
        }
    }

    /// `Instance::from_flat` and `Instance::new` build identical instances
    /// (same equality, same digest).
    #[test]
    fn from_flat_equals_nested(inst in instance()) {
        let flat: Vec<u64> = (0..inst.num_chars()).flat_map(|i| inst.repeat_row(i)).collect();
        let rebuilt = Instance::from_flat(
            inst.stencil(),
            inst.chars().to_vec(),
            flat,
            inst.num_regions(),
        )
        .unwrap();
        prop_assert_eq!(&rebuilt, &inst);
        prop_assert_eq!(rebuilt.digest(), inst.digest());
    }
}

fn permute<F: FnMut(&[usize])>(idx: &mut Vec<usize>, k: usize, f: &mut F) {
    if k == idx.len() {
        f(idx);
        return;
    }
    for i in k..idx.len() {
        idx.swap(k, i);
        permute(idx, k + 1, f);
        idx.swap(k, i);
    }
}
