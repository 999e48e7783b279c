//! Property-based tests for sequence-pair packing: legality of every
//! packing, relation/packing consistency, move reversibility, and the
//! one-pass packer against the two-pass reference.

use eblow_seqpair::{ItemGeometry, Packing, PairRelation, SequencePair};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Blocks {
    dims: Vec<(i64, i64)>,
    blanks: Vec<(i64, i64, i64, i64)>, // l, r, b, t
}

impl ItemGeometry for Blocks {
    fn len(&self) -> usize {
        self.dims.len()
    }
    fn width(&self, i: usize) -> i64 {
        self.dims[i].0
    }
    fn height(&self, i: usize) -> i64 {
        self.dims[i].1
    }
    fn h_overlap(&self, l: usize, r: usize) -> i64 {
        self.blanks[l].1.min(self.blanks[r].0)
    }
    fn v_overlap(&self, b: usize, t: usize) -> i64 {
        self.blanks[b].3.min(self.blanks[t].2)
    }
}

fn blocks(n: usize) -> impl Strategy<Value = Blocks> {
    (
        prop::collection::vec((20i64..60, 20i64..60), n),
        prop::collection::vec((0i64..10, 0i64..10, 0i64..10, 0i64..10), n),
    )
        .prop_map(|(dims, blanks)| Blocks { dims, blanks })
}

fn permutation(n: usize) -> impl Strategy<Value = Vec<usize>> {
    Just((0..n).collect::<Vec<usize>>()).prop_shuffle()
}

/// The reference packer: longest paths over `Γ⁻`, one scan per axis, into
/// fresh buffers.
fn two_pass_pack<G: ItemGeometry>(sp: &SequencePair, items: &G) -> Packing {
    let n = sp.len();
    let mut rank = vec![0; n];
    for (k, &b) in sp.pos().iter().enumerate() {
        rank[b] = k;
    }
    let neg = sp.neg();
    let mut xs = vec![0i64; n];
    let mut ys = vec![0i64; n];
    // a left of b: before b in both sequences.
    for (k, &b) in neg.iter().enumerate() {
        let mut x = 0i64;
        for &a in &neg[..k] {
            if rank[a] < rank[b] {
                x = x.max(xs[a] + items.width(a) - items.h_overlap(a, b));
            }
        }
        xs[b] = x;
    }
    // a below b: after b in Γ⁺, before b in Γ⁻.
    for (k, &b) in neg.iter().enumerate() {
        let mut y = 0i64;
        for &a in &neg[..k] {
            if rank[a] > rank[b] {
                y = y.max(ys[a] + items.height(a) - items.v_overlap(a, b));
            }
        }
        ys[b] = y;
    }
    let mut width = 0;
    let mut height = 0;
    for i in 0..n {
        width = width.max(xs[i] + items.width(i));
        height = height.max(ys[i] + items.height(i));
    }
    Packing {
        xs,
        ys,
        width,
        height,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every packing satisfies the pairwise disjunctive separation
    /// constraints, and the realized relation matches the sequence pair's.
    #[test]
    fn packing_is_legal_and_matches_relations(
        items in blocks(6),
        pos in permutation(6),
        neg in permutation(6),
    ) {
        let sp = SequencePair::new(pos, neg);
        let pack = sp.pack(&items);
        for a in 0..6 {
            prop_assert!(pack.xs[a] >= 0 && pack.ys[a] >= 0);
            prop_assert!(pack.xs[a] + items.width(a) <= pack.width);
            prop_assert!(pack.ys[a] + items.height(a) <= pack.height);
            for b in (a + 1)..6 {
                let sep = match sp.relation(a, b) {
                    PairRelation::LeftOf =>
                        pack.xs[a] + items.width(a) - items.h_overlap(a, b) <= pack.xs[b],
                    PairRelation::RightOf =>
                        pack.xs[b] + items.width(b) - items.h_overlap(b, a) <= pack.xs[a],
                    PairRelation::Below =>
                        pack.ys[a] + items.height(a) - items.v_overlap(a, b) <= pack.ys[b],
                    PairRelation::Above =>
                        pack.ys[b] + items.height(b) - items.v_overlap(b, a) <= pack.ys[a],
                };
                prop_assert!(sep, "relation {:?} violated for ({a},{b})", sp.relation(a, b));
            }
        }
    }

    /// Relations are antisymmetric: rel(a,b) is the mirror of rel(b,a).
    #[test]
    fn relations_antisymmetric(pos in permutation(5), neg in permutation(5)) {
        let sp = SequencePair::new(pos, neg);
        for a in 0..5 {
            for b in 0..5 {
                if a == b { continue; }
                let expected = match sp.relation(a, b) {
                    PairRelation::LeftOf => PairRelation::RightOf,
                    PairRelation::RightOf => PairRelation::LeftOf,
                    PairRelation::Below => PairRelation::Above,
                    PairRelation::Above => PairRelation::Below,
                };
                prop_assert_eq!(sp.relation(b, a), expected);
            }
        }
    }

    /// Swap moves are involutions: applying twice restores the pair.
    #[test]
    fn swaps_are_involutions(
        pos in permutation(7),
        neg in permutation(7),
        i in 0usize..7,
        j in 0usize..7,
    ) {
        prop_assume!(i != j);
        let original = SequencePair::new(pos, neg);
        let mut sp = original.clone();
        sp.swap_pos(i, j);
        sp.swap_pos(i, j);
        prop_assert_eq!(&sp, &original);
        sp.swap_neg(i, j);
        sp.swap_neg(i, j);
        prop_assert_eq!(&sp, &original);
        sp.swap_blocks(i, j);
        sp.swap_blocks(i, j);
        prop_assert_eq!(&sp, &original);
    }

    /// `pack_into` gives the reference's coordinates and bounding box, into
    /// one buffer reused over pairs of 0–40 blocks in random order, so that
    /// it grows and shrinks. Each pair takes the first `n` blocks, in the
    /// order the 40-block permutations list them.
    #[test]
    fn one_pass_packing_matches_the_two_pass_reference(
        items in blocks(40),
        pos in permutation(40),
        neg in permutation(40),
        sizes in prop::collection::vec(0usize..=40, 2..10),
    ) {
        let mut out = Packing::default();
        for n in sizes {
            let first = Blocks {
                dims: items.dims[..n].to_vec(),
                blanks: items.blanks[..n].to_vec(),
            };
            let pick = |perm: &[usize]| perm.iter().copied().filter(|&b| b < n).collect();
            let sp = SequencePair::new(pick(&pos), pick(&neg));
            sp.pack_into(&first, &mut out);
            prop_assert_eq!(&out, &two_pass_pack(&sp, &first));
        }
    }

    /// Zero overlaps give packings at least as wide as overlap-aware ones.
    #[test]
    fn sharing_never_hurts(items in blocks(5), pos in permutation(5), neg in permutation(5)) {
        let sp = SequencePair::new(pos, neg);
        let with = sp.pack(&items);
        let without = sp.pack(&Blocks {
            dims: items.dims.clone(),
            blanks: vec![(0, 0, 0, 0); 5],
        });
        prop_assert!(with.width <= without.width);
        prop_assert!(with.height <= without.height);
    }
}
