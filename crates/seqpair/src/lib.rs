//! Sequence-pair floorplan representation with overlap-aware packing.
//!
//! The 2DOSP flow of E-BLOW (paper §4.2) follows \[24\] in representing a
//! stencil floorplan as a **sequence pair** `(Γ⁺, Γ⁻)` — two permutations of
//! the blocks — and evaluating it by longest-path computation:
//!
//! * `a` before `b` in *both* sequences ⇒ `a` is **left of** `b`;
//! * `a` after `b` in `Γ⁺` but before `b` in `Γ⁻` ⇒ `a` is **below** `b`.
//!
//! Unlike classic floorplanning, adjacent stencil characters may share blank
//! margins, so the horizontal constraint is `x_b ≥ x_a + w_a − o^h(a,b)`
//! with a *pairwise* overlap `o^h` (and symmetrically for y). The packer is
//! generic over an [`ItemGeometry`] so this crate stays independent of the
//! domain model.
//!
//! # Example
//!
//! ```
//! use eblow_seqpair::{ItemGeometry, SequencePair};
//!
//! struct Plain(Vec<(i64, i64)>);
//! impl ItemGeometry for Plain {
//!     fn len(&self) -> usize { self.0.len() }
//!     fn width(&self, i: usize) -> i64 { self.0[i].0 }
//!     fn height(&self, i: usize) -> i64 { self.0[i].1 }
//!     // No blank sharing in this toy.
//!     fn h_overlap(&self, _: usize, _: usize) -> i64 { 0 }
//!     fn v_overlap(&self, _: usize, _: usize) -> i64 { 0 }
//! }
//!
//! let items = Plain(vec![(4, 3), (2, 5)]);
//! // 0 before 1 in both sequences: 0 left of 1.
//! let sp = SequencePair::identity(2);
//! let pack = sp.pack(&items);
//! assert_eq!(pack.xs, vec![0, 4]);
//! assert_eq!(pack.width, 6);
//! assert_eq!(pack.height, 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Geometry oracle for the items being packed.
///
/// Implementors provide outline sizes and the pairwise *blank-sharing*
/// overlaps. Returning 0 from the overlap methods recovers classic
/// hard-rectangle packing.
pub trait ItemGeometry {
    /// Number of items.
    fn len(&self) -> usize;
    /// `true` when there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Outline width of item `i`.
    fn width(&self, i: usize) -> i64;
    /// Outline height of item `i`.
    fn height(&self, i: usize) -> i64;
    /// Allowed outline overlap when `left` is placed immediately left of
    /// `right` (`min` of the facing blanks in the OSP model). Must be
    /// `≤ min(width(left), width(right))` and non-negative.
    fn h_overlap(&self, left: usize, right: usize) -> i64;
    /// Allowed outline overlap when `bottom` is immediately below `top`.
    fn v_overlap(&self, bottom: usize, top: usize) -> i64;
}

/// Relative position of a pair of blocks encoded by a sequence pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairRelation {
    /// First block is left of the second.
    LeftOf,
    /// First block is right of the second.
    RightOf,
    /// First block is below the second.
    Below,
    /// First block is above the second.
    Above,
}

/// The result of packing a sequence pair: coordinates and bounding box.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Packing {
    /// X of each block's lower-left corner (indexed by block).
    pub xs: Vec<i64>,
    /// Y of each block's lower-left corner.
    pub ys: Vec<i64>,
    /// Bounding-box width `max(x_i + w_i)`.
    pub width: i64,
    /// Bounding-box height `max(y_i + h_i)`.
    pub height: i64,
}

/// A sequence pair `(Γ⁺, Γ⁻)` over `n` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequencePair {
    pos: Vec<usize>,
    neg: Vec<usize>,
    inv_pos: Vec<usize>,
    inv_neg: Vec<usize>,
}

impl SequencePair {
    /// The identity sequence pair (`Γ⁺ = Γ⁻ = 0..n`): all blocks in one row.
    pub fn identity(n: usize) -> Self {
        SequencePair {
            pos: (0..n).collect(),
            neg: (0..n).collect(),
            inv_pos: (0..n).collect(),
            inv_neg: (0..n).collect(),
        }
    }

    /// Builds a sequence pair from explicit permutations.
    ///
    /// # Panics
    ///
    /// Panics if `pos` and `neg` are not permutations of `0..n` of equal
    /// length.
    pub fn new(pos: Vec<usize>, neg: Vec<usize>) -> Self {
        assert_eq!(pos.len(), neg.len(), "sequence lengths differ");
        let n = pos.len();
        let mut inv_pos = vec![usize::MAX; n];
        let mut inv_neg = vec![usize::MAX; n];
        for (k, &b) in pos.iter().enumerate() {
            assert!(b < n && inv_pos[b] == usize::MAX, "pos not a permutation");
            inv_pos[b] = k;
        }
        for (k, &b) in neg.iter().enumerate() {
            assert!(b < n && inv_neg[b] == usize::MAX, "neg not a permutation");
            inv_neg[b] = k;
        }
        SequencePair {
            pos,
            neg,
            inv_pos,
            inv_neg,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.pos.len()
    }

    /// `true` for an empty pair.
    pub fn is_empty(&self) -> bool {
        self.pos.is_empty()
    }

    /// The positive sequence `Γ⁺`.
    pub fn pos(&self) -> &[usize] {
        &self.pos
    }

    /// The negative sequence `Γ⁻`.
    pub fn neg(&self) -> &[usize] {
        &self.neg
    }

    /// Relation between blocks `a` and `b` (`a ≠ b`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either index is out of range.
    pub fn relation(&self, a: usize, b: usize) -> PairRelation {
        assert_ne!(a, b, "relation of a block with itself");
        let before_pos = self.inv_pos[a] < self.inv_pos[b];
        let before_neg = self.inv_neg[a] < self.inv_neg[b];
        match (before_pos, before_neg) {
            (true, true) => PairRelation::LeftOf,
            (false, false) => PairRelation::RightOf,
            (false, true) => PairRelation::Below,
            (true, false) => PairRelation::Above,
        }
    }

    /// Swaps two *positions* in `Γ⁺` (a classic SA move).
    pub fn swap_pos(&mut self, i: usize, j: usize) {
        self.pos.swap(i, j);
        self.inv_pos[self.pos[i]] = i;
        self.inv_pos[self.pos[j]] = j;
    }

    /// Swaps two positions in `Γ⁻`.
    pub fn swap_neg(&mut self, i: usize, j: usize) {
        self.neg.swap(i, j);
        self.inv_neg[self.neg[i]] = i;
        self.inv_neg[self.neg[j]] = j;
    }

    /// Swaps block occurrences in *both* sequences (exchanges two blocks'
    /// roles entirely).
    pub fn swap_blocks(&mut self, a: usize, b: usize) {
        let (pa, pb) = (self.inv_pos[a], self.inv_pos[b]);
        self.swap_pos(pa, pb);
        let (na, nb) = (self.inv_neg[a], self.inv_neg[b]);
        self.swap_neg(na, nb);
    }

    /// Packs the blocks: longest-path in the horizontal/vertical constraint
    /// graphs with overlap-aware edge weights. `O(n²)`. Allocates the
    /// returned coordinates; [`SequencePair::pack_into`] reuses them.
    ///
    /// Every pair of blocks is constrained (exactly one of the four
    /// relations holds), so the returned coordinates satisfy the disjunctive
    /// separation constraints (7b)–(7e) of the paper by construction.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() != self.len()`.
    pub fn pack<G: ItemGeometry>(&self, items: &G) -> Packing {
        let mut out = Packing::default();
        self.pack_into(items, &mut out);
        out
    }

    /// [`SequencePair::pack`] into `out`, whose coordinate buffers are
    /// resized to the block count and overwritten: no allocation once they
    /// have held `n` blocks.
    ///
    /// One pass over `Γ⁻` places both axes. Every block before `b` in `Γ⁻`
    /// is left of `b` (before it in `Γ⁺` too) or below it (after it in
    /// `Γ⁺`), and was placed before `b`, so each pair is visited once.
    ///
    /// # Panics
    ///
    /// Panics if `items.len() != self.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// use eblow_seqpair::{ItemGeometry, Packing, SequencePair};
    ///
    /// struct Squares(usize);
    /// impl ItemGeometry for Squares {
    ///     fn len(&self) -> usize { self.0 }
    ///     fn width(&self, _: usize) -> i64 { 10 }
    ///     fn height(&self, _: usize) -> i64 { 10 }
    ///     fn h_overlap(&self, _: usize, _: usize) -> i64 { 2 }
    ///     fn v_overlap(&self, _: usize, _: usize) -> i64 { 0 }
    /// }
    ///
    /// let mut out = Packing::default();
    /// SequencePair::identity(3).pack_into(&Squares(3), &mut out);
    /// assert_eq!(out.xs, [0, 8, 16]);
    /// assert_eq!(out.width, 26);
    /// // 1 above 0 (after it in Γ⁻, before it in Γ⁺); the buffers shrink.
    /// SequencePair::new(vec![1, 0], vec![0, 1]).pack_into(&Squares(2), &mut out);
    /// assert_eq!(out.ys, [0, 10]);
    /// assert_eq!(out.height, 20);
    /// ```
    pub fn pack_into<G: ItemGeometry>(&self, items: &G, out: &mut Packing) {
        let n = self.len();
        assert_eq!(items.len(), n, "geometry size mismatch");
        let Packing { xs, ys, .. } = out;
        xs.resize(n, 0);
        ys.resize(n, 0);
        let (mut width, mut height) = (0, 0);
        for (k, &b) in self.neg.iter().enumerate() {
            let (mut x, mut y) = (0i64, 0i64);
            let rank = self.inv_pos[b];
            for &a in &self.neg[..k] {
                if self.inv_pos[a] < rank {
                    x = x.max(xs[a] + items.width(a) - items.h_overlap(a, b));
                } else {
                    y = y.max(ys[a] + items.height(a) - items.v_overlap(a, b));
                }
            }
            (xs[b], ys[b]) = (x, y);
            width = width.max(x + items.width(b));
            height = height.max(y + items.height(b));
        }
        (out.width, out.height) = (width, height);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Items with uniform symmetric blanks: overlap = min(blank_a, blank_b).
    struct Blanked {
        dims: Vec<(i64, i64)>,
        blanks: Vec<i64>,
    }

    impl ItemGeometry for Blanked {
        fn len(&self) -> usize {
            self.dims.len()
        }
        fn width(&self, i: usize) -> i64 {
            self.dims[i].0
        }
        fn height(&self, i: usize) -> i64 {
            self.dims[i].1
        }
        fn h_overlap(&self, a: usize, b: usize) -> i64 {
            self.blanks[a].min(self.blanks[b])
        }
        fn v_overlap(&self, a: usize, b: usize) -> i64 {
            self.blanks[a].min(self.blanks[b])
        }
    }

    #[test]
    fn relations_follow_sequence_pair_semantics() {
        // Γ⁺ = (0 1), Γ⁻ = (1 0): 0 after 1 in Γ⁻? No: pos:0<1, neg:0 at
        // index 1 → 0 before 1 in pos, after in neg → 0 Above 1.
        let sp = SequencePair::new(vec![0, 1], vec![1, 0]);
        assert_eq!(sp.relation(0, 1), PairRelation::Above);
        assert_eq!(sp.relation(1, 0), PairRelation::Below);
        let sp = SequencePair::identity(2);
        assert_eq!(sp.relation(0, 1), PairRelation::LeftOf);
        assert_eq!(sp.relation(1, 0), PairRelation::RightOf);
    }

    #[test]
    fn row_packing_shares_blanks() {
        let items = Blanked {
            dims: vec![(40, 40), (40, 40), (40, 40)],
            blanks: vec![5, 3, 8],
        };
        let sp = SequencePair::identity(3);
        let pack = sp.pack(&items);
        // 0-1 share min(5,3)=3; 1-2 share min(3,8)=3.
        assert_eq!(pack.xs, vec![0, 37, 74]);
        assert_eq!(pack.width, 114);
        assert_eq!(pack.height, 40);
    }

    #[test]
    fn vertical_stack_shares_blanks() {
        let items = Blanked {
            dims: vec![(40, 40), (40, 40)],
            blanks: vec![5, 3],
        };
        // 0 below 1: 0 after 1 in Γ⁺, before in Γ⁻.
        let sp = SequencePair::new(vec![1, 0], vec![0, 1]);
        assert_eq!(sp.relation(0, 1), PairRelation::Below);
        let pack = sp.pack(&items);
        assert_eq!(pack.ys, vec![0, 37]);
        assert_eq!(pack.height, 77);
        assert_eq!(pack.width, 40);
    }

    #[test]
    fn swaps_update_inverses() {
        let mut sp = SequencePair::identity(4);
        sp.swap_pos(0, 3);
        assert_eq!(sp.pos(), &[3, 1, 2, 0]);
        sp.swap_blocks(1, 2);
        assert_eq!(sp.pos(), &[3, 2, 1, 0]);
        assert_eq!(sp.neg(), &[0, 2, 1, 3]);
        // Round-trip coherence of inverses.
        for (k, &b) in sp.pos().iter().enumerate() {
            assert_eq!(sp.inv_pos[b], k);
        }
        for (k, &b) in sp.neg().iter().enumerate() {
            assert_eq!(sp.inv_neg[b], k);
        }
    }

    /// Every packing must satisfy the pairwise disjunctive constraints.
    #[test]
    fn packings_are_always_legal() {
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let n = 2 + (next() % 8) as usize;
            let items = Blanked {
                dims: (0..n)
                    .map(|_| (20 + (next() % 40) as i64, 20 + (next() % 40) as i64))
                    .collect(),
                blanks: (0..n).map(|_| (next() % 10) as i64).collect(),
            };
            // Random permutations via Fisher-Yates on both sequences.
            let mut pos: Vec<usize> = (0..n).collect();
            let mut neg: Vec<usize> = (0..n).collect();
            for k in (1..n).rev() {
                pos.swap(k, (next() % (k as u64 + 1)) as usize);
                neg.swap(k, (next() % (k as u64 + 1)) as usize);
            }
            let sp = SequencePair::new(pos, neg);
            let pack = sp.pack(&items);
            for a in 0..n {
                assert!(pack.xs[a] >= 0 && pack.ys[a] >= 0);
                for b in a + 1..n {
                    let sep_h_ab =
                        pack.xs[a] + items.width(a) - items.h_overlap(a, b) <= pack.xs[b];
                    let sep_h_ba =
                        pack.xs[b] + items.width(b) - items.h_overlap(b, a) <= pack.xs[a];
                    let sep_v_ab =
                        pack.ys[a] + items.height(a) - items.v_overlap(a, b) <= pack.ys[b];
                    let sep_v_ba =
                        pack.ys[b] + items.height(b) - items.v_overlap(b, a) <= pack.ys[a];
                    assert!(
                        sep_h_ab || sep_h_ba || sep_v_ab || sep_v_ba,
                        "blocks {a},{b} illegally overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let sp = SequencePair::identity(0);
        assert!(sp.is_empty());
        let items = Blanked {
            dims: vec![(10, 20)],
            blanks: vec![2],
        };
        let sp = SequencePair::identity(1);
        let pack = sp.pack(&items);
        assert_eq!((pack.width, pack.height), (10, 20));
    }
}
