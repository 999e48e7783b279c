//! Blank-sharing ("overlapping") arithmetic.
//!
//! Adjacent characters on the stencil may share their blank margins. A blank
//! is reserved *clearance* around the pattern body; when character `a` sits
//! immediately left of character `b`, the clearance between the two pattern
//! bodies must be at least `max(a.right_blank, b.left_blank)` — the two
//! clearances may coincide. Pushed together maximally, the outlines overlap
//! by
//!
//! ```text
//! o^h_ab = a.right_blank + b.left_blank − max(a.right_blank, b.left_blank)
//!        = min(a.right_blank, b.left_blank)
//! ```
//!
//! and symmetrically in the vertical direction. This module provides those
//! quantities, the minimum width of an ordered row, and the closed form of
//! paper Lemma 1 for symmetric blanks.

use crate::Character;

/// Maximal horizontal outline overlap when `left` is placed immediately to
/// the left of `right`: `min(left.right_blank, right.left_blank)`.
///
/// # Example
///
/// ```
/// use eblow_model::{Character, overlap::h_overlap};
/// # fn main() -> Result<(), eblow_model::ModelError> {
/// let a = Character::new(40, 40, [2, 7, 0, 0], 5)?;
/// let b = Character::new(40, 40, [4, 9, 0, 0], 5)?;
/// assert_eq!(h_overlap(&a, &b), 4); // min(7, 4)
/// assert_eq!(h_overlap(&b, &a), 2); // min(9, 2)
/// # Ok(())
/// # }
/// ```
#[inline]
pub fn h_overlap(left: &Character, right: &Character) -> u64 {
    left.blanks().right.min(right.blanks().left)
}

/// Maximal vertical outline overlap when `bottom` is placed immediately
/// below `top`: `min(bottom.top_blank, top.bottom_blank)`.
#[inline]
pub fn v_overlap(bottom: &Character, top: &Character) -> u64 {
    bottom.blanks().top.min(top.blanks().bottom)
}

/// Effective width `w_ij = w_i − o^h_ij` of `left` when followed by `right`
/// (the quantity used in constraints (3d)/(3e) and (7b)/(7c)).
#[inline]
pub fn paired_width(left: &Character, right: &Character) -> u64 {
    left.width() - h_overlap(left, right)
}

/// Minimum width of a row containing `chars` in the given left-to-right
/// order, with maximal blank sharing between each adjacent pair:
/// `Σ w_i − Σ o^h_{i,i+1}`.
///
/// An empty slice has width 0. The width accumulates pair by pair
/// (`Σ paired_width + w_last`, every term non-negative) and saturates at
/// `u64::MAX`, so a row that fits a `u64` never overflows on the way.
pub fn row_width_ordered(chars: &[&Character]) -> u64 {
    checked_row_width(chars).unwrap_or(u64::MAX)
}

/// [`row_width_ordered`] without saturation: `None` when the width does
/// not fit a `u64`, so such a row fits no stencil.
pub fn checked_row_width(chars: &[&Character]) -> Option<u64> {
    let Some(last) = chars.last() else {
        return Some(0);
    };
    chars.windows(2).try_fold(last.width(), |width, pair| {
        width.checked_add(paired_width(pair[0], pair[1]))
    })
}

/// Minimum packing length for characters with **symmetric** blanks
/// (paper Lemma 1, Eqn. (2)): `Σ (w_i − s_i) + max_i s_i`.
///
/// `items` yields `(width, symmetric_blank)` pairs with `2·s_i ≤ w_i` not
/// required but `s_i ≤ w_i` expected. Returns 0 for an empty iterator.
/// The sum saturates at `u64::MAX`.
///
/// This is the capacity formula used throughout the simplified 1D
/// formulation (4): a row of capacity `W` fits a set `S` iff
/// `Σ_{i∈S}(w_i − s_i) + max_{i∈S} s_i ≤ W`.
pub fn symmetric_min_length<I: IntoIterator<Item = (u64, u64)>>(items: I) -> u64 {
    let mut sum = 0u64;
    let mut max_s = 0u64;
    let mut any = false;
    for (w, s) in items {
        any = true;
        sum = sum.saturating_add(w - s.min(w));
        max_s = max_s.max(s.min(w));
    }
    if any {
        sum.saturating_add(max_s)
    } else {
        0
    }
}

/// Optimal single-row order for characters with symmetric blanks: sorted by
/// blank descending, the row achieves the Lemma 1 lower bound. Returns the
/// permutation (indices into `chars`) realizing it.
///
/// For *asymmetric* blanks this is only a heuristic order; the refinement DP
/// in `eblow-core` improves on it.
pub fn symmetric_optimal_order(chars: &[&Character]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..chars.len()).collect();
    idx.sort_by(|&a, &b| {
        chars[b]
            .symmetric_blank()
            .cmp(&chars[a].symmetric_blank())
            .then(a.cmp(&b))
    });
    // Insert alternately left/right so every adjacent pair shares the smaller
    // blank: descending order already guarantees the bound when packed
    // left-to-right, which keeps the order deterministic.
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Character;

    fn ch(w: u64, sl: u64, sr: u64) -> Character {
        Character::new(w, 10, [sl, sr, 0, 0], 2).unwrap()
    }

    #[test]
    fn overlap_is_min_of_facing_blanks() {
        let a = ch(40, 2, 7);
        let b = ch(40, 4, 9);
        assert_eq!(h_overlap(&a, &b), 4);
        assert_eq!(h_overlap(&b, &a), 2);
        assert_eq!(paired_width(&a, &b), 36);
    }

    #[test]
    fn v_overlap_uses_vertical_blanks() {
        let a = Character::new(10, 40, [0, 0, 3, 6], 2).unwrap();
        let b = Character::new(10, 40, [0, 0, 5, 2], 2).unwrap();
        assert_eq!(v_overlap(&a, &b), 5); // min(a.top=6, b.bottom=5)
        assert_eq!(v_overlap(&b, &a), 2); // min(b.top=2, a.bottom=3)
    }

    #[test]
    fn ordered_row_width_subtracts_adjacent_overlaps() {
        let a = ch(40, 5, 5);
        let b = ch(40, 5, 5);
        let c = ch(40, 3, 3);
        assert_eq!(row_width_ordered(&[&a, &b, &c]), 120 - 5 - 3);
        assert_eq!(row_width_ordered(&[]), 0);
        assert_eq!(row_width_ordered(&[&a]), 40);
    }

    #[test]
    fn lemma1_closed_form() {
        // Paper example style: symmetric blanks s, width M.
        // length = Σ(M−s_i) + max s_i
        let items = [(2000, 900), (2000, 800), (2000, 587)];
        assert_eq!(
            symmetric_min_length(items),
            (2000 - 900) + (2000 - 800) + (2000 - 587) + 900
        );
        assert_eq!(symmetric_min_length(std::iter::empty()), 0);
        assert_eq!(symmetric_min_length([(40, 6)]), 40);
    }

    #[test]
    fn lemma1_matches_sorted_sequential_packing() {
        // For symmetric blanks sorted descending, packing left-to-right gives
        // overlaps s_2, s_3, ..., s_n, i.e. the Lemma 1 value.
        let chars = [ch(40, 9, 9), ch(44, 7, 7), ch(38, 4, 4), ch(50, 2, 2)];
        let refs: Vec<&Character> = chars.iter().collect();
        let seq = row_width_ordered(&refs);
        let lemma = symmetric_min_length(chars.iter().map(|c| (c.width(), c.blanks().left)));
        assert_eq!(seq, lemma);
    }

    #[test]
    fn widths_saturate_instead_of_wrapping() {
        let half = 1u64 << 63;
        let plain = ch(half, 0, 0);
        assert_eq!(row_width_ordered(&[&plain, &plain]), u64::MAX);
        assert_eq!(symmetric_min_length([(half, 0), (half, 0)]), u64::MAX);
        // Σ w overflows, but the shared row is 3·2⁶² wide and exact.
        let blank = ch(half, half / 2, half / 2);
        assert_eq!(row_width_ordered(&[&blank, &blank]), 3 << 62);
    }

    #[test]
    fn symmetric_order_sorts_by_blank_desc() {
        let chars = [ch(40, 4, 4), ch(40, 9, 9), ch(40, 6, 6)];
        let refs: Vec<&Character> = chars.iter().collect();
        assert_eq!(symmetric_optimal_order(&refs), vec![1, 2, 0]);
    }
}
