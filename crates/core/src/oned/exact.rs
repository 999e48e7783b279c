//! Exact 1DOSP by selection enumeration (`exact1d`).
//!
//! The unified ILP (3) co-optimises selection and order with big-M
//! disjunctions and stops proving optimality at about a dozen candidates
//! (paper Table 5). At that scale the problem is small enough to solve
//! combinatorially: enumerate every subset `S` of the candidates as a
//! bitmask, decide exactly whether `S` fits the stencil, and keep the
//! feasible subset with the smallest system writing time
//! `T(S) = max_c (T_VSB_c − Σ_{i∈S} R_ic)`.
//!
//! * **One row.** A row's minimum width is Lemma 1's closed form
//!   `Σ (w_i − s_i) + max_i s_i` when every candidate has symmetric
//!   blanks. Otherwise a Held-Karp order DP computes it: `order[S][j]`, the
//!   narrowest order of `S` ending in `j`, extends an order of `S \ {j}`
//!   ending in `i` by `w_j − min(r_i, l_j)`.
//! * **Several rows.** `rows[S]`, the fewest rows `S` packs into, follows
//!   from a subset-partition DP: the row holding `S`'s lowest candidate is
//!   some fitting submask `R`, and `rows[S] = 1 + min_R rows[S \ R]`.
//!
//! Every table entry depends only on numerically smaller masks, so one
//! pass in increasing mask order fills the tables and scores each feasible
//! mask. That makes the search anytime: when the stop flag is raised, the
//! best mask seen so far is a valid plan, just not a certified one. Among
//! optimal masks the numerically smallest wins, so plans are
//! deterministic.
//!
//! Candidates that cannot lower `T` are left out before enumerating:
//! those too tall or too wide for a row on their own, and those that save
//! no shot in any region. Feasibility is closed under taking subsets, so
//! dropping them keeps the optimum. A row too wide to represent never
//! looks narrow: Lemma 1's sum is exact past `u64`, and the Held-Karp
//! entries saturate at a value no width that fits a `u64` reaches.

use super::finish_plan;
use crate::cancel::StopFlag;
use crate::Plan1d;
use eblow_model::{overlap, CharId, Character, Instance, ModelError, Placement1d, Row};
use std::time::Instant;

/// The most candidates [`solve_exact_1d`] enumerates: 2¹⁴ masks, and a
/// Held-Karp table of 2¹⁴·14 widths (1.8 MB) for asymmetric blanks.
pub const EXACT_1D_MAX_CHARS: usize = 14;

/// Masks enumerated between two polls of the stop flag.
const POLL_MASKS: usize = 4096;

/// What [`solve_exact_1d`] found.
#[derive(Debug, Clone)]
pub struct Exact1dOutcome {
    /// The best plan found. It always validates.
    pub plan: Plan1d,
    /// Whether the enumeration covered every selection, which makes `plan`
    /// optimal. `false` when the stop flag cut it short, or when more than
    /// [`EXACT_1D_MAX_CHARS`] candidates could lower `T` and only the
    /// largest savers were enumerated.
    pub proven_optimal: bool,
}

/// Solves a row-structured instance exactly by enumerating selections
/// (see the module docs), polling `stop` every few thousand masks.
///
/// When more than [`EXACT_1D_MAX_CHARS`] candidates could lower `T`, only
/// the [`EXACT_1D_MAX_CHARS`] with the largest total reduction `Σ_c R_ic`
/// are enumerated and the plan is not marked proven.
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
///
/// # Example
///
/// ```
/// use eblow_core::oned::solve_exact_1d;
/// use eblow_core::StopFlag;
///
/// let instance = eblow_gen::benchmark(eblow_gen::Family::T1(1));
/// let exact = solve_exact_1d(&instance, StopFlag::NEVER).unwrap();
/// assert!(exact.proven_optimal);
/// exact.plan.placement.validate(&instance).unwrap();
/// ```
pub fn solve_exact_1d(
    instance: &Instance,
    stop: StopFlag<'_>,
) -> Result<Exact1dOutcome, ModelError> {
    let started = Instant::now();
    let num_rows = instance.num_rows()?;
    let row_height = instance
        .stencil()
        .row_height()
        .ok_or(ModelError::NotRowStructured)?;
    let width = instance.stencil().width();
    let mut cands: Vec<usize> = (0..instance.num_chars())
        .filter(|&i| {
            let c = instance.char(i);
            c.height() <= row_height && c.width() <= width && instance.total_reduction(i) > 0
        })
        .collect();
    let all_enumerated = cands.len() <= EXACT_1D_MAX_CHARS;
    if !all_enumerated {
        cands.sort_by_key(|&i| (std::cmp::Reverse(instance.total_reduction(i)), i));
        cands.truncate(EXACT_1D_MAX_CHARS);
        cands.sort_unstable();
    }
    let mut search = ExactSearch::new(instance, cands, num_rows);
    let (best, complete) = search.enumerate(stop);
    let placement = Placement1d::from_rows(search.rows_of(best));
    Ok(Exact1dOutcome {
        plan: finish_plan(instance, placement, started, None),
        proven_optimal: complete && all_enumerated,
    })
}

/// The set bits of `mask`, lowest first.
fn bits(mut mask: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            b
        })
    })
}

/// The tables of one enumeration. Bit `b` of a mask stands for candidate
/// `cands[b]`.
struct ExactSearch<'a> {
    instance: &'a Instance,
    cands: Vec<usize>,
    /// Stencil width `W`.
    width: u64,
    num_rows: usize,
    /// `rows[mask]` caps here: one more than the rows a mask may use.
    cap: u8,
    /// Per candidate: width and symmetric blank (Lemma 1's inputs).
    widths: Vec<u64>,
    blanks: Vec<u64>,
    /// Whether every candidate has symmetric blanks (Lemma 1 is exact).
    symmetric: bool,
    /// `step[i·k + j]`: the width `j` adds right of `i`,
    /// `w_j − min(r_i, l_j)`. Empty on the symmetric path.
    step: Vec<u64>,
    /// Held-Karp table: `order[mask·k + j]` is the width of the narrowest
    /// order of `mask` ending in `j ∈ mask`, minus one (every order is at
    /// least 1 µm wide), saturating: `u64::MAX` means the width does not
    /// fit a `u64`. Empty on the symmetric path.
    order: Vec<u64>,
    /// `rows[mask]`: the fewest rows `mask` packs into, capped at `cap`.
    rows: Vec<u8>,
    /// Per-region writing times of the mask being scored.
    times: Vec<u64>,
}

impl<'a> ExactSearch<'a> {
    fn new(instance: &'a Instance, cands: Vec<usize>, num_rows: usize) -> Self {
        let k = cands.len();
        let chars: Vec<&Character> = cands.iter().map(|&i| instance.char(i)).collect();
        let symmetric = chars.iter().all(|c| c.blanks().left == c.blanks().right);
        let step = if symmetric {
            Vec::new()
        } else {
            chars
                .iter()
                .flat_map(|&a| {
                    chars
                        .iter()
                        .map(move |&b| b.width() - overlap::h_overlap(a, b))
                })
                .collect()
        };
        ExactSearch {
            instance,
            width: instance.stencil().width(),
            num_rows,
            cap: (num_rows.min(k) + 1) as u8,
            widths: chars.iter().map(|c| c.width()).collect(),
            blanks: chars.iter().map(|c| c.symmetric_blank()).collect(),
            symmetric,
            step,
            order: if symmetric {
                Vec::new()
            } else {
                vec![0; k << k]
            },
            rows: vec![0; 1 << k],
            times: instance.vsb_times().to_vec(),
            cands,
        }
    }

    /// Fills the tables mask by mask and returns the best feasible mask,
    /// plus whether every mask was visited before `stop` rose.
    fn enumerate(&mut self, stop: StopFlag<'_>) -> (usize, bool) {
        let (mut best, mut best_t) = (0, self.writing_time(0));
        for mask in 1..self.rows.len() {
            if mask % POLL_MASKS == 1 && stop.is_set() {
                return (best, false);
            }
            self.rows[mask] = if self.fits_one_row(mask) {
                1
            } else if self.cap <= 2 {
                self.cap
            } else {
                self.split(mask).0
            };
            if usize::from(self.rows[mask]) <= self.num_rows {
                let t = self.writing_time(mask);
                if t < best_t {
                    (best, best_t) = (mask, t);
                }
            }
        }
        (best, true)
    }

    /// Whether one row holds exactly `mask` within `W`, filling the
    /// Held-Karp entries of `mask` on the asymmetric path. A width past
    /// `u64::MAX` never fits.
    fn fits_one_row(&mut self, mask: usize) -> bool {
        if self.symmetric {
            // Lemma 1's closed form, exact past `u64`.
            let (sum, max_s) = bits(mask).fold((0u128, 0u64), |(sum, max_s), b| {
                let (w, s) = (self.widths[b], self.blanks[b].min(self.widths[b]));
                (sum + u128::from(w - s), max_s.max(s))
            });
            return sum + u128::from(max_s) <= u128::from(self.width);
        }
        let k = self.cands.len();
        let mut narrowest = u64::MAX;
        for j in bits(mask) {
            let prev = mask & !(1 << j);
            let w = if prev == 0 {
                self.widths[j] - 1
            } else {
                bits(prev)
                    .map(|i| self.order[prev * k + i].saturating_add(self.step[i * k + j]))
                    .min()
                    .unwrap_or(u64::MAX)
            };
            self.order[mask * k + j] = w;
            narrowest = narrowest.min(w);
        }
        // Entries hold width − 1, so `u64::MAX` only stands for a width
        // past `u64::MAX`, and width ≤ W reads as entry < W.
        narrowest < self.width
    }

    /// The fewest rows a mask that does not fit one row packs into (capped
    /// at `cap`), and the row holding its lowest candidate in the first
    /// such partition. Rows of smaller masks must be filled.
    fn split(&self, mask: usize) -> (u8, usize) {
        let low = mask & mask.wrapping_neg();
        let rest = mask ^ low;
        let (mut best, mut best_row) = (self.cap, low);
        // Proper submasks of `rest`, largest first, down to the empty one.
        // Two rows is the fewest a mask that does not fit one row can use.
        let mut sub = rest;
        loop {
            sub = sub.wrapping_sub(1) & rest;
            let row = sub | low;
            let used = self.rows[mask ^ row] + 1;
            if self.rows[row] == 1 && used < best {
                (best, best_row) = (used, row);
            }
            if sub == 0 || best == 2 {
                break;
            }
        }
        (best, best_row)
    }

    /// `T` of the selection `mask`: the largest per-region writing time.
    fn writing_time(&mut self, mask: usize) -> u64 {
        self.times.copy_from_slice(self.instance.vsb_times());
        for b in bits(mask) {
            for e in self.instance.sparse_row(self.cands[b]) {
                self.times[e.region as usize] -= e.reduction;
            }
        }
        self.times.iter().copied().max().unwrap_or(0)
    }

    /// The rows of a feasible mask, each in its optimal left-to-right
    /// order.
    fn rows_of(&self, mask: usize) -> Vec<Row> {
        let mut rows = Vec::new();
        let mut rest = mask;
        while rest != 0 {
            let row = if self.rows[rest] == 1 {
                rest
            } else {
                self.split(rest).1
            };
            rows.push(Row::from_order(self.row_order(row)));
            rest ^= row;
        }
        rows
    }

    /// An order of `row` realising its minimum width: blanks descending on
    /// the symmetric path, a walk of the Held-Karp parents otherwise.
    fn row_order(&self, row: usize) -> Vec<CharId> {
        let members: Vec<usize> = bits(row).collect();
        if self.symmetric {
            let chars: Vec<&Character> = members
                .iter()
                .map(|&b| self.instance.char(self.cands[b]))
                .collect();
            return overlap::symmetric_optimal_order(&chars)
                .into_iter()
                .map(|p| CharId::from(self.cands[members[p]]))
                .collect();
        }
        let k = self.cands.len();
        let entry = |mask: usize, j: usize| self.order[mask * k + j];
        let mut last = members
            .iter()
            .copied()
            .min_by_key(|&j| (entry(row, j), j))
            .expect("a row holds at least one candidate");
        let mut rest = row;
        let mut reversed = vec![CharId::from(self.cands[last])];
        while rest != 1 << last {
            let prev = rest & !(1 << last);
            let target = entry(rest, last);
            last = bits(prev)
                .find(|&i| entry(prev, i).saturating_add(self.step[i * k + last]) == target)
                .expect("every Held-Karp entry has a parent");
            reversed.push(CharId::from(self.cands[last]));
            rest = prev;
        }
        reversed.reverse();
        reversed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Selection, Stencil};

    /// Characters `(width, left, right, shots)`, height 40, one repeat each
    /// in one region, on `rows` rows of width `w`.
    fn instance(specs: &[(u64, u64, u64, u64)], w: u64, rows: u64) -> Instance {
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
    fn picks_the_best_fitting_pair() {
        // Three 40-wide characters with blanks 10: two fit in 95, three
        // need 100. The best pair saves 9 + 7 shots of T_VSB = 24.
        let inst = instance(&[(40, 10, 10, 10), (40, 10, 10, 8), (40, 10, 10, 6)], 95, 1);
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        assert!(exact.proven_optimal);
        assert_eq!(exact.plan.total_time, 8);
        assert_eq!(exact.plan.selection, Selection::from_indices(3, [0, 1]));
        exact.plan.placement.validate(&inst).unwrap();
    }

    #[test]
    fn asymmetric_rows_use_the_best_order() {
        // Alone each is 40 wide. Ordered 1, 0, 2 the row shares 9 + 8:
        // 120 − 17 = 103; every other order shares less.
        let inst = instance(&[(40, 9, 8, 5), (40, 1, 9, 5), (40, 8, 1, 5)], 103, 1);
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        assert_eq!(exact.plan.selection.count(), 3);
        let order: Vec<usize> = exact.plan.placement.rows()[0]
            .order()
            .iter()
            .map(|c| c.index())
            .collect();
        assert_eq!(order, vec![1, 0, 2]);
        exact.plan.placement.validate(&inst).unwrap();
        // One micrometre less and only a pair fits.
        let narrow = instance(&[(40, 9, 8, 5), (40, 1, 9, 5), (40, 8, 1, 5)], 102, 1);
        let exact = solve_exact_1d(&narrow, StopFlag::NEVER).unwrap();
        assert_eq!(exact.plan.selection.count(), 2);
    }

    #[test]
    fn rows_split_a_selection_that_one_row_cannot_hold() {
        // Four 40-wide characters without blanks on two rows of 80.
        let inst = instance(&[(40, 0, 0, 5); 4], 80, 2);
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        assert!(exact.proven_optimal);
        assert_eq!(exact.plan.selection.count(), 4);
        assert_eq!(exact.plan.placement.num_rows(), 2);
        exact.plan.placement.validate(&inst).unwrap();
    }

    #[test]
    fn useless_candidates_are_not_placed() {
        // Character 1 saves nothing (one VSB shot), character 2 is wider
        // than the stencil.
        let inst = instance(&[(40, 5, 5, 9), (40, 5, 5, 1), (200, 5, 5, 9)], 100, 1);
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        assert!(exact.proven_optimal);
        assert_eq!(exact.plan.selection, Selection::from_indices(3, [0]));
    }

    #[test]
    fn more_candidates_than_the_cap_plan_validly_unproven() {
        let specs: Vec<(u64, u64, u64, u64)> = (0..EXACT_1D_MAX_CHARS as u64 + 2)
            .map(|i| (40, 4, 6, 2 + i))
            .collect();
        let inst = instance(&specs, 300, 2);
        let exact = solve_exact_1d(&inst, StopFlag::NEVER).unwrap();
        assert!(!exact.proven_optimal);
        exact.plan.placement.validate(&inst).unwrap();
        // The two smallest savers were left out.
        assert!(!exact.plan.selection.contains(0));
        assert!(!exact.plan.selection.contains(1));
    }

    #[test]
    fn rejects_2d_instances() {
        let chars = vec![Character::new(10, 10, [1, 1, 1, 1], 2).unwrap()];
        let inst = Instance::new(Stencil::new(50, 50).unwrap(), chars, vec![vec![1]]).unwrap();
        assert!(matches!(
            solve_exact_1d(&inst, StopFlag::NEVER),
            Err(ModelError::NotRowStructured)
        ));
    }
}
