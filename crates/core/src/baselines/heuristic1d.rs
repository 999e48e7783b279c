//! The two-step heuristic framework of \[24\] for 1DOSP.
//!
//! Step 1 — *character selection*: knapsack-style greedy on the aggregate
//! stencil capacity using S-Blank effective widths, with profits summed
//! over regions (the paper notes \[24\] targets a single CP; its MCC port
//! optimizes **total** writing time, not the maximum).
//!
//! Step 2 — *single-row ordering*: \[24\] maps each row to a Hamiltonian-path
//! problem (maximize shared blanks between neighbours). We implement the
//! standard approach for that formulation: a best-edge nearest-neighbour
//! chain construction followed by repeated 2-opt improvement sweeps.
//!
//! The paper's Table 3 has \[24\] about 22× slower than E-BLOW. Here it is
//! the other way round: `eblow-eval table3` measures a Heur\[24\]/E-BLOW
//! CPU ratio of about 0.08 on a 2-core VM. A sweep prices each of its
//! `O(k²)` candidate reversals in `O(1)` off prefix sums of the chain's
//! overlaps, and the framework solves no LP, while E-BLOW spends nearly all
//! its time in successive rounding, one LP per iteration.

use crate::cancel::StopFlag;
use crate::oned::finish_plan;
use crate::profit::static_profits;
use crate::Plan1d;
use eblow_model::{overlap, CharId, Instance, ModelError, Placement1d, Row};
use std::time::Instant;

/// Tunables for the \[24\]-style heuristic.
#[derive(Debug, Clone, Copy)]
pub struct Heuristic1dConfig {
    /// 2-opt improvement sweeps per row.
    pub two_opt_sweeps: usize,
    /// Global selection/ordering repair rounds.
    pub repair_rounds: usize,
    /// Ordering restarts per row, each a nearest-neighbour chain polished
    /// by up to `two_opt_sweeps` sweeps (the per-row solver the paper
    /// contrasts E-BLOW's closed-form refinement against).
    pub restarts: usize,
}

impl Default for Heuristic1dConfig {
    fn default() -> Self {
        Heuristic1dConfig {
            two_opt_sweeps: 24,
            repair_rounds: 3,
            restarts: 8,
        }
    }
}

/// Plans a 1D stencil with the two-step framework of \[24\].
///
/// # Errors
///
/// Returns [`ModelError::NotRowStructured`] for 2D instances.
pub fn heuristic_1d(instance: &Instance, config: &Heuristic1dConfig) -> Result<Plan1d, ModelError> {
    heuristic_1d_with_stop(instance, config, StopFlag::NEVER)
}

/// Like [`heuristic_1d`], but polls `stop` around the expensive per-row
/// ordering solves (the 2-opt sweeps that dominate this framework's cost).
/// A cancelled run keeps the already-ordered rows and falls back to the
/// blank-descending order for the rest; the result still validates.
pub fn heuristic_1d_with_stop(
    instance: &Instance,
    config: &Heuristic1dConfig,
    stop: StopFlag<'_>,
) -> Result<Plan1d, ModelError> {
    let started = Instant::now();
    let num_rows = instance.num_rows()?;
    let row_height = instance
        .stencil()
        .row_height()
        .ok_or(ModelError::NotRowStructured)?;
    let w = instance.stencil().width();

    let profits = static_profits(instance);
    // ---- step 1: selection on aggregate capacity -----------------------
    let mut cands: Vec<usize> = (0..instance.num_chars())
        .filter(|&i| {
            let c = instance.char(i);
            c.height() <= row_height && c.width() <= w && profits[i] > 0.0
        })
        .collect();
    cands.sort_by(|&a, &b| profits[b].total_cmp(&profits[a]).then(a.cmp(&b)));
    let capacity = (w as u128 * num_rows as u128) as u64;
    let mut selected: Vec<usize> = Vec::new();
    let mut used = 0u64;
    for &i in &cands {
        let eff = instance.char(i).effective_width();
        if used + eff <= capacity {
            selected.push(i);
            used += eff;
        }
    }

    // Partition into rows: first-fit decreasing by effective width.
    let mut by_eff = selected.clone();
    by_eff.sort_by_key(|&i| std::cmp::Reverse(instance.char(i).effective_width()));
    let mut row_sets: Vec<Vec<CharId>> = vec![Vec::new(); num_rows];
    let mut row_eff: Vec<u64> = vec![0; num_rows];
    let mut row_blank: Vec<u64> = vec![0; num_rows];
    for i in by_eff {
        let c = instance.char(i);
        let eff = c.effective_width();
        let s = c.symmetric_blank();
        if let Some(r) = (0..num_rows).find(|&r| row_eff[r] + eff + row_blank[r].max(s) <= w) {
            row_sets[r].push(CharId::from(i));
            row_eff[r] += eff;
            row_blank[r] = row_blank[r].max(s);
        }
    }

    // ---- step 2: per-row ordering (NN chain + 2-opt sweeps) -------------
    let mut rows: Vec<Row> = Vec::with_capacity(num_rows);
    for set in &row_sets {
        if stop.is_set() {
            // Cancelled: blank-descending is Lemma-1 optimal for symmetric
            // blanks and a sound cheap fallback in general.
            let mut order = set.clone();
            order.sort_by_key(|id| std::cmp::Reverse(instance.char(id.index()).symmetric_blank()));
            rows.push(Row::from_order(order));
            continue;
        }
        rows.push(Row::from_order(order_row(
            instance,
            set,
            config.two_opt_sweeps,
            config.restarts,
            stop,
        )));
    }

    // ---- repair: enforce true widths, then greedy top-up ----------------
    for _ in 0..config.repair_rounds {
        let mut moved = false;
        for r in 0..num_rows {
            while rows[r].min_width(instance) > w && !rows[r].is_empty() {
                // [24]-style repair: the framework fixes the order before
                // repairing, so eviction only looks at the row's tail.
                let len = rows[r].len();
                let tail_start = len.saturating_sub(5);
                let (pos, _) = rows[r].order()[tail_start..]
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| profits[a.index()].total_cmp(&profits[b.index()]))
                    .expect("non-empty tail");
                let id = rows[r].remove(tail_start + pos);
                // Try to park it in any later row with room at the end.
                let mut parked = false;
                for r2 in 0..num_rows {
                    if r2 == r {
                        continue;
                    }
                    let delta = rows[r2].insertion_delta(instance, rows[r2].len(), id);
                    if rows[r2].min_width(instance) + delta <= w {
                        rows[r2].push_right(id);
                        parked = true;
                        moved = true;
                        break;
                    }
                }
                if !parked {
                    moved = true; // dropped from the stencil
                }
            }
        }
        if !moved {
            break;
        }
    }
    // Top-up with unselected characters at row ends (right end only, as in
    // the [24] greedy insertion).
    let placed: std::collections::HashSet<usize> = rows
        .iter()
        .flat_map(|r| r.order().iter().map(|c| c.index()))
        .collect();
    let mut rest: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|i| !placed.contains(i))
        .collect();
    rest.sort_by(|&a, &b| profits[b].total_cmp(&profits[a]));
    for i in rest {
        if stop.is_set() {
            break;
        }
        for r in 0..num_rows {
            let delta = rows[r].insertion_delta(instance, rows[r].len(), CharId::from(i));
            if rows[r].min_width(instance) + delta <= w {
                rows[r].push_right(CharId::from(i));
                break;
            }
        }
    }

    Ok(finish_plan(
        instance,
        Placement1d::from_rows(rows),
        started,
        None,
    ))
}

/// Nearest-neighbour chain + multi-restart 2-opt on the "maximize shared
/// blanks" Hamiltonian-path objective. Each restart seeds the chain from a
/// different character, runs nearest-neighbour construction, and polishes
/// with repeated 2-opt sweeps of `O(k²)` candidate reversals each.
///
/// A reversal is priced in `O(1)` off [`ChainOverlaps`], so a sweep costs
/// `O(k²)` plus `O(k)` per accepted reversal. The width it compares is
/// exactly [`overlap::row_width_ordered`] of the reversed chain, so every
/// accept/reject decision is the one a full re-evaluation would make.
fn order_row(
    instance: &Instance,
    set: &[CharId],
    sweeps: usize,
    restarts: usize,
    stop: StopFlag<'_>,
) -> Vec<CharId> {
    let k = set.len();
    if k <= 1 {
        return set.to_vec();
    }
    let mut sorted: Vec<CharId> = set.to_vec();
    sorted.sort_by_key(|id| std::cmp::Reverse(instance.char(id.index()).symmetric_blank()));
    // Σ wᵢ, which no reversal changes.
    let total: u128 = set
        .iter()
        .map(|id| u128::from(instance.char(id.index()).width()))
        .sum();
    let mut remaining: Vec<CharId> = Vec::with_capacity(k);
    let mut chain: Vec<CharId> = Vec::with_capacity(k);
    let mut sums = ChainOverlaps::with_capacity(k);
    let mut best_chain: Vec<CharId> = Vec::with_capacity(k);
    let mut best_width: Option<u64> = None;
    for r in 0..restarts.max(1) {
        remaining.clear();
        remaining.extend_from_slice(&sorted);
        chain.clear();
        chain.push(remaining.remove(r % k));
        while !remaining.is_empty() {
            let last = instance.char(chain[chain.len() - 1].index());
            let (best, _) = remaining
                .iter()
                .enumerate()
                .max_by_key(|(_, id)| overlap::h_overlap(last, instance.char(id.index())))
                .expect("non-empty remainder");
            chain.push(remaining.remove(best));
        }
        sums.rebuild_from(instance, &chain, 0);
        let mut best_w = sums.width(total);
        for _ in 0..sweeps {
            if stop.is_set() {
                break;
            }
            let mut improved = false;
            for a in 0..k - 1 {
                // A sweep is the longest stretch between polls on wide
                // rows, so check inside it as well.
                if stop.is_set() {
                    break;
                }
                for b in a + 1..k {
                    let w2 = sums.reversed_width(instance, &chain, total, a, b);
                    if w2 < best_w {
                        best_w = w2;
                        improved = true;
                        chain[a..=b].reverse();
                        sums.rebuild_from(instance, &chain, a.saturating_sub(1));
                    }
                }
            }
            if !improved {
                break;
            }
        }
        if best_width.is_none_or(|bw| best_w < bw) {
            best_width = Some(best_w);
            best_chain.clear();
            best_chain.extend_from_slice(&chain);
        }
        if stop.is_set() {
            break;
        }
    }
    best_chain
}

/// Prefix sums of a chain's adjacent overlaps in both directions:
/// `fwd[j] = Σ_{i<j} ov(cᵢ, cᵢ₊₁)` and `bwd[j] = Σ_{i<j} ov(cᵢ₊₁, cᵢ)`.
///
/// Reversing `chain[a..=b]` turns the forward pairs inside the segment into
/// backward ones and re-pairs its two boundary junctions; nothing else
/// changes, so the reversed chain's overlap is four prefix-sum reads and
/// two [`overlap::h_overlap`] calls. Sums are `u128`, so they are exact for
/// any chain of `u64` widths.
struct ChainOverlaps {
    fwd: Vec<u128>,
    bwd: Vec<u128>,
}

impl ChainOverlaps {
    fn with_capacity(k: usize) -> Self {
        ChainOverlaps {
            fwd: Vec::with_capacity(k),
            bwd: Vec::with_capacity(k),
        }
    }

    /// Recomputes the sums from pair `from` on (the entries before it are
    /// kept, so they must still describe `chain`).
    fn rebuild_from(&mut self, instance: &Instance, chain: &[CharId], from: usize) {
        self.fwd.truncate(from + 1);
        self.bwd.truncate(from + 1);
        if self.fwd.is_empty() {
            self.fwd.push(0);
            self.bwd.push(0);
        }
        for j in from..chain.len() - 1 {
            let (l, r) = (
                instance.char(chain[j].index()),
                instance.char(chain[j + 1].index()),
            );
            self.fwd
                .push(self.fwd[j] + u128::from(overlap::h_overlap(l, r)));
            self.bwd
                .push(self.bwd[j] + u128::from(overlap::h_overlap(r, l)));
        }
    }

    /// The chain's width, `Σ wᵢ − Σ ov(cᵢ, cᵢ₊₁)`, saturated at `u64::MAX`
    /// exactly as [`overlap::row_width_ordered`] saturates.
    fn width(&self, total: u128) -> u64 {
        saturate(total - self.fwd[self.fwd.len() - 1])
    }

    /// [`ChainOverlaps::width`] of the chain with `chain[a..=b]` reversed
    /// (`a < b`), without reversing it.
    fn reversed_width(
        &self,
        instance: &Instance,
        chain: &[CharId],
        total: u128,
        a: usize,
        b: usize,
    ) -> u64 {
        let k = chain.len();
        let c = |p: usize| instance.char(chain[p].index());
        // Forward pairs from the left junction through the right one.
        let (lo, hi) = (a.saturating_sub(1), (b + 1).min(k - 1));
        let mut shared =
            self.fwd[k - 1] - (self.fwd[hi] - self.fwd[lo]) + (self.bwd[b] - self.bwd[a]);
        if a > 0 {
            shared += u128::from(overlap::h_overlap(c(a - 1), c(b)));
        }
        if b + 1 < k {
            shared += u128::from(overlap::h_overlap(c(a), c(b + 1)));
        }
        saturate(total - shared)
    }
}

fn saturate(width: u128) -> u64 {
    u64::try_from(width).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;
    use eblow_model::{Character, Stencil};
    use proptest::prelude::*;

    /// The direct ordering: every 2-opt candidate re-evaluates the whole
    /// chain's width (`O(k³)` per sweep). `order_row` must match it
    /// decision for decision.
    fn order_row_reference(
        instance: &Instance,
        set: &[CharId],
        sweeps: usize,
        restarts: usize,
        stop: StopFlag<'_>,
    ) -> Vec<CharId> {
        let k = set.len();
        if k <= 1 {
            return set.to_vec();
        }
        let width = |order: &[CharId]| -> u64 {
            let chars: Vec<_> = order.iter().map(|id| instance.char(id.index())).collect();
            overlap::row_width_ordered(&chars)
        };
        let mut sorted: Vec<CharId> = set.to_vec();
        sorted.sort_by_key(|id| std::cmp::Reverse(instance.char(id.index()).symmetric_blank()));
        let mut best_chain: Option<(u64, Vec<CharId>)> = None;
        for r in 0..restarts.max(1) {
            let mut remaining = sorted.clone();
            let mut chain = vec![remaining.remove(r % k)];
            while !remaining.is_empty() {
                let last = instance.char(chain.last().unwrap().index());
                let (best, _) = remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, id)| overlap::h_overlap(last, instance.char(id.index())))
                    .unwrap();
                chain.push(remaining.remove(best));
            }
            let mut best_w = width(&chain);
            for _ in 0..sweeps {
                if stop.is_set() {
                    break;
                }
                let mut improved = false;
                for a in 0..k - 1 {
                    if stop.is_set() {
                        break;
                    }
                    for b in a + 1..k {
                        chain[a..=b].reverse();
                        let w2 = width(&chain);
                        if w2 < best_w {
                            best_w = w2;
                            improved = true;
                        } else {
                            chain[a..=b].reverse();
                        }
                    }
                }
                if !improved {
                    break;
                }
            }
            if best_chain.as_ref().is_none_or(|(bw, _)| best_w < *bw) {
                best_chain = Some((best_w, chain));
            }
            if stop.is_set() {
                break;
            }
        }
        best_chain.expect("at least one restart").1
    }

    fn width_of(instance: &Instance, order: &[CharId]) -> u64 {
        let chars: Vec<_> = order.iter().map(|id| instance.char(id.index())).collect();
        overlap::row_width_ordered(&chars)
    }

    /// A one-row instance from `(mode, width, left‰, right‰)` specs. Mode 0
    /// has zero blanks, mode 1 blanks that add up to the width, mode 2
    /// arbitrary blanks, and mode 3 a width near `u64::MAX / 3`, so that a
    /// handful of them saturate the row width.
    fn row_of(specs: &[(u8, u64, u64, u64)]) -> Instance {
        let chars: Vec<Character> = specs
            .iter()
            .map(|&(mode, w, l, r)| {
                let (w, l, r) = match mode {
                    0 => (w, 0, 0),
                    1 => (w, w * l / 1000, w - w * l / 1000),
                    2 => (w, w * l / 2000, w * r / 2000),
                    _ => {
                        let big = u64::MAX / 3 + w;
                        (big, big / 1000 * l / 2, big / 1000 * r / 2)
                    }
                };
                Character::new(w, 40, [l, r, 0, 0], 5).unwrap()
            })
            .collect();
        let n = chars.len();
        Instance::new(
            Stencil::with_rows(1000, 40, 40).unwrap(),
            chars,
            vec![vec![1]; n],
        )
        .unwrap()
    }

    fn assert_matches_reference(specs: &[(u8, u64, u64, u64)], sweeps: usize, restarts: usize) {
        let inst = row_of(specs);
        let ids: Vec<CharId> = (0..specs.len()).map(CharId::from).collect();
        for stop in [false, true] {
            let flag = std::sync::atomic::AtomicBool::new(stop);
            let fast = order_row(&inst, &ids, sweeps, restarts, StopFlag::new(&flag));
            let slow = order_row_reference(&inst, &ids, sweeps, restarts, StopFlag::new(&flag));
            assert_eq!(fast, slow, "{specs:?} (stop {stop})");
            assert_eq!(width_of(&inst, &fast), width_of(&inst, &slow));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rows of one to three characters, where the junction terms of a
        /// reversal touch the chain's ends.
        #[test]
        fn short_rows_order_like_the_full_reevaluation(
            specs in prop::collection::vec((0u8..4, 1u64..100, 0u64..1001, 0u64..1001), 1..4),
            restarts in 1usize..5,
        ) {
            assert_matches_reference(&specs, 24, restarts);
        }

        /// Longer rows mixing zero blanks, blanks equal to the width,
        /// arbitrary blanks and saturating widths.
        #[test]
        fn rows_order_like_the_full_reevaluation(
            specs in prop::collection::vec((0u8..4, 1u64..100, 0u64..1001, 0u64..1001), 4..16),
            restarts in 1usize..10,
        ) {
            assert_matches_reference(&specs, 24, restarts);
        }
    }

    #[test]
    fn saturating_rows_order_like_the_full_reevaluation() {
        // Every width is past u64::MAX / 3, so every chain of four or more
        // saturates: both orderings must then keep the first chain.
        let specs: Vec<(u8, u64, u64, u64)> = (0..6)
            .map(|i| (3, i * 7 + 1, i * 150, 900 - i * 100))
            .collect();
        let inst = row_of(&specs);
        let ids: Vec<CharId> = (0..specs.len()).map(CharId::from).collect();
        let fast = order_row(&inst, &ids, 24, 8, StopFlag::NEVER);
        assert_eq!(width_of(&inst, &fast), u64::MAX);
        assert_matches_reference(&specs, 24, 8);
    }

    #[test]
    fn heuristic_plan_is_valid() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(31));
        let plan = heuristic_1d(&inst, &Heuristic1dConfig::default()).unwrap();
        plan.placement.validate(&inst).unwrap();
        assert!(plan.selection.count() > 0);
    }

    #[test]
    fn ordering_beats_arbitrary_order() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(32));
        let ids: Vec<CharId> = (0..8).map(CharId::from).collect();
        let ordered = order_row(&inst, &ids, 16, 4, StopFlag::NEVER);
        let chars_ord: Vec<_> = ordered.iter().map(|id| inst.char(id.index())).collect();
        let chars_raw: Vec<_> = ids.iter().map(|id| inst.char(id.index())).collect();
        assert!(overlap::row_width_ordered(&chars_ord) <= overlap::row_width_ordered(&chars_raw));
    }

    #[test]
    fn typically_worse_than_eblow_on_mcc() {
        // The paper's qualitative claim: on multi-region instances the
        // total-time-oriented [24] port loses to E-BLOW's max-time balancing.
        let mut eblow_wins = 0;
        for seed in [41u64, 42, 43] {
            let inst = eblow_gen::generate(&GenConfig::tiny_1d(seed));
            let h = heuristic_1d(&inst, &Heuristic1dConfig::default()).unwrap();
            let e = crate::oned::Eblow1d::default().plan(&inst).unwrap();
            if e.total_time <= h.total_time {
                eblow_wins += 1;
            }
        }
        assert!(eblow_wins >= 2);
    }
}
