//! Post-swap and post-insertion (paper §3.5).
//!
//! After refinement fixes each row's order, two cheap improvement stages
//! run:
//!
//! * **Post-swap** — exchange an unselected character with a placed one
//!   when the swap lowers the system writing time and the row still fits.
//! * **Post-insertion** — insert additional characters into row gaps
//!   (including *middle* positions, unlike the right-end-only greedy of
//!   \[24\]), formulated as a maximum-weight bipartite matching between
//!   candidate characters and rows with at most one insertion per row per
//!   round (paper Fig. 8), solved by the Hungarian algorithm.

use crate::cancel::StopFlag;
use crate::profit::RegionTimes;
use eblow_matching::max_weight_matching;
use eblow_model::{overlap, CharId, Instance, Placement1d, Row, Selection};

/// Tunables for the post stages.
#[derive(Debug, Clone, Copy)]
pub struct PostConfig {
    /// Improvement passes of the swap stage.
    pub swap_passes: usize,
    /// Candidate pool size per swap pass (top unselected by profit).
    pub swap_candidates: usize,
    /// Matching rounds of the insertion stage.
    pub insert_rounds: usize,
    /// Candidate pool size per insertion round.
    pub insert_candidates: usize,
}

impl Default for PostConfig {
    fn default() -> Self {
        PostConfig {
            swap_passes: 3,
            swap_candidates: 256,
            insert_rounds: 8,
            insert_candidates: 256,
        }
    }
}

/// `row`'s width, exact in `u128`: the sum [`Row::checked_width`] folds,
/// without its `u64` bound.
fn exact_width(instance: &Instance, row: &Row) -> u128 {
    let char_of = |id: &CharId| instance.char(id.index());
    let Some(last) = row.order().last() else {
        return 0;
    };
    let paired: u128 = row
        .order()
        .windows(2)
        .map(|pair| u128::from(overlap::paired_width(char_of(&pair[0]), char_of(&pair[1]))))
        .sum();
    paired + u128::from(char_of(last).width())
}

/// Width of `row`, exactly `width` wide, after replacing the character at
/// `pos` with `new_id` (order otherwise unchanged), or `None` past
/// `u64::MAX`. Only the replaced character's own width and its two
/// junctions change, so this is O(1) and allocates nothing.
fn width_with_replacement(
    instance: &Instance,
    row: &Row,
    width: u128,
    pos: usize,
    new_id: CharId,
) -> Option<u64> {
    let order = row.order();
    let (old, new) = (
        instance.char(order[pos].index()),
        instance.char(new_id.index()),
    );
    // The row grows by the new character's width and the blanks the old
    // one shared at its junctions, and shrinks by the old width and the
    // blanks the new one shares there. Exact in `u128`; the difference is
    // the new row's width, so it never goes below 0.
    let mut grows = u128::from(new.width());
    let mut shrinks = u128::from(old.width());
    if let Some(prev) = pos.checked_sub(1).map(|p| instance.char(order[p].index())) {
        grows += u128::from(overlap::h_overlap(prev, old));
        shrinks += u128::from(overlap::h_overlap(prev, new));
    }
    if let Some(next) = order.get(pos + 1).map(|id| instance.char(id.index())) {
        grows += u128::from(overlap::h_overlap(old, next));
        shrinks += u128::from(overlap::h_overlap(new, next));
    }
    u64::try_from(width + grows - shrinks).ok()
}

/// The placed characters in post-swap's scan order, least valuable first,
/// keyed by `(profit, row, pos)`: a strict total order, and the order a
/// stable sort by profit gives the row-major list. A commit changes the
/// profits, so the list is re-keyed after each one, and the next scan
/// often commits again early. So the list is sorted only as far as the
/// scan reads: the smallest keys are selected and sorted in a prefix that
/// doubles each time the scan passes its end.
#[derive(Debug, Default)]
struct ScanOrder {
    entries: Vec<(f64, usize, usize)>,
    /// `entries[..sorted]` holds the smallest keys, in order.
    sorted: usize,
}

/// The prefix the first read after a re-key sorts.
const FIRST_SORTED: usize = 256;

/// The scan key order: profit, then row, then position.
fn scan_order(a: &(f64, usize, usize), b: &(f64, usize, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

impl ScanOrder {
    /// Keys every placed character by its profit under `rt`; nothing is
    /// sorted yet.
    fn rekey(&mut self, instance: &Instance, placement: &Placement1d, rt: &RegionTimes) {
        self.entries.clear();
        for (r, row) in placement.rows().iter().enumerate() {
            for (pos, id) in row.order().iter().enumerate() {
                self.entries.push((rt.profit(instance, id.index()), r, pos));
            }
        }
        self.sorted = 0;
    }

    /// The `(row, pos)` at scan position `i`, or `None` past the last.
    /// Reads run from 0 up; one at the end of the sorted prefix sorts the
    /// next stretch first.
    fn get(&mut self, i: usize) -> Option<(usize, usize)> {
        debug_assert!(i <= self.sorted, "scan read {i} skips the sorted prefix");
        if i == self.sorted {
            let rest = &mut self.entries[self.sorted..];
            let take = self.sorted.max(FIRST_SORTED).min(rest.len());
            if take == 0 {
                return None;
            }
            if take < rest.len() {
                rest.select_nth_unstable_by(take - 1, scan_order);
            }
            rest[..take].sort_unstable_by(scan_order);
            self.sorted += take;
        }
        self.entries.get(i).map(|&(_, r, pos)| (r, pos))
    }
}

/// Post-swap: greedy improving exchanges between unselected characters and
/// placed ones. Returns the number of swaps applied.
///
/// Polls `stop` per candidate (each candidate scans every placed position,
/// the expensive unit) and returns the improvements made so far when it is
/// raised — the placement is valid after every committed swap.
pub fn post_swap(
    instance: &Instance,
    placement: &mut Placement1d,
    selection: &mut Selection,
    region_times: &mut RegionTimes,
    config: &PostConfig,
    stop: StopFlag<'_>,
) -> usize {
    let w = instance.stencil().width();
    let row_height = match instance.stencil().row_height() {
        Some(rh) => rh,
        None => return 0,
    };
    let mut swaps = 0usize;
    // Buffers reused across passes and commits (this loop is in the
    // hot-path manifest): the candidate ranking, the scan order of placed
    // positions, and the scratch tracker probed per candidate.
    let mut ranked: Vec<(f64, usize)> = Vec::new();
    let mut outsiders: Vec<usize> = Vec::new();
    let mut scan = ScanOrder::default();
    let mut with_u = region_times.clone();
    // Each row's exact width, kept current across commits.
    let mut widths: Vec<u128> = placement
        .rows()
        .iter()
        .map(|row| exact_width(instance, row))
        .collect();
    for _pass in 0..config.swap_passes {
        // Unselected, most valuable first (only characters that fit a row).
        ranked.clear();
        ranked.extend(
            selection
                .iter_unselected()
                .filter(|&i| instance.char(i).height() <= row_height)
                .map(|i| (region_times.profit(instance, i), i)),
        );
        // Profit descending, ties by index — profits precomputed once so
        // the comparator is O(1) instead of two sparse-row walks.
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(config.swap_candidates);
        outsiders.clear();
        outsiders.extend(ranked.iter().map(|&(_, i)| i));

        // Scan placed characters, least valuable first. Positions and
        // profits only change when a swap commits, so the scan order is
        // keyed once per pass and again after each commit instead of once
        // per outsider (the commit rate is tiny compared to the candidate
        // count).
        scan.rekey(instance, placement, region_times);

        let mut any = false;
        for &u in &outsiders {
            if stop.is_set() {
                return swaps;
            }
            // Screen: removing `v` can only raise times, so no swap ends
            // below the system time with `u` inserted alone. Unless that
            // insertion lowers the bottleneck, no placed `v` can yield an
            // improving swap — skip the whole scan.
            if region_times.inserted_total(instance, u) >= region_times.total() {
                continue;
            }
            // Insert `u` once into a scratch tracker: every probe against a
            // placed `v` then reduces to `removed_total` — O(nnz_v), exact
            // (a removal only raises times), instead of a dense sweep per
            // (u, v) pair.
            with_u.clone_from(region_times);
            with_u.select(instance, u);
            let base = region_times.total() as i64;
            let mut at = 0;
            while let Some((r, pos)) = scan.get(at) {
                at += 1;
                let v = placement.rows()[r].order()[pos];
                let delta = with_u.removed_total(instance, v.index()) as i64 - base;
                if delta >= 0 {
                    continue;
                }
                let row = &placement.rows()[r];
                let Some(width) =
                    width_with_replacement(instance, row, widths[r], pos, CharId::from(u))
                        .filter(|&width| width <= w)
                else {
                    continue;
                };
                // Commit the swap.
                placement.row_mut(r).replace(pos, CharId::from(u));
                widths[r] = u128::from(width);
                region_times.deselect(instance, v.index());
                region_times.select(instance, u);
                selection.remove(v.index());
                selection.insert(u);
                swaps += 1;
                any = true;
                scan.rekey(instance, placement, region_times);
                break;
            }
        }
        if !any {
            break;
        }
    }
    swaps
}

/// Post-insertion: maximum-weight matching of candidate characters to rows,
/// at most one insertion per row per round, inserting at the width-minimal
/// position (middle positions allowed). Returns insertions applied.
///
/// Polls `stop` per matching round and returns early when it is raised;
/// completed rounds are already applied and valid.
pub fn post_insert(
    instance: &Instance,
    placement: &mut Placement1d,
    selection: &mut Selection,
    region_times: &mut RegionTimes,
    config: &PostConfig,
    stop: StopFlag<'_>,
) -> usize {
    let w = instance.stencil().width();
    let row_height = match instance.stencil().row_height() {
        Some(rh) => rh,
        None => return 0,
    };
    let mut inserted = 0usize;
    for _round in 0..config.insert_rounds {
        if stop.is_set() {
            return inserted;
        }
        let mut candidates: Vec<usize> = selection
            .iter_unselected()
            .filter(|&i| {
                instance.char(i).height() <= row_height && region_times.profit(instance, i) > 0.0
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            region_times
                .profit(instance, b)
                .total_cmp(&region_times.profit(instance, a))
                .then(a.cmp(&b))
        });
        candidates.truncate(config.insert_candidates);
        if candidates.is_empty() {
            break;
        }

        // Skip rows with almost no slack (speed heuristic from §3.5).
        let widths: Vec<u64> = placement
            .rows()
            .iter()
            .map(|r| r.min_width(instance))
            .collect();

        // weight[cand][row] = profit when some insertion position fits.
        let mut best_pos: Vec<Vec<Option<usize>>> =
            vec![vec![None; placement.num_rows()]; candidates.len()];
        let weights: Vec<Vec<Option<f64>>> = candidates
            .iter()
            .enumerate()
            .map(|(ci, &cand)| {
                (0..placement.num_rows())
                    .map(|r| {
                        let slack = w.saturating_sub(widths[r]);
                        let c = instance.char(cand);
                        if c.pattern_width() > slack {
                            return None; // cannot possibly fit
                        }
                        let row = &placement.rows()[r];
                        let mut best: Option<(u64, usize)> = None;
                        for pos in 0..=row.len() {
                            let delta = row.insertion_delta(instance, pos, CharId::from(cand));
                            let fits = widths[r].checked_add(delta).is_some_and(|x| x <= w);
                            if fits && best.is_none_or(|(bd, _)| delta < bd) {
                                best = Some((delta, pos));
                            }
                        }
                        best.map(|(delta, pos)| {
                            best_pos[ci][r] = Some(pos);
                            // Prefer tight fits among equal profits.
                            region_times.profit(instance, cand) - 1e-9 * delta as f64
                        })
                    })
                    .collect()
            })
            .collect();

        let matching = max_weight_matching(&weights);
        let mut any = false;
        for (ci, row) in matching.pairs.iter().enumerate() {
            let Some(r) = row else { continue };
            let cand = candidates[ci];
            let pos = best_pos[ci][*r].expect("matched edge must have a position");
            // Re-check width: earlier insertions this round can only touch
            // other rows (one per row), so this stays valid; assert anyway.
            if !placement.rows()[*r].fits_with(instance, pos, CharId::from(cand), w) {
                continue;
            }
            placement.row_mut(*r).insert(pos, CharId::from(cand));
            selection.insert(cand);
            region_times.select(instance, cand);
            inserted += 1;
            any = true;
        }
        if !any {
            break;
        }
    }
    inserted
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Character, Stencil};

    fn instance() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 0, 0], 2).unwrap(), // 0: low value
            Character::new(40, 40, [5, 5, 0, 0], 30).unwrap(), // 1: high value
            Character::new(40, 40, [5, 5, 0, 0], 20).unwrap(), // 2: mid value
            Character::new(30, 40, [6, 6, 0, 0], 25).unwrap(), // 3: small + valuable
        ];
        let repeats = vec![vec![5], vec![5], vec![5], vec![5]];
        Instance::new(Stencil::with_rows(100, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn swap_replaces_low_value_with_high_value() {
        let inst = instance();
        // Row 0 holds the low-value char 0; char 1 is outside.
        let mut placement = Placement1d::from_rows(vec![
            Row::from_order(vec![CharId(0), CharId(2)]),
            Row::new(),
        ]);
        let mut selection = placement.selection(4);
        let mut rt = RegionTimes::from_selection(&inst, &selection);
        let swaps = post_swap(
            &inst,
            &mut placement,
            &mut selection,
            &mut rt,
            &Default::default(),
            StopFlag::NEVER,
        );
        assert!(swaps >= 1);
        assert!(
            selection.contains(1),
            "high-value char should be swapped in"
        );
        assert!(
            !selection.contains(0),
            "low-value char should be swapped out"
        );
        assert!(placement.validate(&inst).is_ok());
        assert_eq!(rt.times(), &inst.writing_times(&selection)[..]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The O(1) replacement width equals the width of the substituted
        /// order folded from scratch, at every position of rows of 1 to 9
        /// characters. With `scale` set, widths and blanks are multiplied
        /// by 2⁶¹, so some rows and replacements pass `u64::MAX` (`None`)
        /// and some come back under it.
        #[test]
        fn replacement_width_matches_the_substituted_row(
            shapes in proptest::collection::vec((1u64..8, 0u64..8, 0u64..8), 2..11),
            scale in 0u32..2,
        ) {
            let factor = if scale == 1 { 1u64 << 61 } else { 1 };
            let chars: Vec<Character> = shapes
                .iter()
                .map(|&(w, l, r)| {
                    let (l, r) = (l.min(w), r.min(w - l.min(w)));
                    Character::new(w * factor, 40, [l * factor, r * factor, 0, 0], 2).unwrap()
                })
                .collect();
            let n = chars.len();
            let inst = Instance::new(
                Stencil::with_rows(u64::MAX, 40, 40).unwrap(),
                chars,
                vec![vec![1]; n],
            )
            .unwrap();
            // The last character replaces each member of the others' row.
            let row = Row::from_order((0..n - 1).map(CharId::from).collect());
            let width = exact_width(&inst, &row);
            for pos in 0..row.len() {
                let mut order: Vec<&Character> =
                    row.order().iter().map(|id| inst.char(id.index())).collect();
                order[pos] = inst.char(n - 1);
                proptest::prop_assert_eq!(
                    width_with_replacement(&inst, &row, width, pos, CharId::from(n - 1)),
                    overlap::checked_row_width(&order),
                    "pos {}", pos
                );
            }
        }

        /// Reading the scan order from the start gives the stable sort by
        /// profit of the row-major list, however far a read goes and with
        /// profits tied often.
        #[test]
        fn scan_order_reads_the_stable_profit_order(
            profits in proptest::collection::vec(0u64..12, 0..400),
            stop_at in 0usize..400,
        ) {
            let entries: Vec<(f64, usize, usize)> = profits
                .iter()
                .enumerate()
                .map(|(k, &p)| (p as f64 / 4.0, k / 7, k % 7))
                .collect();
            let mut stable = entries.clone();
            stable.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut scan = ScanOrder { entries, sorted: 0 };
            let read = stop_at.min(stable.len());
            for (i, &(_, r, pos)) in stable[..read].iter().enumerate() {
                proptest::prop_assert_eq!(scan.get(i), Some((r, pos)), "read {}", i);
            }
            if read == stable.len() {
                proptest::prop_assert_eq!(scan.get(read), None);
            }
        }
    }

    #[test]
    fn insertion_fills_gaps_via_matching() {
        let inst = instance();
        // Row 0: one char of width 40 → slack 60 fits char 3 (width 30).
        let mut placement =
            Placement1d::from_rows(vec![Row::from_order(vec![CharId(0)]), Row::new()]);
        let mut selection = placement.selection(4);
        let mut rt = RegionTimes::from_selection(&inst, &selection);
        let ins = post_insert(
            &inst,
            &mut placement,
            &mut selection,
            &mut rt,
            &Default::default(),
            StopFlag::NEVER,
        );
        assert!(ins >= 2, "both rows have room for insertions, got {ins}");
        assert!(placement.validate(&inst).is_ok());
        assert_eq!(rt.times(), &inst.writing_times(&selection)[..]);
    }

    #[test]
    fn insertion_respects_full_rows() {
        let inst = instance();
        // Both rows essentially full: 40+40−5 = 75, next insert needs ≥ 20.
        let mut placement = Placement1d::from_rows(vec![
            Row::from_order(vec![CharId(0), CharId(1)]),
            Row::from_order(vec![CharId(2), CharId(3)]),
        ]);
        let mut selection = placement.selection(4);
        let mut rt = RegionTimes::from_selection(&inst, &selection);
        let ins = post_insert(
            &inst,
            &mut placement,
            &mut selection,
            &mut rt,
            &Default::default(),
            StopFlag::NEVER,
        );
        assert_eq!(ins, 0);
        assert!(placement.validate(&inst).is_ok());
    }

    #[test]
    fn middle_insertion_is_used_when_cheaper() {
        // Construct a row where inserting in the middle shares more blank
        // than appending at either end.
        let chars = vec![
            Character::new(40, 40, [2, 10, 0, 0], 10).unwrap(), // 0 left (big right blank)
            Character::new(40, 40, [10, 2, 0, 0], 10).unwrap(), // 1 right (big left blank)
            Character::new(24, 40, [10, 10, 0, 0], 40).unwrap(), // 2 to insert
        ];
        let inst = Instance::new(
            Stencil::with_rows(100, 40, 40).unwrap(),
            chars,
            vec![vec![3]; 3],
        )
        .unwrap();
        let mut placement =
            Placement1d::from_rows(vec![Row::from_order(vec![CharId(0), CharId(1)])]);
        // Row width without insert: 80 − min(10,10) = 70.
        // Insert in middle: +24 − min(10,10) − min(10,10) + 10 = +14 → 84.
        // Insert at an end: +24 − min(2,10)=2 → +22 → 92.
        let mut selection = placement.selection(3);
        let mut rt = RegionTimes::from_selection(&inst, &selection);
        let ins = post_insert(
            &inst,
            &mut placement,
            &mut selection,
            &mut rt,
            &Default::default(),
            StopFlag::NEVER,
        );
        assert_eq!(ins, 1);
        assert_eq!(placement.rows()[0].order()[1], CharId(2), "middle position");
        assert!(placement.validate(&inst).is_ok());
    }
}
