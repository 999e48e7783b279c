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

use super::keep_least;
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

/// The order post-swap ranks unselected characters by: profit
/// descending, then index.
fn by_profit_desc(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// Post-swap: greedy improving exchanges between unselected characters and
/// placed ones. Returns the number of swaps applied.
///
/// Each pass ranks the unselected characters that fit a row by profit and
/// offers the `swap_candidates` most valuable, in turn, a partner: of the
/// placed positions where the outsider fits in place of the character and
/// the exchange lowers the system writing time, the one least by
/// `(profit, row, pos)`, so the least valuable character such a swap can
/// drop. A pass ends after every outsider, and the stage after a pass that
/// swapped nothing.
///
/// Polls `stop` per candidate (each candidate searches every placed
/// position, the expensive unit) and returns the improvements made so far
/// when it is raised — the placement is valid after every committed swap.
pub fn post_swap(
    instance: &Instance,
    placement: &mut Placement1d,
    selection: &mut Selection,
    region_times: &mut RegionTimes,
    config: &PostConfig,
    stop: StopFlag<'_>,
) -> usize {
    let row_height = match instance.stencil().row_height() {
        Some(rh) => rh,
        None => return 0,
    };
    let mut swaps = 0usize;
    // Buffers reused across passes and commits (this loop is in the
    // hot-path manifest): the candidate ranking and the scratch tracker
    // probed per candidate.
    let mut ranked: Vec<(f64, usize)> = Vec::new();
    let mut with_u = region_times.clone();
    // Each row's exact width, kept current across commits.
    let mut widths: Vec<u128> = placement
        .rows()
        .iter()
        .map(|row| exact_width(instance, row))
        .collect();
    for _pass in 0..config.swap_passes {
        // Unselected, most valuable first (only characters that fit a row),
        // each priced once and only the candidates kept sorted.
        ranked.clear();
        ranked.extend(
            selection
                .iter_unselected()
                .filter(|&i| instance.char(i).height() <= row_height)
                .map(|i| (region_times.profit(instance, i), i)),
        );
        keep_least(&mut ranked, config.swap_candidates, by_profit_desc);

        let mut any = false;
        for &(_, u) in &ranked {
            if stop.is_set() {
                return swaps;
            }
            // Screen: removing `v` can only raise times, so no swap ends
            // below the system time with `u` inserted alone. Unless that
            // insertion lowers the bottleneck, no placed `v` can yield an
            // improving swap — skip the whole search.
            if region_times.inserted_total(instance, u) >= region_times.total() {
                continue;
            }
            // Insert `u` once into a scratch tracker: every probe against a
            // placed `v` then reduces to `removed_total` — O(nnz_v), exact
            // (a removal only raises times), instead of a dense sweep per
            // (u, v) pair.
            with_u.clone_from(region_times);
            with_u.select(instance, u);
            let u = CharId::from(u);
            let Some((r, pos, width)) =
                partner(instance, placement, &widths, region_times, &with_u, u)
            else {
                continue;
            };
            // Commit the swap.
            let v = placement.row_mut(r).replace(pos, u);
            widths[r] = u128::from(width);
            region_times.deselect(instance, v.index());
            region_times.select(instance, u.index());
            selection.remove(v.index());
            selection.insert(u.index());
            swaps += 1;
            any = true;
        }
        if !any {
            break;
        }
    }
    swaps
}

/// Post-swap's partner of the outsider `u` (see [`post_swap`]): the
/// `(row, pos)` least by `(profit, row, pos)` among the placed positions
/// where `u` in place of the character keeps the row within the stencil
/// and lowers the system time, with the row's new width. `with_u` is
/// `region_times` with `u` selected. Only those positions are priced.
// audit:allow(stop-flag-reachability): one pass over the placed positions, O(1) width and O(nnz) time per position; post_swap polls the flag before every outsider
fn partner(
    instance: &Instance,
    placement: &Placement1d,
    widths: &[u128],
    region_times: &RegionTimes,
    with_u: &RegionTimes,
    u: CharId,
) -> Option<(usize, usize, u64)> {
    let cap = instance.stencil().width();
    let base = region_times.total() as i64;
    let mut best: Option<(f64, usize, usize, u64)> = None;
    for (r, row) in placement.rows().iter().enumerate() {
        for (pos, v) in row.order().iter().enumerate() {
            let Some(width) = width_with_replacement(instance, row, widths[r], pos, u)
                .filter(|&width| width <= cap)
            else {
                continue;
            };
            if with_u.removed_total(instance, v.index()) as i64 - base >= 0 {
                continue;
            }
            // Positions arrive by `(row, pos)`, so a later one is less only
            // by a smaller profit.
            let profit = region_times.profit(instance, v.index());
            if best.is_none_or(|(least, ..)| profit.total_cmp(&least).is_lt()) {
                best = Some((profit, r, pos, width));
            }
        }
    }
    best.map(|(_, r, pos, width)| (r, pos, width))
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
        // Each candidate priced once, and only the pool kept sorted.
        let mut candidates: Vec<(f64, usize)> = selection
            .iter_unselected()
            .filter(|&i| instance.char(i).height() <= row_height)
            .map(|i| (region_times.profit(instance, i), i))
            .filter(|&(profit, _)| profit > 0.0)
            .collect();
        keep_least(&mut candidates, config.insert_candidates, by_profit_desc);
        if candidates.is_empty() {
            break;
        }

        // Row widths, measured once per round: a row without room for a
        // candidate's pattern width is skipped unprobed (speed heuristic
        // from §3.5).
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
            .map(|(ci, &(profit, cand))| {
                (0..placement.num_rows())
                    .map(|r| {
                        let row = &placement.rows()[r];
                        let best = row.best_insertion(instance, CharId::from(cand), widths[r], w);
                        best.map(|(pos, delta)| {
                            best_pos[ci][r] = Some(pos);
                            // Prefer tight fits among equal profits.
                            profit - 1e-9 * delta as f64
                        })
                    })
                    .collect()
            })
            .collect();

        let matching = max_weight_matching(&weights);
        let mut any = false;
        for (ci, row) in matching.pairs.iter().enumerate() {
            let Some(r) = row else { continue };
            let (_, cand) = candidates[ci];
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

    /// Post-swap with the sorted scan [`partner`] replaced, kept as its
    /// reference: [`post_swap`]'s passes and commits, each outsider's
    /// partner found by [`scan_partner`].
    fn post_swap_reference(
        instance: &Instance,
        placement: &mut Placement1d,
        selection: &mut Selection,
        region_times: &mut RegionTimes,
        config: &PostConfig,
    ) -> usize {
        let row_height = instance.stencil().row_height().unwrap();
        let mut swaps = 0;
        let mut widths: Vec<u128> = placement
            .rows()
            .iter()
            .map(|row| exact_width(instance, row))
            .collect();
        for _pass in 0..config.swap_passes {
            let mut ranked: Vec<(f64, usize)> = selection
                .iter_unselected()
                .filter(|&i| instance.char(i).height() <= row_height)
                .map(|i| (region_times.profit(instance, i), i))
                .collect();
            ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            ranked.truncate(config.swap_candidates);
            let mut any = false;
            for &(_, u) in &ranked {
                if region_times.inserted_total(instance, u) >= region_times.total() {
                    continue;
                }
                let u = CharId::from(u);
                let Some((r, pos, width)) =
                    scan_partner(instance, placement, &widths, region_times, u)
                else {
                    continue;
                };
                let v = placement.row_mut(r).replace(pos, u);
                widths[r] = u128::from(width);
                region_times.deselect(instance, v.index());
                region_times.select(instance, u.index());
                selection.remove(v.index());
                selection.insert(u.index());
                swaps += 1;
                any = true;
            }
            if !any {
                break;
            }
        }
        swaps
    }

    /// The scan [`partner`] replaced: every placed character keyed by
    /// `(profit, row, pos)` (a stable sort of the row-major list by
    /// profit), read from the least to the first position where the swap
    /// with `u` lowers the system time and fits.
    fn scan_partner(
        instance: &Instance,
        placement: &Placement1d,
        widths: &[u128],
        region_times: &RegionTimes,
        u: CharId,
    ) -> Option<(usize, usize, u64)> {
        let mut with_u = region_times.clone();
        with_u.select(instance, u.index());
        let base = region_times.total() as i64;
        let mut scan: Vec<(f64, usize, usize)> = Vec::new();
        for (r, row) in placement.rows().iter().enumerate() {
            for (pos, id) in row.order().iter().enumerate() {
                scan.push((region_times.profit(instance, id.index()), r, pos));
            }
        }
        scan.sort_by(|a, b| a.0.total_cmp(&b.0));
        scan.into_iter().find_map(|(_, r, pos)| {
            let v = placement.rows()[r].order()[pos];
            if with_u.removed_total(instance, v.index()) as i64 - base >= 0 {
                return None;
            }
            let row = &placement.rows()[r];
            width_with_replacement(instance, row, widths[r], pos, u)
                .filter(|&width| width <= instance.stencil().width())
                .map(|width| (r, pos, width))
        })
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

        /// The partner search makes the swaps of the sorted scan it
        /// replaced, [`post_swap_reference`], on 1 and 10 regions, at the
        /// default candidate pool and at a pool of `pool`. Rows of a
        /// stencil 100–160 wide are filled first-fit in id order from 2–60
        /// characters 20–39 wide with blanks 0..6, about half of them
        /// offered; repeats in 0..3 and 2–3 shots make profits tie often.
        /// Character 1 has character 0's shape and one more repeat in
        /// every region, and character 0 opens the first row, so a swap is
        /// there to make and at the default pool every case makes one.
        #[test]
        fn partner_search_swaps_like_the_sorted_scan(
            shapes in proptest::collection::vec((20u64..40, 0u64..6, 0u64..6, 2u64..4, 0u32..2), 2..61),
            repeats in proptest::collection::vec(0u64..3, 600..601),
            stencil_w in 100u64..160,
            pool in 1usize..12,
        ) {
            let n = shapes.len();
            let shape = |i: usize| shapes[if i == 1 { 0 } else { i }];
            let chars: Vec<Character> = (0..n)
                .map(|i| {
                    let (w, l, r, shots, _) = shape(i);
                    Character::new(w, 40, [l, r, 0, 0], shots).unwrap()
                })
                .collect();
            for regions in [1usize, 10] {
                let repeats: Vec<Vec<u64>> = (0..n)
                    .map(|i| {
                        let k = if i == 1 { 0 } else { i };
                        (0..regions)
                            .map(|c| repeats[k * regions + c] + u64::from(i == 1))
                            .collect()
                    })
                    .collect();
                let inst = Instance::new(
                    Stencil::with_rows(stencil_w, 120, 40).unwrap(),
                    chars.clone(),
                    repeats,
                )
                .unwrap();
                let mut rows = vec![Row::new(); 3];
                let offered = (0..n).filter(|&i| i == 0 || (i > 1 && shapes[i].4 == 0));
                for i in offered {
                    let id = CharId::from(i);
                    if let Some(row) = rows.iter_mut().find(|row| {
                        let mut with = (*row).clone();
                        with.push_right(id);
                        with.checked_width(&inst).is_some_and(|x| x <= stencil_w)
                    }) {
                        row.push_right(id);
                    }
                }
                let placement = Placement1d::from_rows(rows);
                let selection = placement.selection(n);
                let rt = RegionTimes::from_selection(&inst, &selection);
                let configs = [
                    PostConfig::default(),
                    PostConfig { swap_candidates: pool, ..PostConfig::default() },
                ];
                for (k, config) in configs.iter().enumerate() {
                    let (mut p1, mut s1, mut rt1) = (placement.clone(), selection.clone(), rt.clone());
                    let (mut p2, mut s2, mut rt2) = (placement.clone(), selection.clone(), rt.clone());
                    let swaps = post_swap(&inst, &mut p1, &mut s1, &mut rt1, config, StopFlag::NEVER);
                    let reference = post_swap_reference(&inst, &mut p2, &mut s2, &mut rt2, config);
                    let context = format!("{regions} regions, pool {}, rows {:?}", config.swap_candidates, placement.rows());
                    proptest::prop_assert_eq!(swaps, reference, "{}", context);
                    proptest::prop_assert_eq!(p1.rows(), p2.rows(), "{}", context);
                    proptest::prop_assert_eq!(rt1.times(), rt2.times(), "{}", context);
                    proptest::prop_assert_eq!(&s1, &s2, "{}", context);
                    proptest::prop_assert!(k > 0 || swaps > 0, "no swap: {}", context);
                    proptest::prop_assert!(p1.validate(&inst).is_ok(), "{}", context);
                }
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
