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
use eblow_model::{CharId, Instance, Placement1d, Selection};

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

/// Row width after replacing the character at `pos` with `new_id`
/// (order otherwise unchanged), or `None` past `u64::MAX`.
fn width_with_replacement(
    instance: &Instance,
    row: &eblow_model::Row,
    pos: usize,
    new_id: CharId,
) -> Option<u64> {
    let chars: Vec<_> = row
        .order()
        .iter()
        .enumerate()
        .map(|(k, id)| instance.char(if k == pos { new_id.index() } else { id.index() }))
        .collect();
    eblow_model::overlap::checked_row_width(&chars)
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
    // Buffers reused across passes and rebuilds (this loop is in the
    // hot-path manifest): the candidate ranking, the sorted scan list of
    // placed positions, and the scratch tracker probed per candidate.
    let mut ranked: Vec<(f64, usize)> = Vec::new();
    let mut outsiders: Vec<usize> = Vec::new();
    let mut placed: Vec<(f64, usize, usize)> = Vec::new();
    let mut with_u = region_times.clone();
    // Scan placed characters, least valuable first. Positions and
    // profits only change when a swap commits, so the sorted scan list
    // is built once per pass and rebuilt after each commit instead of
    // once per outsider (the commit rate is tiny compared to the
    // candidate count). Profits are cached in the entries so the stable
    // sort compares floats instead of recomputing two sparse profits per
    // comparison — same ordering, stability and all.
    let build_placed =
        |placed: &mut Vec<(f64, usize, usize)>, placement: &Placement1d, rt: &RegionTimes| {
            placed.clear();
            for (r, row) in placement.rows().iter().enumerate() {
                for pos in 0..row.len() {
                    let p = rt.profit(instance, row.order()[pos].index());
                    placed.push((p, r, pos));
                }
            }
            placed.sort_by(|a, b| a.0.total_cmp(&b.0));
        };
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

        build_placed(&mut placed, placement, region_times);

        let mut any = false;
        for &u in &outsiders {
            if stop.is_set() {
                return swaps;
            }
            // Screen: removing `v` can only raise times, so any swap's
            // delta is at least the pure-insert delta of `u`. Unless
            // inserting `u` alone lowers the bottleneck, no placed `v`
            // can yield an improving swap — skip the whole scan.
            if region_times.swap_delta(instance, None, Some(u)) >= 0 {
                continue;
            }
            // Insert `u` once into a scratch tracker: every probe against a
            // placed `v` then reduces to `removed_total` — O(nnz_v), exact
            // (a removal only raises times), instead of a dense sweep per
            // (u, v) pair. Same integer system time, so identical swap
            // decisions to probing with `swap_delta`.
            with_u.clone_from(region_times);
            with_u.select(instance, u);
            let base = region_times.total() as i64;
            let mut committed = false;
            for &(_, r, pos) in &placed {
                let v = placement.rows()[r].order()[pos];
                let delta = with_u.removed_total(instance, v.index()) as i64 - base;
                if delta >= 0 {
                    continue;
                }
                if width_with_replacement(instance, &placement.rows()[r], pos, CharId::from(u))
                    .is_none_or(|width| width > w)
                {
                    continue;
                }
                // Commit the swap.
                placement.row_mut(r).replace(pos, CharId::from(u));
                region_times.deselect(instance, v.index());
                region_times.select(instance, u);
                selection.remove(v.index());
                selection.insert(u);
                swaps += 1;
                any = true;
                committed = true;
                break;
            }
            if committed {
                build_placed(&mut placed, placement, region_times);
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
    use eblow_model::{Character, Row, Stencil};

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
