//! Single-row ordering refinement (paper §3.4, Algorithm 3).
//!
//! Given the set of characters assigned to one row, choose a left-to-right
//! order minimizing the packed width under blank sharing. Full ordering is
//! `n!`; following the paper we search the `2^{n−1}` *end-insertion* orders
//! (each character, taken in decreasing-blank order, goes to the left or
//! right end of the partial row), which is optimal for symmetric blanks
//! (Lemma 1) and near-optimal in practice for asymmetric ones.
//!
//! The DP state is `(width, left_end_blank, right_end_blank, order)`;
//! dominated states (wider and with smaller end blanks) are pruned, and the
//! frontier is beam-limited to `threshold` states (paper uses 20).

use crate::cancel::StopFlag;
use eblow_model::{overlap, CharId, Character, Instance};
use std::cmp::Reverse;

/// One partial-order state of the refinement DP.
#[derive(Debug, Clone)]
struct OrderState {
    width: u64,
    left_blank: u64,
    right_blank: u64,
    order: Vec<CharId>,
}

/// Finds a near-minimum-width order for `set` on a single row.
///
/// Returns the order and its packed width, which saturates at
/// `u64::MAX`. The empty set returns `(vec![], 0)`.
///
/// `threshold` bounds the DP frontier (the paper's pruning threshold; 20 in
/// E-BLOW). Larger thresholds explore more of the `2^{n−1}` insertion
/// orders.
pub fn refine_row(instance: &Instance, set: &[CharId], threshold: usize) -> (Vec<CharId>, u64) {
    refine_row_with_stop(instance, set, threshold, StopFlag::NEVER)
}

/// [`refine_row`] with cooperative cancellation: a raised `stop` collapses
/// the DP beam to a single state for the remaining insertions. Every
/// character still gets placed — the result is always a complete order —
/// but the walk degrades to the greedy `threshold == 1` chain from the
/// poll onward, so one huge row cannot stall a deadline mid-call (the
/// caller's per-row poll in `Strategy::plan` cannot see inside this DP).
pub fn refine_row_with_stop(
    instance: &Instance,
    set: &[CharId],
    threshold: usize,
    stop: StopFlag,
) -> (Vec<CharId>, u64) {
    let chars: Vec<&Character> = set.iter().map(|id| instance.char(id.index())).collect();
    if set.is_empty() {
        return (Vec::new(), 0);
    }
    // Decreasing symmetric blank, the order Lemma 1 proves optimal.
    let mut idx: Vec<usize> = (0..set.len()).collect();
    idx.sort_by(|&a, &b| {
        chars[b]
            .symmetric_blank()
            .cmp(&chars[a].symmetric_blank())
            .then(set[a].cmp(&set[b]))
    });

    let first = idx[0];
    let mut frontier = vec![OrderState {
        width: chars[first].width(),
        left_blank: chars[first].blanks().left,
        right_blank: chars[first].blanks().right,
        order: vec![set[first]],
    }];

    for &k in &idx[1..] {
        // Polled every insertion: once raised, the beam narrows to 1 and
        // the rest of the walk is exactly the greedy threshold-1 chain.
        let beam = if stop.is_set() { 1 } else { threshold };
        let ck = chars[k];
        let (wk, blk, brk) = (ck.width(), ck.blanks().left, ck.blanks().right);
        let mut next: Vec<OrderState> = Vec::with_capacity(frontier.len() * 2);
        for st in &frontier {
            // Insert at the left end: ck's right blank meets the current
            // left end's left blank.
            let mut left_order = Vec::with_capacity(st.order.len() + 1);
            left_order.push(set[k]);
            left_order.extend_from_slice(&st.order);
            next.push(OrderState {
                width: st.width.saturating_add(wk - brk.min(st.left_blank)),
                left_blank: blk,
                right_blank: st.right_blank,
                order: left_order,
            });
            // Insert at the right end.
            let mut right_order = st.order.clone();
            right_order.push(set[k]);
            next.push(OrderState {
                width: st.width.saturating_add(wk - blk.min(st.right_blank)),
                left_blank: st.left_blank,
                right_blank: brk,
                order: right_order,
            });
        }
        frontier = prune(next, beam);
    }

    let best = frontier
        .into_iter()
        .min_by_key(|st| st.width)
        .expect("non-empty frontier");
    debug_assert_eq!(
        best.width,
        overlap::row_width_ordered(
            &best
                .order
                .iter()
                .map(|id| instance.char(id.index()))
                .collect::<Vec<_>>()
        ),
        "DP width must agree with the geometric width"
    );
    (best.order, best.width)
}

/// Reusable buffers for [`refine_width`] — callers probing admission in a
/// loop (the rounding commit loop, Algorithm 2's threshold pass) hold one
/// scratch per row so the DP allocates nothing per probe.
#[derive(Debug, Clone, Default)]
pub struct WidthScratch {
    /// `(symmetric blank, id)` sort keys of the member set.
    keys: Vec<(u64, CharId)>,
    frontier: Vec<WidthState>,
    next: Vec<WidthState>,
}

/// One width-only DP state: `(width, left_blank, right_blank)`.
type WidthState = (u64, u64, u64);

/// The DP insertion key of one character: `(symmetric blank, id)`, ordered
/// by decreasing blank, ties by id — the Lemma 1 insertion sequence.
pub fn width_key(instance: &Instance, id: CharId) -> (u64, CharId) {
    (instance.char(id.index()).symmetric_blank(), id)
}

/// The total insertion order of the width DP: decreasing blank, then
/// increasing id. Ids are unique, so this is a strict total order and any
/// sorted arrangement of a key set is *the* arrangement.
fn key_order(a: &(u64, CharId), b: &(u64, CharId)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
}

/// The minimum width any end insertion of `id` can add to a partial row:
/// `w − max(l, r)` (the junction shares at most one of the two blanks).
/// Summed over a suffix of the insertion sequence this lower-bounds the
/// remaining growth of *every* DP state — the early-reject certificate of
/// the admission walk.
fn insertion_floor(c: &Character) -> u64 {
    c.width()
        .saturating_sub(c.blanks().left.max(c.blanks().right))
}

/// Member keys between two cached DP frontiers of a [`ProbedRow`]: a probe
/// resumes from the last checkpoint at or before its candidate's sorted
/// position, so it walks at most `CHECKPOINT_STRIDE − 1` member keys
/// before the candidate. The stride trades those few walked keys for
/// holding an eighth of the frontiers a checkpoint at every key would.
const CHECKPOINT_STRIDE: usize = 8;

/// Which stage of [`ProbedRow::admits`] decided a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The sorted-blank overlap bound exceeds the cap: no DP ran.
    BoundReject,
    /// The beam-1 chain, one concrete order, fits.
    ChainFits,
    /// The beam-`B` DP decided; `true` when the row fits.
    Dp(bool),
}

impl Admission {
    /// Whether the probe admitted the candidate.
    pub fn fits(self) -> bool {
        matches!(self, Admission::ChainFits | Admission::Dp(true))
    }
}

/// A row's member set prepared for repeated admission probes. Nearly every
/// probe ends in a refusal, so the row keeps what makes a refusal cheap,
/// and every decision stays the one the full width DP
/// (`refine_width(members ∪ {id}) <= cap`) makes:
///
/// 1. **A sorted-blank bound, checked before any DP walk.** Every order of
///    `n` characters has `n − 1` junctions; each shares `min(r_a, l_b)`
///    and uses each blank at most once. `min` is supermodular, so pairing
///    the `n − 1` largest left blanks with the `n − 1` largest right blanks
///    in sorted order shares the most blank any order can: every order is
///    at least `Σw − Σᵢ min(L₍ᵢ₎, R₍ᵢ₎)` wide. The DP (at any beam)
///    returns the width of a concrete order, so a bound past `cap` refuses
///    only probes the DP refuses too. The row keeps both blank lists
///    sorted and `Σw`, so the bound is one O(n) merge with the candidate's
///    blanks.
/// 2. **Checkpointed DP frontiers.** The DP inserts keys in a fixed order
///    (decreasing symmetric blank, then id), so the frontier over the
///    members that sort before the candidate is the same for every probe
///    of an unchanged row. It is cached every 8 keys (`CHECKPOINT_STRIDE`),
///    per beam. A probe resumes from the last checkpoint at or before its
///    candidate, walks the few member keys up to it, and checks once that
///    the narrowest state plus the insertion floors still owed fits `cap`:
///    that sum never decreases along the walk, since each insertion adds
///    at least its floor, so the one check rejects whatever the head's
///    per-insertion checks would have. The candidate and the tail follow
///    with a check after every insertion.
///
/// [`ProbedRow::insert`] keeps the lists current and drops the checkpoints
/// past the new key; the next probe rebuilds them. Widths past `u64::MAX`
/// never fit: the walk drops states whose width overflows.
#[derive(Debug, Clone, Default)]
pub struct ProbedRow {
    /// `(symmetric blank, id)` keys sorted by [`key_order`].
    keys: Vec<(u64, CharId)>,
    /// `lb[i] = Σ_{k ≥ i} insertion_floor(keys[k])` (saturating), with
    /// `lb[len] = 0`.
    lb: Vec<u64>,
    /// Members' left blanks, largest first.
    lefts: Vec<u64>,
    /// Members' right blanks, largest first.
    rights: Vec<u64>,
    /// `Σw` over the members.
    width_sum: u128,
    /// Cached DP frontiers; scratch that a clone does not carry.
    checkpoints: Checkpoints,
}

impl ProbedRow {
    /// Inserts the member `id` at its key's sorted position, rebuilds the
    /// suffix floors and drops the checkpoints past it (O(n) — once per
    /// commit, amortized over the many probes in between).
    pub fn insert(&mut self, instance: &Instance, id: CharId) {
        let c = instance.char(id.index());
        let key = width_key(instance, id);
        let pos = self.keys.partition_point(|k| key_order(k, &key).is_lt());
        self.keys.insert(pos, key);
        self.lb.resize(self.keys.len() + 1, 0);
        self.lb[self.keys.len()] = 0;
        for i in (0..self.keys.len()).rev() {
            let floor = insertion_floor(instance.char(self.keys[i].1.index()));
            self.lb[i] = self.lb[i + 1].saturating_add(floor);
        }
        for (list, blank) in [
            (&mut self.lefts, c.blanks().left),
            (&mut self.rights, c.blanks().right),
        ] {
            let at = list.partition_point(|&b| b > blank);
            list.insert(at, blank);
        }
        self.width_sum += u128::from(c.width());
        self.checkpoints.invalidate_from(pos);
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the row holds no members.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// `lb[i]` with the empty-row case (no floors yet) reading as zero.
    fn floor_from(&self, i: usize) -> u64 {
        self.lb.get(i).copied().unwrap_or(0)
    }

    /// Whether the members plus `id` pack within `cap`, decided in stages:
    /// the sorted-blank bound, then the beam-1 chain (if one concrete order
    /// fits, the DP fits), then the beam-`beam` DP. Decision-identical to
    /// `refine_width(members ∪ {id}, beam) <= cap`; the returned stage
    /// says which step decided.
    pub fn admits(
        &mut self,
        instance: &Instance,
        id: CharId,
        beam: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> Admission {
        if self.bound_exceeds(instance.char(id.index()), cap) {
            return Admission::BoundReject;
        }
        let key = width_key(instance, id);
        if self.dp_fits(instance, key, 1, cap, scratch) {
            return Admission::ChainFits;
        }
        Admission::Dp(beam > 1 && self.dp_fits(instance, key, beam, cap, scratch))
    }

    /// Whether the members plus the candidate `extra` pack within `cap` at
    /// one beam width — decision-identical to
    /// `refine_width(instance, &members_plus_extra, threshold, ..) <= cap`:
    /// the sorted-blank bound, then the DP walk resumed from the
    /// candidate's checkpoint (see the type docs).
    pub fn admits_width(
        &mut self,
        instance: &Instance,
        extra: (u64, CharId),
        threshold: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> bool {
        !self.bound_exceeds(instance.char(extra.1.index()), cap)
            && self.dp_fits(instance, extra, threshold, cap, scratch)
    }

    /// Whether `Σw − Σᵢ min(L₍ᵢ₎, R₍ᵢ₎)` over the members plus `c` exceeds
    /// `cap` (see the type docs): no order of them fits.
    fn bound_exceeds(&self, c: &Character, cap: u64) -> bool {
        // Without any sharing the row fits: skip the merge.
        self.width_sum + u128::from(c.width()) > u128::from(cap)
            && self.width_bound(c) > u128::from(cap)
    }

    /// `Σw − Σᵢ min(L₍ᵢ₎, R₍ᵢ₎)` over the members plus `c`, exact: no order
    /// of them is narrower.
    fn width_bound(&self, c: &Character) -> u128 {
        // The n − 1 = len largest of each blank list, paired in order.
        let shared: u128 = merged(&self.lefts, c.blanks().left)
            .zip(merged(&self.rights, c.blanks().right))
            .take(self.keys.len())
            .map(|(l, r)| u128::from(l.min(r)))
            .sum();
        self.width_sum + u128::from(c.width()) - shared
    }

    /// The beam-`beam` DP decision over the members plus `extra`, resumed
    /// from the last checkpoint at or before the candidate's position.
    fn dp_fits(
        &mut self,
        instance: &Instance,
        extra: (u64, CharId),
        beam: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> bool {
        debug_assert!(self
            .keys
            .windows(2)
            .all(|w| key_order(&w[0], &w[1]).is_lt()));
        let pos = self.keys.partition_point(|k| key_order(k, &extra).is_lt());
        let at = pos / CHECKPOINT_STRIDE;
        let WidthScratch { frontier, next, .. } = scratch;
        let checkpoints = self.checkpoints.beam(beam);
        checkpoints.build_to(instance, &self.keys, at, frontier, next);
        frontier.clear();
        if at > 0 {
            frontier.extend_from_slice(checkpoints.frontier(at));
            if frontier.is_empty() {
                // The members before the candidate alone overflow `u64`.
                return false;
            }
        }
        for key in &self.keys[at * CHECKPOINT_STRIDE..pos] {
            if !dp_insert(frontier, next, instance.char(key.1.index()), beam) {
                return false;
            }
        }
        let candidate = instance.char(extra.1.index());
        if let Some(&(narrowest, _, _)) = frontier.first() {
            let owed = insertion_floor(candidate).saturating_add(self.floor_from(pos));
            if narrowest.saturating_add(owed) > cap {
                return false;
            }
        }
        let mid = std::iter::once((candidate, self.floor_from(pos)));
        let tail = self.keys[pos..]
            .iter()
            .enumerate()
            .map(|(j, k)| (instance.char(k.1.index()), self.floor_from(pos + j + 1)));
        dp_walk(frontier, next, mid.chain(tail), beam, cap).is_some()
    }
}

#[cfg(test)]
impl ProbedRow {
    /// The per-probe walk the bound and the checkpoints replace, kept as
    /// the reference they must match: merge the candidate at its sorted
    /// position and walk every key from the first, checking the frontier
    /// minimum plus the remaining floors after each insertion.
    fn admits_width_reference(
        &self,
        instance: &Instance,
        extra: (u64, CharId),
        threshold: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> bool {
        let pos = self.keys.partition_point(|k| key_order(k, &extra).is_lt());
        let x = instance.char(extra.1.index());
        let x_floor = insertion_floor(x);
        // Each item pairs with the floor sum of everything merged *after*
        // it: head items still owe the candidate's floor, the candidate
        // owes the tail, tail items owe their own suffix.
        let head = self.keys[..pos].iter().enumerate().map(|(t, k)| {
            let owed = self.floor_from(t + 1).saturating_add(x_floor);
            (instance.char(k.1.index()), owed)
        });
        let mid = std::iter::once((x, self.floor_from(pos)));
        let tail = self.keys[pos..]
            .iter()
            .enumerate()
            .map(|(j, k)| (instance.char(k.1.index()), self.floor_from(pos + j + 1)));
        let WidthScratch { frontier, next, .. } = scratch;
        frontier.clear();
        dp_walk(frontier, next, head.chain(mid).chain(tail), threshold, cap).is_some()
    }
}

/// `list` (largest first) with `blank` merged in at its sorted position.
fn merged(list: &[u64], blank: u64) -> impl Iterator<Item = u64> + '_ {
    let at = list.partition_point(|&b| b > blank);
    list[..at]
        .iter()
        .copied()
        .chain(std::iter::once(blank))
        .chain(list[at..].iter().copied())
}

/// DP frontiers over the first `k · CHECKPOINT_STRIDE` keys of a
/// [`ProbedRow`], one list per beam width probed. Scratch: a clone starts
/// empty and rebuilds on its first probe, so a copied row (the E-BLOW-0
/// finish's copy of the rounding) does not carry the cache.
#[derive(Debug, Default)]
struct Checkpoints(Vec<BeamCheckpoints>);

impl Clone for Checkpoints {
    fn clone(&self) -> Self {
        Checkpoints::default()
    }
}

impl Checkpoints {
    /// The checkpoints of `beam`, created empty on the first probe.
    fn beam(&mut self, beam: usize) -> &mut BeamCheckpoints {
        let at = match self.0.iter().position(|b| b.beam == beam) {
            Some(at) => at,
            None => {
                self.0.push(BeamCheckpoints {
                    beam,
                    ends: Vec::new(),
                    states: Vec::new(),
                });
                self.0.len() - 1
            }
        };
        &mut self.0[at]
    }

    /// Drops every checkpoint whose prefix includes position `pos`, where
    /// a key was just inserted.
    fn invalidate_from(&mut self, pos: usize) {
        for beam in &mut self.0 {
            beam.ends.truncate(pos / CHECKPOINT_STRIDE);
            beam.states.truncate(beam.ends.last().copied().unwrap_or(0));
        }
    }
}

/// The checkpoints of one beam width. Checkpoint `k ≥ 1`, the frontier over
/// the first `k · CHECKPOINT_STRIDE` keys, is `states[ends[k − 2]..ends[k − 1]]`
/// (from 0 for `k = 1`); an empty one means every state overflowed `u64`.
#[derive(Debug)]
struct BeamCheckpoints {
    beam: usize,
    ends: Vec<usize>,
    states: Vec<WidthState>,
}

impl BeamCheckpoints {
    /// Checkpoint `k ≥ 1`.
    fn frontier(&self, k: usize) -> &[WidthState] {
        let start = if k == 1 { 0 } else { self.ends[k - 2] };
        &self.states[start..self.ends[k - 1]]
    }

    /// Builds checkpoints up to `k`, walking `keys` from the last one kept.
    fn build_to(
        &mut self,
        instance: &Instance,
        keys: &[(u64, CharId)],
        k: usize,
        frontier: &mut Vec<WidthState>,
        next: &mut Vec<WidthState>,
    ) {
        let built = self.ends.len();
        if built >= k {
            return;
        }
        frontier.clear();
        let mut fits = true;
        if built > 0 {
            frontier.extend_from_slice(self.frontier(built));
            fits = !frontier.is_empty();
        }
        for c in built..k {
            for key in &keys[c * CHECKPOINT_STRIDE..(c + 1) * CHECKPOINT_STRIDE] {
                fits = fits && dp_insert(frontier, next, instance.char(key.1.index()), self.beam);
            }
            if fits {
                self.states.extend_from_slice(frontier);
            }
            self.ends.push(self.states.len());
        }
    }
}

/// The width half of [`refine_row`], without materializing orders: runs the
/// *same* end-insertion DP over `members ∪ extra` with the same
/// decreasing-blank insertion sequence, the same Pareto pruning, and the
/// same beam limit, so the returned width is identical to
/// `refine_row(instance, &members_plus_extra, threshold).1` — but each
/// state is three integers instead of an owned order vector, and the
/// candidate set needs no clone-and-push. A width past `u64::MAX`
/// saturates to `u64::MAX`.
///
/// `beam = 1` degenerates into a greedy end-insertion chain: the width of
/// one concrete order, a cheap upper bound on the full DP's width (used by
/// the admission fast path).
pub fn refine_width(
    instance: &Instance,
    members: &[CharId],
    extra: Option<CharId>,
    threshold: usize,
    scratch: &mut WidthScratch,
) -> u64 {
    let WidthScratch {
        keys,
        frontier,
        next,
    } = scratch;
    keys.clear();
    keys.extend(
        members
            .iter()
            .chain(extra.as_ref())
            .map(|&id| width_key(instance, id)),
    );
    // Decreasing symmetric blank, ties by id — the exact insertion sequence
    // refine_row derives (its tie-break compares the CharIds themselves,
    // which are unique, so the sequence depends only on the member set).
    keys.sort_unstable_by(key_order);
    frontier.clear();
    dp_walk(
        frontier,
        next,
        keys.iter().map(|k| (instance.char(k.1.index()), 0)),
        threshold,
        u64::MAX,
    )
    .unwrap_or(u64::MAX)
}

/// Runs the end-insertion width DP over `(character, remaining_floor)`
/// pairs, which must arrive in the decreasing-blank insertion order,
/// continuing from `frontier` (empty to start a row). Each item's
/// `remaining_floor` lower-bounds what the items after it will still add
/// to *any* state (pass 0 when unknown — the check never fires). After
/// every insertion the walk compares the frontier's minimum width plus
/// that floor against `cap` and returns `None` once the sum exceeds it,
/// or once every state's width overflows `u64` — a certificate that the
/// true final width is `> cap`, never an approximation, so capped and
/// uncapped runs decide `<= cap` identically. Otherwise returns the
/// narrowest final width.
fn dp_walk<'c>(
    frontier: &mut Vec<WidthState>,
    next: &mut Vec<WidthState>,
    items: impl Iterator<Item = (&'c Character, u64)>,
    threshold: usize,
    cap: u64,
) -> Option<u64> {
    for (c, rem) in items {
        if !dp_insert(frontier, next, c, threshold) {
            return None;
        }
        // `prune_widths` sorts by width ascending, so the minimum is at the
        // front; every continuation adds at least `rem` to every state.
        if frontier[0].0.saturating_add(rem) > cap {
            return None;
        }
    }
    Some(frontier.first().map_or(0, |st| st.0))
}

/// One DP insertion: starts the frontier with `c` alone when it is empty,
/// otherwise inserts `c` at both ends of every state and prunes to
/// `threshold` states. A state whose width would overflow `u64` fits no
/// stencil and is dropped; returns `false` when no state is left.
fn dp_insert(
    frontier: &mut Vec<WidthState>,
    next: &mut Vec<WidthState>,
    c: &Character,
    threshold: usize,
) -> bool {
    let (wk, blk, brk) = (c.width(), c.blanks().left, c.blanks().right);
    // States are sorted by width, so the last is the widest.
    let Some(&(widest, _, _)) = frontier.last() else {
        frontier.push((wk, blk, brk));
        return true;
    };
    if widest.checked_add(wk).is_none() {
        // Near `u64::MAX` only: check every insertion.
        next.clear();
        for &(width, left_blank, right_blank) in frontier.iter() {
            if let Some(w) = width.checked_add(wk - brk.min(left_blank)) {
                next.push((w, blk, right_blank));
            }
            if let Some(w) = width.checked_add(wk - blk.min(right_blank)) {
                next.push((w, left_blank, brk));
            }
        }
        prune_widths(next, threshold);
        std::mem::swap(frontier, next);
        return !frontier.is_empty();
    }
    if threshold <= 1 {
        // Beam-1 chain, specialized: with a frontier of one, pruning keeps
        // exactly the `(width ↑, left_blank ↓, right_blank ↓)`-smallest of
        // the two inserts (a full key tie means identical triples, so the
        // unstable sort cannot matter). No state vectors, no dominance
        // scan: the chain is the first DP every admission probe runs.
        let st = frontier[0];
        let left = (st.0 + wk - brk.min(st.1), blk, st.2);
        let right = (st.0 + wk - blk.min(st.2), st.1, brk);
        frontier[0] = if (left.0, Reverse(left.1), Reverse(left.2))
            <= (right.0, Reverse(right.1), Reverse(right.2))
        {
            left
        } else {
            right
        };
        return true;
    }
    // Expansion as an indexed fill over a pre-sized buffer: every frontier
    // state expands to exactly two successors at fixed slots, a regular
    // access pattern the compiler can keep in lanes (the push-based loop
    // re-checked capacity per state).
    next.clear();
    next.resize(2 * frontier.len(), (0, 0, 0));
    for (i, &(width, left_blank, right_blank)) in frontier.iter().enumerate() {
        next[2 * i] = (width + wk - brk.min(left_blank), blk, right_blank);
        next[2 * i + 1] = (width + wk - blk.min(right_blank), left_blank, brk);
    }
    prune_widths(next, threshold);
    std::mem::swap(frontier, next);
    true
}

/// [`prune`] on width-only states: same sort, same dominance rule, same
/// beam limit.
fn prune_widths(states: &mut Vec<WidthState>, threshold: usize) {
    states.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)).then(b.2.cmp(&a.2)));
    let mut kept = 0usize;
    for i in 0..states.len() {
        let st = states[i];
        let dominated = states[..kept]
            .iter()
            .any(|k| k.0 <= st.0 && k.1 >= st.1 && k.2 >= st.2);
        if !dominated {
            states[kept] = st;
            kept += 1;
            if kept >= threshold.max(1) {
                break;
            }
        }
    }
    states.truncate(kept);
}

/// Keeps the Pareto frontier of `(width ↓, left_blank ↑, right_blank ↑)`,
/// beam-limited to `threshold` states (smallest widths kept).
fn prune(mut states: Vec<OrderState>, threshold: usize) -> Vec<OrderState> {
    states.sort_by(|a, b| {
        a.width
            .cmp(&b.width)
            .then(b.left_blank.cmp(&a.left_blank))
            .then(b.right_blank.cmp(&a.right_blank))
    });
    let mut kept: Vec<OrderState> = Vec::new();
    for st in states {
        let dominated = kept.iter().any(|k| {
            k.width <= st.width && k.left_blank >= st.left_blank && k.right_blank >= st.right_blank
        });
        if !dominated {
            kept.push(st);
            if kept.len() >= threshold.max(1) {
                break;
            }
        }
    }
    kept
}

/// Exhaustive minimum over all `n!` orders — test oracle only (`n ≤ 8`).
#[doc(hidden)]
pub fn brute_force_min_width(instance: &Instance, set: &[CharId]) -> u64 {
    fn permute(
        instance: &Instance,
        remaining: &mut Vec<CharId>,
        current: &mut Vec<CharId>,
        best: &mut u64,
    ) {
        if remaining.is_empty() {
            let chars: Vec<&Character> =
                current.iter().map(|id| instance.char(id.index())).collect();
            *best = (*best).min(overlap::row_width_ordered(&chars));
            return;
        }
        for i in 0..remaining.len() {
            let id = remaining.remove(i);
            current.push(id);
            permute(instance, remaining, current, best);
            current.pop();
            remaining.insert(i, id);
        }
    }
    if set.is_empty() {
        return 0;
    }
    let mut best = u64::MAX;
    permute(
        instance,
        &mut set.to_vec(),
        &mut Vec::with_capacity(set.len()),
        &mut best,
    );
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Character, Instance, Stencil};

    fn make_instance(specs: &[(u64, u64, u64)]) -> Instance {
        // (width, left blank, right blank), height fixed 40.
        let chars: Vec<Character> = specs
            .iter()
            .map(|&(w, l, r)| Character::new(w, 40, [l, r, 0, 0], 5).unwrap())
            .collect();
        let n = chars.len();
        Instance::new(
            Stencil::with_rows(100_000, 40, 40).unwrap(),
            chars,
            vec![vec![1]; n],
        )
        .unwrap()
    }

    fn ids(n: usize) -> Vec<CharId> {
        (0..n).map(CharId::from).collect()
    }

    #[test]
    fn symmetric_blanks_reach_lemma1_bound() {
        let specs: Vec<(u64, u64, u64)> =
            vec![(40, 9, 9), (44, 7, 7), (38, 4, 4), (50, 2, 2), (41, 6, 6)];
        let inst = make_instance(&specs);
        let (order, width) = refine_row(&inst, &ids(5), 20);
        let lemma: u64 = specs.iter().map(|&(w, s, _)| w - s).sum::<u64>()
            + specs.iter().map(|&(_, s, _)| s).max().unwrap();
        assert_eq!(width, lemma);
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn asymmetric_matches_brute_force_on_small_sets() {
        // 2^{n-1} insertion orders cover the optimum for these shapes.
        let specs = vec![(40, 2, 9), (35, 8, 3), (42, 5, 5), (30, 1, 7)];
        let inst = make_instance(&specs);
        let (_, width) = refine_row(&inst, &ids(4), 64);
        let brute = brute_force_min_width(&inst, &ids(4));
        assert!(
            width <= brute + 2,
            "DP width {width} much worse than brute {brute}"
        );
        // With symmetric-enough shapes the DP typically *equals* brute force;
        // assert it never beats it (impossible) to catch accounting bugs.
        assert!(width >= brute);
    }

    #[test]
    fn singleton_and_empty() {
        let inst = make_instance(&[(40, 3, 4)]);
        let (order, width) = refine_row(&inst, &ids(1), 20);
        assert_eq!(order, ids(1));
        assert_eq!(width, 40);
        let (order, width) = refine_row(&inst, &[], 20);
        assert!(order.is_empty());
        assert_eq!(width, 0);
    }

    #[test]
    fn order_is_permutation_of_input() {
        let specs = vec![(40, 2, 9), (35, 8, 3), (42, 5, 5), (30, 1, 7), (33, 6, 2)];
        let inst = make_instance(&specs);
        let (order, _) = refine_row(&inst, &ids(5), 20);
        let mut sorted: Vec<usize> = order.iter().map(|c| c.index()).collect();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn raised_stop_flag_collapses_the_dp_beam() {
        use std::sync::atomic::AtomicBool;
        let specs = vec![(40, 2, 9), (35, 8, 3), (42, 5, 5), (30, 1, 7), (33, 6, 2)];
        let inst = make_instance(&specs);
        // A flag raised before the call: from the first poll on, the walk
        // is exactly the greedy beam-1 chain — cancellation bounds the
        // work without breaking the complete-order invariant.
        let raised = AtomicBool::new(true);
        let stopped = refine_row_with_stop(&inst, &ids(5), 1000, StopFlag::new(&raised));
        assert_eq!(stopped, refine_row(&inst, &ids(5), 1));
        assert_eq!(stopped.0.len(), 5);
        // An unraised flag changes nothing.
        let lowered = AtomicBool::new(false);
        assert_eq!(
            refine_row_with_stop(&inst, &ids(5), 1000, StopFlag::new(&lowered)),
            refine_row(&inst, &ids(5), 1000)
        );
    }

    #[test]
    fn beam_limit_does_not_break_correctness() {
        let specs = vec![(40, 2, 9), (35, 8, 3), (42, 5, 5), (30, 1, 7), (33, 6, 2)];
        let inst = make_instance(&specs);
        let (_, w_small) = refine_row(&inst, &ids(5), 1);
        let (_, w_large) = refine_row(&inst, &ids(5), 1000);
        assert!(w_large <= w_small, "larger beam can only improve");
    }

    #[test]
    fn width_dp_agrees_with_refine_row_exactly() {
        let specs = vec![
            (40, 2, 9),
            (35, 8, 3),
            (42, 5, 5),
            (30, 1, 7),
            (33, 6, 2),
            (44, 9, 9),
            (28, 4, 1),
        ];
        let inst = make_instance(&specs);
        let mut scratch = WidthScratch::default();
        for threshold in [1usize, 2, 8, 20] {
            for upto in 1..=specs.len() {
                let set = ids(upto);
                let (_, full) = refine_row(&inst, &set, threshold);
                let w = refine_width(&inst, &set, None, threshold, &mut scratch);
                assert_eq!(w, full, "threshold {threshold}, set size {upto}");
                // Probing the last member as `extra` must match including it.
                let (head, tail) = set.split_at(upto - 1);
                let probed = refine_width(&inst, head, Some(tail[0]), threshold, &mut scratch);
                assert_eq!(probed, full, "extra-probe, threshold {threshold}");
            }
        }
        assert_eq!(refine_width(&inst, &[], None, 8, &mut scratch), 0);
    }

    #[test]
    fn beam_one_chain_upper_bounds_the_dp() {
        let specs = vec![(40, 2, 9), (35, 8, 3), (42, 5, 5), (30, 1, 7), (33, 6, 2)];
        let inst = make_instance(&specs);
        let mut scratch = WidthScratch::default();
        let chain = refine_width(&inst, &ids(5), None, 1, &mut scratch);
        let (_, dp) = refine_row(&inst, &ids(5), 8);
        assert!(
            chain >= dp,
            "beam-1 chain {chain} must not beat the DP {dp}"
        );
    }

    #[test]
    fn admits_width_is_decision_identical_to_refine_width() {
        // Deliberately asymmetric shapes so the insertion floors are loose
        // for some characters and tight for others, and caps spanning
        // always-fits through never-fits so both the early-reject and the
        // run-to-completion paths are exercised.
        let specs = vec![
            (40, 2, 9),
            (35, 8, 3),
            (42, 5, 5),
            (30, 1, 7),
            (33, 6, 2),
            (44, 9, 9),
            (28, 4, 1),
            (31, 0, 6),
        ];
        let inst = make_instance(&specs);
        let mut scratch = WidthScratch::default();
        for upto in 1..=specs.len() {
            let mut row = ProbedRow::default();
            for id in ids(upto - 1) {
                row.insert(&inst, id);
            }
            let extra = CharId::from(upto - 1);
            let key = width_key(&inst, extra);
            for threshold in [1usize, 6, 8] {
                let truth =
                    refine_width(&inst, &ids(upto - 1), Some(extra), threshold, &mut scratch);
                for cap in [0, truth.saturating_sub(1), truth, truth + 1, truth + 100] {
                    assert_eq!(
                        row.admits_width(&inst, key, threshold, cap, &mut scratch),
                        truth <= cap,
                        "set {upto}, threshold {threshold}, cap {cap}, truth {truth}"
                    );
                }
            }
        }
    }

    /// A 1D instance from `(width, left blank, right blank)` triples on a
    /// stencil `width` wide.
    fn row_instance(specs: &[(u64, u64, u64)], width: u64) -> Instance {
        let chars: Vec<Character> = specs
            .iter()
            .map(|&(w, l, r)| Character::new(w, 40, [l, r, 0, 0], 5).unwrap())
            .collect();
        let n = chars.len();
        Instance::new(
            Stencil::with_rows(width, 40, 40).unwrap(),
            chars,
            vec![vec![1]; n],
        )
        .unwrap()
    }

    /// Probes `id` against `row` at beams 1, 6 and 8 with caps at the DP
    /// width − 1, the width and the width + 1: the bound plus the resumed
    /// walk, the reference walk, the staged entry and `refine_width` all
    /// decide alike.
    fn assert_probes_match(
        inst: &Instance,
        row: &mut ProbedRow,
        members: &[CharId],
        id: CharId,
        scratch: &mut WidthScratch,
    ) {
        let key = width_key(inst, id);
        let chain = refine_width(inst, members, Some(id), 1, scratch);
        for beam in [1usize, 6, 8] {
            let truth = refine_width(inst, members, Some(id), beam, scratch);
            for cap in [truth.saturating_sub(1), truth, truth.saturating_add(1)] {
                let context = format!(
                    "members {members:?}, candidate {id:?}, beam {beam}, cap {cap}, truth {truth}"
                );
                let reference = row.admits_width_reference(inst, key, beam, cap, scratch);
                assert_eq!(reference, truth <= cap, "reference: {context}");
                assert_eq!(
                    row.admits_width(inst, key, beam, cap, scratch),
                    reference,
                    "admits_width: {context}"
                );
                assert_eq!(
                    row.admits(inst, id, beam, cap, scratch).fits(),
                    chain <= cap || truth <= cap,
                    "admits: {context}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The bound and the checkpointed walk decide every probe like
        /// the reference walk, while inserts land before, on and after
        /// checkpoints. Character 0 has the largest blank and sorts first;
        /// the last has no blank and sorts last; the rest mix symmetric
        /// and asymmetric blanks, including blanks equal to the width.
        #[test]
        fn checkpointed_probes_match_the_reference_walk(
            shapes in proptest::collection::vec((20u64..60, 0u64..4, 0u64..30, 0u64..30), 12..34),
            order in proptest::collection::vec(0u64..1000, 34..35),
        ) {
            let n = shapes.len() + 2;
            let mut specs = vec![(80, 40, 40)];
            specs.extend(shapes.iter().map(|&(w, kind, a, b)| match kind {
                0 => (w, a.min(w / 2), a.min(w / 2)),
                1 => (w, a.min(w / 2), b.min(w / 2)),
                2 => (w, w, 0),
                _ => (w, 0, w.min(b)),
            }));
            specs.push((30, 0, 0));
            let inst = row_instance(&specs, 10_000);
            let mut inserts: Vec<usize> = (1..n - 1).collect();
            inserts.sort_by_key(|&i| (order[i], i));
            let mut row = ProbedRow::default();
            let mut members: Vec<CharId> = Vec::new();
            let mut scratch = WidthScratch::default();
            for (step, &i) in inserts.iter().enumerate() {
                let probes = [0, n - 1, inserts[(step * 7 + 3) % inserts.len()]];
                for p in probes {
                    let id = CharId::from(p);
                    if !members.contains(&id) {
                        assert_probes_match(&inst, &mut row, &members, id, &mut scratch);
                    }
                }
                row.insert(&inst, CharId::from(i));
                members.push(CharId::from(i));
            }
        }

        /// The sorted-blank bound is a true lower bound: never above the
        /// narrowest of all `n!` orders.
        #[test]
        fn width_bound_never_exceeds_the_permutation_optimum(
            shapes in proptest::collection::vec((1u64..50, 0u64..4, 0u64..50, 0u64..50), 1..8),
        ) {
            let specs: Vec<(u64, u64, u64)> = shapes
                .iter()
                .map(|&(w, kind, a, b)| match kind {
                    0 => (w, a.min(w / 2), a.min(w / 2)),
                    1 => (w, a.min(w), b.min(w - a.min(w))),
                    2 => (w, w, 0),
                    _ => (w, 0, w),
                })
                .collect();
            let inst = row_instance(&specs, 10_000);
            let all = ids(specs.len());
            let (candidate, members) = all.split_last().unwrap();
            let mut row = ProbedRow::default();
            for &id in members {
                row.insert(&inst, id);
            }
            let bound = row.width_bound(inst.char(candidate.index()));
            let brute = brute_force_min_width(&inst, &all);
            proptest::prop_assert!(
                bound <= u128::from(brute),
                "bound {} above the optimum {} for {:?}", bound, brute, specs
            );
        }
    }

    #[test]
    fn checkpoints_follow_inserts_before_on_and_after_a_boundary() {
        // Distinct symmetric blanks 40, 39, .. give every key a known
        // sorted position: blank 40 − p sorts at p among all 40 keys.
        let specs: Vec<(u64, u64, u64)> = (0..40u64)
            .map(|p| (100, 40 - p, 40 - p - (p % 3).min(40 - p)))
            .collect();
        let inst = row_instance(&specs, 100_000);
        let mut row = ProbedRow::default();
        let mut members = Vec::new();
        let mut scratch = WidthScratch::default();
        let mut probe_all = |row: &mut ProbedRow, members: &[CharId]| {
            for p in [0usize, 7, 8, 9, 16, 17, 24, 39] {
                let id = CharId::from(p);
                if !members.contains(&id) {
                    assert_probes_match(&inst, row, members, id, &mut scratch);
                }
            }
        };
        // Every other key first, so later inserts land mid-row.
        for p in (1..40).step_by(2).chain([18, 16, 2, 30, 10]) {
            probe_all(&mut row, &members);
            row.insert(&inst, CharId::from(p));
            members.push(CharId::from(p));
        }
        probe_all(&mut row, &members);
    }

    #[test]
    fn overflowing_rows_never_fit() {
        // Two characters of width W/2 + 1 share at least 1 µm, so a pair
        // fits a stencil W wide; three overflow u64 in every order.
        let mut scratch = WidthScratch::default();
        for cap in [u64::MAX, u64::MAX - 10] {
            let big = cap / 2 + 1;
            let inst = row_instance(&[(big, 1, 3), (big, 2, 3), (big, 1, 3)], cap);
            for (members, extra, fits) in [(1, 1, true), (2, 2, false)] {
                let mut row = ProbedRow::default();
                for id in ids(members) {
                    row.insert(&inst, id);
                }
                let id = CharId::from(extra);
                let key = width_key(&inst, id);
                for beam in [1usize, 8] {
                    assert_eq!(row.admits_width(&inst, key, beam, cap, &mut scratch), fits);
                    assert_eq!(
                        row.admits_width_reference(&inst, key, beam, cap, &mut scratch),
                        fits
                    );
                }
                assert_eq!(row.admits(&inst, id, 8, cap, &mut scratch).fits(), fits);
            }
            assert_eq!(
                refine_width(&inst, &ids(3), None, 8, &mut scratch),
                u64::MAX
            );
            assert_eq!(refine_row(&inst, &ids(3), 8).1, u64::MAX);
            assert_eq!(refine_row(&inst, &ids(2), 8).1, big + (big - 2));
        }
    }

    #[test]
    fn pruning_keeps_pareto_front() {
        // Two states: one wider with bigger end blanks must survive.
        let states = vec![
            OrderState {
                width: 100,
                left_blank: 2,
                right_blank: 2,
                order: vec![],
            },
            OrderState {
                width: 105,
                left_blank: 9,
                right_blank: 9,
                order: vec![],
            },
            OrderState {
                width: 106,
                left_blank: 1,
                right_blank: 1,
                order: vec![],
            },
        ];
        let kept = prune(states, 20);
        assert_eq!(kept.len(), 2); // third is dominated by the first
    }
}
