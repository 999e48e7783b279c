//! Single-row ordering refinement (paper §3.4, Algorithm 3).
//!
//! Given the set of characters assigned to one row, choose a left-to-right
//! order minimizing the packed width under blank sharing. Full ordering is
//! `n!`; following the paper we search the `2^{n−1}` *end-insertion* orders
//! (each character, taken in decreasing-blank order, goes to the left or
//! right end of the partial row), which is optimal for symmetric blanks
//! (Lemma 1) and near-optimal in practice for asymmetric ones.
//!
//! The DP state is `(width, left_end_blank, right_end_blank)`; it does not
//! carry its order. Dominated states (wider and with smaller end blanks)
//! are pruned, and the frontier is beam-limited to `threshold` states
//! (paper uses 20). One DP step serves both users: row admission
//! ([`ProbedRow`]) keeps only the current frontier, and [`refine_row`]
//! keeps every step's frontier and walks the narrowest final state's
//! parents back for its order.

use crate::cancel::StopFlag;
use eblow_model::{overlap, CharId, Character, Instance};
use std::cmp::Reverse;

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
///
/// When every DP state overflows `u64` there is no state to walk back
/// from: the members come back in the DP's insertion order (decreasing
/// symmetric blank, then id), at that order's own saturating width.
pub fn refine_row_with_stop(
    instance: &Instance,
    set: &[CharId],
    threshold: usize,
    stop: StopFlag,
) -> (Vec<CharId>, u64) {
    // Decreasing symmetric blank, the order Lemma 1 proves optimal.
    let mut keys: Vec<(u64, CharId)> = set.iter().map(|&id| width_key(instance, id)).collect();
    keys.sort_unstable_by(key_order);
    let (mut frontier, mut next) = (Vec::new(), Vec::new());
    // Every step's frontier, back to back: step `i`'s ends at `ends[i]`.
    let mut states: Vec<WidthState> = Vec::new();
    let mut ends = Vec::with_capacity(keys.len());
    for key in &keys {
        // Polled every insertion: once raised, the beam narrows to 1 and
        // the rest of the walk is exactly the greedy threshold-1 chain.
        let beam = if stop.is_set() { 1 } else { threshold };
        if !dp_insert(&mut frontier, &mut next, instance.char(key.1.index()), beam) {
            break;
        }
        states.extend_from_slice(&frontier);
        ends.push(states.len());
    }
    let chars = |order: &[CharId]| -> Vec<&Character> {
        order.iter().map(|id| instance.char(id.index())).collect()
    };
    let Some(&(width, ..)) = frontier.first() else {
        // No state to walk back from: the set is empty, or every state
        // overflows `u64`.
        let order: Vec<CharId> = keys.iter().map(|k| k.1).collect();
        let width = overlap::row_width_ordered(&chars(&order));
        return (order, width);
    };
    let order = walk_back(instance, &keys, &states, &ends);
    debug_assert_eq!(
        Some(width),
        overlap::checked_row_width(&chars(&order)),
        "DP width must agree with the geometric width"
    );
    (order, width)
}

/// The order of the narrowest state of the last frontier, walked back
/// through every step's frontier (`states` back to back, step `i` ending at
/// `ends[i]`). Each step's parent is the first state of the frontier before
/// it whose insert of that step's key gives the state, its left insert
/// tried before its right: of the inserts with equal triples, the one the
/// DP generated first.
fn walk_back(
    instance: &Instance,
    keys: &[(u64, CharId)],
    states: &[WidthState],
    ends: &[usize],
) -> Vec<CharId> {
    let frontier = |i: usize| &states[if i == 0 { 0 } else { ends[i - 1] }..ends[i]];
    let n = keys.len();
    // Left inserts fill the order from the front and right inserts from
    // the back, the latest outermost, so the first key ends between them.
    // With `front` left inserts placed before step `i`, the right inserts
    // placed are `n − 1 − i − front`, and the next one goes at `i + front`.
    let (mut order, mut front) = (vec![keys[0].1; n], 0);
    let mut state = frontier(n - 1)[0];
    for i in (1..n).rev() {
        let c = instance.char(keys[i].1.index());
        let (wk, blk, brk) = (c.width(), c.blanks().left, c.blanks().right);
        let left = |&(w, l, r): &WidthState| Some((w.checked_add(wk - brk.min(l))?, blk, r));
        let right = |&(w, l, r): &WidthState| Some((w.checked_add(wk - blk.min(r))?, l, brk));
        let (_, parent, at_left) = frontier(i - 1)
            .iter()
            .flat_map(|p| [(left(p), *p, true), (right(p), *p, false)])
            .find(|&(insert, ..)| insert == Some(state))
            .expect("every kept state is an insert of the frontier before it");
        order[if at_left { front } else { i + front }] = keys[i].1;
        front += usize::from(at_left);
        state = parent;
    }
    order
}

/// Reusable buffers for [`ProbedRow`]'s DP walks — callers probing
/// admission in a loop (the rounding commit loop, Algorithm 2's threshold
/// pass, `rowheur1d`'s fill) hold one scratch so a probe allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct WidthScratch {
    frontier: Vec<WidthState>,
    next: Vec<WidthState>,
    /// Keys the last walk inserted.
    walked: usize,
    /// Suffix lengths the row's completion table computed for the last
    /// probe.
    table_steps: usize,
}

impl WidthScratch {
    /// Keys the last walk of [`ProbedRow::admits`] inserted (the DP's when
    /// it ran): the member keys from its checkpoint to the candidate, the
    /// candidate, and the tail keys up to the insertion after which it
    /// refused (0 when the check at the checkpoint or the floor refused).
    pub(crate) fn keys_walked(&self) -> usize {
        self.walked
    }

    /// Suffix lengths the row's completion table computed for the last
    /// probe of [`ProbedRow::admits`], for its DP walk and its floor (0
    /// when the table already held every length read, or no walk ran).
    pub(crate) fn table_steps(&self) -> usize {
        self.table_steps
    }
}

/// One width-only DP state: `(width, left_blank, right_blank)`.
type WidthState = (u64, u64, u64);

/// The DP insertion key of one character: `(symmetric blank, id)`, ordered
/// by decreasing blank, ties by id — the Lemma 1 insertion sequence.
fn width_key(instance: &Instance, id: CharId) -> (u64, CharId) {
    (instance.char(id.index()).symmetric_blank(), id)
}

/// The total insertion order of the width DP: decreasing blank, then
/// increasing id. Ids are unique, so this is a strict total order and any
/// sorted arrangement of a key set is *the* arrangement.
fn key_order(a: &(u64, CharId), b: &(u64, CharId)) -> std::cmp::Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1))
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
    /// The row's completion floor plus the candidate's pattern width
    /// exceeds the cap: refused without a walk.
    Floor,
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
/// and every decision stays the one the full end-insertion DP over the
/// members plus the candidate makes.
///
/// **One bound.** A DP state is a partial row: a block `W` wide with end
/// blanks `(L, R)`. The DP completes it by inserting the keys still to
/// come in key order (decreasing symmetric blank, then id), each at the
/// left or the right end. With the last `m` member keys still to insert,
/// the narrowest of those completions adds `f_m(L, R)`, where `f_0 = 0`
/// and, for the key `(w, l, r)` that is `m`-th from the end,
///
/// `f_m(L, R) = min(w − min(r, L) + f_{m−1}(l, R), w − min(l, R) + f_{m−1}(L, r))`:
///
/// at the left end the key's right blank meets `L` and its left blank
/// becomes the block's end, at the right end the other way round. (In
/// shares, `f_m = Σw − h_m`, where `h_m(L, R)` is the most blank the `m`
/// junctions can share.) The DP at any beam returns the width of one such
/// completion of one state of its current frontier, so once
/// `W + f_m(L, R)` exceeds `cap` for every state the walk refuses only
/// what the DP refuses. The beam-`B` DP checks at two points:
///
/// 1. **At the resume checkpoint.** The frontier over the members that
///    sort before the candidate is the same for every probe of an
///    unchanged row. It is cached every 8 keys (`CHECKPOINT_STRIDE`), per
///    beam. A probe resumes from the last checkpoint at or before its
///    candidate, where the `m` member keys from there on and the candidate
///    `(w, l, r)` are still to insert. Deleting the candidate from such a
///    completion leaves a completion of the `m` keys: each keeps its end
///    and its place. Where the candidate sat between blanks `ρ` and `λ`,
///    the row loses `w − min(ρ, l) − min(r, λ) + min(ρ, λ) ≥ w − l − r`
///    (at the row's end, `w − min(ρ, l)` or `w − min(r, λ)`). So no
///    completion is narrower than `W + f_m(L, R) + w − l − r`. The
///    checkpoint's states are checked against that before the walk
///    inserts the few member keys up to the candidate.
/// 2. **After every insertion from the candidate on,** against
///    `W + f_m(L, R)` over the `m` member keys still to insert.
///
/// The beam-1 chain, which runs first, walks without the table: its one
/// state only widens as keys are inserted (no blank exceeds its width), so
/// it refuses once that state passes `cap`.
///
/// **The floor.** The same deletion argument, applied to the whole row,
/// refuses most probes of a full row without a walk. Every end-insertion
/// order of the members starts from the first key `(w₀, l₀, r₀)` alone,
/// so none is narrower than the floor `w₀ + f_{n−1}(l₀, r₀)`. Read left to
/// right, an end-insertion order falls in insertion order to its first
/// key and rises after it; deleting the candidate keeps that shape, so it
/// leaves an end-insertion order of the members, and the row loses at
/// least `w − l − r`. So at every beam no order of the members plus the
/// candidate is narrower than floor + `w − l − r`. A row computes its
/// floor at its first refusal after an insert, and from then on refuses in
/// O(1) each candidate whose floor + `w − l − r` exceeds `cap`. The floor
/// is a function of the member set, so a clone keeps it and an insert
/// drops it.
///
/// **The completion table.** The row keeps `f_m` for each suffix length
/// `m` of its sorted keys, on a grid of blank values. It is scratch like
/// the checkpoints: a clone starts without it, and a DP probe extends it
/// to the longest suffix its walk reads, the floor to `n − 1` keys.
/// Inserting a key at sorted position
/// `p` among `n` keys keeps every suffix of up to `n − p` keys, so those
/// lengths stay. The grid is the row's distinct member blanks, left and
/// right, and a blank new to the row that moves it drops every length. A
/// row with more than `GRID_MAX` distinct blanks keeps that many of them,
/// spread evenly with the largest included, and rounds its members'
/// blanks up onto them. A query rounds `L` and `R` up to the next grid
/// value and clamps at the top. Every rounding is sound:
///
/// - `f` never increases in either argument, since a larger end blank
///   shares at least as much;
/// - `L` and `R` only meet member blanks through `min`, so `f` is constant
///   above the largest member blank;
/// - a member blank rounded up over-states what its junctions share.
///
/// Each length stores `f_m` at the top grid pair, its least value,
/// saturating at `u64::MAX`, and one `u8` offset from it per grid pair,
/// saturating at 255. Both round widths down, and longer lengths built on
/// rounded cells stay below the exact `f` too. So a stored `f_m` never
/// exceeds the narrowest completion, and with an exact grid and no
/// saturated cell it equals it. Widths past `u64::MAX` never fit: the walk
/// drops states whose width overflows, and the checks add in `u128`.
#[derive(Debug, Clone, Default)]
pub struct ProbedRow {
    /// `(symmetric blank, id)` keys sorted by [`key_order`].
    keys: Vec<(u64, CharId)>,
    /// Cached DP frontiers; scratch that a clone does not carry.
    checkpoints: Checkpoints,
    /// `f_m` over the suffix lengths built; scratch like `checkpoints`.
    table: CompletionTable,
    /// The completion floor, once a refusal since the last insert has
    /// computed it.
    floor: Option<u128>,
}

impl ProbedRow {
    /// Inserts the member `id` at its key's sorted position, and drops the
    /// checkpoints past it, the table lengths that hold it and the floor
    /// (O(n) — once per commit, amortized over the many probes in
    /// between).
    pub fn insert(&mut self, instance: &Instance, id: CharId) {
        let c = instance.char(id.index());
        let key = width_key(instance, id);
        let pos = self.position(&key);
        self.table.insert(pos, self.keys.len(), c);
        self.keys.insert(pos, key);
        self.checkpoints.invalidate_from(pos);
        self.floor = None;
    }

    /// The sorted position of `key` among the member keys.
    fn position(&self, key: &(u64, CharId)) -> usize {
        self.keys.partition_point(|k| key_order(k, key).is_lt())
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when the row holds no members.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether the members plus `id` pack within `cap`, decided in stages:
    /// the row's floor when a refusal has computed it, the beam-1 chain (if
    /// one concrete order fits, the DP fits), then the beam-`beam` DP.
    /// Decision-identical to the end-insertion DP over the members plus
    /// `id` at beam `beam` fitting `cap`; the returned stage says which
    /// step decided.
    pub fn admits(
        &mut self,
        instance: &Instance,
        id: CharId,
        beam: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> Admission {
        scratch.walked = 0;
        scratch.table_steps = 0;
        let charge = u128::from(instance.char(id.index()).pattern_width());
        if self
            .floor
            .is_some_and(|floor| floor + charge > u128::from(cap))
        {
            return Admission::Floor;
        }
        let probe = self.probe(instance, id);
        if self.walk_fits(instance, &probe, 1, cap, scratch) {
            return Admission::ChainFits;
        }
        let fits = beam > 1 && self.walk_fits(instance, &probe, beam, cap, scratch);
        if !fits && self.floor.is_none() {
            self.floor = Some(self.completion_floor(instance, scratch));
        }
        Admission::Dp(fits)
    }

    /// Places the candidate `id` at its key's sorted position in the walk.
    fn probe<'i>(&self, instance: &'i Instance, id: CharId) -> Probe<'i> {
        let pos = self.position(&width_key(instance, id));
        Probe {
            candidate: instance.char(id.index()),
            pos,
            at: pos / CHECKPOINT_STRIDE,
        }
    }

    /// The floor of the type docs, `w₀ + f_{n−1}(l₀, r₀)` (0 for an empty
    /// row), extending the table to `n − 1` keys.
    fn completion_floor(&mut self, instance: &Instance, scratch: &mut WidthScratch) -> u128 {
        let Some(&(_, first)) = self.keys.first() else {
            return 0;
        };
        let m = self.keys.len() - 1;
        scratch.table_steps += self.table.extend_to(instance, &self.keys, m);
        let c = instance.char(first.index());
        u128::from(c.width()) + self.table.floor(m, c.blanks().left, c.blanks().right)
    }

    /// The beam-`beam` walk's decision over the members plus the probe's
    /// candidate, resumed from the last checkpoint at or before the
    /// candidate. The DP (`beam > 1`) first extends the completion table
    /// to the longest suffix it reads (the member keys from the resume
    /// checkpoint on, or from the candidate on when the walk starts before
    /// the first checkpoint) and refuses as soon as no completion of any
    /// frontier state fits `cap`; the beam-1 chain refuses once its state
    /// is wider than `cap` (see the type docs).
    fn walk_fits(
        &mut self,
        instance: &Instance,
        probe: &Probe<'_>,
        beam: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> bool {
        debug_assert!(self
            .keys
            .windows(2)
            .all(|w| key_order(&w[0], &w[1]).is_lt()));
        let (n, from) = (self.keys.len(), probe.at * CHECKPOINT_STRIDE);
        let table = if beam > 1 {
            let len = n - if probe.at > 0 { from } else { probe.pos };
            scratch.table_steps += self.table.extend_to(instance, &self.keys, len);
            Some(&self.table)
        } else {
            None
        };
        let WidthScratch {
            frontier,
            next,
            walked,
            ..
        } = scratch;
        *walked = 0;
        let checkpoints = self.checkpoints.beam(beam);
        checkpoints.build_to(instance, &self.keys, probe.at, frontier, next);
        frontier.clear();
        if probe.at > 0 {
            frontier.extend_from_slice(checkpoints.frontier(probe.at));
            // An empty checkpoint: the members before it alone overflow
            // `u64`. Otherwise the candidate is still to come: charge it
            // `w − l − r` on top of the members' completion.
            let charge = u128::from(probe.candidate.pattern_width());
            if frontier.is_empty()
                || table.is_some_and(|t| t.beyond(frontier, n - from, charge, cap))
            {
                return false;
            }
        }
        for key in &self.keys[from..probe.pos] {
            *walked += 1;
            if !dp_insert(frontier, next, instance.char(key.1.index()), beam) {
                return false;
            }
        }
        // From the candidate on, insertion `i` leaves the last
        // `n − pos − i` keys; the last leaves none, and the row fits iff a
        // state fits.
        let tail = self.keys[probe.pos..]
            .iter()
            .map(|k| instance.char(k.1.index()));
        for (i, c) in std::iter::once(probe.candidate).chain(tail).enumerate() {
            *walked += 1;
            let left = n - probe.pos - i;
            if !dp_insert(frontier, next, c, beam)
                || table.map_or(frontier[0].0 > cap, |t| t.beyond(frontier, left, 0, cap))
            {
                return false;
            }
        }
        true
    }
}

/// One candidate's place in a [`ProbedRow`]'s walk, shared by the beam-1
/// chain and the beam-`B` DP of one probe.
struct Probe<'i> {
    candidate: &'i Character,
    /// The candidate's sorted position among the member keys.
    pos: usize,
    /// The checkpoint the walk resumes from: `pos / CHECKPOINT_STRIDE`.
    at: usize,
}

/// Most grid values a [`CompletionTable`] keeps. A row with more distinct
/// member blanks rounds them up onto this many, so one length holds at
/// most 256 offsets. MCC rows hold at most 9 distinct blanks.
const GRID_MAX: usize = 16;

/// The completion table of a [`ProbedRow`] (see its docs): `f_m` on every
/// grid pair for each suffix length `m` built. Scratch: a clone starts
/// empty, an insert keeps the lengths it leaves intact, and a probe
/// extends it in place.
#[derive(Debug, Default)]
struct CompletionTable {
    /// Whether `values` holds the row's distinct member blanks: `false`
    /// until the first probe after a clone.
    synced: bool,
    /// The members' distinct blanks, left and right, ascending.
    values: Vec<u64>,
    /// The grid: `values`, or `GRID_MAX` of them spread evenly with the
    /// largest included.
    grid: Vec<u64>,
    /// `bases[m − 1]`: `f_m` at the top grid pair, its least value.
    bases: Vec<u64>,
    /// `f_m(grid[i], grid[j]) − bases[m − 1]` at `offsets[(m − 1)·g² +
    /// i·g + j]`, for a grid of `g` values.
    offsets: Vec<u8>,
}

impl Clone for CompletionTable {
    fn clone(&self) -> Self {
        CompletionTable::default()
    }
}

impl CompletionTable {
    /// Keeps what an insert of `c` at sorted position `pos` among `n` keys
    /// leaves intact: every suffix of up to `n − pos` keys, unless a blank
    /// new to the row moves the grid.
    fn insert(&mut self, pos: usize, n: usize, c: &Character) {
        self.truncate(n - pos);
        if !self.synced {
            return;
        }
        let mut grown = false;
        for blank in [c.blanks().left, c.blanks().right] {
            if let Err(at) = self.values.binary_search(&blank) {
                self.values.insert(at, blank);
                grown = true;
            }
        }
        if grown && self.regrid() {
            self.truncate(0);
        }
    }

    /// Keeps the first `len` lengths.
    fn truncate(&mut self, len: usize) {
        let cells = self.grid.len() * self.grid.len();
        self.bases.truncate(len);
        self.offsets.truncate(len * cells);
    }

    /// Collects the members' distinct blanks, after a clone, and builds no
    /// length yet.
    fn sync(&mut self, instance: &Instance, keys: &[(u64, CharId)]) {
        self.values.clear();
        for key in keys {
            let blanks = instance.char(key.1.index()).blanks();
            self.values.extend([blanks.left, blanks.right]);
        }
        self.values.sort_unstable();
        self.values.dedup();
        self.regrid();
        self.truncate(0);
        self.synced = true;
    }

    /// Derives the grid from `values`, and returns whether it moved.
    fn regrid(&mut self) -> bool {
        let d = self.values.len();
        let g = d.min(GRID_MAX);
        let value = |i: usize| self.values[((i + 1) * d).div_ceil(g) - 1];
        if self.grid.len() == g && (0..g).all(|i| self.grid[i] == value(i)) {
            return false;
        }
        self.grid.clear();
        self.grid.extend((0..g).map(value));
        true
    }

    /// The grid index of `blank` rounded up to the next grid value,
    /// clamped at the top.
    fn index(&self, blank: u64) -> usize {
        self.grid
            .partition_point(|&v| v < blank)
            .min(self.grid.len() - 1)
    }

    /// Builds the lengths up to `len` of the suffixes of `keys` not yet
    /// built, and returns how many it built.
    fn extend_to(&mut self, instance: &Instance, keys: &[(u64, CharId)], len: usize) -> usize {
        if !self.synced {
            self.sync(instance, keys);
        }
        let built = self.bases.len();
        if built >= len {
            return 0;
        }
        self.offsets
            .resize(len * self.grid.len() * self.grid.len(), 0);
        for m in built + 1..=len {
            self.step(m, instance.char(keys[keys.len() - m].1.index()));
        }
        len - built
    }

    /// Builds length `m` from length `m − 1` for `c`, the key `m`-th from
    /// the end: at each grid pair `(L, R)` the narrower of `c` at the left
    /// end and at the right end (see [`ProbedRow`]). Each insert is a part
    /// that reads one end blank plus a part that reads the other, so the
    /// step precomputes both parts per grid value and the cells cost a
    /// minimum of two sums each.
    fn step(&mut self, m: usize, c: &Character) {
        let g = self.grid.len();
        let (a, b) = (self.index(c.blanks().left), self.index(c.blanks().right));
        let (grid, w) = (&self.grid, c.width());
        let (built, cells) = self.offsets.split_at_mut((m - 1) * g * g);
        // At the left end `w − min(r, L) + f_{m−1}(l, R)`, at the right end
        // `w − min(l, R) + f_{m−1}(L, r)`, with `f_0 = 0` and every stored
        // cell rounded down.
        let (mut joins_l, mut rests_r) = ([0u64; GRID_MAX], [0u64; GRID_MAX]);
        let (mut joins_r, mut rests_l) = ([0u64; GRID_MAX], [0u64; GRID_MAX]);
        for x in 0..g {
            joins_l[x] = w.saturating_sub(grid[b].min(grid[x]));
            joins_r[x] = w.saturating_sub(grid[a].min(grid[x]));
        }
        if let Some(k) = m.checked_sub(2) {
            let (least, shorter) = (self.bases[k], &built[k * g * g..]);
            for x in 0..g {
                rests_r[x] = least.saturating_add(u64::from(shorter[a * g + x]));
                rests_l[x] = least.saturating_add(u64::from(shorter[x * g + b]));
            }
        }
        let top = g - 1;
        let least = joins_l[top]
            .saturating_add(rests_r[top])
            .min(joins_r[top].saturating_add(rests_l[top]));
        let (rests_r, joins_r) = (&rests_r[..g], &joins_r[..g]);
        for (i, row) in cells[..g * g].chunks_exact_mut(g).enumerate() {
            let (join_l, rest_l) = (joins_l[i], rests_l[i]);
            for ((offset, &rest_r), &join_r) in row.iter_mut().zip(rests_r).zip(joins_r) {
                let cell = join_l
                    .saturating_add(rest_r)
                    .min(join_r.saturating_add(rest_l));
                // Never below `least`: `f` never increases in either
                // argument.
                *offset = u8::try_from(cell.saturating_sub(least)).unwrap_or(u8::MAX);
            }
        }
        self.bases.push(least);
    }

    /// `f_m(left, right)` as stored, at most the narrowest width
    /// end-inserting the last `m` member keys can add to a block with end
    /// blanks `(left, right)`; 0 for `m = 0`.
    fn floor(&self, m: usize, left: u64, right: u64) -> u128 {
        let Some(k) = m.checked_sub(1) else {
            return 0;
        };
        let g = self.grid.len();
        let offset = self.offsets[k * g * g + self.index(left) * g + self.index(right)];
        u128::from(self.bases[k]) + u128::from(offset)
    }

    /// Whether no completion of any `frontier` state by the last `m` member
    /// keys, `charge` wider, fits `cap`.
    fn beyond(&self, frontier: &[WidthState], m: usize, charge: u128, cap: u64) -> bool {
        let cap = u128::from(cap);
        let least = m.checked_sub(1).map_or(0, |k| u128::from(self.bases[k])) + charge;
        frontier.iter().all(|&(width, left, right)| {
            // Offsets are at most 255: the length's least value settles most
            // states without reading the grid.
            let low = u128::from(width) + least;
            low > cap
                || (low + u128::from(u8::MAX) > cap
                    && u128::from(width) + self.floor(m, left, right) + charge > cap)
        })
    }
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

/// The order the DP prunes in: width ascending, then left blank and right
/// blank descending. A full key tie means identical states.
fn prune_key(st: &WidthState) -> (u64, Reverse<u64>, Reverse<u64>) {
    (st.0, Reverse(st.1), Reverse(st.2))
}

/// One DP insertion: starts the frontier with `c` alone when it is empty,
/// otherwise inserts `c` at both ends of every state and prunes to
/// `threshold` states. A state whose width would overflow `u64` fits no
/// stencil and is dropped; returns `false` when no state is left.
///
/// The prune is `prune_widths` over all `2k` inserts: the same states in
/// the same order under the same beam cut, without sorting the inserts
/// together or scanning dominance pairwise. Every left insert ends in
/// `c`'s left blank and every right insert in its right blank, so each
/// group varies in its width and one free blank only. Each group arrives
/// in its frontier's width order, shifted by at most one of `c`'s blanks,
/// and is put in prune order by insertion. The two are then merged in
/// prune order, and whether an earlier insert dominates the next one
/// reads off the largest free blank merged so far in each group (see
/// [`merge_pareto`]).
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
    if threshold <= 1 && widest.checked_add(wk).is_some() {
        // Beam-1 chain, specialized: with a frontier of one, pruning keeps
        // exactly the `(width ↑, left_blank ↓, right_blank ↓)`-smallest of
        // the two inserts (a full key tie means identical triples, so the
        // unstable sort cannot matter). No state vectors, no dominance
        // scan: the chain is the first DP every admission probe runs.
        let st = frontier[0];
        let left = (st.0 + wk - brk.min(st.1), blk, st.2);
        let right = (st.0 + wk - blk.min(st.2), st.1, brk);
        frontier[0] = if prune_key(&left) <= prune_key(&right) {
            left
        } else {
            right
        };
        return true;
    }
    // The left inserts, then the right inserts.
    next.clear();
    let split = if widest.checked_add(wk).is_some() {
        next.extend(
            frontier
                .iter()
                .map(|&(width, l, r)| (width + wk - brk.min(l), blk, r)),
        );
        let split = next.len();
        next.extend(
            frontier
                .iter()
                .map(|&(width, l, r)| (width + wk - blk.min(r), l, brk)),
        );
        split
    } else {
        // Near `u64::MAX` only: drop the inserts whose width overflows.
        let left =
            |&(width, l, r): &WidthState| Some((width.checked_add(wk - brk.min(l))?, blk, r));
        let right =
            |&(width, l, r): &WidthState| Some((width.checked_add(wk - blk.min(r))?, l, brk));
        next.extend(frontier.iter().filter_map(left));
        let split = next.len();
        next.extend(frontier.iter().filter_map(right));
        split
    };
    let (lefts, rights) = next.split_at_mut(split);
    // Within a group prune order is width ascending, then the free blank
    // descending.
    sort_group(lefts, |st| st.2);
    sort_group(rights, |st| st.1);
    merge_pareto(lefts, rights, (blk, brk), threshold, frontier);
    !frontier.is_empty()
}

/// Sorts one insert group by width ascending, then its `free` blank
/// descending, by insertion: it arrives nearly sorted, so few states move.
fn sort_group(states: &mut [WidthState], free: impl Fn(&WidthState) -> u64) {
    let key = |st: &WidthState| (st.0, Reverse(free(st)));
    for i in 1..states.len() {
        let st = states[i];
        let mut j = i;
        while j > 0 && key(&states[j - 1]) > key(&st) {
            states[j] = states[j - 1];
            j -= 1;
        }
        states[j] = st;
    }
}

/// Merges the left inserts `lefts` (all ending in `c`'s left blank `blk`)
/// and the right inserts `rights` (all ending in its right blank `brk`),
/// each in prune order, into `out` in prune order: each state no earlier
/// one dominates, until `threshold` are kept. This is `prune_widths`
/// over both groups.
///
/// Every earlier state is at most as wide, so an earlier state dominates
/// when both its blanks are at least as large. Within the left group that
/// reads `r' ≥ r`, across from the right group `l' ≥ blk` and `brk ≥ r`;
/// symmetrically for a right insert. So the largest right blank among the
/// left inserts merged so far and the largest left blank among the right
/// inserts decide it in O(1). Checking every earlier state, not only the
/// kept ones, decides alike: a dropped state has a kept dominator, and
/// dominance is transitive.
// audit:allow(stop-flag-reachability): at most one step per insert, 2·threshold per DP insertion; the callers poll between probes and rows
fn merge_pareto(
    lefts: &[WidthState],
    rights: &[WidthState],
    (blk, brk): (u64, u64),
    threshold: usize,
    out: &mut Vec<WidthState>,
) {
    out.clear();
    // `None` until the group's first state is merged.
    let (mut lefts_right, mut rights_left) = (None, None);
    let (mut i, mut j) = (0, 0);
    while out.len() < threshold.max(1) {
        let take_left = match (lefts.get(i), rights.get(j)) {
            (Some(a), Some(b)) => prune_key(a) <= prune_key(b),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
        };
        let (st, dominated) = if take_left {
            let st = lefts[i];
            i += 1;
            let dominated = lefts_right >= Some(st.2) || (rights_left >= Some(blk) && brk >= st.2);
            lefts_right = lefts_right.max(Some(st.2));
            (st, dominated)
        } else {
            let st = rights[j];
            j += 1;
            let dominated = rights_left >= Some(st.1) || (lefts_right >= Some(brk) && blk >= st.1);
            rights_left = rights_left.max(Some(st.1));
            (st, dominated)
        };
        if !dominated {
            out.push(st);
        }
    }
}

/// The reference prune of width-only states: sorted by width ascending,
/// then left and right blank descending, each state kept that no kept one
/// dominates, until `threshold` are kept. The reference [`merge_pareto`]
/// is checked against.
#[cfg(test)]
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

/// The minimum width any end insertion of `c` can add to a partial row:
/// `w − max(l, r)` (the junction shares at most one of the two blanks).
/// Summed over a suffix of the insertion sequence this lower-bounds the
/// remaining growth of *every* DP state — the early-reject certificate of
/// the reference walks.
#[cfg(test)]
fn insertion_floor(c: &Character) -> u64 {
    c.width()
        .saturating_sub(c.blanks().left.max(c.blanks().right))
}

/// The references the kernel must match.
#[cfg(test)]
impl ProbedRow {
    /// The kernel at one beam width: the walk resumed from the candidate's
    /// checkpoint, without the floor.
    fn admits_width(
        &mut self,
        instance: &Instance,
        extra: (u64, CharId),
        threshold: usize,
        cap: u64,
        scratch: &mut WidthScratch,
    ) -> bool {
        let probe = self.probe(instance, extra.1);
        self.walk_fits(instance, &probe, threshold, cap, scratch)
    }

    /// The per-probe walk the checkpoints and the completion table replace:
    /// merge the candidate at its sorted position and walk every key from
    /// the first, checking the frontier minimum plus the remaining
    /// insertion floors after each insertion.
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
        // floors[i]: the floor sum of keys[i..] (saturating).
        let mut floors = vec![0u64; self.keys.len() + 1];
        for i in (0..self.keys.len()).rev() {
            let floor = insertion_floor(instance.char(self.keys[i].1.index()));
            floors[i] = floors[i + 1].saturating_add(floor);
        }
        // Each item pairs with the floor sum of everything merged *after*
        // it: head items still owe the candidate's floor, the candidate
        // owes the tail, tail items owe their own suffix.
        let head = self.keys[..pos].iter().enumerate().map(|(t, k)| {
            let owed = floors[t + 1].saturating_add(x_floor);
            (instance.char(k.1.index()), owed)
        });
        let mid = std::iter::once((x, floors[pos]));
        let tail = self.keys[pos..]
            .iter()
            .enumerate()
            .map(|(j, k)| (instance.char(k.1.index()), floors[pos + j + 1]));
        let WidthScratch { frontier, next, .. } = scratch;
        frontier.clear();
        dp_walk(frontier, next, head.chain(mid).chain(tail), threshold, cap).is_some()
    }
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
#[cfg(test)]
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
        // The frontier is in prune order, width ascending, so the minimum
        // is at the front; every continuation adds at least `rem` to every
        // state.
        if frontier[0].0.saturating_add(rem) > cap {
            return None;
        }
    }
    Some(frontier.first().map_or(0, |st| st.0))
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

    /// One partial-order state of [`refine_row_reference`].
    #[derive(Debug, Clone)]
    struct OrderState {
        width: u64,
        left_blank: u64,
        right_blank: u64,
        order: Vec<CharId>,
    }

    /// Algorithm 3 as a cloning DP, the reference [`refine_row_with_stop`]
    /// must match: every state carries its own order and clones it into
    /// both of its inserts, a stable sort orders the inserts for [`prune`],
    /// and a width past `u64::MAX` saturates instead of dropping the state.
    fn refine_row_reference(
        instance: &Instance,
        set: &[CharId],
        threshold: usize,
        stop: StopFlag,
    ) -> (Vec<CharId>, u64) {
        let chars: Vec<&Character> = set.iter().map(|id| instance.char(id.index())).collect();
        if set.is_empty() {
            return (Vec::new(), 0);
        }
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
            let beam = if stop.is_set() { 1 } else { threshold };
            let ck = chars[k];
            let (wk, blk, brk) = (ck.width(), ck.blanks().left, ck.blanks().right);
            let mut next: Vec<OrderState> = Vec::with_capacity(frontier.len() * 2);
            for st in &frontier {
                let mut left_order = Vec::with_capacity(st.order.len() + 1);
                left_order.push(set[k]);
                left_order.extend_from_slice(&st.order);
                next.push(OrderState {
                    width: st.width.saturating_add(wk - brk.min(st.left_blank)),
                    left_blank: blk,
                    right_blank: st.right_blank,
                    order: left_order,
                });
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
        (best.order, best.width)
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
                k.width <= st.width
                    && k.left_blank >= st.left_blank
                    && k.right_blank >= st.right_blank
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
    fn beam_one_chain_upper_bounds_the_dp() {
        let specs = vec![(40, 2, 9), (35, 8, 3), (42, 5, 5), (30, 1, 7), (33, 6, 2)];
        let inst = make_instance(&specs);
        let (_, chain) = refine_row(&inst, &ids(5), 1);
        let (_, dp) = refine_row(&inst, &ids(5), 8);
        assert!(
            chain >= dp,
            "beam-1 chain {chain} must not beat the DP {dp}"
        );
    }

    #[test]
    fn admits_width_is_decision_identical_to_refine_row() {
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
                let (_, truth) = refine_row(&inst, &ids(upto), threshold);
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
    /// width − 1, the width and the width + 1: the resumed walk, the
    /// reference walk, the staged entry and [`refine_row`] all decide
    /// alike.
    fn assert_probes_match(
        inst: &Instance,
        row: &mut ProbedRow,
        members: &[CharId],
        id: CharId,
        scratch: &mut WidthScratch,
    ) {
        let key = width_key(inst, id);
        let set: Vec<CharId> = members.iter().copied().chain([id]).collect();
        let (_, chain) = refine_row(inst, &set, 1);
        for beam in [1usize, 6, 8] {
            let (_, truth) = refine_row(inst, &set, beam);
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

    /// The narrowest width end-inserting `chars` in order can add to a block
    /// with end blanks `(left, right)`, over all `2^m` completions: each
    /// character's right blank meets the left end, or its left blank the
    /// right end. Exact in `u128`.
    fn narrowest_completion(chars: &[&Character], left: u64, right: u64) -> u128 {
        let Some((c, rest)) = chars.split_first() else {
            return 0;
        };
        let (w, l, r) = (u128::from(c.width()), c.blanks().left, c.blanks().right);
        let at_left = w - u128::from(r.min(left)) + narrowest_completion(rest, l, right);
        let at_right = w - u128::from(l.min(right)) + narrowest_completion(rest, left, r);
        at_left.min(at_right)
    }

    /// The narrowest end-insertion order of `chars`, sorted by key: the
    /// first key alone, then the narrowest of its `2^(n−1)` completions.
    /// Exact in `u128`; 0 for no characters.
    fn narrowest_order(chars: &[&Character]) -> u128 {
        let Some((first, rest)) = chars.split_first() else {
            return 0;
        };
        let (l, r) = (first.blanks().left, first.blanks().right);
        u128::from(first.width()) + narrowest_completion(rest, l, r)
    }

    /// A row of `members`, inserted in turn, that no probe has warmed.
    fn row_of(inst: &Instance, members: &[CharId]) -> ProbedRow {
        let mut row = ProbedRow::default();
        for &id in members {
            row.insert(inst, id);
        }
        row
    }

    /// The completion table's grid for a row of `members`, from its
    /// definition: their distinct blanks, left and right, or `GRID_MAX` of
    /// them spread evenly with the largest included.
    fn grid_by_definition(members: &[&Character]) -> Vec<u64> {
        let mut values: Vec<u64> = members
            .iter()
            .flat_map(|c| [c.blanks().left, c.blanks().right])
            .collect();
        values.sort_unstable();
        values.dedup();
        let (d, g) = (values.len(), values.len().min(GRID_MAX));
        (1..=g).map(|i| values[(i * d).div_ceil(g) - 1]).collect()
    }

    /// `f_m` as the completion table stores it, for every suffix of
    /// `chars` (index `m`), from the recurrence in the [`ProbedRow`] docs
    /// and without the table: member blanks and queries rounded up onto
    /// `grid` and clamped at its top, each length's cells kept as its value
    /// at the top grid pair plus an excess of at most 255, and every sum
    /// saturating at `u64::MAX`. [`floor_by_definition`] reads it.
    fn floors_by_definition(chars: &[&Character], grid: &[u64]) -> Vec<Vec<Vec<(u64, u64)>>> {
        let g = grid.len();
        let up = |blank: u64| grid.iter().position(|&v| v >= blank).unwrap_or(g - 1);
        let mut floors = vec![vec![vec![(0u64, 0u64); g]; g]];
        for c in chars.iter().rev() {
            let shorter = floors.last().unwrap();
            let read = |i: usize, j: usize| shorter[i][j].0.saturating_add(shorter[i][j].1);
            let (a, b) = (up(c.blanks().left), up(c.blanks().right));
            let cell = |i: usize, j: usize| {
                let at_left = c
                    .width()
                    .saturating_sub(grid[b].min(grid[i]))
                    .saturating_add(read(a, j));
                let at_right = c
                    .width()
                    .saturating_sub(grid[a].min(grid[j]))
                    .saturating_add(read(i, b));
                at_left.min(at_right)
            };
            let least = cell(g - 1, g - 1);
            let length: Vec<Vec<(u64, u64)>> = (0..g)
                .map(|i| {
                    (0..g)
                        .map(|j| (least, (cell(i, j) - least).min(255)))
                        .collect()
                })
                .collect();
            floors.push(length);
        }
        floors
    }

    /// The stored `f_m(left, right)` of [`floors_by_definition`]: 0 for
    /// `m = 0`, else the cell at the rounded-up query.
    fn floor_by_definition(
        floors: &[Vec<Vec<(u64, u64)>>],
        grid: &[u64],
        m: usize,
        (left, right): (u64, u64),
    ) -> u128 {
        if m == 0 {
            return 0;
        }
        let up = |blank: u64| {
            grid.iter()
                .position(|&v| v >= blank)
                .unwrap_or(grid.len() - 1)
        };
        let (least, offset) = floors[m][up(left)][up(right)];
        u128::from(least) + u128::from(offset)
    }

    /// The walk [`ProbedRow::walk_fits`] must make, rebuilt from scratch:
    /// the frontier over the members before the candidate's checkpoint,
    /// the check there over the rest with the candidate charged
    /// `w − l − r`, the head keys unchecked, then the check after every
    /// insertion from the candidate on, each reading the completion table
    /// from its definition. The beam-1 chain checks only its state's width
    /// against the cap, from the candidate on. Returns the decision and
    /// the keys walked.
    fn walk_by_definition(
        inst: &Instance,
        members: &[CharId],
        id: CharId,
        beam: usize,
        cap: u64,
    ) -> (bool, usize) {
        let mut keys: Vec<(u64, CharId)> = members.iter().map(|&m| width_key(inst, m)).collect();
        keys.sort_unstable_by(key_order);
        let pos = keys.partition_point(|k| key_order(k, &width_key(inst, id)).is_lt());
        let at = pos / CHECKPOINT_STRIDE * CHECKPOINT_STRIDE;
        let chars: Vec<&Character> = keys.iter().map(|k| inst.char(k.1.index())).collect();
        let candidate = inst.char(id.index());
        let grid = grid_by_definition(&chars);
        let floors = floors_by_definition(&chars, &grid);
        let n = chars.len();
        let exceeds = |frontier: &[WidthState], m: usize, charge: u128| {
            frontier.iter().all(|&(w, l, r)| {
                let completion = if beam > 1 {
                    floor_by_definition(&floors, &grid, m, (l, r))
                } else {
                    0
                };
                u128::from(w) + completion + charge > u128::from(cap)
            })
        };
        let (mut frontier, mut next) = (Vec::new(), Vec::new());
        for &c in &chars[..at] {
            if !dp_insert(&mut frontier, &mut next, c, beam) {
                return (false, 0);
            }
        }
        if at > 0 && beam > 1 && exceeds(&frontier, n - at, u128::from(candidate.pattern_width())) {
            return (false, 0);
        }
        let mut walked = 0;
        for &c in &chars[at..pos] {
            walked += 1;
            if !dp_insert(&mut frontier, &mut next, c, beam) {
                return (false, walked);
            }
        }
        let inserts = std::iter::once(candidate).chain(chars[pos..].iter().copied());
        for (i, c) in inserts.enumerate() {
            walked += 1;
            if !dp_insert(&mut frontier, &mut next, c, beam) || exceeds(&frontier, n - pos - i, 0) {
                return (false, walked);
            }
        }
        (true, walked)
    }

    /// The insertion step [`dp_insert`] replaces: `c` inserted at both ends
    /// of every state, inserts past `u64::MAX` dropped, then
    /// [`prune_widths`] over all of them.
    fn dp_insert_by_prune(
        frontier: &[WidthState],
        c: &Character,
        threshold: usize,
    ) -> Vec<WidthState> {
        let (wk, blk, brk) = (c.width(), c.blanks().left, c.blanks().right);
        if frontier.is_empty() {
            return vec![(wk, blk, brk)];
        }
        let mut next = Vec::new();
        for &(width, left_blank, right_blank) in frontier {
            if let Some(w) = width.checked_add(wk - brk.min(left_blank)) {
                next.push((w, blk, right_blank));
            }
            if let Some(w) = width.checked_add(wk - blk.min(right_blank)) {
                next.push((w, left_blank, brk));
            }
        }
        prune_widths(&mut next, threshold);
        next
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Algorithm 3 on the width DP, its order walked back through
        /// parents, returns the order and width of the cloning DP. Rows hold
        /// 1–60 characters with widths in 20..24 and blanks in 0..4, so keys
        /// tie on their blank and different parents insert to the same
        /// triple; the set arrives shuffled. Every beam runs with a lowered
        /// and a pre-raised flag. With `high` set every width is raised by
        /// one base, chosen so that an order whose junctions share `S` ends
        /// about `d − S` past `u64::MAX`: some orders fit and some
        /// overflow. Where the reference's row fits (its width is below
        /// `u64::MAX`) the results agree; otherwise the result is a
        /// permutation of the set at its order's own width.
        #[test]
        fn refine_row_matches_the_cloning_reference(
            shapes in proptest::collection::vec((20u64..24, 0u64..4, 0u64..4), 1..61),
            order in proptest::collection::vec(0u64..1000, 60..61),
            high in 0u32..2,
            slack in 0u64..1000,
        ) {
            use std::sync::atomic::AtomicBool;
            let n = shapes.len() as u64;
            let d = slack % (3 * (n - 1) + 1);
            let base = if high == 1 {
                (u64::MAX - shapes.iter().map(|s| s.0).sum::<u64>() + d) / n
            } else {
                0
            };
            let specs: Vec<(u64, u64, u64)> =
                shapes.iter().map(|&(w, l, r)| (base + w, l, r)).collect();
            let inst = row_instance(&specs, u64::MAX);
            let mut set = ids(specs.len());
            set.sort_by_key(|id| (order[id.index()], *id));
            for beam in [1usize, 2, 6, 8, 20, 64] {
                for raised in [false, true] {
                    let flag = AtomicBool::new(raised);
                    let stop = StopFlag::new(&flag);
                    let got = refine_row_with_stop(&inst, &set, beam, stop);
                    let want = refine_row_reference(&inst, &set, beam, stop);
                    if want.1 < u64::MAX {
                        proptest::prop_assert_eq!(&got, &want, "beam {}, raised {}, {:?}", beam, raised, specs);
                        continue;
                    }
                    let mut members = got.0.clone();
                    members.sort_unstable();
                    proptest::prop_assert_eq!(members, ids(specs.len()));
                    let chars: Vec<&Character> = got.0.iter().map(|id| inst.char(id.index())).collect();
                    proptest::prop_assert_eq!(got.1, overlap::row_width_ordered(&chars));
                }
            }
        }

        /// The merge keeps exactly the states the reference prune keeps, in
        /// its order, and agrees on whether any is left. Frontiers are
        /// random width-sorted Pareto sets cut to the beam, with blanks in
        /// 0..=20 and narrow width ranges, so inserts tie on width within
        /// and across the two groups, and two states often insert to the
        /// same triple. Each blank of about a third of the states is the
        /// candidate's own, so inserts of the two groups tie on all three
        /// values. With `high` set the widths lie within twice the
        /// candidate's width of `u64::MAX`, where some inserts overflow
        /// and some do not.
        #[test]
        fn merged_insert_matches_the_reference_prune(
            candidate in (40u64..61, 0u64..21, 0u64..21),
            states in proptest::collection::vec((0u64..80, 0u64..21, 0u64..21, 0u64..9), 0..40),
            high in 0u32..2,
        ) {
            let (wk, blk, brk) = candidate;
            let c = Character::new(wk, 40, [blk, brk, 0, 0], 5).unwrap();
            let mut pareto: Vec<WidthState> = states
                .iter()
                .map(|&(offset, l, r, pick)| {
                    let width = if high == 1 { u64::MAX - offset * 2 * wk / 80 } else { offset };
                    let l = if pick % 3 == 0 { blk } else { l };
                    let r = if pick / 3 == 0 { brk } else { r };
                    (width, l, r)
                })
                .collect();
            prune_widths(&mut pareto, usize::MAX);
            let mut next = Vec::new();
            for beam in [1usize, 6, 8, 20] {
                let input = &pareto[..pareto.len().min(beam)];
                let expected = dp_insert_by_prune(input, &c, beam);
                let mut frontier = input.to_vec();
                let any = dp_insert(&mut frontier, &mut next, &c, beam);
                proptest::prop_assert_eq!(&frontier, &expected, "beam {}, frontier {:?}", beam, input);
                proptest::prop_assert_eq!(any, !expected.is_empty());
            }
        }

        /// The checkpointed walk decides every probe like the reference
        /// walk, while inserts land before, on and after checkpoints. Character 0 has the largest blank and sorts first;
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

        /// The completion table never exceeds the narrowest end-insertion
        /// completion of a block by any suffix of the row, whatever the
        /// block's end blanks, and equals it at the rounded-up query when
        /// the grid holds every member blank and no cell saturates; the
        /// row's floor likewise never exceeds its narrowest end-insertion
        /// order, and equals it on such a grid. Rows of
        /// 1–10 characters grow by random inserts. Queries take member
        /// blanks, blanks off the grid like a candidate's, and one above
        /// every member blank. With `wide` set blanks come from 0..64, so
        /// many rows hold more distinct blanks than the grid. With `high` 1
        /// every width and blank is multiplied by 2⁵⁷, and with `high` 2
        /// every width is raised to within 128 of `u64::MAX`, so cells
        /// saturate.
        #[test]
        fn completion_table_never_exceeds_the_enumerated_completions(
            shapes in proptest::collection::vec((1u64..64, 0u64..64, 0u64..64), 1..11),
            order in proptest::collection::vec(0u64..1000, 10..11),
            queries in proptest::collection::vec(0u64..70, 3..4),
            wide in 0u32..2,
            high in 0u32..3,
        ) {
            let span = if wide == 1 { 64 } else { 8 };
            let scale = if high == 1 { 1u64 << 57 } else { 1 };
            let specs: Vec<(u64, u64, u64)> = shapes
                .iter()
                .map(|&(w, a, b)| {
                    let (l, r) = (a % span, b % span);
                    let w = w.max(l + r);
                    let w = if high == 2 { u64::MAX - 128 + w } else { w * scale };
                    (w, l * scale, r * scale)
                })
                .collect();
            let inst = row_instance(&specs, u64::MAX);
            let mut inserts: Vec<usize> = (0..specs.len()).collect();
            inserts.sort_by_key(|&i| (order[i], i));
            let mut row = ProbedRow::default();
            let mut scratch = WidthScratch::default();
            for &i in &inserts {
                row.insert(&inst, CharId::from(i));
                let n = row.len();
                row.table.extend_to(&inst, &row.keys, n);
                let chars: Vec<&Character> = row.keys.iter().map(|k| inst.char(k.1.index())).collect();
                let mut blanks: Vec<u64> =
                    chars.iter().flat_map(|c| [c.blanks().left, c.blanks().right]).collect();
                blanks.sort_unstable();
                blanks.dedup();
                let top = *blanks.last().unwrap();
                let exact = blanks.len() <= GRID_MAX && high == 0;
                let up = |b: u64| *blanks.iter().find(|&&v| v >= b).unwrap_or(&top);
                let mut probes: Vec<u64> = blanks.iter().step_by(3).copied().collect();
                probes.extend(queries.iter().map(|&q| q * scale));
                probes.push(top + 1);
                for m in 0..=n {
                    let suffix = &chars[n - m..];
                    for (&left, &right) in probes.iter().flat_map(|l| probes.iter().map(move |r| (l, r))) {
                        let stored = row.table.floor(m, left, right);
                        let narrowest = narrowest_completion(suffix, left, right);
                        proptest::prop_assert!(
                            stored <= narrowest,
                            "suffix {} of {:?}, ends ({}, {}): stored {} above {}", m, specs, left, right, stored, narrowest
                        );
                        if exact {
                            proptest::prop_assert_eq!(
                                stored, narrowest_completion(suffix, up(left), up(right)),
                                "suffix {} of {:?}, ends ({}, {})", m, specs, left, right
                            );
                        }
                    }
                }
                let (floor, narrowest) = (row.completion_floor(&inst, &mut scratch), narrowest_order(&chars));
                proptest::prop_assert!(floor <= narrowest, "{:?}: floor {} above {}", specs, floor, narrowest);
                proptest::prop_assert!(!exact || floor == narrowest, "{:?}: floor {} below {}", specs, floor, narrowest);
            }
        }

        /// An insert keeps exactly the table lengths it leaves intact, the
        /// suffixes of up to `n − pos` keys unless the grid moves, and every
        /// kept length equals a fresh build over the row's keys, as does the
        /// table extended again. Before each insert the table is built to a
        /// random length, so inserts land before, inside and past the
        /// lengths built. Blanks come from 0..6, so the grid settles after a
        /// few inserts and later inserts keep lengths, or from 0..40 with
        /// `wide` set, so rows pass `GRID_MAX` distinct blanks and new ones
        /// may or may not move the grid.
        #[test]
        fn an_insert_keeps_exactly_the_table_lengths_past_it(
            shapes in proptest::collection::vec((40u64..60, 0u64..40, 0u64..40), 12..40),
            order in proptest::collection::vec(0u64..1000, 40..41),
            lengths in proptest::collection::vec(0usize..1000, 40..41),
            wide in 0u32..2,
        ) {
            let span = if wide == 1 { 40 } else { 6 };
            let specs: Vec<(u64, u64, u64)> =
                shapes.iter().map(|&(w, a, b)| (w.max(a % span + b % span), a % span, b % span)).collect();
            let inst = row_instance(&specs, 100_000);
            let mut inserts: Vec<usize> = (0..specs.len()).collect();
            inserts.sort_by_key(|&i| (order[i], i));
            let mut row = ProbedRow::default();
            let mut kept_inside = 0;
            for (step, &i) in inserts.iter().enumerate() {
                let n = row.len();
                row.table.extend_to(&inst, &row.keys, lengths[step] % (n + 1));
                let (built, grid) = (row.table.bases.len(), row.table.grid.clone());
                let pos = row.position(&width_key(&inst, CharId::from(i)));
                row.insert(&inst, CharId::from(i));
                let kept = row.table.bases.len();
                if row.table.grid == grid {
                    proptest::prop_assert_eq!(kept, built.min(n - pos), "insert at {} of {}", pos, n);
                } else {
                    proptest::prop_assert_eq!(kept, 0);
                }
                kept_inside += usize::from(kept > 0 && pos < n);
                let mut fresh = CompletionTable::default();
                for len in [kept, n + 1] {
                    fresh.extend_to(&inst, &row.keys, len);
                    row.table.extend_to(&inst, &row.keys, len);
                    proptest::prop_assert_eq!(&row.table.grid, &fresh.grid);
                    proptest::prop_assert_eq!(&row.table.bases, &fresh.bases, "{} lengths", len);
                    proptest::prop_assert_eq!(&row.table.offsets, &fresh.offsets, "{} lengths", len);
                }
            }
            if wide == 0 {
                proptest::prop_assert!(kept_inside > 0, "no insert inside the row kept a length");
            }
        }

        /// At the resume checkpoint the candidate is still to come. No
        /// completion of a block with random end blanks by the member keys
        /// from the checkpoint on, with the candidate at its sorted
        /// position among them, adds less than the members' table value
        /// plus the candidate's `w − l − r`, for every checkpoint position
        /// up to the candidate. The enumeration covers every end-insertion completion.
        /// Members and candidate mix symmetric, asymmetric, one-sided and
        /// zero blanks.
        #[test]
        fn checkpoint_charge_never_exceeds_the_enumerated_completions(
            ends in (0u64..40, 0u64..40),
            shapes in proptest::collection::vec((1u64..50, 0u64..8, 0u64..30, 0u64..30), 1..10),
        ) {
            let specs: Vec<(u64, u64, u64)> = shapes
                .iter()
                .map(|&(w, kind, a, b)| match kind {
                    0..=2 => (w, a.min(w / 2), a.min(w / 2)),
                    3..=5 => (w, a.min(w / 2), b.min(w / 2)),
                    6 => (w, 0, 0),
                    _ if a % 2 == 0 => (w, w, 0),
                    _ => (w, 0, w),
                })
                .collect();
            let inst = row_instance(&specs, 100_000);
            let all = ids(specs.len());
            let (&candidate, members) = all.split_last().unwrap();
            let mut row = ProbedRow::default();
            for &id in members {
                row.insert(&inst, id);
            }
            let n = row.len();
            row.table.extend_to(&inst, &row.keys, n);
            let pos = row.position(&width_key(&inst, candidate));
            let c = inst.char(candidate.index());
            let chars: Vec<&Character> = row.keys.iter().map(|k| inst.char(k.1.index())).collect();
            let (left, right) = ends;
            for from in 0..=pos {
                let with: Vec<&Character> =
                    chars[from..pos].iter().copied().chain([c]).chain(chars[pos..].iter().copied()).collect();
                let narrowest = narrowest_completion(&with, left, right);
                let charged = row.table.floor(n - from, left, right) + u128::from(c.pattern_width());
                proptest::prop_assert!(
                    charged <= narrowest,
                    "checkpoint {} of {:?}, ends {:?}: charged {} above {}", from, specs, ends, charged, narrowest
                );
            }
        }

        /// Every probe's walk stops exactly where the completion bound,
        /// from the table's definition over the keys still to insert, first
        /// exceeds the cap: at the resume checkpoint, or after an insertion
        /// from the candidate on. Rows grow by random inserts with probes in
        /// between, so the table keeps some lengths across each commit and
        /// extends the rest, and most rows hold more distinct blanks than
        /// its grid. With `scale` set, every width and blank is multiplied
        /// by 2⁵⁶: rows of 7 to 9 keys then still fit a `u64::MAX` stencil
        /// while the table's sums saturate at `u64::MAX` and its offsets at
        /// 255.
        #[test]
        fn walks_stop_where_the_completion_bound_first_exceeds_the_cap(
            shapes in proptest::collection::vec((20u64..60, 0u64..4, 0u64..30, 0u64..30), 10..30),
            order in proptest::collection::vec(0u64..1000, 32..33),
            scale in 0u32..2,
        ) {
            let factor = 1u64 << (56 * scale);
            let mut specs = vec![(80, 40, 40)];
            specs.extend(shapes.iter().map(|&(w, kind, a, b)| match kind {
                0 => (w, a.min(w / 2), a.min(w / 2)),
                1 => (w, a.min(w / 2), b.min(w / 2)),
                2 => (w, w, 0),
                _ => (w, 0, w.min(b)),
            }));
            specs.push((30, 0, 0));
            let scaled: Vec<(u64, u64, u64)> = specs
                .iter()
                .map(|&(w, l, r)| (w * factor, l * factor, r * factor))
                .collect();
            let n = scaled.len();
            let inst = row_instance(&scaled, u64::MAX);
            let mut inserts: Vec<usize> = (1..n - 1).collect();
            inserts.sort_by_key(|&i| (order[i], i));
            let mut row = ProbedRow::default();
            let mut members: Vec<CharId> = Vec::new();
            let mut scratch = WidthScratch::default();
            for (step, &i) in inserts.iter().enumerate() {
                for p in [0, n - 1, inserts[(step * 5 + 1) % inserts.len()]] {
                    let id = CharId::from(p);
                    if members.contains(&id) {
                        continue;
                    }
                    let set: Vec<CharId> = members.iter().copied().chain([id]).collect();
                    for beam in [1usize, 8] {
                        let (_, truth) = refine_row_reference(&inst, &set, beam, StopFlag::NEVER);
                        for cap in [truth.saturating_sub(1), truth, truth.saturating_add(1)] {
                            let fits = row.admits_width(&inst, width_key(&inst, id), beam, cap, &mut scratch);
                            // The reference saturates: `u64::MAX` reads as overflow.
                            proptest::prop_assert_eq!(fits, truth < u64::MAX && truth <= cap);
                            proptest::prop_assert_eq!(
                                (fits, scratch.keys_walked()),
                                walk_by_definition(&inst, &members, id, beam, cap),
                                "members {:?}, candidate {}, beam {}, cap {}", members, p, beam, cap
                            );
                        }
                    }
                }
                row.insert(&inst, CharId::from(i));
                members.push(CharId::from(i));
            }
        }

        /// A floor refusal is a refusal at every beam: whenever `admits`
        /// answers [`Admission::Floor`], [`refine_row`] over the members
        /// plus the candidate is wider than the cap at beams 1, 8 and 20,
        /// and every probe decides like the chain and the beam-8 DP. The
        /// first half of the characters joins the row in a random order,
        /// and after every insert each of the rest probes it twice at beam
        /// 8, so the second stream meets the floor the first one's
        /// refusals computed. The cap is 50–99 % of the full row's floor,
        /// so the row passes it as it grows and every probe of the full
        /// row after the first is a floor refusal. Members and candidates
        /// mix symmetric, asymmetric, one-sided and zero blanks. With
        /// `high` set every width, blank and the cap are multiplied by
        /// 2⁵⁴, so the fullest rows pass `u64::MAX`.
        #[test]
        fn floor_refusals_are_refusals_at_every_beam(
            shapes in proptest::collection::vec((20u64..60, 0u64..4, 0u64..30, 0u64..30), 12..30),
            order in proptest::collection::vec(0u64..1000, 30..31),
            percent in 50u64..100,
            high in 0u32..2,
        ) {
            let factor = if high == 1 { 1u64 << 54 } else { 1 };
            let specs: Vec<(u64, u64, u64)> = shapes
                .iter()
                .map(|&(w, kind, a, b)| match kind {
                    0 => (w, a.min(w / 2), a.min(w / 2)),
                    1 => (w, a.min(w / 2), b.min(w / 2)),
                    2 => (w, w, 0),
                    _ => (w, 0, w.min(b)),
                })
                .map(|(w, l, r)| (w * factor, l * factor, r * factor))
                .collect();
            let inst = row_instance(&specs, u64::MAX);
            let half = specs.len() / 2;
            let mut members: Vec<CharId> = (0..half).map(CharId::from).collect();
            members.sort_by_key(|id| (order[id.index()], *id));
            let candidates: Vec<CharId> = (half..specs.len()).map(CharId::from).collect();
            let mut scratch = WidthScratch::default();
            let floor = row_of(&inst, &members).completion_floor(&inst, &mut scratch);
            let cap = u64::try_from(floor * u128::from(percent) / 100).map_or(u64::MAX - 1, |cap| cap.min(u64::MAX - 1));
            let mut row = ProbedRow::default();
            let mut floored = 0usize;
            for (step, &member) in members.iter().enumerate() {
                row.insert(&inst, member);
                let inserted = &members[..=step];
                for &id in candidates.iter().chain(&candidates) {
                    let set: Vec<CharId> = inserted.iter().copied().chain([id]).collect();
                    let widths = [1, 8, 20].map(|beam| refine_row(&inst, &set, beam).1);
                    let admission = row.admits(&inst, id, 8, cap, &mut scratch);
                    let context = format!("members {inserted:?}, candidate {id:?}, cap {cap}, widths {widths:?}");
                    proptest::prop_assert_eq!(admission.fits(), widths[0] <= cap || widths[1] <= cap, "{}", context);
                    if admission == Admission::Floor {
                        floored += 1;
                        proptest::prop_assert!(widths.iter().all(|&w| w > cap), "{}", context);
                        proptest::prop_assert_eq!((scratch.keys_walked(), scratch.table_steps()), (0, 0));
                    }
                }
            }
            proptest::prop_assert!(floored > 0, "no floor refusal");
        }

        /// A row warmed by many probes, its refusals among them, decides
        /// like a clone of it, like the row rebuilt from its members, like
        /// the reference walks and like [`refine_row`]. Rows grow by
        /// random inserts; between
        /// inserts, streams of candidates probe the row, each of 1–3
        /// `(l, r)` shapes at 3–5 widths, two candidates per width, every
        /// stream twice, the second time reversed. Ids are shuffled across
        /// members and candidates, and members draw their blanks from the
        /// candidates' range, so candidates of one shape sort between
        /// members of equal symmetric blank at several positions. The row is
        /// probed at beams 1, 6 and 8 in turn, each under seven caps in
        /// turn: a candidate's chain and beam-8 widths and each ±1, and its
        /// chain width − 24, so its
        /// checkpoints, completion table and floor serve probes under every
        /// beam and cap. With `high` set the members' and the candidates'
        /// widths are raised by two bases, chosen so that the fullest rows
        /// probed centre on `u64::MAX`: there some candidates fit and some
        /// overflow. Every answer must be that of a clone made at the start
        /// of its turn, which starts without the row's checkpoints and
        /// table but with its floor, of the row rebuilt from its members,
        /// which starts without all three, and of the reference walks at
        /// beam 1 and the turn's beam, and `fits == (chain <= cap || truth
        /// <= cap)` wherever `refine_row`'s saturated widths decide it.
        /// Admissions, refusals and floor refusals must all occur.
        #[test]
        fn warm_rows_decide_like_fresh_clones_and_refine_row(
            members in proptest::collection::vec((20u64..48, 0u64..11, 0u64..11), 6..22),
            shapes in proptest::collection::vec((0u64..11, 0u64..11), 1..4),
            widths in proptest::collection::vec(20u64..48, 3..6),
            order in proptest::collection::vec(0u64..1000, 64..65),
            high in 0u32..2,
            slack in 0u64..16,
        ) {
            let mut specs = members.clone();
            for &(l, r) in &shapes {
                for &w in &widths {
                    specs.extend([(w, l, r), (w, l, r)]);
                }
            }
            let n = members.len();
            // Spec `k` gets id `ids[k]`: members and candidates interleave.
            let mut ids: Vec<usize> = (0..specs.len()).collect();
            ids.sort_by_key(|&k| (order[k], k));
            // Members are `base.0` wider and candidates `base.1`.
            let instance = |base: (u64, u64)| {
                let mut placed = vec![(0, 0, 0); specs.len()];
                for (k, &(w, l, r)) in specs.iter().enumerate() {
                    let raise = if k < n { base.0 } else { base.1 };
                    placed[ids[k]] = (raise + w, l, r);
                }
                row_instance(&placed, u64::MAX)
            };
            let candidates: Vec<CharId> = ids[n..].iter().map(|&i| CharId::from(i)).collect();
            let mut inst = instance((0, 0));
            if high == 1 {
                // The fullest rows probed hold every member but the last
                // and one candidate, so the bases make each of them
                // `(n − 1)·base.0 + base.1` wider: centre them on `u64::MAX`.
                let rest: Vec<CharId> = ids[..n - 1].iter().map(|&i| CharId::from(i)).collect();
                let fullest: Vec<u64> = candidates
                    .iter()
                    .map(|&c| refine_row(&inst, &[&rest[..], &[c]].concat(), 8).1)
                    .collect();
                let mid = (fullest.iter().min().unwrap() + fullest.iter().max().unwrap()) / 2;
                let member = u64::MAX / (2 * n as u64);
                inst = instance((member, u64::MAX - (n as u64 - 1) * member - mid - 8 + slack));
            }
            // `refine_row`'s widths of the members plus `c` at beams 1, 6, 8.
            let dp_widths = |members: &[CharId], c: CharId| {
                let set: Vec<CharId> = members.iter().copied().chain([c]).collect();
                [1, 6, 8].map(|beam| refine_row(&inst, &set, beam).1)
            };
            // Candidate indices: every candidate, then again in reverse.
            let stream: Vec<usize> = (0..candidates.len()).chain((0..candidates.len()).rev()).collect();
            // The `(k, beam, cap)` turns over the candidates' widths: beams
            // in turn, and the caps in turn within each, snaking back and
            // forth, so consecutive streams differ in the beam alone or in
            // the cap alone. The last cap is 24 below the chain width,
            // where most refusals after the first are the floor's.
            let turns_of = |widths: &[[u64; 3]]| -> Vec<(usize, usize, u64)> {
                let caps: Vec<u64> = [widths[0][0], widths[0][2]]
                    .into_iter()
                    .flat_map(|t| [t.saturating_sub(1), t, t.saturating_add(1)])
                    .chain([widths[0][0].saturating_sub(24)])
                    .collect();
                let turns = [1usize, 6, 8].into_iter().enumerate().flat_map(|(k, beam)| {
                    let caps: Vec<u64> = if k % 2 == 0 { caps.clone() } else { caps.iter().rev().copied().collect() };
                    caps.into_iter().map(move |cap| (k, beam, cap))
                });
                turns.collect()
            };
            let mut row = ProbedRow::default();
            let mut scratch = WidthScratch::default();
            let mut inserted: Vec<CharId> = Vec::new();
            let (mut admitted, mut refused, mut floored) = (0usize, 0usize, 0usize);
            for &member in &ids[..n] {
                let widths: Vec<[u64; 3]> = candidates.iter().map(|&c| dp_widths(&inserted, c)).collect();
                for (k, beam, cap) in turns_of(&widths) {
                    // The clone starts without the row's checkpoints and
                    // table but keeps its floor; the rebuilt row starts
                    // with none of the three.
                    let (mut clone, mut fresh) = (row.clone(), row_of(&inst, &inserted));
                    for &c in &stream {
                        let (id, chain, truth) = (candidates[c], widths[c][0], widths[c][k]);
                        let admission = row.admits(&inst, id, beam, cap, &mut scratch);
                        let fits = admission.fits();
                        let clone_fits = clone.admits(&inst, id, beam, cap, &mut scratch).fits();
                        let fresh_fits = fresh.admits(&inst, id, beam, cap, &mut scratch).fits();
                        let key = width_key(&inst, id);
                        let reference = fresh.admits_width_reference(&inst, key, 1, cap, &mut scratch)
                            || fresh.admits_width_reference(&inst, key, beam, cap, &mut scratch);
                        // At a cap of `u64::MAX` a saturated width does not
                        // tell a row that wide from one that overflows.
                        let decided = cap < u64::MAX || chain.max(truth) < u64::MAX;
                        proptest::prop_assert!(
                            fits == clone_fits && fits == fresh_fits && fits == reference
                                && (!decided || fits == (chain <= cap || truth <= cap)),
                            "members {:?}, candidate {:?}, beam {}, cap {}: warm {}, clone {}, fresh {}, reference {}, chain {}, truth {}",
                            inserted, id, beam, cap, fits, clone_fits, fresh_fits, reference, chain, truth
                        );
                        admitted += usize::from(fits);
                        refused += usize::from(!fits);
                        floored += usize::from(admission == Admission::Floor);
                    }
                }
                row.insert(&inst, CharId::from(member));
                inserted.push(CharId::from(member));
            }
            proptest::prop_assert!(
                admitted > 0 && refused > 0 && floored > 0,
                "{} admitted, {} refused, {} by the floor", admitted, refused, floored
            );
        }
    }

    #[test]
    fn completion_table_matches_its_definition_past_u64() {
        // Widths near 2⁶¹ with mixed blanks: the sums over 8 or more keys
        // pass u64::MAX, so the bases saturate, and blanks 2⁵⁶ apart pass
        // the offsets' 255.
        let specs: Vec<(u64, u64, u64)> = (0..21u64)
            .map(|i| {
                (
                    (1 << 61) + i,
                    (1 << 59) + ((i * 5 % 7) << 56),
                    (i * 3 % 5) << 57,
                )
            })
            .collect();
        let inst = row_instance(&specs, u64::MAX);
        let candidate = inst.char(20);
        let ends = [
            0,
            1,
            candidate.blanks().left,
            candidate.blanks().right,
            u64::MAX,
        ];
        let mut row = ProbedRow::default();
        let mut saturated = 0;
        for i in (0..20).map(|i| i * 7 % 20) {
            row.insert(&inst, CharId::from(i));
            let n = row.len();
            row.table.extend_to(&inst, &row.keys, n);
            assert_eq!(row.table.bases.len(), n);
            let chars: Vec<&Character> = row.keys.iter().map(|k| inst.char(k.1.index())).collect();
            let grid = grid_by_definition(&chars);
            assert_eq!(row.table.grid, grid);
            let floors = floors_by_definition(&chars, &grid);
            let queries = grid
                .iter()
                .chain(&ends)
                .flat_map(|&l| grid.iter().chain(&ends).map(move |&r| (l, r)));
            for (left, right) in queries {
                for m in 0..=n {
                    let stored = row.table.floor(m, left, right);
                    let context = format!("{n} keys, suffix {m}, ends ({left}, {right})");
                    assert_eq!(
                        stored,
                        floor_by_definition(&floors, &grid, m, (left, right)),
                        "{context}"
                    );
                    if m <= 10 {
                        let narrowest = narrowest_completion(&chars[n - m..], left, right);
                        assert!(stored <= narrowest, "{context}: {stored} above {narrowest}");
                    }
                }
            }
            saturated += row.table.bases.iter().filter(|&&b| b == u64::MAX).count();
        }
        assert!(saturated > 0, "no length saturated");
    }

    #[test]
    fn two_sided_completions_decide_probes() {
        // The early keys have large left and right blanks, the later ones a
        // blank on one side only, so the narrowest rows put the early keys
        // inside and share both of their end blanks. Probed at the DP width,
        // each walk must keep the states whose completions go two-sided.
        let specs = [
            (100, 45, 45),
            (90, 40, 38),
            (80, 36, 36),
            (30, 0, 24),
            (30, 24, 0),
            (28, 0, 20),
            (28, 21, 0),
            (26, 0, 16),
            (26, 17, 0),
            (24, 12, 1),
            (24, 1, 12),
            (22, 9, 0),
            (22, 0, 9),
            (20, 4, 4),
        ];
        let inst = row_instance(&specs, 100_000);
        let mut scratch = WidthScratch::default();
        let mut inside = 0;
        for n in 2..=specs.len() {
            let (members, candidate) = (ids(n - 1), CharId::from(n - 1));
            let mut row = ProbedRow::default();
            for &id in &members {
                row.insert(&inst, id);
            }
            assert_probes_match(&inst, &mut row, &members, candidate, &mut scratch);
            let (order, width) = refine_row(&inst, &ids(n), 8);
            let first = order.iter().position(|&id| id == CharId::from(0)).unwrap();
            if first > 0 && first + 1 < n {
                inside += 1;
                let fits =
                    row.admits_width(&inst, width_key(&inst, candidate), 8, width, &mut scratch);
                assert!(fits, "{n} keys: the DP width {width} must fit");
            }
        }
        assert!(inside >= 8, "only {inside} rows put the first key inside");
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
