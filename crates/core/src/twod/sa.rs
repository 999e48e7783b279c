//! Simulated-annealing packing states for 2DOSP (paper §4.2).
//!
//! Two interchangeable engines drive the same objective (system writing
//! time under the fixed-outline rule "outside ⇒ unselected"):
//!
//! * [`SeqPairState`] — the faithful engine: a sequence pair over all pack
//!   nodes, `O(n²)` overlap-aware longest-path evaluation per move
//!   (Parquet-style, as in \[24\]), one pass over `Γ⁻` that places both
//!   axes into buffers the state keeps, so a move allocates nothing.
//! * [`OrderState`] — the scalable engine: SA over the shelf-packing
//!   insertion order, for the 4000-candidate cases. A swap re-packs only
//!   from the shelf holding the earlier swapped position, at a few
//!   operations per node, and only until its shelves realign with the
//!   packing before the swap: a shelf opened at the same position with the
//!   same cursor repeats the old run up to the next swapped position, so
//!   the re-pack resumes from the last old shelf before the later swapped
//!   position, or adopts the old tail past it. It keeps the nodes' shelf
//!   geometry by order position, and a running per-region sum of the
//!   placed nodes' reductions that a move updates by the rows it carries
//!   across the break.
//!
//! In both, `undo` puts back the energy the last `apply` replaced instead
//! of evaluating the restored state again, and the energy reads each
//! node's per-region reduction, summed over its members once up front.
//! Both expose the final node positions for placement extraction.

use super::cluster::PackNode;
use super::skyline::{shelf_pack, Flow, ShelfCursor, ShelfSink, Slot};
use eblow_anneal::Anneal;
use eblow_model::Instance;
use eblow_seqpair::{ItemGeometry, Packing, SequencePair};
use rand::rngs::StdRng;
use rand::RngExt;
use std::cell::Cell;

/// Geometry adapter from pack nodes to the sequence-pair packer.
#[derive(Debug, Clone)]
pub struct NodeGeometry {
    widths: Vec<i64>,
    heights: Vec<i64>,
    left: Vec<i64>,
    right: Vec<i64>,
    bottom: Vec<i64>,
    top: Vec<i64>,
}

impl NodeGeometry {
    /// Builds the adapter.
    pub fn new(nodes: &[PackNode]) -> Self {
        NodeGeometry {
            widths: nodes.iter().map(|n| n.width as i64).collect(),
            heights: nodes.iter().map(|n| n.height as i64).collect(),
            left: nodes.iter().map(|n| n.blanks.left as i64).collect(),
            right: nodes.iter().map(|n| n.blanks.right as i64).collect(),
            bottom: nodes.iter().map(|n| n.blanks.bottom as i64).collect(),
            top: nodes.iter().map(|n| n.blanks.top as i64).collect(),
        }
    }
}

impl ItemGeometry for NodeGeometry {
    fn len(&self) -> usize {
        self.widths.len()
    }
    fn width(&self, i: usize) -> i64 {
        self.widths[i]
    }
    fn height(&self, i: usize) -> i64 {
        self.heights[i]
    }
    fn h_overlap(&self, l: usize, r: usize) -> i64 {
        self.right[l].min(self.left[r])
    }
    fn v_overlap(&self, b: usize, t: usize) -> i64 {
        self.top[b].min(self.bottom[t])
    }
}

/// Shared writing-time evaluation: which nodes are inside the outline, and
/// the resulting `T_total`.
pub(crate) struct Objective<'a> {
    pub instance: &'a Instance,
    pub nodes: &'a [PackNode],
    pub stencil_w: i64,
    pub stencil_h: i64,
    /// Penalty weight on bounding-box overflow, scaled by the VSB time.
    pub overflow_weight: f64,
    /// Optimize the *sum* of region times instead of the maximum — the
    /// single-CP objective of \[24\], kept for the baseline (the paper notes
    /// \[24\]'s MCC port optimizes total writing time).
    pub sum_objective: bool,
    /// Region times with nothing on the stencil (`T_VSB` per region).
    vsb: Vec<i64>,
    /// Each node's reduction `Σ R_ic` over its members, per region: one
    /// row of `vsb.len()` entries per node. A node wider or taller than the
    /// outline is never inside, and its row is zero.
    reductions: Vec<i64>,
    /// Scale of the overflow term: the largest VSB region time.
    scale: f64,
    /// Nodes stepped by the re-packs of every [`OrderState`] on this
    /// objective. It lives here because the annealer clones states.
    pub shelf_steps: Cell<u64>,
}

impl<'a> Objective<'a> {
    pub fn new(instance: &'a Instance, nodes: &'a [PackNode]) -> Self {
        let vsb: Vec<i64> = instance.vsb_times().iter().map(|&t| t as i64).collect();
        let p = vsb.len();
        let (w, h) = (instance.stencil().width(), instance.stencil().height());
        let mut reductions = vec![0i64; nodes.len() * p];
        for (row, node) in reductions.chunks_exact_mut(p.max(1)).zip(nodes) {
            if node.width > w || node.height > h {
                continue;
            }
            for &(id, _, _) in &node.members {
                for e in instance.sparse_row(id.index()) {
                    row[e.region as usize] += e.reduction as i64;
                }
            }
        }
        Objective {
            instance,
            nodes,
            stencil_w: instance.stencil().width() as i64,
            stencil_h: instance.stencil().height() as i64,
            overflow_weight: 0.05,
            sum_objective: false,
            vsb,
            reductions,
            scale: *instance.vsb_times().iter().max().unwrap_or(&1) as f64,
            shelf_steps: Cell::new(0),
        }
    }

    /// Node `k`'s writing-time reduction per region when it is inside;
    /// zeros when it does not fit the outline.
    fn reduction(&self, k: usize) -> &[i64] {
        let p = self.vsb.len();
        &self.reductions[k * p..(k + 1) * p]
    }

    /// The shelf rule's cursor on this outline, before any node.
    fn cursor(&self) -> ShelfCursor {
        ShelfCursor::new(self.stencil_w as u64, self.stencil_h as u64)
    }

    /// Energy of a set of node positions: T_total of the in-outline nodes
    /// plus a gentle overflow pressure term (guides SA toward arrangements
    /// that pull more nodes inside). The reference the engines' energies
    /// are checked against, bit for bit.
    #[cfg(test)]
    // audit:allow(stop-flag-reachability): test-only reference energy; method calls resolve by name, so every `energy()` call reaches it
    pub fn energy(&self, positions: &[Option<(i64, i64)>]) -> f64 {
        let mut times = self.vsb.clone();
        let mut overflow = 0.0f64;
        for (k, pos) in positions.iter().enumerate() {
            let Some((x, y)) = *pos else { continue };
            let node = &self.nodes[k];
            let inside = x >= 0
                && y >= 0
                && x + (node.width as i64) <= self.stencil_w
                && y + (node.height as i64) <= self.stencil_h;
            if inside {
                for (t, r) in times.iter_mut().zip(self.reduction(k)) {
                    *t -= r;
                }
            } else {
                let over_x = ((x + node.width as i64 - self.stencil_w).max(0) as f64)
                    / self.stencil_w as f64;
                let over_y = ((y + node.height as i64 - self.stencil_h).max(0) as f64)
                    / self.stencil_h as f64;
                overflow += over_x + over_y;
            }
        }
        self.energy_of(&times, overflow)
    }

    /// Energy from the region times of the in-outline nodes and the summed
    /// overflow of the others.
    fn energy_of(&self, times: &[i64], overflow: f64) -> f64 {
        let t_total = if self.sum_objective {
            times.iter().sum::<i64>().max(0) as f64 / self.instance.num_regions().max(1) as f64
        } else {
            times.iter().copied().max().unwrap_or(0).max(0) as f64
        };
        t_total + self.overflow_weight * self.scale * overflow / (self.nodes.len().max(1) as f64)
    }
}

/// Sequence-pair SA state (the faithful Parquet-style engine).
///
/// A move swaps two entries of the pair, packs it with
/// [`SequencePair::pack_into`] (one longest-path pass over `Γ⁻` into the
/// coordinate buffers the state keeps), and reads the energy off those
/// coordinates in node order into a region-time scratch: no allocation per
/// move. The overflow term is summed in node order, as
/// `Objective::energy` sums it, so the energy is bit-identical to it.
/// `undo` swaps back and restores the energy the move replaced, without
/// packing.
#[derive(Clone)]
pub struct SeqPairState<'a> {
    objective: &'a Objective<'a>,
    geometry: &'a NodeGeometry,
    sp: SequencePair,
    /// The packing of the last pair evaluated (not restored by `undo`).
    packing: Packing,
    /// Scratch region times.
    times: Vec<i64>,
    cached_energy: f64,
    /// Energy before the most recent `apply`, for `undo`.
    undo_energy: f64,
}

impl<'a> SeqPairState<'a> {
    /// Creates the state from an initial sequence pair.
    pub(crate) fn new(
        objective: &'a Objective<'a>,
        geometry: &'a NodeGeometry,
        sp: SequencePair,
    ) -> Self {
        let mut s = SeqPairState {
            objective,
            geometry,
            sp,
            packing: Packing::default(),
            times: objective.vsb.clone(),
            cached_energy: 0.0,
            undo_energy: 0.0,
        };
        s.cached_energy = s.evaluate();
        s
    }

    /// Packs the current pair into the state's buffers and returns its
    /// energy: the region times of the nodes inside the outline, plus the
    /// overflow of the others summed in node order.
    fn evaluate(&mut self) -> f64 {
        let (objective, geometry) = (self.objective, self.geometry);
        self.sp.pack_into(geometry, &mut self.packing);
        self.times.copy_from_slice(&objective.vsb);
        let (w, h) = (objective.stencil_w, objective.stencil_h);
        let mut overflow = 0.0f64;
        let Packing { xs, ys, .. } = &self.packing;
        for (k, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            let (nw, nh) = (geometry.width(k), geometry.height(k));
            if x >= 0 && y >= 0 && x + nw <= w && y + nh <= h {
                for (t, r) in self.times.iter_mut().zip(objective.reduction(k)) {
                    *t -= r;
                }
            } else {
                let over_x = ((x + nw - w).max(0) as f64) / w as f64;
                let over_y = ((y + nh - h).max(0) as f64) / h as f64;
                overflow += over_x + over_y;
            }
        }
        objective.energy_of(&self.times, overflow)
    }

    /// Final positions (all nodes; caller filters by outline).
    pub fn positions(&self) -> Vec<Option<(i64, i64)>> {
        let pack = self.sp.pack(self.geometry);
        pack.xs
            .iter()
            .zip(&pack.ys)
            .map(|(&x, &y)| Some((x, y)))
            .collect()
    }

    fn swap(&mut self, mv: &SpMove) {
        match *mv {
            SpMove::Pos(i, j) => self.sp.swap_pos(i, j),
            SpMove::Neg(i, j) => self.sp.swap_neg(i, j),
            SpMove::Both(a, b) => self.sp.swap_blocks(a, b),
        }
    }
}

/// Moves of the sequence-pair engine.
#[derive(Debug, Clone, Copy)]
pub enum SpMove {
    /// Swap two positions in Γ⁺.
    Pos(usize, usize),
    /// Swap two positions in Γ⁻.
    Neg(usize, usize),
    /// Swap a block pair in both sequences.
    Both(usize, usize),
}

impl Anneal for SeqPairState<'_> {
    type Move = SpMove;

    fn energy(&self) -> f64 {
        self.cached_energy
    }

    fn propose(&mut self, rng: &mut StdRng) -> Option<SpMove> {
        let n = self.sp.len();
        if n < 2 {
            return None;
        }
        let i = rng.random_range(0..n);
        let mut j = rng.random_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        Some(match rng.random_range(0..3u8) {
            0 => SpMove::Pos(i, j),
            1 => SpMove::Neg(i, j),
            _ => SpMove::Both(i, j),
        })
    }

    fn apply(&mut self, mv: &SpMove) {
        self.swap(mv);
        self.undo_energy = self.cached_energy;
        self.cached_energy = self.evaluate();
    }

    fn undo(&mut self, mv: &SpMove) {
        self.swap(mv);
        self.cached_energy = self.undo_energy;
    }
}

/// Insertion-order SA state (the scalable shelf engine).
///
/// The shelf rule places exactly the nodes that fit the outline and come
/// before the first shelf that does not fit vertically (`lost`), plus at
/// most the node after that shelf, when it still fits alone (`lone`). So
/// the state keeps:
///
/// * a checkpoint per shelf: the shelf cursor right after the node that
///   opened it. A swap `(lo, hi)` leaves every shelf opened strictly
///   before `lo` as it was, and packing resumes from the last of them. A
///   shelf opened *at* `lo` cannot be reused: the node there is the one
///   that closed the shelf before it.
/// * the nodes' slots (their shelf geometry) by order position, permuted
///   with the order, so that a re-pack reads one contiguous record per
///   node.
/// * the current packing's `lost` and `lone` positions.
/// * `inside`: the nodes' reductions summed over the positions before
///   `lost` (over all positions when nothing is lost), so the region times
///   of a packing are `vsb − inside − lone`. A swap across `lost` adds one
///   row difference; a re-pack adds or subtracts the rows between the old
///   and the new `lost`.
///
/// **Resync.** The old checkpoints are in the move's journal. A cursor
/// taken right after a shelf opens is the whole state of the shelf rule,
/// so when the new run opens a shelf at position `p` with a cursor equal
/// to the old checkpoint at `p`, it repeats the old run up to the next
/// swapped position. Between the two swapped positions the re-pack jumps
/// to the last old checkpoint before `hi`; past `hi`, or when `hi` lies
/// past the last position the old run examined, it adopts the old
/// checkpoints, `lost` and `lone` and stops.
/// Only a checkpoint that is not full is matched or jumped onto: a full
/// one follows a lost shelf that the new run has not recorded.
///
/// `undo` swaps back and restores the energy, the checkpoints (by taking
/// the journal's buffer back), `lost`, `lone` and `inside` the move
/// replaced, without packing at all.
///
/// Region times are integer sums, and every node the shelf rule places
/// lies inside the outline (for any outline that fits `i64` coordinates),
/// so the energy is bit-identical to `Objective::energy` of the full
/// [`shelf_pack`].
#[derive(Clone)]
pub struct OrderState<'a> {
    objective: &'a Objective<'a>,
    order: Vec<usize>,
    /// The shelf rule's view of each node, by order position.
    slots: Vec<Slot>,
    cached_energy: f64,
    /// Reductions summed over the positions before `lost`, per region.
    inside: Vec<i64>,
    /// Shelf cursor right after each shelf's opening node, bottom to top.
    marks: Vec<ShelfCursor>,
    /// First position of the first shelf that did not fit vertically.
    lost: Option<usize>,
    /// Position of the node that still landed alone after it.
    lone: Option<usize>,
    /// Scratch region times.
    times: Vec<i64>,
    /// What the most recent `apply` replaced, for `undo`.
    journal: Journal,
}

/// The undo record of one [`OrderState`] move, and the packing before it
/// that the move's re-pack realigns with.
#[derive(Clone, Default)]
struct Journal {
    energy: f64,
    /// Marks the move kept.
    keep: usize,
    /// The marks before the move. The move and its `undo` swap this buffer
    /// with the state's, so the two always agree on the first `keep`.
    marks: Vec<ShelfCursor>,
    lost: Option<usize>,
    lone: Option<usize>,
    inside: Vec<i64>,
    /// The later swapped position.
    hi: usize,
    /// Whether the move's re-pack resumed from the last old mark before
    /// `hi`, and why it adopted the old tail, if it did.
    resumed: bool,
    tail: Option<Tail>,
}

/// Why a move's re-pack adopted the old packing's tail.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tail {
    /// It opened a shelf after `hi` with the old cursor.
    AfterHi,
    /// `hi` lies past the last position the old run examined.
    PastEnd,
}

/// What one packing run places, read off the shelf closes; it also
/// records a mark per opened shelf, and realigns the run with the old
/// packing in the journal.
struct Track<'t> {
    marks: &'t mut Vec<ShelfCursor>,
    /// Order position of the open shelf's first node.
    open: usize,
    /// First position of the first shelf that did not fit vertically.
    lost: Option<usize>,
    /// Position of the node that still landed alone after it.
    lone: Option<usize>,
    /// The packing before the move.
    old: &'t Journal,
    /// Index of the first old mark not before the open shelf.
    next: usize,
    /// For the journal: whether the run jumped, and why it ended early.
    resumed: bool,
    tail: Option<Tail>,
}

impl Track<'_> {
    /// After the new run opened a shelf with `cursor`. Where the old run
    /// opened one at the same position with an equal cursor that is not
    /// full, the old shelves stand until the next swapped position (see
    /// [`OrderState`]): past `hi` the rest of the run is the old one;
    /// before `hi` the run jumps to the last old mark before `hi`, unless
    /// that mark is full, when the old run ended before `hi`.
    fn realign(&mut self, cursor: &ShelfCursor) -> Flow {
        let (old, p) = (&self.old.marks, cursor.start());
        while old.get(self.next).is_some_and(|m| m.start() < p) {
            self.next += 1;
        }
        if cursor.is_full() || old.get(self.next) != Some(cursor) {
            return Flow::Next;
        }
        if p > self.old.hi {
            return self.adopt(Tail::AfterHi);
        }
        // The last old mark before `hi`, at or after this one.
        let to = old.partition_point(|m| m.start() < self.old.hi) - 1;
        if old[to].is_full() {
            return self.adopt(Tail::PastEnd);
        }
        if to == self.next {
            return Flow::Next;
        }
        self.marks.extend_from_slice(&old[self.next + 1..=to]);
        self.next = to + 1;
        self.open = old[to].start();
        self.resumed = true;
        Flow::Resume(old[to])
    }

    /// Takes the old marks after the matched one, `lost` and `lone`, and
    /// ends the run.
    fn adopt(&mut self, why: Tail) -> Flow {
        self.marks
            .extend_from_slice(&self.old.marks[self.next + 1..]);
        (self.lost, self.lone) = (self.old.lost, self.old.lone);
        self.tail = Some(why);
        Flow::End
    }
}

impl ShelfSink for Track<'_> {
    fn joined(&mut self, _k: usize, _x: i64) {}

    fn closed(&mut self, base: Option<i64>) {
        match (base, self.lost) {
            (None, None) => self.lost = Some(self.open),
            (Some(_), Some(_)) => self.lone = Some(self.open),
            _ => {}
        }
    }

    // Inlined into the run, so a shelf opening does not go through a
    // call that copies the cursor once more before the push.
    #[inline]
    fn opened(&mut self, _k: usize, cursor: ShelfCursor) -> Flow {
        self.open = cursor.start();
        self.marks.push(cursor);
        self.realign(&cursor)
    }
}

impl<'a> OrderState<'a> {
    /// Creates the state from an initial insertion order.
    pub(crate) fn new(objective: &'a Objective<'a>, order: Vec<usize>) -> Self {
        let p = objective.vsb.len();
        let mut s = OrderState {
            objective,
            slots: Slot::of(objective.nodes, &order),
            order,
            cached_energy: 0.0,
            // Nothing lies before position 0, so the first re-pack adds
            // every node before its break.
            inside: vec![0; p],
            marks: Vec::new(),
            lost: Some(0),
            lone: None,
            times: vec![0; p],
            journal: Journal::default(),
        };
        s.cached_energy = s.repack(0);
        s
    }

    /// Re-packs from the last of the first `keep` marks (from the first
    /// node when `keep` is 0), realigning with the journal's packing, and
    /// returns the energy.
    fn repack(&mut self, keep: usize) -> f64 {
        let objective = self.objective;
        self.marks.truncate(keep);
        let (cursor, from, lost) = match self.marks.last() {
            // A full mark opened the shelf after the one that did not fit.
            Some(&mark) if mark.is_full() => {
                (mark, mark.start() + 1, Some(self.marks[keep - 2].start()))
            }
            Some(&mark) => (mark, mark.start() + 1, None),
            None => (objective.cursor(), 0, None),
        };
        let mut track = Track {
            marks: &mut self.marks,
            open: cursor.start(),
            lost,
            lone: None,
            old: &self.journal,
            next: keep,
            resumed: false,
            tail: None,
        };
        let steps = cursor.run(&self.slots, &self.order, from, &mut track);
        objective
            .shelf_steps
            .set(objective.shelf_steps.get() + steps as u64);
        let (lost, lone) = (track.lost, track.lone);
        (self.journal.resumed, self.journal.tail) = (track.resumed, track.tail);
        self.move_break(lost);
        self.lone = lone;
        for ((t, v), s) in self.times.iter_mut().zip(&objective.vsb).zip(&self.inside) {
            *t = v - s;
        }
        if let Some(pos) = lone {
            for (t, r) in self
                .times
                .iter_mut()
                .zip(objective.reduction(self.order[pos]))
            {
                *t -= r;
            }
        }
        objective.energy_of(&self.times, 0.0)
    }

    /// Sets `lost`, adding to `inside` the rows between the old and the
    /// new break, or subtracting them when the break moved back.
    fn move_break(&mut self, lost: Option<usize>) {
        let n = self.order.len();
        let (old, new) = (self.lost.unwrap_or(n), lost.unwrap_or(n));
        let (rows, sign) = if old < new {
            (old..new, 1)
        } else {
            (new..old, -1)
        };
        for &k in &self.order[rows] {
            for (s, r) in self.inside.iter_mut().zip(self.objective.reduction(k)) {
                *s += sign * r;
            }
        }
        self.lost = lost;
    }

    /// Swaps order positions `i` and `j`, in the order and in the slots.
    fn swap(&mut self, i: usize, j: usize) {
        self.order.swap(i, j);
        self.slots.swap(i, j);
    }

    /// Final positions after shelf packing.
    pub fn positions(&self) -> Vec<Option<(i64, i64)>> {
        shelf_pack(
            self.objective.nodes,
            &self.order,
            self.objective.stencil_w as u64,
            self.objective.stencil_h as u64,
        )
        .positions
    }
}

impl Anneal for OrderState<'_> {
    type Move = (usize, usize);

    fn energy(&self) -> f64 {
        self.cached_energy
    }

    fn propose(&mut self, rng: &mut StdRng) -> Option<(usize, usize)> {
        let n = self.order.len();
        if n < 2 {
            return None;
        }
        let i = rng.random_range(0..n);
        let mut j = rng.random_range(0..n - 1);
        if j >= i {
            j += 1;
        }
        Some((i, j))
    }

    fn apply(&mut self, &(i, j): &(usize, usize)) {
        let (lo, hi) = (i.min(j), i.max(j));
        let keep = self.marks.partition_point(|m| m.start() < lo);
        let journal = &mut self.journal;
        journal.energy = self.cached_energy;
        // The old marks go to the journal; the buffer that comes back
        // holds the first marks the last move kept, all of them current.
        std::mem::swap(&mut self.marks, &mut journal.marks);
        let shared = journal.keep.min(keep);
        self.marks.truncate(shared);
        self.marks.extend_from_slice(&journal.marks[shared..keep]);
        journal.keep = keep;
        (journal.lost, journal.lone) = (self.lost, self.lone);
        journal.inside.clone_from(&self.inside);
        journal.hi = hi;
        // A swap across the break trades the row at `lo` for the one at
        // `hi` in the sum before it.
        let end = self.lost.unwrap_or(self.order.len());
        if lo < end && end <= hi {
            let objective = self.objective;
            let (out, into) = (
                objective.reduction(self.order[lo]),
                objective.reduction(self.order[hi]),
            );
            for ((s, o), r) in self.inside.iter_mut().zip(out).zip(into) {
                *s += r - o;
            }
        }
        self.swap(i, j);
        self.cached_energy = self.repack(keep);
    }

    fn undo(&mut self, &(i, j): &(usize, usize)) {
        self.swap(i, j);
        std::mem::swap(&mut self.marks, &mut self.journal.marks);
        (self.lost, self.lone) = (self.journal.lost, self.journal.lone);
        self.inside.copy_from_slice(&self.journal.inside);
        self.cached_energy = self.journal.energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twod::ShelfPacking;
    use eblow_model::{CharId, Character, Selection, Stencil};
    use rand::SeedableRng;

    fn setup(n: usize) -> (Instance, Vec<PackNode>) {
        let chars: Vec<Character> = (0..n)
            .map(|i| Character::new(40, 40, [5, 5, 5, 5], 5 + i as u64).unwrap())
            .collect();
        let inst = Instance::new(Stencil::new(100, 100).unwrap(), chars, vec![vec![2]; n]).unwrap();
        let nodes: Vec<PackNode> = (0..n)
            .map(|i| PackNode::single(&inst, CharId::from(i), 1.0))
            .collect();
        (inst, nodes)
    }

    #[test]
    fn energy_counts_only_inside_nodes() {
        let (inst, nodes) = setup(2);
        let obj = Objective::new(&inst, &nodes);
        // Both inside (sharing blanks): T = Σ t(n−1) subtracted.
        let both = obj.energy(&[Some((0, 0)), Some((35, 0))]);
        // One outside the outline.
        let one = obj.energy(&[Some((0, 0)), Some((90, 0))]);
        assert!(both < one, "inside-packing must have lower energy");
        // Empty: pure VSB time.
        let none = obj.energy(&[None, None]);
        let t_vsb = *inst.vsb_times().iter().max().unwrap() as f64;
        assert!((none - t_vsb).abs() < 1e-9);
    }

    /// How often the sequence-pair check saw each branch of the energy.
    #[derive(Debug, Default)]
    struct SpCoverage {
        checks: usize,
        /// Nodes inside the outline, over all checks.
        inside: usize,
        /// Nodes past the outline (the overflow term), over all checks.
        overflow: usize,
        /// Nodes wider or taller than the outline, over all instances.
        oversized: usize,
    }

    /// The state's energy is `Objective::energy` of its packing, bit for
    /// bit; counts the nodes of each branch.
    fn check_seqpair_energy(st: &SeqPairState<'_>, cov: &mut SpCoverage) {
        let obj = st.objective;
        let positions = st.positions();
        assert_eq!(st.energy().to_bits(), obj.energy(&positions).to_bits());
        for (node, pos) in obj.nodes.iter().zip(&positions) {
            let (x, y) = pos.expect("a packing places every node");
            let inside =
                x + node.width as i64 <= obj.stencil_w && y + node.height as i64 <= obj.stencil_h;
            cov.inside += inside as usize;
            cov.overflow += !inside as usize;
        }
        cov.checks += 1;
    }

    /// After every `apply` and every `undo`, the sequence-pair state's
    /// energy is `Objective::energy` of its packing bit for bit, and an
    /// `undo` restores the pair: random sets of 2–60 nodes (a few merged)
    /// on 1 and on 10 regions, under both objectives, from random pairs, on
    /// outlines of 60–300 per side, small enough that packings overflow,
    /// with nodes wider or taller than the outline.
    #[test]
    fn seqpair_state_moves_are_reversible() {
        let mut cov = SpCoverage::default();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for regions in [1, 10] {
                let chars = rng.random_range(3..=64usize);
                let (w, h) = (rng.random_range(60..=300u64), rng.random_range(60..=300u64));
                let (inst, nodes) = random_instance(seed + 100, chars, regions, w, h);
                assert!((2..=60).contains(&nodes.len()));
                cov.oversized += nodes.iter().filter(|n| n.width > w || n.height > h).count();
                let geo = NodeGeometry::new(&nodes);
                for sum_objective in [false, true] {
                    let mut obj = Objective::new(&inst, &nodes);
                    obj.sum_objective = sum_objective;
                    let shuffled = |rng: &mut StdRng| {
                        let mut seq: Vec<usize> = (0..nodes.len()).collect();
                        for k in (1..seq.len()).rev() {
                            seq.swap(k, rng.random_range(0..=k));
                        }
                        seq
                    };
                    let sp = SequencePair::new(shuffled(&mut rng), shuffled(&mut rng));
                    let mut st = SeqPairState::new(&obj, &geo, sp);
                    check_seqpair_energy(&st, &mut cov);
                    for _ in 0..150 {
                        let mv = st.propose(&mut rng).unwrap();
                        let before = st.sp.clone();
                        st.apply(&mv);
                        check_seqpair_energy(&st, &mut cov);
                        if rng.random_bool(0.5) {
                            st.undo(&mv);
                            assert_eq!(st.sp, before);
                            check_seqpair_energy(&st, &mut cov);
                        }
                    }
                }
            }
        }
        assert!(
            cov.checks > 4_000 && cov.inside > 0 && cov.overflow > 0 && cov.oversized > 0,
            "a case went uncovered: {cov:?}"
        );
    }

    /// A random instance of `n` characters on `regions` regions: the last
    /// eight (fewer when `n < 8`) merged in pairs (multi-member
    /// reductions), and nodes wider or taller than the
    /// `stencil_w × stencil_h` outline, which never lie inside it. Widths
    /// and heights are 12–60 otherwise.
    fn random_instance(
        seed: u64,
        n: usize,
        regions: usize,
        stencil_w: u64,
        stencil_h: u64,
    ) -> (Instance, Vec<PackNode>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let chars: Vec<Character> = (0..n)
            .map(|i| {
                let (w, h) = match i % 16 {
                    3 => (stencil_w + 1 + rng.random_range(0..20u64), 30),
                    11 => (30, stencil_h + 1 + rng.random_range(0..20u64)),
                    _ => (rng.random_range(12..60u64), rng.random_range(12..60u64)),
                };
                let b = [
                    rng.random_range(0..=w / 4),
                    rng.random_range(0..=w / 4),
                    rng.random_range(0..=h / 4),
                    rng.random_range(0..=h / 4),
                ];
                Character::new(w, h, b, rng.random_range(2..9u64)).unwrap()
            })
            .collect();
        let repeats = (0..n)
            .map(|_| (0..regions).map(|_| rng.random_range(0..6u64)).collect())
            .collect();
        let stencil = Stencil::new(stencil_w, stencil_h).unwrap();
        let inst = Instance::new(stencil, chars, repeats).unwrap();
        let single = |i: usize| PackNode::single(&inst, CharId::from(i), 1.0);
        let merged = n.min(8) & !1;
        let mut nodes: Vec<PackNode> = (0..n - merged).map(single).collect();
        for i in (n - merged..n).step_by(2) {
            nodes.push(single(i).merge(&single(i + 1)));
        }
        (inst, nodes)
    }

    /// The full shelf packing of `order` on the objective's outline.
    fn full_pack(obj: &Objective<'_>, order: &[usize]) -> ShelfPacking {
        shelf_pack(obj.nodes, order, obj.stencil_w as u64, obj.stencil_h as u64)
    }

    /// `Some(lone)` when the vertical break fired: a node that fits the
    /// outline went unplaced. `lone`: a node after it was still placed, the
    /// one that opened the next shelf and landed alone in the final close.
    fn break_shape(obj: &Objective<'_>, order: &[usize]) -> Option<bool> {
        let placed = full_pack(obj, order).positions;
        let cursor = obj.cursor();
        let fits = |k: usize| cursor.fits(&Slot::from(&obj.nodes[k]));
        let lost = order.iter().position(|&k| fits(k) && placed[k].is_none())?;
        Some(order[lost..].iter().any(|&k| placed[k].is_some()))
    }

    /// How often the equivalence test reached each case it must cover.
    #[derive(Debug, Default)]
    struct Coverage {
        steps: usize,
        at_shelf_start: usize,
        past_break: usize,
        lone_closes: usize,
        /// Moves whose re-pack resumed from the last old mark before `hi`.
        resumed: usize,
        /// Moves whose re-pack adopted the old tail at a shelf after `hi`.
        tail_after_hi: usize,
        /// Moves whose re-pack adopted the old tail because `hi` lies past
        /// the old run's end.
        tail_past_end: usize,
    }

    /// The state equals the full re-pack of its order: the same energy
    /// bits, and the same slots, checkpoints, `lost`, `lone` and `inside`
    /// as a state freshly built on it.
    fn assert_matches_full_repack(st: &OrderState<'_>) {
        let obj = st.objective;
        let reference = obj.energy(&full_pack(obj, &st.order).positions);
        assert_eq!(st.energy().to_bits(), reference.to_bits());
        let fresh = OrderState::new(obj, st.order.clone());
        assert_eq!(st.slots, fresh.slots);
        assert_eq!(st.marks, fresh.marks);
        assert_eq!((st.lost, st.lone), (fresh.lost, fresh.lone));
        assert_eq!(st.inside, fresh.inside);
    }

    /// One move, then an accept or an `undo`, each checked against the
    /// full re-pack. A third of the moves start at a shelf's opening
    /// position; a third lie past the break when it fired.
    fn check_move(st: &mut OrderState<'_>, rng: &mut StdRng, cov: &mut Coverage) {
        let obj = st.objective;
        let marks = &st.marks;
        let (n, last) = (st.order.len(), marks.last().unwrap().start());
        let start = marks[rng.random_range(0..marks.len())].start();
        let broke = break_shape(obj, &st.order).is_some();
        let (i, j) = match rng.random_range(0..3u8) {
            0 if start + 1 < n => (start, rng.random_range(start + 1..n)),
            1 if broke && last + 2 < n => {
                let i = rng.random_range(last + 1..n - 1);
                (i, rng.random_range(i + 1..n))
            }
            _ => st.propose(rng).unwrap(),
        };
        let lo = i.min(j);
        cov.at_shelf_start += st.marks.iter().any(|m| m.start() == lo) as usize;
        cov.past_break += (broke && lo > last) as usize;
        st.apply(&(i, j));
        assert_matches_full_repack(st);
        cov.resumed += st.journal.resumed as usize;
        cov.tail_after_hi += (st.journal.tail == Some(Tail::AfterHi)) as usize;
        cov.tail_past_end += (st.journal.tail == Some(Tail::PastEnd)) as usize;
        if rng.random_bool(0.5) {
            st.undo(&(i, j));
            assert_matches_full_repack(st);
        }
        cov.lone_closes += (break_shape(obj, &st.order) == Some(true)) as usize;
        cov.steps += 1;
    }

    /// The incremental shelf evaluation equals `Objective::energy` of the
    /// full `shelf_pack` bit for bit, under both objectives, with and
    /// without the vertical break: 48 nodes on a 100-wide outline
    /// (heights 140/160 break, 2 000 does not), and 240 nodes on a
    /// 1 000-wide one, about 25 to a shelf, so that moves realign with the
    /// old packing before and after the later swapped position (height
    /// 300 breaks, 2 000 does not).
    #[test]
    fn order_state_energy_matches_full_repack_bit_for_bit() {
        let mut cov = Coverage::default();
        let shapes = [
            (1, 48, 100, 140),
            (2, 48, 100, 160),
            (3, 48, 100, 2_000),
            (4, 240, 1_000, 300),
            (5, 240, 1_000, 2_000),
        ];
        for (seed, n, stencil_w, stencil_h) in shapes {
            let (inst, nodes) = random_instance(seed, n, 3, stencil_w, stencil_h);
            assert!(nodes.iter().any(|n| n.width > stencil_w));
            assert!(nodes.iter().any(|n| n.height > stencil_h));
            for sum_objective in [false, true] {
                let mut obj = Objective::new(&inst, &nodes);
                obj.sum_objective = sum_objective;
                let mut st = OrderState::new(&obj, (0..nodes.len()).collect());
                assert_eq!(st.lost.is_some(), stencil_h < 2_000, "break: {stencil_h}");
                let mut rng = StdRng::seed_from_u64(seed * 2 + sum_objective as u64);
                for _ in 0..400 {
                    check_move(&mut st, &mut rng, &mut cov);
                }
            }
        }
        assert!(cov.steps >= 4_000);
        let realigned = [cov.resumed, cov.tail_after_hi, cov.tail_past_end];
        assert!(
            cov.at_shelf_start > 0
                && cov.past_break > 0
                && cov.lone_closes > 0
                && realigned.iter().all(|&c| c > 0),
            "a case went uncovered: {cov:?}"
        );
    }

    /// An [`OrderState`] under the annealer. After every move the annealer
    /// accepted, and on the state it restores at the end, it checks the
    /// energy against the model: the writing times `Instance::writing_times`
    /// gives for the characters of the nodes `positions()` places.
    #[derive(Clone)]
    struct ModelChecked<'a> {
        state: OrderState<'a>,
        /// The last move was applied and not undone, and whether it swapped
        /// a position before the break with one at or after it.
        applied: Option<bool>,
        /// Checks made, and the accepted moves among them that swapped
        /// across the break; shared by the annealer's clones.
        counts: &'a Cell<(usize, usize)>,
    }

    impl ModelChecked<'_> {
        fn check(&self) {
            let st = &self.state;
            let (obj, inst) = (st.objective, st.objective.instance);
            let placed = st.positions().into_iter().zip(obj.nodes);
            let chars = placed
                .filter(|(pos, _)| pos.is_some())
                .flat_map(|(_, node)| node.members.iter().map(|&(id, _, _)| id.index()));
            let times = inst.writing_times(&Selection::from_indices(inst.num_chars(), chars));
            let expected = if obj.sum_objective {
                times.iter().sum::<u64>() as f64 / inst.num_regions() as f64
            } else {
                times.iter().copied().max().unwrap_or(0) as f64
            };
            assert_eq!(st.energy().to_bits(), expected.to_bits(), "{times:?}");
            let (checks, across) = self.counts.get();
            self.counts.set((checks + 1, across));
        }
    }

    impl Anneal for ModelChecked<'_> {
        type Move = (usize, usize);

        fn energy(&self) -> f64 {
            self.state.energy()
        }

        fn propose(&mut self, rng: &mut StdRng) -> Option<(usize, usize)> {
            if let Some(across) = self.applied.take() {
                self.check();
                let (checks, n) = self.counts.get();
                self.counts.set((checks, n + across as usize));
            }
            self.state.propose(rng)
        }

        fn apply(&mut self, mv: &(usize, usize)) {
            let end = self.state.lost.unwrap_or(self.state.order.len());
            self.applied = Some(mv.0.min(mv.1) < end && end <= mv.0.max(mv.1));
            self.state.apply(mv);
        }

        fn undo(&mut self, mv: &(usize, usize)) {
            self.applied = None;
            self.state.undo(mv);
        }
    }

    /// The shelf engine's energy is the model's writing time of what it
    /// places, under both objectives: the maximum region time for
    /// E-BLOW's, the region times' sum ÷ P for \[24\]'s. The nodes are
    /// E-BLOW's clustered ones and \[24\]'s unclustered candidates, on a
    /// `tiny_2d` instance and on 2M-1 (1 000 candidates, 10 regions), where
    /// the stencil fills and accepted moves swap across the break.
    #[test]
    fn order_state_energy_is_the_models_writing_time() {
        use crate::twod::Eblow2d;
        use eblow_anneal::{Annealer, Schedule};
        use eblow_gen::{benchmark, generate, Family, GenConfig};
        let planner = Eblow2d::default();
        for inst in [generate(&GenConfig::tiny_2d(7)), benchmark(Family::M2(1))] {
            let singles: Vec<PackNode> = (0..inst.num_chars())
                .map(|i| PackNode::single(&inst, CharId::from(i), 1.0))
                .collect();
            let clustered = planner.pack_nodes(&inst, crate::StopFlag::NEVER);
            for (nodes, sum_objective) in [(&clustered, false), (&singles, true)] {
                let mut obj = Objective::new(&inst, nodes);
                obj.sum_objective = sum_objective;
                let counts = Cell::new((0, 0));
                let mut st = ModelChecked {
                    state: OrderState::new(&obj, (0..nodes.len()).collect()),
                    applied: None,
                    counts: &counts,
                };
                st.check();
                let scale = *inst.vsb_times().iter().max().unwrap() as f64 * 0.05;
                let schedule = Schedule::geometric(scale, 0.8, scale * 1e-3, 100);
                Annealer::new(schedule, 11).run(&mut st);
                st.check();
                let (checks, across) = counts.get();
                assert!(checks > 1_000, "{checks} checks");
                if inst.num_chars() > 60 {
                    assert!(st.state.lost.is_some());
                    assert!(across > 100, "{across} accepted moves across the break");
                }
            }
        }
    }

    #[test]
    fn order_state_moves_are_reversible() {
        let (inst, nodes) = setup(5);
        let obj = Objective::new(&inst, &nodes);
        let mut st = OrderState::new(&obj, (0..5).collect());
        let e0 = st.energy();
        st.apply(&(0, 4));
        st.undo(&(0, 4));
        assert_eq!(st.energy(), e0);
    }

    #[test]
    fn annealing_improves_a_bad_seqpair() {
        let (inst, nodes) = setup(4);
        let obj = Objective::new(&inst, &nodes);
        let geo = NodeGeometry::new(&nodes);
        // Identity SP = one long row: only 2 of 4 fit a 100-wide outline.
        let mut st = SeqPairState::new(&obj, &geo, SequencePair::identity(4));
        let before = st.energy();
        let stats = eblow_anneal::Annealer::new(
            eblow_anneal::Schedule::geometric(before.max(1.0), 0.9, 1e-3, 50),
            3,
        )
        .run(&mut st);
        assert!(stats.best_energy <= before);
        // A 2×2 arrangement fits all four 40×40 nodes in 100×100 (sharing).
        let positions = st.positions();
        let inside = positions
            .iter()
            .enumerate()
            .filter(|(k, p)| {
                p.is_some_and(|(x, y)| {
                    x >= 0
                        && y >= 0
                        && x + nodes[*k].width as i64 <= 100
                        && y + nodes[*k].height as i64 <= 100
                })
            })
            .count();
        assert!(inside >= 3, "SA should fit ≥3 of 4, got {inside}");
    }
}
