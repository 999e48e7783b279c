//! Overlap-aware shelf packing — the scalable 2D placement engine.
//!
//! The sequence-pair evaluation is `O(n²)` per SA move, which is the right
//! fidelity for moderate node counts but too slow for the 4000-candidate
//! MCC cases. This shelf packer is the `O(n)`-per-packing alternative:
//! nodes are placed left-to-right on shelves (sharing horizontal blanks
//! with their left neighbour), and a completed shelf is lowered onto the
//! previous one by the *conservative* vertical overlap
//! `min(lower shelf's min top blank, upper shelf's min bottom blank)` —
//! which keeps every character-level pair constraint satisfied: any two
//! facing characters may overlap by the smaller of their own facing
//! blanks, and that is never less than this shelf-wide minimum.
//! Simulated annealing then optimizes the insertion order.
//!
//! The rule exists once, in [`ShelfCursor`]: an allocation-free step per
//! node, driven over an order by [`ShelfCursor::run`], which reports every
//! node and shelf to a [`ShelfSink`]. A run reads each node's outline and
//! blanks from a [`Slot`] kept by order position, one contiguous record
//! per step. [`shelf_pack`] records positions and shelves (for seeding and
//! placement extraction). The SA's `OrderState` keeps its slots permuted
//! with its order, copies the cursor at every shelf it opens and notes the
//! first shelf that does not fit: the cursor is a few words, so an SA move
//! resumes packing from the shelf it touches rather than from the first
//! node. It stops where its shelves realign with the packing before the
//! move, or where the stencil is full: at each shelf it opens, the sink
//! may move the run on to a later cursor of the same run, or end it.

use super::cluster::PackNode;

/// Result of a shelf packing run.
#[derive(Debug, Clone)]
pub struct ShelfPacking {
    /// Position of each node (by node index), `None` when it did not fit.
    pub positions: Vec<Option<(i64, i64)>>,
    /// Number of placed nodes.
    pub placed: usize,
    /// Shelves as `(node indices, base y)` — exposed for sequence-pair
    /// seeding.
    pub shelves: Vec<(Vec<usize>, i64)>,
}

/// Receives what [`ShelfCursor::run`] does with each node and shelf.
pub(crate) trait ShelfSink {
    /// Node `k` joined the open shelf at `x`.
    fn joined(&mut self, k: usize, x: i64);
    /// The open shelf closed: at base `Some(y)` when it fits vertically;
    /// `None` discards its nodes.
    fn closed(&mut self, base: Option<i64>);
    /// Node `k` opened a new shelf at x = 0. `cursor` is the state right
    /// after it, from which packing can resume. The answer says how the
    /// run goes on.
    fn opened(&mut self, k: usize, cursor: ShelfCursor) -> Flow;
}

/// The shelf rule's view of one node: its outline and its blanks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Slot {
    width: u64,
    height: u64,
    left: u64,
    right: u64,
    bottom: u64,
    top: u64,
}

impl Slot {
    /// The slots of `order`'s nodes, by order position.
    pub fn of(nodes: &[PackNode], order: &[usize]) -> Vec<Slot> {
        order.iter().map(|&k| Slot::from(&nodes[k])).collect()
    }
}

impl From<&PackNode> for Slot {
    fn from(node: &PackNode) -> Self {
        Slot {
            width: node.width,
            height: node.height,
            left: node.blanks.left,
            right: node.blanks.right,
            bottom: node.blanks.bottom,
            top: node.blanks.top,
        }
    }
}

/// How a run goes on after a shelf opened; see [`ShelfSink::opened`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flow {
    /// Step to the next node.
    Next,
    /// Go on from this cursor, taken after a later shelf opening of the
    /// run the sink already knows; the sink has recorded the shelves in
    /// between.
    Resume(ShelfCursor),
    /// The sink knows the rest of the run: end it, without the final close.
    End,
}

/// The open shelf: its last node, where that node ends, and the extremes
/// of the shelf's blanks and heights.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Shelf {
    /// The last node. A cursor carries its identity, not only its shape:
    /// at either swapped position of a move the node differs, so the
    /// resync never matches a cursor there with the old one.
    last: usize,
    /// Right edge of the last node, and its right blank.
    right: i64,
    right_blank: u64,
    min_bottom: u64,
    min_top: u64,
    height: u64,
}

impl Shelf {
    /// The shelf node `k` opens, at x = 0.
    fn open(k: usize, slot: &Slot) -> Self {
        Shelf {
            last: k,
            right: slot.width as i64,
            right_blank: slot.right,
            min_bottom: slot.bottom,
            min_top: slot.top,
            height: slot.height,
        }
    }

    /// Puts node `k` beside the open shelf's last node, sharing their
    /// facing blanks, and tells the sink its x. Returns `false`, leaving
    /// the shelf as it is, when no shelf is open or the node would end
    /// past `stencil_w`.
    #[inline]
    fn join<S: ShelfSink>(
        open: &mut Option<Shelf>,
        k: usize,
        slot: &Slot,
        stencil_w: u64,
        sink: &mut S,
    ) -> bool {
        let Some(shelf) = open else {
            return false;
        };
        let x = shelf.right - shelf.right_blank.min(slot.left) as i64;
        let right = x + slot.width as i64;
        if right > stencil_w as i64 {
            return false;
        }
        shelf.last = k;
        shelf.right = right;
        shelf.right_blank = slot.right;
        shelf.min_bottom = shelf.min_bottom.min(slot.bottom);
        shelf.min_top = shelf.min_top.min(slot.top);
        shelf.height = shelf.height.max(slot.height);
        sink.joined(k, x);
        true
    }
}

/// The shelf rule's state after a prefix of the order: the open shelf and
/// the top edge of the closed shelves below it. It is `Copy`, so a caller
/// can checkpoint it and later resume packing from the checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ShelfCursor {
    stencil_w: u64,
    stencil_h: u64,
    /// Order position of the node that opened the open shelf.
    start: usize,
    /// The open shelf; `None` before the first.
    open: Option<Shelf>,
    /// y of the previous shelf's top edge (0 = ground).
    prev_top: i64,
    /// Min top blank of the previous shelf (0 = ground).
    prev_min_top: u64,
    /// A shelf did not fit vertically: only the final close is left.
    full: bool,
}

impl ShelfCursor {
    /// An empty `stencil_w × stencil_h` outline, before any node.
    pub fn new(stencil_w: u64, stencil_h: u64) -> Self {
        ShelfCursor {
            stencil_w,
            stencil_h,
            start: 0,
            open: None,
            prev_top: 0,
            prev_min_top: 0,
            full: false,
        }
    }

    /// Order position of the node that opened the open shelf.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Whether a shelf failed to fit vertically, so that only the final
    /// close is left.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Whether `slot` fits the outline at all; the rule skips any other.
    pub fn fits(&self, slot: &Slot) -> bool {
        slot.width <= self.stencil_w && slot.height <= self.stencil_h
    }

    /// Closes `open`, if any, and opens the next shelf with node `k`,
    /// found at order position `pos` with `slot`; returns the sink's
    /// answer to the opening.
    fn reopen<S: ShelfSink>(
        &mut self,
        open: Option<Shelf>,
        pos: usize,
        k: usize,
        slot: &Slot,
        sink: &mut S,
    ) -> Flow {
        if let Some(shelf) = &open {
            let base = self.close(shelf);
            sink.closed(base);
        }
        self.start = pos;
        self.open = Some(Shelf::open(k, slot));
        sink.opened(k, *self)
    }

    /// Lowers `shelf` onto the previous one. Returns its base y, or `None`
    /// (and marks the stencil full) when it does not fit vertically.
    fn close(&mut self, shelf: &Shelf) -> Option<i64> {
        let overlap = if self.prev_top == 0 {
            0
        } else {
            self.prev_min_top.min(shelf.min_bottom) as i64
        };
        let base = self.prev_top - overlap;
        if base + shelf.height as i64 > self.stencil_h as i64 {
            self.full = true;
            return None;
        }
        self.prev_top = base + shelf.height as i64;
        self.prev_min_top = shelf.min_top;
        Some(base)
    }

    /// Steps through positions `from..` of an order, given its nodes
    /// (`order`) and their `slots`, then closes the last shelf, and
    /// returns the number of nodes stepped. A node wider or taller than
    /// the stencil is skipped; one that fits beside the open shelf's last
    /// node joins it; any other closes the shelf and opens the next. Once
    /// a shelf does not fit vertically nothing below fits either, so the
    /// run stops there; the node that opened the next shelf is still tried
    /// alone in the final close. The sink may move the run on at a shelf
    /// opening, or end it there ([`Flow`]).
    ///
    /// The open shelf is stepped in a local of its own, apart from the
    /// cursor that the sink receives at each opening, so that it stays in
    /// registers while nodes join it.
    pub fn run<S: ShelfSink>(
        mut self,
        slots: &[Slot],
        order: &[usize],
        from: usize,
        sink: &mut S,
    ) -> usize {
        let order = &order[..slots.len()];
        let mut open = self.open;
        let (mut pos, mut steps) = (from, 0);
        while pos < slots.len() && !self.full {
            steps += 1;
            let (slot, k) = (&slots[pos], order[pos]);
            if !self.fits(slot) || Shelf::join(&mut open, k, slot, self.stencil_w, sink) {
                pos += 1;
                continue;
            }
            match self.reopen(open, pos, k, slot, sink) {
                Flow::Next => pos += 1,
                Flow::Resume(cursor) => (self, pos) = (cursor, cursor.start + 1),
                Flow::End => return steps,
            }
            open = self.open;
        }
        if let Some(shelf) = &open {
            let base = self.close(shelf);
            sink.closed(base);
        }
        steps
    }
}

/// Packs `nodes` in the given `order` onto a `stencil_w × stencil_h`
/// outline. Nodes that do not fit anywhere are skipped (unplaced), matching
/// the fixed-outline "outside ⇒ unselected" rule of \[24\].
pub fn shelf_pack(
    nodes: &[PackNode],
    order: &[usize],
    stencil_w: u64,
    stencil_h: u64,
) -> ShelfPacking {
    /// Records positions and shelves; the open shelf as `(node, x)`.
    struct Record {
        packing: ShelfPacking,
        shelf: Vec<(usize, i64)>,
    }
    impl ShelfSink for Record {
        fn joined(&mut self, k: usize, x: i64) {
            self.shelf.push((k, x));
        }
        fn closed(&mut self, base: Option<i64>) {
            if let Some(base) = base {
                for &(node, x) in &self.shelf {
                    self.packing.positions[node] = Some((x, base));
                }
                self.packing.placed += self.shelf.len();
                let members = self.shelf.iter().map(|&(node, _)| node).collect();
                self.packing.shelves.push((members, base));
            }
            self.shelf.clear();
        }
        fn opened(&mut self, k: usize, _: ShelfCursor) -> Flow {
            self.shelf.push((k, 0));
            Flow::Next
        }
    }

    let mut record = Record {
        packing: ShelfPacking {
            positions: vec![None; nodes.len()],
            placed: 0,
            shelves: Vec::new(),
        },
        shelf: Vec::new(),
    };
    let slots = Slot::of(nodes, order);
    ShelfCursor::new(stencil_w, stencil_h).run(&slots, order, 0, &mut record);
    record.packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{CharId, Character, Instance, Stencil};

    fn nodes(specs: &[(u64, u64, [u64; 4])]) -> (Instance, Vec<PackNode>) {
        let chars: Vec<Character> = specs
            .iter()
            .map(|&(w, h, b)| Character::new(w, h, b, 5).unwrap())
            .collect();
        let n = chars.len();
        let inst = Instance::new(
            Stencil::new(10_000, 10_000).unwrap(),
            chars,
            vec![vec![1]; n],
        )
        .unwrap();
        let nodes = (0..n)
            .map(|i| PackNode::single(&inst, CharId::from(i), 1.0))
            .collect();
        (inst, nodes)
    }

    #[test]
    fn single_shelf_shares_horizontal_blanks() {
        let (_, ns) = nodes(&[
            (40, 40, [5, 5, 5, 5]),
            (40, 40, [3, 3, 3, 3]),
            (40, 40, [8, 8, 8, 8]),
        ]);
        let pack = shelf_pack(&ns, &[0, 1, 2], 200, 100);
        assert_eq!(pack.placed, 3);
        assert_eq!(pack.positions[0], Some((0, 0)));
        assert_eq!(pack.positions[1], Some((37, 0))); // share min(5,3)=3
        assert_eq!(pack.positions[2], Some((74, 0))); // share min(3,8)=3
        assert_eq!(pack.shelves.len(), 1);
    }

    #[test]
    fn wraps_to_new_shelf_with_vertical_sharing() {
        let (_, ns) = nodes(&[
            (60, 40, [5, 5, 5, 6]),
            (60, 40, [5, 5, 5, 4]),
            (60, 40, [5, 5, 7, 5]),
        ]);
        // Width 100: two 60-wide nodes sharing 5 need 115 > 100, so every
        // node opens its own shelf.
        let pack = shelf_pack(&ns, &[0, 1, 2], 100, 200);
        assert_eq!(pack.placed, 3);
        let (x0, y0) = pack.positions[0].unwrap();
        let (_, y1) = pack.positions[1].unwrap();
        let (_, y2) = pack.positions[2].unwrap();
        assert_eq!((x0, y0), (0, 0));
        // Shelf 2: overlap = min(node0.top=6, node1.bottom=5) = 5 → base 35.
        assert_eq!(y1, 35);
        // Shelf 3: overlap = min(node1.top=4, node2.bottom=7) = 4 → base 71.
        assert_eq!(y2, 71);
        assert_eq!(pack.shelves.len(), 3);
    }

    #[test]
    fn skips_nodes_that_cannot_fit() {
        let (_, ns) = nodes(&[(120, 40, [5, 5, 5, 5]), (40, 40, [5, 5, 5, 5])]);
        let pack = shelf_pack(&ns, &[0, 1], 100, 100);
        assert_eq!(pack.positions[0], None);
        assert!(pack.positions[1].is_some());
        assert_eq!(pack.placed, 1);
    }

    #[test]
    fn vertical_capacity_respected() {
        let (_, ns) = nodes(&[
            (90, 60, [5, 5, 5, 5]),
            (90, 60, [5, 5, 5, 5]),
            (90, 60, [5, 5, 5, 5]),
        ]);
        // Height 100: shelf 1 at y 0..60; shelf 2 would sit at 55..115 > 100.
        let pack = shelf_pack(&ns, &[0, 1, 2], 100, 100);
        assert_eq!(pack.placed, 1);
    }

    #[test]
    fn result_is_character_level_valid() {
        let (inst, ns) = nodes(&[
            (40, 40, [5, 5, 5, 5]),
            (40, 35, [3, 3, 3, 3]),
            (35, 40, [8, 8, 8, 8]),
            (45, 38, [2, 2, 2, 2]),
            (40, 42, [6, 6, 6, 6]),
        ]);
        let pack = shelf_pack(&ns, &[0, 1, 2, 3, 4], 100, 120);
        let mut placement = eblow_model::Placement2d::new();
        for (k, pos) in pack.positions.iter().enumerate() {
            if let Some((x, y)) = pos {
                for &(id, dx, dy) in &ns[k].members {
                    placement.push(eblow_model::PlacedChar {
                        id,
                        x: x + dx,
                        y: y + dy,
                    });
                }
            }
        }
        // The real test: the model-level validator accepts the packing
        // (needs a stencil big enough: re-wrap with the pack outline).
        let inst2 = Instance::new(
            Stencil::new(100, 120).unwrap(),
            inst.chars().to_vec(),
            (0..inst.num_chars())
                .map(|i| inst.repeat_row(i).collect())
                .collect(),
        )
        .unwrap();
        placement.validate(&inst2).unwrap();
    }
}
