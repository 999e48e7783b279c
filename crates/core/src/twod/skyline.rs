//! Overlap-aware shelf packing — the scalable 2D placement engine.
//!
//! The sequence-pair evaluation is `O(n²)` per SA move, which is the right
//! fidelity for moderate node counts but too slow for the 4000-candidate
//! MCC cases. This shelf packer is the `O(n)`-per-evaluation alternative:
//! nodes are placed left-to-right on shelves (sharing horizontal blanks
//! with their left neighbour), and a completed shelf is lowered onto the
//! previous one by the *conservative* vertical overlap
//! `min(lower shelf's min top blank, upper shelf's min bottom blank)` —
//! which keeps every character-level pair constraint satisfied: any two
//! facing characters may overlap by the smaller of their own facing
//! blanks, and that is never less than this shelf-wide minimum.
//! Simulated annealing then optimizes the insertion order.

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

/// Packs `nodes` in the given `order` onto a `stencil_w × stencil_h`
/// outline. Nodes that do not fit anywhere are skipped (unplaced), matching
/// the fixed-outline "outside ⇒ unselected" rule of \[24\].
// audit:allow(stop-flag-reachability): one pass over the node order; callers poll between packing attempts
pub fn shelf_pack(
    nodes: &[PackNode],
    order: &[usize],
    stencil_w: u64,
    stencil_h: u64,
) -> ShelfPacking {
    let mut positions: Vec<Option<(i64, i64)>> = vec![None; nodes.len()];
    let mut placed = 0usize;
    let mut shelves: Vec<(Vec<usize>, i64)> = Vec::new();

    // Current shelf under construction (positions assigned at close time).
    let mut shelf: Vec<(usize, i64)> = Vec::new(); // (node, x)
    let mut shelf_min_bottom: u64 = u64::MAX;
    let mut shelf_min_top: u64 = u64::MAX;
    let mut shelf_height: u64 = 0;
    // Previous closed shelf summary.
    let mut prev_top: i64 = 0; // y of the previous shelf's top edge
    let mut prev_min_top: u64 = 0; // min top blank of previous shelf (0 = ground)

    let close_shelf = |shelf: &mut Vec<(usize, i64)>,
                       shelf_min_bottom: u64,
                       shelf_min_top: u64,
                       shelf_height: u64,
                       prev_top: &mut i64,
                       prev_min_top: &mut u64,
                       positions: &mut Vec<Option<(i64, i64)>>,
                       placed: &mut usize,
                       shelves: &mut Vec<(Vec<usize>, i64)>,
                       stencil_h: u64|
     -> bool {
        if shelf.is_empty() {
            return true;
        }
        let overlap = if *prev_top == 0 {
            0
        } else {
            (*prev_min_top).min(shelf_min_bottom) as i64
        };
        let base = *prev_top - overlap;
        if base + shelf_height as i64 > stencil_h as i64 {
            // Shelf does not fit vertically: discard its contents.
            shelf.clear();
            return false;
        }
        let mut members = Vec::with_capacity(shelf.len());
        for &(node, x) in shelf.iter() {
            positions[node] = Some((x, base));
            members.push(node);
            *placed += 1;
        }
        shelves.push((members, base));
        *prev_top = base + shelf_height as i64;
        *prev_min_top = shelf_min_top;
        shelf.clear();
        true
    };

    // audit:allow(stop-flag-coverage): one bounded O(nodes) sweep per SA evaluation; the SA plateau loop driving it polls the flag
    for &k in order {
        let node = &nodes[k];
        if node.width > stencil_w || node.height > stencil_h {
            continue;
        }
        // Tentative x with sharing against the current shelf's last node.
        let x = match shelf.last() {
            Some(&(prev, px)) => {
                let ov = nodes[prev].blanks.right.min(node.blanks.left) as i64;
                px + nodes[prev].width as i64 - ov
            }
            None => 0,
        };
        if x + (node.width as i64) <= stencil_w as i64 {
            shelf.push((k, x));
            shelf_min_bottom = shelf_min_bottom.min(node.blanks.bottom);
            shelf_min_top = shelf_min_top.min(node.blanks.top);
            shelf_height = shelf_height.max(node.height);
        } else {
            // Close the current shelf and start a new one with this node.
            let ok = close_shelf(
                &mut shelf,
                shelf_min_bottom,
                shelf_min_top,
                shelf_height,
                &mut prev_top,
                &mut prev_min_top,
                &mut positions,
                &mut placed,
                &mut shelves,
                stencil_h,
            );
            shelf_min_bottom = node.blanks.bottom;
            shelf_min_top = node.blanks.top;
            shelf_height = node.height;
            shelf.push((k, 0));
            if !ok {
                // Vertical space exhausted: nothing below fits either.
                break;
            }
        }
    }
    close_shelf(
        &mut shelf,
        shelf_min_bottom,
        shelf_min_top,
        shelf_height,
        &mut prev_top,
        &mut prev_min_top,
        &mut positions,
        &mut placed,
        &mut shelves,
        stencil_h,
    );

    ShelfPacking {
        positions,
        placed,
        shelves,
    }
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
                .map(|i| inst.repeat_row(i).to_vec())
                .collect(),
        )
        .unwrap();
        placement.validate(&inst2).unwrap();
    }
}
