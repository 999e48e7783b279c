//! Pre-filter and KD-tree clustering (paper §4.2, Algorithm 4).
//!
//! The 2DOSP flow first drops candidates with bad profit (pre-filter), then
//! repeatedly merges pairs of characters with similar width, height, blanks
//! and profit (rule (8), `bound = 0.2`) into *pack nodes*. The similarity
//! search is a KD-tree range query over the five-dimensional feature vector
//! `(w, h, s_h, s_v, profit)`, giving `O(n log n)` per round.
//!
//! A merged node stacks its two children in the orientation (horizontal or
//! vertical) that wastes the least area; its blanks are the conservative
//! minimum of the children's facing blanks, so any placement that is legal
//! at node level is legal at character level (a node-level overlap never
//! exceeds a member's own facing blank).

use crate::cancel::StopFlag;
use eblow_kdtree::KdTree;
use eblow_model::{Blanks, CharId, Instance};

/// A packing unit: one character or a cluster of merged characters.
#[derive(Debug, Clone)]
pub struct PackNode {
    /// Members with offsets relative to the node's lower-left corner.
    pub members: Vec<(CharId, i64, i64)>,
    /// Outline width of the node.
    pub width: u64,
    /// Outline height of the node.
    pub height: u64,
    /// Conservative blanks of the node (shareable with neighbours).
    pub blanks: Blanks,
    /// Summed profit of the members.
    pub profit: f64,
}

impl PackNode {
    /// A node wrapping a single character.
    pub fn single(instance: &Instance, id: CharId, profit: f64) -> Self {
        let c = instance.char(id.index());
        PackNode {
            members: vec![(id, 0, 0)],
            width: c.width(),
            height: c.height(),
            blanks: c.blanks(),
            profit,
        }
    }

    /// Feature vector for the similarity search.
    pub fn features(&self) -> [f64; 5] {
        [
            self.width as f64,
            self.height as f64,
            (self.blanks.left + self.blanks.right) as f64 / 2.0,
            (self.blanks.bottom + self.blanks.top) as f64 / 2.0,
            self.profit,
        ]
    }

    /// Number of original characters inside.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }

    /// Merges `self` (kept left/bottom) with `other`, choosing the
    /// orientation that wastes the least outline area.
    pub fn merge(&self, other: &PackNode) -> PackNode {
        let h = self.merge_oriented(other, true);
        let v = self.merge_oriented(other, false);
        let h_waste = h.width * h.height;
        let v_waste = v.width * v.height;
        if h_waste <= v_waste {
            h
        } else {
            v
        }
    }

    /// Fraction of the merged outline that is dead space (not covered by
    /// either child). Merging dissimilar shapes compounds dead space and
    /// destroys packing density, so the clustering loop rejects wasteful
    /// merges.
    pub fn merge_waste(&self, other: &PackNode, merged: &PackNode) -> f64 {
        let merged_area = (merged.width * merged.height) as f64;
        // Shared strip between the children (approximate, conservative).
        let shared = if merged.width >= self.width.max(other.width) {
            // horizontal merge
            (self.width + other.width - merged.width) * self.height.min(other.height)
        } else {
            (self.height + other.height - merged.height) * self.width.min(other.width)
        };
        let covered =
            (self.width * self.height + other.width * other.height) as f64 - shared as f64;
        ((merged_area - covered) / merged_area).max(0.0)
    }

    fn merge_oriented(&self, other: &PackNode, horizontal: bool) -> PackNode {
        let mut members = self.members.clone();
        if horizontal {
            let ov = self.blanks.right.min(other.blanks.left);
            let dx = (self.width - ov) as i64;
            for &(id, mx, my) in &other.members {
                members.push((id, mx + dx, my));
            }
            PackNode {
                members,
                width: self.width + other.width - ov,
                height: self.height.max(other.height),
                blanks: Blanks::new(
                    self.blanks.left,
                    other.blanks.right,
                    self.blanks.bottom.min(other.blanks.bottom),
                    self.blanks.top.min(other.blanks.top),
                ),
                profit: self.profit + other.profit,
            }
        } else {
            let ov = self.blanks.top.min(other.blanks.bottom);
            let dy = (self.height - ov) as i64;
            for &(id, mx, my) in &other.members {
                members.push((id, mx, my + dy));
            }
            PackNode {
                members,
                width: self.width.max(other.width),
                height: self.height + other.height - ov,
                blanks: Blanks::new(
                    self.blanks.left.min(other.blanks.left),
                    self.blanks.right.min(other.blanks.right),
                    self.blanks.bottom,
                    other.blanks.top,
                ),
                profit: self.profit + other.profit,
            }
        }
    }
}

/// Pre-filter (paper Fig. 9): keep the best candidates by profit density.
///
/// `factor` scales the estimated stencil capacity; candidates beyond
/// `factor × capacity` (by profit per outline area) are dropped before the
/// expensive packing stage, as are candidates with non-positive profit or
/// outlines that cannot fit the stencil at all.
pub fn prefilter(instance: &Instance, profits: &[f64], factor: f64) -> Vec<usize> {
    let w = instance.stencil().width();
    let h = instance.stencil().height();
    let mut eligible: Vec<usize> = (0..instance.num_chars())
        .filter(|&i| {
            let c = instance.char(i);
            c.width() <= w && c.height() <= h && profits[i] > 0.0
        })
        .collect();
    if eligible.is_empty() {
        return eligible;
    }
    let avg_area: f64 = eligible
        .iter()
        .map(|&i| instance.char(i).area() as f64)
        .sum::<f64>()
        / eligible.len() as f64;
    // Guard the degenerate division: a zero average area (or a non-finite
    // factor) turns the capacity estimate into inf/NaN — keep everything
    // eligible instead of truncating on garbage. (`as usize` on a NaN is
    // 0, which would silently drop all but one candidate.)
    let raw_capacity = if avg_area > 0.0 {
        (w * h) as f64 / avg_area * factor
    } else {
        f64::INFINITY
    };
    let capacity = if raw_capacity.is_finite() {
        raw_capacity.ceil() as usize
    } else {
        eligible.len()
    };
    // `total_cmp` (not `partial_cmp().unwrap()`): a NaN profit density must
    // sort deterministically instead of panicking the whole 2D pipeline.
    eligible.sort_by(|&a, &b| {
        let da = profits[a] / instance.char(a).area() as f64;
        let db = profits[b] / instance.char(b).area() as f64;
        db.total_cmp(&da).then(a.cmp(&b))
    });
    eligible.truncate(capacity.max(1));
    eligible
}

/// Runs Algorithm 4: iterative KD-tree clustering until no pair merges.
///
/// `bound` is the relative similarity tolerance of rule (8) (paper: 0.2).
/// Merged nodes whose outline would exceed the stencil are not created.
pub fn cluster(
    instance: &Instance,
    candidates: &[usize],
    profits: &[f64],
    bound: f64,
) -> Vec<PackNode> {
    cluster_with_stop(instance, candidates, profits, bound, StopFlag::NEVER)
}

/// Like [`cluster`], but polls `stop` between merge rounds. A cancelled
/// run returns the clustering reached so far — every candidate is still
/// present (merged or standalone), so downstream packing stays valid.
pub fn cluster_with_stop(
    instance: &Instance,
    candidates: &[usize],
    profits: &[f64],
    bound: f64,
    stop: StopFlag<'_>,
) -> Vec<PackNode> {
    let w = instance.stencil().width();
    let h = instance.stencil().height();
    let mut nodes: Vec<PackNode> = candidates
        .iter()
        .map(|&i| PackNode::single(instance, CharId::from(i), profits[i]))
        .collect();

    while !stop.is_set() {
        // Most profitable first, so high-value characters cluster together.
        // `total_cmp` keeps a NaN profit (e.g. from a degenerate dynamic
        // profit upstream) from panicking the sort: NaN gets a fixed place
        // in the IEEE total order and the loop proceeds.
        nodes.sort_by(|a, b| b.profit.total_cmp(&a.profit));
        // Nodes with a non-finite profit cannot enter the KD-tree (its
        // build contract rejects NaN coordinates, and the profit is a
        // feature axis); they stay standalone instead of merging.
        let tree = KdTree::build(
            nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.profit.is_finite())
                .map(|(k, n)| (n.features(), k))
                .collect(),
        );
        let mut tree = tree;
        let mut consumed = vec![false; nodes.len()];
        let mut merged: Vec<PackNode> = Vec::new();
        let mut merged_any = false;

        for k in 0..nodes.len() {
            if consumed[k] || !nodes[k].profit.is_finite() {
                continue;
            }
            let f = nodes[k].features();
            let lo: [f64; 5] = std::array::from_fn(|d| f[d] / (1.0 + bound));
            let hi: [f64; 5] = std::array::from_fn(|d| {
                if bound < 1.0 {
                    f[d] / (1.0 - bound)
                } else {
                    f64::INFINITY
                }
            });
            // Find a similar, unconsumed partner (closest profit).
            let mut partner: Option<(usize, f64, eblow_kdtree::EntryId)> = None;
            tree.range_query(&lo, &hi, |_, &j, id| {
                if j != k && !consumed[j] {
                    let d = (nodes[j].profit - nodes[k].profit).abs();
                    if partner.is_none_or(|(_, bd, _)| d < bd) {
                        partner = Some((j, d, id));
                    }
                }
            });
            if let Some((j, _, entry)) = partner {
                let candidate = nodes[k].merge(&nodes[j]);
                let small_enough = candidate.width <= w && candidate.height <= h;
                let members_ok = candidate.num_members() <= 4;
                let tight = nodes[k].merge_waste(&nodes[j], &candidate) <= 0.05;
                if small_enough && members_ok && tight {
                    consumed[k] = true;
                    consumed[j] = true;
                    tree.deactivate(entry);
                    merged.push(candidate);
                    merged_any = true;
                }
            }
        }
        let mut next: Vec<PackNode> = Vec::with_capacity(merged.len() + nodes.len());
        next.extend(merged);
        for (k, n) in nodes.into_iter().enumerate() {
            if !consumed[k] {
                next.push(n);
            }
        }
        nodes = next;
        if !merged_any {
            break;
        }
    }
    nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Character, Stencil};

    fn uniform_instance(n: usize) -> Instance {
        let chars: Vec<Character> = (0..n)
            .map(|_| Character::new(40, 40, [5, 5, 5, 5], 10).unwrap())
            .collect();
        let repeats = vec![vec![5]; n];
        Instance::new(Stencil::new(500, 500).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn identical_characters_cluster_aggressively() {
        let inst = uniform_instance(8);
        let profits = vec![45.0; 8];
        let cands: Vec<usize> = (0..8).collect();
        let nodes = cluster(&inst, &cands, &profits, 0.2);
        assert!(
            nodes.len() < 8,
            "identical chars must merge, got {} nodes",
            nodes.len()
        );
        let members: usize = nodes.iter().map(PackNode::num_members).sum();
        assert_eq!(members, 8, "no character may be lost");
    }

    #[test]
    fn merged_geometry_shares_blanks() {
        let inst = uniform_instance(2);
        let a = PackNode::single(&inst, CharId(0), 10.0);
        let b = PackNode::single(&inst, CharId(1), 10.0);
        let m = a.merge(&b);
        // Horizontal merge of two 40-wide chars with blanks 5: 75 wide.
        assert_eq!((m.width, m.height), (75, 40));
        assert_eq!(m.num_members(), 2);
        assert_eq!(m.members[1].1, 35); // dx = 40 − 5
        assert_eq!(m.profit, 20.0);
    }

    #[test]
    fn pre_raised_stop_skips_clustering_but_loses_no_character() {
        use std::sync::atomic::AtomicBool;
        let inst = uniform_instance(8);
        let profits = vec![45.0; 8];
        let cands: Vec<usize> = (0..8).collect();
        let raised = AtomicBool::new(true);
        let nodes = cluster_with_stop(&inst, &cands, &profits, 0.2, StopFlag::new(&raised));
        // Cancelled before the first merge round: all singletons.
        assert_eq!(nodes.len(), 8);
        let members: usize = nodes.iter().map(PackNode::num_members).sum();
        assert_eq!(members, 8, "no character may be lost under cancellation");
    }

    #[test]
    fn dissimilar_characters_do_not_cluster() {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(80, 20, [2, 2, 2, 2], 10).unwrap(),
        ];
        let inst = Instance::new(
            Stencil::new(500, 500).unwrap(),
            chars,
            vec![vec![5], vec![5]],
        )
        .unwrap();
        let nodes = cluster(&inst, &[0, 1], &[45.0, 45.0], 0.2);
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn cluster_respects_stencil_bounds() {
        // Two 40-wide chars on a 60-wide stencil: a merge (75 wide) would
        // not fit → must stay separate.
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
            Character::new(40, 40, [5, 5, 5, 5], 10).unwrap(),
        ];
        let inst =
            Instance::new(Stencil::new(60, 60).unwrap(), chars, vec![vec![5], vec![5]]).unwrap();
        let nodes = cluster(&inst, &[0, 1], &[45.0, 45.0], 0.2);
        assert_eq!(nodes.len(), 2);
    }

    #[test]
    fn prefilter_keeps_best_density() {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 30).unwrap(), // high value
            Character::new(40, 40, [5, 5, 5, 5], 2).unwrap(),  // low value
            Character::new(600, 600, [5, 5, 5, 5], 30).unwrap(), // does not fit
        ];
        let inst = Instance::new(
            Stencil::new(90, 90).unwrap(),
            chars,
            vec![vec![5], vec![5], vec![5]],
        )
        .unwrap();
        let profits = vec![145.0, 5.0, 145.0];
        // capacity ≈ 90·90/1600 ≈ 5 → factor 0.2 → keep 1-2
        let kept = prefilter(&inst, &profits, 0.2);
        assert!(kept.contains(&0));
        assert!(!kept.contains(&2), "oversized char must be dropped");
    }

    /// Regression: `partial_cmp(..).unwrap()` panicked when a profit was
    /// NaN. Characters with zero area cannot exist at the model layer
    /// (`ModelError::ZeroDimension`), but NaN profits reach this code from
    /// degenerate dynamic-profit updates — both sorts must survive them.
    #[test]
    fn nan_profits_do_not_panic() {
        let inst = uniform_instance(4);
        let profits = vec![f64::NAN, 45.0, f64::NAN, 45.0];
        // Pre-fix: panics in the profit-density sort.
        let kept = prefilter(&inst, &profits, 0.2);
        // NaN profits fail the `> 0.0` eligibility test and are dropped.
        assert!(kept.iter().all(|&i| !profits[i].is_nan()));
        // Pre-fix: panics in the most-profitable-first sort.
        let nodes = cluster(&inst, &[0, 1, 2, 3], &profits, 0.2);
        let members: usize = nodes.iter().map(PackNode::num_members).sum();
        assert_eq!(members, 4, "no character may be lost");
    }

    /// Regression companion to `nan_profits_do_not_panic`: the capacity
    /// computation must not truncate on a non-finite estimate (NaN `as
    /// usize` is 0, which silently kept a single candidate).
    #[test]
    fn non_finite_capacity_keeps_all_eligible() {
        let inst = uniform_instance(6);
        let profits = vec![45.0; 6];
        let kept = prefilter(&inst, &profits, f64::NAN);
        assert_eq!(kept.len(), 6, "a NaN factor must not truncate");
        let kept = prefilter(&inst, &profits, f64::INFINITY);
        assert_eq!(kept.len(), 6);
    }

    #[test]
    fn vertical_merge_offsets() {
        let chars = vec![
            Character::new(20, 40, [2, 2, 3, 7], 10).unwrap(),
            Character::new(22, 40, [2, 2, 4, 3], 10).unwrap(),
        ];
        let inst = Instance::new(
            Stencil::new(500, 500).unwrap(),
            chars,
            vec![vec![5], vec![5]],
        )
        .unwrap();
        let a = PackNode::single(&inst, CharId(0), 10.0);
        let b = PackNode::single(&inst, CharId(1), 10.0);
        let v = a.merge_oriented(&b, false);
        // vertical overlap = min(a.top=7, b.bottom=4) = 4; dy = 36.
        assert_eq!(v.height, 76);
        assert_eq!(v.members[1].2, 36);
        assert_eq!(v.width, 22);
    }
}
