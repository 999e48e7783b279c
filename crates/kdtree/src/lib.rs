//! A k-dimensional tree (k-d tree) for multidimensional range queries.
//!
//! E-BLOW's 2DOSP clustering (paper §4.2, Algorithm 4) repeatedly asks "find
//! an unclustered character whose width, height, blanks and profit are all
//! within 20% of mine". A linear scan makes the clustering `O(n²)`; the
//! paper's KD-Tree reduces it to `O(n log n)`. This crate provides that
//! structure: a static bulk-built balanced tree (median splits) with lazy
//! deletion (tombstones) and axis-aligned **range queries**, generic over
//! the dimension `K` and a payload type.
//!
//! # Example
//!
//! ```
//! use eblow_kdtree::KdTree;
//!
//! let pts = vec![([0.0, 0.0], "a"), ([5.0, 5.0], "b"), ([9.0, 1.0], "c")];
//! let mut tree = KdTree::build(pts);
//! let mut found = Vec::new();
//! tree.range_query(&[4.0, 0.0], &[10.0, 6.0], |_, &name, id| found.push((name, id)));
//! found.sort_by_key(|&(name, _)| name);
//! assert_eq!(found.iter().map(|&(name, _)| name).collect::<Vec<_>>(), ["b", "c"]);
//! // A deactivated entry drops out of every later query.
//! tree.deactivate(found[0].1);
//! let mut left: Vec<&str> = Vec::new();
//! tree.range_query(&[4.0, 0.0], &[10.0, 6.0], |_, &name, _| left.push(name));
//! assert_eq!(left, ["c"]);
//! assert_eq!(tree.point(found[1].1), &[9.0, 1.0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Stable handle to an entry of a [`KdTree`], usable for [`KdTree::deactivate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryId(usize);

#[derive(Debug, Clone)]
struct Node<const K: usize, T> {
    point: [f64; K],
    data: T,
    left: Option<usize>,
    right: Option<usize>,
    axis: usize,
    active: bool,
    /// Number of active entries in this subtree (for early pruning).
    active_count: usize,
}

/// A balanced k-d tree over points in `R^K` with payloads of type `T`.
///
/// The tree is bulk-built with median splits, giving `O(log n)` expected
/// query paths. Points are never moved after the build; deletion is lazy
/// ([`KdTree::deactivate`]) and subtrees with no active entries are pruned
/// during traversal via per-node active counters — the access pattern of
/// E-BLOW's clustering loop, where every merged character leaves the pool.
#[derive(Debug, Clone)]
pub struct KdTree<const K: usize, T> {
    nodes: Vec<Node<K, T>>,
    root: Option<usize>,
}

impl<const K: usize, T> Default for KdTree<K, T> {
    fn default() -> Self {
        KdTree {
            nodes: Vec::new(),
            root: None,
        }
    }
}

impl<const K: usize, T> KdTree<K, T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-builds a balanced tree from `(point, payload)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is NaN.
    pub fn build(items: Vec<([f64; K], T)>) -> Self {
        for (p, _) in &items {
            assert!(p.iter().all(|c| !c.is_nan()), "NaN coordinate");
        }
        let mut nodes: Vec<Node<K, T>> = items
            .into_iter()
            .map(|(point, data)| Node {
                point,
                data,
                left: None,
                right: None,
                axis: 0,
                active: true,
                active_count: 1,
            })
            .collect();
        let mut order: Vec<usize> = (0..nodes.len()).collect();
        let root = Self::build_rec(&mut nodes, &mut order, 0);
        let mut tree = KdTree { nodes, root };
        if let Some(r) = tree.root {
            tree.recount(r);
        }
        tree
    }

    fn build_rec(nodes: &mut [Node<K, T>], order: &mut [usize], depth: usize) -> Option<usize> {
        if order.is_empty() {
            return None;
        }
        let axis = depth % K;
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            nodes[a].point[axis]
                // audit:allow(nan-unsafe-sort): build() panics on NaN points up front, so the comparator can never observe one
                .partial_cmp(&nodes[b].point[axis])
                .expect("NaN rejected at build")
        });
        let root = order[mid];
        nodes[root].axis = axis;
        let (lo, rest) = order.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = Self::build_rec(nodes, lo, depth + 1);
        let right = Self::build_rec(nodes, hi, depth + 1);
        nodes[root].left = left;
        nodes[root].right = right;
        Some(root)
    }

    fn recount(&mut self, idx: usize) -> usize {
        let (l, r) = (self.nodes[idx].left, self.nodes[idx].right);
        let mut c = usize::from(self.nodes[idx].active);
        if let Some(l) = l {
            c += self.recount(l);
        }
        if let Some(r) = r {
            c += self.recount(r);
        }
        self.nodes[idx].active_count = c;
        c
    }

    /// Total number of entries (active and inactive).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tree has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Lazily removes an entry; it will no longer be reported by queries.
    ///
    /// Counters along the root-to-node path are decremented in `O(log n)`;
    /// when duplicate split keys make the path ambiguous, the counters are
    /// rebuilt by a full recount (correct, costlier, rare).
    pub fn deactivate(&mut self, id: EntryId) {
        if !self.nodes[id.0].active {
            return;
        }
        self.nodes[id.0].active = false;
        let target = self.nodes[id.0].point;
        let mut cur = self.root;
        while let Some(i) = cur {
            self.nodes[i].active_count -= 1;
            if i == id.0 {
                return;
            }
            let axis = self.nodes[i].axis;
            cur = if target[axis] < self.nodes[i].point[axis] {
                self.nodes[i].left
            } else if target[axis] > self.nodes[i].point[axis] {
                self.nodes[i].right
            } else {
                // Ambiguous path on equal keys: recount from scratch.
                if let Some(r) = self.root {
                    self.recount(r);
                }
                return;
            };
        }
        // Node unreachable by comparisons (duplicates): recount everything.
        if let Some(r) = self.root {
            self.recount(r);
        }
    }

    /// Visits every active entry with `lo[d] ≤ point[d] ≤ hi[d]` for all
    /// dimensions. The visitor receives the point, payload, and handle.
    pub fn range_query<F: FnMut(&[f64; K], &T, EntryId)>(
        &self,
        lo: &[f64; K],
        hi: &[f64; K],
        mut visit: F,
    ) {
        if let Some(root) = self.root {
            self.range_rec(root, lo, hi, &mut visit);
        }
    }

    fn range_rec<F: FnMut(&[f64; K], &T, EntryId)>(
        &self,
        idx: usize,
        lo: &[f64; K],
        hi: &[f64; K],
        visit: &mut F,
    ) {
        let node = &self.nodes[idx];
        if node.active_count == 0 {
            return;
        }
        let axis = node.axis;
        if node.active && (0..K).all(|d| lo[d] <= node.point[d] && node.point[d] <= hi[d]) {
            visit(&node.point, &node.data, EntryId(idx));
        }
        if let Some(l) = node.left {
            if lo[axis] <= node.point[axis] {
                self.range_rec(l, lo, hi, visit);
            }
        }
        if let Some(r) = node.right {
            if hi[axis] >= node.point[axis] {
                self.range_rec(r, lo, hi, visit);
            }
        }
    }

    /// Payload of an entry.
    pub fn data(&self, id: EntryId) -> &T {
        &self.nodes[id.0].data
    }

    /// Point of an entry.
    pub fn point(&self, id: EntryId) -> &[f64; K] {
        &self.nodes[id.0].point
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid5() -> Vec<([f64; 2], usize)> {
        let mut pts = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                pts.push(([i as f64, j as f64], i * 5 + j));
            }
        }
        pts
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let pts = grid5();
        let tree = KdTree::build(pts.clone());
        let lo = [1.0, 2.0];
        let hi = [3.0, 4.0];
        let mut got: Vec<usize> = Vec::new();
        tree.range_query(&lo, &hi, |_, &v, _| got.push(v));
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .filter(|(p, _)| (0..2).all(|d| lo[d] <= p[d] && p[d] <= hi[d]))
            .map(|&(_, v)| v)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    /// Payloads of the active entries in the box `[lo, hi]`, sorted.
    fn in_box<const K: usize, T: Copy + Ord>(
        tree: &KdTree<K, T>,
        lo: &[f64; K],
        hi: &[f64; K],
    ) -> Vec<T> {
        let mut got = Vec::new();
        tree.range_query(lo, hi, |_, &v, _| got.push(v));
        got.sort_unstable();
        got
    }

    #[test]
    fn deactivation_hides_entries() {
        let tree_data = vec![([1.0, 1.0], 'a'), ([2.0, 2.0], 'b'), ([3.0, 3.0], 'c')];
        let mut tree = KdTree::build(tree_data);
        let mut hits = Vec::new();
        tree.range_query(&[2.0, 2.0], &[2.0, 2.0], |_, _, id| hits.push(id));
        let [id_b] = hits[..] else {
            panic!("one entry at (2, 2), got {hits:?}")
        };
        tree.deactivate(id_b);
        assert!(in_box(&tree, &[2.0, 2.0], &[2.0, 2.0]).is_empty());
        assert_eq!(in_box(&tree, &[0.0, 0.0], &[4.0, 4.0]), vec!['a', 'c']);
        // Deactivating twice is a no-op.
        tree.deactivate(id_b);
        assert_eq!(in_box(&tree, &[0.0, 0.0], &[4.0, 4.0]), vec!['a', 'c']);
    }

    #[test]
    fn empty_and_single() {
        let tree: KdTree<3, u8> = KdTree::new();
        assert!(tree.is_empty());
        assert!(in_box(&tree, &[0.0; 3], &[1.0; 3]).is_empty());

        let tree = KdTree::build(vec![([1.0, 2.0, 3.0], 42)]);
        assert_eq!(in_box(&tree, &[0.0; 3], &[3.0; 3]), vec![42]);
        assert!(in_box(&tree, &[0.0; 3], &[1.0; 3]).is_empty());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn duplicate_points_survive_deactivation() {
        let mut tree = KdTree::build(vec![([1.0, 1.0], 0), ([1.0, 1.0], 1), ([1.0, 1.0], 2)]);
        let mut ids = Vec::new();
        tree.range_query(&[1.0, 1.0], &[1.0, 1.0], |_, _, id| ids.push(id));
        assert_eq!(ids.len(), 3);
        tree.deactivate(ids[0]);
        tree.deactivate(ids[1]);
        assert_eq!(in_box(&tree, &[0.0, 0.0], &[2.0, 2.0]).len(), 1);
    }

    #[test]
    fn handles_give_access_to_data_and_points() {
        let tree = KdTree::build(vec![([7.0, 8.0], "x")]);
        let mut ids = Vec::new();
        tree.range_query(&[7.0, 8.0], &[7.0, 8.0], |_, _, id| ids.push(id));
        assert_eq!(*tree.data(ids[0]), "x");
        assert_eq!(tree.point(ids[0]), &[7.0, 8.0]);
    }

    #[test]
    fn five_dimensional_clustering_shape() {
        // The E-BLOW clustering uses (w, h, s_h, s_v, profit) boxes.
        let items: Vec<([f64; 5], usize)> = (0..100)
            .map(|i| {
                let f = i as f64;
                ([40.0 + f % 7.0, 40.0, 5.0 + f % 3.0, 5.0, 100.0 + f], i)
            })
            .collect();
        let tree = KdTree::build(items.clone());
        let center = [42.0, 40.0, 6.0, 5.0, 150.0];
        let lo: [f64; 5] = std::array::from_fn(|d| center[d] * 0.8);
        let hi: [f64; 5] = std::array::from_fn(|d| center[d] * 1.2);
        let mut got = 0;
        tree.range_query(&lo, &hi, |_, _, _| got += 1);
        let want = items
            .iter()
            .filter(|(p, _)| (0..5).all(|d| lo[d] <= p[d] && p[d] <= hi[d]))
            .count();
        assert_eq!(got, want);
        assert!(got > 0);
    }
}
