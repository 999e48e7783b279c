//! Maximum-weight bipartite matching (Hungarian algorithm).
//!
//! E-BLOW's post-insertion stage (paper §3.5, Fig. 8) inserts unselected
//! characters into stencil rows under the constraint "at most one insertion
//! per row", modelled as a maximum weighted matching on the bipartite graph
//! (characters × rows) with edge weight = the character's profit. This crate
//! implements the `O(n·m²)` shortest-augmenting-path Hungarian method with
//! dual potentials, supporting:
//!
//! * rectangular instances (any number of left/right vertices);
//! * forbidden edges (`None` weight);
//! * *partial* matchings — a vertex stays unmatched when every incident
//!   edge is forbidden or has negative weight (matching it would lower the
//!   total).
//!
//! # Example
//!
//! ```
//! use eblow_matching::max_weight_matching;
//!
//! // Characters a, b, c; rows 0, 1. `a` fits both rows, `c` only row 1.
//! let w = vec![
//!     vec![Some(5.0), Some(5.0)],
//!     vec![Some(4.0), Some(3.0)],
//!     vec![None, Some(9.0)],
//! ];
//! let m = max_weight_matching(&w);
//! assert_eq!(m.pairs, vec![Some(0), None, Some(1)]); // a→row0, c→row1
//! assert!((m.total - 14.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Result of a matching computation.
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    /// `pairs[l] = Some(r)` when left vertex `l` is matched to right
    /// vertex `r`.
    pub pairs: Vec<Option<usize>>,
    /// Total weight of the matching.
    pub total: f64,
}

impl Matching {
    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.iter().flatten().count()
    }

    /// `true` when nothing is matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Computes a maximum-weight (not necessarily perfect) matching.
///
/// `weights[l][r]` is the weight of edge `(l, r)`; `None` forbids the edge.
/// Negative-weight edges are never used (leaving a vertex unmatched weighs
/// `0`), matching the post-insertion semantics where an insertion with no
/// benefit is simply skipped.
///
/// # Panics
///
/// Panics if `weights` is ragged or contains NaN.
pub fn max_weight_matching(weights: &[Vec<Option<f64>>]) -> Matching {
    let nl = weights.len();
    if nl == 0 {
        return Matching {
            pairs: Vec::new(),
            total: 0.0,
        };
    }
    let nr = weights[0].len();
    for row in weights {
        assert_eq!(row.len(), nr, "ragged weight matrix");
        for w in row.iter().flatten() {
            assert!(!w.is_nan(), "NaN weight");
        }
    }

    // Reduce to square min-cost assignment of size n = nl, columns
    // nr + nl: real columns cost −w (forbidden/negative → dummy), plus one
    // dummy column per left vertex with cost 0 (= stay unmatched).
    let m = nr + nl;
    let big = 1e18;
    let cost = |l: usize, c: usize| -> f64 {
        if c < nr {
            match weights[l][c] {
                Some(w) if w > 0.0 => -w,
                _ => big,
            }
        } else if c - nr == l {
            0.0 // private dummy: leave l unmatched
        } else {
            big
        }
    };

    // Jonker-Volgenant-style shortest augmenting paths with potentials
    // (1-indexed internals, the classic formulation).
    let inf = f64::INFINITY;
    let mut u = vec![0.0f64; nl + 1];
    let mut v = vec![0.0f64; m + 1];
    let mut p = vec![0usize; m + 1]; // p[j] = row matched to column j
    let mut way = vec![0usize; m + 1];
    for i in 1..=nl {
        p[0] = i;
        let mut j0 = 0usize;
        let mut minv = vec![inf; m + 1];
        let mut used = vec![false; m + 1];
        loop {
            used[j0] = true;
            let i0 = p[j0];
            let mut delta = inf;
            let mut j1 = 0usize;
            for j in 1..=m {
                if !used[j] {
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
            }
            for j in 0..=m {
                if used[j] {
                    u[p[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if p[j0] == 0 {
                break;
            }
        }
        loop {
            let j1 = way[j0];
            p[j0] = p[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }

    let mut pairs = vec![None; nl];
    let mut total = 0.0;
    for j in 1..=nr {
        let i = p[j];
        if i != 0 {
            if let Some(w) = weights[i - 1][j - 1] {
                if w > 0.0 {
                    pairs[i - 1] = Some(j - 1);
                    total += w;
                }
            }
        }
    }
    Matching { pairs, total }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force(weights: &[Vec<Option<f64>>]) -> f64 {
        // Exponential enumeration over left-to-right assignments.
        fn rec(weights: &[Vec<Option<f64>>], l: usize, used: &mut Vec<bool>) -> f64 {
            if l == weights.len() {
                return 0.0;
            }
            let mut best = rec(weights, l + 1, used); // leave l unmatched
            for (r, w) in weights[l].iter().enumerate() {
                if let Some(w) = w {
                    if *w > 0.0 && !used[r] {
                        used[r] = true;
                        best = best.max(w + rec(weights, l + 1, used));
                        used[r] = false;
                    }
                }
            }
            best
        }
        let nr = weights.first().map_or(0, |r| r.len());
        rec(weights, 0, &mut vec![false; nr])
    }

    fn check_valid(weights: &[Vec<Option<f64>>], m: &Matching) {
        let mut seen = std::collections::HashSet::new();
        let mut total = 0.0;
        for (l, r) in m.pairs.iter().enumerate() {
            if let Some(r) = r {
                assert!(seen.insert(*r), "right vertex matched twice");
                let w = weights[l][*r].expect("matched a forbidden edge");
                assert!(w > 0.0, "matched a non-positive edge");
                total += w;
            }
        }
        assert!((total - m.total).abs() < 1e-9);
    }

    #[test]
    fn doc_example() {
        let w = vec![
            vec![Some(5.0), Some(5.0)],
            vec![Some(4.0), Some(3.0)],
            vec![None, Some(9.0)],
        ];
        let m = max_weight_matching(&w);
        check_valid(&w, &m);
        assert!((m.total - 14.0).abs() < 1e-9);
        assert_eq!(m.pairs, vec![Some(0), None, Some(1)]);
    }

    #[test]
    fn empty_inputs() {
        let m = max_weight_matching(&[]);
        assert!(m.is_empty());
        let w: Vec<Vec<Option<f64>>> = vec![vec![], vec![]];
        let m = max_weight_matching(&w);
        assert_eq!(m.pairs, vec![None, None]);
        assert_eq!(m.total, 0.0);
    }

    #[test]
    fn negative_edges_left_unmatched() {
        let w = vec![vec![Some(-3.0), Some(2.0)], vec![Some(-1.0), Some(-2.0)]];
        let m = max_weight_matching(&w);
        check_valid(&w, &m);
        assert_eq!(m.pairs, vec![Some(1), None]);
        assert!((m.total - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_forbidden() {
        let w = vec![vec![None, None], vec![None, None]];
        let m = max_weight_matching(&w);
        assert_eq!(m.len(), 0);
        assert_eq!(m.total, 0.0);
    }

    #[test]
    fn rectangular_more_rows_than_cols() {
        let w = vec![vec![Some(1.0)], vec![Some(5.0)], vec![Some(3.0)]];
        let m = max_weight_matching(&w);
        check_valid(&w, &m);
        assert_eq!(m.pairs, vec![None, Some(0), None]);
        assert!((m.total - 5.0).abs() < 1e-9);
    }

    #[test]
    fn classic_assignment() {
        // Square instance with a known optimum.
        let w = vec![
            vec![Some(7.0), Some(5.0), Some(11.0)],
            vec![Some(5.0), Some(4.0), Some(1.0)],
            vec![Some(9.0), Some(3.0), Some(2.0)],
        ];
        let m = max_weight_matching(&w);
        check_valid(&w, &m);
        // 11 + 4 + 9 = 24
        assert!((m.total - 24.0).abs() < 1e-9, "total {}", m.total);
    }

    #[test]
    fn matches_brute_force_on_pseudorandom_instances() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..60 {
            let nl = 1 + (next() % 5) as usize;
            let nr = 1 + (next() % 5) as usize;
            let w: Vec<Vec<Option<f64>>> = (0..nl)
                .map(|_| {
                    (0..nr)
                        .map(|_| {
                            let r = next() % 10;
                            if r < 2 {
                                None
                            } else {
                                Some((next() % 41) as f64 - 8.0)
                            }
                        })
                        .collect()
                })
                .collect();
            let m = max_weight_matching(&w);
            check_valid(&w, &m);
            let bf = brute_force(&w);
            assert!(
                (m.total - bf).abs() < 1e-9,
                "trial {trial}: hungarian {} vs brute {bf} on {w:?}",
                m.total
            );
        }
    }
}
