//! Comparison baselines from the paper's evaluation (Tables 3 and 4).
//!
//! * [`greedy_1d`] — "Greedy in \[24\]": profit-sorted first-fit into row
//!   ends, no ordering optimization, no MCC balancing.
//! * [`heuristic_1d`] — the two-step framework of \[24\]: character selection
//!   first (knapsack-style on aggregate capacity), then per-row ordering by
//!   a travelling-salesman-flavoured chain heuristic with 2-opt passes.
//!   The paper reports it ~22× slower than E-BLOW; here each reversal is
//!   priced in `O(1)` and it runs in about a tenth of E-BLOW's time.
//! * [`row_heuristic_1d`] — a deterministic row-structure approach in the
//!   spirit of Kuang & Young \[25\]: density-sorted row fill under the exact
//!   Lemma 1 capacity, blank-descending in-row order, and a greedy top-up.
//!   Very fast; strong on single-CP cases, weaker on MCC balance (it
//!   optimizes total rather than maximal writing time, as the paper notes
//!   when adapting \[25\] to MCC).
//! * [`greedy_2d`] — "Greedy in \[24\]" for 2DOSP: density-sorted shelf
//!   packing **without** blank sharing.
//! * [`sa_2d`] — the floorplanning framework of \[24\]: the same SA packing
//!   as E-BLOW but with no pre-filter and no clustering (every candidate is
//!   its own node). The paper reports it ~28× slower at 4000 candidates;
//!   here both anneal on the shelf engine above 400 nodes, and it runs in
//!   about 1.2× E-BLOW's time.

mod greedy1d;
mod greedy2d;
mod heuristic1d;
mod rowheur;
mod sa2d;

pub use greedy1d::{greedy_1d, greedy_1d_with_stop};
pub use greedy2d::{greedy_2d, greedy_2d_with_stop};
pub use heuristic1d::{heuristic_1d, heuristic_1d_with_stop, Heuristic1dConfig};
pub use rowheur::{row_heuristic_1d, row_heuristic_1d_with_stop};
pub use sa2d::{sa_2d, sa_2d_with_stop, Sa2dConfig};
