//! Criterion benches live in `benches/`, one per paper experiment or
//! layer:
//!
//! | bench | measures |
//! |---|---|
//! | `bench_table3` | Table 3's CPU column: the 1DOSP planners on 1D-1 and 1M-1 |
//! | `bench_table4` | Table 4's CPU column and the 2D clustering ablation |
//! | `bench_table5` | Table 5's tiny exact cases: E-BLOW, brute force, one ILP solve |
//! | `bench_figs` | Figs. 11/12 (E-BLOW-0 vs E-BLOW-1) and the rounding loop of Figs. 5/6 |
//! | `bench_hotpaths` | the hot loops named in `AUDIT_hotpaths.txt`, on a 1H-sized instance |
//! | `bench_substrates` | simplex, LP oracle, refinement DP, KD-tree, matching, packers |

#![forbid(unsafe_code)]
