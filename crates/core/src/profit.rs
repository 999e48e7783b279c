//! Dynamic profits (paper Eqn. (6)) and incremental writing-time tracking.
//!
//! All planners share one accounting structure, [`RegionTimes`]: the current
//! per-region writing times `t_c` under a partial selection. The dynamic
//! profit of a candidate is
//!
//! ```text
//! profit_i = Σ_c (t_c / t_max) · (n_i − 1) · t_ic          (Eqn. 6)
//! ```
//!
//! which weights each region by how close it is to being the bottleneck —
//! the mechanism by which E-BLOW balances MCC regions.
//!
//! The tracker is *sparse and incremental*: select/deselect touch only the
//! regions where the candidate's `t_ic > 0` (via the instance's CSR view,
//! [`Instance::sparse_row`]), and the running maximum `t_max` is maintained
//! alongside (value + count of regions attaining it) instead of re-scanned,
//! so [`RegionTimes::total`] is O(1) and [`RegionTimes::profit`] is
//! O(nnz_i). A full O(P) re-scan only happens when a select drains the last
//! region at the maximum.

use eblow_model::Instance;

/// Full O(P) bottleneck re-scans forced by a select draining the last
/// at-max region (counter `region.rescan`). The rescan-to-select ratio is
/// the health metric of the incremental-max design.
static RESCANS: eblow_trace::Counter = eblow_trace::Counter::new("region.rescan");

/// Incrementally tracked per-region writing times for a partial selection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionTimes {
    times: Vec<u64>,
    /// Current `max_c t_c`.
    max: u64,
    /// Number of regions with `t_c == max` (invariant: ≥ 1 for non-empty
    /// `times`; both fields are derived from `times`, so derived equality
    /// stays consistent).
    at_max: usize,
}

/// Fixed lane width of the dense sweeps below: 8×u64 fills a cache line,
/// and a fixed-size accumulator array is what lets the compiler keep the
/// whole reduction in vector lanes instead of a serial cmp chain.
const LANES: usize = 8;

/// Maximum of a dense time slice, swept in [`LANES`]-wide chunks.
fn slice_max(times: &[u64]) -> u64 {
    let mut lanes = [0u64; LANES];
    let mut chunks = times.chunks_exact(LANES);
    for ch in chunks.by_ref() {
        for l in 0..LANES {
            lanes[l] = lanes[l].max(ch[l]);
        }
    }
    let tail = chunks.remainder().iter().copied().fold(0u64, u64::max);
    lanes.into_iter().fold(tail, u64::max)
}

/// `(max, #regions at max)` of a dense time slice — the bottleneck re-scan,
/// as two [`LANES`]-chunked passes (a lane-wide max, then a lane-wide
/// equality count) instead of one branchy combined scan.
fn max_and_count(times: &[u64]) -> (u64, usize) {
    let max = slice_max(times);
    let mut count = 0usize;
    let mut chunks = times.chunks_exact(LANES);
    for ch in chunks.by_ref() {
        let mut c = 0usize;
        for l in 0..LANES {
            c += usize::from(ch[l] == max);
        }
        count += c;
    }
    count += chunks.remainder().iter().filter(|&&t| t == max).count();
    (max, count)
}

impl RegionTimes {
    fn from_times(times: Vec<u64>) -> Self {
        let (max, at_max) = max_and_count(&times);
        RegionTimes { times, max, at_max }
    }

    /// Starts from the empty selection (pure-VSB times).
    pub fn new(instance: &Instance) -> Self {
        RegionTimes::from_times(instance.vsb_times().to_vec())
    }

    /// Starts from an existing selection.
    pub fn from_selection(instance: &Instance, selection: &eblow_model::Selection) -> Self {
        RegionTimes::from_times(instance.writing_times(selection))
    }

    /// Accounts for character `i` being put on the stencil. Touches only
    /// the regions with `t_ic > 0`.
    pub fn select(&mut self, instance: &Instance, i: usize) {
        for e in instance.sparse_row(i) {
            if e.reduction == 0 {
                continue;
            }
            let c = e.region as usize;
            let old = self.times[c];
            self.times[c] = old - e.reduction;
            if old == self.max {
                self.at_max -= 1;
            }
        }
        if self.at_max == 0 {
            // The last bottleneck region just dropped: one O(P) re-scan.
            RESCANS.incr();
            (self.max, self.at_max) = max_and_count(&self.times);
        }
    }

    /// Accounts for character `i` being removed from the stencil. Touches
    /// only the regions with `t_ic > 0`; the maximum can only grow, so no
    /// re-scan is ever needed.
    // audit:allow(stop-flag-reachability): O(nnz) sparse-row update — this IS the hot path; a poll here would cost more than it saves
    pub fn deselect(&mut self, instance: &Instance, i: usize) {
        for e in instance.sparse_row(i) {
            if e.reduction == 0 {
                continue;
            }
            let c = e.region as usize;
            let old = self.times[c];
            let new = old + e.reduction;
            self.times[c] = new;
            if old == self.max {
                self.at_max -= 1;
            }
            if new > self.max {
                self.max = new;
                self.at_max = 1;
            } else if new == self.max {
                self.at_max += 1;
            }
        }
    }

    /// Current per-region times `t_c`.
    pub fn times(&self) -> &[u64] {
        &self.times
    }

    /// Current system writing time `max_c t_c` — O(1), maintained
    /// incrementally by select/deselect.
    #[inline]
    pub fn total(&self) -> u64 {
        self.max
    }

    /// Change in the system writing time if `out` were replaced by `in_`
    /// (negative = improvement). Either may be `None` for pure
    /// insert/remove deltas.
    ///
    /// Sparse in the common case: the system time is a *max*, so the
    /// untouched regions' contribution is exactly `self.max` whenever at
    /// least one region attaining the max is untouched — and `at_max` is
    /// already maintained. The fast path therefore walks only the two
    /// candidates' sparse entries, counting how many of them sit on at-max
    /// regions; unless the swap touches *every* bottleneck region (rare —
    /// it forces the dense sweep below), the delta is
    /// `max(self.max, adjusted entries) − self.max` with no dense scan at
    /// all.
    // audit:allow(stop-flag-reachability): O(nnz) sparse merge (O(P) dense fallback) — this IS the hot path; a poll here would cost more than it saves
    pub fn swap_delta(&self, instance: &Instance, out: Option<usize>, in_: Option<usize>) -> i64 {
        let empty: &[eblow_model::SparseRepeat] = &[];
        let out_row = out.map_or(empty, |o| instance.sparse_row(o));
        let in_row = in_.map_or(empty, |i| instance.sparse_row(i));
        let len = self.times.len();
        {
            let mut oi = 0usize;
            let mut ii = 0usize;
            let mut adj_max = i64::MIN;
            let mut max_hits = 0usize;
            while oi < out_row.len() || ii < in_row.len() {
                let next_o = out_row.get(oi).map_or(len, |e| e.region as usize);
                let next_i = in_row.get(ii).map_or(len, |e| e.region as usize);
                let c = next_o.min(next_i);
                let mut t = self.times[c] as i64;
                if next_o == c {
                    t += out_row[oi].reduction as i64;
                    oi += 1;
                }
                if next_i == c {
                    t -= in_row[ii].reduction as i64;
                    ii += 1;
                }
                max_hits += usize::from(self.times[c] == self.max);
                adj_max = adj_max.max(t);
            }
            if max_hits < self.at_max {
                // Some untouched region still carries the max: the new
                // system time is exactly max(old max, adjusted regions).
                return (self.max as i64).max(adj_max) - self.max as i64;
            }
        }
        let mut oi = 0usize;
        let mut ii = 0usize;
        let mut new_max = 0i64;
        let mut c = 0usize;
        while c < len {
            let next_o = out_row.get(oi).map_or(len, |e| e.region as usize);
            let next_i = in_row.get(ii).map_or(len, |e| e.region as usize);
            let next = next_o.min(next_i).min(len);
            if next > c {
                // Untouched run: a pure dense max.
                new_max = new_max.max(slice_max(&self.times[c..next]) as i64);
                c = next;
                continue;
            }
            // An adjusted region (one or both rows have an entry here).
            let mut t = self.times[c] as i64;
            if next_o == c {
                t += out_row[oi].reduction as i64;
                oi += 1;
            }
            if next_i == c {
                t -= in_row[ii].reduction as i64;
                ii += 1;
            }
            new_max = new_max.max(t);
            c += 1;
        }
        new_max - self.max as i64
    }

    /// The system writing time if selected character `v` were removed —
    /// O(nnz_v) and always exact: a removal only *raises* region times, so
    /// the new maximum is `max(current max, raised entries)` with no dense
    /// scan. The swap pass leans on this: inserting the candidate once
    /// into a scratch tracker turns every swap probe into one call here.
    pub fn removed_total(&self, instance: &Instance, v: usize) -> u64 {
        let mut m = self.max;
        for e in instance.sparse_row(v) {
            m = m.max(self.times[e.region as usize] + e.reduction);
        }
        m
    }

    /// Dynamic profit of candidate `i` per Eqn. (6).
    ///
    /// Returns 0 when every region is already at writing time 0. Iterates
    /// only the candidate's nonzero regions; the per-term arithmetic is the
    /// dense formula's exactly (`(t_c/t_max) · (n_i − 1) · t_ic`, in that
    /// association), so values are bit-identical to a dense recompute.
    pub fn profit(&self, instance: &Instance, i: usize) -> f64 {
        let t_max = self.max;
        if t_max == 0 {
            return 0.0;
        }
        let saving = instance.char(i).shot_saving() as f64;
        let mut p = 0.0;
        for e in instance.sparse_row(i) {
            p += (self.times[e.region as usize] as f64 / t_max as f64) * saving * e.repeats as f64;
        }
        p
    }

    /// Dynamic profits for every candidate (Eqn. (6)), in one pass.
    pub fn profits(&self, instance: &Instance) -> Vec<f64> {
        let mut out = Vec::new();
        self.profits_into(instance, &mut out);
        out
    }

    /// Fills `out` with the dynamic profits of every candidate, reusing its
    /// allocation. The per-region weights `t_c / t_max` are computed once,
    /// so the whole sweep is O(P + Σ_i nnz_i) with `P` divisions total.
    ///
    /// This is the all-candidate sweep (the 2D pipeline's pricing pass and
    /// anything else needing every profit at once). The 1D rounding loop
    /// deliberately does *not* use it: its unsolved set shrinks every
    /// iteration, so per-item [`RegionTimes::profit`] over the survivors
    /// is the cheaper shape there.
    pub fn profits_into(&self, instance: &Instance, out: &mut Vec<f64>) {
        out.clear();
        let t_max = self.max;
        if t_max == 0 {
            out.resize(instance.num_chars(), 0.0);
            return;
        }
        // Hoisting the weight is bit-exact: the division result is
        // identical whether computed per term or once per region.
        let weights: Vec<f64> = self
            .times
            .iter()
            .map(|&t| t as f64 / t_max as f64)
            .collect();
        out.extend((0..instance.num_chars()).map(|i| {
            let saving = instance.char(i).shot_saving() as f64;
            let mut p = 0.0;
            for e in instance.sparse_row(i) {
                p += weights[e.region as usize] * saving * e.repeats as f64;
            }
            p
        }));
    }
}

/// Static profit: total writing-time reduction `Σ_c R_ic`, the
/// region-agnostic profit used by the single-CP baselines.
pub fn static_profit(instance: &Instance, i: usize) -> f64 {
    instance.total_reduction(i) as f64
}

/// Static profits for all candidates.
pub fn static_profits(instance: &Instance) -> Vec<f64> {
    (0..instance.num_chars())
        .map(|i| static_profit(instance, i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_model::{Character, Selection, Stencil};

    fn inst() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 11).unwrap(), // saving 10
            Character::new(40, 40, [5, 5, 5, 5], 3).unwrap(),  // saving 2
        ];
        // region 0: t = [4, 1]; region 1: t = [0, 8]
        let repeats = vec![vec![4, 0], vec![1, 8]];
        Instance::new(Stencil::with_rows(100, 40, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn select_deselect_roundtrip() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        let t0 = rt.times().to_vec();
        rt.select(&inst, 0);
        assert_ne!(rt.times(), &t0[..]);
        rt.deselect(&inst, 0);
        assert_eq!(rt.times(), &t0[..]);
        assert_eq!(rt, RegionTimes::new(&inst), "max tracking restored too");
    }

    #[test]
    fn matches_instance_accounting() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        rt.select(&inst, 1);
        let sel = Selection::from_indices(2, [1]);
        assert_eq!(rt.times(), &inst.writing_times(&sel)[..]);
        assert_eq!(rt.total(), inst.total_writing_time(&sel));
    }

    #[test]
    fn incremental_max_matches_rescan_under_churn() {
        // Deterministic churn over a wider instance: after every operation
        // the tracked max (and the whole struct) must equal a fresh
        // recompute from the selection.
        let chars: Vec<Character> = (0..12)
            .map(|i| Character::new(30, 40, [3, 3, 0, 0], 2 + (i % 7) as u64).unwrap())
            .collect();
        let repeats: Vec<Vec<u64>> = (0..12)
            .map(|i| {
                (0..5)
                    .map(|c| {
                        if (i + c) % 3 == 0 {
                            (i * c % 9) as u64
                        } else {
                            0
                        }
                    })
                    .collect()
            })
            .collect();
        let inst = Instance::new(Stencil::with_rows(500, 40, 40).unwrap(), chars, repeats).unwrap();
        let mut rt = RegionTimes::new(&inst);
        let mut sel = Selection::none(12);
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let i = (state % 12) as usize;
            if sel.contains(i) {
                sel.remove(i);
                rt.deselect(&inst, i);
            } else {
                sel.insert(i);
                rt.select(&inst, i);
            }
            assert_eq!(rt, RegionTimes::from_selection(&inst, &sel));
            assert_eq!(rt.total(), inst.total_writing_time(&sel));
        }
    }

    #[test]
    fn profit_weights_bottleneck_region() {
        let inst = inst();
        let rt = RegionTimes::new(&inst);
        // T_vsb: region0 = 4*11 + 1*3 = 47; region1 = 0 + 8*3 = 24.
        assert_eq!(rt.times(), &[47, 24]);
        // char 0 only appears in region 0 (the bottleneck): full weight.
        let p0 = rt.profit(&inst, 0);
        assert!((p0 - (47.0 / 47.0) * 10.0 * 4.0).abs() < 1e-12);
        // char 1: weighted mix of both regions.
        let p1 = rt.profit(&inst, 1);
        let expect = (47.0 / 47.0) * 2.0 * 1.0 + (24.0 / 47.0) * 2.0 * 8.0;
        assert!((p1 - expect).abs() < 1e-12);
    }

    #[test]
    fn profits_into_matches_per_candidate_profit_bitwise() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        rt.select(&inst, 0);
        let mut buf = vec![1.0, 2.0, 3.0]; // stale content must be cleared
        rt.profits_into(&inst, &mut buf);
        assert_eq!(buf.len(), 2);
        for i in 0..2 {
            assert_eq!(buf[i].to_bits(), rt.profit(&inst, i).to_bits());
        }
        assert_eq!(rt.profits(&inst), buf);
    }

    #[test]
    fn swap_delta_matches_recompute() {
        let inst = inst();
        let mut rt = RegionTimes::new(&inst);
        rt.select(&inst, 0);
        let delta = rt.swap_delta(&inst, Some(0), Some(1));
        let before = rt.total() as i64;
        rt.deselect(&inst, 0);
        rt.select(&inst, 1);
        assert_eq!(rt.total() as i64 - before, delta);
    }

    #[test]
    fn static_profit_sums_regions() {
        let inst = inst();
        assert_eq!(static_profit(&inst, 0), 40.0); // 10*(4+0)
        assert_eq!(static_profit(&inst, 1), 18.0); // 2*(1+8)
        assert_eq!(static_profits(&inst), vec![40.0, 18.0]);
    }

    #[test]
    fn zero_time_instance_has_zero_profits() {
        let chars = vec![Character::new(10, 10, [1, 1, 1, 1], 5).unwrap()];
        let inst = Instance::new(Stencil::new(100, 100).unwrap(), chars, vec![vec![0]]).unwrap();
        let rt = RegionTimes::new(&inst);
        assert_eq!(rt.total(), 0);
        assert_eq!(rt.profit(&inst, 0), 0.0);
        assert_eq!(rt.profits(&inst), vec![0.0]);
    }
}
