//! A discrete simulator of the MCC writing process.
//!
//! The paper's objective (Eqn. (1)) is an *analytic* formula for the system
//! writing time. This module independently derives that time by actually
//! simulating the write: each CP walks its region's pattern list shot by
//! shot — one CP shot per repetition of an on-stencil character, `n_i` VSB
//! shots per repetition of an off-stencil character — and the column that
//! finishes last determines the system time. Agreement between
//! [`simulate_writing`] and [`Instance::writing_times`] is property-tested,
//! so the analytic accounting used by every planner is backed by an
//! executable model of the machine.
//!
//! The simulator also reports per-column shot breakdowns, which the
//! examples use to visualize how stencil selection shifts work from the
//! VSB path to the CP path.

use crate::{Instance, Selection};

/// Per-region outcome of a simulated write.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnReport {
    /// Shots fired through the character projection path.
    pub cp_shots: u64,
    /// Shots fired through the VSB path.
    pub vsb_shots: u64,
    /// Total shots = writing time of this column (1 shot = 1 time unit).
    pub total: u64,
}

/// Full outcome of a simulated MCC write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReport {
    /// One report per wafer region (column).
    pub columns: Vec<ColumnReport>,
}

impl WriteReport {
    /// System writing time: the slowest column (the MCC bottleneck).
    pub fn system_time(&self) -> u64 {
        self.columns.iter().map(|c| c.total).max().unwrap_or(0)
    }

    /// Fraction of all shots that went through the CP path (a throughput
    /// quality indicator: higher = the stencil is doing more work).
    pub fn cp_fraction(&self) -> f64 {
        let cp: u64 = self.columns.iter().map(|c| c.cp_shots).sum();
        let total: u64 = self.columns.iter().map(|c| c.total).sum();
        if total == 0 {
            0.0
        } else {
            cp as f64 / total as f64
        }
    }
}

/// Simulates writing every region of `instance` with the given stencil
/// `selection`, shot by shot.
///
/// # Panics
///
/// Panics if the selection length does not match the instance.
pub fn simulate_writing(instance: &Instance, selection: &Selection) -> WriteReport {
    assert_eq!(
        selection.len(),
        instance.num_chars(),
        "selection must cover every candidate"
    );
    let mut columns = vec![ColumnReport::default(); instance.num_regions()];
    for i in 0..instance.num_chars() {
        let on_stencil = selection.contains(i);
        for e in instance.sparse_row(i) {
            let column = &mut columns[e.region as usize];
            if on_stencil {
                // Each repetition prints in a single CP flash.
                column.cp_shots += e.repeats;
            } else {
                // Each repetition is fractured into n_i VSB rectangles.
                column.vsb_shots += e.repeats * instance.char(i).vsb_shots();
            }
        }
    }
    for column in &mut columns {
        column.total = column.cp_shots + column.vsb_shots;
    }
    WriteReport { columns }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Character, Stencil};

    fn instance() -> Instance {
        let chars = vec![
            Character::new(40, 40, [5, 5, 5, 5], 12).unwrap(),
            Character::new(30, 40, [4, 6, 5, 5], 4).unwrap(),
            Character::new(50, 40, [2, 2, 5, 5], 7).unwrap(),
        ];
        let repeats = vec![vec![3, 0], vec![1, 5], vec![2, 2]];
        Instance::new(Stencil::with_rows(200, 80, 40).unwrap(), chars, repeats).unwrap()
    }

    #[test]
    fn simulation_matches_analytic_formula() {
        let inst = instance();
        for mask in 0u8..8 {
            let sel = Selection::from_indices(3, (0..3).filter(|i| (mask >> i) & 1 == 1));
            let report = simulate_writing(&inst, &sel);
            let analytic = inst.writing_times(&sel);
            let simulated: Vec<u64> = report.columns.iter().map(|c| c.total).collect();
            assert_eq!(simulated, analytic, "mask {mask:03b}");
            assert_eq!(report.system_time(), inst.total_writing_time(&sel));
        }
    }

    #[test]
    fn empty_selection_is_pure_vsb() {
        let inst = instance();
        let report = simulate_writing(&inst, &Selection::none(3));
        assert!(report.columns.iter().all(|c| c.cp_shots == 0));
        assert_eq!(report.cp_fraction(), 0.0);
    }

    #[test]
    fn full_selection_is_pure_cp() {
        let inst = instance();
        let report = simulate_writing(&inst, &Selection::all(3));
        assert!(report.columns.iter().all(|c| c.vsb_shots == 0));
        assert!((report.cp_fraction() - 1.0).abs() < 1e-12);
        // CP shots = total repetitions per region.
        assert_eq!(report.columns[0].cp_shots, 3 + 1 + 2);
        assert_eq!(report.columns[1].cp_shots, 5 + 2);
    }

    #[test]
    fn cp_fraction_monotone_in_selection() {
        let inst = instance();
        let none = simulate_writing(&inst, &Selection::none(3)).cp_fraction();
        let some = simulate_writing(&inst, &Selection::from_indices(3, [0])).cp_fraction();
        let all = simulate_writing(&inst, &Selection::all(3)).cp_fraction();
        assert!(none <= some && some <= all);
    }
}
