//! 2DOSP scenario: a stencil mixing complex via-array characters with
//! regular wire characters — the motivating workload for 2D stencil
//! planning (paper §1: "stencil can contain both complex via patterns and
//! regular wires"). Runs the full E-BLOW 2D pipeline and inspects the
//! clustering and the final floorplan.
//!
//! ```sh
//! cargo run --release --example via_layer_2d
//! ```

use eblow::model::{Character, Instance, Stencil};
use eblow::planner::baselines::greedy_2d;
use eblow::planner::twod::Eblow2d;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build a via/wire mix by hand: tall thin wire characters and squat
    // dense via arrays, with different blank requirements.
    let mut chars = Vec::new();
    let mut repeats = Vec::new();
    for i in 0..120u64 {
        if i % 3 == 0 {
            // Via array: square, shot-hungry (one shot per via in VSB).
            chars.push(Character::new(44, 44, [6, 6, 6, 6], 60 + i % 40)?);
            repeats.push(vec![4 + i % 9, 2 + i % 5]);
        } else {
            // Wire segment: wide and flat, cheap in VSB.
            chars.push(Character::new(60, 24, [4, 4, 3, 3], 6 + i % 10)?);
            repeats.push(vec![1 + i % 4, 1 + i % 3]);
        }
    }
    let instance = Instance::new(Stencil::new(320, 320)?, chars, repeats)?;
    println!(
        "via/wire instance: {} candidates on a {}×{} stencil, 2 regions",
        instance.num_chars(),
        instance.stencil().width(),
        instance.stencil().height()
    );

    // Greedy baseline (no blank sharing).
    let greedy = greedy_2d(&instance)?;
    println!(
        "greedy : {} placed, T = {}",
        greedy.selection.count(),
        greedy.total_time
    );

    // E-BLOW: its pack nodes are few enough to anneal on the faithful
    // sequence-pair engine.
    let plan = Eblow2d::default().plan(&instance)?;
    plan.placement.validate(&instance)?;
    println!(
        "E-BLOW : {} placed, T = {} ({:.2}× better), {:?}",
        plan.selection.count(),
        plan.total_time,
        greedy.total_time as f64 / plan.total_time.max(1) as f64,
        plan.elapsed
    );

    // Floorplan summary: bounding box and a coarse occupancy picture.
    let (used_w, used_h) = plan.placement.used_bbox(&instance);
    println!("floorplan bounding box: {used_w}×{used_h}");
    let mut vias = 0;
    let mut wires = 0;
    for pc in plan.placement.placed() {
        if instance.char(pc.id.index()).height() > 30 {
            vias += 1;
        } else {
            wires += 1;
        }
    }
    println!("on stencil: {vias} via arrays, {wires} wire segments");
    Ok(())
}
