//! Portfolio planning end-to-end: race the whole planner zoo on generated
//! 1D and 2D instances under a wall-clock deadline, then demonstrate the
//! digest-keyed plan cache on a repeated queue.
//!
//! ```sh
//! cargo run --release --example portfolio
//! ```

use eblow::engine::{Planner, Portfolio, PortfolioConfig};
use eblow::gen::GenConfig;
use std::time::Duration;

fn main() {
    let deadline = Duration::from_secs(10);
    let config = PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    };

    // ---- a 1D (row-structured) and a 2D (free-form) instance ------------
    let inst_1d = eblow::gen::generate(&GenConfig::tiny_1d(2024));
    let inst_2d = eblow::gen::generate(&GenConfig::tiny_2d(2024));

    let portfolio = Portfolio::all_builtin();
    println!(
        "racing {} registered strategies, deadline {:.0}s per instance",
        portfolio.strategies().len(),
        deadline.as_secs_f64()
    );

    for (label, inst) in [("1D", &inst_1d), ("2D", &inst_2d)] {
        println!();
        println!(
            "== {label} instance: {} candidates, {} regions, stencil {}x{} ==",
            inst.num_chars(),
            inst.num_regions(),
            inst.stencil().width(),
            inst.stencil().height()
        );
        let outcome = portfolio.run(inst, &config);
        let best = outcome.best.as_ref().expect("a valid plan");
        best.validate(inst)
            .expect("portfolio plans always validate");
        println!(
            "winner: {} with T_total = {} ({} characters on stencil, race took {:.3}s)",
            best.strategy,
            best.total_time,
            best.selection.count(),
            outcome.elapsed.as_secs_f64()
        );
        println!("per-strategy report:");
        for report in &outcome.reports {
            println!("  {report}");
        }
    }

    // ---- racing LP oracle backends of the same pipeline -----------------
    // The 1D pipeline's LP relaxation is a pluggable backend
    // (`eblow::planner::oned::LpOracle`); each backend registers as its own
    // strategy, so the portfolio cross-checks them in one race.
    println!();
    println!("== LP backend race: eblow1d@combinatorial vs eblow1d@simplex ==");
    let backends =
        Portfolio::of_names(["eblow1d@combinatorial", "eblow1d@simplex"]).expect("registry names");
    let outcome = backends.run(&inst_1d, &config);
    for report in &outcome.reports {
        println!("  {report}");
    }
    println!(
        "winner: {} (both backends must produce valid plans; their LP \
         objectives agree within tolerance — see `eblow-eval agree`)",
        outcome.winner().expect("a winner")
    );

    // ---- a repeated queue through the digest-keyed plan cache ----------
    println!();
    println!("== queue planning with plan cache ==");
    let planner = Planner::with_portfolio(Portfolio::all_builtin()).with_config(config);
    let queue: Vec<_> = (0..3)
        .map(|s| eblow::gen::generate(&GenConfig::tiny_1d(3000 + s)))
        .chain((0..2).map(|s| eblow::gen::generate(&GenConfig::tiny_2d(3000 + s))))
        .collect();

    // Pass 2 must be served entirely from the cache, with pass 1's plans.
    let mut first_pass: Vec<(&str, u64)> = Vec::new();
    for pass in 1..=2 {
        let started = std::time::Instant::now();
        let hits_before = planner.cache_stats().hits;
        for (index, inst) in queue.iter().enumerate() {
            let best = planner.plan(inst).best.expect("a valid plan");
            println!(
                "  instance {index}: {} T_total={}",
                best.strategy, best.total_time
            );
            let plan = (best.strategy, best.total_time);
            if pass == 1 {
                first_pass.push(plan);
            } else {
                assert_eq!(plan, first_pass[index], "cached plan differs from pass 1");
            }
        }
        let stats = planner.cache_stats();
        let hits = stats.hits - hits_before;
        println!(
            "pass {pass}: {} instances in {:.3}s — {hits} served from cache \
             (cumulative: {} hits / {} misses, hit ratio {:.0}%)",
            queue.len(),
            started.elapsed().as_secs_f64(),
            stats.hits,
            stats.misses,
            stats.hit_ratio() * 100.0
        );
        if pass == 2 {
            assert_eq!(hits, queue.len() as u64, "pass 2 must be all cache hits");
        }
    }
}
