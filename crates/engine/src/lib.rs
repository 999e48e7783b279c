//! **eblow-engine** — the parallel portfolio-planning subsystem of the
//! E-BLOW workspace.
//!
//! The paper evaluates five-plus planners (exact ILP, the E-BLOW
//! LP-rounding flows, and greedy/heuristic baselines); this crate turns
//! that planner zoo into one production front door:
//!
//! * [`Strategy`] — an object-safe trait wrapping every 1D/2D planner
//!   behind a single `plan(&Instance, &Budget) -> PlanOutcome` call, plus a
//!   [`registry`](crate::strategy) of all built-in strategies by name.
//! * [`Budget`] — a wall-clock deadline plus a shared cooperative stop
//!   flag. Every planner in `eblow-core` polls the flag at loop boundaries
//!   and finishes a *valid* plan early when it is raised, so cancellation
//!   is anytime, not best-effort.
//! * [`Portfolio`] — races selected strategies across OS threads under the
//!   deadline, validates every returned plan against the model, and picks
//!   the minimum-writing-time valid plan. Per-strategy reports record who
//!   finished, who was cancelled, and who won.
//! * [`Planner`] — the front door: races the portfolio on one instance
//!   and serves repeated requests from an
//!   [`InstanceDigest`](eblow_model::InstanceDigest)-keyed LRU plan cache.
//! * [`Shard1dStrategy`] — the sharded composite `shard1d` for huge 1D
//!   instances, outside the default race and built by name: split into
//!   per-region / per-row-band sub-instances, race each shard in
//!   parallel, stitch the sub-plans back into one validated placement.
//!
//! Concurrency has one level: one OS thread per raced strategy, and the
//! shared stop flag that ends them all at the deadline. Planners
//! themselves are single-threaded. (`shard1d`, when named, adds one
//! thread per shard, each racing its own inner portfolio.)
//!
//! # Quickstart
//!
//! ```
//! use eblow_engine::{Planner, PortfolioConfig};
//! use std::time::Duration;
//!
//! let instance = eblow_gen::generate(&eblow_gen::GenConfig::tiny_1d(7));
//! let planner = Planner::portfolio()
//!     .with_config(PortfolioConfig {
//!         deadline: Some(Duration::from_secs(5)),
//!         ..Default::default()
//!     });
//! let outcome = planner.plan(&instance);
//! let best = outcome.best.expect("some strategy produced a valid plan");
//! println!("winner: {} at T_total = {}", best.strategy, best.total_time);
//! for report in &outcome.reports {
//!     println!("  {report}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod cache;
mod outcome;
mod planner;
mod portfolio;
mod shard;
pub mod strategy;

pub use budget::Budget;
pub use cache::{CacheStats, LruCache, PlanCacheKey};
pub use outcome::{EngineError, PlanDetail, PlanOutcome};
pub use planner::Planner;
pub use portfolio::{Portfolio, PortfolioConfig, PortfolioOutcome, StrategyReport, StrategyStatus};
pub use shard::Shard1dStrategy;
pub use strategy::{builtin_strategies, strategy_by_name, Strategy, BASELINE_RACE_GATE};
