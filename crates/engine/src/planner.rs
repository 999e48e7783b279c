//! The unified [`Planner`] front door.

use crate::cache::{CacheStats, LruCache, PlanCacheKey};
use crate::outcome::PlanOutcome;
use crate::portfolio::{Portfolio, PortfolioConfig, PortfolioOutcome};
use eblow_model::Instance;
use eblow_trace as trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Plan-cache hits (counter `planner.cache.hit`).
static CACHE_HITS: trace::Counter = trace::Counter::new("planner.cache.hit");
/// Plan-cache misses (counter `planner.cache.miss`).
static CACHE_MISSES: trace::Counter = trace::Counter::new("planner.cache.miss");
/// Races whose result was *not* cached because the race was degraded by a
/// deadline (counter `planner.cache.degraded_skip`).
static CACHE_DEGRADED_SKIPS: trace::Counter = trace::Counter::new("planner.cache.degraded_skip");

/// The unified planning front door.
///
/// A `Planner` bundles a strategy [`Portfolio`], a [`PortfolioConfig`]
/// (deadline + ILP cap), and a digest-keyed LRU plan cache.
/// [`Planner::plan`] races the portfolio on one instance; a queue is a
/// loop over `plan`, and the cache serves its repeats.
///
/// The cache key is the instance's content digest *plus* a fingerprint of
/// the strategy set, so planners configured with different portfolios never
/// serve each other's plans.
pub struct Planner {
    portfolio: Portfolio,
    config: PortfolioConfig,
    cache: Mutex<LruCache<PlanCacheKey, PlanOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Planner {
    /// A planner racing the built-in line-up
    /// ([`Portfolio::all_builtin`]), with an unbounded deadline and a
    /// 1024-entry plan cache.
    pub fn portfolio() -> Self {
        Planner::with_portfolio(Portfolio::all_builtin())
    }

    /// A planner over an explicit portfolio.
    pub fn with_portfolio(portfolio: Portfolio) -> Self {
        Planner {
            portfolio,
            config: PortfolioConfig::default(),
            cache: Mutex::new(LruCache::new(1024)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Sets the race configuration (deadline, ILP cap).
    pub fn with_config(mut self, config: PortfolioConfig) -> Self {
        self.config = config;
        self
    }

    /// Cumulative cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn cache_key(&self, instance: &Instance) -> PlanCacheKey {
        PlanCacheKey::new(instance, self.portfolio.names())
    }

    /// Races the portfolio on one instance, serving and populating the
    /// plan cache.
    pub fn plan(&self, instance: &Instance) -> PortfolioOutcome {
        let key = self.cache_key(instance);
        if let Some(cached) = self.cache.lock().expect("cache lock").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            CACHE_HITS.incr();
            trace::instant("planner.cache.hit", 0, 0);
            return PortfolioOutcome {
                best: Some(cached.clone()),
                reports: Vec::new(),
                elapsed: std::time::Duration::ZERO,
                // The cached plan proves at least one strategy supported
                // the instance when it was first raced.
                supported: 1,
                early_exit: false,
            };
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        CACHE_MISSES.incr();
        trace::instant("planner.cache.miss", 0, 0);
        let outcome = self.portfolio.run(instance, &self.config);
        // Deadline-degraded races are not cached: a later request under
        // less load deserves a fresh, full-quality race, not a permanently
        // pinned partial answer.
        if outcome.complete() {
            if let Some(best) = &outcome.best {
                self.cache
                    .lock()
                    .expect("cache lock")
                    .insert(key, best.clone());
            }
        } else {
            CACHE_DEGRADED_SKIPS.incr();
            trace::instant("planner.cache.degraded_skip", 0, 0);
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblow_gen::GenConfig;

    fn quick_planner() -> Planner {
        Planner::with_portfolio(Portfolio::of_names(["greedy1d", "rowheur1d"]).unwrap())
    }

    #[test]
    fn second_plan_of_same_instance_hits_the_cache() {
        let planner = quick_planner();
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(30));
        let first = planner.plan(&inst);
        let second = planner.plan(&inst);
        assert_eq!(planner.cache_stats().hits, 1);
        assert_eq!(planner.cache_stats().misses, 1);
        assert_eq!(
            first.best.unwrap().total_time,
            second.best.unwrap().total_time
        );
        assert!(second.reports.is_empty(), "cache hits skip the race");
    }

    /// A plain planner's cache key is the instance digest plus the
    /// fingerprint of the eight raced names, pinned so stored keys stay
    /// valid. Changing the race line-up changes it by design; the pinned
    /// value was checked against an independent FNV-1a computation over
    /// the names, each terminated by 0xFF.
    #[test]
    fn portfolio_cache_key_is_byte_stable() {
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(1));
        let key = Planner::portfolio().cache_key(&inst);
        assert_eq!(key.digest, inst.digest());
        assert_eq!(key.portfolio_fingerprint, 0xb1b2_bf65_1f82_0f35);
    }

    /// A strategy that spins until the deadline cancels it, then returns a
    /// valid (greedy) plan — guaranteeing the race ends with a `Cancelled`
    /// report.
    struct SleepUntilCancelled;

    impl crate::Strategy for SleepUntilCancelled {
        fn name(&self) -> &'static str {
            "sleepy"
        }
        fn supports(&self, _instance: &Instance) -> bool {
            true
        }
        fn plan(
            &self,
            instance: &Instance,
            budget: &crate::Budget,
        ) -> Result<PlanOutcome, crate::EngineError> {
            while !budget.is_cancelled() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let plan = eblow_core::baselines::greedy_1d(instance)?;
            Ok(PlanOutcome::from_1d(self.name(), plan))
        }
    }

    #[test]
    fn deadline_degraded_races_are_not_cached() {
        let planner = Planner::with_portfolio(crate::Portfolio::new(vec![std::sync::Arc::new(
            SleepUntilCancelled,
        )]))
        .with_config(crate::PortfolioConfig {
            deadline: Some(std::time::Duration::from_millis(20)),
            ..Default::default()
        });
        let inst = eblow_gen::generate(&GenConfig::tiny_1d(33));
        let first = planner.plan(&inst);
        assert!(!first.complete(), "sleepy must be reported Cancelled");
        assert!(first.best.is_some(), "it still returns a valid plan");
        let second = planner.plan(&inst);
        assert!(
            !second.reports.is_empty(),
            "degraded result must not be served from the cache"
        );
        assert_eq!(planner.cache_stats().hits, 0);
        assert_eq!(planner.cache_stats().misses, 2);
    }
}
