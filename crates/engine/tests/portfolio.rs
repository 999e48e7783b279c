//! Engine acceptance tests: determinism against direct planner calls,
//! portfolio-race dominance, and plan-cache behaviour across repeated
//! queues.

use eblow_engine::{
    strategy_by_name, Budget, EngineError, PlanOutcome, Planner, Portfolio, PortfolioConfig,
    Strategy, StrategyStatus,
};
use eblow_gen::GenConfig;
use eblow_model::Instance;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same seed + single strategy through the engine ≡ the direct planner
/// call: the Strategy wrapper adds no nondeterminism.
#[test]
fn single_strategy_matches_direct_planner_call() {
    let inst1 = eblow_gen::generate(&GenConfig::tiny_1d(77));
    let direct1 = eblow_core::oned::Eblow1d::default().plan(&inst1).unwrap();
    let via1 = strategy_by_name("eblow1d")
        .unwrap()
        .plan(&inst1, &Budget::unlimited())
        .unwrap();
    assert_eq!(via1.total_time, direct1.total_time);
    assert_eq!(via1.selection, direct1.selection);
    assert_eq!(via1.region_times, direct1.region_times);

    let inst2 = eblow_gen::generate(&GenConfig::tiny_2d(77));
    let direct2 = eblow_core::twod::Eblow2d::default().plan(&inst2).unwrap();
    let via2 = strategy_by_name("eblow2d")
        .unwrap()
        .plan(&inst2, &Budget::unlimited())
        .unwrap();
    assert_eq!(via2.total_time, direct2.total_time);
    assert_eq!(via2.selection, direct2.selection);
}

/// A single-strategy portfolio race is also deterministic run over run.
#[test]
fn single_strategy_portfolio_is_deterministic() {
    let inst = eblow_gen::generate(&GenConfig::tiny_1d(78));
    let portfolio = Portfolio::of_names(["eblow1d"]).unwrap();
    let a = portfolio.run(&inst, &PortfolioConfig::default());
    let b = portfolio.run(&inst, &PortfolioConfig::default());
    assert_eq!(
        a.best.as_ref().unwrap().total_time,
        b.best.as_ref().unwrap().total_time
    );
    assert_eq!(a.best.unwrap().selection, b.best.unwrap().selection);
}

/// Every registered name, raced or by name only (`eblow1d-0`, `ilp1d`,
/// `ilp2d`, `greedy2d`, `shard1d` and the `eblow1d` alias). Listed here
/// rather than read from the registry, so a strategy taken out of the race
/// is still checked against it.
const REGISTERED: [&str; 14] = [
    "eblow1d@combinatorial",
    "eblow1d@simplex",
    "eblow1d-0",
    "heuristic1d",
    "rowheur1d",
    "greedy1d",
    "exact1d",
    "eblow2d",
    "sa2d",
    "ilp1d",
    "ilp2d",
    "greedy2d",
    "shard1d",
    "eblow1d",
];

/// The portfolio's winning time is ≤ the solo time of every registered
/// strategy that supports the instance, on both 1D and 2D instances. On
/// `tiny_1d` seeds 1, 2, 7, 70 and 89 one 1D member produces the best plan
/// alone (`eblow1d@combinatorial`, `eblow1d@simplex`, `eblow1d-0`,
/// `rowheur1d` and `heuristic1d` respectively), so taking any of them out
/// of the race fails here.
#[test]
fn race_result_dominates_every_individual_strategy() {
    let instances = [1u64, 2, 3, 7, 70, 89]
        .map(GenConfig::tiny_1d)
        .into_iter()
        .chain([1u64, 2, 3].map(GenConfig::tiny_2d));
    for config in instances {
        let seed = config.seed;
        let inst = eblow_gen::generate(&config);
        let outcome = Portfolio::all_builtin().run(&inst, &PortfolioConfig::default());
        let best = outcome.best.as_ref().expect("portfolio found a plan");
        best.validate(&inst).unwrap();
        for name in REGISTERED {
            let strategy = strategy_by_name(name).unwrap_or_else(|| panic!("{name} unregistered"));
            if !strategy.supports(&inst) {
                continue;
            }
            let solo = strategy.plan(&inst, &Budget::unlimited()).unwrap();
            assert!(
                best.total_time <= solo.total_time,
                "portfolio {} > {} of {name} (seed {seed})",
                best.total_time,
                solo.total_time
            );
        }
    }
}

/// A deadline race must still return valid plans, and per-strategy reports
/// must cover every portfolio member.
#[test]
fn deadline_race_reports_every_member() {
    let inst = eblow_gen::generate(&GenConfig::tiny_1d(79));
    let portfolio = Portfolio::all_builtin();
    let config = PortfolioConfig {
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let outcome = portfolio.run(&inst, &config);
    assert_eq!(outcome.reports.len(), portfolio.strategies().len());
    let winners = outcome
        .reports
        .iter()
        .filter(|r| r.status == StrategyStatus::Won)
        .count();
    assert_eq!(winners, 1, "exactly one winner");
    outcome.best.unwrap().validate(&inst).unwrap();
}

/// Both LP backends of the 1D pipeline are registry-selectable, race in
/// one portfolio, and hand back validating plans on the (tiny) reference
/// instances where the dense simplex applies.
#[test]
fn lp_backend_variants_race_and_both_produce_valid_plans() {
    let portfolio = Portfolio::of_names(["eblow1d@combinatorial", "eblow1d@simplex"]).unwrap();
    for k in 1..=5u8 {
        let inst = eblow_gen::benchmark(eblow_gen::Family::T1(k));
        let outcome = portfolio.run(&inst, &PortfolioConfig::default());
        outcome
            .best
            .as_ref()
            .expect("a valid plan")
            .validate(&inst)
            .unwrap();
        for report in &outcome.reports {
            assert!(
                report.status.has_plan(),
                "1T-{k}: {} did not produce a plan: {report}",
                report.name
            );
            assert!(matches!(
                report.name,
                "eblow1d@combinatorial" | "eblow1d@simplex"
            ));
        }
    }
}

/// The acceptance gate for the stop-flag bugfix: a race over the *entire*
/// registry (rowheur/greedy included) on the 4000-candidate instance that
/// used to blow its deadline must return within deadline + 200 ms, with a
/// valid best plan.
#[test]
fn full_registry_race_returns_within_deadline_margin() {
    let inst = eblow_gen::benchmark(eblow_gen::Family::M1(5));
    let deadline = Duration::from_secs(3);
    let config = PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    };
    let outcome = Portfolio::all_builtin().run(&inst, &config);
    // The production margin is 200 ms and is gated strictly by CI in a
    // dedicated process (`eblow-eval portfolio --assert-within-ms 200`).
    // Inside `cargo test` this binary's other tests run concurrently, so
    // the racers' wind-down competes for cores with sibling tests — give
    // scheduling jitter headroom here while still catching the bug class
    // (the pre-fix overshoot was 1.5–2 s).
    assert!(
        outcome.elapsed <= deadline + Duration::from_millis(750),
        "race took {:?} against a {deadline:?} deadline",
        outcome.elapsed
    );
    let best = outcome.best.as_ref().expect("a valid plan under deadline");
    best.validate(&inst).unwrap();
    // Every supporting strategy must have returned a plan or a clean
    // failure — no strategy may simply be missing.
    assert_eq!(
        outcome.reports.len(),
        Portfolio::all_builtin().strategies().len()
    );
}

/// A deliberately slow portfolio member: parks until the race's stop flag
/// rises (or a 20 s cap), then answers with greedy's plan. Racing it
/// proves an early return happened because of the optimality certificate,
/// not because every member happened to finish fast.
struct Slowpoke;

impl Strategy for Slowpoke {
    fn name(&self) -> &'static str {
        "slowpoke1d"
    }
    fn supports(&self, instance: &Instance) -> bool {
        instance.num_rows().is_ok()
    }
    fn plan(&self, instance: &Instance, budget: &Budget) -> Result<PlanOutcome, EngineError> {
        let start = Instant::now();
        while !budget.is_cancelled() && start.elapsed() < Duration::from_secs(20) {
            std::thread::sleep(Duration::from_millis(2));
        }
        strategy_by_name("greedy1d").unwrap().plan(instance, budget)
    }
}

/// Optimality-aware early exit: when the exact solver returns a
/// proven-optimal plan, the race must raise the stop flag and return
/// immediately instead of waiting out slower siblings (pre-change, this
/// race burned Slowpoke's full 20 s). The early-exited race still counts
/// as complete — nothing can beat a certificate.
/// Small enough that `exact1d` certifies optimality in milliseconds even
/// in debug builds — the early-exit latency assertion must measure the
/// race's reaction time, not the solver's throughput.
fn early_exit_instance(seed: u64) -> eblow_model::Instance {
    eblow_gen::generate(&GenConfig {
        n_chars: 12,
        n_regions: 1,
        ..GenConfig::tiny_1d(seed)
    })
}

#[test]
fn proven_optimal_plan_short_circuits_the_race() {
    let inst = early_exit_instance(83);
    let portfolio = Portfolio::new(vec![
        Arc::new(Slowpoke),
        strategy_by_name("exact1d").unwrap(),
    ]);
    let config = PortfolioConfig {
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    };
    let start = Instant::now();
    let outcome = portfolio.run(&inst, &config);
    let elapsed = start.elapsed();
    assert!(
        outcome.early_exit,
        "certificate must trigger the early exit"
    );
    assert!(outcome.complete(), "early-exited race is still complete");
    assert!(
        elapsed < Duration::from_secs(10),
        "race took {elapsed:?}; the certificate should cut Slowpoke's 20 s wait short"
    );
    let best = outcome.best.as_ref().expect("exact1d plan");
    assert_eq!(best.strategy, "exact1d");
    assert!(best.proven_optimal);
    best.validate(&inst).unwrap();
    let slow = outcome
        .reports
        .iter()
        .find(|r| r.name == "slowpoke1d")
        .unwrap();
    assert!(slow.cancelled, "the certificate cancelled the sibling");
}

/// An early-exited race is cacheable: the sibling cancellations it caused
/// do not trip the never-cache-degraded rule, so the second request is a
/// pure cache hit with the same (optimal) plan.
#[test]
fn planner_caches_early_exited_races() {
    let inst = early_exit_instance(84);
    let planner = Planner::with_portfolio(Portfolio::new(vec![
        Arc::new(Slowpoke),
        strategy_by_name("exact1d").unwrap(),
    ]))
    .with_config(PortfolioConfig {
        deadline: Some(Duration::from_secs(30)),
        ..Default::default()
    });
    let first = planner.plan(&inst);
    assert!(first.early_exit);
    let second = planner.plan(&inst);
    let stats = planner.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (1, 1),
        "early-exited race must be cached"
    );
    assert_eq!(
        first.best.as_ref().unwrap().total_time,
        second.best.as_ref().unwrap().total_time
    );
    assert_eq!(second.best.unwrap().strategy, "exact1d");
}

/// The default race on every 1T case ends on `exact1d`'s certificate:
/// early exit, the brute-force optimum, and far inside the deadline
/// (under 1 s even in debug builds, against a 3 s deadline).
#[test]
fn default_race_certifies_1t_cases_early() {
    let planner = Planner::portfolio().with_config(PortfolioConfig {
        deadline: Some(Duration::from_secs(3)),
        ..Default::default()
    });
    for k in 1..=5u8 {
        let inst = eblow_gen::benchmark(eblow_gen::Family::T1(k));
        let start = Instant::now();
        let outcome = planner.plan(&inst);
        let elapsed = start.elapsed();
        assert!(outcome.early_exit, "1T-{k}: no early exit");
        let best = outcome.best.as_ref().expect("a valid plan");
        assert_eq!(
            best.total_time,
            eblow_hardness::brute_force_min_row(&inst),
            "1T-{k}"
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "1T-{k}: race took {elapsed:?}"
        );
    }
}

/// No member holds a tiny 2D race open: every 2T race ends far inside its
/// deadline (under 1 s even in debug builds, against 3 s). Racing without
/// `ilp2d` and `greedy2d` loses nothing: on 2T-1, where `ilp2d` proves its
/// optimum, the race finds the same `T`; on 2T-2..4 its `T` is ≤ the `T`
/// of each by-name 2D strategy run alone under the same deadline.
#[test]
fn default_race_ends_2t_races_early() {
    let deadline = Duration::from_secs(3);
    let planner = Planner::portfolio().with_config(PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    });
    for k in 1..=4u8 {
        let inst = eblow_gen::benchmark(eblow_gen::Family::T2(k));
        let start = Instant::now();
        let outcome = planner.plan(&inst);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "2T-{k}: race took {elapsed:?}"
        );
        let best = outcome.best.as_ref().expect("a valid plan");
        best.validate(&inst).unwrap();
        for name in ["ilp2d", "greedy2d"] {
            let strategy = strategy_by_name(name).unwrap();
            if !strategy.supports(&inst) {
                continue;
            }
            let solo = strategy
                .plan(&inst, &Budget::with_deadline(deadline))
                .unwrap();
            if k == 1 && name == "ilp2d" {
                assert!(solo.proven_optimal, "ilp2d proves 2T-1");
                assert_eq!(best.total_time, solo.total_time, "2T-1");
            } else {
                assert!(
                    best.total_time <= solo.total_time,
                    "2T-{k}: race {} > {} of {name}",
                    best.total_time,
                    solo.total_time
                );
            }
        }
    }
}

/// A second `plan` pass over the same mixed 1D/2D queue is served
/// entirely from the cache and agrees with the first pass.
#[test]
fn second_pass_over_a_queue_hits_the_cache() {
    let planner = Planner::with_portfolio(
        Portfolio::of_names(["greedy1d", "rowheur1d", "greedy2d"]).unwrap(),
    );
    let queue: Vec<_> = (0..3)
        .map(|s| eblow_gen::generate(&GenConfig::tiny_1d(90 + s)))
        .chain((0..2).map(|s| eblow_gen::generate(&GenConfig::tiny_2d(90 + s))))
        .collect();
    let n = queue.len() as u64;

    let first: Vec<PlanOutcome> = queue
        .iter()
        .map(|inst| planner.plan(inst).best.expect("a valid plan"))
        .collect();
    let stats = planner.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, n));

    let second: Vec<PlanOutcome> = queue
        .iter()
        .map(|inst| planner.plan(inst).best.expect("a cached plan"))
        .collect();
    let stats = planner.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (n, n),
        "pass 2 must be all hits"
    );

    for ((inst, a), b) in queue.iter().zip(&first).zip(&second) {
        b.validate(inst).unwrap();
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.strategy, b.strategy);
    }
}

/// Six characters of width `W/2 + 1` on a stencil `W` wide (`W` near
/// `u64::MAX`), two rows, one region. Every junction shares at least 1 µm
/// of blank, so two characters fit a row and three never do: the optimum
/// is 4 characters, `T = 2·5 + 4 = 14`, and `T_VSB = 30`.
fn huge_width_instance(width: u64) -> Instance {
    let chars = (0..6u64)
        .map(|i| eblow_model::Character::new(width / 2 + 1, 40, [1 + i % 2, 3, 0, 0], 5).unwrap())
        .collect();
    let stencil = eblow_model::Stencil::with_rows(width, 80, 40).unwrap();
    Instance::new(stencil, chars, vec![vec![1]; 6]).unwrap()
}

/// Row widths past `u64::MAX` read as "does not fit" on every admission
/// path: each raced 1D member and `eblow1d-0` returns a plan that
/// validates, `exact1d` certifies the optimum, and the validator refuses a
/// row whose true width overflows instead of saturating it to `W`.
#[test]
fn huge_widths_plan_validly_and_overflowing_rows_fail_validation() {
    // `greedy1d` ignores blank sharing, so it places one character a row.
    let expected = [
        ("eblow1d@combinatorial", 14),
        ("eblow1d@simplex", 14),
        ("eblow1d-0", 14),
        ("heuristic1d", 14),
        ("rowheur1d", 14),
        ("greedy1d", 22),
        ("exact1d", 14),
    ];
    for width in [u64::MAX, u64::MAX - 10] {
        let inst = huge_width_instance(width);
        assert_eq!(inst.vsb_times(), &[30]);
        for (name, total) in expected {
            let outcome = strategy_by_name(name)
                .unwrap()
                .plan(&inst, &Budget::unlimited())
                .unwrap_or_else(|e| panic!("{name} at W = {width}: {e}"));
            outcome
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{name} at W = {width}: {e}"));
            assert_eq!(outcome.total_time, total, "{name} at W = {width}");
        }
        let exact = strategy_by_name("exact1d")
            .unwrap()
            .plan(&inst, &Budget::unlimited())
            .unwrap();
        assert!(exact.proven_optimal, "exact1d at W = {width}");
        let row = |ids: &[usize]| {
            eblow_model::Row::from_order(
                ids.iter().map(|&i| eblow_model::CharId::from(i)).collect(),
            )
        };
        let fits = eblow_model::Placement1d::from_rows(vec![row(&[0, 1]), row(&[2, 3])]);
        fits.validate(&inst).unwrap();
        let overfull = eblow_model::Placement1d::from_rows(vec![row(&[0, 1, 2]), row(&[3])]);
        assert!(
            overfull.validate(&inst).is_err(),
            "a three-character row overflows u64 at W = {width}"
        );
    }
}
