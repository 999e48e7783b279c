//! `eblow-eval` — regenerates every table and figure of the paper's
//! evaluation (§5) on the synthetic benchmark suite.
//!
//! ```text
//! eblow-eval table3                 Table 3  (1DOSP comparison)
//! eblow-eval table4                 Table 4  (2DOSP comparison)
//! eblow-eval table5 [--ilp-limit-s S]   Table 5 (exact ILP vs E-BLOW)
//! eblow-eval fig5                   Fig. 5   (unsolved chars per LP iteration)
//! eblow-eval fig6                   Fig. 6   (last-LP value histogram)
//! eblow-eval fig11                  Fig. 11  (E-BLOW-0 vs E-BLOW-1 writing time)
//! eblow-eval fig12                  Fig. 12  (E-BLOW-0 vs E-BLOW-1 runtime)
//! eblow-eval portfolio [--deadline-s S] [--case NAME] [--assert-within-ms N]
//!                                   engine portfolio race on the suites
//!                                   (optionally one case — the huge 1H-1
//!                                   and 1H-2 race only when named —
//!                                   optionally failing the process if a
//!                                   race misses its deadline by more than
//!                                   the margin or produces no valid plan)
//! eblow-eval agree [--tol-rel X]    cross-check the LP oracle backends:
//!                                   objectives must agree within X
//!                                   relative (default 0.05) on the
//!                                   reference instances, and both
//!                                   backends' rounded plans must validate
//! eblow-eval shard [--deadline-s S] [--case NAME]
//!                  [--assert-no-worse-than-monolithic] [--assert-within-ms N]
//!                                   sharded (shard1d) vs monolithic
//!                                   planning on the huge 1H-1 case
//!                                   under equal deadlines; optionally
//!                                   failing the process if the stitched
//!                                   plan is worse than the monolithic
//!                                   race's or misses the deadline margin
//! eblow-eval bench [--deadline-s S] [--out PATH] [--case NAME] [--rev LABEL]
//!                                   races the engine on the 1T/1M/1H/2H
//!                                   case families (3 s deadline each by
//!                                   default) and writes a machine-readable
//!                                   BENCH_<rev>.json trajectory artifact
//!                                   (per-case writing time, wall-clock,
//!                                   winning strategy)
//! eblow-eval bench-diff OLD.json NEW.json [--max-regress-pct N]
//!                                   compares two bench artifacts
//!                                   and fails on any per-case writing-time
//!                                   or wall-clock regression beyond N
//!                                   percent (default 25); cases missing
//!                                   from NEW fail, extra cases inform
//! eblow-eval trace [--case NAME] [--deadline-s S] [--out-dir DIR]
//!                                   races the full portfolio on one case
//!                                   (default 1H-1) with the flight
//!                                   recorder at Level::Full, writes
//!                                   TRACE_<case>.jsonl and
//!                                   TRACE_<case>.chrome.json (Perfetto /
//!                                   chrome://tracing swim-lanes), prints
//!                                   the aggregated summary, and
//!                                   self-validates the Chrome artifact
//!                                   (well-formed JSON, non-empty span per
//!                                   raced strategy)
//! eblow-eval all [--ilp-limit-s S]  everything above except shard/bench
//!                                   (the huge cases are not part of the
//!                                   paper's suite)
//! ```
//!
//! `S` is seconds and may be fractional (`--deadline-s 0.05`). An unknown
//! flag or a value that does not parse exits 2.
//!
//! Tables 3 and 4 run every method through the `eblow-engine` strategy
//! registry — the same entry point production callers use — so the numbers
//! here measure exactly what the engine serves.

#![forbid(unsafe_code)]

use eblow_core::ilp::{solve_ilp_1d, solve_ilp_2d};
use eblow_core::oned::{
    CombinatorialOracle, Eblow1d, Eblow1dConfig, LpOracle, MkpItem, RowBase, SimplexOracle,
};
use eblow_core::twod::Eblow2d;
use eblow_engine::{strategy_by_name, Budget, Portfolio, PortfolioConfig, StrategyStatus};
use eblow_gen::{table3_suite, table4_suite, Family, GenConfig};
use eblow_lp::MilpStatus;
use eblow_model::Instance;
use eblow_trace::json::{self, Value as JsonValue};
use std::sync::Arc;
use std::time::Duration;

struct MethodRow {
    t: u64,
    chars: usize,
    cpu: f64,
}

/// Runs one registry strategy on `inst` through the engine and re-validates
/// the plan, panicking with a labelled message on any inconsistency (the
/// tables are correctness gates, not just reports).
fn run_strategy(name: &str, case: &str, inst: &Instance) -> MethodRow {
    let outcome = strategy_by_name(name)
        .unwrap_or_else(|| panic!("strategy {name:?} not in the engine registry"))
        .plan(inst, &Budget::unlimited())
        .unwrap_or_else(|err| panic!("{name} failed on {case}: {err}"));
    outcome
        .validate(inst)
        .unwrap_or_else(|err| panic!("{name} produced invalid plan on {case}: {err}"));
    MethodRow {
        t: outcome.total_time,
        chars: outcome.selection.count(),
        cpu: outcome.elapsed.as_secs_f64(),
    }
}

fn print_header(title: &str, methods: &[&str]) {
    println!();
    println!("== {title} ==");
    print!("{:8}", "case");
    for m in methods {
        print!(" | {m:>10} {:>6} {:>8}", "char#", "CPU(s)");
    }
    println!();
}

fn print_case(name: &str, rows: &[MethodRow]) {
    print!("{name:8}");
    for r in rows {
        print!(" | {:>10} {:>6} {:>8.3}", r.t, r.chars, r.cpu);
    }
    println!();
}

fn print_summary(methods: &[&str], all: &[Vec<MethodRow>]) {
    let cases = all.len() as f64;
    let k = methods.len();
    let mut avg_t = vec![0.0f64; k];
    let mut avg_c = vec![0.0f64; k];
    let mut avg_cpu = vec![0.0f64; k];
    for rows in all {
        for (j, r) in rows.iter().enumerate() {
            avg_t[j] += r.t as f64 / cases;
            avg_c[j] += r.chars as f64 / cases;
            avg_cpu[j] += r.cpu / cases;
        }
    }
    print!("{:8}", "Avg.");
    for j in 0..k {
        print!(
            " | {:>10.1} {:>6.1} {:>8.3}",
            avg_t[j], avg_c[j], avg_cpu[j]
        );
    }
    println!();
    // Ratios relative to the last method (E-BLOW), as in the paper.
    let base_t = avg_t[k - 1];
    let base_c = avg_c[k - 1];
    let base_cpu = avg_cpu[k - 1].max(1e-9);
    print!("{:8}", "Ratio");
    for j in 0..k {
        print!(
            " | {:>10.2} {:>6.2} {:>8.2}",
            avg_t[j] / base_t,
            avg_c[j] / base_c,
            avg_cpu[j] / base_cpu
        );
    }
    println!();
}

fn table3() {
    let methods = ["Greedy[24]", "Heur[24]", "Row[25]", "E-BLOW"];
    print_header(
        "Table 3: 1DOSP (writing time T, characters on stencil, CPU seconds)",
        &methods,
    );
    let mut all = Vec::new();
    for (name, inst) in table3_suite() {
        let rows: Vec<MethodRow> = ["greedy1d", "heuristic1d", "rowheur1d", "eblow1d"]
            .iter()
            .map(|s| run_strategy(s, &name, &inst))
            .collect();
        print_case(&name, &rows);
        all.push(rows);
    }
    print_summary(&methods, &all);
}

fn table4() {
    let methods = ["Greedy[24]", "SA[24]", "E-BLOW"];
    print_header(
        "Table 4: 2DOSP (writing time T, characters on stencil, CPU seconds)",
        &methods,
    );
    let mut all = Vec::new();
    for (name, inst) in table4_suite() {
        let rows: Vec<MethodRow> = ["greedy2d", "sa2d", "eblow2d"]
            .iter()
            .map(|s| run_strategy(s, &name, &inst))
            .collect();
        print_case(&name, &rows);
        all.push(rows);
    }
    print_summary(&methods, &all);
}

/// Races the full engine portfolio (both LP backends included) on the
/// Table 3/4/5 cases under a deadline, printing the winner and the
/// per-strategy report — the end-to-end path a production deployment
/// exercises.
///
/// `case` restricts the run to one named case; the huge `1H-1`/`1H-2`
/// cases are outside the default sweep and race only when named.
/// `assert_within` turns the run into a correctness gate (used by CI):
/// every race must produce a valid plan and return within
/// `deadline + margin`, else the process exits non-zero.
fn portfolio(deadline: Duration, case: Option<&str>, assert_within: Option<Duration>) {
    println!();
    println!(
        "== Engine portfolio race (deadline {} per case) ==",
        seconds_label(deadline)
    );
    let portfolio = Portfolio::all_builtin();
    let config = PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    };
    let huge = [Family::H1(1), Family::H1(2)]
        .into_iter()
        .filter(|f| case.is_some_and(|c| c == f.name()))
        .map(|f| (f.name(), eblow_gen::benchmark(f)));
    let suites = table3_suite()
        .into_iter()
        .chain(table4_suite())
        .chain(eblow_gen::table5_suite())
        .filter(|(name, _)| case.is_none_or(|c| c == name))
        .chain(huge);
    let mut ran = 0usize;
    for (name, inst) in suites {
        ran += 1;
        let outcome = portfolio.run(&inst, &config);
        match &outcome.best {
            Some(best) => println!(
                "{name:8} winner={:<22} T_total={:>10}  chars={:>5}  race={:.3}s",
                best.strategy,
                best.total_time,
                best.selection.count(),
                outcome.elapsed.as_secs_f64()
            ),
            None => println!("{name:8} no valid plan produced"),
        }
        for report in &outcome.reports {
            println!("         {report}");
        }
        if let Some(margin) = assert_within {
            let budget = deadline + margin;
            if outcome.best.is_none() {
                eprintln!("FAIL: {name}: no valid plan under deadline");
                std::process::exit(1);
            }
            if outcome.elapsed > budget {
                eprintln!(
                    "FAIL: {name}: race took {:.3}s, budget {:.3}s",
                    outcome.elapsed.as_secs_f64(),
                    budget.as_secs_f64()
                );
                std::process::exit(1);
            }
        }
    }
    if let Some(c) = case {
        if ran == 0 {
            eprintln!("FAIL: unknown case {c:?}");
            std::process::exit(2);
        }
    }
}

/// Compares sharded against monolithic planning on the huge `1H-1` case
/// under equal deadlines: the `shard1d` composite races its shards in
/// parallel while the monolithic portfolio races the classic 1D planner
/// zoo on the whole instance.
///
/// With `assert_no_worse` the process exits non-zero if the stitched plan
/// is worse (higher `T_total`) than the monolithic race's, and
/// `assert_within` additionally bounds the sharded race's wall-clock at
/// `deadline + margin` — together they make this a CI gate for the
/// sharding path.
fn shard_cmd(
    deadline: Duration,
    case: Option<&str>,
    assert_no_worse: bool,
    assert_within: Option<Duration>,
) {
    let family = Family::H1(1);
    let name = family.name();
    if let Some(c) = case.filter(|c| *c != name) {
        eprintln!("FAIL: unknown case {c:?} (shard case: 1H-1)");
        std::process::exit(2);
    }
    println!();
    println!(
        "== Sharded vs monolithic planning (deadline {} per case) ==",
        seconds_label(deadline)
    );
    println!(
        "{:6} {:>6} | {:>12} {:>6} {:>8} | {:>12} {:>6} {:>8} | {:>8}",
        "case", "cand#", "T(shard)", "char#", "race(s)", "T(mono)", "char#", "race(s)", "T ratio"
    );
    let config = PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    };
    let inst = eblow_gen::benchmark(family);
    let sharded = Portfolio::of_names(["shard1d"])
        .expect("registry name")
        .run(&inst, &config);
    let mono = Portfolio::of_names([
        "eblow1d@combinatorial",
        "heuristic1d",
        "rowheur1d",
        "greedy1d",
    ])
    .expect("registry names")
    .run(&inst, &config);
    let Some(shard_best) = &sharded.best else {
        eprintln!("FAIL: {name}: shard1d produced no valid plan");
        std::process::exit(1);
    };
    shard_best
        .validate(&inst)
        .unwrap_or_else(|e| panic!("{name}: stitched plan invalid: {e}"));
    let (mono_t, mono_c) = match &mono.best {
        Some(b) => (b.total_time.to_string(), b.selection.count().to_string()),
        None => ("NA".into(), "NA".into()),
    };
    let ratio = mono
        .best
        .as_ref()
        .map(|b| shard_best.total_time as f64 / b.total_time.max(1) as f64);
    println!(
        "{:6} {:>6} | {:>12} {:>6} {:>8.3} | {:>12} {:>6} {:>8.3} | {:>8}",
        name,
        inst.num_chars(),
        shard_best.total_time,
        shard_best.selection.count(),
        sharded.elapsed.as_secs_f64(),
        mono_t,
        mono_c,
        mono.elapsed.as_secs_f64(),
        ratio.map_or("-".into(), |r| format!("{r:.3}")),
    );
    let mut failed = false;
    if let Some(margin) = assert_within {
        let budget = deadline + margin;
        if sharded.elapsed > budget {
            eprintln!(
                "FAIL: {name}: sharded race took {:.3}s, budget {:.3}s",
                sharded.elapsed.as_secs_f64(),
                budget.as_secs_f64()
            );
            failed = true;
        }
    }
    if assert_no_worse {
        match &mono.best {
            Some(mono_best) => {
                if shard_best.total_time > mono_best.total_time {
                    eprintln!(
                        "FAIL: {name}: stitched T_total {} worse than monolithic {}",
                        shard_best.total_time, mono_best.total_time
                    );
                    failed = true;
                }
            }
            // A missing baseline is a failure, not a free pass: the gate
            // is defined *against* the monolithic race, so a regression
            // that breaks the monolithic planners must not turn this check
            // vacuous.
            None => {
                eprintln!("FAIL: {name}: monolithic race produced no plan to compare against");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The source revision for benchmark artifacts: `GITHUB_SHA` in CI, the
/// local git HEAD otherwise, `"local"` as the last resort.
fn revision() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if sha.len() >= 8 {
            return sha[..8].to_string();
        }
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=8", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string())
}

/// Races the full engine portfolio on the 1T/1M/1H/2H case families under
/// a per-case deadline and writes a machine-readable `BENCH_<rev>.json`:
/// per-case system writing time, characters placed, wall-clock, and the
/// winning strategy. This is the repo's performance trajectory artifact —
/// CI uploads one per revision, so speed regressions (or wins) are
/// comparable across commits. Exits non-zero if any case produces no valid
/// plan.
///
/// Wall-clock attribution: `wall_s` is the race only (the portfolio's own
/// `elapsed`); instance generation is timed separately into `gen_s` so a
/// slow generator can never masquerade as a planner regression. The race
/// runs with the flight recorder at `Level::Counters` and each row embeds
/// the per-case counter deltas (`"counters"`), so the trajectory artifact
/// doubles as a coarse behavioral fingerprint (cache hits, rounding
/// iterations, early exits) across revisions.
///
/// `assert_within` turns the run into a deadline gate (used by CI): after
/// the artifact is written, every row whose race wall exceeds
/// `deadline + margin` is named and the process exits non-zero.
fn bench_cmd(
    deadline: Duration,
    out: Option<&str>,
    case: Option<&str>,
    rev_arg: Option<&str>,
    assert_within: Option<Duration>,
) {
    let rev = rev_arg.map(String::from).unwrap_or_else(revision);
    // A single-case debug run must not clobber the full trajectory
    // artifact of the same revision: give it its own default name.
    let out_path = out.map(String::from).unwrap_or_else(|| match case {
        Some(c) => format!("BENCH_{rev}_{c}.json"),
        None => format!("BENCH_{rev}.json"),
    });
    println!();
    println!(
        "== Benchmark trajectory (rev {rev}, deadline {} per case) ==",
        seconds_label(deadline)
    );
    let families: Vec<Family> = (1..=5)
        .map(Family::T1)
        .chain((1..=8).map(Family::M1))
        .chain((1..=2).map(Family::H1))
        .chain((1..=2).map(Family::H2))
        .filter(|f| case.is_none_or(|c| c == f.name()))
        .collect();
    if families.is_empty() {
        eprintln!("FAIL: unknown case {case:?}");
        std::process::exit(2);
    }
    let portfolio = Portfolio::all_builtin();
    let config = PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    };
    eblow_trace::set_level(eblow_trace::Level::Counters);
    let mut rows = Vec::new();
    let mut walls: Vec<(String, Duration)> = Vec::new();
    let mut failed = false;
    for family in families {
        let name = family.name();
        // Generation is timed apart from the race: `wall_s` must stay a
        // pure planner number for cross-revision comparability.
        let gen_start = std::time::Instant::now();
        let inst = eblow_gen::benchmark(family);
        let gen_s = gen_start.elapsed().as_secs_f64();
        let counters_before = eblow_trace::counter_values();
        let outcome = portfolio.run(&inst, &config);
        let counter_deltas = counter_deltas_json(&counters_before);
        let Some(best) = &outcome.best else {
            eprintln!("FAIL: {name}: no valid plan under deadline");
            failed = true;
            continue;
        };
        best.validate(&inst)
            .unwrap_or_else(|e| panic!("{name}: winning plan invalid: {e}"));
        walls.push((name.clone(), outcome.elapsed));
        println!(
            "{:6} | T_total {:>10}  chars {:>5}  wall {:>6.3}s  gen {:>6.3}s  winner {}{}",
            name,
            best.total_time,
            best.selection.count(),
            outcome.elapsed.as_secs_f64(),
            gen_s,
            best.strategy,
            if outcome.early_exit {
                "  (early exit: proven optimal)"
            } else {
                ""
            }
        );
        rows.push(format!(
            "    {{\"case\": {}, \"kind\": {}, \"candidates\": {}, \"regions\": {}, \
             \"t_total\": {}, \"chars_on_stencil\": {}, \"wall_s\": {:.6}, \"gen_s\": {:.6}, \
             \"threads\": {}, \"winner\": {}, \"complete\": {}, \"early_exit\": {}, \
             \"strategies_raced\": {}, \"counters\": {{{}}}}}",
            json::quote(&name),
            json::quote(if inst.num_rows().is_ok() { "1d" } else { "2d" }),
            inst.num_chars(),
            inst.num_regions(),
            best.total_time,
            best.selection.count(),
            outcome.elapsed.as_secs_f64(),
            gen_s,
            // The core count: wall-clocks from different core counts are
            // not comparable, and the row must say which one it measured.
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            json::quote(best.strategy),
            outcome.complete(),
            outcome.early_exit,
            outcome.supported,
            counter_deltas,
        ));
    }
    eblow_trace::set_level(eblow_trace::Level::Off);
    let generated = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let doc = format!(
        "{{\n  \"schema\": \"eblow-bench/2\",\n  \"rev\": {},\n  \"generated_unix\": {},\n  \
         \"deadline_s\": {:.3},\n  \"cases\": [\n{}\n  ]\n}}\n",
        json::quote(&rev),
        generated,
        deadline.as_secs_f64(),
        rows.join(",\n"),
    );
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    println!("wrote {out_path} ({} cases)", rows.len());
    if let Some(margin) = assert_within {
        let budget = deadline + margin;
        for (name, wall) in overrun_rows(&walls, budget) {
            eprintln!(
                "FAIL: {name}: race took {:.3}s, budget {:.3}s",
                wall.as_secs_f64(),
                budget.as_secs_f64()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// The `(case, wall)` rows whose race wall exceeds `budget`, in run order.
fn overrun_rows(walls: &[(String, Duration)], budget: Duration) -> Vec<&(String, Duration)> {
    walls.iter().filter(|(_, wall)| *wall > budget).collect()
}

/// A duration as exact seconds for report headers (`0.05s`, `3s`).
fn seconds_label(d: Duration) -> String {
    format!("{}s", d.as_secs_f64())
}

/// The non-zero counter movements since `before`, rendered as the inner
/// `"name": delta` pairs of a JSON object (ascending name, no braces).
/// Counters registered mid-race (absent from `before`) count from zero.
fn counter_deltas_json(before: &[eblow_trace::CounterValue]) -> String {
    eblow_trace::counter_values()
        .iter()
        .filter_map(|after| {
            let base = before
                .iter()
                .find(|b| b.name == after.name)
                .map_or(0, |b| b.value);
            let delta = after.value.saturating_sub(base);
            (delta > 0).then(|| format!("{}: {}", json::quote(after.name), delta))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Races the full portfolio on one benchmark case with the flight recorder
/// at `Level::Full` and exports the recording three ways: JSON-lines
/// (`TRACE_<case>.jsonl`), Chrome trace-event format
/// (`TRACE_<case>.chrome.json`, loadable in Perfetto or `chrome://tracing`
/// — every strategy worker renders as a swim-lane), and the
/// aggregated human summary on stdout.
///
/// This is also CI's observability smoke gate, so it self-validates before
/// exiting: the Chrome artifact must re-parse with the workspace's JSON
/// parser, carry a non-empty `traceEvents` array, and contain at least one
/// span-begin for *every* strategy that raced. Exits non-zero otherwise.
fn trace_cmd(deadline: Duration, case: Option<&str>, out_dir: Option<&str>) {
    let case = case.unwrap_or("1H-1");
    let Some(family) = (1..=5)
        .map(Family::T1)
        .chain((1..=8).map(Family::M1))
        .chain((1..=2).map(Family::H1))
        .chain((1..=2).map(Family::H2))
        .find(|f| f.name() == case)
    else {
        eprintln!("FAIL: unknown case {case:?}");
        std::process::exit(2);
    };
    println!();
    println!(
        "== Flight-recorder trace: case {case} (deadline {}) ==",
        seconds_label(deadline)
    );
    let inst = eblow_gen::benchmark(family);
    let portfolio = Portfolio::all_builtin();
    let config = PortfolioConfig {
        deadline: Some(deadline),
        ..Default::default()
    };
    eblow_trace::set_level(eblow_trace::Level::Full);
    let outcome = portfolio.run(&inst, &config);
    eblow_trace::set_level(eblow_trace::Level::Off);
    // The race has joined its workers, so the snapshot is complete.
    let snap = eblow_trace::snapshot();

    let dir = std::path::Path::new(out_dir.unwrap_or("."));
    let jsonl_path = dir.join(format!("TRACE_{case}.jsonl"));
    let chrome_path = dir.join(format!("TRACE_{case}.chrome.json"));
    let chrome = eblow_trace::export::to_chrome_trace(&snap);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    std::fs::write(&jsonl_path, eblow_trace::export::to_jsonl(&snap))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", jsonl_path.display()));
    std::fs::write(&chrome_path, &chrome)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", chrome_path.display()));

    println!("{}", eblow_trace::export::summary(&snap));
    if let Some(best) = &outcome.best {
        println!(
            "race: T_total {}  winner {}  wall {:.3}s{}",
            best.total_time,
            best.strategy,
            outcome.elapsed.as_secs_f64(),
            if outcome.early_exit {
                "  (early exit: proven optimal)"
            } else {
                ""
            }
        );
    }
    println!("wrote {}", jsonl_path.display());
    println!("wrote {}", chrome_path.display());

    // Self-validation: the artifact CI uploads must actually load in a
    // trace viewer, and every raced strategy must have left a swim-lane.
    let root = json::parse(&chrome).unwrap_or_else(|e| {
        eprintln!("FAIL: {}: not valid JSON: {e}", chrome_path.display());
        std::process::exit(1);
    });
    let events = root
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .unwrap_or_else(|| {
            eprintln!(
                "FAIL: {}: missing \"traceEvents\" array",
                chrome_path.display()
            );
            std::process::exit(1);
        });
    if events.is_empty() {
        eprintln!("FAIL: {}: empty trace", chrome_path.display());
        std::process::exit(1);
    }
    // Unsupported strategies never spawn a worker, so only the ones that
    // actually raced owe the artifact a swim-lane.
    let raced: Vec<&str> = outcome
        .reports
        .iter()
        .filter(|r| r.status != StrategyStatus::Unsupported)
        .map(|r| r.name)
        .collect();
    let mut failed = false;
    for name in &raced {
        let has_span = events.iter().any(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("B")
                && e.get("name").and_then(JsonValue::as_str) == Some(*name)
        });
        if !has_span {
            eprintln!(
                "FAIL: {}: no span-begin for raced strategy {name:?}",
                chrome_path.display()
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "trace OK: {} events across {} lanes, all {} raced strategies present",
        events.len(),
        snap.threads.len(),
        raced.len()
    );
}

/// One benchmark-case row parsed from a bench artifact.
struct BenchCase {
    name: String,
    t_total: f64,
    wall_s: f64,
}

/// A parsed bench artifact: per-case deadline + case rows.
struct BenchArtifact {
    deadline_s: f64,
    cases: Vec<BenchCase>,
}

/// Parses an `eblow-bench/1` or `eblow-bench/2` artifact (schema 2 adds
/// the per-row `"threads"` field; everything the differ reads is common to
/// both, so old baselines stay comparable).
fn parse_bench_artifact(path: &str) -> Result<BenchArtifact, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match root.get("schema").and_then(JsonValue::as_str) {
        Some("eblow-bench/1" | "eblow-bench/2") => {}
        other => {
            return Err(format!(
                "{path}: unsupported schema {other:?} (expected \"eblow-bench/1\" or \
                 \"eblow-bench/2\")"
            ))
        }
    }
    let deadline_s = root
        .get("deadline_s")
        .and_then(JsonValue::as_num)
        .ok_or_else(|| format!("{path}: missing numeric \"deadline_s\""))?;
    let cases = root
        .get("cases")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| format!("{path}: missing \"cases\" array"))?;
    let cases = cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let field = |key: &str| {
                c.get(key)
                    .and_then(JsonValue::as_num)
                    .ok_or_else(|| format!("{path}: case {i} missing numeric {key:?}"))
            };
            Ok(BenchCase {
                name: c
                    .get("case")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| format!("{path}: case {i} missing \"case\""))?
                    .to_string(),
                t_total: field("t_total")?,
                wall_s: field("wall_s")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(BenchArtifact { deadline_s, cases })
}

/// While *both* sides' wall-clocks sit below this, percentage wall
/// comparisons are pure scheduler/hardware noise (a 70 ms case landing at
/// 110 ms on a different runner is not a regression), so [`bench_diff`]
/// reports but does not gate them. Writing-time `T` is gated regardless —
/// it is deadline-normalized, not absolute-time-scaled.
const BENCH_DIFF_WALL_FLOOR_S: f64 = 0.5;

/// Compares two `eblow-bench/1` artifacts case by case (the ROADMAP's bench
/// differ): for every case present in both, the new artifact's system
/// writing time `T` and wall-clock must not regress by more than
/// `max_regress_pct` percent over the old one (wall-clock only above the
/// [`BENCH_DIFF_WALL_FLOOR_S`] noise floor). Cases missing from the new
/// artifact fail outright (silent coverage loss is a regression too); new
/// cases are reported and pass. Exits non-zero on any violation, so CI can
/// gate fresh artifacts against a committed baseline.
fn bench_diff(old_path: &str, new_path: &str, max_regress_pct: f64) {
    let old = parse_bench_artifact(old_path).unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(2);
    });
    let new = parse_bench_artifact(new_path).unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(2);
    });
    // T-at-deadline is only comparable at equal deadlines: an artifact
    // raced with a longer window would mask (or fake) T regressions.
    if (old.deadline_s - new.deadline_s).abs() > 1e-9 {
        eprintln!(
            "FAIL: deadline mismatch: {old_path} ran at {:.3}s per case, {new_path} at {:.3}s",
            old.deadline_s, new.deadline_s
        );
        std::process::exit(2);
    }
    let (old, new) = (&old.cases, &new.cases);
    println!();
    println!("== Bench diff: {old_path} -> {new_path} (max regression {max_regress_pct:.1}%) ==");
    println!(
        "{:6} | {:>12} {:>12} {:>8} | {:>9} {:>9} {:>8}",
        "case", "T(old)", "T(new)", "ΔT%", "wall(old)", "wall(new)", "Δwall%"
    );
    let mut failed = false;
    for o in old {
        let Some(n) = new.iter().find(|n| n.name == o.name) else {
            eprintln!("FAIL: {}: case missing from {new_path}", o.name);
            failed = true;
            continue;
        };
        let dt = 100.0 * (n.t_total - o.t_total) / o.t_total.max(1.0);
        let dw = 100.0 * (n.wall_s - o.wall_s) / o.wall_s.max(1e-9);
        let t_bad = dt > max_regress_pct;
        // The floor looks at *both* walls: a sub-floor baseline case that
        // balloons past the floor is exactly the cliff the gate exists
        // for; only jitter that stays below the floor is informational.
        let w_bad = dw > max_regress_pct && o.wall_s.max(n.wall_s) >= BENCH_DIFF_WALL_FLOOR_S;
        println!(
            "{:6} | {:>12.0} {:>12.0} {:>7.1}% | {:>8.3}s {:>8.3}s {:>7.1}%{}",
            o.name,
            o.t_total,
            n.t_total,
            dt,
            o.wall_s,
            n.wall_s,
            dw,
            if t_bad || w_bad { "   <-- FAIL" } else { "" }
        );
        if t_bad {
            eprintln!(
                "FAIL: {}: T regressed {:.1}% (> {:.1}%)",
                o.name, dt, max_regress_pct
            );
            failed = true;
        }
        if w_bad {
            eprintln!(
                "FAIL: {}: wall-clock regressed {:.1}% (> {:.1}%)",
                o.name, dw, max_regress_pct
            );
            failed = true;
        }
    }
    for n in new {
        if !old.iter().any(|o| o.name == n.name) {
            println!("{:6} | new case (no baseline) — informational", n.name);
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("bench-diff OK: {} cases within threshold", old.len());
}

/// Cross-checks the combinatorial and simplex LP backends on the reference
/// instances: first-iteration LP objectives must agree within `tol`
/// relative, and both backends' rounded plans must validate. Exits
/// non-zero on any violation, so CI can gate on it.
fn agree(tol: f64) {
    println!();
    println!("== LP backend agreement (combinatorial vs simplex, rel tol {tol}) ==");
    println!(
        "{:10} {:>6} | {:>14} {:>14} {:>9} | {:>10} {:>10}",
        "case", "cand#", "LP(comb)", "LP(simplex)", "rel gap", "T(comb)", "T(simplex)"
    );
    let mut references: Vec<(String, Instance)> = (1..=5u8)
        .map(|k| (Family::T1(k).name(), eblow_gen::benchmark(Family::T1(k))))
        .collect();
    for seed in 1..=3u64 {
        references.push((
            format!("tiny-{seed}"),
            eblow_gen::generate(&GenConfig::tiny_1d(seed)),
        ));
    }
    let mut failed = false;
    for (name, inst) in &references {
        let items = MkpItem::initial_set(inst);
        let rows = vec![RowBase::default(); inst.num_rows().expect("1D reference instance")];
        let w = inst.stencil().width();
        let comb_lp = CombinatorialOracle
            .solve_lp(&items, &rows, w)
            .expect("combinatorial never fails");
        let simp_lp = SimplexOracle::default()
            .solve_lp(&items, &rows, w)
            .expect("reference instances fit the simplex cutoff");
        let scale = comb_lp
            .objective
            .abs()
            .max(simp_lp.objective.abs())
            .max(1.0);
        let gap = (comb_lp.objective - simp_lp.objective).abs() / scale;

        let comb_plan = Eblow1d::default()
            .plan(inst)
            .expect("1D reference instance");
        let simp_plan =
            Eblow1d::new(Eblow1dConfig::default().with_oracle(Arc::new(SimplexOracle::default())))
                .plan(inst)
                .expect("1D reference instance");
        let mut ok = gap <= tol;
        for (backend, plan) in [("combinatorial", &comb_plan), ("simplex", &simp_plan)] {
            if let Err(e) = plan.placement.validate(inst) {
                eprintln!("FAIL: {name}: {backend} plan invalid: {e}");
                ok = false;
            }
        }
        println!(
            "{:10} {:>6} | {:>14.3} {:>14.3} {:>8.4}% | {:>10} {:>10}{}",
            name,
            inst.num_chars(),
            comb_lp.objective,
            simp_lp.objective,
            gap * 100.0,
            comb_plan.total_time,
            simp_plan.total_time,
            if ok { "" } else { "   <-- FAIL" }
        );
        failed |= !ok;
    }
    println!("(the simplex solves (4) with B_j as a variable; the combinatorial fixed point");
    println!(" charges each assigned character its full blank — the Lemma 3-4 approximation —");
    println!(" so a small one-sided gap is expected, bounded by the tolerance above)");
    if failed {
        eprintln!("FAIL: LP backends disagree beyond tolerance (or a plan failed validation)");
        std::process::exit(1);
    }
}

fn table5(ilp_limit: Duration) {
    println!();
    println!("== Table 5: exact ILP (formulations (3)/(7)) vs E-BLOW ==");
    println!(
        "{:6} {:>6} {:>8} | {:>10} {:>6} {:>9} {:>10} | {:>10} {:>6} {:>9}",
        "case",
        "cand#",
        "binary#",
        "ILP T",
        "char#",
        "CPU(s)",
        "status",
        "E-BLOW T",
        "char#",
        "CPU(s)"
    );
    for k in 1..=5u8 {
        let inst = eblow_gen::benchmark(Family::T1(k));
        let ilp = solve_ilp_1d(&inst, ilp_limit).expect("1D instance");
        let e = Eblow1d::default().plan(&inst).expect("1D instance");
        let brute = eblow_hardness::brute_force_min_row(&inst);
        let (ilp_t, ilp_c) = match ilp.total_time {
            Some(t) if ilp.status != MilpStatus::TimedOut => {
                (t.to_string(), ilp.selected.len().to_string())
            }
            _ => ("NA".into(), "NA".into()),
        };
        println!(
            "{:6} {:>6} {:>8} | {:>10} {:>6} {:>9.3} {:>10} | {:>10} {:>6} {:>9.4}   (certified optimum: {brute})",
            format!("1T-{k}"),
            inst.num_chars(),
            ilp.binary_vars,
            ilp_t,
            ilp_c,
            ilp.elapsed.as_secs_f64(),
            format!("{:?}", ilp.status),
            e.total_time,
            e.selection.count(),
            e.elapsed.as_secs_f64(),
        );
    }
    for k in 1..=4u8 {
        let inst = eblow_gen::benchmark(Family::T2(k));
        let ilp = solve_ilp_2d(&inst, ilp_limit);
        let e = Eblow2d::default().plan(&inst).expect("2D instance");
        let (ilp_t, ilp_c) = match ilp.total_time {
            Some(t) if ilp.status != MilpStatus::TimedOut => {
                (t.to_string(), ilp.selected.len().to_string())
            }
            _ => ("NA".into(), "NA".into()),
        };
        println!(
            "{:6} {:>6} {:>8} | {:>10} {:>6} {:>9.3} {:>10} | {:>10} {:>6} {:>9.4}",
            format!("2T-{k}"),
            inst.num_chars(),
            ilp.binary_vars,
            ilp_t,
            ilp_c,
            ilp.elapsed.as_secs_f64(),
            format!("{:?}", ilp.status),
            e.total_time,
            e.selection.count(),
            e.elapsed.as_secs_f64(),
        );
    }
    println!(
        "(ILP time limit: {}s per case; \"NA\" = no incumbent in time, as in the paper)",
        ilp_limit.as_secs_f64()
    );
}

fn fig5() {
    println!();
    println!("== Fig. 5: unsolved characters per LP iteration (1M-1..4) ==");
    println!("iteration, 1M-1, 1M-2, 1M-3, 1M-4");
    let traces: Vec<Vec<usize>> = (1..=4u8)
        .map(|k| {
            let inst = eblow_gen::benchmark(Family::M1(k));
            let plan = Eblow1d::default().plan(&inst).expect("1D instance");
            plan.trace
                .expect("E-BLOW records a trace")
                .unsolved_per_iter
        })
        .collect();
    let rows = traces.iter().map(Vec::len).max().unwrap_or(0);
    for it in 0..rows {
        print!("{it}");
        for t in &traces {
            match t.get(it) {
                Some(v) => print!(", {v}"),
                None => print!(", "),
            }
        }
        println!();
    }
}

fn fig6() {
    println!();
    println!("== Fig. 6: distribution of a_ij in the last LP (1M-1) ==");
    let inst = eblow_gen::benchmark(Family::M1(1));
    let plan = Eblow1d::default().plan(&inst).expect("1D instance");
    let hist = plan.trace.expect("trace").last_lp_histogram;
    for (b, count) in hist.iter().enumerate() {
        println!(
            "{:.1} - {:.1}: {count}",
            b as f64 / 10.0,
            (b + 1) as f64 / 10.0
        );
    }
}

fn fig11_12() {
    println!();
    println!("== Figs. 11/12: E-BLOW-0 vs E-BLOW-1 (writing time and runtime) ==");
    println!(
        "{:8} | {:>10} {:>10} {:>8} | {:>9} {:>9} {:>8}",
        "case", "T(E-0)", "T(E-1)", "T ratio", "CPU(E-0)", "CPU(E-1)", "t ratio"
    );
    let mut t_ratio_sum = 0.0;
    let mut cpu_ratio_sum = 0.0;
    let mut cases = 0.0;
    for (name, inst) in table3_suite() {
        let p0 = Eblow1d::new(Eblow1dConfig::eblow0())
            .plan(&inst)
            .expect("1D instance");
        let p1 = Eblow1d::new(Eblow1dConfig::eblow1())
            .plan(&inst)
            .expect("1D instance");
        let tr = p1.total_time as f64 / p0.total_time.max(1) as f64;
        let cr = p1.elapsed.as_secs_f64() / p0.elapsed.as_secs_f64().max(1e-9);
        t_ratio_sum += tr;
        cpu_ratio_sum += cr;
        cases += 1.0;
        println!(
            "{name:8} | {:>10} {:>10} {:>8.3} | {:>9.3} {:>9.3} {:>8.3}",
            p0.total_time,
            p1.total_time,
            tr,
            p0.elapsed.as_secs_f64(),
            p1.elapsed.as_secs_f64(),
            cr
        );
    }
    println!(
        "Avg. T(E-1)/T(E-0) = {:.3}   (paper: 0.91) | Avg. CPU(E-1)/CPU(E-0) = {:.3}   (paper: 0.61)",
        t_ratio_sum / cases,
        cpu_ratio_sum / cases
    );
}

/// Usage line printed on any command-line error.
const USAGE: &str = "usage: eblow-eval [table3|table4|table5|fig5|fig6|fig11|fig12|portfolio|agree|shard|bench|trace|all] \
     [--ilp-limit-s S] [--deadline-s S] [--case NAME] [--assert-within-ms N] [--tol-rel X] \
     [--assert-no-worse-than-monolithic] [--out PATH] [--out-dir DIR] [--rev LABEL]\n       \
     eblow-eval bench-diff OLD.json NEW.json [--max-regress-pct N]";

/// The parsed command line. Value flags left out stay `None`, and each
/// subcommand applies its own default.
#[derive(Debug, Default)]
struct Args {
    cmd: String,
    /// Non-flag arguments after the command (`bench-diff`'s two paths).
    paths: Vec<String>,
    ilp_limit: Option<Duration>,
    deadline: Option<Duration>,
    case: Option<String>,
    assert_within: Option<Duration>,
    tol_rel: Option<f64>,
    assert_no_worse: bool,
    out: Option<String>,
    out_dir: Option<String>,
    max_regress_pct: Option<f64>,
    rev: Option<String>,
}

/// Parses the arguments after the program name. An unknown flag, a flag
/// without its value, or a value that does not parse is an error: a typo
/// must never turn a gate into a no-op or a race into a 30 s default.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        cmd: args.first().map_or("all", String::as_str).to_string(),
        ..Args::default()
    };
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if arg == "--assert-no-worse-than-monolithic" {
            parsed.assert_no_worse = true;
            continue;
        }
        if !arg.starts_with("--") {
            parsed.paths.push(arg.clone());
            continue;
        }
        let value = rest
            .next()
            .ok_or_else(|| format!("{arg} needs a value"))?
            .clone();
        match arg.as_str() {
            "--ilp-limit-s" => parsed.ilp_limit = Some(seconds(arg, &value)?),
            "--deadline-s" => parsed.deadline = Some(seconds(arg, &value)?),
            "--assert-within-ms" => {
                let ms = value
                    .parse()
                    .map_err(|_| format!("{arg}: {value:?} is not a whole number of ms"))?;
                parsed.assert_within = Some(Duration::from_millis(ms));
            }
            "--tol-rel" => parsed.tol_rel = Some(finite(arg, &value)?),
            "--max-regress-pct" => parsed.max_regress_pct = Some(finite(arg, &value)?),
            "--case" => parsed.case = Some(value),
            "--out" => parsed.out = Some(value),
            "--out-dir" => parsed.out_dir = Some(value),
            "--rev" => parsed.rev = Some(value),
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    Ok(parsed)
}

/// A finite number.
fn finite(flag: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("{flag}: {value:?} is not a finite number"))
}

/// Non-negative, possibly fractional seconds.
fn seconds(flag: &str, value: &str) -> Result<Duration, String> {
    finite(flag, value).and_then(|s| {
        Duration::try_from_secs_f64(s)
            .map_err(|_| format!("{flag}: {value:?} is not a non-negative number of seconds"))
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    if args.cmd != "bench-diff" && !args.paths.is_empty() {
        eprintln!("unexpected argument {:?}", args.paths[0]);
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    let ilp_limit = args.ilp_limit.unwrap_or(Duration::from_secs(60));
    let deadline = args.deadline.unwrap_or(Duration::from_secs(30));
    let case = args.case.as_deref();
    let tol_rel = args.tol_rel.unwrap_or(0.05);

    match args.cmd.as_str() {
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(ilp_limit),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "fig11" | "fig12" => fig11_12(),
        "portfolio" => portfolio(deadline, case, args.assert_within),
        "agree" => agree(tol_rel),
        "shard" => shard_cmd(deadline, case, args.assert_no_worse, args.assert_within),
        // Trajectory artifacts default to a tight per-case deadline — the
        // point is comparable wall-clocks across revisions, not exhaustive
        // solves.
        "bench" => bench_cmd(
            args.deadline.unwrap_or(Duration::from_secs(3)),
            args.out.as_deref(),
            case,
            args.rev.as_deref(),
            args.assert_within,
        ),
        // Same tight default deadline as `bench`: the trace artifact is a
        // smoke gate + debugging aid, not an exhaustive solve.
        "trace" => trace_cmd(
            args.deadline.unwrap_or(Duration::from_secs(3)),
            case,
            args.out_dir.as_deref(),
        ),
        "bench-diff" => {
            let [old_path, new_path] = args.paths.as_slice() else {
                eprintln!("{USAGE}");
                std::process::exit(2);
            };
            bench_diff(old_path, new_path, args.max_regress_pct.unwrap_or(25.0));
        }
        "all" => {
            table3();
            table4();
            table5(ilp_limit);
            fig5();
            fig6();
            fig11_12();
            agree(tol_rel);
            portfolio(deadline, case, args.assert_within);
        }
        other => {
            eprintln!("unknown command {other:?}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn flags_parse_strictly() {
        let args = parse("portfolio --case 2T-2 --deadline-s 0.05 --assert-within-ms 0").unwrap();
        assert_eq!(args.cmd, "portfolio");
        assert_eq!(args.case.as_deref(), Some("2T-2"));
        assert_eq!(args.deadline, Some(Duration::from_millis(50)));
        assert_eq!(args.assert_within, Some(Duration::ZERO));
        assert_eq!(
            parse("table5 --ilp-limit-s 1.5").unwrap().ilp_limit,
            Some(Duration::from_millis(1500))
        );
        for bad in [
            "portfolio --assert-within-ms 2OO",
            "portfolio --asert-within-ms 200",
            "portfolio --deadline-s -1",
            "portfolio --deadline-s",
            "bench-diff a.json b.json --max-regress-pct NaN",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        let diff = parse("bench-diff a.json b.json --max-regress-pct 50").unwrap();
        assert_eq!(diff.paths, ["a.json", "b.json"]);
        assert_eq!(diff.max_regress_pct, Some(50.0));
        assert_eq!(parse("").unwrap().cmd, "all");
    }

    #[test]
    fn bench_gate_names_every_row_over_budget() {
        let ms = Duration::from_millis;
        let walls: Vec<(String, Duration)> = [
            ("1T-1", 1),
            ("1M-5", 3_049),
            ("1H-1", 3_051),
            ("2H-1", 3_200),
            ("2H-2", 3_050),
        ]
        .into_iter()
        .map(|(case, wall)| (case.to_string(), ms(wall)))
        .collect();
        let over = |budget| -> Vec<&str> {
            overrun_rows(&walls, budget)
                .into_iter()
                .map(|(case, _)| case.as_str())
                .collect()
        };
        // Deadline 3 s + 50 ms: a wall equal to the budget passes.
        assert_eq!(over(ms(3_050)), ["1H-1", "2H-1"]);
        assert_eq!(over(ms(0)), ["1T-1", "1M-5", "1H-1", "2H-1", "2H-2"]);
        assert!(over(ms(3_200)).is_empty());
    }

    #[test]
    fn headers_print_the_deadline_exactly() {
        assert_eq!(seconds_label(Duration::from_millis(50)), "0.05s");
        assert_eq!(seconds_label(Duration::from_secs(3)), "3s");
        let parsed = parse("bench --deadline-s 0.05").unwrap();
        assert_eq!(seconds_label(parsed.deadline.unwrap()), "0.05s");
    }
}
