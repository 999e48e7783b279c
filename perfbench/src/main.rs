//! Seeded end-to-end and per-layer benchmark of the E-BLOW planner.
//!
//! ```text
//! eblow-perfbench --workload <mcc1d|mcc2d|tiny-exact|huge1d> --seed <n> --seconds <s> --trace <0|1>
//! eblow-perfbench --catalogue    # the per-layer metric list, as JSON
//! ```
//!
//! `--trace 0` plans the workload's batches through the front door
//! (`Planner::plan`, default portfolio, per-plan deadline) in a closed
//! loop with tracing off and reports the end-to-end metrics. `--trace 1`
//! times each layer from outside through its public functions and reports
//! the per-layer metrics. Both check every plan; the last line of standard
//! output is one JSON object, and any failed check makes the exit code 1.

mod json;
mod layers;
mod spans;
mod workload;

use eblow_engine::{PlanOutcome, Planner, PortfolioConfig};
use eblow_model::{Instance, InstanceDigest, Selection};
use eblow_trace::{self as trace, Level};
use json::Json;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Case, Workload};

/// Set-up (parsing one batch's instance texts) is repeated in a block of
/// at least `SETUP_BLOCK_S` (one repetition or more) after every plan,
/// and `setup_s` is the lower decile of the repetitions. On a shared VM
/// the main thread's speed switches between two modes (the slow one up to
/// twice as slow) for stretches of a fraction of a second to seconds, with
/// or without planning around it. The median of such a mixture jumps
/// between the modes as their shares move from run to run; the lower
/// decile stays in the fast mode whenever a run sees it at all, and the
/// blocks spread over the whole run make sure it does.
const SETUP_BLOCK_S: f64 = 0.08;
const SETUP_MAX_BLOCK_REPEATS: usize = 5000;

/// Timed repetitions of set-up, cycling through the run's instance texts.
struct Setup {
    texts: Vec<String>,
    batch_len: usize,
    next_batch: usize,
    times: Vec<f64>,
}

impl Setup {
    fn new(texts: Vec<String>, batch_len: usize) -> Setup {
        Setup {
            texts,
            batch_len: batch_len.max(1),
            next_batch: 0,
            times: Vec::new(),
        }
    }

    /// Parses the next `batch_len` texts once, wrapping around at the end,
    /// and records the time. Every repetition parses a full batch.
    fn once(&mut self) {
        let first = self.next_batch * self.batch_len;
        self.next_batch += 1;
        let n = self.texts.len();
        let started = Instant::now();
        let parsed: Vec<Result<Instance, String>> = (first..first + self.batch_len)
            .map(|i| eblow_model::io::from_str(&self.texts[i % n]).map_err(|e| e.to_string()))
            .collect();
        std::hint::black_box(parsed);
        self.times.push(started.elapsed().as_secs_f64());
    }

    /// Parses every text once, in order, untimed.
    fn parse_all(&self) -> Vec<Result<Instance, String>> {
        self.texts
            .iter()
            .map(|t| eblow_model::io::from_str(t).map_err(|e| e.to_string()))
            .collect()
    }

    /// Repeats set-up at least once and for at least `min_s` seconds.
    fn block(&mut self, min_s: f64) {
        let started = Instant::now();
        let mut repeats = 0;
        while repeats == 0
            || (started.elapsed().as_secs_f64() < min_s && repeats < SETUP_MAX_BLOCK_REPEATS)
        {
            self.once();
            repeats += 1;
        }
    }

    /// The lower decile of the repetitions.
    fn lower_decile_s(&self) -> f64 {
        let mut times = self.times.clone();
        times.sort_by(f64::total_cmp);
        times
            .get(times.len().saturating_sub(1) / 10)
            .copied()
            .unwrap_or(0.0)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(bad(&"expected a positive number"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let missing = |name: &str| format!("missing --{name}");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("workload"))?,
            seed: seed.ok_or_else(|| missing("seed"))?,
            seconds: seconds.ok_or_else(|| missing("seconds"))?,
            trace: trace.ok_or_else(|| missing("trace"))?,
        })
    }
}

/// A parsed instance with the reference values its plans are checked
/// against.
pub struct Prepared {
    pub label: String,
    pub instance: Instance,
    /// All-VSB writing time `T_VSB`.
    pub vsb: u64,
    /// Brute-force optimum of a single-row instance (a lower bound on `T`).
    pub row_optimum: Option<u64>,
}

/// Plans checked and plans that failed a check.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    /// Counts one checked outcome, reporting a failure on standard error.
    pub fn record<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    /// Counts a failure that stopped a plan from being made or trusted.
    pub fn fail(&mut self, what: &str, error: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("check failed: {what}: {error}");
    }
}

/// Checks one plan: it validates, its `T` equals the model's accounting
/// and the maximum region time, `T ≤ T_VSB`, and on single-row instances
/// `T` is at least the brute-force optimum. Returns `T / T_VSB`.
pub fn check_plan(p: &Prepared, plan: Option<&PlanOutcome>) -> Result<f64, String> {
    let plan = plan.ok_or("no plan returned")?;
    plan.validate(&p.instance).map_err(|e| e.to_string())?;
    let t = plan.total_time;
    let model = p.instance.total_writing_time(&plan.selection);
    if t != model {
        return Err(format!("T {t} != total_writing_time {model}"));
    }
    let max_region = plan.region_times.iter().copied().max().unwrap_or(0);
    if t != max_region {
        return Err(format!("T {t} != max(region_times) {max_region}"));
    }
    if t > p.vsb {
        return Err(format!("T {t} > T_VSB {}", p.vsb));
    }
    if let Some(opt) = p.row_optimum {
        if t < opt {
            return Err(format!("T {t} < brute-force optimum {opt}"));
        }
    }
    Ok(t as f64 / p.vsb as f64)
}

pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Process high-water mark (`VmHWM`) in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the high-water mark to the current resident size, so input
/// generation and earlier plans do not count towards the next reading.
fn reset_peak_rss() {
    // Linux ≥ 4.0; on failure the mark simply keeps the generation peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Renders every case to text and parses the texts (both untimed).
/// Returns the parsed instances, the set-up timer, and the generated
/// instances' digests.
fn prepare(
    cases: &[Case],
    batch_len: usize,
    tally: &mut Tally,
) -> (Vec<Prepared>, Setup, Vec<InstanceDigest>) {
    let (texts, digests): (Vec<String>, Vec<InstanceDigest>) = cases
        .iter()
        .map(|c| {
            let inst = eblow_gen::generate(&c.config);
            (eblow_model::io::to_string(&inst), inst.digest())
        })
        .unzip();
    let setup = Setup::new(texts, batch_len);
    // The first, cold parse is not a set-up sample.
    let parsed = setup.parse_all();

    let mut prepared = Vec::with_capacity(cases.len());
    for ((case, result), digest) in cases.iter().zip(parsed).zip(&digests) {
        let checked = result.and_then(|inst| {
            if inst.digest() == *digest {
                Ok(inst)
            } else {
                Err(format!("digest {} != generated {digest}", inst.digest()))
            }
        });
        // A parse or digest failure is a failed plan: the instance is
        // never planned.
        let instance = match checked {
            Ok(instance) => instance,
            Err(e) => {
                tally.fail(&format!("{} parse", case.label), &e);
                continue;
            }
        };
        let vsb = instance.total_writing_time(&Selection::none(instance.num_chars()));
        let row_optimum = case
            .exact_row
            .then(|| eblow_hardness::brute_force_min_row(&instance));
        prepared.push(Prepared {
            label: case.label.clone(),
            instance,
            vsb,
            row_optimum,
        });
    }
    (prepared, setup, digests)
}

/// Plans every instance through `Planner::plan` in a closed loop with one
/// client and tracing off, with a set-up block after each plan. Returns
/// the metrics and every plan's wall time.
fn end_to_end(
    workload: &Workload,
    prepared: &[Prepared],
    setup: &mut Setup,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<f64>) {
    trace::set_level(Level::Off);
    assert_eq!(
        trace::level(),
        Level::Off,
        "the end-to-end loop must run untraced"
    );
    let planner = Planner::portfolio().with_config(PortfolioConfig {
        deadline: Some(workload.deadline),
        ..PortfolioConfig::default()
    });
    let mut t_norms = Vec::with_capacity(prepared.len());
    let mut peaks = Vec::with_capacity(prepared.len());
    let mut walls = Vec::with_capacity(prepared.len());
    for p in prepared {
        reset_peak_rss();
        let started = Instant::now();
        let outcome = planner.plan(&p.instance);
        let wall = started.elapsed().as_secs_f64();
        peaks.extend(peak_rss_mb());
        walls.push(wall);
        let winner = outcome.winner().unwrap_or("-");
        let checked = tally.record(&p.label, check_plan(p, outcome.best.as_ref()));
        if let Some(t_norm) = checked {
            t_norms.push(t_norm);
        }
        println!(
            "plan {:<10} wall {wall:.3}s  winner {winner:<22} complete {}  T/T_VSB {:.5}",
            p.label,
            outcome.complete(),
            checked.unwrap_or(f64::NAN)
        );
        setup.block(SETUP_BLOCK_S);
    }
    let hits = planner.cache_stats().hits as usize;
    if hits > 0 {
        tally.fail("plan cache", &format!("{hits} hits on distinct instances"));
    }
    let metrics = vec![
        Metric::new("setup_s", setup.lower_decile_s(), "s"),
        // The makespan of one batch: the mean plan wall times the batch
        // size (the mean batch makespan when the run plans whole batches).
        Metric::new(
            "plan_total_s",
            mean(&walls) * workload.batch_len as f64,
            "s",
        ),
        Metric::new("t_norm", mean(&t_norms), "ratio"),
        // The high-water mark of each plan, median over plans: the peak of
        // one plan depends on how its race threads interleave, the median
        // does much less.
        Metric::new("peak_rss_mb", median(&mut peaks), "MB"),
    ];
    (metrics, walls)
}

/// The median plan wall and the highest percentile with at least ten
/// plans above it (when there are more than ten plans).
fn wall_percentiles(mut walls: Vec<f64>) -> Vec<(String, Json)> {
    let n = walls.len();
    let mut out = vec![
        ("plans".to_string(), Json::Int(n as i64)),
        (
            "plan_wall_median_s".to_string(),
            Json::Num(median(&mut walls)),
        ),
    ];
    if n > 10 {
        let pct = (100 * (n - 10)) / n;
        // `walls` is sorted by `median`.
        let rank = (pct * n).div_ceil(100).max(1) - 1;
        out.push((format!("plan_wall_p{pct}_s"), Json::Num(walls[rank])));
    }
    out
}

/// The repository revision and planner-source digest stamped at build time.
fn build_stamp() -> (&'static str, &'static str) {
    (
        option_env!("PERFBENCH_GIT_REV").unwrap_or("unknown"),
        option_env!("PERFBENCH_SOURCE_DIGEST").unwrap_or("unknown"),
    )
}

fn run() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--catalogue"] {
        // The `per_layer` list of BENCHMARK.json.
        let entries = layers::catalogue().into_iter().map(|(name, unit, better)| {
            Json::obj([
                ("name", Json::Str(name)),
                ("unit", Json::str(unit)),
                ("better", Json::str(better)),
            ])
        });
        println!("{}", Json::Arr(entries.collect()));
        return Ok(0);
    }
    let args = Args::parse(argv.into_iter())?;
    let workload = Workload::by_name(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {})",
            args.workload,
            workload::NAMES.join(", ")
        )
    })?;
    // The traced run times its layers on one batch.
    let count = if args.trace {
        workload.batch_len
    } else {
        workload.instances(args.seconds)
    };
    let cases: Vec<Case> = workload.cases(args.seed, count);

    let mut tally = Tally::default();
    let (prepared, mut setup, digests) = prepare(&cases, workload.batch_len, &mut tally);

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (git_rev, source_digest) = build_stamp();
    let stamp = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("cores", Json::Int(cores as i64)),
        ("deadline_s", Json::Num(workload.deadline.as_secs_f64())),
        ("instances_planned", Json::Int(cases.len() as i64)),
        ("batch_len", Json::Int(workload.batch_len as i64)),
        ("git_rev", Json::str(git_rev)),
        ("source_digest", Json::str(source_digest)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "instances",
            Json::Arr(
                cases
                    .iter()
                    .zip(&digests)
                    .map(|(c, d)| {
                        Json::obj([
                            ("label", Json::str(c.label.as_str())),
                            ("digest", Json::str(d.to_hex())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", Json::obj([("stamp", stamp)]));

    let mut summary = Vec::new();
    let metrics = if args.trace {
        let out = PathBuf::from("perfbench")
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed));
        layers::run(&workload, &prepared, args.seconds, &mut tally, &out)
    } else {
        let (metrics, walls) = end_to_end(&workload, &prepared, &mut setup, &mut tally);
        summary = wall_percentiles(walls);
        summary.push((
            "setup_repeats".to_string(),
            Json::Int(setup.times.len() as i64),
        ));
        metrics
    };

    // `failed_frac` is reported here and through `failed` / `attempted`:
    // it is 0 on a correct program, so it is not a gated metric.
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    summary.insert(0, ("failed_frac".to_string(), Json::Num(failed_frac)));
    println!("{}", Json::obj([("summary", Json::Obj(summary))]));
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Int(tally.attempted as i64)),
            ("failed", Json::Int(tally.failed as i64)),
            ("metrics", metrics_json(&metrics)),
        ])
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("eblow-perfbench: {e}");
            std::process::exit(2);
        }
    }
}
