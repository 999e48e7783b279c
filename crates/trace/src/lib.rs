//! **eblow-trace** — a hand-rolled structured flight recorder for the
//! E-BLOW planning stack.
//!
//! The workspace builds offline (see `crates/shims/`), so this crate
//! depends on nothing but `std` and provides the subset of a
//! `tracing`-style stack the planners actually need:
//!
//! * A global [`Level`] switch where the **disabled path is a single
//!   relaxed atomic load and a branch** — no allocation, no clock read,
//!   no synchronization. Plans are bit-identical with tracing on or off
//!   (property-gated at the workspace root) because instrumentation only
//!   observes; it never feeds back into planning decisions.
//! * Typed [`Counter`]s and power-of-two-bucketed [`Histogram`]s declared
//!   as `static`s at the use site and lazily registered into a global
//!   registry on first touch (enabled at `Level::Counters` and up).
//! * Bounded per-thread event rings (the `ring` module) with monotonic span
//!   timing ([`span`]/[`SpanGuard`]), instants, and value samples
//!   (enabled only at `Level::Full`). Rings drop the oldest event when
//!   full and report how many aged out.
//! * Three exporters ([`export`]): JSON-lines, Chrome trace-event format
//!   (loadable in Perfetto / `chrome://tracing` — portfolio worker
//!   threads and shard fan-out render as swim-lanes), and an aggregated
//!   human-readable summary.
//! * The workspace's one JSON codec ([`json`]): the escaper the exporters
//!   write with and a parser that reads their artifacts back.
//!
//! # Quickstart
//!
//! ```
//! use eblow_trace as trace;
//!
//! static LP_SOLVES: trace::Counter = trace::Counter::new("demo.lp_solves");
//!
//! trace::set_level(trace::Level::Full);
//! {
//!     let _span = trace::span("demo.round");
//!     LP_SOLVES.incr();
//!     trace::instant("demo.iter", 3, 0);
//! }
//! let snap = trace::snapshot();
//! assert!(snap.counters.iter().any(|c| c.name == "demo.lp_solves"));
//! println!("{}", trace::export::summary(&snap));
//! trace::set_level(trace::Level::Off);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
mod ring;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use ring::Ring;

// ---------------------------------------------------------------------------
// Level switch
// ---------------------------------------------------------------------------

/// How much the recorder captures. Ordered: each level includes the ones
/// below it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing. Every instrumentation site is a relaxed load + branch.
    Off = 0,
    /// Counters and histograms only (atomic adds; no events, no clock
    /// reads). Cheap enough to leave on under benchmarking.
    Counters = 1,
    /// Everything: counters plus per-thread span/instant/value events.
    Full = 2,
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Sets the global recorder level (process-wide).
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current recorder level.
pub fn level() -> Level {
    match LEVEL.load(Ordering::Relaxed) {
        0 => Level::Off,
        1 => Level::Counters,
        _ => Level::Full,
    }
}

/// Whether counters/histograms record. This is the entire disabled-path
/// cost of a counter site.
#[inline(always)]
pub fn counters_on() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Counters as u8
}

/// Whether events record. This is the entire disabled-path cost of a
/// span/instant site.
#[inline(always)]
pub fn events_on() -> bool {
    LEVEL.load(Ordering::Relaxed) >= Level::Full as u8
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the recorder's first clock read (monotonic).
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Counters & histograms
// ---------------------------------------------------------------------------

/// A named monotonic counter, declared `static` at the use site:
///
/// ```
/// static CACHE_HITS: eblow_trace::Counter = eblow_trace::Counter::new("cache.hit");
/// CACHE_HITS.incr();
/// ```
///
/// Recording is a relaxed `fetch_add`; when the level is [`Level::Off`]
/// it is a load + branch. First touch registers the counter globally so
/// [`snapshot`] can find it.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Declares a counter. `name` is the stable identifier used by every
    /// exporter (glossary in the README).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Adds `n` when counters are enabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if counters_on() {
            self.register();
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 when counters are enabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value (0 if never enabled).
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn register(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
    }
}

/// Number of value buckets in a [`Histogram`]: bucket `i` holds samples
/// whose value needs `i` bits (`0`, `1`, `2..=3`, `4..=7`, …).
const HIST_BUCKETS: usize = 65;

/// A power-of-two-bucketed histogram of `u64` samples, declared `static`
/// at the use site like [`Counter`]. Tracks count, sum, and per-bucket
/// tallies; the summary exporter derives mean and approximate quantiles.
pub struct Histogram {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
    registered: AtomicBool,
}

impl Histogram {
    /// Declares a histogram.
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// Records a sample when counters are enabled.
    #[inline]
    pub fn record(&'static self, value: u64) {
        if counters_on() {
            if !self.registered.swap(true, Ordering::Relaxed) {
                registry().histograms.lock().unwrap().push(self);
            }
            let bucket = (u64::BITS - value.leading_zeros()) as usize;
            self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opening (paired with [`EventKind::End`] on the same thread).
    Begin,
    /// Span closing.
    End,
    /// A point-in-time marker.
    Instant,
    /// A sampled value (`a` is the sample) — renders as a Chrome counter
    /// track.
    Value,
}

/// One recorded event. `a`/`b` are free-form integer payloads whose
/// meaning is per-`name` (see the README glossary); `detail` is an
/// optional preformatted string, only ever built when events are on.
#[derive(Debug, Clone)]
pub struct Event {
    /// Nanoseconds since the recorder epoch ([`now_ns`]).
    pub ts_ns: u64,
    /// Marker kind.
    pub kind: EventKind,
    /// Stable event name.
    pub name: &'static str,
    /// First integer payload.
    pub a: i64,
    /// Second integer payload.
    pub b: i64,
    /// Optional human-readable payload.
    pub detail: Option<Box<str>>,
}

/// Ring capacity per thread. At ~64 bytes an event this retains the last
/// ~1 MiB of activity per thread, which comfortably covers a full 3 s
/// portfolio race at current event rates; older events age out and are
/// counted, never silently lost.
const RING_CAPACITY: usize = 16 * 1024;

struct ThreadRing {
    tid: u32,
    label: Mutex<String>,
    ring: Ring,
}

struct Registry {
    threads: Mutex<Vec<Arc<ThreadRing>>>,
    counters: Mutex<Vec<&'static Counter>>,
    histograms: Mutex<Vec<&'static Histogram>>,
    next_tid: AtomicU32,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        threads: Mutex::new(Vec::new()),
        counters: Mutex::new(Vec::new()),
        histograms: Mutex::new(Vec::new()),
        next_tid: AtomicU32::new(1),
    })
}

thread_local! {
    static LOCAL: Arc<ThreadRing> = {
        let reg = registry();
        let ring = Arc::new(ThreadRing {
            tid: reg.next_tid.fetch_add(1, Ordering::Relaxed),
            label: Mutex::new(String::new()),
            ring: Ring::with_capacity(RING_CAPACITY),
        });
        reg.threads.lock().unwrap().push(Arc::clone(&ring));
        ring
    };
}

/// Pushes onto the calling thread's ring (a thread can only reach its own
/// `LOCAL`, so each ring has one producer).
#[inline]
fn local(event: Event) {
    LOCAL.with(|t| t.ring.push(event));
}

/// Labels the calling thread in every export (e.g. the strategy name of
/// a portfolio worker). No-op unless events are on.
pub fn set_thread_label(label: &str) {
    if events_on() {
        LOCAL.with(|t| {
            let mut slot = t.label.lock().unwrap();
            if slot.is_empty() {
                slot.push_str(label);
            } else if slot.as_str() != label {
                slot.push('+');
                slot.push_str(label);
            }
        });
    }
}

/// Records an instant event when events are on.
#[inline]
pub fn instant(name: &'static str, a: i64, b: i64) {
    if events_on() {
        local(Event {
            ts_ns: now_ns(),
            kind: EventKind::Instant,
            name,
            a,
            b,
            detail: None,
        });
    }
}

/// Records an instant event with a lazily built detail string. The
/// closure runs only when events are on, so disabled sites never format.
#[inline]
pub fn instant_with(name: &'static str, a: i64, b: i64, detail: impl FnOnce() -> String) {
    if events_on() {
        local(Event {
            ts_ns: now_ns(),
            kind: EventKind::Instant,
            name,
            a,
            b,
            detail: Some(detail().into_boxed_str()),
        });
    }
}

/// Records a sampled value (Chrome counter track) when events are on.
#[inline]
pub fn value(name: &'static str, v: i64) {
    if events_on() {
        local(Event {
            ts_ns: now_ns(),
            kind: EventKind::Value,
            name,
            a: v,
            b: 0,
            detail: None,
        });
    }
}

/// Opens a span; the returned guard records the matching end on drop.
/// When events are off the guard is inert (no clock read, no event).
#[inline]
#[must_use = "the span closes when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    span_inner(name, None)
}

/// Opens a span with a lazily built detail string on the begin event.
#[inline]
#[must_use = "the span closes when the guard drops"]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if events_on() {
        span_inner(name, Some(detail().into_boxed_str()))
    } else {
        SpanGuard { name: None }
    }
}

fn span_inner(name: &'static str, detail: Option<Box<str>>) -> SpanGuard {
    if events_on() {
        local(Event {
            ts_ns: now_ns(),
            kind: EventKind::Begin,
            name,
            a: 0,
            b: 0,
            detail,
        });
        SpanGuard { name: Some(name) }
    } else {
        SpanGuard { name: None }
    }
}

/// Closes its span on drop. Armed at creation: a span opened while
/// events were on always records its end, even if the level changes
/// mid-span, so begin/end pairs stay balanced per thread.
pub struct SpanGuard {
    name: Option<&'static str>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            local(Event {
                ts_ns: now_ns(),
                kind: EventKind::End,
                name,
                a: 0,
                b: 0,
                detail: None,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// Events retained by one thread, in push order.
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Recorder-assigned sequential thread id (stable per thread).
    pub tid: u32,
    /// Label from [`set_thread_label`] (may be empty).
    pub label: String,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Events aged out of the ring before this snapshot.
    pub dropped: u64,
}

/// A counter reading.
#[derive(Debug, Clone)]
pub struct CounterValue {
    /// Counter name.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// A histogram reading.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: &'static str,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// `(inclusive upper bound, count)` for each non-empty bucket,
    /// ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of the smallest bucket prefix holding at
    /// least `q` (in `0..=1`) of the samples — an upper estimate of that
    /// quantile, exact to the power-of-two bucket.
    pub fn quantile_le(&self, q: f64) -> u64 {
        let need = (q * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for &(bound, n) in &self.buckets {
            seen += n;
            if seen >= need {
                return bound;
            }
        }
        self.buckets.last().map_or(0, |&(bound, _)| bound)
    }
}

/// Everything the recorder holds: per-thread events plus global
/// counters/histograms. Counters and threads are sorted (by name / tid)
/// so exports are deterministic given identical recordings.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Per-thread event traces, ascending tid.
    pub threads: Vec<ThreadTrace>,
    /// Counter readings, ascending name.
    pub counters: Vec<CounterValue>,
    /// Histogram readings, ascending name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TraceSnapshot {
    /// Total retained events across threads.
    pub fn total_events(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }
}

/// Copies out the current recorder state. Safe to call while other threads
/// record: each thread's events come back as a contiguous, in-order window.
/// Taken at quiescence (worker threads joined), the snapshot is complete.
pub fn snapshot() -> TraceSnapshot {
    let reg = registry();
    let mut threads: Vec<ThreadTrace> = reg
        .threads
        .lock()
        .unwrap()
        .iter()
        .map(|t| {
            let (events, dropped) = t.ring.snapshot();
            ThreadTrace {
                tid: t.tid,
                label: t.label.lock().unwrap().clone(),
                events,
                dropped,
            }
        })
        .filter(|t| !t.events.is_empty() || t.dropped > 0)
        .collect();
    threads.sort_by_key(|t| t.tid);
    let mut counters: Vec<CounterValue> = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|c| CounterValue {
            name: c.name,
            value: c.get(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    let mut histograms: Vec<HistogramSnapshot> = reg
        .histograms
        .lock()
        .unwrap()
        .iter()
        .map(|h| {
            let mut buckets = Vec::new();
            for (i, bucket) in h.buckets.iter().enumerate() {
                let n = bucket.load(Ordering::Relaxed);
                if n > 0 {
                    let bound = if i == 0 { 0 } else { (1u128 << i) - 1 } as u64;
                    buckets.push((bound, n));
                }
            }
            HistogramSnapshot {
                name: h.name,
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                buckets,
            }
        })
        .collect();
    histograms.sort_by_key(|h| h.name);
    TraceSnapshot {
        threads,
        counters,
        histograms,
    }
}

/// The values of all registered counters, ascending name. Cheaper than a
/// full [`snapshot`] — used by `eblow-eval bench` to diff per-case
/// counter deltas without touching the event rings.
pub fn counter_values() -> Vec<CounterValue> {
    let mut counters: Vec<CounterValue> = registry()
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|c| CounterValue {
            name: c.name,
            value: c.get(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    counters
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The level switch is process-global; tests that flip it serialize
    /// here so `cargo test`'s default parallelism can't interleave them.
    fn level_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    static TEST_COUNTER: Counter = Counter::new("test.lib.counter");
    static TEST_HIST: Histogram = Histogram::new("test.lib.hist");

    #[test]
    fn disabled_sites_record_nothing() {
        let _guard = level_lock();
        set_level(Level::Off);
        let before = TEST_COUNTER.get();
        TEST_COUNTER.incr();
        TEST_COUNTER.add(41);
        TEST_HIST.record(7);
        instant("test.off.instant", 1, 2);
        instant_with("test.off.detail", 0, 0, || unreachable!("must not format"));
        value("test.off.value", 9);
        let _span = span("test.off.span");
        drop(_span);
        assert_eq!(TEST_COUNTER.get(), before);
        let snap = snapshot();
        assert!(!snap
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| e.name.starts_with("test.off.")));
    }

    #[test]
    fn counters_level_records_counters_but_no_events() {
        let _guard = level_lock();
        set_level(Level::Counters);
        let before = TEST_COUNTER.get();
        TEST_COUNTER.add(5);
        TEST_HIST.record(100);
        instant("test.counters.instant", 0, 0);
        set_level(Level::Off);
        assert_eq!(TEST_COUNTER.get(), before + 5);
        let snap = snapshot();
        assert!(!snap
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| e.name == "test.counters.instant"));
        let hist = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.lib.hist")
            .expect("histogram registered");
        assert!(hist.count >= 1);
        assert!(hist.sum >= 100);
    }

    #[test]
    fn spans_nest_and_balance_on_one_thread() {
        let _guard = level_lock();
        set_level(Level::Full);
        {
            let _outer = span("test.span.outer");
            let _inner = span_with("test.span.inner", || "d".to_string());
            instant("test.span.mark", 1, 2);
        }
        set_level(Level::Off);
        let snap = snapshot();
        let mine: Vec<&Event> = snap
            .threads
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.name.starts_with("test.span."))
            .collect();
        let kinds: Vec<(EventKind, &str)> = mine.iter().map(|e| (e.kind, e.name)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::Begin, "test.span.outer"),
                (EventKind::Begin, "test.span.inner"),
                (EventKind::Instant, "test.span.mark"),
                (EventKind::End, "test.span.inner"),
                (EventKind::End, "test.span.outer"),
            ]
        );
        // Timestamps are monotone within the thread.
        assert!(mine.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn cross_thread_events_interleave_by_timestamp() {
        let _guard = level_lock();
        set_level(Level::Full);
        std::thread::scope(|scope| {
            for worker in 0..3 {
                scope.spawn(move || {
                    set_thread_label(&format!("worker-{worker}"));
                    for i in 0..50 {
                        instant("test.cross.tick", worker, i);
                        std::hint::black_box(i);
                    }
                });
            }
        });
        set_level(Level::Off);
        let snap = snapshot();
        let mut labelled = 0;
        for t in &snap.threads {
            let ticks: Vec<&Event> = t
                .events
                .iter()
                .filter(|e| e.name == "test.cross.tick")
                .collect();
            if ticks.is_empty() {
                continue;
            }
            labelled += 1;
            // Per-thread order is push order and timestamps are monotone…
            assert!(ticks.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
            // …and each worker's own sequence arrived intact.
            let seqs: Vec<i64> = ticks.iter().map(|e| e.b).collect();
            assert_eq!(seqs, (0..50).collect::<Vec<_>>());
            assert!(t.label.starts_with("worker-"));
        }
        assert_eq!(labelled, 3, "each worker thread got its own ring");
        // A global merge sorted by (ts_ns, tid) is a valid interleaving:
        // stable to compute and deterministic for the exporters.
        let mut merged: Vec<(u64, u32)> = snap
            .threads
            .iter()
            .flat_map(|t| t.events.iter().map(|e| (e.ts_ns, t.tid)))
            .collect();
        merged.sort_unstable();
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Snapshots race a producer that laps its ring several times with
    /// heap-allocated details: every snapshot must hand back intact,
    /// contiguous events (an overwritten event's detail used to be freed
    /// while a snapshot cloned it).
    #[test]
    fn snapshot_while_a_producer_laps_its_ring() {
        let _guard = level_lock();
        set_level(Level::Full);
        let total = 3 * RING_CAPACITY as i64;
        let full = std::sync::Barrier::new(2);
        let done = AtomicBool::new(false);
        let mut snapshots = 0;
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..total {
                    // Snapshots start once the ring is full, so they race
                    // the pushes that overwrite its oldest events.
                    if i == RING_CAPACITY as i64 {
                        full.wait();
                    }
                    instant_with("test.lap.tick", i, 0, || format!("tick-{i}"));
                }
                done.store(true, Ordering::Release);
            });
            full.wait();
            while !done.load(Ordering::Acquire) || snapshots == 0 {
                for t in snapshot().threads {
                    let ticks: Vec<&Event> = t
                        .events
                        .iter()
                        .filter(|e| e.name == "test.lap.tick")
                        .collect();
                    for e in &ticks {
                        assert_eq!(e.detail.as_deref(), Some(format!("tick-{}", e.a).as_str()));
                    }
                    assert!(ticks.windows(2).all(|w| w[1].a == w[0].a + 1));
                }
                snapshots += 1;
            }
        });
        set_level(Level::Off);
        let producer = snapshot()
            .threads
            .into_iter()
            .find(|t| t.events.iter().any(|e| e.name == "test.lap.tick"))
            .expect("the producer's ring");
        assert_eq!(producer.events.len(), RING_CAPACITY);
        assert_eq!(producer.dropped, total as u64 - RING_CAPACITY as u64);
        assert_eq!(producer.events.last().unwrap().a, total - 1);
    }

    #[test]
    fn histogram_quantiles_are_bucket_exact() {
        let snap = HistogramSnapshot {
            name: "q",
            count: 100,
            sum: 0,
            buckets: vec![(1, 50), (3, 25), (7, 24), (1023, 1)],
        };
        assert_eq!(snap.quantile_le(0.5), 1);
        assert_eq!(snap.quantile_le(0.75), 3);
        assert_eq!(snap.quantile_le(0.99), 7);
        assert_eq!(snap.quantile_le(1.0), 1023);
    }
}
