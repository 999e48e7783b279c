//! Exporters for a [`TraceSnapshot`]: JSON-lines, Chrome trace-event
//! format, and an aggregated human-readable summary.
//!
//! All three are deterministic given an identical snapshot: threads are
//! ordered by tid, events by push order, counters/histograms by name.

use crate::json::escape as json_escape;
use crate::{Event, EventKind, ThreadTrace, TraceSnapshot};
use std::fmt::Write as _;

fn kind_code(kind: EventKind) -> &'static str {
    match kind {
        EventKind::Begin => "B",
        EventKind::End => "E",
        EventKind::Instant => "i",
        EventKind::Value => "C",
    }
}

/// Schema identifier stamped on the first line of [`to_jsonl`] output.
pub const JSONL_SCHEMA: &str = "eblow-trace/1";

/// One JSON object per line: a header line (`schema`, totals), then every
/// event in `(tid, push order)`, then counter and histogram readings.
pub fn to_jsonl(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    let dropped: u64 = snap.threads.iter().map(|t| t.dropped).sum();
    let _ = writeln!(
        out,
        "{{\"schema\":\"{JSONL_SCHEMA}\",\"threads\":{},\"events\":{},\"dropped\":{}}}",
        snap.threads.len(),
        snap.total_events(),
        dropped
    );
    for t in &snap.threads {
        for e in &t.events {
            let _ = write!(
                out,
                "{{\"tid\":{},\"label\":\"{}\",\"ts_ns\":{},\"ph\":\"{}\",\"name\":\"{}\",\"a\":{},\"b\":{}",
                t.tid,
                json_escape(&t.label),
                e.ts_ns,
                kind_code(e.kind),
                json_escape(e.name),
                e.a,
                e.b
            );
            if let Some(detail) = &e.detail {
                let _ = write!(out, ",\"detail\":\"{}\"", json_escape(detail));
            }
            out.push_str("}\n");
        }
    }
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"counter\":\"{}\",\"value\":{}}}",
            json_escape(c.name),
            c.value
        );
    }
    for h in &snap.histograms {
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|&(bound, n)| format!("[{bound},{n}]"))
            .collect();
        let _ = writeln!(
            out,
            "{{\"histogram\":\"{}\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
            json_escape(h.name),
            h.count,
            h.sum,
            buckets.join(",")
        );
    }
    out
}

/// Chrome trace-event JSON (the `{"traceEvents": [...]}` object form),
/// loadable in Perfetto or `chrome://tracing`. Each recorder thread
/// becomes a named track (swim-lane): thread-name metadata first, then
/// `B`/`E`/`i`/`C` events with microsecond timestamps.
pub fn to_chrome_trace(snap: &TraceSnapshot) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('\n');
        out.push_str(&s);
    };
    for t in &snap.threads {
        let label = if t.label.is_empty() {
            format!("thread-{}", t.tid)
        } else {
            t.label.clone()
        };
        push(
            format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                t.tid,
                json_escape(&label)
            ),
            &mut first,
        );
    }
    for t in &snap.threads {
        for e in &t.events {
            push(chrome_event(t, e), &mut first);
        }
    }
    out.push_str("\n]}\n");
    out
}

fn chrome_event(t: &ThreadTrace, e: &Event) -> String {
    let ts_us = e.ts_ns as f64 / 1000.0;
    let mut line = format!(
        "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":\"{}\"",
        kind_code(e.kind),
        t.tid,
        ts_us,
        json_escape(e.name)
    );
    match e.kind {
        // End events pair with their Begin by nesting; args on the Begin.
        EventKind::End => {}
        EventKind::Value => {
            let _ = write!(line, ",\"args\":{{\"value\":{}}}", e.a);
        }
        EventKind::Begin | EventKind::Instant => {
            if e.kind == EventKind::Instant {
                line.push_str(",\"s\":\"t\"");
            }
            let _ = write!(line, ",\"args\":{{\"a\":{},\"b\":{}", e.a, e.b);
            if let Some(detail) = &e.detail {
                let _ = write!(line, ",\"detail\":\"{}\"", json_escape(detail));
            }
            line.push_str("}}");
            return line;
        }
    }
    line.push('}');
    line
}

/// Per-span aggregate used by [`summary`].
#[derive(Debug, Clone, Default)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    unmatched: u64,
}

/// Aggregated human-readable report: span durations (matched `B`/`E`
/// pairs per thread), instant/value tallies, counters, and histograms.
pub fn summary(snap: &TraceSnapshot) -> String {
    use std::collections::BTreeMap;
    let mut spans: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    let mut instants: BTreeMap<&str, u64> = BTreeMap::new();
    for t in &snap.threads {
        let mut stack: Vec<(&str, u64)> = Vec::new();
        for e in &t.events {
            match e.kind {
                EventKind::Begin => stack.push((e.name, e.ts_ns)),
                EventKind::End => {
                    // Tolerate truncated rings: unwind to the matching
                    // begin if one survives, else count as unmatched.
                    if let Some(pos) = stack.iter().rposition(|&(n, _)| n == e.name) {
                        let (_, begin_ns) = stack.remove(pos);
                        let agg = spans.entry(e.name).or_default();
                        let d = e.ts_ns.saturating_sub(begin_ns);
                        agg.count += 1;
                        agg.total_ns += d;
                        agg.min_ns = if agg.count == 1 { d } else { agg.min_ns.min(d) };
                        agg.max_ns = agg.max_ns.max(d);
                    } else {
                        spans.entry(e.name).or_default().unmatched += 1;
                    }
                }
                EventKind::Instant | EventKind::Value => {
                    *instants.entry(e.name).or_insert(0) += 1;
                }
            }
        }
        for (name, _) in stack {
            spans.entry(name).or_default().unmatched += 1;
        }
    }

    let mut out = String::new();
    let dropped: u64 = snap.threads.iter().map(|t| t.dropped).sum();
    let _ = writeln!(
        out,
        "trace summary: {} thread(s), {} event(s), {} aged out",
        snap.threads.len(),
        snap.total_events(),
        dropped
    );
    if !spans.is_empty() {
        let _ = writeln!(out, "\nspans (all threads):");
        let _ = writeln!(
            out,
            "  {:<32} {:>7} {:>12} {:>12} {:>12}",
            "name", "count", "total_ms", "mean_ms", "max_ms"
        );
        for (name, agg) in &spans {
            let mean = if agg.count > 0 {
                agg.total_ns as f64 / agg.count as f64
            } else {
                0.0
            };
            let _ = write!(
                out,
                "  {:<32} {:>7} {:>12.3} {:>12.3} {:>12.3}",
                name,
                agg.count,
                agg.total_ns as f64 / 1e6,
                mean / 1e6,
                agg.max_ns as f64 / 1e6
            );
            if agg.unmatched > 0 {
                let _ = write!(out, "  ({} unmatched)", agg.unmatched);
            }
            out.push('\n');
        }
    }
    if !instants.is_empty() {
        let _ = writeln!(out, "\ninstants/values:");
        for (name, n) in &instants {
            let _ = writeln!(out, "  {name:<32} {n:>7}");
        }
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "\ncounters:");
        for c in &snap.counters {
            let _ = writeln!(out, "  {:<32} {:>12}", c.name, c.value);
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "\nhistograms:");
        let _ = writeln!(
            out,
            "  {:<32} {:>9} {:>12} {:>10} {:>10}",
            "name", "count", "mean", "~p50", "~p95"
        );
        for h in &snap.histograms {
            let _ = writeln!(
                out,
                "  {:<32} {:>9} {:>12.2} {:>10} {:>10}",
                h.name,
                h.count,
                if h.count > 0 {
                    h.sum as f64 / h.count as f64
                } else {
                    0.0
                },
                h.quantile_le(0.5),
                h.quantile_le(0.95)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterValue, EventKind, HistogramSnapshot};

    fn snap_with(events: Vec<Event>, label: &str) -> TraceSnapshot {
        TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 7,
                label: label.to_string(),
                events,
                dropped: 0,
            }],
            counters: vec![CounterValue {
                name: "cache.hit",
                value: 3,
            }],
            histograms: vec![HistogramSnapshot {
                name: "round.iters",
                count: 2,
                sum: 10,
                buckets: vec![(7, 2)],
            }],
        }
    }

    fn ev(kind: EventKind, name: &'static str, ts: u64, detail: Option<&str>) -> Event {
        Event {
            ts_ns: ts,
            kind,
            name,
            a: 1,
            b: 2,
            detail: detail.map(|d| d.to_string().into_boxed_str()),
        }
    }

    #[test]
    fn chrome_trace_is_wellformed_and_escaped() {
        let snap = snap_with(
            vec![
                ev(
                    EventKind::Begin,
                    "race",
                    1_500,
                    Some("case \"1T-1\"\nline2"),
                ),
                ev(EventKind::Instant, "race.winner", 2_000, None),
                ev(EventKind::Value, "race.best_t", 2_500, None),
                ev(EventKind::End, "race", 3_000, None),
            ],
            "strategy \"x\"",
        );
        let chrome = to_chrome_trace(&snap);
        // Raw quotes/newlines from labels and details must not survive
        // unescaped — count unescaped quotes by parsing char pairs.
        assert!(chrome.contains("\\\"1T-1\\\""));
        assert!(chrome.contains("\\n"));
        assert!(!chrome.contains("case \"1T-1\""));
        assert!(chrome.contains("\"ph\":\"M\""));
        assert!(chrome.contains("\"ph\":\"B\""));
        assert!(chrome.contains("\"ph\":\"E\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("\"ts\":1.500"));
        // The document parses, and the escaped detail round-trips.
        let root = crate::json::parse(&chrome).expect("well-formed JSON");
        let events = root.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert!(events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("detail"))
                .and_then(|d| d.as_str())
                == Some("case \"1T-1\"\nline2")
        }));
    }

    #[test]
    fn jsonl_has_header_events_counters_and_histograms() {
        let snap = snap_with(vec![ev(EventKind::Instant, "mark", 10, Some("d"))], "lane");
        let jsonl = to_jsonl(&snap);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"schema\":\"eblow-trace/1\""));
        assert!(lines[0].contains("\"events\":1"));
        assert!(lines[1].contains("\"name\":\"mark\"") && lines[1].contains("\"detail\":\"d\""));
        assert!(lines[2].contains("\"counter\":\"cache.hit\"") && lines[2].contains("\"value\":3"));
        assert!(lines[3].contains("\"histogram\":\"round.iters\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn summary_matches_begin_end_pairs_and_reports_unmatched() {
        let snap = snap_with(
            vec![
                ev(EventKind::Begin, "outer", 0, None),
                ev(EventKind::Begin, "inner", 1_000_000, None),
                ev(EventKind::End, "inner", 3_000_000, None),
                ev(EventKind::End, "outer", 10_000_000, None),
                ev(EventKind::Begin, "dangling", 11_000_000, None),
            ],
            "",
        );
        let text = summary(&snap);
        assert!(text.contains("outer"));
        assert!(text.contains("10.000"), "outer span is 10 ms: {text}");
        assert!(text.contains("2.000"), "inner span is 2 ms: {text}");
        assert!(text.contains("(1 unmatched)"), "dangling begin: {text}");
        assert!(text.contains("cache.hit"));
        assert!(text.contains("round.iters"));
    }
}
