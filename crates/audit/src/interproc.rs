//! The interprocedural rule passes over the workspace call graph:
//! stop-flag-reachability, trace-name-registry, hot-loop-allocation, and
//! span-guard-binding. Token-local rules live in [`crate::rules`]; these
//! four need the whole-workspace [`WorkspaceModel`].

use crate::graph::{entry_points, glossary, CallGraph, WorkspaceModel};
use crate::model::TraceKind;
use crate::rules::Finding;

/// Everything the interprocedural rules need beyond the sources: the
/// README text (trace-name drift) and the committed hot-path manifest.
#[derive(Debug, Default)]
pub struct AuditContext {
    /// `README.md` contents; `None` skips the drift check.
    pub readme: Option<String>,
    /// Hot-path manifest entries (`Type::method` or bare fn names), in
    /// file order.
    pub hotpaths: Vec<String>,
}

/// Minimum loop height (source lines) before a reachable, stop-blind
/// function is a finding. Lower than the token rule's 40: interprocedural
/// context (provably on a `plan` call chain) makes smaller loops matter,
/// but trivial 2-line sweeps still shouldn't demand a flag.
pub const REACH_LOOP_LINES: u32 = 15;

/// The manifest file name, used as the findings "file" for stale entries.
pub const HOTPATH_MANIFEST: &str = "AUDIT_hotpaths.txt";

/// Runs all four passes; findings are unsuppressed (the caller applies
/// `audit:allow` markers).
pub fn interproc_findings(ws: &WorkspaceModel, cg: &CallGraph, ctx: &AuditContext) -> Vec<Finding> {
    let mut out = Vec::new();
    stop_flag_reachability(ws, cg, &mut out);
    trace_name_registry(ws, ctx, &mut out);
    hot_loop_allocation(ws, ctx, &mut out);
    span_guard_binding(ws, &mut out);
    out
}

/// Is this file in the planning hot-path scope (same scope as the
/// token-level stop-flag-coverage rule)?
fn planning_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src/") || rel.starts_with("crates/engine/src/")
}

/// stop-flag-reachability: every function reachable from a cancellation
/// entry point (`Strategy::plan`, `*_with_stop`, stop-param takers) that
/// contains a substantial loop must itself receive or poll a stop token.
/// This is the interprocedural closure of the token-level rule: it
/// catches a wrapper that silently drops the flag mid-call-chain.
fn stop_flag_reachability(ws: &WorkspaceModel, cg: &CallGraph, out: &mut Vec<Finding>) {
    let entries = entry_points(ws);
    let reach = cg.reachable_from(&entries);
    for (id, f) in ws.iter() {
        let rel = ws.file_of(id);
        if !planning_scope(rel) || !reach[id] || f.stop_aware() {
            continue;
        }
        let Some(worst) = f.loops.iter().map(|l| l.span_lines).max() else {
            continue;
        };
        if worst < REACH_LOOP_LINES {
            continue;
        }
        out.push(Finding {
            rule: "stop-flag-reachability",
            file: rel.to_string(),
            line: f.line,
            message: format!(
                "`{}` is reachable from a `plan`/`*_with_stop` entry point and loops for \
                 {worst} lines, but never receives or polls a stop flag — thread the \
                 caller's `StopFlag` through it",
                f.qualified()
            ),
        });
    }
}

/// Does `name` follow the `area.noun` convention? Lowercase
/// `[a-z0-9_]` segments joined by single dots.
fn well_formed_name(name: &str, require_dot: bool) -> bool {
    if name.is_empty() {
        return false;
    }
    let segments: Vec<&str> = name.split('.').collect();
    if require_dot && segments.len() < 2 {
        return false;
    }
    segments.iter().all(|seg| {
        !seg.is_empty()
            && seg
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
    })
}

/// trace-name-registry: every literal trace name must be well-formed
/// (`area.noun`; bare lane names allowed for spans only), registered at
/// most once per counter/histogram kind, never as both a counter and a
/// histogram, and present (backticked) in the README Observability table.
fn trace_name_registry(ws: &WorkspaceModel, ctx: &AuditContext, out: &mut Vec<Finding>) {
    // Naming + conflicting/duplicate registrations, per site.
    let mut registrations: std::collections::BTreeMap<&str, Vec<(&str, u32, TraceKind)>> =
        std::collections::BTreeMap::new();
    for (rel, site) in ws.trace_sites() {
        if rel.starts_with("crates/trace/") {
            continue;
        }
        let require_dot = site.kind != TraceKind::Span;
        if !well_formed_name(&site.name, require_dot) {
            out.push(Finding {
                rule: "trace-name-registry",
                file: rel.to_string(),
                line: site.line,
                message: format!(
                    "trace {} name {:?} violates the `area.noun` convention \
                     (lowercase dotted segments{})",
                    site.kind.as_str(),
                    site.name,
                    if require_dot {
                        ", at least one dot"
                    } else {
                        ""
                    }
                ),
            });
        }
        if matches!(site.kind, TraceKind::Counter | TraceKind::Histogram) {
            registrations
                .entry(site.name.as_str())
                .or_default()
                .push((rel, site.line, site.kind));
        }
    }
    for (name, regs) in &registrations {
        for (rel, line, kind) in regs.iter().skip(1) {
            let first = &regs[0];
            let msg = if *kind == first.2 {
                format!(
                    "{} {name:?} is registered more than once (first at {}:{}) — \
                     two statics would double-count",
                    kind.as_str(),
                    first.0,
                    first.1
                )
            } else {
                format!(
                    "{name:?} is registered as both a {} and a {} (first at {}:{}) — \
                     one name, one instrument",
                    first.2.as_str(),
                    kind.as_str(),
                    first.0,
                    first.1
                )
            };
            out.push(Finding {
                rule: "trace-name-registry",
                file: rel.to_string(),
                line: *line,
                message: msg,
            });
        }
    }
    // README drift: every glossary name must appear backticked in the
    // Observability documentation.
    if let Some(readme) = &ctx.readme {
        for (name, entry) in glossary(ws) {
            if !readme.contains(&format!("`{name}`")) {
                let (file, line) = &entry.sites[0];
                out.push(Finding {
                    rule: "trace-name-registry",
                    file: file.clone(),
                    line: *line,
                    message: format!(
                        "trace name {name:?} is not documented in the README Observability \
                         table (expected a backticked `{name}` entry) — the glossary is \
                         machine-checked against the docs"
                    ),
                });
            }
        }
    }
}

/// hot-loop-allocation: no allocation-shaped expressions (`Vec::new`,
/// `Vec::with_capacity`, `vec![..]`, `clone()`, `collect()`, `to_vec()`,
/// `format!`) inside the loops of the
/// functions named in the committed hot-path manifest (seeded from
/// `bench_hotpaths.rs`). A deliberate allocation there takes an
/// `audit:allow` marker with its reason, like any other finding.
fn hot_loop_allocation(ws: &WorkspaceModel, ctx: &AuditContext, out: &mut Vec<Finding>) {
    for (idx, entry) in ctx.hotpaths.iter().enumerate() {
        let mut matched = false;
        for (id, f) in ws.iter() {
            let hit = if entry.contains("::") {
                f.qualified() == *entry
            } else {
                f.name == *entry
            };
            if !hit {
                continue;
            }
            matched = true;
            let rel = ws.file_of(id);
            for alloc in &f.loop_allocs {
                out.push(Finding {
                    rule: "hot-loop-allocation",
                    file: rel.to_string(),
                    line: alloc.line,
                    message: format!(
                        "`{}` inside a loop of hot-path function `{}` (manifest: \
                         {HOTPATH_MANIFEST}) — hoist or reuse a buffer; \
                         bench_hotpaths.rs measures this path",
                        alloc.what,
                        f.qualified()
                    ),
                });
            }
        }
        if !matched {
            out.push(Finding {
                rule: "hot-loop-allocation",
                file: HOTPATH_MANIFEST.to_string(),
                line: (idx + 1) as u32,
                message: format!(
                    "manifest entry `{entry}` matches no workspace function — remove it or \
                     fix the name"
                ),
            });
        }
    }
}

/// span-guard-binding: a `span()`/`span_with()` call whose guard is not
/// bound to a named `let` drops the `SpanGuard` immediately and records a
/// zero-length span — silently useless instrumentation.
fn span_guard_binding(ws: &WorkspaceModel, out: &mut Vec<Finding>) {
    for (rel, site) in ws.trace_sites() {
        if rel.starts_with("crates/trace/") {
            continue;
        }
        if site.kind == TraceKind::Span && !site.bound {
            out.push(Finding {
                rule: "span-guard-binding",
                file: rel.to_string(),
                line: site.line,
                message: format!(
                    "span {:?} guard is dropped immediately — bind it \
                     (`let _span = trace::span(..)`) so the span covers the scope",
                    site.name
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::WorkspaceModel;
    use crate::model::parse_file;

    fn run(files: &[(&str, &str)], ctx: &AuditContext) -> Vec<Finding> {
        let ws = WorkspaceModel::build(files.iter().map(|(r, s)| parse_file(r, s)).collect());
        let cg = CallGraph::build(&ws);
        interproc_findings(&ws, &cg, ctx)
    }

    #[test]
    fn name_convention() {
        assert!(well_formed_name("race.best_t", true));
        assert!(well_formed_name("eblow1d.plan", true));
        assert!(well_formed_name("race", false));
        assert!(!well_formed_name("race", true));
        assert!(!well_formed_name("Race.bad", true));
        assert!(!well_formed_name("race..bad", true));
        assert!(!well_formed_name(".race", true));
        assert!(!well_formed_name("", false));
    }

    #[test]
    fn stale_manifest_entry_is_a_finding() {
        let f = run(
            &[("crates/core/src/a.rs", "fn real() {}")],
            &AuditContext {
                readme: None,
                hotpaths: vec!["no_such_fn".to_string()],
            },
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-loop-allocation");
        assert_eq!(f[0].file, HOTPATH_MANIFEST);
    }

    #[test]
    fn duplicate_counter_registration_is_a_finding() {
        let f = run(
            &[(
                "crates/engine/src/a.rs",
                "static A: trace::Counter = trace::Counter::new(\"x.n\");\n\
                 static B: trace::Counter = trace::Counter::new(\"x.n\");",
            )],
            &AuditContext::default(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "trace-name-registry");
        assert!(f[0].message.contains("more than once"));
    }

    #[test]
    fn counter_histogram_conflict_is_a_finding() {
        let f = run(
            &[(
                "crates/engine/src/a.rs",
                "static A: trace::Counter = trace::Counter::new(\"x.n\");\n\
                 static B: trace::Histogram = trace::Histogram::new(\"x.n\");",
            )],
            &AuditContext::default(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("both a counter and a histogram"));
    }

    #[test]
    fn readme_drift_is_a_finding() {
        let files = [(
            "crates/engine/src/a.rs",
            "static A: trace::Counter = trace::Counter::new(\"race.runs\");",
        )];
        let documented = AuditContext {
            readme: Some("| counters | `race.runs` |".to_string()),
            hotpaths: vec![],
        };
        assert!(run(&files, &documented).is_empty());
        let undocumented = AuditContext {
            readme: Some("nothing here".to_string()),
            hotpaths: vec![],
        };
        let f = run(&files, &undocumented);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not documented"));
    }
}
