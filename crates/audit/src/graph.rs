//! The workspace symbol table and call graph, built from per-file
//! [`FileModel`]s, plus the JSON serializers behind the `graph` and
//! `glossary` CLI subcommands.
//!
//! Resolution is name-based and conservative:
//!
//! * a free call `foo(..)` resolves to every free fn named `foo`;
//! * a qualified call `Type::foo(..)` resolves to `Type`'s methods, or —
//!   when `Type` is a trait — to every impl of that trait (dispatch
//!   fallback);
//! * a method call `recv.foo(..)` resolves to *every* method named `foo`
//!   in the workspace (the receiver type is unknown at token level);
//! * a call matching nothing is external (`std`, shims) and tolerated.
//!
//! Over-approximation is the right bias for the reachability rule: extra
//! edges can only make the stop-flag analysis *more* demanding, never
//! silently blind.

use crate::model::{CallKind, FileModel, FnModel, TraceKind, TraceSite};
use crate::report::quote;
use std::collections::{BTreeMap, BTreeSet};

/// Schema tags for the two generated artifacts.
pub const GRAPH_SCHEMA: &str = "eblow-graph/1";
pub const GLOSSARY_SCHEMA: &str = "eblow-glossary/1";

/// Flattened function id: index into the workspace model's function list.
pub type FnId = usize;

/// All file models plus a flattened function index.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    pub files: Vec<FileModel>,
    /// `(file index, fn index within file)` per flattened id.
    fns: Vec<(usize, usize)>,
}

impl WorkspaceModel {
    pub fn build(files: Vec<FileModel>) -> WorkspaceModel {
        let mut fns = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            for (gi, _) in f.functions.iter().enumerate() {
                fns.push((fi, gi));
            }
        }
        WorkspaceModel { files, fns }
    }

    pub fn len(&self) -> usize {
        self.fns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    pub fn func(&self, id: FnId) -> &FnModel {
        let (fi, gi) = self.fns[id];
        &self.files[fi].functions[gi]
    }

    pub fn file_of(&self, id: FnId) -> &str {
        &self.files[self.fns[id].0].rel
    }

    pub fn iter(&self) -> impl Iterator<Item = (FnId, &FnModel)> {
        (0..self.fns.len()).map(move |id| (id, self.func(id)))
    }

    /// Every trace site with its file, in (file, line) order.
    pub fn trace_sites(&self) -> Vec<(&str, &TraceSite)> {
        let mut out: Vec<(&str, &TraceSite)> = self
            .files
            .iter()
            .flat_map(|f| f.trace_sites.iter().map(move |t| (f.rel.as_str(), t)))
            .collect();
        out.sort_by(|a, b| (a.0, a.1.line).cmp(&(b.0, b.1.line)));
        out
    }
}

/// The resolved call graph over a [`WorkspaceModel`].
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Resolved callee ids per function (sorted, deduped).
    pub callees: Vec<Vec<FnId>>,
    /// Distinct unresolved (external) callee names per function.
    pub external: Vec<Vec<String>>,
}

impl CallGraph {
    pub fn build(ws: &WorkspaceModel) -> CallGraph {
        // Name indexes. Free fns and methods are kept apart; trait names
        // map to their implementing methods for dispatch fallback.
        let mut free: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut by_type: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut by_trait: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        for (id, f) in ws.iter() {
            match &f.self_type {
                Some(t) => {
                    methods.entry(&f.name).or_default().push(id);
                    by_type.entry((t, &f.name)).or_default().push(id);
                    if let Some(tr) = &f.trait_name {
                        by_trait.entry((tr, &f.name)).or_default().push(id);
                    }
                }
                None => {
                    if let Some(tr) = &f.trait_name {
                        // Trait declaration (possibly with default body):
                        // dispatchable through the trait name.
                        by_trait.entry((tr, &f.name)).or_default().push(id);
                        methods.entry(&f.name).or_default().push(id);
                    } else {
                        free.entry(&f.name).or_default().push(id);
                    }
                }
            }
        }

        let mut callees = vec![Vec::new(); ws.len()];
        let mut external = vec![Vec::new(); ws.len()];
        for (id, f) in ws.iter() {
            let mut out: BTreeSet<FnId> = BTreeSet::new();
            let mut ext: BTreeSet<String> = BTreeSet::new();
            for c in &f.calls {
                let targets: Vec<FnId> = match c.kind {
                    CallKind::Free => free.get(c.name.as_str()).cloned().unwrap_or_default(),
                    CallKind::Method => methods.get(c.name.as_str()).cloned().unwrap_or_default(),
                    CallKind::Qualified => {
                        let q = c.qualifier.as_deref().unwrap_or("");
                        let mut t = by_type
                            .get(&(q, c.name.as_str()))
                            .cloned()
                            .unwrap_or_default();
                        if t.is_empty() {
                            // Trait-qualified call: fall back to every
                            // impl of that trait (dynamic dispatch).
                            t = by_trait
                                .get(&(q, c.name.as_str()))
                                .cloned()
                                .unwrap_or_default();
                        }
                        t
                    }
                };
                if targets.is_empty() {
                    ext.insert(c.name.clone());
                } else {
                    out.extend(targets);
                }
            }
            callees[id] = out.into_iter().collect();
            external[id] = ext.into_iter().collect();
        }
        CallGraph { callees, external }
    }

    /// BFS over call edges from `entries`; returns the reachable set
    /// (entries included).
    pub fn reachable_from(&self, entries: &[FnId]) -> Vec<bool> {
        let mut seen = vec![false; self.callees.len()];
        let mut queue: Vec<FnId> = Vec::new();
        for &e in entries {
            if !seen[e] {
                seen[e] = true;
                queue.push(e);
            }
        }
        while let Some(id) = queue.pop() {
            for &next in &self.callees[id] {
                if !seen[next] {
                    seen[next] = true;
                    queue.push(next);
                }
            }
        }
        seen
    }
}

/// Entry points of the cooperative-cancellation fabric: `Strategy::plan`
/// methods, `*_with_stop` functions, and anything that takes a stop
/// token directly.
pub fn entry_points(ws: &WorkspaceModel) -> Vec<FnId> {
    ws.iter()
        .filter(|(_, f)| {
            (f.name == "plan" && f.self_type.is_some())
                || f.name.ends_with("_with_stop")
                || f.stop_param
        })
        .map(|(id, _)| id)
        .collect()
}

/// Serializes the symbol table + call graph for the `graph` subcommand
/// (CI uploads it as an inspectable artifact).
pub fn graph_json(ws: &WorkspaceModel, cg: &CallGraph) -> String {
    let entries = entry_points(ws);
    let reach = cg.reachable_from(&entries);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", quote(GRAPH_SCHEMA)));
    s.push_str(&format!("  \"functions\": {},\n", ws.len()));
    s.push_str(&format!(
        "  \"entry_points\": [{}],\n",
        entries
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str("  \"nodes\": [\n");
    let n = ws.len();
    for (id, f) in ws.iter() {
        let max_loop = f.loops.iter().map(|l| l.span_lines).max().unwrap_or(0);
        s.push_str(&format!(
            "    {{\"id\": {id}, \"fn\": {}, \"file\": {}, \"line\": {}, \
             \"stop_aware\": {}, \"loops\": {}, \"max_loop_lines\": {max_loop}, \
             \"reachable\": {}, \"calls\": [{}], \"external\": [{}]}}{}\n",
            quote(&f.qualified()),
            quote(ws.file_of(id)),
            f.line,
            f.stop_aware(),
            f.loops.len(),
            reach[id],
            cg.callees[id]
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(", "),
            cg.external[id]
                .iter()
                .map(|e| quote(e))
                .collect::<Vec<_>>()
                .join(", "),
            if id + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// One glossary entry: a trace name, the kinds it is used as, and every
/// site that emits or registers it.
#[derive(Debug)]
pub struct GlossaryEntry {
    pub kinds: Vec<TraceKind>,
    /// `(file, line)` pairs, sorted.
    pub sites: Vec<(String, u32)>,
}

/// Aggregates every *literal* trace name in the workspace, keyed by name.
/// `crates/trace` itself is excluded: its unit tests register scratch
/// names that are not part of the instrumented surface.
pub fn glossary(ws: &WorkspaceModel) -> BTreeMap<String, GlossaryEntry> {
    let mut out: BTreeMap<String, GlossaryEntry> = BTreeMap::new();
    for (rel, site) in ws.trace_sites() {
        if rel.starts_with("crates/trace/") {
            continue;
        }
        let e = out
            .entry(site.name.clone())
            .or_insert_with(|| GlossaryEntry {
                kinds: Vec::new(),
                sites: Vec::new(),
            });
        if !e.kinds.contains(&site.kind) {
            e.kinds.push(site.kind);
        }
        e.sites.push((rel.to_string(), site.line));
    }
    for e in out.values_mut() {
        e.kinds.sort();
        e.sites.sort();
        e.sites.dedup();
    }
    out
}

/// Serializes the glossary in its committed `TRACE_GLOSSARY.json` form
/// (deterministic: BTreeMap order, sorted kinds and sites).
pub fn glossary_json(ws: &WorkspaceModel) -> String {
    let g = glossary(ws);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": {},\n", quote(GLOSSARY_SCHEMA)));
    s.push_str("  \"names\": [\n");
    let n = g.len();
    for (k, (name, e)) in g.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": {}, \"kinds\": [{}], \"sites\": [{}]}}{}\n",
            quote(name),
            e.kinds
                .iter()
                .map(|kind| quote(kind.as_str()))
                .collect::<Vec<_>>()
                .join(", "),
            e.sites
                .iter()
                .map(|(f, l)| format!("{{\"file\": {}, \"line\": {l}}}", quote(f)))
                .collect::<Vec<_>>()
                .join(", "),
            if k + 1 < n { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::parse_file;

    fn ws(files: &[(&str, &str)]) -> WorkspaceModel {
        WorkspaceModel::build(files.iter().map(|(r, s)| parse_file(r, s)).collect())
    }

    fn id_of(ws: &WorkspaceModel, qualified: &str) -> FnId {
        ws.iter()
            .find(|(_, f)| f.qualified() == qualified)
            .unwrap_or_else(|| panic!("no fn {qualified}"))
            .0
    }

    #[test]
    fn free_fn_vs_method_resolution() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "fn helper() {}\n\
             impl Foo { fn helper(&self) {} fn run(&self) { helper(); self.helper(); } }",
        )]);
        let cg = CallGraph::build(&w);
        let run = id_of(&w, "Foo::run");
        let free = id_of(&w, "helper");
        let method = id_of(&w, "Foo::helper");
        // `helper()` goes to the free fn; `self.helper()` to the method.
        assert!(cg.callees[run].contains(&free));
        assert!(cg.callees[run].contains(&method));
        // The free call did NOT resolve to the method alone: remove the
        // free fn and the edge set changes shape.
        let w2 = ws(&[(
            "crates/x/src/a.rs",
            "impl Foo { fn helper(&self) {} fn run(&self) { self.helper(); } }",
        )]);
        let cg2 = CallGraph::build(&w2);
        let run2 = id_of(&w2, "Foo::run");
        assert_eq!(cg2.callees[run2], vec![id_of(&w2, "Foo::helper")]);
    }

    #[test]
    fn trait_impl_dispatch_fallback() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "trait Oracle { fn solve(&self); }\n\
             impl Oracle for Fast { fn solve(&self) {} }\n\
             impl Oracle for Slow { fn solve(&self) {} }\n\
             fn drive() { Oracle::solve(); }",
        )]);
        let cg = CallGraph::build(&w);
        let drive = id_of(&w, "drive");
        assert!(cg.callees[drive].contains(&id_of(&w, "Fast::solve")));
        assert!(cg.callees[drive].contains(&id_of(&w, "Slow::solve")));
    }

    #[test]
    fn method_call_fans_out_to_all_impls() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "impl A { fn go(&self) {} }\nimpl B { fn go(&self) {} }\n\
             fn drive(x: &A) { x.go(); }",
        )]);
        let cg = CallGraph::build(&w);
        let drive = id_of(&w, "drive");
        // Receiver types are unknown at token level: both `go`s edge.
        assert_eq!(cg.callees[drive].len(), 2);
    }

    #[test]
    fn external_calls_are_tolerated() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "fn f(v: &mut Vec<u64>) { v.push(1); let n = v.len(); helper(n); }",
        )]);
        let cg = CallGraph::build(&w);
        let f = id_of(&w, "f");
        assert!(cg.callees[f].is_empty());
        assert_eq!(cg.external[f], vec!["helper", "len", "push"]);
    }

    #[test]
    fn reachability_crosses_files() {
        let w = ws(&[
            (
                "crates/core/src/a.rs",
                "pub fn plan_with_stop(stop: StopFlag) { helper(); }",
            ),
            (
                "crates/core/src/b.rs",
                "pub fn helper() { inner(); }\npub fn inner() {}\npub fn island() {}",
            ),
        ]);
        let cg = CallGraph::build(&w);
        let entries = entry_points(&w);
        assert_eq!(entries, vec![id_of(&w, "plan_with_stop")]);
        let reach = cg.reachable_from(&entries);
        assert!(reach[id_of(&w, "helper")]);
        assert!(reach[id_of(&w, "inner")]);
        assert!(!reach[id_of(&w, "island")]);
    }

    #[test]
    fn glossary_aggregates_and_excludes_trace_crate() {
        let w = ws(&[
            (
                "crates/engine/src/a.rs",
                "static C: trace::Counter = trace::Counter::new(\"area.n\");\n\
                 fn f() { trace::instant(\"area.n\", 0, 0); }",
            ),
            (
                "crates/trace/src/lib.rs",
                "fn t() { let c = Counter::new(\"scratch.x\"); }",
            ),
        ]);
        let g = glossary(&w);
        assert_eq!(g.len(), 1);
        let e = &g["area.n"];
        assert_eq!(e.kinds, vec![TraceKind::Instant, TraceKind::Counter]);
        assert_eq!(e.sites.len(), 2);
    }

    #[test]
    fn graph_json_is_valid_shape() {
        let w = ws(&[(
            "crates/core/src/a.rs",
            "fn plan_with_stop(stop: StopFlag) { work(); }\nfn work() {}",
        )]);
        let cg = CallGraph::build(&w);
        let j = graph_json(&w, &cg);
        assert!(j.contains("\"schema\": \"eblow-graph/1\""));
        assert!(j.contains("\"fn\": \"plan_with_stop\""));
        assert!(j.contains("\"reachable\": true"));
    }
}
