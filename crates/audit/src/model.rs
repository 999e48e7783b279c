//! The workspace model: a lightweight semantic layer on top of the
//! lexer — item signatures, call expressions, loops, and trace-name
//! literals — just enough structure to resolve same-workspace calls into
//! a call graph. No full AST, no type inference: the same philosophy as
//! rust-analyzer's cheap first-pass indexing, scoped to what the
//! interprocedural rules need.
//!
//! Parsing is deliberately over-approximate where it is cheap to be:
//! a method call `.foo(..)` resolves to *every* workspace method named
//! `foo` (trait-impl dispatch fallback included), and calls that match no
//! workspace function are tolerated as external. Over-approximation makes
//! reachability conservative — the stop-flag rule can only over-report,
//! never silently miss a call chain — and suppression markers absorb the
//! rare deliberate exception.

use crate::lexer::{ident_at, lex, matching, punct_at, Lexed, Tok, Token};

/// What kind of call site produced an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` or `path::foo(..)` — a free (or associated) function.
    Free,
    /// `recv.foo(..)` — a method call, receiver type unknown.
    Method,
    /// `Type::foo(..)` — an associated call with an explicit self type.
    Qualified,
}

/// One call expression inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// For [`CallKind::Qualified`], the `Type` on the left of `::`.
    pub qualifier: Option<String>,
    pub kind: CallKind,
    pub line: u32,
}

/// One loop inside a function body.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// `for` / `while` / `loop`.
    pub keyword: &'static str,
    pub line: u32,
    /// Source lines between the body's `{` and `}`.
    pub span_lines: u32,
    /// Token range of the loop body (file-local token indices).
    pub body: std::ops::Range<usize>,
}

/// Where a trace name literal was seen, and through which API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceKind {
    Span,
    Instant,
    Value,
    Counter,
    Histogram,
}

impl TraceKind {
    pub fn as_str(self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Instant => "instant",
            TraceKind::Value => "value",
            TraceKind::Counter => "counter",
            TraceKind::Histogram => "histogram",
        }
    }
}

/// A literal trace name at a call/registration site.
#[derive(Debug, Clone)]
pub struct TraceSite {
    pub name: String,
    pub kind: TraceKind,
    pub line: u32,
    /// For spans: was the guard bound to a named `let`? (`let _ = ..` and
    /// bare statements drop the `SpanGuard` immediately — a zero-length
    /// span.) Always `true` for non-span kinds.
    pub bound: bool,
}

/// An allocation-shaped expression found inside a loop body (the
/// hot-loop-allocation rule's raw material).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// What was matched: `clone()`, `collect()`, `to_vec()`, `format!`,
    /// `vec![..]`, `Vec::new`, `Vec::with_capacity`.
    pub what: &'static str,
    pub line: u32,
}

/// One `fn` item (free function, inherent/trait-impl method, or trait
/// declaration with a default body).
#[derive(Debug, Clone)]
pub struct FnModel {
    pub name: String,
    /// `impl` self type when this fn is a method (`RegionTimes`, ...).
    pub self_type: Option<String>,
    /// Trait name when defined in `impl Trait for Type` or `trait Trait`.
    pub trait_name: Option<String>,
    pub line: u32,
    /// Does any parameter (name or type) carry a stop/cancellation token
    /// (`StopFlag`, `stop`, `Budget`)?
    pub stop_param: bool,
    /// Does the body mention a stop/cancel identifier at all (covers
    /// `self.stop`, `budget.is_cancelled()`, captured flags)?
    pub mentions_stop: bool,
    pub loops: Vec<LoopInfo>,
    pub calls: Vec<CallSite>,
    /// Allocation-shaped expressions inside this fn's loop bodies.
    pub loop_allocs: Vec<AllocSite>,
    /// Token range of the body (empty for bodyless trait declarations).
    pub body: std::ops::Range<usize>,
}

impl FnModel {
    /// `Type::name` for methods (`Trait::name` for trait declarations),
    /// plain `name` for free functions.
    pub fn qualified(&self) -> String {
        match self.self_type.as_deref().or(self.trait_name.as_deref()) {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Is this function part of the cooperative-cancellation fabric: does
    /// it receive a stop token, poll one through some path, or advertise
    /// one in its name?
    pub fn stop_aware(&self) -> bool {
        self.stop_param || self.mentions_stop || self.name.ends_with("_with_stop")
    }
}

/// Everything the graph rules need from one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Workspace-root-relative path with `/` separators.
    pub rel: String,
    pub functions: Vec<FnModel>,
    pub trace_sites: Vec<TraceSite>,
}

/// Identifiers that mark a parameter or body as cancellation-aware. The
/// vocabulary matches the token-level stop-flag-coverage rule.
const STOP_WORDS: &[&str] = &["stop", "cancel", "budget"];

fn is_stop_word(ident: &str) -> bool {
    let low = ident.to_ascii_lowercase();
    STOP_WORDS.iter().any(|w| low.contains(w))
}

/// Keywords that look like calls when followed by `(` but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "loop", "match", "return", "fn", "let", "in", "move", "mut", "ref",
    "break", "continue", "else", "impl", "where", "unsafe", "async", "await", "dyn", "as",
];

/// Parses one file into its model. `rel` is the workspace-relative path.
pub fn parse_file(rel: &str, src: &str) -> FileModel {
    let lexed = lex(src);
    parse_lexed(rel, &lexed)
}

/// Parses an already-lexed file (the scan pipeline lexes once and shares).
pub fn parse_lexed(rel: &str, lexed: &Lexed) -> FileModel {
    let toks = &lexed.tokens;
    let mut model = FileModel {
        rel: rel.to_string(),
        ..FileModel::default()
    };

    // Pass 1: impl/trait block ranges, so fns can be qualified by their
    // innermost enclosing block.
    let blocks = find_impl_blocks(toks);

    // Pass 2: fn items anywhere (top level, impls, nested in bodies).
    let mut k = 0usize;
    while k < toks.len() {
        if ident_is(toks, k, "fn") {
            if let Some((f, next)) = parse_fn(toks, k, &blocks) {
                model.functions.push(f);
                // Continue *inside* the fn so nested fns are found too.
                k = next;
                continue;
            }
        }
        k += 1;
    }

    // Pass 3: trace-name literals (API calls and Counter/Histogram
    // registrations).
    collect_trace_sites(toks, &mut model.trace_sites);

    model
}

/// An `impl`/`trait` block: token range of the body plus naming context.
struct ImplBlock {
    self_type: Option<String>,
    trait_name: Option<String>,
    body: std::ops::Range<usize>,
}

fn ident_is(toks: &[Token], k: usize, s: &str) -> bool {
    matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Ident(i)) if i == s)
}

fn str_at(toks: &[Token], k: usize) -> Option<&str> {
    match toks.get(k).map(|t| &t.tok) {
        Some(Tok::Str(s)) => Some(s.as_str()),
        _ => None,
    }
}

/// Skips a balanced `<...>` generics list starting at `k` (which must be
/// `<`). Returns the index just past the closing `>`. Understands that a
/// `->` inside (`Fn() -> T` bounds) is an arrow, not a close.
fn skip_generics(toks: &[Token], k: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    while j < toks.len() {
        match punct_at(toks, j) {
            Some('<') => depth += 1,
            // `->`: the `-` precedes; an arrow, not a generics close.
            Some('>') if punct_at(toks, j.wrapping_sub(1)) != Some('-') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            None if toks.get(j).is_none() => return j,
            _ => (),
        }
        j += 1;
    }
    j
}

/// Reads a type path like `RegionTimes` / `oned::RowState` /
/// `Vec<CharId>` starting at `k`; returns (last path segment, next index).
fn parse_type_head(toks: &[Token], k: usize) -> Option<(String, usize)> {
    let mut j = k;
    // Leading `&`, `'a`, `mut`, `dyn` are possible but impl headers in
    // this workspace are plain paths; handle the common prefixes anyway.
    while punct_at(toks, j) == Some('&')
        || matches!(toks.get(j).map(|t| &t.tok), Some(Tok::Lifetime))
        || ident_is(toks, j, "mut")
        || ident_is(toks, j, "dyn")
    {
        j += 1;
    }
    let mut name = ident_at(toks, j)?.to_string();
    j += 1;
    loop {
        if punct_at(toks, j) == Some(':') && punct_at(toks, j + 1) == Some(':') {
            if let Some(seg) = ident_at(toks, j + 2) {
                name = seg.to_string();
                j += 3;
                continue;
            }
        }
        if punct_at(toks, j) == Some('<') {
            j = skip_generics(toks, j);
            continue;
        }
        break;
    }
    Some((name, j))
}

fn find_impl_blocks(toks: &[Token]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut k = 0usize;
    while k < toks.len() {
        let kw = match ident_at(toks, k) {
            Some("impl") => "impl",
            Some("trait") => "trait",
            _ => {
                k += 1;
                continue;
            }
        };
        let mut j = k + 1;
        if punct_at(toks, j) == Some('<') {
            j = skip_generics(toks, j);
        }
        let (mut self_type, mut trait_name) = (None, None);
        if kw == "trait" {
            trait_name = ident_at(toks, j).map(str::to_string);
        } else if let Some((first, next)) = parse_type_head(toks, j) {
            j = next;
            if ident_is(toks, j, "for") {
                trait_name = Some(first);
                if let Some((second, next2)) = parse_type_head(toks, j + 1) {
                    self_type = Some(second);
                    j = next2;
                }
            } else {
                self_type = Some(first);
            }
        }
        // Body: first `{` at top level after the header (skipping a
        // possible `where` clause, which contains no braces).
        let Some(open) = (j..toks.len()).find(|&p| punct_at(toks, p) == Some('{')) else {
            k += 1;
            continue;
        };
        let Some(close) = matching(toks, open, '{', '}') else {
            k += 1;
            continue;
        };
        out.push(ImplBlock {
            self_type,
            trait_name,
            body: open..close + 1,
        });
        // Impl bodies nest fns but never other impls worth separate
        // context; continue scanning *inside* anyway (cheap, harmless).
        k = open + 1;
    }
    out
}

/// Parses the `fn` whose keyword is at `k`. Returns the model and the
/// index to resume scanning from (just inside the body, so nested fns are
/// still discovered by the caller's linear scan).
fn parse_fn(toks: &[Token], k: usize, blocks: &[ImplBlock]) -> Option<(FnModel, usize)> {
    let name = ident_at(toks, k + 1)?.to_string();
    let mut j = k + 2;
    if punct_at(toks, j) == Some('<') {
        j = skip_generics(toks, j);
    }
    if punct_at(toks, j) != Some('(') {
        return None;
    }
    let params_close = matching(toks, j, '(', ')')?;
    let stop_param = toks[j..params_close]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if is_stop_word(s) || s == "StopFlag"));

    // After the params: scan for the body `{` or a `;` (trait decl /
    // extern), tracking bracket nesting so `-> [u8; 4]` etc. don't
    // confuse the search.
    let mut p = params_close + 1;
    let mut bracket = 0i32;
    let body_open = loop {
        match punct_at(toks, p) {
            Some('[') => bracket += 1,
            Some(']') => bracket -= 1,
            Some('<') => {
                p = skip_generics(toks, p);
                continue;
            }
            Some('{') if bracket == 0 => break Some(p),
            Some(';') if bracket == 0 => break None,
            None if toks.get(p).is_none() => break None,
            _ => (),
        }
        p += 1;
    };

    // Innermost enclosing impl/trait block gives the naming context.
    let ctx = blocks
        .iter()
        .filter(|b| b.body.contains(&k))
        .min_by_key(|b| b.body.len());
    let (self_type, trait_name) = match ctx {
        Some(b) => (b.self_type.clone(), b.trait_name.clone()),
        None => (None, None),
    };

    let line = toks[k].line;
    let Some(open) = body_open else {
        // Bodyless declaration (trait method signature).
        return Some((
            FnModel {
                name,
                self_type,
                trait_name,
                line,
                stop_param,
                mentions_stop: false,
                loops: Vec::new(),
                calls: Vec::new(),
                loop_allocs: Vec::new(),
                body: 0..0,
            },
            params_close + 1,
        ));
    };
    let close = matching(toks, open, '{', '}')?;
    let body = open..close + 1;

    let mentions_stop = toks[body.clone()]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if is_stop_word(s)));

    let mut loops = Vec::new();
    collect_loops(toks, body.clone(), &mut loops);
    let mut calls = Vec::new();
    collect_calls(toks, body.clone(), &mut calls);
    let mut loop_allocs = Vec::new();
    for lp in &loops {
        collect_allocs(toks, lp.body.clone(), &mut loop_allocs);
    }
    // Nested loops share token ranges; dedup by (what, line).
    loop_allocs.sort_by_key(|a| (a.line, a.what));
    loop_allocs.dedup_by_key(|a| (a.line, a.what));

    Some((
        FnModel {
            name,
            self_type,
            trait_name,
            line,
            stop_param,
            mentions_stop,
            loops,
            calls,
            loop_allocs,
            body,
        },
        open + 1,
    ))
}

/// Allocation-shaped patterns inside a loop body: `.clone()`,
/// `.collect..`, `.to_vec()`, `format!`, `vec![..]`, `Vec::new`,
/// `Vec::with_capacity`.
fn collect_allocs(toks: &[Token], range: std::ops::Range<usize>, out: &mut Vec<AllocSite>) {
    for k in range {
        let Some(name) = ident_at(toks, k) else {
            continue;
        };
        let line = toks[k].line;
        let after_dot = punct_at(toks, k.wrapping_sub(1)) == Some('.');
        match name {
            // Method position only, so a local fn named `clone` in some
            // unrelated expression does not register. Turbofish
            // (`collect::<..>()`) means the next token may be `:`, so the
            // `(` is not required.
            "clone" if after_dot => out.push(AllocSite {
                what: "clone()",
                line,
            }),
            "collect" if after_dot => out.push(AllocSite {
                what: "collect()",
                line,
            }),
            "to_vec" if after_dot => out.push(AllocSite {
                what: "to_vec()",
                line,
            }),
            "format" if punct_at(toks, k + 1) == Some('!') => out.push(AllocSite {
                what: "format!",
                line,
            }),
            "vec" if punct_at(toks, k + 1) == Some('!') => out.push(AllocSite {
                what: "vec![..]",
                line,
            }),
            "Vec" if punct_at(toks, k + 1) == Some(':') && punct_at(toks, k + 2) == Some(':') => {
                let what = match ident_at(toks, k + 3) {
                    Some("new") => "Vec::new",
                    Some("with_capacity") => "Vec::with_capacity",
                    _ => continue,
                };
                out.push(AllocSite { what, line })
            }
            _ => (),
        }
    }
}

/// Finds `for`/`while`/`loop` bodies inside `range`. Nested fns inside the
/// range are *not* excluded — their loops belong to them too, but a loop
/// attributed to both an outer and an inner fn only over-approximates.
fn collect_loops(toks: &[Token], range: std::ops::Range<usize>, out: &mut Vec<LoopInfo>) {
    let mut k = range.start;
    while k < range.end {
        let kw = match ident_at(toks, k) {
            Some("for") => "for",
            Some("while") => "while",
            Some("loop") => "loop",
            _ => {
                k += 1;
                continue;
            }
        };
        // `for` in generics/bounds (`impl Trait for T`, `for<'a>`).
        if kw == "for" {
            if let Some(Tok::Ident(_)) = toks.get(k.wrapping_sub(1)).map(|t| &t.tok) {
                k += 1;
                continue;
            }
            if punct_at(toks, k + 1) == Some('<') {
                k += 1;
                continue;
            }
        }
        let Some(open) = (k..range.end).find(|&j| punct_at(toks, j) == Some('{')) else {
            k += 1;
            continue;
        };
        let Some(close) = matching(toks, open, '{', '}') else {
            k += 1;
            continue;
        };
        out.push(LoopInfo {
            keyword: kw,
            line: toks[k].line,
            span_lines: toks[close].line.saturating_sub(toks[open].line),
            body: open..close + 1,
        });
        k = open + 1;
    }
}

/// Extracts call expressions from a body token range.
fn collect_calls(toks: &[Token], range: std::ops::Range<usize>, out: &mut Vec<CallSite>) {
    for k in range.clone() {
        let Some(name) = ident_at(toks, k) else {
            continue;
        };
        if punct_at(toks, k + 1) != Some('(') {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a definition, `name!(` a macro; both excluded.
        if ident_is(toks, k.wrapping_sub(1), "fn") || punct_at(toks, k + 1) == Some('!') {
            continue;
        }
        let prev = k.wrapping_sub(1);
        let line = toks[k].line;
        if punct_at(toks, prev) == Some('.') {
            out.push(CallSite {
                name: name.to_string(),
                qualifier: None,
                kind: CallKind::Method,
                line,
            });
        } else if punct_at(toks, prev) == Some(':')
            && punct_at(toks, prev.wrapping_sub(1)) == Some(':')
        {
            let qual = ident_at(toks, prev.wrapping_sub(2)).map(str::to_string);
            // `Type::call(..)` — a capitalized qualifier is a self type;
            // a lowercase one is a module path (a free call).
            let qualified = qual
                .as_deref()
                .is_some_and(|q| q.chars().next().is_some_and(char::is_uppercase));
            out.push(CallSite {
                name: name.to_string(),
                qualifier: if qualified { qual } else { None },
                kind: if qualified {
                    CallKind::Qualified
                } else {
                    CallKind::Free
                },
                line,
            });
        } else {
            out.push(CallSite {
                name: name.to_string(),
                qualifier: None,
                kind: CallKind::Free,
                line,
            });
        }
    }
}

/// The `eblow-trace` public API surface, with the argument position of
/// the name literal (always the first argument).
const TRACE_FNS: &[(&str, TraceKind)] = &[
    ("span", TraceKind::Span),
    ("span_with", TraceKind::Span),
    ("instant", TraceKind::Instant),
    ("instant_with", TraceKind::Instant),
    ("value", TraceKind::Value),
];

fn collect_trace_sites(toks: &[Token], out: &mut Vec<TraceSite>) {
    for k in 0..toks.len() {
        let Some(name) = ident_at(toks, k) else {
            continue;
        };
        if punct_at(toks, k + 1) != Some('(') {
            continue;
        }
        // `Counter::new("x")` / `Histogram::new("x")` registrations.
        if name == "new"
            && punct_at(toks, k.wrapping_sub(1)) == Some(':')
            && punct_at(toks, k.wrapping_sub(2)) == Some(':')
        {
            let kind = match ident_at(toks, k.wrapping_sub(3)) {
                Some("Counter") => Some(TraceKind::Counter),
                Some("Histogram") => Some(TraceKind::Histogram),
                _ => None,
            };
            if let (Some(kind), Some(lit)) = (kind, str_at(toks, k + 2)) {
                out.push(TraceSite {
                    name: lit.to_string(),
                    kind,
                    line: toks[k + 2].line,
                    bound: true,
                });
            }
            continue;
        }
        // `trace::span(..)` / `eblow_trace::instant(..)` style calls: the
        // path head must be the trace crate (possibly re-exported as
        // `trace`), so an unrelated local `span()` never registers.
        let Some((tf, kind)) = TRACE_FNS.iter().find(|(f, _)| *f == name) else {
            continue;
        };
        let _ = tf;
        if punct_at(toks, k.wrapping_sub(1)) != Some(':')
            || punct_at(toks, k.wrapping_sub(2)) != Some(':')
        {
            continue;
        }
        let head = k.wrapping_sub(3);
        if !matches!(ident_at(toks, head), Some("trace") | Some("eblow_trace")) {
            continue;
        }
        let Some(lit) = str_at(toks, k + 2) else {
            // Dynamic name (`span(strategy.name())`) — not a literal, the
            // registry has nothing to pin.
            continue;
        };
        let bound = if *kind == TraceKind::Span {
            span_is_bound(toks, head)
        } else {
            true
        };
        out.push(TraceSite {
            name: lit.to_string(),
            kind: *kind,
            line: toks[k].line,
            bound,
        });
    }
}

/// Is the span expression starting at path-head token `head`
/// (`trace::span...`) bound to a named `let`? `let _ = ..` and a bare
/// statement both drop the guard immediately.
fn span_is_bound(toks: &[Token], head: usize) -> bool {
    // Expected shape: .. `let` <name> [`:` Type] `=` trace :: span ( ..
    if punct_at(toks, head.wrapping_sub(1)) != Some('=') {
        return false;
    }
    // Walk back over an optional `: Type` annotation to the binding name.
    let mut j = head.wrapping_sub(2);
    // `let x: SpanGuard =` — skip type tokens until the `:`.
    let mut guard = 0;
    while guard < 8 {
        if let Some(name) = ident_at(toks, j) {
            // A `let` directly before means `j` holds the binding.
            if ident_is(toks, j.wrapping_sub(1), "let") {
                return name != "_";
            }
        }
        if punct_at(toks, j) == Some(':') {
            // Type annotation: binding name sits before the `:`.
            let b = j.wrapping_sub(1);
            if let Some(name) = ident_at(toks, b) {
                if ident_is(toks, b.wrapping_sub(1), "let") {
                    return name != "_";
                }
            }
        }
        if j == 0 {
            break;
        }
        j -= 1;
        guard += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_fn_and_method_are_qualified() {
        let m = parse_file(
            "crates/x/src/a.rs",
            "fn free(a: u64) {}\nimpl Foo { fn method(&self) {} }\n\
             impl Bar for Foo { fn tm(&self) {} }\ntrait Baz { fn decl(&self); }",
        );
        let names: Vec<String> = m.functions.iter().map(FnModel::qualified).collect();
        assert_eq!(names, ["free", "Foo::method", "Foo::tm", "Baz::decl"]);
        assert_eq!(m.functions[2].trait_name.as_deref(), Some("Bar"));
        assert_eq!(m.functions[3].trait_name.as_deref(), Some("Baz"));
    }

    #[test]
    fn stop_params_and_mentions_are_detected() {
        let m = parse_file(
            "crates/x/src/a.rs",
            "fn a(stop: StopFlag) {}\nfn b(budget: &Budget) {}\n\
             fn c() { if self.stop.is_set() { return; } }\nfn d(x: u64) { let y = x; }",
        );
        assert!(m.functions[0].stop_param);
        assert!(m.functions[1].stop_param);
        assert!(m.functions[2].mentions_stop && !m.functions[2].stop_param);
        assert!(!m.functions[3].stop_aware());
    }

    #[test]
    fn loops_and_calls_are_collected() {
        let src = "fn f() {\n  for i in 0..9 {\n    helper(i);\n    obj.meth(i);\n    Kind::assoc(i);\n  }\n}";
        let m = parse_file("crates/x/src/a.rs", src);
        let f = &m.functions[0];
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].keyword, "for");
        let kinds: Vec<(String, CallKind)> =
            f.calls.iter().map(|c| (c.name.clone(), c.kind)).collect();
        assert!(kinds.contains(&("helper".into(), CallKind::Free)));
        assert!(kinds.contains(&("meth".into(), CallKind::Method)));
        assert!(kinds.contains(&("assoc".into(), CallKind::Qualified)));
        assert_eq!(
            f.calls
                .iter()
                .find(|c| c.name == "assoc")
                .unwrap()
                .qualifier,
            Some("Kind".to_string())
        );
    }

    #[test]
    fn macros_and_defs_are_not_calls() {
        let m = parse_file(
            "crates/x/src/a.rs",
            "fn f() { println!(\"x\"); let v = vec![1]; inner(); } fn inner() {}",
        );
        let calls: Vec<&str> = m.functions[0]
            .calls
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(calls, ["inner"]);
    }

    #[test]
    fn trace_sites_with_binding_detection() {
        let src = r#"
            static C: trace::Counter = trace::Counter::new("area.count");
            fn f() {
                let _span = trace::span("lane");
                trace::span("area.dropped");
                let _ = eblow_trace::span("area.underscore");
                eblow_trace::instant("area.tick", 0, 0);
                let _g = trace::span_with("area.detail", || String::new());
            }
        "#;
        let m = parse_file("crates/x/src/a.rs", src);
        let by_name = |n: &str| m.trace_sites.iter().find(|t| t.name == n).unwrap();
        assert_eq!(by_name("area.count").kind, TraceKind::Counter);
        assert!(by_name("lane").bound);
        assert!(!by_name("area.dropped").bound);
        assert!(!by_name("area.underscore").bound);
        assert!(by_name("area.tick").bound);
        assert!(by_name("area.detail").bound);
    }

    #[test]
    fn unqualified_span_is_not_a_trace_site() {
        let m = parse_file("crates/x/src/a.rs", "fn f() { span(\"not.traced\"); }");
        assert!(m.trace_sites.is_empty());
    }

    #[test]
    fn nested_fns_are_found() {
        let m = parse_file(
            "crates/x/src/a.rs",
            "fn outer() { fn inner() { for i in 0..3 { work(i); } } inner(); }",
        );
        let names: Vec<&str> = m.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }
}
