//! The rule passes. Each rule is grounded in a bug class this repository
//! has actually shipped and fixed (see CHANGES.md, PRs 1–5); the catalogue
//! in [`RULES`] is the single source of truth for ids and rationale.

use crate::lexer::{lex, Lexed, Tok};

/// Machine-readable description of one audit rule.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
    /// The shipped bug class that motivated the rule.
    pub rationale: &'static str,
}

/// The rule catalogue. Ids are stable: they key baseline entries and
/// `audit:allow(<id>)` suppression markers.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "nan-unsafe-sort",
        summary:
            "`partial_cmp(..).unwrap()/.expect(..)` comparator — panics on NaN; use `total_cmp`",
        rationale: "NaN profit densities panicked the 2D clustering sort (fixed PR 3) and the \
                    rounding/convergence sorts (fixed PR 5); every float comparator must be total",
    },
    RuleInfo {
        id: "stop-flag-coverage",
        summary: "long planning loop never polls a stop flag — deadline overruns",
        rationale:
            "races overran their deadline by up to 2 s until stop polls were added to every \
                    baseline planner loop (fixed PR 2); new long loops must poll cooperatively",
    },
    RuleInfo {
        id: "unsafe-confinement",
        summary: "`unsafe` anywhere, or a crate root missing `#![forbid(unsafe_code)]`",
        rationale: "the trace ring's `unsafe` slots let a snapshot clone an event its producer \
                    was freeing; a lock replaced them, the workspace has no `unsafe` left, and \
                    rustc and this rule both enforce the forbid",
    },
    RuleInfo {
        id: "determinism",
        summary: "wall-clock or randomness in digest/persistence paths",
        rationale: "`InstanceDigest` keys the plan cache and the text format persists \
                    instances; any nondeterminism (clocks, RNG, hash-order iteration) silently \
                    poisons cache keys and written instances",
    },
    RuleInfo {
        id: "allow-justification",
        summary: "`#[allow(..)]` or `audit:allow(..)` without a reason",
        rationale: "suppressions without a recorded why rot: the next reader cannot tell a \
                    load-bearing exemption from a stale one",
    },
    RuleInfo {
        id: "stop-flag-reachability",
        summary: "function on a `plan`/`*_with_stop` call chain loops but never receives or \
                  polls a stop flag",
        rationale: "the in-file ≥40-line heuristic cannot see a wrapper that drops the \
                    `StopFlag` mid-call-chain; the call graph can — every loop reachable \
                    from a cancellation entry point must stay cancellable",
    },
    RuleInfo {
        id: "trace-name-registry",
        summary: "trace name breaks `area.noun` naming, is registered twice, or is missing \
                  from the README Observability glossary",
        rationale: "flight-recorder names are the observability API: a duplicated counter \
                    double-counts, a counter/histogram clash corrupts one instrument, and a \
                    name absent from the docs is invisible to operators",
    },
    RuleInfo {
        id: "hot-loop-allocation",
        summary: "`Vec::new`/`Vec::with_capacity`/`vec![..]`/`clone()`/`collect()`/`to_vec()`/\
                  `format!` inside a loop of an AUDIT_hotpaths.txt function",
        rationale: "the slab+CSR rewrite (PR 5) earned its speedups by hoisting per-iteration \
                    allocations out of exactly these bench_hotpaths-measured loops; fresh \
                    allocations there silently regress what the bench gate only catches later",
    },
    RuleInfo {
        id: "span-guard-binding",
        summary: "`span()`/`span_with()` guard not bound to a named `let` — the `SpanGuard` \
                  drops immediately",
        rationale: "an unbound guard records a zero-length span: the trace looks instrumented \
                    but times nothing, which is worse than no span at all",
    },
];

/// Returns `true` iff `id` names a rule in [`RULES`].
pub fn is_rule_id(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// One finding: a rule violation at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Workspace-root-relative path with `/` separators.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

/// Result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    /// Count of `audit:allow` markers seen (well-formed or not); the
    /// `--self` gate uses this to refuse self-suppression.
    pub markers: usize,
}

/// A parsed `// audit:allow(<rule>): <reason>` suppression marker.
pub(crate) struct Marker {
    rule: String,
    reason_ok: bool,
    rule_ok: bool,
    line: u32,
    used: std::cell::Cell<bool>,
}

/// Minimum body height (in source lines) before a loop counts as "long"
/// for stop-flag-coverage. Short loops finish fast; the bug class is the
/// multi-second sweep that ignores its deadline.
const LONG_LOOP_LINES: u32 = 40;

/// Scans one file with the token-local rules only. `rel` is the path
/// relative to the workspace root and drives per-rule scoping; `src` is
/// the file contents. The interprocedural rules need the whole workspace
/// and run through [`crate::scan_sources`] instead.
pub fn scan_file(rel: &str, src: &str) -> FileScan {
    let lexed = lex(src);
    let markers = parse_markers(&lexed);
    let raw = token_findings(rel, &lexed, &markers);
    let findings = apply_markers(rel, raw, &markers);
    FileScan {
        findings,
        markers: markers.len(),
    }
}

/// Runs the five token-local passes over one lexed file; findings are
/// unsuppressed (pair with [`apply_markers`]).
pub(crate) fn token_findings(rel: &str, lexed: &Lexed, markers: &[Marker]) -> Vec<Finding> {
    let mut raw: Vec<Finding> = Vec::new();
    nan_unsafe_sort(rel, lexed, &mut raw);
    stop_flag_coverage(rel, lexed, &mut raw);
    unsafe_confinement(rel, lexed, &mut raw);
    determinism(rel, lexed, &mut raw);
    allow_justification(rel, lexed, markers, &mut raw);
    raw
}

/// Applies suppressions (a well-formed marker on the finding's line or
/// the line directly above silences that rule there), then surfaces any
/// marker that suppressed nothing as stale. Returns the surviving
/// findings sorted by (line, rule). Must see *all* of a file's findings
/// at once — token and interprocedural — or a marker consumed by an
/// interprocedural finding would read as stale.
pub(crate) fn apply_markers(rel: &str, raw: Vec<Finding>, markers: &[Marker]) -> Vec<Finding> {
    let mut findings: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            let suppressed = markers.iter().any(|m| {
                m.rule_ok
                    && m.reason_ok
                    && m.rule == f.rule
                    && (m.line == f.line || m.line + 1 == f.line)
            });
            if suppressed {
                for m in markers {
                    if m.rule == f.rule && (m.line == f.line || m.line + 1 == f.line) {
                        m.used.set(true);
                    }
                }
            }
            !suppressed
        })
        .collect();

    // A marker that suppressed nothing is stale — surface it so dead
    // suppressions cannot accumulate.
    for m in markers {
        if m.rule_ok && m.reason_ok && !m.used.get() {
            findings.push(Finding {
                rule: "allow-justification",
                file: rel.to_string(),
                line: m.line,
                message: format!(
                    "stale `audit:allow({})` marker: it suppresses no finding on this or the \
                     next line",
                    m.rule
                ),
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

pub(crate) fn parse_markers(lexed: &Lexed) -> Vec<Marker> {
    let mut out = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("audit:allow(") else {
            continue;
        };
        let rule = rest.split(')').next().unwrap_or("").trim().to_string();
        let after = rest.find(')').map(|p| &rest[p + 1..]).unwrap_or("");
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        out.push(Marker {
            rule_ok: is_rule_id(&rule),
            reason_ok: !reason.is_empty(),
            rule,
            line: c.line,
            used: std::cell::Cell::new(false),
        });
    }
    out
}

/// Index of the matching close delimiter for the open delimiter at `open`.
fn matching(toks: &[crate::lexer::Token], open: usize, oc: char, cc: char) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct(c) if c == oc => depth += 1,
            Tok::Punct(c) if c == cc => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => (),
        }
    }
    None
}

fn ident_at(lexed: &Lexed, k: usize) -> Option<&str> {
    match &lexed.tokens.get(k)?.tok {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn punct_at(lexed: &Lexed, k: usize) -> Option<char> {
    match lexed.tokens.get(k)?.tok {
        Tok::Punct(c) => Some(c),
        _ => None,
    }
}

/// nan-unsafe-sort: `partial_cmp(` ... `)` followed by `.unwrap` / `.expect`.
fn nan_unsafe_sort(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for k in 0..lexed.tokens.len() {
        if ident_at(lexed, k) != Some("partial_cmp") || punct_at(lexed, k + 1) != Some('(') {
            continue;
        }
        let Some(close) = matching(&lexed.tokens, k + 1, '(', ')') else {
            continue;
        };
        if punct_at(lexed, close + 1) == Some('.') {
            if let Some(m) = ident_at(lexed, close + 2) {
                if m == "unwrap" || m == "expect" {
                    out.push(Finding {
                        rule: "nan-unsafe-sort",
                        file: rel.to_string(),
                        line: lexed.tokens[k].line,
                        message: format!(
                            "`partial_cmp(..).{m}()` panics on NaN input; use `total_cmp` \
                             (or handle the None)"
                        ),
                    });
                }
            }
        }
    }
}

/// stop-flag-coverage: in core/engine planning sources, a `for`/`while`/
/// `loop` body spanning ≥ LONG_LOOP_LINES lines must mention a stop
/// binding (`stop`, `StopFlag`, `stop_flag`, ...) somewhere inside.
fn stop_flag_coverage(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let scoped = rel.starts_with("crates/core/src/") || rel.starts_with("crates/engine/src/");
    if !scoped {
        return;
    }
    for k in 0..lexed.tokens.len() {
        let Some(kw) = ident_at(lexed, k) else {
            continue;
        };
        if !matches!(kw, "for" | "while" | "loop") {
            continue;
        }
        // `for` in generics/trait bounds (`impl Trait for T`, `for<'a>`):
        // skip when the preceding token is an ident or the next is `<`.
        if kw == "for" {
            if let Some(Tok::Ident(_)) = lexed.tokens.get(k.wrapping_sub(1)).map(|t| &t.tok) {
                continue;
            }
            if punct_at(lexed, k + 1) == Some('<') {
                continue;
            }
        }
        // The loop body is the first `{` after the keyword (Rust forbids
        // bare struct literals in loop headers, so this is the body).
        let Some(open) = (k..lexed.tokens.len()).find(|&j| punct_at(lexed, j) == Some('{')) else {
            continue;
        };
        let Some(close) = matching(&lexed.tokens, open, '{', '}') else {
            continue;
        };
        let span = lexed.tokens[close]
            .line
            .saturating_sub(lexed.tokens[open].line);
        if span < LONG_LOOP_LINES {
            continue;
        }
        // `stop` covers StopFlag/stop_flag/is_stopped bindings; `cancel`
        // covers the engine's Budget::cancel/is_cancelled vocabulary —
        // both are cooperative-cancellation polls. The search starts at
        // the keyword so a `while !stop.is_set()` header counts.
        if lexed.has_ident_containing(k..close, "stop")
            || lexed.has_ident_containing(k..close, "cancel")
        {
            continue;
        }
        out.push(Finding {
            rule: "stop-flag-coverage",
            file: rel.to_string(),
            line: lexed.tokens[k].line,
            message: format!(
                "`{kw}` loop spans {span} lines without polling a stop flag; thread a \
                 `StopFlag` through it (deadline overruns, see PR 2)"
            ),
        });
    }
}

/// unsafe-confinement: no `unsafe` token anywhere; every crate root
/// carries `#![forbid(unsafe_code)]`.
fn unsafe_confinement(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.tokens {
        // `unsafe_code` inside `#![forbid(unsafe_code)]` is its own
        // ident and never matches; this arm only sees real `unsafe`.
        if matches!(&t.tok, Tok::Ident(s) if s == "unsafe") {
            out.push(Finding {
                rule: "unsafe-confinement",
                file: rel.to_string(),
                line: t.line,
                message: "`unsafe` in a workspace that forbids it everywhere".to_string(),
            });
        }
    }
    if is_crate_root(rel) {
        let has_forbid = (0..lexed.tokens.len()).any(|k| {
            ident_at(lexed, k) == Some("forbid")
                && punct_at(lexed, k + 1) == Some('(')
                && ident_at(lexed, k + 2) == Some("unsafe_code")
        });
        if !has_forbid {
            out.push(Finding {
                rule: "unsafe-confinement",
                file: rel.to_string(),
                line: 1,
                message: "crate root missing `#![forbid(unsafe_code)]` (every crate forbids \
                          unsafe)"
                    .to_string(),
            });
        }
    }
}

/// Is `rel` a crate root (lib.rs / main.rs of a workspace member, or the
/// facade's src/lib.rs)?
fn is_crate_root(rel: &str) -> bool {
    if rel == "src/lib.rs" || rel == "src/main.rs" {
        return true;
    }
    let Some(tail) = rel.strip_prefix("crates/") else {
        return false;
    };
    tail.ends_with("/src/lib.rs") || tail.ends_with("/src/main.rs")
}

/// Identifiers that imply wall-clock or randomness.
const NONDET_IDENTS: &[&str] = &["Instant", "SystemTime", "thread_rng", "random", "Rng"];
/// Hash-order iteration is just as nondeterministic as a clock for a
/// digest; BTreeMap/BTreeSet are the deterministic stand-ins.
const NONDET_CONTAINERS: &[&str] = &["HashMap", "HashSet"];

/// determinism: digest/persistence paths in eblow-model must not
/// read clocks, RNGs, or iterate hash-ordered containers.
fn determinism(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let scoped = matches!(
        rel,
        "crates/model/src/digest.rs" | "crates/model/src/io.rs" | "crates/model/src/selection.rs"
    );
    if !scoped {
        return;
    }
    for (k, t) in lexed.tokens.iter().enumerate() {
        let Tok::Ident(s) = &t.tok else { continue };
        let clockish = NONDET_IDENTS.contains(&s.as_str());
        let hashed = NONDET_CONTAINERS.contains(&s.as_str());
        // `rand` only as a path head (`rand::...`), not as a substring.
        let rand_path = s == "rand" && punct_at(lexed, k + 1) == Some(':');
        if clockish || hashed || rand_path {
            out.push(Finding {
                rule: "determinism",
                file: rel.to_string(),
                line: t.line,
                message: format!(
                    "`{s}` in a digest/persistence path — these outputs key caches and \
                     persisted instances and must be bit-stable{}",
                    if hashed {
                        " (use BTreeMap/BTreeSet for deterministic iteration)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }
}

/// allow-justification: every `#[allow(..)]` / `#![allow(..)]` needs a
/// trailing comment on the same line or a plain `//` comment directly
/// above; every `audit:allow` marker needs a known rule and a reason.
fn allow_justification(rel: &str, lexed: &Lexed, markers: &[Marker], out: &mut Vec<Finding>) {
    for k in 0..lexed.tokens.len() {
        if punct_at(lexed, k) != Some('#') {
            continue;
        }
        let mut j = k + 1;
        if punct_at(lexed, j) == Some('!') {
            j += 1;
        }
        if punct_at(lexed, j) != Some('[') || ident_at(lexed, j + 1) != Some("allow") {
            continue;
        }
        let line = lexed.tokens[k].line;
        let justified = lexed.comments.iter().any(|c| {
            // Trailing comment on the attribute's line, or a comment on
            // the line directly above. Doc comments above describe the
            // item, not the allow — they only count when they talk about
            // the allow explicitly. An `audit:allow` marker is a
            // suppression, never a justification.
            if c.text.trim().starts_with("audit:allow(") {
                return false;
            }
            let doc = c.text.starts_with('/') || c.text.starts_with('!');
            c.line == line || (c.line + 1 == line && !c.block && (!doc || c.text.contains("allow")))
        });
        if !justified {
            out.push(Finding {
                rule: "allow-justification",
                file: rel.to_string(),
                line,
                message: "`#[allow(..)]` without a reason — add a trailing `// why` comment \
                          (or a plain `//` comment on the line above)"
                    .to_string(),
            });
        }
    }
    for m in markers {
        if !m.rule_ok {
            out.push(Finding {
                rule: "allow-justification",
                file: rel.to_string(),
                line: m.line,
                message: format!(
                    "`audit:allow({})` names no known rule — valid ids: {}",
                    m.rule,
                    RULES.iter().map(|r| r.id).collect::<Vec<_>>().join(", ")
                ),
            });
        } else if !m.reason_ok {
            out.push(Finding {
                rule: "allow-justification",
                file: rel.to_string(),
                line: m.line,
                message: format!(
                    "`audit:allow({})` without a reason — write \
                     `// audit:allow({}): <why this site is exempt>`",
                    m.rule, m.rule
                ),
            });
        }
    }
}
