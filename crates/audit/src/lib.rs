//! **eblow-audit** — repo-specific static analysis for the E-BLOW
//! workspace, with a ratcheted findings baseline.
//!
//! The generic toolchain (`clippy -D warnings`, `rustfmt`) already runs in
//! CI, but the invariants that have actually bitten this repository are
//! ones no generic lint knows about: float comparators in planning sorts
//! must be NaN-total, every long planning loop must poll its `StopFlag`,
//! no crate uses `unsafe`, digest/persistence code
//! must be bit-deterministic, and every lint suppression must say
//! why. Each shipped as a reactive bug fix in PRs 1–5; this crate checks
//! them on every commit instead.
//!
//! Architecture (same offline-shim philosophy as `crates/shims/`: no
//! dependencies, hand-rolled everything):
//!
//! * [`lexer`] — a minimal Rust lexer that strips comments and literal
//!   contents, so rules match token structure, never text inside strings
//!   or docs.
//! * [`rules`] — the token-local rule passes; the catalogue is
//!   [`rules::RULES`]. Suppression: `// audit:allow(<rule>): <reason>` on
//!   the finding's line or the line directly above.
//! * [`model`] — lightweight semantic indexing on top of the lexer:
//!   fn/impl/trait signatures, loops, call expressions, trace sites. No
//!   full AST — just enough structure to resolve same-workspace calls.
//! * [`graph`] — the workspace symbol table + call graph built from the
//!   per-file models, and the `graph`/`glossary` JSON serializers.
//! * [`interproc`] — the four interprocedural rules over that graph:
//!   stop-flag-reachability, trace-name-registry, hot-loop-allocation,
//!   span-guard-binding.
//! * [`baseline`] — the ratchet. `AUDIT_baseline.json` pins accepted debt
//!   as `(rule, file)` counts; `--deny-new` fails CI only when a bucket
//!   grows, so existing debt can be burned down without blocking merges.
//!
//! CLI (`cargo run -p eblow-audit -- help`): `check [--deny-new]
//! [--update-baseline] [--self] [--report PATH]`, `graph [--out PATH]`,
//! `glossary [--write | --check]`, and `rules`.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod graph;
pub mod interproc;
pub mod lexer;
pub mod model;
pub mod rules;

pub use baseline::Baseline;
pub use interproc::AuditContext;
pub use rules::{scan_file, FileScan, Finding, RULES};

use std::path::{Path, PathBuf};

/// Directory names never scanned: build output, VCS state, and the
/// audit's own known-bad rule fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", ".github"];

/// Result of scanning a whole tree.
#[derive(Debug, Default)]
pub struct WorkspaceScan {
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Root-relative paths scanned (sorted).
    pub files: Vec<String>,
    /// Total `audit:allow` markers encountered (for the `--self` gate).
    pub markers: usize,
}

/// Scans every `.rs` file under `root`, except the skip-listed subtrees (`target/`, `.git/`, …).
/// Paths in findings are `root`-relative with `/` separators regardless
/// of platform, so baselines are portable. The full-workspace scan runs
/// both the token-local and the interprocedural rules, with the README
/// and hot-path manifest loaded from `root`.
///
/// # Errors
///
/// Returns the underlying I/O error message if `root` cannot be walked or
/// a source file cannot be read.
pub fn scan_workspace(root: &Path) -> Result<WorkspaceScan, String> {
    scan_subtree(root, "")
}

/// Scans only `root/subtree` (used by `--self` to audit the audit crate).
/// Subtree scans run with an empty [`AuditContext`]: the hot-path
/// manifest and README drift checks are whole-workspace properties and
/// would misfire on a slice of the tree.
///
/// # Errors
///
/// Same as [`scan_workspace`].
pub fn scan_subtree(root: &Path, subtree: &str) -> Result<WorkspaceScan, String> {
    let sources = collect_sources(root, subtree)?;
    let ctx = if subtree.is_empty() {
        load_context(root)
    } else {
        AuditContext::default()
    };
    Ok(scan_sources(&sources, &ctx))
}

/// The full pipeline over in-memory sources: lex each file once, run the
/// token rules and build the per-file model from the same token stream,
/// assemble the workspace call graph, run the interprocedural rules, then
/// apply `audit:allow` suppressions per file across *all* of a file's
/// findings (so a marker consumed by an interprocedural finding is not
/// reported stale). Findings anchored to non-source files (the hot-path
/// manifest) pass through unsuppressed.
pub fn scan_sources(sources: &[(String, String)], ctx: &AuditContext) -> WorkspaceScan {
    let mut models = Vec::with_capacity(sources.len());
    let mut raws: Vec<Vec<Finding>> = Vec::with_capacity(sources.len());
    let mut markers_per_file = Vec::with_capacity(sources.len());
    let mut marker_total = 0usize;
    for (rel, src) in sources {
        let lexed = lexer::lex(src);
        let markers = rules::parse_markers(&lexed);
        marker_total += markers.len();
        raws.push(rules::token_findings(rel, &lexed, &markers));
        models.push(model::parse_lexed(rel, &lexed));
        markers_per_file.push(markers);
    }

    let ws = graph::WorkspaceModel::build(models);
    let cg = graph::CallGraph::build(&ws);
    let by_rel: std::collections::BTreeMap<&str, usize> = sources
        .iter()
        .enumerate()
        .map(|(i, (rel, _))| (rel.as_str(), i))
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    for f in interproc::interproc_findings(&ws, &cg, ctx) {
        match by_rel.get(f.file.as_str()) {
            Some(&i) => raws[i].push(f),
            None => findings.push(f),
        }
    }

    for (i, (rel, _)) in sources.iter().enumerate() {
        let raw = std::mem::take(&mut raws[i]);
        findings.extend(rules::apply_markers(rel, raw, &markers_per_file[i]));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    WorkspaceScan {
        findings,
        files: sources.iter().map(|(rel, _)| rel.clone()).collect(),
        markers: marker_total,
    }
}

/// Reads the interprocedural-rule inputs from the workspace root: the
/// README (trace-name drift) and `AUDIT_hotpaths.txt` (hot-loop scope).
/// Both are optional — a missing file just disables its check.
pub fn load_context(root: &Path) -> AuditContext {
    let hotpaths = std::fs::read_to_string(root.join(interproc::HOTPATH_MANIFEST))
        .map(|s| {
            s.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    AuditContext {
        readme: std::fs::read_to_string(root.join("README.md")).ok(),
        hotpaths,
    }
}

/// Builds the workspace model + call graph for the `graph` and `glossary`
/// subcommands, without running any rules.
///
/// # Errors
///
/// Same as [`scan_workspace`].
pub fn workspace_graph(root: &Path) -> Result<(graph::WorkspaceModel, graph::CallGraph), String> {
    let sources = collect_sources(root, "")?;
    let ws = graph::WorkspaceModel::build(
        sources
            .iter()
            .map(|(rel, src)| model::parse_file(rel, src))
            .collect(),
    );
    let cg = graph::CallGraph::build(&ws);
    Ok((ws, cg))
}

/// Collects `(root-relative path, contents)` for every `.rs` file under
/// `root/subtree`, sorted by path.
fn collect_sources(root: &Path, subtree: &str) -> Result<Vec<(String, String)>, String> {
    let mut files = Vec::new();
    let start = if subtree.is_empty() {
        root.to_path_buf()
    } else {
        root.join(subtree)
    };
    collect_rs(&start, &mut files)?;
    files.sort();

    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .map_err(|e| e.to_string())?
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        out.push((rel, src));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("reading dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().into_owned();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` until a
/// directory containing `Cargo.lock` is found (the repo commits its
/// lockfile, so this is unambiguous).
///
/// # Errors
///
/// Returns an error message if no ancestor holds a `Cargo.lock`.
pub fn find_root(start: &Path) -> Result<PathBuf, String> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return Ok(dir);
        }
        if !dir.pop() {
            return Err(format!(
                "no Cargo.lock found above {} — pass --root",
                start.display()
            ));
        }
    }
}
