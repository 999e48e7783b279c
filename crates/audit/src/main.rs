//! `eblow-audit` — the CLI over the audit library.
//!
//! ```text
//! eblow-audit check [--self] [--root DIR] [--report PATH]
//! eblow-audit graph [--root DIR] [--out PATH]
//! eblow-audit glossary [--root DIR] [--out PATH] [--write | --check]
//! eblow-audit rules
//! ```
//!
//! Exit codes: 0 clean, 1 policy failure (any unsuppressed finding, any
//! suppression marker in `--self` mode, or a stale glossary under
//! `glossary --check`), 2 usage or I/O error.

#![forbid(unsafe_code)]

use eblow_audit::graph::{glossary_json, graph_json};
use eblow_audit::report::report_json;
use eblow_audit::{find_root, rules::RULES, scan_subtree, scan_workspace, workspace_graph};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("graph") => graph_cmd(&args[1..]),
        Some("glossary") => glossary_cmd(&args[1..]),
        Some("rules") => {
            print_rules();
            ExitCode::SUCCESS
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print_help();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}` (try `help`)");
            ExitCode::from(2)
        }
    }
}

fn print_help() {
    println!(
        "eblow-audit — repo-specific static analysis; any unsuppressed finding fails\n\n\
         USAGE:\n  eblow-audit check [--self] [--root DIR] [--report PATH]\n\
         \x20 eblow-audit graph [--root DIR] [--out PATH]\n\
         \x20 eblow-audit glossary [--root DIR] [--out PATH] [--write | --check]\n\
         \x20 eblow-audit rules\n\n\
         CHECK (exit 1 on any unsuppressed finding):\n\
         \x20 --self              audit only crates/audit; any finding or\n\
         \x20                     audit:allow marker is a failure\n\
         \x20 --root DIR          workspace root (default: nearest ancestor with Cargo.lock)\n\
         \x20 --report PATH       also write the full findings report as JSON\n\n\
         GRAPH/GLOSSARY:\n\
         \x20 graph               print the workspace symbol table + call graph as JSON\n\
         \x20 glossary            print the trace-name glossary as JSON\n\
         \x20 --out PATH          write the JSON to PATH instead of stdout (for\n\
         \x20                     --write/--check the default is <root>/TRACE_GLOSSARY.json)\n\
         \x20 --write             glossary: write <root>/TRACE_GLOSSARY.json\n\
         \x20 --check             glossary: exit 1 if <root>/TRACE_GLOSSARY.json is stale\n\n\
         EXIT CODES: 0 clean, 1 any finding (or marker under --self, or a stale\n\
         glossary under glossary --check), 2 usage or I/O error"
    );
}

fn print_rules() {
    println!("rule catalogue ({} rules):\n", RULES.len());
    for r in RULES {
        println!(
            "  {}\n      {}\n      why: {}\n",
            r.id, r.summary, r.rationale
        );
    }
    println!(
        "suppression: `// audit:allow(<rule>): <reason>` on the finding's line or the line above"
    );
}

struct Opts {
    self_mode: bool,
    root: Option<PathBuf>,
    report: Option<PathBuf>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        self_mode: false,
        root: None,
        report: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--self" => o.self_mode = true,
            "--root" => o.root = Some(take(&mut it, "--root")?),
            "--report" => o.report = Some(take(&mut it, "--report")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(o)
}

fn take(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<PathBuf, String> {
    it.next()
        .map(PathBuf::from)
        .ok_or_else(|| format!("{flag} needs a value"))
}

/// Resolves the workspace root: `--root` if given, else walk up from cwd.
fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, String> {
    root.map(Ok).unwrap_or_else(|| {
        std::env::current_dir()
            .map_err(|e| e.to_string())
            .and_then(|d| find_root(&d))
    })
}

/// `graph`: serialize the workspace symbol table + call graph.
fn graph_cmd(args: &[String]) -> ExitCode {
    let mut root = None;
    let mut out = None;
    let mut it = args.iter();
    let parsed = loop {
        match it.next().map(String::as_str) {
            Some("--root") => match take(&mut it, "--root") {
                Ok(p) => root = Some(p),
                Err(e) => break Err(e),
            },
            Some("--out") => match take(&mut it, "--out") {
                Ok(p) => out = Some(p),
                Err(e) => break Err(e),
            },
            Some(other) => break Err(format!("unknown flag `{other}`")),
            None => break Ok(()),
        }
    };
    let json = match parsed
        .and_then(|()| resolve_root(root))
        .and_then(|r| workspace_graph(&r))
    {
        Ok((ws, cg)) => graph_json(&ws, &cg),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("error: writing graph {}: {e}", path.display());
                return ExitCode::from(2);
            }
            println!("audit: graph written to {}", path.display());
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

/// `glossary`: serialize, write, or verify the trace-name glossary.
fn glossary_cmd(args: &[String]) -> ExitCode {
    let mut root = None;
    let mut out = None;
    let mut write = false;
    let mut check_mode = false;
    let mut it = args.iter();
    let parsed = loop {
        match it.next().map(String::as_str) {
            Some("--root") => match take(&mut it, "--root") {
                Ok(p) => root = Some(p),
                Err(e) => break Err(e),
            },
            Some("--out") => match take(&mut it, "--out") {
                Ok(p) => out = Some(p),
                Err(e) => break Err(e),
            },
            Some("--write") => write = true,
            Some("--check") => check_mode = true,
            Some(other) => break Err(format!("unknown flag `{other}`")),
            None => break Ok(()),
        }
    };
    if write && check_mode {
        eprintln!("error: --write and --check are mutually exclusive");
        return ExitCode::from(2);
    }
    let root = match parsed.and_then(|()| resolve_root(root)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let json = match workspace_graph(&root) {
        Ok((ws, _)) => glossary_json(&ws),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let path = out.unwrap_or_else(|| root.join("TRACE_GLOSSARY.json"));
    if check_mode {
        match std::fs::read_to_string(&path) {
            Ok(committed) if committed == json => {
                println!("audit: glossary up to date ({})", path.display());
                ExitCode::SUCCESS
            }
            Ok(_) => {
                eprintln!(
                    "audit: {} is stale against the source tree — run `eblow-audit glossary \
                     --write` and commit the result",
                    path.display()
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!(
                    "audit: cannot read {}: {e} — run `eblow-audit glossary --write`",
                    path.display()
                );
                ExitCode::FAILURE
            }
        }
    } else if write {
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: writing glossary {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("audit: glossary written to {}", path.display());
        ExitCode::SUCCESS
    } else {
        print!("{json}");
        ExitCode::SUCCESS
    }
}

fn check(args: &[String]) -> ExitCode {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match resolve_root(opts.root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let scan = if opts.self_mode {
        scan_subtree(&root, "crates/audit")
    } else {
        scan_workspace(&root)
    };
    let scan = match scan {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &scan.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "audit: {} finding(s) across {} file(s)",
        scan.findings.len(),
        scan.files.len()
    );

    if let Some(path) = &opts.report {
        let json = report_json(&scan.findings, scan.files.len());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing report {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("audit: report written to {}", path.display());
    }

    if opts.self_mode {
        // The audit must run clean on its own sources, with zero
        // suppression markers — the analyzer does not get to exempt itself.
        if scan.markers > 0 {
            eprintln!(
                "audit --self: {} audit:allow marker(s) in crates/audit — not allowed",
                scan.markers
            );
            return ExitCode::FAILURE;
        }
        if !scan.findings.is_empty() {
            eprintln!("audit --self: findings in crates/audit — the analyzer must be clean");
            return ExitCode::FAILURE;
        }
        println!("audit --self: clean");
        return ExitCode::SUCCESS;
    }

    if !scan.findings.is_empty() {
        eprintln!(
            "audit: every finding fails — fix it or suppress it with \
             `// audit:allow(<rule>): <reason>`"
        );
        return ExitCode::FAILURE;
    }
    println!("audit: clean");
    ExitCode::SUCCESS
}
