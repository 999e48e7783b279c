//! Fixture-driven rule tests: every rule fires exactly once on its
//! known-bad fixture and not at all on the suppressed/clean twin. The
//! pretend paths passed to `scan_file` exercise each rule's scoping; the
//! interprocedural rules go through `scan_sources` with pretend
//! workspaces of one or two files.

use eblow_audit::rules::{scan_file, RULES};
use eblow_audit::{scan_sources, AuditContext, Finding};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Asserts `rule` fires exactly once in `src` scanned as `rel`, and that
/// no other rule fires at all.
fn assert_fires_once(rel: &str, src: &str, rule: &str) {
    let scan = scan_file(rel, src);
    let hits: Vec<_> = scan.findings.iter().filter(|f| f.rule == rule).collect();
    assert_eq!(
        hits.len(),
        1,
        "{rule} on {rel}: expected exactly 1 finding, got {:?}",
        scan.findings
    );
    assert_eq!(
        scan.findings.len(),
        1,
        "{rule} on {rel}: unexpected extra findings {:?}",
        scan.findings
    );
}

fn assert_clean(rel: &str, src: &str) {
    let scan = scan_file(rel, src);
    assert!(
        scan.findings.is_empty(),
        "{rel}: expected no findings, got {:?}",
        scan.findings
    );
}

#[test]
fn nan_unsafe_sort_fires_once_and_suppresses() {
    let rel = "crates/core/src/oned/fixture.rs";
    assert_fires_once(rel, &fixture("nan_unsafe_sort.rs"), "nan-unsafe-sort");
    assert_clean(rel, &fixture("nan_unsafe_sort_allowed.rs"));
}

#[test]
fn stop_flag_coverage_fires_once_and_suppresses() {
    let rel = "crates/core/src/oned/fixture.rs";
    assert_fires_once(rel, &fixture("stop_flag_coverage.rs"), "stop-flag-coverage");
    assert_clean(rel, &fixture("stop_flag_coverage_allowed.rs"));
}

#[test]
fn stop_flag_coverage_is_scoped_to_planning_crates() {
    // The same long loop in a non-planning crate is not a finding.
    assert_clean(
        "crates/gen/src/fixture.rs",
        &fixture("stop_flag_coverage.rs"),
    );
}

#[test]
fn unsafe_confinement_fires_once_and_suppresses() {
    let rel = "crates/model/src/fixture.rs";
    assert_fires_once(rel, &fixture("unsafe_confinement.rs"), "unsafe-confinement");
    assert_clean(rel, &fixture("unsafe_confinement_allowed.rs"));
}

#[test]
fn unsafe_is_not_permitted_in_the_trace_ring_either() {
    assert_fires_once(
        "crates/trace/src/ring.rs",
        &fixture("unsafe_confinement.rs"),
        "unsafe-confinement",
    );
}

#[test]
fn crate_root_must_forbid_unsafe() {
    let rel = "crates/foo/src/lib.rs";
    assert_fires_once(rel, &fixture("missing_forbid.rs"), "unsafe-confinement");
    assert_clean(rel, &fixture("missing_forbid_allowed.rs"));
    // Non-root files in the same crate carry no forbid obligation.
    assert_clean("crates/foo/src/other.rs", &fixture("missing_forbid.rs"));
    // The trace crate root has no exemption.
    assert_fires_once(
        "crates/trace/src/lib.rs",
        &fixture("missing_forbid.rs"),
        "unsafe-confinement",
    );
}

#[test]
fn determinism_fires_once_and_suppresses() {
    let rel = "crates/model/src/digest.rs";
    assert_fires_once(rel, &fixture("determinism.rs"), "determinism");
    assert_clean(rel, &fixture("determinism_allowed.rs"));
    // Outside the digest/persistence scope, clocks are fine.
    assert_clean("crates/model/src/instance.rs", &fixture("determinism.rs"));
}

#[test]
fn allow_justification_fires_once_and_suppresses() {
    let rel = "crates/model/src/fixture.rs";
    assert_fires_once(
        rel,
        &fixture("allow_justification.rs"),
        "allow-justification",
    );
    assert_clean(rel, &fixture("allow_justification_allowed.rs"));
}

#[test]
fn justified_allow_is_clean() {
    let src = "#[allow(dead_code)] // kept for the public API surface\nfn f() {}\n";
    assert_clean("crates/model/src/fixture.rs", src);
    let above = "// kept for the public API surface\n#[allow(dead_code)]\nfn f() {}\n";
    assert_clean("crates/model/src/fixture.rs", above);
}

#[test]
fn malformed_markers_are_findings() {
    // Reason missing.
    let src = "// audit:allow(determinism)\nfn f() {}\n";
    let scan = scan_file("crates/gen/src/fixture.rs", src);
    assert_eq!(scan.findings.len(), 1, "{:?}", scan.findings);
    assert_eq!(scan.findings[0].rule, "allow-justification");

    // Unknown rule id.
    let src = "// audit:allow(no-such-rule): because\nfn f() {}\n";
    let scan = scan_file("crates/gen/src/fixture.rs", src);
    assert_eq!(scan.findings.len(), 1, "{:?}", scan.findings);
    assert_eq!(scan.findings[0].rule, "allow-justification");
}

#[test]
fn stale_markers_are_findings() {
    // A well-formed marker that suppresses nothing is surfaced.
    let src = "// audit:allow(nan-unsafe-sort): nothing here needs this\nfn f() {}\n";
    let scan = scan_file("crates/gen/src/fixture.rs", src);
    assert_eq!(scan.findings.len(), 1, "{:?}", scan.findings);
    assert_eq!(scan.findings[0].rule, "allow-justification");
    assert!(scan.findings[0].message.contains("stale"));
}

#[test]
fn marker_count_is_reported() {
    let scan = scan_file(
        "crates/core/src/oned/fixture.rs",
        &fixture("nan_unsafe_sort_allowed.rs"),
    );
    assert_eq!(scan.markers, 1);
}

/// Runs the full workspace pipeline over pretend `(path, contents)`
/// sources — the interprocedural rules only exist at this level.
fn ws_scan(files: &[(&str, &str)], ctx: &AuditContext) -> Vec<Finding> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    scan_sources(&sources, ctx).findings
}

#[test]
fn stop_flag_reachability_fires_across_files_and_suppresses() {
    let entry = fixture("stop_flag_reachability_entry.rs");
    let sweep = fixture("stop_flag_reachability.rs");
    let ctx = AuditContext::default();

    // Two-file workspace: the sweep lives in a different file from the
    // entry point, and still fires — reachability crosses files.
    let f = ws_scan(
        &[
            ("crates/core/src/oned/entry.rs", &entry),
            ("crates/core/src/oned/sweep.rs", &sweep),
        ],
        &ctx,
    );
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "stop-flag-reachability");
    assert_eq!(f[0].file, "crates/core/src/oned/sweep.rs");

    // Without the entry file the sweep is unreachable: clean.
    let f = ws_scan(&[("crates/core/src/oned/sweep.rs", &sweep)], &ctx);
    assert!(f.is_empty(), "{f:?}");

    // Outside the planning crates the same chain is out of scope.
    let f = ws_scan(
        &[
            ("crates/gen/src/entry.rs", &entry),
            ("crates/gen/src/sweep.rs", &sweep),
        ],
        &ctx,
    );
    assert!(f.is_empty(), "{f:?}");

    // Suppressed twin: marker on the fn consumes the finding, not stale.
    let allowed = fixture("stop_flag_reachability_allowed.rs");
    let f = ws_scan(
        &[
            ("crates/core/src/oned/entry.rs", &entry),
            ("crates/core/src/oned/sweep.rs", &allowed),
        ],
        &ctx,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn trace_name_registry_fires_once_and_suppresses() {
    let ctx = AuditContext::default();
    let bad = fixture("trace_name_registry.rs");
    let f = ws_scan(&[("crates/engine/src/select.rs", &bad)], &ctx);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "trace-name-registry");
    assert!(f[0].message.contains("area.noun"), "{}", f[0].message);

    let allowed = fixture("trace_name_registry_allowed.rs");
    let f = ws_scan(&[("crates/engine/src/select.rs", &allowed)], &ctx);
    assert!(f.is_empty(), "{f:?}");

    // The trace crate's own sources (unit-test scratch names) are exempt.
    // (Its crate root still owes `#![forbid(unsafe_code)]`, which the
    // fixture lacks: that finding belongs to another rule.)
    let f = ws_scan(&[("crates/trace/src/lib.rs", &bad)], &ctx);
    assert!(f.iter().all(|f| f.rule != "trace-name-registry"), "{f:?}");
}

#[test]
fn hot_loop_allocation_fires_once_and_suppresses() {
    let ctx = AuditContext {
        readme: None,
        hotpaths: vec!["hot_kernel".to_string()],
    };
    let bad = fixture("hot_loop_allocation.rs");
    let f = ws_scan(&[("crates/core/src/oned/kernel.rs", &bad)], &ctx);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "hot-loop-allocation");
    assert!(f[0].message.contains("Vec::new"), "{}", f[0].message);

    let allowed = fixture("hot_loop_allocation_allowed.rs");
    let f = ws_scan(&[("crates/core/src/oned/kernel.rs", &allowed)], &ctx);
    assert!(f.is_empty(), "{f:?}");

    // The same function outside the manifest allocates freely.
    let f = ws_scan(
        &[("crates/core/src/oned/kernel.rs", &bad)],
        &AuditContext::default(),
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn hot_loop_allocation_sees_with_capacity_and_vec_macro() {
    let ctx = AuditContext {
        readme: None,
        hotpaths: vec!["hot_kernel".to_string()],
    };
    let src = fixture("hot_loop_allocation_forms.rs");
    let f = ws_scan(&[("crates/core/src/oned/kernel.rs", &src)], &ctx);
    let got: Vec<(u32, bool, bool)> = f
        .iter()
        .map(|f| {
            assert_eq!(f.rule, "hot-loop-allocation");
            (
                f.line,
                f.message.contains("`Vec::with_capacity`"),
                f.message.contains("`vec![..]`"),
            )
        })
        .collect();
    // Only the in-loop sites; the hoisted ones on lines 6-7 are fine.
    assert_eq!(got, [(10, true, false), (14, false, true)], "{f:?}");
}

#[test]
fn span_guard_binding_fires_once_and_suppresses() {
    let ctx = AuditContext::default();
    let bad = fixture("span_guard_binding.rs");
    let f = ws_scan(&[("crates/engine/src/race.rs", &bad)], &ctx);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "span-guard-binding");

    let allowed = fixture("span_guard_binding_allowed.rs");
    let f = ws_scan(&[("crates/engine/src/race.rs", &allowed)], &ctx);
    assert!(f.is_empty(), "{f:?}");

    // Binding the guard is the real fix.
    let bound = bad.replace(
        "trace::span(\"lane\");",
        "let _span = trace::span(\"lane\");",
    );
    let f = ws_scan(&[("crates/engine/src/race.rs", &bound)], &ctx);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn every_rule_has_a_fixture_pair() {
    // Keep the fixture set in lockstep with the catalogue: adding a rule
    // without fixtures fails here by construction.
    let dir = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for rule in RULES {
        let stem = rule.id.replace('-', "_");
        // unsafe-confinement has two bad/clean pairs (token + crate root);
        // any fixture stem that starts with the rule stem counts.
        let has_bad = names
            .iter()
            .any(|n| n.starts_with(&stem) && !n.contains("allowed"));
        let has_twin = names
            .iter()
            .any(|n| n.starts_with(&stem) && n.contains("allowed"));
        assert!(has_bad, "rule {} has no known-bad fixture", rule.id);
        assert!(has_twin, "rule {} has no suppressed twin fixture", rule.id);
    }
}
