//! The analyzer must hold itself to its own rules: zero findings and zero
//! suppression markers across crates/audit (the `--self` CLI gate,
//! asserted here so `cargo test` catches it without running the binary).

use std::path::Path;

fn repo_root() -> &'static Path {
    // crates/audit -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
}

#[test]
fn audit_is_clean_on_its_own_sources() {
    let scan = eblow_audit::scan_subtree(repo_root(), "crates/audit").unwrap();
    assert!(
        scan.findings.is_empty(),
        "the analyzer must be clean on itself: {:?}",
        scan.findings
    );
    assert_eq!(
        scan.markers, 0,
        "the analyzer must not suppress its own findings"
    );
    // Sanity: the subtree scan actually saw the crate (lib, lexer, rules,
    // report, main, plus these tests — fixtures are excluded).
    assert!(
        scan.files.len() >= 6,
        "expected ≥6 files scanned, got {:?}",
        scan.files
    );
    assert!(scan.files.iter().all(|f| !f.contains("/fixtures/")));
}

#[test]
fn workspace_scan_has_no_findings() {
    // The invariant CI's `check` gate enforces, kept close to the code so
    // a local `cargo test` catches a finding before CI does.
    let scan = eblow_audit::scan_workspace(repo_root()).unwrap();
    assert!(
        scan.findings.is_empty(),
        "audit findings in the workspace: {:?}",
        scan.findings
    );
}
