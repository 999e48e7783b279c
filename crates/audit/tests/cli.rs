//! The `check` exit codes, run through the binary on a scratch tree:
//! 0 when the tree scans clean, 1 on any finding, 2 on a usage error.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh directory under the system temp dir, unique to this test.
fn scratch_tree(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eblow-audit-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    dir
}

/// Runs `check --root <root> <extra..>`: exit code and standard output.
fn check(root: &Path, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_eblow-audit"))
        .arg("check")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    (out.status.code().unwrap(), stdout)
}

#[test]
fn check_exits_1_on_any_finding_and_2_on_a_removed_flag() {
    let root = scratch_tree("exit-codes");
    let lib = root.join("src/lib.rs");
    std::fs::write(
        &lib,
        "#![forbid(unsafe_code)]\n\npub fn sort(v: &mut [f64]) {\n    v.sort_by(f64::total_cmp);\n}\n",
    )
    .unwrap();
    let (code, stdout) = check(&root, &[]);
    assert_eq!(code, 0, "a clean tree passes: {stdout}");

    std::fs::write(
        &lib,
        "#![forbid(unsafe_code)]\n\npub fn sort(v: &mut [f64]) {\n    \
         v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
    )
    .unwrap();
    let (code, stdout) = check(&root, &[]);
    assert_eq!(code, 1, "one finding fails: {stdout}");
    assert!(
        stdout.contains("src/lib.rs:4: [nan-unsafe-sort]"),
        "{stdout}"
    );

    // A flag `check` does not take is a usage error.
    assert_eq!(check(&root, &["--deny-new"]).0, 2);
    std::fs::remove_dir_all(&root).unwrap();
}
