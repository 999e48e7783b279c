//! Stamps the benchmark binary with the revision it measures: a digest of
//! the planner sources (always available) and the git revision (when the
//! source tree is a git checkout).

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv(hash: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
}

/// FNV-1a over every `.rs` / `.toml` file under `dir`, in path order,
/// keyed by the path relative to `root` so the digest does not depend on
/// where the tree sits.
fn digest_tree(root: &Path, dir: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            digest_tree(root, &path, hash);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            let name = path.strip_prefix(root).unwrap_or(&path).to_string_lossy();
            fnv(hash, name.bytes());
            fnv(hash, std::fs::read(&path).unwrap_or_default());
        }
    }
}

fn git_rev(root: &Path) -> Option<String> {
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            // Never look for a repository above the source tree.
            .env("GIT_CEILING_DIRECTORIES", root.parent()?)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let top = PathBuf::from(git(&["rev-parse", "--show-toplevel"])?);
    if top.canonicalize().ok()? != root.canonicalize().ok()? {
        return None;
    }
    git(&["rev-parse", "HEAD"])
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for part in ["crates", "src", "Cargo.toml"] {
        let path = root.join(part);
        println!("cargo:rerun-if-changed={}", path.display());
        if path.is_dir() {
            digest_tree(&root, &path, &mut hash);
        } else {
            fnv(&mut hash, std::fs::read(&path).unwrap_or_default());
        }
    }
    let head = root.join(".git").join("HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={hash:016x}");
    println!(
        "cargo:rustc-env=PERFBENCH_GIT_REV={}",
        git_rev(&root).unwrap_or_else(|| "unknown".to_string())
    );
}
