//! Tier-1 gate for the workspace invariants (docs/static-analysis.md):
//! plain `cargo test -q` fails on any new violation. rustc and clippy
//! enforce every invariant but one, configured by `[workspace.lints]`,
//! `clippy.toml` and the hot-path modules' `#![deny]` lines; the
//! float-ordering rule is the scan below, because clippy cannot name
//! `<f64 as PartialOrd>::partial_cmp`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// Runs `cargo clippy --all-targets -- -D warnings` on `manifest`'s
/// workspace, building under `target` so the outer build is untouched.
fn clippy_clean(manifest: &str, target: &str) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(ROOT)
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--offline",
            "--quiet",
        ])
        .args(["--manifest-path", manifest, "--target-dir"])
        .arg(Path::new(env!("CARGO_TARGET_TMPDIR")).join(target))
        .args(["--", "-D", "warnings"])
        .output()
        .expect("cannot start cargo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("no such command"),
        "clippy is not installed, and the workspace invariants need it: \
         `rustup component add clippy`\n{stderr}"
    );
    assert!(out.status.success(), "clippy rejects {manifest}:\n{stderr}");
}

#[test]
fn workspace_is_lint_clean() {
    clippy_clean("Cargo.toml", "clippy");
    // perfbench/ is its own package, outside the workspace; clippy
    // reads the same root `clippy.toml` for it.
    clippy_clean("perfbench/Cargo.toml", "clippy-perfbench");
}

/// Call sites allowed to order floats with `partial_cmp`, each with its
/// exact count so a second call in the same file fails.
const PARTIAL_CMP_ALLOWED: [(&str, usize); 1] = [
    // The reference comparator that pins `total_cmp` to the old ordering.
    ("crates/relax/tests/prop.rs", 1),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source tree") {
        let path = entry.expect("readable directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Weight and score ordering uses `total_cmp`: a `partial_cmp` call is
/// a NaN panic path (`.unwrap()`) or an inconsistent order.
#[test]
fn floats_are_ordered_with_total_cmp() {
    // Built with `concat!` so that this file does not match itself.
    let needles = [concat!(".partial", "_cmp"), concat!("::partial", "_cmp")];
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "perfbench"] {
        rust_files(&Path::new(ROOT).join(dir), &mut files);
    }
    let mut found = Vec::new();
    for path in &files {
        let rel = path
            .strip_prefix(ROOT)
            .expect("under the root")
            .to_string_lossy()
            .into_owned();
        let src = fs::read_to_string(path).expect("readable source");
        let sites = src
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .map(|l| needles.iter().map(|n| l.matches(n).count()).sum::<usize>())
            .sum::<usize>();
        if sites > 0 {
            found.push((rel, sites));
        }
    }
    found.sort();
    let allowed: Vec<(String, usize)> = PARTIAL_CMP_ALLOWED
        .iter()
        .map(|&(f, n)| (f.to_string(), n))
        .collect();
    assert!(
        files.len() > 50,
        "suspiciously few files scanned ({})",
        files.len()
    );
    assert_eq!(
        found, allowed,
        "`partial_cmp` call sites (file, count) differ from the allowed list: order floats \
         with `total_cmp`, or update `PARTIAL_CMP_ALLOWED` if an allowed site went away"
    );
}
