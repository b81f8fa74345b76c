//! Stamps the compiler version and, when the sources sit in a git checkout,
//! the commit into the benchmark binary, so every result record names the
//! build it came from.

use std::fs;
use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=SELFBENCH_RUSTC={version}");

    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let git = Path::new(&manifest).join("..").join(".git");
    let commit = head_commit(&git).unwrap_or_else(|| "unknown".to_string());
    println!("cargo:rustc-env=SELFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Only existing paths: a missing one would rerun this script on every
    // build.
    for watched in [git.join("HEAD"), git.join("refs"), git.join("packed-refs")] {
        if watched.exists() {
            println!("cargo:rerun-if-changed={}", watched.display());
        }
    }
}

/// Resolve `HEAD` by reading the repository files directly (no `git`
/// process, so nothing outside the checkout is consulted).
fn head_commit(git: &Path) -> Option<String> {
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
