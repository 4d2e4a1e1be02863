//! Fingerprints the model's source for the result cache's keys: SHA-256
//! over every file under `crates/*/src` (its workspace-relative path,
//! length and bytes, in path order) and the workspace `Cargo.lock`.
//! `Key::new` records the fingerprint, so an entry that a build of other
//! source wrote is never read. Cargo reruns this script when any of
//! those files changes, and when a file is added to a `src` directory.

#[path = "src/sha256.rs"]
mod sha256;

use std::path::{Path, PathBuf};

fn main() {
    let manifest = PathBuf::from(std::env::var_os("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .ancestors()
        .nth(2)
        .expect("crates/runcache is two levels down");
    let mut files = vec![root.join("Cargo.lock")];
    for krate in std::fs::read_dir(root.join("crates")).expect("read crates/") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            collect(&src, &mut files);
        }
    }
    files.sort();
    let mut material = Vec::new();
    for file in &files {
        println!("cargo:rerun-if-changed={}", file.display());
        let bytes = std::fs::read(file).unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let rel = file.strip_prefix(root).expect("collected under the root");
        material.extend_from_slice(format!("{}:{}:", rel.display(), bytes.len()).as_bytes());
        material.extend_from_slice(&bytes);
    }
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("set by cargo"));
    std::fs::write(out.join("model_fingerprint"), sha256::hex_digest(&material))
        .expect("write the fingerprint");
}

/// Every file under `dir`, recursively. Each directory is a rerun
/// trigger too, so an added file reruns the script.
fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    println!("cargo:rerun-if-changed={}", dir.display());
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect(&path, files);
        } else {
            files.push(path);
        }
    }
}
