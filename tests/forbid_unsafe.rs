//! Every library and binary in the workspace is safe Rust: each crate
//! root — `crates/*/src/lib.rs`, `crates/*/src/main.rs`, the vendored
//! shims' `vendor/*/src/lib.rs` and the root `src/lib.rs` — carries
//! `#![forbid(unsafe_code)]`, so an `unsafe` block anywhere in the crate
//! fails its build.
//!
//! The one exception is `test-util`, a test-only crate whose counting
//! `GlobalAlloc` (`alloc.rs`) has to implement an `unsafe` trait.

use std::fs;
use std::path::{Path, PathBuf};

const ATTRIBUTE: &str = "#![forbid(unsafe_code)]";

/// Crates allowed to use `unsafe`, with the reason.
const EXCEPTIONS: &[(&str, &str)] = &[(
    "test-util",
    "`alloc::Counting` implements the unsafe `GlobalAlloc` trait",
)];

/// Every crate root of the workspace: `(crate directory name, file)`.
fn crate_roots(root: &Path) -> Vec<(String, PathBuf)> {
    let mut roots = vec![("spot-jupiter".to_string(), root.join("src/lib.rs"))];
    let mut crates: Vec<PathBuf> = ["crates", "vendor"]
        .into_iter()
        .flat_map(|dir| fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("{dir}/: {e}")))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    crates.sort();
    for dir in crates {
        let name = dir.file_name().unwrap().to_string_lossy().into_owned();
        for file in ["src/lib.rs", "src/main.rs"] {
            let path = dir.join(file);
            if path.is_file() {
                roots.push((name.clone(), path));
            }
        }
    }
    roots
}

/// Whether `text`'s crate-level attributes (the inner attributes before
/// the first item) include the forbid.
fn forbids_unsafe(text: &str) -> bool {
    text.lines()
        .map(str::trim)
        .take_while(|l| l.is_empty() || l.starts_with("//") || l.starts_with("#!["))
        .any(|l| l == ATTRIBUTE)
}

#[test]
fn every_crate_root_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roots = crate_roots(root);
    assert!(roots.len() >= 17, "found only {} crate roots", roots.len());
    for shim in ["bytes", "proptest", "rand", "rand_chacha", "serde_json"] {
        assert!(
            roots.iter().any(|(n, _)| n == shim),
            "vendored shim `{shim}` not checked"
        );
    }
    let mut missing = Vec::new();
    for (name, path) in &roots {
        let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let exempt = EXCEPTIONS.iter().any(|(n, _)| n == name);
        if forbids_unsafe(&text) == exempt {
            missing.push(format!(
                "{}: {}",
                path.strip_prefix(root).unwrap().display(),
                if exempt {
                    "listed as an exception but forbids unsafe — drop it from EXCEPTIONS"
                } else {
                    "no #![forbid(unsafe_code)]"
                }
            ));
        }
    }
    for (name, _) in EXCEPTIONS {
        assert!(
            roots.iter().any(|(n, _)| n == name),
            "exception `{name}` names no crate"
        );
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

#[test]
fn the_check_reads_crate_attributes_only() {
    assert!(forbids_unsafe(
        "//! Docs.\n#![forbid(unsafe_code)]\n\npub mod a;\n"
    ));
    assert!(forbids_unsafe(
        "//! Docs.\n#![deny(missing_docs)]\n#![forbid(unsafe_code)]\n"
    ));
    assert!(!forbids_unsafe(
        "//! Docs.\n#![deny(missing_docs)]\n\npub mod a;\n"
    ));
    // The attribute in a doc comment or after the first item does not count.
    assert!(!forbids_unsafe(
        "//! `#![forbid(unsafe_code)]`\npub mod a;\n"
    ));
    assert!(!forbids_unsafe("pub mod a;\n#![forbid(unsafe_code)]\n"));
}
