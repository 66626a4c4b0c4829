//! The dependency inventory: every edge of the build graph, with the
//! `use` behind it. Third of its kind, after `tests/instruments.rs`
//! (signals) and `tests/options.rs` (options).
//!
//! The rule: a manifest edge stays when the package's own sources name
//! the crate. For the root manifest and every `crates/*/Cargo.toml`,
//! each `[dependencies]` name must appear as a path segment (`name::` or
//! `use name`, `-` → `_`) under that package's `src/`, and each
//! `[dev-dependencies]` name under its `src/`, `tests/` or `examples/`.
//! Every `vendor/*` directory must be named by `[workspace.dependencies]`
//! and every `[workspace.dependencies]` entry by at least one member or
//! by `benchmark/Cargo.toml`.
//!
//! [`FROZEN`] lists the edges that fail the rule and stay anyway, each
//! with its reason. The list only shrinks: an entry whose edge has gained
//! a `use` (or left the manifest) fails here, and so does an eighth entry.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// `(package, dependency, why the line stays)`.
///
/// All seven are one reason: `benchmark/` is frozen, `ci.sh` tests it with
/// `--locked`, and each target is a crate the benchmark still reaches by
/// another edge — so `benchmark/Cargo.lock` keeps the package, records
/// this edge under it, and cargo refuses the changed resolve. (Edges into
/// a crate nothing reaches any more do not have that problem; that is how
/// three vendored crates could go in PR 23.) The lock refresh of
/// ROADMAP item 1 PR A frees all seven.
const FROZEN: &[(&str, &str, &str)] = &[
    ("replay", "erasure", "benchmark/Cargo.lock records replay → erasure; reachable through storage"),
    ("replay", "rand", "benchmark/Cargo.lock records replay → rand; reachable through simnet"),
    ("replay", "rand_chacha", "benchmark/Cargo.lock records replay → rand_chacha; reachable through simnet"),
    ("spot-market", "serde_json", "benchmark/Cargo.lock records spot-market → serde_json; the benchmark depends on serde_json itself"),
    ("storage", "quorum", "benchmark/Cargo.lock records storage → quorum; reachable through paxos"),
    ("storage", "rand", "benchmark/Cargo.lock records storage → rand; reachable through paxos"),
    ("storage", "rand_chacha", "benchmark/Cargo.lock records storage → rand_chacha; reachable through paxos"),
];

/// A manifest: `[section]` → its `(key, value)` lines.
type Sections = BTreeMap<String, Vec<(String, String)>>;

/// The `(key, value)` lines under each `[section]` of a manifest. Handles the
/// two entry shapes this repository writes: `name.workspace = true` and
/// `name = { path = "…" }`.
fn manifest_sections(path: &Path) -> Sections {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut sections = Sections::new();
    let mut current = String::new();
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            current = header.trim_end_matches(']').to_string();
        } else if !line.is_empty() && !line.starts_with('#') {
            let (key, value) = line
                .split_once('=')
                .unwrap_or_else(|| panic!("{}: unparsed line `{line}`", path.display()));
            let name = key.trim().trim_end_matches(".workspace").to_string();
            sections
                .entry(current.clone())
                .or_default()
                .push((name, value.trim().to_string()));
        }
    }
    sections
}

fn names(sections: &Sections, section: &str) -> Vec<String> {
    sections
        .get(section)
        .map(|entries| entries.iter().map(|(name, _)| name.clone()).collect())
        .unwrap_or_default()
}

/// Every `.rs` file under `dirs`, concatenated, plain `//` comments
/// dropped. Doc comments stay: their examples compile as doctests.
fn sources(package: &Path, dirs: &[&str]) -> String {
    fn walk(dir: &Path, out: &mut String) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
        paths.sort();
        for path in paths {
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).expect("source file is UTF-8");
                for line in text.lines() {
                    let code = line.trim_start();
                    if !code.starts_with("//") || code.starts_with("///") || code.starts_with("//!")
                    {
                        out.push_str(line);
                        out.push('\n');
                    }
                }
            }
        }
    }
    let mut out = String::new();
    for dir in dirs {
        walk(&package.join(dir), &mut out);
    }
    out
}

/// Whether `text` names the crate as the head of a path: `krate::…`,
/// `use krate…`. `other::krate::` and `mykrate::` do not count.
fn names_crate(text: &str, krate: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(krate).any(|(at, _)| {
        let before = &text[..at];
        let after = &text[at + krate.len()..];
        let head_of_path = match before.strip_suffix("::") {
            Some(outer) => !outer.ends_with(ident),
            None => !before.ends_with(ident),
        };
        head_of_path
            && (after.starts_with("::") || (before.ends_with("use ") && !after.starts_with(ident)))
    })
}

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The root package and every crate under `crates/`: `(name, directory,
/// manifest)`.
fn packages() -> Vec<(String, PathBuf, Sections)> {
    let mut dirs = vec![repo()];
    let mut crates: Vec<PathBuf> = fs::read_dir(repo().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    crates.sort();
    dirs.extend(crates);
    dirs.into_iter()
        .map(|dir| {
            let sections = manifest_sections(&dir.join("Cargo.toml"));
            let (_, name) = sections["package"]
                .iter()
                .find(|(key, _)| key == "name")
                .expect("package.name")
                .clone();
            (name.trim_matches('"').to_string(), dir, sections)
        })
        .collect()
}

#[test]
fn every_manifest_edge_has_a_use_behind_it() {
    let mut problems = Vec::new();
    let mut frozen_seen = BTreeSet::new();
    for (package, dir, sections) in packages() {
        let src = sources(&dir, &["src"]);
        let all = sources(&dir, &["src", "tests", "examples"]);
        let edges = [("dependencies", &src), ("dev-dependencies", &all)];
        for (section, text) in edges {
            for dep in names(&sections, section) {
                let used = names_crate(text, &dep.replace('-', "_"));
                let frozen = FROZEN
                    .iter()
                    .any(|(p, d, _)| *p == package && *d == dep && section == "dependencies");
                if frozen {
                    frozen_seen.insert((package.clone(), dep.clone()));
                }
                match (frozen, used) {
                    (true, true) => problems.push(format!(
                        "{package} → {dep} has gained a `use`: take it off FROZEN"
                    )),
                    (false, false) => problems.push(format!(
                        "{package} [{section}] {dep}: nothing compiles against it, delete the line"
                    )),
                    _ => {}
                }
            }
        }
    }
    for (package, dep, reason) in FROZEN {
        assert!(!reason.is_empty(), "{package} → {dep} needs its reason");
        if !frozen_seen.contains(&(package.to_string(), dep.to_string())) {
            problems.push(format!(
                "{package} → {dep} is on FROZEN but not in the manifest"
            ));
        }
    }
    if FROZEN.len() > 7 {
        problems.push("FROZEN only shrinks: an unused edge is deleted, not listed".into());
    }
    assert!(problems.is_empty(), "\n  {}", problems.join("\n  "));
}

#[test]
fn vendor_and_workspace_dependencies_name_each_other() {
    let root = manifest_sections(&repo().join("Cargo.toml"));
    let workspace = &root["workspace.dependencies"];

    let mut vendored: Vec<String> = fs::read_dir(repo().join("vendor"))
        .expect("vendor/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| format!("vendor/{}", p.file_name().unwrap().to_string_lossy()))
        .collect();
    vendored.sort();
    for dir in &vendored {
        assert!(
            workspace
                .iter()
                .any(|(_, value)| value.contains(&format!("path = \"{dir}\""))),
            "{dir} exists but [workspace.dependencies] does not name it"
        );
    }

    let mut manifests: Vec<Sections> = packages().into_iter().map(|p| p.2).collect();
    manifests.push(manifest_sections(&repo().join("benchmark/Cargo.toml")));
    let named: BTreeSet<String> = manifests
        .iter()
        .flat_map(|sections| {
            let mut deps = names(sections, "dependencies");
            deps.extend(names(sections, "dev-dependencies"));
            deps
        })
        .collect();
    for (name, _) in workspace {
        assert!(
            named.contains(name),
            "[workspace.dependencies] {name} is named by no member and not by benchmark/Cargo.toml"
        );
    }
}

#[test]
fn the_scan_tells_a_path_head_from_a_look_alike() {
    assert!(names_crate("use rand::Rng;", "rand"));
    assert!(names_crate("pub use jupiter;", "jupiter"));
    assert!(names_crate("let b = bytes::Bytes::new();", "bytes"));
    assert!(names_crate("fn f(r: &mut ::rand::Rng)", "rand"));
    assert!(!names_crate("use rand_chacha::ChaCha8Rng;", "rand"));
    assert!(!names_crate("operand::new()", "rand"));
    assert!(!names_crate("crate::storage::Thing", "storage"));
    assert!(!names_crate("use spot_jupiter::paxos::Cluster;", "paxos"));
    assert!(!names_crate("shards of bytes/words", "bytes"));
}
