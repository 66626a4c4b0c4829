//! The dependency inventory: every edge of the build graph, with the
//! `use` behind it, and every `pub` function, constant and static of the
//! library crates, with a reader outside the crate behind it. Third and
//! fourth of its kind, after `tests/instruments.rs` (signals) and
//! `tests/options.rs` (options).
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
//!
//! The surface rule: `pub` means another package names the item. `pub`
//! hides an item from rustc's `dead_code` lint, so each `pub fn`, `const`
//! or `static` in a library crate's `src/` (every `crates/*` but `repro`
//! and `test-util`; column-0 `#[cfg(test)]` items left out, as `ci.sh`
//! counts lines) must appear as a whole word in a `.rs` file outside that
//! `src/`: another package, the crate's own `tests/` or `examples/`, or
//! `benchmark/src` and `benchmark/tests`. Types are not checked — rustc's
//! `private_interfaces` lint says which ones a public signature needs.
//! There is no exemption list. This file is no reader. The scan is by
//! word, so it approximates the rule: it catches a new name nothing calls,
//! but an item whose name something else outside also bears (`len`,
//! `push`) passes on that reader. Making it `pub(crate)` and compiling the
//! workspace and the benchmark is the complete test.

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

/// Every `.rs` file under `dir`, in path order (none if `dir` is absent).
fn rs_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        if path.is_dir() {
            files.extend(rs_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// Every `.rs` file under `dirs`, concatenated by [`code`].
fn sources(package: &Path, dirs: &[&str]) -> String {
    dirs.iter()
        .flat_map(|dir| rs_files(&package.join(dir)))
        .map(|path| code(&path))
        .collect()
}

/// The `.rs` file at `path`, plain `//` comments dropped. Doc comments
/// stay: their examples compile as doctests, their links as rustdoc's.
fn code(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source file is UTF-8");
    let mut out = String::new();
    for line in text.lines() {
        let code = line.trim_start();
        if !code.starts_with("//") || code.starts_with("///") || code.starts_with("//!") {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Whether `text` names the crate as the head of a path: `krate::…`,
/// `use krate…`. `other::krate::` and `mykrate::` do not count.
fn names_crate(text: &str, krate: &str) -> bool {
    text.match_indices(krate).any(|(at, _)| {
        let before = &text[..at];
        let after = &text[at + krate.len()..];
        let head_of_path = match before.strip_suffix("::") {
            Some(outer) => !outer.ends_with(ident_char),
            None => !before.ends_with(ident_char),
        };
        head_of_path
            && (after.starts_with("::")
                || (before.ends_with("use ") && !after.starts_with(ident_char)))
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

/// The crates the surface rule skips: the binary `repro` and the test
/// helpers have no other package to serve.
const NOT_LIBRARIES: &[&str] = &["repro", "test-util"];

/// The lines `ci.sh` counts as non-test: every line but a column-0
/// `#[cfg(test)]` and the item it gates (a `mod x;` line, or a block
/// through the next column-0 `}`).
fn non_test_lines(text: &str) -> Vec<&str> {
    let (mut skip, mut gated) = (false, false);
    let mut out = Vec::new();
    for line in text.lines() {
        if skip {
            skip = !line.starts_with('}');
        } else if gated {
            gated = false;
            let item = line.strip_prefix("pub(crate) ").unwrap_or(line);
            let item = item.strip_prefix("pub ").unwrap_or(item);
            let declaration = item.strip_prefix("mod ").is_some_and(|rest| {
                rest.strip_suffix(';')
                    .is_some_and(|name| !name.is_empty() && name.chars().all(ident_char))
            });
            skip = !declaration;
        } else if line.starts_with("#[cfg(test)]") {
            gated = true;
        } else {
            out.push(line);
        }
    }
    out
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The name a `pub fn`, `pub const` or `pub static` line declares.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let mut declares = false;
    for word in rest
        .split(|c: char| !ident_char(c))
        .filter(|w| !w.is_empty())
    {
        match word {
            "const" | "static" | "fn" => declares = true,
            "unsafe" | "mut" => {}
            name => return declares.then_some(name),
        }
    }
    None
}

/// Every identifier-shaped word in `text`.
fn words(text: &str) -> BTreeSet<&str> {
    text.split(|c: char| !ident_char(c))
        .filter(|w| !w.is_empty())
        .collect()
}

#[test]
fn every_pub_item_has_a_reader_outside_its_crate() {
    let packages = packages();
    // The texts a crate's `pub` items may be named in, each with the
    // directory it came from. This file is no reader: its own text names
    // items only to describe or test the scan.
    let this_file = repo().join(file!());
    let text = |dir: &Path| -> String {
        rs_files(dir)
            .iter()
            .filter(|path| **path != this_file)
            .map(|path| code(path))
            .collect()
    };
    let mut readers: Vec<(PathBuf, String)> = Vec::new();
    for (_, dir, _) in &packages {
        for sub in ["src", "tests", "examples"] {
            readers.push((dir.join(sub), text(&dir.join(sub))));
        }
    }
    let bench = repo().join("benchmark");
    for sub in ["src", "tests"] {
        readers.push((bench.join(sub), text(&bench.join(sub))));
    }
    let readers: Vec<(PathBuf, BTreeSet<&str>)> = readers
        .iter()
        .map(|(dir, text)| (dir.clone(), words(text)))
        .collect();

    let mut problems = Vec::new();
    let mut checked = 0;
    for (package, dir, _) in &packages {
        if *dir == repo() || NOT_LIBRARIES.contains(&package.as_str()) {
            continue;
        }
        let src = dir.join("src");
        for file in rs_files(&src) {
            let text = fs::read_to_string(&file).expect("source file is UTF-8");
            for name in non_test_lines(&text).into_iter().filter_map(pub_item) {
                checked += 1;
                let named = readers
                    .iter()
                    .any(|(from, words)| *from != src && words.contains(name));
                if !named {
                    problems.push(format!(
                        "{}: `pub` item `{name}` has no reader outside {}: make it pub(crate) or delete it",
                        file.strip_prefix(repo()).unwrap_or(&file).display(),
                        src.strip_prefix(repo()).unwrap_or(&src).display(),
                    ));
                }
            }
        }
    }
    assert!(checked > 100, "the scan found only {checked} pub items");
    assert!(problems.is_empty(), "\n  {}", problems.join("\n  "));
}

#[test]
fn the_surface_scan_reads_declarations_and_skips_test_blocks() {
    assert_eq!(
        pub_item("    pub fn alpha(&self) -> usize {"),
        Some("alpha")
    );
    assert_eq!(
        pub_item("pub const fn beta(s: u64) -> Self {"),
        Some("beta")
    );
    assert_eq!(pub_item("pub const GAMMA: u64 = 200;"), Some("GAMMA"));
    assert_eq!(pub_item("pub static mut DELTA: u64 = 0;"), Some("DELTA"));
    assert_eq!(pub_item("pub unsafe fn epsilon() {}"), Some("epsilon"));
    assert_eq!(pub_item("pub(crate) fn zeta() {}"), None);
    assert_eq!(pub_item("pub struct Eta;"), None);
    assert_eq!(pub_item("pub use theta::iota;"), None);
    let text = "pub fn kappa() {}\n#[cfg(test)]\nmod tests;\npub fn lambda() {}\n\
                #[cfg(test)]\nmod tests {\n    pub fn mu() {}\n}\npub fn nu() {}\n";
    let found: Vec<_> = non_test_lines(text)
        .into_iter()
        .filter_map(pub_item)
        .collect();
    assert_eq!(found, ["kappa", "lambda", "nu"]);
    let seen = words("xi.omicron(\"x\"); let y = rho::sigma_tau(1);");
    assert!(seen.contains("sigma_tau") && seen.contains("omicron") && !seen.contains("sigma"));
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
