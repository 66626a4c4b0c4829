//! References in the prose resolve. In README.md, DESIGN.md and
//! TESTING.md, outside fenced code blocks:
//!
//! * every backticked span ending in `.rs` must name exactly one file of
//!   the repository: either its path from the repository root, or a path
//!   suffix (whole components) that no other file shares;
//! * every backticked Rust path of two or more segments (`Type::item`,
//!   `crate::module::item`, optionally followed by `()`) must have its
//!   first and last segments declared in the repository's Rust sources —
//!   as a package, fn, type, trait, const, static, mod, enum variant or
//!   struct field. Paths rooted in the standard library or `clippy` are
//!   not checked.
//!
//! `target/` and `.git/` hold no repository files. `benchmark/README.md`
//! is not checked: `benchmark/` changes only together with its lock file.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "TESTING.md"];

/// First segments of paths that name the standard library (or the
/// linter), which this repository does not declare.
const EXTERNAL_ROOTS: [&str; 6] = ["std", "core", "clippy", "Vec", "Arc", "f64"];

/// Every file under `dir`, as a `/`-separated path relative to `root`.
fn files(root: &Path, dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str());
            if !matches!(name, Some("target" | ".git")) {
                files(root, &path, out);
            }
        } else {
            let rel = path.strip_prefix(root).expect("under the root");
            let parts: Vec<_> = rel.iter().map(|p| p.to_string_lossy()).collect();
            out.push(parts.join("/"));
        }
    }
}

/// `(line, span)` for every inline code span of `text` outside fenced
/// blocks. A span may wrap onto the next line.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut fenced = false;
    let prose: Vec<&str> = text
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
                return "";
            }
            if fenced {
                ""
            } else {
                line
            }
        })
        .collect();
    let prose = prose.join("\n");
    let mut spans = Vec::new();
    let mut rest = prose.as_str();
    let mut line = 1;
    while let Some(open) = rest.find('`') {
        line += rest[..open].matches('\n').count();
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        let span = &after[..close];
        spans.push((line, span.to_string()));
        line += span.matches('\n').count();
        rest = &after[close + 1..];
    }
    spans
}

/// `(line, span)` for every code span of `text` ending in `.rs`.
fn rs_spans(text: &str) -> Vec<(usize, String)> {
    code_spans(text)
        .into_iter()
        .filter(|(_, span)| span.ends_with(".rs"))
        .collect()
}

/// The repository files `span` names.
fn resolve<'a>(span: &str, files: &'a [String]) -> Vec<&'a String> {
    if files.iter().any(|f| f == span) {
        return files.iter().filter(|f| *f == span).collect();
    }
    let suffix = format!("/{span}");
    files.iter().filter(|f| f.ends_with(&suffix)).collect()
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The segments of `span` if it is a Rust path of two or more
/// identifiers, optionally followed by `()`.
fn item_path(span: &str) -> Option<Vec<&str>> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let segments: Vec<&str> = path.split("::").collect();
    (segments.len() >= 2 && segments.iter().all(|s| is_ident(s))).then_some(segments)
}

/// The identifier `line` starts with, after any visibility.
fn leading_ident(line: &str) -> Option<&str> {
    let mut line = line.trim_start();
    if let Some(rest) = line.strip_prefix("pub") {
        line = rest.trim_start();
        if line.starts_with('(') {
            line = line.split_once(')')?.1.trim_start();
        }
    }
    let end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(line.len());
    Some(&line[..end]).filter(|s| is_ident(s))
}

/// The names `source` declares: items after `fn`, `struct`, `enum`,
/// `trait`, `type`, `const`, `static`, `mod`, `union` or `macro_rules!`,
/// plus the variants and fields — the leading identifier of each line —
/// inside `struct` and `enum` bodies.
fn declarations(source: &str, out: &mut BTreeSet<String>) {
    const KEYWORDS: [&str; 10] = [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "union",
        "macro_rules",
    ];
    // Brace depth inside a struct or enum body, and whether a struct or
    // enum header still waits for its `{` (or its `;`).
    let (mut depth, mut pending) = (0i32, false);
    for line in source.lines() {
        let code = line.split("//").next().unwrap_or("");
        let words: Vec<&str> = code
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        for pair in words.windows(2) {
            if KEYWORDS.contains(&pair[0]) && is_ident(pair[1]) {
                out.insert(pair[1].to_string());
            }
        }
        let braces = code.matches('{').count() as i32 - code.matches('}').count() as i32;
        if depth > 0 {
            out.extend(leading_ident(code).map(str::to_string));
            depth += braces;
        } else if pending || words.windows(2).any(|w| matches!(w[0], "struct" | "enum")) {
            if code.contains('{') {
                (depth, pending) = (braces, false);
            } else {
                pending = !code.contains(';');
            }
        }
    }
}

/// Package names of every `Cargo.toml` among `files`, as Rust
/// identifiers.
fn packages(root: &Path, files: &[String], out: &mut BTreeSet<String>) {
    for manifest in files.iter().filter(|f| f.ends_with("Cargo.toml")) {
        let text = fs::read_to_string(root.join(manifest)).expect("manifest");
        let package = text.split("[package]").nth(1).unwrap_or("");
        if let Some(line) = package.lines().find(|l| l.trim_start().starts_with("name")) {
            let name = line.split('"').nth(1).expect("quoted package name");
            out.insert(name.replace('-', "_"));
        }
    }
}

/// Why `span` does not resolve against `declared`, if it is a path
/// whose first or last segment is undeclared.
fn unresolved(span: &str, declared: &BTreeSet<String>) -> Option<String> {
    let segments = item_path(span)?;
    let (first, last) = (segments[0], segments[segments.len() - 1]);
    if EXTERNAL_ROOTS.contains(&first) {
        return None;
    }
    let known = |s: &str| matches!(s, "crate" | "self" | "super" | "Self") || declared.contains(s);
    let missing: Vec<&str> = [first, last].into_iter().filter(|s| !known(s)).collect();
    (!missing.is_empty()).then(|| format!("`{span}`: {} not declared", missing.join(", ")))
}

#[test]
fn every_rs_path_in_the_docs_names_one_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = Vec::new();
    files(root, root, &mut all);
    let mut bad = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc exists");
        for (line, span) in rs_spans(&text) {
            checked += 1;
            let hits = resolve(&span, &all);
            if hits.len() != 1 {
                bad.push(format!(
                    "{doc}:{line}: `{span}` names {} files {hits:?}",
                    hits.len()
                ));
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} spans found: the scanner is broken"
    );
    assert!(
        bad.is_empty(),
        "unresolved path references:\n{}",
        bad.join("\n")
    );
}

#[test]
fn every_item_path_in_the_docs_is_declared() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut all = Vec::new();
    files(root, root, &mut all);
    let mut declared = BTreeSet::new();
    packages(root, &all, &mut declared);
    for file in all.iter().filter(|f| f.ends_with(".rs")) {
        let source = fs::read_to_string(root.join(file)).expect("readable source");
        declarations(&source, &mut declared);
    }
    let mut bad = Vec::new();
    let mut checked = 0;
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc exists");
        for (line, span) in code_spans(&text) {
            checked += usize::from(item_path(&span).is_some());
            if let Some(why) = unresolved(&span, &declared) {
                bad.push(format!("{doc}:{line}: {why}"));
            }
        }
    }
    assert!(
        checked > 50,
        "only {checked} item paths found: the scanner is broken"
    );
    assert!(
        bad.is_empty(),
        "unresolved item references:\n{}",
        bad.join("\n")
    );
}

#[test]
fn spans_resolve_by_root_path_or_unique_suffix() {
    let files: Vec<String> = ["a/src/lib.rs", "b/src/lib.rs", "tests/x.rs", "c/tests/x.rs"]
        .map(String::from)
        .to_vec();
    assert_eq!(resolve("a/src/lib.rs", &files).len(), 1);
    assert_eq!(resolve("src/lib.rs", &files).len(), 2);
    assert_eq!(resolve("tests/x.rs", &files).len(), 1, "the root path wins");
    assert_eq!(resolve("x.rs", &files).len(), 2);
    assert_eq!(resolve("lib.rs/", &files).len(), 0);
    assert_eq!(
        resolve("rc/lib.rs", &files).len(),
        0,
        "whole components only"
    );
    let text = "`a.rs` and ``\n```\n`b.rs`\n```\n`c/\nd.rs` `e.rs:12`\n";
    let spans = rs_spans(text);
    assert_eq!(
        spans,
        [(1, "a.rs".to_string()), (5, "c/\nd.rs".to_string())]
    );
}

#[test]
fn item_paths_resolve_by_first_and_last_segment() {
    let source = "\
pub mod solve {
    pub fn node_failure_pr() {}
}
pub enum QuorumRule {
    /// Doc.
    Majority,
    RsPaxos {
        m: usize,
    },
}
pub(crate) struct Kernel<T>
where
    T: Copy,
{
    pub(crate) states: Vec<T>,
}
struct Tuple(u32);
const LIMIT: u32 = 3;
";
    let mut declared = BTreeSet::new();
    declarations(source, &mut declared);
    let want = [
        "solve",
        "node_failure_pr",
        "QuorumRule",
        "Majority",
        "RsPaxos",
        "m",
        "Kernel",
        "states",
        "Tuple",
        "LIMIT",
    ];
    assert_eq!(declared, want.map(String::from).into_iter().collect());
    declared.insert("quorum".to_string());
    for good in [
        "quorum::solve::node_failure_pr",
        "QuorumRule::RsPaxos",
        "Kernel::states()",
        "crate::LIMIT",
        "f64::to_bits",
        "QuorumRule::{Majority, RsPaxos}",
        "main.rs",
    ] {
        assert_eq!(unresolved(good, &declared), None, "{good}");
    }
    // Seeded defects: an undeclared item, an undeclared root, both.
    for bad in [
        "QuorumRule::failure_tolerance",
        "quorum::VoteTable",
        "obs::export",
        "Kernel::exact_dists_up_to()",
        "VoteTable::minimal_quorums",
    ] {
        assert!(unresolved(bad, &declared).is_some(), "{bad}");
    }
    let spans: Vec<String> = code_spans("`A::b` and\n```\n`C::d`\n```\n`e`")
        .into_iter()
        .map(|(_, s)| s)
        .collect();
    assert_eq!(spans, ["A::b", "e"]);
}
