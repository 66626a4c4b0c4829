//! Path references in the prose resolve. Every backticked span ending in
//! `.rs` in README.md, DESIGN.md and TESTING.md must name exactly one
//! file of the repository: either its path from the repository root, or
//! a path suffix (whole components) that no other file shares. Fenced
//! code blocks are skipped; `target/` and `.git/` hold no repository
//! files. `benchmark/README.md` is not checked: `benchmark/` changes only
//! together with its lock file.

use std::fs;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "TESTING.md"];

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

/// `(line, span)` for every inline code span of `text` ending in `.rs`,
/// outside fenced blocks. A span may wrap onto the next line.
fn rs_spans(text: &str) -> Vec<(usize, String)> {
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
        if span.ends_with(".rs") {
            spans.push((line, span.to_string()));
        }
        line += span.matches('\n').count();
        rest = &after[close + 1..];
    }
    spans
}

/// The repository files `span` names.
fn resolve<'a>(span: &str, files: &'a [String]) -> Vec<&'a String> {
    if files.iter().any(|f| f == span) {
        return files.iter().filter(|f| *f == span).collect();
    }
    let suffix = format!("/{span}");
    files.iter().filter(|f| f.ends_with(&suffix)).collect()
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
