//! Every `` `path.rs:N` `` and `` `path.rs:N–M` `` citation in README.md,
//! ARCHITECTURE.md and ROADMAP.md points into a file that exists and has
//! at least that many lines. A path with a directory is read from the
//! repository root; a bare file name must match exactly one file in the
//! repository.

use std::path::{Path, PathBuf};

/// The documents whose citations are checked, from the repository root.
const DOCS: [&str; 3] = ["README.md", "ARCHITECTURE.md", "ROADMAP.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// Every `.rs` file under `dir`, build output and dot-directories left out.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The citations in `doc`, as `(line in doc, span, path, last cited line)`:
/// code spans that are a `.rs` path, a colon and a line or a range of lines
/// (en dash or hyphen). A fence's three backticks keep the span parity, so
/// the document is split as a whole.
fn citations(doc: &str) -> Vec<(usize, &str, &str, usize)> {
    let mut out = Vec::new();
    let mut line = 1;
    for (i, piece) in doc.split('`').enumerate() {
        let cited = piece.rsplit_once(':').filter(|(path, _)| {
            i % 2 == 1 && path.ends_with(".rs") && !piece.contains(char::is_whitespace)
        });
        if let Some((path, lines)) = cited {
            let ends: Option<Vec<usize>> =
                lines.split(['–', '-']).map(|n| n.parse().ok()).collect();
            if let Some(&[.., last]) = ends.as_deref() {
                out.push((line, piece, path, last));
            }
        }
        line += piece.matches('\n').count();
    }
    out
}

/// What is wrong with each citation in `doc` (named `name`), given the
/// repository's `.rs` files.
fn check(root: &Path, files: &[PathBuf], name: &str, doc: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for (line, span, path, last) in citations(doc) {
        let matches: Vec<&PathBuf> = if path.contains('/') {
            files.iter().filter(|f| **f == root.join(path)).collect()
        } else {
            files.iter().filter(|f| f.file_name().is_some_and(|n| *n == *path)).collect()
        };
        let at = format!("{name}:{line}: `{span}`");
        match matches[..] {
            [file] => {
                let lines = std::fs::read_to_string(file).unwrap().lines().count();
                if lines < last {
                    problems.push(format!("{at} is past the end of a {lines}-line file"));
                }
            }
            [] => problems.push(format!("{at} names no file")),
            _ => problems.push(format!("{at} names {} files; cite it by path", matches.len())),
        }
    }
    problems
}

#[test]
fn every_file_and_line_the_docs_cite_exists() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let mut problems = Vec::new();
    let mut cited = 0;
    for name in DOCS {
        let doc = std::fs::read_to_string(root.join(name)).unwrap();
        cited += citations(&doc).len();
        problems.extend(check(&root, &files, name, &doc));
    }
    assert!(cited > 0, "no citation found: the scanner is broken");
    assert!(problems.is_empty(), "stale citations:\n{}", problems.join("\n"));
}

/// The canary: a line past the file's end, a bare name two files share and
/// a file that does not exist each fail; a good citation and prose do not.
#[test]
fn a_citation_past_the_end_or_of_an_ambiguous_or_missing_file_fails() {
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root, &mut files);
    let doc = "See `crates/core/src/posix.rs:99999`, then\n`handler.rs:1` and \
               `nowhere.rs:3–4`;\n```\nnot `code`\n```\n`crates/core/src/posix.rs:1–2` \
               and `a.rs: 1` are fine.";
    let problems = check(&root, &files, "doc", doc);
    let want = [
        "doc:1: `crates/core/src/posix.rs:99999` is past the end of a ",
        "doc:2: `handler.rs:1` names 2 files",
        "doc:2: `nowhere.rs:3–4` names no file",
    ];
    assert_eq!(problems.len(), want.len(), "{problems:#?}");
    for (problem, want) in problems.iter().zip(want) {
        assert!(problem.starts_with(want), "{problem}");
    }
}
