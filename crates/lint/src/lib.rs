//! **davix-lint** — the workspace invariant checker.
//!
//! The repo's hardest-won properties are disciplines, not language
//! features: seeded sim runs are bit-identical (pinned by
//! `crates/netsim/tests/determinism.rs` and required by the upcoming
//! buggify fault-injection harness) only while *nothing* sim-reachable
//! reads the wall clock, and the reactor/scheduler stack stays
//! deadlock-free only while no lock is held across a blocking call. This
//! crate turns those disciplines into machine-checked rules, enforced as a
//! blocking CI job (`davix-lint --workspace --deny-all`).
//!
//! # Rule families
//!
//! * **`determinism`** — no `Instant::now`, `SystemTime::now`,
//!   `thread::sleep`, `rand::thread_rng`/`rand::random` outside the
//!   bench/CLI binaries (real-time programs, path-allowlisted). The
//!   legitimate real-time sites elsewhere — the `netsim::tcp` real-TCP
//!   runtime shim, the `httpwire::date` formatter (HTTP dates are
//!   wall-clock by protocol) — each carry a per-site `allow` marker with
//!   its reason. Everything else must route time through
//!   `netsim::Runtime` virtual clocks and randomness through a seeded
//!   RNG, or same-seed runs stop being bit-identical and every buggify
//!   repro dies.
//! * **`lock-discipline`** — a `let`-bound guard from a zero-arg
//!   `.lock()`/`.read()`/`.write()` (or `try_*`, incl. `.unwrap()`) that
//!   is still live at a call to a known-blocking function (`wait*`,
//!   `execute*`, `connect`/`accept`, argument-taking stream
//!   `read`/`write`, `park`/`join`/`recv`/`sleep`) is an error. Passing
//!   the guard *into* the call (`cv.wait(&mut guard)`) is the sanctioned
//!   condvar handoff and stays clean. The check tracks `let` bindings,
//!   `drop()`, and block scope, and — in workspace mode — consults a
//!   name-based [`CallGraph`] so a guard live across a call to a
//!   *transitively* blocking workspace function is flagged too, with the
//!   witness chain (`flush -> drain -> wait(..)`) in the message. It still
//!   does not chase guards through function parameters or returns.
//! * **`thread-hygiene`** — `thread::spawn`/`thread::Builder` only in the
//!   sanctioned spawn modules (`core::iopool`, `netsim::reactor`,
//!   `netsim::sim` — thread creation is their purpose) and the bench/CLI
//!   binaries; `netsim::tcp`'s `Runtime::spawn` carries a per-site
//!   marker. Stray threads are invisible to the sim scheduler's census
//!   and break quiescence detection. In the client (`crates/core/src`)
//!   every `.spawn(..)` outside `iopool.rs` is a finding as well: the
//!   pool is the client's one spawn site, so `Config::io_threads` bounds
//!   all of its threads. So is every `.spawn(..)`/`.spawn_joinable(..)`
//!   in the servers (`crates/httpd/src`, `crates/xrdlite/src/server.rs`):
//!   their threads are the reactor shards and the accept thread that
//!   `netsim::ServerCore` starts.
//! * **`one-client`** — no `parse_response_head(..)` call outside the
//!   crates that speak HTTP for everyone (`httpwire`, `core`, `httpd`):
//!   load generators and probes drive the client's `Exchange` on their
//!   stream rather than growing a second HTTP client. fig7's slowloris
//!   `408` check is allow-listed by file and function name.
//! * **`shared-state`** — no bare `std::sync::atomic` paths, `static mut`,
//!   or `UnsafeCell` outside `crates/sync` (the shim itself) and the
//!   real-time binaries. The `race-detect` sanitizer only sees
//!   synchronization routed through `davix_sync::{Atomic*, CheckedCell}`
//!   and the vendored locks; bare primitives are edges it cannot model.
//!
//! # Suppressions
//!
//! Every exemption is explicit and documented in-source:
//!
//! ```text
//! // davix-lint: allow(determinism) — bench reports real wall time
//! ```
//!
//! A marker suppresses findings of its rule on the same line and the line
//! below. A marker **must** carry a reason and name a known rule —
//! violations of that policy are themselves findings (`bad-allow`) and can
//! never be suppressed. `#[cfg(test)]` modules are skipped entirely: unit
//! tests run under `cargo test` process rules, not sim rules.
//!
//! # Relationship to the runtime detector
//!
//! The static `lock-discipline` rule is complemented by the *runtime*
//! lock-order cycle detector in the vendored `parking_lot` stand-in
//! (feature `deadlock-detect`, on in the CI lint job's test pass): the
//! static rule catches "guard held across a blocking call" shapes, the
//! runtime detector catches ABBA ordering cycles the static view cannot
//! see across functions.

pub mod callgraph;
pub mod lexer;
pub mod rules;

pub use callgraph::CallGraph;
pub use rules::{file_kind, lint_scanned, lint_source, FileKind, Finding, Rule};

use std::io;
use std::path::{Path, PathBuf};

/// Lint one file on disk in isolation (no workspace call graph). `root`
/// anchors the allowlist-relative path; a file outside `root` is linted
/// under its file name (no allowlists apply).
pub fn lint_file(root: &Path, path: &Path) -> io::Result<Vec<Finding>> {
    let src = std::fs::read_to_string(path)?;
    Ok(rules::lint_source(&rel_path(root, path), &src))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace(std::path::MAIN_SEPARATOR, "/")
}

/// Walk the workspace's first-party Rust sources under `root`: every
/// `crates/*/src/**/*.rs` and `crates/*/tests/**/*.rs`, plus root-level
/// `src/` and `tests/` if present. Benches-as-data (`*.json`), the
/// vendored stand-ins (`vendor/`) and lint fixtures (any `fixtures/`
/// segment — they *must* violate rules) stay out of scope.
///
/// Files are scanned once, a workspace [`CallGraph`] is built over the
/// whole set, and each file is then linted with the graph so the
/// interprocedural `lock-discipline` check sees cross-file, cross-crate
/// call chains. Integration tests (`tests/` trees) get the relaxed
/// [`FileKind::IntegrationTest`] treatment.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    for entry in std::fs::read_dir(&crates_dir)? {
        let krate = entry?.path();
        for sub in ["src", "tests"] {
            let dir = krate.join(sub);
            if dir.is_dir() {
                collect_rs(&dir, &mut files)?;
            }
        }
    }
    for sub in ["src", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.retain(|p| !p.components().any(|c| c.as_os_str() == "fixtures"));
    lint_files(root, files)
}

/// Lint a set of files *together*: scan them all, build one [`CallGraph`]
/// over the whole set, then lint each file with the graph — so the
/// interprocedural `lock-discipline` check sees call chains that span the
/// set. Findings come back stably sorted by (file, line, rule, message).
pub fn lint_files(root: &Path, mut files: Vec<PathBuf>) -> io::Result<Vec<Finding>> {
    files.sort();
    files.dedup();
    let mut scanned: Vec<(String, lexer::Scanned)> = Vec::with_capacity(files.len());
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        scanned.push((rel_path(root, f), lexer::scan(&src)));
    }
    let graph = CallGraph::build(scanned.iter().map(|(_, s)| s));
    let mut findings = Vec::new();
    for (rel, s) in &scanned {
        findings.extend(rules::lint_scanned(rel, s, Some(&graph)));
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name(), a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.rule.name(),
            b.message.as_str(),
        ))
    });
    Ok(findings)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Render findings as a JSON array (machine mode). Hand-rolled — the tree
/// has no serde — but proper: strings are escaped, output is stable.
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
            f.rule.name(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    s.push(']');
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_escaped_and_well_formed() {
        let findings = vec![Finding {
            rule: Rule::Determinism,
            file: "a\\b.rs".into(),
            line: 3,
            message: "uses \"wall\" clock".into(),
        }];
        let j = to_json(&findings);
        assert!(j.contains("\"a\\\\b.rs\""), "{j}");
        assert!(j.contains("\\\"wall\\\""), "{j}");
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert_eq!(to_json(&[]), "[\n]");
    }

    #[test]
    fn workspace_root_is_found_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
    }
}
