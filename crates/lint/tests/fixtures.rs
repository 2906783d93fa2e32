//! Fixture tests: every known-bad snippet under `tests/fixtures/bad/`
//! produces exactly its expected diagnostics, and every known-good snippet
//! under `tests/fixtures/good/` lints clean. The binary is exercised too:
//! `--deny-all` exit codes and `file:line` diagnostics are part of the CI
//! contract.

use std::path::{Path, PathBuf};
use std::process::Command;

use davix_lint::{lint_file, lint_files, lint_source, Rule};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint one fixture, returning `(rule, line)` pairs sorted by line.
fn lint_fixture(rel: &str) -> Vec<(Rule, u32)> {
    let root = fixture_dir();
    let findings = lint_file(&root, &root.join(rel)).expect("fixture readable");
    findings.iter().map(|f| (f.rule, f.line)).collect()
}

#[test]
fn wall_clock_fixture_produces_exact_determinism_findings() {
    assert_eq!(
        lint_fixture("bad/wall_clock.rs"),
        vec![(Rule::Determinism, 8), (Rule::Determinism, 12)]
    );
}

#[test]
fn guard_across_wait_fixture_produces_exact_lock_findings() {
    assert_eq!(
        lint_fixture("bad/guard_across_wait.rs"),
        vec![(Rule::LockDiscipline, 11), (Rule::LockDiscipline, 17)]
    );
}

#[test]
fn guard_use_fixture_flags_uses_and_keeps_the_handoff_clean() {
    // `*guard`, `guard.field` and `guard[..]` inside a blocking call's
    // arguments keep the lock held; only the guard passed whole releases it.
    assert_eq!(
        lint_fixture("bad/guard_use_is_not_handoff.rs"),
        vec![(Rule::LockDiscipline, 12), (Rule::LockDiscipline, 19), (Rule::LockDiscipline, 25)]
    );
}

#[test]
fn rogue_spawn_fixture_produces_exact_thread_findings() {
    assert_eq!(
        lint_fixture("bad/rogue_spawn.rs"),
        vec![(Rule::ThreadHygiene, 7), (Rule::ThreadHygiene, 13)]
    );
}

#[test]
fn client_runtime_spawn_fixture_is_flagged_under_the_client_only() {
    // The client's one spawn site is `IoPool`, so `io_threads` bounds every
    // thread it starts: a runtime `.spawn(..)` anywhere else in
    // `crates/core/src/` is a finding. Elsewhere (dynafed's monitor thread)
    // and in `iopool.rs` itself the same source is clean.
    let src = std::fs::read_to_string(fixture_dir().join("bad/client_runtime_spawn.rs")).unwrap();
    let findings = |rel: &str| -> Vec<(Rule, u32)> {
        lint_source(rel, &src).iter().map(|f| (f.rule, f.line)).collect()
    };
    assert_eq!(
        findings("crates/core/src/replicas.rs"),
        vec![(Rule::ThreadHygiene, 8), (Rule::ThreadHygiene, 13)]
    );
    assert!(findings("crates/dynafed/src/health.rs").is_empty());
    assert!(findings("crates/core/src/iopool.rs").is_empty());
}

#[test]
fn server_spawn_fixture_is_flagged_under_the_servers_only() {
    // Every server thread is a reactor shard or `netsim::ServerCore`'s
    // accept thread, so a `.spawn(..)` or `.spawn_joinable(..)` in httpd or
    // in xrdlite's server is a finding. xrdlite's client keeps its writer
    // and reader threads, and `netsim::reactor` is where the core spawns.
    let src = std::fs::read_to_string(fixture_dir().join("bad/server_spawn.rs")).unwrap();
    let findings = |rel: &str| -> Vec<(Rule, u32)> {
        lint_source(rel, &src).iter().map(|f| (f.rule, f.line)).collect()
    };
    let expected =
        vec![(Rule::ThreadHygiene, 8), (Rule::ThreadHygiene, 15), (Rule::ThreadHygiene, 23)];
    assert_eq!(findings("crates/httpd/src/server.rs"), expected);
    assert_eq!(findings("crates/xrdlite/src/server.rs"), expected);
    assert!(findings("crates/xrdlite/src/client.rs").is_empty());
    assert!(findings("crates/netsim/src/reactor.rs").is_empty());
}

#[test]
fn client_head_parse_fixture_is_flagged_outside_the_http_crates() {
    // A response head parsed by hand is a second HTTP client growing: in
    // a bench it is a finding, except in fig7's slowloris `408` check; the
    // crates that speak HTTP for everyone parse heads as they must.
    let src = std::fs::read_to_string(fixture_dir().join("bad/client_head_parse.rs")).unwrap();
    let findings = |rel: &str| -> Vec<(Rule, u32)> {
        lint_source(rel, &src).iter().map(|f| (f.rule, f.line)).collect()
    };
    assert_eq!(lint_fixture("bad/client_head_parse.rs"), findings("crates/bench/src/bin/fig9.rs"));
    assert_eq!(
        findings("crates/bench/src/bin/fig9.rs"),
        vec![(Rule::OneClient, 15), (Rule::OneClient, 32)]
    );
    assert_eq!(findings("crates/bench/src/bin/fig7_c10k.rs"), vec![(Rule::OneClient, 15)]);
    for own in
        ["crates/httpwire/src/parse.rs", "crates/core/src/executor.rs", "crates/httpd/src/conn.rs"]
    {
        assert!(findings(own).is_empty(), "{own}");
    }
}

#[test]
fn fault_hook_rng_fixture_produces_exact_determinism_findings() {
    // Fault-injection decision points are exactly where ambient entropy
    // would be most tempting and most damaging: one `rand::random` in a
    // fault hook breaks `davix-simfuzz --seed N` replay. The determinism
    // rule catches both ambient-RNG spellings with no new allow markers —
    // the engine's own decisions run on `netsim::SplitRng`, which is lint-
    // clean by construction.
    assert_eq!(
        lint_fixture("bad/fault_hook_rng.rs"),
        vec![(Rule::Determinism, 11), (Rule::Determinism, 15)]
    );
}

#[test]
fn reasonless_allow_fixture_flags_marker_and_does_not_suppress() {
    assert_eq!(
        lint_fixture("bad/reasonless_allow.rs"),
        vec![(Rule::BadAllow, 6), (Rule::Determinism, 7), (Rule::BadAllow, 9)]
    );
}

#[test]
fn bare_atomic_fixture_produces_exact_shared_state_findings() {
    assert_eq!(
        lint_fixture("bad/bare_atomic.rs"),
        vec![(Rule::SharedState, 5), (Rule::SharedState, 13), (Rule::SharedState, 14)]
    );
}

#[test]
fn static_mut_fixture_produces_exact_shared_state_findings() {
    assert_eq!(lint_fixture("bad/static_mut.rs"), vec![(Rule::SharedState, 4)]);
}

#[test]
fn guard_across_call_chain_needs_the_graph() {
    let root = fixture_dir();
    let path = root.join("bad/guard_across_call_chain.rs");
    // Alone, without a call graph, the file looks clean: the wait hides one
    // hop away in `drain_queue` and the intra-function rule cannot see it.
    assert!(lint_file(&root, &path).unwrap().is_empty());
    // Linted as a set (even a set of one), the graph proves the chain.
    let findings = lint_files(&root, vec![path]).unwrap();
    assert_eq!(
        findings.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>(),
        vec![(Rule::LockDiscipline, 14)]
    );
    assert!(
        findings[0].message.contains("drain_queue -> wait(..)"),
        "finding must carry the witness chain: {}",
        findings[0].message
    );
}

#[test]
fn good_fixtures_lint_clean() {
    for rel in [
        "good/disciplined.rs",
        "good/marked_realtime.rs",
        "good/shim_state.rs",
        "good/marked_shared_state.rs",
    ] {
        let f = lint_fixture(rel);
        assert!(f.is_empty(), "{rel} should be clean, got {f:?}");
    }
}

#[test]
fn bench_and_cli_paths_are_allowlisted() {
    // The same wall-clock source that fails in sim-reachable code is fine
    // in a bench binary: benches report real wall time on purpose.
    let src = std::fs::read_to_string(fixture_dir().join("bad/wall_clock.rs")).unwrap();
    assert!(lint_source("crates/bench/src/bin/fig9_new.rs", &src).is_empty());
    assert!(lint_source("crates/cli/src/main.rs", &src).is_empty());
    // ...but a test fixture path is not allowlisted.
    assert!(!lint_source("crates/core/src/hot.rs", &src).is_empty());
}

#[test]
fn sanctioned_spawn_modules_are_allowlisted_for_threads_only() {
    let spawn_src = "pub fn s() { std::thread::spawn(|| {}); }";
    assert!(lint_source("crates/core/src/iopool.rs", spawn_src).is_empty());
    assert!(lint_source("crates/netsim/src/reactor.rs", spawn_src).is_empty());
    assert!(lint_source("crates/netsim/src/sim.rs", spawn_src).is_empty());
    // The spawn allowlist does not waive determinism there.
    let clock_src = "pub fn t() { let _ = std::time::Instant::now(); }";
    assert_eq!(lint_source("crates/netsim/src/sim.rs", clock_src).len(), 1);
}

// ---------------------------------------------------------------------------
// binary contract
// ---------------------------------------------------------------------------

fn run_lint(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_davix-lint"))
        .args(args)
        .current_dir(fixture_dir())
        .output()
        .expect("run davix-lint");
    let text =
        format!("{}{}", String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    (out.status.code().unwrap_or(-1), text)
}

#[test]
fn binary_denies_each_bad_fixture_with_file_line_diagnostics() {
    for (fixture, rule, line) in [
        ("bad/wall_clock.rs", "determinism", 8),
        ("bad/fault_hook_rng.rs", "determinism", 11),
        ("bad/guard_across_wait.rs", "lock-discipline", 11),
        ("bad/guard_use_is_not_handoff.rs", "lock-discipline", 12),
        ("bad/rogue_spawn.rs", "thread-hygiene", 7),
        ("bad/client_head_parse.rs", "one-client", 15),
        ("bad/bare_atomic.rs", "shared-state", 5),
        ("bad/static_mut.rs", "shared-state", 4),
        // The binary lints explicit paths as one set with a call graph, so
        // the transitive chain is visible even for a single file.
        ("bad/guard_across_call_chain.rs", "lock-discipline", 14),
    ] {
        let path = fixture_dir().join(fixture);
        let (code, text) = run_lint(&["--deny-all", path.to_str().unwrap()]);
        assert_eq!(code, 1, "{fixture} must fail --deny-all:\n{text}");
        assert!(text.contains(&format!("error[{rule}]")), "{fixture} names its rule:\n{text}");
        assert!(
            text.contains(&format!("{fixture}:{line}")),
            "{fixture} diagnostic carries file:line:\n{text}"
        );
    }
}

#[test]
fn binary_passes_good_fixtures_under_deny_all() {
    let good = fixture_dir().join("good");
    let (code, text) = run_lint(&["--deny-all", good.to_str().unwrap()]);
    assert_eq!(code, 0, "good fixtures must be clean:\n{text}");
    assert!(text.contains("davix-lint: clean"), "{text}");
}

#[test]
fn reasonless_marker_fails_even_without_deny_all() {
    let path = fixture_dir().join("bad/reasonless_allow.rs");
    let (code, text) = run_lint(&[path.to_str().unwrap()]);
    assert_eq!(code, 1, "the marker policy is never advisory:\n{text}");
    assert!(text.contains("error[bad-allow]"), "{text}");
}

#[test]
fn json_mode_emits_machine_readable_findings() {
    let path = fixture_dir().join("bad/wall_clock.rs");
    let (code, text) = run_lint(&["--json", "--deny-all", path.to_str().unwrap()]);
    assert_eq!(code, 1);
    let json = text.trim();
    assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
    assert!(json.contains("\"rule\": \"determinism\""), "{json}");
    assert!(json.contains("\"line\": 8"), "{json}");
    assert!(json.contains("wall_clock.rs"), "{json}");
}
