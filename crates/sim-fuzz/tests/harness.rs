//! The harness's own acceptance tests: a clean run passes all invariants
//! and replays bit-identically, and every seed of the CI budget runs
//! clean. A seed that fails is replayed before the test fails, so the
//! failure it reports is one its printed seed reproduces. The mutation
//! suite (`tools/mutants/eager-segment-commit.patch`) proves the budget
//! catches a commit-atomicity bug as `all-or-nothing`.

use sim_fuzz::{run_one, FuzzConfig};

/// Seeds the clean-corpus test scans. Kept small so the test stays fast;
/// the eager-commit mutant must be caught inside it.
const SEED_BUDGET: u64 = 8;

#[test]
fn clean_run_upholds_every_invariant_and_replays_bit_identically() {
    let cfg = FuzzConfig { seed: 5, ..Default::default() };
    let a = run_one(&cfg);
    assert!(a.passed(), "clean scenario must not violate invariants: {:?}", a.violations);
    assert!(a.reads_ok > 0, "scenario exercised no reads");
    assert!(a.uploads_ok > 0, "scenario exercised no committed uploads");
    assert!(a.fault.outages > 0, "fault plan injected no outages");
    let b = run_one(&cfg);
    assert_eq!(a.summary(), b.summary(), "same seed must replay bit-identically");
    assert_eq!(a.trace, b.trace, "same seed must produce an identical event trace");
}

#[test]
fn different_seeds_explore_different_schedules() {
    let a = run_one(&FuzzConfig { seed: 1, ..Default::default() });
    let b = run_one(&FuzzConfig { seed: 2, ..Default::default() });
    assert_ne!(a.fingerprint, b.fingerprint);
    assert_ne!(a.trace, b.trace, "different seeds must not share a schedule");
}

#[test]
fn same_seed_without_canary_stays_clean() {
    for seed in 1..=SEED_BUDGET {
        let report = run_one(&FuzzConfig { seed, ..Default::default() });
        if !report.passed() {
            let again = run_one(&FuzzConfig { seed, ..Default::default() });
            assert_eq!(report.summary(), again.summary(), "seed {seed} replayed differently");
            assert_eq!(report.violations, again.violations);
            panic!("seed {seed} violated, and replays bit-identically: {:?}", report.violations);
        }
    }
}
