//! The `race-detect` sanitizer over the CI seed budget: no seed reports a
//! race. A seed that does is replayed twice before the test fails, so the
//! race it reports is one its printed seed reproduces. The mutation suite
//! (`tools/mutants/unsync-batch-write.patch`) proves the budget catches an
//! unsynchronized write in the client's batch engine, with both sites
//! named. Runtime-gated on the detector: without
//! `--features davix-repro/race-detect` the test is a pass-through no-op.

use sim_fuzz::{run_one, FuzzConfig};

/// Seeds the test scans; mirrors `harness.rs`.
const SEED_BUDGET: u64 = 8;

#[test]
fn clean_seeds_report_no_races() {
    if !netsim::race::enabled() {
        return;
    }
    for seed in 1..=SEED_BUDGET {
        let report = run_one(&FuzzConfig { seed, ..Default::default() });
        if report.violations.iter().any(|v| v.invariant == "race") {
            for round in 0..2 {
                let again = run_one(&FuzzConfig { seed, ..Default::default() });
                assert_eq!(report.summary(), again.summary(), "replay {round} of seed {seed}");
                assert_eq!(report.violations, again.violations);
            }
            panic!(
                "seed {seed} reported a race, and replays bit-identically twice: {:?}",
                report.violations
            );
        }
    }
}
