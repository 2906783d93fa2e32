//! Pins the synchronization edges the runtime layers feed the race
//! detector: vendored `parking_lot` lock release→acquire, sim
//! `Signal::set`→`wait`, and the `SimNet::spawn` fork/adopt packet.
//! Compiled only under the `race-detect` feature (workspace-wide:
//! `cargo test --workspace --features davix-repro/race-detect`).
#![cfg(feature = "race-detect")]

use davix_sync::race::{set_panic_on_race, take_reports, RaceReport};
use davix_sync::CheckedCell;
use netsim::{Runtime as _, SimNet};
use parking_lot::Mutex;
use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::thread;

/// Serializes tests against the process-global report registry (a `std`
/// mutex so the harness itself adds no instrumented edges).
static TEST_LOCK: StdMutex<()> = StdMutex::new(());

fn isolated(f: impl FnOnce()) -> Vec<RaceReport> {
    let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    set_panic_on_race(false);
    take_reports();
    f();
    take_reports()
}

#[test]
fn lock_release_then_acquire_orders() {
    let reports = isolated(|| {
        let cell = Arc::new(CheckedCell::new(0u64));
        let lock = Arc::new(Mutex::new(()));
        let (c2, l2) = (Arc::clone(&cell), Arc::clone(&lock));
        let h = thread::spawn(move || {
            let _g = l2.lock();
            c2.set(1);
        });
        h.join().unwrap();
        // No packet was adopted across the join: the only modeled ordering
        // is the child's unlock → this lock() — which must suffice.
        let _g = lock.lock();
        cell.set(cell.get() + 1);
    });
    assert!(reports.is_empty(), "unlock→lock must order the critical sections: {reports:?}");
}

#[test]
fn signal_set_then_wait_orders() {
    let reports = isolated(|| {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime();
        let _g = net.enter();
        let cell = Arc::new(CheckedCell::new(0u64));
        let sig = rt.signal();
        let (c2, s2) = (Arc::clone(&cell), Arc::clone(&sig));
        // `SimNet::spawn` carries its own fork/adopt packet, and the
        // signal's set→wake edge orders the write before the read.
        net.spawn("writer", move || {
            c2.set(9);
            s2.set();
        });
        sig.wait(None);
        assert_eq!(cell.get(), 9);
    });
    assert!(reports.is_empty(), "signal set→wait must order write before read: {reports:?}");
}

#[test]
fn sim_spawn_carries_fork_edge() {
    let reports = isolated(|| {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime();
        let _g = net.enter();
        let cell = Arc::new(CheckedCell::new(0u64));
        cell.set(3); // written before the spawn
        let sig = rt.signal();
        let (c2, s2) = (Arc::clone(&cell), Arc::clone(&sig));
        net.spawn("reader", move || {
            // Ordered after the parent's write by the spawn packet alone.
            assert_eq!(c2.get(), 3);
            s2.set();
        });
        sig.wait(None);
    });
    assert!(reports.is_empty(), "spawn must publish the parent's prior writes: {reports:?}");
}

#[test]
fn missing_edge_is_still_reported_under_sim() {
    // Sanity for the three tests above: the sim harness does not
    // accidentally order *everything* (which would make them vacuous).
    // The racy window is the same one the `unsync-batch-write` mutant uses: a
    // spawned thread's work before its first sim operation runs
    // concurrently with the parent's work after the spawn — the spawn
    // packet was snapped before the parent's write, and the child has
    // acquired nothing newer yet.
    let reports = isolated(|| {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime();
        let _g = net.enter();
        let cell = Arc::new(CheckedCell::new(0u64));
        let sig = rt.signal();
        let (c2, s2) = (Arc::clone(&cell), Arc::clone(&sig));
        net.spawn("racer", move || {
            c2.set(1); // before any sim op: unordered with the parent's set
            s2.set();
        });
        cell.set(2); // after the spawn snapshot, before parking
        sig.wait(None);
    });
    assert_eq!(reports.len(), 1, "expected exactly the spawn-window race: {reports:?}");
    assert_eq!((reports[0].kind_a, reports[0].kind_b), ("write", "write"));
}
