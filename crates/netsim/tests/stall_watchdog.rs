//! The stall watchdog must keep catching real deadlocks now that
//! sim-spawned daemon threads idling in `accept`/`Signal` waits are
//! tolerated as quiescence (servers routinely outlive the scenario that
//! spawned them).
//!
//! Each test here costs one `STALL_TIMEOUT` (10 s) of real time — the price
//! of exercising the watchdog at all — so they stay few and sharp:
//!
//! * a *foreground* thread (test/bench main that entered the net) stuck in
//!   `accept` must still abort with the stall dump;
//! * same for a foreground thread stuck on a never-set [`Signal`], and the
//!   dump must name the waiters so the census is actually useful;
//! * daemons parked in `accept` and reactor shards parked on their wakers
//!   must *not* trip the watchdog, and the net must still work afterwards.
//!
//! [`Signal`]: netsim::Signal

use netsim::{LinkSpec, Reactor, ReactorConfig, Runtime as _, SimNet};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

#[test]
#[should_panic(expected = "simulation stalled")]
fn foreground_accept_with_no_client_still_panics() {
    let net = SimNet::new();
    net.add_host("a");
    net.add_host("b");
    net.set_link("a", "b", LinkSpec::lan());
    let listener = net.bind("b", 9).unwrap();
    let _g = net.enter();
    // No client will ever connect: this thread is not a sim-spawned
    // daemon, so the all-accepts quiescence carve-out must not apply.
    let _ = listener.accept_sim();
}

#[test]
fn foreground_signal_wait_panics_with_census_dump() {
    let net = SimNet::new();
    net.add_host("a");
    let rt = net.runtime();
    let sig = rt.signal();
    let guard = net.enter();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        sig.wait(None); // nobody will ever set it
    }))
    .expect_err("the stall watchdog should have fired");
    drop(guard);
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("simulation stalled"), "unexpected panic: {msg}");
    // The census dump must name what everyone was blocked on.
    assert!(msg.contains("Signal"), "dump does not show the blocked waiter:\n{msg}");
    assert!(msg.contains("registered="), "dump does not show the census:\n{msg}");
    // With the lock-order detector compiled in, the dump also reports what
    // every thread was still holding when the sim stalled (nothing, here —
    // the foreground thread released the sim state lock before parking).
    #[cfg(feature = "deadlock-detect")]
    assert!(msg.contains("held-lock census"), "dump does not show the lock census:\n{msg}");
}

#[test]
fn idle_daemons_in_accept_and_reactor_park_are_quiescence() {
    let net = SimNet::new();
    net.add_host("a");
    net.add_host("b");
    net.set_link("a", "b", LinkSpec::lan());

    // A sim-spawned server daemon parked in accept forever...
    let listener = Arc::new(net.bind("b", 80).unwrap());
    let l2 = Arc::clone(&listener);
    net.spawn("echo-daemon", move || {
        while let Ok((mut s, _)) = l2.accept_sim() {
            let mut buf = [0u8; 16];
            if let Ok(n) = s.read(&mut buf) {
                let _ = s.write_all(&buf[..n]);
            }
        }
    });
    // ...plus reactor shards parked on their wakers with no tasks.
    let rt: Arc<dyn netsim::Runtime> = net.runtime();
    let reactor =
        Reactor::new(Arc::clone(&rt), ReactorConfig { threads: 2, name: "idle-park".into() });

    // Let the watchdog window pass in *real* time with every registered
    // thread being an idle daemon. A misfiring watchdog would poison the
    // net and the roundtrip below would panic.
    std::thread::sleep(Duration::from_secs(11));

    let _g = net.enter();
    let mut c = net.connect("a", "b", 80).unwrap();
    c.write_all(b"ping").unwrap();
    let mut buf = [0u8; 4];
    c.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"ping", "net unusable after idle-daemon quiescence window");
    reactor.shutdown();
}
