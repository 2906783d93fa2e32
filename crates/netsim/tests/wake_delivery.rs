//! Lost-wakeup tests: a wake marks its waiter ready under the state lock
//! and queues the waiter's park token, which is notified only once the lock
//! is released. One test per way the lock is released with a wake queued:
//!
//! * a guard dropped after a registered thread's `Signal::set`, while that
//!   thread keeps running;
//! * the unlocked section in which a clock turn runs reactor wakers (a
//!   stream's waker wakes the "shard" parked on it);
//! * the clock nudge from an `EnterGuard` drop;
//! * a clock turn that wakes another thread, then parks itself.
//!
//! A token that is queued but never notified leaves its thread parked and
//! marked ready: the net is never quiescent again, so the stall watchdog
//! cannot fire and the scenario hangs. Each scenario therefore runs on a
//! thread of its own and must finish within [`LIMIT`] of real time, far
//! inside the watchdog's 10 s.

use davix_sync::{AtomicBool, Ordering};
use netsim::{LinkSpec, Pollable, Runtime, SimNet};
use std::io::{self, Read, Write};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const LIMIT: Duration = Duration::from_secs(3);

/// Run `scenario` on its own thread and fail if it is not done within
/// [`LIMIT`].
fn within_limit(scenario: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(LIMIT) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("lost wakeup: not done after {LIMIT:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("the scenario panicked"),
    }
}

/// Spin until the net has counted `n` parks.
fn until_parks(net: &SimNet, n: u64) {
    while net.sched_stats().parks < n {
        std::thread::yield_now();
    }
}

#[test]
fn a_set_wakes_its_waiter_while_the_setter_keeps_running() {
    within_limit(|| {
        let net = SimNet::new();
        let sig = net.runtime().signal();
        let woke = Arc::new(AtomicBool::new(false));
        let _g = net.enter();
        let (sig2, woke2) = (Arc::clone(&sig), Arc::clone(&woke));
        net.spawn("waiter", move || {
            sig2.wait(None);
            woke2.store(true, Ordering::Release);
        });
        until_parks(&net, 1);
        sig.set();
        // This thread never parks or touches the net again until the waiter
        // is up: only the `set`'s own guard can have delivered its wake.
        while !woke.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
    });
}

#[test]
fn a_reactor_waker_run_by_a_clock_turn_wakes_its_shard() {
    const ROUNDS: u32 = 50;
    let delay = Duration::from_millis(1);
    within_limit(move || {
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        net.set_link("client", "server", LinkSpec { delay, ..Default::default() });
        let listener = net.bind("server", 80).unwrap();
        let rt = net.runtime();
        let _g = net.enter();
        net.spawn("shard", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            let waker = rt.signal();
            s.set_waker(Some(Arc::clone(&waker))).unwrap();
            let mut buf = [0u8; 4];
            loop {
                waker.reset();
                match s.try_read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => s.write_all(&buf[..n]).unwrap(),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        waker.wait(None);
                    }
                    Err(e) => panic!("shard read: {e}"),
                }
            }
        });
        let mut c = net.connect("client", "server", 80).unwrap();
        for _ in 0..ROUNDS {
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
        }
        // The handshake and every round trip, one RTT each.
        assert_eq!(net.now(), 2 * delay * (1 + ROUNDS));
    });
}

#[test]
fn leaving_the_net_hands_the_clock_to_a_parked_sleeper() {
    within_limit(|| {
        let net = SimNet::new();
        let g = net.enter();
        let (tx, rx) = mpsc::channel();
        let net2 = net.clone();
        net.spawn("sleeper", move || {
            net2.sleep(Duration::from_millis(10));
            tx.send(net2.now()).unwrap();
        });
        // This thread is registered and runnable, so the sleeper parks.
        until_parks(&net, 1);
        // Leaving makes the net quiescent: the nudge must reach the sleeper,
        // which then moves the clock itself.
        drop(g);
        assert_eq!(rx.recv().unwrap(), Duration::from_millis(10));
    });
}

#[test]
fn a_clock_turn_wakes_the_other_sleeper_before_it_parks() {
    within_limit(|| {
        let net = SimNet::new();
        let g = net.enter();
        let (tx, rx) = mpsc::channel();
        // Deadlines interleave, so most turns are taken by the thread that
        // stays asleep and must deliver the other's wake before parking.
        for (name, ms, n) in [("a", 2, 60), ("b", 3, 40)] {
            let (net2, tx) = (net.clone(), tx.clone());
            net.spawn(name, move || {
                for _ in 0..n {
                    net2.sleep(Duration::from_millis(ms));
                }
                tx.send(net2.now()).unwrap();
            });
        }
        drop(g);
        for _ in 0..2 {
            assert_eq!(rx.recv().unwrap(), Duration::from_millis(120));
        }
    });
}
