//! Behavioural tests for the virtual-time network simulator: exact latency
//! arithmetic, TCP slow start, bandwidth serialization, failure injection,
//! timeouts, signals and determinism.

use netsim::{LinkSpec, Pollable, Runtime, SimNet};
use std::io::{IoSlice, Read, Write};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

fn two_hosts(delay: Duration, bandwidth: Option<u64>) -> SimNet {
    let net = SimNet::new();
    net.add_host("client");
    net.add_host("server");
    net.set_link("client", "server", LinkSpec { delay, bandwidth, ..Default::default() });
    net
}

/// One request/response exchange costs exactly 2 RTT: 1 RTT handshake,
/// 1/2 RTT request, 1/2 RTT response (no bandwidth term).
#[test]
fn ping_pong_costs_exactly_two_rtt() {
    let delay = Duration::from_millis(10);
    let net = two_hosts(delay, None);
    let listener = net.bind("server", 80).unwrap();
    net.spawn("server", move || {
        let (mut s, _) = listener.accept_sim().unwrap();
        let mut buf = [0u8; 4];
        s.read_exact(&mut buf).unwrap();
        s.write_all(b"pong").unwrap();
    });

    let _g = net.enter();
    let mut c = net.connect("client", "server", 80).unwrap();
    assert_eq!(net.now(), Duration::from_millis(20), "handshake = 1 RTT");
    c.write_all(b"ping").unwrap();
    let mut buf = [0u8; 4];
    c.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"pong");
    assert_eq!(net.now(), Duration::from_millis(40), "total = 2 RTT");
}

/// A cold connection pays slow start on a bulk transfer; reusing the same
/// connection (grown congestion window) is strictly faster. This is the
/// mechanism behind the paper's session-recycling argument (§2.2).
#[test]
fn slow_start_makes_cold_transfers_slower_than_warm() {
    let delay = Duration::from_millis(20);
    let net = two_hosts(delay, None);
    let listener = net.bind("server", 80).unwrap();
    let payload = 1_000_000usize;
    net.spawn("server", move || {
        for _ in 0..2 {
            let (mut s, _) = listener.accept_sim().unwrap();
            for _ in 0..2 {
                let mut buf = [0u8; 1];
                if s.read_exact(&mut buf).is_err() {
                    break;
                }
                s.write_all(&vec![0xABu8; payload]).unwrap();
            }
        }
    });

    let _g = net.enter();
    let read_back = |s: &mut netsim::SimStream| {
        s.write_all(b"x").unwrap();
        let mut got = vec![0u8; payload];
        s.read_exact(&mut got).unwrap();
    };

    let mut c = net.connect("client", "server", 80).unwrap();
    let t0 = net.now();
    read_back(&mut c);
    let cold = net.now() - t0;

    let t1 = net.now();
    read_back(&mut c);
    let warm = net.now() - t1;

    assert!(warm < cold, "warm transfer ({warm:?}) should beat cold transfer ({cold:?})");
    // Cold: ~RTT * log2(1 MB / 14.6 KB) ≈ 6 extra round trips.
    assert!(cold >= warm + Duration::from_millis(100), "cold={cold:?} warm={warm:?}");
}

/// Bandwidth serialization: transferring N bytes over a B byte/s link takes
/// at least N/B of virtual time.
#[test]
fn bandwidth_limits_bulk_throughput() {
    let bw = 1_000_000u64; // 1 MB/s
    let net = two_hosts(Duration::from_micros(100), Some(bw));
    let listener = net.bind("server", 80).unwrap();
    let payload = 2_000_000usize; // 2 MB → ≥ 2 s
    net.spawn("server", move || {
        let (mut s, _) = listener.accept_sim().unwrap();
        let mut buf = [0u8; 1];
        s.read_exact(&mut buf).unwrap();
        s.write_all(&vec![7u8; payload]).unwrap();
    });

    let _g = net.enter();
    let mut c = net.connect("client", "server", 80).unwrap();
    c.write_all(b"x").unwrap();
    let mut got = vec![0u8; payload];
    c.read_exact(&mut got).unwrap();
    let elapsed = net.now();
    assert!(elapsed >= Duration::from_secs(2), "{elapsed:?} < serialization time");
    assert!(elapsed < Duration::from_secs(4), "{elapsed:?} unreasonably slow");
}

/// Connecting to a port nobody listens on is refused after one RTT.
#[test]
fn connect_refused_costs_one_rtt() {
    let delay = Duration::from_millis(5);
    let net = two_hosts(delay, None);
    let _g = net.enter();
    let err = net.connect("client", "server", 81).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert_eq!(net.now(), Duration::from_millis(10));
}

/// Killing a host resets established connections and refuses new ones;
/// bringing it back restores service.
#[test]
fn host_down_resets_connections_and_refuses_new_ones() {
    let net = two_hosts(Duration::from_millis(1), None);
    let listener = net.bind("server", 80).unwrap();
    net.spawn("server", move || {
        while let Ok((mut s, _)) = listener.accept_sim() {
            let mut buf = [0u8; 1];
            if s.read_exact(&mut buf).is_ok() {
                let _ = s.write_all(b"y");
            }
        }
    });

    let _g = net.enter();
    let mut c = net.connect("client", "server", 80).unwrap();
    net.set_host_down("server", true);
    let err = c.write_all(b"x").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    let err = net.connect("client", "server", 80).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);

    net.set_host_down("server", false);
    let mut c2 = net.connect("client", "server", 80).unwrap();
    c2.write_all(b"x").unwrap();
    let mut buf = [0u8; 1];
    c2.read_exact(&mut buf).unwrap();
    assert_eq!(&buf, b"y");
}

/// Read timeouts fire in virtual time.
#[test]
fn read_timeout_fires() {
    let net = two_hosts(Duration::from_millis(1), None);
    let listener = net.bind("server", 80).unwrap();
    let net_srv = net.clone();
    net.spawn("server", move || {
        // Accept and hold the connection open without answering.
        let (_s, _) = listener.accept_sim().unwrap();
        net_srv.sleep(Duration::from_secs(10));
    });

    let _g = net.enter();
    let mut c = net.connect("client", "server", 80).unwrap();
    netsim::Stream::set_read_timeout(&mut c, Some(Duration::from_millis(50))).unwrap();
    let t0 = net.now();
    let mut buf = [0u8; 1];
    let err = c.read(&mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert_eq!(net.now() - t0, Duration::from_millis(50));
}

/// EOF: when the peer drops its stream the reader sees Ok(0) after the FIN
/// propagates.
#[test]
fn fin_propagates_as_eof() {
    let net = two_hosts(Duration::from_millis(2), None);
    let listener = net.bind("server", 80).unwrap();
    net.spawn("server", move || {
        let (mut s, _) = listener.accept_sim().unwrap();
        s.write_all(b"bye").unwrap();
        // drop → FIN
    });

    let _g = net.enter();
    let mut c = net.connect("client", "server", 80).unwrap();
    let mut all = Vec::new();
    c.read_to_end(&mut all).unwrap();
    assert_eq!(all, b"bye");
}

/// Signals let unregistered-looking waits participate in virtual time:
/// a sleeper thread sets a signal at t+100 ms; the waiter observes it and the
/// clock advanced by exactly that much.
#[test]
fn signals_are_virtual_time_aware() {
    let net = SimNet::new();
    net.add_host("h");
    let rt = net.runtime();
    let sig = rt.signal();
    let sig2 = Arc::clone(&sig);
    let rt2 = Arc::clone(&rt) as Arc<dyn Runtime>;
    net.spawn("setter", move || {
        rt2.sleep(Duration::from_millis(100));
        sig2.set();
    });
    let _g = net.enter();
    assert!(sig.wait(Some(Duration::from_secs(5))));
    assert_eq!(net.now(), Duration::from_millis(100));
}

/// Signal wait with timeout that elapses (virtual time).
#[test]
fn signal_wait_times_out_in_virtual_time() {
    let net = SimNet::new();
    net.add_host("h");
    let rt = net.runtime();
    let sig = rt.signal();
    let _g = net.enter();
    assert!(!sig.wait(Some(Duration::from_millis(30))));
    assert_eq!(net.now(), Duration::from_millis(30));
}

/// A `Duration::MAX` timeout means "until set": the deadline saturates at
/// the end of virtual time instead of wrapping to an instant already past.
#[test]
fn an_unbounded_signal_timeout_waits_for_the_set() {
    let net = SimNet::new();
    let rt = net.runtime();
    let sig = rt.signal();
    let (sig2, rt2) = (Arc::clone(&sig), Arc::clone(&rt));
    // Entered first: the setter's sleep must not run the clock on its own.
    let _g = net.enter();
    net.spawn("setter", move || {
        rt2.sleep(Duration::from_millis(5));
        sig2.set();
    });
    // Off zero, so that `now + Duration::MAX` would overflow.
    net.sleep(Duration::from_millis(1));
    assert!(sig.wait(Some(Duration::MAX)));
    assert_eq!(net.now(), Duration::from_millis(5));
}

/// `(parks, unparks, events applied, clock advances)` since `before`.
fn sched_delta(net: &SimNet, before: &netsim::SchedStats) -> (u64, u64, u64, u64) {
    let now = net.sched_stats();
    (
        now.parks - before.parks,
        now.unparks - before.unparks,
        now.events_applied - before.events_applied,
        now.clock_advances - before.clock_advances,
    )
}

/// A timed wait by the only runnable registered thread, with nothing
/// scheduled at or before its deadline, ends at exactly that deadline
/// without parking: one event applied and one clock advance, as the park
/// would have counted, and no park or unpark.
#[test]
fn a_lone_timed_wait_ends_at_its_deadline_without_a_park() {
    let net = SimNet::new();
    let sig = net.runtime().signal();
    let _g = net.enter();
    let before = net.sched_stats();
    net.sleep(Duration::from_millis(3));
    assert_eq!(net.now(), Duration::from_millis(3));
    assert_eq!(sched_delta(&net, &before), (0, 0, 1, 1));

    let before = net.sched_stats();
    assert!(!sig.wait(Some(Duration::from_millis(2))));
    assert_eq!(net.now(), Duration::from_millis(5));
    assert_eq!(sched_delta(&net, &before), (0, 0, 1, 1));
}

/// An event due exactly at a lone wait's deadline still parks, so the two
/// apply in one clock turn in their usual order; one due after it does not.
#[test]
fn an_event_due_at_the_deadline_still_parks() {
    let net = two_hosts(Duration::from_micros(500), None);
    let _g = net.enter();
    // Nobody listens on 81: the refusal arrives one RTT (1 ms) from now.
    let _refused = net.connect_start("client", "server", 81).unwrap();
    let before = net.sched_stats();
    net.sleep(Duration::from_micros(400));
    assert_eq!(sched_delta(&net, &before), (0, 0, 1, 1), "the refusal comes later");

    let before = net.sched_stats();
    net.sleep(Duration::from_micros(600));
    assert_eq!(net.now(), Duration::from_millis(1));
    // One park, one unpark, the refusal and the deadline in one advance.
    assert_eq!(sched_delta(&net, &before), (1, 1, 2, 1), "a tie must park");
}

/// A sleep beside a runnable registered thread parks: the other thread may
/// still schedule something that comes first.
#[test]
fn a_sleep_beside_a_runnable_registered_thread_parks() {
    let net = SimNet::new();
    let _g = net.enter();
    let before = net.sched_stats();
    let (net2, parks) = (net.clone(), before.parks);
    net.spawn("runnable", move || {
        // Runnable (registered since its spawn) until the sleeper parks.
        while net2.sched_stats().parks == parks {
            std::thread::yield_now();
        }
        net2.sleep(Duration::from_millis(5));
    });
    net.sleep(Duration::from_millis(1));
    assert_eq!(net.now(), Duration::from_millis(1));
    // Both parked; the second to park moved the clock and woke the first.
    assert_eq!(sched_delta(&net, &before), (2, 1, 1, 1));
}

/// Workers spawned from an entered thread all start at the spawner's
/// instant, however long it takes between spawns: every earlier worker is
/// already parked on a timer when the next one is spawned, and the clock
/// still holds for the runnable spawner.
#[test]
fn workers_spawned_from_an_entered_thread_all_start_at_its_instant() {
    let net = SimNet::new();
    let first_acts = Arc::new(Mutex::new(Vec::new()));
    let _g = net.enter();
    for w in 0..8 {
        let parks = net.sched_stats().parks;
        let (net2, first_acts) = (net.clone(), Arc::clone(&first_acts));
        net.spawn(&format!("worker-{w}"), move || {
            first_acts.lock().unwrap().push(net2.now());
            net2.sleep(Duration::from_millis(1));
        });
        // The next spawn comes only once this worker is parked on its timer.
        while net.sched_stats().parks == parks {
            std::thread::yield_now();
        }
    }
    net.sleep(Duration::from_secs(1));
    assert_eq!(*first_acts.lock().unwrap(), vec![Duration::ZERO; 8]);
    assert_eq!(net.now(), Duration::from_secs(1));
}

/// A sim-spawned daemon that outlives every `SimNet` handle still sees its
/// timers fire and winds down: the scheduler has no handle count, a parked
/// daemon moves the clock like any other thread.
#[test]
fn daemon_outliving_every_net_handle_still_sees_its_timers_fire() {
    let net = SimNet::new();
    // A signal holds the simulator's state, not a `SimNet`.
    let never_set = net.runtime().signal();
    let (go, started) = mpsc::channel::<()>();
    let (done, finished) = mpsc::channel();
    net.spawn("survivor", move || {
        started.recv().unwrap();
        let fired = (0..3).filter(|_| !never_set.wait(Some(Duration::from_secs(60)))).count();
        done.send(fired).unwrap();
    });
    drop(net);
    go.send(()).unwrap();
    assert_eq!(finished.recv_timeout(Duration::from_secs(30)), Ok(3), "timers must fire");
}

/// The same single-client scenario produces bit-identical virtual timings on
/// repeated runs.
#[test]
fn deterministic_timing_across_runs() {
    fn run() -> (Duration, u64) {
        let net = two_hosts(Duration::from_millis(7), Some(10_000_000));
        let listener = net.bind("server", 80).unwrap();
        net.spawn("server", move || {
            for _ in 0..3 {
                let (mut s, _) = listener.accept_sim().unwrap();
                let mut buf = [0u8; 2];
                if s.read_exact(&mut buf).is_err() {
                    return;
                }
                s.write_all(&vec![1u8; 100_000]).unwrap();
            }
        });
        let _g = net.enter();
        for _ in 0..3 {
            let mut c = net.connect("client", "server", 80).unwrap();
            c.write_all(b"go").unwrap();
            let mut got = vec![0u8; 100_000];
            c.read_exact(&mut got).unwrap();
        }
        (net.now(), net.stats().bytes_delivered)
    }
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Concurrent transfers share a link: two parallel 1 MB transfers over a
/// 1 MB/s link take ≈2 s (FIFO serialization), not ≈1 s.
#[test]
fn concurrent_transfers_share_bandwidth() {
    let bw = 1_000_000u64;
    let net = two_hosts(Duration::from_micros(100), Some(bw));
    let listener = net.bind("server", 80).unwrap();
    let net2 = net.clone();
    net.spawn("server-accept", move || {
        for i in 0..2 {
            let (mut s, _) = listener.accept_sim().unwrap();
            net2.spawn(&format!("server-conn-{i}"), move || {
                let mut buf = [0u8; 1];
                if s.read_exact(&mut buf).is_ok() {
                    s.write_all(&vec![0u8; 1_000_000]).unwrap();
                }
            });
        }
    });

    let net3 = net.clone();
    let done = net.runtime().signal();
    let done2 = Arc::clone(&done);
    net.spawn("client-b", move || {
        let mut c = net3.connect("client", "server", 80).unwrap();
        c.write_all(b"x").unwrap();
        let mut got = vec![0u8; 1_000_000];
        c.read_exact(&mut got).unwrap();
        done2.set();
    });

    let _g = net.enter();
    let mut c = net.connect("client", "server", 80).unwrap();
    c.write_all(b"x").unwrap();
    let mut got = vec![0u8; 1_000_000];
    c.read_exact(&mut got).unwrap();
    assert!(done.wait(Some(Duration::from_secs(60))));
    let elapsed = net.now();
    assert!(elapsed >= Duration::from_millis(1900), "{elapsed:?}: link not shared?");
}

/// A TLS-like handshake (3 RTTs) delays connection establishment by exactly
/// the extra round trips — the §2.2 cost the paper rejects SPDY over.
#[test]
fn tls_handshake_costs_extra_round_trips() {
    let delay = Duration::from_millis(10);
    let net = SimNet::new();
    net.add_host("client");
    net.add_host("server");
    net.set_link("client", "server", LinkSpec { delay, ..Default::default() }.with_tls_handshake());
    let listener = net.bind("server", 443).unwrap();
    net.spawn("server", move || {
        let _ = listener.accept_sim();
    });
    let _g = net.enter();
    let _c = net.connect("client", "server", 443).unwrap();
    assert_eq!(net.now(), Duration::from_millis(60), "3 RTTs instead of 1");
}

/// With Nagle + delayed ACK, back-to-back small writes serialize on the
/// delayed-ACK timer; with TCP_NODELAY (the default) they leave immediately.
/// This is the §2.2 pipelining pathology.
#[test]
fn nagle_with_delayed_ack_stalls_small_writes() {
    fn send_time(nagle: bool) -> Duration {
        let delay = Duration::from_millis(5);
        let base = LinkSpec { delay, ..Default::default() };
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        net.set_link("client", "server", if nagle { base.with_nagle() } else { base });
        let listener = net.bind("server", 80).unwrap();
        net.spawn("server", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            let mut sink = Vec::new();
            let _ = s.read_to_end(&mut sink);
        });
        let _g = net.enter();
        let mut c = net.connect("client", "server", 80).unwrap();
        let t0 = net.now();
        for _ in 0..4 {
            c.write_all(&[0u8; 100]).unwrap(); // 4 sub-MSS writes
        }
        net.now() - t0
    }
    let plain = send_time(false);
    let nagled = send_time(true);
    assert_eq!(plain, Duration::ZERO, "NODELAY writes must not block");
    // Each held write waits for the previous segment's delayed ACK:
    // ≥ 3 × (40 ms timer + RTT).
    assert!(
        nagled >= Duration::from_millis(3 * 50),
        "nagle+delayed-ack must stall sub-MSS writes, got {nagled:?}"
    );
}

/// Nagle never delays MSS-sized (bulk) traffic.
#[test]
fn nagle_does_not_penalize_bulk_writes() {
    fn bulk_time(nagle: bool) -> Duration {
        let delay = Duration::from_millis(5);
        let base = LinkSpec { delay, ..Default::default() };
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        net.set_link("client", "server", if nagle { base.with_nagle() } else { base });
        let listener = net.bind("server", 80).unwrap();
        let done = net.runtime().signal();
        let done2 = Arc::clone(&done);
        net.spawn("server", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            let mut sink = vec![0u8; 1 << 20];
            let mut got = 0;
            while got < 1 << 20 {
                match s.read(&mut sink[got..]) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => got += n,
                }
            }
            done2.set();
        });
        let _g = net.enter();
        let mut c = net.connect("client", "server", 80).unwrap();
        let t0 = net.now();
        c.write_all(&vec![7u8; 1 << 20]).unwrap();
        done.wait(None);
        net.now() - t0
    }
    let plain = bulk_time(false);
    let nagled = bulk_time(true);
    // The trailing partial segment may cost one delayed ACK, nothing more.
    assert!(
        nagled <= plain + Duration::from_millis(50),
        "bulk transfer must be unaffected by nagle: {plain:?} vs {nagled:?}"
    );
}

/// In the simulator one write call is one segment, so a gather write has to
/// be the segment its concatenation makes — same return values, same bytes
/// on the wire at the same instants — or splitting a response into head and
/// body would move every virtual-time result. Checked where it could go
/// wrong: a window smaller than the message (so the cut falls inside a
/// slice, or on the seam) and Nagle deciding from the size of the write.
#[test]
fn vectored_write_is_the_segment_its_concatenation_makes() {
    type Run = (Vec<(Duration, Option<usize>)>, u64, u64, Vec<(Duration, String)>, Vec<u8>);
    fn run(vectored: bool) -> Run {
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        let link = LinkSpec {
            delay: Duration::from_millis(5),
            init_cwnd: 1_000,
            max_cwnd: Some(6_000),
            ..Default::default()
        };
        net.set_link("client", "server", link.with_nagle());
        let listener = net.bind("server", 80).unwrap();
        let received = Arc::new(std::sync::Mutex::new(Vec::new()));
        let (sink, done) = (Arc::clone(&received), net.runtime().signal());
        let done2 = Arc::clone(&done);
        net.spawn("server", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            let _ = s.read_to_end(&mut sink.lock().unwrap());
            done2.set();
        });
        let _g = net.enter();
        let mut c = net.connect("client", "server", 80).unwrap();
        net.record_trace(true);
        let mut calls = Vec::new();
        // (head, body) lengths: sub-MSS in total, cut inside the body, cut
        // inside the head, an empty slice on either side.
        for (i, (head, body)) in
            [(100, 200), (700, 9_000), (2_500, 300), (64, 0), (0, 1_500)].into_iter().enumerate()
        {
            let head = vec![b'a' + i as u8; head];
            let body: Vec<u8> = (0..body).map(|b| b as u8).collect();
            let mut sent = 0;
            while sent < head.len() + body.len() {
                let h = &head[sent.min(head.len())..];
                let b = &body[sent.saturating_sub(head.len())..];
                let wrote = if vectored {
                    c.try_write_vectored(&[IoSlice::new(h), IoSlice::new(b)])
                } else {
                    c.try_write(&[h, b].concat())
                };
                match wrote {
                    Ok(n) => {
                        calls.push((net.now(), Some(n)));
                        sent += n;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        calls.push((net.now(), None));
                        net.sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("write failed: {e}"),
                }
            }
        }
        drop(c);
        done.wait(None);
        let stats = net.stats();
        let received = received.lock().unwrap().clone();
        (calls, stats.bytes_sent, stats.bytes_delivered, net.take_trace(), received)
    }
    let (gathered, contiguous) = (run(true), run(false));
    assert_eq!(gathered.4.len(), 300 + 9_700 + 2_800 + 64 + 1_500);
    assert!(gathered.0.iter().any(|(_, n)| n.is_none()), "the window never pushed back");
    let segments = gathered.0.iter().filter(|(_, n)| n.is_some()).count();
    assert!(gathered.3.len() >= segments, "every segment's delivery is in the trace");
    assert_eq!(gathered, contiguous);
}
