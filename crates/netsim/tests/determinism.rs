//! Determinism pin for the cooperative scheduler: the same seeded
//! multi-client scenario must produce an *identical* virtual-time event
//! trace run after run. This is the prerequisite for a future
//! buggify-style fault-injection harness — reproducibility is only useful
//! if the baseline schedule is bit-stable.
//!
//! The scenario is built to be schedule-deterministic by construction:
//! every actor (the accept loop, each server-side echo connection, each
//! client) is an event-driven task on ONE single-threaded reactor, and the
//! test's main thread stays registered (entered) for the whole run — so
//! the only runnable thread at any instant is the reactor shard, drives
//! happen in token order, and the virtual clock advances at deterministic
//! points. Two OS threads total, ten thousand possible interleavings ruled
//! out by design rather than by luck.

use netsim::simclient::{ClientSession, Fleet, SessionPoll};
use netsim::transport::Listener as _;
use netsim::{
    BoxedStream, DriveOutcome, Driven, FaultPlan, LinkSpec, Reactor, ReactorConfig, Runtime,
    Signal, SimListener, SimNet,
};
use rand::{Rng, SeedableRng};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Event-driven accept loop: new backlog entries become [`EchoConn`] tasks
/// on the same reactor.
struct Acceptor {
    listener: Arc<SimListener>,
    reactor: Arc<Reactor>,
}

impl Driven for Acceptor {
    fn drive(&mut self, _now: Duration) -> DriveOutcome {
        loop {
            match self.listener.try_accept_sim() {
                Ok(Some((stream, _peer))) => {
                    self.reactor.submit(Box::new(EchoConn {
                        stream: Box::new(stream),
                        pending: Vec::new(),
                    }));
                }
                Ok(None) => return DriveOutcome::Continue,
                Err(_) => return DriveOutcome::Done, // listener closed
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        None
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        self.listener.set_accept_waker(waker);
    }

    fn poll_fd(&self) -> Option<i32> {
        None
    }

    fn wants_write(&self) -> bool {
        false
    }

    fn begin_shutdown(&mut self) {
        self.listener.close(); // next drive sees the error and retires
    }
}

/// Server side of one connection: echo until EOF.
struct EchoConn {
    stream: BoxedStream,
    pending: Vec<u8>,
}

impl Driven for EchoConn {
    fn drive(&mut self, _now: Duration) -> DriveOutcome {
        loop {
            if !self.pending.is_empty() {
                match self.stream.try_write(&self.pending) {
                    Ok(n) => {
                        self.pending.drain(..n);
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return DriveOutcome::Continue
                    }
                    Err(_) => return DriveOutcome::Done,
                }
            }
            let mut buf = [0u8; 2048];
            match self.stream.try_read(&mut buf) {
                Ok(0) => return DriveOutcome::Done, // EOF: drop sends our FIN
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return DriveOutcome::Continue,
                Err(_) => return DriveOutcome::Done,
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        None
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        let _ = self.stream.set_waker(waker);
    }

    fn poll_fd(&self) -> Option<i32> {
        None
    }

    fn wants_write(&self) -> bool {
        !self.pending.is_empty()
    }

    fn begin_shutdown(&mut self) {}
}

/// One seeded client: a plan of (payload size, think time) rounds; each
/// round writes the payload, reads the echo back, thinks, repeats.
struct EchoClient {
    plan: Vec<(usize, Duration)>,
    round: usize,
    sent: usize,
    got: usize,
}

impl ClientSession for EchoClient {
    fn poll(&mut self, io: &mut BoxedStream, now: Duration) -> io::Result<SessionPoll> {
        loop {
            let Some(&(payload, think)) = self.plan.get(self.round) else {
                return Ok(SessionPoll::Done);
            };
            if self.sent < payload {
                let chunk = vec![(self.round & 0xff) as u8; payload - self.sent];
                match io.try_write(&chunk) {
                    Ok(n) => {
                        self.sent += n;
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(SessionPoll::Pending)
                    }
                    Err(e) => return Err(e),
                }
            }
            if self.got < payload {
                let mut buf = [0u8; 2048];
                match io.try_read(&mut buf) {
                    Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "early EOF")),
                    Ok(n) => {
                        self.got += n;
                        continue;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(SessionPoll::Pending)
                    }
                    Err(e) => return Err(e),
                }
            }
            self.round += 1;
            self.sent = 0;
            self.got = 0;
            if self.round < self.plan.len() {
                return Ok(SessionPoll::Sleep(now + think));
            }
        }
    }

    fn wants_write(&self) -> bool {
        self.plan.get(self.round).map(|&(p, _)| self.sent < p).unwrap_or(false)
    }
}

/// Run the seeded scenario once and return its virtual-time event trace.
fn run_scenario(seed: u64, clients: usize) -> Vec<(Duration, String)> {
    run_scenario_with_plan(seed, clients, None)
}

/// Same scenario, optionally under a seeded [`FaultPlan`]. The plan's
/// partition windows target two *idle* hosts so the workload still
/// completes cleanly while FaultDown/FaultHeal events land in the trace;
/// delivery jitter applies to the live traffic.
fn run_scenario_with_plan(
    seed: u64,
    clients: usize,
    plan: Option<FaultPlan>,
) -> Vec<(Duration, String)> {
    let net = SimNet::new();
    net.add_host("server");
    for i in 0..4 {
        net.add_host(&format!("c{i}"));
    }
    net.add_host("spare0");
    net.add_host("spare1");
    net.set_default_link(LinkSpec::lan());
    net.record_trace(true);

    let rt: Arc<dyn Runtime> = net.runtime();
    // ONE shard: all tasks serialize through a single driving thread.
    let reactor =
        Arc::new(Reactor::new(Arc::clone(&rt), ReactorConfig { threads: 1, name: "det".into() }));
    let listener = Arc::new(net.bind("server", 80).unwrap());
    reactor.submit(Box::new(Acceptor {
        listener: Arc::clone(&listener),
        reactor: Arc::clone(&reactor),
    }));

    // Stay registered for the whole run so the virtual clock can only
    // advance when the reactor shard parks — launch-order races with the
    // clock are impossible.
    let guard = net.enter();
    // Installed from the entered (registered, runnable) thread: the clock
    // cannot advance through the pre-scheduled fault windows before the
    // workload's own timers are in the heap.
    if let Some(plan) = plan {
        net.install_fault_plan(plan, seed, &["spare0", "spare1"]);
    }
    let t0 = net.now();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let fleet = Fleet::new(&rt);
    for i in 0..clients {
        let rounds = 1 + rng.gen_range(0..3) as usize;
        let plan: Vec<(usize, Duration)> = (0..rounds)
            .map(|_| {
                let payload = 1 + rng.gen_range(0..2048) as usize;
                let think = Duration::from_micros(rng.gen_range(0..5_000));
                (payload, think)
            })
            .collect();
        let start_at = t0 + Duration::from_micros(rng.gen_range(0..20_000));
        let net2 = net.clone();
        let host = format!("c{}", i % 4);
        fleet.launch(
            &reactor,
            start_at,
            Box::new(move || {
                net2.connect_start(&host, "server", 80).map(|s| Box::new(s) as BoxedStream)
            }),
            Box::new(EchoClient { plan, round: 0, sent: 0, got: 0 }),
        );
    }
    let failures = fleet.wait();
    assert_eq!(failures, 0, "seeded scenario must complete cleanly");
    // Deterministic cutoff: let every tail event (final ACKs/FINs) apply
    // before reading the trace.
    net.sleep(Duration::from_secs(1));
    let trace = net.take_trace();
    drop(guard);
    listener.close();
    reactor.shutdown();
    trace
}

#[test]
fn same_seed_same_trace() {
    let a = run_scenario(0xDA71C5, 40);
    let b = run_scenario(0xDA71C5, 40);
    assert!(!a.is_empty(), "scenario produced no events");
    assert_eq!(a.len(), b.len(), "trace lengths differ between identical runs");
    for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ea, eb, "trace diverges at event {i}");
    }
}

#[test]
fn different_seed_different_trace() {
    let a = run_scenario(1, 12);
    let b = run_scenario(2, 12);
    assert_ne!(a, b, "different seeds should produce different schedules");
}

/// A fault plan whose injected events are guaranteed to show up: heavy
/// delivery jitter on the live traffic plus partition/heal windows (placed
/// on the idle spare hosts by `run_scenario_with_plan`).
fn test_plan() -> FaultPlan {
    FaultPlan {
        delay_prob: 0.2,
        delay_max: Duration::from_millis(2),
        partitions: 4,
        outage_min: Duration::from_millis(20),
        outage_max: Duration::from_millis(120),
        horizon: Duration::from_millis(400),
        max_down: 1,
        ..FaultPlan::default()
    }
}

#[test]
fn same_seed_same_fault_plan_same_trace() {
    let a = run_scenario_with_plan(0xB0661F, 24, Some(test_plan()));
    let b = run_scenario_with_plan(0xB0661F, 24, Some(test_plan()));
    assert!(
        a.iter().any(|(_, l)| l.starts_with("fault ")),
        "plan injected no fault events into the trace"
    );
    assert_eq!(a.len(), b.len(), "trace lengths differ between identical faulted runs");
    for (i, (ea, eb)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(ea, eb, "faulted trace diverges at event {i}");
    }
}

#[test]
fn different_seed_different_fault_schedule() {
    let a = run_scenario_with_plan(3, 12, Some(test_plan()));
    let b = run_scenario_with_plan(4, 12, Some(test_plan()));
    let faults = |t: &[(Duration, String)]| {
        t.iter().filter(|(_, l)| l.starts_with("fault ")).cloned().collect::<Vec<_>>()
    };
    assert_ne!(faults(&a), faults(&b), "different seeds should draw different fault schedules");
}
