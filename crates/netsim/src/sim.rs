//! The discrete-event virtual-time network simulator.
//!
//! ## Model
//!
//! * **Hosts** are named endpoints; **links** between host pairs have a
//!   one-way `delay` and an optional `bandwidth` (bytes/s). Each direction of
//!   a link is a FIFO: transmissions serialize behind each other
//!   (`busy_until`), which models contention between connections sharing a
//!   path.
//! * **Connections** follow a TCP cost model: establishment costs one RTT
//!   (SYN out, SYN-ACK back); each direction has a congestion window that
//!   starts at `init_cwnd` bytes and grows by one byte per acknowledged byte
//!   (classic slow start, i.e. doubling per RTT) up to `max_cwnd`; senders
//!   block when the window is full and resume when ACKs (scheduled one RTT
//!   after each segment) return. A *reused* connection keeps its grown
//!   window — this is precisely the effect the paper's session recycling
//!   exploits (§2.2).
//! * **Virtual time** advances only when every *registered* thread is blocked
//!   on a simulator primitive. Registered threads are those spawned via
//!   [`SimNet::spawn`] or covered by an [`SimNet::enter`] guard.
//!
//! ## Scheduler
//!
//! A net owns no thread of its own; the threads that block on it move its
//! clock:
//!
//! * **Parking protocol.** A thread blocking on a sim primitive inserts a
//!   waiter record keyed by *what* it waits on into an exact-match index and
//!   parks on its *own* condvar token. Wakes address exactly the waiters for one
//!   key — there is no broadcast and no scan over the census, so total wake
//!   cost is O(wakeups), not O(threads × wakeups).
//! * **Quiescence rule.** The clock advances to the earliest scheduled event
//!   only when no readiness wake is in flight, every registered thread is
//!   parked (`reg_waiting == registered`) and at least one waiter exists.
//! * **Clock ownership.** Whoever parks last advances virtual time: a
//!   parked thread that is not yet ready and finds the net quiescent applies
//!   the next batch of events itself (`clock_step`, the only place the clock
//!   moves) before it sleeps on its token. An action that can make the net
//!   quiescent without parking — a deregistration, a finished wake delivery,
//!   an unregistered thread scheduling events — nudges one parked waiter to
//!   take that turn. There is no handle count and no shutdown: sim-spawned
//!   daemons that outlive every [`SimNet`] handle keep driving their own
//!   timers and wind down cleanly.
//! * **Lone timed waits.** A registered thread about to wait with a
//!   deadline, while every other registered thread is parked, no wake is
//!   queued or in flight and the earliest scheduled event is strictly later
//!   than its deadline (or nothing is scheduled), moves the clock to its
//!   deadline itself and returns timed out: the clock turn it would take
//!   after parking would apply its own deadline event alone. It creates no
//!   waiter and does not park; it counts the event and the clock advance
//!   the turn would have. A tie with another event parks, so same-instant
//!   order never changes.
//! * **Stall watchdog.** When the net is quiescent with nothing scheduled
//!   and nothing changes for 10 s of real time, the waiter holding the clock
//!   poisons the net and every parked thread panics with a census dump —
//!   unless all waiters are sim-spawned daemons idle in `accept`/`Signal`
//!   waits, which is ordinary quiescence (servers outliving their scenario).
//!
//! ## What is deliberately not modelled
//!
//! Packet loss, retransmission, receiver flow control and
//! congestion-avoidance (linear) growth. The paper's observed effects —
//! round-trip cost of chatty protocols, slow-start cost of fresh
//! connections, bandwidth-delay-product ceilings — do not depend on them.

use crate::fault::{self, FaultPlan, FaultState, FaultStats, SplitRng};
use crate::slab::Slab;
use crate::transport::{BoxedStream, Connector, Listener, Pollable, Runtime, Signal, Stream};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::{Cell, RefCell};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// How long a blocked simulation may sit with no schedulable event before we
/// declare it stalled and panic with a diagnostic dump (real time).
const STALL_TIMEOUT: Duration = Duration::from_secs(10);

thread_local! {
    /// Which simulator (by core address) the current thread is registered
    /// with; 0 = none. A thread is registered with at most one net at a
    /// time — entering a second net supersedes the first until the guard
    /// drops (the superseded net simply sees the thread as foreign).
    static IN_SIM: Cell<usize> = const { Cell::new(0) };

    /// Which simulator (by core address) spawned the current thread via
    /// [`SimNet::spawn`] (a sim-owned "daemon": server loops, workers);
    /// 0 = a foreground test/bench thread. The stall watchdog tolerates a
    /// core's own daemons idling in `accept` forever; a foreground thread
    /// stuck there — or another net's daemon — is still a reportable
    /// deadlock.
    static SIM_DAEMON: Cell<usize> = const { Cell::new(0) };

    /// This thread's park token for the net it last blocked on, keyed by
    /// core address. One condvar per (thread, net) pair: a thread parks on
    /// at most one primitive at a time, so the token is reusable across
    /// waits, and re-keying on a different net allocates a fresh condvar so
    /// a token is only ever paired with a single state mutex.
    static PARK_TOKEN: RefCell<Option<(usize, Arc<Condvar>)>> = const { RefCell::new(None) };
}

fn park_token(core_id: usize) -> Arc<Condvar> {
    PARK_TOKEN.with(|t| {
        let mut t = t.borrow_mut();
        match &*t {
            Some((id, cv)) if *id == core_id => Arc::clone(cv),
            _ => {
                let cv = Arc::new(Condvar::new());
                *t = Some((core_id, Arc::clone(&cv)));
                cv
            }
        }
    })
}

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Characteristics of the path between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub delay: Duration,
    /// Capacity in bytes per second per direction; `None` = unlimited.
    pub bandwidth: Option<u64>,
    /// Initial congestion window in bytes (IW10 ≈ 14 600 by default).
    pub init_cwnd: u64,
    /// Congestion window ceiling; `None` derives ~2× the bandwidth-delay
    /// product (clamped to [64 KiB, 16 MiB]), or 4 MiB on unlimited links.
    pub max_cwnd: Option<u64>,
    /// Round trips a connection setup costs. `1` is plain TCP (SYN /
    /// SYN-ACK); `3` approximates TCP + a TLS 1.2 handshake — the setup
    /// latency the paper's §2.2 cites for rejecting SPDY's mandatory TLS.
    pub handshake_rtts: u32,
    /// Nagle's algorithm: a write smaller than one MSS is held back while
    /// any previously sent data is unacknowledged. Off by default (modern
    /// clients set `TCP_NODELAY`); turn on together with [`delayed_ack`] to
    /// reproduce the §2.2 "side effects with the TCP's nagle algorithm"
    /// that plague HTTP pipelining.
    ///
    /// [`delayed_ack`]: LinkSpec::delayed_ack
    pub nagle: bool,
    /// Delayed-ACK timer: the ACK of a segment smaller than one MSS is
    /// held this long (classically ~40 ms). `None` = immediate ACKs.
    pub delayed_ack: Option<Duration>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            delay: Duration::from_micros(500),
            bandwidth: None,
            init_cwnd: 14_600,
            max_cwnd: None,
            handshake_rtts: 1,
            nagle: false,
            delayed_ack: None,
        }
    }
}

impl LinkSpec {
    /// Gigabit LAN, ≈2.5 ms RTT: the paper's "CERN ↔ CERN" case (latency < 5 ms).
    pub fn lan() -> Self {
        LinkSpec {
            delay: Duration::from_micros(1250),
            bandwidth: Some(125_000_000),
            ..Default::default()
        }
    }

    /// Pan-European path (GEANT), ≈25 ms RTT: "UK(GLAS) ↔ CERN" (latency < 50 ms).
    pub fn pan_european() -> Self {
        LinkSpec {
            delay: Duration::from_micros(12_500),
            bandwidth: Some(125_000_000),
            ..Default::default()
        }
    }

    /// Transatlantic path, ≈150 ms RTT: "USA(BNL) ↔ CERN" (latency < 300 ms).
    pub fn wan() -> Self {
        LinkSpec {
            delay: Duration::from_micros(75_000),
            bandwidth: Some(125_000_000),
            ..Default::default()
        }
    }

    /// Same-host loopback.
    fn loopback() -> Self {
        LinkSpec { delay: Duration::from_micros(10), bandwidth: None, ..Default::default() }
    }

    fn resolve_max_cwnd(&self) -> u64 {
        match self.max_cwnd {
            Some(m) => m.max(self.init_cwnd),
            None => match self.bandwidth {
                Some(bw) => {
                    let rtt_ns = 2 * dur_ns(self.delay) as u128;
                    let bdp = (bw as u128 * rtt_ns / 1_000_000_000) as u64;
                    (2 * bdp).clamp(64 * 1024, 16 * 1024 * 1024).max(self.init_cwnd)
                }
                None => 4 * 1024 * 1024,
            },
        }
    }

    fn tx_ns(&self, bytes: u64) -> u64 {
        match self.bandwidth {
            Some(bw) if bw > 0 => (bytes as u128 * 1_000_000_000 / bw as u128) as u64,
            _ => 0,
        }
    }

    /// This link with a TLS-1.2-like setup cost (3 round trips total).
    pub fn with_tls_handshake(self) -> Self {
        LinkSpec { handshake_rtts: 3, ..self }
    }

    /// This link with Nagle + a 40 ms delayed-ACK timer (the classic
    /// pathological pairing for pipelined small writes).
    pub fn with_nagle(self) -> Self {
        LinkSpec { nagle: true, delayed_ack: Some(Duration::from_millis(40)), ..self }
    }
}

/// TCP maximum segment size used by the Nagle / delayed-ACK models.
const MSS: u64 = 1460;

/// Aggregate counters maintained by the simulator.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Connections successfully initiated (`connect` calls that got a SYN out).
    pub conns_created: u64,
    /// Payload bytes handed to the network by senders.
    pub bytes_sent: u64,
    /// Payload bytes delivered to receive buffers.
    pub bytes_delivered: u64,
    /// Connections initiated towards each destination host.
    pub conns_per_host: HashMap<String, u64>,
}

/// Scheduler introspection counters (see [`SimNet::sched_stats`]).
#[derive(Debug, Clone, Default)]
pub struct SchedStats {
    /// Threads currently registered with the virtual clock.
    pub registered: usize,
    /// High-water mark of `registered`.
    pub peak_registered: usize,
    /// Registered threads currently runnable (not parked).
    pub runnable: usize,
    /// High-water mark of the runnable set.
    pub peak_runnable: usize,
    /// Total times a thread parked on a sim primitive.
    pub parks: u64,
    /// Total targeted wakeups delivered to parked threads.
    pub unparks: u64,
    /// Virtual-clock advances (one per batch of same-instant events).
    pub clock_advances: u64,
    /// Simulation events applied.
    pub events_applied: u64,
}

// ---------------------------------------------------------------------------
// internal state
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum EventKind {
    /// Payload arrives at the receive buffer of `conn` direction `dir`.
    Deliver { conn: usize, dir: usize, data: Vec<u8> },
    /// ACK returns to the sender of `conn` direction `dir`.
    Ack { conn: usize, dir: usize, bytes: u64 },
    /// SYN reaches the server: enqueue on the listener backlog.
    SynArrive { conn: usize, host: u32, port: u16 },
    /// Handshake completes at the client.
    Established { conn: usize },
    /// RST comes back to the client (closed port / downed host).
    Refuse { conn: usize },
    /// FIN arrives at the receiver of direction `dir`.
    Fin { conn: usize, dir: usize },
    /// Fault plan: a scheduled outage window begins on `host`.
    FaultDown { host: u32 },
    /// Fault plan: the outage window on `host` ends.
    FaultHeal { host: u32 },
    /// Fault plan: a dropped segment surfaces as a reset of `conn` at the
    /// instant the segment would have arrived.
    FaultReset { conn: usize },
    /// A sleep or timeout deadline fires.
    WakeWaiter { wid: usize, gen: u64 },
}

struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed so that BinaryHeap (a max-heap) pops the earliest event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WaitKind {
    Readable { conn: usize, dir: usize },
    Window { conn: usize, dir: usize },
    Accept { host: u32, port: u16 },
    ConnectDone { conn: usize },
    Sleep,
    Signal { sig: usize },
}

struct Waiter {
    kind: WaitKind,
    gen: u64,
    ready: bool,
    timed_out: bool,
    registered: bool,
    /// Thread created by [`SimNet::spawn`] (vs a foreground entered thread).
    daemon: bool,
    /// The parked thread's handle, for the stall dump (a refcount, so a
    /// park copies no name).
    thread: std::thread::Thread,
    /// The parked thread's own wake token (no shared broadcast condvar).
    cv: Arc<Condvar>,
}

#[derive(PartialEq, Eq)]
enum WaitOutcome {
    Ready,
    TimedOut,
}

/// Per-direction connection state. Direction `d` carries bytes written by
/// endpoint `d` (0 = the connecting client, 1 = the accepting server).
struct DirState {
    cwnd: u64,
    inflight: u64,
    max_cwnd: u64,
    delay_ns: u64,
    spec: LinkSpec,
    rbuf: VecDeque<Vec<u8>>,
    rbuf_front_off: usize,
    rbuf_len: usize,
    fin: bool,
    fin_sent: bool,
    /// Happens-before clock for message delivery on this direction: the
    /// delivering thread releases when payload lands in `rbuf`, the reader
    /// acquires when it drains — so "data I wrote before send is visible
    /// after recv" is a modeled edge, not just a state-lock side effect.
    race: davix_sync::race::SyncObj,
}

impl DirState {
    fn new(spec: LinkSpec) -> Self {
        DirState {
            cwnd: spec.init_cwnd,
            inflight: 0,
            max_cwnd: spec.resolve_max_cwnd(),
            delay_ns: dur_ns(spec.delay),
            spec,
            rbuf: VecDeque::new(),
            rbuf_front_off: 0,
            rbuf_len: 0,
            fin: false,
            fin_sent: false,
            race: davix_sync::race::SyncObj::new(),
        }
    }
}

struct Conn {
    hosts: [u32; 2],
    established: bool,
    refused: bool,
    reset: bool,
    open_handles: [u32; 2],
    dirs: [DirState; 2],
}

struct HostState {
    name: String,
    down: bool,
}

struct ListenerState {
    open: bool,
    backlog: VecDeque<usize>,
}

struct SignalState {
    set: bool,
    /// Happens-before clock for this signal: `set` releases, an observed
    /// wake (or `is_set() == true`) acquires.
    race: davix_sync::race::SyncObj,
}

struct State {
    now_ns: u64,
    seq: u64,
    change_tick: u64,
    events: BinaryHeap<Event>,
    hosts: Vec<HostState>,
    host_by_name: HashMap<String, u32>,
    links: HashMap<(u32, u32), LinkSpec>,
    default_link: LinkSpec,
    link_busy: HashMap<(u32, u32), u64>,
    listeners: HashMap<(u32, u16), ListenerState>,
    conns: Slab<Conn>,
    waiters: Slab<Waiter>,
    /// Exact-key index over parked waiters: wakes address precisely the
    /// waiters for one key instead of scanning the whole census.
    wait_index: HashMap<WaitKind, Vec<usize>>,
    waiter_gen: u64,
    signals: Slab<SignalState>,
    registered: usize,
    reg_waiting: usize,
    stats: NetStats,
    /// Whether the all-accepts quiescence note was already printed.
    idle_noted: bool,
    /// Reactor wakers registered per (connection, endpoint side) via
    /// [`Pollable::set_waker`]. Fired whenever that side may have become
    /// readable (payload/FIN arrived) or writable (ACK opened the window,
    /// the handshake finished).
    io_wakers: HashMap<(usize, usize), Arc<dyn Signal>>,
    /// Reactor wakers fired when a listener's backlog grows (or the
    /// listener closes), registered via [`SimListener::set_accept_waker`].
    accept_wakers: HashMap<(u32, u16), Arc<dyn Signal>>,
    /// Wakers queued while the state lock is held; fired after release
    /// (a waker's `set()` may re-enter the simulator, e.g. a `SimSignal`).
    pending_wakes: Vec<Arc<dyn Signal>>,
    /// Wakers taken out of `pending_wakes` whose `set()` has not finished
    /// yet. While any are outstanding the virtual clock must not advance:
    /// the wake exists only in the delivering thread's stack, so the
    /// blocked-thread census cannot see it, and advancing would fire
    /// timeouts the wake was supposed to pre-empt (e.g. a reactor shard's
    /// idle timer racing the readiness wake for a request that already
    /// arrived).
    wakes_in_flight: usize,
    /// Set by the stall watchdog: the net is poisoned and every thread that
    /// parks (or is parked) panics with `stall_dump`.
    stalled: bool,
    stall_dump: String,
    /// Virtual-time event trace, recorded while `Some` (see
    /// [`SimNet::record_trace`]).
    trace: Option<Vec<(u64, String)>>,
    /// Installed seeded fault plan (see [`SimNet::install_fault_plan`]);
    /// `None` means every fault hook is a no-op.
    fault: Option<FaultState>,
    // scheduler introspection counters
    sched_parks: u64,
    sched_unparks: u64,
    peak_registered: usize,
    peak_runnable: usize,
    clock_advances: u64,
    events_applied: u64,
}

impl State {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn schedule(&mut self, at: u64, kind: EventKind) {
        let seq = self.next_seq();
        self.events.push(Event { at: at.max(self.now_ns), seq, kind });
        self.change_tick += 1;
    }

    fn link_spec(&self, a: u32, b: u32) -> LinkSpec {
        if a == b {
            return self.links.get(&(a, b)).copied().unwrap_or_else(LinkSpec::loopback);
        }
        self.links.get(&(a, b)).copied().unwrap_or(self.default_link)
    }

    /// Advance only when no wake is in flight, every registered thread is
    /// parked and someone is actually waiting on the outcome.
    fn quiescent(&self) -> bool {
        self.wakes_in_flight == 0 && self.reg_waiting == self.registered && self.waiters.len() > 0
    }

    /// The instant `d` after now, saturating at the end of virtual time: a
    /// `Duration::MAX` timeout means "never", not an overflow.
    fn deadline_after(&self, d: Duration) -> u64 {
        self.now_ns.saturating_add(dur_ns(d))
    }

    /// Whether a registered thread that parked now until `deadline` would
    /// make the net quiescent and its clock turn would apply its own
    /// deadline event alone: every other registered thread is parked, no
    /// wake is queued or in flight, and nothing is scheduled at or before
    /// `deadline`.
    fn lone_until(&self, deadline: u64) -> bool {
        self.reg_waiting + 1 == self.registered
            && self.wakes_in_flight == 0
            && self.pending_wakes.is_empty()
            && self.events.peek().is_none_or(|e| e.at > deadline)
    }

    fn all_idle_daemons(&self) -> bool {
        self.waiters.iter().all(|(_, w)| {
            w.daemon && matches!(w.kind, WaitKind::Accept { .. } | WaitKind::Signal { .. })
        })
    }

    fn note_runnable(&mut self) {
        let runnable = self.registered.saturating_sub(self.reg_waiting);
        if runnable > self.peak_runnable {
            self.peak_runnable = runnable;
        }
    }

    fn register_thread(&mut self) {
        self.registered += 1;
        if self.registered > self.peak_registered {
            self.peak_registered = self.registered;
        }
        self.change_tick += 1;
        self.note_runnable();
    }

    /// Mark one waiter ready and wake its token. No-op when already ready.
    fn mark_ready(&mut self, wid: usize, timed_out: bool) {
        let registered = match self.waiters.get_mut(wid) {
            Some(w) if !w.ready => {
                w.ready = true;
                w.timed_out = timed_out;
                w.cv.notify_one();
                w.registered
            }
            _ => return,
        };
        if registered {
            self.reg_waiting -= 1;
        }
        self.sched_unparks += 1;
        self.change_tick += 1;
        self.note_runnable();
    }

    /// Wake every waiter parked on exactly `kind`; returns how many woke.
    fn wake_kind(&mut self, kind: WaitKind) -> usize {
        let wids = match self.wait_index.remove(&kind) {
            Some(v) => v,
            None => return 0,
        };
        let n = wids.len();
        for wid in wids {
            self.mark_ready(wid, false);
        }
        n
    }

    fn unindex(&mut self, kind: WaitKind, wid: usize) {
        if let Some(v) = self.wait_index.get_mut(&kind) {
            if let Some(p) = v.iter().position(|&x| x == wid) {
                v.swap_remove(p);
            }
            if v.is_empty() {
                self.wait_index.remove(&kind);
            }
        }
    }

    /// Queue the reactor waker (if any) for endpoint `side` of `conn`; the
    /// caller fires it once the state lock is released.
    fn queue_io_wake(&mut self, conn: usize, side: usize) {
        if let Some(w) = self.io_wakers.get(&(conn, side)) {
            self.pending_wakes.push(Arc::clone(w));
        }
    }

    fn queue_accept_wake(&mut self, host: u32, port: u16) {
        if let Some(w) = self.accept_wakers.get(&(host, port)) {
            self.pending_wakes.push(Arc::clone(w));
        }
    }

    fn reset_conn(&mut self, cid: usize) {
        if let Some(c) = self.conns.get_mut(cid) {
            if !c.reset {
                c.reset = true;
                self.wake_kind(WaitKind::ConnectDone { conn: cid });
                for dir in 0..2 {
                    self.wake_kind(WaitKind::Readable { conn: cid, dir });
                    self.wake_kind(WaitKind::Window { conn: cid, dir });
                }
                self.queue_io_wake(cid, 0);
                self.queue_io_wake(cid, 1);
            }
        }
    }

    /// Take host `id` down — resetting its live connections and clearing
    /// its listener backlogs — or bring it back. Shared by
    /// [`SimNet::set_host_down`] and fault-plan outage events.
    fn set_host_down_locked(&mut self, id: u32, down: bool) {
        match self.hosts.get_mut(id as usize) {
            Some(h) => h.down = down,
            None => return,
        }
        if down {
            let cids: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, c)| !c.reset && (c.hosts[0] == id || c.hosts[1] == id))
                .map(|(cid, _)| cid)
                .collect();
            for cid in cids {
                self.reset_conn(cid);
            }
            let keys: Vec<(u32, u16)> =
                self.listeners.keys().copied().filter(|(h, _)| *h == id).collect();
            for k in keys {
                if let Some(l) = self.listeners.get_mut(&k) {
                    l.backlog.clear();
                }
            }
        }
        self.change_tick += 1;
    }

    /// Record a fault-injection decision in the trace at the current
    /// instant; injected decisions are part of the determinism contract.
    fn trace_fault(&mut self, label: String) {
        let now = self.now_ns;
        if let Some(t) = self.trace.as_mut() {
            t.push((now, label));
        }
    }

    /// Consult the installed fault plan for one outgoing segment on
    /// `(conn, dir)`. Returns the (possibly jittered) arrival instant, or
    /// `None` when the segment is dropped — the lossless transport models
    /// no retransmission, so a drop schedules an [`EventKind::FaultReset`]
    /// at the would-be arrival instead. Decisions are keyed statelessly by
    /// `(seed, conn, dir, per-direction counter)`, so traffic on one
    /// connection never perturbs another's fault schedule.
    fn fault_arrival(&mut self, conn: usize, dir: usize, arrive: u64) -> Option<u64> {
        enum Decision {
            Pass,
            Drop,
            Delay(u64),
        }
        let decision = match self.fault.as_mut() {
            None => return Some(arrive),
            Some(f) => {
                let counter = {
                    let c = f.seg_counters.entry((conn, dir)).or_insert(0);
                    *c += 1;
                    *c
                };
                let stream = fault::stream_key(fault::STREAM_DELIVERY, conn as u64, dir as u64);
                let mut rng = SplitRng::at(f.seed, stream, counter);
                if rng.chance(f.plan.drop_prob) {
                    f.stats.drops_injected += 1;
                    Decision::Drop
                } else if rng.chance(f.plan.delay_prob) {
                    f.stats.delays_injected += 1;
                    Decision::Delay(rng.range(1, dur_ns(f.plan.delay_max).max(2)))
                } else {
                    Decision::Pass
                }
            }
        };
        let mut arrive = match decision {
            Decision::Drop => {
                self.trace_fault(format!("fault drop c{conn}.{dir}"));
                self.schedule(arrive, EventKind::FaultReset { conn });
                return None;
            }
            Decision::Delay(extra) => {
                self.trace_fault(format!("fault delay c{conn}.{dir} +{extra}ns"));
                arrive + extra
            }
            Decision::Pass => arrive,
        };
        // Jitter must not reorder the in-order byte stream: clamp each
        // arrival above the previous one for this direction, so a delayed
        // segment holds back everything queued behind it (head-of-line
        // blocking — how reordering pressure manifests in a stream model).
        if let Some(f) = self.fault.as_mut() {
            let last = f.last_arrival.entry((conn, dir)).or_insert(0);
            if arrive <= *last {
                arrive = *last + 1;
            }
            *last = arrive;
        }
        Some(arrive)
    }

    /// Consult the fault plan for one connect attempt: `true` means the
    /// plan refuses it (SYN blackholed) even though the listener is up.
    fn fault_refuses_connect(&mut self, cid: usize) -> bool {
        let refuse = match self.fault.as_mut() {
            None => return false,
            Some(f) => {
                let stream = fault::stream_key(fault::STREAM_CONNECT, cid as u64, 0);
                let mut rng = SplitRng::at(f.seed, stream, 0);
                if rng.chance(f.plan.connect_fail_prob) {
                    f.stats.connects_refused += 1;
                    true
                } else {
                    false
                }
            }
        };
        if refuse {
            self.trace_fault(format!("fault connect-refuse c{cid}"));
        }
        refuse
    }

    /// Evaluate one `buggify!` decision point (see [`SimNet::buggify`]).
    fn buggify_decision(&mut self, ctx: &str, prob: Option<f64>) -> bool {
        let hit = match self.fault.as_mut() {
            None => return false,
            Some(f) => {
                f.stats.buggify_decisions += 1;
                let p = prob.unwrap_or(f.plan.buggify_prob);
                let ctx_hash = fault::hash_str(ctx);
                let counter = {
                    let c = f.buggify_counters.entry(ctx_hash).or_insert(0);
                    *c += 1;
                    *c
                };
                let stream = fault::stream_key(fault::STREAM_BUGGIFY, ctx_hash, 0);
                let mut rng = SplitRng::at(f.seed, stream, counter);
                if rng.chance(p) {
                    f.stats.buggify_hits += 1;
                    true
                } else {
                    false
                }
            }
        };
        if hit {
            self.trace_fault(format!("buggify {ctx}"));
        }
        hit
    }

    fn apply(&mut self, ev: EventKind) {
        self.events_applied += 1;
        if self.trace.is_some() {
            // Network-level events only: WakeWaiter entries are scheduler
            // internals whose waiter ids depend on OS-thread park patterns,
            // while the network schedule is what determinism is about.
            let label = match &ev {
                EventKind::Deliver { conn, dir, data } => {
                    Some(format!("deliver c{conn}.{dir} {}b", data.len()))
                }
                EventKind::Ack { conn, dir, bytes } => Some(format!("ack c{conn}.{dir} {bytes}b")),
                EventKind::SynArrive { conn, host, port } => {
                    Some(format!("syn c{conn} -> h{host}:{port}"))
                }
                EventKind::Established { conn } => Some(format!("established c{conn}")),
                EventKind::Refuse { conn } => Some(format!("refuse c{conn}")),
                EventKind::Fin { conn, dir } => Some(format!("fin c{conn}.{dir}")),
                EventKind::FaultDown { host } => Some(format!("fault down h{host}")),
                EventKind::FaultHeal { host } => Some(format!("fault heal h{host}")),
                EventKind::FaultReset { conn } => Some(format!("fault reset c{conn}")),
                EventKind::WakeWaiter { .. } => None,
            };
            let now = self.now_ns;
            if let (Some(label), Some(t)) = (label, self.trace.as_mut()) {
                t.push((now, label));
            }
        }
        match ev {
            EventKind::Deliver { conn, dir, data } => {
                let len = data.len();
                if let Some(c) = self.conns.get_mut(conn) {
                    if c.reset {
                        return;
                    }
                    let d = &mut c.dirs[dir];
                    d.rbuf.push_back(data);
                    d.rbuf_len += len;
                    d.race.release();
                    self.stats.bytes_delivered += len as u64;
                    self.wake_kind(WaitKind::Readable { conn, dir });
                    // Direction `dir` is read by endpoint `1 - dir`.
                    self.queue_io_wake(conn, 1 - dir);
                }
            }
            EventKind::Ack { conn, dir, bytes } => {
                if let Some(c) = self.conns.get_mut(conn) {
                    if c.reset {
                        return;
                    }
                    let d = &mut c.dirs[dir];
                    d.inflight = d.inflight.saturating_sub(bytes);
                    d.cwnd = (d.cwnd + bytes).min(d.max_cwnd);
                    self.wake_kind(WaitKind::Window { conn, dir });
                    // Direction `dir` is written by endpoint `dir`.
                    self.queue_io_wake(conn, dir);
                }
            }
            EventKind::SynArrive { conn, host, port } => {
                let host_down = self.hosts.get(host as usize).map(|h| h.down).unwrap_or(true);
                let listener_open =
                    self.listeners.get(&(host, port)).map(|l| l.open).unwrap_or(false);
                if host_down || !listener_open {
                    self.reset_conn(conn);
                    return;
                }
                if let Some(l) = self.listeners.get_mut(&(host, port)) {
                    l.backlog.push_back(conn);
                }
                self.wake_kind(WaitKind::Accept { host, port });
                self.queue_accept_wake(host, port);
            }
            EventKind::Established { conn } => {
                if let Some(c) = self.conns.get_mut(conn) {
                    if !c.reset && !c.refused {
                        c.established = true;
                    }
                }
                self.wake_kind(WaitKind::ConnectDone { conn });
                // The connecting side may have a non-blocking write parked
                // on the handshake.
                self.queue_io_wake(conn, 0);
            }
            EventKind::Refuse { conn } => {
                if let Some(c) = self.conns.get_mut(conn) {
                    c.refused = true;
                }
                self.wake_kind(WaitKind::ConnectDone { conn });
                self.queue_io_wake(conn, 0);
            }
            EventKind::Fin { conn, dir } => {
                if let Some(c) = self.conns.get_mut(conn) {
                    c.dirs[dir].fin = true;
                    self.wake_kind(WaitKind::Readable { conn, dir });
                    self.queue_io_wake(conn, 1 - dir);
                }
            }
            EventKind::FaultDown { host } => {
                // Ignored once the plan is cleared: the harness may end the
                // fault phase early and let the scenario settle.
                if let Some(f) = self.fault.as_mut() {
                    f.stats.outages += 1;
                } else {
                    return;
                }
                self.set_host_down_locked(host, true);
            }
            EventKind::FaultHeal { host } => {
                if let Some(f) = self.fault.as_mut() {
                    f.stats.heals += 1;
                } else {
                    return;
                }
                self.set_host_down_locked(host, false);
            }
            EventKind::FaultReset { conn } => {
                // Always applied, plan or not: the dropped segment's Deliver
                // was never scheduled, so the reset must land or the stream
                // would hang forever.
                self.reset_conn(conn);
            }
            EventKind::WakeWaiter { wid, gen } => {
                let kind = match self.waiters.get(wid) {
                    Some(w) if w.gen == gen && !w.ready => w.kind,
                    _ => return,
                };
                self.unindex(kind, wid);
                self.mark_ready(wid, true);
            }
        }
    }

    /// Advance the virtual clock to the earliest scheduled event and apply
    /// every event due at that instant.
    fn advance(&mut self) {
        let t = match self.events.peek() {
            Some(e) => e.at,
            None => return,
        };
        debug_assert!(t >= self.now_ns, "event scheduled in the past");
        self.now_ns = self.now_ns.max(t);
        while let Some(e) = self.events.peek() {
            if e.at > self.now_ns {
                break;
            }
            let ev = self.events.pop().expect("peeked event");
            self.apply(ev.kind);
        }
        self.clock_advances += 1;
        self.change_tick += 1;
    }

    fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "now={:?} events={} registered={} reg_waiting={} parks={} unparks={}",
            Duration::from_nanos(self.now_ns),
            self.events.len(),
            self.registered,
            self.reg_waiting,
            self.sched_parks,
            self.sched_unparks,
        );
        for (id, w) in self.waiters.iter() {
            let _ = writeln!(
                s,
                "  waiter #{id} thread={} kind={:?} ready={} registered={} daemon={}",
                w.thread.name().unwrap_or("?"),
                w.kind,
                w.ready,
                w.registered,
                w.daemon
            );
        }
        // With the lock-order detector compiled in, show what every parked
        // thread was still holding — a stall plus a non-empty census is the
        // classic guard-held-across-wait signature davix-lint hunts for
        // statically.
        #[cfg(feature = "deadlock-detect")]
        {
            let census = parking_lot::deadlock::held_census();
            if census.is_empty() {
                let _ = writeln!(s, "held-lock census: empty");
            } else {
                let _ = writeln!(s, "held-lock census:");
                for line in census {
                    let _ = writeln!(s, "  {line}");
                }
            }
        }
        s
    }
}

fn stall_panic(st: &State) -> ! {
    panic!(
        "netsim: simulation stalled — every registered thread is blocked, \
         no events are scheduled and nothing changed for {STALL_TIMEOUT:?}\n{}",
        st.stall_dump
    );
}

struct SimCore {
    state: Mutex<State>,
}

impl std::fmt::Debug for SimCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore").finish_non_exhaustive()
    }
}

impl SimCore {
    fn core_id(&self) -> usize {
        self as *const SimCore as usize
    }

    /// Fire the wakers queued under the state lock. Called with the lock
    /// held; it is released while the wakers run, because a waker's `set()`
    /// may re-enter the simulator (e.g. a [`SimSignal`]), and they count as
    /// in flight until the last one returns.
    fn fire_wakes(&self, st: &mut MutexGuard<'_, State>) {
        let wakes = std::mem::take(&mut st.pending_wakes);
        if wakes.is_empty() {
            return;
        }
        let n = wakes.len();
        st.wakes_in_flight += n;
        MutexGuard::unlocked(st, || {
            for w in wakes {
                w.set();
            }
        });
        st.wakes_in_flight -= n;
        st.change_tick += 1;
    }

    /// Fire any queued wakers and release the lock. The tail of every public
    /// operation that may have queued wakes.
    fn unlock_and_wake(&self, mut st: MutexGuard<'_, State>) {
        self.fire_wakes(&mut st);
        self.kick_clock(&st);
    }

    /// Nudge one parked, not-yet-ready waiter to take a clock turn. Called
    /// after anything other than parking that may have made the net
    /// quiescent or given a quiescent net events (a deregistration, a
    /// finished wake delivery, an unregistered thread's write, connect or
    /// `Signal::set`). Cheap no-op otherwise.
    fn kick_clock(&self, st: &State) {
        if !st.quiescent() {
            return;
        }
        if let Some((_, w)) = st.waiters.iter().find(|(_, w)| !w.ready) {
            w.cv.notify_one();
        }
    }

    /// Park the calling thread until `kind` is satisfied or `deadline_ns`
    /// passes. The caller must hold (and pass) the state lock; the lock is
    /// released while parked and re-acquired before returning. The thread
    /// parks on its own token and, while it is not ready, takes the clock
    /// turns that fall to it — unless nothing can pre-empt its deadline, in
    /// which case it moves the clock there itself without parking.
    fn wait_on(
        &self,
        st: &mut MutexGuard<'_, State>,
        kind: WaitKind,
        deadline_ns: Option<u64>,
    ) -> WaitOutcome {
        if st.stalled {
            stall_panic(st);
        }
        let registered = IN_SIM.with(|c| c.get()) == self.core_id();
        if let Some(d) = deadline_ns.filter(|&d| registered && st.lone_until(d)) {
            // The timeline the park would make: one clock advance that
            // applies this wait's deadline event and nothing else.
            st.now_ns = st.now_ns.max(d);
            st.events_applied += 1;
            st.clock_advances += 1;
            st.change_tick += 1;
            return WaitOutcome::TimedOut;
        }
        let daemon = SIM_DAEMON.with(|c| c.get()) == self.core_id();
        st.waiter_gen += 1;
        let gen = st.waiter_gen;
        let cv = park_token(self.core_id());
        let wid = st.waiters.insert(Waiter {
            kind,
            gen,
            ready: false,
            timed_out: false,
            registered,
            daemon,
            thread: std::thread::current(),
            cv: Arc::clone(&cv),
        });
        // Only its deadline ends a sleep, so it is never looked up by kind
        // (and `unindex` of a kind not indexed is a no-op).
        if kind != WaitKind::Sleep {
            st.wait_index.entry(kind).or_default().push(wid);
        }
        if registered {
            st.reg_waiting += 1;
        }
        st.sched_parks += 1;
        st.change_tick += 1;
        if let Some(d) = deadline_ns {
            st.schedule(d, EventKind::WakeWaiter { wid, gen });
        }
        loop {
            if st.stalled {
                stall_panic(st);
            }
            if st.waiters.get(wid).expect("waiter alive").ready {
                let timed_out = st.waiters.get(wid).expect("waiter alive").timed_out;
                st.waiters.remove(wid);
                st.unindex(kind, wid);
                return if timed_out { WaitOutcome::TimedOut } else { WaitOutcome::Ready };
            }
            // A stall poisons the net: the loop sees `stalled` and panics.
            self.clock_step(st, &cv);
        }
    }

    /// One turn of a parked, not-yet-ready waiter, and the only place
    /// virtual time moves: not quiescent, sleep on the waiter's token `cv`
    /// until woken or nudged; events due, advance virtual time and fire the
    /// wakes; neither, wait in real time and run the stall watchdog when
    /// nothing changed over the whole window.
    fn clock_step(&self, st: &mut MutexGuard<'_, State>, cv: &Condvar) {
        if !st.quiescent() {
            cv.wait(st);
            return;
        }
        if !st.events.is_empty() {
            st.advance();
            self.fire_wakes(st);
            return;
        }
        // Quiescent with nothing scheduled: either a foreign (unregistered)
        // thread is about to act, or the simulation is stalled.
        let tick = st.change_tick;
        let timed_out = cv.wait_for(st, STALL_TIMEOUT).timed_out();
        let still = timed_out && st.change_tick == tick && st.quiescent() && st.events.is_empty();
        if !still {
            return;
        }
        // Sim-spawned daemon threads (server accept loops, reactor shards
        // parked on their wakers) sitting in `accept`/`Signal` waits with no
        // events scheduled is quiescence, not deadlock: servers routinely
        // outlive the scenario that spawned them. The `daemon` bit keeps
        // the watchdog intact for foreground threads — a *test's own*
        // thread stuck in accept or on a signal still panics with the
        // stall dump.
        if st.all_idle_daemons() {
            if !st.idle_noted {
                st.idle_noted = true;
                eprintln!(
                    "netsim: all registered threads are server daemons idle in accept/signal \
                     waits with no scheduled events; treating as quiescent (servers outliving \
                     their scenario)."
                );
            }
            return;
        }
        // Stall: poison the net so every parked (and future) waiter panics
        // with the census dump (their park loops see `stalled`).
        st.stall_dump = st.dump();
        st.stalled = true;
        for (_, w) in st.waiters.iter() {
            w.cv.notify_one();
        }
    }
}

// ---------------------------------------------------------------------------
// public handles
// ---------------------------------------------------------------------------

/// Handle to a simulated network. Cheap to clone.
#[derive(Clone)]
pub struct SimNet {
    core: Arc<SimCore>,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// Create an empty network at virtual time zero.
    pub fn new() -> Self {
        let core = Arc::new(SimCore {
            state: Mutex::new(State {
                now_ns: 0,
                seq: 0,
                change_tick: 0,
                events: BinaryHeap::new(),
                hosts: Vec::new(),
                host_by_name: HashMap::new(),
                links: HashMap::new(),
                default_link: LinkSpec::default(),
                link_busy: HashMap::new(),
                listeners: HashMap::new(),
                conns: Slab::new(),
                waiters: Slab::new(),
                wait_index: HashMap::new(),
                waiter_gen: 0,
                signals: Slab::new(),
                registered: 0,
                reg_waiting: 0,
                stats: NetStats::default(),
                idle_noted: false,
                io_wakers: HashMap::new(),
                accept_wakers: HashMap::new(),
                pending_wakes: Vec::new(),
                wakes_in_flight: 0,
                stalled: false,
                stall_dump: String::new(),
                trace: None,
                fault: None,
                sched_parks: 0,
                sched_unparks: 0,
                peak_registered: 0,
                peak_runnable: 0,
                clock_advances: 0,
                events_applied: 0,
            }),
        });
        SimNet { core }
    }

    /// Add a host (idempotent) and return its name back for chaining.
    pub fn add_host(&self, name: &str) {
        let mut st = self.core.state.lock();
        if !st.host_by_name.contains_key(name) {
            let id = st.hosts.len() as u32;
            st.hosts.push(HostState { name: name.to_string(), down: false });
            st.host_by_name.insert(name.to_string(), id);
        }
    }

    fn host_id(st: &State, name: &str) -> io::Result<u32> {
        st.host_by_name.get(name).copied().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("unknown host {name:?}"))
        })
    }

    /// Configure the (symmetric) link between two hosts. Panics on unknown
    /// hosts — topology is set up before traffic starts.
    pub fn set_link(&self, a: &str, b: &str, spec: LinkSpec) {
        let mut st = self.core.state.lock();
        let ia = Self::host_id(&st, a).expect("set_link: unknown host");
        let ib = Self::host_id(&st, b).expect("set_link: unknown host");
        st.links.insert((ia, ib), spec);
        st.links.insert((ib, ia), spec);
    }

    /// Default link used for host pairs with no explicit [`set_link`](Self::set_link).
    pub fn set_default_link(&self, spec: LinkSpec) {
        self.core.state.lock().default_link = spec;
    }

    /// Take a host offline (`down = true`): existing connections are reset,
    /// pending backlog is dropped, new connections are refused. Bring it back
    /// with `down = false`.
    pub fn set_host_down(&self, name: &str, down: bool) {
        let mut st = self.core.state.lock();
        let id = match Self::host_id(&st, name) {
            Ok(id) => id,
            Err(_) => return,
        };
        st.set_host_down_locked(id, down);
        self.core.unlock_and_wake(st);
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.core.state.lock().now_ns)
    }

    /// Block the calling thread for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let mut st = self.core.state.lock();
        let deadline = st.deadline_after(d);
        let out = self.core.wait_on(&mut st, WaitKind::Sleep, Some(deadline));
        debug_assert!(out == WaitOutcome::TimedOut);
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> NetStats {
        self.core.state.lock().stats.clone()
    }

    /// Number of threads currently registered with the virtual clock.
    pub fn thread_census(&self) -> usize {
        self.core.state.lock().registered
    }

    /// Snapshot of the scheduler introspection counters.
    pub fn sched_stats(&self) -> SchedStats {
        let st = self.core.state.lock();
        SchedStats {
            registered: st.registered,
            peak_registered: st.peak_registered,
            runnable: st.registered.saturating_sub(st.reg_waiting),
            peak_runnable: st.peak_runnable,
            parks: st.sched_parks,
            unparks: st.sched_unparks,
            clock_advances: st.clock_advances,
            events_applied: st.events_applied,
        }
    }

    /// Start (`true`) or stop (`false`) recording the virtual-time event
    /// trace. Starting resets any previously recorded trace.
    pub fn record_trace(&self, on: bool) {
        let mut st = self.core.state.lock();
        st.trace = if on { Some(Vec::new()) } else { None };
    }

    /// Take the recorded virtual-time event trace: `(virtual instant, event
    /// summary)` pairs in application order. Recording continues (empty).
    pub fn take_trace(&self) -> Vec<(Duration, String)> {
        let mut st = self.core.state.lock();
        match st.trace.as_mut() {
            Some(t) => std::mem::take(t)
                .into_iter()
                .map(|(ns, label)| (Duration::from_nanos(ns), label))
                .collect(),
            None => Vec::new(),
        }
    }

    /// Install a seeded [`FaultPlan`]: arms the per-segment delivery and
    /// connect hooks and pre-schedules the plan's partition/heal windows on
    /// `targets` (host names; unknown names are ignored). At most
    /// `plan.max_down` targets — and never all of them — are down at once,
    /// so an N ≥ 2 replica scenario always keeps one reachable. Returns the
    /// `(plan, seed)` fingerprint that failure reports print alongside the
    /// seed; replaying with the same pair reproduces the schedule exactly.
    ///
    /// Install from a *registered* thread (one under [`enter`](Self::enter)
    /// or spawned via [`spawn`](Self::spawn)) that stays runnable until the
    /// workload's own timers exist: the outage windows are ordinary heap
    /// events, and on an otherwise idle net the clock would fast-forward
    /// straight through them before the scenario starts.
    pub fn install_fault_plan(&self, plan: FaultPlan, seed: u64, targets: &[&str]) -> u64 {
        let mut st = self.core.state.lock();
        let tids: Vec<u32> =
            targets.iter().filter_map(|n| st.host_by_name.get(*n).copied()).collect();
        let mut rng = SplitRng::at(seed, fault::STREAM_PLAN, 0);
        let horizon = dur_ns(plan.horizon).max(1);
        let omin = dur_ns(plan.outage_min).max(1);
        let omax = dur_ns(plan.outage_max).max(omin + 1);
        let max_down = plan.max_down.min(tids.len().saturating_sub(1));
        let mut windows: Vec<(u32, u64, u64)> = Vec::new();
        if max_down > 0 {
            for _ in 0..plan.partitions {
                let host = *rng.pick(&tids);
                let start = rng.range(0, horizon);
                let end = start + rng.range(omin, omax);
                // A window is placed only if it keeps the concurrently-down
                // set within bounds; rejected draws are simply skipped so
                // the schedule stays a pure function of (plan, seed).
                let host_busy =
                    windows.iter().any(|(h, s, e)| *h == host && *s < end && start < *e);
                let concurrent = windows.iter().filter(|(_, s, e)| *s < end && start < *e).count();
                if host_busy || concurrent >= max_down {
                    continue;
                }
                windows.push((host, start, end));
            }
        }
        let now = st.now_ns;
        for (host, s, e) in &windows {
            st.schedule(now + s, EventKind::FaultDown { host: *host });
            st.schedule(now + e, EventKind::FaultHeal { host: *host });
        }
        let fs = FaultState::new(plan, seed);
        let fp = fs.fingerprint;
        st.fault = Some(fs);
        self.core.kick_clock(&st);
        fp
    }

    /// Remove the installed fault plan, returning its final stats. Pending
    /// outage events become no-ops, so a harness can end the fault phase
    /// and let the scenario settle (heal + re-probe) undisturbed. Hosts a
    /// fault window left down stay down until healed with
    /// [`set_host_down`](Self::set_host_down).
    pub fn clear_fault_plan(&self) -> Option<FaultStats> {
        let mut st = self.core.state.lock();
        st.fault.take().map(|f| f.stats)
    }

    /// Snapshot of the installed plan's decision counters, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.core.state.lock().fault.as_ref().map(|f| f.stats.clone())
    }

    /// The installed plan's `(plan, seed)` fingerprint, if any.
    pub fn fault_fingerprint(&self) -> Option<u64> {
        self.core.state.lock().fault.as_ref().map(|f| f.fingerprint)
    }

    /// Evaluate a named fault decision point at the plan's default
    /// probability ([`FaultPlan::buggify_prob`]). Always `false` without an
    /// installed plan, so instrumented sim-only code costs nothing in
    /// plain runs. Prefer the [`buggify!`](crate::buggify) macro.
    pub fn buggify(&self, ctx: &str) -> bool {
        self.core.state.lock().buggify_decision(ctx, None)
    }

    /// Like [`buggify`](Self::buggify) with an explicit probability.
    pub fn buggify_with(&self, ctx: &str, prob: f64) -> bool {
        self.core.state.lock().buggify_decision(ctx, Some(prob))
    }

    /// Spawn a *registered* thread: the virtual clock waits for it whenever
    /// it is runnable. The closure must only block on simulator primitives.
    /// Spawn a group of workers from a *registered* thread, or the clock may
    /// run between spawns: once the threads spawned so far have all parked
    /// they are the whole census, and the later ones start at a later instant.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) {
        {
            let mut st = self.core.state.lock();
            st.register_thread();
        }
        // Spawn is a happens-before edge: the child adopts the parent's
        // vector clock as of the fork point (no-op without race-detect).
        // Joins need no twin hook — a sim thread's last act is releasing
        // the state lock in `Dereg`, which any joiner reacquires.
        let pkt = davix_sync::race::fork_packet();
        let core = Arc::clone(&self.core);
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                davix_sync::race::adopt_packet(&pkt);
                let id = core.core_id();
                IN_SIM.with(|c| c.set(id));
                SIM_DAEMON.with(|c| c.set(id));
                struct Dereg(Arc<SimCore>);
                impl Drop for Dereg {
                    fn drop(&mut self) {
                        let mut st = self.0.state.lock();
                        st.registered -= 1;
                        st.change_tick += 1;
                        self.0.kick_clock(&st);
                    }
                }
                let _g = Dereg(core);
                f();
            })
            .expect("spawn sim thread");
    }

    /// Register the *current* thread with the virtual clock for the lifetime
    /// of the returned guard. Use in tests/benches whose main thread talks to
    /// the network directly.
    pub fn enter(&self) -> EnterGuard {
        let id = self.core.core_id();
        let prev = IN_SIM.with(|c| c.replace(id));
        if prev != id {
            let mut st = self.core.state.lock();
            st.register_thread();
        }
        EnterGuard { core: Arc::clone(&self.core), prev }
    }

    /// Bind a listener on `host:port`.
    pub fn bind(&self, host: &str, port: u16) -> io::Result<SimListener> {
        let mut st = self.core.state.lock();
        let id = Self::host_id(&st, host)?;
        if st.listeners.get(&(id, port)).map(|l| l.open).unwrap_or(false) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{host}:{port} already bound"),
            ));
        }
        st.listeners.insert((id, port), ListenerState { open: true, backlog: VecDeque::new() });
        Ok(SimListener {
            core: Arc::clone(&self.core),
            host: id,
            host_name: host.to_string(),
            port,
        })
    }

    /// Create the connection record and schedule the handshake events.
    fn begin_connect_locked(
        st: &mut State,
        from_host: &str,
        to_host: &str,
        port: u16,
    ) -> io::Result<usize> {
        let a = Self::host_id(st, from_host)?;
        let b = Self::host_id(st, to_host)?;
        let spec = st.link_spec(a, b);
        let rtt = 2 * dur_ns(spec.delay);
        let conn = Conn {
            hosts: [a, b],
            established: false,
            refused: false,
            reset: false,
            open_handles: [1, 0],
            dirs: [DirState::new(spec), DirState::new(spec)],
        };
        let cid = st.conns.insert(conn);
        st.stats.conns_created += 1;
        *st.stats.conns_per_host.entry(to_host.to_string()).or_insert(0) += 1;

        let target_down = st.hosts[b as usize].down;
        let listener_open = st.listeners.get(&(b, port)).map(|l| l.open).unwrap_or(false);
        // Only a connect that would otherwise succeed can be fault-refused.
        let fault_refused = !target_down && listener_open && st.fault_refuses_connect(cid);
        let now = st.now_ns;
        if target_down || !listener_open || fault_refused {
            // Refusal costs one RTT (SYN out, RST back).
            st.schedule(now + rtt, EventKind::Refuse { conn: cid });
        } else {
            let delay = dur_ns(spec.delay);
            // Setup costs `handshake_rtts` round trips: 1 for TCP, more when
            // the link models a TLS-style negotiation on top.
            let setup = rtt * u64::from(spec.handshake_rtts.max(1));
            st.schedule(now + delay, EventKind::SynArrive { conn: cid, host: b, port });
            st.schedule(now + setup, EventKind::Established { conn: cid });
        }
        Ok(cid)
    }

    /// Connect from `from_host` to `to_host:port`, waiting at most `timeout`.
    pub fn connect_timeout(
        &self,
        from_host: &str,
        to_host: &str,
        port: u16,
        timeout: Option<Duration>,
    ) -> io::Result<SimStream> {
        let stream = self.connect_start(from_host, to_host, port)?;
        let cid = stream.conn;
        let mut st = self.core.state.lock();
        let deadline = timeout.map(|t| st.deadline_after(t));
        let err = loop {
            let c = st.conns.get(cid).expect("conn");
            if c.reset || c.refused {
                break io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("connection to {to_host}:{port} refused"),
                );
            }
            if c.established {
                drop(st);
                return Ok(stream);
            }
            let done = WaitKind::ConnectDone { conn: cid };
            if let WaitOutcome::TimedOut = self.core.wait_on(&mut st, done, deadline) {
                break io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("connect to {to_host}:{port} timed out"),
                );
            }
        };
        // A failed connect leaves a dead record: reset it (a server that had
        // already accepted sees that), so that dropping `stream`, which
        // takes the lock itself, sends no FIN.
        st.reset_conn(cid);
        self.core.unlock_and_wake(st);
        Err(err)
    }

    /// Connect without a timeout.
    pub fn connect(&self, from_host: &str, to_host: &str, port: u16) -> io::Result<SimStream> {
        self.connect_timeout(from_host, to_host, port, None)
    }

    /// Begin a *non-blocking* connect: the SYN goes out and the stream is
    /// returned immediately. Until the handshake completes, `try_write`
    /// returns `WouldBlock` (then `ConnectionRefused` on RST); register a
    /// waker via [`Pollable::set_waker`] to learn when it resolves. Blocking
    /// `write` on the stream waits for establishment first.
    pub fn connect_start(
        &self,
        from_host: &str,
        to_host: &str,
        port: u16,
    ) -> io::Result<SimStream> {
        let mut st = self.core.state.lock();
        let cid = Self::begin_connect_locked(&mut st, from_host, to_host, port)?;
        self.core.kick_clock(&st);
        drop(st);
        Ok(SimStream::new(&self.core, cid, 0, format!("{to_host}:{port}")))
    }

    /// A [`Connector`] whose outbound connections originate at `host`.
    pub fn connector(&self, host: &str) -> Arc<SimConnector> {
        Arc::new(SimConnector { net: self.clone(), host: host.to_string() })
    }

    /// A virtual-time [`Runtime`] for library code running on this network.
    pub fn runtime(&self) -> Arc<SimRuntime> {
        Arc::new(SimRuntime { net: self.clone() })
    }
}

/// Guard returned by [`SimNet::enter`]; deregisters the thread on drop.
pub struct EnterGuard {
    core: Arc<SimCore>,
    prev: usize,
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        if self.prev != self.core.core_id() {
            IN_SIM.with(|c| c.set(self.prev));
            let mut st = self.core.state.lock();
            st.registered -= 1;
            st.change_tick += 1;
            self.core.kick_clock(&st);
        }
    }
}

/// Copy buffered bytes out of a direction's receive buffer into `buf`.
fn drain_rbuf(d: &mut DirState, buf: &mut [u8]) -> usize {
    // Delivery edge: everything the delivering thread did before the
    // payload landed happens-before this read.
    d.race.acquire();
    let mut n = 0;
    while n < buf.len() && d.rbuf_len > 0 {
        let chunk = d.rbuf.front().expect("nonempty rbuf");
        let avail = chunk.len() - d.rbuf_front_off;
        let take = avail.min(buf.len() - n);
        buf[n..n + take].copy_from_slice(&chunk[d.rbuf_front_off..d.rbuf_front_off + take]);
        n += take;
        d.rbuf_front_off += take;
        d.rbuf_len -= take;
        if d.rbuf_front_off == chunk.len() {
            d.rbuf.pop_front();
            d.rbuf_front_off = 0;
        }
    }
    n
}

/// One endpoint of a simulated connection. Blocking `Read`/`Write`, plus the
/// non-blocking [`Pollable`] surface used by the reactor.
#[derive(Debug)]
pub struct SimStream {
    core: Arc<SimCore>,
    conn: usize,
    side: usize,
    peer: String,
    read_timeout: Option<Duration>,
    /// Whether *this handle* registered the connection's reactor waker (so
    /// dropping a clone does not clear a waker it never set).
    waker_set: bool,
}

impl SimStream {
    fn new(core: &Arc<SimCore>, conn: usize, side: usize, peer: String) -> SimStream {
        SimStream { core: Arc::clone(core), conn, side, peer, read_timeout: None, waker_set: false }
    }

    fn send_fin_locked(st: &mut State, conn: usize, side: usize) {
        let now = st.now_ns;
        let (from, to, delay_ns, already) = {
            let c = match st.conns.get_mut(conn) {
                Some(c) => c,
                None => return,
            };
            let d = &mut c.dirs[side];
            let already = d.fin_sent || c.reset;
            d.fin_sent = true;
            (c.hosts[side], c.hosts[1 - side], d.delay_ns, already)
        };
        if already {
            return;
        }
        let busy = st.link_busy.get(&(from, to)).copied().unwrap_or(0);
        let at = busy.max(now) + delay_ns;
        st.schedule(at, EventKind::Fin { conn, dir: side });
    }
}

/// What [`State::send_segment`] did with the bytes it was offered.
enum Sent {
    /// This many bytes went onto the wire as one segment.
    Segment(usize),
    /// Nothing can go yet; the blocking writer waits on this.
    Blocked(WaitKind),
}

impl State {
    /// The TCP send model, once: put as much of `bufs` — one write call's
    /// worth, taken as their concatenation — as the congestion window (and
    /// Nagle) allow onto `conn`'s wire from `side` as a single segment,
    /// occupying the link and scheduling its delivery and ACK.
    fn send_segment(
        &mut self,
        conn: usize,
        side: usize,
        bufs: &[io::IoSlice<'_>],
    ) -> io::Result<Sent> {
        let dir = side;
        let offered: usize = bufs.iter().map(|b| b.len()).sum();
        let (k, from, to, delay_ns, spec) = {
            let c = self.conns.get_mut(conn).expect("conn alive");
            if c.reset {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection reset by peer"));
            }
            if c.refused {
                return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "connection refused"));
            }
            // The connecting side cannot transmit before the handshake
            // finishes (streams from `connect_start` may still be in it);
            // the Established/Refuse event fires the side-0 waker.
            if side == 0 && !c.established {
                return Ok(Sent::Blocked(WaitKind::ConnectDone { conn }));
            }
            let d = &mut c.dirs[dir];
            if d.fin_sent {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "write after shutdown"));
            }
            let mut avail = d.cwnd.saturating_sub(d.inflight);
            // Nagle: hold a sub-MSS tail while anything is in flight
            // (it will coalesce with later writes or go out on the ACK).
            if d.spec.nagle && d.inflight > 0 && (offered as u64) < MSS {
                avail = 0;
            }
            if avail == 0 {
                return Ok(Sent::Blocked(WaitKind::Window { conn, dir }));
            }
            let k = (avail as usize).min(offered);
            d.inflight += k as u64;
            (k, c.hosts[dir], c.hosts[1 - dir], d.delay_ns, d.spec)
        };
        let now = self.now_ns;
        let busy = self.link_busy.entry((from, to)).or_insert(0);
        let start = (*busy).max(now);
        let tx = spec.tx_ns(k as u64);
        *busy = start + tx;
        let arrive = start + tx + delay_ns;
        if let Some(arrive) = self.fault_arrival(conn, dir, arrive) {
            let mut data = Vec::with_capacity(k);
            for buf in bufs {
                data.extend_from_slice(&buf[..buf.len().min(k - data.len())]);
            }
            self.schedule(arrive, EventKind::Deliver { conn, dir, data });
            // Delayed ACK: a sub-MSS segment's ACK sits on the receiver's
            // timer (real stacks ACK every second full segment immediately).
            let ack_hold = match spec.delayed_ack {
                Some(t) if (k as u64) < MSS => dur_ns(t),
                _ => 0,
            };
            self.schedule(
                arrive + ack_hold + delay_ns,
                EventKind::Ack { conn, dir, bytes: k as u64 },
            );
        }
        self.stats.bytes_sent += k as u64;
        Ok(Sent::Segment(k))
    }

    /// The receive side, once: bytes already delivered to `side` of `conn`,
    /// `Ok(Some(0))` at end of stream, `Ok(None)` when nothing has arrived.
    fn recv_ready(
        &mut self,
        conn: usize,
        side: usize,
        buf: &mut [u8],
    ) -> io::Result<Option<usize>> {
        let c = self.conns.get_mut(conn).expect("conn alive");
        let d = &mut c.dirs[1 - side];
        if d.rbuf_len > 0 {
            return Ok(Some(drain_rbuf(d, buf)));
        }
        if c.reset {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "connection reset"));
        }
        if c.refused {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "connection refused"));
        }
        Ok(d.fin.then_some(0))
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let core = Arc::clone(&self.core);
        let mut st = core.state.lock();
        let deadline = self.read_timeout.map(|t| st.deadline_after(t));
        loop {
            if let Some(n) = st.recv_ready(self.conn, self.side, buf)? {
                return Ok(n);
            }
            let readable = WaitKind::Readable { conn: self.conn, dir: 1 - self.side };
            if let WaitOutcome::TimedOut = core.wait_on(&mut st, readable, deadline) {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
            }
        }
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let core = Arc::clone(&self.core);
        let mut st = core.state.lock();
        let mut written = 0usize;
        while written < buf.len() {
            match st.send_segment(self.conn, self.side, &[io::IoSlice::new(&buf[written..])])? {
                Sent::Segment(k) => {
                    written += k;
                    core.kick_clock(&st);
                }
                // No deadline: the wait ends when the window opens, the
                // handshake completes or the connection dies.
                Sent::Blocked(on) => {
                    core.wait_on(&mut st, on, None);
                }
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Pollable for SimStream {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.core.state.lock();
        st.recv_ready(self.conn, self.side, buf)?
            .ok_or_else(|| io::Error::from(io::ErrorKind::WouldBlock))
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.try_write_vectored(&[io::IoSlice::new(buf)])
    }

    /// One write call is one segment, however many slices it gathers.
    fn try_write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        if bufs.iter().all(|b| b.is_empty()) {
            return Ok(0);
        }
        let mut st = self.core.state.lock();
        match st.send_segment(self.conn, self.side, bufs)? {
            Sent::Segment(k) => {
                self.core.kick_clock(&st);
                Ok(k)
            }
            Sent::Blocked(_) => Err(io::Error::from(io::ErrorKind::WouldBlock)),
        }
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) -> io::Result<()> {
        let mut st = self.core.state.lock();
        match waker {
            Some(w) => {
                st.io_wakers.insert((self.conn, self.side), w);
                self.waker_set = true;
            }
            None => {
                if self.waker_set {
                    st.io_wakers.remove(&(self.conn, self.side));
                    self.waker_set = false;
                }
            }
        }
        Ok(())
    }
}

impl Stream for SimStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        Ok(())
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn try_clone(&self) -> io::Result<BoxedStream> {
        let mut st = self.core.state.lock();
        if let Some(c) = st.conns.get_mut(self.conn) {
            c.open_handles[self.side] += 1;
        }
        let mut clone = SimStream::new(&self.core, self.conn, self.side, self.peer.clone());
        clone.read_timeout = self.read_timeout;
        Ok(Box::new(clone))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        let core = Arc::clone(&self.core);
        let mut st = core.state.lock();
        SimStream::send_fin_locked(&mut st, self.conn, self.side);
        core.kick_clock(&st);
        Ok(())
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        let core = Arc::clone(&self.core);
        let mut st = core.state.lock();
        if self.waker_set {
            st.io_wakers.remove(&(self.conn, self.side));
        }
        let send_fin = {
            match st.conns.get_mut(self.conn) {
                Some(c) => {
                    c.open_handles[self.side] = c.open_handles[self.side].saturating_sub(1);
                    c.open_handles[self.side] == 0
                }
                None => false,
            }
        };
        if send_fin {
            SimStream::send_fin_locked(&mut st, self.conn, self.side);
        }
        core.kick_clock(&st);
    }
}

/// Listening socket on a simulated host.
pub struct SimListener {
    core: Arc<SimCore>,
    host: u32,
    host_name: String,
    port: u16,
}

impl SimListener {
    /// The first backlog entry that was not reset while it queued, as the
    /// server-side stream and the peer's host name; `Ok(None)` when the
    /// backlog is empty.
    fn pop_backlog(&self, st: &mut State) -> io::Result<Option<(SimStream, String)>> {
        loop {
            let l =
                st.listeners.get_mut(&(self.host, self.port)).filter(|l| l.open).ok_or_else(
                    || io::Error::new(io::ErrorKind::NotConnected, "listener closed"),
                )?;
            let Some(cid) = l.backlog.pop_front() else { return Ok(None) };
            let c = st.conns.get_mut(cid).expect("conn alive");
            if c.reset {
                continue;
            }
            c.open_handles[1] += 1;
            let peer = st.hosts[c.hosts[0] as usize].name.clone();
            return Ok(Some((SimStream::new(&self.core, cid, 1, peer.clone()), peer)));
        }
    }

    /// Accept the next inbound connection (blocking).
    pub fn accept_sim(&self) -> io::Result<(SimStream, String)> {
        let mut st = self.core.state.lock();
        loop {
            if let Some(pair) = self.pop_backlog(&mut st)? {
                return Ok(pair);
            }
            let accept = WaitKind::Accept { host: self.host, port: self.port };
            self.core.wait_on(&mut st, accept, None);
        }
    }

    /// Non-blocking accept: `Ok(None)` when the backlog is empty. Register a
    /// waker via [`set_accept_waker`](Self::set_accept_waker) to learn when
    /// the backlog grows.
    pub fn try_accept_sim(&self) -> io::Result<Option<(SimStream, String)>> {
        self.pop_backlog(&mut self.core.state.lock())
    }

    /// Register (or clear) a reactor waker fired when the backlog becomes
    /// non-empty or the listener closes — the accept-side analogue of
    /// [`Pollable::set_waker`], for event-driven acceptors.
    pub fn set_accept_waker(&self, waker: Option<Arc<dyn Signal>>) {
        let mut st = self.core.state.lock();
        match waker {
            Some(w) => {
                st.accept_wakers.insert((self.host, self.port), w);
            }
            None => {
                st.accept_wakers.remove(&(self.host, self.port));
            }
        }
    }

    /// The host this listener is bound on.
    pub fn host_name(&self) -> &str {
        &self.host_name
    }
}

impl Listener for SimListener {
    fn accept(&self) -> io::Result<(BoxedStream, String)> {
        let (s, peer) = self.accept_sim()?;
        Ok((Box::new(s), peer))
    }

    fn local_port(&self) -> u16 {
        self.port
    }

    fn close(&self) {
        let mut st = self.core.state.lock();
        let backlog: Vec<usize> = match st.listeners.get_mut(&(self.host, self.port)) {
            Some(l) => {
                l.open = false;
                l.backlog.drain(..).collect()
            }
            None => Vec::new(),
        };
        for cid in backlog {
            st.reset_conn(cid);
        }
        st.wake_kind(WaitKind::Accept { host: self.host, port: self.port });
        st.queue_accept_wake(self.host, self.port);
        self.core.unlock_and_wake(st);
    }
}

/// [`Connector`] bound to a simulated source host.
pub struct SimConnector {
    net: SimNet,
    host: String,
}

impl Connector for SimConnector {
    fn connect(&self, host: &str, port: u16, timeout: Option<Duration>) -> io::Result<BoxedStream> {
        let s = self.net.connect_timeout(&self.host, host, port, timeout)?;
        Ok(Box::new(s))
    }
}

/// Virtual-time [`Runtime`] backed by a [`SimNet`].
pub struct SimRuntime {
    net: SimNet,
}

impl SimRuntime {
    /// The underlying network handle.
    pub fn net(&self) -> &SimNet {
        &self.net
    }
}

impl Runtime for SimRuntime {
    fn now(&self) -> Duration {
        self.net.now()
    }

    fn sleep(&self, d: Duration) {
        self.net.sleep(d);
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        self.net.spawn(name, f);
    }

    fn signal(&self) -> Arc<dyn Signal> {
        let mut st = self.net.core.state.lock();
        let id =
            st.signals.insert(SignalState { set: false, race: davix_sync::race::SyncObj::new() });
        drop(st);
        Arc::new(SimSignal { core: Arc::clone(&self.net.core), id })
    }
}

/// Virtual-time-aware manual-reset event.
struct SimSignal {
    core: Arc<SimCore>,
    id: usize,
}

impl Signal for SimSignal {
    fn wait(&self, timeout: Option<Duration>) -> bool {
        let mut st = self.core.state.lock();
        let deadline = timeout.map(|t| st.deadline_after(t));
        loop {
            if let Some(s) = st.signals.get(self.id).filter(|s| s.set) {
                // Notify→wake edge: the setter's clock joins this thread.
                s.race.acquire();
                return true;
            }
            match self.core.wait_on(&mut st, WaitKind::Signal { sig: self.id }, deadline) {
                WaitOutcome::Ready => continue,
                WaitOutcome::TimedOut => return false,
            }
        }
    }

    fn set(&self) {
        let mut st = self.core.state.lock();
        if let Some(s) = st.signals.get_mut(self.id) {
            s.set = true;
            // Notify edge: publish this thread's clock for whoever wakes.
            s.race.release();
        }
        st.wake_kind(WaitKind::Signal { sig: self.id });
        self.core.kick_clock(&st);
    }

    fn reset(&self) {
        let mut st = self.core.state.lock();
        if let Some(s) = st.signals.get_mut(self.id) {
            s.set = false;
        }
    }

    fn is_set(&self) -> bool {
        let st = self.core.state.lock();
        match st.signals.get(self.id).filter(|s| s.set) {
            Some(s) => {
                // Observing `set` is as good as waking from the wait.
                s.race.acquire();
                true
            }
            None => false,
        }
    }
}

impl Drop for SimSignal {
    fn drop(&mut self) {
        self.core.state.lock().signals.remove(self.id);
    }
}
