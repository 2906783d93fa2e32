//! The discrete-event virtual-time network simulator.
//!
//! ## Model
//!
//! * **Hosts** are named endpoints; **links** between host pairs have a
//!   one-way `delay` and an optional `bandwidth` (bytes/s). Each direction of
//!   a link is a FIFO, which models contention between connections sharing
//!   a path.
//! * **Connections** follow a TCP cost model: establishment costs one RTT
//!   (SYN out, SYN-ACK back); each direction has a congestion window that
//!   starts at `init_cwnd` bytes and grows through slow start up to
//!   `max_cwnd`, and senders block when it is full. A *reused* connection
//!   keeps its grown window — precisely the effect the paper's session
//!   recycling exploits (§2.2).
//! * **Virtual time** advances only when every *registered* thread is blocked
//!   on a simulator primitive. Registered threads are those spawned via
//!   [`SimNet::spawn`] or covered by an [`SimNet::enter`] guard.
//!
//! ## Scheduler
//!
//! A net owns no thread of its own; the threads that block on it move its
//! clock. A blocked thread parks on its own token, keyed by what it waits
//! on, and a wake addresses exactly the threads parked on one key. The
//! clock advances to the earliest scheduled event only when every
//! registered thread is parked, and whichever of them parked last moves
//! it. The last runnable thread starting a timed wait that no scheduled
//! event precedes or ties moves the clock to its deadline without parking.
//! When the net is quiescent with nothing scheduled for 10 s of real time,
//! a stall watchdog panics every parked thread with a census dump.
//!
//! ## What is deliberately not modelled
//!
//! Packet loss, retransmission, receiver flow control and
//! congestion-avoidance (linear) growth. The paper's observed effects —
//! round-trip cost of chatty protocols, slow-start cost of fresh
//! connections, bandwidth-delay-product ceilings — do not depend on them.
//!
//! ## Layout
//!
//! One lock guards one `State` of three parts, each a plain struct in a
//! private module of its own, with the details in its module doc: the event
//! queue (`events`: virtual time, the heap, the trace), the link/TCP model
//! (`link`: hosts, links, listeners, connections) and the thread scheduler
//! (`sched`: waiters, registration, wakes, the stall watchdog).
//! `State::apply` is the one place an event becomes model changes plus
//! wakes: the model reports what may have become ready, and the scheduler
//! wakes whoever waits on that `WaitKind` key. Neither part reads the
//! other's state.

mod events;
mod link;
mod sched;

pub use link::{LinkSpec, NetStats};
pub use sched::{EnterGuard, SchedStats};

use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::transport::{BoxedStream, Connector, Listener, Pollable, Runtime, Signal, Stream};
use events::{EventKind, Events};
use link::{Links, Sent};
use sched::{Sched, SimSignal, StateLock, WaitOutcome};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

pub(crate) fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// What a blocked thread waits on: the key the link model's readiness
/// reaches the scheduler as.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum WaitKind {
    Readable { conn: usize, dir: usize },
    Window { conn: usize, dir: usize },
    Accept { host: u32, port: u16 },
    ConnectDone { conn: usize },
    Sleep,
    Signal { sig: usize },
}

/// Everything the simulator knows, behind its one lock.
#[derive(Default)]
struct State {
    events: Events,
    link: Links,
    sched: Sched,
    /// Installed seeded fault plan (see [`SimNet::install_fault_plan`]);
    /// `None` means every fault hook is a no-op.
    fault: Option<FaultState>,
}

impl State {
    /// Apply one due event: the model changes, then whoever waits on what
    /// may have become ready wakes.
    fn apply(&mut self, ev: EventKind) {
        match ev {
            EventKind::Deliver { conn, dir, data } => {
                if self.link.on_deliver(conn, dir, data) {
                    self.sched.ready(WaitKind::Readable { conn, dir });
                }
            }
            EventKind::Ack { conn, dir, bytes } => {
                if self.link.on_ack(conn, dir, bytes) {
                    self.sched.ready(WaitKind::Window { conn, dir });
                }
            }
            EventKind::SynArrive { conn, host, port } => {
                if self.link.on_syn(conn, host, port) {
                    self.sched.ready(WaitKind::Accept { host, port });
                } else {
                    self.reset_conn(conn);
                }
            }
            EventKind::Established { conn } | EventKind::Refuse { conn } => {
                self.link.on_handshake(conn, matches!(ev, EventKind::Refuse { .. }));
                self.sched.ready(WaitKind::ConnectDone { conn });
            }
            EventKind::Fin { conn, dir } => {
                if self.link.on_fin(conn, dir) {
                    self.sched.ready(WaitKind::Readable { conn, dir });
                }
            }
            // Outage events are ignored once the plan is cleared: the
            // harness may end the fault phase early and let the scenario
            // settle.
            EventKind::FaultDown { host } => {
                if let Some(f) = self.fault.as_mut() {
                    f.stats.outages += 1;
                    self.set_host_down(host, true);
                }
            }
            EventKind::FaultHeal { host } => {
                if let Some(f) = self.fault.as_mut() {
                    f.stats.heals += 1;
                    self.set_host_down(host, false);
                }
            }
            // Always applied, plan or not: the dropped segment's Deliver was
            // never scheduled, so the reset must land or the stream would
            // hang forever.
            EventKind::FaultReset { conn } => self.reset_conn(conn),
            EventKind::WakeWaiter { wid, gen } => self.sched.time_out(wid, gen),
        }
    }

    fn reset_conn(&mut self, cid: usize) {
        if self.link.mark_reset(cid) {
            self.sched.conn_reset(cid);
        }
    }

    /// Take host `id` down — resetting its live connections — or bring it
    /// back. Shared by [`SimNet::set_host_down`] and fault-plan outage
    /// events.
    fn set_host_down(&mut self, id: u32, down: bool) {
        let Some(live) = self.link.set_host_down(id, down) else { return };
        for cid in live {
            self.reset_conn(cid);
        }
        self.events.change_tick += 1;
    }

    fn send_segment(
        &mut self,
        conn: usize,
        side: usize,
        bufs: &[io::IoSlice<'_>],
    ) -> io::Result<Sent> {
        self.link.send_segment(&mut self.events, self.fault.as_mut(), conn, side, bufs)
    }

    fn send_fin(&mut self, conn: usize, side: usize) {
        self.link.send_fin(&mut self.events, conn, side);
    }
}

struct SimCore {
    state: StateLock,
}

impl std::fmt::Debug for SimCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCore").finish_non_exhaustive()
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
        SimNet { core: Arc::new(SimCore { state: StateLock::new() }) }
    }

    /// Add a host; adding a name that exists already does nothing.
    pub fn add_host(&self, name: &str) {
        self.core.lock().link.add_host(name);
    }

    /// Configure the (symmetric) link between two hosts. Panics on unknown
    /// hosts — topology is set up before traffic starts.
    pub fn set_link(&self, a: &str, b: &str, spec: LinkSpec) {
        self.core.lock().link.set_link(a, b, spec);
    }

    /// Default link used for host pairs with no explicit [`set_link`](Self::set_link).
    pub fn set_default_link(&self, spec: LinkSpec) {
        self.core.lock().link.default_link = spec;
    }

    /// Take a host offline (`down = true`): existing connections are reset,
    /// pending backlog is dropped, new connections are refused. Bring it back
    /// with `down = false`.
    pub fn set_host_down(&self, name: &str, down: bool) {
        let mut st = self.core.lock();
        let Ok(id) = st.link.host_id(name) else { return };
        st.set_host_down(id, down);
        self.core.unlock_and_wake(st);
    }

    /// Current virtual time.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.core.lock().events.now_ns())
    }

    /// Block the calling thread for `d` of virtual time.
    pub fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let mut st = self.core.lock();
        let deadline = st.events.deadline_after(d);
        let out = self.core.wait_on(&mut st, WaitKind::Sleep, Some(deadline));
        debug_assert!(out == WaitOutcome::TimedOut);
    }

    /// Snapshot of the aggregate counters.
    pub fn stats(&self) -> NetStats {
        self.core.lock().link.stats.clone()
    }

    /// Number of threads currently registered with the virtual clock.
    pub fn thread_census(&self) -> usize {
        self.core.lock().sched.stats.registered
    }

    /// Snapshot of the scheduler introspection counters.
    pub fn sched_stats(&self) -> SchedStats {
        self.core.lock().sched.snapshot()
    }

    /// Start (`true`) or stop (`false`) recording the virtual-time event
    /// trace. Starting resets any previously recorded trace.
    pub fn record_trace(&self, on: bool) {
        self.core.lock().events.record_trace(on);
    }

    /// Take the recorded virtual-time event trace: `(virtual instant, event
    /// summary)` pairs in application order. Recording continues (empty).
    pub fn take_trace(&self) -> Vec<(Duration, String)> {
        self.core.lock().events.take_trace()
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
        let mut st = self.core.lock();
        let tids: Vec<u32> = targets.iter().filter_map(|n| st.link.host_id(n).ok()).collect();
        let now = st.events.now_ns();
        for (host, start, end) in plan.outage_windows(seed, &tids) {
            st.events.schedule(now + start, EventKind::FaultDown { host });
            st.events.schedule(now + end, EventKind::FaultHeal { host });
        }
        let fs = FaultState::new(plan, seed);
        let fp = fs.fingerprint;
        st.fault = Some(fs);
        st.sched.kick_clock();
        fp
    }

    /// Remove the installed fault plan, returning its final stats. Pending
    /// outage events become no-ops, so a harness can end the fault phase
    /// and let the scenario settle (heal + re-probe) undisturbed. Hosts a
    /// fault window left down stay down until healed with
    /// [`set_host_down`](Self::set_host_down).
    pub fn clear_fault_plan(&self) -> Option<FaultStats> {
        self.core.lock().fault.take().map(|f| f.stats)
    }

    /// Snapshot of the installed plan's decision counters, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.core.lock().fault.as_ref().map(|f| f.stats.clone())
    }

    /// The installed plan's `(plan, seed)` fingerprint, if any.
    pub fn fault_fingerprint(&self) -> Option<u64> {
        self.core.lock().fault.as_ref().map(|f| f.fingerprint)
    }

    /// Evaluate a named fault decision point at the plan's default
    /// probability ([`FaultPlan::buggify_prob`]). Always `false` without an
    /// installed plan, so instrumented sim-only code costs nothing in
    /// plain runs. Prefer the [`buggify!`](crate::buggify) macro.
    pub fn buggify(&self, ctx: &str) -> bool {
        self.buggify_at(ctx, None)
    }

    /// Like [`buggify`](Self::buggify) with an explicit probability.
    pub fn buggify_with(&self, ctx: &str, prob: f64) -> bool {
        self.buggify_at(ctx, Some(prob))
    }

    fn buggify_at(&self, ctx: &str, prob: Option<f64>) -> bool {
        let mut st = self.core.lock();
        let hit = st.fault.as_mut().is_some_and(|f| f.buggify_hit(ctx, prob));
        if hit {
            st.events.note(format!("buggify {ctx}"));
        }
        hit
    }

    /// Bind a listener on `host:port`.
    pub fn bind(&self, host: &str, port: u16) -> io::Result<SimListener> {
        let mut st = self.core.lock();
        let id = st.link.host_id(host)?;
        if !st.link.bind_listener(id, port) {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("{host}:{port} already bound"),
            ));
        }
        Ok(SimListener {
            core: Arc::clone(&self.core),
            host: id,
            host_name: host.to_string(),
            port,
        })
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
        let mut st = self.core.lock();
        let deadline = timeout.map(|t| st.events.deadline_after(t));
        let err = loop {
            match st.link.handshake(cid) {
                None => {
                    break io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("connection to {to_host}:{port} refused"),
                    )
                }
                Some(true) => {
                    drop(st);
                    return Ok(stream);
                }
                Some(false) => {}
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
        let mut guard = self.core.lock();
        let st = &mut *guard;
        let cid = st.link.open_conn(&mut st.events, st.fault.as_mut(), from_host, to_host, port)?;
        st.sched.kick_clock();
        drop(guard);
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
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.core.lock();
        let deadline = self.read_timeout.map(|t| st.events.deadline_after(t));
        loop {
            if let Some(n) = st.link.recv_ready(self.conn, self.side, buf)? {
                return Ok(n);
            }
            let readable = WaitKind::Readable { conn: self.conn, dir: 1 - self.side };
            if let WaitOutcome::TimedOut = self.core.wait_on(&mut st, readable, deadline) {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "read timed out"));
            }
        }
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut st = self.core.lock();
        let mut written = 0usize;
        while written < buf.len() {
            match st.send_segment(self.conn, self.side, &[io::IoSlice::new(&buf[written..])])? {
                Sent::Segment(k) => {
                    written += k;
                    st.sched.kick_clock();
                }
                // No deadline: the wait ends when the window opens, the
                // handshake completes or the connection dies.
                Sent::Blocked(on) => {
                    self.core.wait_on(&mut st, on, None);
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
        let mut st = self.core.lock();
        st.link
            .recv_ready(self.conn, self.side, buf)?
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
        let mut st = self.core.lock();
        match st.send_segment(self.conn, self.side, bufs)? {
            Sent::Segment(k) => {
                st.sched.kick_clock();
                Ok(k)
            }
            Sent::Blocked(_) => Err(io::Error::from(io::ErrorKind::WouldBlock)),
        }
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) -> io::Result<()> {
        let mut st = self.core.lock();
        match waker {
            Some(w) => {
                st.sched.io_wakers.insert((self.conn, self.side), w);
                self.waker_set = true;
            }
            None => {
                if self.waker_set {
                    st.sched.io_wakers.remove(&(self.conn, self.side));
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
        self.core.lock().link.add_handle(self.conn, self.side);
        let mut clone = SimStream::new(&self.core, self.conn, self.side, self.peer.clone());
        clone.read_timeout = self.read_timeout;
        Ok(Box::new(clone))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        let mut st = self.core.lock();
        st.send_fin(self.conn, self.side);
        st.sched.kick_clock();
        Ok(())
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        let mut st = self.core.lock();
        if self.waker_set {
            st.sched.io_wakers.remove(&(self.conn, self.side));
        }
        if st.link.drop_handle(self.conn, self.side) {
            st.send_fin(self.conn, self.side);
        }
        st.sched.kick_clock();
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
        let Some((cid, peer)) = st.link.pop_backlog(self.host, self.port)? else { return Ok(None) };
        Ok(Some((SimStream::new(&self.core, cid, 1, peer.clone()), peer)))
    }

    /// Accept the next inbound connection (blocking).
    pub fn accept_sim(&self) -> io::Result<(SimStream, String)> {
        let mut st = self.core.lock();
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
        self.pop_backlog(&mut self.core.lock())
    }

    /// Register (or clear) a reactor waker fired when the backlog becomes
    /// non-empty or the listener closes — the accept-side analogue of
    /// [`Pollable::set_waker`], for event-driven acceptors.
    pub fn set_accept_waker(&self, waker: Option<Arc<dyn Signal>>) {
        let mut st = self.core.lock();
        match waker {
            Some(w) => {
                st.sched.accept_wakers.insert((self.host, self.port), w);
            }
            None => {
                st.sched.accept_wakers.remove(&(self.host, self.port));
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
        let mut st = self.core.lock();
        for cid in st.link.close_listener(self.host, self.port) {
            st.reset_conn(cid);
        }
        st.sched.ready(WaitKind::Accept { host: self.host, port: self.port });
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
        Arc::new(SimSignal::new(&self.net.core))
    }
}
