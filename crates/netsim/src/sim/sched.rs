//! The thread scheduler: which registered thread is parked on what, and
//! when the virtual clock may move.
//!
//! A net owns no thread of its own; the threads that block on it move its
//! clock:
//!
//! * **Registration.** Threads spawned through [`SimNet::spawn`] or covered
//!   by a [`SimNet::enter`] guard are *registered*: the clock waits for them
//!   whenever they are runnable.
//! * **Parking protocol.** A thread blocking on a sim primitive inserts a
//!   waiter record keyed by *what* it waits on (a [`WaitKind`]) into an
//!   exact-match index and parks on its *own* condvar token. Wakes address
//!   exactly the waiters for one key — there is no broadcast and no scan
//!   over the census, so total wake cost is O(wakeups), not O(threads ×
//!   wakeups). Readiness arrives as such a key ([`Sched::ready`]); the
//!   scheduler never looks inside a connection. A wake marks its waiter
//!   ready under the state lock but only *queues* the token: the
//!   [`StateGuard`] notifies it after the lock is released (on drop, before
//!   running reactor wakers unlocked, and instead of parking), so a woken
//!   thread never finds the lock still held by its waker.
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

use super::events::EventKind;
use super::{SimCore, SimNet, State, WaitKind};
use crate::slab::Slab;
use crate::transport::Signal;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
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

    /// The tokens this thread is delivering: moved out of
    /// [`Sched::unparks_due`] under the lock, notified after it is
    /// released. Both vectors keep their capacity, so a warm delivery
    /// allocates nothing.
    static DELIVERING: Cell<Vec<Arc<Condvar>>> = const { Cell::new(Vec::new()) };
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
pub(super) enum WaitOutcome {
    Ready,
    TimedOut,
}

struct SignalState {
    set: bool,
    /// Happens-before clock for this signal: `set` releases, an observed
    /// wake (or `is_set() == true`) acquires.
    race: davix_sync::race::SyncObj,
}

/// Waiters, registration, signals and reactor wakers.
#[derive(Default)]
pub(super) struct Sched {
    waiters: Slab<Waiter>,
    /// Exact-key index over parked waiters: wakes address precisely the
    /// waiters for one key instead of scanning the whole census.
    wait_index: HashMap<WaitKind, Vec<usize>>,
    waiter_gen: u64,
    /// Registered threads currently parked.
    reg_waiting: usize,
    signals: Slab<SignalState>,
    /// Reactor wakers registered per (connection, endpoint side) via
    /// [`Pollable::set_waker`](crate::Pollable::set_waker). Fired whenever
    /// that side may have become readable (payload/FIN arrived) or
    /// writable (ACK opened the window, the handshake finished).
    pub(super) io_wakers: HashMap<(usize, usize), Arc<dyn Signal>>,
    /// Reactor wakers fired when a listener's backlog grows (or the
    /// listener closes), registered via
    /// [`SimListener::set_accept_waker`](super::SimListener::set_accept_waker).
    pub(super) accept_wakers: HashMap<(u32, u16), Arc<dyn Signal>>,
    /// Wakers queued while the state lock is held; fired after release
    /// (a waker's `set()` may re-enter the simulator, e.g. a `SimSignal`).
    pending_wakes: Vec<Arc<dyn Signal>>,
    /// Park tokens of waiters woken (or nudged) under the state lock, to be
    /// notified once it is released; empty whenever the lock is free.
    unparks_due: Vec<Arc<Condvar>>,
    /// Wakers taken out of `pending_wakes` whose `set()` has not finished
    /// yet. While any are outstanding the virtual clock must not advance:
    /// the wake exists only in the delivering thread's stack, so the
    /// blocked-thread census cannot see it, and advancing would fire
    /// timeouts the wake was supposed to pre-empt (e.g. a reactor shard's
    /// idle timer racing the readiness wake for a request that already
    /// arrived).
    wakes_in_flight: usize,
    /// Whether the all-accepts quiescence note was already printed.
    idle_noted: bool,
    /// Set by the stall watchdog: the net is poisoned and every thread that
    /// parks (or is parked) panics with `stall_dump`.
    stalled: bool,
    stall_dump: String,
    /// The counters, kept in place: `registered` is live, `runnable` is
    /// filled in by [`snapshot`](Self::snapshot).
    pub(super) stats: SchedStats,
}

impl Sched {
    /// Advance only when no wake is in flight, every registered thread is
    /// parked and someone is actually waiting on the outcome.
    fn quiescent(&self) -> bool {
        self.wakes_in_flight == 0
            && self.reg_waiting == self.stats.registered
            && self.waiters.len() > 0
    }

    /// Whether a registered thread that parked now would make the net
    /// quiescent with no wake queued or in flight: every other registered
    /// thread is parked.
    fn lone(&self) -> bool {
        self.reg_waiting + 1 == self.stats.registered
            && self.wakes_in_flight == 0
            && self.pending_wakes.is_empty()
    }

    fn all_idle_daemons(&self) -> bool {
        self.waiters.iter().all(|(_, w)| {
            w.daemon && matches!(w.kind, WaitKind::Accept { .. } | WaitKind::Signal { .. })
        })
    }

    fn note_runnable(&mut self) {
        let runnable = self.stats.registered.saturating_sub(self.reg_waiting);
        self.stats.peak_runnable = self.stats.peak_runnable.max(runnable);
    }

    /// The counters, with the runnable count as of now.
    pub(super) fn snapshot(&self) -> SchedStats {
        SchedStats {
            runnable: self.stats.registered.saturating_sub(self.reg_waiting),
            ..self.stats.clone()
        }
    }

    /// Record the calling thread as waiting on `kind`; returns the
    /// waiter's id and generation.
    fn add_waiter(
        &mut self,
        kind: WaitKind,
        registered: bool,
        daemon: bool,
        cv: Arc<Condvar>,
    ) -> (usize, u64) {
        self.waiter_gen += 1;
        let gen = self.waiter_gen;
        let thread = std::thread::current();
        let waiter =
            Waiter { kind, gen, ready: false, timed_out: false, registered, daemon, thread, cv };
        let wid = self.waiters.insert(waiter);
        // Only its deadline ends a sleep, so it is never looked up by kind
        // (and `unindex` of a kind not indexed is a no-op).
        if kind != WaitKind::Sleep {
            self.wait_index.entry(kind).or_default().push(wid);
        }
        if registered {
            self.reg_waiting += 1;
        }
        self.stats.parks += 1;
        (wid, gen)
    }

    /// Waiter `wid`'s outcome once it is ready, removing it; `None` while
    /// it still waits.
    fn take_ready(&mut self, wid: usize, kind: WaitKind) -> Option<WaitOutcome> {
        let w = self.waiters.get(wid).expect("waiter alive");
        if !w.ready {
            return None;
        }
        let timed_out = w.timed_out;
        self.waiters.remove(wid);
        self.unindex(kind, wid);
        Some(if timed_out { WaitOutcome::TimedOut } else { WaitOutcome::Ready })
    }

    /// Mark one waiter ready and queue its token. No-op when already ready.
    fn mark_ready(&mut self, wid: usize, timed_out: bool) {
        let registered = match self.waiters.get_mut(wid) {
            Some(w) if !w.ready => {
                w.ready = true;
                w.timed_out = timed_out;
                self.unparks_due.push(Arc::clone(&w.cv));
                w.registered
            }
            _ => return,
        };
        if registered {
            self.reg_waiting -= 1;
        }
        self.stats.unparks += 1;
        self.note_runnable();
    }

    /// Wake every waiter parked on exactly `kind`.
    fn wake_kind(&mut self, kind: WaitKind) {
        for wid in self.wait_index.remove(&kind).unwrap_or_default() {
            self.mark_ready(wid, false);
        }
    }

    /// `key` may be ready: wake the threads parked on it and queue the
    /// reactor waker of the endpoint or listener it names.
    pub(super) fn ready(&mut self, key: WaitKind) {
        self.wake_kind(key);
        let waker = match key {
            // Direction `dir` is read by endpoint `1 - dir`.
            WaitKind::Readable { conn, dir } => self.io_wakers.get(&(conn, 1 - dir)),
            // Direction `dir` is written by endpoint `dir`.
            WaitKind::Window { conn, dir } => self.io_wakers.get(&(conn, dir)),
            // The connecting side may have a non-blocking write parked on
            // the handshake.
            WaitKind::ConnectDone { conn } => self.io_wakers.get(&(conn, 0)),
            WaitKind::Accept { host, port } => self.accept_wakers.get(&(host, port)),
            WaitKind::Sleep | WaitKind::Signal { .. } => None,
        };
        self.pending_wakes.extend(waker.cloned());
    }

    /// Connection `conn` was reset: every thread parked on it wakes, and
    /// both endpoints' reactor wakers fire.
    pub(super) fn conn_reset(&mut self, conn: usize) {
        self.wake_kind(WaitKind::ConnectDone { conn });
        for dir in 0..2 {
            self.wake_kind(WaitKind::Readable { conn, dir });
            self.wake_kind(WaitKind::Window { conn, dir });
        }
        for side in 0..2 {
            self.pending_wakes.extend(self.io_wakers.get(&(conn, side)).cloned());
        }
    }

    /// Waiter `wid`'s deadline fired: it times out unless it was woken (or
    /// its slot reused) first.
    pub(super) fn time_out(&mut self, wid: usize, gen: u64) {
        let kind = match self.waiters.get(wid) {
            Some(w) if w.gen == gen && !w.ready => w.kind,
            _ => return,
        };
        self.unindex(kind, wid);
        self.mark_ready(wid, true);
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

    /// Nudge one parked, not-yet-ready waiter to take a clock turn. Called
    /// after anything other than parking that may have made the net
    /// quiescent or given a quiescent net events (a deregistration, a
    /// finished wake delivery, an unregistered thread's write, connect or
    /// `Signal::set`). Cheap no-op otherwise.
    pub(super) fn kick_clock(&mut self) {
        if !self.quiescent() {
            return;
        }
        if let Some((_, w)) = self.waiters.iter().find(|(_, w)| !w.ready) {
            self.unparks_due.push(Arc::clone(&w.cv));
        }
    }

    fn dump(&self, now_ns: u64, events: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "now={:?} events={} registered={} reg_waiting={} parks={} unparks={}",
            Duration::from_nanos(now_ns),
            events,
            self.stats.registered,
            self.reg_waiting,
            self.stats.parks,
            self.stats.unparks,
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

/// The state mutex. Its only accessor is private to this module and
/// returns a [`StateGuard`], so no lock site can hold the state without
/// the guard that delivers the wakes queued under it.
pub(super) struct StateLock(Mutex<State>);

impl StateLock {
    pub(super) fn new() -> Self {
        StateLock(Mutex::new(State::default()))
    }

    fn lock(&self) -> StateGuard<'_> {
        StateGuard { st: Some(self.0.lock()) }
    }
}

/// The state lock, held. Every lock site takes it through
/// [`SimCore::lock`]; the park tokens queued while it is held are notified
/// only once the mutex is released — when the guard drops, in
/// [`unlocked`](Self::unlocked) and in [`park`](Self::park).
pub(super) struct StateGuard<'a> {
    /// `None` only inside `drop`, which releases the mutex before it
    /// notifies.
    st: Option<MutexGuard<'a, State>>,
}

impl StateGuard<'_> {
    /// Move the queued tokens into this thread's delivery buffer; `None`
    /// when nothing is queued.
    fn take_due(&mut self) -> Option<Vec<Arc<Condvar>>> {
        let due = &mut self.sched.unparks_due;
        if due.is_empty() {
            return None;
        }
        let mut batch = DELIVERING.take();
        batch.append(due);
        Some(batch)
    }

    /// Release the lock, notify the queued tokens, run `f`, and take the
    /// lock back.
    fn unlocked<U>(&mut self, f: impl FnOnce() -> U) -> U {
        let due = self.take_due();
        let st = self.st.as_mut().expect("guard held");
        MutexGuard::unlocked(st, || {
            if let Some(batch) = due {
                deliver(batch);
            }
            f()
        })
    }

    /// Sleep on `cv` — at most `timeout` — releasing the lock meanwhile.
    /// With tokens queued it does not sleep: it delivers them unlocked and
    /// returns `None`, so the caller re-checks its state before parking.
    /// Otherwise `Some(timed_out)`.
    fn park(&mut self, cv: &Condvar, timeout: Option<Duration>) -> Option<bool> {
        if !self.sched.unparks_due.is_empty() {
            self.unlocked(|| ());
            return None;
        }
        let st = self.st.as_mut().expect("guard held");
        Some(match timeout {
            None => {
                cv.wait(st);
                false
            }
            Some(t) => cv.wait_for(st, t).timed_out(),
        })
    }
}

/// Notify every token in `batch`, then hand the emptied buffer back to the
/// thread for its next delivery.
fn deliver(mut batch: Vec<Arc<Condvar>>) {
    for cv in batch.drain(..) {
        cv.notify_one();
    }
    DELIVERING.set(batch);
}

impl Deref for StateGuard<'_> {
    type Target = State;

    fn deref(&self) -> &State {
        self.st.as_ref().expect("guard held")
    }
}

impl DerefMut for StateGuard<'_> {
    fn deref_mut(&mut self) -> &mut State {
        self.st.as_mut().expect("guard held")
    }
}

impl Drop for StateGuard<'_> {
    fn drop(&mut self) {
        let due = self.take_due();
        drop(self.st.take());
        if let Some(batch) = due {
            deliver(batch);
        }
    }
}

fn stall_panic(sched: &Sched) -> ! {
    panic!(
        "netsim: simulation stalled — every registered thread is blocked, \
         no events are scheduled and nothing changed for {STALL_TIMEOUT:?}\n{}",
        sched.stall_dump
    );
}

impl SimCore {
    pub(super) fn core_id(&self) -> usize {
        self as *const SimCore as usize
    }

    /// Take the state lock. The one way in: wakes queued under it are
    /// delivered after it is released.
    pub(super) fn lock(&self) -> StateGuard<'_> {
        self.state.lock()
    }

    fn register_thread(&self) {
        let mut st = self.lock();
        let stats = &mut st.sched.stats;
        stats.registered += 1;
        stats.peak_registered = stats.peak_registered.max(stats.registered);
        st.sched.note_runnable();
        st.events.change_tick += 1;
    }

    /// Fire the wakers queued under the state lock. Called with the lock
    /// held; it is released while the wakers run (after the queued park
    /// tokens are notified), because a waker's `set()` may re-enter the
    /// simulator (e.g. a `SimSignal`), and they count as in flight until
    /// the last one returns.
    fn fire_wakes(&self, st: &mut StateGuard<'_>) {
        let wakes = std::mem::take(&mut st.sched.pending_wakes);
        if wakes.is_empty() {
            return;
        }
        let n = wakes.len();
        st.sched.wakes_in_flight += n;
        st.unlocked(|| {
            for w in wakes {
                w.set();
            }
        });
        st.sched.wakes_in_flight -= n;
        st.events.change_tick += 1;
    }

    /// Fire any queued wakers and release the lock. The tail of every public
    /// operation that may have queued wakes.
    pub(super) fn unlock_and_wake(&self, mut st: StateGuard<'_>) {
        self.fire_wakes(&mut st);
        st.sched.kick_clock();
    }

    /// Park the calling thread until `kind` is satisfied or `deadline_ns`
    /// passes. The caller must hold (and pass) the state lock; the lock is
    /// released while parked and re-acquired before returning. The thread
    /// parks on its own token and, while it is not ready, takes the clock
    /// turns that fall to it — unless nothing can pre-empt its deadline, in
    /// which case it moves the clock there itself without parking.
    pub(super) fn wait_on(
        &self,
        st: &mut StateGuard<'_>,
        kind: WaitKind,
        deadline_ns: Option<u64>,
    ) -> WaitOutcome {
        if st.sched.stalled {
            stall_panic(&st.sched);
        }
        let registered = IN_SIM.with(Cell::get) == self.core_id();
        let lone = registered && st.sched.lone();
        if let Some(d) = deadline_ns.filter(|&d| lone && st.events.next_at().is_none_or(|t| t > d))
        {
            // The timeline the park would make: one clock advance that
            // applies this wait's deadline event and nothing else.
            st.events.skip_to(d);
            st.sched.stats.events_applied += 1;
            st.sched.stats.clock_advances += 1;
            return WaitOutcome::TimedOut;
        }
        let daemon = SIM_DAEMON.with(Cell::get) == self.core_id();
        let cv = park_token(self.core_id());
        let (wid, gen) = st.sched.add_waiter(kind, registered, daemon, Arc::clone(&cv));
        st.events.change_tick += 1;
        if let Some(d) = deadline_ns {
            st.events.schedule(d, EventKind::WakeWaiter { wid, gen });
        }
        loop {
            if st.sched.stalled {
                stall_panic(&st.sched);
            }
            if let Some(outcome) = st.sched.take_ready(wid, kind) {
                return outcome;
            }
            // A stall poisons the net: the loop sees `stalled` and panics.
            self.clock_step(st, &cv);
        }
    }

    /// One turn of a parked, not-yet-ready waiter, and the only place
    /// virtual time moves: not quiescent, sleep on the waiter's token `cv`
    /// until woken or nudged; events due, advance virtual time, apply the
    /// instant's events and fire the wakes; neither, wait in real time and
    /// run the stall watchdog when nothing changed over the whole window.
    /// Either sleep first delivers the tokens this thread queued, and then
    /// returns without sleeping (see [`StateGuard::park`]).
    fn clock_step(&self, st: &mut StateGuard<'_>, cv: &Condvar) {
        if !st.sched.quiescent() {
            st.park(cv, None);
            return;
        }
        if st.events.advance() {
            while let Some(ev) = st.events.pop_due() {
                st.sched.stats.events_applied += 1;
                st.apply(ev);
            }
            st.sched.stats.clock_advances += 1;
            self.fire_wakes(st);
            return;
        }
        // Quiescent with nothing scheduled: either a foreign (unregistered)
        // thread is about to act, or the simulation is stalled. A wake
        // moves `unparks`; anything else that matters, the change tick.
        let mark = (st.events.change_tick, st.sched.stats.unparks);
        let timed_out = st.park(cv, Some(STALL_TIMEOUT)) == Some(true);
        let still = timed_out
            && (st.events.change_tick, st.sched.stats.unparks) == mark
            && st.sched.quiescent()
            && st.events.len() == 0;
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
        if st.sched.all_idle_daemons() {
            if !st.sched.idle_noted {
                st.sched.idle_noted = true;
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
        st.sched.stall_dump = st.sched.dump(st.events.now_ns(), st.events.len());
        st.sched.stalled = true;
        let sched = &mut st.sched;
        sched.unparks_due.extend(sched.waiters.iter().map(|(_, w)| Arc::clone(&w.cv)));
    }
}

impl SimNet {
    /// Spawn a *registered* thread: the virtual clock waits for it whenever
    /// it is runnable. The closure must only block on simulator primitives.
    ///
    /// Spawn a group of workers from a registered thread, or the clock may
    /// run between spawns: once the threads spawned so far have all parked
    /// they are the whole census, and the later ones start at a later
    /// instant.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, name: &str, f: F) {
        self.core.register_thread();
        // Spawn is a happens-before edge: the child adopts the parent's
        // vector clock as of the fork point (no-op without race-detect).
        // Joins need no twin hook — a sim thread's last act is releasing
        // the state lock as its guard deregisters it, which any joiner
        // reacquires.
        let pkt = davix_sync::race::fork_packet();
        let core = Arc::clone(&self.core);
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                davix_sync::race::adopt_packet(&pkt);
                let id = core.core_id();
                IN_SIM.with(|c| c.set(id));
                SIM_DAEMON.with(|c| c.set(id));
                // Deregisters the thread when `f` returns or unwinds.
                let _g = EnterGuard { core, prev: 0 };
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
            self.core.register_thread();
        }
        EnterGuard { core: Arc::clone(&self.core), prev }
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
            let mut st = self.core.lock();
            st.sched.stats.registered -= 1;
            st.events.change_tick += 1;
            st.sched.kick_clock();
        }
    }
}

/// Virtual-time-aware manual-reset event.
pub(super) struct SimSignal {
    core: Arc<SimCore>,
    id: usize,
}

impl SimSignal {
    pub(super) fn new(core: &Arc<SimCore>) -> SimSignal {
        let state = SignalState { set: false, race: davix_sync::race::SyncObj::new() };
        let id = core.lock().sched.signals.insert(state);
        SimSignal { core: Arc::clone(core), id }
    }
}

impl Signal for SimSignal {
    fn wait(&self, timeout: Option<Duration>) -> bool {
        let mut st = self.core.lock();
        let deadline = timeout.map(|t| st.events.deadline_after(t));
        loop {
            if let Some(s) = st.sched.signals.get(self.id).filter(|s| s.set) {
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
        let mut st = self.core.lock();
        if let Some(s) = st.sched.signals.get_mut(self.id) {
            s.set = true;
            // Notify edge: publish this thread's clock for whoever wakes.
            s.race.release();
        }
        st.sched.ready(WaitKind::Signal { sig: self.id });
        st.sched.kick_clock();
    }

    fn reset(&self) {
        let mut st = self.core.lock();
        if let Some(s) = st.sched.signals.get_mut(self.id) {
            s.set = false;
        }
    }

    fn is_set(&self) -> bool {
        let st = self.core.lock();
        match st.sched.signals.get(self.id).filter(|s| s.set) {
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
        self.core.lock().sched.signals.remove(self.id);
    }
}
