//! A small poll-style readiness reactor shared by both transports.
//!
//! The server tier used to dedicate one OS thread to every connection, which
//! caps concurrency at thread count and lets one slow client pin a whole
//! thread. This module provides the replacement: a fixed budget of *shard*
//! threads, each driving many [`Driven`] tasks (connection state machines)
//! by readiness:
//!
//! * **Readiness.** Tasks expose the [`crate::transport::Pollable`] surface
//!   of their stream.
//!   On the simulated transport a shard parks on a [`Signal`] waker that the
//!   simulator fires whenever a connection may have become readable or
//!   writable; each wake names the exact tasks that are ready, so a wake
//!   costs O(ready), not O(connections). On real TCP every stream has a file
//!   descriptor and a shard waits in a single `poll(2)` call over all of
//!   them (plus a self-wake pipe for cross-thread submissions).
//! * **Timers.** Idle/header-read deadlines live in a hashed [`TimerWheel`]
//!   with generation-stamped entries. Cancellation and re-arm are *lazy*: a
//!   keep-alive connection that sees activity simply moves its deadline
//!   forward and the stale wheel entry fizzles when it fires, so the common
//!   case costs no wheel operation at all — a slowloris client costs one
//!   timer entry, not a thread.
//! * **Level-triggered.** A spurious wake is legal; tasks must `try_read`/
//!   `try_write` until they see `WouldBlock`. This keeps waker semantics
//!   trivial and makes the sim and TCP paths behave identically.
//!
//! Shards run as runtime threads ([`Runtime::spawn`]), so under simulation
//! they are registered with the virtual clock and virtual time advances
//! while they are parked — timeouts measured in virtual seconds cost nothing
//! to simulate.
//!
//! [`ServerCore`] is the rest of a server built on this: accept threads
//! with connection-limit back-pressure feeding one lazily created reactor,
//! and a `stop` that tears it all down in a fixed order. `httpd` and the
//! xrdlite server both run on it and differ only in the [`Driven`] task
//! they make of an accepted stream.

use crate::slab::Slab;
use crate::transport::{BoxedStream, Listener, Runtime, Signal};
use davix_sync::{AtomicBool, AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;
use std::time::Duration;

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

// ---------------------------------------------------------------------------
// Driven tasks
// ---------------------------------------------------------------------------

/// What a task wants after being driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriveOutcome {
    /// Still alive: park until the next readiness wake or deadline.
    Continue,
    /// Finished (connection closed): remove from the reactor.
    Done,
}

/// A non-blocking task driven by a reactor shard — typically one connection
/// state machine wrapping a [`Pollable`](crate::transport::Pollable) stream.
///
/// `drive` is called on submission, after every readiness wake, when the
/// task's deadline has passed and during shutdown; it must consume readiness
/// (`try_read`/`try_write` until `WouldBlock`) and never block.
pub trait Driven: Send {
    /// Advance the state machine as far as readiness allows.
    fn drive(&mut self, now: Duration) -> DriveOutcome;

    /// The next instant (runtime clock) this task needs a time-based wake,
    /// if any — e.g. an idle or header-read deadline.
    fn deadline(&self) -> Option<Duration>;

    /// Register (`Some`) or clear (`None`) the shard's readiness waker on
    /// the underlying stream. Implementations should ignore
    /// `Err(Unsupported)` from transports that are waited on via `poll_fd`.
    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>);

    /// The stream's OS file descriptor, when the transport has one.
    fn poll_fd(&self) -> Option<i32>;

    /// Whether the task has buffered output it still wants to flush (drives
    /// `POLLOUT` interest on the fd path).
    fn wants_write(&self) -> bool;

    /// The reactor is shutting down: finish the in-flight request/response
    /// if any, then report [`DriveOutcome::Done`] instead of going idle.
    fn begin_shutdown(&mut self);
}

// ---------------------------------------------------------------------------
// Hashed timer wheel
// ---------------------------------------------------------------------------

struct TimerEntry {
    deadline_ns: u64,
    token: usize,
    gen: u64,
}

/// A hashed timer wheel: `slots` buckets of `granularity` each, entries
/// hashed by `(deadline / granularity) % slots` and carrying their absolute
/// deadline (far-future entries simply survive a bucket scan). Entries are
/// generation-stamped so cancellation is free: a fired entry whose
/// generation no longer matches its task is skipped.
pub struct TimerWheel {
    slots: Vec<Vec<TimerEntry>>,
    granularity_ns: u64,
    /// Lower bound on the earliest live deadline (exact after `expire`).
    soonest_ns: Option<u64>,
    len: usize,
}

impl TimerWheel {
    /// A wheel with `slots` buckets of `granularity` each.
    pub fn new(slots: usize, granularity: Duration) -> Self {
        let slots = slots.max(1);
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            granularity_ns: dur_ns(granularity).max(1),
            soonest_ns: None,
            len: 0,
        }
    }

    fn bucket(&self, deadline_ns: u64) -> usize {
        ((deadline_ns / self.granularity_ns) % self.slots.len() as u64) as usize
    }

    /// Insert an entry for `token` (stamped with `gen`) at `deadline_ns`.
    pub fn insert_ns(&mut self, deadline_ns: u64, token: usize, gen: u64) {
        let b = self.bucket(deadline_ns);
        self.slots[b].push(TimerEntry { deadline_ns, token, gen });
        self.len += 1;
        self.soonest_ns = Some(match self.soonest_ns {
            Some(s) => s.min(deadline_ns),
            None => deadline_ns,
        });
    }

    /// Earliest live deadline, in nanoseconds (a lower bound: the entry it
    /// belongs to may be stale, in which case the resulting wake is merely
    /// spurious).
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.soonest_ns
    }

    /// Live entry count (stale entries included until they fire).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the wheel holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drain every entry with `deadline <= now_ns` into `out` as
    /// `(token, gen, deadline_ns)` and refresh the cached soonest deadline.
    pub fn expire_ns(&mut self, now_ns: u64, out: &mut Vec<(usize, u64, u64)>) {
        let start = match self.soonest_ns {
            Some(s) if s <= now_ns => s,
            _ => return,
        };
        let nslots = self.slots.len() as u64;
        let first = start / self.granularity_ns;
        let last = now_ns / self.granularity_ns;
        // Every due entry lives in a bucket within [first, last] (deadlines
        // are >= the cached soonest); if that range wraps the wheel, scan
        // every bucket once.
        let buckets: Box<dyn Iterator<Item = u64>> = if last - first + 1 >= nslots {
            Box::new(0..nslots)
        } else {
            Box::new((first..=last).map(move |i| i % nslots))
        };
        for b in buckets {
            let slot = &mut self.slots[b as usize];
            let mut i = 0;
            while i < slot.len() {
                if slot[i].deadline_ns <= now_ns {
                    let e = slot.swap_remove(i);
                    out.push((e.token, e.gen, e.deadline_ns));
                    self.len -= 1;
                } else {
                    i += 1;
                }
            }
        }
        // Recompute the exact minimum over the surviving entries.
        self.soonest_ns = self.slots.iter().flat_map(|s| s.iter().map(|e| e.deadline_ns)).min();
    }

    /// [`insert_ns`](Self::insert_ns) taking a [`Duration`] deadline.
    pub fn insert(&mut self, deadline: Duration, token: usize, gen: u64) {
        self.insert_ns(dur_ns(deadline), token, gen);
    }
}

// ---------------------------------------------------------------------------
// Wakers
// ---------------------------------------------------------------------------

/// Tokens whose tasks may have become ready, shared between a shard and its
/// tasks' wakers.
struct ReadyQueue {
    q: Mutex<Vec<usize>>,
}

/// Per-task waker handed to [`Pollable::set_waker`]: records *which* task
/// became ready (dedup'd via `queued`) and then wakes the shard. Only
/// `set`/`is_set` are meaningful; a shard never waits on a task waker.
struct TaskWaker {
    token: usize,
    queued: AtomicBool,
    ready: Arc<ReadyQueue>,
    shard_sig: Arc<dyn Signal>,
}

impl Signal for TaskWaker {
    fn wait(&self, _timeout: Option<Duration>) -> bool {
        self.is_set()
    }

    fn set(&self) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            self.ready.q.lock().push(self.token);
        }
        self.shard_sig.set();
    }

    fn reset(&self) {
        self.queued.store(false, Ordering::Release);
    }

    fn is_set(&self) -> bool {
        self.queued.load(Ordering::Acquire)
    }
}

// ---------------------------------------------------------------------------
// poll(2) + self-wake pipe (real-TCP wait path)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    // std already links the platform C library; declaring poll(2) directly
    // avoids a dependency on the libc crate.
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Safe wrapper: waits until any fd is ready or `timeout_ms` passes
    /// (-1 = forever). Returns the number of ready fds.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
        if n < 0 {
            let e = std::io::Error::last_os_error();
            if e.kind() == std::io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(n as usize)
    }
}

/// Self-wake channel for the `poll(2)` wait path: a connected loopback TCP
/// pair (built purely from `std`, no `pipe(2)` binding needed). Writing one
/// byte makes the read end `POLLIN`-ready.
#[cfg(unix)]
struct WakePipe {
    tx: std::net::TcpStream,
    rx: std::net::TcpStream,
}

#[cfg(unix)]
impl WakePipe {
    fn new() -> io::Result<WakePipe> {
        let l = std::net::TcpListener::bind("127.0.0.1:0")?;
        let tx = std::net::TcpStream::connect(l.local_addr()?)?;
        let (rx, _) = l.accept()?;
        tx.set_nonblocking(true)?;
        tx.set_nodelay(true).ok();
        rx.set_nonblocking(true)?;
        Ok(WakePipe { tx, rx })
    }

    fn wake(&self) {
        use std::io::Write;
        // A full socket buffer is fine: the reader is already going to wake.
        let _ = (&self.tx).write(&[1u8]);
    }

    fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 256];
        while let Ok(n) = (&self.rx).read(&mut buf) {
            if n == 0 {
                break;
            }
        }
    }

    fn fd(&self) -> i32 {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// Bucket count of each shard's timer wheel.
const WHEEL_SLOTS: usize = 256;

/// Bucket width of each shard's timer wheel.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(8);

/// Tuning for a [`Reactor`].
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Number of shard threads (the fixed thread budget).
    pub threads: usize,
    /// Thread-name prefix (threads are named `{name}-{i}`).
    pub name: String,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { threads: 2, name: "reactor".to_string() }
    }
}

struct ShardShared {
    inbox: Mutex<Vec<Box<dyn Driven>>>,
    sig: Arc<dyn Signal>,
    ready: Arc<ReadyQueue>,
    /// Set by `shutdown` when it is this shard's turn to exit.
    leave: AtomicBool,
    /// Published once the shard enters fd-wait mode so submitters can wake
    /// the in-progress `poll(2)`.
    #[cfg(unix)]
    wake_pipe: Mutex<Option<Arc<WakePipe>>>,
}

impl ShardShared {
    fn wake(&self) {
        self.sig.set();
        #[cfg(unix)]
        if let Some(p) = self.wake_pipe.lock().clone() {
            p.wake();
        }
    }
}

struct ReactorInner {
    shards: Vec<Arc<ShardShared>>,
    next: AtomicUsize,
    shutdown: AtomicBool,
    live_threads: AtomicUsize,
    tasks: AtomicUsize,
    /// Set as a task ends (after it is dropped): wakes a [`ServerCore`]
    /// accept loop held at its connection limit.
    task_ended: Arc<dyn Signal>,
    /// Set by every shard as it exits.
    done_sig: Arc<dyn Signal>,
    /// One per shard, from [`Runtime::spawn_joinable`]; taken by `shutdown`.
    joins: Mutex<Vec<Box<dyn FnOnce() + Send>>>,
}

/// A fixed-thread-budget readiness reactor. Submit [`Driven`] tasks with
/// [`submit`](Reactor::submit); they are distributed round-robin over the
/// shard threads and driven until they report [`DriveOutcome::Done`].
pub struct Reactor {
    inner: Arc<ReactorInner>,
}

impl Reactor {
    /// Spawn `cfg.threads` shard threads on `rt` and return the handle.
    pub fn new(rt: Arc<dyn Runtime>, cfg: ReactorConfig) -> Reactor {
        let threads = cfg.threads.max(1);
        let shards: Vec<Arc<ShardShared>> = (0..threads)
            .map(|_| {
                Arc::new(ShardShared {
                    inbox: Mutex::new(Vec::new()),
                    sig: rt.signal(),
                    ready: Arc::new(ReadyQueue { q: Mutex::new(Vec::new()) }),
                    leave: AtomicBool::new(false),
                    #[cfg(unix)]
                    wake_pipe: Mutex::new(None),
                })
            })
            .collect();
        let inner = Arc::new(ReactorInner {
            shards: shards.clone(),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            live_threads: AtomicUsize::new(threads),
            tasks: AtomicUsize::new(0),
            task_ended: rt.signal(),
            done_sig: rt.signal(),
            joins: Mutex::new(Vec::new()),
        });
        for (i, shard) in shards.into_iter().enumerate() {
            let inner2 = Arc::clone(&inner);
            let rt2 = Arc::clone(&rt);
            let join = rt.spawn_joinable(
                &format!("{}-{i}", cfg.name),
                Box::new(move || shard_main(shard, inner2, rt2)),
            );
            inner.joins.lock().push(join);
        }
        Reactor { inner }
    }

    /// Hand a task to a shard (round-robin). During shutdown the task is
    /// asked to finish immediately instead of being dropped on the floor.
    pub fn submit(&self, mut task: Box<dyn Driven>) {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            task.begin_shutdown();
        }
        self.inner.tasks.fetch_add(1, Ordering::SeqCst);
        let i = self.inner.next.fetch_add(1, Ordering::Relaxed) % self.inner.shards.len();
        let shard = &self.inner.shards[i];
        shard.inbox.lock().push(task);
        shard.wake();
    }

    /// Number of shard threads still running.
    pub fn live_threads(&self) -> usize {
        self.inner.live_threads.load(Ordering::SeqCst)
    }

    /// Number of tasks currently owned by the reactor (queued or driven).
    pub fn tasks(&self) -> usize {
        self.inner.tasks.load(Ordering::SeqCst)
    }

    /// Stop the reactor: every task is asked to finish (in-flight
    /// requests complete, idle connections close), then the shard threads
    /// exit. Blocks until all shards have terminated.
    ///
    /// The shards drain side by side but leave one at a time, last created
    /// first, each joined before the next is let go. What a thread leaves
    /// behind on exit (the C allocator parks its arena for the next new
    /// thread to pick up, most recently parked first) is then the same after
    /// every shutdown instead of following whichever shard won the race out.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for s in &self.inner.shards {
            s.wake();
        }
        let mut joins = std::mem::take(&mut *self.inner.joins.lock());
        for (i, s) in self.inner.shards.iter().enumerate().rev() {
            s.leave.store(true, Ordering::SeqCst);
            s.wake();
            while self.inner.live_threads.load(Ordering::SeqCst) > i {
                self.inner.done_sig.wait(Some(Duration::from_millis(50)));
                self.inner.done_sig.reset();
            }
            if let Some(join) = joins.pop() {
                join();
            }
        }
    }
}

struct TaskSlot {
    task: Box<dyn Driven>,
    gen: u64,
    /// Deadline (ns) of the wheel entry currently armed for this task, if
    /// any. Lazy re-arm: when the task's real deadline moves *later*, the
    /// old entry stays and fizzles on fire; only an *earlier* deadline
    /// inserts a new entry.
    armed: Option<u64>,
    waker: Option<Arc<TaskWaker>>,
}

/// Re-arm `slot`'s wheel entry if its task's deadline is earlier than (or
/// not covered by) the armed one.
fn rearm(token: usize, slot: &mut TaskSlot, wheel: &mut TimerWheel) {
    if let Some(d) = slot.task.deadline() {
        let d_ns = dur_ns(d);
        let covered = matches!(slot.armed, Some(a) if a <= d_ns);
        if !covered {
            wheel.insert_ns(d_ns, token, slot.gen);
            slot.armed = Some(d_ns);
        }
    }
}

fn shard_main(shard: Arc<ShardShared>, inner: Arc<ReactorInner>, rt: Arc<dyn Runtime>) {
    let mut slots: Slab<TaskSlot> = Slab::new();
    let mut wheel = TimerWheel::new(WHEEL_SLOTS, WHEEL_GRANULARITY);
    let mut gen_counter: u64 = 0;
    let mut shutdown_seen = false;
    let mut expired: Vec<(usize, u64, u64)> = Vec::new();
    let mut to_drive: Vec<usize> = Vec::new();
    #[cfg(unix)]
    let mut pollfds: Vec<sys::PollFd> = Vec::new();
    #[cfg(unix)]
    let mut polltokens: Vec<usize> = Vec::new();

    loop {
        shard.sig.reset();

        // New tasks.
        let newcomers: Vec<Box<dyn Driven>> = std::mem::take(&mut *shard.inbox.lock());
        for mut task in newcomers {
            gen_counter += 1;
            if inner.shutdown.load(Ordering::SeqCst) {
                task.begin_shutdown();
            }
            let gen = gen_counter;
            let token = slots.insert(TaskSlot { task, gen, armed: None, waker: None });
            let waker = Arc::new(TaskWaker {
                token,
                queued: AtomicBool::new(false),
                ready: Arc::clone(&shard.ready),
                shard_sig: Arc::clone(&shard.sig),
            });
            let slot = slots.get_mut(token).expect("just inserted");
            slot.task.set_waker(Some(waker.clone() as Arc<dyn Signal>));
            slot.waker = Some(waker);
            to_drive.push(token);
        }

        // Shutdown broadcast (once).
        if inner.shutdown.load(Ordering::SeqCst) && !shutdown_seen {
            shutdown_seen = true;
            for (token, slot) in slots.iter_mut() {
                slot.task.begin_shutdown();
                to_drive.push(token);
            }
        }

        // Readiness wakes since the last sweep.
        {
            let mut q = shard.ready.q.lock();
            to_drive.append(&mut q);
        }
        // Clear dedup flags *before* driving so wakes arriving mid-drive
        // queue a fresh sweep (level-triggered: a redundant drive is fine).
        for &t in &to_drive {
            if let Some(slot) = slots.get(t) {
                if let Some(w) = &slot.waker {
                    w.queued.store(false, Ordering::Release);
                }
            }
        }

        // Expired timers.
        let now_ns = dur_ns(rt.now());
        expired.clear();
        wheel.expire_ns(now_ns, &mut expired);
        for &(token, gen, entry_deadline) in &expired {
            let Some(slot) = slots.get_mut(token) else { continue };
            if slot.gen != gen {
                continue; // stale entry of a departed task: lazy cancellation
            }
            if slot.armed == Some(entry_deadline) {
                slot.armed = None;
            }
            match slot.task.deadline() {
                Some(d) if dur_ns(d) <= now_ns => to_drive.push(token),
                // Deadline moved later (keep-alive activity): re-arm lazily
                // now that the old entry has fired.
                _ => rearm(token, slot, &mut wheel),
            }
        }

        // Drive.
        to_drive.sort_unstable();
        to_drive.dedup();
        for token in to_drive.drain(..) {
            let Some(slot) = slots.get_mut(token) else { continue };
            match slot.task.drive(rt.now()) {
                DriveOutcome::Continue => rearm(token, slot, &mut wheel),
                DriveOutcome::Done => {
                    let mut slot = slots.remove(token).expect("slot exists");
                    slot.task.set_waker(None);
                    drop(slot); // the task's stream closes before it stops counting
                    inner.tasks.fetch_sub(1, Ordering::SeqCst);
                    inner.task_ended.set();
                }
            }
        }

        if shutdown_seen
            && slots.len() == 0
            && shard.inbox.lock().is_empty()
            && shard.leave.load(Ordering::SeqCst)
        {
            break;
        }

        // Wait for the next wake: poll(2) when every task has an fd,
        // otherwise the shard signal (simulated transport).
        let now_ns = dur_ns(rt.now());
        let timeout = wheel.next_deadline_ns().map(|d| d.saturating_sub(now_ns));
        #[cfg(unix)]
        let fd_mode = slots.len() > 0 && slots.iter().all(|(_, s)| s.task.poll_fd().is_some());
        #[cfg(not(unix))]
        let fd_mode = false;
        if fd_mode {
            #[cfg(unix)]
            {
                let pipe = {
                    let mut guard = shard.wake_pipe.lock();
                    match &*guard {
                        Some(p) => Arc::clone(p),
                        None => match WakePipe::new() {
                            Ok(p) => {
                                let p = Arc::new(p);
                                *guard = Some(Arc::clone(&p));
                                p
                            }
                            Err(_) => {
                                // Can't build a wake channel: fall back to a
                                // short signal wait rather than risk missing
                                // a submission.
                                drop(guard);
                                shard.sig.wait(Some(Duration::from_millis(5)));
                                continue;
                            }
                        },
                    }
                };
                // Submissions after the pipe is published write a wake byte;
                // re-check for ones that raced the publication.
                if !shard.inbox.lock().is_empty()
                    || !shard.ready.q.lock().is_empty()
                    || inner.shutdown.load(Ordering::SeqCst) != shutdown_seen
                {
                    continue;
                }
                pollfds.clear();
                polltokens.clear();
                pollfds.push(sys::PollFd { fd: pipe.fd(), events: sys::POLLIN, revents: 0 });
                polltokens.push(usize::MAX);
                for (token, slot) in slots.iter() {
                    let fd = slot.task.poll_fd().expect("fd_mode checked");
                    let mut events = sys::POLLIN;
                    if slot.task.wants_write() {
                        events |= sys::POLLOUT;
                    }
                    pollfds.push(sys::PollFd { fd, events, revents: 0 });
                    polltokens.push(token);
                }
                let timeout_ms: i32 = match timeout {
                    Some(t) => (t.div_ceil(1_000_000)).min(i32::MAX as u64) as i32,
                    None => -1,
                };
                let _ = sys::poll_fds(&mut pollfds, timeout_ms);
                // poll(2) is level-triggered: the pipe reads as ready exactly
                // when a wake byte is in it, so an idle pipe costs no read.
                if pollfds[0].revents != 0 {
                    pipe.drain();
                }
                for (i, pfd) in pollfds.iter().enumerate().skip(1) {
                    if pfd.revents != 0 {
                        to_drive.push(polltokens[i]);
                    }
                }
            }
        } else {
            shard.sig.wait(timeout.map(Duration::from_nanos));
        }
    }

    inner.live_threads.fetch_sub(1, Ordering::SeqCst);
    inner.done_sig.set();
}

// ---------------------------------------------------------------------------
// Server core: accept loops feeding one reactor
// ---------------------------------------------------------------------------

/// The reactor and listeners of a serving [`ServerCore`] (created on the
/// first `serve`, torn down by `stop`).
struct Serving {
    /// Its tasks are the open connections.
    reactor: Arc<Reactor>,
    listeners: Vec<Arc<dyn Listener>>,
    /// One per accept thread, from [`Runtime::spawn_joinable`].
    accept_joins: Vec<Box<dyn FnOnce() + Send>>,
}

/// What every server here runs on: one accept thread per listener, which
/// stops accepting while `max_connections` are open, feeding one reactor
/// whose shard threads drive every connection as a [`Driven`] task. The
/// servers differ only in the task they make of an accepted stream.
pub struct ServerCore {
    name: String,
    shards: ReactorConfig,
    max_connections: usize,
    stopping: Arc<AtomicBool>,
    serving: Mutex<Option<Serving>>,
}

impl ServerCore {
    /// A core with `threads` shard threads named `{name}-shard-{i}` and
    /// accept threads named `{name}-accept`; nothing runs until
    /// [`serve`](ServerCore::serve).
    pub fn new(name: &str, threads: usize, max_connections: usize) -> ServerCore {
        ServerCore {
            name: name.to_string(),
            shards: ReactorConfig { threads, name: format!("{name}-shard") },
            max_connections,
            stopping: Arc::new(AtomicBool::new(false)),
            serving: Mutex::new(None),
        }
    }

    /// Serve connections from `listener`. Returns immediately: an accept
    /// thread hands each accepted stream, its peer's name and the number of
    /// connections now open (it included) to `accept`, and submits the task
    /// it makes to the core's reactor — created by the first call, shared by
    /// later ones.
    pub fn serve(
        &self,
        listener: Box<dyn Listener>,
        rt: Arc<dyn Runtime>,
        accept: impl Fn(BoxedStream, String, usize) -> Box<dyn Driven> + Send + 'static,
    ) {
        let listener: Arc<dyn Listener> = Arc::from(listener);
        let reactor = {
            let mut guard = self.serving.lock();
            let serving = guard.get_or_insert_with(|| Serving {
                reactor: Arc::new(Reactor::new(Arc::clone(&rt), self.shards.clone())),
                listeners: Vec::new(),
                accept_joins: Vec::new(),
            });
            serving.listeners.push(Arc::clone(&listener));
            Arc::clone(&serving.reactor)
        };
        let (stopping, max) = (Arc::clone(&self.stopping), self.max_connections);
        let accept_loop = move || reactor.accept_loop(&*listener, &stopping, max, accept);
        let join = rt.spawn_joinable(&format!("{}-accept", self.name), Box::new(accept_loop));
        // `None`: a `stop` came in between and closed this listener, so the
        // thread ends by itself.
        if let Some(serving) = self.serving.lock().as_mut() {
            serving.accept_joins.push(join);
        }
    }

    /// Stop serving: closes every listener, asks in-flight connections to
    /// finish their current requests, and blocks until the reactor's shard
    /// threads have drained and exited. Threads go in reverse order of
    /// creation, accept threads first, each joined (where the runtime can
    /// join) before the next: nothing of the server is then still running
    /// or still holds what the connections were made from, so that is freed
    /// when the caller drops it and not whenever an accept thread gets round
    /// to noticing that its listener closed.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        let serving = self.serving.lock().take();
        if let Some(s) = serving {
            for l in &s.listeners {
                l.close();
            }
            s.reactor.inner.task_ended.set(); // release a backpressured accept loop
            for join in s.accept_joins.into_iter().rev() {
                join();
            }
            s.reactor.shutdown();
        }
    }

    /// Number of reactor shard threads still running (0 before the first
    /// `serve` and after `stop`).
    pub fn live_threads(&self) -> usize {
        self.serving.lock().as_ref().map(|s| s.reactor.live_threads()).unwrap_or(0)
    }
}

impl Reactor {
    /// A [`ServerCore`] accept thread: every stream `listener` accepts
    /// becomes a task, while fewer than `max` are open and until `stopping`.
    fn accept_loop(
        &self,
        listener: &dyn Listener,
        stopping: &AtomicBool,
        max: usize,
        accept: impl Fn(BoxedStream, String, usize) -> Box<dyn Driven>,
    ) {
        while !stopping.load(Ordering::SeqCst) {
            // Backpressure: hold off accepting (the kernel/simulator queues
            // or refuses newcomers) until a connection closes.
            if self.tasks() >= max {
                self.inner.task_ended.reset();
                if self.tasks() >= max {
                    self.inner.task_ended.wait(Some(Duration::from_millis(50)));
                }
                continue;
            }
            let Ok((stream, peer)) = listener.accept() else { return }; // listener closed
            if stopping.load(Ordering::SeqCst) {
                return;
            }
            self.submit(accept(stream, peer, self.tasks() + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{BoxedStream, Connector, Listener};
    use crate::{SimNet, TcpConnector, TcpListenerWrap};
    use std::io::{Read, Write};

    // -- timer wheel ------------------------------------------------------

    #[test]
    fn wheel_fires_due_entries_and_keeps_future_ones() {
        let mut w = TimerWheel::new(8, Duration::from_millis(10));
        w.insert(Duration::from_millis(5), 1, 1);
        w.insert(Duration::from_millis(25), 2, 1);
        w.insert(Duration::from_millis(500), 3, 1); // far future: wraps the wheel
        assert_eq!(w.next_deadline_ns(), Some(5_000_000));
        let mut out = Vec::new();
        w.expire_ns(dur_ns(Duration::from_millis(10)), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
        assert_eq!(w.len(), 2);
        assert_eq!(w.next_deadline_ns(), Some(25_000_000));
        out.clear();
        w.expire_ns(dur_ns(Duration::from_millis(600)), &mut out);
        let mut tokens: Vec<usize> = out.iter().map(|e| e.0).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![2, 3]);
        assert!(w.is_empty());
        assert_eq!(w.next_deadline_ns(), None);
    }

    #[test]
    fn wheel_generation_marks_stale_entries() {
        let mut w = TimerWheel::new(4, Duration::from_millis(1));
        w.insert(Duration::from_millis(1), 7, 1);
        w.insert(Duration::from_millis(1), 7, 2);
        let mut out = Vec::new();
        w.expire_ns(dur_ns(Duration::from_millis(2)), &mut out);
        // Both fire; the consumer distinguishes live from stale by gen.
        assert_eq!(out.len(), 2);
        let gens: Vec<u64> = out.iter().map(|e| e.1).collect();
        assert!(gens.contains(&1) && gens.contains(&2));
    }

    #[test]
    fn wheel_same_bucket_different_rotation() {
        // Two entries hash to the same bucket but one is a full rotation
        // later; only the earlier one may fire early.
        let mut w = TimerWheel::new(4, Duration::from_millis(10));
        w.insert(Duration::from_millis(10), 1, 1);
        w.insert(Duration::from_millis(50), 2, 1); // same bucket (1) next lap
        let mut out = Vec::new();
        w.expire_ns(dur_ns(Duration::from_millis(12)), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 1);
        out.clear();
        w.expire_ns(dur_ns(Duration::from_millis(50)), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 2);
    }

    // -- an echo task used by the reactor tests ---------------------------

    struct EchoTask {
        stream: BoxedStream,
        pending: Vec<u8>,
        sent: usize,
        eof: bool,
        closing: bool,
    }

    impl EchoTask {
        fn new(stream: BoxedStream) -> Self {
            EchoTask { stream, pending: Vec::new(), sent: 0, eof: false, closing: false }
        }
    }

    impl Driven for EchoTask {
        fn drive(&mut self, _now: Duration) -> DriveOutcome {
            loop {
                // Flush.
                while self.sent < self.pending.len() {
                    match self.stream.try_write(&self.pending[self.sent..]) {
                        Ok(n) => self.sent += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return DriveOutcome::Continue;
                        }
                        Err(_) => return DriveOutcome::Done,
                    }
                }
                if self.sent == self.pending.len() {
                    self.pending.clear();
                    self.sent = 0;
                }
                if self.eof || (self.closing && self.pending.is_empty()) {
                    return DriveOutcome::Done;
                }
                // Read.
                let mut buf = [0u8; 4096];
                match self.stream.try_read(&mut buf) {
                    Ok(0) => {
                        self.eof = true;
                        if self.pending.is_empty() {
                            return DriveOutcome::Done;
                        }
                    }
                    Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return DriveOutcome::Continue;
                    }
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
            self.stream.poll_fd()
        }

        fn wants_write(&self) -> bool {
            self.sent < self.pending.len()
        }

        fn begin_shutdown(&mut self) {
            self.closing = true;
        }
    }

    fn echo_roundtrip(mut client: BoxedStream) {
        client.write_all(b"ping-reactor").unwrap();
        let mut buf = [0u8; 12];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping-reactor");
    }

    #[test]
    fn reactor_echo_over_sim() {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let rt = net.runtime();
        let reactor = Arc::new(Reactor::new(
            rt.clone() as Arc<dyn Runtime>,
            ReactorConfig { threads: 1, ..Default::default() },
        ));
        let listener = net.bind("s", 80).unwrap();
        let r2 = Arc::clone(&reactor);
        net.spawn("accept", move || {
            let (s, _) = listener.accept_sim().unwrap();
            r2.submit(Box::new(EchoTask::new(Box::new(s))));
        });
        let _g = net.enter();
        let c = net.connect("c", "s", 80).unwrap();
        echo_roundtrip(Box::new(c));
        assert_eq!(reactor.live_threads(), 1);
        reactor.shutdown();
        assert_eq!(reactor.live_threads(), 0);
        assert_eq!(reactor.tasks(), 0);
    }

    /// A real runtime that notes each joinable thread at two moments: when
    /// its closure returns, and when its join returns.
    struct Noting {
        inner: crate::RealRuntime,
        log: Arc<Mutex<Vec<String>>>,
    }

    impl Runtime for Noting {
        fn now(&self) -> Duration {
            self.inner.now()
        }
        fn sleep(&self, d: Duration) {
            self.inner.sleep(d)
        }
        fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
            self.inner.spawn(name, f)
        }
        fn spawn_joinable(
            &self,
            name: &str,
            f: Box<dyn FnOnce() + Send>,
        ) -> Box<dyn FnOnce() + Send> {
            let (ended, joined) = (format!("{name} ended"), format!("{name} joined"));
            let (log, log2) = (Arc::clone(&self.log), Arc::clone(&self.log));
            let join = self.inner.spawn_joinable(
                name,
                Box::new(move || {
                    f();
                    log.lock().push(ended);
                }),
            );
            Box::new(move || {
                join();
                log2.lock().push(joined);
            })
        }
        fn signal(&self) -> Arc<dyn Signal> {
            self.inner.signal()
        }
    }

    #[test]
    fn shutdown_lets_shards_go_last_created_first_each_joined_before_the_next() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let rt = Arc::new(Noting { inner: crate::RealRuntime::new(), log: Arc::clone(&log) });
        let reactor = Reactor::new(rt, ReactorConfig { threads: 3, ..Default::default() });
        reactor.shutdown();
        assert_eq!(reactor.live_threads(), 0);
        let want: Vec<String> = [2, 1, 0]
            .iter()
            .flat_map(|i| [format!("reactor-{i} ended"), format!("reactor-{i} joined")])
            .collect();
        assert_eq!(*log.lock(), want);
    }

    #[test]
    fn reactor_echo_over_real_tcp() {
        let rt: Arc<dyn Runtime> = Arc::new(crate::RealRuntime::new());
        let reactor = Arc::new(Reactor::new(
            Arc::clone(&rt),
            ReactorConfig { threads: 1, ..Default::default() },
        ));
        let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        let r2 = Arc::clone(&reactor);
        std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            r2.submit(Box::new(EchoTask::new(s)));
        });
        let c = TcpConnector.connect("127.0.0.1", port, Some(Duration::from_secs(5))).unwrap();
        echo_roundtrip(c);
        reactor.shutdown();
        assert_eq!(reactor.live_threads(), 0);
    }

    #[cfg(unix)]
    #[test]
    fn wake_pipe_polls_ready_exactly_while_a_wake_byte_is_in_it() {
        let pipe = WakePipe::new().unwrap();
        let ready = |wait_ms| {
            let mut fds = [sys::PollFd { fd: pipe.fd(), events: sys::POLLIN, revents: 0 }];
            sys::poll_fds(&mut fds, wait_ms).unwrap();
            fds[0].revents != 0
        };
        assert!(!ready(0), "nothing written yet");
        pipe.wake();
        pipe.wake();
        assert!(ready(5_000));
        assert!(ready(0), "level-triggered: still ready until drained");
        pipe.drain();
        assert!(!ready(0), "one drain takes every wake byte");
    }

    #[test]
    fn a_submission_wakes_a_shard_parked_in_poll() {
        let rt: Arc<dyn Runtime> = Arc::new(crate::RealRuntime::new());
        let reactor = Reactor::new(rt, ReactorConfig { threads: 1, ..Default::default() });
        let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        // Each round leaves the shard in `poll(2)` with no timer to end the
        // wait — an echo task has no deadline — and only then submits the
        // next connection: its first drive can come from the wake byte alone.
        // Later rounds show a drained pipe wakes again.
        let mut held = Vec::new();
        for round in 0..4 {
            let c = TcpConnector.connect("127.0.0.1", port, Some(Duration::from_secs(5))).unwrap();
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(30));
            reactor.submit(Box::new(EchoTask::new(s)));
            assert_eq!(reactor.tasks(), round + 1);
            held.push(c);
            // The client speaks only after the submission: an fd the shard
            // is not yet polling cannot be what wakes it.
            let c = held.last_mut().unwrap();
            c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            c.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            c.read_exact(&mut buf).expect("the shard never picked the submission up");
            assert_eq!(&buf, b"ping");
        }
        reactor.shutdown();
        assert_eq!(reactor.live_threads(), 0);
    }

    #[test]
    fn reactor_many_sim_conns_one_thread() {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let rt = net.runtime();
        let reactor = Arc::new(Reactor::new(
            rt.clone() as Arc<dyn Runtime>,
            ReactorConfig { threads: 1, ..Default::default() },
        ));
        let listener = net.bind("s", 80).unwrap();
        let r2 = Arc::clone(&reactor);
        net.spawn("accept", move || {
            while let Ok((s, _)) = listener.accept_sim() {
                r2.submit(Box::new(EchoTask::new(Box::new(s))));
            }
        });
        let n = 64;
        let done = net.runtime().signal();
        let left = Arc::new(AtomicUsize::new(n));
        for i in 0..n {
            let net2 = net.clone();
            let done2 = Arc::clone(&done);
            let left2 = Arc::clone(&left);
            net.spawn(&format!("client-{i}"), move || {
                let mut c = net2.connect("c", "s", 80).unwrap();
                let msg = format!("hello-{i}");
                c.write_all(msg.as_bytes()).unwrap();
                let mut buf = vec![0u8; msg.len()];
                c.read_exact(&mut buf).unwrap();
                assert_eq!(buf, msg.as_bytes());
                if left2.fetch_sub(1, Ordering::SeqCst) == 1 {
                    done2.set();
                }
            });
        }
        let _g = net.enter();
        assert!(done.wait(Some(Duration::from_secs(60))));
        assert_eq!(reactor.live_threads(), 1);
        reactor.shutdown();
        assert_eq!(reactor.live_threads(), 0);
    }
}
