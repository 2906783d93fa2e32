//! Vector-clock happens-before data-race detection.
//!
//! # Model
//!
//! Every registered thread carries a sparse vector clock (VC). Each
//! synchronization object the workspace owns — a vendored `parking_lot`
//! lock, a shim atomic, a `netsim` signal, an `IoPool` job queue, a
//! spawn/join packet — carries one too, as a [`SyncObj`]. The algebra is
//! FastTrack's:
//!
//! * **release** (unlock, `Release` store, signal set, task enqueue, fork):
//!   the object's VC joins the thread's VC, then the thread ticks its own
//!   component so later work is not retroactively published;
//! * **acquire** (lock, `Acquire` load, signal wake, task dequeue, adopt):
//!   the thread's VC joins the object's VC.
//!
//! Plain shared data lives in [`crate::CheckedCell`]; each cell remembers
//! its last write epoch `(thread, clock)` and the reads since. An access
//! whose thread VC does not dominate a prior conflicting access's epoch is
//! a **data race**: reported with both sites, both thread names and epochs,
//! and the live-thread census — and panics by default (see
//! [`set_panic_on_race`] for the collect mode `sim-fuzz` uses so a race
//! becomes a seed-replayable violation instead of an abort).
//!
//! # Determinism
//!
//! The detector holds no clocks of its own: slot numbers and epoch values
//! are a pure function of the order synchronization operations execute in.
//! Inside the deterministic simulator that order is a function of the seed,
//! so a race found by `sim-fuzz` replays bit-identically
//! ([`RaceReport::stable_detail`] is the replay-stable rendering; raw
//! epochs continue across runs in one process and are excluded from it).
//!
//! # Soundness notes
//!
//! The model is deliberately conservative in the *false-negative*
//! direction, never the false-positive one: a failed CAS still publishes,
//! `RwLock` readers record full edges, and a reused thread slot continues
//! the dead thread's clock. Each of those can only add ordering that
//! over-approximates reality — so a *reported* race is always a real hole
//! in the modeled edges.

use std::fmt;

/// True when the crate was compiled with the `race-detect` feature. Runtime
/// probes (benches, canaries) branch on this instead of `cfg(...)` so they
/// need no feature plumbing of their own.
pub const fn enabled() -> bool {
    cfg!(feature = "race-detect")
}

/// One detected data race: two conflicting accesses to the same
/// [`crate::CheckedCell`] with no happens-before path between them.
///
/// The two sides are ordered by `(site, thread, epoch)` so that a report is
/// independent of which access the detector happened to see second.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// `"read"` or `"write"` for the first side.
    pub kind_a: &'static str,
    /// `file:line` of the first racing access.
    pub site_a: String,
    /// Thread name of the first racing access.
    pub thread_a: String,
    /// Epoch (`t<slot>@<clock>`) of the first racing access.
    pub epoch_a: String,
    /// `"read"` or `"write"` for the second side.
    pub kind_b: &'static str,
    /// `file:line` of the second racing access.
    pub site_b: String,
    /// Thread name of the second racing access.
    pub thread_b: String,
    /// Epoch of the second racing access.
    pub epoch_b: String,
    /// Names of the threads alive in the registry when the race was found,
    /// sorted.
    pub census: Vec<String>,
}

impl RaceReport {
    /// Full rendering, used by the panic message: sites, threads, epochs
    /// and census.
    pub fn detail(&self) -> String {
        format!(
            "data race ({}/{}): {} [{} @{}] <-> {} [{} @{}]; threads alive: [{}]",
            self.kind_a,
            self.kind_b,
            self.site_a,
            self.thread_a,
            self.epoch_a,
            self.site_b,
            self.thread_b,
            self.epoch_b,
            self.census.join(", "),
        )
    }

    /// Replay-stable rendering: sites, access kinds and thread names only.
    /// Epochs (clocks continue across runs within one process) and the
    /// census (other threads in the process come and go) are deliberately
    /// excluded so that replaying a seed reproduces this string
    /// byte-identically.
    pub fn stable_detail(&self) -> String {
        format!(
            "data race ({}/{}): {} [{}] <-> {} [{}]",
            self.kind_a, self.kind_b, self.site_a, self.thread_a, self.site_b, self.thread_b,
        )
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail())
    }
}

#[cfg(feature = "race-detect")]
mod imp {
    use super::RaceReport;
    use std::cell::{Cell as StdCell, UnsafeCell};
    use std::panic::Location;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

    /// Sparse vector clock: `(slot, clock)` pairs sorted by slot, absent
    /// slots implicitly zero.
    #[derive(Clone, Debug, Default)]
    struct Vc(Vec<(u32, u64)>);

    impl Vc {
        const fn new() -> Self {
            Vc(Vec::new())
        }

        fn get(&self, slot: u32) -> u64 {
            match self.0.binary_search_by_key(&slot, |e| e.0) {
                Ok(i) => self.0[i].1,
                Err(_) => 0,
            }
        }

        fn set(&mut self, slot: u32, v: u64) {
            match self.0.binary_search_by_key(&slot, |e| e.0) {
                Ok(i) => self.0[i].1 = v,
                Err(i) => self.0.insert(i, (slot, v)),
            }
        }

        fn tick(&mut self, slot: u32) {
            let v = self.get(slot);
            self.set(slot, v + 1);
        }

        fn join(&mut self, other: &Vc) {
            for &(s, c) in &other.0 {
                if self.get(s) < c {
                    self.set(s, c);
                }
            }
        }
    }

    struct ThreadState {
        vc: Vc,
        name: String,
        alive: bool,
    }

    /// One recorded access to a checked cell.
    struct Access {
        slot: u32,
        clock: u64,
        site: &'static Location<'static>,
        thread: String,
        kind: &'static str,
    }

    #[derive(Default)]
    struct CellState {
        last_write: Option<Access>,
        reads: Vec<Access>,
    }

    struct Registry {
        threads: Vec<ThreadState>,
        free: Vec<u32>,
        objs: Vec<Vc>,
        cells: Vec<CellState>,
        reports: Vec<RaceReport>,
        panic_on_race: bool,
    }

    static REG: StdMutex<Registry> = StdMutex::new(Registry {
        threads: Vec::new(),
        free: Vec::new(),
        objs: Vec::new(),
        cells: Vec::new(),
        reports: Vec::new(),
        panic_on_race: true,
    });

    fn lock_reg() -> StdMutexGuard<'static, Registry> {
        REG.lock().unwrap_or_else(|e| e.into_inner())
    }

    const UNREGISTERED: u32 = u32::MAX;

    struct TlsSlot {
        slot: StdCell<u32>,
    }

    impl Drop for TlsSlot {
        fn drop(&mut self) {
            let s = self.slot.get();
            if s == UNREGISTERED {
                return;
            }
            let mut reg = lock_reg();
            if let Some(t) = reg.threads.get_mut(s as usize) {
                t.alive = false;
            }
            // The slot returns to the free list with its clock intact: the
            // next thread to claim it continues from `final + 1`, so no
            // clock ever moves backwards (which could fabricate ordering).
            reg.free.push(s);
        }
    }

    thread_local! {
        static TLS: TlsSlot = const { TlsSlot { slot: StdCell::new(UNREGISTERED) } };
    }

    fn register(reg: &mut Registry, tls: &TlsSlot) -> u32 {
        let s = tls.slot.get();
        if s != UNREGISTERED {
            return s;
        }
        let name = std::thread::current().name().unwrap_or("<unnamed>").to_string();
        let s = if let Some(s) = reg.free.pop() {
            let cont = reg.threads[s as usize].vc.get(s) + 1;
            let mut vc = Vc::new();
            vc.set(s, cont);
            reg.threads[s as usize] = ThreadState { vc, name, alive: true };
            s
        } else {
            let s = reg.threads.len() as u32;
            let mut vc = Vc::new();
            vc.set(s, 1);
            reg.threads.push(ThreadState { vc, name, alive: true });
            s
        };
        tls.slot.set(s);
        s
    }

    /// Run `f` with the registry locked and the current thread registered.
    /// Returns `None` during thread-local teardown (late guard drops at
    /// thread exit), when edges are silently skipped — losing an edge can
    /// only lose ordering for a thread that is already gone.
    fn with_slot<R>(f: impl FnOnce(&mut Registry, u32) -> R) -> Option<R> {
        let mut reg = lock_reg();
        let slot = TLS.try_with(|tls| register(&mut reg, tls)).ok()?;
        Some(f(&mut reg, slot))
    }

    /// A synchronization object's vector clock, lazily allocated in the
    /// registry on first use (so `new` stays `const` and feature-off
    /// callers pay nothing).
    pub struct SyncObj {
        id: AtomicUsize,
    }

    impl SyncObj {
        /// Creates an unregistered sync object.
        pub const fn new() -> Self {
            SyncObj { id: AtomicUsize::new(0) }
        }

        fn idx(&self, reg: &mut Registry) -> usize {
            // All assignment happens under the registry lock, so the
            // relaxed load/store cannot double-allocate.
            let id = self.id.load(Ordering::Relaxed);
            if id != 0 {
                return id - 1;
            }
            reg.objs.push(Vc::new());
            let id = reg.objs.len();
            self.id.store(id, Ordering::Relaxed);
            id - 1
        }

        /// Acquire edge: the current thread's VC joins this object's VC.
        #[inline]
        pub fn acquire(&self) {
            with_slot(|reg, s| {
                let i = self.idx(reg);
                let ovc = reg.objs[i].clone();
                reg.threads[s as usize].vc.join(&ovc);
            });
        }

        /// Release edge: this object's VC joins the current thread's VC,
        /// then the thread ticks its own component.
        #[inline]
        pub fn release(&self) {
            with_slot(|reg, s| {
                let i = self.idx(reg);
                let tvc = reg.threads[s as usize].vc.clone();
                reg.objs[i].join(&tvc);
                reg.threads[s as usize].vc.tick(s);
            });
        }
    }

    impl Default for SyncObj {
        fn default() -> Self {
            SyncObj::new()
        }
    }

    /// A one-shot vector-clock snapshot carried across a thread boundary:
    /// spawn (parent [`fork_packet`] → child [`adopt_packet`]) and join
    /// (exiting thread packet → joiner adopt) use the same mechanism.
    pub struct Packet {
        vc: Vc,
    }

    /// Snapshot the current thread's VC (and tick, so work after the fork
    /// point is not retroactively published to the adopter).
    pub fn fork_packet() -> Packet {
        with_slot(|reg, s| {
            let vc = reg.threads[s as usize].vc.clone();
            reg.threads[s as usize].vc.tick(s);
            Packet { vc }
        })
        .unwrap_or(Packet { vc: Vc::new() })
    }

    /// Join a packet's VC into the current thread: everything the packet's
    /// creator did before the snapshot now happens-before this thread.
    pub fn adopt_packet(p: &Packet) {
        with_slot(|reg, s| {
            let vc = p.vc.clone();
            reg.threads[s as usize].vc.join(&vc);
        });
    }

    /// When `true` (the default) a detected race panics at the access with
    /// the full [`RaceReport::detail`]. `sim-fuzz` switches to `false` so
    /// races are collected via [`take_reports`] and surface as seeded,
    /// replayable invariant violations instead.
    pub fn set_panic_on_race(on: bool) {
        lock_reg().panic_on_race = on;
    }

    /// Drain every race collected so far (reports are deduplicated on the
    /// racing site pair, keeping the first occurrence).
    pub fn take_reports() -> Vec<RaceReport> {
        std::mem::take(&mut lock_reg().reports)
    }

    /// Names of the live registered threads, sorted.
    pub fn census() -> Vec<String> {
        census_of(&lock_reg())
    }

    fn census_of(reg: &Registry) -> Vec<String> {
        let mut names: Vec<String> =
            reg.threads.iter().filter(|t| t.alive).map(|t| t.name.clone()).collect();
        names.sort();
        names
    }

    /// Record a race between `prev` and the current access; returns the
    /// panic detail when panic mode is on.
    fn note_race(reg: &mut Registry, prev: &Access, cur: &Access) -> Option<String> {
        let side = |a: &Access| {
            (
                format!("{}:{}", a.site.file(), a.site.line()),
                a.kind,
                a.thread.clone(),
                format!("t{}@{}", a.slot, a.clock),
            )
        };
        let (mut x, mut y) = (side(prev), side(cur));
        if (&x.0, &x.2, &x.3) > (&y.0, &y.2, &y.3) {
            std::mem::swap(&mut x, &mut y);
        }
        let report = RaceReport {
            kind_a: x.1,
            site_a: x.0,
            thread_a: x.2,
            epoch_a: x.3,
            kind_b: y.1,
            site_b: y.0,
            thread_b: y.2,
            epoch_b: y.3,
            census: census_of(reg),
        };
        let dup = reg.reports.iter().any(|r| {
            r.site_a == report.site_a
                && r.site_b == report.site_b
                && r.kind_a == report.kind_a
                && r.kind_b == report.kind_b
        });
        let detail = report.detail();
        if !dup {
            reg.reports.push(report);
        }
        reg.panic_on_race.then_some(detail)
    }

    /// A checked cell's identity in the registry, lazily allocated like
    /// [`SyncObj`].
    pub(crate) struct CellId {
        id: AtomicUsize,
    }

    impl CellId {
        /// Creates an unregistered cell id.
        pub(crate) const fn new() -> Self {
            CellId { id: AtomicUsize::new(0) }
        }

        fn idx(&self, reg: &mut Registry) -> usize {
            let id = self.id.load(Ordering::Relaxed);
            if id != 0 {
                return id - 1;
            }
            reg.cells.push(CellState::default());
            let id = reg.cells.len();
            self.id.store(id, Ordering::Relaxed);
            id - 1
        }

        fn access(
            reg: &mut Registry,
            slot: u32,
            site: &'static Location<'static>,
            kind: &'static str,
        ) -> Access {
            let t = &reg.threads[slot as usize];
            Access { slot, clock: t.vc.get(slot), site, thread: t.name.clone(), kind }
        }

        /// Checked read of the cell data. The raw read happens under the
        /// registry lock, so even a racing access is defined behavior.
        #[allow(unsafe_code)]
        pub(crate) fn read<T: Copy>(
            &self,
            cell: &UnsafeCell<T>,
            site: &'static Location<'static>,
        ) -> T {
            let res = with_slot(|reg, s| {
                let i = self.idx(reg);
                let me = Self::access(reg, s, site, "read");
                let vc = reg.threads[s as usize].vc.clone();
                let mut boom = None;
                if let Some(w) = reg.cells[i].last_write.take() {
                    if w.slot != s && vc.get(w.slot) < w.clock {
                        boom = note_race(reg, &w, &me);
                    }
                    reg.cells[i].last_write = Some(w);
                }
                reg.cells[i].reads.retain(|r| r.slot != s);
                reg.cells[i].reads.push(me);
                // SAFETY: every checked access to a cell runs under the
                // registry lock this closure holds, so no write overlaps
                // this read; `T: Copy`, so the read moves nothing out.
                (unsafe { *cell.get() }, boom)
            });
            match res {
                Some((v, None)) => v,
                Some((v, Some(detail))) => {
                    let _ = v;
                    panic!("race-detect: {detail}");
                }
                // Thread-local teardown: fall back to the raw read.
                // SAFETY: the caller's ordering contract (see `CheckedCell`),
                // trusted here as in a build without the detector.
                None => unsafe { *cell.get() },
            }
        }

        /// Checked write of the cell data; see [`CellId::read`].
        #[allow(unsafe_code)]
        pub(crate) fn write<T>(
            &self,
            cell: &UnsafeCell<T>,
            v: T,
            site: &'static Location<'static>,
        ) {
            let res = with_slot(|reg, s| {
                let i = self.idx(reg);
                let me = Self::access(reg, s, site, "write");
                let vc = reg.threads[s as usize].vc.clone();
                let mut boom = None;
                if let Some(w) = reg.cells[i].last_write.take() {
                    if w.slot != s && vc.get(w.slot) < w.clock {
                        boom = note_race(reg, &w, &me);
                    }
                }
                let reads = std::mem::take(&mut reg.cells[i].reads);
                for r in &reads {
                    if r.slot != s && vc.get(r.slot) < r.clock {
                        if let Some(d) = note_race(reg, r, &me) {
                            boom.get_or_insert(d);
                        }
                    }
                }
                reg.cells[i].last_write = Some(me);
                // SAFETY: as in `read`, the registry lock serializes every
                // checked access, so nothing else reads or writes the cell
                // during this store.
                unsafe {
                    *cell.get() = v;
                }
                boom
            });
            if let Some(Some(detail)) = res {
                panic!("race-detect: {detail}");
            }
        }
    }

    impl Default for CellId {
        fn default() -> Self {
            CellId::new()
        }
    }
}

#[cfg(feature = "race-detect")]
pub use imp::*;

#[cfg(not(feature = "race-detect"))]
mod stub {
    use super::RaceReport;
    use std::cell::UnsafeCell;
    use std::panic::Location;

    /// Zero-sized no-op stand-in; see the `race-detect` build for the real
    /// thing.
    #[derive(Default)]
    pub struct SyncObj;

    impl SyncObj {
        /// No-op.
        pub const fn new() -> Self {
            SyncObj
        }

        /// No-op.
        #[inline(always)]
        pub fn acquire(&self) {}

        /// No-op.
        #[inline(always)]
        pub fn release(&self) {}
    }

    /// Zero-sized no-op stand-in for the spawn/join clock snapshot.
    pub struct Packet;

    /// No-op.
    #[inline(always)]
    pub fn fork_packet() -> Packet {
        Packet
    }

    /// No-op.
    #[inline(always)]
    pub fn adopt_packet(_p: &Packet) {}

    /// No-op.
    #[inline(always)]
    pub fn set_panic_on_race(_on: bool) {}

    /// Always empty.
    #[inline(always)]
    pub fn take_reports() -> Vec<RaceReport> {
        Vec::new()
    }

    /// Always empty.
    #[inline(always)]
    pub fn census() -> Vec<String> {
        Vec::new()
    }

    /// Zero-sized no-op stand-in; accesses go straight to the cell.
    #[derive(Default)]
    pub(crate) struct CellId;

    impl CellId {
        /// No-op.
        pub(crate) const fn new() -> Self {
            CellId
        }

        /// Raw read — the caller's ordering contract is trusted.
        #[inline(always)]
        #[allow(unsafe_code)]
        pub(crate) fn read<T: Copy>(
            &self,
            cell: &UnsafeCell<T>,
            _site: &'static Location<'static>,
        ) -> T {
            // SAFETY: `CheckedCell`'s contract: the caller orders every
            // write before this read by a happens-before edge.
            unsafe { *cell.get() }
        }

        /// Raw write — the caller's ordering contract is trusted.
        #[inline(always)]
        #[allow(unsafe_code)]
        pub(crate) fn write<T>(
            &self,
            cell: &UnsafeCell<T>,
            v: T,
            _site: &'static Location<'static>,
        ) {
            // SAFETY: `CheckedCell`'s contract: the caller orders every
            // other access to the cell before or after this write.
            unsafe {
                *cell.get() = v;
            }
        }
    }
}

#[cfg(not(feature = "race-detect"))]
pub use stub::*;
