//! The TreeCache: vectored basket fetching with optional asynchronous
//! prefetch of the next event window.
//!
//! This reproduces ROOT's `TTreeCache` role in the paper's Figure 3: the
//! analysis asks for branch values event by event; the cache translates that
//! into *one vectored read per event window* through
//! [`RandomAccess::read_vec`](ioapi::RandomAccess::read_vec). With
//! [`TreeCacheOptions::prefetch`] the cache also issues the *next* window's
//! read on a runtime thread while the application processes the current one,
//! over any source — the latency hiding Figure 4 credits to the baseline's
//! sliding-window buffering (see [the prefetch](#the-prefetch)).
//!
//! # The window table
//!
//! Every branch stores the same events in its `k`-th basket (the writer cuts
//! all branches every `events_per_basket` events), so a basket is named by
//! its branch and its *ordinal* `k = event / events_per_basket`. The cache
//! holds decoded baskets in a table addressed by position: one row per
//! branch, slot `k - first_ord` of a row for ordinal `k`, `first_ord` being
//! the ordinal of the current window's first event. A look-up is a
//! subtraction and an index, and it happens once per *run* of events that
//! share their baskets — [`TreeCache::load`] makes the baskets resident,
//! [`TreeCache::column`] lends them as [`Column`]s, and [`Column::run_bytes`]
//! lends the bytes of a whole run, checked once at its first and last
//! event, from which the caller reads every value. With 20-event baskets
//! that is one look-up and one bounds check per branch per 20 events where
//! a per-value interface costs one of each per value (half a million per
//! pass of the `analysis_sparse` benchmark, about three quarters of its time
//! before this table existed).
//!
//! # Baskets as received
//!
//! A window's blobs arrive from
//! [`read_vec`](ioapi::RandomAccess::read_vec) one buffer each, and the
//! cache takes them by value. A basket stored raw is CRC-checked and becomes
//! its column in that same buffer, its 16-byte frame header dropped in place
//! ([`codec::decompress_owned`](crate::codec::decompress_owned)): no
//! allocation, no free and no copy into a second buffer per basket. An LZSS
//! basket is decoded into a buffer of its own, as ever.
//!
//! Windows are counted in events, baskets are not aligned to them: with 20
//! events a basket and 50 a window, basket 2 (events 40–59) belongs to
//! windows 0 and 1. Moving to a window re-addresses each row and *keeps* the
//! baskets both windows hold, so a straddling basket is fetched once, by
//! the window that needed it first, and the fragment list of every vectored
//! read is what it has always been: the not-yet-resident baskets of the
//! window, in file order. That list is the wire — `Range` header, multipart
//! body and every virtual-time figure derive from it — and
//! `window_loads_put_the_same_fragments_on_the_wire` pins it against a
//! plain reimplementation.
//!
//! # The prefetch
//!
//! With [`TreeCacheOptions::prefetch`], loading window *w* ends by starting
//! one [`Runtime::spawn`] thread that issues the `read_vec` for window
//! *w*+1: the fragment list a synchronous load of that window would send,
//! its non-resident baskets in file order. The caller computes over window
//! *w* meanwhile. The next window load waits for that read: it takes the
//! blobs when the fragment list it needs is the prefetched one (an error
//! from that read is the window's error), and issues its own read
//! otherwise. At most one prefetch is in flight, and dropping the cache
//! waits for it. The source needs nothing for this: what it costs on the
//! wire is exactly the vectored reads of a cache without prefetch.

use crate::reader::{bad, TreeReader};
use netsim::{Runtime, Signal};
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;

/// Cache tuning.
#[derive(Debug, Clone)]
pub struct TreeCacheOptions {
    /// Events per fetch window (how many events' baskets are gathered into
    /// one vectored read). ROOT sizes its cache in bytes; we size in events
    /// for determinism.
    pub window_events: u64,
    /// Master switch: `false` = no gathering, every basket is fetched with
    /// its own scalar read on demand (the pre-TTreeCache world; ablation A2).
    pub enabled: bool,
    /// Read the following window on a runtime thread while the caller
    /// works through the current one (see [the prefetch](self#the-prefetch)).
    pub prefetch: bool,
}

impl Default for TreeCacheOptions {
    fn default() -> Self {
        TreeCacheOptions { window_events: 2_000, enabled: true, prefetch: false }
    }
}

/// One resident decoded basket: the values of one branch for a run of
/// consecutive events. Every read is bounds-checked against the basket, so
/// an index that lies about where events live yields an error.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    bytes: &'a [u8],
    first_event: u64,
}

impl<'a> Column<'a> {
    /// The bytes of `events`, `width` each and back to back: the first and
    /// the last event are checked, once for the whole run, and the caller
    /// reads every value of it from the slice.
    pub fn run_bytes(&self, events: std::ops::Range<u64>, width: usize) -> io::Result<&'a [u8]> {
        let at = |event: u64| {
            usize::try_from(event.checked_sub(self.first_event)?).ok()?.checked_mul(width)
        };
        at(events.start)
            .zip(at(events.end))
            .and_then(|(start, end)| self.bytes.get(start..end))
            .ok_or_else(|| {
                bad(format!("events {}..{} outside their basket", events.start, events.end))
            })
    }

    /// The `width` bytes of `event`.
    fn value(&self, event: u64, width: usize) -> io::Result<&'a [u8]> {
        let end = event.checked_add(1).ok_or_else(|| bad("event number overflows"))?;
        self.run_bytes(event..end, width)
    }

    /// Read an `f32` branch value.
    pub fn f32(&self, event: u64) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.value(event, 4)?.try_into().expect("4 bytes")))
    }

    /// Read an `i8` branch value.
    pub fn i8(&self, event: u64) -> io::Result<i8> {
        Ok(self.value(event, 1)?[0] as i8)
    }

    /// Read a `u16` branch value.
    pub fn u16(&self, event: u64) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.value(event, 2)?.try_into().expect("2 bytes")))
    }

    /// Read an `i16` array branch value (length `n`).
    pub fn i16s(&self, event: u64, n: usize) -> io::Result<impl Iterator<Item = i16> + 'a> {
        let width = n.checked_mul(2).ok_or_else(|| bad("array width overflows"))?;
        let bytes = self.value(event, width)?;
        Ok(bytes.chunks_exact(2).map(|c| i16::from_le_bytes(c.try_into().expect("2 bytes"))))
    }
}

/// The resident baskets of one branch: slot `k` holds the decoded basket
/// with ordinal `first_ord + k`.
#[derive(Default)]
struct Row {
    first_ord: u64,
    slots: Vec<Option<Vec<u8>>>,
}

impl Row {
    fn index(&self, ord: u64) -> Option<usize> {
        usize::try_from(ord.checked_sub(self.first_ord)?).ok()
    }

    fn get(&self, ord: u64) -> Option<&[u8]> {
        self.slots.get(self.index(ord)?)?.as_deref()
    }

    fn put(&mut self, ord: u64, col: Vec<u8>) {
        if let Some(slot) = self.index(ord).and_then(|k| self.slots.get_mut(k)) {
            *slot = Some(col);
        }
    }

    /// Re-address the row to ordinals `first_ord .. first_ord + len`,
    /// keeping the baskets both ranges hold.
    fn rebase(&mut self, first_ord: u64, len: usize) {
        let old = std::mem::take(&mut self.slots);
        let old_first = std::mem::replace(&mut self.first_ord, first_ord);
        self.slots.resize_with(len, || None);
        for (ord, col) in (old_first..).zip(old) {
            if let Some(slot) = self.index(ord).and_then(|k| self.slots.get_mut(k)) {
                *slot = col;
            }
        }
    }
}

/// One basket a window needs.
#[derive(Clone, Copy)]
struct Planned {
    branch: usize,
    ord: u64,
    basket: usize,
    offset: u64,
    len: usize,
}

/// What a window's `read_vec` returned.
type Blobs = io::Result<Vec<Vec<u8>>>;

/// The next window's `read_vec`, running on a runtime thread.
struct Prefetch {
    /// The fragments it reads.
    frags: Vec<(u64, usize)>,
    /// Set once `blobs` holds what the read returned.
    done: Arc<dyn Signal>,
    blobs: Arc<Mutex<Option<Blobs>>>,
}

impl Prefetch {
    /// Wait for the read to end; its fragments and what it returned.
    fn join(self) -> (Vec<(u64, usize)>, Blobs) {
        self.done.wait(None);
        let blobs = self.blobs.lock().take().expect("filled before `done` is set");
        (self.frags, blobs)
    }
}

/// Basket cache for a set of branches over one tree.
pub struct TreeCache {
    reader: Arc<TreeReader>,
    /// The selected branches, in the caller's order.
    branches: Vec<usize>,
    opts: TreeCacheOptions,
    /// Runs the prefetch thread.
    rt: Arc<dyn Runtime>,
    /// The window table, one row per schema branch.
    rows: Vec<Row>,
    /// The prefetch in flight, if any.
    in_flight: Option<Prefetch>,
    /// Fetch-window statistics.
    windows_loaded: u64,
    prefetches_issued: u64,
}

impl TreeCache {
    /// Build a cache over `branches` (indices into the schema); a prefetch
    /// runs on a thread of `rt`.
    pub fn new(
        reader: Arc<TreeReader>,
        branches: &[usize],
        opts: TreeCacheOptions,
        rt: Arc<dyn Runtime>,
    ) -> TreeCache {
        let rows: Vec<Row> = reader.schema().branches.iter().map(|_| Row::default()).collect();
        let mut selected = Vec::with_capacity(branches.len());
        for &b in branches {
            if b < rows.len() && !selected.contains(&b) {
                selected.push(b);
            }
        }
        TreeCache {
            reader,
            branches: selected,
            opts,
            rt,
            rows,
            in_flight: None,
            windows_loaded: 0,
            prefetches_issued: 0,
        }
    }

    /// Convenience: resolve branch names.
    pub fn for_branches(
        reader: Arc<TreeReader>,
        names: &[&str],
        opts: TreeCacheOptions,
        rt: Arc<dyn Runtime>,
    ) -> io::Result<TreeCache> {
        let mut branches = Vec::with_capacity(names.len());
        for n in names {
            branches.push(reader.schema().index_of(n).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no branch {n:?}"))
            })?);
        }
        Ok(TreeCache::new(reader, &branches, opts, rt))
    }

    /// Number of vectored window loads performed.
    pub fn windows_loaded(&self) -> u64 {
        self.windows_loaded
    }

    /// Number of window prefetches started.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    /// The basket ordinals that hold events of the window starting at event
    /// `start`, as far as the index has baskets for them (`n_events` is the
    /// file's word; the index is what was read).
    fn window_ords(&self, start: u64) -> std::ops::Range<u64> {
        let end = start.saturating_add(self.opts.window_events).min(self.reader.n_events());
        let per = self.reader.events_per_basket() as u64;
        let held = self.branches.iter().map(|&b| self.reader.branch_baskets(b).len()).max();
        start / per..end.div_ceil(per).min(held.unwrap_or(0) as u64)
    }

    /// The baskets of the selected branches for the window starting at
    /// `start`, offset-sorted; baskets of one offset stay in (ordinal,
    /// selection) order.
    fn window_baskets(&self, start: u64) -> Vec<Planned> {
        let ords = self.window_ords(start);
        let mut out = Vec::with_capacity(
            (ords.end.saturating_sub(ords.start)) as usize * self.branches.len(),
        );
        for ord in ords {
            for &branch in &self.branches {
                if let Some(&basket) = self.reader.branch_baskets(branch).get(ord as usize) {
                    let info = self.reader.baskets()[basket];
                    let (offset, len) = (info.offset, info.len as usize);
                    out.push(Planned { branch, ord, basket, offset, len });
                }
            }
        }
        out.sort_by_key(|p| p.offset);
        out
    }

    fn resident(&self, branch: usize, ord: u64) -> Option<&[u8]> {
        self.rows.get(branch)?.get(ord)
    }

    /// The baskets a load of the window starting at `start` would read:
    /// its non-resident ones, in file order.
    fn missing_baskets(&self, start: u64) -> Vec<Planned> {
        let mut missing = self.window_baskets(start);
        missing.retain(|p| self.resident(p.branch, p.ord).is_none());
        missing
    }

    /// Load the window containing `event`; optionally prefetch the next one.
    fn load_window(&mut self, event: u64) -> io::Result<()> {
        if self.opts.window_events == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a tree cache window must hold at least one event",
            ));
        }
        let start = (event / self.opts.window_events) * self.opts.window_events;
        let ords = self.window_ords(start);
        // Baskets before the window go; one that straddles its start stays,
        // so it is fetched once, by the window that first needed it.
        for &branch in &self.branches {
            self.rows[branch].rebase(ords.start, ords.end.saturating_sub(ords.start) as usize);
        }
        let missing = self.missing_baskets(start);
        // A prefetch in flight ends here; it is this window's read if it
        // read these fragments.
        let prefetched = self.in_flight.take().map(Prefetch::join);
        if !missing.is_empty() {
            let frags: Vec<(u64, usize)> = missing.iter().map(|p| (p.offset, p.len)).collect();
            let blobs = match prefetched {
                Some((read, blobs)) if read == frags => blobs?,
                _ => self.reader.source().read_vec(&frags)?,
            };
            self.windows_loaded += 1;
            for (p, blob) in missing.iter().zip(blobs) {
                let col = self.reader.decode_basket_owned(p.basket, blob)?;
                self.rows[p.branch].put(p.ord, col);
            }
        }
        let next = start.saturating_add(self.opts.window_events);
        if self.opts.prefetch && next < self.reader.n_events() {
            self.prefetch(next);
        }
        Ok(())
    }

    /// Start reading the window starting at `start` on a runtime thread.
    fn prefetch(&mut self, start: u64) {
        let frags: Vec<(u64, usize)> =
            self.missing_baskets(start).iter().map(|p| (p.offset, p.len)).collect();
        if frags.is_empty() {
            return;
        }
        let (done, blobs) = (self.rt.signal(), Arc::new(Mutex::new(None)));
        let src = Arc::clone(self.reader.source());
        let (task_frags, task_done, task_blobs) =
            (frags.clone(), Arc::clone(&done), Arc::clone(&blobs));
        self.rt.spawn(
            "treecache-prefetch",
            Box::new(move || {
                let got = src.read_vec(&task_frags);
                *task_blobs.lock() = Some(got);
                task_done.set();
            }),
        );
        self.in_flight = Some(Prefetch { frags, done, blobs });
        self.prefetches_issued += 1;
    }

    /// Make the basket holding `event` of `branch` resident: with the cache
    /// enabled a miss loads the whole window of every selected branch,
    /// otherwise it is one scalar read that replaces the branch's basket.
    pub fn load(&mut self, branch: usize, event: u64) -> io::Result<()> {
        let (basket, ord) = self.reader.locate(branch, event)?;
        if self.resident(branch, ord).is_some() {
            return Ok(());
        }
        if self.opts.enabled {
            self.load_window(event)?;
            if self.resident(branch, ord).is_none() {
                return Err(bad(format!("branch {branch} is not among the cached branches")));
            }
        } else {
            let col = self.reader.read_basket(basket)?;
            self.rows[branch] = Row { first_ord: ord, slots: vec![Some(col)] };
        }
        Ok(())
    }

    /// The resident basket holding `event` of `branch` ([`load`](Self::load)
    /// it first). Borrowing, so the columns of several branches can be held
    /// at once and read for every event they share.
    pub fn column(&self, branch: usize, event: u64) -> io::Result<Column<'_>> {
        let (basket, ord) = self.reader.locate(branch, event)?;
        let bytes = self
            .resident(branch, ord)
            .ok_or_else(|| bad(format!("branch {branch} event {event} is not loaded")))?;
        Ok(Column { bytes, first_event: self.reader.baskets()[basket].first_event })
    }

    fn loaded(&mut self, branch: usize, event: u64) -> io::Result<Column<'_>> {
        self.load(branch, event)?;
        self.column(branch, event)
    }

    /// Read an `f32` branch value.
    pub fn f32_value(&mut self, branch: usize, event: u64) -> io::Result<f32> {
        self.loaded(branch, event)?.f32(event)
    }

    /// Read an `i8` branch value.
    pub fn i8_value(&mut self, branch: usize, event: u64) -> io::Result<i8> {
        self.loaded(branch, event)?.i8(event)
    }

    /// Read a `u16` branch value.
    pub fn u16_value(&mut self, branch: usize, event: u64) -> io::Result<u16> {
        self.loaded(branch, event)?.u16(event)
    }

    /// Read an `i16` array branch value (length `n`).
    pub fn i16_array(
        &mut self,
        branch: usize,
        event: u64,
        n: usize,
    ) -> io::Result<impl Iterator<Item = i16> + '_> {
        self.loaded(branch, event)?.i16s(event, n)
    }
}

impl Drop for TreeCache {
    /// A prefetch in flight is waited for: its thread ends before the cache.
    fn drop(&mut self) {
        if let Some(p) = self.in_flight.take() {
            p.done.wait(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use crate::model::{Generator, Schema};
    use crate::writer::{write_tree, WriterOptions};
    use ioapi::{IoStats, IoStatsSnapshot, MemFile, RandomAccess};
    use netsim::SimNet;
    use std::time::Duration;

    /// A MemFile wrapper that counts `read_vec`/`read_at` calls and logs
    /// every `read_vec`'s fragments; a `read_vec` can cost virtual time, or
    /// fail.
    struct CountingSource {
        mem: MemFile,
        stats: IoStats,
        /// The fragment list of every `read_vec`, in call order.
        loads: Mutex<Vec<Vec<(u64, usize)>>>,
        /// Each `read_vec` first sleeps this long (a round trip).
        latency: Option<(Arc<dyn Runtime>, Duration)>,
        /// The `read_vec` with this index, in call order, fails.
        fail_at: Option<usize>,
    }

    impl RandomAccess for CountingSource {
        fn size(&self) -> io::Result<u64> {
            self.mem.size()
        }
        fn read_at(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
            self.stats.record_read(buf.len() as u64, 1);
            self.mem.read_at(off, buf)
        }
        fn read_vec(&self, frags: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
            if let Some((rt, latency)) = &self.latency {
                rt.sleep(*latency);
            }
            self.stats.record_vector_read(0, 1);
            let index = {
                let mut loads = self.loads.lock();
                loads.push(frags.to_vec());
                loads.len() - 1
            };
            if self.fail_at == Some(index) {
                return Err(io::Error::other(format!("read_vec {index} failed")));
            }
            self.mem.read_vec(frags)
        }
        fn stats(&self) -> IoStatsSnapshot {
            self.stats.snapshot()
        }
    }

    fn tree() -> (Arc<TreeReader>, Arc<CountingSource>, Schema) {
        tree_of(2_000, 100)
    }

    fn tree_of(
        n_events: u64,
        events_per_basket: usize,
    ) -> (Arc<TreeReader>, Arc<CountingSource>, Schema) {
        tree_with(n_events, events_per_basket, None, None)
    }

    fn tree_with(
        n_events: u64,
        events_per_basket: usize,
        latency: Option<(Arc<dyn Runtime>, Duration)>,
        fail_at: Option<usize>,
    ) -> (Arc<TreeReader>, Arc<CountingSource>, Schema) {
        let schema = Schema::hep(8);
        let mut g = Generator::new(schema.clone(), 21);
        let bytes =
            write_tree(&mut g, n_events, &WriterOptions { events_per_basket, compress: true });
        let src = Arc::new(CountingSource {
            mem: MemFile::new(bytes),
            stats: IoStats::default(),
            loads: Mutex::new(Vec::new()),
            latency,
            fail_at,
        });
        let reader = Arc::new(TreeReader::open(src.clone() as Arc<dyn RandomAccess>).unwrap());
        (reader, src, schema)
    }

    /// A runtime for caches that never prefetch.
    fn rt() -> Arc<dyn Runtime> {
        Arc::new(netsim::RealRuntime::new())
    }

    #[test]
    fn values_match_generator() {
        let (reader, _src, schema) = tree();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "energy", "charge", "nhits"],
            TreeCacheOptions::default(),
            rt(),
        )
        .unwrap();
        let mut g = Generator::new(schema.clone(), 21);
        let batch = g.batch(2_000);
        let (px, e, q, nh) = (
            schema.index_of("px").unwrap(),
            schema.index_of("energy").unwrap(),
            schema.index_of("charge").unwrap(),
            schema.index_of("nhits").unwrap(),
        );
        for ev in [0u64, 1, 99, 100, 101, 999, 1000, 1999] {
            assert_eq!(cache.f32_value(px, ev).unwrap(), batch.f32_at(px, ev as usize));
            assert_eq!(cache.f32_value(e, ev).unwrap(), batch.f32_at(e, ev as usize));
            assert_eq!(cache.i8_value(q, ev).unwrap(), batch.i8_at(q, ev as usize));
            assert_eq!(cache.u16_value(nh, ev).unwrap(), batch.u16_at(nh, ev as usize));
        }
    }

    #[test]
    fn enabled_cache_gathers_windows_into_vector_reads() {
        let (reader, src, _schema) = tree();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "py", "pz", "energy"],
            TreeCacheOptions { window_events: 500, enabled: true, prefetch: false },
            rt(),
        )
        .unwrap();
        let px = reader.schema().index_of("px").unwrap();
        for ev in 0..2_000u64 {
            cache.f32_value(px, ev).unwrap();
        }
        let s = src.stats();
        // 2000 events / 500-event windows = 4 vectored loads (plus the 3
        // open()-time scalar reads).
        assert_eq!(s.vector_reads, 4);
        assert_eq!(cache.windows_loaded(), 4);
        assert!(s.reads <= 4, "open-time reads only, got {}", s.reads);
    }

    #[test]
    fn disabled_cache_reads_each_basket_individually() {
        let (reader, src, _schema) = tree();
        let before = src.stats();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "py"],
            TreeCacheOptions { enabled: false, ..Default::default() },
            rt(),
        )
        .unwrap();
        let px = reader.schema().index_of("px").unwrap();
        let py = reader.schema().index_of("py").unwrap();
        for ev in 0..2_000u64 {
            cache.f32_value(px, ev).unwrap();
            cache.f32_value(py, ev).unwrap();
        }
        let s = src.stats().since(&before);
        // 20 baskets per branch × 2 branches = 40 scalar reads, no readv.
        assert_eq!(s.vector_reads, 0);
        assert_eq!(s.reads, 40);
    }

    /// With prefetch, every window after the first is read by the prefetch
    /// thread: the same `read_vec`s, fragment for fragment, as without it
    /// and not one more, and the same values — for baskets that straddle
    /// windows and for Fig. 4's geometry, whole and strided.
    #[test]
    fn a_prefetched_window_is_the_read_a_synchronous_load_sends() {
        let names = ["px", "py", "pz", "energy", "charge", "cal"];
        for (per, window, stride) in [(20, 50u64, 1usize), (20, 50, 7), (40, 120, 1), (40, 120, 7)]
        {
            let net = SimNet::new();
            let _g = net.enter();
            let mut passes = Vec::new();
            for prefetch in [false, true] {
                let (reader, src, schema) = tree_of(1_010, per);
                let opts = TreeCacheOptions { window_events: window, enabled: true, prefetch };
                let mut cache =
                    TreeCache::for_branches(Arc::clone(&reader), &names, opts, net.runtime())
                        .unwrap();
                let px = schema.index_of("px").unwrap();
                let mut values = Vec::new();
                for ev in (0..1_010u64).step_by(stride) {
                    for name in names {
                        cache.load(schema.index_of(name).unwrap(), ev).unwrap();
                    }
                    values.push(cache.f32_value(px, ev).unwrap().to_bits());
                }
                let (windows, prefetches) = (cache.windows_loaded(), cache.prefetches_issued());
                drop(cache);
                let loads = src.loads.lock().clone();
                passes.push((loads, values, windows, prefetches));
            }
            let what = format!("{per} events a basket, windows of {window}, stride {stride}");
            let (sync, prefetched) = (&passes[0], &passes[1]);
            assert_eq!(prefetched.0, sync.0, "{what}: the reads");
            assert_eq!(prefetched.1, sync.1, "{what}: the values");
            assert_eq!(prefetched.2, sync.2, "{what}: windows loaded");
            assert_eq!((sync.3, prefetched.3), (0, sync.2 - 1), "{what}: prefetches");
        }
    }

    /// A load that skips the prefetched window waits for that read, drops
    /// it and reads its own window.
    #[test]
    fn a_load_past_the_prefetched_window_reads_its_own() {
        let net = SimNet::new();
        let _g = net.enter();
        let (reader, src, schema) = tree();
        let opts = TreeCacheOptions { window_events: 500, enabled: true, prefetch: true };
        let mut cache =
            TreeCache::for_branches(Arc::clone(&reader), &["px"], opts, net.runtime()).unwrap();
        let px = schema.index_of("px").unwrap();
        cache.load(px, 0).unwrap();
        cache.load(px, 1_500).unwrap();
        drop(cache);
        let first =
            |l: &Vec<(u64, usize)>| reader.baskets().iter().position(|b| b.offset == l[0].0);
        let firsts: Vec<_> = src.loads.lock().iter().map(first).collect();
        let window = |w: usize| reader.basket_for(px, 500 * w as u64).ok();
        assert_eq!(firsts, [window(0), window(1), window(3)], "window 1 prefetched, unused");
    }

    /// An error from the prefetched read is the error of the window it
    /// read, and costs no second read; loading that window again reads it.
    #[test]
    fn a_failed_prefetch_is_its_windows_error() {
        let net = SimNet::new();
        let _g = net.enter();
        let (reader, src, schema) = tree_with(2_000, 100, None, Some(1));
        let opts = TreeCacheOptions { window_events: 500, enabled: true, prefetch: true };
        let mut cache =
            TreeCache::for_branches(Arc::clone(&reader), &["px"], opts, net.runtime()).unwrap();
        let px = schema.index_of("px").unwrap();
        cache.load(px, 0).unwrap();
        let err = cache.load(px, 500).unwrap_err();
        assert_eq!(err.to_string(), "read_vec 1 failed");
        assert_eq!(src.loads.lock().len(), 2, "window 0, then the prefetch of window 1");
        cache.load(px, 500).unwrap();
        assert_eq!(cache.windows_loaded(), 2);
        drop(cache);
        let loads = src.loads.lock();
        assert_eq!(loads.len(), 4, "window 1 again, then the prefetch of window 2");
        assert_eq!(loads[2], loads[1], "the retry reads what the prefetch did");
    }

    /// The prefetch overlaps the next window's round trip with the work on
    /// this one, on one runtime thread that ends with the cache.
    #[test]
    fn the_prefetch_overlaps_the_round_trip_and_ends_with_the_cache() {
        let net = SimNet::new();
        let _g = net.enter();
        let rtt = Duration::from_millis(10);
        let (reader, _src, schema) = tree_with(2_000, 100, Some((net.runtime(), rtt)), None);
        let px = schema.index_of("px").unwrap();
        let before = net.thread_census();
        let opts = TreeCacheOptions { window_events: 500, enabled: true, prefetch: true };
        let mut cache =
            TreeCache::for_branches(Arc::clone(&reader), &["px"], opts, net.runtime()).unwrap();
        let t0 = net.now();
        cache.load(px, 0).unwrap();
        assert_eq!(net.now() - t0, rtt, "window 0 is read on the caller's thread");
        assert_eq!(net.thread_census(), before + 1, "window 1's read is in flight");
        net.sleep(2 * rtt); // the work on window 0
        let t1 = net.now();
        cache.load(px, 500).unwrap();
        assert_eq!(net.now(), t1, "window 1 had landed");
        drop(cache);
        net.sleep(Duration::from_millis(1));
        assert_eq!(net.thread_census(), before, "no thread outlives the cache");
    }

    #[test]
    fn sparse_access_still_correct() {
        let (reader, _src, schema) = tree();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["cal"],
            TreeCacheOptions { window_events: 300, ..Default::default() },
            rt(),
        )
        .unwrap();
        let mut g = Generator::new(schema.clone(), 21);
        let batch = g.batch(2_000);
        let cal = schema.index_of("cal").unwrap();
        // Stride through 10% of events.
        for ev in (0..2_000u64).step_by(10) {
            let got: Vec<i16> = cache.i16_array(cal, ev, 8).unwrap().collect();
            assert_eq!(got, batch.i16_array_at(cal, ev as usize, 8), "event {ev}");
        }
    }

    /// The window loads of a pass over `events`, worked out the plain way:
    /// a set of cached basket ids, every basket of the window that is not
    /// in it fetched in file order, baskets wholly before the window
    /// dropped. What the cache puts on the wire must stay exactly this.
    fn reference_loads(
        reader: &TreeReader,
        branches: &[usize],
        window: u64,
        events: impl Iterator<Item = u64>,
    ) -> Vec<Vec<(u64, usize)>> {
        let per = reader.events_per_basket() as u64;
        let mut cached = std::collections::HashSet::new();
        let mut loads = Vec::new();
        for ev in events {
            for &b in branches {
                if cached.contains(&reader.basket_for(b, ev).unwrap()) {
                    continue;
                }
                let start = ev / window * window;
                let end = (start + window).min(reader.n_events());
                let mut needed = Vec::new();
                for first in (start / per * per..end).step_by(per as usize) {
                    needed.extend(branches.iter().map(|&b| reader.basket_for(b, first).unwrap()));
                }
                needed.sort_by_key(|&k| reader.baskets()[k].offset);
                let missing: Vec<(u64, usize)> = needed
                    .iter()
                    .filter(|k| !cached.contains(*k))
                    .map(|&k| (reader.baskets()[k].offset, reader.baskets()[k].len as usize))
                    .collect();
                assert!(!missing.is_empty());
                loads.push(missing);
                cached.extend(needed);
                cached.retain(|&k| {
                    let info = reader.baskets()[k];
                    info.first_event + info.n_events as u64 > start
                });
            }
        }
        loads
    }

    /// What goes on the wire cannot move: the `(offset, len)` list of every
    /// window load, for baskets that straddle windows (20 events a basket,
    /// 50 a window) and for Fig. 4's geometry (40/120), whole and strided.
    #[test]
    fn window_loads_put_the_same_fragments_on_the_wire() {
        let names = ["px", "py", "pz", "energy", "charge", "cal"];
        for (per, window, stride, per_load) in [
            // Windows of 2.5 baskets: 3 baskets a branch, then 2 (the
            // straddler is already there), the last window 1 of 10 events.
            (
                20,
                50u64,
                1usize,
                vec![
                    18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12,
                    6,
                ],
            ),
            (
                20,
                50,
                7,
                vec![
                    18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12, 18, 12,
                    6,
                ],
            ),
            // Windows of exactly 3 baskets; 1 010 events end in a window of
            // 50 events: 2 baskets a branch.
            (40, 120, 1, vec![18, 18, 18, 18, 18, 18, 18, 18, 12]),
            (40, 120, 7, vec![18, 18, 18, 18, 18, 18, 18, 18, 12]),
        ] {
            let (reader, src, _schema) = tree_of(1_010, per);
            let opts = TreeCacheOptions { window_events: window, enabled: true, prefetch: false };
            let mut cache =
                TreeCache::for_branches(Arc::clone(&reader), &names, opts, rt()).unwrap();
            let branches: Vec<usize> =
                names.iter().map(|n| reader.schema().index_of(n).unwrap()).collect();
            for ev in (0..1_010u64).step_by(stride) {
                for &b in &branches[..5] {
                    cache.load(b, ev).unwrap();
                }
            }
            let loads = src.loads.lock().clone();
            let what = format!("{per} events a basket, windows of {window}, stride {stride}");
            let lens: Vec<usize> = loads.iter().map(Vec::len).collect();
            assert_eq!(lens, per_load, "{what}");
            let want = reference_loads(&reader, &branches, window, (0..1_010u64).step_by(stride));
            assert_eq!(loads, want, "{what}");
            assert_eq!(cache.windows_loaded(), loads.len() as u64, "{what}");
            // File order, and nothing fetched twice in the whole pass.
            let mut all: Vec<(u64, usize)> = loads.concat();
            assert!(loads.iter().all(|l| l.windows(2).all(|w| w[0].0 < w[1].0)), "{what}");
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), lens.iter().sum::<usize>(), "{what}");
        }
    }

    #[test]
    fn a_branch_outside_the_selection_is_an_error_not_a_panic() {
        let (reader, _src, schema) = tree();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px"],
            TreeCacheOptions::default(),
            rt(),
        )
        .unwrap();
        let py = schema.index_of("py").unwrap();
        assert!(cache.column(schema.index_of("px").unwrap(), 0).is_err(), "not loaded yet");
        assert!(cache.f32_value(py, 0).is_err());
        // Cache off, every branch is read on demand.
        let opts = TreeCacheOptions { enabled: false, ..Default::default() };
        let mut plain = TreeCache::for_branches(reader, &["px"], opts, rt()).unwrap();
        assert!(plain.f32_value(py, 0).is_ok());
    }

    /// A raw basket is its column in the buffer it arrived in, but never
    /// before its CRC is checked: one flipped payload byte of a stored-raw
    /// basket fails the window load. A path that lent the bytes unchecked
    /// fails this test.
    #[test]
    fn a_flipped_byte_in_a_raw_basket_fails_the_window_load() {
        let mut g = Generator::new(Schema::hep(8), 21);
        let bytes =
            write_tree(&mut g, 200, &WriterOptions { events_per_basket: 20, compress: false });
        let intact = TreeReader::open(Arc::new(MemFile::new(bytes.clone()))).unwrap();
        let px = intact.schema().index_of("px").unwrap();
        let basket = intact.baskets()[intact.basket_for(px, 45).unwrap()];
        let opts = TreeCacheOptions { window_events: 100, enabled: true, prefetch: false };
        for (at, damaged) in [(None, false), (Some(codec::FRAME_HEADER + 7), true)] {
            let mut file = bytes.clone();
            if let Some(at) = at {
                file[basket.offset as usize + at] ^= 0x01;
            }
            let reader = Arc::new(TreeReader::open(Arc::new(MemFile::new(file))).unwrap());
            let mut cache =
                TreeCache::for_branches(reader, &["px", "py"], opts.clone(), rt()).unwrap();
            match cache.load(px, 45) {
                Ok(()) => assert!(!damaged, "a damaged raw basket was lent"),
                Err(e) => {
                    assert!(damaged, "{e}");
                    assert_eq!(e.to_string(), "codec crc mismatch");
                }
            }
        }
    }

    #[test]
    fn a_run_is_checked_at_both_ends() {
        let bytes: Vec<u8> = (0..40).collect();
        let col = Column { bytes: &bytes, first_event: 100 };
        assert_eq!(col.run_bytes(100..110, 4).unwrap(), &bytes[..]);
        assert_eq!(col.run_bytes(103..105, 4).unwrap(), &bytes[12..20]);
        assert_eq!(col.run_bytes(107..107, 4).unwrap(), b"");
        let backwards = std::ops::Range { start: 105, end: 104 };
        for outside in [99..101, 109..111, backwards, 0..u64::MAX, u64::MAX - 1..u64::MAX] {
            assert!(col.run_bytes(outside.clone(), 4).is_err(), "{outside:?}");
        }
        assert_eq!(col.f32(109).unwrap(), f32::from_le_bytes([36, 37, 38, 39]));
        assert!(col.f32(110).is_err() && col.f32(u64::MAX).is_err());
    }

    #[test]
    fn unknown_branch_is_error() {
        let (reader, _src, _schema) = tree();
        assert!(
            TreeCache::for_branches(reader, &["nope"], TreeCacheOptions::default(), rt()).is_err()
        );
    }
}
