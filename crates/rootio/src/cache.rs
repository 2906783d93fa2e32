//! The TreeCache: vectored basket fetching with optional asynchronous
//! prefetch of the next event window.
//!
//! This reproduces ROOT's `TTreeCache` role in the paper's Figure 3: the
//! analysis asks for branch values event by event; the cache translates that
//! into *one vectored read per event window* through
//! [`RandomAccess::read_vec_into`](ioapi::RandomAccess::read_vec_into). With
//! [`TreeCacheOptions::prefetch`] the cache also issues the *next* window's
//! read on a runtime thread while the application processes the current one,
//! over any source — the latency hiding Figure 4 credits to the baseline's
//! sliding-window buffering (see [the prefetch](#the-prefetch)).
//!
//! # One column per branch
//!
//! Every branch stores the same events in its `k`-th basket (the writer cuts
//! all branches every `events_per_basket` events), so a basket is named by
//! its branch and its *ordinal* `k = event / events_per_basket`. The cache
//! holds the baskets of a run of ordinals, the resident ones, as one decoded
//! column per selected branch: their values back to back in ordinal order,
//! the first resident event's at byte 0. [`TreeCache::window`] lends the
//! events from the one asked for to the end of the last resident basket,
//! and each column's slice of them; the caller reads every value of the
//! window from those slices. That is one residency check per window where a
//! per-value interface costs a look-up and a bounds check per value (half a
//! million per pass of the `analysis_sparse` benchmark, about three quarters
//! of its time before the cache lent whole runs of values).
//!
//! # Loading a window
//!
//! Windows are counted in events, baskets are not aligned to them: with 20
//! events a basket and 50 a window, basket 2 (events 40–59) belongs to
//! windows 0 and 1. A load keeps the baskets both windows hold: each column
//! is sized for the new window (it never shrinks, so once grown nothing is
//! allocated or zeroed), the shared baskets move to their new place with one
//! `copy_within`, and the rest are fetched — the not-yet-resident baskets of
//! the window, in file order, in one vectored read. A straddling basket is
//! thus fetched once, by the window that needed it first, and the fragment
//! list of every vectored read is what it has always been. That list is the
//! wire — `Range` header, multipart body and every virtual-time figure
//! derive from it — and `window_loads_put_the_same_fragments_on_the_wire`
//! pins it against a plain reimplementation.
//!
//! The window's vectored read lands in one staging buffer, the baskets back
//! to back in fragment order. The buffer is the cache's: it never shrinks,
//! and once grown it is neither allocated nor zeroed again. Each blob is
//! decoded from its slice of it straight into its slot
//! (`codec::Frame::decode_into`) and CRC-checked there: a basket stored raw
//! is copied once, an LZSS basket is inflated in place, its decoder's stores
//! past the slot landing in the 32 bytes of room each column keeps after its
//! last slot, or put back. No basket gets a buffer of its own. A basket
//! whose index entry puts it at other events than its ordinal's, or whose
//! frame does not fill its slot exactly, is `InvalidData`; no column is
//! sized before each basket's stored length shows its frame could fill its
//! slot. A load that fails leaves nothing resident.
//!
//! With the cache off (ablation A2), a window is one ordinal: each selected
//! branch's basket is read with a scalar read of its own, in selection
//! order, and decoded the same way.
//!
//! # The prefetch
//!
//! With [`TreeCacheOptions::prefetch`], loading window *w* ends by starting
//! one [`Runtime::spawn`] thread that issues the vectored read for window
//! *w*+1: the fragment list a synchronous load of that window would send,
//! its non-resident baskets in file order, into a second staging buffer
//! that the thread owns until the read ends. The caller computes over
//! window *w* meanwhile. The next window load waits for that read: when the
//! fragment list it needs is the prefetched one, the two staging buffers
//! swap and the load decodes from the prefetched one (an error from that
//! read is the window's error); otherwise it issues its own read. Either
//! way no buffer is allocated once both have grown. At most one prefetch
//! is in flight, and dropping the cache waits for it. The source needs
//! nothing for this: what it costs on the wire is exactly the vectored
//! reads of a cache without prefetch.

use crate::codec::{Frame, MAX_EXPANSION, SLACK};
use crate::reader::{bad, TreeReader};
use netsim::{Runtime, Signal};
use parking_lot::Mutex;
use std::io;
use std::ops::Range;
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

/// The events [`TreeCache::window`] lends, and every selected branch's
/// values for them.
pub struct Window<'a> {
    events: Range<u64>,
    /// Where `events.start` sits in each column, in values.
    at: usize,
    columns: &'a [Col],
}

impl<'a> Window<'a> {
    /// The events lent: from the one asked for to the end of the last
    /// resident basket.
    pub fn events(&self) -> Range<u64> {
        self.events.clone()
    }

    /// The values of `branch` for [`events`](Self::events), back to back,
    /// `width` bytes each: an error unless the branch's values are that
    /// wide.
    pub fn column(&self, branch: usize, width: usize) -> io::Result<&'a [u8]> {
        let col = self
            .columns
            .iter()
            .find(|c| c.branch == branch)
            .ok_or_else(|| bad(format!("branch {branch} is not among the cached branches")))?;
        if col.width != width {
            return Err(bad(format!("branch {branch} is {} bytes wide, not {width}", col.width)));
        }
        let n = (self.events.end - self.events.start) as usize;
        Ok(&col.bytes[self.at * width..(self.at + n) * width])
    }
}

/// The decoded column of one selected branch.
struct Col {
    branch: usize,
    /// Bytes per event.
    width: usize,
    /// The resident baskets' values from byte 0, then at least [`SLACK`]
    /// bytes of room.
    bytes: Vec<u8>,
}

/// One basket a window needs.
#[derive(Clone, Copy)]
struct Planned {
    /// Its column.
    col: usize,
    ord: u64,
    offset: u64,
    len: usize,
}

/// A prefetch's staging buffer, and whether its read filled it.
type Staged = (Vec<u8>, io::Result<()>);

/// The next window's vectored read, running on a runtime thread.
struct Prefetch {
    /// The fragments it reads.
    frags: Vec<(u64, usize)>,
    /// Set once `staged` holds what the read left.
    done: Arc<dyn Signal>,
    staged: Arc<Mutex<Option<Staged>>>,
}

impl Prefetch {
    /// Wait for the read to end; its fragments, its staging buffer and
    /// whether the read filled it.
    fn join(self) -> (Vec<(u64, usize)>, Staged) {
        self.done.wait(None);
        let staged = self.staged.lock().take().expect("filled before `done` is set");
        (self.frags, staged)
    }
}

/// The first `len` bytes of `buf`, grown (never shrunk) to hold them: only
/// the growth is zeroed.
fn stage(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    &mut buf[..len]
}

/// Basket cache for a set of branches over one tree.
pub struct TreeCache {
    reader: Arc<TreeReader>,
    opts: TreeCacheOptions,
    /// Runs the prefetch thread.
    rt: Arc<dyn Runtime>,
    /// One column per selected branch, in the caller's order.
    cols: Vec<Col>,
    /// The ordinals whose baskets the columns hold; the first one's at
    /// byte 0.
    resident: Range<u64>,
    /// Where a window's vectored read lands, and a scalar basket read with
    /// the cache off.
    staging: Vec<u8>,
    /// The staging buffer the next prefetch reads into.
    spare: Vec<u8>,
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
        let kinds = &reader.schema().branches;
        let mut cols: Vec<Col> = Vec::with_capacity(branches.len());
        for &branch in branches {
            if branch < kinds.len() && !cols.iter().any(|c| c.branch == branch) {
                cols.push(Col { branch, width: kinds[branch].kind.width(), bytes: Vec::new() });
            }
        }
        TreeCache {
            reader,
            opts,
            rt,
            cols,
            resident: 0..0,
            staging: Vec::new(),
            spare: Vec::new(),
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

    /// The first event of the baskets of ordinal `ord`, or the tree's end.
    fn first_event(&self, ord: u64) -> u64 {
        ord.saturating_mul(self.reader.events_per_basket() as u64).min(self.reader.n_events())
    }

    /// The basket ordinals that hold events of the window starting at event
    /// `start`, as far as the index has baskets for them (`n_events` is the
    /// file's word; the index is what was read).
    fn window_ords(&self, start: u64) -> Range<u64> {
        let end = start.saturating_add(self.opts.window_events).min(self.reader.n_events());
        let per = self.reader.events_per_basket() as u64;
        let held = self.cols.iter().map(|c| self.reader.branch_baskets(c.branch).len()).max();
        start / per..end.div_ceil(per).min(held.unwrap_or(usize::MAX) as u64)
    }

    /// The baskets of ordinals `ords` that are not resident, in file order;
    /// baskets of one offset stay in (ordinal, selection) order. Every
    /// selected branch must have a basket of each ordinal, at its events,
    /// and one whose frame could fill its slot.
    fn missing_baskets(&self, ords: Range<u64>) -> io::Result<Vec<Planned>> {
        let mut out =
            Vec::with_capacity((ords.end.saturating_sub(ords.start)) as usize * self.cols.len());
        for ord in ords.filter(|ord| !self.resident.contains(ord)) {
            let slot = self.first_event(ord)..self.first_event(ord + 1);
            for (col, c) in self.cols.iter().enumerate() {
                let no_basket =
                    || bad(format!("no basket for branch {} event {}", c.branch, slot.start));
                let &basket =
                    self.reader.branch_baskets(c.branch).get(ord as usize).ok_or_else(no_basket)?;
                let info = self.reader.baskets()[basket];
                if info.first_event != slot.start {
                    return Err(bad(format!(
                        "events {}..{} outside their basket",
                        slot.start, slot.end
                    )));
                }
                let slot_len = (slot.end - slot.start).saturating_mul(c.width as u64);
                if slot_len > u64::from(info.len).saturating_mul(MAX_EXPANSION as u64) {
                    return Err(bad("basket size mismatch after decompression"));
                }
                out.push(Planned { col, ord, offset: info.offset, len: info.len as usize });
            }
        }
        out.sort_by_key(|p| p.offset);
        Ok(out)
    }

    /// Lend the events from `event` to the end of the last resident basket.
    /// If the baskets holding `event` are not resident they are loaded
    /// first: with the cache enabled, the whole window of every selected
    /// branch in one vectored read; otherwise each branch's basket with a
    /// scalar read of its own, in selection order.
    pub fn window(&mut self, event: u64) -> io::Result<Window<'_>> {
        if event >= self.reader.n_events() {
            return Err(bad(format!("event {event} out of range")));
        }
        let ord = event / self.reader.events_per_basket() as u64;
        if !self.resident.contains(&ord) {
            for c in &self.cols {
                self.reader.basket_for(c.branch, event)?;
            }
            if self.opts.enabled {
                self.load_window(event)?;
            } else {
                self.read_baskets(ord)?;
            }
            debug_assert!(self.resident.contains(&ord), "event {event} was loaded");
        }
        let base = self.first_event(self.resident.start);
        let end = self.first_event(self.resident.end);
        Ok(Window { events: event..end, at: (event - base) as usize, columns: &self.cols })
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
        let missing = self.missing_baskets(ords.clone())?;
        // Baskets before the window go; one that straddles its start stays,
        // so it is fetched once, by the window that first needed it.
        self.place(ords.clone());
        // A prefetch in flight ends here; it is this window's read if it
        // read these fragments.
        let prefetched = self.in_flight.take().map(Prefetch::join);
        if !missing.is_empty() {
            let frags: Vec<(u64, usize)> = missing.iter().map(|p| (p.offset, p.len)).collect();
            let total = frags.iter().map(|&(_, len)| len).sum();
            match prefetched {
                Some((read, (staged, result))) if read == frags => {
                    // The prefetch read this window into its buffer: that
                    // becomes the staging buffer, this one the next
                    // prefetch's.
                    self.spare = std::mem::replace(&mut self.staging, staged);
                    result?;
                }
                other => {
                    if let Some((_, (staged, _))) = other {
                        self.spare = staged;
                    }
                    let out = stage(&mut self.staging, total);
                    self.reader.source().read_vec_into(&frags, out)?;
                }
            }
            self.windows_loaded += 1;
            let staging = std::mem::take(&mut self.staging);
            let mut at = 0;
            let decoded = missing.iter().try_for_each(|p| {
                at += p.len;
                self.decode(p, &staging[at - p.len..at])
            });
            self.staging = staging;
            decoded?;
        }
        self.resident = ords;
        let next = start.saturating_add(self.opts.window_events);
        if self.opts.prefetch && next < self.reader.n_events() {
            self.prefetch(next);
        }
        Ok(())
    }

    /// Read the baskets of ordinal `ord`, one scalar read per selected
    /// branch, in selection order.
    fn read_baskets(&mut self, ord: u64) -> io::Result<()> {
        let mut plan = self.missing_baskets(ord..ord + 1)?;
        plan.sort_by_key(|p| p.col);
        self.place(ord..ord + 1);
        let mut staging = std::mem::take(&mut self.staging);
        let read = plan.iter().try_for_each(|p| {
            let blob = stage(&mut staging, p.len);
            self.reader.source().read_exact_at(p.offset, blob)?;
            self.decode(p, blob)
        });
        self.staging = staging;
        read?;
        self.resident = ord..ord + 1;
        Ok(())
    }

    /// Make the columns hold the ordinals `ords`: each sized for them, the
    /// baskets they share with the resident ones moved into place. Until
    /// the load ends nothing is resident, but `ords.start` is at byte 0.
    fn place(&mut self, ords: Range<u64>) {
        let kept = ords.start.max(self.resident.start)..ords.end.min(self.resident.end);
        let (base, old_base) =
            (self.first_event(ords.start), self.first_event(self.resident.start));
        let events = self.first_event(ords.end) - base;
        let kept_events = self.first_event(kept.start)..self.first_event(kept.end);
        for c in &mut self.cols {
            let need = events as usize * c.width + SLACK;
            if c.bytes.len() < need {
                c.bytes.resize(need, 0);
            }
            if !kept.is_empty() {
                let from = (kept_events.start - old_base) as usize * c.width;
                let len = (kept_events.end - kept_events.start) as usize * c.width;
                c.bytes
                    .copy_within(from..from + len, (kept_events.start - base) as usize * c.width);
            }
        }
        self.resident = ords.start..ords.start;
    }

    /// Decode `blob`, the basket `p` plans, into its slot of its column.
    fn decode(&mut self, p: &Planned, blob: &[u8]) -> io::Result<()> {
        let base = self.first_event(self.resident.start);
        let slot = self.first_event(p.ord)..self.first_event(p.ord + 1);
        let frame = Frame::parse(blob)?;
        let c = &mut self.cols[p.col];
        let (at, len) =
            ((slot.start - base) as usize * c.width, (slot.end - slot.start) as usize * c.width);
        if frame.decoded_len() != len {
            return Err(bad("basket size mismatch after decompression"));
        }
        frame.decode_into(&mut c.bytes[at..at + len + SLACK])
    }

    /// Start reading the window starting at `start` on a runtime thread.
    /// A window the index cannot plan is left to its own load to report.
    fn prefetch(&mut self, start: u64) {
        let Ok(missing) = self.missing_baskets(self.window_ords(start)) else {
            return;
        };
        let frags: Vec<(u64, usize)> = missing.iter().map(|p| (p.offset, p.len)).collect();
        if frags.is_empty() {
            return;
        }
        let (done, staged) = (self.rt.signal(), Arc::new(Mutex::new(None)));
        let src = Arc::clone(self.reader.source());
        let (task_frags, task_done, task_staged) =
            (frags.clone(), Arc::clone(&done), Arc::clone(&staged));
        let mut buf = std::mem::take(&mut self.spare);
        self.rt.spawn(
            "treecache-prefetch",
            Box::new(move || {
                let total = task_frags.iter().map(|&(_, len)| len).sum();
                let got = src.read_vec_into(&task_frags, stage(&mut buf, total));
                *task_staged.lock() = Some((buf, got));
                task_done.set();
            }),
        );
        self.in_flight = Some(Prefetch { frags, done, staged });
        self.prefetches_issued += 1;
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

    /// The `f32` of `branch` at `event`, through the window from `event`.
    fn f32_at(cache: &mut TreeCache, branch: usize, event: u64) -> io::Result<f32> {
        let column = cache.window(event)?.column(branch, 4)?;
        Ok(f32::from_le_bytes(column[..4].try_into().expect("4 bytes")))
    }

    #[test]
    fn values_match_generator() {
        let (reader, _src, schema) = tree();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "energy"],
            TreeCacheOptions::default(),
            rt(),
        )
        .unwrap();
        let mut g = Generator::new(schema.clone(), 21);
        let batch = g.batch(2_000);
        let (px, e) = (schema.index_of("px").unwrap(), schema.index_of("energy").unwrap());
        for ev in [0u64, 1, 99, 100, 101, 999, 1000, 1999] {
            assert_eq!(f32_at(&mut cache, px, ev).unwrap(), batch.f32_at(px, ev as usize));
            assert_eq!(f32_at(&mut cache, e, ev).unwrap(), batch.f32_at(e, ev as usize));
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
            f32_at(&mut cache, px, ev).unwrap();
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
            f32_at(&mut cache, px, ev).unwrap();
            f32_at(&mut cache, py, ev).unwrap();
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
                    values.push(f32_at(&mut cache, px, ev).unwrap().to_bits());
                }
                let (windows, prefetches) = (cache.windows_loaded(), cache.prefetches_issued);
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
        assert_eq!(cache.window(0).unwrap().events(), 0..500);
        assert_eq!(cache.window(1_500).unwrap().events(), 1_500..2_000);
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
        let (reader, src, _schema) = tree_with(2_000, 100, None, Some(1));
        let opts = TreeCacheOptions { window_events: 500, enabled: true, prefetch: true };
        let mut cache =
            TreeCache::for_branches(Arc::clone(&reader), &["px"], opts, net.runtime()).unwrap();
        cache.window(0).unwrap();
        let err = cache.window(500).err().expect("the prefetch failed");
        assert_eq!(err.to_string(), "read_vec 1 failed");
        assert_eq!(src.loads.lock().len(), 2, "window 0, then the prefetch of window 1");
        cache.window(500).unwrap();
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
        let (reader, _src, _schema) = tree_with(2_000, 100, Some((net.runtime(), rtt)), None);
        let before = net.thread_census();
        let opts = TreeCacheOptions { window_events: 500, enabled: true, prefetch: true };
        let mut cache =
            TreeCache::for_branches(Arc::clone(&reader), &["px"], opts, net.runtime()).unwrap();
        let t0 = net.now();
        cache.window(0).unwrap();
        assert_eq!(net.now() - t0, rtt, "window 0 is read on the caller's thread");
        assert_eq!(net.thread_census(), before + 1, "window 1's read is in flight");
        net.sleep(2 * rtt); // the work on window 0
        let t1 = net.now();
        cache.window(500).unwrap();
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
            let window = cache.window(ev).unwrap();
            let cells = &window.column(cal, 16).unwrap()[..16];
            let got: Vec<i16> =
                cells.chunks_exact(2).map(|c| i16::from_le_bytes([c[0], c[1]])).collect();
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
                cache.window(ev).unwrap();
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

    /// A branch outside the selection, or read at another width than its
    /// own, is an error, whether the cache is on or off.
    #[test]
    fn a_branch_outside_the_selection_is_an_error_not_a_panic() {
        let (reader, _src, schema) = tree();
        let (px, py) = (schema.index_of("px").unwrap(), schema.index_of("py").unwrap());
        for enabled in [true, false] {
            let opts = TreeCacheOptions { enabled, ..Default::default() };
            let mut cache =
                TreeCache::for_branches(Arc::clone(&reader), &["px"], opts, rt()).unwrap();
            let window = cache.window(0).unwrap();
            assert!(window.column(px, 4).is_ok());
            let err = window.column(py, 4).unwrap_err();
            assert_eq!(err.to_string(), format!("branch {py} is not among the cached branches"));
            let err = window.column(px, 2).unwrap_err();
            assert_eq!(err.to_string(), format!("branch {px} is 4 bytes wide, not 2"));
            assert!(cache.window(2_000).is_err(), "past the last event");
        }
    }

    /// A raw basket is CRC-checked in the blob it arrived in before it is
    /// copied into its slot: one flipped payload byte of a stored-raw
    /// basket fails the window load. A path that copied the bytes unchecked
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
            match cache.window(45) {
                Ok(_) => assert!(!damaged, "a damaged raw basket was lent"),
                Err(e) => {
                    assert!(damaged, "{e}");
                    assert_eq!(e.to_string(), "codec crc mismatch");
                }
            }
        }
    }

    /// Every column of `window`, as `read_basket` decodes its baskets.
    fn assert_columns_are_the_baskets(reader: &TreeReader, window: &Window<'_>, what: &str) {
        let per = reader.events_per_basket() as u64;
        for col in window.columns {
            let width = col.width;
            let mut want = Vec::new();
            for first in (window.events.start / per * per..window.events.end).step_by(per as usize)
            {
                want.extend(
                    reader.read_basket(reader.basket_for(col.branch, first).unwrap()).unwrap(),
                );
            }
            let skip = (window.events.start % per) as usize * width;
            let got = window.column(col.branch, width).unwrap();
            assert_eq!(got, &want[skip..], "{what}: branch {}", col.branch);
        }
    }

    /// A window lends the events from the one asked for to the end of its
    /// last basket, without a load while they are resident; its columns
    /// are the baskets, back to back.
    #[test]
    fn a_window_runs_from_the_event_to_the_end_of_its_baskets() {
        let names = ["px", "charge", "cal"];
        for compress in [true, false] {
            let mut g = Generator::new(Schema::hep(8), 3);
            let bytes =
                write_tree(&mut g, 1_010, &WriterOptions { events_per_basket: 20, compress });
            let reader = Arc::new(TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap());
            let opts = TreeCacheOptions { window_events: 50, enabled: true, prefetch: false };
            let mut cache =
                TreeCache::for_branches(Arc::clone(&reader), &names, opts, rt()).unwrap();
            // Window 0 is ordinals 0..3, and 59 is in it. 60 is not: window
            // 1 is ordinals 2..5, ordinal 2 kept. The last window is 50..51.
            for (event, events, loaded) in
                [(0, 0..60, 1), (59, 59..60, 1), (60, 60..100, 2), (1_009, 1_009..1_010, 3)]
            {
                let window = cache.window(event).unwrap();
                let what = format!("compress {compress}, event {event}");
                assert_eq!(window.events(), events, "{what}");
                assert_columns_are_the_baskets(&reader, &window, &what);
                assert_eq!(cache.windows_loaded(), loaded, "{what}");
            }
        }
    }

    /// Going back a window keeps the basket the two share, which moves to
    /// the end of the columns and must stay intact while the baskets
    /// before it are decoded (the decoder's own stores past a slot are
    /// pinned by `decoding_in_place_leaves_the_bytes_after_the_output_alone`).
    #[test]
    fn a_window_that_moves_back_keeps_what_it_shares_intact() {
        let (reader, src, schema) = tree_of(1_010, 20);
        let opts = TreeCacheOptions { window_events: 50, enabled: true, prefetch: false };
        let names = ["px", "energy", "cal"];
        let mut cache = TreeCache::for_branches(Arc::clone(&reader), &names, opts, rt()).unwrap();
        // Events 150..200 are ordinals 7..10, events 100..150 ordinals 5..8.
        assert_eq!(cache.window(150).unwrap().events(), 150..200);
        let window = cache.window(100).unwrap();
        assert_eq!(window.events(), 100..160);
        assert_columns_are_the_baskets(&reader, &window, "back one window");
        let loads = src.loads.lock();
        let ord_7 =
            reader.baskets()[reader.basket_for(schema.index_of("px").unwrap(), 140).unwrap()];
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[1].len(), 2 * names.len(), "ordinals 5 and 6");
        assert!(!loads[1].contains(&(ord_7.offset, ord_7.len as usize)), "ordinal 7 kept");
    }

    /// `file` with the index record of `basket` changed by `patch`.
    fn patch_index(file: &mut [u8], basket: usize, patch: impl FnOnce(&mut [u8])) {
        let footer = file.len() - crate::writer::FOOTER_LEN;
        let index = u64::from_le_bytes(file[footer..footer + 8].try_into().unwrap()) as usize;
        let at = index + 4 + 26 * basket;
        patch(&mut file[at..at + 26]);
    }

    /// A basket indexed at other events than its ordinal's, or whose frame
    /// does not fill its slot, is invalid data, and nothing is lent.
    #[test]
    fn a_basket_that_does_not_fit_its_slot_is_invalid_data() {
        let mut g = Generator::new(Schema::hep(8), 21);
        let bytes =
            write_tree(&mut g, 200, &WriterOptions { events_per_basket: 20, compress: false });
        let intact = TreeReader::open(Arc::new(MemFile::new(bytes.clone()))).unwrap();
        let px = intact.schema().index_of("px").unwrap();
        let basket = intact.basket_for(px, 45).unwrap();
        let info = intact.baskets()[basket];
        // The frame of 19 events of `px` where the 20 of ordinal 2 were.
        let short = codec::store(&[7; 76]);
        let mut lying_events = bytes.clone();
        patch_index(&mut lying_events, basket, |rec| {
            rec[2..10].copy_from_slice(&41u64.to_le_bytes())
        });
        let mut short_frame = bytes.clone();
        let at = info.offset as usize;
        short_frame[at..at + short.len()].copy_from_slice(&short);
        patch_index(&mut short_frame, basket, |rec| {
            rec[22..26].copy_from_slice(&(short.len() as u32).to_le_bytes())
        });
        for (file, text) in [
            (lying_events, "events 40..60 outside their basket"),
            (short_frame, "basket size mismatch after decompression"),
        ] {
            for enabled in [true, false] {
                let file = MemFile::new(file.clone());
                let reader = Arc::new(TreeReader::open(Arc::new(file)).unwrap());
                let opts = TreeCacheOptions { window_events: 100, enabled, prefetch: false };
                let mut cache = TreeCache::for_branches(reader, &["px"], opts, rt()).unwrap();
                let err = cache.window(45).err().expect("rejected");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text}");
                assert_eq!(err.to_string(), text);
                assert!(cache.window(45).is_err(), "{text}: nothing lent after the failure");
                assert!(cache.window(150).is_ok(), "{text}: ordinals 5 and on are intact");
            }
        }
    }

    #[test]
    fn unknown_branch_is_error() {
        let (reader, _src, _schema) = tree();
        assert!(
            TreeCache::for_branches(reader, &["nope"], TreeCacheOptions::default(), rt()).is_err()
        );
    }
}
