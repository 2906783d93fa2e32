//! The TreeCache: vectored basket fetching with optional asynchronous
//! prefetch of the next event window.
//!
//! This reproduces ROOT's `TTreeCache` role in the paper's Figure 3: the
//! analysis asks for branch values event by event; the cache translates that
//! into *one vectored read per event window* through
//! [`RandomAccess::read_vec`](ioapi::RandomAccess::read_vec). When the source supports prefetch
//! (xrdlite), the *next* window is requested asynchronously while the
//! application processes the current one — the latency-hiding that gives the
//! baseline protocol its WAN edge in Figure 4.
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
//! [`TreeCache::column`] lends them as [`Column`]s, and the caller reads
//! every event of the run out of the borrowed slices. With 20-event baskets
//! that is one look-up per branch per 20 events where a per-value interface
//! costs one per value (half a million per pass of the `analysis_sparse`
//! benchmark, about three quarters of its time before this table existed).
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

use crate::reader::{bad, TreeReader};
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
    /// Ask the source to prefetch the following window asynchronously
    /// (only effective when the source [`supports_prefetch`]).
    ///
    /// [`supports_prefetch`]: ioapi::RandomAccess::supports_prefetch
    pub prefetch: bool,
}

impl Default for TreeCacheOptions {
    fn default() -> Self {
        TreeCacheOptions { window_events: 2_000, enabled: true, prefetch: false }
    }
}

/// One resident decoded basket: the values of one branch for a run of
/// consecutive events. Every typed read is bounds-checked against the
/// basket, so an index that lies about where events live yields an error.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    bytes: &'a [u8],
    first_event: u64,
}

impl<'a> Column<'a> {
    /// The `width` bytes of `event`.
    fn value(&self, event: u64, width: usize) -> io::Result<&'a [u8]> {
        event
            .checked_sub(self.first_event)
            .and_then(|i| usize::try_from(i).ok()?.checked_mul(width))
            .and_then(|at| self.bytes.get(at..at.checked_add(width)?))
            .ok_or_else(|| bad(format!("event {event} outside its basket")))
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

/// Basket cache for a set of branches over one tree.
pub struct TreeCache {
    reader: Arc<TreeReader>,
    /// The selected branches, in the caller's order.
    branches: Vec<usize>,
    opts: TreeCacheOptions,
    /// The window table, one row per schema branch.
    rows: Vec<Row>,
    /// Fetch-window statistics.
    windows_loaded: u64,
    prefetches_issued: u64,
}

impl TreeCache {
    /// Build a cache over `branches` (indices into the schema).
    pub fn new(reader: Arc<TreeReader>, branches: &[usize], opts: TreeCacheOptions) -> TreeCache {
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
            rows,
            windows_loaded: 0,
            prefetches_issued: 0,
        }
    }

    /// Convenience: resolve branch names.
    pub fn for_branches(
        reader: Arc<TreeReader>,
        names: &[&str],
        opts: TreeCacheOptions,
    ) -> io::Result<TreeCache> {
        let mut branches = Vec::with_capacity(names.len());
        for n in names {
            branches.push(reader.schema().index_of(n).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("no branch {n:?}"))
            })?);
        }
        Ok(TreeCache::new(reader, &branches, opts))
    }

    /// Number of vectored window loads performed.
    pub fn windows_loaded(&self) -> u64 {
        self.windows_loaded
    }

    /// Number of async prefetches issued.
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

    /// The basket (global index) and ordinal holding `event` of `branch`.
    fn locate(&self, branch: usize, event: u64) -> io::Result<(usize, u64)> {
        let basket = self.reader.basket_for(branch, event)?;
        Ok((basket, event / self.reader.events_per_basket() as u64))
    }

    fn resident(&self, branch: usize, ord: u64) -> Option<&[u8]> {
        self.rows.get(branch)?.get(ord)
    }

    /// Load the window containing `event`; optionally prefetch the next one.
    fn load_window(&mut self, event: u64) -> io::Result<()> {
        let start = (event / self.opts.window_events) * self.opts.window_events;
        let ords = self.window_ords(start);
        // Baskets before the window go; one that straddles its start stays,
        // so it is fetched once, by the window that first needed it.
        for &branch in &self.branches {
            self.rows[branch].rebase(ords.start, ords.end.saturating_sub(ords.start) as usize);
        }
        let mut missing = self.window_baskets(start);
        missing.retain(|p| self.resident(p.branch, p.ord).is_none());
        if !missing.is_empty() {
            let frags: Vec<(u64, usize)> = missing.iter().map(|p| (p.offset, p.len)).collect();
            let blobs = self.reader.source().read_vec(&frags)?;
            self.windows_loaded += 1;
            for (p, blob) in missing.iter().zip(blobs) {
                let col = self.reader.decode_basket(p.basket, &blob)?;
                self.rows[p.branch].put(p.ord, col);
            }
        }

        // Async prefetch of the next window.
        if self.opts.prefetch && self.reader.source().supports_prefetch() {
            let next = start.saturating_add(self.opts.window_events);
            if next < self.reader.n_events() {
                let next_frags: Vec<(u64, usize)> = self
                    .window_baskets(next)
                    .into_iter()
                    .filter(|p| self.resident(p.branch, p.ord).is_none())
                    .map(|p| (p.offset, p.len))
                    .collect();
                if !next_frags.is_empty() {
                    self.reader.source().prefetch_vec(&next_frags);
                    self.prefetches_issued += 1;
                }
            }
        }
        Ok(())
    }

    /// Make the basket holding `event` of `branch` resident: with the cache
    /// enabled a miss loads the whole window of every selected branch,
    /// otherwise it is one scalar read that replaces the branch's basket.
    pub fn load(&mut self, branch: usize, event: u64) -> io::Result<()> {
        let (basket, ord) = self.locate(branch, event)?;
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
        let (basket, ord) = self.locate(branch, event)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Generator, Schema};
    use crate::writer::{write_tree, WriterOptions};
    use ioapi::{IoStats, IoStatsSnapshot, MemFile, RandomAccess};
    use parking_lot::Mutex;

    /// A MemFile wrapper that counts read_vec/read_at calls and can emulate
    /// prefetch support.
    struct CountingSource {
        mem: MemFile,
        stats: IoStats,
        prefetched: Mutex<Vec<Vec<(u64, usize)>>>,
        /// The fragment list of every `read_vec`, in call order.
        loads: Mutex<Vec<Vec<(u64, usize)>>>,
        claims_prefetch: bool,
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
            self.stats.record_vector_read(0, 1);
            self.loads.lock().push(frags.to_vec());
            self.mem.read_vec(frags)
        }
        fn prefetch_vec(&self, frags: &[(u64, usize)]) {
            self.prefetched.lock().push(frags.to_vec());
        }
        fn supports_prefetch(&self) -> bool {
            self.claims_prefetch
        }
        fn stats(&self) -> IoStatsSnapshot {
            self.stats.snapshot()
        }
    }

    fn tree(claims_prefetch: bool) -> (Arc<TreeReader>, Arc<CountingSource>, Schema) {
        tree_of(2_000, 100, claims_prefetch)
    }

    fn tree_of(
        n_events: u64,
        events_per_basket: usize,
        claims_prefetch: bool,
    ) -> (Arc<TreeReader>, Arc<CountingSource>, Schema) {
        let schema = Schema::hep(8);
        let mut g = Generator::new(schema.clone(), 21);
        let bytes =
            write_tree(&mut g, n_events, &WriterOptions { events_per_basket, compress: true });
        let src = Arc::new(CountingSource {
            mem: MemFile::new(bytes),
            stats: IoStats::default(),
            prefetched: Mutex::new(Vec::new()),
            loads: Mutex::new(Vec::new()),
            claims_prefetch,
        });
        let reader = Arc::new(TreeReader::open(src.clone() as Arc<dyn RandomAccess>).unwrap());
        (reader, src, schema)
    }

    #[test]
    fn values_match_generator() {
        let (reader, _src, schema) = tree(false);
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "energy", "charge", "nhits"],
            TreeCacheOptions::default(),
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
        let (reader, src, _schema) = tree(false);
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "py", "pz", "energy"],
            TreeCacheOptions { window_events: 500, enabled: true, prefetch: false },
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
        let (reader, src, _schema) = tree(false);
        let before = src.stats();
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px", "py"],
            TreeCacheOptions { enabled: false, ..Default::default() },
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

    #[test]
    fn prefetch_issued_for_next_window_when_supported() {
        let (reader, src, _schema) = tree(true);
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px"],
            TreeCacheOptions { window_events: 500, enabled: true, prefetch: true },
        )
        .unwrap();
        let px = reader.schema().index_of("px").unwrap();
        cache.f32_value(px, 0).unwrap();
        let prefetched = src.prefetched.lock();
        assert_eq!(prefetched.len(), 1, "window 0 load should prefetch window 1");
        assert!(!prefetched[0].is_empty());
        drop(prefetched);
        assert_eq!(cache.prefetches_issued(), 1);
    }

    #[test]
    fn prefetch_not_issued_when_unsupported() {
        let (reader, src, _schema) = tree(false);
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["px"],
            TreeCacheOptions { window_events: 500, enabled: true, prefetch: true },
        )
        .unwrap();
        let px = reader.schema().index_of("px").unwrap();
        cache.f32_value(px, 0).unwrap();
        assert!(src.prefetched.lock().is_empty());
    }

    #[test]
    fn sparse_access_still_correct() {
        let (reader, _src, schema) = tree(false);
        let mut cache = TreeCache::for_branches(
            Arc::clone(&reader),
            &["cal"],
            TreeCacheOptions { window_events: 300, ..Default::default() },
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
            let (reader, src, _schema) = tree_of(1_010, per, false);
            let opts = TreeCacheOptions { window_events: window, enabled: true, prefetch: false };
            let mut cache = TreeCache::for_branches(Arc::clone(&reader), &names, opts).unwrap();
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
        let (reader, _src, schema) = tree(false);
        let mut cache =
            TreeCache::for_branches(Arc::clone(&reader), &["px"], TreeCacheOptions::default())
                .unwrap();
        let py = schema.index_of("py").unwrap();
        assert!(cache.column(schema.index_of("px").unwrap(), 0).is_err(), "not loaded yet");
        assert!(cache.f32_value(py, 0).is_err());
        // Cache off, every branch is read on demand.
        let opts = TreeCacheOptions { enabled: false, ..Default::default() };
        let mut plain = TreeCache::for_branches(reader, &["px"], opts).unwrap();
        assert!(plain.f32_value(py, 0).is_ok());
    }

    #[test]
    fn unknown_branch_is_error() {
        let (reader, _src, _schema) = tree(false);
        assert!(TreeCache::for_branches(reader, &["nope"], TreeCacheOptions::default()).is_err());
    }
}
