//! Shared client-side block cache: block-aligned LRU bytes with
//! single-flight de-duplication and adaptive read-ahead.
//!
//! The paper's §2.3 argument is that HTTP competes with HPC protocols only
//! when the client kills redundant round trips. PRs 1–3 attacked the
//! *per-request* costs (connection reuse, vectored reads, parallel
//! replicas); this module attacks the *repeated-request* cost: a logical
//! read that was already answered must not touch the network again.
//!
//! Three cooperating pieces:
//!
//! * [`BlockCache`] — one per client, shared by every open file. Bytes are
//!   cached in fixed-size blocks (`Config::cache_block_size`) under a
//!   `(resource key, block index)` key, evicted LRU once
//!   `Config::cache_capacity_bytes` of *ready* payload is resident.
//!   **Single-flight**: when N readers miss the same cold block
//!   concurrently, exactly one fetches upstream; the rest park on a
//!   runtime [`Signal`] and share the result
//!   (`Metrics::singleflight_waits`). The map lock is held only to look
//!   up / claim / publish — never across network I/O, the same discipline
//!   as the PR 3 scheduler.
//! * `FileCache` — the per-handle binding, owned by the handle's `Reader`
//!   (the cached-read front of the read stack, see the crate docs): a
//!   resource key (for [`ReplicaFile`](crate::ReplicaFile) the *origin*,
//!   so fail-over between replicas keeps its hits), the entity size, the
//!   `BlockFetch` upstream the `Reader` would otherwise read directly —
//!   the wire, or the replica fail-over walk — and the read-ahead state
//!   (all crate-internal).
//! * **Adaptive read-ahead** — a reader that keeps picking up exactly
//!   where its last read ended is sequential; each such read doubles the
//!   prefetch window from `Config::readahead_min` up to
//!   `Config::readahead_max` (a random seek resets it), and the window is
//!   fetched by a job on the client's I/O pool through the same single-flight
//!   path, so a later demand read either hits or joins the in-flight
//!   fetch. Windows are clamped at EOF — prefetch past the end is a no-op,
//!   never an error.
//!
//! Errors are never cached: a failed fetch removes the claim, waiters are
//! woken with the failure and simply retry (becoming the fetcher
//! themselves), so one transient fault cannot poison a block.

use crate::error::{DavixError, Result};
use crate::metrics::Metrics;
use netsim::{Runtime, Signal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The one upstream of a read: the wire ([`RawFile`](crate::file::RawFile))
/// or the replica fail-over walk above it. A `Reader` calls it directly
/// when no cache is bound; a [`FileCache`] calls it on a miss, also from
/// background (prefetch) threads.
pub(crate) trait BlockFetch: Send + Sync {
    /// Read up to `buf.len()` bytes at `offset`; 0 at or past EOF.
    fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize>;

    /// Fetch every `(offset, len)` fragment, in order — on HTTP one
    /// multi-range request (§2.3), so a cold vectored read through the
    /// cache still costs one round trip.
    fn pread_vec(&self, fragments: &[(u64, usize)]) -> Result<Vec<Vec<u8>>>;

    /// What errors call this upstream: its URI, on the wire.
    fn name(&self) -> String {
        "upstream".to_string()
    }

    /// Fetch exactly `len` bytes at `offset` (the caller has already
    /// clamped the range inside the entity).
    fn fetch(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            match self.pread(offset + done as u64, &mut buf[done..])? {
                0 => {
                    return Err(DavixError::Protocol(format!(
                        "{}: entity ended at {} inside block {offset}+{len}",
                        self.name(),
                        offset + done as u64
                    )))
                }
                n => done += n,
            }
        }
        Ok(buf)
    }
}

/// Cache key: resource identity + block index.
type BlockKey = (Arc<str>, u64);

/// A claim's unresolved slot; waiters park on `sig`.
struct Pending {
    sig: Arc<dyn Signal>,
    /// `None` until resolved; errors carried as strings ([`DavixError`] is
    /// not `Clone`) — waiters never *return* them, they retry.
    result: Mutex<Option<std::result::Result<Arc<Vec<u8>>, String>>>,
}

enum Entry {
    Ready { data: Arc<Vec<u8>>, last_used: u64 },
    Pending(Arc<Pending>),
}

struct CacheInner {
    map: HashMap<BlockKey, Entry>,
    /// Bytes held by `Ready` entries (pending fetches don't count until
    /// they land).
    ready_bytes: u64,
    /// Monotonic LRU clock; bumped on every hit.
    tick: u64,
}

/// A block index this caller inserted the pending entry for, and so owes
/// the fetch of.
type Claim = (u64, Arc<Pending>);

/// Outcome of one locked lookup.
enum Lookup {
    Hit(Arc<Vec<u8>>),
    /// Someone else is fetching: park on their slot.
    Wait(Arc<Pending>),
    /// We inserted the pending entry and owe the fetch.
    Claimed(Arc<Pending>),
}

/// The shared block store. One per [`DavixClient`](crate::DavixClient),
/// created when `Config::cache_capacity_bytes > 0`.
pub struct BlockCache {
    rt: Arc<dyn Runtime>,
    io_pool: Arc<crate::IoPool>,
    metrics: Arc<Metrics>,
    block_size: u64,
    capacity: u64,
    inner: Mutex<CacheInner>,
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("BlockCache")
            .field("block_size", &self.block_size)
            .field("capacity", &self.capacity)
            .field("entries", &inner.map.len())
            .field("ready_bytes", &inner.ready_bytes)
            .finish()
    }
}

impl BlockCache {
    /// Build a cache. `block_size` must be non-zero (the config layer
    /// guarantees it by disabling the cache at 0 capacity and defaulting
    /// the block size).
    pub(crate) fn new(
        rt: Arc<dyn Runtime>,
        io_pool: Arc<crate::IoPool>,
        metrics: Arc<Metrics>,
        block_size: u64,
        capacity: u64,
    ) -> Arc<BlockCache> {
        assert!(block_size > 0, "cache block size must be non-zero");
        Arc::new(BlockCache {
            rt,
            io_pool,
            metrics,
            block_size,
            capacity,
            inner: Mutex::new(CacheInner { map: HashMap::new(), ready_bytes: 0, tick: 0 }),
        })
    }

    /// Configured block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Bytes currently held by ready blocks (diagnostics/tests).
    pub fn ready_bytes(&self) -> u64 {
        self.inner.lock().ready_bytes
    }

    /// One locked lookup-or-claim. Never blocks on I/O.
    fn lookup(&self, key: &Arc<str>, index: u64) -> Lookup {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&(Arc::clone(key), index)) {
            Some(Entry::Ready { data, last_used }) => {
                *last_used = tick;
                Lookup::Hit(Arc::clone(data))
            }
            Some(Entry::Pending(p)) => Lookup::Wait(Arc::clone(p)),
            None => {
                let p = Arc::new(Pending { sig: self.rt.signal(), result: Mutex::new(None) });
                inner.map.insert((Arc::clone(key), index), Entry::Pending(Arc::clone(&p)));
                Lookup::Claimed(p)
            }
        }
    }

    /// Publish a fetched block: swap the pending entry for a ready one,
    /// evict LRU past capacity, wake waiters. Lock dropped before `set()`.
    fn fill_ok(&self, key: &Arc<str>, index: u64, pending: &Arc<Pending>, data: Arc<Vec<u8>>) {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            inner.ready_bytes += data.len() as u64;
            inner.map.insert(
                (Arc::clone(key), index),
                Entry::Ready { data: Arc::clone(&data), last_used: tick },
            );
            while inner.ready_bytes > self.capacity {
                // Evict the least-recently-used ready block (pending fetches
                // are never evicted: their claimants are mid-flight).
                let victim = inner
                    .map
                    .iter()
                    .filter_map(|(k, e)| match e {
                        Entry::Ready { last_used, .. } => Some((*last_used, k.clone())),
                        Entry::Pending(_) => None,
                    })
                    .min()
                    .map(|(_, k)| k);
                let Some(k) = victim else { break };
                if let Some(Entry::Ready { data, .. }) = inner.map.remove(&k) {
                    inner.ready_bytes -= data.len() as u64;
                }
            }
        }
        *pending.result.lock() = Some(Ok(data));
        pending.sig.set();
    }

    /// A fetch failed: withdraw the claim (errors are not cached) and wake
    /// waiters with the failure so they can retry as fetchers.
    fn fill_err(&self, key: &Arc<str>, index: u64, pending: &Arc<Pending>, err: &DavixError) {
        {
            let mut inner = self.inner.lock();
            // Only remove *our* pending entry — a racing refill may already
            // have replaced it.
            if let Some(Entry::Pending(p)) = inner.map.get(&(Arc::clone(key), index)) {
                if Arc::ptr_eq(p, pending) {
                    inner.map.remove(&(Arc::clone(key), index));
                }
            }
        }
        *pending.result.lock() = Some(Err(err.to_string()));
        pending.sig.set();
    }

    /// Get block `index` of `key`, fetching (at most once across all
    /// concurrent callers) with `fetch` on a miss.
    fn get_or_fetch(
        &self,
        key: &Arc<str>,
        index: u64,
        upstream: &mut u64,
        fetch: impl Fn() -> Result<Vec<u8>>,
    ) -> Result<Arc<Vec<u8>>> {
        loop {
            match self.lookup(key, index) {
                Lookup::Hit(data) => {
                    Metrics::bump(&self.metrics.cache_hits);
                    return Ok(data);
                }
                Lookup::Wait(p) => {
                    Metrics::bump(&self.metrics.singleflight_waits);
                    p.sig.wait(None);
                    match p.result.lock().as_ref() {
                        Some(Ok(data)) => {
                            // Served without an upstream request of our own.
                            Metrics::bump(&self.metrics.cache_hits);
                            return Ok(Arc::clone(data));
                        }
                        // The fetcher failed (claim already withdrawn):
                        // loop and try again, becoming the fetcher.
                        Some(Err(_)) | None => continue,
                    }
                }
                Lookup::Claimed(p) => {
                    Metrics::bump(&self.metrics.cache_misses);
                    *upstream += 1;
                    let blob = self.publish(key, &[(index, p)], fetch().map(|b| vec![b]))?;
                    return Ok(Arc::clone(&blob[&index]));
                }
            }
        }
    }

    /// Resolve `claims` with the outcome of their one upstream fetch: each
    /// blob becomes a ready block, or every claim is withdrawn. The blobs
    /// are also returned by index so the fetching read can assemble from
    /// them directly — they may already be evicted again if the read span
    /// exceeds the cache capacity, and re-reading them through the cache
    /// would double-count them as hits or refetch them.
    fn publish(
        &self,
        key: &Arc<str>,
        claims: &[Claim],
        result: Result<Vec<Vec<u8>>>,
    ) -> Result<HashMap<u64, Arc<Vec<u8>>>> {
        match result {
            Ok(blobs) => Ok(claims
                .iter()
                .zip(blobs)
                .map(|((index, pending), blob)| {
                    let blob = Arc::new(blob);
                    self.fill_ok(key, *index, pending, Arc::clone(&blob));
                    (*index, blob)
                })
                .collect()),
            Err(e) => {
                for (index, pending) in claims {
                    self.fill_err(key, *index, pending, &e);
                }
                Err(e)
            }
        }
    }
}

/// Sequential-access detector state.
struct Readahead {
    /// Offset the next read lands on if the caller is sequential.
    expected: u64,
    /// Current prefetch window in bytes (0 until two sequential reads).
    window: u64,
}

/// Per-file-handle binding of a [`BlockCache`]: resource key, size, the
/// upstream fetcher and the read-ahead state.
pub(crate) struct FileCache {
    cache: Arc<BlockCache>,
    key: Arc<str>,
    size: u64,
    fetcher: Arc<dyn BlockFetch>,
    ra: Mutex<Readahead>,
    ra_min: u64,
    ra_max: u64,
}

impl FileCache {
    /// Bind `fetcher` to `cache` under `key` for an entity of `size` bytes.
    /// `ra_min`/`ra_max` are the read-ahead window bounds (0 disables).
    pub(crate) fn new(
        cache: Arc<BlockCache>,
        key: String,
        size: u64,
        fetcher: Arc<dyn BlockFetch>,
        ra_min: u64,
        ra_max: u64,
    ) -> FileCache {
        FileCache {
            cache,
            key: Arc::from(key),
            size,
            fetcher,
            ra: Mutex::new(Readahead { expected: u64::MAX, window: 0 }),
            ra_min,
            ra_max,
        }
    }

    fn block_size(&self) -> u64 {
        self.cache.block_size
    }

    /// The in-entity byte range block `index` covers (clamped at EOF).
    fn block_range(&self, index: u64) -> (u64, usize) {
        let off = index * self.block_size();
        let len = self.block_size().min(self.size - off);
        (off, len as usize)
    }

    /// The blocks `fragments` touch, ascending and without repeats. Empty
    /// fragments and whatever lies past EOF touch none.
    fn blocks_of(&self, fragments: &[(u64, usize)]) -> Vec<u64> {
        let mut blocks: Vec<u64> = Vec::new();
        for &(off, len) in fragments {
            if len == 0 || off >= self.size {
                continue;
            }
            let last = (off + len as u64 - 1).min(self.size - 1) / self.block_size();
            blocks.extend(off / self.block_size()..=last);
        }
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Read up to `buf.len()` bytes at `offset` through the cache. Returns
    /// `(bytes_read, upstream_fetches)` — the latter feeds the handle's
    /// round-trip accounting honestly (a full hit is 0 round trips).
    pub(crate) fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(usize, u64)> {
        let mut upstream = 0u64;
        let fetched = self.fetch_missing(&self.blocks_of(&[(offset, buf.len())]), &mut upstream)?;
        let (n, later) = self.read_fragment(offset, buf, &fetched)?;
        if n > 0 {
            self.after_read(offset, n as u64);
        }
        Ok((n, upstream + later))
    }

    /// Vectored read through the cache: all missing blocks across every
    /// fragment are fetched in one `pread_vec` (one multi-range round trip
    /// on the HTTP fetchers), then fragments are assembled from blocks.
    pub(crate) fn read_vec(&self, fragments: &[(u64, usize)]) -> Result<(Vec<Vec<u8>>, u64)> {
        let mut upstream = 0u64;
        let fetched = self.fetch_missing(&self.blocks_of(fragments), &mut upstream)?;
        let mut out = Vec::with_capacity(fragments.len());
        for &(off, len) in fragments {
            let mut frag = vec![0u8; len];
            let (n, later) = self.read_fragment(off, &mut frag, &fetched)?;
            upstream += later;
            frag.truncate(n);
            out.push(frag);
        }
        Ok((out, upstream))
    }

    /// The one block assembly: copy `[offset, offset + buf.len())`, clamped
    /// at EOF, out of the blocks covering it. `fetched` carries the blobs
    /// this read's own upstream fetch just produced (see
    /// `BlockCache::publish` for why assembly must not re-ask the cache
    /// for them); any other block is a cache lookup, fetched alone if it is
    /// somehow still missing (its span fetch failed and was retried by a
    /// waiter, say). Never triggers read-ahead — fragment assembly inside
    /// a vectored read must not look like a sequential scan.
    fn read_fragment(
        &self,
        offset: u64,
        buf: &mut [u8],
        fetched: &HashMap<u64, Arc<Vec<u8>>>,
    ) -> Result<(usize, u64)> {
        if buf.is_empty() || offset >= self.size {
            return Ok((0, 0));
        }
        let want = (buf.len() as u64).min(self.size - offset) as usize;
        let mut upstream = 0u64;
        let mut done = 0usize;
        while done < want {
            let index = (offset + done as u64) / self.block_size();
            let (b_off, b_len) = self.block_range(index);
            let data = match fetched.get(&index) {
                Some(d) => Arc::clone(d),
                None => self.cache.get_or_fetch(&self.key, index, &mut upstream, || {
                    self.fetcher.fetch(b_off, b_len)
                })?,
            };
            let from = (offset + done as u64 - b_off) as usize;
            let n = (b_len - from).min(want - done);
            buf[done..done + n].copy_from_slice(&data[from..from + n]);
            done += n;
        }
        Ok((want, upstream))
    }

    /// Claim whichever of `indices` are absent, fetch the claimed ranges
    /// with one `pread_vec`, publish. Blocks already ready or in flight
    /// elsewhere are left to the assembly step.
    fn fetch_missing(
        &self,
        indices: &[u64],
        upstream: &mut u64,
    ) -> Result<HashMap<u64, Arc<Vec<u8>>>> {
        let (claims, ranges) = self.claim_missing(indices);
        if claims.is_empty() {
            return Ok(HashMap::new());
        }
        *upstream += 1;
        self.cache.publish(&self.key, &claims, self.fetcher.pread_vec(&ranges))
    }

    /// Insert pending entries for every block of `indices` not already
    /// present (counted as misses); returns the claims owed a fetch and the
    /// byte ranges to fetch them with. One lock round, never held across
    /// I/O.
    fn claim_missing(&self, indices: &[u64]) -> (Vec<Claim>, Vec<(u64, usize)>) {
        let mut claims = Vec::new();
        let mut inner = self.cache.inner.lock();
        for &index in indices {
            let key = (Arc::clone(&self.key), index);
            if let std::collections::hash_map::Entry::Vacant(slot) = inner.map.entry(key) {
                let p = Arc::new(Pending { sig: self.cache.rt.signal(), result: Mutex::new(None) });
                slot.insert(Entry::Pending(Arc::clone(&p)));
                claims.push((index, p));
            }
        }
        drop(inner);
        Metrics::add(&self.cache.metrics.cache_misses, claims.len() as u64);
        let ranges = claims.iter().map(|&(i, _)| self.block_range(i)).collect();
        (claims, ranges)
    }

    /// Post-read hook: update the sequential detector and kick off the
    /// read-ahead window when the access pattern warrants one.
    fn after_read(&self, offset: u64, len: u64) {
        if self.ra_min == 0 || self.ra_max == 0 {
            return;
        }
        let end = offset + len;
        let window = {
            let mut ra = self.ra.lock();
            if offset == ra.expected {
                // Sequential: open the window at `min`, then double per
                // consecutive read up to `max`.
                ra.window =
                    if ra.window == 0 { self.ra_min } else { (ra.window * 2).min(self.ra_max) };
            } else {
                ra.window = 0;
            }
            ra.expected = end;
            ra.window
        };
        if window == 0 || end >= self.size {
            return; // random access, or already at EOF — nothing to fetch
        }
        // Clamped at EOF: prefetching "past the end" silently shrinks to
        // the real tail instead of erroring.
        self.prefetch(&[(end, window as usize)]);
    }

    /// Hint that `fragments` will be read soon: claim whichever of their
    /// blocks are absent and fetch them in one job on the client's I/O pool
    /// (one vectored request) through the single-flight path, counting the
    /// landed bytes as `Metrics::bytes_prefetched`. Fragments beyond EOF
    /// are clamped away — hinting too far is free. Failures withdraw the
    /// claims; a later demand read simply refetches.
    pub(crate) fn prefetch(&self, fragments: &[(u64, usize)]) {
        let (claims, ranges) = self.claim_missing(&self.blocks_of(fragments));
        if claims.is_empty() {
            return;
        }
        let cache = Arc::clone(&self.cache);
        let key = Arc::clone(&self.key);
        let fetcher = Arc::clone(&self.fetcher);
        self.cache.io_pool.submit(move || {
            let result = fetcher.pread_vec(&ranges);
            if let Ok(blobs) = &result {
                let bytes: u64 = blobs.iter().map(|b| b.len() as u64).sum();
                Metrics::add(&cache.metrics.bytes_prefetched, bytes);
            }
            let _ = cache.publish(&key, &claims, result);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use davix_sync::{AtomicU64, Ordering};
    use netsim::RealRuntime;

    /// In-memory fetcher that counts upstream calls.
    struct MemFetch {
        data: Vec<u8>,
        calls: AtomicU64,
        vec_calls: AtomicU64,
    }

    impl MemFetch {
        fn new(n: usize) -> Arc<MemFetch> {
            Arc::new(MemFetch {
                data: (0..n).map(|i| (i % 239) as u8).collect(),
                calls: AtomicU64::new(0),
                vec_calls: AtomicU64::new(0),
            })
        }
    }

    impl BlockFetch for MemFetch {
        fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            buf.copy_from_slice(&self.data[offset as usize..offset as usize + buf.len()]);
            Ok(buf.len())
        }

        fn pread_vec(&self, ranges: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
            self.vec_calls.fetch_add(1, Ordering::SeqCst);
            Ok(ranges
                .iter()
                .map(|&(off, len)| self.data[off as usize..off as usize + len].to_vec())
                .collect())
        }
    }

    fn harness(
        size: usize,
        block: u64,
        capacity: u64,
        ra: (u64, u64),
    ) -> (FileCache, Arc<MemFetch>, Arc<Metrics>) {
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let metrics = Arc::new(Metrics::default());
        let pool = crate::IoPool::new(Arc::clone(&rt), 16);
        let cache = BlockCache::new(rt, pool, Arc::clone(&metrics), block, capacity);
        let fetch = MemFetch::new(size);
        let fc = FileCache::new(
            cache,
            "test".to_string(),
            size as u64,
            Arc::clone(&fetch) as Arc<dyn BlockFetch>,
            ra.0,
            ra.1,
        );
        (fc, fetch, metrics)
    }

    #[test]
    fn read_at_is_correct_across_block_boundaries() {
        let (fc, fetch, _) = harness(10_000, 256, 1 << 20, (0, 0));
        for &(off, len) in &[(0u64, 10usize), (250, 20), (255, 1), (256, 256), (9_990, 100)] {
            let mut buf = vec![0u8; len];
            let (n, _) = fc.read_at(off, &mut buf).unwrap();
            let want = len.min(10_000usize.saturating_sub(off as usize));
            assert_eq!(n, want, "at {off}+{len}");
            assert_eq!(&buf[..n], &fetch.data[off as usize..off as usize + n]);
        }
        assert_eq!(fc.read_at(10_000, &mut [0u8; 4]).unwrap().0, 0);
        assert_eq!(fc.read_at(20_000, &mut [0u8; 4]).unwrap().0, 0);
    }

    #[test]
    fn reread_hits_without_upstream_fetch() {
        let (fc, fetch, metrics) = harness(4_096, 512, 1 << 20, (0, 0));
        let mut buf = vec![0u8; 4_096];
        let (_, ups1) = fc.read_at(0, &mut buf).unwrap();
        assert_eq!(ups1, 1, "one vectored fetch for the whole span");
        let calls = fetch.vec_calls.load(Ordering::SeqCst);
        let (_, ups2) = fc.read_at(0, &mut buf).unwrap();
        assert_eq!(ups2, 0, "second pass is all hits");
        assert_eq!(fetch.vec_calls.load(Ordering::SeqCst), calls);
        assert!(metrics.cache_hits.load(Ordering::Relaxed) >= 8);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // Room for exactly 2 blocks of 100.
        let (fc, _, _) = harness(1_000, 100, 200, (0, 0));
        let mut buf = vec![0u8; 100];
        fc.read_at(0, &mut buf).unwrap(); // block 0
        fc.read_at(100, &mut buf).unwrap(); // block 1
        fc.read_at(0, &mut buf).unwrap(); // touch block 0
        fc.read_at(200, &mut buf).unwrap(); // block 2 → evicts block 1 (LRU)
        assert_eq!(fc.cache.ready_bytes(), 200);
        let (_, ups) = fc.read_at(0, &mut buf).unwrap();
        assert_eq!(ups, 0, "block 0 was touched, must have survived");
        let (_, ups) = fc.read_at(100, &mut buf).unwrap();
        assert_eq!(ups, 1, "block 1 was LRU, must have been evicted");
    }

    #[test]
    fn span_larger_than_capacity_does_not_thrash() {
        // Capacity holds 2 blocks; one read covers 10. The fetched blobs
        // must feed the assembly directly — going back through the cache
        // would find them already evicted and refetch each one scalar.
        let (fc, fetch, _) = harness(1_000, 100, 200, (0, 0));
        let mut buf = vec![0u8; 1_000];
        let (n, ups) = fc.read_at(0, &mut buf).unwrap();
        assert_eq!(n, 1_000);
        assert_eq!(ups, 1, "exactly one vectored upstream fetch");
        assert_eq!(fetch.calls.load(Ordering::SeqCst), 0, "no per-block scalar refetches");
        assert_eq!(fetch.vec_calls.load(Ordering::SeqCst), 1);
        assert_eq!(&buf, &fetch.data[..1_000]);
    }

    #[test]
    fn cold_read_counts_misses_but_no_hits() {
        let (fc, _, metrics) = harness(4_096, 512, 1 << 20, (0, 0));
        let mut buf = vec![0u8; 4_096];
        fc.read_at(0, &mut buf).unwrap();
        assert_eq!(
            metrics.cache_hits.load(Ordering::Relaxed),
            0,
            "assembling a read from its own fetch must not count as hits"
        );
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 8);
        fc.read_at(0, &mut buf).unwrap();
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 8, "the re-read is the hits");
    }

    #[test]
    fn read_vec_fetches_missing_blocks_in_one_call() {
        let (fc, fetch, _) = harness(100_000, 1_024, 1 << 20, (0, 0));
        let frags = [(0u64, 100usize), (50_000, 200), (99_900, 100)];
        let (out, ups) = fc.read_vec(&frags).unwrap();
        assert_eq!(ups, 1, "all cold blocks in one vectored fetch");
        assert_eq!(fetch.vec_calls.load(Ordering::SeqCst), 1);
        for (got, &(off, len)) in out.iter().zip(&frags) {
            assert_eq!(got, &fetch.data[off as usize..off as usize + len]);
        }
        let (_, ups) = fc.read_vec(&frags).unwrap();
        assert_eq!(ups, 0, "re-read served from cache");
    }

    #[test]
    fn adaptive_window_grows_and_resets() {
        let (fc, _, _) = harness(1 << 20, 4_096, 1 << 20, (8_192, 65_536));
        let mut buf = vec![0u8; 4_096];
        fc.read_at(0, &mut buf).unwrap(); // first read: no window yet
        assert_eq!(fc.ra.lock().window, 0);
        fc.read_at(4_096, &mut buf).unwrap(); // sequential → min
        assert_eq!(fc.ra.lock().window, 8_192);
        fc.read_at(8_192, &mut buf).unwrap(); // doubled
        assert_eq!(fc.ra.lock().window, 16_384);
        fc.read_at(500_000, &mut buf).unwrap(); // seek → reset
        assert_eq!(fc.ra.lock().window, 0);
        // Window is capped at max.
        let mut off = 500_000 + 4_096;
        for _ in 0..10 {
            fc.read_at(off, &mut buf).unwrap();
            off += 4_096;
        }
        assert_eq!(fc.ra.lock().window, 65_536);
    }

    #[test]
    fn prefetch_past_eof_is_clamped_not_an_error() {
        let (fc, fetch, _) = harness(10_000, 4_096, 1 << 20, (1 << 20, 1 << 20));
        let mut buf = vec![0u8; 4_096];
        // Two sequential reads near EOF: the window (1 MiB) dwarfs the
        // remaining tail; the prefetch must clamp silently.
        fc.read_at(0, &mut buf).unwrap();
        fc.read_at(4_096, &mut buf).unwrap();
        // Reads at/past EOF stay clean afterwards.
        let (n, _) = fc.read_at(8_192, &mut buf).unwrap();
        assert_eq!(n, 10_000 - 8_192);
        assert_eq!(&buf[..n], &fetch.data[8_192..10_000]);
        assert_eq!(fc.read_at(10_000, &mut buf).unwrap().0, 0);
        let mut all = vec![0u8; 10_000];
        fc.read_fragment(0, &mut all, &HashMap::new()).unwrap();
        assert_eq!(&all, &fetch.data, "cache must not be poisoned by the clamped prefetch");
    }

    #[test]
    fn failed_fetch_is_not_cached() {
        struct Flaky {
            fail_first: AtomicU64,
            inner: Arc<MemFetch>,
        }
        impl BlockFetch for Flaky {
            fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
                if self
                    .fail_first
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                    .is_ok()
                {
                    return Err(DavixError::Protocol("injected".to_string()));
                }
                self.inner.pread(offset, buf)
            }
            fn pread_vec(&self, ranges: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
                ranges.iter().map(|&(o, l)| self.fetch(o, l)).collect()
            }
        }
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let metrics = Arc::new(Metrics::default());
        let pool = crate::IoPool::new(Arc::clone(&rt), 16);
        let cache = BlockCache::new(rt, pool, metrics, 512, 1 << 20);
        let mem = MemFetch::new(4_096);
        let flaky = Arc::new(Flaky { fail_first: AtomicU64::new(1), inner: Arc::clone(&mem) });
        let fc = FileCache::new(cache, "k".into(), 4_096, flaky, 0, 0);
        let mut buf = vec![0u8; 512];
        assert!(fc.read_at(0, &mut buf).unwrap_err().to_string().contains("injected"));
        // The failure was not cached: the retry fetches and succeeds.
        let (n, ups) = fc.read_at(0, &mut buf).unwrap();
        assert_eq!((n, ups), (512, 1));
        assert_eq!(&buf[..], &mem.data[..512]);
    }
}
