//! Metalink-driven replica fail-over (§2.4, the default "fail-over"
//! strategy).
//!
//! A [`ReplicaFile`] behaves like a [`DavFile`], but when an operation fails
//! with a replica-eligible error it (lazily, once) fetches the resource's
//! Metalink and fails over through the replica list. The paper's guarantee:
//! *a read succeeds as long as one replica is reachable and referenced.*
//!
//! Replica choice is delegated to a shared [`ReplicaScheduler`]: the
//! scheduler ranks replicas by observed latency and evicts repeat-failers
//! onto a cooldown blacklist, so fail-over goes to the *best* surviving
//! replica, not merely the next one in the list. Crucially, no lock is held
//! across network I/O — the file-cache mutex is taken only to look up or
//! store an open [`DavFile`], and the scheduler's lock only to pick a
//! replica or record an outcome. Concurrent `pread`s therefore really run
//! in parallel, on the same replica (separate pooled sessions) or on
//! different ones; `pread_vec` goes further and spreads fragment batches
//! across the top-K healthy replicas.

use crate::cache::{BlockFetch, FileCache};
use crate::client::ClientInner;
use crate::error::{DavixError, Result};
use crate::executor::PreparedRequest;
use crate::file::DavFile;
use crate::metrics::Metrics;
use crate::scheduler::{same_resource, ReplicaId, ReplicaScheduler};
use crate::util::parallel_map;
use httpwire::Uri;
use ioapi::{IoStats, IoStatsSnapshot, RandomAccess};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A remote file with transparent Metalink fail-over.
///
/// With the client's block cache enabled, reads are served from cached
/// blocks **keyed by the origin resource** — not by whichever replica
/// fetched them — so a fail-over or scheduler re-rank keeps every hit.
/// The per-replica [`DavFile`]s underneath are opened uncached: bytes are
/// cached exactly once, at this layer.
pub struct ReplicaFile {
    core: Arc<ReplicaCore>,
    io: IoStats,
    cache: Option<FileCache>,
}

/// The shareable fail-over machinery: everything needed to run one
/// operation against the scheduler-ranked replicas. `Arc`-shared so the
/// block cache's background prefetch threads can drive the same fail-over
/// path as foreground reads.
struct ReplicaCore {
    inner: Arc<ClientInner>,
    origin: Uri,
    scheduler: Arc<ReplicaScheduler>,
    state: Mutex<Files>,
}

/// Mutable bookkeeping. This lock is only ever held for map lookups and
/// flag flips — never across a network operation (the open files are `Arc`s
/// precisely so callers can clone a handle out and drop the lock before
/// touching the wire).
struct Files {
    /// Open file per scheduler replica id.
    files: HashMap<ReplicaId, Arc<DavFile>>,
    /// Replica that served the last successful operation.
    current: Option<ReplicaId>,
    /// Whether the Metalink has been resolved into the scheduler.
    resolved: bool,
}

impl ReplicaFile {
    /// Open `origin`, falling back to replicas immediately if the origin is
    /// unreachable.
    pub(crate) fn new(inner: Arc<ClientInner>, origin: Uri) -> Result<ReplicaFile> {
        let scheduler = Arc::new(ReplicaScheduler::from_config(
            vec![origin.clone()],
            Arc::clone(inner.executor.runtime()),
            &inner.cfg,
            Some(Arc::clone(inner.executor.metrics())),
        ));
        let core = Arc::new(ReplicaCore {
            inner,
            origin,
            scheduler,
            state: Mutex::new(Files { files: HashMap::new(), current: None, resolved: false }),
        });
        // Force an open so size is known; fail-over may already kick in here.
        let size = core.with_file(|f| f.size_hint())?;
        let cache = core.inner.cache.as_ref().map(|cache| {
            // Keyed by the *origin* (+ size): blocks fetched from replica A
            // keep hitting after a fail-over to replica B. ETags are
            // deliberately absent from the key — replicas of one logical
            // resource routinely disagree on them.
            let key = format!("replica:{}|{}", core.origin, size);
            FileCache::new(
                Arc::clone(cache),
                key,
                size,
                Arc::new(ReplicaFetch { core: Arc::clone(&core) }) as Arc<dyn BlockFetch>,
                core.inner.cfg.readahead_min,
                core.inner.cfg.readahead_max,
            )
        });
        Ok(ReplicaFile { core, io: IoStats::default(), cache })
    }

    /// The origin URL this file was opened from.
    pub fn origin(&self) -> &Uri {
        &self.core.origin
    }

    /// The shared health scheduler ranking this file's replicas.
    pub fn scheduler(&self) -> &Arc<ReplicaScheduler> {
        &self.core.scheduler
    }

    /// URI of the replica that served the last successful operation.
    pub fn current_uri(&self) -> Uri {
        let current = self.core.state.lock().current;
        current
            .and_then(|id| self.core.scheduler.uri(id))
            .unwrap_or_else(|| self.core.origin.clone())
    }

    /// Entity size (from whichever replica answered first).
    pub fn size_hint(&self) -> Result<u64> {
        self.core.with_file(|f| f.size_hint())
    }

    /// Positional read with fail-over. Cached blocks short-circuit the
    /// replica walk entirely — a read whose bytes are resident succeeds
    /// even while *every* replica is down.
    pub fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if let Some(cache) = &self.cache {
            let (n, upstream) = cache.read_at(offset, buf)?;
            self.io.record_read(n as u64, upstream);
            return Ok(n);
        }
        let cell = parking_lot::Mutex::new(buf);
        let n = self.core.with_file(|f| f.pread(offset, &mut cell.lock()[..]))?;
        self.io.record_read(n as u64, 1);
        Ok(n)
    }

    /// Vectored read with fail-over. Once the Metalink is resolved and more
    /// than one replica is healthy, the fragment batch is split across the
    /// top-[`replica_fanout`](crate::Config::replica_fanout) replicas and
    /// fetched in parallel — aggregate bandwidth for large analysis reads,
    /// with per-batch fail-over if a replica dies mid-flight. With the
    /// block cache enabled, only the *missing* blocks go upstream (through
    /// the same fail-over/fan-out machinery, in one vectored request).
    pub fn pread_vec(&self, fragments: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        if let Some(cache) = &self.cache {
            // Same beyond-EOF contract as the uncached path (where the
            // per-replica `DavFile::pread_vec` enforces it).
            crate::file::check_fragments(fragments, cache.size())?;
            let (out, upstream) = cache.read_vec(fragments)?;
            let bytes: u64 = out.iter().map(|v| v.len() as u64).sum();
            self.io.record_vector_read(bytes, upstream);
            return Ok(out);
        }
        let out = self.core.pread_vec_uncached(fragments)?;
        let bytes: u64 = out.iter().map(|v| v.len() as u64).sum();
        self.io.record_vector_read(bytes, 1);
        Ok(out)
    }

    /// I/O counters for this file.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.snapshot()
    }
}

/// The block cache's upstream for a [`ReplicaFile`]: every fetch runs
/// through the fail-over walk, so a prefetch issued while a replica dies
/// simply lands from the next one.
struct ReplicaFetch {
    core: Arc<ReplicaCore>,
}

impl BlockFetch for ReplicaFetch {
    fn fetch(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.core.with_file(|f| {
            let mut buf = vec![0u8; len];
            let mut done = 0usize;
            while done < len {
                let n = f.pread(offset + done as u64, &mut buf[done..])?;
                if n == 0 {
                    return Err(DavixError::Protocol(format!(
                        "{}: entity ended at {} inside block {offset}+{len}",
                        f.uri(),
                        offset + done as u64
                    )));
                }
                done += n;
            }
            Ok(buf)
        })
    }

    fn fetch_vec(&self, ranges: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        self.core.pread_vec_uncached(ranges)
    }
}

impl ReplicaCore {
    /// Vectored read with fail-over and (when possible) replica fan-out;
    /// the uncached §2.4 path, also serving as the cache's vectored
    /// upstream.
    fn pread_vec_uncached(&self, fragments: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        match self.fanout_targets(fragments.len()) {
            Some(targets) => self.pread_vec_fanout(fragments, targets),
            None => self.with_file(|f| f.pread_vec(fragments)),
        }
    }

    /// The replicas a vectored read should fan out over, or `None` for the
    /// plain single-replica path (unresolved Metalink, fan-out disabled, or
    /// not enough healthy replicas / fragments to split).
    fn fanout_targets(&self, fragments: usize) -> Option<Vec<(ReplicaId, Uri)>> {
        let fanout = self.inner.cfg.replica_fanout;
        if fanout < 2 || fragments < 2 || !self.state.lock().resolved {
            return None;
        }
        let targets = self.scheduler.ranked(fanout.min(fragments));
        if targets.len() < 2 {
            return None;
        }
        Some(targets)
    }

    /// Split `fragments` round-robin across `targets` and fetch the batches
    /// in parallel. A batch whose replica fails mid-flight is retried
    /// through the ordinary fail-over path, so the result is exactly as
    /// resilient as the sequential one.
    fn pread_vec_fanout(
        &self,
        fragments: &[(u64, usize)],
        targets: Vec<(ReplicaId, Uri)>,
    ) -> Result<Vec<Vec<u8>>> {
        struct Batch {
            id: ReplicaId,
            file: Arc<DavFile>,
            frags: Vec<(u64, usize)>,
            slots: Vec<usize>,
        }
        let mut batches: Vec<Batch> = Vec::with_capacity(targets.len());
        for (id, uri) in targets {
            // Opening may fail (stale health data): skip the replica rather
            // than failing the read — the leftover batches absorb its share.
            match self.file_for(id, uri) {
                Ok(file) => batches.push(Batch { id, file, frags: Vec::new(), slots: Vec::new() }),
                Err(e) if e.is_failover_candidate() => {
                    self.scheduler.record_failure(id);
                    Metrics::bump(&self.inner.executor.metrics().failovers);
                }
                Err(e) => return Err(e),
            }
        }
        if batches.len() < 2 {
            return self.with_file(|f| f.pread_vec(fragments));
        }
        let n_batches = batches.len();
        for (slot, &frag) in fragments.iter().enumerate() {
            let b = &mut batches[slot % n_batches];
            b.frags.push(frag);
            b.slots.push(slot);
        }
        batches.retain(|b| !b.frags.is_empty());

        let rt = Arc::clone(self.inner.executor.runtime());
        let rt2 = Arc::clone(&rt);
        let parallelism = batches.len();
        type BatchResult = (ReplicaId, Vec<usize>, Vec<(u64, usize)>, Result<Vec<Vec<u8>>>, f64);
        let results: Vec<BatchResult> = parallel_map(&rt, batches, parallelism, move |b: Batch| {
            let t0 = rt2.now();
            let r = b.file.pread_vec(&b.frags);
            (b.id, b.slots, b.frags, r, (rt2.now() - t0).as_secs_f64())
        });

        let mut out: Vec<Option<Vec<u8>>> = (0..fragments.len()).map(|_| None).collect();
        for (id, slots, frags, result, secs) in results {
            match result {
                Ok(data) => {
                    self.scheduler.record_success(id, std::time::Duration::from_secs_f64(secs));
                    for (slot, d) in slots.into_iter().zip(data) {
                        out[slot] = Some(d);
                    }
                }
                Err(e) if e.is_failover_candidate() => {
                    // This replica died mid-batch: record it, drop its file,
                    // and re-fetch just its share through the fail-over path.
                    self.scheduler.record_failure(id);
                    Metrics::bump(&self.inner.executor.metrics().failovers);
                    self.state.lock().files.remove(&id);
                    let data = self.with_file(|f| f.pread_vec(&frags))?;
                    for (slot, d) in slots.into_iter().zip(data) {
                        out[slot] = Some(d);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(out.into_iter().map(|d| d.expect("every fragment assigned to a batch")).collect())
    }

    /// Run `op` against scheduler-ranked replicas, failing over on eligible
    /// errors until every known replica has been tried (the Metalink is
    /// resolved — once — when the initial candidates run out).
    ///
    /// No lock is held while `op` runs: the file handle is cloned out of the
    /// cache and the operation goes to the wire lock-free, so concurrent
    /// operations on this `ReplicaFile` overlap fully.
    fn with_file<T>(&self, op: impl Fn(&DavFile) -> Result<T>) -> Result<T> {
        let mut tried: Vec<ReplicaId> = Vec::new();
        let mut last_err: Option<DavixError> = None;
        loop {
            let Some((id, uri)) = self.scheduler.pick_excluding(&tried) else {
                // Every known replica tried: resolve the Metalink for more
                // candidates; afterwards the walk is genuinely over. Two
                // operations racing here may both fetch it — deliberately
                // tolerated (`add_replicas` dedupes, so state stays
                // correct): serializing them would mean blocking one thread
                // on a plain mutex while the other does network I/O, which
                // is invisible to the simulator's virtual clock — the very
                // deadlock class this file is built to avoid.
                if !self.state.lock().resolved {
                    self.resolve_metalink(&mut last_err, tried.len())?;
                    continue;
                }
                // `resolved` is flipped only *after* a racing resolver's
                // `add_replicas`: having read it true, one more pick sees
                // any replicas added between our (empty) pick above and the
                // flag read — without it, a concurrent op could report
                // AllReplicasFailed while untried replicas just arrived.
                if self.scheduler.pick_excluding(&tried).is_some() {
                    continue;
                }
                return Err(all_failed(tried.len(), last_err.take()));
            };
            let file = match self.file_for(id, uri) {
                Ok(f) => f,
                Err(e) if e.is_failover_candidate() => {
                    self.scheduler.record_failure(id);
                    Metrics::bump(&self.inner.executor.metrics().failovers);
                    tried.push(id);
                    last_err = Some(e);
                    continue;
                }
                Err(e) => return Err(e),
            };
            let t0 = self.inner.executor.runtime().now();
            match op(&file) {
                Ok(v) => {
                    self.scheduler.record_success(id, self.inner.executor.runtime().now() - t0);
                    self.state.lock().current = Some(id);
                    return Ok(v);
                }
                Err(e) if e.is_failover_candidate() => {
                    self.scheduler.record_failure(id);
                    Metrics::bump(&self.inner.executor.metrics().failovers);
                    // Drop the (suspect) cached file; a later attempt gets a
                    // fresh open. In-flight clones on other threads keep
                    // their `Arc` and finish undisturbed.
                    self.state.lock().files.remove(&id);
                    tried.push(id);
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The open file for replica `id`, opening it (HEAD) if needed. The
    /// cache lock is dropped during the open; two racing opens are benign
    /// (first insert wins, the loser's handle is dropped).
    ///
    /// A successful open records *nothing*: a HEAD answering is weak
    /// evidence (a replica can 200 every HEAD and fail every read, and a
    /// success here would reset the failure streak each attempt, making the
    /// blacklist threshold unreachable). The operation that follows is what
    /// feeds the scheduler.
    fn file_for(&self, id: ReplicaId, uri: Uri) -> Result<Arc<DavFile>> {
        if let Some(f) = self.state.lock().files.get(&id) {
            return Ok(Arc::clone(f));
        }
        // Uncached: the ReplicaFile layer caches under the origin key; a
        // per-replica cache here would double-store every block under a
        // key that dies with the replica.
        let file = Arc::new(DavFile::open_uncached(Arc::clone(&self.inner), uri)?);
        let mut st = self.state.lock();
        Ok(Arc::clone(st.files.entry(id).or_insert(file)))
    }

    /// Fetch the Metalink and feed its replicas into the scheduler. The
    /// origin is filtered out *wherever* it appears in the list (not just at
    /// the head) — it has already been tried and must not be retried under a
    /// different list position.
    fn resolve_metalink(&self, last_err: &mut Option<DavixError>, tried: usize) -> Result<()> {
        match fetch_replicas(&self.inner, &self.origin) {
            Ok(reps) => {
                let fresh: Vec<Uri> =
                    reps.into_iter().filter(|u| !same_resource(u, &self.origin)).collect();
                self.scheduler.add_replicas(fresh);
                self.state.lock().resolved = true;
                Ok(())
            }
            Err(e) => Err(all_failed(tried, Some(last_err.take().unwrap_or(e)))),
        }
    }
}

fn all_failed(tried: usize, last: Option<DavixError>) -> DavixError {
    DavixError::AllReplicasFailed {
        tried,
        last: Box::new(last.unwrap_or_else(|| DavixError::Metalink("no replicas".to_string()))),
    }
}

/// A resolved Metalink: replica URIs plus the verification metadata the
/// paper's §2.4 lists ("name, size, checksum, signature and location").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaSet {
    /// Replica URIs in priority order (non-HTTP replicas skipped).
    pub uris: Vec<Uri>,
    /// Entity size, when the Metalink declares one.
    pub size: Option<u64>,
    /// `(algorithm, lowercase-hex)` checksums, when declared.
    pub hashes: Vec<(String, String)>,
}

impl ReplicaSet {
    /// The declared digest for `algo` (case-insensitive), if any.
    pub fn hash(&self, algo: &str) -> Option<&str> {
        self.hashes.iter().find(|(a, _)| a.eq_ignore_ascii_case(algo)).map(|(_, v)| v.as_str())
    }
}

/// Fetch and parse the Metalink for `origin`, returning replica URIs in
/// priority order. Honours [`Config::metalink_base`]: with a federation base
/// the Metalink comes from the federation service, otherwise from the
/// resource's own origin (`{url}?metalink`).
///
/// [`Config::metalink_base`]: crate::config::Config::metalink_base
pub(crate) fn fetch_replicas(inner: &Arc<ClientInner>, origin: &Uri) -> Result<Vec<Uri>> {
    fetch_replica_set(inner, origin).map(|set| set.uris)
}

/// As [`fetch_replicas`], but keeping size and checksum metadata.
pub(crate) fn fetch_replica_set(inner: &Arc<ClientInner>, origin: &Uri) -> Result<ReplicaSet> {
    let target = match &inner.cfg.metalink_base {
        Some(base) => {
            let mut u = base.clone();
            u.path = format!("{}{}", base.path.trim_end_matches('/'), origin.path);
            u.query = Some("metalink".to_string());
            u
        }
        None => {
            let mut u = origin.clone();
            u.query = Some("metalink".to_string());
            u
        }
    };
    let resp = inner.executor.execute_expect(&PreparedRequest::get(target), "metalink fetch")?;
    Metrics::bump(&inner.executor.metrics().metalinks_fetched);
    let text = String::from_utf8_lossy(&resp.body);
    let doc = metalink::Metalink::parse(&text).map_err(|e| DavixError::Metalink(e.to_string()))?;
    let file =
        doc.files.first().ok_or_else(|| DavixError::Metalink("empty metalink".to_string()))?;
    let mut uris = Vec::new();
    for u in file.sorted_urls() {
        match u.url.parse::<Uri>() {
            Ok(uri) => uris.push(uri),
            Err(_) => continue, // skip non-HTTP replicas (e.g. xroot://)
        }
    }
    if uris.is_empty() {
        return Err(DavixError::Metalink("no usable replica urls".to_string()));
    }
    Ok(ReplicaSet {
        uris,
        size: file.size,
        hashes: file.hashes.iter().map(|h| (h.algo.clone(), h.value.clone())).collect(),
    })
}

impl RandomAccess for ReplicaFile {
    fn size(&self) -> std::io::Result<u64> {
        self.size_hint().map_err(std::io::Error::from)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.pread(offset, buf).map_err(std::io::Error::from)
    }

    fn read_vec(&self, fragments: &[(u64, usize)]) -> std::io::Result<Vec<Vec<u8>>> {
        self.pread_vec(fragments).map_err(std::io::Error::from)
    }

    fn prefetch_vec(&self, fragments: &[(u64, usize)]) {
        if let Some(cache) = &self.cache {
            cache.prefetch(fragments);
        }
    }

    fn supports_prefetch(&self) -> bool {
        self.cache.is_some()
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.io.snapshot()
    }
}
