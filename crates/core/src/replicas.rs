//! Metalink-driven replica fail-over (§2.4, the default "fail-over"
//! strategy).
//!
//! A [`DavFile`](crate::DavFile) opened with
//! [`DavixClient::open_failover`](crate::DavixClient::open_failover) reads
//! like any other, but when an operation fails with a replica-eligible
//! error it (lazily, once) fetches the resource's Metalink and fails over
//! through the replica list. The paper's guarantee: *a read succeeds as
//! long as one replica is reachable and referenced.*
//!
//! In the read stack (crate docs, "The read stack") this is the optional
//! layer between the wire and the cached-read front: `ReplicaCore` is the
//! upstream of a fail-over `DavFile`, and `Failover::attempt` is the one
//! fail-over step — also run by the multi-stream download's workers; its
//! size discovery is the same `Failover::walk` with the open as the
//! operation. `Failover::open` is the one size check: every replica must
//! advertise the entity's pinned size, so a fail-over read never splices
//! in bytes of another entity.
//!
//! Replica choice is delegated to a shared [`ReplicaScheduler`]: the
//! scheduler ranks replicas by observed latency and evicts repeat-failers
//! onto a cooldown blacklist, so fail-over goes to the *best* surviving
//! replica, not merely the next one in the list. Crucially, no lock is held
//! across network I/O — the open-files mutex is taken only to look up or
//! store an open per-replica file, and the scheduler's lock only to pick a
//! replica or record an outcome. Concurrent `pread`s therefore really run
//! in parallel, on the same replica (separate pooled sessions) or on
//! different ones; `pread_vec` goes further and spreads fragment batches
//! across the top-K healthy replicas.

use crate::cache::BlockFetch;
use crate::client::ClientInner;
use crate::error::{DavixError, Result};
use crate::executor::PreparedRequest;
use crate::file::RawFile;
use crate::iopool::map_ordered;
use crate::metrics::Metrics;
use crate::scheduler::{same_resource, ReplicaId, ReplicaScheduler};
use httpwire::Uri;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Healthy replicas one vectored read spreads its fragment batch across.
const FANOUT: usize = 2;

/// The fail-over layer of the read stack: runs one operation against the
/// scheduler-ranked replicas. It is the [`BlockFetch`] under a fail-over
/// [`DavFile`](crate::DavFile), so the block cache's prefetch jobs drive
/// the same fail-over path as foreground reads.
pub(crate) struct ReplicaCore {
    pub(crate) fo: Failover,
    /// The origin URL the file was opened from.
    pub(crate) origin: Uri,
    state: Mutex<Walked>,
}

/// Where the walk stands. Like [`Failover::files`], locked only for flag
/// flips — never across a network operation.
struct Walked {
    /// Replica that served the last successful operation.
    current: Option<ReplicaId>,
    /// Whether the Metalink has been resolved into the scheduler.
    resolved: bool,
}

/// One caller's fail-over context: the client, the scheduler that ranks the
/// replicas, the entity's pinned size, one open file per replica, and which
/// errors it blames on the replica. A fail-over `DavFile` shares one between
/// all its readers; a multi-stream download shares one between its size
/// discovery and all its workers, so each replica is opened once per
/// download for as long as it keeps answering.
pub(crate) struct Failover {
    inner: Arc<ClientInner>,
    pub(crate) scheduler: Arc<ReplicaScheduler>,
    /// Locked for map lookups only: the files are `Arc`s precisely so a
    /// caller can clone a handle out and drop the lock before touching the
    /// wire. In-flight clones on other threads survive an eviction.
    files: Mutex<HashMap<ReplicaId, Arc<RawFile>>>,
    /// The errors that are the replica's failure and send the operation on
    /// to the next one. A fail-over `DavFile` spares the caller's own errors
    /// ([`DavixError::is_failover_candidate`]: a `403` on the origin is the
    /// answer, not a reason to ask around); a multi-stream download was
    /// handed its replicas and blames every error — one site refusing it
    /// must not stop the others serving it.
    blames: fn(&DavixError) -> bool,
    /// The entity's size, pinned once: the Metalink's declared size when
    /// the caller has one, otherwise the size from the first open that
    /// succeeds. A replica advertising another holds some other entity (or
    /// lies), so nothing is ever sized or spliced from it.
    size: OnceLock<u64>,
}

/// How one replica took one operation.
pub(crate) enum Attempt<T> {
    Ok(T),
    /// This replica failed and the scheduler knows; another may still do.
    TryNext(DavixError),
    /// Not the replica's fault (bad argument, permission): ask nobody else.
    Fatal(DavixError),
}

impl Failover {
    pub(crate) fn new(
        inner: Arc<ClientInner>,
        scheduler: Arc<ReplicaScheduler>,
        blames: fn(&DavixError) -> bool,
        declared: Option<u64>,
    ) -> Failover {
        let size = declared.map_or_else(OnceLock::new, OnceLock::from);
        Failover { inner, scheduler, files: Mutex::new(HashMap::new()), blames, size }
    }

    /// The entity's size, once it is pinned (see [`Failover::open`]).
    pub(crate) fn size(&self) -> Option<u64> {
        self.size.get().copied()
    }

    /// The open file for replica `id`, opening it (HEAD) if needed. The one
    /// size check: the first open that succeeds pins the size unless the
    /// caller declared one, and a replica advertising another size is
    /// refused — an error every caller counts as the replica's failure. The
    /// map lock is dropped during the open; two racing opens are benign
    /// (first insert wins, the loser's handle is dropped).
    pub(crate) fn open(&self, id: ReplicaId, uri: Uri) -> Result<Arc<RawFile>> {
        if let Some(f) = self.files.lock().get(&id) {
            return Ok(Arc::clone(f));
        }
        let file = RawFile::open(Arc::clone(&self.inner), uri)?.0;
        let size = *self.size.get_or_init(|| file.size);
        if file.size != size {
            return Err(DavixError::Protocol(format!(
                "{} advertises {} bytes, expected {size}",
                file.uri, file.size
            )));
        }
        Ok(Arc::clone(self.files.lock().entry(id).or_insert(Arc::new(file))))
    }

    /// The one fail-over step: open-or-reuse replica `id`'s file, run `op`
    /// on it, [`settle`](Self::settle) the outcome.
    ///
    /// A successful open by itself records *nothing*: a HEAD answering is
    /// weak evidence (a replica can 200 every HEAD and fail every read, and
    /// a success here would reset the failure streak each attempt, making
    /// the blacklist threshold unreachable). `op` is what is timed and fed
    /// to the scheduler.
    pub(crate) fn attempt<T>(
        &self,
        id: ReplicaId,
        uri: Uri,
        op: impl FnOnce(&RawFile) -> Result<T>,
    ) -> Attempt<T> {
        let rt = self.inner.executor.runtime();
        let opened = self.open(id, uri);
        let t0 = rt.now();
        let result = opened.and_then(|file| op(&file));
        self.settle(id, rt.now() - t0, result)
    }

    /// Tell the scheduler how replica `id` did on a read that took `took`;
    /// a read moving on to another replica is what `failovers` counts.
    fn settle<T>(&self, id: ReplicaId, took: Duration, result: Result<T>) -> Attempt<T> {
        match result {
            Ok(v) => {
                self.scheduler.record_success(id, took);
                Attempt::Ok(v)
            }
            Err(e) => {
                let failed = self.fail(id, e);
                if let Attempt::TryNext(_) = failed {
                    Metrics::bump(&self.inner.executor.metrics().failovers);
                }
                failed
            }
        }
    }

    /// Replica `id` answered `e` — the only place a failure is recorded:
    /// if the error is the replica's at all, `record_failure` and the
    /// suspect file evicted (its pooled sessions may be broken; a later
    /// attempt gets a fresh open).
    pub(crate) fn fail<T>(&self, id: ReplicaId, e: DavixError) -> Attempt<T> {
        if !(self.blames)(&e) {
            return Attempt::Fatal(e);
        }
        self.scheduler.record_failure(id);
        self.files.lock().remove(&id);
        Attempt::TryNext(e)
    }

    /// Walk the replicas not yet in `tried`, best first, until one takes
    /// `step`. `Ok(None)` when the known candidates ran out (`last` then
    /// holds the latest failure).
    pub(crate) fn walk<T>(
        &self,
        tried: &mut Vec<ReplicaId>,
        last: &mut Option<DavixError>,
        mut step: impl FnMut(ReplicaId, Uri) -> Attempt<T>,
    ) -> Result<Option<(ReplicaId, T)>> {
        while let Some((id, uri)) = self.scheduler.pick_excluding(tried) {
            match step(id, uri) {
                Attempt::Ok(v) => return Ok(Some((id, v))),
                Attempt::TryNext(e) => {
                    tried.push(id);
                    *last = Some(e);
                }
                Attempt::Fatal(e) => return Err(e),
            }
        }
        Ok(None)
    }
}

/// The replica walk as a fail-over `DavFile`'s upstream: every read runs through
/// fail-over, so a prefetch issued while a replica dies simply lands from
/// the next one. A vectored read also fans out (when possible) — the
/// uncached §2.4 path and the cache's vectored upstream alike.
impl BlockFetch for ReplicaCore {
    fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.with_file(|f| f.pread(offset, buf))
    }

    fn pread_vec_into(&self, fragments: &[(u64, usize)], out: &mut [u8]) -> Result<()> {
        match self.fanout_targets(fragments.len()) {
            Some(targets) => self.pread_vec_fanout(fragments, targets, out),
            None => self.with_file(|f| f.pread_vec_into(fragments, out)),
        }
    }

    /// The whole block fill runs on one replica, inside the walk: a copy
    /// that ends short is that replica's failure, not the read's.
    fn fetch(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        self.with_file(|f| f.fetch(offset, len))
    }
}

impl ReplicaCore {
    /// Open `origin` for fail-over reads: a walk over a scheduler that
    /// knows only the origin until the Metalink is resolved, and the entity
    /// size from whichever replica answered first.
    pub(crate) fn open(inner: Arc<ClientInner>, origin: Uri) -> Result<(Arc<ReplicaCore>, u64)> {
        let scheduler = inner.replica_scheduler(vec![origin.clone()]);
        let core = Arc::new(ReplicaCore {
            fo: Failover::new(inner, scheduler, DavixError::is_failover_candidate, None),
            origin,
            state: Mutex::new(Walked { current: None, resolved: false }),
        });
        // Force an open so the size is known; fail-over may kick in here.
        let size = core.with_file(|f| Ok(f.size))?;
        Ok((core, size))
    }

    /// URI of the replica that served the last successful operation.
    pub(crate) fn current_uri(&self) -> Uri {
        let current = self.state.lock().current;
        current.and_then(|id| self.fo.scheduler.uri(id)).unwrap_or_else(|| self.origin.clone())
    }

    /// The replicas a vectored read should fan out over, or `None` for the
    /// plain single-replica path (unresolved Metalink, or not enough healthy
    /// replicas / fragments to split).
    fn fanout_targets(&self, fragments: usize) -> Option<Vec<(ReplicaId, Uri)>> {
        if fragments < 2 || !self.state.lock().resolved {
            return None;
        }
        let targets = self.fo.scheduler.ranked(FANOUT);
        (targets.len() >= 2).then_some(targets)
    }

    /// Split `fragments` round-robin across `targets` and fetch the batches
    /// in parallel, as one batch on the client's I/O pool — from a
    /// read-ahead job too. Each batch lands in one buffer of its own and is
    /// copied from there into place in `out`. A batch whose replica fails
    /// mid-flight is retried through the ordinary fail-over path, so the
    /// result is exactly as resilient as the sequential one.
    fn pread_vec_fanout(
        &self,
        fragments: &[(u64, usize)],
        targets: Vec<(ReplicaId, Uri)>,
        out: &mut [u8],
    ) -> Result<()> {
        struct Batch {
            id: ReplicaId,
            file: Arc<RawFile>,
            frags: Vec<(u64, usize)>,
            /// Where each of `frags` goes in `out`.
            places: Vec<usize>,
            buf: Vec<u8>,
        }
        let mut batches: Vec<Batch> = Vec::with_capacity(targets.len());
        for (id, uri) in targets {
            // Opening may fail (stale health data): skip the replica rather
            // than failing the read — the leftover batches absorb its share.
            match self.fo.open(id, uri) {
                Ok(file) => batches.push(Batch {
                    id,
                    file,
                    frags: Vec::new(),
                    places: Vec::new(),
                    buf: Vec::new(),
                }),
                Err(e) => {
                    if let Attempt::Fatal(e) = self.fo.settle::<()>(id, Duration::ZERO, Err(e)) {
                        return Err(e);
                    }
                }
            }
        }
        if batches.len() < 2 {
            return self.with_file(|f| f.pread_vec_into(fragments, out));
        }
        let n_batches = batches.len();
        let mut place = 0;
        for (slot, &frag) in fragments.iter().enumerate() {
            let b = &mut batches[slot % n_batches];
            b.frags.push(frag);
            b.places.push(place);
            place += frag.1;
        }
        batches.retain(|b| !b.frags.is_empty());
        for b in &mut batches {
            b.buf = vec![0u8; b.frags.iter().map(|&(_, len)| len).sum()];
        }

        let rt = Arc::clone(self.fo.inner.executor.runtime());
        let width = batches.len();
        let results = map_ordered(&self.fo.inner.io_pool, batches, width, move |mut b: Batch| {
            let t0 = rt.now();
            let result = b.file.pread_vec_into(&b.frags, &mut b.buf);
            (b, result, rt.now() - t0)
        });

        for (mut b, result, took) in results {
            match self.fo.settle(b.id, took, result) {
                Attempt::Ok(()) => {}
                // This replica died mid-batch: re-fetch just its share
                // through the fail-over walk.
                Attempt::TryNext(_) => {
                    self.with_file(|f| f.pread_vec_into(&b.frags, &mut b.buf))?
                }
                Attempt::Fatal(e) => return Err(e),
            }
            let mut at = 0;
            for (&(_, len), &place) in b.frags.iter().zip(&b.places) {
                out[place..place + len].copy_from_slice(&b.buf[at..at + len]);
                at += len;
            }
        }
        Ok(())
    }

    /// Run `op` against scheduler-ranked replicas, failing over on eligible
    /// errors until every known replica has been tried (the Metalink is
    /// resolved — once — when the initial candidates run out).
    ///
    /// No lock is held while `op` runs: the file handle is cloned out of the
    /// map and the operation goes to the wire lock-free, so concurrent
    /// operations on one fail-over `DavFile` overlap fully.
    pub(crate) fn with_file<T>(&self, mut op: impl FnMut(&RawFile) -> Result<T>) -> Result<T> {
        let mut tried: Vec<ReplicaId> = Vec::new();
        let mut last_err: Option<DavixError> = None;
        loop {
            let step = |id, uri| self.fo.attempt(id, uri, &mut op);
            if let Some((id, v)) = self.fo.walk(&mut tried, &mut last_err, step)? {
                self.state.lock().current = Some(id);
                return Ok(v);
            }
            // Every known replica tried: resolve the Metalink for more
            // candidates; afterwards the walk is genuinely over. Two
            // operations racing here may both fetch it — deliberately
            // tolerated (`add_replicas` dedupes, so state stays correct):
            // serializing them would mean blocking one thread on a plain
            // mutex while the other does network I/O, which is invisible to
            // the simulator's virtual clock — the very deadlock class this
            // file is built to avoid.
            if !self.state.lock().resolved {
                self.resolve_metalink(&mut last_err, tried.len())?;
                continue;
            }
            // `resolved` is flipped only *after* a racing resolver's
            // `add_replicas`: having read it true, one more pick sees any
            // replicas added between the walk running dry and the flag read
            // — without it, a concurrent op could report AllReplicasFailed
            // while untried replicas just arrived.
            if self.fo.scheduler.pick_excluding(&tried).is_none() {
                return Err(all_failed(tried.len(), last_err.take()));
            }
        }
    }

    /// Fetch the Metalink and feed its replicas into the scheduler. The
    /// origin is filtered out *wherever* it appears in the list (not just at
    /// the head) — it has already been tried and must not be retried under a
    /// different list position.
    fn resolve_metalink(&self, last_err: &mut Option<DavixError>, tried: usize) -> Result<()> {
        match fetch_replica_set(&self.fo.inner, &self.origin) {
            Ok(set) => {
                let fresh: Vec<Uri> =
                    set.uris.into_iter().filter(|u| !same_resource(u, &self.origin)).collect();
                self.fo.scheduler.add_replicas(fresh);
                self.state.lock().resolved = true;
                Ok(())
            }
            Err(e) => Err(all_failed(tried, Some(last_err.take().unwrap_or(e)))),
        }
    }
}

pub(crate) fn all_failed(tried: usize, last: Option<DavixError>) -> DavixError {
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

/// Fetch and parse the Metalink for `origin`: replica URIs in priority
/// order plus size and checksum metadata. Honours
/// [`Config::metalink_base`]: with a federation base the Metalink comes from
/// the federation service, otherwise from the resource's own origin
/// (`{url}?metalink`).
///
/// [`Config::metalink_base`]: crate::config::Config::metalink_base
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
