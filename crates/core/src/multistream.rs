//! Multi-stream downloads (§2.4, the "multi-stream" strategy).
//!
//! Split an entity into chunks and fetch them in parallel from *several
//! replicas at once*. Maximizes client-side bandwidth and inherits the
//! fail-over resilience (a chunk that fails on one replica is retried on
//! another), at the cost the paper is upfront about: higher server load
//! (more connections per client).
//!
//! Replica choice is delegated to the same [`ReplicaScheduler`] the
//! fail-over path uses: workers ask the scheduler which replica their slot
//! should draw from before every chunk, so a stream whose replica dies is
//! *respawned on the next-best replica* instead of permanently shrinking
//! the worker pool, and a blacklisted replica that recovers (cooldown
//! expiry or active probe) starts contributing chunks again mid-download.
//! Every chunk completion feeds a latency sample back into the scores.

use crate::client::DavixClient;
use crate::error::{DavixError, Result};
use crate::file::DavFile;
use crate::iopool::{run_chunked, Chunk, ChunkOutcome};
use crate::metrics::Metrics;
use crate::scheduler::{ReplicaId, ReplicaScheduler};
use httpwire::Uri;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for [`multistream_download`].
#[derive(Debug, Clone)]
pub struct MultistreamOptions {
    /// Total parallel streams across all replicas.
    pub streams: usize,
    /// Chunk size in bytes.
    pub chunk_size: usize,
    /// Give up after this many total chunk failures.
    pub max_chunk_failures: usize,
}

impl Default for MultistreamOptions {
    fn default() -> Self {
        MultistreamOptions { streams: 4, chunk_size: 4 * 1024 * 1024, max_chunk_failures: 64 }
    }
}

/// One finished chunk: which replica served it, and when (runtime clock).
#[derive(Debug, Clone)]
pub struct ChunkCompletion {
    /// Chunk index within the entity.
    pub chunk: usize,
    /// Replica that served it.
    pub replica: Uri,
    /// Runtime timestamp of completion (virtual time under simulation).
    pub at: Duration,
}

/// What happened during a multi-stream download: the per-chunk completion
/// timeline plus how often workers had to switch replica.
#[derive(Debug, Clone, Default)]
pub struct MultistreamReport {
    /// Completion record per chunk, in completion order.
    pub completions: Vec<ChunkCompletion>,
    /// Times a worker abandoned its replica for the scheduler's next-best.
    pub respawns: u64,
}

/// Download a whole entity from `replicas` using `opts.streams` parallel
/// streams spread over the healthiest replicas. Returns the assembled
/// bytes.
pub fn multistream_download(
    client: &DavixClient,
    replicas: &[Uri],
    opts: &MultistreamOptions,
) -> Result<Vec<u8>> {
    multistream_download_with_report(client, replicas, opts).map(|(data, _)| data)
}

/// As [`multistream_download`], also returning the [`MultistreamReport`]
/// (chunk completion timeline + replica switches) for benchmarks and
/// diagnostics.
pub fn multistream_download_with_report(
    client: &DavixClient,
    replicas: &[Uri],
    opts: &MultistreamOptions,
) -> Result<(Vec<u8>, MultistreamReport)> {
    let scheduler = Arc::new(ReplicaScheduler::from_config(
        replicas.to_vec(),
        Arc::clone(client.inner.executor.runtime()),
        &client.inner.cfg,
        Some(Arc::clone(client.inner.executor.metrics())),
    ));
    multistream_download_scheduled(client, &scheduler, opts)
}

/// The core multi-stream engine, drawing replicas from a caller-provided
/// [`ReplicaScheduler`] — share one scheduler between fail-over reads and
/// multi-stream downloads and both feed (and benefit from) the same health
/// picture.
pub fn multistream_download_scheduled(
    client: &DavixClient,
    scheduler: &Arc<ReplicaScheduler>,
    opts: &MultistreamOptions,
) -> Result<(Vec<u8>, MultistreamReport)> {
    if scheduler.is_empty() {
        return Err(DavixError::InvalidArgument("no replicas given".to_string()));
    }
    if opts.streams == 0 || opts.chunk_size == 0 {
        return Err(DavixError::InvalidArgument("streams and chunk_size must be > 0".to_string()));
    }
    let rt = Arc::clone(client.inner.executor.runtime());

    // Find the size from the best replica that answers. Any failure on one
    // replica — refused TCP, failed HEAD, bad size — moves on to the next
    // and feeds the scheduler, instead of killing the whole download.
    let mut size = None;
    let mut tried: Vec<ReplicaId> = Vec::new();
    let mut last_err = None;
    while let Some((id, uri)) = scheduler.pick_excluding(&tried) {
        let t0 = rt.now();
        match DavFile::open_uncached(Arc::clone(&client.inner), uri).and_then(|f| f.size_hint()) {
            Ok(sz) => {
                // A HEAD is liveness evidence plus an RTT bootstrap for the
                // ranking, but no bandwidth signal — record it as a probe.
                scheduler.record_probe(id, rt.now() - t0);
                size = Some(sz);
                break;
            }
            Err(e) => {
                scheduler.record_failure(id);
                tried.push(id);
                last_err = Some(e);
            }
        }
    }
    let size = size.ok_or_else(|| DavixError::AllReplicasFailed {
        tried: tried.len(),
        last: Box::new(last_err.unwrap_or_else(|| DavixError::Metalink("unreachable".into()))),
    })?;

    // One slot per chunk. A worker handed chunk `i` is the only holder of
    // `slots[i]`, so it can stream the body straight into the slot's buffer
    // while holding only that slot's (uncontended) lock — no shared
    // whole-file buffer, no copy through a scratch `Vec`.
    let n_chunks = size.div_ceil(opts.chunk_size as u64) as usize;
    let slots: Arc<Vec<Mutex<Vec<u8>>>> =
        Arc::new((0..n_chunks).map(|_| Mutex::new(Vec::new())).collect());
    let report = Arc::new(Mutex::new(MultistreamReport::default()));
    run_chunked(
        &client.inner.io_pool,
        size,
        opts.chunk_size,
        opts.streams,
        opts.max_chunk_failures,
        |slot_idx| {
            stream_worker(
                client.clone(),
                slot_idx,
                Arc::clone(scheduler),
                Arc::clone(&slots),
                Arc::clone(&report),
            )
        },
        || (),
    )
    .map_err(|e| DavixError::AllReplicasFailed { tried: scheduler.len(), last: Box::new(e) })?;

    // Every slot is filled and no worker holds a lock any more: assemble the
    // entity in chunk order (the only copy on this whole path). Each slot is
    // taken (freed) right after it is copied, so resident memory peaks near
    // one entity plus one chunk, not two entities.
    let mut out = Vec::with_capacity(size as usize);
    for slot in slots.iter() {
        let chunk = std::mem::take(&mut *slot.lock());
        out.extend_from_slice(&chunk);
    }
    let report = std::mem::take(&mut *report.lock());
    Ok((out, report))
}

/// Resolve `url`'s Metalink, multi-stream-download from its replicas, and
/// **verify the result against the Metalink checksum** when one is declared
/// (§2.4 lists the checksum among the Metalink metadata; real davix checks
/// it). `crc32` and `adler32` digests are understood — matched
/// case-insensitively, like [`ReplicaSet::hash`], so a Metalink declaring
/// `Adler32` or `CRC32` is verified, not silently skipped. Unknown
/// algorithms are ignored. Returns [`DavixError::ChecksumMismatch`] on
/// corruption.
///
/// [`ReplicaSet::hash`]: crate::ReplicaSet::hash
pub fn multistream_download_verified(
    client: &DavixClient,
    url: &str,
    opts: &MultistreamOptions,
) -> Result<Vec<u8>> {
    let origin = client.parse_url(url)?;
    let set = crate::replicas::fetch_replica_set(&client.inner, &origin)?;
    let data = multistream_download(client, &set.uris, opts)?;
    if let Some(size) = set.size {
        if data.len() as u64 != size {
            return Err(DavixError::Protocol(format!(
                "metalink declares {size} bytes, downloaded {}",
                data.len()
            )));
        }
    }
    for (algo, expected) in &set.hashes {
        let got = match algo.to_ascii_lowercase().as_str() {
            "crc32" => ioapi::checksum::to_hex(ioapi::checksum::crc32(&data)),
            "adler32" => ioapi::checksum::to_hex(ioapi::checksum::adler32(&data)),
            _ => continue, // unknown algorithm: cannot verify, skip
        };
        if got != expected.to_ascii_lowercase() {
            return Err(DavixError::ChecksumMismatch {
                algo: algo.clone(),
                expected: expected.clone(),
                got,
            });
        }
    }
    Ok(data)
}

/// The per-chunk work of download stream `slot_idx`: pick the replica the
/// scheduler assigns this slot, read the chunk from it into its slot.
fn stream_worker(
    client: DavixClient,
    slot_idx: usize,
    scheduler: Arc<ReplicaScheduler>,
    slots: Arc<Vec<Mutex<Vec<u8>>>>,
    report: Arc<Mutex<MultistreamReport>>,
) -> impl FnMut(Chunk) -> ChunkOutcome {
    let rt = Arc::clone(client.inner.executor.runtime());
    // The worker's replica assignment is re-validated against the scheduler
    // before every chunk: if the health picture moved (our replica got
    // blacklisted, a better one recovered) the worker follows it. Open
    // files are cached per replica so a benign rank flip between
    // near-equal replicas costs nothing — only a *failure-driven* switch
    // (a respawn) pays a fresh HEAD, and only those are counted as
    // respawns.
    let mut files: HashMap<ReplicaId, DavFile> = HashMap::new();
    let mut current: Option<ReplicaId> = None;
    let mut last_chunk_failed = false;
    move |Chunk { idx, off, len }| {
        let Some((id, uri)) = scheduler.assign(slot_idx) else {
            return ChunkOutcome::Fatal(DavixError::InvalidArgument("no replicas given".into()));
        };
        if current.is_some() && current != Some(id) && last_chunk_failed {
            // Respawn: the worker abandons its failed replica for the
            // scheduler's next-best instead of dying with it.
            Metrics::bump(&client.inner.executor.metrics().streams_respawned);
            report.lock().respawns += 1;
        }
        current = Some(id);
        // A successful open records nothing (a HEAD answering is not
        // evidence the reads will work — see `ReplicaFile::file_for`); the
        // chunk read right after feeds the scheduler.
        let opened = match files.entry(id) {
            Entry::Occupied(f) => Ok(f.into_mut()),
            Entry::Vacant(v) => {
                DavFile::open_uncached(Arc::clone(&client.inner), uri.clone()).map(|f| v.insert(f))
            }
        };
        // This worker was handed chunk `idx`, so it owns `slots[idx]` until
        // it finishes or gives the chunk back: the lock is uncontended and
        // may be held across the network read. `pread` streams the part
        // body straight into the slot — the chunk's final resting place —
        // with no intermediate buffer.
        let t0 = rt.now();
        let result = opened.and_then(|f| {
            let mut slot = slots[idx].lock();
            slot.resize(len, 0);
            match f.pread(off, &mut slot[..])? {
                n if n == len => Ok(()),
                n => Err(DavixError::Protocol(format!("{uri}: chunk {off}+{len} ended at {n}"))),
            }
        });
        last_chunk_failed = result.is_err();
        match result {
            Ok(()) => {
                scheduler.record_success(id, rt.now() - t0);
                report.lock().completions.push(ChunkCompletion {
                    chunk: idx,
                    replica: uri,
                    at: rt.now(),
                });
                ChunkOutcome::Done
            }
            Err(e) => {
                // Chunk failed on this replica: clear the slot, drop the
                // suspect file (its pooled sessions may be broken) and give
                // the chunk back — this worker keeps running on whatever
                // replica the scheduler ranks best next time around.
                slots[idx].lock().clear();
                scheduler.record_failure(id);
                files.remove(&id);
                Metrics::bump(&client.inner.executor.metrics().failovers);
                ChunkOutcome::Retry(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use bytes::Bytes;
    use httpd::{Handler, HttpServer, Request, Response, ServerConfig};
    use httpwire::{Method, StatusCode};
    use netsim::{LinkSpec, Runtime as _, SimNet};
    use objstore::{ObjectStore, StorageHandler, StorageNode, StorageOptions};

    /// The completion rule both directions now share: when the failure
    /// budget runs out, the caller is woken by the last worker leaving, not
    /// by the failure itself — so no chunk is still in flight behind the
    /// error it gets.
    #[test]
    fn budget_exhaustion_returns_only_after_the_last_worker_left() {
        let net = SimNet::new();
        for host in ["c", "good", "bad"] {
            net.add_host(host);
        }
        // ~1 MiB/s to the good replica: a 256 KiB chunk is in flight for a
        // quarter of a (virtual) second.
        let slow = LinkSpec {
            delay: Duration::from_millis(1),
            bandwidth: Some(1024 * 1024),
            ..Default::default()
        };
        net.set_link("c", "good", slow);
        net.set_link(
            "c",
            "bad",
            LinkSpec { delay: Duration::from_millis(1), ..Default::default() },
        );
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from(vec![5u8; 1024 * 1024]));
        StorageNode::start(
            Arc::clone(&store),
            Box::new(net.bind("good", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        // The bad replica stats fine and fails every read.
        let inner = Arc::new(StorageHandler::new(store, StorageOptions::default()));
        let gate = Arc::new(move |req: Request| {
            if req.head.method == Method::Get {
                return Response::error(StatusCode::INTERNAL_SERVER_ERROR);
            }
            inner.handle(req)
        });
        HttpServer::new(gate, ServerConfig::default())
            .serve(Box::new(net.bind("bad", 80).unwrap()), net.runtime());

        let _g = net.enter();
        let client =
            DavixClient::new(net.connector("c"), net.runtime(), Config::default().no_retry());
        let replicas: Vec<Uri> =
            vec!["http://good/f".parse().unwrap(), "http://bad/f".parse().unwrap()];
        let opts = MultistreamOptions { streams: 2, chunk_size: 256 * 1024, max_chunk_failures: 0 };
        let t0 = net.now();
        let err = multistream_download(&client, &replicas, &opts).unwrap_err();
        assert!(matches!(err, DavixError::AllReplicasFailed { .. }), "{err}");
        assert!(
            net.now() - t0 >= Duration::from_millis(200),
            "returned after {:?}: the good replica's chunk cannot have finished",
            net.now() - t0
        );
        // The pool's own count drops as its threads unwind, which takes no
        // virtual time: a worker still mid-chunk would need ~100 ms more.
        let rt = net.runtime();
        for _ in 0..1000 {
            if client.io_pool().live_workers() == 0 {
                break;
            }
            rt.sleep(Duration::from_micros(1));
        }
        assert_eq!(client.io_pool().live_workers(), 0, "a worker outlived the error");
        let settled = client.metrics().bytes_in;
        rt.sleep(Duration::from_secs(1));
        assert_eq!(client.metrics().bytes_in, settled, "a chunk was still streaming");
    }
}
