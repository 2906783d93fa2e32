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

use crate::cache::BlockFetch;
use crate::client::DavixClient;
use crate::error::{DavixError, Result};
use crate::file::RawFile;
use crate::iopool::{run_chunked, Chunk, Outcome};
use crate::metrics::Metrics;
use crate::replicas::{all_failed, Attempt, Failover};
use crate::scheduler::{ReplicaId, ReplicaScheduler};
use httpwire::Uri;
use parking_lot::Mutex;
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
    download(client, &client.replica_scheduler(replicas.to_vec()), opts, None)
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
    download(client, scheduler, opts, None)
}

/// A replica advertising another size than `expected` holds some other
/// entity (or lies): its failure, in the fail-over step.
fn check_size(f: &RawFile, expected: Option<u64>) -> Result<u64> {
    match expected {
        Some(size) if size != f.size => Err(DavixError::Protocol(format!(
            "{} advertises {} bytes, expected {size}",
            f.uri, f.size
        ))),
        _ => Ok(f.size),
    }
}

/// The engine proper. `declared` is the entity size the Metalink states,
/// when the caller has one: nothing is ever sized from a replica that
/// disagrees with it.
fn download(
    client: &DavixClient,
    scheduler: &Arc<ReplicaScheduler>,
    opts: &MultistreamOptions,
    declared: Option<u64>,
) -> Result<(Vec<u8>, MultistreamReport)> {
    if scheduler.is_empty() {
        return Err(DavixError::InvalidArgument("no replicas given".to_string()));
    }
    if opts.streams == 0 || opts.chunk_size == 0 {
        return Err(DavixError::InvalidArgument("streams and chunk_size must be > 0".to_string()));
    }

    // Find the size from the best replica that answers: the fail-over walk,
    // with the open (HEAD) as the operation. Any failure on one replica —
    // refused TCP, failed HEAD, a `403`, bad size — moves on to the next and
    // feeds the scheduler, instead of killing the whole download. A HEAD
    // answering is liveness evidence plus an RTT bootstrap for the ranking,
    // but no bandwidth signal: recorded as a probe, and a failed one is no
    // read failing over.
    let fo = Failover::new(Arc::clone(&client.inner), Arc::clone(scheduler), |_| true);
    let rt = client.inner.executor.runtime();
    let (mut tried, mut last_err) = (Vec::new(), None);
    let probed = fo.walk(&mut tried, &mut last_err, |id, uri| {
        let t0 = rt.now();
        match fo.open(id, uri).and_then(|f| check_size(&f, declared)) {
            Ok(size) => Attempt::Ok((size, rt.now() - t0)),
            Err(e) => fo.fail(id, e),
        }
    })?;
    let Some((id, (size, rtt))) = probed else { return Err(all_failed(tried.len(), last_err)) };
    scheduler.record_probe(id, rtt);

    // One slot per chunk. A worker handed chunk `i` is the only holder of
    // `slots[i]`: it streams the body into the chunk's own buffer and parks
    // that in the slot — no shared whole-file buffer, no copy through a
    // scratch `Vec`, no lock across the read.
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
                size,
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
    let (data, _) = download(client, &client.replica_scheduler(set.uris), opts, set.size)?;
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
    size: u64,
    slots: Arc<Vec<Mutex<Vec<u8>>>>,
    report: Arc<Mutex<MultistreamReport>>,
) -> impl FnMut(Chunk) -> Outcome {
    // The worker's replica assignment is re-validated against the scheduler
    // before every chunk: if the health picture moved (our replica got
    // blacklisted, a better one recovered) the worker follows it. Open
    // files are kept per replica — in this worker's own fail-over context —
    // so a benign rank flip between near-equal replicas costs nothing:
    // only a *failure-driven* switch (a respawn) pays a fresh HEAD, and
    // only those are counted as respawns.
    let fo = Failover::new(Arc::clone(&client.inner), scheduler, |_| true);
    // The replica this worker's last chunk failed on, if it failed.
    let mut failed_on: Option<ReplicaId> = None;
    move |Chunk { idx, off, len }| {
        let Some((id, uri)) = fo.scheduler.assign(slot_idx) else {
            return Outcome::Fatal(DavixError::InvalidArgument("no replicas given".into()));
        };
        if failed_on.is_some_and(|prev| prev != id) {
            // Respawn: the worker abandons its failed replica for the
            // scheduler's next-best instead of dying with it.
            Metrics::bump(&client.inner.executor.metrics().streams_respawned);
            report.lock().respawns += 1;
        }
        // The chunk is filled off the wire into its own buffer (an entity
        // ending inside it is the replica's failure) and then parked in
        // `slots[idx]`, its final resting place, which only the worker
        // handed chunk `idx` touches — no lock across the network read. A
        // failed chunk leaves the slot empty and goes back to the queue —
        // this worker keeps running on whatever replica the scheduler ranks
        // best next time around.
        let outcome = fo.attempt(id, uri.clone(), |f| {
            check_size(f, Some(size))?;
            f.fetch(off, len)
        });
        failed_on = (!matches!(outcome, Attempt::Ok(_))).then_some(id);
        match outcome {
            Attempt::Ok(chunk) => {
                *slots[idx].lock() = chunk;
                report.lock().completions.push(ChunkCompletion {
                    chunk: idx,
                    replica: uri,
                    at: client.inner.executor.runtime().now(),
                });
                Outcome::Done
            }
            // A worker blames every error on the replica: the chunk goes
            // back to the queue whatever it was.
            Attempt::TryNext(e) | Attempt::Fatal(e) => Outcome::Retry(e),
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
