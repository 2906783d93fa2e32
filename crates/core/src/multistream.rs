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
//!
//! Each worker writes its chunk at its offset into the caller's
//! [`ChunkSink`], digests it (`crc32` and `adler32` in one
//! [`crc32_adler32`] pass) while the bytes are still hot, and drops it: at
//! most `streams × chunk_size` bytes are ever held
//! ([`Metrics::peak_chunk_buffer`]), however large the entity, and a
//! verified download never reads what it wrote. The chunk engine folds the
//! digests in chunk order, as it does for an upload.

use crate::cache::BlockFetch;
use crate::client::DavixClient;
use crate::error::{DavixError, Result};
use crate::iopool::{run_chunked, Chunk, Outcome};
use crate::metrics::Metrics;
use crate::replicas::{all_failed, Attempt, Failover};
use crate::scheduler::{ReplicaId, ReplicaScheduler};
use crate::upload::ChunkSink;
use httpwire::Uri;
use ioapi::checksum::{crc32_adler32, to_hex};
use std::sync::Arc;
use std::time::Duration;

/// Tuning for [`multistream_download`].
#[derive(Debug, Clone)]
pub struct MultistreamOptions {
    /// Total parallel streams across all replicas.
    pub streams: usize,
    /// Chunk size in bytes.
    pub chunk_size: usize,
}

impl Default for MultistreamOptions {
    fn default() -> Self {
        MultistreamOptions { streams: 4, chunk_size: 4 * 1024 * 1024 }
    }
}

/// A download gives up after this many chunk failures in total.
const MAX_CHUNK_FAILURES: usize = 64;

/// One finished chunk: which replica served it, and when (runtime clock).
#[derive(Debug, Clone)]
pub struct ChunkCompletion {
    /// Replica that served it.
    pub replica: Uri,
    /// Runtime timestamp of completion (virtual time under simulation).
    pub at: Duration,
}

/// Download a whole entity from the replicas `scheduler` ranks (one from
/// [`DavixClient::replica_scheduler`]) into `sink`, over `opts.streams`
/// parallel streams spread across the healthiest of them. Returns each
/// chunk's [`ChunkCompletion`], in chunk order; a worker that switched
/// replica counts in [`Metrics::streams_respawned`]. Share the scheduler
/// with fail-over reads and both feed (and benefit from) the same health
/// picture.
pub fn multistream_download(
    client: &DavixClient,
    scheduler: &Arc<ReplicaScheduler>,
    opts: &MultistreamOptions,
    sink: Arc<dyn ChunkSink>,
) -> Result<Vec<ChunkCompletion>> {
    Ok(download(client, scheduler, opts, None, sink)?.2)
}

/// The engine proper: the entity's size, its `(crc32, adler32)` and the
/// chunks' completions. `declared` is the entity size the Metalink states,
/// when the caller has one: it pins the download's one fail-over context,
/// so nothing is ever sized or read from a replica that disagrees with it.
fn download(
    client: &DavixClient,
    scheduler: &Arc<ReplicaScheduler>,
    opts: &MultistreamOptions,
    declared: Option<u64>,
    sink: Arc<dyn ChunkSink>,
) -> Result<(u64, (u32, u32), Vec<ChunkCompletion>)> {
    if scheduler.is_empty() {
        return Err(DavixError::InvalidArgument("no replicas given".to_string()));
    }
    if opts.streams == 0 || opts.chunk_size == 0 {
        return Err(DavixError::InvalidArgument("streams and chunk_size must be > 0".to_string()));
    }

    // Find the size from the best replica that answers: the fail-over walk,
    // with the open (HEAD) as the operation. Any failure on one replica —
    // refused TCP, failed HEAD, a `403`, another size — moves on to the
    // next and feeds the scheduler, instead of killing the whole download.
    // A HEAD answering is liveness evidence plus an RTT bootstrap for the
    // ranking, but no bandwidth signal: recorded as a probe, and a failed
    // one is no read failing over. The workers share this context, so the
    // replica that answered here is not opened again.
    let fo = Arc::new(Failover::new(
        Arc::clone(&client.inner),
        Arc::clone(scheduler),
        |_| true,
        declared,
    ));
    let rt = client.inner.executor.runtime();
    let (mut tried, mut last_err) = (Vec::new(), None);
    let probed = fo.walk(&mut tried, &mut last_err, |id, uri| {
        let t0 = rt.now();
        match fo.open(id, uri) {
            Ok(_) => Attempt::Ok(rt.now() - t0),
            Err(e) => fo.fail(id, e),
        }
    })?;
    let (Some((id, rtt)), Some(size)) = (probed, fo.size()) else {
        return Err(all_failed(tried.len(), last_err));
    };
    scheduler.record_probe(id, rtt);

    // Each chunk is read into its own buffer and written at its offset; no
    // lock is held across the read.
    let (completions, digests, _) = run_chunked(
        &client.inner.io_pool,
        client.inner.executor.metrics(),
        size,
        opts.chunk_size,
        opts.streams,
        MAX_CHUNK_FAILURES,
        |slot_idx| stream_worker(client.clone(), slot_idx, Arc::clone(&fo), Arc::clone(&sink)),
    )?;
    Ok((size, digests, completions))
}

/// Resolve `url`'s Metalink, multi-stream-download from its replicas, and
/// **verify the result against the Metalink checksum** when one is declared
/// (§2.4 lists the checksum among the Metalink metadata; real davix checks
/// it). `crc32` and `adler32` digests are understood — matched
/// case-insensitively, like [`ReplicaSet::hash`], so a Metalink declaring
/// `Adler32` or `CRC32` is verified, not silently skipped. Unknown
/// algorithms are ignored. Returns the entity's size, the bytes written to
/// `sink`, or [`DavixError::ChecksumMismatch`] on corruption (what `sink`
/// holds then is not the entity).
///
/// [`ReplicaSet::hash`]: crate::ReplicaSet::hash
pub fn multistream_download_verified(
    client: &DavixClient,
    url: &str,
    opts: &MultistreamOptions,
    sink: Arc<dyn ChunkSink>,
) -> Result<u64> {
    let set = client.resolve_replica_set(url)?;
    let (size, (crc, adler), _) =
        download(client, &client.replica_scheduler(set.uris), opts, set.size, sink)?;
    for (algo, expected) in &set.hashes {
        let got = match algo.to_ascii_lowercase().as_str() {
            "crc32" => to_hex(crc),
            "adler32" => to_hex(adler),
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
    Ok(size)
}

/// The per-chunk work of download stream `slot_idx`: pick the replica the
/// scheduler assigns this slot, read the chunk from it through the
/// download's fail-over context `fo`, write it to `sink` and digest it.
fn stream_worker(
    client: DavixClient,
    slot_idx: usize,
    fo: Arc<Failover>,
    sink: Arc<dyn ChunkSink>,
) -> impl FnMut(Chunk) -> Outcome<Chunk, ((u32, u32), ChunkCompletion)> {
    // The worker's replica assignment is re-validated against the scheduler
    // before every chunk: if the health picture moved (our replica got
    // blacklisted, a better one recovered) the worker follows it. Open
    // files are kept per replica in the download's one fail-over context,
    // shared by every worker, so a rank flip costs nothing once a replica
    // is open: a replica is opened again only after a failure evicted it,
    // and only a failure-driven switch counts as a respawn.
    // The replica this worker's last chunk failed on, if it failed.
    let mut failed_on: Option<ReplicaId> = None;
    move |chunk @ Chunk { off, len, .. }| {
        let Some((id, uri)) = fo.scheduler.assign(slot_idx) else {
            return Outcome::Fatal(DavixError::InvalidArgument("no replicas given".into()));
        };
        if failed_on.is_some_and(|prev| prev != id) {
            // Respawn: the worker abandons its failed replica for the
            // scheduler's next-best instead of dying with it.
            Metrics::bump(&client.inner.executor.metrics().streams_respawned);
        }
        // The chunk is filled off the wire into its own buffer (an entity
        // ending inside it is the replica's failure), with no lock across
        // the network read. A failed chunk goes back to the queue — this
        // worker keeps running on whatever replica the scheduler ranks best
        // next time around.
        let outcome = fo.attempt(id, uri.clone(), |f| f.fetch(off, len));
        failed_on = (!matches!(outcome, Attempt::Ok(_))).then_some(id);
        match outcome {
            Attempt::Ok(bytes) => {
                // A sink that cannot take the chunk fails every replay.
                if let Err(e) = sink.write_chunk(off, &bytes) {
                    return Outcome::Fatal(e);
                }
                let at = client.inner.executor.runtime().now();
                Outcome::Done((crc32_adler32(&bytes), ChunkCompletion { replica: uri, at }))
            }
            // A worker blames every error on the replica: the chunk goes
            // back to the queue whatever it was, and the error that spends
            // the last of the budget is returned as every replica's. The
            // sink's error, above, is returned as it is.
            Attempt::TryNext(e) | Attempt::Fatal(e) => {
                let tried = fo.scheduler.len();
                Outcome::Retry(chunk, DavixError::AllReplicasFailed { tried, last: Box::new(e) })
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

    /// Two replicas of `data`, `http://a/f` and `http://b/f`, and a client.
    fn two_replicas(data: &[u8]) -> (SimNet, DavixClient, Vec<Uri>) {
        let net = SimNet::new();
        net.add_host("c");
        for host in ["a", "b"] {
            net.add_host(host);
            net.set_link("c", host, LinkSpec::lan());
            let store = Arc::new(ObjectStore::new());
            store.put("/f", Bytes::from(data.to_vec()));
            StorageNode::start(
                store,
                Box::new(net.bind(host, 80).unwrap()),
                net.runtime(),
                StorageOptions::default(),
                ServerConfig::default(),
            );
        }
        let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default());
        let replicas = vec!["http://a/f".parse().unwrap(), "http://b/f".parse().unwrap()];
        (net, client, replicas)
    }

    /// A download into a file writes each chunk at its offset and holds at
    /// most one chunk per stream at a time, however many chunks there are.
    #[test]
    fn a_download_into_a_file_holds_at_most_one_chunk_per_stream() {
        let (streams, chunk_size) = (2, 64 * 1024);
        let data: Vec<u8> =
            (0..16 * streams * chunk_size + 1000).map(|i| (i * 7 + i / 65_536) as u8).collect();
        let (net, client, replicas) = two_replicas(&data);
        let _g = net.enter();
        let path = std::env::temp_dir().join(format!("davix-multistream-{}", std::process::id()));
        let file = Arc::new(std::fs::File::create(&path).unwrap());
        let opts = MultistreamOptions { streams, chunk_size };
        let completions =
            multistream_download(&client, &client.replica_scheduler(replicas), &opts, file)
                .unwrap();
        let got = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(completions.len(), 33);
        assert!(got == data, "chunk bytes out of place: {} bytes for {}", got.len(), data.len());
        let peak = client.metrics().peak_chunk_buffer;
        assert!(peak > 0 && peak <= (streams * chunk_size) as u64, "{peak} bytes held at once");
        // 33 GETs, the size HEAD and the other replica's first open — twice
        // at most, when both streams race to it: one fail-over context per
        // download, not one per stream.
        let sent = client.metrics().requests;
        assert!(sent <= 36, "{sent} requests: a replica was opened once per stream");
    }

    /// A sink that cannot take a chunk ends the download: no chunk is
    /// fetched again and no stream starts another one.
    #[test]
    fn a_failing_sink_ends_the_download_without_a_retry() {
        struct Full;
        impl ChunkSink for Full {
            fn write_chunk(&self, _: u64, _: &[u8]) -> Result<()> {
                Err(DavixError::InvalidArgument("disk full".to_string()))
            }
        }
        let (net, client, replicas) = two_replicas(&[7u8; 1 << 20]);
        let _g = net.enter();
        let opts = MultistreamOptions { streams: 2, chunk_size: 64 * 1024 };
        let scheduler = client.replica_scheduler(replicas);
        let err = multistream_download(&client, &scheduler, &opts, Arc::new(Full)).unwrap_err();
        assert!(matches!(&err, DavixError::InvalidArgument(m) if m == "disk full"), "{err}");
        // The size HEAD, then per stream at most an open and one chunk GET.
        let sent = client.metrics().requests;
        assert!(sent <= 5, "{sent} requests: a chunk was fetched again");
    }

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
        // ~512 KiB/s to the good replica: a 256 KiB chunk is in flight for
        // half a (virtual) second, while the bad replica's 65 failures take
        // a few milliseconds each.
        let slow = LinkSpec {
            delay: Duration::from_millis(1),
            bandwidth: Some(512 * 1024),
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
        // Never blacklisted, the bad replica keeps the second stream until
        // the failure budget runs out.
        let cfg = Config::default().no_retry().replica_blacklist(u32::MAX, Duration::ZERO);
        let client = DavixClient::new(net.connector("c"), net.runtime(), cfg);
        let replicas: Vec<Uri> =
            vec!["http://good/f".parse().unwrap(), "http://bad/f".parse().unwrap()];
        let opts = MultistreamOptions { streams: 2, chunk_size: 256 * 1024 };
        let t0 = net.now();
        let sink = Arc::new(std::sync::Mutex::new(Vec::new()));
        let err = multistream_download(&client, &client.replica_scheduler(replicas), &opts, sink)
            .unwrap_err();
        assert!(matches!(err, DavixError::AllReplicasFailed { .. }), "{err}");
        assert!(
            net.now() - t0 >= Duration::from_millis(450),
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
