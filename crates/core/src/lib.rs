//! # davix — an HTTP/1.1 I/O layer for high-performance data analysis
//!
//! A from-scratch Rust reproduction of **libdavix** (Devresse & Furano,
//! *Efficient HTTP based I/O on very large datasets for high performance
//! computing with the libdavix library*, CERN 2014, arXiv:1410.4168).
//!
//! The paper's thesis: plain HTTP/1.1 can compete with HPC-specific data
//! access protocols (XRootD, GridFTP) if the client layer is engineered
//! around three ideas — all implemented here:
//!
//! 1. **Session recycling** ([`pool`]): a dynamic connection pool with a
//!    thread-safe dispatch system and aggressive `Keep-Alive`, maximizing
//!    TCP connection reuse and thereby amortizing handshakes and slow start.
//!    This is the paper's answer to HTTP pipelining (head-of-line blocking)
//!    and to protocol replacements like SPDY/SCTP (deployment hostility) —
//!    see §2.2 and Figure 2.
//! 2. **Vectored I/O** ([`file`](mod@file)): `pread_vec` packs any number of
//!    fragmented random reads into one HTTP **multi-range** request,
//!    answered as `multipart/byteranges`. One round trip instead of
//!    hundreds "virtually eliminates the need for I/O multiplexing" (§2.3,
//!    Figure 3), with a graceful degradation ladder for servers with weaker
//!    range support.
//! 3. **Metalink resiliency** ([`replicas`], [`multistream`], [`scheduler`]):
//!    on failure, fetch the resource's RFC 5854 Metalink and fail over
//!    through the replica list; or *multi-stream* — download chunks from
//!    several replicas in parallel (§2.4).
//!
//! Everything is written against the transport traits of [`netsim`], so the
//! same client runs over real TCP and over the simulated WLCG-style networks
//! used by the benchmark harness.
//!
//! ## Streaming responses
//!
//! The executor has two consumption models sharing one wire path:
//!
//! * [`HttpExecutor::execute_streaming`] returns a [`ResponseStream`] —
//!   the response head plus the *unread* body. The stream owns the pooled
//!   session; reading (it implements [`std::io::Read`]) drains the body
//!   incrementally with the HTTP framing enforced, and the session returns
//!   to the pool the moment the body completes. Dropping a half-read
//!   stream discards the connection (it is mid-message and can never be
//!   recycled) — correctness is never traded for reuse.
//! * [`HttpExecutor::execute`] is a thin collect-to-`Vec` wrapper over the
//!   same path for small bodies (PROPFIND results, error pages).
//!
//! Every hot read path streams: `DavFile::pread` lands bytes straight in
//! the caller's buffer, `pread_vec` decodes `multipart/byteranges` parts
//! incrementally off the wire, and `multistream_download` streams each
//! chunk into its final slot. A multi-GiB GET therefore costs the client a
//! fixed-size buffer, not a multi-GiB allocation — see the
//! `bytes_streamed` / `peak_body_buffer` counters in [`Metrics`].
//!
//! The read path is also *paranoid*: a `206` whose `Content-Range` does
//! not match the requested window, or whose body ends short of what the
//! range declares, fails as [`DavixError::Protocol`] instead of silently
//! yielding wrong bytes at the right offsets. Servers that ignore `Range`
//! and answer `200` + full entity are read only up to the requested window
//! (counted in `Metrics::range_downgrades`).
//!
//! ## The read stack
//!
//! One request path ([`executor`]) carries every read; above it, every file
//! read goes through the same four layers, each written once:
//!
//! 1. **`RawFile` — the wire** ([`file`](mod@file)): one resource at its
//!    final URI with the size learned at open. `pread` is one ranged GET
//!    streamed into the caller's buffer, `pread_vec` one multi-range GET
//!    with the §2.3 degradation ladder. It never caches.
//! 2. **`ReplicaCore` — fail-over, optional** ([`replicas`]): the walk over
//!    scheduler-ranked replicas around the one *fail-over step* — open or
//!    reuse that replica's `RawFile`, time the operation, tell the
//!    [`ReplicaScheduler`] how it went (a failure is recorded, counted in
//!    `Metrics::failovers` and evicts the suspect file in exactly one
//!    place) and say whether the error lets another replica try — a
//!    `ReplicaFile` spares the caller's own errors (`403`, bad argument), a
//!    multi-stream download blames every error on the replica. Its workers
//!    run the same step, each over its own map of open files; its size
//!    discovery is the same walk with the open as the operation.
//! 3. **`Reader` — the cached-read front** ([`file`](mod@file)): over
//!    either of the above as its one upstream. Cache bound? Read through it
//!    and count the upstream fetches it caused as round trips; otherwise
//!    read upstream and count one. Fragment validation and the handle's
//!    `IoStats` live here and nowhere else.
//! 4. **[`DavFile`] / [`ReplicaFile`] — the public faces**: a `Reader` plus
//!    what is theirs alone (stat data and the sequential cursor; origin,
//!    scheduler and current replica). Their [`ioapi::RandomAccess`] impls
//!    are one shared delegation.
//!
//! ## Block cache, single-flight dedup and adaptive read-ahead
//!
//! The [`cache`] module adds the layer the paper's client-side argument
//! ultimately points at: once redundant round trips per request are gone
//! (§2.2/§2.3), the next win is not re-issuing requests whose bytes the
//! client has already seen. One [`BlockCache`] per client (enabled by
//! [`Config::cache_capacity_bytes`] > 0, **off by default**) holds
//! block-aligned LRU payload shared by every open file:
//!
//! * **Block-aligned fetching** — a miss pulls whole
//!   [`Config::cache_block_size`] blocks; the missing blocks of one read
//!   (scalar or vectored) go upstream as *one* multi-range request, so
//!   the cold path costs the same round trips as the uncached path and
//!   every repeat costs none.
//! * **Single-flight de-duplication** — N concurrent readers of the same
//!   cold block produce exactly one upstream GET; the others park on the
//!   in-flight fetch and share its result
//!   ([`Metrics::singleflight_waits`]). No lock is ever held across
//!   network I/O. Fetch failures are *not* cached: the claim is
//!   withdrawn, waiters retry as fetchers, so transient faults cannot
//!   poison a block.
//! * **Adaptive read-ahead** — a handle reading sequentially opens a
//!   background prefetch window at [`Config::readahead_min`], doubling
//!   per consecutive read up to [`Config::readahead_max`] (a seek resets
//!   it; 0 disables, the default). Windows clamp at EOF. Prefetched
//!   bytes count in [`Metrics::bytes_prefetched`].
//! * **Fail-over keeps its hits** — [`ReplicaFile`] keys blocks by the
//!   *origin* resource, not the serving replica, so a replica switch
//!   (or a fully dead replica set) still serves every cached byte; the
//!   per-replica files underneath are the wire layer, which never caches,
//!   so nothing is stored twice.
//! * **Prefetch hints** — cached handles report
//!   `RandomAccess::supports_prefetch`, so `rootio`'s TreeCache can push
//!   upcoming basket windows down to the HTTP layer (`prefetch_vec`),
//!   giving davix the compute/latency overlap Figure 4 credits to
//!   XRootD's asynchronous transport.
//!
//! [`Metrics::cache_hits`] / [`Metrics::cache_misses`] (and
//! [`MetricsSnapshot::cache_hit_ratio`]) quantify the effect; the
//! `fig5_cache` bench asserts ≥ 5× fewer upstream requests on a
//! sequential re-read workload.
//!
//! ## Writing data
//!
//! The write path mirrors the read path's architecture — streaming,
//! parallel, checksummed:
//!
//! * **Streaming single PUT** ([`DavPosix::put_stream`] →
//!   [`HttpExecutor::execute_upload`]): the body streams from any
//!   [`BodyProvider`] (`Content-Length` framing when the length is known,
//!   chunked otherwise — [`httpwire::BodySource`] is the emitter), so
//!   uploading a multi-GiB file costs a fixed scratch buffer. Bodies at
//!   least [`Config::expect_continue_threshold`] bytes long negotiate
//!   `Expect: 100-continue`: a server that rejects (auth, quota, redirect)
//!   answers before the payload ever travels. Retries and redirect hops
//!   **replay** the body from a fresh reader — the 307/308 contract — under
//!   the same shared retry budget as the read path. The buffered
//!   [`DavPosix::put`] remains for small objects.
//! * **Parallel chunked upload** ([`multistream_upload`]): the write-side
//!   twin of [`multistream_download`], after GridFTP's parallel transfer.
//!   A [`ChunkSource`] (in-memory bytes or a [`FileSource`]) is split into
//!   [`UploadOptions::chunk_size`] segments PUT in parallel by
//!   [`UploadOptions::streams`] workers (4 × 4 MiB by default: the
//!   geometry belongs to the transfer, not the client), with per-chunk
//!   retry and a failure budget. Two server dialects, auto-detected: S3-style
//!   multipart (initiate / part / complete) and segmented `Content-Range`
//!   PUTs to a temporary name committed with `MOVE` (WebDAV), so readers
//!   never observe a partial object.
//! * **Checksum before commit**: every chunk is digested on its worker and
//!   the per-chunk digests fold into the entity's Adler-32
//!   ([`ioapi::checksum::adler32_combine`]); the commit happens only if
//!   the server's view of the assembled entity matches — an S3 complete
//!   carries the digest for server-side verification (mismatch → `409`,
//!   nothing committed), a segmented upload compares the staged entity's
//!   `Digest` header before the `MOVE`. Corruption surfaces as
//!   [`DavixError::ChecksumMismatch`] and the destination stays untouched.
//! * **Bounded memory**: at most `chunk_size × streams`
//!   bytes of chunk payload are resident — never the whole object. The
//!   [`Metrics::peak_upload_buffer`] high-water mark proves it (asserted
//!   by the `fig6_upload` bench, alongside ≥ 2× serial-PUT throughput on a
//!   window-limited link); [`Metrics::bytes_uploaded`],
//!   [`Metrics::chunks_uploaded`] and [`Metrics::upload_retries`] complete
//!   the write-side picture.
//!
//! ## Replica strategies and the health scheduler
//!
//! Both §2.4 strategies sit on one [`ReplicaScheduler`] that owns the
//! replica list and a health score per replica — an EWMA of observed
//! latency plus a consecutive-failure blacklist:
//!
//! * **Fail-over** ([`DavixClient::open_failover`] → [`ReplicaFile`]) is
//!   the default: one replica serves all reads; on a replica-eligible error
//!   the Metalink is resolved (once, with the origin filtered out wherever
//!   it appears) and the operation moves to the scheduler's best surviving
//!   replica. Pick it for random-access workloads (ROOT-style analysis
//!   reads) where per-read latency matters and one replica's bandwidth is
//!   enough. Once the replica set is known, `ReplicaFile::pread_vec`
//!   spreads fragment batches over the two fastest healthy replicas.
//! * **Multi-stream** ([`multistream_download`]) pulls whole entities as
//!   parallel chunks from several replicas at once. Pick it for bulk
//!   transfers where aggregate bandwidth beats per-request latency — at
//!   the server-load price §2.4 warns about. Workers re-ask the scheduler
//!   before every chunk, so a dying replica costs its in-flight chunk (the
//!   worker respawns on the next-best replica, see
//!   `Metrics::streams_respawned`) and a recovered one rejoins
//!   mid-download.
//!
//! Health knobs live in [`Config`]: `replica_failure_threshold`
//! consecutive failures blacklist a replica for
//! `replica_blacklist_cooldown` (then half-open: one success clears it,
//! one failure re-blacklists); an EWMA with a fixed weight of 0.3 on the
//! newest sample smooths the latency signal. The scheduler can also probe actively
//! ([`ReplicaScheduler::probe_once`]: one round of `OPTIONS` pings, the
//! probe DynaFed's `HealthMonitor` sends) to evict dead replicas and
//! readmit recovered ones without a caller paying for the discovery.
//! Scheduler locks are held only to pick a replica or record an outcome —
//! never across network I/O — so concurrent `pread`s on one `ReplicaFile`
//! overlap fully.
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use bytes::Bytes;
//! use davix::{Config, DavixClient};
//! use httpd::ServerConfig;
//! use objstore::{ObjectStore, StorageNode, StorageOptions};
//!
//! // A simulated storage node with one object.
//! let net = netsim::SimNet::new();
//! net.add_host("client");
//! net.add_host("dpm.cern.ch");
//! let store = Arc::new(ObjectStore::new());
//! store.put("/data/events.root", Bytes::from(vec![42u8; 100_000]));
//! StorageNode::start(
//!     store,
//!     Box::new(net.bind("dpm.cern.ch", 80).unwrap()),
//!     net.runtime(),
//!     StorageOptions::default(),
//!     ServerConfig::default(),
//! );
//!
//! // The davix client.
//! let _g = net.enter();
//! let client = DavixClient::new(net.connector("client"), net.runtime(), Config::default());
//! let file = client.open("http://dpm.cern.ch/data/events.root").unwrap();
//! assert_eq!(file.size_hint().unwrap(), 100_000);
//!
//! // Vectored read: one round trip for many fragments.
//! let frags = file.pread_vec(&[(0, 16), (50_000, 16), (99_984, 16)]).unwrap();
//! assert_eq!(frags.len(), 3);
//! assert_eq!(frags[0], vec![42u8; 16]);
//! ```

pub mod cache;
pub mod client;
pub mod config;
pub mod error;
pub mod executor;
pub mod file;
pub mod iopool;
pub mod metrics;
pub mod multistream;
pub mod pool;
pub mod posix;
pub mod replicas;
pub mod scheduler;
pub mod upload;

pub use cache::BlockCache;
pub use client::DavixClient;
pub use config::{Config, RangePolicy, RetryPolicy};
pub use error::{DavixError, Result};
pub use executor::{
    BodyProvider, Exchange, ExchangePoll, HttpExecutor, HttpResponse, PreparedRequest,
    ResponseStream,
};
pub use file::DavFile;
pub use iopool::IoPool;
pub use metrics::{Metrics, MetricsSnapshot};
pub use multistream::{
    multistream_download, multistream_download_scheduled, multistream_download_verified,
    multistream_download_with_report, ChunkCompletion, MultistreamOptions, MultistreamReport,
};
pub use pool::{Endpoint, SessionPool};
pub use posix::{DavPosix, DirEntry, FileStat};
pub use replicas::{ReplicaFile, ReplicaSet};
pub use scheduler::{
    probe_endpoint, ReplicaHealthSnapshot, ReplicaId, ReplicaScheduler, SchedulerKnobs,
};
pub use upload::{
    multistream_upload, ChunkSource, FileSource, UploadOptions, UploadProtocol, UploadReport,
};
