//! `DavFile`: positional and vectored reads over one remote HTTP resource.
//!
//! This module holds two of the read stack's three layers (see the crate
//! docs, "The read stack"): `RawFile`, the wire, and [`DavFile`], the
//! cached-read front and the one public handle. The third, replica
//! fail-over, slots in between them in [`replicas`](crate::replicas).
//!
//! The vectored path is the paper's §2.3 contribution: any number of
//! fragmented random reads become *one* HTTP multi-range request, answered
//! as `multipart/byteranges` — one network round trip instead of N. A
//! degradation ladder keeps the API correct against servers with weaker
//! range support:
//!
//! 1. `206` + `multipart/byteranges` → decode parts (the fast path);
//! 2. `206` + single `Content-Range` → the server merged our ranges: slice;
//! 3. `200` + full entity → the server ignored `Range`: slice;
//! 4. multi-range rejected (`400`/`501`) → per-fragment single-range GETs
//!    dispatched in parallel through the session pool.

use crate::cache::{BlockFetch, FileCache};
use crate::client::ClientInner;
use crate::config::RangePolicy;
use crate::error::{DavixError, Result};
use crate::executor::{body_read_error, PreparedRequest, ResponseStream};
use crate::iopool::map_ordered;
use crate::metrics::Metrics;
use crate::posix::FileStat;
use crate::replicas::ReplicaCore;
use crate::scheduler::ReplicaScheduler;
use httpwire::multipart::{boundary_from_content_type, MultipartReader};
use httpwire::range::{coalesce_fragments, format_range_header};
use httpwire::{ContentRange, ResponseHead, StatusCode, Uri};
use ioapi::{IoStats, IoStatsSnapshot};
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::sync::Arc;

/// Fragments closer than this many bytes are merged into one wire range
/// (reading a small gap is cheaper than another part header).
const VECTOR_MERGE_GAP: u64 = 512;

/// Most bytes [`DavFile::copy_to`] holds at once when it copies through the
/// block cache.
const COPY_WINDOW: u64 = 1 << 20;

/// Concurrency of the per-fragment single-range GETs that `SingleRanges`
/// mode and a rejected multi-range request fall back to.
const FALLBACK_PARALLELISM: usize = 8;

/// A remote file opened through davix, directly
/// ([`DavixClient::open`](crate::DavixClient::open)) or with Metalink
/// fail-over ([`DavixClient::open_failover`](crate::DavixClient::open_failover)):
/// the cached-read front over one upstream, the size learned at open and a
/// cursor.
///
/// Every read goes to the upstream — the wire of the opened resource, or
/// the fail-over walk over its replicas — or, when the client's block
/// cache is enabled ([`Config::cache_capacity_bytes`] above 0), through the
/// cache in front of it: block-aligned upstream fetches, single-flight
/// de-duplication and (optionally) adaptive read-ahead — see
/// [`BlockCache`](crate::BlockCache). A fail-over file keys its blocks by
/// the **origin** resource, not by whichever replica fetched them, so a
/// fail-over or scheduler re-rank keeps every hit; the per-replica wire
/// files underneath never cache, so bytes are cached exactly once. With the
/// cache off (the default) every read streams straight off the wire.
/// Fragment validation and the handle's `IoStats` live here and nowhere
/// else.
///
/// [`Config::cache_capacity_bytes`]: crate::Config::cache_capacity_bytes
pub struct DavFile {
    opened: Opened,
    size: u64,
    cache: Option<FileCache>,
    io: IoStats,
    pos: Mutex<u64>,
}

/// How a [`DavFile`] was opened, and so what it reports about its resource.
enum Opened {
    /// One resource at its final URI, with its ETag.
    Direct(Arc<RawFile>, Option<String>),
    /// The origin's scheduler-ranked replicas.
    Failover(Arc<ReplicaCore>),
}

impl Opened {
    /// What a read goes to when the cache cannot serve it, or there is none.
    fn upstream(&self) -> &dyn BlockFetch {
        match self {
            Opened::Direct(raw, _) => &**raw,
            Opened::Failover(core) => &**core,
        }
    }
}

/// The wire layer of the read stack: the uncached network read path of one
/// remote resource. It is the [`BlockFetch`] under a directly opened
/// [`DavFile`], and what replica fail-over and the multistream workers open
/// per replica (they cache, if at all, one layer up).
#[derive(Clone)]
pub(crate) struct RawFile {
    pub(crate) inner: Arc<ClientInner>,
    pub(crate) uri: Uri,
    pub(crate) size: u64,
}

impl std::fmt::Debug for DavFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DavFile")
            .field("uri", &self.uri().to_string())
            .field("size", &self.size)
            .field("failover", &self.scheduler().is_some())
            .field("cached", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

/// Discover the size (and ETag) of `uri` without trusting HEAD: a ranged
/// GET of the first byte whose `206 Content-Range` carries the total
/// entity size. Servers that ignore `Range` and answer `200` betray the
/// size through `Content-Length` instead. Used when HEAD omits
/// `Content-Length` (some gateways do for dynamically served objects).
pub(crate) fn probe_size(
    inner: &Arc<ClientInner>,
    uri: &Uri,
) -> Result<(u64, Option<String>, Uri)> {
    let req = PreparedRequest::get(uri.clone()).header("Range", "bytes=0-0");
    let resp = inner.executor.execute_streaming(&req)?;
    let etag = resp.head().headers.get("etag").map(str::to_string);
    let final_uri = resp.final_uri().clone();
    let size = match resp.status() {
        StatusCode::PARTIAL_CONTENT => {
            let cr = parse_content_range(resp.head(), "size probe")?;
            cr.total.ok_or_else(|| {
                DavixError::Protocol(format!("{uri}: size probe got Content-Range without total"))
            })?
        }
        StatusCode::OK => {
            // The server ignored `Range` and is sending the whole entity.
            // `finish()` would drain it all just to recycle the session —
            // drop the stream instead: the connection is discarded, which
            // costs a reconnect, never a full-entity transfer.
            let size = resp.head().headers.content_length()?.ok_or_else(|| {
                DavixError::Protocol(format!("{uri}: size probe got 200 without Content-Length"))
            })?;
            return Ok((size, etag, final_uri));
        }
        status => return Err(DavixError::from_status(status, format!("size probe {uri}"))),
    };
    resp.finish(); // a 206 carries at most one body byte; keep the session
    Ok((size, etag, final_uri))
}

impl DavFile {
    /// Open `uri` directly, learning its size and ETag (HEAD), or with
    /// `failover` through its replicas, taking the size from whichever
    /// answers first (so fail-over may already kick in here); binds the
    /// client's block cache when one is configured.
    pub(crate) fn open(inner: &Arc<ClientInner>, uri: Uri, failover: bool) -> Result<DavFile> {
        let (size, opened) = if failover {
            let (core, size) = ReplicaCore::open(Arc::clone(inner), uri)?;
            (size, Opened::Failover(core))
        } else {
            let (raw, etag) = RawFile::open(Arc::clone(inner), uri)?;
            (raw.size, Opened::Direct(Arc::new(raw), etag))
        };
        let cache = inner.cache.as_ref().map(|cache| {
            let (key, up): (String, Arc<dyn BlockFetch>) = match &opened {
                // Keyed by final URI + size + ETag: a changed entity (new
                // ETag) re-opened later cannot serve stale blocks.
                Opened::Direct(raw, etag) => (
                    format!("{}|{size}|{}", raw.uri, etag.as_deref().unwrap_or("-")),
                    Arc::clone(raw) as _,
                ),
                // Keyed by the *origin* (+ size): blocks fetched from
                // replica A keep hitting after a fail-over to replica B.
                // ETags are deliberately absent from the key — replicas of
                // one logical resource routinely disagree on them.
                Opened::Failover(core) => {
                    (format!("replica:{}|{size}", core.origin), Arc::clone(core) as _)
                }
            };
            FileCache::new(Arc::clone(cache), key, size, up, inner.cfg.readahead)
        });
        Ok(DavFile { opened, size, cache, io: IoStats::default(), pos: Mutex::new(0) })
    }

    /// The URI this file was opened from: the final (post-redirect) URI of
    /// a direct open, the origin of a fail-over one.
    pub fn uri(&self) -> &Uri {
        match &self.opened {
            Opened::Direct(raw, _) => &raw.uri,
            Opened::Failover(core) => &core.origin,
        }
    }

    /// URI of the replica that served the last successful operation; a
    /// directly opened file has only the one.
    pub fn current_uri(&self) -> Uri {
        let Opened::Failover(core) = &self.opened else { return self.uri().clone() };
        core.current_uri()
    }

    /// The shared health scheduler ranking a fail-over file's replicas;
    /// `None` for a direct open.
    pub fn scheduler(&self) -> Option<&Arc<ReplicaScheduler>> {
        let Opened::Failover(core) = &self.opened else { return None };
        Some(&core.fo.scheduler)
    }

    /// Size learned at open time.
    pub fn size_hint(&self) -> u64 {
        self.size
    }

    /// Stat data learned at open time. A fail-over file has no ETag:
    /// replicas of one resource disagree on them.
    pub fn stat(&self) -> FileStat {
        let etag = if let Opened::Direct(_, etag) = &self.opened { etag.clone() } else { None };
        FileStat { size: self.size, is_dir: false, etag }
    }

    /// Positional read of up to `buf.len()` bytes at `offset`. Returns bytes
    /// read; 0 at EOF.
    ///
    /// Without the cache, the body streams straight from the pooled
    /// connection into `buf` — no intermediate buffer proportional to the
    /// read size is allocated. With the cache, whole blocks are fetched
    /// (at most once, concurrently, across all readers) and the request is
    /// served from them: a read whose bytes are resident succeeds even
    /// while *every* replica of a fail-over file is down.
    pub fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let (n, round_trips) = match &self.cache {
            Some(cache) => cache.read_at(offset, buf)?,
            None => (self.opened.upstream().pread(offset, buf)?, 1),
        };
        self.io.record_read(n as u64, round_trips);
        Ok(n)
    }

    /// Copy the whole entity into `sink`; returns the bytes written. Memory
    /// stays flat whatever the size. Without the cache this is one GET
    /// streamed through: a fail-over file walks its replicas as a read
    /// does, and a replica that takes over from one that failed mid-body
    /// sends the entity again, read on past the bytes already written.
    /// With the cache it is a read of 1 MiB through it at a time, each
    /// costing what such a read costs (one request for the blocks it
    /// misses). An error from `sink` ends the copy at once, with
    /// no retry and no fail-over.
    pub fn copy_to(&self, sink: &mut dyn Write) -> std::io::Result<u64> {
        if self.cache.is_some() {
            let mut window = vec![0u8; self.size.min(COPY_WINDOW) as usize];
            let mut at = 0;
            while at < self.size {
                let n = window.len().min((self.size - at) as usize);
                ioapi::RandomAccess::read_exact_at(self, at, &mut window[..n])?;
                sink.write_all(&window[..n])?;
                at += n as u64;
            }
            return Ok(self.size);
        }
        let mut written = 0;
        let copied = match &self.opened {
            Opened::Direct(raw, _) => raw.copy_into(&mut written, sink),
            Opened::Failover(core) => core.with_file(|f| f.copy_into(&mut written, sink)),
        };
        self.io.record_read(written, 1);
        copied?.map(|()| written)
    }
}

impl RawFile {
    /// Open (HEAD) `uri`: the resource at its final (post-redirect) URI with
    /// the size learned there, plus its ETag.
    pub(crate) fn open(inner: Arc<ClientInner>, uri: Uri) -> Result<(RawFile, Option<String>)> {
        let resp = inner.executor.execute_expect(&PreparedRequest::head(uri), "stat")?;
        let (size, etag, uri) = match resp.head.headers.content_length()? {
            Some(size) => (size, resp.head.headers.get("etag").map(str::to_string), resp.final_uri),
            // HEAD without Content-Length: probe with a 1-byte ranged GET
            // instead of failing the open.
            None => probe_size(&inner, &resp.final_uri)?,
        };
        Ok((RawFile { inner, uri, size }, etag))
    }

    /// The one single-range GET: fill `buf` from `offset`, returning how
    /// many bytes the entity had there — `buf.len()` unless it ends early
    /// (a `416`, or a `200` full entity shorter than the window's end).
    fn get_range(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let ex = &self.inner.executor;
        let range = format_range_header(&[(offset, buf.len())]);
        let req = PreparedRequest::get(self.uri.clone()).header("Range", range);
        ex.with_retries(&req, None, |mut resp| match resp.status() {
            StatusCode::PARTIAL_CONTENT => {
                validated_content_range(resp.head(), offset, buf.len(), "pread")?;
                read_exact_stream(&mut resp, buf, "pread")?;
                Ok(buf.len())
            }
            StatusCode::OK => {
                // Server ignored Range (200 + full entity): skip to the
                // offset and read only the window — a bounded read, the
                // rest of the entity is never pulled into memory (and N
                // parallel fragments do not each pull the whole file).
                Metrics::bump(&ex.metrics().range_downgrades);
                if skip_stream(&mut resp, offset)? < offset {
                    Ok(0) // entity shorter than our stat said: EOF
                } else {
                    read_some(&mut resp, buf)
                }
            }
            StatusCode::RANGE_NOT_SATISFIABLE => {
                resp.finish(); // tiny error body; keep the session if we can
                Ok(0)
            }
            status => Err(DavixError::from_status(status, format!("pread {}", self.uri))),
        })
    }

    /// The one whole-entity GET, streamed into `sink` past the `*written`
    /// bytes it already holds (a retry here, or another replica before,
    /// wrote them). An answer whose length is not the size learned at open
    /// is refused.
    fn copy_into(&self, written: &mut u64, sink: &mut dyn Write) -> Result<std::io::Result<()>> {
        let req = PreparedRequest::get(self.uri.clone());
        self.inner.executor.with_retries(&req, None, |stream| {
            let mut stream = stream.expect_success("get")?;
            if stream.head().headers.content_length()?.is_some_and(|len| len != self.size) {
                return Err(DavixError::Protocol(format!(
                    "{}: size changed since the open",
                    self.uri
                )));
            }
            copy_body(&mut stream, written, sink, &self.uri.to_string())
        })
    }

    fn multirange_rejected(e: &DavixError) -> bool {
        matches!(
            e,
            DavixError::Http { status, .. }
                if *status == StatusCode::BAD_REQUEST
                    || *status == StatusCode::NOT_IMPLEMENTED
        )
    }

    /// One multi-range GET for `wire` (the coalesced `fragments`); decode
    /// whichever shape the server chose, incrementally off the wire.
    fn fetch_multirange(
        &self,
        wire: &[(u64, usize)],
        fragments: &[(u64, usize)],
    ) -> Result<Vec<Vec<u8>>> {
        let ex = &self.inner.executor;
        let req = PreparedRequest::get(self.uri.clone()).header("Range", format_range_header(wire));
        ex.with_retries(&req, None, |resp| {
            Metrics::bump(&ex.metrics().vectored_requests);
            // A fresh result per attempt: a retry starts from nothing.
            let mut out = Scatter::new(fragments);
            self.decode_multirange(resp, wire, &mut out)?;
            out.finish()
        })
    }

    /// `wire` is what [`coalesce_fragments`] made of the fragments in `out`:
    /// ascending and disjoint.
    ///
    /// A multipart answer is decoded where it lies: the [`MultipartReader`]
    /// reads straight from the stream's own buffer (the session's 32 KiB,
    /// the one the socket fills), and each part goes from there into every
    /// fragment it holds — one copy per byte, no buffer of the decoder's or
    /// per part.
    fn decode_multirange(
        &self,
        mut resp: ResponseStream<'_>,
        wire: &[(u64, usize)],
        out: &mut Scatter<'_>,
    ) -> Result<()> {
        // Everything we asked for lives inside this span; anything a part
        // claims outside it is a lie (and a lying length must not drive an
        // allocation either — hence the part limit).
        let span_first = wire.first().map_or(0, |&(o, _)| o);
        let span_end = wire.last().map_or(0, |&(o, l)| o + l as u64);
        match resp.status() {
            StatusCode::PARTIAL_CONTENT => {
                let ct = resp.head().headers.get("content-type").unwrap_or("");
                if let Some(boundary) = boundary_from_content_type(ct) {
                    // Decode parts as they arrive, whatever their shape: one
                    // of the fragments, several (the server coalesced
                    // ranges), or part of an overlap.
                    {
                        let mut parts = MultipartReader::new(&mut resp, &boundary)
                            .with_part_limit(span_end - span_first);
                        while let Some(range) = parts.next_range().map_err(DavixError::from)? {
                            // A part claiming bytes outside the requested
                            // span, or touching none of the requested
                            // windows, would plant wrong bytes at offsets the
                            // caller trusts. (Parts *within* the span are
                            // allowed to straddle windows: servers may
                            // coalesce ranges across small gaps.)
                            let in_span = range.first >= span_first && range.last < span_end;
                            // The first window that ends past the part's
                            // first byte is the only one that can hold it.
                            let next = wire.partition_point(|&(o, l)| o + l as u64 <= range.first);
                            let touches_a_window =
                                wire.get(next).is_some_and(|&(o, _)| o <= range.last);
                            if !in_span || !touches_a_window {
                                return Err(DavixError::Protocol(format!(
                                    "{}: multipart part Content-Range {range} outside the \
                                     requested ranges",
                                    self.uri
                                )));
                            }
                            out.fill_with(range.first, range.len() as usize, |put| {
                                parts.payload_pieces(put)
                            })?;
                        }
                    }
                    resp.finish(); // consume any epilogue → session reusable
                    Ok(())
                } else {
                    // Single range back: the server merged everything. Check
                    // it actually covers every range we asked for before
                    // trusting a byte of it (`off + len - 1` compared against
                    // the inclusive `cr.last` — no overflowable sums of
                    // server-controlled values).
                    let cr = parse_content_range(resp.head(), "readv")?;
                    for &(off, len) in wire {
                        if off < cr.first || off + len as u64 - 1 > cr.last {
                            return Err(DavixError::Protocol(format!(
                                "{}: merged Content-Range {cr} does not cover requested \
                                 range {off}+{len}",
                                self.uri
                            )));
                        }
                    }
                    // Allocate only the span we asked for, never the span the
                    // server *claims* — a lying Content-Range must not be able
                    // to force a huge allocation. Anything past the last
                    // requested byte stays unread.
                    let mut data = vec![0u8; (span_end.max(cr.first) - cr.first) as usize];
                    read_exact_stream(&mut resp, &mut data, "readv")?;
                    out.fill(cr.first, &data);
                    Ok(())
                }
            }
            StatusCode::OK => {
                // Server ignored Range entirely: stream the entity once,
                // keeping only the requested windows (the tail past the last
                // window is never read).
                Metrics::bump(&self.inner.executor.metrics().range_downgrades);
                read_windows(&mut resp, wire, out)
            }
            status => Err(DavixError::from_status(status, format!("readv {}", self.uri))),
        }
    }

    /// Fallback: one single-range GET per wire range, in parallel on the
    /// client's I/O pool (bounded by [`FALLBACK_PARALLELISM`]).
    fn fetch_parallel_single(
        &self,
        wire: &[(u64, usize)],
        fragments: &[(u64, usize)],
    ) -> Result<Vec<Vec<u8>>> {
        let file = self.clone();
        let results = map_ordered(
            &self.inner.io_pool,
            wire.to_vec(),
            FALLBACK_PARALLELISM,
            move |(off, len): (u64, usize)| -> Result<(u64, Vec<u8>)> {
                let mut data = vec![0u8; len];
                // Every range was checked against the size we were told,
                // so a short answer here contradicts the server.
                if file.get_range(off, &mut data)? < len {
                    return Err(DavixError::Protocol(format!(
                        "{}: entity ended inside requested range {off}+{len}",
                        file.uri
                    )));
                }
                Ok((off, data))
            },
        );
        let mut out = Scatter::new(fragments);
        for result in results {
            let (off, data) = result?;
            out.fill(off, &data);
        }
        out.finish()
    }
}

/// The wire as a [`DavFile`]'s upstream: plain raw reads — scalar for one
/// block run, one multi-range request for scattered runs (§2.3, so a cold
/// vectored read through the cache still costs a single round trip).
impl BlockFetch for RawFile {
    fn name(&self) -> String {
        self.uri.to_string()
    }

    /// Positional read of up to `buf.len()` bytes at `offset`; 0 at EOF.
    ///
    /// A `206` whose `Content-Range` does not match the requested window is
    /// rejected as [`DavixError::Protocol`] rather than trusted: a
    /// misbehaving server must fail loudly, not yield wrong bytes at the
    /// right offsets.
    fn pread(&self, offset: u64, buf: &mut [u8]) -> Result<usize> {
        if buf.is_empty() || offset >= self.size {
            return Ok(0);
        }
        let want = buf.len().min((self.size - offset) as usize);
        self.get_range(offset, &mut buf[..want])
    }

    /// Vectored positional read (§2.3): fetch every `(offset, len)` fragment
    /// — non-empty, inside the entity: the [`DavFile`] in front has checked.
    /// Fragment order is preserved in the result; fragments may overlap.
    fn pread_vec(&self, fragments: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        // Merge close fragments into wire ranges: fewer parts, same data.
        let wire = coalesce_fragments(fragments, VECTOR_MERGE_GAP);
        let wire: Vec<(u64, usize)> = wire.into_iter().map(|(o, l)| (o, l as usize)).collect();

        match self.inner.cfg.range_policy {
            RangePolicy::MultiRange => match self.fetch_multirange(&wire, fragments) {
                Err(e) if RawFile::multirange_rejected(&e) => {
                    Metrics::bump(&self.inner.executor.metrics().vector_fallbacks);
                    self.fetch_parallel_single(&wire, fragments)
                }
                result => result,
            },
            RangePolicy::SingleRanges => self.fetch_parallel_single(&wire, fragments),
        }
    }
}

impl DavFile {
    /// Sequential read from the cursor position.
    ///
    /// The cursor lock is never held across the network read: the window
    /// `[pos, min(pos + buf.len(), size))` is claimed under it (the size is
    /// known since open) and read after releasing it. Concurrent `read`
    /// callers sharing one handle therefore get disjoint, consecutive
    /// windows in the order they claimed them, each returned slice being
    /// the bytes at its own window. A read that fails or comes back short
    /// gives the unread tail of its window back, unless another caller has
    /// moved the cursor since.
    pub fn read(&self, buf: &mut [u8]) -> Result<usize> {
        let (start, want) = {
            let mut pos = self.pos.lock();
            let start = *pos;
            let want = (buf.len() as u64).min(self.size.saturating_sub(start));
            *pos = start + want;
            (start, want as usize)
        };
        let result = self.pread(start, &mut buf[..want]);
        let got = *result.as_ref().unwrap_or(&0);
        if got < want {
            let mut pos = self.pos.lock();
            if *pos == start + want as u64 {
                *pos = start + got as u64;
            }
        }
        result
    }

    /// Current cursor position.
    pub fn tell(&self) -> u64 {
        *self.pos.lock()
    }

    /// Move the cursor.
    pub fn seek(&self, pos: u64) {
        *self.pos.lock() = pos;
    }

    /// Vectored positional read (§2.3): fetch every `(offset, len)` fragment.
    /// Fragment order is preserved in the result; fragments may overlap. A
    /// list with no byte to fetch — empty, or of empty fragments only — is
    /// answered without touching cache, wire or counters; a fragment
    /// reaching past the entity is an error, never a silent truncation.
    ///
    /// With the block cache enabled, fragments are assembled from cached
    /// blocks; whatever is missing is fetched in **one** multi-range
    /// request (block-aligned), so the round-trip profile matches the
    /// uncached path while repeats become free. A fail-over file whose
    /// Metalink is resolved splits the batch across the two fastest healthy
    /// replicas and fetches it in parallel, failing a batch over on its own
    /// if its replica dies mid-flight.
    pub fn pread_vec(&self, fragments: &[(u64, usize)]) -> Result<Vec<Vec<u8>>> {
        let size = self.size;
        if let Some((off, len)) = fragments.iter().find(|f| f.0.saturating_add(f.1 as u64) > size) {
            return Err(DavixError::InvalidArgument(format!(
                "fragment {off}+{len} beyond entity size {size}"
            )));
        }
        if fragments.iter().all(|&(_, len)| len == 0) {
            // Nothing to fetch, an empty list included: a `Range` header of
            // no range (`bytes=`) is malformed.
            return Ok(vec![Vec::new(); fragments.len()]);
        }
        let (out, round_trips) = match &self.cache {
            Some(cache) => cache.read_vec(fragments)?,
            None => (self.opened.upstream().pread_vec(fragments)?, 1),
        };
        let bytes: u64 = out.iter().map(|v| v.len() as u64).sum();
        self.io.record_vector_read(bytes, round_trips);
        Ok(out)
    }

    /// I/O counter snapshot for this file.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.snapshot()
    }
}

impl ioapi::RandomAccess for DavFile {
    fn size(&self) -> std::io::Result<u64> {
        Ok(self.size)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
        self.pread(offset, buf).map_err(std::io::Error::from)
    }

    fn read_vec(&self, fragments: &[(u64, usize)]) -> std::io::Result<Vec<Vec<u8>>> {
        self.pread_vec(fragments).map_err(std::io::Error::from)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.io.snapshot()
    }
}

/// The result of one vectored read while it is assembled: a buffer per
/// fragment, reserved up front from what the *caller* asked for and filled
/// front to back, with no zeroing first, as stretches of the entity arrive
/// in whatever shape the server chose.
struct Scatter<'a> {
    fragments: &'a [(u64, usize)],
    /// Fragment indices ordered by offset, so the fragments inside a
    /// stretch are found by binary search: a 500-part answer to a
    /// 500-fragment read is 500 look-ups, not 250 000 comparisons.
    by_offset: Vec<usize>,
    bufs: Vec<Vec<u8>>,
    filled: Vec<bool>,
}

impl<'a> Scatter<'a> {
    fn new(fragments: &'a [(u64, usize)]) -> Scatter<'a> {
        // A stable sort: one pass over fragments already in offset order.
        let mut by_offset: Vec<usize> = (0..fragments.len()).collect();
        by_offset.sort_by_key(|&i| fragments[i].0);
        Scatter {
            fragments,
            by_offset,
            bufs: fragments.iter().map(|&(_, len)| Vec::with_capacity(len)).collect(),
            // An empty fragment needs no byte of the response.
            filled: fragments.iter().map(|&(_, len)| len == 0).collect(),
        }
    }

    /// `data` is the entity from `first` on: copy it into every fragment it
    /// wholly contains.
    fn fill(&mut self, first: u64, data: &[u8]) {
        let Ok(()) = self.fill_with(first, data.len(), |put| {
            put(data);
            Ok::<_, std::convert::Infallible>(())
        });
    }

    /// The `len` bytes of the entity from `first` on, as `pieces` hands
    /// them to the function it is given, in order and in pieces of any
    /// size: each piece is copied into every fragment the whole stretch
    /// contains, straight from where the piece lies. The first stretch to
    /// cover a fragment wins.
    fn fill_with<E>(
        &mut self,
        first: u64,
        len: usize,
        pieces: impl FnOnce(&mut dyn FnMut(&[u8])) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let end = first + len as u64;
        let Scatter { fragments, by_offset, bufs, filled } = self;
        let start = by_offset.partition_point(|&i| fragments[i].0 < first);
        // Fragments before `lo` (in offset order) need nothing more of the
        // stretch; `at` is where the next piece starts.
        let (mut lo, mut at) = (start, first);
        pieces(&mut |piece: &[u8]| {
            let piece_end = at + piece.len() as u64;
            let (mut settled, from_lo) = (true, lo);
            for (k, &i) in by_offset.iter().enumerate().skip(from_lo) {
                let (off, flen) = fragments[i];
                if off >= piece_end {
                    break;
                }
                let frag_end = off + flen as u64;
                if frag_end <= end && !filled[i] {
                    // The stretch starts at or before the fragment and comes
                    // in order: this is where the fragment's bytes so far end.
                    let (from, to) = (off.max(at), frag_end.min(piece_end));
                    if from < to {
                        bufs[i].extend_from_slice(&piece[(from - at) as usize..(to - at) as usize]);
                    }
                    filled[i] = frag_end <= piece_end;
                }
                settled &= filled[i] || frag_end > end;
                if settled {
                    lo = k + 1;
                }
            }
            at = piece_end;
        })
    }

    /// The fragments in request order, or a protocol error when the
    /// response left one of them uncovered.
    fn finish(self) -> Result<Vec<Vec<u8>>> {
        match self.filled.iter().position(|&f| !f) {
            None => Ok(self.bufs),
            Some(i) => {
                let (off, len) = self.fragments[i];
                Err(DavixError::Protocol(format!(
                    "server response does not cover fragment {off}+{len}"
                )))
            }
        }
    }
}

/// Parse a `Content-Range` header off a `206` head, or fail as a protocol
/// error (a 206 without one is unframable).
fn parse_content_range(head: &ResponseHead, what: &str) -> Result<ContentRange> {
    head.headers
        .get("content-range")
        .ok_or_else(|| DavixError::Protocol(format!("{what}: 206 without Content-Range")))
        .and_then(|v| ContentRange::parse(v).map_err(DavixError::from))
}

/// Parse **and validate** a single-range `206`'s `Content-Range` against the
/// exact window that was requested. A shifted or resized range means the
/// server would hand us wrong bytes at the right offsets — reject it.
fn validated_content_range(
    head: &ResponseHead,
    offset: u64,
    len: usize,
    what: &str,
) -> Result<ContentRange> {
    let cr = parse_content_range(head, what)?;
    if cr.first != offset || cr.len() != len as u64 {
        return Err(DavixError::Protocol(format!(
            "{what}: server answered Content-Range {cr} to a request for bytes {offset}-{}",
            offset + len as u64 - 1
        )));
    }
    Ok(cr)
}

/// Read until `buf` is full or the body ends; returns bytes read.
fn read_some(r: &mut ResponseStream<'_>, buf: &mut [u8]) -> Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match r.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(m) => n += m,
            Err(e) => return Err(body_read_error(e)),
        }
    }
    Ok(n)
}

/// Read exactly `buf.len()` bytes; a body that ends early is a protocol
/// fault (it contradicts the server's own framing/Content-Range).
fn read_exact_stream(r: &mut ResponseStream<'_>, buf: &mut [u8], what: &str) -> Result<()> {
    let n = read_some(r, buf)?;
    if n < buf.len() {
        return Err(DavixError::Protocol(format!(
            "{what}: body ended after {n} of {} declared bytes",
            buf.len()
        )));
    }
    Ok(())
}

/// Discard up to `count` body bytes; returns how many were actually skipped
/// (fewer only if the body ended first).
pub(crate) fn skip_stream(r: &mut ResponseStream<'_>, count: u64) -> Result<u64> {
    let mut scratch = [0u8; 8192];
    let mut skipped = 0u64;
    while skipped < count {
        let want = scratch.len().min((count - skipped) as usize);
        match r.read(&mut scratch[..want]) {
            Ok(0) => break,
            Ok(n) => skipped += n as u64,
            Err(e) => return Err(body_read_error(e)),
        }
    }
    Ok(skipped)
}

/// Copy the rest of `stream`'s body into `sink` past the `*written` bytes
/// of it that `sink` already holds (an earlier attempt wrote them), adding
/// each write to `*written`. A body too short to skip them is `what`
/// changed between attempts. An error from `sink` comes back inside the
/// `Ok`, so nothing retries it.
pub(crate) fn copy_body(
    stream: &mut ResponseStream<'_>,
    written: &mut u64,
    sink: &mut dyn Write,
    what: &str,
) -> Result<std::io::Result<()>> {
    if skip_stream(stream, *written)? < *written {
        return Err(DavixError::Protocol(format!("{what} changed between attempts")));
    }
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf).map_err(body_read_error)? {
            0 => return Ok(Ok(())),
            n => match sink.write_all(&buf[..n]) {
                Ok(()) => *written += n as u64,
                Err(e) => return Ok(Err(e)),
            },
        }
    }
}

/// Pull only the requested windows out of a full-entity (`200`) body,
/// reading the stream once, in offset order. `wire` must be ascending and
/// disjoint (it is: [`coalesce_fragments`] sorts and merges overlaps); the
/// tail past the last window is left unread.
fn read_windows(
    resp: &mut ResponseStream<'_>,
    wire: &[(u64, usize)],
    out: &mut Scatter<'_>,
) -> Result<()> {
    let mut data = Vec::new();
    let mut pos = 0u64;
    for &(off, len) in wire {
        let gap = off.saturating_sub(pos);
        if skip_stream(resp, gap)? < gap {
            return Err(DavixError::Protocol(format!(
                "entity ended before requested range {off}+{len}"
            )));
        }
        data.resize(len, 0);
        read_exact_stream(resp, &mut data, "readv")?;
        pos = off + len as u64;
        out.fill(off, &data);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::{Config, DavixClient};
    use bytes::Bytes;
    use httpd::ServerConfig;
    use ioapi::RandomAccess;
    use netsim::{LinkSpec, SimNet};
    use objstore::{ObjectStore, RangeSupport, StorageNode, StorageOptions};
    use std::sync::Arc;
    use std::time::Duration;

    fn body(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    /// Stretches handed over in pieces of any size, in any order, fill
    /// exactly the fragments they wholly hold — overlapping, repeated and
    /// unsorted ones included — and a fragment no stretch wholly holds is
    /// the error it always was.
    #[test]
    fn stretches_fill_the_fragments_they_hold_however_their_pieces_fall() {
        let entity = body(10_000);
        let fragments: [(u64, usize); 7] = [
            (5_000, 100),
            (0, 50),
            (5_050, 100),
            (4_990, 20),
            (7_000, 10),
            (7_000, 10),
            (9_000, 0),
        ];
        // The last stretch covers part of the first fragment again: the
        // first stretch to hold a fragment wins.
        let stretches = [(4_900, 400), (0, 60), (6_990, 30), (5_000, 60)];
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            for piece in [1, 3, 7, 64, 1_000] {
                let mut out = super::Scatter::new(&fragments);
                for &(first, len) in order.iter().map(|&k| &stretches[k]) {
                    let data = &entity[first..first + len];
                    let Ok(()) = out.fill_with(first as u64, len, |put| {
                        data.chunks(piece).for_each(put);
                        Ok::<_, std::convert::Infallible>(())
                    });
                }
                let got = out.finish().unwrap();
                for (g, &(off, len)) in got.iter().zip(&fragments) {
                    let want = &entity[off as usize..off as usize + len];
                    assert_eq!(g[..], *want, "{order:?} in {piece}s: {off}+{len}");
                }
            }
        }
        let mut out = super::Scatter::new(&fragments);
        out.fill(4_900, &entity[4_900..5_100]);
        assert!(out.finish().is_err(), "5 050+100 is only partly there");
    }

    fn setup(range: RangeSupport, cfg: Config) -> (SimNet, DavixClient, Vec<u8>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(2), ..Default::default() });
        let data = body(100_000);
        let store = Arc::new(ObjectStore::new());
        store.put("/data/f", Bytes::from(data.clone()));
        StorageNode::start(
            store,
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions { range_support: range, ..Default::default() },
            ServerConfig::default(),
        );
        let client = DavixClient::new(net.connector("c"), net.runtime(), cfg);
        (net, client, data)
    }

    #[test]
    fn open_reports_size_and_missing_file_errors() {
        let (net, client, _) = setup(RangeSupport::MultiRange, Config::default());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        assert_eq!(f.size_hint(), 100_000);
        assert!(client.open("http://s/nope").is_err());
    }

    #[test]
    fn pread_returns_exact_slice() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let mut buf = vec![0u8; 1000];
        let n = f.pread(5000, &mut buf).unwrap();
        assert_eq!(n, 1000);
        assert_eq!(&buf, &data[5000..6000]);
    }

    #[test]
    fn pread_clamps_at_eof() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let mut buf = vec![0u8; 1000];
        let n = f.pread(99_500, &mut buf).unwrap();
        assert_eq!(n, 500);
        assert_eq!(&buf[..500], &data[99_500..]);
        assert_eq!(f.pread(100_000, &mut buf).unwrap(), 0);
        assert_eq!(f.pread(200_000, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sequential_read_advances_cursor() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let mut buf = vec![0u8; 300];
        f.read(&mut buf).unwrap();
        assert_eq!(&buf, &data[..300]);
        f.read(&mut buf).unwrap();
        assert_eq!(&buf, &data[300..600]);
        assert_eq!(f.tell(), 600);
        f.seek(0);
        assert_eq!(f.tell(), 0);
    }

    #[test]
    fn pread_vec_multirange_uses_one_request() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default().no_retry());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let before = client.metrics().requests;
        let frags: Vec<(u64, usize)> = (0..64).map(|i| (i * 1500, 100)).collect();
        let got = f.pread_vec(&frags).unwrap();
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
        let after = client.metrics().requests;
        assert_eq!(after - before, 1, "64 fragments → one multi-range request");
    }

    #[test]
    fn pread_vec_handles_server_without_multirange() {
        // SingleRange server answers multi-range requests with 200 + full
        // body; davix must slice correctly.
        let (net, client, data) = setup(RangeSupport::SingleRange, Config::default().no_retry());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let frags = [(10u64, 10usize), (50_000, 20), (99_990, 10)];
        let got = f.pread_vec(&frags).unwrap();
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn pread_vec_single_ranges_policy_fans_out() {
        let (net, client, data) =
            setup(RangeSupport::MultiRange, Config::default().no_retry().single_ranges());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let before = client.metrics().requests;
        let frags: Vec<(u64, usize)> = (0..16).map(|i| (i * 6000, 50)).collect();
        let got = f.pread_vec(&frags).unwrap();
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
        let after = client.metrics().requests;
        assert_eq!(after - before, 16, "one request per fragment in SingleRanges mode");
    }

    #[test]
    fn pread_vec_merges_close_fragments_on_the_wire() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default().no_retry());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        // Fragments 100 bytes apart with a 512-byte merge gap → single range.
        let frags: Vec<(u64, usize)> = (0..10).map(|i| (i * 200, 100)).collect();
        let got = f.pread_vec(&frags).unwrap();
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn pread_vec_overlapping_and_unsorted_fragments() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default().no_retry());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let frags = [(5000u64, 100usize), (0, 50), (5050, 100), (4990, 20)];
        let got = f.pread_vec(&frags).unwrap();
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn pread_vec_rejects_out_of_bounds() {
        let (net, client, _) = setup(RangeSupport::MultiRange, Config::default());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        assert!(f.pread_vec(&[(99_999, 2)]).is_err());
    }

    #[test]
    fn vectored_read_is_one_round_trip_vs_n() {
        // The heart of Figure 3: time N scalar reads vs one vectored read on
        // a 2 ms (one-way) link.
        let (net, client, _) = setup(RangeSupport::MultiRange, Config::default().no_retry());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let frags: Vec<(u64, usize)> = (0..32).map(|i| (i * 3000, 64)).collect();

        let t0 = net.now();
        for &(off, len) in &frags {
            let mut buf = vec![0u8; len];
            f.pread(off, &mut buf).unwrap();
        }
        let scalar_time = net.now() - t0;

        let t1 = net.now();
        f.pread_vec(&frags).unwrap();
        let vec_time = net.now() - t1;

        assert!(
            scalar_time >= vec_time * 16,
            "scalar {scalar_time:?} should dwarf vectored {vec_time:?}"
        );
    }

    #[test]
    fn randomaccess_trait_is_implemented() {
        let (net, client, data) = setup(RangeSupport::MultiRange, Config::default());
        let _g = net.enter();
        let f = client.open("http://s/data/f").unwrap();
        let ra: &dyn RandomAccess = &f;
        assert_eq!(ra.size().unwrap(), 100_000);
        let mut buf = vec![0u8; 10];
        ra.read_exact_at(100, &mut buf).unwrap();
        assert_eq!(&buf, &data[100..110]);
        let v = ra.read_vec(&[(0, 5), (10, 5)]).unwrap();
        assert_eq!(v[0], &data[0..5]);
        assert_eq!(v[1], &data[10..15]);
        assert!(ra.stats().reads >= 1);
        assert!(ra.stats().vector_reads >= 1);
    }
}
