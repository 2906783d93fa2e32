//! The DPM-like HTTP request handler over an [`ObjectStore`].
//!
//! Besides the read surface (GET/HEAD with single- and multi-range
//! support, PROPFIND, Metalink negotiation) the handler speaks both
//! server-side halves of davix's parallel upload path:
//!
//! * **S3-style multipart**: `POST {path}?uploads` initiates an upload and
//!   returns an `UploadId`; `PUT {path}?uploadId=I&partNumber=N` stores one
//!   part; `POST {path}?uploadId=I` assembles the listed parts in order —
//!   verifying a client-supplied `Digest: adler32=…` before committing
//!   (mismatch → `409` and **no** object) — and `DELETE {path}?uploadId=I`
//!   aborts. Nothing is visible at `{path}` until the complete succeeds.
//!   A plain `PUT {path}` verifies its `Digest` the same way.
//! * **Segmented ranged PUT** (the WebDAV-flavoured fallback): `PUT` with a
//!   `Content-Range: bytes a-b/total` header stages one segment of a
//!   pending entity; once the segments cover `total` the object
//!   materializes atomically. A segment that repeats a staged segment's
//!   range replaces it (a retry); one that partly overlaps a staged
//!   segment, or declares another total, is a `409`. Clients upload
//!   segments to a temporary name and `MOVE` it over the final one, so
//!   readers never observe a partial object.
//!
//! Both dialects stage a pending upload the same way: each request body is
//! held as it arrived, with the digests the server took as it arrived. An
//! upload holds at most 10 000 pieces, and a segmented upload's declared
//! total is at most 1 GiB (nothing is allocated by it). The node bounds all
//! its pending uploads together: 1 024 of them, holding 1 GiB between them.
//! A piece that cannot fit an upload's own bounds is a `400`; an initiate,
//! part or segment past the node's is a `503` with `Retry-After: 1`, since
//! it fits once other uploads end, and stages nothing. The commit copies the
//! pieces into the entity once and folds their digests, so no uploaded byte
//! is read again.

use crate::store::ObjectStore;
use bytes::Bytes;
use davix_sync::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use httpd::{Request, Response};
use httpwire::multipart::{MultipartWriter, MULTIPART_BYTERANGES};
use httpwire::range::resolve_range_header;
use httpwire::uri::percent_encode_path;
use httpwire::{ContentRange, HeaderMap, Method, StatusCode};
use ioapi::checksum::{crc32_adler32, to_hex, Digests};
use metalink::xml::Element;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// How faithfully this node implements HTTP ranges — used to exercise the
/// client's degradation ladder (§2.3 talks about servers *with* multi-range;
/// plenty of real ones lack it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeSupport {
    /// Full multi-range via `multipart/byteranges` (DPM behaviour).
    MultiRange,
    /// Single ranges only; multi-range requests get the whole entity (200).
    SingleRange,
    /// `Range` ignored entirely; always 200 with the full entity.
    None,
}

/// Produces a Metalink document (XML text) for a path, if one is known.
/// Wired up by the federation layer or by tests.
pub type MetalinkSource = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// Handler configuration.
#[derive(Clone)]
pub struct StorageOptions {
    /// Range fidelity (see [`RangeSupport`]).
    pub range_support: RangeSupport,
    /// Metalink provider for `?metalink` / Accept negotiation.
    pub metalink: Option<MetalinkSource>,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions { range_support: RangeSupport::MultiRange, metalink: None }
    }
}

impl std::fmt::Debug for StorageOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageOptions")
            .field("range_support", &self.range_support)
            .field("metalink", &self.metalink.is_some())
            .finish()
    }
}

/// Multi-range requests with more ranges than this are refused (400).
const MAX_RANGES: usize = 4096;

/// The node's staging budget, shared by its pending uploads of both
/// dialects: at most this many resident bytes between them (and, for a
/// segmented upload, this declared total), so a lying client cannot make
/// one request, nor one upload after another, allocate the node away.
const MAX_PENDING_ENTITY: u64 = 1 << 30;

/// The most uploads of both dialects a node holds pending at once.
const MAX_PENDING_UPLOADS: usize = 1_024;

/// The staging budget's cap on the pieces one pending upload holds.
const MAX_PIECES: usize = 10_000;

/// The answer to a request the node's staging budget has no room for yet.
fn busy() -> Response {
    Response::error(StatusCode::SERVICE_UNAVAILABLE).header("Retry-After", "1")
}

/// A piece of a pending upload: a request body as it arrived, and the
/// `(crc32, adler32)` taken as it arrived.
type Piece = (Bytes, (u32, u32));

/// One upload in flight, of either dialect: the pieces that have arrived,
/// in order. A multipart upload keys them by part number; a segmented one
/// keys them by offset and knows its declared total.
struct Pending {
    path: String,
    /// The declared total of a segmented upload (0 for multipart).
    total: u64,
    pieces: BTreeMap<u64, Piece>,
    /// Bytes the pieces hold.
    resident: u64,
}

impl Pending {
    fn new(path: &str, total: u64) -> Pending {
        Pending { path: path.to_string(), total, pieces: BTreeMap::new(), resident: 0 }
    }

    /// Hold `piece` under `key`, replacing the piece held there, if the
    /// upload stays within its own bounds (else `400`) and the node within
    /// its budget, `others` being the bytes its other uploads hold (else
    /// [`busy`]); otherwise hold nothing.
    fn stage(&mut self, key: u64, piece: Piece, others: u64) -> Result<(), Response> {
        let replaced = self.pieces.get(&key).map(|(b, _)| b.len() as u64);
        let resident = self.resident - replaced.unwrap_or(0) + piece.0.len() as u64;
        if resident > MAX_PENDING_ENTITY || (replaced.is_none() && self.pieces.len() >= MAX_PIECES)
        {
            return Err(Response::error(StatusCode::BAD_REQUEST)); // EntityTooLarge
        }
        if others + resident > MAX_PENDING_ENTITY {
            return Err(busy());
        }
        self.pieces.insert(key, piece);
        self.resident = resident;
        Ok(())
    }
}

/// Every pending upload of a node, of both dialects.
#[derive(Default)]
struct Staging {
    /// Multipart uploads by id.
    multipart: HashMap<u64, Pending>,
    /// Segmented uploads by path.
    segments: HashMap<String, Pending>,
}

impl Staging {
    fn pending(&self) -> impl Iterator<Item = &Pending> {
        self.multipart.values().chain(self.segments.values())
    }

    /// Bytes the pending uploads hold between them.
    fn resident(&self) -> u64 {
        self.pending().map(|p| p.resident).sum()
    }

    /// Whether the node holds as many pending uploads as it may.
    fn full(&self) -> bool {
        self.multipart.len() + self.segments.len() >= MAX_PENDING_UPLOADS
    }
}

/// The entity `len` bytes long that `pieces` make in order, copied once,
/// and its digests: the pieces' arrival digests folded in the same order.
/// Each piece is dropped once it is copied.
fn assemble(pieces: impl IntoIterator<Item = Piece>, len: u64) -> (Bytes, (u32, u32)) {
    let mut entity = Vec::with_capacity(len as usize);
    let mut digests = Digests::new();
    for (bytes, digest) in pieces {
        entity.extend_from_slice(&bytes);
        digests.append(digest, bytes.len() as u64);
    }
    (Bytes::from(entity), digests.finish())
}

/// Snapshot of a node's in-flight upload staging state, for harnesses that
/// check the all-or-nothing commit invariant (committed uploads leave no
/// staging debris; aborted uploads leave no visible object).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagingStats {
    /// S3-style multipart uploads in flight.
    pub multipart_uploads: usize,
    /// Segmented (ranged-PUT) uploads in flight.
    pub segment_uploads: usize,
    /// Bytes currently buffered across all staging state.
    pub staged_bytes: u64,
    /// Destination paths with staging state attached (sorted).
    pub paths: Vec<String>,
}

/// The handler. Also carries the node's fault-injection switches.
pub struct StorageHandler {
    store: Arc<ObjectStore>,
    opts: StorageOptions,
    unavailable: AtomicBool,
    fail_next: AtomicU32,
    boundary_counter: AtomicU64,
    upload_counter: AtomicU64,
    staging: Mutex<Staging>,
    /// Body bytes this handler has read a second time to digest them: those
    /// of a request that came through plain [`handle`](httpd::Handler::handle)
    /// rather than with the digests the server took as the body arrived.
    /// An upload of any dialect through a running server adds nothing.
    cold_digested: AtomicU64,
}

impl StorageHandler {
    /// Wrap a store.
    pub fn new(store: Arc<ObjectStore>, opts: StorageOptions) -> Self {
        StorageHandler {
            store,
            opts,
            unavailable: AtomicBool::new(false),
            fail_next: AtomicU32::new(0),
            boundary_counter: AtomicU64::new(0),
            upload_counter: AtomicU64::new(0),
            staging: Mutex::new(Staging::default()),
            cold_digested: AtomicU64::new(0),
        }
    }

    /// `(crc32, adler32)` of `data`, read once more here, and counted.
    fn digest_cold(&self, data: &[u8]) -> (u32, u32) {
        self.cold_digested.fetch_add(data.len() as u64, Ordering::Relaxed);
        crc32_adler32(data)
    }

    /// Toggle 503-for-everything mode (node "offline" at the HTTP level).
    pub fn set_unavailable(&self, v: bool) {
        self.unavailable.store(v, Ordering::SeqCst);
    }

    /// Fail the next `n` requests with 500.
    pub fn fail_next(&self, n: u32) {
        self.fail_next.store(n, Ordering::SeqCst);
    }

    /// Snapshot of the in-flight upload staging state.
    pub fn staging_stats(&self) -> StagingStats {
        let staging = self.staging.lock();
        let mut stats = StagingStats {
            multipart_uploads: staging.multipart.len(),
            segment_uploads: staging.segments.len(),
            ..StagingStats::default()
        };
        for pending in staging.pending() {
            stats.staged_bytes += pending.resident;
            stats.paths.push(pending.path.clone());
        }
        stats.paths.sort_unstable();
        stats
    }

    /// WebDAV MOVE (RFC 4918 §9.9): rename `path` to the `Destination`
    /// header's path. The destination may be an absolute URL or an absolute
    /// path; either names a path of this node's namespace.
    fn do_move(&self, req: &Request, path: &str) -> Response {
        let Some(dest_raw) = req.head.headers.get("destination") else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        // Accept "http://host[:port]/p" or "/p".
        let dest_path = match dest_raw.parse::<httpwire::Uri>() {
            Ok(uri) => httpwire::uri::percent_decode(&uri.path),
            Err(_) if dest_raw.starts_with('/') => httpwire::uri::percent_decode(dest_raw),
            Err(_) => return Response::error(StatusCode::BAD_REQUEST),
        };
        if self.store.is_dir(path) {
            // Collection moves are not needed by davix; refuse explicitly.
            return Response::error(StatusCode::FORBIDDEN);
        }
        match self.store.rename(path, &dest_path) {
            Some(replaced) => {
                // A rename supersedes any pending segmented upload on either
                // name. Without this, a retried final segment (its first
                // response lost in transit after the server had already
                // materialized the entity) re-opens staging state that the
                // commit MOVE would then orphan forever — found by the
                // sim-fuzz all-or-nothing sweep.
                let mut staging = self.staging.lock();
                staging.segments.remove(path);
                staging.segments.remove(&dest_path);
                drop(staging);
                if replaced {
                    Response::empty(StatusCode::NO_CONTENT)
                } else {
                    Response::empty(StatusCode::CREATED)
                }
            }
            None => Response::error(StatusCode::NOT_FOUND),
        }
    }

    /// Whether the request's query string carries `key` (bare or `key=…`).
    fn query_flag(req: &Request, key: &str) -> bool {
        req.head
            .query()
            .unwrap_or("")
            .split('&')
            .any(|kv| kv == key || kv.strip_prefix(key).is_some_and(|r| r.starts_with('=')))
    }

    /// Value of `key=value` in the request's query string.
    fn query_param<'a>(req: &'a Request, key: &str) -> Option<&'a str> {
        req.head
            .query()
            .unwrap_or("")
            .split('&')
            .find_map(|kv| kv.split_once('=').filter(|(k, _)| *k == key).map(|(_, v)| v))
    }

    // ---- parallel upload endpoints ----------------------------------------

    /// `POST {path}?uploads` — start an S3-style multipart upload, if the
    /// node holds fewer pending uploads than it may.
    fn initiate_multipart(&self, path: &str) -> Response {
        let mut staging = self.staging.lock();
        if staging.full() {
            return busy();
        }
        let id = self.upload_counter.fetch_add(1, Ordering::Relaxed) + 1;
        staging.multipart.insert(id, Pending::new(path, 0));
        drop(staging);
        let mut result = Element::new("InitiateMultipartUploadResult");
        let mut key = Element::new("Key");
        key.add_text(path);
        result.add_child(key);
        let mut upload_id = Element::new("UploadId");
        upload_id.add_text(id.to_string());
        result.add_child(upload_id);
        Response::with_body(StatusCode::OK, "application/xml", result.to_xml().into_bytes())
    }

    /// `PUT {path}?uploadId=I&partNumber=N` — stage one part with its
    /// `digests`, `(crc32, adler32)`; the CRC is its ETag. A part past the
    /// staging budget is refused, so abandoned or malicious uploads cannot
    /// grow the node's memory without limit.
    fn put_part(
        &self,
        id: &str,
        part: Option<&str>,
        path: &str,
        body: Vec<u8>,
        digests: (u32, u32),
    ) -> Response {
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let Some(n) = part.and_then(|p| p.parse::<u32>().ok()).filter(|&n| n > 0) else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let mut staging = self.staging.lock();
        let held = staging.resident();
        let Some(pending) = staging.multipart.get_mut(&id) else {
            return Response::error(StatusCode::NOT_FOUND); // NoSuchUpload
        };
        if pending.path != path {
            return Response::error(StatusCode::BAD_REQUEST);
        }
        let others = held - pending.resident;
        if let Err(refused) = pending.stage(n.into(), (Bytes::from(body), digests), others) {
            return refused;
        }
        Response::empty(StatusCode::OK).header("ETag", format!("\"{}\"", to_hex(digests.0)))
    }

    /// `POST {path}?uploadId=I` — assemble the listed parts and commit.
    ///
    /// The entity's digests are the parts' digests folded in part order,
    /// not a read of the assembled bytes. When the request carries
    /// `Digest: adler32=…`, that digest of the *assembled* entity is
    /// verified first; a mismatch answers `409` (with the observed digest
    /// in a `Digest` header) and commits **nothing** — the pending upload
    /// stays aborted-or-retryable.
    fn complete_multipart(&self, req: &Request, path: &str) -> Response {
        let Some(id) = Self::query_param(req, "uploadId").and_then(|v| v.parse::<u64>().ok())
        else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let text = String::from_utf8_lossy(&req.body);
        let Ok(doc) = metalink::xml::parse(&text) else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let listed: Vec<u32> = doc
            .find_all("Part")
            .filter_map(|p| p.find("PartNumber").and_then(|n| n.text().trim().parse().ok()))
            .collect();
        let mut numbers = listed.clone();
        numbers.sort_unstable();
        numbers.dedup();
        if numbers.is_empty() || numbers.len() != listed.len() {
            return Response::error(StatusCode::BAD_REQUEST);
        }
        // Snapshot the listed parts (refcounted `Bytes` clones) and drop
        // the lock before the heavy work: assembling a large entity must
        // not stall every other in-flight upload's part PUTs.
        let parts: Vec<Piece> = {
            let staging = self.staging.lock();
            let Some(pending) = staging.multipart.get(&id) else {
                return Response::error(StatusCode::NOT_FOUND);
            };
            if pending.path != path {
                return Response::error(StatusCode::BAD_REQUEST);
            }
            let mut parts = Vec::with_capacity(numbers.len());
            for n in &numbers {
                let Some(part) = pending.pieces.get(&u64::from(*n)) else {
                    return Response::error(StatusCode::BAD_REQUEST); // InvalidPart
                };
                parts.push(part.clone());
            }
            parts
        };
        let len = parts.iter().map(|(b, _)| b.len() as u64).sum();
        let (entity, digests) = assemble(parts, len);
        let got = to_hex(digests.1);
        if let Some(conflict) = digest_conflict(&req.head.headers, &got) {
            // The pending upload is kept so the client can abort (or
            // re-send parts).
            return conflict;
        }
        self.staging.lock().multipart.remove(&id);
        self.store.put_digested(path, entity, digests);
        let mut result = Element::new("CompleteMultipartUploadResult");
        let mut key = Element::new("Key");
        key.add_text(path);
        result.add_child(key);
        Response::with_body(StatusCode::OK, "application/xml", result.to_xml().into_bytes())
            .header("Digest", format!("adler32={got}"))
    }

    /// `PUT {path}` with `Content-Range: bytes a-b/total` — stage one
    /// segment with its `digests`; commit once the segments held cover
    /// `total`. A segment that repeats a held segment's range replaces it;
    /// one that partly overlaps a held segment, or declares another total,
    /// is a `409`. One that opens an upload opens it only if it is staged.
    fn put_segment(
        &self,
        content_range: &str,
        path: &str,
        body: Vec<u8>,
        digests: (u32, u32),
    ) -> Response {
        let Ok(cr) = ContentRange::parse(content_range) else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let Some(total) = cr.total else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        if total == 0
            || total > MAX_PENDING_ENTITY
            || cr.last >= total
            || cr.len() != body.len() as u64
        {
            return Response::error(StatusCode::BAD_REQUEST);
        }
        let mut staging = self.staging.lock();
        let opens = !staging.segments.contains_key(path);
        if opens && staging.full() {
            return busy();
        }
        let held = staging.resident();
        let pending =
            staging.segments.entry(path.to_string()).or_insert_with(|| Pending::new(path, total));
        // Held segments never overlap, so the last one that starts before
        // this one ends is the only one that can overlap it.
        let overlaps = pending.pieces.range(..=cr.last).next_back().is_some_and(|(&at, (b, _))| {
            at + b.len() as u64 > cr.first && (at, b.len() as u64) != (cr.first, cr.len())
        });
        if pending.total != total || overlaps {
            return Response::error(StatusCode::CONFLICT);
        }
        let others = held - pending.resident;
        if let Err(refused) = pending.stage(cr.first, (Bytes::from(body), digests), others) {
            if opens {
                staging.segments.remove(path);
            }
            return refused;
        }
        if pending.resident < total {
            return Response::empty(StatusCode::NO_CONTENT);
        }
        // Complete: out of the map, then assembled outside the lock.
        let pieces = std::mem::take(&mut pending.pieces);
        staging.segments.remove(path);
        drop(staging);
        let (entity, digests) = assemble(pieces.into_values(), total);
        if self.store.put_digested(path, entity, digests) {
            Response::empty(StatusCode::NO_CONTENT)
        } else {
            Response::empty(StatusCode::CREATED)
        }
    }

    /// PUT dispatch: part, segment or whole-object store, `digests` being
    /// the body's `(crc32, adler32)`. A whole object is checked against its
    /// `Digest`, then committed with them.
    fn do_put(&self, req: Request, path: &str, digests: (u32, u32)) -> Response {
        let upload_id = Self::query_param(&req, "uploadId").map(str::to_string);
        let part = Self::query_param(&req, "partNumber").map(str::to_string);
        let content_range = req.head.headers.get("content-range").map(str::to_string);
        let body = req.body;
        if let Some(id) = upload_id {
            return self.put_part(&id, part.as_deref(), path, body, digests);
        }
        if let Some(cr) = content_range {
            return self.put_segment(&cr, path, body, digests);
        }
        if let Some(conflict) = digest_conflict(&req.head.headers, &to_hex(digests.1)) {
            return conflict;
        }
        if self.store.put_digested(path, Bytes::from(body), digests) {
            Response::empty(StatusCode::NO_CONTENT)
        } else {
            Response::empty(StatusCode::CREATED)
        }
    }

    /// DELETE dispatch: multipart abort, pending-segment discard or object
    /// removal.
    fn do_delete(&self, req: &Request, path: &str) -> Response {
        if let Some(id) = Self::query_param(req, "uploadId") {
            let Ok(id) = id.parse::<u64>() else {
                return Response::error(StatusCode::BAD_REQUEST);
            };
            return if self.staging.lock().multipart.remove(&id).is_some() {
                Response::empty(StatusCode::NO_CONTENT)
            } else {
                Response::error(StatusCode::NOT_FOUND)
            };
        }
        let object_removed = self.store.delete(path);
        let pending_removed = self.staging.lock().segments.remove(path).is_some();
        if object_removed || pending_removed {
            Response::empty(StatusCode::NO_CONTENT)
        } else {
            Response::error(StatusCode::NOT_FOUND)
        }
    }

    fn get_like(&self, req: &Request, path: &str) -> Response {
        if wants_metalink(req) {
            return match self.opts.metalink.as_ref().and_then(|src| src(path)) {
                Some(xml) => Response::with_body(
                    StatusCode::OK,
                    metalink::METALINK_CONTENT_TYPE,
                    xml.into_bytes(),
                ),
                None => Response::error(StatusCode::NOT_FOUND),
            };
        }
        let Some(meta) = self.store.get(path) else {
            if self.store.is_dir(path) {
                return Response::error(StatusCode::FORBIDDEN);
            }
            return Response::error(StatusCode::NOT_FOUND);
        };
        let size = meta.data.len() as u64;
        let base = |status: StatusCode, body: Bytes, ct: &str| {
            Response { status, headers: Default::default(), body, close: false }
                .header("Content-Type", ct)
                .header("Accept-Ranges", "bytes")
                .header("ETag", meta.etag())
                .header("Digest", meta.digest())
        };

        // The header resolved against the entity in one pass: how many
        // ranges it names and the satisfiable ones.
        let effective = match (req.head.headers.get("range"), self.opts.range_support) {
            (None, _) | (_, RangeSupport::None) => None,
            (Some(h), support) => match resolve_range_header(h, size) {
                Ok((named, _)) if named > MAX_RANGES => {
                    return Response::error(StatusCode::BAD_REQUEST)
                }
                // Pretend we never saw the header → 200 full body.
                Ok((named, _)) if named > 1 && support == RangeSupport::SingleRange => None,
                Ok((_, parts)) => Some(parts),
                Err(_) => return Response::error(StatusCode::BAD_REQUEST),
            },
        };

        match effective {
            None => base(StatusCode::OK, meta.data.clone(), "application/octet-stream"),
            Some(parts) => {
                let &[first_part, ..] = &parts[..] else {
                    return Response::error(StatusCode::RANGE_NOT_SATISFIABLE)
                        .header("Content-Range", format!("bytes */{size}"));
                };
                if parts.len() == 1 {
                    let ContentRange { first, last, .. } = first_part;
                    let body = meta.data.slice(first as usize..=last as usize);
                    return base(StatusCode::PARTIAL_CONTENT, body, "application/octet-stream")
                        .header("Content-Range", first_part.to_string());
                }
                // Multi-range: multipart/byteranges, written in one pass
                // into room for parts whose numbers are all as long as the
                // entity's size, so each part's digits are worked out once,
                // as they are written.
                const PART_TYPE: &str = "application/octet-stream";
                let n = self.boundary_counter.fetch_add(1, Ordering::Relaxed);
                let boundary = format!("dpmrange_{n:016x}");
                let widest = ContentRange { first: size, last: size, total: Some(size) };
                let framing =
                    MultipartWriter::<Vec<u8>>::part_overhead(&boundary, PART_TYPE, widest);
                let room = parts.iter().map(|cr| framing + cr.len()).sum::<u64>()
                    + MultipartWriter::<Vec<u8>>::final_overhead(&boundary);
                let mut w = MultipartWriter::new(Vec::with_capacity(room as usize), &boundary);
                for cr in parts {
                    let part = &meta.data[cr.first as usize..=cr.last as usize];
                    if w.write_part(PART_TYPE, cr, part).is_err() {
                        return Response::error(StatusCode::INTERNAL_SERVER_ERROR);
                    }
                }
                let body = match w.finish() {
                    Ok(b) => b,
                    Err(_) => return Response::error(StatusCode::INTERNAL_SERVER_ERROR),
                };
                debug_assert!(body.len() as u64 <= room, "the body outgrew its room");
                base(StatusCode::PARTIAL_CONTENT, body.into(), "application/octet-stream")
                    .header("Content-Type", format!("{MULTIPART_BYTERANGES}; boundary={boundary}"))
            }
        }
    }

    fn propfind(&self, req: &Request, path: &str) -> Response {
        let depth = req.head.headers.get("depth").unwrap_or("1");
        let mut ms = Element::new("D:multistatus");
        ms.set_attr("xmlns:D", "DAV:");
        let mut push_entry = |href: &str, is_dir: bool, size: u64| {
            let mut resp = Element::new("D:response");
            let mut href_el = Element::new("D:href");
            // RFC 4918 §8.3: hrefs travel as URIs, i.e. percent-encoded —
            // spaces and non-ASCII in object names must not leak raw (real
            // DPM/dCache frontends encode here; clients must decode).
            href_el.add_text(percent_encode_path(href));
            resp.add_child(href_el);
            let mut propstat = Element::new("D:propstat");
            let mut prop = Element::new("D:prop");
            let mut rt = Element::new("D:resourcetype");
            if is_dir {
                rt.add_child(Element::new("D:collection"));
            }
            prop.add_child(rt);
            if !is_dir {
                let mut len = Element::new("D:getcontentlength");
                len.add_text(size.to_string());
                prop.add_child(len);
            }
            propstat.add_child(prop);
            let mut status = Element::new("D:status");
            status.add_text("HTTP/1.1 200 OK");
            propstat.add_child(status);
            resp.add_child(propstat);
            ms.add_child(resp);
        };

        if let Some(meta) = self.store.get(path) {
            push_entry(path, false, meta.data.len() as u64);
        } else if self.store.is_dir(path) {
            push_entry(path, true, 0);
            if depth != "0" {
                let base = if path == "/" { String::new() } else { path.to_string() };
                for (name, is_dir, size) in self.store.list(path) {
                    push_entry(&format!("{base}/{name}"), is_dir, size);
                }
            }
        } else {
            return Response::error(StatusCode::NOT_FOUND);
        }
        let body = format!("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n{}", ms.to_xml());
        Response::with_body(StatusCode::MULTI_STATUS, "application/xml", body.into_bytes())
    }
}

/// The `409` for a body whose Adler-32 is `got` (hex) when `headers`
/// declare another in `Digest: adler32=…`: end-to-end corruption, so the
/// caller commits nothing. The answer names the observed digest.
fn digest_conflict(headers: &HeaderMap, got: &str) -> Option<Response> {
    let expected = headers.digest_adler32().filter(|e| e != got)?;
    Some(
        Response::text(
            StatusCode::CONFLICT,
            format!("digest mismatch: declared adler32={expected}, assembled {got}"),
        )
        .header("Digest", format!("adler32={got}")),
    )
}

/// Whether `req` asks for its object's Metalink rather than the object: a
/// `metalink` query flag, or an `Accept` naming
/// [`metalink::METALINK_CONTENT_TYPE`]. A storage node and a federation
/// negotiate it the same way.
pub fn wants_metalink(req: &Request) -> bool {
    let accept = req.head.headers.get("accept");
    StorageHandler::query_flag(req, "metalink")
        || accept.is_some_and(|a| a.contains(metalink::METALINK_CONTENT_TYPE))
}

impl httpd::Handler for StorageHandler {
    /// A request whose body nobody digested yet: digest it here, once.
    fn handle(&self, req: Request) -> Response {
        let digests = self.digest_cold(&req.body);
        self.handle_digested(req, digests)
    }

    fn handle_digested(&self, req: Request, digests: (u32, u32)) -> Response {
        if self.unavailable.load(Ordering::SeqCst) {
            return busy();
        }
        if self
            .fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            return Response::error(StatusCode::INTERNAL_SERVER_ERROR);
        }
        let path = req.decoded_path();
        match req.head.method {
            Method::Get | Method::Head => self.get_like(&req, &path),
            Method::Put => self.do_put(req, &path, digests),
            Method::Post => {
                if Self::query_flag(&req, "uploads") {
                    self.initiate_multipart(&path)
                } else if Self::query_param(&req, "uploadId").is_some() {
                    self.complete_multipart(&req, &path)
                } else {
                    Response::error(StatusCode::METHOD_NOT_ALLOWED)
                }
            }
            Method::Delete => self.do_delete(&req, &path),
            Method::Mkcol => {
                if self.store.mkdir(&path) {
                    Response::empty(StatusCode::CREATED)
                } else {
                    Response::error(StatusCode::METHOD_NOT_ALLOWED)
                }
            }
            Method::Options => Response::empty(StatusCode::OK)
                .header("Allow", "GET, HEAD, PUT, POST, DELETE, OPTIONS, PROPFIND, MKCOL, MOVE")
                .header("DAV", "1")
                .header("Accept-Ranges", "bytes"),
            Method::Propfind => self.propfind(&req, &path),
            Method::Move => self.do_move(&req, &path),
            _ => Response::error(StatusCode::METHOD_NOT_ALLOWED),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpd::Handler;
    use httpwire::multipart::{boundary_from_content_type, MultipartReader};
    use httpwire::RequestHead;
    use ioapi::checksum::{adler32, crc32};

    impl StorageHandler {
        /// Body bytes this handler has read a second time to digest them.
        pub(crate) fn cold_digested_bytes(&self) -> u64 {
            self.cold_digested.load(Ordering::Relaxed)
        }
    }

    fn handler_with(range: RangeSupport) -> StorageHandler {
        let store = Arc::new(ObjectStore::new());
        store.put("/data/f.bin", Bytes::from((0u8..=255).collect::<Vec<u8>>()));
        StorageHandler::new(store, StorageOptions { range_support: range, ..Default::default() })
    }

    fn request(method: Method, target: &str, headers: &[(&str, &str)]) -> Request {
        let mut head = RequestHead::new(method, target);
        for (n, v) in headers {
            head.headers.set(n, *v);
        }
        Request { head, body: Vec::new(), peer: "test".into() }
    }

    #[test]
    fn get_full_object() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[]));
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body.len(), 256);
        assert!(r.headers.contains("etag"));
        assert!(r.headers.get("digest").unwrap().starts_with("adler32="));
        assert_eq!(r.headers.get("accept-ranges"), Some("bytes"));
    }

    #[test]
    fn get_missing_is_404() {
        let h = handler_with(RangeSupport::MultiRange);
        assert_eq!(h.handle(request(Method::Get, "/nope", &[])).status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn get_directory_is_403() {
        let h = handler_with(RangeSupport::MultiRange);
        assert_eq!(h.handle(request(Method::Get, "/data", &[])).status, StatusCode::FORBIDDEN);
    }

    #[test]
    fn single_range_yields_206_with_content_range() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[("Range", "bytes=10-19")]));
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(r.body.as_ref(), &(10u8..20).collect::<Vec<u8>>()[..]);
        assert_eq!(r.headers.get("content-range"), Some("bytes 10-19/256"));
    }

    #[test]
    fn multi_range_yields_multipart() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(
            Method::Get,
            "/data/f.bin",
            &[("Range", "bytes=0-1,100-101,255-255")],
        ));
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
        let ct = r.headers.get("content-type").unwrap();
        let boundary = boundary_from_content_type(ct).expect("boundary");
        let parts = MultipartReader::new(std::io::Cursor::new(r.body.to_vec()), &boundary)
            .read_all_parts()
            .unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].data, vec![0, 1]);
        assert_eq!(parts[1].data, vec![100, 101]);
        assert_eq!(parts[2].data, vec![255]);
        assert_eq!(parts[2].range.total, Some(256));
        // The body is sized before it is built: the arithmetic must be the
        // writer's, digit counts of 1, 2 and 3 included.
        let ranges: Vec<ContentRange> = parts.iter().map(|p| p.range).collect();
        let want =
            MultipartWriter::<Vec<u8>>::body_length(&boundary, "application/octet-stream", &ranges);
        assert_eq!(r.body.len() as u64, want);
    }

    #[test]
    fn single_range_server_degrades_multi_to_full() {
        let h = handler_with(RangeSupport::SingleRange);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[("Range", "bytes=0-1,5-6")]));
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body.len(), 256);
        // but single ranges still work
        let r = h.handle(request(Method::Get, "/data/f.bin", &[("Range", "bytes=0-1")]));
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
    }

    #[test]
    fn no_range_server_ignores_ranges() {
        let h = handler_with(RangeSupport::None);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[("Range", "bytes=0-1")]));
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.body.len(), 256);
    }

    #[test]
    fn unsatisfiable_range_is_416() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[("Range", "bytes=500-600")]));
        assert_eq!(r.status, StatusCode::RANGE_NOT_SATISFIABLE);
        assert_eq!(r.headers.get("content-range"), Some("bytes */256"));
    }

    #[test]
    fn malformed_range_is_400() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[("Range", "bytes=z")]));
        assert_eq!(r.status, StatusCode::BAD_REQUEST);
    }

    /// A 100-part answer is the bytes it has always been: the body in
    /// `testdata/multirange_100.golden` was written by the server before
    /// the `Range` parser and the part writer were rewritten. The ranges
    /// have one to five digits, come out of order and overlap, and include
    /// a suffix, an open end, white space and one range past the end.
    #[test]
    fn a_100_part_answer_is_the_bytes_it_always_was() {
        let data: Vec<u8> =
            (0..70_000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let store = Arc::new(ObjectStore::new());
        store.put("/golden.bin", Bytes::from(data));
        let h = StorageHandler::new(store, StorageOptions::default());
        let mut ranges: Vec<String> = (0..97u64)
            .map(|i| {
                let first = (i * i * 7_919 + i * 13) % 69_000;
                format!("{first}-{}", first + i % 37)
            })
            .collect();
        ranges.extend([" 0-0", "-5 ", "69990-", "80000-80010"].map(String::from));
        let header = format!("bytes={}", ranges.join(","));
        let r = h.handle(request(Method::Get, "/golden.bin", &[("Range", &header)]));
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
        let boundary = "multipart/byteranges; boundary=dpmrange_0000000000000000";
        assert_eq!(r.headers.get("content-type"), Some(boundary));
        let golden = include_bytes!("../testdata/multirange_100.golden");
        assert_eq!(r.body.len(), golden.len());
        assert!(r.body.as_ref() == golden, "the 100-part body differs from the golden bytes");
    }

    #[test]
    fn put_then_get_then_delete() {
        let h = handler_with(RangeSupport::MultiRange);
        let mut req = request(Method::Put, "/new/obj", &[]);
        req.body = b"payload".to_vec();
        assert_eq!(h.handle(req).status, StatusCode::CREATED);
        let r = h.handle(request(Method::Get, "/new/obj", &[]));
        assert_eq!(r.body.as_ref(), b"payload");
        let mut req = request(Method::Put, "/new/obj", &[]);
        req.body = b"v2".to_vec();
        assert_eq!(h.handle(req).status, StatusCode::NO_CONTENT, "overwrite is 204");
        assert_eq!(
            h.handle(request(Method::Delete, "/new/obj", &[])).status,
            StatusCode::NO_CONTENT
        );
        assert_eq!(
            h.handle(request(Method::Delete, "/new/obj", &[])).status,
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn mkcol_and_propfind_listing() {
        let h = handler_with(RangeSupport::MultiRange);
        assert_eq!(h.handle(request(Method::Mkcol, "/data/sub", &[])).status, StatusCode::CREATED);
        let r = h.handle(request(Method::Propfind, "/data", &[("Depth", "1")]));
        assert_eq!(r.status, StatusCode::MULTI_STATUS);
        let body = String::from_utf8(r.body.to_vec()).unwrap();
        let doc = metalink::xml::parse(&body).unwrap();
        let hrefs: Vec<String> =
            doc.find_all("response").map(|resp| resp.find("href").unwrap().text()).collect();
        assert!(hrefs.contains(&"/data".to_string()));
        assert!(hrefs.contains(&"/data/f.bin".to_string()));
        assert!(hrefs.contains(&"/data/sub".to_string()));
        // file entry carries a length
        assert!(body.contains("<D:getcontentlength>256</D:getcontentlength>"));
    }

    #[test]
    fn propfind_depth_zero_only_lists_self() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(Method::Propfind, "/data", &[("Depth", "0")]));
        let body = String::from_utf8(r.body.to_vec()).unwrap();
        let doc = metalink::xml::parse(&body).unwrap();
        assert_eq!(doc.find_all("response").count(), 1);
    }

    #[test]
    fn unavailable_mode_returns_503() {
        let h = handler_with(RangeSupport::MultiRange);
        h.set_unavailable(true);
        let r = h.handle(request(Method::Get, "/data/f.bin", &[]));
        assert_eq!(r.status, StatusCode::SERVICE_UNAVAILABLE);
        h.set_unavailable(false);
        assert_eq!(h.handle(request(Method::Get, "/data/f.bin", &[])).status, StatusCode::OK);
    }

    #[test]
    fn fail_next_injects_exactly_n_errors() {
        let h = handler_with(RangeSupport::MultiRange);
        h.fail_next(2);
        assert_eq!(
            h.handle(request(Method::Get, "/data/f.bin", &[])).status,
            StatusCode::INTERNAL_SERVER_ERROR
        );
        assert_eq!(
            h.handle(request(Method::Get, "/data/f.bin", &[])).status,
            StatusCode::INTERNAL_SERVER_ERROR
        );
        assert_eq!(h.handle(request(Method::Get, "/data/f.bin", &[])).status, StatusCode::OK);
    }

    #[test]
    fn metalink_negotiation() {
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"x"));
        let src: MetalinkSource =
            Arc::new(|path: &str| Some(format!("<metalink><file name=\"{path}\"/></metalink>")));
        let h = StorageHandler::new(
            store,
            StorageOptions { metalink: Some(src), ..Default::default() },
        );
        let r = h.handle(request(Method::Get, "/f?metalink", &[]));
        assert_eq!(r.status, StatusCode::OK);
        assert_eq!(r.headers.get("content-type"), Some(metalink::METALINK_CONTENT_TYPE));
        let r = h.handle(request(Method::Get, "/f", &[("Accept", "application/metalink4+xml")]));
        assert_eq!(r.headers.get("content-type"), Some(metalink::METALINK_CONTENT_TYPE));
        // Without negotiation: plain bytes.
        let r = h.handle(request(Method::Get, "/f", &[]));
        assert_eq!(r.body.as_ref(), b"x");
    }

    #[test]
    fn metalink_without_source_is_404() {
        let h = handler_with(RangeSupport::MultiRange);
        let r = h.handle(request(Method::Get, "/data/f.bin?metalink", &[]));
        assert_eq!(r.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn too_many_ranges_rejected() {
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from(vec![0u8; 100_000]));
        let h = StorageHandler::new(store, StorageOptions::default());
        let ranges: Vec<String> =
            (0..=MAX_RANGES).map(|i| format!("{}-{}", i * 10, i * 10 + 1)).collect();
        let header = format!("bytes={}", ranges.join(","));
        let r = h.handle(request(Method::Get, "/f", &[("Range", &header)]));
        assert_eq!(r.status, StatusCode::BAD_REQUEST);
        let header = format!("bytes={}", ranges[..MAX_RANGES].join(","));
        let r = h.handle(request(Method::Get, "/f", &[("Range", &header)]));
        assert_eq!(r.status, StatusCode::PARTIAL_CONTENT);
    }

    fn initiate(h: &StorageHandler, path: &str) -> String {
        let r = h.handle(request(Method::Post, &format!("{path}?uploads"), &[]));
        assert_eq!(r.status, StatusCode::OK);
        let doc = metalink::xml::parse(&String::from_utf8(r.body.to_vec()).unwrap()).unwrap();
        doc.find("UploadId").unwrap().text()
    }

    fn complete_xml(parts: &[u32]) -> Vec<u8> {
        let mut root = Element::new("CompleteMultipartUpload");
        for n in parts {
            let mut part = Element::new("Part");
            let mut num = Element::new("PartNumber");
            num.add_text(n.to_string());
            part.add_child(num);
            root.add_child(part);
        }
        root.to_xml().into_bytes()
    }

    #[test]
    fn s3_multipart_initiate_part_complete_roundtrip() {
        let h = handler_with(RangeSupport::MultiRange);
        let id = initiate(&h, "/up/obj.bin");
        // Parts arrive out of order; assembly is by part number.
        for (n, data) in [(2u32, &b"world"[..]), (1, &b"hello "[..])] {
            let mut req =
                request(Method::Put, &format!("/up/obj.bin?uploadId={id}&partNumber={n}"), &[]);
            req.body = data.to_vec();
            let r = h.handle(req);
            assert_eq!(r.status, StatusCode::OK);
            assert_eq!(
                r.headers.get("etag"),
                Some(format!("\"{}\"", to_hex(crc32(data))).as_str())
            );
        }
        // Nothing visible before the complete.
        assert_eq!(
            h.handle(request(Method::Get, "/up/obj.bin", &[])).status,
            StatusCode::NOT_FOUND
        );
        let mut req = request(
            Method::Post,
            &format!("/up/obj.bin?uploadId={id}"),
            &[("Digest", &format!("adler32={}", to_hex(adler32(b"hello world"))))],
        );
        req.body = complete_xml(&[1, 2]);
        let r = h.handle(req);
        assert_eq!(r.status, StatusCode::OK);
        assert!(r.headers.get("digest").unwrap().starts_with("adler32="));
        let committed = h.store.get("/up/obj.bin").unwrap();
        assert_eq!(committed.data.as_ref(), b"hello world");
        assert_eq!(
            (committed.crc32, committed.adler32),
            (crc32(b"hello world"), adler32(b"hello world"))
        );
    }

    #[test]
    fn a_plain_put_verifies_its_digest() {
        let h = handler_with(RangeSupport::MultiRange);
        let declared = format!("adler32={}", to_hex(adler32(b"pristine")));
        let mut req = request(Method::Put, "/up/plain.bin", &[("Digest", &declared)]);
        req.body = b"corrupted".to_vec();
        let r = h.handle(req);
        assert_eq!(r.status, StatusCode::CONFLICT);
        assert_eq!(
            r.headers.get("digest"),
            Some(format!("adler32={}", to_hex(adler32(b"corrupted"))).as_str())
        );
        let r = h.handle(request(Method::Get, "/up/plain.bin", &[]));
        assert_eq!(r.status, StatusCode::NOT_FOUND, "a mismatch must not commit");
        let mut req = request(Method::Put, "/up/plain.bin", &[("Digest", &declared)]);
        req.body = b"pristine".to_vec();
        assert_eq!(h.handle(req).status, StatusCode::CREATED);
        assert_eq!(h.store.get("/up/plain.bin").unwrap().data.as_ref(), b"pristine");
    }

    #[test]
    fn s3_multipart_digest_mismatch_conflicts_and_commits_nothing() {
        let h = handler_with(RangeSupport::MultiRange);
        let id = initiate(&h, "/up/bad.bin");
        // Two parts, so the digest that fails is the fold of theirs.
        for (n, data) in [(1, &b"corr"[..]), (2, b"upted")] {
            let target = format!("/up/bad.bin?uploadId={id}&partNumber={n}");
            let mut req = request(Method::Put, &target, &[]);
            req.body = data.to_vec();
            assert_eq!(h.handle(req).status, StatusCode::OK);
        }
        let mut req = request(
            Method::Post,
            &format!("/up/bad.bin?uploadId={id}"),
            &[("Digest", &format!("adler32={}", to_hex(adler32(b"pristine"))))],
        );
        req.body = complete_xml(&[1, 2]);
        let r = h.handle(req);
        assert_eq!(r.status, StatusCode::CONFLICT);
        assert_eq!(
            r.headers.get("digest"),
            Some(format!("adler32={}", to_hex(adler32(b"corrupted"))).as_str())
        );
        assert!(h.store.get("/up/bad.bin").is_none(), "mismatch must not commit");
        // Abort cleans the pending upload; a second abort is 404.
        let r = h.handle(request(Method::Delete, &format!("/up/bad.bin?uploadId={id}"), &[]));
        assert_eq!(r.status, StatusCode::NO_CONTENT);
        let r = h.handle(request(Method::Delete, &format!("/up/bad.bin?uploadId={id}"), &[]));
        assert_eq!(r.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn s3_multipart_error_cases() {
        let h = handler_with(RangeSupport::MultiRange);
        // Part for an unknown upload.
        let mut req = request(Method::Put, "/x?uploadId=999&partNumber=1", &[]);
        req.body = b"data".to_vec();
        assert_eq!(h.handle(req).status, StatusCode::NOT_FOUND);
        // Part number 0 is invalid.
        let id = initiate(&h, "/x");
        let mut req = request(Method::Put, &format!("/x?uploadId={id}&partNumber=0"), &[]);
        req.body = b"data".to_vec();
        assert_eq!(h.handle(req).status, StatusCode::BAD_REQUEST);
        // Complete listing a part that never arrived.
        let mut req = request(Method::Post, &format!("/x?uploadId={id}"), &[]);
        req.body = complete_xml(&[1]);
        assert_eq!(h.handle(req).status, StatusCode::BAD_REQUEST);
        // Bare POST (no multipart query) is still not allowed.
        assert_eq!(
            h.handle(request(Method::Post, "/x", &[])).status,
            StatusCode::METHOD_NOT_ALLOWED
        );
    }

    #[test]
    fn segmented_ranged_put_materializes_only_when_complete() {
        let h = handler_with(RangeSupport::MultiRange);
        let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        // Two segments, out of order; the object appears only after both.
        let mut req =
            request(Method::Put, "/seg/obj.tmp", &[("Content-Range", "bytes 600-999/1000")]);
        req.body = payload[600..].to_vec();
        assert_eq!(h.handle(req).status, StatusCode::NO_CONTENT);
        assert_eq!(
            h.handle(request(Method::Get, "/seg/obj.tmp", &[])).status,
            StatusCode::NOT_FOUND,
            "partial upload must not be visible"
        );
        let mut req =
            request(Method::Put, "/seg/obj.tmp", &[("Content-Range", "bytes 0-599/1000")]);
        req.body = payload[..600].to_vec();
        assert_eq!(h.handle(req).status, StatusCode::CREATED);
        assert_eq!(h.store.get("/seg/obj.tmp").unwrap().data.as_ref(), &payload[..]);
        // MOVE assembles the final name (the client-side commit step).
        let r = h.handle(request(Method::Move, "/seg/obj.tmp", &[("Destination", "/seg/obj")]));
        assert_eq!(r.status, StatusCode::CREATED);
        assert_eq!(h.store.get("/seg/obj").unwrap().data.as_ref(), &payload[..]);
    }

    #[test]
    fn move_clears_staging_reopened_by_a_retried_final_segment() {
        // A client whose final-segment response is lost retries the segment
        // after the server already materialized the entity: the retry
        // re-opens a pending (partial) upload under the temp name. The
        // commit MOVE must supersede that staging state, not orphan it.
        let h = handler_with(RangeSupport::MultiRange);
        let payload: Vec<u8> = (0..500u32).map(|i| (i % 163) as u8).collect();
        for (range, slice) in
            [("bytes 0-249/500", &payload[..250]), ("bytes 250-499/500", &payload[250..])]
        {
            let mut req = request(Method::Put, "/seg/r.tmp", &[("Content-Range", range)]);
            req.body = slice.to_vec();
            assert!(h.handle(req).status.is_success());
        }
        // The retried final segment (its first response never reached the
        // client) starts a fresh, partially-covered pending entity.
        let mut req = request(Method::Put, "/seg/r.tmp", &[("Content-Range", "bytes 250-499/500")]);
        req.body = payload[250..].to_vec();
        assert!(h.handle(req).status.is_success());
        assert_eq!(h.staging_stats().segment_uploads, 1, "retry re-opened staging");
        let r = h.handle(request(Method::Move, "/seg/r.tmp", &[("Destination", "/seg/r")]));
        assert_eq!(r.status, StatusCode::CREATED);
        assert_eq!(h.store.get("/seg/r").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(h.staging_stats(), StagingStats::default(), "MOVE must clear staging debris");
    }

    #[test]
    fn segmented_put_rejects_bad_geometry() {
        let h = handler_with(RangeSupport::MultiRange);
        // Length that does not match the range.
        let mut req = request(Method::Put, "/s", &[("Content-Range", "bytes 0-9/100")]);
        req.body = vec![0u8; 5];
        assert_eq!(h.handle(req).status, StatusCode::BAD_REQUEST);
        // Range beyond the declared total.
        let mut req = request(Method::Put, "/s", &[("Content-Range", "bytes 90-109/100")]);
        req.body = vec![0u8; 20];
        assert_eq!(h.handle(req).status, StatusCode::BAD_REQUEST);
        // Conflicting totals across segments of one path.
        let mut req = request(Method::Put, "/s", &[("Content-Range", "bytes 0-9/100")]);
        req.body = vec![0u8; 10];
        assert_eq!(h.handle(req).status, StatusCode::NO_CONTENT);
        let mut req = request(Method::Put, "/s", &[("Content-Range", "bytes 0-9/200")]);
        req.body = vec![0u8; 10];
        assert_eq!(h.handle(req).status, StatusCode::CONFLICT);
        // DELETE discards the pending upload.
        assert_eq!(h.handle(request(Method::Delete, "/s", &[])).status, StatusCode::NO_CONTENT);
        let mut req = request(Method::Put, "/s", &[("Content-Range", "bytes 0-9/200")]);
        req.body = vec![0u8; 10];
        assert_eq!(h.handle(req).status, StatusCode::NO_CONTENT, "geometry reset after delete");
    }

    /// Send `data` as the segment of `path` at `first`, declaring `total`.
    fn send_segment(
        h: &StorageHandler,
        path: &str,
        first: usize,
        data: &[u8],
        total: usize,
    ) -> StatusCode {
        let range = format!("bytes {first}-{}/{total}", first + data.len() - 1);
        let mut req = request(Method::Put, path, &[("Content-Range", &range)]);
        req.body = data.to_vec();
        h.handle(req).status
    }

    proptest::proptest! {
        /// An entity cut at random into segments, sent in random order with
        /// one segment sent twice, commits as the one-shot bytes and
        /// digests when its last segment arrives, and leaves no staging.
        #[test]
        fn any_segmentation_commits_the_one_shot_bytes_and_digests(
            len in 2usize..20_000,
            cuts in proptest::collection::vec(proptest::prelude::any::<usize>(), 1..12),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + i / 251) as u8).collect();
            let mut bounds: Vec<usize> = cuts.iter().map(|c| 1 + c % (len - 1)).collect();
            bounds.extend([0, len]);
            bounds.sort_unstable();
            bounds.dedup();
            let segments: Vec<(usize, usize)> = bounds.windows(2).map(|w| (w[0], w[1])).collect();
            let n = segments.len();
            let mut rng = seed | 1;
            let mut below = |n: usize| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % n as u64) as usize
            };
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, below(i + 1));
            }
            // The repeat goes anywhere after its first sending and before
            // the last segment.
            let k = below(n - 1);
            order.insert(k + 1 + below(n - 1 - k), order[k]);
            let h = handler_with(RangeSupport::MultiRange);
            for (sent, &i) in order.iter().enumerate() {
                let (start, end) = segments[i];
                let want =
                    if sent == order.len() - 1 { StatusCode::CREATED } else { StatusCode::NO_CONTENT };
                proptest::prop_assert_eq!(send_segment(&h, "/seg", start, &data[start..end], len), want);
            }
            let committed = h.store.get("/seg").unwrap();
            proptest::prop_assert!(committed.data.as_ref() == &data[..], "{:?}", segments);
            proptest::prop_assert_eq!((committed.crc32, committed.adler32), crc32_adler32(&data));
            proptest::prop_assert_eq!(h.staging_stats(), StagingStats::default());
        }
    }

    #[test]
    fn a_partly_overlapping_segment_conflicts_and_commits_nothing() {
        let h = handler_with(RangeSupport::MultiRange);
        let data: Vec<u8> = (0..100).collect();
        assert_eq!(send_segment(&h, "/o", 0, &data[..50], 100), StatusCode::NO_CONTENT);
        for (first, len) in [(25, 50), (0, 49), (0, 51), (49, 2)] {
            let conflict = send_segment(&h, "/o", first, &[0xEE; 60][..len], 100);
            assert_eq!(conflict, StatusCode::CONFLICT, "{first}+{len}");
        }
        assert!(h.store.get("/o").is_none());
        assert_eq!(h.staging_stats().staged_bytes, 50);
        assert_eq!(send_segment(&h, "/o", 50, &data[50..], 100), StatusCode::CREATED);
        assert_eq!(h.store.get("/o").unwrap().data.as_ref(), &data[..]);
    }

    #[test]
    fn segment_10_001_of_one_upload_is_refused() {
        let h = handler_with(RangeSupport::MultiRange);
        for i in 0..10_000 {
            assert_eq!(send_segment(&h, "/many", i, &[i as u8], 20_000), StatusCode::NO_CONTENT);
        }
        assert_eq!(send_segment(&h, "/many", 10_000, &[0], 20_000), StatusCode::BAD_REQUEST);
        let stats = h.staging_stats();
        assert_eq!((stats.segment_uploads, stats.staged_bytes), (1, 10_000));
    }

    /// The node bounds its pending uploads of both dialects together, by
    /// count and by bytes: past either bound an initiate, part or segment
    /// is a `503` that stages nothing, and the room comes back as uploads
    /// end.
    #[test]
    fn a_node_bounds_all_its_pending_uploads_together() {
        let h = handler_with(RangeSupport::MultiRange);
        let refused = |r: Response| {
            assert_eq!(r.status, StatusCode::SERVICE_UNAVAILABLE);
            assert_eq!(r.headers.get("retry-after"), Some("1"));
        };
        let half = MAX_PENDING_UPLOADS / 2;
        let ids: Vec<String> = (0..half).map(|i| initiate(&h, &format!("/m{i}"))).collect();
        for i in 0..half {
            assert_eq!(
                send_segment(&h, &format!("/s{i}"), 0, &[7; 10], 100),
                StatusCode::NO_CONTENT
            );
        }
        let full = StagingStats {
            multipart_uploads: half,
            segment_uploads: half,
            staged_bytes: 10 * half as u64,
            paths: h.staging_stats().paths,
        };
        assert_eq!(full.paths.len(), MAX_PENDING_UPLOADS);
        refused(h.handle(request(Method::Post, "/m-next?uploads", &[])));
        let range = [("Content-Range", "bytes 0-9/100")];
        let mut segment = request(Method::Put, "/s-next", &range);
        segment.body = vec![7; 10];
        refused(h.handle(segment));
        assert_eq!(h.staging_stats(), full, "nothing staged past the count");
        // Open uploads go on; one that ends makes room for another.
        assert_eq!(send_segment(&h, "/s0", 10, &[7; 10], 100), StatusCode::NO_CONTENT);
        let abort = format!("/m0?uploadId={}", ids[0]);
        assert_eq!(h.handle(request(Method::Delete, &abort, &[])).status, StatusCode::NO_CONTENT);
        let id = initiate(&h, "/m-next");

        // The bytes: an upload holding all but 15 bytes of the budget leaves
        // room for 15 more of anyone's, and none past them.
        h.staging.lock().multipart.get_mut(&ids[1].parse().unwrap()).unwrap().resident =
            MAX_PENDING_ENTITY - 10 * half as u64 - 25;
        let staged = h.staging_stats();
        assert_eq!(staged.staged_bytes, MAX_PENDING_ENTITY - 15);
        let mut part = request(Method::Put, &format!("/m-next?uploadId={id}&partNumber=1"), &[]);
        part.body = vec![7; 16];
        refused(h.handle(part));
        assert_eq!(send_segment(&h, "/s1", 10, &[7; 16], 100), StatusCode::SERVICE_UNAVAILABLE);
        h.handle(request(Method::Delete, "/s2", &[]));
        assert_eq!(send_segment(&h, "/s-new", 0, &[7; 26], 100), StatusCode::SERVICE_UNAVAILABLE);
        let less_s2 = h.staging_stats();
        assert_eq!(less_s2.segment_uploads, half - 1, "the refused segment opened nothing");
        assert_eq!(less_s2.staged_bytes, MAX_PENDING_ENTITY - 25);
        let mut part = request(Method::Put, &format!("/m-next?uploadId={id}&partNumber=1"), &[]);
        part.body = vec![7; 25];
        assert_eq!(h.handle(part).status, StatusCode::OK);
        assert_eq!(h.staging_stats().staged_bytes, MAX_PENDING_ENTITY);
    }

    #[test]
    fn propfind_hrefs_are_percent_encoded() {
        let store = Arc::new(ObjectStore::new());
        store.put("/run 2014/dä ta.root", Bytes::from_static(b"x"));
        let h = StorageHandler::new(store, StorageOptions::default());
        let r = h.handle(request(Method::Propfind, "/run 2014", &[("Depth", "1")]));
        assert_eq!(r.status, StatusCode::MULTI_STATUS);
        let body = String::from_utf8(r.body.to_vec()).unwrap();
        assert!(!body.contains("run 2014</D:href>"), "raw space leaked into an href: {body}");
        assert!(body.contains("/run%202014"), "{body}");
        assert!(body.contains("d%C3%A4%20ta.root"), "{body}");
    }

    #[test]
    fn move_renames_and_reports_created_or_replaced() {
        let h = handler_with(RangeSupport::MultiRange);
        // Fresh destination → 201.
        let r = h.handle(request(
            Method::Move,
            "/data/f.bin",
            &[("Destination", "http://node/data/g.bin")],
        ));
        assert_eq!(r.status, StatusCode::CREATED);
        assert_eq!(
            h.handle(request(Method::Get, "/data/f.bin", &[])).status,
            StatusCode::NOT_FOUND
        );
        assert_eq!(h.handle(request(Method::Get, "/data/g.bin", &[])).status, StatusCode::OK);
        // Overwriting an existing destination → 204.
        h.store.put("/data/h.bin", Bytes::from_static(b"old"));
        let r = h.handle(request(
            Method::Move,
            "/data/g.bin",
            &[("Destination", "/data/h.bin")], // bare-path form
        ));
        assert_eq!(r.status, StatusCode::NO_CONTENT);
        assert_eq!(h.store.get("/data/h.bin").unwrap().data.len(), 256);
    }

    #[test]
    fn move_error_cases() {
        let h = handler_with(RangeSupport::MultiRange);
        // No Destination header.
        let r = h.handle(request(Method::Move, "/data/f.bin", &[]));
        assert_eq!(r.status, StatusCode::BAD_REQUEST);
        // Missing source.
        let r = h.handle(request(Method::Move, "/nope", &[("Destination", "/x")]));
        assert_eq!(r.status, StatusCode::NOT_FOUND);
        // Collection move refused.
        let r = h.handle(request(Method::Move, "/data", &[("Destination", "/d2")]));
        assert_eq!(r.status, StatusCode::FORBIDDEN);
    }
}
