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
//! * **Segmented ranged PUT** (the WebDAV-flavoured fallback): `PUT` with a
//!   `Content-Range: bytes a-b/total` header writes one segment of a
//!   pending entity; once every byte of `total` is covered the object
//!   materializes atomically. Clients upload segments to a temporary name
//!   and `MOVE` it over the final one, so readers never observe a partial
//!   object.

use crate::checksum::{adler32, crc32, to_hex};
use crate::store::ObjectStore;
use bytes::Bytes;
use davix_sync::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use httpd::{Request, Response};
use httpwire::multipart::{MultipartWriter, MULTIPART_BYTERANGES};
use httpwire::range::parse_range_header;
use httpwire::uri::percent_encode_path;
use httpwire::{ContentRange, Method, StatusCode};
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
    /// URL prefix this handler is mounted under (stripped before lookup).
    pub prefix: String,
    /// Range fidelity (see [`RangeSupport`]).
    pub range_support: RangeSupport,
    /// Metalink provider for `?metalink` / Accept negotiation.
    pub metalink: Option<MetalinkSource>,
    /// Reject multi-range requests with more ranges than this (400).
    pub max_ranges: usize,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions {
            prefix: String::new(),
            range_support: RangeSupport::MultiRange,
            metalink: None,
            max_ranges: 4096,
        }
    }
}

impl std::fmt::Debug for StorageOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageOptions")
            .field("prefix", &self.prefix)
            .field("range_support", &self.range_support)
            .field("metalink", &self.metalink.is_some())
            .field("max_ranges", &self.max_ranges)
            .finish()
    }
}

/// Upper bound on the declared total of a segmented upload (a lying
/// `Content-Range` total must not let one request allocate the node away).
const MAX_PENDING_ENTITY: u64 = 1 << 30;

/// One S3-style multipart upload in flight.
struct PendingMultipart {
    path: String,
    parts: BTreeMap<u32, Bytes>,
}

/// One segmented (ranged-PUT) upload in flight.
struct PendingSegments {
    total: u64,
    data: Vec<u8>,
    /// Merged, sorted `[start, end)` coverage intervals.
    covered: Vec<(u64, u64)>,
}

impl PendingSegments {
    fn record(&mut self, start: u64, end: u64) {
        self.covered.push((start, end));
        self.covered.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.covered.len());
        for &(s, e) in &self.covered {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        self.covered = merged;
    }

    fn complete(&self) -> bool {
        self.covered == [(0, self.total)]
    }
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
    /// Deliberate bug switch for harness validation (see
    /// [`set_eager_segment_commit`](Self::set_eager_segment_commit)).
    eager_segment_commit: AtomicBool,
    boundary_counter: AtomicU64,
    upload_counter: AtomicU64,
    multipart: Mutex<HashMap<u64, PendingMultipart>>,
    segments: Mutex<HashMap<String, PendingSegments>>,
}

impl StorageHandler {
    /// Wrap a store.
    pub fn new(store: Arc<ObjectStore>, opts: StorageOptions) -> Self {
        StorageHandler {
            store,
            opts,
            unavailable: AtomicBool::new(false),
            fail_next: AtomicU32::new(0),
            eager_segment_commit: AtomicBool::new(false),
            boundary_counter: AtomicU64::new(0),
            upload_counter: AtomicU64::new(0),
            multipart: Mutex::new(HashMap::new()),
            segments: Mutex::new(HashMap::new()),
        }
    }

    /// Toggle 503-for-everything mode (node "offline" at the HTTP level).
    pub fn set_unavailable(&self, v: bool) {
        self.unavailable.store(v, Ordering::SeqCst);
    }

    /// Fail the next `n` requests with 500.
    pub fn fail_next(&self, n: u32) {
        self.fail_next.store(n, Ordering::SeqCst);
    }

    /// **Deliberately re-introduce a commit-atomicity bug** (off by
    /// default): segmented PUTs materialize their partially-covered buffer
    /// (zeros in the gaps) at the target path after every segment instead
    /// of only once fully covered. An upload interrupted mid-flight then
    /// leaves a visible object whose bytes differ from any full payload —
    /// exactly the all-or-nothing violation `davix-simfuzz` exists to
    /// catch. Used to validate that the harness actually detects it.
    pub fn set_eager_segment_commit(&self, v: bool) {
        self.eager_segment_commit.store(v, Ordering::SeqCst);
    }

    /// Snapshot of the in-flight upload staging state.
    pub fn staging_stats(&self) -> StagingStats {
        let mut stats = StagingStats::default();
        {
            let mp = self.multipart.lock();
            stats.multipart_uploads = mp.len();
            for p in mp.values() {
                stats.staged_bytes += p.parts.values().map(|b| b.len() as u64).sum::<u64>();
                stats.paths.push(p.path.clone());
            }
        }
        {
            let seg = self.segments.lock();
            stats.segment_uploads = seg.len();
            for (path, p) in seg.iter() {
                stats.staged_bytes += p.covered.iter().map(|(s, e)| e - s).sum::<u64>();
                stats.paths.push(path.clone());
            }
        }
        stats.paths.sort_unstable();
        stats
    }

    fn object_path(&self, req: &Request) -> Option<String> {
        let decoded = req.decoded_path();
        if self.opts.prefix.is_empty() {
            return Some(decoded);
        }
        decoded.strip_prefix(&self.opts.prefix).map(|rest| {
            if rest.starts_with('/') {
                rest.to_string()
            } else {
                format!("/{rest}")
            }
        })
    }

    /// WebDAV MOVE (RFC 4918 §9.9): rename `path` to the `Destination`
    /// header's path. The destination may be an absolute URL or an absolute
    /// path; it must land on this node's namespace.
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
        let dest_path = if self.opts.prefix.is_empty() {
            dest_path
        } else {
            match dest_path.strip_prefix(&self.opts.prefix) {
                Some(rest) if rest.starts_with('/') => rest.to_string(),
                Some(rest) => format!("/{rest}"),
                None => return Response::error(StatusCode::BAD_GATEWAY), // cross-server move
            }
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
                let mut segments = self.segments.lock();
                segments.remove(path);
                segments.remove(&dest_path);
                drop(segments);
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

    /// `POST {path}?uploads` — start an S3-style multipart upload.
    fn initiate_multipart(&self, path: &str) -> Response {
        let id = self.upload_counter.fetch_add(1, Ordering::Relaxed) + 1;
        self.multipart
            .lock()
            .insert(id, PendingMultipart { path: path.to_string(), parts: BTreeMap::new() });
        let mut result = Element::new("InitiateMultipartUploadResult");
        let mut key = Element::new("Key");
        key.add_text(path);
        result.add_child(key);
        let mut upload_id = Element::new("UploadId");
        upload_id.add_text(id.to_string());
        result.add_child(upload_id);
        Response::with_body(StatusCode::OK, "application/xml", result.to_xml().into_bytes())
    }

    /// `PUT {path}?uploadId=I&partNumber=N` — store one part. Pending
    /// parts are bounded by the same [`MAX_PENDING_ENTITY`] budget as
    /// segmented uploads (and a part-count cap), so an abandoned or
    /// malicious upload cannot grow the node's memory without limit.
    fn put_part(&self, id: &str, part: Option<&str>, path: &str, body: Vec<u8>) -> Response {
        const MAX_PARTS: usize = 10_000;
        let Ok(id) = id.parse::<u64>() else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let Some(n) = part.and_then(|p| p.parse::<u32>().ok()).filter(|&n| n > 0) else {
            return Response::error(StatusCode::BAD_REQUEST);
        };
        let mut uploads = self.multipart.lock();
        let Some(pending) = uploads.get_mut(&id) else {
            return Response::error(StatusCode::NOT_FOUND); // NoSuchUpload
        };
        if pending.path != path {
            return Response::error(StatusCode::BAD_REQUEST);
        }
        let replaced = pending.parts.get(&n).map(Bytes::len).unwrap_or(0);
        let resident: usize = pending.parts.values().map(Bytes::len).sum();
        if resident - replaced + body.len() > MAX_PENDING_ENTITY as usize
            || (replaced == 0 && pending.parts.len() >= MAX_PARTS)
        {
            return Response::error(StatusCode::BAD_REQUEST); // EntityTooLarge
        }
        let data = Bytes::from(body);
        let etag = format!("\"{}\"", to_hex(crc32(&data)));
        pending.parts.insert(n, data);
        Response::empty(StatusCode::OK).header("ETag", etag)
    }

    /// `POST {path}?uploadId=I` — assemble the listed parts and commit.
    ///
    /// When the request carries `Digest: adler32=…`, the digest of the
    /// *assembled* entity is verified first; a mismatch answers `409` (with
    /// the observed digest in a `Digest` header) and commits **nothing** —
    /// the pending upload stays aborted-or-retryable.
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
        // the lock before the heavy work: assembling + digesting a large
        // entity must not stall every other in-flight upload's part PUTs.
        let parts: Vec<Bytes> = {
            let uploads = self.multipart.lock();
            let Some(pending) = uploads.get(&id) else {
                return Response::error(StatusCode::NOT_FOUND);
            };
            if pending.path != path {
                return Response::error(StatusCode::BAD_REQUEST);
            }
            let mut parts = Vec::with_capacity(numbers.len());
            for n in &numbers {
                let Some(part) = pending.parts.get(n) else {
                    return Response::error(StatusCode::BAD_REQUEST); // InvalidPart
                };
                parts.push(part.clone());
            }
            parts
        };
        let mut assembled = Vec::with_capacity(parts.iter().map(Bytes::len).sum());
        for part in &parts {
            assembled.extend_from_slice(part);
        }
        let got = to_hex(adler32(&assembled));
        if let Some(expected) = req.head.headers.digest_adler32() {
            if expected != got {
                // End-to-end corruption: refuse to commit. The pending
                // upload is kept so the client can abort (or re-send parts).
                return Response::text(
                    StatusCode::CONFLICT,
                    format!("digest mismatch: declared adler32={expected}, assembled {got}"),
                )
                .header("Digest", format!("adler32={got}"));
            }
        }
        self.multipart.lock().remove(&id);
        self.store.put(path, Bytes::from(assembled));
        let mut result = Element::new("CompleteMultipartUploadResult");
        let mut key = Element::new("Key");
        key.add_text(path);
        result.add_child(key);
        Response::with_body(StatusCode::OK, "application/xml", result.to_xml().into_bytes())
            .header("Digest", format!("adler32={got}"))
    }

    /// `PUT {path}` with `Content-Range: bytes a-b/total` — write one
    /// segment of a pending entity; materialize once fully covered.
    fn put_segment(&self, content_range: &str, path: &str, body: &[u8]) -> Response {
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
        let mut segments = self.segments.lock();
        let pending = match segments.entry(path.to_string()) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let p = e.into_mut();
                if p.total != total {
                    // Conflicting geometry: a different upload is in flight.
                    return Response::error(StatusCode::CONFLICT);
                }
                p
            }
            std::collections::hash_map::Entry::Vacant(v) => v.insert(PendingSegments {
                total,
                data: vec![0; total as usize],
                covered: Vec::new(),
            }),
        };
        pending.data[cr.first as usize..=cr.last as usize].copy_from_slice(body);
        pending.record(cr.first, cr.last + 1);
        if !pending.complete() && self.eager_segment_commit.load(Ordering::SeqCst) {
            // Canary bug: publish the partially-covered buffer (zeros in
            // the gaps) before the entity is complete.
            let partial = Bytes::from(pending.data.clone());
            // davix-lint: allow(lock-discipline) — ObjectStore::put is an in-memory map insert; the call graph merges it with the HTTP `put` by name
            self.store.put(path, partial);
        }
        let done = pending.complete().then(|| std::mem::take(&mut pending.data));
        if let Some(data) = done {
            segments.remove(path);
            drop(segments);
            let replaced = self.store.put(path, Bytes::from(data));
            if replaced {
                Response::empty(StatusCode::NO_CONTENT)
            } else {
                Response::empty(StatusCode::CREATED)
            }
        } else {
            Response::empty(StatusCode::NO_CONTENT)
        }
    }

    /// PUT dispatch: part, segment or whole-object store.
    fn do_put(&self, req: Request, path: &str) -> Response {
        let upload_id = Self::query_param(&req, "uploadId").map(str::to_string);
        let part = Self::query_param(&req, "partNumber").map(str::to_string);
        let content_range = req.head.headers.get("content-range").map(str::to_string);
        let body = req.body;
        if let Some(id) = upload_id {
            return self.put_part(&id, part.as_deref(), path, body);
        }
        if let Some(cr) = content_range {
            return self.put_segment(&cr, path, &body);
        }
        if self.store.put(path, Bytes::from(body)) {
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
            return if self.multipart.lock().remove(&id).is_some() {
                Response::empty(StatusCode::NO_CONTENT)
            } else {
                Response::error(StatusCode::NOT_FOUND)
            };
        }
        let object_removed = self.store.delete(path);
        let pending_removed = self.segments.lock().remove(path).is_some();
        if object_removed || pending_removed {
            Response::empty(StatusCode::NO_CONTENT)
        } else {
            Response::error(StatusCode::NOT_FOUND)
        }
    }

    fn wants_metalink(req: &Request) -> bool {
        let q = req.head.query().unwrap_or("");
        if q.split('&').any(|kv| kv == "metalink" || kv.starts_with("metalink=")) {
            return true;
        }
        req.head
            .headers
            .get("accept")
            .map(|a| a.contains(metalink::METALINK_CONTENT_TYPE))
            .unwrap_or(false)
    }

    fn get_like(&self, req: &Request, path: &str) -> Response {
        if Self::wants_metalink(req) {
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

        let effective = match (req.head.headers.get("range"), self.opts.range_support) {
            (None, _) | (_, RangeSupport::None) => None,
            (Some(h), support) => match parse_range_header(h) {
                Ok(specs) => {
                    if specs.len() > self.opts.max_ranges {
                        return Response::error(StatusCode::BAD_REQUEST);
                    }
                    if specs.len() > 1 && support == RangeSupport::SingleRange {
                        None // pretend we never saw the header → 200 full body
                    } else {
                        Some(specs)
                    }
                }
                Err(_) => return Response::error(StatusCode::BAD_REQUEST),
            },
        };

        match effective {
            None => base(StatusCode::OK, meta.data.clone(), "application/octet-stream"),
            Some(specs) => {
                let resolved: Vec<(u64, u64)> =
                    specs.iter().filter_map(|s| s.resolve(size)).collect();
                if resolved.is_empty() {
                    return Response::error(StatusCode::RANGE_NOT_SATISFIABLE)
                        .header("Content-Range", format!("bytes */{size}"));
                }
                if resolved.len() == 1 {
                    let (first, last) = resolved[0];
                    let body = meta.data.slice(first as usize..=last as usize);
                    return base(StatusCode::PARTIAL_CONTENT, body, "application/octet-stream")
                        .header(
                            "Content-Range",
                            ContentRange { first, last, total: Some(size) }.to_string(),
                        );
                }
                // Multi-range: multipart/byteranges, its length known before
                // its first byte is written.
                const PART_TYPE: &str = "application/octet-stream";
                let n = self.boundary_counter.fetch_add(1, Ordering::Relaxed);
                let boundary = format!("dpmrange_{n:016x}");
                let parts: Vec<ContentRange> = resolved
                    .iter()
                    .map(|&(first, last)| ContentRange { first, last, total: Some(size) })
                    .collect();
                let length = MultipartWriter::<Vec<u8>>::body_length(&boundary, PART_TYPE, &parts);
                let mut w = MultipartWriter::new(Vec::with_capacity(length as usize), &boundary);
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
                debug_assert_eq!(body.len() as u64, length);
                base(StatusCode::PARTIAL_CONTENT, body.into(), "application/octet-stream")
                    .header("Content-Type", format!("{MULTIPART_BYTERANGES}; boundary={boundary}"))
            }
        }
    }

    fn propfind(&self, req: &Request, path: &str) -> Response {
        let depth = req.head.headers.get("depth").unwrap_or("1");
        let mut ms = Element::new("D:multistatus");
        ms.set_attr("xmlns:D", "DAV:");
        let href_prefix = &self.opts.prefix;
        let mut push_entry = |href: &str, is_dir: bool, size: u64| {
            let mut resp = Element::new("D:response");
            let mut href_el = Element::new("D:href");
            // RFC 4918 §8.3: hrefs travel as URIs, i.e. percent-encoded —
            // spaces and non-ASCII in object names must not leak raw (real
            // DPM/dCache frontends encode here; clients must decode).
            href_el.add_text(percent_encode_path(&format!("{href_prefix}{href}")));
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

impl httpd::Handler for StorageHandler {
    fn handle(&self, req: Request) -> Response {
        if self.unavailable.load(Ordering::SeqCst) {
            return Response::error(StatusCode::SERVICE_UNAVAILABLE).header("Retry-After", "1");
        }
        if self
            .fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
        {
            return Response::error(StatusCode::INTERNAL_SERVER_ERROR);
        }
        let Some(path) = self.object_path(&req) else {
            return Response::error(StatusCode::NOT_FOUND);
        };
        match req.head.method {
            Method::Get | Method::Head => self.get_like(&req, &path),
            Method::Put => self.do_put(req, &path),
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
    fn prefix_is_stripped() {
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"x"));
        let h = StorageHandler::new(
            store,
            StorageOptions { prefix: "/dpm".to_string(), ..Default::default() },
        );
        assert_eq!(h.handle(request(Method::Get, "/dpm/f", &[])).status, StatusCode::OK);
        assert_eq!(h.handle(request(Method::Get, "/other/f", &[])).status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn too_many_ranges_rejected() {
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from(vec![0u8; 100_000]));
        let h = StorageHandler::new(store, StorageOptions { max_ranges: 4, ..Default::default() });
        let ranges: Vec<String> = (0..5).map(|i| format!("{}-{}", i * 10, i * 10 + 1)).collect();
        let header = format!("bytes={}", ranges.join(","));
        let r = h.handle(request(Method::Get, "/f", &[("Range", &header)]));
        assert_eq!(r.status, StatusCode::BAD_REQUEST);
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
            assert!(r.headers.contains("etag"));
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
        assert_eq!(h.store.get("/up/obj.bin").unwrap().data.as_ref(), b"hello world");
    }

    #[test]
    fn s3_multipart_digest_mismatch_conflicts_and_commits_nothing() {
        let h = handler_with(RangeSupport::MultiRange);
        let id = initiate(&h, "/up/bad.bin");
        let mut req = request(Method::Put, &format!("/up/bad.bin?uploadId={id}&partNumber=1"), &[]);
        req.body = b"corrupted".to_vec();
        assert_eq!(h.handle(req).status, StatusCode::OK);
        let mut req = request(
            Method::Post,
            &format!("/up/bad.bin?uploadId={id}"),
            &[("Digest", &format!("adler32={}", to_hex(adler32(b"pristine"))))],
        );
        req.body = complete_xml(&[1]);
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

    #[test]
    fn move_respects_namespace_prefix() {
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"x"));
        let h = StorageHandler::new(
            store,
            StorageOptions { prefix: "/dpm".to_string(), ..Default::default() },
        );
        let r = h.handle(request(Method::Move, "/dpm/f", &[("Destination", "/dpm/g")]));
        assert_eq!(r.status, StatusCode::CREATED);
        assert!(h.store.exists("/g"));
        // Destination outside the prefix = cross-server → 502.
        h.store.put("/h", Bytes::from_static(b"y"));
        let r = h.handle(request(Method::Move, "/dpm/h", &[("Destination", "/elsewhere/h")]));
        assert_eq!(r.status, StatusCode::BAD_GATEWAY);
    }
}
