//! Multi-stream **uploads**: the write-side mirror of
//! [`multistream`](crate::multistream) (GridFTP-style parallel transfer,
//! Allcock et al.; dataset-to-object-store mapping, Chu et al.).
//!
//! [`multistream_upload`] splits a [`ChunkSource`] into
//! [`UploadOptions::chunk_size`] segments and PUTs them in parallel across
//! [`UploadOptions::streams`] workers (4 × 4 MiB unless set: the
//! streams × block-size geometry is a property of one transfer), then
//! commits the assembled entity in one atomic step — only after an
//! **end-to-end checksum check**:
//!
//! * against an S3-flavoured object store, via the classic
//!   initiate / part / complete dance (`?uploads`, `?uploadId&partNumber`,
//!   completion `POST` carrying the client's `Digest: adler32=…`, which the
//!   server verifies **before** materializing the object);
//! * against a plain WebDAV server, via segmented `Content-Range` PUTs to
//!   a temporary name, a `HEAD` digest comparison, and a final `MOVE` over
//!   the destination — readers never observe a partial object.
//!
//! Memory stays bounded: each worker holds at most one chunk, so resident
//! upload buffers never exceed `chunk_size × streams` (the chunk engine's
//! [`Metrics::peak_chunk_buffer`] high-water mark, which downloads share)
//! — the whole object is **never** buffered, however large. Each worker
//! digests its chunk in one [`crc32_adler32`] pass while the chunk is
//! still hot, and the chunk engine folds the digests in chunk order with
//! [`Digests::append`](ioapi::checksum::Digests::append), so checksumming
//! is as parallel as the transfer itself. A download runs the same engine
//! the other way: a [`ChunkSink`] takes each chunk at its offset.

use crate::client::DavixClient;
use crate::error::{DavixError, Result};
use crate::executor::{HttpExecutor, PreparedRequest};
use crate::iopool::{run_chunked, Chunk, Outcome};
use crate::metrics::Metrics;
use bytes::Bytes;
use davix_sync::{AtomicU64, Ordering};
use httpwire::{ContentRange, Method, StatusCode, Uri};
use ioapi::checksum::{adler32, crc32_adler32, to_hex};
use metalink::xml::Element;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, PoisonError};

/// Parallel chunk workers when [`UploadOptions::streams`] is `None`.
const DEFAULT_STREAMS: usize = 4;

/// Chunk size when [`UploadOptions::chunk_size`] is `None`.
const DEFAULT_CHUNK_SIZE: usize = 4 * 1024 * 1024;

/// Random-access source of upload data. Chunk workers read disjoint
/// windows concurrently, so implementations must be thread-safe and
/// re-readable (a retried chunk is read again).
pub trait ChunkSource: Send + Sync {
    /// Total size of the entity, in bytes.
    fn size(&self) -> u64;
    /// Fill `buf` with the bytes at `offset` (exactly `buf.len()` of them —
    /// callers never ask beyond [`size`](ChunkSource::size)).
    fn read_chunk(&self, offset: u64, buf: &mut [u8]) -> Result<()>;
}

/// In-memory sources are trivially random-access.
impl ChunkSource for Bytes {
    fn size(&self) -> u64 {
        self.len() as u64
    }

    fn read_chunk(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let start = offset as usize;
        let end = start.checked_add(buf.len()).filter(|&e| e <= self.len()).ok_or_else(|| {
            DavixError::InvalidArgument(format!(
                "chunk {offset}+{} beyond source size {}",
                buf.len(),
                self.len()
            ))
        })?;
        buf.copy_from_slice(&self.as_ref()[start..end]);
        Ok(())
    }
}

/// Random-access destination of download data, the mirror of
/// [`ChunkSource`]. Chunk workers write disjoint windows concurrently, each
/// chunk once it is whole, so implementations must be thread-safe.
pub trait ChunkSink: Send + Sync {
    /// Write `data` at `offset`.
    fn write_chunk(&self, offset: u64, data: &[u8]) -> Result<()>;
}

/// A file takes each chunk at its offset (`pwrite(2)`), with no lock.
impl ChunkSink for std::fs::File {
    fn write_chunk(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.write_all_at(data, offset).map_err(DavixError::from)
    }
}

/// An in-memory entity grows to take a chunk that lands past its end.
impl ChunkSink for std::sync::Mutex<Vec<u8>> {
    fn write_chunk(&self, offset: u64, data: &[u8]) -> Result<()> {
        let mut buf = self.lock().unwrap_or_else(PoisonError::into_inner);
        let (start, end) = (offset as usize, offset as usize + data.len());
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[start..end].copy_from_slice(data);
        Ok(())
    }
}

/// A local file as an upload source: chunk workers open independent read
/// handles, so no lock is held across disk I/O, and the streaming
/// [`BodyProvider`](crate::BodyProvider) side re-opens the file per attempt
/// (replayable across retries and redirects).
pub struct FileSource {
    path: PathBuf,
    size: u64,
}

impl FileSource {
    /// Stat `path` and wrap it as a source.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<FileSource> {
        let path = path.as_ref().to_path_buf();
        let size = std::fs::metadata(&path)?.len();
        Ok(FileSource { path, size })
    }
}

impl ChunkSource for FileSource {
    fn size(&self) -> u64 {
        self.size
    }

    fn read_chunk(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut f = std::fs::File::open(&self.path).map_err(DavixError::from)?;
        f.seek(SeekFrom::Start(offset)).map_err(DavixError::from)?;
        f.read_exact(buf).map_err(|e| {
            DavixError::InvalidArgument(format!(
                "{}: file ended inside chunk {offset}+{} ({e})",
                self.path.display(),
                buf.len()
            ))
        })
    }
}

impl crate::executor::BodyProvider for FileSource {
    fn content_length(&self) -> Option<u64> {
        Some(self.size)
    }

    fn open(&self) -> Result<httpwire::BodySource<'_>> {
        let f = std::fs::File::open(&self.path).map_err(DavixError::from)?;
        Ok(httpwire::BodySource::sized(f, self.size))
    }
}

/// Which server dialect carries the parallel upload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadProtocol {
    /// Probe for S3-style multipart first (`POST ?uploads`); fall back to
    /// segmented `Content-Range` PUTs + `MOVE` when the server refuses.
    Auto,
    /// S3-style initiate / part / complete.
    S3Multipart,
    /// Segmented ranged PUTs to a temporary name, committed with `MOVE`.
    SegmentedPut,
}

/// Tuning for [`multistream_upload`].
#[derive(Debug, Clone)]
pub struct UploadOptions {
    /// Parallel chunk workers; `None` means 4.
    pub streams: Option<usize>,
    /// Chunk size in bytes; `None` means 4 MiB. At most
    /// `chunk_size × streams` bytes of the source are in memory at once.
    pub chunk_size: Option<usize>,
    /// Give up after this many total chunk failures.
    pub max_chunk_failures: usize,
    /// Server dialect (see [`UploadProtocol`]).
    pub protocol: UploadProtocol,
}

impl Default for UploadOptions {
    fn default() -> Self {
        UploadOptions {
            streams: None,
            chunk_size: None,
            max_chunk_failures: 16,
            protocol: UploadProtocol::Auto,
        }
    }
}

/// What a finished [`multistream_upload`] did.
#[derive(Debug, Clone)]
pub struct UploadReport {
    /// Payload bytes committed.
    pub bytes: u64,
    /// Chunks the entity was split into.
    pub chunks: usize,
    /// Chunk attempts that failed and were requeued onto another worker
    /// pass (transport faults surviving the executor's own retries).
    pub chunk_retries: u64,
    /// The dialect actually used ([`UploadProtocol::Auto`] resolves to one
    /// of the concrete two). An empty source degenerates to one plain PUT
    /// and echoes the requested protocol unchanged.
    pub protocol: UploadProtocol,
    /// Adler-32 of the whole entity, folded from the per-chunk digests.
    pub adler32: u32,
    /// Whether the server confirmed the digest end-to-end before the
    /// commit. `false` only for segmented uploads against a server that
    /// advertises no `Digest` header (there is nothing to compare).
    pub verified: bool,
}

/// Process-unique discriminator for segmented-upload temp names.
static UPLOAD_TOKEN: AtomicU64 = AtomicU64::new(0);

/// Where the chunks of one upload go.
enum Target {
    S3 { base: Uri, upload_id: String },
    Segmented { temp: Uri, total: u64 },
}

impl Target {
    fn chunk_request(&self, Chunk { idx, off, len }: Chunk) -> PreparedRequest {
        match self {
            Target::S3 { base, upload_id } => {
                let mut uri = base.clone();
                uri.query = Some(format!("uploadId={upload_id}&partNumber={}", idx + 1));
                PreparedRequest::new(Method::Put, uri)
            }
            Target::Segmented { temp, total } => {
                let cr =
                    ContentRange { first: off, last: off + len as u64 - 1, total: Some(*total) };
                PreparedRequest::new(Method::Put, temp.clone())
                    .header("Content-Range", cr.to_string())
            }
        }
    }

    /// Best-effort cleanup of whatever the upload left on the server.
    fn abort(&self, ex: &HttpExecutor) {
        let req = match self {
            Target::S3 { base, upload_id } => {
                let mut uri = base.clone();
                uri.query = Some(format!("uploadId={upload_id}"));
                PreparedRequest::new(Method::Delete, uri)
            }
            Target::Segmented { temp, .. } => PreparedRequest::new(Method::Delete, temp.clone()),
        };
        let _ = ex.execute(&req);
    }
}

/// Upload `source` to `url` as parallel chunks, verify the assembled
/// entity's checksum end-to-end, and commit atomically. See the module
/// docs for the two server dialects; the destination must exist only after
/// a *verified* commit — on any failure (including a digest mismatch) the
/// upload is aborted and the destination is left untouched.
pub fn multistream_upload(
    client: &DavixClient,
    url: &str,
    source: Arc<dyn ChunkSource>,
    opts: &UploadOptions,
) -> Result<UploadReport> {
    let uri = client.parse_url(url)?;
    let streams = opts.streams.unwrap_or(DEFAULT_STREAMS);
    let chunk_size = opts.chunk_size.unwrap_or(DEFAULT_CHUNK_SIZE);
    if streams == 0 || chunk_size == 0 {
        return Err(DavixError::InvalidArgument(
            "upload streams and chunk_size must be > 0".to_string(),
        ));
    }
    let size = source.size();
    let ex = &client.inner.executor;

    if size == 0 {
        // Nothing to parallelize: one plain empty PUT commits an empty
        // object — no chunk dialect is involved, so the report echoes the
        // *requested* protocol and `verified` reflects an after-the-fact
        // digest check (when the server offers one) rather than a commit
        // gate.
        ex.execute_expect(&PreparedRequest::put(uri.clone(), Bytes::new()), "put empty")?;
        let verified = ex
            .execute(&PreparedRequest::head(uri))
            .ok()
            .filter(|r| r.head.status.is_success())
            .and_then(|r| r.head.headers.digest_adler32())
            .is_some_and(|got| got == to_hex(adler32(b"")));
        return Ok(UploadReport {
            bytes: 0,
            chunks: 0,
            chunk_retries: 0,
            protocol: opts.protocol,
            adler32: adler32(b""),
            verified,
        });
    }

    let target = Arc::new(resolve_target(ex, &uri, size, opts.protocol)?);

    // The engine returns only once no chunk PUT is in flight. That ordering
    // matters for the abort below: a late segment landing after the abort's
    // DELETE would silently re-create staging state on the server with
    // nobody left to clean it up.
    let transfer = run_chunked(
        &client.inner.io_pool,
        ex.metrics(),
        size,
        chunk_size,
        streams,
        opts.max_chunk_failures,
        |_| upload_worker(client.clone(), Arc::clone(&source), Arc::clone(&target)),
    );
    let (chunks, (_, combined), failures) = match transfer {
        Ok(done) => done,
        Err(e) => {
            target.abort(ex);
            return Err(e);
        }
    };

    let n_chunks = chunks.len();
    let verified = match commit(ex, &uri, &target, size, combined, n_chunks) {
        Ok(v) => v,
        Err(e) => {
            // No commit on any failure — including a checksum mismatch:
            // tear the staging state down and leave the destination alone.
            target.abort(ex);
            return Err(e);
        }
    };
    Ok(UploadReport {
        bytes: size,
        chunks: n_chunks,
        chunk_retries: failures as u64,
        protocol: match *target {
            Target::S3 { .. } => UploadProtocol::S3Multipart,
            Target::Segmented { .. } => UploadProtocol::SegmentedPut,
        },
        adler32: combined,
        verified,
    })
}

/// Pick the server dialect: initiate S3 multipart, or set up the segmented
/// temp name (probing first under [`UploadProtocol::Auto`]).
fn resolve_target(
    ex: &HttpExecutor,
    uri: &Uri,
    size: u64,
    protocol: UploadProtocol,
) -> Result<Target> {
    let initiate = |required: bool| -> Result<Option<Target>> {
        let mut initiate_uri = uri.clone();
        initiate_uri.query = Some("uploads".to_string());
        let resp = ex.execute(&PreparedRequest::new(Method::Post, initiate_uri));
        match resp {
            Ok(resp) if resp.head.status.is_success() => {
                let text = String::from_utf8_lossy(&resp.body);
                let id = metalink::xml::parse(&text)
                    .ok()
                    .and_then(|doc| doc.find("UploadId").map(|e| e.text().trim().to_string()))
                    .filter(|id| !id.is_empty())
                    .ok_or_else(|| {
                        DavixError::Protocol(format!(
                            "{uri}: multipart initiate answered without an UploadId"
                        ))
                    })?;
                Ok(Some(Target::S3 { base: uri.clone(), upload_id: id }))
            }
            Ok(resp) if !required => {
                let _ = resp; // the server does not speak multipart
                Ok(None)
            }
            Ok(resp) => Err(DavixError::from_status(
                resp.head.status,
                format!("initiate multipart upload {uri}"),
            )),
            Err(e) if !required && !e.is_retryable() => Ok(None),
            Err(e) => Err(e),
        }
    };
    match protocol {
        UploadProtocol::S3Multipart => Ok(initiate(true)?.expect("required initiate returns")),
        UploadProtocol::Auto => {
            if let Some(t) = initiate(false)? {
                return Ok(t);
            }
            Ok(segmented_target(uri, size))
        }
        UploadProtocol::SegmentedPut => Ok(segmented_target(uri, size)),
    }
}

fn segmented_target(uri: &Uri, size: u64) -> Target {
    let token = UPLOAD_TOKEN.fetch_add(1, Ordering::Relaxed);
    // Fixed-width fields keep the temp name's *length* independent of the
    // pid and token values: under simulation, request sizes (and therefore
    // virtual-time schedules) must not vary from process to process.
    let temp = uri.with_path(&format!(
        "{}.davix-upload-{:08x}-{:08x}",
        uri.path,
        std::process::id(),
        token
    ));
    Target::Segmented { temp, total: size }
}

/// The post-transfer commit step; returns whether the server confirmed the
/// digest. Failing (or mismatching) commits return an error and leave the
/// destination untouched — the caller aborts the staging state.
fn commit(
    ex: &HttpExecutor,
    uri: &Uri,
    target: &Target,
    size: u64,
    combined: u32,
    n_chunks: usize,
) -> Result<bool> {
    let declared = to_hex(combined);
    match target {
        Target::S3 { base, upload_id } => {
            let mut complete_uri = base.clone();
            complete_uri.query = Some(format!("uploadId={upload_id}"));
            let mut root = Element::new("CompleteMultipartUpload");
            for n in 1..=n_chunks {
                let mut part = Element::new("Part");
                let mut num = Element::new("PartNumber");
                num.add_text(n.to_string());
                part.add_child(num);
                root.add_child(part);
            }
            let mut req = PreparedRequest::new(Method::Post, complete_uri)
                .header("Digest", format!("adler32={declared}"));
            req.body = Some(Bytes::from(root.to_xml().into_bytes()));
            let resp = ex.execute(&req)?;
            if resp.head.status == StatusCode::CONFLICT {
                return Err(DavixError::ChecksumMismatch {
                    algo: "adler32".to_string(),
                    expected: declared,
                    got: resp
                        .head
                        .headers
                        .digest_adler32()
                        .unwrap_or_else(|| "unknown".to_string()),
                });
            }
            resp.expect_success("complete multipart upload")?;
            Ok(true)
        }
        Target::Segmented { temp, .. } => {
            // Verify the assembled temp entity before exposing it.
            let head =
                ex.execute_expect(&PreparedRequest::head(temp.clone()), "verify staged upload")?;
            match head.head.headers.content_length()? {
                Some(n) if n == size => {}
                n => {
                    return Err(DavixError::Protocol(format!(
                        "{temp}: staged upload is {n:?} bytes, expected {size}"
                    )))
                }
            }
            let verified = match head.head.headers.digest_adler32() {
                Some(got) if got == declared => true,
                Some(got) => {
                    return Err(DavixError::ChecksumMismatch {
                        algo: "adler32".to_string(),
                        expected: declared,
                        got,
                    })
                }
                None => false, // server offers no digest: nothing to compare
            };
            let mv = PreparedRequest::new(Method::Move, temp.clone())
                .header("Destination", uri.to_string())
                .header("Overwrite", "T");
            ex.execute_expect(&mv, "commit staged upload")?;
            Ok(verified)
        }
    }
}

/// The per-chunk work of one upload stream: read the chunk from the
/// source, digest it, PUT it.
fn upload_worker(
    client: DavixClient,
    source: Arc<dyn ChunkSource>,
    target: Arc<Target>,
) -> impl FnMut(Chunk) -> Outcome<Chunk, ((u32, u32), ())> {
    move |chunk| {
        let mut buf = vec![0u8; chunk.len];
        if let Err(e) = source.read_chunk(chunk.off, &mut buf) {
            // A source that cannot be read is fatal, not retryable: every
            // replay would fail identically.
            return Outcome::Fatal(e);
        }
        let digest = crc32_adler32(&buf);
        let body = Bytes::from(buf);
        let outcome = client
            .inner
            .executor
            .execute_upload(&target.chunk_request(chunk), &body)
            .and_then(|r| r.expect_success("upload chunk"));
        match outcome {
            Ok(_) => {
                Metrics::bump(&client.inner.executor.metrics().chunks_uploaded);
                Outcome::Done((digest, ()))
            }
            // The executor already spent its retry budget on this chunk;
            // give it back so any worker (on a fresh connection) can try
            // again, within the upload-wide failure budget.
            Err(e) => Outcome::Retry(chunk, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Config;
    use httpd::ServerConfig;
    use netsim::{LinkSpec, SimNet};
    use objstore::{ObjectStore, StorageNode, StorageOptions};
    use std::time::Duration;

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 13 + i / 4099) % 251) as u8).collect()
    }

    fn setup() -> (SimNet, DavixClient, Arc<ObjectStore>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(2), ..Default::default() });
        let store = Arc::new(ObjectStore::new());
        StorageNode::start(
            Arc::clone(&store),
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default());
        (net, client, store)
    }

    fn small_chunks(protocol: UploadProtocol) -> UploadOptions {
        UploadOptions {
            streams: Some(3),
            chunk_size: Some(64 * 1024),
            protocol,
            ..Default::default()
        }
    }

    #[test]
    fn multistream_upload_s3_roundtrip() {
        let (net, client, store) = setup();
        let _g = net.enter();
        let data = payload(1_000_000);
        let report = multistream_upload(
            &client,
            "http://s/up/s3.bin",
            Arc::new(Bytes::from(data.clone())),
            &small_chunks(UploadProtocol::S3Multipart),
        )
        .unwrap();
        assert_eq!(report.protocol, UploadProtocol::S3Multipart);
        assert_eq!(report.bytes, data.len() as u64);
        assert_eq!(report.chunks, 16);
        assert!(report.verified);
        assert_eq!(report.adler32, adler32(&data));
        let meta = store.get("/up/s3.bin").unwrap();
        assert_eq!(meta.data.as_ref(), &data[..]);
        let m = client.metrics();
        assert_eq!(m.chunks_uploaded, 16);
        assert!(m.peak_chunk_buffer <= 3 * 64 * 1024, "buffer must stay bounded");
    }

    #[test]
    fn multistream_upload_segmented_roundtrip() {
        let (net, client, store) = setup();
        let _g = net.enter();
        let data = payload(777_777); // deliberately not chunk-aligned
        let report = multistream_upload(
            &client,
            "http://s/up/seg.bin",
            Arc::new(Bytes::from(data.clone())),
            &small_chunks(UploadProtocol::SegmentedPut),
        )
        .unwrap();
        assert_eq!(report.protocol, UploadProtocol::SegmentedPut);
        assert!(report.verified, "our node advertises Digest: the commit must verify it");
        assert_eq!(store.get("/up/seg.bin").unwrap().data.as_ref(), &data[..]);
        // No staging debris: the temp object was MOVEd, not copied.
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn auto_protocol_prefers_s3_and_falls_back_to_segments() {
        let (net, client, store) = setup();
        let _g = net.enter();
        let data = payload(300_000);
        let report = multistream_upload(
            &client,
            "http://s/auto.bin",
            Arc::new(Bytes::from(data.clone())),
            &small_chunks(UploadProtocol::Auto),
        )
        .unwrap();
        assert_eq!(report.protocol, UploadProtocol::S3Multipart, "objstore speaks multipart");
        assert_eq!(store.get("/auto.bin").unwrap().data.as_ref(), &data[..]);

        // Against a plain server with no multipart support, Auto degrades
        // to the segmented dialect.
        let net2 = SimNet::new();
        net2.add_host("c");
        net2.add_host("w");
        net2.set_link("c", "w", LinkSpec { delay: Duration::from_millis(2), ..Default::default() });
        let store2 = Arc::new(ObjectStore::new());
        // A router that 405s the multipart endpoints but forwards the rest.
        let inner =
            Arc::new(objstore::StorageHandler::new(Arc::clone(&store2), StorageOptions::default()));
        let gate = Arc::new(move |req: httpd::Request| {
            if req.head.method == Method::Post {
                return httpd::Response::error(StatusCode::METHOD_NOT_ALLOWED);
            }
            httpd::Handler::handle(inner.as_ref(), req)
        });
        httpd::HttpServer::new(gate, ServerConfig::default())
            .serve(Box::new(net2.bind("w", 80).unwrap()), net2.runtime());
        let _g2 = net2.enter();
        let client2 = DavixClient::new(net2.connector("c"), net2.runtime(), Config::default());
        let report = multistream_upload(
            &client2,
            "http://w/fallback.bin",
            Arc::new(Bytes::from(data.clone())),
            &small_chunks(UploadProtocol::Auto),
        )
        .unwrap();
        assert_eq!(report.protocol, UploadProtocol::SegmentedPut);
        assert_eq!(store2.get("/fallback.bin").unwrap().data.as_ref(), &data[..]);
    }

    #[test]
    fn empty_source_commits_an_empty_object() {
        let (net, client, store) = setup();
        let _g = net.enter();
        let report = multistream_upload(
            &client,
            "http://s/empty",
            Arc::new(Bytes::new()),
            &UploadOptions::default(),
        )
        .unwrap();
        assert_eq!(report.chunks, 0);
        assert!(store.get("/empty").unwrap().data.is_empty());
    }

    #[test]
    fn dead_server_fails_without_commit() {
        let (net, client, store) = setup();
        net.set_host_down("s", true);
        let _g = net.enter();
        let err = multistream_upload(
            &client,
            "http://s/never.bin",
            Arc::new(Bytes::from(payload(100_000))),
            &UploadOptions { max_chunk_failures: 2, ..small_chunks(UploadProtocol::SegmentedPut) },
        )
        .unwrap_err();
        assert!(err.is_retryable() || matches!(err, DavixError::Connection(_)), "{err}");
        assert!(store.is_empty());
    }

    #[test]
    fn short_source_is_fatal_and_aborts() {
        let (net, client, store) = setup();
        let _g = net.enter();
        struct Lying;
        impl ChunkSource for Lying {
            fn size(&self) -> u64 {
                1_000_000
            }
            fn read_chunk(&self, offset: u64, _buf: &mut [u8]) -> Result<()> {
                Err(DavixError::InvalidArgument(format!("no bytes at {offset}")))
            }
        }
        let err = multistream_upload(
            &client,
            "http://s/liar.bin",
            Arc::new(Lying),
            &small_chunks(UploadProtocol::S3Multipart),
        )
        .unwrap_err();
        assert!(matches!(err, DavixError::InvalidArgument(_)));
        assert!(store.is_empty(), "nothing may be committed");
    }
}
