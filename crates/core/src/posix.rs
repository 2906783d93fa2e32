//! POSIX-flavoured namespace API, mirroring libdavix's `DavPosix`
//! (`stat` / `opendir` / `mkdir` / `unlink` / whole-object get & put).

use crate::client::ClientInner;
use crate::error::{DavixError, Result};
use crate::executor::{BodyProvider, PreparedRequest};
use crate::file::copy_body;
use crate::pool::Endpoint;
use httpwire::uri::percent_decode;
use httpwire::{Method, StatusCode, Uri};
use std::io::{self, Write};
use std::sync::Arc;

/// Stat result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStat {
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether the entry is a directory/collection.
    pub is_dir: bool,
    /// ETag when the server provided one.
    pub etag: Option<String>,
}

/// One directory entry from [`DavPosix::opendir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name (last path segment).
    pub name: String,
    /// Whether it is a collection.
    pub is_dir: bool,
    /// Size in bytes (0 for collections).
    pub size: u64,
}

/// Normalize a PROPFIND `href` to a decoded absolute path: strip a
/// `scheme://authority` prefix when the server answered with absolute
/// URIs, drop any query, and percent-decode the rest. WebDAV hrefs are
/// URIs, so raw comparison against a decoded request path (or deriving an
/// entry name from the encoded form) gets both wrong for any name with
/// spaces or non-ASCII.
fn href_path(href: &str) -> String {
    let raw = match href.find("://") {
        Some(i) => {
            let after_authority = &href[i + 3..];
            match after_authority.find('/') {
                Some(j) => &after_authority[j..],
                None => "/",
            }
        }
        None => href,
    };
    let raw = raw.split('?').next().unwrap_or(raw);
    percent_decode(raw)
}

/// POSIX-like façade over the executor.
pub struct DavPosix {
    inner: Arc<ClientInner>,
}

impl DavPosix {
    pub(crate) fn new(inner: Arc<ClientInner>) -> DavPosix {
        DavPosix { inner }
    }

    fn uri(&self, url: &str) -> Result<Uri> {
        url.parse().map_err(DavixError::from)
    }

    /// Stat a remote path (HEAD; falls back to PROPFIND depth 0 for
    /// directories, which HEAD reports as 403).
    ///
    /// A `2xx` HEAD **without** `Content-Length` (some gateways omit it
    /// for dynamically served objects) is not trusted to mean "empty
    /// file": the size is discovered through a 1-byte ranged GET (whose
    /// `206 Content-Range` carries the total) and, failing that, a
    /// PROPFIND `getcontentlength`. The ETag is surfaced from whichever
    /// response provided one — the block cache uses it as a validator in
    /// its keys.
    pub fn stat(&self, url: &str) -> Result<FileStat> {
        let uri = self.uri(url)?;
        let resp = self.inner.executor.execute(&PreparedRequest::head(uri.clone()))?;
        match resp.head.status {
            s if s.is_success() => {
                let etag = resp.head.headers.get("etag").map(str::to_string);
                if let Some(size) = resp.head.headers.content_length()? {
                    return Ok(FileStat { size, is_dir: false, etag });
                }
                self.stat_sizeless(url, resp.final_uri, etag)
            }
            StatusCode::FORBIDDEN => {
                // Probably a directory; confirm via PROPFIND depth 0.
                let req = PreparedRequest::new(Method::Propfind, uri).header("Depth", "0");
                let resp = self.inner.executor.execute_expect(&req, "stat dir")?;
                let _ = resp;
                Ok(FileStat { size: 0, is_dir: true, etag: None })
            }
            s => Err(DavixError::from_status(s, format!("stat {url}"))),
        }
    }

    /// Size discovery for a resource whose HEAD omitted `Content-Length`:
    /// ranged-GET probe first, PROPFIND second.
    fn stat_sizeless(&self, url: &str, uri: Uri, head_etag: Option<String>) -> Result<FileStat> {
        match crate::file::probe_size(&self.inner, &uri) {
            Ok((size, probe_etag, _)) => {
                return Ok(FileStat { size, is_dir: false, etag: head_etag.or(probe_etag) });
            }
            Err(e) if !e.is_retryable() => {
                // A server that rejects the probe outright may still answer
                // PROPFIND below; a transport-level failure would too, but
                // retrying a flapping server through a second protocol
                // hides real faults — propagate those.
            }
            Err(e) => return Err(e),
        }
        let req = PreparedRequest::new(Method::Propfind, uri).header("Depth", "0");
        let resp = self.inner.executor.execute_expect(&req, format!("stat {url}").as_str())?;
        let text = String::from_utf8_lossy(&resp.body);
        let doc = metalink::xml::parse(&text)
            .map_err(|e| DavixError::Protocol(format!("bad PROPFIND body: {e}")))?;
        let size = doc
            .find_all("response")
            .next()
            .and_then(|r| r.find("propstat"))
            .and_then(|ps| ps.find("prop"))
            .and_then(|p| p.find("getcontentlength"))
            .and_then(|l| l.text().trim().parse().ok())
            .ok_or_else(|| {
                DavixError::Protocol(format!(
                    "stat {url}: no Content-Length on HEAD, no usable size probe, no \
                     getcontentlength in PROPFIND"
                ))
            })?;
        Ok(FileStat { size, is_dir: false, etag: head_etag })
    }

    /// List a directory (PROPFIND depth 1).
    ///
    /// PROPFIND `href`s arrive as URIs (RFC 4918 §8.3): percent-encoded,
    /// and — on some servers — absolute (`http://host/path`). Each one is
    /// normalized (authority stripped, query dropped, percent-decoded)
    /// before it is compared against the request path (to drop the
    /// collection's own entry) or used to derive the entry name, so names
    /// with spaces/UTF-8 come back *decoded* and the self-entry skip works
    /// regardless of how the server spells its hrefs.
    pub fn opendir(&self, url: &str) -> Result<Vec<DirEntry>> {
        let uri = self.uri(url)?;
        let base_path = uri.decoded_path();
        let req = PreparedRequest::new(Method::Propfind, uri).header("Depth", "1");
        let resp = self.inner.executor.execute_expect(&req, "opendir")?;
        let text = String::from_utf8_lossy(&resp.body);
        let doc = metalink::xml::parse(&text)
            .map_err(|e| DavixError::Protocol(format!("bad PROPFIND body: {e}")))?;
        let mut entries = Vec::new();
        for r in doc.find_all("response") {
            let href = r
                .find("href")
                .map(|h| h.text())
                .ok_or_else(|| DavixError::Protocol("response without href".to_string()))?;
            let href = href_path(href.trim());
            let href = href.trim_end_matches('/');
            // Skip the directory itself.
            if href == base_path.trim_end_matches('/') {
                continue;
            }
            let name = href.rsplit('/').next().unwrap_or(href).to_string();
            let prop = r.find("propstat").and_then(|ps| ps.find("prop"));
            let is_dir = prop
                .and_then(|p| p.find("resourcetype"))
                .map(|rt| rt.find("collection").is_some())
                .unwrap_or(false);
            let size = prop
                .and_then(|p| p.find("getcontentlength"))
                .and_then(|l| l.text().trim().parse().ok())
                .unwrap_or(0);
            entries.push(DirEntry { name, is_dir, size });
        }
        Ok(entries)
    }

    /// Create a directory (MKCOL).
    pub fn mkdir(&self, url: &str) -> Result<()> {
        let uri = self.uri(url)?;
        self.inner
            .executor
            .execute_expect(&PreparedRequest::new(Method::Mkcol, uri), "mkdir")
            .map(|_| ())
    }

    /// Delete an object (DELETE).
    pub fn unlink(&self, url: &str) -> Result<()> {
        let uri = self.uri(url)?;
        self.inner
            .executor
            .execute_expect(&PreparedRequest::new(Method::Delete, uri), "unlink")
            .map(|_| ())
    }

    /// Fetch a whole object.
    pub fn get(&self, url: &str) -> Result<Vec<u8>> {
        let uri = self.uri(url)?;
        Ok(self.inner.executor.execute_expect(&PreparedRequest::get(uri), "get")?.body)
    }

    /// Fetch a whole object into `sink`, streamed: nothing proportional to
    /// the object is held in memory. A reset or stall mid-body sends the
    /// GET again within the same retry budget as [`get`](Self::get); the
    /// new body is read past the bytes `sink` already holds, and refused
    /// if its ETag or length differs from the first one's. Returns the
    /// bytes written. An error from `sink` ends the download at once.
    pub fn get_into(&self, url: &str, sink: &mut dyn Write) -> io::Result<u64> {
        let req = PreparedRequest::get(self.uri(url)?);
        let (mut written, mut first) = (0u64, None);
        self.inner
            .executor
            .with_retries(&req, None, |stream| {
                let mut stream = stream.expect_success("get")?;
                let head = &stream.head().headers;
                let entity = (head.get("etag").map(str::to_owned), head.content_length()?);
                if *first.get_or_insert_with(|| entity.clone()) != entity {
                    return Err(DavixError::Protocol(format!("{url} changed between attempts")));
                }
                copy_body(&mut stream, &mut written, sink, url)
            })?
            .map(|()| written)
    }

    /// Store a whole object (PUT), buffered in memory. For large objects
    /// prefer [`put_stream`](Self::put_stream) (bounded memory) or
    /// [`multistream_upload`](crate::multistream_upload) (parallel chunks).
    pub fn put(&self, url: &str, data: impl Into<bytes::Bytes>) -> Result<()> {
        let uri = self.uri(url)?;
        self.inner
            .executor
            .execute_expect(&PreparedRequest::put(uri, data.into()), "put")
            .map(|_| ())
    }

    /// Store an object by **streaming** its body from `body` — nothing
    /// proportional to the object is buffered client-side. Known-length
    /// providers travel as `Content-Length`, unknown-length ones as
    /// chunked transfer encoding; large bodies negotiate
    /// `Expect: 100-continue` so a rejecting server never receives the
    /// payload, and the body is replayed (a fresh reader per attempt)
    /// across retries and redirects.
    pub fn put_stream(&self, url: &str, body: &dyn BodyProvider) -> Result<()> {
        let uri = self.uri(url)?;
        let req = PreparedRequest::new(Method::Put, uri);
        self.inner
            .executor
            .execute_upload(&req, body)?
            .expect_success(&format!("put {url}"))
            .map(|_| ())
    }

    /// Rename an object (WebDAV MOVE, RFC 4918 §9.9 — `davix-mv`). Both
    /// URLs must point at the same server; the destination is passed in the
    /// `Destination` header.
    ///
    /// "Same server" is judged on the normalized [`Endpoint`] — case-folded
    /// scheme and host plus the *effective* port — so `HTTP://Host/x` →
    /// `http://host:80/y` is a legal rename, while a scheme change
    /// (`http` → `https`) is rejected even when host and port agree.
    pub fn rename(&self, from_url: &str, to_url: &str) -> Result<()> {
        let from = self.uri(from_url)?;
        let to = self.uri(to_url)?;
        if Endpoint::of(&from) != Endpoint::of(&to) {
            return Err(DavixError::InvalidArgument(format!(
                "rename cannot cross servers ({} -> {})",
                Endpoint::of(&from),
                Endpoint::of(&to)
            )));
        }
        let req = PreparedRequest::new(Method::Move, from).header("Destination", to.to_string());
        self.inner.executor.execute_expect(&req, "rename").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Config, DavixClient};
    use bytes::Bytes;
    use httpd::{HttpServer, Request, Response, ServerConfig};
    use httpwire::uri::percent_encode_path;
    use netsim::{LinkSpec, SimNet};
    use objstore::{ObjectStore, StorageNode, StorageOptions};
    use std::time::Duration;

    fn setup() -> (SimNet, DavixClient, Arc<ObjectStore>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
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

    /// Regression (PR 5): the server percent-encodes PROPFIND hrefs, so a
    /// directory with spaces/UTF-8 in its path used to (a) fail the
    /// self-entry skip — the encoded href never matched the decoded base
    /// path — and (b) return percent-encoded entry names.
    #[test]
    fn opendir_decodes_names_and_skips_self_for_encoded_paths() {
        let (net, client, store) = setup();
        store.put("/run 2014/dä ta.root", Bytes::from_static(b"xxxx"));
        store.put("/run 2014/plain.root", Bytes::from_static(b"yy"));
        let _g = net.enter();
        let url = format!("http://s{}", percent_encode_path("/run 2014"));
        let mut entries = client.posix().opendir(&url).unwrap();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["dä ta.root", "plain.root"], "decoded names, no self entry");
        assert_eq!(entries[0].size, 4);
    }

    /// Servers answering PROPFIND with *absolute-URL* hrefs (legal per
    /// RFC 4918 §8.3) must get the same treatment: authority stripped,
    /// self entry dropped, names decoded.
    #[test]
    fn opendir_normalizes_absolute_url_hrefs() {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
        let xml = concat!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
            "<D:multistatus xmlns:D=\"DAV:\">",
            "<D:response><D:href>http://s/depot/run%202014/</D:href>",
            "<D:propstat><D:prop><D:resourcetype><D:collection/></D:resourcetype>",
            "</D:prop></D:propstat></D:response>",
            "<D:response><D:href>http://s/depot/run%202014/d%C3%A4%20ta.root</D:href>",
            "<D:propstat><D:prop><D:resourcetype/>",
            "<D:getcontentlength>42</D:getcontentlength>",
            "</D:prop></D:propstat></D:response>",
            "</D:multistatus>"
        );
        let server = HttpServer::new(
            Arc::new(move |_req: Request| {
                Response::with_body(
                    StatusCode::MULTI_STATUS,
                    "application/xml",
                    xml.as_bytes().to_vec(),
                )
            }),
            ServerConfig::default(),
        );
        server.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let _g = net.enter();
        let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default());
        let entries = client.posix().opendir("http://s/depot/run%202014").unwrap();
        assert_eq!(entries.len(), 1, "the collection's own entry must be skipped");
        assert_eq!(entries[0].name, "dä ta.root");
        assert_eq!(entries[0].size, 42);
        assert!(!entries[0].is_dir);
    }

    /// Regression (PR 5): same-server renames used to be rejected when the
    /// host case differed or one URL spelled the default port explicitly —
    /// and a scheme change was not checked at all.
    #[test]
    fn rename_compares_normalized_endpoints() {
        let (net, client, store) = setup();
        store.put("/a.root", Bytes::from_static(b"payload"));
        let _g = net.enter();
        let posix = client.posix();
        // Case-shifted host + explicit default port: same server.
        posix.rename("http://S/a.root", "http://s:80/b.root").unwrap();
        assert!(store.exists("/b.root"));
        // Scheme change: different endpoint even with matching host+port.
        let err = posix.rename("https://s:443/b.root", "http://s:443/c.root").unwrap_err();
        assert!(matches!(err, DavixError::InvalidArgument(_)), "{err}");
        // Genuinely different hosts still refused.
        let err = posix.rename("http://s/b.root", "http://elsewhere/b.root").unwrap_err();
        assert!(matches!(err, DavixError::InvalidArgument(_)));
    }

    /// A body of unknown length: `put_stream` sends it chunked.
    struct NoLen(Vec<u8>);

    impl BodyProvider for NoLen {
        fn content_length(&self) -> Option<u64> {
            None
        }
        fn open(&self) -> Result<httpwire::BodySource<'_>> {
            Ok(httpwire::BodySource::chunked(std::io::Cursor::new(self.0.clone())))
        }
    }

    #[test]
    fn put_stream_stores_sized_and_chunked_bodies() {
        let (net, client, store) = setup();
        let _g = net.enter();
        let posix = client.posix();
        let data: Vec<u8> = (0..400_000).map(|i| (i % 239) as u8).collect();
        posix.put_stream("http://s/streamed.bin", &Bytes::from(data.clone())).unwrap();
        assert_eq!(store.get("/streamed.bin").unwrap().data.as_ref(), &data[..]);

        posix.put_stream("http://s/chunked.bin", &NoLen(data.clone())).unwrap();
        assert_eq!(store.get("/chunked.bin").unwrap().data.as_ref(), &data[..]);
        assert_eq!(client.metrics().bytes_uploaded, 2 * data.len() as u64);
    }

    /// The bytes of every write call the client makes on its connections,
    /// in order.
    type Writes = Arc<parking_lot::Mutex<Vec<Vec<u8>>>>;

    /// Connects through `net` and records every write on the streams it
    /// opens.
    struct Recording(Arc<dyn netsim::Connector>, Writes);

    impl netsim::Connector for Recording {
        fn connect(
            &self,
            host: &str,
            port: u16,
            timeout: Option<Duration>,
        ) -> std::io::Result<netsim::BoxedStream> {
            Ok(Box::new(RecordingStream(self.0.connect(host, port, timeout)?, Arc::clone(&self.1))))
        }
    }

    struct RecordingStream(netsim::BoxedStream, Writes);

    impl std::io::Read for RecordingStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.0.read(buf)
        }
    }

    impl std::io::Write for RecordingStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let n = self.0.write(buf)?;
            self.1.lock().push(buf[..n].to_vec());
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
    }

    impl netsim::Pollable for RecordingStream {}

    impl netsim::Stream for RecordingStream {
        fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
            self.0.set_read_timeout(timeout)
        }

        fn peer(&self) -> String {
            self.0.peer()
        }

        fn try_clone(&self) -> std::io::Result<netsim::BoxedStream> {
            self.0.try_clone()
        }

        fn shutdown_write(&mut self) -> std::io::Result<()> {
            self.0.shutdown_write()
        }
    }

    /// `setup`'s server, with a client whose writes are recorded.
    fn recorded() -> (SimNet, DavixClient, Arc<ObjectStore>, Writes) {
        let (net, _, store) = setup();
        let writes = Writes::default();
        let connector = Arc::new(Recording(net.connector("c"), Arc::clone(&writes)));
        let client = DavixClient::new(connector, net.runtime(), Config::default());
        (net, client, store, writes)
    }

    /// The length of the request head that starts `wire`.
    fn head_len(wire: &[u8]) -> usize {
        wire.windows(4).position(|w| w == b"\r\n\r\n").expect("a request head") + 4
    }

    #[test]
    fn a_sized_put_stream_writes_its_head_then_its_body_in_one_call() {
        let (net, client, store, writes) = recorded();
        let _g = net.enter();
        let data: Vec<u8> = (0..300_000).map(|i| (i % 233) as u8).collect();
        client.posix().put_stream("http://s/lent.bin", &Bytes::from(data.clone())).unwrap();
        assert_eq!(store.get("/lent.bin").unwrap().data.as_ref(), &data[..]);

        let writes = writes.lock();
        let sizes: Vec<usize> = writes.iter().map(Vec::len).collect();
        let head = head_len(&writes[0]);
        assert_eq!(sizes, [head, data.len()], "the head, then the whole body in one write");
        assert_eq!(writes[1], data);
        assert_eq!(client.metrics().bytes_out, (head + data.len()) as u64);
    }

    /// Regression: `bytes_out` counted a chunked body's payload and none of
    /// its chunk-size lines, CRLFs or last chunk.
    #[test]
    fn bytes_out_counts_what_each_upload_put_on_the_wire() {
        let (net, client, _store, writes) = recorded();
        let _g = net.enter();
        let posix = client.posix();
        // Four 16 KiB chunks (`4000\r\n…\r\n`) and a 100-byte one
        // (`64\r\n…\r\n`), then `0\r\n\r\n`.
        let data = vec![7u8; 4 * 16_384 + 100];
        posix.put_stream("http://s/chunked.bin", &NoLen(data.clone())).unwrap();
        let framing = 4 * (6 + 2) + (4 + 2) + 5;
        let sent: Vec<u8> = writes.lock().concat();
        let head = head_len(&sent);
        assert_eq!(sent.len(), head + data.len() + framing);
        assert_eq!(client.metrics().bytes_out, sent.len() as u64);
        assert_eq!(client.metrics().bytes_uploaded, data.len() as u64);

        writes.lock().clear();
        posix.put_stream("http://s/sized.bin", &Bytes::from(data.clone())).unwrap();
        let sent: Vec<u8> = writes.lock().concat();
        assert_eq!(sent.len(), head_len(&sent) + data.len());
        assert_eq!(client.metrics().bytes_out, (head + data.len() + framing + sent.len()) as u64);
    }
}
