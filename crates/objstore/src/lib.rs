//! # objstore — an in-memory object store with a DPM-like HTTP frontend
//!
//! The paper benchmarks against a Disk Pool Manager (DPM) storage node: an
//! HTTP/WebDAV server in front of big files. This crate provides the
//! equivalent substrate:
//!
//! * [`ObjectStore`]: a concurrent path → object map with CRC32/Adler32
//!   checksums and timestamps;
//! * [`StorageHandler`]: an [`httpd::Handler`] speaking the request surface
//!   davix needs — GET (full / single-range / **multipart-byteranges**
//!   multi-range), HEAD, PUT, DELETE, MKCOL, OPTIONS and a PROPFIND subset —
//!   plus `?metalink` negotiation and per-node fault injection
//!   (unavailability, forced errors, configurable range support for testing
//!   client degradation paths);
//! * [`StorageNode`]: glue that binds a store + handler to a host on any
//!   listener/runtime.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod handler;
pub mod store;

pub use handler::{MetalinkSource, RangeSupport, StagingStats, StorageHandler, StorageOptions};
pub use store::{ObjectMeta, ObjectStore};

use httpd::{HttpServer, ServerConfig};
use netsim::{Listener, Runtime};
use std::sync::Arc;

/// A storage node: object store + HTTP server bound to a listener.
pub struct StorageNode {
    /// The namespace this node serves.
    pub store: Arc<ObjectStore>,
    /// The HTTP server (for stats / stop).
    pub server: Arc<HttpServer>,
    /// The handler (for fault injection).
    pub handler: Arc<StorageHandler>,
}

impl StorageNode {
    /// Serve `store` on `listener` with the given options.
    pub fn start(
        store: Arc<ObjectStore>,
        listener: Box<dyn Listener>,
        rt: Arc<dyn Runtime>,
        opts: StorageOptions,
        server_cfg: ServerConfig,
    ) -> StorageNode {
        let handler = Arc::new(StorageHandler::new(Arc::clone(&store), opts));
        let server = HttpServer::new(handler.clone(), server_cfg);
        server.serve(listener, rt);
        StorageNode { store, server, handler }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn storage_node_assembles() {
        let net = netsim::SimNet::new();
        net.add_host("s");
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"x"));
        let node = StorageNode::start(
            store,
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        assert_eq!(node.store.get("/f").unwrap().data.as_ref(), b"x");
    }

    #[test]
    fn an_upload_through_a_running_node_is_hashed_once_as_it_arrives() {
        use httpd::{Handler, Request};
        use httpwire::{Method, RequestHead};
        use std::io::{BufRead, BufReader, Read, Write};
        let net = netsim::SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let node = StorageNode::start(
            Arc::new(ObjectStore::new()),
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        let _g = net.enter();
        let conn = net.connect("c", "s", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&conn).unwrap();
        let mut r = BufReader::new(conn);
        // Send one request and return the status and body of its answer.
        let mut exchange = |head: String, body: &[u8]| {
            w.write_all(&[head.as_bytes(), body].concat()).unwrap();
            let (mut status, mut len, mut line) = (String::new(), 0, String::new());
            r.read_line(&mut status).unwrap();
            while line != "\r\n" {
                line.clear();
                r.read_line(&mut line).unwrap();
                if let Some(v) = line.strip_prefix("Content-Length: ") {
                    len = v.trim().parse().unwrap();
                }
            }
            let mut answer = vec![0u8; len];
            r.read_exact(&mut answer).unwrap();
            (status[9..12].to_string(), String::from_utf8(answer).unwrap())
        };
        let put = |target: &str, len: usize| {
            format!("PUT {target} HTTP/1.1\r\nHost: s\r\nContent-Length: {len}\r\n\r\n")
        };
        let body: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(exchange(put("/whole", body.len()), &body).0, "201");
        // A multipart upload of the same bytes in three parts.
        let (_, xml) = exchange("POST /parts?uploads HTTP/1.1\r\nHost: s\r\n\r\n".into(), b"");
        let id = &xml[xml.find("<UploadId>").unwrap() + 10..xml.find("</UploadId>").unwrap()];
        for (n, part) in body.chunks(120_000).enumerate() {
            let target = format!("/parts?uploadId={id}&partNumber={}", n + 1);
            assert_eq!(exchange(put(&target, part.len()), part).0, "200");
        }
        let list: String =
            (1..=3).map(|n| format!("<Part><PartNumber>{n}</PartNumber></Part>")).collect();
        let list = format!("<CompleteMultipartUpload>{list}</CompleteMultipartUpload>");
        let complete = format!(
            "POST /parts?uploadId={id} HTTP/1.1\r\nHost: s\r\nContent-Length: {}\r\n\r\n",
            list.len()
        );
        assert_eq!(exchange(complete, list.as_bytes()).0, "200");
        // A segmented upload of the same bytes in three segments, out of
        // order: the last to arrive commits it.
        for (i, status) in [(2, "204"), (0, "204"), (1, "201")] {
            let (first, segment) = (i * 100_000, &body[i * 100_000..][..100_000]);
            let head = format!(
                "PUT /segments HTTP/1.1\r\nHost: s\r\nContent-Range: bytes {first}-{}/{}\r\n\
                 Content-Length: {}\r\n\r\n",
                first + segment.len() - 1,
                body.len(),
                segment.len()
            );
            assert_eq!(exchange(head, segment).0, status);
        }
        for path in ["/whole", "/parts", "/segments"] {
            let stored = node.store.get(path).unwrap();
            assert!(stored.data == body, "{path}");
            let want = (ioapi::checksum::crc32(&body), ioapi::checksum::adler32(&body));
            assert_eq!((stored.crc32, stored.adler32), want, "{path}");
        }
        assert_eq!(node.handler.cold_digested_bytes(), 0, "the handler read no body again");
        // A direct call has no arrival digests: the handler reads the body
        // once itself.
        let mut head = RequestHead::new(Method::Put, "/direct");
        head.headers.set("Content-Length", body.len().to_string());
        let resp = node.handler.handle(Request { head, body: body.clone(), peer: "test".into() });
        assert_eq!(resp.status.0, 201);
        assert_eq!(node.handler.cold_digested_bytes(), body.len() as u64);
    }

    #[test]
    fn response_heads_are_these_bytes() {
        use std::io::{BufRead, BufReader, Read, Write};
        let net = netsim::SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"hello world"));
        let _node = StorageNode::start(
            store,
            Box::new(net.bind("s", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );
        let _g = net.enter();
        let conn = net.connect("c", "s", 80).unwrap();
        let mut w = netsim::Stream::try_clone(&conn).unwrap();
        let mut r = BufReader::new(conn);
        // One response head off the wire, its `Date` checked and blanked,
        // and its body (as long as `Content-Length` says) read past.
        let mut exchange = |request: &str| {
            w.write_all(request.as_bytes()).unwrap();
            let (mut head, mut len) = (String::new(), 0);
            while !head.ends_with("\r\n\r\n") {
                let mut line = String::new();
                r.read_line(&mut line).unwrap();
                if let Some(date) = line.strip_prefix("Date: ") {
                    assert!(httpwire::date::parse_http_date(date.trim()).is_some(), "{date:?}");
                    line = "Date: *\r\n".to_string();
                }
                if let Some(v) = line.strip_prefix("Content-Length: ") {
                    len = v.trim().parse().unwrap();
                }
                head.push_str(&line);
            }
            r.read_exact(&mut vec![0u8; len]).unwrap();
            head
        };
        let heads = [
            exchange("GET /f HTTP/1.1\r\nHost: s\r\n\r\n"),
            exchange("GET /f HTTP/1.1\r\nHost: s\r\nRange: bytes=2-5\r\n\r\n"),
            exchange("GET /f HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n"),
        ];
        // What the parent of the commit that writes `Server`/`Date`/
        // `Content-Length` into the response's own block put on the wire.
        const OBJECT: &str = "Content-Type: application/octet-stream\r\nAccept-Ranges: bytes\r\n\
                              ETag: \"0d4a1185-1\"\r\nDigest: adler32=1a0b045d\r\n";
        const SERVER: &str = "Server: dpm-sim/0.1\r\nDate: *\r\n";
        let golden = [
            format!("HTTP/1.1 200 OK\r\n{OBJECT}{SERVER}Content-Length: 11\r\n\r\n"),
            format!(
                "HTTP/1.1 206 Partial Content\r\n{OBJECT}Content-Range: bytes 2-5/11\r\n\
                 {SERVER}Content-Length: 4\r\n\r\n"
            ),
            format!(
                "HTTP/1.1 200 OK\r\n{OBJECT}{SERVER}Content-Length: 11\r\nConnection: close\r\n\r\n"
            ),
        ];
        assert_eq!(heads, golden);
    }
}
