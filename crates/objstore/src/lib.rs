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

pub mod checksum;
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
}
