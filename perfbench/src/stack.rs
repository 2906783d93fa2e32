//! The loopback system under test: an `httpd` server over a real
//! `127.0.0.1` listener and a `DavixClient` over real sockets, sharing the
//! process. Built bare for the end-to-end run and with the [`crate::wrap`]
//! wrappers installed for the traced run.

use crate::wrap::{TimedConnector, TimedHandler, TimedListener};
use davix::{Config, DavixClient};
use httpd::{Handler, HttpServer, ServerConfig};
use netsim::{Connector, Listener, RealRuntime, Runtime, TcpConnector, TcpListenerWrap};
use objstore::{ObjectStore, StorageHandler, StorageOptions};
use std::sync::Arc;

/// One server + one client on loopback TCP.
pub struct Loopback {
    /// The namespace the storage handler serves (workloads check PUTs and
    /// plant corruption through it).
    pub store: Arc<ObjectStore>,
    /// The HTTP server (2 reactor shards: `ServerConfig::default()`).
    pub server: Arc<HttpServer>,
    /// The davix client (`Config::default()` unless built otherwise).
    pub client: DavixClient,
    port: u16,
}

impl Loopback {
    /// Serve `store` exactly as `objstore::StorageNode::start` does
    /// (default options, default server config), and connect a default
    /// client. `traced` installs the span wrappers around the handler, the
    /// listener's streams and the client's connector.
    pub fn start(store: Arc<ObjectStore>, traced: bool) -> Loopback {
        let handler = Arc::new(StorageHandler::new(Arc::clone(&store), StorageOptions::default()));
        Self::start_with(store, handler, Config::default(), traced)
    }

    /// [`start`](Self::start) with the handler and client configuration
    /// chosen by the caller (probes mount a null handler or enable the
    /// block cache).
    pub fn start_with(
        store: Arc<ObjectStore>,
        handler: Arc<dyn Handler>,
        client_cfg: Config,
        traced: bool,
    ) -> Loopback {
        let listener = TcpListenerWrap::bind("127.0.0.1:0").expect("bind a loopback port");
        let port = netsim::Listener::local_port(&listener);
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let (handler, listener, connector): (
            Arc<dyn Handler>,
            Box<dyn Listener>,
            Arc<dyn Connector>,
        ) = if traced {
            (
                Arc::new(TimedHandler(handler)),
                Box::new(TimedListener(Box::new(listener))),
                Arc::new(TimedConnector(TcpConnector)),
            )
        } else {
            (handler, Box::new(listener), Arc::new(TcpConnector))
        };
        let server = HttpServer::new(handler, ServerConfig::default());
        server.serve(listener, Arc::clone(&rt));
        let client = DavixClient::new(connector, rt, client_cfg);
        Loopback { store, server, client, port }
    }

    /// `http://127.0.0.1:<port><path>`.
    pub fn url(&self, path: &str) -> String {
        format!("http://127.0.0.1:{}{path}", self.port)
    }
}

impl Drop for Loopback {
    /// Closes the listener and joins the reactor shards, so no thread of
    /// this stack outlives it.
    fn drop(&mut self) {
        self.server.stop();
    }
}
