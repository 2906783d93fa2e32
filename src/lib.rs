//! # davix-repro — reproduction of the libdavix paper, assembled
//!
//! This crate ties the workspace together and provides [`testbed`]: a
//! one-call construction of the simulated WLCG-style environment used by the
//! examples, the integration tests and the benchmark harness — a client
//! host, one or more DPM-like storage nodes holding the same data, an
//! optional DynaFed federation service, and configurable links (LAN /
//! pan-European / transatlantic, per the paper's §3 setup).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub use davix;
pub use dynafed;
pub use httpd;
pub use httpwire;
pub use ioapi;
pub use metalink;
pub use netsim;
pub use objstore;
pub use rootio;
pub use xrdlite;

pub mod testbed {
    //! Simulated grid environments for tests, examples and benchmarks.

    use bytes::Bytes;
    use dynafed::{Federation, Replica, ReplicaCatalog};
    use httpd::ServerConfig;
    use netsim::{LinkSpec, SimNet};
    use objstore::{ObjectStore, RangeSupport, StorageNode, StorageOptions};
    use std::sync::Arc;
    use std::time::Duration;

    /// Canonical object path used across the testbed.
    pub const DATA_PATH: &str = "/data/events.root";
    /// The client host name.
    pub const CLIENT: &str = "worker-node";
    /// The federation host name.
    pub const FED: &str = "dynafed.cern.ch";

    /// Construction parameters.
    pub struct TestbedConfig {
        /// One storage node per entry: `(host_name, link_to_client)`.
        pub replicas: Vec<(String, LinkSpec)>,
        /// Object payload placed on every replica at [`DATA_PATH`].
        pub data: Bytes,
        /// Range fidelity of the storage nodes.
        pub range_support: RangeSupport,
        /// Per-request server-side processing delay.
        pub server_delay: Duration,
        /// Server closes connections after this many requests (`None` = never).
        pub max_requests_per_conn: Option<u64>,
        /// Also start a DynaFed federation knowing every replica.
        pub with_federation: bool,
        /// Also start xrdlite servers (port 1094) on every storage host.
        pub with_xrd: bool,
    }

    impl Default for TestbedConfig {
        fn default() -> Self {
            TestbedConfig {
                replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
                data: Bytes::new(),
                range_support: RangeSupport::MultiRange,
                server_delay: Duration::ZERO,
                max_requests_per_conn: None,
                with_federation: false,
                with_xrd: false,
            }
        }
    }

    /// A running simulated grid.
    pub struct Testbed {
        /// The virtual network.
        pub net: SimNet,
        /// Storage nodes, in replica order.
        pub nodes: Vec<StorageNode>,
        /// Host names of the storage nodes.
        pub hosts: Vec<String>,
        /// xrdlite servers (empty unless `with_xrd`).
        pub xrd_servers: Vec<Arc<xrdlite::XrdServer>>,
        /// The federation (when `with_federation`).
        pub federation: Option<Federation>,
    }

    impl Testbed {
        /// Build and start everything.
        pub fn start(cfg: TestbedConfig) -> Testbed {
            let net = SimNet::new();
            net.add_host(CLIENT);
            let rt = net.runtime();
            let mut nodes = Vec::new();
            let mut hosts = Vec::new();
            let mut xrd_servers = Vec::new();
            let catalog = Arc::new(ReplicaCatalog::new());

            for (i, (host, link)) in cfg.replicas.iter().enumerate() {
                net.add_host(host);
                net.set_link(CLIENT, host, *link);
                let store = Arc::new(ObjectStore::new());
                store.put(DATA_PATH, cfg.data.clone());
                let catalog_for_node = Arc::clone(&catalog);
                let node = StorageNode::start(
                    Arc::clone(&store),
                    Box::new(net.bind(host, 80).expect("bind storage")),
                    Arc::clone(&rt) as Arc<dyn netsim::Runtime>,
                    StorageOptions {
                        range_support: cfg.range_support,
                        metalink: Some(Arc::new(move |path: &str| {
                            catalog_for_node.metalink(path).map(|m| m.to_xml())
                        })),
                    },
                    ServerConfig {
                        process_delay: cfg.server_delay,
                        max_requests_per_conn: cfg.max_requests_per_conn,
                        ..Default::default()
                    },
                );
                if cfg.with_xrd {
                    let xrd = xrdlite::XrdServer::new(
                        Arc::clone(&store),
                        xrdlite::server::XrdServerConfig { process_delay: cfg.server_delay },
                    );
                    xrd.serve(
                        Box::new(net.bind(host, 1094).expect("bind xrd")),
                        Arc::clone(&rt) as Arc<dyn netsim::Runtime>,
                    );
                    xrd_servers.push(xrd);
                }
                catalog.register(
                    DATA_PATH,
                    Replica::new(format!("http://{host}{DATA_PATH}"), (i + 1) as u32),
                );
                catalog.set_size(DATA_PATH, cfg.data.len() as u64);
                // The store digested the tree as it took it.
                let crc32 = store.get(DATA_PATH).expect("just stored").crc32;
                catalog.set_hash(DATA_PATH, "crc32", ioapi::checksum::to_hex(crc32));
                nodes.push(node);
                hosts.push(host.clone());
            }

            let federation = if cfg.with_federation {
                net.add_host(FED);
                // The federation sits close to the client by default.
                net.set_link(CLIENT, FED, LinkSpec::lan());
                Some(Federation::start(
                    Arc::clone(&catalog),
                    "/myfed",
                    Box::new(net.bind(FED, 80).expect("bind federation")),
                    Arc::clone(&rt) as Arc<dyn netsim::Runtime>,
                ))
            } else {
                None
            };

            Testbed { net, nodes, hosts, xrd_servers, federation }
        }

        /// A davix client living on the worker node.
        pub fn davix_client(&self, cfg: davix::Config) -> davix::DavixClient {
            davix::DavixClient::new(self.net.connector(CLIENT), self.net.runtime(), cfg)
        }

        /// An xrdlite client connected to replica `i`.
        pub fn xrd_client(
            &self,
            i: usize,
            opts: xrdlite::XrdClientOptions,
        ) -> std::io::Result<xrdlite::XrdClient> {
            let connector = self.net.connector(CLIENT);
            xrdlite::XrdClient::connect(
                connector.as_ref(),
                self.net.runtime(),
                &self.hosts[i],
                1094,
                opts,
            )
        }

        /// `http://<replica-i>/data/events.root`.
        pub fn url(&self, i: usize) -> String {
            format!("http://{}{}", self.hosts[i], DATA_PATH)
        }

        /// The federation URL of the data file.
        pub fn fed_url(&self) -> String {
            format!("http://{FED}/myfed{DATA_PATH}")
        }
    }

    /// The three network profiles of the paper's Figure 4. Latency figures
    /// are the paper's upper bounds read as RTTs; bandwidth is 1 Gb/s scaled
    /// by `bw_scale` (benchmarks scale the file and the link together).
    pub fn paper_links(bw_scale: f64) -> Vec<(&'static str, LinkSpec)> {
        let bw = |b: f64| Some((b * bw_scale) as u64);
        vec![
            (
                "CERN<->CERN (LAN)",
                LinkSpec {
                    delay: Duration::from_micros(1_250),
                    bandwidth: bw(125_000_000.0),
                    ..Default::default()
                },
            ),
            (
                "UK(GLAS)<->CERN (GEANT)",
                LinkSpec {
                    delay: Duration::from_micros(12_500),
                    bandwidth: bw(125_000_000.0),
                    ..Default::default()
                },
            ),
            (
                "USA(BNL)<->CERN (WAN)",
                LinkSpec {
                    delay: Duration::from_micros(75_000),
                    bandwidth: bw(125_000_000.0),
                    ..Default::default()
                },
            ),
        ]
    }
}
