//! End-to-end integration: the davix client against the DPM-like storage
//! node, over the simulated network *and* over real loopback TCP — the same
//! client code on both transports.

use bytes::Bytes;
use davix::{Config, DavixClient};
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH};
use httpd::ServerConfig;
use netsim::LinkSpec;
use netsim::Listener as _;
use objstore::{ObjectStore, RangeSupport, StorageNode, StorageOptions};
use std::sync::Arc;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

#[test]
fn sim_full_read_and_vectored_read() {
    let data = payload(200_000);
    let tb =
        Testbed::start(TestbedConfig { data: Bytes::from(data.clone()), ..Default::default() });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let f = client.open(&tb.url(0)).unwrap();
    assert_eq!(f.size_hint(), data.len() as u64);

    // Whole file via posix get.
    let got = client.posix().get(&tb.url(0)).unwrap();
    assert_eq!(got, data);

    // Vectored.
    let frags: Vec<(u64, usize)> = (0..100).map(|i| (i * 1997, 64)).collect();
    let got = f.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
}

#[test]
fn sim_namespace_operations() {
    let tb =
        Testbed::start(TestbedConfig { data: Bytes::from(payload(1000)), ..Default::default() });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let posix = client.posix();
    let base = format!("http://{}", tb.hosts[0]);

    // stat file and directory
    let st = posix.stat(&tb.url(0)).unwrap();
    assert_eq!(st.size, 1000);
    assert!(!st.is_dir);
    let st = posix.stat(&format!("{base}/data")).unwrap();
    assert!(st.is_dir);

    // mkdir, put, list, delete
    posix.mkdir(&format!("{base}/data/run2")).unwrap();
    posix.put(&format!("{base}/data/run2/a.root"), &b"aaa"[..]).unwrap();
    posix.put(&format!("{base}/data/run2/b.root"), &b"bbbb"[..]).unwrap();
    let entries = posix.opendir(&format!("{base}/data/run2")).unwrap();
    let mut names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
    names.sort();
    assert_eq!(names, vec!["a.root", "b.root"]);
    let sizes: Vec<u64> = {
        let mut es = entries.clone();
        es.sort_by(|a, b| a.name.cmp(&b.name));
        es.iter().map(|e| e.size).collect()
    };
    assert_eq!(sizes, vec![3, 4]);
    posix.unlink(&format!("{base}/data/run2/a.root")).unwrap();
    assert!(posix.stat(&format!("{base}/data/run2/a.root")).is_err());
}

#[test]
fn sim_degraded_servers_still_serve_vectored_reads() {
    for support in [RangeSupport::SingleRange, RangeSupport::None] {
        let data = payload(50_000);
        let tb = Testbed::start(TestbedConfig {
            data: Bytes::from(data.clone()),
            range_support: support,
            ..Default::default()
        });
        let _g = tb.net.enter();
        let client = tb.davix_client(Config::default());
        let f = client.open(&tb.url(0)).unwrap();
        let frags = [(5u64, 10usize), (30_000, 100), (49_990, 10)];
        let got = f.pread_vec(&frags).unwrap();
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len], "support {support:?}");
        }
    }
}

#[test]
fn sim_session_recycling_across_many_requests() {
    let data = payload(10_000);
    let tb = Testbed::start(TestbedConfig { data: Bytes::from(data), ..Default::default() });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let f = client.open(&tb.url(0)).unwrap();
    let mut buf = vec![0u8; 100];
    for i in 0..50u64 {
        f.pread(i * 100, &mut buf).unwrap();
    }
    let m = client.metrics();
    assert_eq!(m.sessions_created, 1, "51 requests, one TCP connection");
    assert!(m.reuse_ratio() > 0.9);
}

#[test]
fn real_tcp_roundtrip_same_client_code() {
    // Spin the same storage node on a real loopback socket.
    let data = payload(100_000);
    let store = Arc::new(ObjectStore::new());
    store.put(DATA_PATH, Bytes::from(data.clone()));
    let listener = netsim::TcpListenerWrap::bind("127.0.0.1:0").unwrap();
    let port = listener.local_port();
    let rt: Arc<dyn netsim::Runtime> = Arc::new(netsim::RealRuntime::new());
    let _node = StorageNode::start(
        store,
        Box::new(listener),
        rt.clone(),
        StorageOptions::default(),
        ServerConfig::default(),
    );

    let client = DavixClient::new(Arc::new(netsim::TcpConnector), rt, Config::default());
    let url = format!("http://127.0.0.1:{port}{DATA_PATH}");
    let f = client.open(&url).unwrap();
    assert_eq!(f.size_hint(), data.len() as u64);
    let frags: Vec<(u64, usize)> = (0..32).map(|i| (i * 3000, 50)).collect();
    let got = f.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    let m = client.metrics();
    assert_eq!(m.sessions_created, 1);
    assert!(m.vectored_requests >= 1);
}

/// The WebDAV namespace surface over **real loopback TCP**, with names
/// that need percent-encoding: mkdir / put / stat / opendir (encoded names
/// round-trip, self entry skipped) / rename / unlink.
#[test]
fn real_tcp_namespace_ops_with_encoded_names() {
    use httpwire::uri::percent_encode_path;
    let store = Arc::new(ObjectStore::new());
    let listener = netsim::TcpListenerWrap::bind("127.0.0.1:0").unwrap();
    let port = listener.local_port();
    let rt: Arc<dyn netsim::Runtime> = Arc::new(netsim::RealRuntime::new());
    let _node = StorageNode::start(
        Arc::clone(&store),
        Box::new(listener),
        rt.clone(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
    let client = DavixClient::new(Arc::new(netsim::TcpConnector), rt, Config::default());
    let posix = client.posix();
    let base = format!("http://127.0.0.1:{port}");
    let dir = format!("{base}{}", percent_encode_path("/run 2014"));
    let obj = format!("{base}{}", percent_encode_path("/run 2014/dä ta.root"));
    let dst = format!("{base}{}", percent_encode_path("/run 2014/renamed ä.root"));

    posix.mkdir(&dir).unwrap();
    posix.put(&obj, &b"payload-1"[..]).unwrap();

    let st = posix.stat(&obj).unwrap();
    assert_eq!(st.size, 9);
    assert!(!st.is_dir);

    // Encoded names round-trip decoded; the collection's own entry is
    // skipped even though the server emits percent-encoded hrefs.
    let entries = posix.opendir(&dir).unwrap();
    let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, vec!["dä ta.root"]);
    assert_eq!(entries[0].size, 9);

    posix.rename(&obj, &dst).unwrap();
    assert!(posix.stat(&obj).is_err());
    assert_eq!(posix.get(&dst).unwrap(), b"payload-1");

    posix.unlink(&dst).unwrap();
    assert!(posix.stat(&dst).is_err());
    assert!(posix.opendir(&dir).unwrap().is_empty(), "directory empty after unlink");
}

/// A chunk whose PUT dies mid-upload is retried (executor budget first,
/// then chunk requeue) and the upload still commits byte-identical data.
#[test]
fn sim_upload_chunk_failure_is_retried() {
    use davix::{multistream_upload, UploadOptions, UploadProtocol};
    use davix_sync::{AtomicBool, Ordering};
    use httpwire::{Method, StatusCode};

    let net = netsim::SimNet::new();
    net.add_host("c");
    net.add_host("s");
    let store = Arc::new(ObjectStore::new());
    let inner =
        Arc::new(objstore::StorageHandler::new(Arc::clone(&store), StorageOptions::default()));
    let tripped = Arc::new(AtomicBool::new(false));
    let gate = {
        let inner = Arc::clone(&inner);
        let tripped = Arc::clone(&tripped);
        Arc::new(move |req: httpd::Request| {
            // Kill the first part-2 PUT; everything else flows through.
            if req.head.method == Method::Put
                && req.head.query().unwrap_or("").contains("partNumber=2")
                && !tripped.swap(true, Ordering::SeqCst)
            {
                return httpd::Response::error(StatusCode::INTERNAL_SERVER_ERROR);
            }
            httpd::Handler::handle(inner.as_ref(), req)
        })
    };
    httpd::HttpServer::new(gate, ServerConfig::default())
        .serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
    let _g = net.enter();
    let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default());
    let data: Vec<u8> = (0..300_000).map(|i| ((i * 7 + 1) % 251) as u8).collect();
    let report = multistream_upload(
        &client,
        "http://s/retried.bin",
        Arc::new(bytes::Bytes::from(data.clone())),
        &UploadOptions {
            streams: Some(2),
            chunk_size: Some(64 * 1024),
            protocol: UploadProtocol::S3Multipart,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(report.verified);
    assert_eq!(store.get("/retried.bin").unwrap().data.as_ref(), &data[..]);
    assert!(client.metrics().upload_retries >= 1, "the killed chunk must have been retried");
    assert!(tripped.load(Ordering::SeqCst));
}

/// A chunk corrupted in flight fails the end-to-end digest check and the
/// destination is **never** committed — for both upload dialects.
#[test]
fn sim_upload_corruption_is_detected_and_not_committed() {
    use davix::{multistream_upload, DavixError, UploadOptions, UploadProtocol};
    use davix_sync::{AtomicBool, Ordering};
    use httpwire::Method;

    for protocol in [UploadProtocol::S3Multipart, UploadProtocol::SegmentedPut] {
        let net = netsim::SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let store = Arc::new(ObjectStore::new());
        let inner =
            Arc::new(objstore::StorageHandler::new(Arc::clone(&store), StorageOptions::default()));
        let corrupted = Arc::new(AtomicBool::new(false));
        let gate = {
            let inner = Arc::clone(&inner);
            let corrupted = Arc::clone(&corrupted);
            Arc::new(move |mut req: httpd::Request| {
                // Flip one byte of the first chunk body that passes by.
                if req.head.method == Method::Put
                    && !req.body.is_empty()
                    && !corrupted.swap(true, Ordering::SeqCst)
                {
                    req.body[0] ^= 0xFF;
                }
                httpd::Handler::handle(inner.as_ref(), req)
            })
        };
        httpd::HttpServer::new(gate, ServerConfig::default())
            .serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let _g = net.enter();
        let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default());
        let data: Vec<u8> = (0..200_000).map(|i| ((i * 3 + 7) % 253) as u8).collect();
        let err = multistream_upload(
            &client,
            "http://s/poisoned.bin",
            Arc::new(bytes::Bytes::from(data)),
            &UploadOptions {
                streams: Some(2),
                chunk_size: Some(64 * 1024),
                protocol,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, DavixError::ChecksumMismatch { .. }),
            "{protocol:?}: want ChecksumMismatch, got {err}"
        );
        assert!(corrupted.load(Ordering::SeqCst), "{protocol:?}: fault never injected");
        assert!(
            store.get("/poisoned.bin").is_none(),
            "{protocol:?}: corrupted upload must not be committed"
        );
        assert!(store.is_empty(), "{protocol:?}: aborted upload must leave no staging debris");
    }
}

#[test]
fn sim_server_connection_caps_are_transparent() {
    // Server kills connections every 3 requests; client recycles anyway.
    let data = payload(5_000);
    let tb = Testbed::start(TestbedConfig {
        data: Bytes::from(data.clone()),
        max_requests_per_conn: Some(3),
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let f = client.open(&tb.url(0)).unwrap();
    let mut buf = vec![0u8; 64];
    for i in 0..20u64 {
        let n = f.pread((i * 64) % 4000, &mut buf).unwrap();
        assert_eq!(n, 64);
    }
    let m = client.metrics();
    assert!(m.sessions_created >= 7, "server caps force reconnects");
    assert_eq!(m.retries, 0, "close is advertised; no failed requests");
}

#[test]
fn sim_latency_dominates_when_links_are_slow() {
    // Sanity: the same workload takes longer on the WAN profile than on LAN,
    // in virtual time.
    let mut times = Vec::new();
    for link in [LinkSpec::lan(), LinkSpec::wan()] {
        let data = payload(10_000);
        let tb = Testbed::start(TestbedConfig {
            data: Bytes::from(data),
            replicas: vec![("dpm1.cern.ch".to_string(), link)],
            ..Default::default()
        });
        let _g = tb.net.enter();
        let client = tb.davix_client(Config::default());
        let f = client.open(&tb.url(0)).unwrap();
        let t0 = tb.net.now();
        let mut buf = vec![0u8; 100];
        for i in 0..10u64 {
            f.pread(i * 500, &mut buf).unwrap();
        }
        times.push(tb.net.now() - t0);
    }
    assert!(times[1] > times[0] * 10, "WAN {:?} vs LAN {:?}", times[1], times[0]);
}
