//! Integration tests for the shared [`davix::ReplicaScheduler`]: true
//! parallelism of replicated reads (no lock across network I/O), scheduler
//! ranking/fail-over behaviour, and the §2.4 bugfixes that ride the same
//! path (HEAD-fails-over during size discovery, origin filtered wherever it
//! appears in the Metalink, case-insensitive checksum algorithms).

use bytes::Bytes;
use davix::{
    multistream_download_verified, multistream_download_with_report, Config, DavixError,
    MultistreamOptions,
};
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH, FED};
use davix_sync::{AtomicBool, AtomicUsize, Ordering};
use httpd::{Handler as _, HttpServer, Request, Response, ServerConfig};
use httpwire::{Method, StatusCode};
use ioapi::RandomAccess as _;
use netsim::{LinkSpec, Runtime as _, SimNet};
use objstore::{ObjectStore, StorageHandler, StorageNode, StorageOptions};
use std::sync::Arc;
use std::time::Duration;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 17) % 241) as u8).collect()
}

fn fed_testbed(data: &[u8], links: [LinkSpec; 3]) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), links[0]),
            ("dpm2.cern.ch".to_string(), links[1]),
            ("dpm3.cern.ch".to_string(), links[2]),
        ],
        data: Bytes::from(data.to_vec()),
        with_federation: true,
        ..Default::default()
    })
}

fn fed_config() -> Config {
    Config::default().no_retry().with_metalink_base(format!("http://{FED}/myfed").parse().unwrap())
}

/// THE lock-across-I/O regression test: two `pread`s on one `ReplicaFile`
/// against a server that takes 100 ms per request must overlap in (virtual)
/// time. The seed code held the replica state mutex across the network
/// operation, serializing them to ≥ 200 ms.
#[test]
fn concurrent_preads_on_a_replica_file_overlap() {
    let data = payload(200_000);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data.clone()),
        server_delay: Duration::from_millis(100),
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let file = Arc::new(client.open_failover(&tb.url(0)).unwrap());

    let done = tb.net.runtime().signal();
    let live = Arc::new(AtomicUsize::new(2));
    let expected = Arc::new(data);
    let t0 = tb.net.now();
    for w in 0..2usize {
        let file = Arc::clone(&file);
        let done = Arc::clone(&done);
        let live = Arc::clone(&live);
        let expected = Arc::clone(&expected);
        tb.net.spawn(&format!("reader-{w}"), move || {
            let off = (w * 50_000) as u64;
            let mut buf = vec![0u8; 4096];
            let n = file.pread(off, &mut buf).unwrap();
            assert_eq!(n, 4096);
            assert_eq!(&buf, &expected[off as usize..off as usize + 4096]);
            if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                done.set();
            }
        });
    }
    done.wait(None);
    let elapsed = tb.net.now() - t0;
    assert!(
        elapsed < Duration::from_millis(190),
        "two 100 ms preads must overlap, not serialize: took {elapsed:?}"
    );
}

/// Size discovery must step over a replica that answers TCP but fails the
/// HEAD (here: the object is missing on the first replica) instead of
/// killing the whole multi-stream download.
#[test]
fn multistream_survives_head_failure_on_first_replica() {
    let data = payload(300_000);
    let tb = fed_testbed(&data, [LinkSpec::lan(), LinkSpec::lan(), LinkSpec::lan()]);
    // dpm1 is up and accepting connections, but the file is gone → HEAD 404.
    tb.nodes[0].store.delete(DATA_PATH);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
    let (got, report) = multistream_download_with_report(
        &client,
        &replicas,
        &MultistreamOptions { streams: 3, chunk_size: 32 * 1024, ..Default::default() },
    )
    .unwrap();
    assert_eq!(got, data);
    assert!(
        report.completions.iter().all(|c| c.replica.host != "dpm1.cern.ch"),
        "no chunk may come from the replica without the file"
    );
}

/// Per-site authorisation differs across a federation: a replica answering
/// `403` to everything is stepped over by the size discovery and by every
/// worker, like any other failing replica — a multi-stream download was
/// handed its replicas, so one refusing must not stop the others serving.
/// (A `ReplicaFile` keeps the opposite rule for its origin: a `403` there is
/// the answer, not a reason to ask around.)
#[test]
fn multistream_steps_over_a_replica_that_denies_access() {
    let net = SimNet::new();
    for host in ["c", "deny", "s"] {
        net.add_host(host);
    }
    net.set_link("c", "deny", LinkSpec::lan());
    net.set_link("c", "s", LinkSpec::lan());
    let data = payload(300_000);
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data.clone()));
    StorageNode::start(
        store,
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
    let deny = Arc::new(|_req: Request| Response::error(StatusCode::FORBIDDEN));
    HttpServer::new(deny, ServerConfig::default())
        .serve(Box::new(net.bind("deny", 80).unwrap()), net.runtime());

    let _g = net.enter();
    let client = davix::DavixClient::new(net.connector("c"), net.runtime(), Config::default());
    let replicas: Vec<httpwire::Uri> =
        vec!["http://deny/f".parse().unwrap(), "http://s/f".parse().unwrap()];
    let opts = MultistreamOptions { streams: 2, chunk_size: 64 * 1024, ..Default::default() };
    let failovers = client.metrics().failovers;
    let (got, report) = multistream_download_with_report(&client, &replicas, &opts).unwrap();
    assert_eq!(got, data);
    assert!(report.completions.iter().all(|c| c.replica.host == "s"));
    // Whether a worker was ever assigned the refusing replica depends on the
    // ranking; the discovery's failed HEAD alone is no read failing over.
    assert_eq!(client.metrics().failovers - failovers, report.respawns);

    let refused = client.open_failover("http://deny/f").err();
    assert!(matches!(refused, Some(DavixError::PermissionDenied(_))), "{refused:?}");
}

/// A replica whose copy ends short of the size the file was opened with
/// fails the cache's upstream fetch *inside* the fail-over walk: the cached
/// read gets its block from the next replica instead of an error.
#[test]
fn a_cached_block_that_ends_short_on_one_replica_comes_from_the_next() {
    let data = payload(120_000);
    let tb = fed_testbed(&data, [LinkSpec::lan(), LinkSpec::lan(), LinkSpec::lan()]);
    let _g = tb.net.enter();
    let cfg = fed_config().with_cache(1 << 20).with_cache_block_size(16 * 1024);
    let client = tb.davix_client(cfg);
    let file = client.open_failover(&tb.url(0)).unwrap();
    // The origin's copy is truncated after the open: its size is still
    // trusted, and the range past its new end answers `416`.
    tb.nodes[0].store.put(DATA_PATH, Bytes::from(data[..40_000].to_vec()));
    let mut buf = vec![0u8; 1000];
    assert_eq!(file.pread(100_000, &mut buf).unwrap(), 1000);
    assert_eq!(buf, &data[100_000..101_000]);
    assert_ne!(file.current_uri().host, "dpm1.cern.ch");
    assert_eq!(client.metrics().failovers, 1);
}

/// The origin must be skipped wherever it appears in the Metalink list —
/// the seed only skipped it when it *led* the list, pointlessly retrying a
/// dead origin referenced mid-list.
#[test]
fn dead_origin_in_mid_list_position_is_not_retried() {
    let data = payload(60_000);
    let tb = fed_testbed(&data, [LinkSpec::lan(), LinkSpec::lan(), LinkSpec::lan()]);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    // Open against dpm2: in the federation Metalink (priority order
    // dpm1 < dpm2 < dpm3) the origin sits in the *middle* of the list.
    let file = client.open_failover(&tb.url(1)).unwrap();
    let mut buf = vec![0u8; 100];
    file.pread(0, &mut buf).unwrap();

    tb.net.set_host_down("dpm1.cern.ch", true);
    tb.net.set_host_down("dpm2.cern.ch", true);
    file.pread(1000, &mut buf).unwrap();
    assert_eq!(&buf, &data[1000..1100]);
    assert_eq!(file.current_uri().host, "dpm3.cern.ch");

    let m = client.metrics();
    // Exactly two failed attempts: the dead origin (dpm2), then dead dpm1.
    // The seed's head-of-list-only filter retried dpm2 from the Metalink →
    // three fail-overs.
    assert_eq!(m.failovers, 2, "dead origin must not be retried from the Metalink");
    assert_eq!(m.metalinks_fetched, 1);
}

/// Checksum algorithms must match case-insensitively: a Metalink declaring
/// `Adler32`/`CRC32` verifies (and can fail) the download — the seed
/// silently skipped any non-lowercase spelling.
#[test]
fn uppercase_checksum_algorithms_are_verified() {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link("c", "s", LinkSpec::lan());
    let data = payload(100_000);
    let store = Arc::new(ObjectStore::new());
    store.put("/good", Bytes::from(data.clone()));
    store.put("/bad", Bytes::from(data.clone()));
    let adler = ioapi::checksum::to_hex(ioapi::checksum::adler32(&data));
    let crc = ioapi::checksum::to_hex(ioapi::checksum::crc32(&data));
    let meta = move |path: &str| {
        let mut f = metalink::MetaFile::new(path.trim_start_matches('/'));
        f.size = Some(100_000);
        // Mixed-case algorithm names, as real Metalink publishers emit them.
        let (adler_v, crc_v) = match path {
            "/good" => (adler.clone(), crc.clone()),
            _ => ("deadbeef".to_string(), crc.clone()),
        };
        f.hashes.push(metalink::Hash { algo: "Adler32".to_string(), value: adler_v });
        f.hashes.push(metalink::Hash { algo: "CRC32".to_string(), value: crc_v });
        f.add_url(metalink::UrlRef::new(format!("http://s{path}")).priority(1));
        Some(metalink::Metalink::single(f).to_xml())
    };
    StorageNode::start(
        store,
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions { metalink: Some(Arc::new(meta)), ..Default::default() },
        ServerConfig::default(),
    );
    let _g = net.enter();
    let client = davix::DavixClient::new(net.connector("c"), net.runtime(), Config::default());
    let opts = MultistreamOptions { streams: 2, chunk_size: 16 * 1024, ..Default::default() };

    let got = multistream_download_verified(&client, "http://s/good", &opts).unwrap();
    assert_eq!(got, data);

    let err = multistream_download_verified(&client, "http://s/bad", &opts).unwrap_err();
    match err {
        DavixError::ChecksumMismatch { algo, expected, .. } => {
            assert_eq!(algo, "Adler32", "the declared (non-lowercase) spelling is reported");
            assert_eq!(expected, "deadbeef");
        }
        other => panic!("uppercase algo must be verified, not skipped: {other}"),
    }
}

/// A replica whose `HEAD` lies about the size must not size the download.
/// The parent compared the Metalink-declared size with the result only
/// *after* allocating `size / chunk_size` slots and `Vec::with_capacity(size)`
/// from whatever the first answering replica claimed — `Content-Length:
/// 1<<50` was an allocation failure, not an error. Now the declared size is
/// passed down and a disagreeing replica is that replica's failure in the
/// fail-over step.
#[test]
fn a_lying_head_is_that_replicas_failure_not_the_allocation_size() {
    let net = SimNet::new();
    for host in ["c", "liar", "s"] {
        net.add_host(host);
    }
    net.set_link("c", "liar", LinkSpec::lan());
    net.set_link("c", "s", LinkSpec::lan());
    let data = payload(300_000);
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data.clone()));
    // The honest node also serves the Metalink: the liar first, itself second.
    let meta = |path: &str| {
        let mut f = metalink::MetaFile::new(path.trim_start_matches('/'));
        f.size = Some(300_000);
        f.add_url(metalink::UrlRef::new(format!("http://liar{path}")).priority(1));
        f.add_url(metalink::UrlRef::new(format!("http://s{path}")).priority(2));
        Some(metalink::Metalink::single(f).to_xml())
    };
    StorageNode::start(
        Arc::clone(&store),
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions { metalink: Some(Arc::new(meta)), ..Default::default() },
        ServerConfig::default(),
    );
    // The liar holds the right bytes but advertises a petabyte.
    let honest = Arc::new(StorageHandler::new(store, StorageOptions::default()));
    let liar_gets = Arc::new(AtomicUsize::new(0));
    let gets = Arc::clone(&liar_gets);
    let liar = Arc::new(move |req: Request| match req.head.method {
        Method::Head => {
            Response::empty(StatusCode::OK).header("Content-Length", (1u64 << 50).to_string())
        }
        _ => {
            gets.fetch_add(1, Ordering::SeqCst);
            honest.handle(req)
        }
    });
    HttpServer::new(liar, ServerConfig::default())
        .serve(Box::new(net.bind("liar", 80).unwrap()), net.runtime());

    let _g = net.enter();
    let cfg = Config::default().no_retry().replica_blacklist(1, Duration::from_secs(60));
    let client = davix::DavixClient::new(net.connector("c"), net.runtime(), cfg);
    let opts = MultistreamOptions { streams: 2, chunk_size: 64 * 1024, ..Default::default() };
    let got = multistream_download_verified(&client, "http://s/f", &opts).unwrap();
    assert_eq!(got, data, "correct bytes from the honest replica");
    let m = client.metrics();
    assert!(m.replicas_blacklisted >= 1, "the liar must be recorded as failed in the scheduler");
    assert_eq!(liar_gets.load(Ordering::SeqCst), 0, "nothing is fetched from the liar");
}

/// Once the Metalink is resolved, a vectored read fans out across the
/// healthy replicas (top-K by latency), not just the current one.
#[test]
fn pread_vec_splits_batches_across_healthy_replicas() {
    let data = payload(120_000);
    let tb = fed_testbed(&data, [LinkSpec::lan(), LinkSpec::lan(), LinkSpec::lan()]);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config());
    let file = client.open_failover(&tb.url(0)).unwrap();
    // Force resolution by killing the origin.
    tb.net.set_host_down("dpm1.cern.ch", true);
    let frags: Vec<(u64, usize)> = (0..16).map(|i| (i * 7000, 64)).collect();
    let got = file.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    // A second vectored read runs with a resolved scheduler and two healthy
    // replicas: both must carry traffic.
    let got = file.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    let stats = tb.net.stats();
    for host in ["dpm2.cern.ch", "dpm3.cern.ch"] {
        assert!(
            stats.conns_per_host.get(host).copied().unwrap_or(0) >= 1,
            "fan-out must spread connections to {host}"
        );
    }
}

/// Open the origin with `cfg`, kill it so the first read resolves the
/// Metalink, then bring it back: the scheduler knows all three replicas and
/// rates them healthy, so the next vectored read fans out.
fn resolved_replica_file(tb: &Testbed, cfg: Config) -> (davix::DavixClient, davix::ReplicaFile) {
    let client = tb.davix_client(cfg);
    let file = client.open_failover(&tb.url(0)).unwrap();
    tb.net.set_host_down("dpm1.cern.ch", true);
    let mut buf = vec![0u8; 100];
    file.pread(0, &mut buf).unwrap();
    tb.net.set_host_down("dpm1.cern.ch", false);
    assert_eq!(file.scheduler().healthy_count(), 3);
    (client, file)
}

/// Connections the client has opened to `host` so far.
fn conns(tb: &Testbed, host: &str) -> u64 {
    tb.net.stats().conns_per_host.get(host).copied().unwrap_or(0)
}

/// A read-ahead job is the pool's only worker (`io_threads = 1`), and the
/// vectored read it issues fans out over two replicas. The fan-out's
/// drains the pool cannot start run on that worker itself, so the prefetch
/// lands instead of waiting forever on a queue only it could serve.
#[test]
fn a_prefetch_fans_out_from_inside_the_only_pool_worker() {
    let data = payload(256 * 1024);
    let tb = fed_testbed(&data, [LinkSpec::lan(), LinkSpec::lan(), LinkSpec::lan()]);
    let _g = tb.net.enter();
    let cfg = fed_config().with_io_threads(1).with_cache(1 << 20).with_cache_block_size(16 * 1024);
    let (client, file) = resolved_replica_file(&tb, cfg);

    // Three blocks, none cached yet: one vectored read of three ranges.
    let frags: Vec<(u64, usize)> = vec![(40_000, 1000), (100_000, 1000), (200_000, 1000)];
    let dpm3_before = conns(&tb, "dpm3.cern.ch");
    file.prefetch_vec(&frags);
    // The read waits on the blocks the prefetch claimed: a read-ahead job
    // stuck on its own batch would stall the simulation right here.
    let before = file.io_stats();
    let got = file.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    assert_eq!(file.io_stats().since(&before).round_trips, 0, "served from the prefetch");
    assert_eq!(client.metrics().bytes_prefetched, 3 * 16 * 1024, "the prefetch landed");
    assert!(conns(&tb, "dpm3.cern.ch") > dpm3_before, "the prefetch fanned out");
    assert_eq!(client.io_pool().peak_workers(), 1);
}

/// `io_threads` bounds every thread the client starts for I/O: a vectored
/// read fanned out over healthy replicas with `io_threads = 1` runs one
/// batch on a pool worker and the other on the caller — never more than
/// one client thread beside the caller, counted by the simulator.
#[test]
fn a_fanned_out_read_spawns_no_more_threads_than_io_threads() {
    let data = payload(120_000);
    let tb = fed_testbed(&data, [LinkSpec::lan(), LinkSpec::lan(), LinkSpec::lan()]);
    let _g = tb.net.enter();
    let (client, file) = resolved_replica_file(&tb, fed_config().with_io_threads(1));

    // Sample the census every 100 µs of virtual time while the read runs;
    // the sampler is one registered thread of its own.
    let baseline = tb.net.thread_census() + 1;
    let peak = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let (net, rt) = (tb.net.clone(), tb.net.runtime());
    let (seen, stopped) = (Arc::clone(&peak), Arc::clone(&stop));
    tb.net.spawn("census", move || {
        while !stopped.load(Ordering::SeqCst) {
            seen.fetch_max(net.thread_census(), Ordering::SeqCst);
            rt.sleep(Duration::from_micros(100));
        }
    });
    let frags: Vec<(u64, usize)> = (0..16).map(|i| (i * 7000, 64)).collect();
    let dpm3_before = conns(&tb, "dpm3.cern.ch");
    let got = file.pread_vec(&frags).unwrap();
    stop.store(true, Ordering::SeqCst);
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    assert!(conns(&tb, "dpm3.cern.ch") > dpm3_before, "the read fanned out");
    let spawned = peak.load(Ordering::SeqCst) - baseline;
    assert!(spawned <= 1, "{spawned} client threads at once with io_threads = 1");
    assert_eq!(client.io_pool().peak_workers(), 1);
}

/// A multistream worker whose replica dies mid-download respawns on the
/// scheduler's next-best replica instead of shrinking the stream pool; the
/// blacklisted replica rejoins after its cooldown once the host recovers.
#[test]
fn multistream_worker_respawns_when_its_replica_dies() {
    let data = payload(2_000_000);
    let link = LinkSpec {
        delay: Duration::from_millis(5),
        bandwidth: Some(2_000_000),
        ..Default::default()
    };
    let tb = fed_testbed(&data, [link, link, link]);
    let cfg = Config::default().no_retry().replica_blacklist(1, Duration::from_millis(100));
    let _g = tb.net.enter();
    let client = tb.davix_client(cfg);
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();

    // Kill dpm1 mid-download, then bring it back.
    let net2 = tb.net.clone();
    let rt = tb.net.runtime();
    tb.net.spawn("flapper", move || {
        rt.sleep(Duration::from_millis(80));
        net2.set_host_down("dpm1.cern.ch", true);
        rt.sleep(Duration::from_millis(250));
        net2.set_host_down("dpm1.cern.ch", false);
    });

    let (got, report) = multistream_download_with_report(
        &client,
        &replicas,
        &MultistreamOptions { streams: 3, chunk_size: 64 * 1024, ..Default::default() },
    )
    .unwrap();
    assert_eq!(got, data);
    assert!(report.respawns >= 1, "the worker must switch replica, not die");
    let m = client.metrics();
    assert!(m.streams_respawned >= 1);
    assert!(m.replicas_blacklisted >= 1, "the dead replica must get blacklisted");
}
