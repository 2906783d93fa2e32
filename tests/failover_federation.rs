//! Integration tests for §2.4: Metalink fail-over, multi-stream downloads
//! and the DynaFed federation, under fault injection.

use bytes::Bytes;
use davix::{multistream_download, Config, DavixError, MultistreamOptions};
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH, FED};
use netsim::LinkSpec;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 17) % 241) as u8).collect()
}

fn three_replica_testbed(data: &[u8]) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::pan_european()),
            ("dpm3.cern.ch".to_string(), LinkSpec::wan()),
        ],
        data: Bytes::from(data.to_vec()),
        with_federation: true,
        ..Default::default()
    })
}

/// Fed-backed metalink config: davix asks the federation for replica lists.
fn fed_config(_tb: &Testbed) -> Config {
    Config::default().with_metalink_base(format!("http://{FED}/myfed").parse().unwrap())
}

#[test]
fn failover_survives_one_and_two_dead_replicas() {
    let data = payload(50_000);
    for kill in [&["dpm1.cern.ch"][..], &["dpm1.cern.ch", "dpm2.cern.ch"][..]] {
        let tb = three_replica_testbed(&data);
        let _g = tb.net.enter();
        let client = tb.davix_client(fed_config(&tb));
        // Open against the primary while it is still up.
        let f = client.open_failover(&tb.url(0)).unwrap();
        let mut buf = vec![0u8; 100];
        f.pread(0, &mut buf).unwrap();
        assert_eq!(&buf, &data[..100]);

        for host in kill {
            tb.net.set_host_down(host, true);
        }
        // Reads keep working through surviving replicas.
        f.pread(10_000, &mut buf).unwrap();
        assert_eq!(&buf, &data[10_000..10_100]);
        let m = client.metrics();
        assert!(m.failovers >= 1, "fail-over must have happened");
        assert!(m.metalinks_fetched >= 1);
        let current = f.current_uri();
        assert!(!kill.contains(&current.host.as_str()), "moved off the dead replica");
    }
}

#[test]
fn failover_fails_only_when_every_replica_is_dead() {
    let data = payload(10_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config(&tb).no_retry());
    let f = client.open_failover(&tb.url(0)).unwrap();
    for host in &tb.hosts {
        tb.net.set_host_down(host, true);
    }
    let mut buf = vec![0u8; 10];
    let err = f.pread(0, &mut buf).unwrap_err();
    assert!(matches!(err, DavixError::AllReplicasFailed { .. }), "got {err}");
}

#[test]
fn failover_works_from_vectored_reads_too() {
    let data = payload(80_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config(&tb));
    let f = client.open_failover(&tb.url(0)).unwrap();
    tb.net.set_host_down("dpm1.cern.ch", true);
    let frags: Vec<(u64, usize)> = (0..20).map(|i| (i * 4000, 32)).collect();
    let got = f.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
}

#[test]
fn origin_metalink_also_resolves_without_federation() {
    // No federation: the storage node itself serves ?metalink (wired to the
    // shared catalogue by the testbed). Kill dpm1 *after* open; the metalink
    // must then come from... dpm1 is dead, so origin-based discovery fails,
    // and that is exactly the scenario where a federation is required.
    let data = payload(5_000);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::lan()),
        ],
        data: Bytes::from(data.clone()),
        with_federation: false,
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let f = client.open_failover(&tb.url(0)).unwrap();
    tb.net.set_host_down("dpm1.cern.ch", true);
    let mut buf = vec![0u8; 10];
    let err = f.pread(0, &mut buf).unwrap_err();
    assert!(
        matches!(err, DavixError::AllReplicasFailed { .. }),
        "origin-only metalink cannot survive origin death: {err}"
    );

    // But if the origin stays up and merely loses the file, origin metalink
    // discovery works.
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::lan()),
        ],
        data: Bytes::from(data.clone()),
        with_federation: false,
        ..Default::default()
    });
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let f = client.open_failover(&tb.url(0)).unwrap();
    tb.nodes[0].store.delete(DATA_PATH);
    let mut buf = vec![0u8; 100];
    f.pread(100, &mut buf).unwrap();
    assert_eq!(&buf, &data[100..200]);
    assert_eq!(f.current_uri().host, "dpm2.cern.ch");
}

#[test]
fn multistream_download_is_correct_and_spreads_load() {
    let data = payload(600_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
    let (got, _) = multistream_download(
        &client,
        &client.replica_scheduler(replicas),
        &MultistreamOptions { streams: 3, chunk_size: 64 * 1024 },
    )
    .unwrap();
    assert_eq!(got, data);
    // Load spread: every replica saw at least one connection.
    let stats = tb.net.stats();
    for host in &tb.hosts {
        assert!(stats.conns_per_host.get(host).copied().unwrap_or(0) >= 1, "replica {host} unused");
    }
}

#[test]
fn multistream_worker_threads_are_bounded_by_io_pool() {
    let data = payload(600_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    // Ask for 6 streams but cap the client's I/O pool at 2: the download
    // still completes (workers drain the shared chunk queue) and at most
    // 2 worker threads ever ran at once.
    let client = tb.davix_client(Config::default().with_io_threads(2));
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
    let (got, _) = multistream_download(
        &client,
        &client.replica_scheduler(replicas),
        &MultistreamOptions { streams: 6, chunk_size: 64 * 1024 },
    )
    .unwrap();
    assert_eq!(got, data);
    assert_eq!(client.io_pool().max_workers(), 2);
    assert!(
        client.io_pool().peak_workers() <= 2,
        "pool must bound worker threads at 2, saw {}",
        client.io_pool().peak_workers()
    );
}

#[test]
fn multistream_survives_replica_death_mid_download() {
    let data = payload(400_000);
    let tb = three_replica_testbed(&data);
    // Take one replica down before we start (deterministic).
    tb.net.set_host_down("dpm2.cern.ch", true);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
    let (got, _) = multistream_download(
        &client,
        &client.replica_scheduler(replicas),
        &MultistreamOptions { streams: 3, chunk_size: 32 * 1024 },
    )
    .unwrap();
    assert_eq!(got, data);
}

#[test]
fn multistream_fails_cleanly_when_everything_is_dead() {
    let data = payload(10_000);
    let tb = three_replica_testbed(&data);
    for host in &tb.hosts {
        tb.net.set_host_down(host, true);
    }
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
    let err = multistream_download(
        &client,
        &client.replica_scheduler(replicas),
        &MultistreamOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, DavixError::AllReplicasFailed { .. }));
}

#[test]
fn federation_redirects_plain_gets_to_best_replica() {
    let data = payload(20_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    // A GET on the federation URL follows the 302 to dpm1 transparently.
    let got = client.posix().get(&tb.fed_url()).unwrap();
    assert_eq!(got, data);
    let m = client.metrics();
    assert!(m.redirects >= 1);

    // Kill dpm1 and tell the catalogue: the federation now redirects to dpm2.
    tb.net.set_host_down("dpm1.cern.ch", true);
    tb.federation.as_ref().unwrap().catalog.mark_host("dpm1.cern.ch", false);
    let got = client.posix().get(&tb.fed_url()).unwrap();
    assert_eq!(got, data);
}

#[test]
fn health_monitor_keeps_federation_answers_fresh() {
    let data = payload(1_000);
    let tb = three_replica_testbed(&data);
    let catalog = std::sync::Arc::clone(&tb.federation.as_ref().unwrap().catalog);
    let monitor = dynafed::HealthMonitor::start(
        std::sync::Arc::clone(&catalog),
        tb.net.connector(FED),
        tb.net.runtime(),
        std::time::Duration::from_millis(200),
        Some(3),
    );
    let _g = tb.net.enter();
    tb.net.sleep(std::time::Duration::from_millis(100));
    assert_eq!(catalog.live_replicas(DATA_PATH).len(), 3);
    tb.net.set_host_down("dpm1.cern.ch", true);
    tb.net.sleep(std::time::Duration::from_millis(400));
    assert_eq!(catalog.live_replicas(DATA_PATH).len(), 2, "monitor noticed the death");
    monitor.stop();
}

/// A whole-file copy from a fail-over file survives its replica dying
/// mid-body: the next replica sends the entity again, the copy goes on past
/// the bytes already written, and the output is whole and in order.
#[test]
fn a_failover_copy_goes_on_at_the_next_replica_when_one_dies_mid_body() {
    struct KillMidBody<'a> {
        tb: &'a Testbed,
        at: usize,
        out: Vec<u8>,
    }
    impl std::io::Write for KillMidBody<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.out.extend_from_slice(buf);
            if self.out.len() >= self.at {
                self.tb.net.set_host_down("dpm1.cern.ch", true);
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let data = payload(1_000_000);
    let tb = three_replica_testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(fed_config(&tb).no_retry());
    let f = client.open_failover(&tb.url(0)).unwrap();
    let before = client.metrics();
    let mut sink = KillMidBody { tb: &tb, at: 300_000, out: Vec::new() };
    assert_eq!(f.copy_to(&mut sink).unwrap(), data.len() as u64);
    assert!(sink.out == data, "the copy must be whole and in order");
    let m = client.metrics().since(&before);
    assert!(m.failovers >= 1, "the copy must have failed over");
    assert_ne!(f.current_uri().host, "dpm1.cern.ch");
}
