//! The full paper pipeline as an integration test: a ROOT-style tree file
//! served by a DPM-like node, analyzed through davix (HTTP) and through
//! xrdlite, with physics results that must be identical to a local read —
//! plus cross-transport vectored-read equivalence and simulator determinism.

use bytes::Bytes;
use davix::Config;
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH};
use ioapi::{MemFile, RandomAccess};
use netsim::LinkSpec;
use rootio::{AnalysisJob, Generator, Schema, TreeCacheOptions, TreeReader};
use std::sync::Arc;
use std::time::Duration;

fn tree_bytes(n_events: u64) -> Vec<u8> {
    let mut g = Generator::new(Schema::hep(32), 2014);
    rootio::write_tree(
        &mut g,
        n_events,
        &rootio::WriterOptions { events_per_basket: 100, compress: true },
    )
}

fn xrd_testbed(data: Vec<u8>, link: LinkSpec) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), link)],
        data: Bytes::from(data),
        with_xrd: true,
        ..Default::default()
    })
}

#[test]
fn analysis_over_http_matches_local_analysis() {
    let bytes = tree_bytes(2_000);
    let local_reader = Arc::new(TreeReader::open(Arc::new(MemFile::new(bytes.clone()))).unwrap());
    let rt_local: Arc<dyn netsim::Runtime> = Arc::new(netsim::RealRuntime::new());
    let job = AnalysisJob::default();
    let local = job.run(local_reader, TreeCacheOptions::default(), &rt_local).unwrap();

    let tb = xrd_testbed(bytes, LinkSpec::lan());
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default());
    let file = Arc::new(client.open(&tb.url(0)).unwrap());
    let remote_reader = Arc::new(TreeReader::open(file as Arc<dyn RandomAccess>).unwrap());
    let rt_sim: Arc<dyn netsim::Runtime> = tb.net.runtime();
    let remote = job.run(remote_reader, TreeCacheOptions::default(), &rt_sim).unwrap();

    assert_eq!(local.events_processed, remote.events_processed);
    assert_eq!(local.cal_sum, remote.cal_sum);
    assert_eq!(local.mass_histogram, remote.mass_histogram);
}

#[test]
fn analysis_over_xrd_matches_local_analysis() {
    let bytes = tree_bytes(2_000);
    let local_reader = Arc::new(TreeReader::open(Arc::new(MemFile::new(bytes.clone()))).unwrap());
    let rt_local: Arc<dyn netsim::Runtime> = Arc::new(netsim::RealRuntime::new());
    let job = AnalysisJob::default();
    let local = job.run(local_reader, TreeCacheOptions::default(), &rt_local).unwrap();

    let tb = xrd_testbed(bytes, LinkSpec::lan());
    let _g = tb.net.enter();
    let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
    let file = Arc::new(xrd.open(DATA_PATH).unwrap());
    let remote_reader = Arc::new(TreeReader::open(file as Arc<dyn RandomAccess>).unwrap());
    let rt_sim: Arc<dyn netsim::Runtime> = tb.net.runtime();
    let remote = job
        .run(remote_reader, TreeCacheOptions { prefetch: true, ..Default::default() }, &rt_sim)
        .unwrap();

    assert_eq!(local.events_processed, remote.events_processed);
    assert_eq!(local.cal_sum, remote.cal_sum);
    assert_eq!(local.mass_histogram, remote.mass_histogram);
}

#[test]
fn vectored_reads_agree_across_all_transports() {
    let bytes = tree_bytes(500);
    let frags: Vec<(u64, usize)> = vec![(0, 64), (1_000, 128), (5_000, 32), (200, 16)];

    let mem = MemFile::new(bytes.clone());
    let expected = mem.read_vec(&frags).unwrap();

    let tb = xrd_testbed(bytes, LinkSpec::pan_european());
    let _g = tb.net.enter();

    let client = tb.davix_client(Config::default());
    let dav_file = client.open(&tb.url(0)).unwrap();
    assert_eq!(dav_file.pread_vec(&frags).unwrap(), expected, "davix multirange");

    let client2 = tb.davix_client(Config::default().single_ranges());
    let dav_single = client2.open(&tb.url(0)).unwrap();
    assert_eq!(dav_single.pread_vec(&frags).unwrap(), expected, "davix single-ranges");

    let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
    let xrd_file = xrd.open(DATA_PATH).unwrap();
    assert_eq!(xrd_file.read_vec(&frags).unwrap(), expected, "xrd readv");
}

#[test]
fn tree_cache_cuts_round_trips_by_orders_of_magnitude() {
    let bytes = tree_bytes(2_000);
    let tb = xrd_testbed(bytes, LinkSpec::lan());
    let _g = tb.net.enter();
    let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();
    let job = AnalysisJob { read_calorimeter: false, ..Default::default() };

    let run = |cache: bool| -> u64 {
        let client = tb.davix_client(Config::default());
        let file = Arc::new(client.open(&tb.url(0)).unwrap());
        let reader = Arc::new(TreeReader::open(file as Arc<dyn RandomAccess>).unwrap());
        job.run(
            reader,
            TreeCacheOptions { enabled: cache, window_events: 1000, ..Default::default() },
            &rt,
        )
        .unwrap();
        client.metrics().requests
    };

    let with_cache = run(true);
    let without_cache = run(false);
    assert!(
        without_cache >= with_cache * 10,
        "cache: {with_cache} requests, no cache: {without_cache}"
    );
}

#[test]
fn whole_pipeline_is_deterministic_in_virtual_time() {
    fn run() -> (Duration, i64) {
        let bytes = tree_bytes(1_000);
        let tb = xrd_testbed(bytes, LinkSpec::wan());
        let _g = tb.net.enter();
        let client = tb.davix_client(Config::default());
        let file = Arc::new(client.open(&tb.url(0)).unwrap());
        let reader = Arc::new(TreeReader::open(file as Arc<dyn RandomAccess>).unwrap());
        let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();
        let job = AnalysisJob { per_event_cpu: Duration::from_micros(500), ..Default::default() };
        let t0 = tb.net.now();
        let report = job.run(reader, TreeCacheOptions::default(), &rt).unwrap();
        (tb.net.now() - t0, report.cal_sum)
    }
    let a = run();
    let b = run();
    assert_eq!(a, b, "same scenario, same virtual timing and physics");
}

#[test]
fn fractional_reads_scale_io_down() {
    let bytes = tree_bytes(2_000);
    let tb = xrd_testbed(bytes, LinkSpec::lan());
    let _g = tb.net.enter();
    let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();

    let run = |fraction: f64| -> (u64, u64) {
        let client = tb.davix_client(Config::default());
        let file = Arc::new(client.open(&tb.url(0)).unwrap());
        let reader = Arc::new(TreeReader::open(file as Arc<dyn RandomAccess>).unwrap());
        let job = AnalysisJob { fraction, ..Default::default() };
        let report = job
            .run(reader, TreeCacheOptions { window_events: 200, ..Default::default() }, &rt)
            .unwrap();
        (report.events_processed, client.metrics().bytes_in)
    };

    let (full_events, full_bytes) = run(1.0);
    let (tenth_events, tenth_bytes) = run(0.1);
    assert_eq!(full_events, 2_000);
    assert_eq!(tenth_events, 200);
    // Events in a window share baskets, so 10% of the events still touches
    // every basket of the selected branches; byte volume must not grow.
    assert!(tenth_bytes <= full_bytes);
}

/// The TreeCache's window prefetch overlaps each window's round trip with
/// the work on the window before it, over either protocol: a WAN job with
/// it takes less virtual time than one without, and its threads end with
/// the job.
#[test]
fn window_prefetch_hides_wan_round_trips_over_both_protocols() {
    let bytes = tree_bytes(1_000);
    // Ten windows of 100 events, 200 ms of work each against a 150 ms
    // round trip: without prefetch each window waits for its read.
    let job = AnalysisJob { per_event_cpu: Duration::from_millis(2), ..Default::default() };
    for proto in ["davix", "xrd"] {
        let mut took = Vec::new();
        for prefetch in [false, true] {
            let tb = xrd_testbed(bytes.clone(), LinkSpec::wan());
            let _g = tb.net.enter();
            let source: Arc<dyn RandomAccess> = if proto == "davix" {
                Arc::new(tb.davix_client(Config::default()).open(&tb.url(0)).unwrap())
            } else {
                let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
                Arc::new(xrd.open(DATA_PATH).unwrap())
            };
            let reader = Arc::new(TreeReader::open(source).unwrap());
            let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();
            let opts = TreeCacheOptions { window_events: 100, enabled: true, prefetch };
            let before = tb.net.thread_census();
            let t0 = tb.net.now();
            let report = job.run(reader, opts, &rt).unwrap();
            took.push(tb.net.now() - t0);
            assert_eq!((report.events_processed, report.windows_loaded), (1_000, 10));
            tb.net.sleep(Duration::from_millis(1));
            assert_eq!(tb.net.thread_census(), before, "{proto}, prefetch {prefetch}: threads");
        }
        eprintln!("{proto}: {:?} without prefetch, {:?} with", took[0], took[1]);
        assert!(
            took[1] + Duration::from_secs(1) < took[0],
            "{proto}: prefetch {:?} must beat no prefetch {:?}",
            took[1],
            took[0]
        );
    }
}
