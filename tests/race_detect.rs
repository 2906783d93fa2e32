//! No-false-positive pins for the `race-detect` sanitizer on the client's
//! trickiest real concurrency: the block cache's single-flight handoff
//! (losers park on the winner's in-flight fetch and then read the block the
//! winner wrote) and a multistream upload's pool handoff. Both are heavily
//! synchronized by design — the detector must stay silent. Runtime-gated on
//! the detector so the file builds (as a no-op) in plain test runs too.

use bytes::Bytes;
use davix::{multistream_upload, Config, DavixClient, UploadOptions};
use davix_sync::{AtomicUsize, Ordering};
use httpd::ServerConfig;
use netsim::{race, LinkSpec, Runtime as _, SimNet};
use objstore::{ObjectStore, StorageNode, StorageOptions};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::time::Duration;

/// Serializes tests against the process-global report registry.
static TEST_LOCK: StdMutex<()> = StdMutex::new(());

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 131 + 17) % 251) as u8).collect()
}

fn sim(delay_ms: u64) -> SimNet {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link(
        "c",
        "s",
        LinkSpec { delay: Duration::from_millis(delay_ms), ..Default::default() },
    );
    net
}

fn storage(net: &SimNet, data: Vec<u8>) {
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data));
    StorageNode::start(
        store,
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
}

#[test]
fn singleflight_cache_handoff_has_no_modeled_race() {
    if !race::enabled() {
        return; // needs --features davix-repro/race-detect
    }
    let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    race::set_panic_on_race(false);
    race::take_reports();

    const READERS: usize = 8;
    let data = payload(256 * 1024);
    let net = sim(50); // slow link: every reader arrives while the fetch flies
    storage(&net, data.clone());
    let _guard = net.enter();
    let client = DavixClient::new(
        net.connector("c"),
        net.runtime(),
        Config::default().no_retry().with_cache(16 * 1024 * 1024),
    );
    let file = Arc::new(client.open("http://s/f").unwrap());
    let done = net.runtime().signal();
    let live = Arc::new(AtomicUsize::new(READERS));
    let expected = Arc::new(data);
    for w in 0..READERS {
        let file = Arc::clone(&file);
        let done = Arc::clone(&done);
        let live = Arc::clone(&live);
        let expected = Arc::clone(&expected);
        net.spawn(&format!("reader-{w}"), move || {
            let mut buf = vec![0u8; 4096];
            let off = (w * 128) as u64;
            let n = file.pread(off, &mut buf).unwrap();
            assert_eq!(n, 4096);
            assert_eq!(&buf, &expected[off as usize..off as usize + 4096]);
            if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                done.set();
            }
        });
    }
    done.wait(None);
    let d = client.metrics();
    assert_eq!(d.singleflight_waits, (READERS - 1) as u64, "scenario must exercise the handoff");

    let reports = race::take_reports();
    assert!(
        reports.is_empty(),
        "single-flight handoff must be fully ordered: {:?}",
        reports.iter().map(|r| r.detail()).collect::<Vec<_>>()
    );
}

#[test]
fn multistream_upload_pool_handoff_has_no_modeled_race() {
    if !race::enabled() {
        return; // needs --features davix-repro/race-detect
    }
    let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    race::set_panic_on_race(false);
    race::take_reports();

    let net = sim(5);
    storage(&net, payload(1024));
    let _guard = net.enter();
    let client = DavixClient::new(
        net.connector("c"),
        net.runtime(),
        Config::default().no_retry().with_io_threads(2),
    );
    let data = Bytes::from(payload(40_000));
    let report = multistream_upload(
        &client,
        "http://s/up/obj",
        Arc::new(data) as Arc<dyn davix::ChunkSource>,
        &UploadOptions { streams: Some(2), chunk_size: Some(8192), ..Default::default() },
    )
    .expect("upload commits");
    assert!(report.chunks > 1, "scenario must fan out over pool workers");

    let reports = race::take_reports();
    assert!(
        reports.is_empty(),
        "upload pool handoff must be fully ordered: {:?}",
        reports.iter().map(|r| r.detail()).collect::<Vec<_>>()
    );
}
