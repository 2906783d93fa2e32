//! The one cached-read front (`DavFile`) however it was opened: every row of
//! the table below must return the same bytes and move `IoStats` the same
//! way on a file opened directly or with fail-over, cached or not —
//! `round_trips` being the upstream fetches when a cache is bound and 1 per
//! read when not. Plus the regression for `DavFile::read` wedging the
//! simulator when two threads share one cursor, on both kinds of open.
//!
//! And the flat vectored read on every source: `read_vec_into` lays out
//! exactly what `read_exact_at` reads fragment by fragment, refuses a
//! buffer of the wrong length before it sends anything, and turns a
//! multipart answer that leaves a fragment out into an error before the
//! `TreeCache` decodes a byte of it.

use bytes::Bytes;
use davix::{Config, DavFile, DavixClient, DavixError};
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH, FED};
use davix_sync::{AtomicBool, AtomicUsize, Ordering};
use httpd::{Handler, HttpServer, Request, Response, ServerConfig};
use httpwire::multipart::MultipartWriter;
use httpwire::range::{parse_range_header, RangeSpec};
use httpwire::{ContentRange, Method, StatusCode};
use ioapi::{IoStatsSnapshot, MemFile, RandomAccess};
use netsim::{LinkSpec, Runtime as _, SimNet};
use objstore::{ObjectStore, StorageHandler, StorageOptions};
use rootio::{Generator, Schema, TreeCache, TreeCacheOptions, TreeReader, WriterOptions};
use std::sync::Arc;
use std::time::Duration;

/// Four 256 KiB cache blocks, the last one short.
const SIZE: usize = 1_000_000;

fn payload() -> Vec<u8> {
    (0..SIZE).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

fn testbed(data: &[u8]) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), LinkSpec::lan())],
        data: Bytes::from(data.to_vec()),
        ..Default::default()
    })
}

/// Open the testbed's file directly or with fail-over.
fn open(client: &DavixClient, tb: &Testbed, failover: bool) -> DavFile {
    match failover {
        false => client.open(&tb.url(0)).unwrap(),
        true => client.open_failover(&tb.url(0)).unwrap(),
    }
}

/// What one row does to a fresh handle; returns the bytes it read.
enum Op {
    /// `pread(offset, buf of len)`; expects this many bytes back.
    Pread {
        offset: u64,
        len: usize,
        expect: usize,
    },
    PreadVec(&'static [(u64, usize)]),
    /// `pread_vec` that must fail with `InvalidArgument`.
    BeyondEof(&'static [(u64, usize)]),
}

struct Row {
    name: &'static str,
    op: Op,
    /// Expected `IoStats` delta with no cache: `round_trips` 1 per read.
    uncached: IoStatsSnapshot,
    /// Expected upstream fetches (= `round_trips`) on a cold cache.
    cached_round_trips: u64,
}

fn stats(reads: u64, vector_reads: u64, bytes_read: u64, round_trips: u64) -> IoStatsSnapshot {
    IoStatsSnapshot { reads, vector_reads, bytes_read, round_trips }
}

const ORDERED: &[(u64, usize)] = &[(0, 100), (500_000, 200), (999_900, 100)];
const OVERLAPPING: &[(u64, usize)] = &[(5_000, 100), (0, 50), (5_050, 100), (4_990, 20)];

fn table() -> Vec<Row> {
    vec![
        Row {
            name: "pread mid-file",
            op: Op::Pread { offset: 5_000, len: 1_000, expect: 1_000 },
            uncached: stats(1, 0, 1_000, 1),
            cached_round_trips: 1,
        },
        Row {
            name: "pread across EOF",
            op: Op::Pread { offset: 999_500, len: 1_000, expect: 500 },
            uncached: stats(1, 0, 500, 1),
            cached_round_trips: 1,
        },
        Row {
            name: "pread at EOF",
            op: Op::Pread { offset: SIZE as u64, len: 64, expect: 0 },
            uncached: stats(1, 0, 0, 1),
            cached_round_trips: 0,
        },
        Row {
            name: "pread after EOF",
            op: Op::Pread { offset: 2 * SIZE as u64, len: 64, expect: 0 },
            uncached: stats(1, 0, 0, 1),
            cached_round_trips: 0,
        },
        Row {
            name: "pread_vec ordered",
            op: Op::PreadVec(ORDERED),
            uncached: stats(0, 1, 400, 1),
            cached_round_trips: 1,
        },
        Row {
            name: "pread_vec overlapping and unsorted",
            op: Op::PreadVec(OVERLAPPING),
            uncached: stats(0, 1, 270, 1),
            cached_round_trips: 1,
        },
        Row {
            name: "pread_vec of nothing",
            op: Op::PreadVec(&[]),
            uncached: stats(0, 0, 0, 0),
            cached_round_trips: 0,
        },
        Row {
            name: "pread_vec of empty fragments",
            op: Op::PreadVec(&[(10, 0), (999_999, 0)]),
            uncached: stats(0, 0, 0, 0),
            cached_round_trips: 0,
        },
        Row {
            name: "fragment beyond EOF",
            op: Op::BeyondEof(&[(10, 10), (999_999, 2)]),
            uncached: stats(0, 0, 0, 0),
            cached_round_trips: 0,
        },
    ]
}

fn run(file: &DavFile, op: &Op, data: &[u8]) -> Vec<Vec<u8>> {
    let slice = |(off, len): (u64, usize)| data[off as usize..off as usize + len].to_vec();
    match *op {
        Op::Pread { offset, len, expect } => {
            let mut buf = vec![0u8; len];
            assert_eq!(file.pread(offset, &mut buf).unwrap(), expect);
            buf.truncate(expect);
            if expect > 0 {
                assert_eq!(buf, slice((offset, expect)));
            }
            vec![buf]
        }
        Op::PreadVec(frags) => {
            let got = file.pread_vec(frags).unwrap();
            assert_eq!(got, frags.iter().map(|&f| slice(f)).collect::<Vec<_>>());
            got
        }
        Op::BeyondEof(frags) => {
            let err = file.pread_vec(frags).unwrap_err();
            assert!(matches!(err, DavixError::InvalidArgument(_)), "{err}");
            Vec::new()
        }
    }
}

#[test]
fn every_face_reads_the_same_bytes_and_counts_the_same_way() {
    let data = payload();
    let tb = testbed(&data);
    let _g = tb.net.enter();
    let plain = Config::default().no_retry();
    let cached = plain.clone().with_cache(16 * 1024 * 1024);
    for row in table() {
        let mut bytes: Vec<Vec<Vec<u8>>> = Vec::new();
        for (cfg, is_cached) in [(&plain, false), (&cached, true)] {
            for failover in [false, true] {
                // A fresh client per cell: nothing is warm, nothing is shared.
                let client = tb.davix_client(cfg.clone());
                let file = open(&client, &tb, failover);
                let cell = format!("{} / failover={failover} cached={is_cached}", row.name);
                assert_eq!(file.size().unwrap(), SIZE as u64, "{cell}");
                assert_eq!(file.scheduler().is_some(), failover, "{cell}");
                // Replicas disagree on ETags: only a direct open reports one.
                let stat = file.stat();
                assert_eq!((stat.size, stat.is_dir), (SIZE as u64, false), "{cell}");
                assert_eq!(stat.etag.is_some(), !failover, "{cell}");
                let (before, sent) = (file.stats(), client.metrics());
                bytes.push(run(&file, &row.op, &data));
                let want = match is_cached {
                    false => row.uncached,
                    true => IoStatsSnapshot { round_trips: row.cached_round_trips, ..row.uncached },
                };
                assert_eq!(file.stats().since(&before), want, "{cell}");
                // No row falls back to one request per fragment, and a read
                // with no round trip sends nothing.
                let sent = client.metrics().since(&sent);
                assert_eq!(sent.vector_fallbacks, 0, "{cell}");
                if want.round_trips == 0 {
                    assert_eq!(sent.requests, 0, "{cell}");
                }
            }
        }
        assert!(bytes.windows(2).all(|w| w[0] == w[1]), "{}: the opens disagree", row.name);
    }
}

/// Two sim threads sharing one `DavFile` cursor. With the cursor lock held
/// across the network read (the parent's code) the second thread blocks on
/// a mutex the scheduler cannot see: virtual time never advances, and the
/// stall watchdog never fires because the net is never quiescent — the test
/// hangs. With the window claimed under the lock and read after releasing
/// it, the eight reads finish in virtual milliseconds — on either kind of
/// open, a fail-over file having the same cursor.
#[test]
fn two_threads_sharing_one_cursor_finish_in_virtual_milliseconds() {
    for failover in [false, true] {
        two_threads_share_one_cursor(failover);
    }
}

fn two_threads_share_one_cursor(failover: bool) {
    const READERS: usize = 2;
    const READS: usize = 4;
    const LEN: usize = 1_000;
    let data = Arc::new(payload());
    let tb = testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let file = Arc::new(open(&client, &tb, failover));

    let done = tb.net.runtime().signal();
    let live = Arc::new(AtomicUsize::new(READERS));
    // How often each of the eight windows was claimed.
    let claimed: Arc<Vec<AtomicUsize>> =
        Arc::new((0..READERS * READS).map(|_| AtomicUsize::new(0)).collect());
    let t0 = tb.net.now();
    for r in 0..READERS {
        let (file, data, done) = (Arc::clone(&file), Arc::clone(&data), Arc::clone(&done));
        let (live, claimed) = (Arc::clone(&live), Arc::clone(&claimed));
        tb.net.spawn(&format!("reader-{r}"), move || {
            for _ in 0..READS {
                let mut buf = vec![0u8; LEN];
                assert_eq!(file.read(&mut buf).unwrap(), LEN);
                // Which window did this call claim? The payload's period
                // (251) is coprime to the window length, so among the eight
                // windows the bytes identify the offset.
                let window = (0..READERS * READS)
                    .find(|&w| data[w * LEN..(w + 1) * LEN] == buf[..])
                    .expect("every slice is the right bytes for some window");
                claimed[window].fetch_add(1, Ordering::SeqCst);
            }
            if live.fetch_sub(1, Ordering::SeqCst) == 1 {
                done.set();
            }
        });
    }
    done.wait(None);
    let elapsed = tb.net.now() - t0;
    assert!(
        elapsed < Duration::from_millis(100),
        "failover={failover}: eight reads took {elapsed:?}"
    );
    assert_eq!(file.tell(), (READERS * READS * LEN) as u64);
    // Disjoint, consecutive windows: each one read exactly once.
    assert!(claimed.iter().all(|c| c.load(Ordering::SeqCst) == 1), "{claimed:?}");
}

/// A single-threaded caller keeps the old contract: a failed `read` leaves
/// the cursor where it was — also when every replica of a fail-over file
/// is down.
#[test]
fn a_failed_read_gives_its_window_back() {
    for failover in [false, true] {
        a_failed_read_leaves_the_cursor(failover);
    }
}

fn a_failed_read_leaves_the_cursor(failover: bool) {
    let data = payload();
    let tb = testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let file = open(&client, &tb, failover);
    let mut buf = vec![0u8; 300];
    assert_eq!(file.read(&mut buf).unwrap(), 300);
    tb.net.set_host_down("dpm1.cern.ch", true);
    assert!(file.read(&mut buf).is_err());
    assert_eq!(file.tell(), 300, "the unread window must be given back");
    tb.net.set_host_down("dpm1.cern.ch", false);
    assert_eq!(file.read(&mut buf).unwrap(), 300);
    assert_eq!(&buf, &data[300..600]);
    assert_eq!(file.tell(), 600);
    // At EOF the cursor stays put and nothing is read.
    file.seek(SIZE as u64 - 100);
    assert_eq!(file.read(&mut buf).unwrap(), 100);
    assert_eq!(file.read(&mut buf).unwrap(), 0);
    assert_eq!(file.tell(), SIZE as u64);
}

/// Overlapping, repeated, unsorted and empty fragments, one across a cache
/// block boundary, one at the entity's end, and two close enough to share a
/// wire range.
const MIXED: &[(u64, usize)] = &[
    (5_000, 100),
    (0, 50),
    (5_050, 100),
    (4_990, 20),
    (300_000, 0),
    (999_900, 100),
    (262_100, 200),
    (5_000, 100),
    (600_500, 80),
    (600_000, 80),
    (10, 0),
];

fn flat_len(frags: &[(u64, usize)]) -> usize {
    frags.iter().map(|&(_, len)| len).sum()
}

/// `src.read_vec_into(frags)` is `src.read_exact_at` of each fragment, back
/// to back, and so are the bytes of `data`; `read_vec` is the same read
/// split.
fn agrees(what: &str, src: &dyn RandomAccess, frags: &[(u64, usize)], data: &[u8]) {
    let mut one_by_one = Vec::new();
    for &(off, len) in frags {
        let mut buf = vec![0u8; len];
        src.read_exact_at(off, &mut buf).unwrap();
        one_by_one.extend_from_slice(&buf);
    }
    let from_data: Vec<u8> = frags
        .iter()
        .flat_map(|&(off, len)| &data[off as usize..off as usize + len])
        .copied()
        .collect();
    assert!(one_by_one == from_data, "{what}: read_exact_at");
    // Filled with a byte the payload starts no fragment with, so a byte
    // left unwritten shows.
    let mut out = vec![0xEE; flat_len(frags)];
    src.read_vec_into(frags, &mut out).unwrap();
    assert!(out == one_by_one, "{what}: read_vec_into");
    assert_eq!(src.read_vec(frags).unwrap().concat(), one_by_one, "{what}: read_vec");
}

/// Three replicas that a federation knows and that also speak xrdlite.
fn federation(data: &[u8]) -> Testbed {
    let replica = |host: &str| (host.to_string(), LinkSpec::lan());
    Testbed::start(TestbedConfig {
        replicas: vec![replica("dpm1.cern.ch"), replica("dpm2.cern.ch"), replica("dpm3.cern.ch")],
        data: Bytes::from(data.to_vec()),
        with_federation: true,
        with_xrd: true,
        ..Default::default()
    })
}

fn requests_served(tb: &Testbed) -> Vec<u64> {
    tb.nodes.iter().map(|n| n.server.stats().requests.load(Ordering::Relaxed)).collect()
}

#[test]
fn read_vec_into_is_read_exact_at_fragment_by_fragment_on_every_source() {
    let data = payload();
    agrees("MemFile", &MemFile::new(data.clone()), MIXED, &data);

    let tb = federation(&data);
    let _g = tb.net.enter();
    let plain = Config::default().no_retry();
    let faces = [
        ("direct", plain.clone()),
        ("block-cached", plain.clone().with_cache(16 * 1024 * 1024)),
        ("single ranges", plain.clone().single_ranges()),
    ];
    for (what, cfg) in faces {
        let client = tb.davix_client(cfg);
        agrees(what, &client.open(&tb.url(0)).unwrap(), MIXED, &data);
    }

    // Fail-over with the Metalink resolved and every replica healthy: the
    // vectored read splits into batches across two replicas.
    let meta = format!("http://{FED}/myfed").parse().unwrap();
    let client = tb.davix_client(plain.with_metalink_base(meta));
    let file = client.open_failover(&tb.url(0)).unwrap();
    tb.net.set_host_down("dpm1.cern.ch", true);
    file.pread(0, &mut [0u8; 100]).unwrap();
    tb.net.set_host_down("dpm1.cern.ch", false);
    assert_eq!(file.scheduler().unwrap().healthy_count(), 3);
    let before = requests_served(&tb);
    let mut out = vec![0u8; flat_len(MIXED)];
    file.read_vec_into(MIXED, &mut out).unwrap();
    let busy = requests_served(&tb).iter().zip(&before).filter(|(now, then)| now > then).count();
    assert_eq!(busy, 2, "the batches went to two replicas");
    agrees("fail-over fan-out", &file, MIXED, &data);

    let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
    agrees("XrdFile", &xrd.open(DATA_PATH).unwrap(), MIXED, &data);
}

#[test]
fn a_buffer_of_the_wrong_length_is_refused_before_anything_is_sent() {
    let data = payload();
    let tb = federation(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let cached = tb.davix_client(Config::default().no_retry().with_cache(1 << 20));
    let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
    let (dav, dav_cached) = (client.open(&tb.url(0)).unwrap(), cached.open(&tb.url(0)).unwrap());
    let (xrd_file, mem) = (xrd.open(DATA_PATH).unwrap(), MemFile::new(data));
    let sources: [(&str, &dyn RandomAccess); 4] = [
        ("direct", &dav),
        ("block-cached", &dav_cached),
        ("XrdFile", &xrd_file),
        ("MemFile", &mem),
    ];
    let sent = || (client.metrics().requests, cached.metrics().requests, xrd.round_trips());
    let before = sent();
    for (what, src) in sources {
        for len in [flat_len(MIXED) - 1, flat_len(MIXED) + 1, 0] {
            let err = src.read_vec_into(MIXED, &mut vec![0u8; len]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{what}, {len} bytes: {err}");
        }
    }
    assert_eq!(sent(), before, "nothing went on the wire");
}

/// A storage node for `data` at `/f` that, while `lie` is set, answers a
/// multi-range GET with every requested range but the last.
fn drops_the_last_part(net: &SimNet, data: Vec<u8>, lie: Arc<AtomicBool>) {
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data.clone()));
    let honest = StorageHandler::new(store, StorageOptions::default());
    let size = data.len() as u64;
    let handler = move |req: Request| {
        let ranges = req.head.headers.get("range").map(|r| parse_range_header(r).unwrap());
        let ranges = match ranges {
            Some(r)
                if req.head.method == Method::Get && r.len() > 1 && lie.load(Ordering::SeqCst) =>
            {
                r
            }
            _ => return honest.handle(req),
        };
        let mut w = MultipartWriter::new(Vec::new(), "SHORT");
        for range in &ranges[..ranges.len() - 1] {
            let RangeSpec::FromTo(first, last) = *range else { panic!("{range:?}") };
            let part = ContentRange { first, last, total: Some(size) };
            w.write_part("application/octet-stream", part, &data[first as usize..=last as usize])
                .unwrap();
        }
        Response::with_body(
            StatusCode::PARTIAL_CONTENT,
            "application/octet-stream",
            w.finish().unwrap(),
        )
        .header("Content-Type", "multipart/byteranges; boundary=SHORT")
    };
    HttpServer::new(Arc::new(handler), ServerConfig::default())
        .serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
}

#[test]
fn an_answer_that_leaves_a_fragment_out_is_an_error_and_nothing_is_decoded() {
    // 20 `px` baskets a window, each parted from the next by the other
    // branches' baskets: 20 ranges on the wire.
    let mut generator = Generator::new(Schema::hep(32), 7);
    let tree = rootio::write_tree(
        &mut generator,
        2_000,
        &WriterOptions { events_per_basket: 100, compress: false },
    );
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link("c", "s", LinkSpec::lan());
    let lie = Arc::new(AtomicBool::new(true));
    drops_the_last_part(&net, tree.clone(), Arc::clone(&lie));
    let _g = net.enter();
    let client = DavixClient::new(net.connector("c"), net.runtime(), Config::default().no_retry());
    let file = Arc::new(client.open("http://s/f").unwrap());

    let frags = [(0u64, 10usize), (60_000, 10), (120_000, 10)];
    let err = file.pread_vec_into(&frags, &mut [0u8; 30]).unwrap_err();
    assert!(matches!(err, DavixError::Protocol(_)), "{err}");
    assert!(err.to_string().contains("does not cover fragment 120000+10"), "{err}");

    let reader = Arc::new(TreeReader::open(file as Arc<dyn RandomAccess>).unwrap());
    let local = Arc::new(TreeReader::open(Arc::new(MemFile::new(tree))).unwrap());
    let opts = TreeCacheOptions { window_events: 2_000, enabled: true, prefetch: false };
    let mut cache = TreeCache::for_branches(reader, &["px"], opts.clone(), net.runtime()).unwrap();
    let px = local.schema().index_of("px").unwrap();
    // The read's own error, not a decode error about the bytes it left.
    let err = cache.window(0).err().expect("a part is missing");
    assert!(err.to_string().contains("does not cover fragment"), "{err}");
    assert_eq!(cache.windows_loaded(), 0, "nothing was loaded");

    lie.store(false, Ordering::SeqCst);
    let want = {
        let mut cache = TreeCache::for_branches(local, &["px"], opts, net.runtime()).unwrap();
        cache.window(0).unwrap().column(px, 4).unwrap().to_vec()
    };
    assert_eq!(cache.window(0).unwrap().column(px, 4).unwrap(), &want[..]);
    assert_eq!(cache.windows_loaded(), 1);
}
