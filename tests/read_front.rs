//! The one cached-read front (`DavFile`) however it was opened: every row of
//! the table below must return the same bytes and move `IoStats` the same
//! way on a file opened directly or with fail-over, cached or not —
//! `round_trips` being the upstream fetches when a cache is bound and 1 per
//! read when not. Plus the regression for `DavFile::read` wedging the
//! simulator when two threads share one cursor, on both kinds of open.

use bytes::Bytes;
use davix::{Config, DavFile, DavixClient, DavixError};
use davix_repro::testbed::{Testbed, TestbedConfig};
use davix_sync::{AtomicUsize, Ordering};
use ioapi::{IoStatsSnapshot, RandomAccess};
use netsim::{LinkSpec, Runtime as _};
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
                let before = file.stats();
                bytes.push(run(&file, &row.op, &data));
                let want = match is_cached {
                    false => row.uncached,
                    true => IoStatsSnapshot { round_trips: row.cached_round_trips, ..row.uncached },
                };
                assert_eq!(file.stats().since(&before), want, "{cell}");
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
