//! The one cached-read front (`Reader`) under both public file types: every
//! row of the table below must return the same bytes and move `IoStats` the
//! same way whether it runs on a `DavFile` or a `ReplicaFile`, cached or
//! not — `round_trips` being the upstream fetches when a cache is bound and
//! 1 per read when not. Plus the regression for `DavFile::read` wedging the
//! simulator when two threads share one cursor.

use bytes::Bytes;
use davix::{Config, DavFile, DavixError, ReplicaFile};
use davix_repro::testbed::{Testbed, TestbedConfig};
use davix_sync::{AtomicUsize, Ordering};
use ioapi::{IoStatsSnapshot, RandomAccess};
use netsim::{LinkSpec, Runtime as _};
use std::sync::Arc;
use std::time::Duration;

const SIZE: usize = 100_000;

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

/// The two public faces of the read stack behind one calling convention.
enum Face {
    Dav(DavFile),
    Replica(ReplicaFile),
}

impl Face {
    fn pread(&self, offset: u64, buf: &mut [u8]) -> davix::Result<usize> {
        match self {
            Face::Dav(f) => f.pread(offset, buf),
            Face::Replica(f) => f.pread(offset, buf),
        }
    }

    fn pread_vec(&self, fragments: &[(u64, usize)]) -> davix::Result<Vec<Vec<u8>>> {
        match self {
            Face::Dav(f) => f.pread_vec(fragments),
            Face::Replica(f) => f.pread_vec(fragments),
        }
    }

    fn ra(&self) -> &dyn RandomAccess {
        match self {
            Face::Dav(f) => f,
            Face::Replica(f) => f,
        }
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
    /// `prefetch_vec`, let the background fetch land, then `pread_vec`.
    PrefetchThenPreadVec(&'static [(u64, usize)]),
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

const ORDERED: &[(u64, usize)] = &[(0, 100), (50_000, 200), (99_900, 100)];
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
            op: Op::Pread { offset: 99_500, len: 1_000, expect: 500 },
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
            op: Op::BeyondEof(&[(10, 10), (99_999, 2)]),
            uncached: stats(0, 0, 0, 0),
            cached_round_trips: 0,
        },
        Row {
            name: "prefetch_vec then pread_vec",
            op: Op::PrefetchThenPreadVec(ORDERED),
            uncached: stats(0, 1, 400, 1),
            // The hint fetched every block in the background: the read
            // itself goes upstream for nothing.
            cached_round_trips: 0,
        },
    ]
}

fn run(tb: &Testbed, face: &Face, op: &Op, data: &[u8]) -> Vec<Vec<u8>> {
    let slice = |(off, len): (u64, usize)| data[off as usize..off as usize + len].to_vec();
    match *op {
        Op::Pread { offset, len, expect } => {
            let mut buf = vec![0u8; len];
            assert_eq!(face.pread(offset, &mut buf).unwrap(), expect);
            buf.truncate(expect);
            if expect > 0 {
                assert_eq!(buf, slice((offset, expect)));
            }
            vec![buf]
        }
        Op::PreadVec(frags) => {
            let got = face.pread_vec(frags).unwrap();
            assert_eq!(got, frags.iter().map(|&f| slice(f)).collect::<Vec<_>>());
            got
        }
        Op::BeyondEof(frags) => {
            let err = face.pread_vec(frags).unwrap_err();
            assert!(matches!(err, DavixError::InvalidArgument(_)), "{err}");
            Vec::new()
        }
        Op::PrefetchThenPreadVec(frags) => {
            face.ra().prefetch_vec(frags);
            tb.net.sleep(Duration::from_millis(200));
            run(tb, face, &Op::PreadVec(frags), data)
        }
    }
}

#[test]
fn every_face_reads_the_same_bytes_and_counts_the_same_way() {
    let data = payload();
    let tb = testbed(&data);
    let _g = tb.net.enter();
    let plain = Config::default().no_retry();
    let cached = plain.clone().with_cache(16 * 1024 * 1024).with_cache_block_size(16 * 1024);
    for row in table() {
        let mut bytes: Vec<Vec<Vec<u8>>> = Vec::new();
        for (cfg, is_cached) in [(&plain, false), (&cached, true)] {
            for replica in [false, true] {
                // A fresh client per cell: nothing is warm, nothing is shared.
                let client = tb.davix_client(cfg.clone());
                let face = match replica {
                    false => Face::Dav(client.open(&tb.url(0)).unwrap()),
                    true => Face::Replica(client.open_failover(&tb.url(0)).unwrap()),
                };
                let cell = format!("{} / replica={replica} cached={is_cached}", row.name);
                assert_eq!(face.ra().supports_prefetch(), is_cached, "{cell}");
                assert_eq!(face.ra().size().unwrap(), SIZE as u64, "{cell}");
                let before = face.ra().stats();
                bytes.push(run(&tb, &face, &row.op, &data));
                let want = match is_cached {
                    false => row.uncached,
                    true => IoStatsSnapshot { round_trips: row.cached_round_trips, ..row.uncached },
                };
                assert_eq!(face.ra().stats().since(&before), want, "{cell}");
            }
        }
        assert!(bytes.windows(2).all(|w| w[0] == w[1]), "{}: faces disagree", row.name);
    }
}

/// Two sim threads sharing one `DavFile` cursor. With the cursor lock held
/// across the network read (the parent's code) the second thread blocks on
/// a mutex the scheduler cannot see: virtual time never advances, and the
/// stall watchdog never fires because the net is never quiescent — the test
/// hangs. With the window claimed under the lock and read after releasing
/// it, the eight reads finish in virtual milliseconds.
#[test]
fn two_threads_sharing_one_cursor_finish_in_virtual_milliseconds() {
    const READERS: usize = 2;
    const READS: usize = 4;
    const LEN: usize = 1_000;
    let data = Arc::new(payload());
    let tb = testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let file = Arc::new(client.open(&tb.url(0)).unwrap());

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
    assert!(elapsed < Duration::from_millis(100), "eight LAN reads took {elapsed:?}");
    assert_eq!(file.tell(), (READERS * READS * LEN) as u64);
    // Disjoint, consecutive windows: each one read exactly once.
    assert!(claimed.iter().all(|c| c.load(Ordering::SeqCst) == 1), "{claimed:?}");
}

/// A single-threaded caller keeps the old contract: a failed `read` leaves
/// the cursor where it was.
#[test]
fn a_failed_read_gives_its_window_back() {
    let data = payload();
    let tb = testbed(&data);
    let _g = tb.net.enter();
    let client = tb.davix_client(Config::default().no_retry());
    let file = client.open(&tb.url(0)).unwrap();
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
