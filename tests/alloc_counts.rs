//! Allocation counts of the sparse-analysis read path, measured exactly.
//!
//! Time on the reference box wanders by tens of percent between runs; a
//! count of `malloc` calls does not. This binary installs a counting global
//! allocator (one counter per thread, so a test sees only what its own
//! thread asked for — not the server's threads, not the other tests) and
//! pins the shape of the hot loops: decoding a 500-part multi-range answer
//! allocates the 500 result fragments and a constant, loading a 500-basket
//! `TreeCache` window allocates per basket, never per value, and a warm
//! 1 KiB GET costs a written handful of allocations on each side (the
//! server's are what the whole process allocated less the client thread's
//! share, so the tests here run one at a time). In the simulator, a sleep
//! allocates nothing, whether it parks or not.

use bytes::Bytes;
use davix::{Config, DavixClient};
use httpd::ServerConfig;
use httpwire::{ContentRange, MultipartReader, MultipartWriter};
use ioapi::MemFile;
use netsim::Listener;
use objstore::{ObjectStore, StorageNode, StorageOptions};
use rootio::{Generator, Schema, TreeCache, TreeCacheOptions, TreeReader, WriterOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
// davix-lint: allow(shared-state) — the allocator's own counter: the `davix_sync` shim may allocate, which an allocator must not
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

thread_local! {
    /// Allocations (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by every thread of the process.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

fn count() {
    // `try_with`: a thread may allocate while its locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `const`-initialised
// `Cell` with no destructor, so touching it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The process-wide counter sees every thread, so tests that read it (and
/// the others, so as not to be counted by them) run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A storage node on loopback holding `data` at `/f`, a client for it and
/// the object's URL. Stop the node's server before returning: an idle shard
/// still wakes for its timers.
fn loopback_node(data: Vec<u8>) -> (StorageNode, DavixClient, String) {
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data));
    let listener = netsim::TcpListenerWrap::bind("127.0.0.1:0").unwrap();
    let port = listener.local_port();
    let rt: Arc<dyn netsim::Runtime> = Arc::new(netsim::RealRuntime::new());
    let node = StorageNode::start(
        store,
        Box::new(listener),
        rt.clone(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
    let client = DavixClient::new(Arc::new(netsim::TcpConnector), rt, Config::default());
    (node, client, format!("http://127.0.0.1:{port}/f"))
}

/// 500 fragments of 80 bytes, too far apart (over the client's 512-byte
/// merge gap) to be coalesced: 500 ranges on the wire, 500 parts back.
fn fragments_500() -> Vec<(u64, usize)> {
    (0..500).map(|i| (4096 + i * 1_000, 80)).collect()
}

fn entity(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

#[test]
fn scatter_decoding_500_parts_allocates_only_the_caller_buffers() {
    let _serial = serial();
    let data = entity(600_000);
    let frags = fragments_500();
    let mut w = MultipartWriter::new(Vec::new(), "ALLOC");
    for &(off, len) in &frags {
        let range =
            ContentRange { first: off, last: off + len as u64 - 1, total: Some(data.len() as u64) };
        w.write_part("application/octet-stream", range, &data[off as usize..off as usize + len])
            .unwrap();
    }
    let body = w.finish().unwrap();

    let (out, allocs) = allocations(|| {
        let mut reader = MultipartReader::new(std::io::Cursor::new(&body[..]), "ALLOC");
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(frags.len());
        while let Some(range) = reader.next_range().unwrap() {
            let mut buf = vec![0u8; range.len() as usize];
            reader.payload_into(&mut buf).unwrap();
            out.push(buf);
        }
        out
    });
    for (got, &(off, len)) in out.iter().zip(&frags) {
        assert_eq!(got, &data[off as usize..off as usize + len]);
    }
    // 500 buffers, the list that holds them, the reader's delimiter.
    assert!(allocs <= 500 + 4, "{allocs} allocations for 500 parts");
}

#[test]
fn a_500_fragment_vectored_read_allocates_its_result_and_a_constant() {
    let _serial = serial();
    let data = entity(600_000);
    let (node, client, url) = loopback_node(data.clone());
    let file = client.open(&url).unwrap();
    let frags = fragments_500();
    // Once to open the connection, once measured on the warm session.
    file.pread_vec(&frags).unwrap();
    let (got, allocs) = allocations(|| file.pread_vec(&frags).unwrap());
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    assert_eq!(client.metrics().vectored_requests, 2);
    node.server.stop();
    // The 500 fragments the caller gets, plus what one request costs
    // whatever its size: the Range text, the response head, the decoder's
    // buffers (544 measured; 577 while a head was a `Vec<(String, String)>`
    // built and cloned per request). Before the scatter decode this read
    // made 4 594 allocations: a payload per part, then a copy per fragment.
    assert!(allocs <= 500 + 50, "{allocs} allocations for a 500-fragment read");
}

#[test]
fn a_warm_1k_get_allocates_a_small_constant_on_each_side() {
    const GETS: u64 = 64;
    let _serial = serial();
    let data = entity(1024);
    let (node, client, url) = loopback_node(data.clone());
    let posix = client.posix();
    // Twice to open the connection and fill every reused buffer.
    for _ in 0..2 {
        assert_eq!(posix.get(&url).unwrap(), data);
    }
    let settle = || std::thread::sleep(std::time::Duration::from_millis(50));
    settle();
    let process_before = PROCESS_ALLOCS.load(Ordering::Relaxed);
    let ((), client_allocs) = allocations(|| {
        for _ in 0..GETS {
            assert_eq!(posix.get(&url).unwrap().len(), data.len());
        }
    });
    // The shard's last look at the socket comes after the last response.
    settle();
    let process_allocs = PROCESS_ALLOCS.load(Ordering::Relaxed) - process_before;
    node.server.stop();
    assert_eq!(client.metrics().sessions_created, 1, "every GET on the one warm session");
    // Rounded down: the odd allocation elsewhere in the process (the `Date`
    // text, once a second) is not a cost per GET.
    let (client_per_get, server_per_get) =
        (client_allocs / GETS, (process_allocs - client_allocs) / GETS);
    assert_eq!(client_allocs % GETS, 0, "the same count for every GET");
    // Client, 10 measured (44 at the parent of the commit that wrote this):
    // the URL's three strings and their copy in the response, the response
    // head's reason phrase, block and span index, the body. Server, 7 (31):
    // the request head's target, block and index, the peer name, the decoded
    // path, the response head's block and index. Serialising either head,
    // the pool round trip, `Date`, `ETag` and `Digest` allocate nothing.
    eprintln!("1 KiB GET: {client_per_get} client, {server_per_get} server allocations");
    // 13 and 16–18 with a detector compiled in: its own bookkeeping, not
    // the request path.
    if detectors_compiled_in() {
        return;
    }
    assert!(client_per_get <= 10, "{client_per_get} client allocations per GET");
    assert!(server_per_get <= 7, "{server_per_get} server allocations per GET");
}

/// The lock-order and race detectors allocate for every lock taken, so
/// their builds print a count instead of pinning it.
fn detectors_compiled_in() -> bool {
    cfg!(any(feature = "deadlock-detect", feature = "race-detect"))
}

#[test]
fn a_thousand_lone_sleeps_allocate_nothing() {
    let _serial = serial();
    let net = netsim::SimNet::new();
    let _g = net.enter();
    let parks = net.sched_stats().parks;
    let ((), allocs) = allocations(|| {
        for _ in 0..1_000 {
            net.sleep(Duration::from_micros(8_050));
        }
    });
    assert_eq!(net.sched_stats().parks, parks, "nothing else runs: no sleep parks");
    assert_eq!(net.now(), Duration::from_micros(8_050_000));
    eprintln!("1 000 lone sleeps: {allocs} allocations");
    if !detectors_compiled_in() {
        assert_eq!(allocs, 0);
    }
}

#[test]
fn a_warm_sleep_that_parks_allocates_nothing_on_the_sleeper() {
    let _serial = serial();
    let net = netsim::SimNet::new();
    let _g = net.enter();
    let parks = net.sched_stats().parks;
    let net2 = net.clone();
    net.spawn("runnable", move || {
        // Runnable until the net's `n`-th park, which is the sleeper's: its
        // warm-up sleep is park 1, its measured one park 3. This thread's
        // first sleep ties with the warm-up's deadline, so it parks too.
        for (n, ms) in [(1, 1), (3, 5)] {
            while net2.sched_stats().parks < parks + n {
                std::thread::yield_now();
            }
            net2.sleep(Duration::from_millis(ms));
        }
    });
    // Once to size the waiter slab and the event heap, once measured.
    net.sleep(Duration::from_millis(1));
    let ((), allocs) = allocations(|| net.sleep(Duration::from_millis(1)));
    assert_eq!(net.now(), Duration::from_millis(2));
    assert_eq!(net.sched_stats().parks, parks + 4, "every sleep parked");
    eprintln!("a parked sleep: {allocs} allocations on the sleeper");
    if !detectors_compiled_in() {
        assert_eq!(allocs, 0);
    }
}

#[test]
fn a_500_basket_window_load_allocates_per_basket_not_per_value() {
    let _serial = serial();
    // 100 baskets a branch × 5 branches in the first window, 20 events
    // each: 500 baskets, 10 000 values, 2 000 of them 16-cell arrays.
    let mut generator = Generator::new(Schema::hep(16), 1);
    let tree = rootio::write_tree(
        &mut generator,
        4_000,
        &WriterOptions { events_per_basket: 20, compress: false },
    );
    let reader = Arc::new(TreeReader::open(Arc::new(MemFile::new(tree))).unwrap());
    let names = ["px", "py", "pz", "energy", "cal"];
    let opts = TreeCacheOptions { window_events: 2_000, enabled: true, prefetch: false };
    let mut cache = TreeCache::for_branches(Arc::clone(&reader), &names, opts).unwrap();
    let branch = |name: &str| reader.schema().index_of(name).unwrap();
    let (scalars, cal) = (["px", "py", "pz", "energy"].map(branch), branch("cal"));

    let (sum, allocs) = allocations(|| {
        let mut sum = 0f64;
        for ev in 0..2_000u64 {
            for b in scalars {
                sum += cache.f32_value(b, ev).unwrap() as f64;
            }
            sum += cache.i16_array(cal, ev, 16).unwrap().map(|v| v as f64).sum::<f64>();
        }
        sum
    });
    assert!(sum.is_finite());
    assert_eq!(cache.windows_loaded(), 1);
    // Per basket: the fetched blob and the decoded column. Per window: the
    // plan, the fragment list, the list of blobs, a row per branch (1 009
    // measured; 3 528 when every array value was a `Vec` and every decoded
    // column an `Arc` in a hash map).
    assert!(allocs <= 2 * 500 + 16, "{allocs} allocations for one 500-basket window");
}
