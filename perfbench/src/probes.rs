//! Isolated probes: one layer at a time, fixed iteration counts, through
//! the crates' public APIs only. `ns` values are per call; throughput
//! values are MiB (or messages, requests) per wall second. [`PROBES`] is
//! the one list — the traced run, `perfbench probes` and the tests all
//! iterate it.

use crate::gen;
use crate::stack::Loopback;
use crate::stats::MIB;
use crate::workload::smoke_ops as iters;
use bytes::Bytes;
use davix::{Config, Endpoint, Metrics, SessionPool};
use httpd::{Handler, Request, Response};
use httpwire::parse::{read_request_head, read_response_head, BodyLen, BodyReader, ChunkedWriter};
use httpwire::range::{coalesce_fragments, format_range_header, parse_range_header};
use httpwire::{
    ContentRange, Method, MultipartReader, MultipartWriter, RequestHead, ResponseHead, StatusCode,
};
use netsim::{Listener, RealRuntime, Runtime, TcpConnector, TcpListenerWrap};
use objstore::{ObjectStore, StorageHandler, StorageOptions};
use std::hint::black_box;
use std::io::{Cursor, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One probe: its per-layer metric name and the function that measures it.
/// `smoke` asks for a hundredth of the iterations.
pub struct Probe {
    pub name: &'static str,
    pub run: fn(smoke: bool) -> f64,
}

/// Every probe, in report order.
pub const PROBES: [Probe; 26] = [
    Probe { name: "httpwire.request_head_parse_ns", run: request_head_parse },
    Probe { name: "httpwire.response_head_parse_ns", run: response_head_parse },
    Probe { name: "httpwire.head_serialize_ns", run: head_serialize },
    Probe { name: "httpwire.range_format_500_ns", run: range_format },
    Probe { name: "httpwire.range_parse_500_ns", run: range_parse },
    Probe { name: "httpwire.coalesce_500_ns", run: coalesce },
    Probe { name: "httpwire.multipart_write_500_ns", run: multipart_write },
    Probe { name: "httpwire.multipart_read_500_ns", run: multipart_read },
    Probe { name: "httpwire.chunked_encode_mib_per_s", run: chunked_encode },
    Probe { name: "httpwire.chunked_decode_mib_per_s", run: chunked_decode },
    Probe { name: "core.pool.acquire_release_ns", run: pool_acquire_release },
    Probe { name: "httpd.null_handler_req_per_s", run: null_handler },
    Probe { name: "netsim.reactor.timer_insert_expire_ns", run: timer_insert_expire },
    Probe { name: "objstore.get_1k_ns", run: objstore_get_1k },
    Probe { name: "objstore.get_multirange_500_ns", run: objstore_get_multirange },
    Probe { name: "objstore.put_16m_mib_per_s", run: objstore_put_16m },
    Probe { name: "ioapi.crc32_mib_per_s", run: crc32 },
    Probe { name: "ioapi.adler32_mib_per_s", run: adler32 },
    Probe { name: "rootio.decode_basket_mib_per_s", run: decode_basket },
    Probe { name: "netsim.sim.pingpong_msgs_per_s", run: sim_pingpong },
    Probe { name: "core.cache.fit_mib_per_s", run: cache_fit },
    Probe { name: "core.cache.thrash_mib_per_s", run: cache_thrash_rate },
    Probe { name: "core.cache.thrash_hit_ratio", run: cache_thrash_hit_ratio },
    Probe { name: "dynafed.redirect_ns", run: dynafed_redirect },
    Probe { name: "metalink.to_xml_ns", run: metalink_to_xml },
    Probe { name: "metalink.parse_ns", run: metalink_parse },
];

/// Run every probe.
pub fn run_all(smoke: bool) -> Vec<(&'static str, f64)> {
    PROBES.iter().map(|p| (p.name, (p.run)(smoke))).collect()
}

/// `full` MiB of probe data in bytes, a sixteenth of it in smoke mode.
fn mib(full: usize, smoke: bool) -> usize {
    (full << 20) / if smoke { 16 } else { 1 }
}

/// Repetitions of a probe whose single call already moves megabytes.
fn few(full: usize, smoke: bool) -> usize {
    if smoke {
        1
    } else {
        full
    }
}

/// Mean nanoseconds per call of `f` over `n` calls.
fn ns_per_call<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    for _ in 0..n {
        black_box(f());
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// MiB per second over `n` calls of `f`, each processing `bytes`.
fn mib_per_s<R>(n: usize, bytes: usize, f: impl FnMut() -> R) -> f64 {
    bytes as f64 / MIB / (ns_per_call(n, f) / 1e9)
}

// -- httpwire -------------------------------------------------------------

/// A GET as the davix executor sends it for a ranged read.
fn sample_request() -> RequestHead {
    let mut req = RequestHead::new(Method::Get, "/dpm/data/run2014/events.root");
    req.headers.set("Host", "127.0.0.1:8080");
    req.headers.set("User-Agent", "davix-rs/0.1");
    req.headers.set("Range", "bytes=1048576-2097151");
    req.headers.set("Accept", "*/*");
    req
}

fn request_head_parse(smoke: bool) -> f64 {
    let wire = sample_request().to_bytes();
    ns_per_call(iters(50_000, smoke), || {
        read_request_head(&mut Cursor::new(black_box(&wire[..]))).unwrap().unwrap()
    })
}

fn response_head_parse(smoke: bool) -> f64 {
    let mut resp = ResponseHead::new(StatusCode::PARTIAL_CONTENT);
    resp.headers.set("Content-Type", "application/octet-stream");
    resp.headers.set("Content-Range", "bytes 1048576-2097151/16777216");
    resp.headers.set("Content-Length", "1048576");
    resp.headers.set("Server", "dpm-sim/0.1");
    resp.headers.set("Date", "Sun, 06 Nov 1994 08:49:37 GMT");
    let wire = resp.to_bytes();
    ns_per_call(iters(50_000, smoke), || {
        read_response_head(&mut Cursor::new(black_box(&wire[..]))).unwrap()
    })
}

fn head_serialize(smoke: bool) -> f64 {
    let req = sample_request();
    ns_per_call(iters(100_000, smoke), || black_box(&req).to_bytes())
}

/// The `analysis_sparse` request shape: 500 fragments of 80 bytes, one per
/// basket, 540 bytes apart.
fn fragments_500() -> Vec<(u64, usize)> {
    (0..500).map(|i| (4096 + i * 540, 80)).collect()
}

fn range_format(smoke: bool) -> f64 {
    let frags = fragments_500();
    ns_per_call(iters(2_000, smoke), || format_range_header(black_box(&frags)))
}

fn range_parse(smoke: bool) -> f64 {
    let header = format_range_header(&fragments_500());
    ns_per_call(iters(2_000, smoke), || parse_range_header(black_box(&header)).unwrap())
}

fn coalesce(smoke: bool) -> f64 {
    let frags = fragments_500();
    ns_per_call(iters(5_000, smoke), || coalesce_fragments(black_box(&frags), 512))
}

fn multipart_500() -> (Vec<ContentRange>, Vec<u8>, Vec<u8>) {
    let part = gen::object_bytes(1, 1, 80);
    let ranges: Vec<ContentRange> = fragments_500()
        .iter()
        .map(|&(off, len)| ContentRange {
            first: off,
            last: off + len as u64 - 1,
            total: Some(54_000_000),
        })
        .collect();
    let mut w = MultipartWriter::new(Vec::new(), "PERFBENCH");
    for r in &ranges {
        w.write_part("application/octet-stream", *r, &part).unwrap();
    }
    (ranges, part, w.finish().unwrap())
}

fn multipart_write(smoke: bool) -> f64 {
    let (ranges, part, body) = multipart_500();
    ns_per_call(iters(1_000, smoke), || {
        let mut w = MultipartWriter::new(Vec::with_capacity(body.len()), "PERFBENCH");
        for r in black_box(&ranges) {
            w.write_part("application/octet-stream", *r, &part).unwrap();
        }
        w.finish().unwrap()
    })
}

fn multipart_read(smoke: bool) -> f64 {
    let (_, _, body) = multipart_500();
    ns_per_call(iters(500, smoke), || {
        MultipartReader::new(Cursor::new(black_box(&body[..])), "PERFBENCH")
            .read_all_parts()
            .unwrap()
    })
}

/// 4 MiB written 16 KiB at a time: the chunk size `BodySource` produces.
fn chunked_wire(payload: &[u8]) -> Vec<u8> {
    let mut w = ChunkedWriter::new(Vec::with_capacity(payload.len() + payload.len() / 1024));
    for chunk in payload.chunks(16 * 1024) {
        w.write_all(chunk).unwrap();
    }
    w.finish().unwrap()
}

fn chunked_encode(smoke: bool) -> f64 {
    let payload = gen::object_bytes(1, 2, mib(4, smoke));
    mib_per_s(iters(100, smoke), payload.len(), || chunked_wire(black_box(&payload)))
}

fn chunked_decode(smoke: bool) -> f64 {
    let payload = gen::object_bytes(1, 2, mib(4, smoke));
    let wire = chunked_wire(&payload);
    mib_per_s(iters(100, smoke), payload.len(), || {
        let mut cur = Cursor::new(black_box(&wire[..]));
        BodyReader::new(&mut cur, BodyLen::Chunked).read_all().unwrap()
    })
}

// -- davix core -----------------------------------------------------------

/// The pool's steady-state hot path against a live loopback socket: check
/// out the warm session, return it.
fn pool_acquire_release(smoke: bool) -> f64 {
    let listener = Arc::new(TcpListenerWrap::bind("127.0.0.1:0").expect("bind"));
    let addr = listener.local_addr().expect("addr");
    let acceptor = {
        let listener = Arc::clone(&listener);
        std::thread::spawn(move || {
            let mut held = Vec::new();
            while let Ok((s, _)) = listener.accept() {
                held.push(s);
            }
        })
    };
    let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
    let pool = SessionPool::new(
        Arc::new(TcpConnector),
        rt,
        Arc::new(Metrics::default()),
        16,
        Duration::from_secs(600),
        Duration::from_secs(5),
        Duration::from_secs(5),
    );
    let ep = Endpoint { scheme: "http".into(), host: addr.ip().to_string(), port: addr.port() };
    let warm = pool.acquire(&ep).expect("connect");
    pool.release(warm, true);
    let ns = ns_per_call(iters(200_000, smoke), || {
        let s = pool.acquire(black_box(&ep)).expect("acquire");
        pool.release(s, true);
    });
    listener.close();
    acceptor.join().expect("acceptor thread");
    ns
}

/// Sequential `pread`s of 1 MiB over the whole of `file`, `passes` times.
fn read_passes(file: &davix::DavFile, len: usize, passes: usize) {
    let mut buf = vec![0u8; 256 << 10];
    for _ in 0..passes {
        let mut off = 0;
        while off < len {
            let n = file.pread(off as u64, &mut buf).expect("cached pread");
            assert!(n > 0, "eof inside the object");
            off += n;
        }
    }
}

/// A loopback stack whose client has a block cache of `cache` bytes, and
/// an open handle on a seeded object of `len` bytes.
fn cached_file(cache: usize, len: usize) -> (Loopback, davix::DavFile, usize) {
    let store = Arc::new(ObjectStore::new());
    store.put("/probe/cached", Bytes::from(gen::object_bytes(1, 3, len)));
    let handler = Arc::new(StorageHandler::new(Arc::clone(&store), StorageOptions::default()));
    let stack =
        Loopback::start_with(store, handler, Config::default().with_cache(cache as u64), false);
    let file = stack.client.open(&stack.url("/probe/cached")).expect("open");
    (stack, file, len)
}

/// Re-reads of an 8 MiB object that fits a 64 MiB cache: the hit path.
fn cache_fit(smoke: bool) -> f64 {
    let (_stack, file, len) = cached_file(mib(64, smoke), mib(8, smoke));
    read_passes(&file, len, 1);
    let passes = few(8, smoke);
    mib_per_s(1, len * passes, || read_passes(&file, len, passes))
}

/// Sequential re-reads of a 32 MiB object through a 16 MiB cache: every
/// block is evicted before it is wanted again.
fn cache_thrash(smoke: bool) -> (f64, f64) {
    let (stack, file, len) = cached_file(mib(16, smoke), mib(32, smoke));
    read_passes(&file, len, 1);
    let before = stack.client.metrics();
    let passes = few(2, smoke);
    let rate = mib_per_s(1, len * passes, || read_passes(&file, len, passes));
    (rate, stack.client.metrics().since(&before).cache_hit_ratio())
}

fn cache_thrash_rate(smoke: bool) -> f64 {
    cache_thrash(smoke).0
}

fn cache_thrash_hit_ratio(smoke: bool) -> f64 {
    cache_thrash(smoke).1
}

// -- httpd / netsim -------------------------------------------------------

/// GETs against a closure handler returning a fixed 1 KiB body: the whole
/// request path except `objstore`.
fn null_handler(smoke: bool) -> f64 {
    let body = Bytes::from(gen::object_bytes(1, 4, 1024));
    let handler = {
        let body = body.clone();
        move |_req: Request| {
            Response::with_body(StatusCode::OK, "application/octet-stream", body.clone())
        }
    };
    let stack = Loopback::start_with(
        Arc::new(ObjectStore::new()),
        Arc::new(handler),
        Config::default(),
        false,
    );
    let posix = stack.client.posix();
    let url = stack.url("/null");
    assert!(posix.get(&url).expect("warm-up GET") == body);
    1e9 / ns_per_call(iters(20_000, smoke), || posix.get(&url).expect("GET"))
}

/// Insert 1 024 deadlines spread over a second, expire them all.
fn timer_insert_expire(smoke: bool) -> f64 {
    let mut wheel = netsim::TimerWheel::new(512, Duration::from_millis(10));
    let mut fired = Vec::with_capacity(1024);
    let mut base = 0u64;
    let per_round = 1024;
    let ns = ns_per_call(iters(500, smoke), || {
        for i in 0..per_round as u64 {
            wheel.insert_ns(base + (i * 7919 % 1000) * 1_000_000, i as usize, 0);
        }
        base += 1_000_000_000;
        fired.clear();
        wheel.expire_ns(base, &mut fired);
        assert_eq!(fired.len(), per_round);
    });
    ns / per_round as f64
}

/// Client and echo server on a simulated LAN, 64-byte ping-pong: simulator
/// events and thread hand-offs per real second.
fn sim_pingpong(smoke: bool) -> f64 {
    let net = netsim::SimNet::new();
    net.add_host("a");
    net.add_host("b");
    net.set_link("a", "b", netsim::LinkSpec::lan());
    let listener = net.bind("b", 7).expect("bind");
    let rounds = iters(5_000, smoke);
    net.spawn("b", move || {
        let (mut s, _) = listener.accept_sim().expect("accept");
        let mut buf = [0u8; 64];
        while s.read_exact(&mut buf).is_ok() {
            s.write_all(&buf).expect("echo");
        }
    });
    let _guard = net.enter();
    let mut c = net.connect("a", "b", 7).expect("connect");
    let msg = [0x5Au8; 64];
    let mut back = [0u8; 64];
    let ns = ns_per_call(rounds, || {
        c.write_all(&msg).expect("ping");
        c.read_exact(&mut back).expect("pong");
    });
    assert_eq!(back, msg);
    // Two messages per round trip.
    2e9 / ns
}

// -- objstore / ioapi -----------------------------------------------------

fn storage_with(path: &str, len: usize) -> StorageHandler {
    let store = Arc::new(ObjectStore::new());
    store.put(path, Bytes::from(gen::object_bytes(1, 5, len)));
    StorageHandler::new(store, StorageOptions::default())
}

fn request(method: Method, path: &str, range: Option<&str>, body: Vec<u8>) -> Request {
    let mut head = RequestHead::new(method, path);
    head.headers.set("Host", "127.0.0.1");
    if let Some(r) = range {
        head.headers.set("Range", r);
    }
    Request { head, body, peer: "probe".to_string() }
}

fn objstore_get_1k(smoke: bool) -> f64 {
    let handler = storage_with("/o", 1024);
    ns_per_call(iters(100_000, smoke), || {
        let resp = handler.handle(request(Method::Get, "/o", None, Vec::new()));
        assert_eq!(resp.body.len(), 1024);
        resp
    })
}

fn objstore_get_multirange(smoke: bool) -> f64 {
    let handler = storage_with("/o", 4 << 20);
    let range = format_range_header(&fragments_500());
    ns_per_call(iters(1_000, smoke), || {
        let resp = handler.handle(request(Method::Get, "/o", Some(&range), Vec::new()));
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        resp
    })
}

/// `Handler::handle` of a 16 MiB PUT, body already in memory: the store's
/// insert and both checksums, without the connection layer.
fn objstore_put_16m(smoke: bool) -> f64 {
    let handler = storage_with("/seed", 16);
    let payload = gen::object_bytes(1, 6, mib(16, smoke));
    let n = few(5, smoke);
    let mut total = Duration::ZERO;
    for _ in 0..n {
        let req = request(Method::Put, "/o", None, payload.clone());
        let t0 = Instant::now();
        let resp = black_box(handler.handle(req));
        total += t0.elapsed();
        assert!(resp.status.is_success());
    }
    (payload.len() * n) as f64 / MIB / total.as_secs_f64()
}

fn crc32(smoke: bool) -> f64 {
    let data = gen::object_bytes(1, 7, mib(16, smoke));
    mib_per_s(few(3, smoke), data.len(), || ioapi::checksum::crc32(black_box(&data)))
}

fn adler32(smoke: bool) -> f64 {
    let data = gen::object_bytes(1, 7, mib(16, smoke));
    mib_per_s(few(3, smoke), data.len(), || ioapi::checksum::adler32(black_box(&data)))
}

// -- rootio ---------------------------------------------------------------

/// Decode every compressed basket of a 4 000-event tree held in memory.
fn decode_basket(smoke: bool) -> f64 {
    use rootio::{Generator, Schema, TreeReader, WriterOptions};
    let mut generator = Generator::new(Schema::hep(256), 1);
    let tree = rootio::write_tree(
        &mut generator,
        if smoke { 400 } else { 4_000 },
        &WriterOptions { events_per_basket: 40, compress: true },
    );
    let source = Arc::new(ioapi::MemFile::new(tree));
    let reader = TreeReader::open(Arc::clone(&source) as _).expect("tree");
    let blobs: Vec<Vec<u8>> = reader
        .baskets()
        .iter()
        .map(|b| {
            let mut blob = vec![0u8; b.len as usize];
            ioapi::RandomAccess::read_exact_at(source.as_ref(), b.offset, &mut blob).unwrap();
            blob
        })
        .collect();
    let mut decoded = 0usize;
    let n = few(4, smoke);
    let t0 = Instant::now();
    for _ in 0..n {
        for (i, blob) in blobs.iter().enumerate() {
            decoded += black_box(reader.decode_basket(i, blob).expect("decode")).len();
        }
    }
    decoded as f64 / MIB / t0.elapsed().as_secs_f64()
}

// -- dynafed / metalink ---------------------------------------------------

fn dynafed_redirect(smoke: bool) -> f64 {
    let catalog = Arc::new(dynafed::ReplicaCatalog::new());
    for i in 0..4u32 {
        catalog.register(
            "/data/events.root",
            dynafed::Replica::new(format!("http://dpm{i}.cern.ch/data/events.root"), i + 1),
        );
    }
    let handler = dynafed::FedHandler::new(catalog, "/myfed");
    ns_per_call(iters(100_000, smoke), || {
        let resp =
            handler.handle(request(Method::Get, "/myfed/data/events.root", None, Vec::new()));
        assert_eq!(resp.status, StatusCode::FOUND);
        resp
    })
}

fn sample_metalink() -> metalink::Metalink {
    let mut file = metalink::MetaFile::new("data/events.root");
    file.size = Some(700_000_000);
    for i in 0..8 {
        file.add_url(
            metalink::UrlRef::new(format!("http://dpm{i}.cern.ch/data/events.root"))
                .priority(i + 1)
                .location("ch"),
        );
    }
    metalink::Metalink::single(file)
}

fn metalink_to_xml(smoke: bool) -> f64 {
    let ml = sample_metalink();
    ns_per_call(iters(20_000, smoke), || black_box(&ml).to_xml())
}

fn metalink_parse(smoke: bool) -> f64 {
    let xml = sample_metalink().to_xml();
    ns_per_call(iters(10_000, smoke), || metalink::Metalink::parse(black_box(&xml)).unwrap())
}
