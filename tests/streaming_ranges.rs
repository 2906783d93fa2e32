//! Streaming read path + range-correctness regressions.
//!
//! Covers the end-to-end streaming contract (`execute_streaming` /
//! `ResponseStream`) and the bugs the streaming refactor fixed:
//!
//! * a `206` whose `Content-Range` is shifted or whose body is short must
//!   fail as a protocol error instead of yielding wrong bytes;
//! * a `200` full-entity reply on the per-fragment fallback path must be
//!   read only up to the requested window, not amplified N× the file size;
//! * a huge configured backoff must be capped, not panic in `Duration` math;
//! * a large GET must complete without any client-side buffer proportional
//!   to the body, and a half-drained stream must not recycle its session.

use bytes::Bytes;
use davix::{Config, DavixClient, DavixError, Endpoint, PreparedRequest, RetryPolicy};
use httpd::{HttpServer, Request, Response, ServerConfig};
use httpwire::{ContentRange, Method, StatusCode};
use netsim::{LinkSpec, SimNet};
use objstore::{ObjectStore, RangeSupport, StorageNode, StorageOptions};
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| ((i * 31 + 7) % 251) as u8).collect()
}

fn sim() -> SimNet {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
    net
}

fn storage(net: &SimNet, data: Vec<u8>, range: RangeSupport) {
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data));
    StorageNode::start(
        store,
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions { range_support: range, ..Default::default() },
        ServerConfig::default(),
    );
}

fn client(net: &SimNet, cfg: Config) -> DavixClient {
    DavixClient::new(net.connector("c"), net.runtime(), cfg)
}

/// A server whose range handling is *wrong* in a configurable way, to prove
/// the client rejects bad 206s instead of trusting them.
#[derive(Clone, Copy)]
enum RangeLie {
    /// `Content-Range` shifted forward by 7 bytes (body has the right
    /// length but describes the wrong window).
    Shifted,
    /// `Content-Range` matches the request but the body is truncated.
    ShortBody,
}

fn lying_range_server(net: &SimNet, data: Vec<u8>, lie: RangeLie) {
    let size = data.len() as u64;
    let server = HttpServer::new(
        Arc::new(move |req: Request| {
            if req.head.method == Method::Head {
                return Response::empty(StatusCode::OK).header("Content-Length", size.to_string());
            }
            let Some(range) = req.head.headers.get("range") else {
                return Response::with_body(
                    StatusCode::OK,
                    "application/octet-stream",
                    data.clone(),
                );
            };
            let specs = httpwire::range::parse_range_header(range).unwrap();
            let (first, last) = specs[0].resolve(size).unwrap();
            let body = data[first as usize..=last as usize].to_vec();
            match lie {
                RangeLie::Shifted => Response::with_body(
                    StatusCode::PARTIAL_CONTENT,
                    "application/octet-stream",
                    body,
                )
                .header(
                    "Content-Range",
                    ContentRange { first: first + 7, last: last + 7, total: None }.to_string(),
                ),
                RangeLie::ShortBody => {
                    let short = body[..body.len() - body.len().min(10)].to_vec();
                    Response::with_body(
                        StatusCode::PARTIAL_CONTENT,
                        "application/octet-stream",
                        short,
                    )
                    .header(
                        "Content-Range",
                        ContentRange { first, last, total: Some(size) }.to_string(),
                    )
                }
            }
        }),
        ServerConfig::default(),
    );
    server.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
}

#[test]
fn multipart_part_outside_requested_span_is_rejected() {
    // One fragment at 5000 requested; the server answers 206 multipart whose
    // part claims bytes 0-99. Trusting the claim would plant those bytes at
    // an offset the caller never asked about — it must be a protocol error.
    let data = payload(100_000);
    let size = data.len() as u64;
    let server = HttpServer::new(
        Arc::new(move |req: Request| {
            if req.head.method == Method::Head {
                return Response::empty(StatusCode::OK).header("Content-Length", size.to_string());
            }
            let mut w = httpwire::multipart::MultipartWriter::new(Vec::new(), "EVILB");
            w.write_part(
                "application/octet-stream",
                ContentRange { first: 0, last: 99, total: Some(size) },
                &data[..100],
            )
            .unwrap();
            let body = w.finish().unwrap();
            Response::with_body(StatusCode::PARTIAL_CONTENT, "application/octet-stream", body)
                .header("Content-Type", "multipart/byteranges; boundary=EVILB")
        }),
        ServerConfig::default(),
    );
    let net = sim();
    server.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let err = f.pread_vec(&[(5000, 100)]).unwrap_err();
    assert!(
        matches!(err, DavixError::Protocol(_)),
        "out-of-span multipart part must be rejected, got: {err}"
    );
}

/// One raw part of a scripted multipart body: delimiter, the head lines as
/// given, a blank line, the payload.
fn raw_part(head: &[String], payload: &[u8]) -> Vec<u8> {
    let mut out = b"\r\n--HOSTILE\r\n".to_vec();
    for line in head {
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(payload);
    out
}

/// Vectored reads against servers that answer a multi-range request with a
/// multipart body of their own invention. Whatever the body says, the
/// client returns the entity's bytes or a typed error — never other bytes.
#[test]
fn hostile_multipart_bodies_give_the_right_bytes_or_a_typed_error() {
    let data = payload(100_000);
    let size = data.len() as u64;
    // Three fragments far enough apart not to be merged on the wire.
    let frags = [(1_000u64, 100usize), (5_000, 100), (9_000, 50)];
    // A well-formed part carrying the entity's own bytes.
    let part = |first: usize, len: usize| {
        let cr = format!("Content-Range: bytes {first}-{}/{size}", first + len - 1);
        raw_part(&[cr], &data[first..first + len])
    };
    let honest: Vec<u8> = frags.iter().flat_map(|&(o, l)| part(o as usize, l)).collect();
    let close = b"\r\n--HOSTILE--\r\n".to_vec();
    let cr = |text: &str| format!("Content-Range: bytes {text}/{size}");

    // (what, body, whether the bytes must come back)
    let cases: Vec<(&str, Vec<u8>, bool)> = vec![
        ("honest", [honest.clone(), close.clone()].concat(), true),
        (
            "parts in reverse order",
            [part(9_000, 50), part(5_000, 100), part(1_000, 100), close.clone()].concat(),
            true,
        ),
        (
            "a part outside the span",
            [honest.clone(), part(20_000, 10), close.clone()].concat(),
            false,
        ),
        ("a part before the span", [part(0, 10), honest.clone(), close.clone()].concat(), false),
        (
            "a part in the span touching no window",
            [honest.clone(), part(3_000, 10), close.clone()].concat(),
            false,
        ),
        (
            "overlapping parts, both honest",
            [part(1_000, 100), part(1_050, 100), part(5_000, 100), part(9_000, 50), close.clone()]
                .concat(),
            true,
        ),
        (
            "the same part twice, the second one lying",
            [honest.clone(), raw_part(&[cr("1000-1099")], &[0xEE; 100]), close.clone()].concat(),
            true,
        ),
        (
            "one part straddling two fragments and the gap between",
            [part(1_000, 4_100), part(9_000, 50), close.clone()].concat(),
            true,
        ),
        (
            "a part wider than its fragment",
            [part(1_000, 100), part(4_990, 120), part(9_000, 50), close.clone()].concat(),
            true,
        ),
        (
            "a part covering half a fragment",
            [part(1_000, 50), part(5_000, 100), part(9_000, 50), close.clone()].concat(),
            false,
        ),
        (
            "a fragment no part covers",
            [part(1_000, 100), part(9_000, 50), close.clone()].concat(),
            false,
        ),
        (
            "a payload shorter than its Content-Range",
            [
                raw_part(&[cr("1000-1099")], &data[1_000..1_090]),
                part(5_000, 100),
                part(9_000, 50),
                close.clone(),
            ]
            .concat(),
            false,
        ),
        (
            "a payload longer than its Content-Range",
            [
                raw_part(&[cr("1000-1099")], &data[1_000..1_110]),
                part(5_000, 100),
                part(9_000, 50),
                close.clone(),
            ]
            .concat(),
            false,
        ),
        (
            "a part without Content-Range",
            [
                raw_part(
                    &["Content-Type: application/octet-stream".to_string()],
                    &data[1_000..1_100],
                ),
                close.clone(),
            ]
            .concat(),
            false,
        ),
        (
            "a part with two Content-Range fields",
            [
                raw_part(&[cr("1000-1099"), cr("5000-5099")], &data[1_000..1_100]),
                part(9_000, 50),
                close.clone(),
            ]
            .concat(),
            false,
        ),
        (
            "a part declaring more than the whole span",
            [raw_part(&[cr("1000-99999")], &data[1_000..]), close.clone()].concat(),
            false,
        ),
        ("no closing delimiter", honest.clone(), false),
    ];

    for (what, body, must_succeed) in cases {
        let net = sim();
        let server = HttpServer::new(
            Arc::new(move |req: Request| {
                if req.head.method == Method::Head {
                    return Response::empty(StatusCode::OK)
                        .header("Content-Length", size.to_string());
                }
                Response::with_body(StatusCode::PARTIAL_CONTENT, "x", body.clone())
                    .header("Content-Type", "multipart/byteranges; boundary=HOSTILE")
            }),
            ServerConfig::default(),
        );
        server.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
        let _g = net.enter();
        let c = client(&net, Config::default().no_retry());
        let f = c.open("http://s/f").unwrap();
        match f.pread_vec(&frags) {
            Ok(got) => {
                for (g, &(off, len)) in got.iter().zip(&frags) {
                    assert_eq!(g, &data[off as usize..off as usize + len], "{what}: wrong bytes");
                }
                assert_eq!(got.len(), frags.len(), "{what}");
            }
            Err(DavixError::Protocol(_)) => assert!(!must_succeed, "{what}: refused"),
            Err(e) => panic!("{what}: untyped failure {e}"),
        }
    }
}

#[test]
fn transient_mid_body_failure_is_retried() {
    // The first GET stalls halfway through its body (client read times out);
    // the retry budget must absorb it, like the old buffered executor did.
    use davix_sync::{AtomicU32, Ordering};
    use netsim::{Runtime as _, Stream as _};

    let net = sim();
    let data = payload(10_000);
    let listener = net.bind("s", 80).unwrap();
    let stalls = Arc::new(AtomicU32::new(1));
    {
        let data = data.clone();
        let stalls = Arc::clone(&stalls);
        let rt = net.runtime();
        // One handler thread per connection, so the stalled connection
        // cannot block the retry's fresh connection from being served.
        net.spawn("flaky-accept", move || {
            let mut conn_id = 0u32;
            loop {
                let Ok((s, _)) = listener.accept_sim() else { return };
                conn_id += 1;
                let data = data.clone();
                let stalls = Arc::clone(&stalls);
                let rt2 = Arc::clone(&rt);
                rt.spawn(
                    &format!("flaky-conn-{conn_id}"),
                    Box::new(move || {
                        use std::io::Write;
                        let mut writer = s.try_clone().unwrap();
                        let mut reader = std::io::BufReader::new(s);
                        loop {
                            let head = match httpwire::parse::read_request_head(&mut reader) {
                                Ok(Some(h)) => h,
                                _ => return,
                            };
                            if head.method == Method::Head {
                                let _ = write!(
                                    writer,
                                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                                    data.len()
                                );
                                let _ = writer.flush();
                                continue;
                            }
                            let specs = httpwire::range::parse_range_header(
                                head.headers.get("range").unwrap(),
                            )
                            .unwrap();
                            let (first, last) = specs[0].resolve(data.len() as u64).unwrap();
                            let body = &data[first as usize..=last as usize];
                            let _ = write!(
                                writer,
                                "HTTP/1.1 206 Partial Content\r\nContent-Length: {}\r\n\
                                 Content-Range: bytes {first}-{last}/{}\r\n\r\n",
                                body.len(),
                                data.len()
                            );
                            if stalls
                                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                                    v.checked_sub(1)
                                })
                                .is_ok()
                            {
                                // Half the body, then silence: the client's
                                // io_timeout fires mid-body.
                                let _ = writer.write_all(&body[..body.len() / 2]);
                                let _ = writer.flush();
                                rt2.sleep(Duration::from_millis(500));
                                return;
                            }
                            let _ = writer.write_all(body);
                            let _ = writer.flush();
                        }
                    }),
                );
            }
        });
    }
    let _g = net.enter();
    let c = client(
        &net,
        Config {
            io_timeout: Duration::from_millis(100),
            retry: RetryPolicy { retries: 2, backoff: Duration::from_millis(1) },
            ..Config::default()
        },
    );
    let f = c.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 4000];
    let n = f.pread(2000, &mut buf).unwrap();
    assert_eq!(n, 4000);
    assert_eq!(&buf, &data[2000..6000]);
    assert!(c.metrics().retries >= 1, "the stalled body must have burned a retry");
}

#[test]
fn shifted_content_range_is_a_protocol_error() {
    let net = sim();
    lying_range_server(&net, payload(100_000), RangeLie::Shifted);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 1000];
    let err = f.pread(5000, &mut buf).unwrap_err();
    assert!(
        matches!(err, DavixError::Protocol(_)),
        "shifted Content-Range must be rejected, got: {err}"
    );
}

#[test]
fn short_206_body_is_a_protocol_error() {
    let net = sim();
    lying_range_server(&net, payload(100_000), RangeLie::ShortBody);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 1000];
    let err = f.pread(5000, &mut buf).unwrap_err();
    assert!(
        matches!(err, DavixError::Protocol(_)),
        "truncated 206 body must be rejected, got: {err}"
    );
}

#[test]
fn fallback_200_reads_only_the_requested_window() {
    // RangeSupport::None + SingleRanges policy: every fragment request is
    // answered `200` + full entity. Pre-streaming, each fragment pulled the
    // whole file (N× amplification); now the client reads at most up to the
    // end of its window and drops the rest unread.
    let size = 200_000usize;
    let data = payload(size);
    let net = sim();
    storage(&net, data.clone(), RangeSupport::None);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry().single_ranges());
    let f = c.open("http://s/f").unwrap();

    let before = c.metrics();
    let frags: Vec<(u64, usize)> = (0..8).map(|i| (i * 1000, 100)).collect();
    let got = f.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    let d = c.metrics().since(&before);
    assert_eq!(d.range_downgrades, 8, "every fragment was downgraded to 200");
    // Each fragment reads ≤ its window end (≤ 8 KiB here), never the whole
    // 200 KB entity: total stays far below the old N × size amplification.
    assert!(
        d.bytes_in < (size as u64) * 2,
        "bounded reads expected, but {} bytes came in (old behaviour: ~{})",
        d.bytes_in,
        size * 8
    );
}

#[test]
fn scalar_pread_on_rangeless_server_is_bounded_and_correct() {
    let size = 150_000usize;
    let data = payload(size);
    let net = sim();
    storage(&net, data.clone(), RangeSupport::None);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 500];
    let before = c.metrics();
    let n = f.pread(100_000, &mut buf).unwrap();
    assert_eq!(n, 500);
    assert_eq!(&buf, &data[100_000..100_500]);
    let d = c.metrics().since(&before);
    assert_eq!(d.range_downgrades, 1);
    assert!(d.bytes_in <= 100_500 + 1024, "read stops at the window end, got {}", d.bytes_in);
}

#[test]
fn huge_backoff_is_capped_not_a_panic() {
    // `backoff * 2^attempts` used to go through `Duration * u32`, which
    // panics on overflow. A pathological configuration must now just cap.
    let net = sim();
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from_static(b"ok"));
    let node = StorageNode::start(
        store,
        Box::new(net.bind("s", 80).unwrap()),
        net.runtime(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
    node.handler.fail_next(2);
    let _g = net.enter();
    let c = client(
        &net,
        Config { retry: RetryPolicy { retries: 3, backoff: Duration::MAX }, ..Config::default() },
    );
    let resp = c
        .executor()
        .execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get")
        .unwrap();
    assert_eq!(resp.body, b"ok");
    assert_eq!(c.metrics().retries, 2);
}

#[test]
fn large_get_streams_without_full_body_allocation() {
    let size = 4 * 1024 * 1024usize;
    let data = payload(size);
    let net = sim();
    storage(&net, data.clone(), RangeSupport::MultiRange);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());

    let mut stream = c
        .executor()
        .execute_streaming(&PreparedRequest::get("http://s/f".parse().unwrap()))
        .unwrap();
    assert_eq!(stream.status(), StatusCode::OK);
    let mut total = 0usize;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = stream.read(&mut buf).unwrap();
        if n == 0 {
            break;
        }
        assert_eq!(&buf[..n], &data[total..total + n], "stream bytes must match the entity");
        total += n;
    }
    assert_eq!(total, size);
    assert!(stream.is_drained());
    drop(stream);

    let m = c.metrics();
    assert_eq!(m.bytes_streamed, size as u64);
    assert_eq!(m.peak_body_buffer, 0, "no collected body buffer may exist on the streaming path");
    // Fully drained with keep-alive → the session went back to the pool.
    let ep = Endpoint::of(&"http://s/f".parse().unwrap());
    assert_eq!(c.executor().pool().idle_count(&ep), 1);
    c.executor()
        .execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get")
        .unwrap();
    assert_eq!(c.metrics().sessions_created, 1, "drained stream's session must be recycled");
}

#[test]
fn half_drained_stream_is_not_recycled() {
    let size = 1024 * 1024usize;
    let net = sim();
    storage(&net, payload(size), RangeSupport::MultiRange);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());

    let mut stream = c
        .executor()
        .execute_streaming(&PreparedRequest::get("http://s/f".parse().unwrap()))
        .unwrap();
    let mut buf = vec![0u8; 1000];
    let n = stream.read(&mut buf).unwrap();
    assert!(n > 0 && !stream.is_drained());
    drop(stream); // body bytes still on the wire → connection unusable

    let ep = Endpoint::of(&"http://s/f".parse().unwrap());
    assert_eq!(c.executor().pool().idle_count(&ep), 0, "half-drained session must be dropped");
    c.executor()
        .execute_expect(&PreparedRequest::get("http://s/f".parse().unwrap()), "get")
        .unwrap();
    assert_eq!(c.metrics().sessions_created, 2, "a fresh connection was required");
}

#[test]
fn streamed_pread_still_recycles_sessions() {
    // The 206 fast path consumes the body exactly, so back-to-back preads
    // must keep riding one connection — streaming must not cost us the
    // paper's session-recycling win (§2.2).
    let data = payload(100_000);
    let net = sim();
    storage(&net, data.clone(), RangeSupport::MultiRange);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 2000];
    for i in 0..5u64 {
        let n = f.pread(i * 10_000, &mut buf).unwrap();
        assert_eq!(n, 2000);
        assert_eq!(&buf, &data[(i * 10_000) as usize..(i * 10_000) as usize + 2000]);
    }
    let m = c.metrics();
    assert_eq!(m.sessions_created, 1, "open + 5 preads should share one connection");
    assert_eq!(m.peak_body_buffer, 0, "pread must not collect bodies");
    assert!(m.bytes_streamed >= 10_000);
}

#[test]
fn one_mib_pread_allocates_nothing_proportional_to_the_body() {
    // The acceptance bar for the streaming refactor: a 1 MiB window lands
    // in the caller's buffer straight off the wire. `peak_body_buffer`
    // watches every collect-to-Vec in the client; it must stay 0.
    let size = 4 * 1024 * 1024usize;
    let data = payload(size);
    let net = sim();
    storage(&net, data.clone(), RangeSupport::MultiRange);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let mut buf = vec![0u8; 1024 * 1024];
    let n = f.pread(2 * 1024 * 1024, &mut buf).unwrap();
    assert_eq!(n, 1024 * 1024);
    assert_eq!(&buf[..], &data[2 * 1024 * 1024..3 * 1024 * 1024]);
    let m = c.metrics();
    assert_eq!(m.peak_body_buffer, 0, "1 MiB pread must stream, not collect");
    assert!(m.bytes_streamed >= 1024 * 1024);
}

#[test]
fn multirange_pread_vec_streams_parts_incrementally() {
    let data = payload(300_000);
    let net = sim();
    storage(&net, data.clone(), RangeSupport::MultiRange);
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    let f = c.open("http://s/f").unwrap();
    let frags: Vec<(u64, usize)> = (0..32).map(|i| (i * 9000, 256)).collect();
    let got = f.pread_vec(&frags).unwrap();
    for (g, &(off, len)) in got.iter().zip(&frags) {
        assert_eq!(g, &data[off as usize..off as usize + len]);
    }
    let m = c.metrics();
    assert_eq!(m.vectored_requests, 1);
    assert_eq!(m.peak_body_buffer, 0, "multipart bodies must decode off the wire, not a Vec");
}

#[test]
fn interim_103_before_200_is_skipped_and_the_session_stays_in_step() {
    // Regression: the GET path returned the first head it saw. A `103 Early
    // Hints` became "the response", and the real `200` stayed on a session
    // released as reusable, so the *next* request read a stale response.
    use netsim::Stream as _;
    use std::io::Write;

    let net = sim();
    let listener = net.bind("s", 80).unwrap();
    net.spawn("early-hints-server", move || {
        let Ok((s, _)) = listener.accept_sim() else { return };
        let mut writer = s.try_clone().unwrap();
        let mut reader = std::io::BufReader::new(s);
        while let Ok(Some(head)) = httpwire::parse::read_request_head(&mut reader) {
            let body = format!("body of {}", head.target);
            let _ = write!(
                writer,
                "HTTP/1.1 103 Early Hints\r\nLink: </style.css>; rel=preload\r\n\r\n\
                 HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let _ = writer.flush();
        }
    });
    let _g = net.enter();
    let c = client(&net, Config::default().no_retry());
    for path in ["/first", "/second"] {
        let resp = c
            .executor()
            .execute(&PreparedRequest::get(format!("http://s{path}").parse().unwrap()))
            .unwrap();
        assert_eq!(resp.head.status, StatusCode::OK, "the 103 must not be the response");
        assert_eq!(resp.body, format!("body of {path}").as_bytes());
    }
    assert_eq!(c.metrics().sessions_created, 1, "both requests ride the one recycled session");
}
