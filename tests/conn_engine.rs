//! Both servers run every connection on one engine (`netsim::conn`): what
//! it promises, it promises for HTTP and for xrdlite alike. Each test here
//! runs the same scenario against both.

use bytes::Bytes;
use httpd::{HttpServer, Request, Response, ServerConfig};
use httpwire::StatusCode;
use netsim::conn::{Codec, Conn};
use netsim::{Driven, LinkSpec, Pollable, SimNet, SimStream, Stream};
use objstore::ObjectStore;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;
use xrdlite::server::XrdServerConfig;
use xrdlite::wire::{Frame, Op, FLAG_PARTIAL, MAGIC, VERSION};
use xrdlite::XrdServer;

const MIB: usize = 1 << 20;

/// `n` bytes no two windows of which look alike.
fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i % 251) as u8 ^ (i / 251) as u8).collect()
}

/// Hosts `c` and `s` over a LAN link.
fn sim() -> SimNet {
    let net = SimNet::new();
    net.add_host("c");
    net.add_host("s");
    net.set_link("c", "s", LinkSpec::lan());
    net
}

/// An HTTP server that answers every request with `body`.
fn http_server(body: Vec<u8>) -> Arc<HttpServer> {
    let body = Bytes::from(body);
    let handler = move |_: Request| Response::with_body(StatusCode::OK, "x/y", body.clone());
    HttpServer::new(Arc::new(handler), ServerConfig::default())
}

/// An xrdlite server for `data` at `/f`.
fn xrd_server(data: Vec<u8>) -> Arc<XrdServer> {
    let store = Arc::new(ObjectStore::new());
    store.put("/f", Bytes::from(data));
    XrdServer::new(store, XrdServerConfig::default())
}

fn get() -> Vec<u8> {
    b"GET /f HTTP/1.1\r\nHost: s\r\n\r\n".to_vec()
}

fn frame(stream_id: u16, op: Op, payload: Vec<u8>) -> Vec<u8> {
    Frame { stream_id, code: op as u8, flags: 0, payload }.encode()
}

/// The handshake, then `/f` opened as the connection's first handle.
fn xrd_hello_and_open() -> Vec<u8> {
    let hello = [&MAGIC[..], &VERSION.to_be_bytes()].concat();
    [hello, frame(1, Op::Open, b"/f".to_vec())].concat()
}

/// A READ of `len` bytes at 0 from handle 1.
fn xrd_read(stream_id: u16, len: u32) -> Vec<u8> {
    let payload = [&1u32.to_be_bytes()[..], &0u64.to_be_bytes(), &len.to_be_bytes()].concat();
    frame(stream_id, Op::Read, payload)
}

/// A READV of one fragment of `len` bytes at 0 from handle 1: an answer
/// the server copies.
fn xrd_readv(stream_id: u16, len: u32) -> Vec<u8> {
    let payload =
        [&1u32.to_be_bytes()[..], &1u16.to_be_bytes(), &0u64.to_be_bytes(), &len.to_be_bytes()]
            .concat();
    frame(stream_id, Op::ReadV, payload)
}

/// The body of the one HTTP answer in `wire`.
fn http_body(wire: &[u8]) -> &[u8] {
    let end = wire.windows(4).position(|w| w == b"\r\n\r\n").expect("a head") + 4;
    &wire[end..]
}

/// The payloads of the answers in `wire` (after the 6-byte handshake
/// reply), frames of one stream joined, in the order they completed; a
/// frame cut short at the end is left out.
fn xrd_answers(wire: &[u8]) -> Vec<(u16, Vec<u8>)> {
    let (mut pos, mut partial, mut done) = (6, Vec::<(u16, Vec<u8>)>::new(), Vec::new());
    while let Some((f, n)) = Frame::decode(wire.get(pos..).unwrap_or_default()).unwrap() {
        pos += n;
        let mut payload = match partial.iter().position(|(id, _)| *id == f.stream_id) {
            Some(i) => partial.remove(i).1,
            None => Vec::new(),
        };
        payload.extend_from_slice(&f.payload);
        match f.flags & FLAG_PARTIAL {
            0 => done.push((f.stream_id, payload)),
            _ => partial.push((f.stream_id, payload)),
        }
    }
    done
}

/// Send `request` to the server serving on `s:port`, half-close, and read
/// until the server closes.
fn send_and_half_close(net: &SimNet, port: u16, request: &[u8]) -> Vec<u8> {
    let mut c = net.connect("c", "s", port).unwrap();
    c.write_all(request).unwrap();
    c.shutdown_write().unwrap();
    let mut wire = Vec::new();
    c.read_to_end(&mut wire).unwrap();
    wire
}

#[test]
fn a_peer_that_half_closes_gets_every_answer_and_then_the_close() {
    let data = pattern(MIB);
    let net = sim();
    let _g = net.enter();
    let http = http_server(data.clone());
    http.serve(Box::new(net.bind("s", 80).unwrap()), net.runtime());
    let xrd = xrd_server(data.clone());
    xrd.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());

    let wire = send_and_half_close(&net, 80, &get());
    let body = http_body(&wire);
    assert!(body == data, "HTTP: {} of {} body bytes before the close", body.len(), data.len());

    let request = [xrd_hello_and_open(), xrd_read(2, MIB as u32)].concat();
    let wire = send_and_half_close(&net, 1094, &request);
    let answers = xrd_answers(&wire);
    assert_eq!(answers.len(), 2, "xrdlite: the open and the read are answered");
    assert!(answers[1] == (2, data), "xrdlite: the read arrives whole before the close");
    http.stop();
    xrd.stop();
}

/// One connection of a server, driven by hand: it runs only when the test
/// drives it.
struct Rig<'a, C> {
    net: &'a SimNet,
    client: SimStream,
    conn: Conn<C>,
}

impl<C: Codec> Rig<'_, C> {
    /// Write `request`, let it arrive, then drive the connection.
    fn feed(&mut self, request: &[u8]) {
        self.client.write_all(request).unwrap();
        self.net.sleep(Duration::from_millis(5));
        self.conn.drive(self.net.now());
    }

    /// Whether the connection is at the bound.
    fn full(&self) -> bool {
        self.conn.io().full(self.conn.codec().held())
    }

    /// Read until what has arrived is `done`, driving the connection
    /// whenever the client has caught up.
    fn read_until(&mut self, done: impl Fn(&[u8]) -> bool) -> Vec<u8> {
        let (mut wire, mut buf) = (Vec::new(), vec![0u8; 64 * 1024]);
        while !done(&wire) {
            match self.client.try_read(&mut buf) {
                Ok(0) => panic!("closed after {} bytes", wire.len()),
                Ok(n) => wire.extend_from_slice(&buf[..n]),
                Err(_) => {
                    self.net.sleep(Duration::from_millis(1));
                    self.conn.drive(self.net.now());
                }
            }
        }
        wire
    }
}

/// A hand-driven connection from `c` to a server on `s:port`, running
/// `codec`.
fn rig<C: Codec>(net: &SimNet, port: u16, codec: impl FnOnce(String) -> C) -> Rig<'_, C> {
    let listener = net.bind("s", port).unwrap();
    let client = net.connect("c", "s", port).unwrap();
    let (stream, peer) = listener.accept_sim().unwrap();
    Rig { net, client, conn: Conn::new(Box::new(stream), codec(peer)) }
}

#[test]
fn both_codecs_stop_taking_requests_at_the_one_bound() {
    // Four requests, each for a 1 MiB answer the bound counts (every byte
    // of an HTTP answer; an xrdlite READV's gather), arrive one by one at a
    // peer that reads nothing: the first answer puts either connection
    // past the bound, and neither takes another request until the peer
    // reads.
    let data = pattern(MIB);
    let net = sim();
    let _g = net.enter();

    let http = http_server(data.clone());
    let mut h = rig(&net, 80, |peer| http.codec(peer, net.now()));
    for _ in 0..4 {
        h.feed(&get());
        assert_eq!(http.stats().requests.load(davix_sync::Ordering::Relaxed), 1, "HTTP");
        assert!(h.full(), "HTTP: a 1 MiB answer queued is past the bound");
    }

    let xrd = xrd_server(data.clone());
    let mut x = rig(&net, 1094, |_| xrd.codec());
    x.feed(&xrd_hello_and_open());
    for id in 0..4 {
        x.feed(&xrd_readv(10 + id, MIB as u32));
        assert_eq!(xrd.requests.load(davix_sync::Ordering::Relaxed), 2, "xrdlite (the open too)");
        assert!(x.full(), "xrdlite: a 1 MiB copy held is past the bound");
    }

    // Once the peer reads, every request is taken and answered whole.
    let head_len = |wire: &[u8]| wire.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
    let wire = h.read_until(|wire| head_len(wire).is_some_and(|n| wire.len() >= 4 * (n + MIB)));
    let answer = head_len(&wire).unwrap() + MIB;
    assert_eq!(wire.len(), 4 * answer, "HTTP: four answers, nothing more");
    assert!(wire.chunks(answer).all(|a| http_body(a) == data), "HTTP: each body whole");
    let wire = x.read_until(|wire| xrd_answers(wire).len() == 5);
    let answers = xrd_answers(&wire);
    assert!(answers[1..].iter().all(|(_, a)| *a == data), "xrdlite: each READV whole");
}
