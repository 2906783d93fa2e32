//! xrdlite's codec on the connection engine ([`netsim::conn`]), and the
//! server that runs it over an [`ObjectStore`].
//!
//! The server runs on the same server core as `httpd` ([`netsim::ServerCore`])
//! and every connection on the same engine, which owns the stream, the
//! receive buffer, the output queue, the bound on what a connection holds
//! and the half-close and drain rule. What is xrdlite's own is the codec:
//! the handshake, the open files, dispatch, and the round-robin frame queue
//! (`mux`). It answers each request as it decodes it and queues the answer
//! in the frame queue, held until the request's processing delay is over (a
//! timer on the reactor's wheel, so requests on one connection overlap, as
//! XRootD's asynchronous server does); answers go out **interleaved in
//! 64 KiB frames**, so a large read does not head-of-line block a small one
//! on the same connection. A READ's answer is a slice of the stored object
//! and its frames are slices of that: it is never copied. Toward the
//! engine's bound the codec counts the answers it holds and the bytes it
//! copied into them (a READV's gather, an error message). No thread is
//! spawned per connection or per request.

use crate::mux::{Answer, FrameQueue};
use crate::wire::{self, Frame, Op, PayloadReader, PayloadWriter, Status, MAX_FRAME_PAYLOAD};
use bytes::Bytes;
use davix_sync::{AtomicU64, Ordering};
use netsim::conn::{Codec, Io, Step};
use netsim::{Listener, ReactorConfig, Runtime, ServerCore};
use objstore::ObjectStore;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone, Default)]
pub struct XrdServerConfig {
    /// Simulated storage latency per request.
    pub process_delay: Duration,
}

/// The server.
pub struct XrdServer {
    store: Arc<ObjectStore>,
    cfg: XrdServerConfig,
    core: ServerCore,
    /// Requests served (all connections).
    pub requests: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

impl XrdServer {
    /// Create a server over `store`.
    pub fn new(store: Arc<ObjectStore>, cfg: XrdServerConfig) -> Arc<XrdServer> {
        Arc::new(XrdServer {
            store,
            cfg,
            core: ServerCore::new("xrd", ReactorConfig::default().threads, usize::MAX),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        })
    }

    /// Stop the server: closes every listener, lets open connections answer
    /// the requests they have read and flush, ends them, and blocks until
    /// every server thread is gone (see [`ServerCore::stop`]).
    pub fn stop(&self) {
        self.core.stop();
    }

    /// Serve connections from `listener` (returns immediately; the work
    /// happens on the server core's accept and shard threads).
    pub fn serve(self: &Arc<Self>, listener: Box<dyn Listener>, rt: Arc<dyn Runtime>) {
        let server = Arc::clone(self);
        self.core.serve(listener, rt, move |_peer, _open| {
            server.connections.fetch_add(1, Ordering::Relaxed);
            server.codec()
        });
    }

    /// The codec of one connection: what [`serve`](XrdServer::serve) runs
    /// on each accepted stream, in a [`netsim::conn::Conn`].
    pub fn codec(self: &Arc<Self>) -> impl Codec {
        XrdCodec::new(Arc::clone(self))
    }
}

/// One connection's codec.
struct XrdCodec {
    server: Arc<XrdServer>,
    /// Whether the handshake has been received (and its reply queued).
    greeted: bool,
    /// Open files: handle → path.
    handles: HashMap<u32, String>,
    next_handle: u32,
    /// Answers not yet cut into wire frames, each held until its
    /// processing delay is over.
    out: FrameQueue,
}

impl XrdCodec {
    fn new(server: Arc<XrdServer>) -> XrdCodec {
        XrdCodec {
            server,
            greeted: false,
            handles: HashMap::new(),
            next_handle: 1,
            out: FrameQueue::default(),
        }
    }

    /// Take the handshake and complete frames off the front of the receive
    /// buffer, answering each, until the connection is full. Whether
    /// anything was taken.
    fn take_requests(&mut self, io: &mut Io, now: Duration) -> io::Result<bool> {
        let mut pos = 0;
        if !self.greeted {
            let Some(hello) = io.rbuf().first_chunk::<6>() else { return Ok(false) };
            if hello[..4] != *wire::MAGIC {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad handshake magic"));
            }
            io.frame(&wire::hello(), Bytes::new());
            (self.greeted, pos) = (true, 6);
        }
        while !io.full(self.held()) {
            let Some((frame, n)) = Frame::decode(&io.rbuf()[pos..])? else { break };
            pos += n;
            self.server.requests.fetch_add(1, Ordering::Relaxed);
            let (status, payload, copied) = match self.dispatch(&frame) {
                Ok((payload, copied)) => (Status::Ok, payload, copied),
                Err(msg) => (Status::Error, Bytes::from(msg), true),
            };
            let answer = Answer { stream_id: frame.stream_id, code: status as u8, payload, copied };
            self.out.push(now + self.server.cfg.process_delay, answer);
        }
        io.consume(pos);
        Ok(pos > 0)
    }

    /// Answer one request: the response payload and whether it was copied
    /// (rather than sliced from the stored object), or what went wrong.
    fn dispatch(&mut self, frame: &Frame) -> Result<(Bytes, bool), String> {
        let op = Op::from_u8(frame.code).ok_or_else(|| format!("unknown op {}", frame.code))?;
        let mut r = PayloadReader::new(&frame.payload);
        let malformed = |_| format!("malformed {op:?} request");
        let store = &self.server.store;
        match op {
            Op::Open | Op::Stat => {
                let path = String::from_utf8_lossy(&frame.payload).into_owned();
                let meta = store.get(&path).ok_or_else(|| format!("no such file: {path}"))?;
                let size = meta.data.len() as u64;
                if op == Op::Stat {
                    return Ok((PayloadWriter::new().u64(size).build().into(), true));
                }
                let h = self.next_handle;
                self.next_handle = h.wrapping_add(1);
                self.handles.insert(h, path);
                Ok((PayloadWriter::new().u32(h).u64(size).build().into(), true))
            }
            Op::Close => {
                self.handles.remove(&r.u32().map_err(malformed)?);
                Ok((Bytes::new(), true))
            }
            Op::Read | Op::ReadV => {
                let h = r.u32().map_err(malformed)?;
                let path = self.handles.get(&h).ok_or_else(|| format!("bad handle {h}"))?;
                let data = store.get(path).ok_or_else(|| format!("file vanished: {path}"))?.data;
                let size = data.len() as u64;
                if op == Op::Read {
                    let (off, len) = (r.u64().map_err(malformed)?, r.u32().map_err(malformed)?);
                    let (start, end) = (off.min(size), off.saturating_add(len.into()).min(size));
                    return Ok((data.slice(start as usize..end as usize), false));
                }
                // Every fragment is checked, and the answer sized, before a
                // byte is copied: fragments may repeat, so a short request
                // could otherwise ask for any multiple of the file.
                let n = r.u16().map_err(malformed)?;
                let (mut frags, mut total) = (Vec::with_capacity(frame.payload.len() / 12), 0u64);
                for _ in 0..n {
                    let off = r.u64().map_err(malformed)?;
                    let len = u64::from(r.u32().map_err(malformed)?);
                    // `off + len` can overflow: a hostile `off` near
                    // `u64::MAX` must get an error, not a panic.
                    if off > size || len > size - off {
                        return Err(format!("fragment {off}+{len} beyond size {size}"));
                    }
                    total += len;
                    if total > u64::from(wire::MAX_PAYLOAD) {
                        return Err(format!("READV asks for more than {}", wire::MAX_PAYLOAD));
                    }
                    frags.push(off as usize..(off + len) as usize);
                }
                let mut out = Vec::with_capacity(total as usize);
                for frag in frags {
                    out.extend_from_slice(&data[frag]);
                }
                Ok((out.into(), true))
            }
        }
    }
}

impl Codec for XrdCodec {
    fn advance(&mut self, io: &mut Io, now: Duration) -> Step {
        self.out.release(now);
        match self.take_requests(io, now) {
            Ok(true) => Step::Again,
            Ok(false) => Step::Read,
            Err(_) => Step::Close,
        }
    }

    fn deadline(&self) -> Option<Duration> {
        self.out.next_due()
    }

    /// One frame at a time: the next is cut only once the last has gone,
    /// so an answer that becomes due meanwhile takes its turn.
    fn refill(&mut self, io: &mut Io, now: Duration) {
        self.out.release(now);
        if let Some((head, payload)) = self.out.next_frame(MAX_FRAME_PAYLOAD) {
            io.frame(&head, payload);
        }
    }

    fn held(&self) -> (usize, usize) {
        (self.out.len(), self.out.copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::Reassembler;
    use crate::wire::read_frame;
    use bytes::Bytes;
    use netsim::conn::{Conn, MAX_ANSWERS, MAX_BYTES};
    use netsim::{Driven, LinkSpec, Pollable, SimNet, SimStream};
    use std::io::{Read, Write};

    /// Hosts `c` and `s` over a LAN link, and a server for `data` at `/f`
    /// on `s`, not yet serving.
    fn sim(data: Bytes, cfg: XrdServerConfig) -> (SimNet, Arc<XrdServer>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec::lan());
        let store = Arc::new(ObjectStore::new());
        store.put("/f", data);
        (net, XrdServer::new(store, cfg))
    }

    fn sim_server(data: Bytes, cfg: XrdServerConfig) -> (SimNet, Arc<XrdServer>) {
        let (net, server) = sim(data, cfg);
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        (net, server)
    }

    fn send(s: &mut impl Write, id: u16, op: Op, payload: Vec<u8>) {
        s.write_all(&Frame { stream_id: id, code: op as u8, flags: 0, payload }.encode()).unwrap();
    }

    /// Send one raw request frame and read its response frame.
    fn call(s: &mut (impl Read + Write), id: u16, op: Op, payload: Vec<u8>) -> Frame {
        send(s, id, op, payload);
        let resp = read_frame(s).unwrap();
        assert_eq!(resp.stream_id, id);
        resp
    }

    /// A handshaken raw connection with `/f` open on it, and the handle.
    fn open(net: &SimNet) -> (SimStream, u32) {
        let mut s = net.connect("c", "s", 1094).unwrap();
        wire::client_handshake(&mut s).unwrap();
        let open = call(&mut s, 1, Op::Open, b"/f".to_vec());
        assert_eq!(open.code, Status::Ok as u8);
        let h = PayloadReader::new(&open.payload).u32().unwrap();
        (s, h)
    }

    fn read_req(h: u32, off: u64, len: u32) -> Vec<u8> {
        PayloadWriter::new().u32(h).u64(off).u32(len).build()
    }

    #[test]
    fn an_overflowing_readv_fragment_is_an_error_and_the_connection_lives_on() {
        let (net, _server) =
            sim_server(Bytes::from_static(b"0123456789abcdef"), XrdServerConfig::default());
        let _g = net.enter();
        let (mut s, h) = open(&net);
        // `off + len` wraps to 11: inside the 16-byte file if added blindly.
        let readv = PayloadWriter::new().u32(h).u16(1).u64(u64::MAX - 4).u32(16).build();
        let resp = call(&mut s, 2, Op::ReadV, readv);
        assert_eq!(resp.code, Status::Error as u8, "{}", String::from_utf8_lossy(&resp.payload));
        let read = call(&mut s, 3, Op::Read, read_req(h, 10, 4));
        assert_eq!((read.code, read.payload.as_slice()), (Status::Ok as u8, &b"abcd"[..]));
    }

    #[test]
    fn a_readv_asking_past_the_frame_cap_is_refused_before_any_copy() {
        let mib = 1024 * 1024;
        let (net, _server) = sim_server(Bytes::from(vec![7u8; mib]), XrdServerConfig::default());
        let _g = net.enter();
        let (mut s, h) = open(&net);
        // 30 bytes of request naming the whole object a hundred times.
        let mut readv = PayloadWriter::new().u32(h).u16(100);
        for _ in 0..100 {
            readv = readv.u64(0).u32(mib as u32);
        }
        let resp = call(&mut s, 2, Op::ReadV, readv.build());
        assert_eq!(resp.code, Status::Error as u8, "{} bytes back", resp.payload.len());
        let read = call(&mut s, 3, Op::Read, read_req(h, 10, 4));
        assert_eq!((read.code, read.payload.as_slice()), (Status::Ok as u8, &[7u8; 4][..]));
    }

    #[test]
    fn a_large_read_does_not_hold_up_a_small_one_behind_it() {
        let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        let (net, _server) = sim_server(Bytes::from(data.clone()), XrdServerConfig::default());
        let _g = net.enter();
        let (mut s, h) = open(&net);
        send(&mut s, 1, Op::Read, read_req(h, 0, 1 << 20));
        send(&mut s, 2, Op::Read, read_req(h, 5, 10));
        let (mut re, mut done, mut big_frames) = (Reassembler::default(), Vec::new(), vec![0]);
        while done.len() < 2 {
            let f = read_frame(&mut s).unwrap();
            *big_frames.last_mut().unwrap() += usize::from(f.stream_id == 1);
            let sid = f.stream_id;
            if let Some((code, payload)) = re.push(f).unwrap() {
                assert_eq!(code, Status::Ok as u8);
                done.push((sid, payload));
                big_frames.push(0);
            }
        }
        assert_eq!(done[0], (2, data[5..15].to_vec()), "the small read completes first");
        assert!(big_frames[0] <= 2, "behind {} frames of the large one", big_frames[0]);
        assert_eq!(done[1], (1, data), "the large one arrives whole");
        assert!(big_frames[0] + big_frames[1] >= 16, "1 MiB in {big_frames:?} frames");
    }

    #[test]
    fn pipelined_large_reads_overlap_their_processing_delays() {
        let (kib, delay) = (1024, Duration::from_millis(200));
        let data: Vec<u8> = (0..512 * kib).map(|i| (i % 251) as u8).collect();
        let cfg = XrdServerConfig { process_delay: delay };
        let (net, _server) = sim_server(Bytes::from(data.clone()), cfg);
        let _g = net.enter();
        let (mut s, h) = open(&net);
        let t0 = net.now();
        for id in 0..8 {
            send(&mut s, 10 + id, Op::Read, read_req(h, 0, 512 * kib as u32));
        }
        let (mut re, mut answers) = (Reassembler::default(), 0);
        while answers < 8 {
            if let Some((code, payload)) = re.push(read_frame(&mut s).unwrap()).unwrap() {
                assert!(code == Status::Ok as u8 && payload == data, "answer {answers}");
                answers += 1;
            }
        }
        // 4 MiB take about 35 ms at the LAN's 125 MB/s: all eight delays
        // ran at once, not one after another.
        let took = net.now() - t0;
        assert!(took < delay * 3 / 2, "8 × 512 KiB with a {delay:?} delay took {took:?}");
    }

    #[test]
    fn a_peer_that_pipelines_reads_and_reads_nothing_is_owed_a_bounded_amount() {
        let mib = 1 << 20;
        let data: Vec<u8> = (0..mib).map(|i| (i % 251) as u8).collect();
        let (net, server) = sim(Bytes::from(data.clone()), XrdServerConfig::default());
        let _g = net.enter();
        // One connection driven by hand: it runs only when `drive` is called.
        let listener = net.bind("s", 1094).unwrap();
        let mut s = net.connect("c", "s", 1094).unwrap();
        let (stream, _) = listener.accept_sim().unwrap();
        let mut conn = Conn::new(Box::new(stream), XrdCodec::new(Arc::clone(&server)));
        s.write_all(&wire::hello()).unwrap();
        send(&mut s, 1, Op::Open, b"/f".to_vec());
        // The connection's first handle.
        let h = 1;
        // READs, answered with slices of the object, and READVs, copied.
        let readv = PayloadWriter::new().u32(h).u16(1).u64(0).u32(mib as u32).build();
        for id in 0..64 {
            match id % 4 {
                3 => send(&mut s, 100 + id, Op::ReadV, readv.clone()),
                _ => send(&mut s, 100 + id, Op::Read, read_req(h, 0, mib as u32)),
            }
        }
        // The client reads nothing; each drive sends what the window allows.
        for _ in 0..4 {
            net.sleep(Duration::from_millis(5));
            conn.drive(net.now());
            let taken = server.requests.load(Ordering::Relaxed);
            assert!(taken <= 1 + MAX_ANSWERS as u64, "{taken} requests taken (the open included)");
            let copied = conn.codec().out.copied();
            assert!(copied <= MAX_BYTES + mib, "{copied} bytes copied into answers held");
        }
        // Once it reads, every answer arrives intact.
        let mut hello = [0u8; 6];
        s.read_exact(&mut hello).unwrap();
        assert_eq!(hello, wire::hello());
        let (mut rbuf, mut re, mut answers) = (Vec::new(), Reassembler::default(), Vec::new());
        while answers.len() < 65 {
            conn.drive(net.now());
            match s.try_read_spare(&mut rbuf, 1 << 20) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    net.sleep(Duration::from_millis(1))
                }
                Err(e) => panic!("{e}"),
            }
            let mut pos = 0;
            while let Some((f, n)) = Frame::decode(&rbuf[pos..]).unwrap() {
                pos += n;
                answers.extend(re.push(f).unwrap());
            }
            rbuf.drain(..pos);
        }
        assert!(answers.iter().all(|(code, _)| *code == Status::Ok as u8));
        assert!(answers[1..].iter().all(|(_, payload)| *payload == data), "all 64 intact");
        assert_eq!(server.requests.load(Ordering::Relaxed), 65);
    }

    #[test]
    fn a_read_answer_goes_out_as_slices_of_the_stored_object() {
        let data = Bytes::from((0..300 * 1024).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let (_net, server) = sim(data.clone(), XrdServerConfig::default());
        let mut codec = XrdCodec::new(server);
        let open = Frame { stream_id: 1, code: Op::Open as u8, flags: 0, payload: b"/f".to_vec() };
        let h = PayloadReader::new(&codec.dispatch(&open).unwrap().0).u32().unwrap();
        let read = Frame {
            stream_id: 2,
            code: Op::Read as u8,
            flags: 0,
            payload: read_req(h, 7, 200_000),
        };
        let (payload, copied) = codec.dispatch(&read).unwrap();
        codec.out.push(Duration::ZERO, Answer { stream_id: 2, code: 0, payload, copied });
        codec.out.release(Duration::ZERO);
        let object = data.as_ptr_range();
        let mut at = 7;
        while let Some((_, payload)) = codec.out.next_frame(MAX_FRAME_PAYLOAD) {
            assert_eq!(payload.as_ptr(), object.start.wrapping_add(at), "frame at {at}");
            at += payload.len();
        }
        assert!(!copied && at == 7 + 200_000, "{at}");
    }

    #[test]
    fn no_thread_per_connection_or_request() {
        let cfg = XrdServerConfig { process_delay: Duration::from_millis(50) };
        let (net, server) = sim(Bytes::from(vec![1u8; 4096]), cfg);
        let _g = net.enter();
        let before = net.thread_census();
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        let serving = before + 1 + ReactorConfig::default().threads;
        let mut conns = Vec::new();
        for n in [1, 8] {
            while conns.len() < n {
                conns.push(open(&net));
            }
            for (s, h) in &mut conns {
                for id in 2..6 {
                    send(s, id, Op::Read, read_req(*h, 0, 16));
                }
            }
            net.sleep(Duration::from_millis(10)); // the READs are in, held by the delay
            assert_eq!(net.thread_census(), serving, "{n} connection(s), 4 READs in flight each");
        }
        server.stop();
        net.sleep(Duration::from_millis(1)); // exiting threads deregister
        assert_eq!(net.thread_census(), before, "stop leaves no server thread behind");
        // Stopping answered what each connection had read, then ended it.
        for (i, (mut s, _)) in conns.into_iter().enumerate() {
            let rounds = if i == 0 { 2 } else { 1 };
            for _ in 0..rounds {
                let ids: Vec<u16> = (0..4).map(|_| read_frame(&mut s).unwrap().stream_id).collect();
                assert_eq!(ids, [2, 3, 4, 5], "connection {i}");
            }
            assert_eq!(s.read(&mut [0u8; 1]).unwrap(), 0, "connection {i}: then EOF");
        }
    }

    #[test]
    fn stop_ends_the_accept_thread_and_open_connections() {
        let (net, server) = sim(Bytes::new(), XrdServerConfig::default());
        let _g = net.enter();
        let before = net.thread_census();
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        let mut held = net.connect("c", "s", 1094).unwrap();
        wire::client_handshake(&mut held).unwrap();
        let threads = 1 + ReactorConfig::default().threads;
        assert_eq!(net.thread_census(), before + threads, "the accept and shard threads run");
        server.stop();
        net.sleep(Duration::from_millis(1)); // exiting threads deregister
        assert_eq!(net.thread_census(), before, "stop must end every server thread");
        assert_eq!(held.read(&mut [0u8; 1]).unwrap(), 0, "the open connection is ended");
    }
}
