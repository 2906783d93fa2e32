//! The xrdlite server: frames in, frames out, over an [`ObjectStore`].
//!
//! It runs on the same server core as `httpd` ([`netsim::ServerCore`]): one
//! accept thread feeding a reactor whose shard threads drive every
//! connection as a non-blocking task. A connection reads the handshake and
//! then frames into its receive buffer, answers each request once its
//! processing delay is over (a timer on the reactor's wheel, so requests on
//! one connection overlap, as XRootD's asynchronous server does) and queues
//! the responses in a round-robin frame queue ([`crate::mux`]): they go out
//! **interleaved in 64 KiB chunks**, so a large read does not head-of-line
//! block a small one on the same connection. No thread is spawned per
//! connection or per request.

use crate::mux::FrameQueue;
use crate::wire::{self, Frame, Op, PayloadReader, PayloadWriter, Status, MAX_FRAME_PAYLOAD};
use davix_sync::{AtomicU64, Ordering};
use netsim::{
    BoxedStream, DriveOutcome, Driven, Listener, ReactorConfig, Runtime, ServerCore, Signal,
};
use objstore::ObjectStore;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Bytes read from the transport per `try_read` call.
const READ_CHUNK: usize = 16 * 1024;
/// How long a connection that has stopped taking requests (the peer
/// half-closed, or the server is stopping) may take to answer and flush
/// what it holds before it is dropped.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

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
        self.core.serve(listener, rt, move |stream, _peer, _open| {
            server.connections.fetch_add(1, Ordering::Relaxed);
            Box::new(XrdConn {
                stream,
                server: Arc::clone(&server),
                greeted: false,
                rbuf: Vec::new(),
                waiting: VecDeque::new(),
                handles: HashMap::new(),
                next_handle: 1,
                out: FrameQueue::default(),
                wire: Vec::new(),
                sent: 0,
                ended: None,
                stopping: false,
            })
        });
    }
}

/// One connection as a reactor task. It never blocks: every `drive` reads
/// what has arrived, answers the requests that are due and writes until the
/// transport pushes back.
struct XrdConn {
    stream: BoxedStream,
    server: Arc<XrdServer>,
    /// Whether the handshake has been received (and its reply queued).
    greeted: bool,
    /// Received bytes not yet decoded into frames.
    rbuf: Vec<u8>,
    /// Decoded requests, each with the instant its processing delay ends:
    /// sorted, because the delay is one value.
    waiting: VecDeque<(Duration, Frame)>,
    /// Open files: handle → path.
    handles: HashMap<u32, String>,
    next_handle: u32,
    /// Responses not yet cut into wire frames.
    out: FrameQueue,
    /// The wire frame being written, and how much of it has gone: one write
    /// call offers the rest of one frame, never two frames gathered — on the
    /// simulated network a write call is a segment.
    wire: Vec<u8>,
    sent: usize,
    /// When the connection stopped taking requests, once it has.
    ended: Option<Duration>,
    /// The server is stopping: take no more requests.
    stopping: bool,
}

impl XrdConn {
    /// Read what has arrived, then take the handshake and every complete
    /// frame off the front of `rbuf`. `Ok(false)`: nothing more for now.
    fn read(&mut self, now: Duration) -> io::Result<bool> {
        let len = self.rbuf.len();
        self.rbuf.resize(len + READ_CHUNK, 0);
        let read = self.stream.try_read(&mut self.rbuf[len..]);
        self.rbuf.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => self.ended = Some(now),
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) => return Err(e),
        }
        let mut pos = 0;
        if !self.greeted {
            let Some(hello) = self.rbuf.first_chunk::<6>() else { return Ok(true) };
            if hello[..4] != *wire::MAGIC {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "bad handshake magic"));
            }
            (self.greeted, self.wire, pos) = (true, wire::hello().to_vec(), 6);
        }
        while let Some(n) = wire::frame_len(&self.rbuf[pos..])? {
            let frame = Frame::read_from(&mut &self.rbuf[pos..pos + n])?;
            pos += n;
            self.server.requests.fetch_add(1, Ordering::Relaxed);
            self.waiting.push_back((now + self.server.cfg.process_delay, frame));
        }
        self.rbuf.drain(..pos);
        Ok(true)
    }

    /// Write the rest of the current wire frame, then the next ones, until
    /// the queue is empty or the transport pushes back.
    fn flush(&mut self) -> io::Result<()> {
        loop {
            if self.sent == self.wire.len() {
                let Some(frame) = self.out.next_frame(MAX_FRAME_PAYLOAD) else { return Ok(()) };
                (self.wire, self.sent) = (frame.encode(), 0);
            }
            match self.stream.try_write(&self.wire[self.sent..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "stream closed")),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Answer one request: the response payload, or what went wrong.
    fn dispatch(&mut self, frame: &Frame) -> Result<Vec<u8>, String> {
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
                    return Ok(PayloadWriter::new().u64(size).build());
                }
                let h = self.next_handle;
                self.next_handle = h.wrapping_add(1);
                self.handles.insert(h, path);
                Ok(PayloadWriter::new().u32(h).u64(size).build())
            }
            Op::Close => {
                self.handles.remove(&r.u32().map_err(malformed)?);
                Ok(Vec::new())
            }
            Op::Read | Op::ReadV => {
                let h = r.u32().map_err(malformed)?;
                let path = self.handles.get(&h).ok_or_else(|| format!("bad handle {h}"))?;
                let data = store.get(path).ok_or_else(|| format!("file vanished: {path}"))?.data;
                let size = data.len() as u64;
                if op == Op::Read {
                    let (off, len) = (r.u64().map_err(malformed)?, r.u32().map_err(malformed)?);
                    let (start, end) = (off.min(size), off.saturating_add(len.into()).min(size));
                    return Ok(data[start as usize..end as usize].to_vec());
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
                Ok(out)
            }
        }
    }
}

impl Driven for XrdConn {
    fn drive(&mut self, now: Duration) -> DriveOutcome {
        if self.stopping && self.ended.is_none() {
            self.ended = Some(now);
        }
        loop {
            while self.waiting.front().is_some_and(|(due, _)| *due <= now) {
                let (_, req) = self.waiting.pop_front().expect("front checked");
                let (status, payload) = match self.dispatch(&req) {
                    Ok(payload) => (Status::Ok, payload),
                    Err(msg) => (Status::Error, msg.into_bytes()),
                };
                self.out.push(req.stream_id, status as u8, payload);
            }
            if self.flush().is_err() {
                return DriveOutcome::Done;
            }
            if let Some(since) = self.ended {
                let done = self.waiting.is_empty() && !self.wants_write();
                let done = done || now >= since + DRAIN_TIMEOUT;
                return if done { DriveOutcome::Done } else { DriveOutcome::Continue };
            }
            match self.read(now) {
                Ok(true) => continue,
                Ok(false) => return DriveOutcome::Continue,
                Err(_) => return DriveOutcome::Done,
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        let due = self.waiting.front().map(|(due, _)| *due);
        due.into_iter().chain(self.ended.map(|since| since + DRAIN_TIMEOUT)).min()
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        // Transports waited on via `poll_fd` report `Unsupported` here.
        let _ = self.stream.set_waker(waker);
    }

    fn poll_fd(&self) -> Option<i32> {
        self.stream.poll_fd()
    }

    fn wants_write(&self) -> bool {
        self.sent < self.wire.len()
    }

    fn begin_shutdown(&mut self) {
        self.stopping = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mux::Reassembler;
    use bytes::Bytes;
    use netsim::{LinkSpec, SimNet, SimStream};
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
        let resp = Frame::read_from(s).unwrap();
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
        let (mut re, mut done, mut big_frames) = (Reassembler::new(), Vec::new(), 0);
        while done.len() < 2 {
            let f = Frame::read_from(&mut s).unwrap();
            big_frames += usize::from(f.stream_id == 1);
            let sid = f.stream_id;
            if let Some((code, payload)) = re.push(f) {
                assert_eq!(code, Status::Ok as u8);
                done.push((sid, payload));
            }
        }
        assert_eq!(done[0], (2, data[5..15].to_vec()), "the small read completes first");
        assert_eq!(done[1], (1, data), "the large one arrives whole");
        assert!(big_frames >= 16, "1 MiB in {big_frames} frames");
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
                let ids: Vec<u16> =
                    (0..4).map(|_| Frame::read_from(&mut s).unwrap().stream_id).collect();
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
