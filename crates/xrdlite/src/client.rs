//! The xrdlite client: one multiplexed connection, stream-ID request
//! matching and vectored reads. It keeps no cache and reads nothing ahead:
//! a `read_at` is one READ and a `read_vec` one READV. The window prefetch
//! that overlaps round trips with compute is `rootio::TreeCache`'s, over
//! any source.
//!
//! The client starts no thread. The caller that issues a request writes its
//! frame, and every request has a caller waiting on its answer. A waiting
//! caller reads the connection for everyone: it routes every answer it
//! completes to the slot its request named, stops once its own slot is full,
//! and hands the read side to a waiter whose slot is still empty. Each side
//! of the connection is a baton handed over through the runtime's signals,
//! so no lock is ever held across a stream call (see `mux` for why that
//! matters).

use crate::mux::Reassembler;
use crate::wire::{self, Frame, Op, PayloadReader, PayloadWriter, Status};
use davix_sync::{AtomicU64, Ordering};
use ioapi::{IoStats, IoStatsSnapshot, RandomAccess};
use netsim::{BoxedStream, Connector, Runtime, Signal};
use parking_lot::Mutex;
use std::collections::{hash_map::Entry, HashMap};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Bytes asked of the transport per read.
const READ_CHUNK: usize = 64 * 1024;

/// Client tuning.
#[derive(Debug, Clone)]
pub struct XrdClientOptions {
    /// Connect timeout.
    pub connect_timeout: Duration,
}

impl Default for XrdClientOptions {
    fn default() -> Self {
        XrdClientOptions { connect_timeout: Duration::from_secs(30) }
    }
}

/// The slot a caller's answer (or error) lands in, once. It is filled only
/// under the connection's lock; `sig` is set when it is filled, or when
/// the caller waiting on it is handed the read side.
struct Slot {
    sig: Arc<dyn Signal>,
    data: Mutex<Option<io::Result<Vec<u8>>>>,
}

impl Slot {
    fn new(rt: &Arc<dyn Runtime>) -> Arc<Slot> {
        Arc::new(Slot { sig: rt.signal(), data: Mutex::new(None) })
    }

    fn fill(&self, r: io::Result<Vec<u8>>) {
        *self.data.lock() = Some(r);
        self.sig.set();
    }

    fn is_full(&self) -> bool {
        self.data.lock().is_some()
    }
}

/// Where an answer goes: the slot of the caller waiting for it. With
/// `len`, the answer must be exactly that long; `None` (OPEN, STAT, whose
/// answer length the client cannot know) takes it as it comes.
struct Pending {
    len: Option<usize>,
    slot: Arc<Slot>,
}

impl Pending {
    fn deliver(self, answer: io::Result<Vec<u8>>) {
        self.slot.fill(answer.and_then(|data| match self.len {
            Some(want) if want != data.len() => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("an answer of {} bytes to a read of {want}", data.len()),
            )),
            _ => Ok(data),
        }));
    }

    fn fail(&self, e: &io::Error) {
        self.slot.fill(Err(copy_err(e)));
    }
}

fn copy_err(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
}

/// The read side: its stream handle, the bytes received but not yet cut
/// into frames (`buf[..filled]`; the rest is room for the next read) and the
/// answers that have arrived in part.
struct Reader {
    stream: BoxedStream,
    buf: Vec<u8>,
    filled: usize,
    partial: Reassembler,
}

/// What the threads using one connection share, under one lock that is
/// never held across a stream call or a wait.
struct Conn {
    /// Requests on the wire by stream ID, with where their answers go.
    pending: HashMap<u16, Pending>,
    next_id: u16,
    /// The write side; `None` while a caller writes.
    writer: Option<BoxedStream>,
    /// The read side; `None` while a waiter reads.
    reader: Option<Reader>,
    /// The slots of the threads asleep while another reads.
    waiting: Vec<Arc<Slot>>,
    /// What killed the connection, once something has.
    dead: Option<io::Error>,
}

struct ClientInner {
    conn: Mutex<Conn>,
    /// Set whenever the write side is handed back.
    write_free: Arc<dyn Signal>,
    rt: Arc<dyn Runtime>,
    /// Request frames sent.
    round_trips: AtomicU64,
}

impl ClientInner {
    /// Register where the answer goes, then write the request frame from
    /// this thread, with one `write_all`, once the write side is free.
    fn issue(&self, op: Op, payload: Vec<u8>, route: Pending) -> io::Result<()> {
        let id = {
            let mut conn = self.conn.lock();
            if let Some(e) = &conn.dead {
                let e = copy_err(e);
                route.fail(&e);
                return Err(e);
            }
            let mut id = conn.next_id.wrapping_add(1);
            while conn.pending.contains_key(&id) {
                id = id.wrapping_add(1);
            }
            conn.next_id = id;
            conn.pending.insert(id, route);
            id
        };
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        let frame = Frame { stream_id: id, code: op as u8, flags: 0, payload }.encode();
        let mut writer = loop {
            let mut conn = self.conn.lock();
            if let Some(writer) = conn.writer.take() {
                break writer;
            }
            self.write_free.reset();
            drop(conn);
            self.write_free.wait(None);
        };
        let written = writer.write_all(&frame);
        self.conn.lock().writer = Some(writer);
        self.write_free.set();
        written.inspect_err(|e| self.fail_all(e))
    }

    /// Synchronous request/response; `len`: the answer must be that long.
    fn request(&self, op: Op, payload: Vec<u8>, len: Option<usize>) -> io::Result<Vec<u8>> {
        let slot = Slot::new(&self.rt);
        self.issue(op, payload, Pending { len, slot: Arc::clone(&slot) })?;
        self.wait_for(&slot);
        let answer = slot.data.lock().take();
        answer.expect("a slot is full once `wait_for` returns")
    }

    /// Block until `slot` is full. While the read side is free this thread
    /// takes it and reads for everyone; otherwise it sleeps on the slot's
    /// signal until a fill or a hand-over sets it. The signal is reset only
    /// under the lock and only while the slot is empty, and slots are filled
    /// only under the lock, so no fill is missed.
    fn wait_for(&self, slot: &Arc<Slot>) {
        let mut asleep = false;
        loop {
            let mut conn = self.conn.lock();
            if asleep {
                if let Some(i) = conn.waiting.iter().position(|s| Arc::ptr_eq(s, slot)) {
                    conn.waiting.swap_remove(i);
                }
            }
            if slot.is_full() {
                return;
            }
            if let Some(mut reader) = conn.reader.take() {
                drop(conn);
                if let Err(e) = self.read_until(slot, &mut reader) {
                    self.fail_all(&e);
                }
                let mut conn = self.conn.lock();
                conn.reader = Some(reader);
                if let Some(next) = conn.waiting.iter().find(|s| !s.is_full()) {
                    next.sig.set();
                }
                return;
            }
            slot.sig.reset();
            conn.waiting.push(Arc::clone(slot));
            drop(conn);
            slot.sig.wait(None);
            asleep = true;
        }
    }

    /// Read and route answers until `slot` is full.
    fn read_until(&self, slot: &Slot, rd: &mut Reader) -> io::Result<()> {
        loop {
            let mut pos = 0;
            while let Some((frame, n)) = Frame::decode(&rd.buf[pos..rd.filled])? {
                pos += n;
                self.route(frame, &mut rd.partial)?;
            }
            rd.buf.copy_within(pos..rd.filled, 0);
            rd.filled -= pos;
            if slot.is_full() {
                return Ok(());
            }
            if rd.buf.len() < rd.filled + READ_CHUNK {
                rd.buf.resize(rd.filled + READ_CHUNK, 0);
            }
            match rd.stream.read(&mut rd.buf[rd.filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed by peer"))
                }
                Ok(n) => rd.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Route one received frame: part of an answer is kept, a whole answer
    /// goes to the slot its request named. A frame for a stream ID with no
    /// request on the wire is a lying peer.
    fn route(&self, frame: Frame, partial: &mut Reassembler) -> io::Result<()> {
        let id = frame.stream_id;
        let mut conn = self.conn.lock();
        let Entry::Occupied(entry) = conn.pending.entry(id) else {
            let msg = format!("a frame for stream {id}, which has no request");
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        };
        if let Some((code, payload)) = partial.push(frame)? {
            entry.remove().deliver(if code == Status::Ok as u8 {
                Ok(payload)
            } else {
                Err(io::Error::other(String::from_utf8_lossy(&payload).into_owned()))
            });
        }
        Ok(())
    }

    /// The connection is dead: every answer still owed fails with `e`, and
    /// so does every later request.
    fn fail_all(&self, e: &io::Error) {
        let e = io::Error::new(e.kind(), format!("connection lost: {e}"));
        let mut conn = self.conn.lock();
        for (_, pending) in conn.pending.drain() {
            pending.fail(&e);
        }
        conn.dead.get_or_insert(e);
    }
}

/// A connected xrdlite client. One TCP connection, arbitrarily many
/// concurrent requests (multiplexed by stream ID). It and every file opened
/// through it share the connection, which closes when the last of them is
/// dropped.
pub struct XrdClient {
    inner: Arc<ClientInner>,
}

impl XrdClient {
    /// Connect and handshake.
    pub fn connect(
        connector: &dyn Connector,
        rt: Arc<dyn Runtime>,
        host: &str,
        port: u16,
        opts: XrdClientOptions,
    ) -> io::Result<XrdClient> {
        let mut stream = connector.connect(host, port, Some(opts.connect_timeout))?;
        wire::client_handshake(&mut stream)?;
        let reader = Reader {
            stream: stream.try_clone()?,
            buf: Vec::new(),
            filled: 0,
            partial: Reassembler::default(),
        };
        let conn = Conn {
            pending: HashMap::new(),
            next_id: 0,
            writer: Some(stream),
            reader: Some(reader),
            waiting: Vec::new(),
            dead: None,
        };
        let inner = Arc::new(ClientInner {
            conn: Mutex::new(conn),
            write_free: rt.signal(),
            rt,
            round_trips: AtomicU64::new(0),
        });
        Ok(XrdClient { inner })
    }

    /// Open a remote file.
    pub fn open(&self, path: &str) -> io::Result<XrdFile> {
        let payload = self.inner.request(Op::Open, path.as_bytes().to_vec(), None)?;
        let mut r = PayloadReader::new(&payload);
        let handle = r.u32()?;
        let size = r.u64()?;
        Ok(XrdFile { inner: Arc::clone(&self.inner), handle, size, io: IoStats::default() })
    }

    /// Stat without opening.
    pub fn stat(&self, path: &str) -> io::Result<u64> {
        let payload = self.inner.request(Op::Stat, path.as_bytes().to_vec(), None)?;
        PayloadReader::new(&payload).u64()
    }

    /// Total request frames sent — the round-trip metric.
    pub fn round_trips(&self) -> u64 {
        self.inner.round_trips.load(Ordering::Relaxed)
    }
}

/// An open file on an [`XrdClient`].
pub struct XrdFile {
    inner: Arc<ClientInner>,
    handle: u32,
    size: u64,
    io: IoStats,
}

impl XrdFile {
    /// Entity size.
    pub fn size_bytes(&self) -> u64 {
        self.size
    }

    fn read_payload(&self, off: u64, len: u32) -> Vec<u8> {
        PayloadWriter::new().u32(self.handle).u64(off).u32(len).build()
    }

    /// The READV request for `frags`, refused before anything is sent when
    /// the protocol cannot carry it: at most `u16::MAX` fragments of at
    /// most `u32::MAX` bytes.
    fn readv_payload(&self, frags: &[(u64, usize)]) -> io::Result<Vec<u8>> {
        let too_big = |what: String| io::Error::new(io::ErrorKind::InvalidInput, what);
        let n = u16::try_from(frags.len())
            .map_err(|_| too_big(format!("{} fragments in one READV", frags.len())))?;
        let mut w = PayloadWriter::new().u32(self.handle).u16(n);
        for &(off, len) in frags {
            let len = u32::try_from(len)
                .map_err(|_| too_big(format!("a fragment of {len} bytes at {off}")))?;
            w = w.u64(off).u32(len);
        }
        Ok(w.build())
    }

    /// Vectored read: one READV for all fragments.
    pub fn read_vec(&self, frags: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        if frags.is_empty() {
            return Ok(Vec::new());
        }
        let request = self.readv_payload(frags)?;
        let total = frags.iter().map(|&(_, len)| len).sum();
        let payload = self.inner.request(Op::ReadV, request, Some(total))?;
        let mut pos = 0;
        let cut = |&(_, len): &(u64, usize)| {
            pos += len;
            payload[pos - len..pos].to_vec()
        };
        let out: Vec<Vec<u8>> = frags.iter().map(cut).collect();
        self.io.record_vector_read(total as u64, 1);
        Ok(out)
    }

    /// This file's I/O counters: one round trip per READ or READV it sent
    /// (OPEN, STAT and other files' requests are
    /// [`XrdClient::round_trips`]'s).
    pub fn io_stats(&self) -> IoStatsSnapshot {
        self.io.snapshot()
    }
}

impl RandomAccess for XrdFile {
    fn size(&self) -> io::Result<u64> {
        Ok(self.size)
    }

    /// One READ. A read longer than the protocol's 32-bit length asks for
    /// `u32::MAX` bytes and comes back short.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let left = usize::try_from(self.size.saturating_sub(offset)).unwrap_or(usize::MAX);
        let len = buf.len().min(left).min(u32::MAX as usize);
        if len == 0 {
            return Ok(0);
        }
        let data =
            self.inner.request(Op::Read, self.read_payload(offset, len as u32), Some(len))?;
        buf[..len].copy_from_slice(&data);
        self.io.record_read(len as u64, 1);
        Ok(len)
    }

    fn read_vec(&self, fragments: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        XrdFile::read_vec(self, fragments)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{XrdServer, XrdServerConfig};
    use crate::wire::read_frame;
    use bytes::Bytes;
    use netsim::{LinkSpec, SimNet};
    use objstore::ObjectStore;
    use std::io::{Read, Write};

    /// Hosts `c` and `s` over `link`, and a server on `s` for `/big`
    /// (returned) and `/small`.
    fn serve(link: LinkSpec, cfg: XrdServerConfig) -> (SimNet, Vec<u8>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", link);
        let data: Vec<u8> = (0..2_000_000usize).map(|i| (i % 253) as u8).collect();
        let store = Arc::new(ObjectStore::new());
        store.put("/big", Bytes::from(data.clone()));
        store.put("/small", Bytes::from_static(b"tiny"));
        let server = XrdServer::new(store, cfg);
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        (net, data)
    }

    fn connect(net: &SimNet, opts: XrdClientOptions) -> XrdClient {
        XrdClient::connect(net.connector("c").as_ref(), net.runtime(), "s", 1094, opts).unwrap()
    }

    fn setup(opts: XrdClientOptions) -> (SimNet, XrdClient, Vec<u8>) {
        let link = LinkSpec { delay: Duration::from_millis(5), ..Default::default() };
        let (net, data) = serve(link, XrdServerConfig::default());
        let client = connect(&net, opts);
        (net, client, data)
    }

    #[test]
    fn open_read_close_roundtrip() {
        let (net, client, data) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        assert_eq!(f.size_bytes(), data.len() as u64);
        let mut buf = vec![0u8; 100];
        let n = f.read_at(1000, &mut buf).unwrap();
        assert_eq!(n, 100);
        assert_eq!(&buf, &data[1000..1100]);
    }

    #[test]
    fn open_missing_file_errors() {
        let (net, client, _) = setup(XrdClientOptions::default());
        let _g = net.enter();
        assert!(client.open("/nope").is_err());
        assert!(client.stat("/nope").is_err());
        assert_eq!(client.stat("/small").unwrap(), 4);
    }

    #[test]
    fn readv_matches_fragments() {
        let (net, client, data) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        let frags = [(0u64, 10usize), (500_000, 20), (1_999_990, 10)];
        let before = client.round_trips();
        let got = f.read_vec(&frags).unwrap();
        assert_eq!(client.round_trips() - before, 1, "one round trip for readv");
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn each_file_counts_its_own_round_trips() {
        let (net, client, _) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let (big, small) = (client.open("/big").unwrap(), client.open("/small").unwrap());
        big.read_at(0, &mut [0u8; 16]).unwrap();
        small.read_vec(&[(0, 2), (2, 2)]).unwrap();
        assert_eq!(big.io_stats().round_trips, 1);
        assert_eq!(small.io_stats().round_trips, 1);
        assert_eq!(client.round_trips(), 4, "two OPENs, one READ, one READV");
    }

    #[test]
    fn readv_out_of_bounds_is_error() {
        let (net, client, _) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        assert!(f.read_vec(&[(1_999_999, 5)]).is_err());
    }

    #[test]
    fn multiplexing_interleaves_requests_on_one_connection() {
        // A huge read issued first must not delay a tiny read issued right
        // after it on the same connection (contrast with HTTP pipelining).
        let (net, client, _) = setup(XrdClientOptions::default());
        let fbig = Arc::new(client.open("/big").unwrap());
        let fsmall = client.open("/small").unwrap();

        let rt = {
            // use the signal/timing of the simulation
            let done = Arc::new(Mutex::new(None::<Duration>));
            let done2 = Arc::clone(&done);
            let fbig2 = Arc::clone(&fbig);
            let net2 = net.clone();
            net.spawn("big-reader", move || {
                let t0 = net2.now();
                fbig2.read_exact_at(0, &mut vec![0; 1_900_000]).unwrap();
                *done2.lock() = Some(net2.now() - t0);
            });
            done
        };

        let _g = net.enter();
        net.sleep(Duration::from_millis(1)); // let the big read go first
        let t0 = net.now();
        let mut buf = vec![0u8; 4];
        fsmall.read_at(0, &mut buf).unwrap();
        let small_elapsed = net.now() - t0;
        net.sleep(Duration::from_secs(2));
        let big_elapsed = rt.lock().expect("big read finished");
        assert!(
            small_elapsed < big_elapsed,
            "small ({small_elapsed:?}) must not wait for big ({big_elapsed:?})"
        );
    }

    #[test]
    fn server_death_fails_pending_and_future_requests() {
        let (net, client, _) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        net.set_host_down("s", true);
        let mut buf = vec![0u8; 16];
        assert!(f.read_at(0, &mut buf).is_err());
        assert!(client.open("/small").is_err());
    }

    #[test]
    fn a_fragment_over_u32_max_is_refused_before_anything_is_sent() {
        let (net, client, data) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        let before = client.round_trips();
        let err = f.read_vec(&[(0, 10), (0, u32::MAX as usize + 1)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(client.round_trips(), before, "nothing went on the wire");
        let again = f.read_vec(&[(0, 10), (0, 10)]).unwrap();
        assert_eq!(again, [&data[..10], &data[..10]], "the connection lives on");
    }

    /// What a raw peer read: every request, then whether the stream ended.
    #[derive(Default)]
    struct RawLog {
        requests: Vec<Frame>,
        eof: bool,
    }

    /// Hosts `c` and `s` over `link`, and a raw peer on `s` standing in for
    /// the server: it greets, then writes the frames `answer` returns for
    /// each request.
    fn raw_server(
        link: LinkSpec,
        answer: impl Fn(&Frame) -> Vec<Frame> + Send + 'static,
    ) -> (SimNet, Arc<Mutex<RawLog>>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", link);
        let listener = net.bind("s", 1094).unwrap();
        let log = Arc::new(Mutex::new(RawLog::default()));
        let log2 = Arc::clone(&log);
        net.spawn("raw-server", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            s.read_exact(&mut [0u8; 6]).unwrap();
            s.write_all(&wire::hello()).unwrap();
            loop {
                let req = match read_frame(&mut s) {
                    Ok(req) => req,
                    Err(e) => return log2.lock().eof = e.kind() == io::ErrorKind::UnexpectedEof,
                };
                for frame in answer(&req) {
                    if s.write_all(&frame.encode()).is_err() {
                        return;
                    }
                }
                log2.lock().requests.push(req);
            }
        });
        (net, log)
    }

    const RAW_SIZE: u64 = 1000;

    /// An honest answer to `req` about a `RAW_SIZE`-byte file whose byte at
    /// `i` is `i % 251`, plus `extra` bytes.
    fn answer(req: &Frame, extra: usize) -> Frame {
        let mut r = PayloadReader::new(&req.payload);
        let mut payload = match Op::from_u8(req.code).unwrap() {
            Op::Open => PayloadWriter::new().u32(1).u64(RAW_SIZE).build(),
            op => {
                r.u32().unwrap();
                let n = if op == Op::ReadV { r.u16().unwrap() } else { 1 };
                let mut out = Vec::new();
                for _ in 0..n {
                    let (off, len) = (r.u64().unwrap(), r.u32().unwrap());
                    out.extend((off..off + u64::from(len)).map(|i| (i % 251) as u8));
                }
                out
            }
        };
        payload.extend(std::iter::repeat_n(0, extra));
        Frame { stream_id: req.stream_id, code: Status::Ok as u8, flags: 0, payload }
    }

    /// The offset of a READ or READV's first fragment.
    fn first_offset(req: &Frame) -> u64 {
        let skip = if req.code == Op::ReadV as u8 { 6 } else { 4 };
        PayloadReader::new(&req.payload[skip..]).u64().unwrap()
    }

    #[test]
    fn an_answer_longer_than_the_read_is_invalid_data() {
        // Honest below offset 64, one byte too long from there on.
        let (net, _log) = raw_server(LinkSpec::lan(), |req| {
            let lie = req.code != Op::Open as u8 && first_offset(req) >= 64;
            vec![answer(req, usize::from(lie))]
        });
        let _g = net.enter();
        let client = connect(&net, XrdClientOptions::default());
        let f = client.open("/f").unwrap();
        fn invalid<T>(r: io::Result<T>) -> bool {
            r.is_err_and(|e| e.kind() == io::ErrorKind::InvalidData)
        }
        f.read_at(0, &mut [0u8; 10]).unwrap();
        assert!(invalid(f.read_at(640, &mut [0u8; 10])), "READ");
        assert!(invalid(f.read_vec(&[(64, 4), (100, 6)])), "READV");
        assert_eq!(f.read_vec(&[(0, 4)]).unwrap(), [[0, 1, 2, 3]], "the connection lives on");
    }

    #[test]
    fn a_read_over_u32_max_asks_for_u32_max() {
        // A file of 8 GiB; every READ gets an error back.
        let (net, log) = raw_server(LinkSpec::lan(), |req| {
            let (code, payload) = match Op::from_u8(req.code).unwrap() {
                Op::Open => (Status::Ok, PayloadWriter::new().u32(1).u64(8 << 30).build()),
                _ => (Status::Error, b"no".to_vec()),
            };
            vec![Frame { stream_id: req.stream_id, code: code as u8, flags: 0, payload }]
        });
        let _g = net.enter();
        let client = connect(&net, XrdClientOptions::default());
        let f = client.open("/f").unwrap();
        // Never written to: the error comes back first, so no page is touched.
        let mut buf = vec![0u8; u32::MAX as usize + 2];
        assert_eq!(f.read_at(16, &mut buf).unwrap_err().to_string(), "no");
        let log = log.lock();
        let read = PayloadReader::new(&log.requests[1].payload[4..]).u64().unwrap();
        let len = PayloadReader::new(&log.requests[1].payload[12..]).u32().unwrap();
        assert_eq!((log.requests[1].code, read, len), (Op::Read as u8, 16, u32::MAX));
    }

    #[test]
    fn an_answer_past_the_payload_cap_fails_the_connection() {
        // The answer to the READ comes as MAX_PAYLOAD + 1 bytes of partial
        // frames, then an empty final frame.
        let (net, _log) = raw_server(LinkSpec::lan(), |req| {
            if req.code == Op::Open as u8 {
                return vec![answer(req, 0)];
            }
            let piece = |len| Frame {
                stream_id: req.stream_id,
                code: Status::Ok as u8,
                flags: wire::FLAG_PARTIAL,
                payload: vec![7; len],
            };
            let chunks = wire::MAX_PAYLOAD as usize / wire::MAX_FRAME_PAYLOAD;
            let mut frames: Vec<Frame> =
                (0..chunks).map(|_| piece(wire::MAX_FRAME_PAYLOAD)).collect();
            frames.push(piece(1));
            frames.push(Frame { flags: 0, ..piece(0) });
            frames
        });
        let _g = net.enter();
        let client = connect(&net, XrdClientOptions::default());
        let f = client.open("/f").unwrap();
        let err = f.read_vec(&[(0, 10)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(client.stat("/f").is_err(), "the connection is dead");
    }

    #[test]
    fn a_frame_for_a_stream_with_no_request_fails_the_connection() {
        let (net, _log) = raw_server(LinkSpec::lan(), |req| {
            let stray = Frame {
                stream_id: req.stream_id.wrapping_add(100),
                code: Status::Ok as u8,
                flags: wire::FLAG_PARTIAL,
                payload: vec![1; 16],
            };
            let stray = (req.code != Op::Open as u8).then_some(stray);
            stray.into_iter().chain([answer(req, 0)]).collect()
        });
        let _g = net.enter();
        let client = connect(&net, XrdClientOptions::default());
        let f = client.open("/f").unwrap();
        let err = f.read_vec(&[(0, 10)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(client.stat("/f").is_err(), "the connection is dead");
    }

    #[test]
    fn no_thread_per_client_connection() {
        let cfg = XrdServerConfig { process_delay: Duration::from_millis(50) };
        let (net, _) = serve(LinkSpec::lan(), cfg);
        let _g = net.enter();
        let before = net.thread_census();
        let mut files = Vec::new();
        for n in [1, 8] {
            while files.len() < n {
                let f = Arc::new(connect(&net, XrdClientOptions::default()).open("/big").unwrap());
                files.push(f);
            }
            // A READ and a READV in flight on every connection, each from a
            // thread of the test's own.
            for f in &files {
                let (f, g) = (Arc::clone(f), Arc::clone(f));
                net.spawn("reader", move || assert_eq!(f.read_at(0, &mut [0u8; 16]).unwrap(), 16));
                net.spawn("reader", move || drop(g.read_vec(&[(10, 10)]).unwrap()));
            }
            net.sleep(Duration::from_millis(10)); // the requests are in, held by the delay
            assert_eq!(net.thread_census(), before + 2 * n, "{n} connection(s): the readers only");
            net.sleep(Duration::from_millis(200));
            assert_eq!(net.thread_census(), before, "{n} connection(s), all answered");
        }
    }

    #[test]
    fn callers_writing_past_the_tcp_window_do_not_stall_the_clock() {
        // The invisible-block regression (see `mux`): eight callers each
        // write a READV frame larger than the initial congestion window, so
        // writes block on the window while the others wait for the write
        // side.
        let slow = LinkSpec {
            delay: Duration::from_millis(50),
            bandwidth: Some(1 << 20),
            ..Default::default()
        };
        let (net, data) = serve(slow, XrdServerConfig::default());
        let f = Arc::new(connect(&net, XrdClientOptions::default()).open("/big").unwrap());
        let frags = 1_300usize;
        assert!(8 + 6 + 12 * frags > LinkSpec::default().init_cwnd as usize);
        let done = Arc::new(Mutex::new(Vec::new()));
        for t in 0..8u64 {
            let (f, data, done) = (Arc::clone(&f), data.clone(), Arc::clone(&done));
            net.spawn("caller", move || {
                let frags: Vec<(u64, usize)> =
                    (0..frags as u64).map(|i| (t * 200_000 + i * 100, 8)).collect();
                let got = f.read_vec(&frags).unwrap();
                let right = got.iter().zip(&frags).all(|(g, &(off, len))| {
                    g.as_slice() == &data[off as usize..off as usize + len]
                });
                done.lock().push(right);
            });
        }
        let _g = net.enter();
        net.sleep(Duration::from_secs(60));
        assert_eq!(*done.lock(), [true; 8]);
    }

    #[test]
    fn dropping_the_last_handle_ends_the_connection_after_every_frame() {
        let slow = LinkSpec {
            delay: Duration::from_millis(50),
            bandwidth: Some(1 << 20),
            ..Default::default()
        };
        let (net, log) = raw_server(slow, |req| vec![answer(req, 0)]);
        let _g = net.enter();
        let client = connect(&net, XrdClientOptions::default());
        let f = Arc::new(client.open("/f").unwrap());
        for i in 0..4u64 {
            // 12 KB request frames, more than the link carries in 50 ms,
            // each from a caller that holds a handle until its answer.
            let frags: Vec<(u64, usize)> = (0..1_000).map(|j| ((i * 1_000 + j) % 990, 1)).collect();
            let f = Arc::clone(&f);
            net.spawn("caller", move || drop(f.read_vec(&frags).unwrap()));
        }
        net.sleep(Duration::from_millis(1));
        drop(client);
        drop(f);
        assert!(log.lock().requests.len() < 5, "the last READV is still on the wire");
        net.sleep(Duration::from_secs(5));
        let log = log.lock();
        assert!(log.eof, "the server sees the end of the stream");
        let ops: Vec<u8> = log.requests.iter().map(|f| f.code).collect();
        assert_eq!(ops, [1, 3, 3, 3, 3], "an OPEN and every READV precede it");
    }
}
