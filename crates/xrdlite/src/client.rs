//! The xrdlite client: one multiplexed connection, stream-ID request
//! matching, vectored reads, asynchronous prefetch and sliding-window
//! read-ahead.

use crate::mux::{FrameScheduler, Reassembler};
use crate::wire::{self, Frame, Op, PayloadReader, PayloadWriter, Status};
use davix_sync::{AtomicU64, Ordering};
use ioapi::{IoStats, IoStatsSnapshot, RandomAccess};
use netsim::{Connector, Runtime, Signal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Cap on a file's cached or pending read-ahead segments (LRU eviction).
const MAX_CACHED_SEGMENTS: usize = 64;

/// Client tuning.
#[derive(Debug, Clone)]
pub struct XrdClientOptions {
    /// Connect timeout.
    pub connect_timeout: Duration,
    /// Sliding-window read-ahead: how far ahead of a sequential reader to
    /// prefetch (bytes). 0 disables read-ahead.
    pub readahead_window: u64,
    /// Read-ahead segment size (bytes).
    pub readahead_segment: usize,
}

impl Default for XrdClientOptions {
    fn default() -> Self {
        XrdClientOptions {
            connect_timeout: Duration::from_secs(30),
            readahead_window: 4 * 1024 * 1024,
            readahead_segment: 512 * 1024,
        }
    }
}

/// A slot a response (or error) lands in; waiters block on the signal.
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

    fn wait_take(&self) -> io::Result<Vec<u8>> {
        self.sig.wait(None);
        self.data.lock().take().unwrap_or_else(|| Err(io::Error::other("slot consumed twice")))
    }

    /// Wait and clone the payload without consuming it — for slots shared by
    /// several readers (the read-ahead segment cache). A take-then-refill
    /// would race: a second reader can observe the emptied slot between the
    /// two steps.
    fn wait_clone(&self) -> io::Result<Vec<u8>> {
        self.sig.wait(None);
        match self.data.lock().as_ref() {
            Some(Ok(v)) => Ok(v.clone()),
            Some(Err(e)) => Err(io::Error::new(e.kind(), e.to_string())),
            None => Err(io::Error::other("slot already consumed")),
        }
    }
}

/// Where a response should be routed.
enum Pending {
    /// A caller thread is blocked on this slot.
    Sync(Arc<Slot>),
    /// Background fill: split the payload by `lens` and fill `slots` in
    /// order (used for async READV prefetch and read-ahead READs).
    Background { lens: Vec<usize>, slots: Vec<Arc<Slot>> },
}

struct ClientInner {
    /// Outbound frames, never split; a dedicated writer thread performs the
    /// blocking writes so request threads never stall on the TCP send window.
    sender: Arc<FrameScheduler>,
    pending: Mutex<HashMap<u16, Pending>>,
    next_id: Mutex<u16>,
    rt: Arc<dyn Runtime>,
    /// Why the connection died, once it has.
    dead: Mutex<Option<String>>,
    /// Round trips actually issued (sync + async).
    round_trips: AtomicU64,
    /// Requests served from prefetch/read-ahead cache.
    cache_hits: AtomicU64,
}

impl ClientInner {
    fn check_alive(&self) -> io::Result<()> {
        match self.dead.lock().clone() {
            Some(reason) => Err(io::Error::new(io::ErrorKind::BrokenPipe, reason)),
            None => Ok(()),
        }
    }

    fn alloc_id(&self, pending: &mut HashMap<u16, Pending>) -> u16 {
        let mut id = self.next_id.lock();
        loop {
            *id = id.wrapping_add(1);
            if !pending.contains_key(&*id) {
                return *id;
            }
        }
    }

    /// Register a pending entry and send the request frame.
    fn send(&self, op: Op, payload: Vec<u8>, route: Pending) -> io::Result<u16> {
        self.check_alive()?;
        let id = {
            let mut pending = self.pending.lock();
            let id = self.alloc_id(&mut pending);
            pending.insert(id, route);
            id
        };
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = self.sender.enqueue(id, op as u8, payload) {
            self.pending.lock().remove(&id);
            return Err(e);
        }
        Ok(id)
    }

    /// Synchronous request/response.
    fn request(self: &Arc<Self>, op: Op, payload: Vec<u8>) -> io::Result<Vec<u8>> {
        let slot = Slot::new(&self.rt);
        self.send(op, payload, Pending::Sync(Arc::clone(&slot)))?;
        slot.wait_take()
    }

    fn fail_all(&self, reason: &str) {
        *self.dead.lock() = Some(reason.to_string());
        self.sender.close();
        let mut pending = self.pending.lock();
        for (_, p) in pending.drain() {
            match p {
                Pending::Sync(slot) => {
                    slot.fill(Err(io::Error::new(io::ErrorKind::BrokenPipe, reason)))
                }
                Pending::Background { slots, .. } => {
                    for s in slots {
                        s.fill(Err(io::Error::new(io::ErrorKind::BrokenPipe, reason)));
                    }
                }
            }
        }
    }
}

/// Half-closes the connection when the last user-facing handle (the client
/// or any file opened through it) is dropped.
///
/// The reader thread owns its own stream clone, so without this nudge the
/// connection — the client's reader thread and the server's connection
/// task — would outlive every handle, parked forever in the simulator. The
/// guard is shared by [`XrdClient`] and every [`XrdFile`], not by
/// [`ClientInner`]: the reader thread keeps `ClientInner` alive, so a
/// teardown tied to it would never run.
struct ConnGuard {
    sender: Arc<FrameScheduler>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        // The writer thread drains any still-queued frames, then sends FIN
        // → the server answers what it has read and closes its side → our
        // reader thread sees EOF and exits too.
        self.sender.close_and_shutdown();
    }
}

/// A connected xrdlite client. One TCP connection, arbitrarily many
/// concurrent requests (multiplexed by stream ID).
pub struct XrdClient {
    inner: Arc<ClientInner>,
    opts: XrdClientOptions,
    guard: Arc<ConnGuard>,
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
        let writer = stream.try_clone()?;
        let sender = FrameScheduler::spawn(&rt, &format!("xrd-send-{host}:{port}"), writer);
        let inner = Arc::new(ClientInner {
            sender,
            pending: Mutex::new(HashMap::new()),
            next_id: Mutex::new(0),
            rt: Arc::clone(&rt),
            dead: Mutex::new(None),
            round_trips: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
        });
        // Reader thread: reassembles chunked responses and routes each
        // completed payload to its pending entry.
        let inner2 = Arc::clone(&inner);
        rt.spawn(
            "xrd-reader",
            Box::new(move || {
                let mut stream = stream;
                let mut reasm = Reassembler::new();
                loop {
                    let frame = match Frame::read_from(&mut stream) {
                        Ok(f) => f,
                        Err(e) => {
                            inner2.fail_all(&format!("connection lost: {e}"));
                            return;
                        }
                    };
                    let stream_id = frame.stream_id;
                    let Some((code, payload)) = reasm.push(frame) else { continue };
                    let entry = inner2.pending.lock().remove(&stream_id);
                    let Some(entry) = entry else { continue };
                    let result = if code == Status::Ok as u8 {
                        Ok(payload)
                    } else {
                        Err(io::Error::other(String::from_utf8_lossy(&payload).into_owned()))
                    };
                    match entry {
                        Pending::Sync(slot) => slot.fill(result),
                        Pending::Background { lens, slots } => match result {
                            Ok(payload) => {
                                let mut off = 0usize;
                                for (len, slot) in lens.iter().zip(&slots) {
                                    if off + len <= payload.len() {
                                        slot.fill(Ok(payload[off..off + len].to_vec()));
                                    } else {
                                        slot.fill(Err(io::Error::new(
                                            io::ErrorKind::UnexpectedEof,
                                            "short readv payload",
                                        )));
                                    }
                                    off += len;
                                }
                            }
                            Err(e) => {
                                for slot in &slots {
                                    slot.fill(Err(io::Error::new(e.kind(), e.to_string())));
                                }
                            }
                        },
                    }
                    if inner2.dead.lock().is_some() {
                        return;
                    }
                }
            }),
        );
        let guard = Arc::new(ConnGuard { sender: Arc::clone(&inner.sender) });
        Ok(XrdClient { inner, opts, guard })
    }

    /// Open a remote file.
    pub fn open(&self, path: &str) -> io::Result<XrdFile> {
        let payload = self.inner.request(Op::Open, path.as_bytes().to_vec())?;
        let mut r = PayloadReader::new(&payload);
        let handle = r.u32()?;
        let size = r.u64()?;
        Ok(XrdFile {
            inner: Arc::clone(&self.inner),
            opts: self.opts.clone(),
            handle,
            size,
            io: IoStats::default(),
            seg_cache: Mutex::new(SegCache::default()),
            frag_cache: Mutex::new(HashMap::new()),
            last_seq_end: Mutex::new(None),
            _guard: Arc::clone(&self.guard),
        })
    }

    /// Stat without opening.
    pub fn stat(&self, path: &str) -> io::Result<u64> {
        let payload = self.inner.request(Op::Stat, path.as_bytes().to_vec())?;
        PayloadReader::new(&payload).u64()
    }

    /// Total request frames sent (sync + async) — the round-trip metric.
    pub fn round_trips(&self) -> u64 {
        self.inner.round_trips.load(Ordering::Relaxed)
    }

    /// Reads served from prefetch / read-ahead cache.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache_hits.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct SegCache {
    /// segment index → slot (pending or filled).
    segments: HashMap<u64, Arc<Slot>>,
    /// LRU order of segment indices.
    lru: Vec<u64>,
}

/// An open file on an [`XrdClient`].
pub struct XrdFile {
    inner: Arc<ClientInner>,
    opts: XrdClientOptions,
    handle: u32,
    size: u64,
    io: IoStats,
    seg_cache: Mutex<SegCache>,
    /// Exact-fragment prefetch cache for vectored reads.
    frag_cache: Mutex<HashMap<(u64, u32), Arc<Slot>>>,
    /// End offset of the last sequential read (read-ahead trigger).
    last_seq_end: Mutex<Option<u64>>,
    /// Keeps the connection open while this file is alive, even if the
    /// [`XrdClient`] itself has been dropped.
    _guard: Arc<ConnGuard>,
}

impl XrdFile {
    /// Entity size.
    pub fn size_bytes(&self) -> u64 {
        self.size
    }

    fn read_payload(&self, off: u64, len: u32) -> Vec<u8> {
        PayloadWriter::new().u32(self.handle).u64(off).u32(len).build()
    }

    fn readv_payload(&self, frags: &[(u64, usize)]) -> Vec<u8> {
        let mut w = PayloadWriter::new().u32(self.handle).u16(frags.len() as u16);
        for &(off, len) in frags {
            w = w.u64(off).u32(len as u32);
        }
        w.build()
    }

    /// Synchronous positional read (no cache involvement).
    fn read_direct(&self, off: u64, len: usize) -> io::Result<Vec<u8>> {
        self.inner.request(Op::Read, self.read_payload(off, len as u32))
    }

    /// Vectored read: one round trip for all fragments, served from the
    /// prefetch cache when a previous [`prefetch_vec`](Self::prefetch_vec)
    /// covered exactly these fragments.
    pub fn read_vec(&self, frags: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        if frags.is_empty() {
            return Ok(Vec::new());
        }
        if frags.len() > u16::MAX as usize {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "too many fragments"));
        }
        // All fragments already prefetched?
        let cached: Option<Vec<Arc<Slot>>> = {
            let mut cache = self.frag_cache.lock();
            let keys: Vec<(u64, u32)> = frags.iter().map(|&(o, l)| (o, l as u32)).collect();
            if keys.iter().all(|k| cache.contains_key(k)) {
                Some(keys.iter().map(|k| cache.remove(k).expect("checked")).collect())
            } else {
                None
            }
        };
        let out = if let Some(slots) = cached {
            self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            let mut out = Vec::with_capacity(slots.len());
            for s in slots {
                out.push(s.wait_take()?);
            }
            out
        } else {
            let payload = self.inner.request(Op::ReadV, self.readv_payload(frags))?;
            let mut out = Vec::with_capacity(frags.len());
            let mut pos = 0usize;
            for &(_, len) in frags {
                if pos + len > payload.len() {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "short readv payload",
                    ));
                }
                out.push(payload[pos..pos + len].to_vec());
                pos += len;
            }
            out
        };
        let bytes: u64 = out.iter().map(|v| v.len() as u64).sum();
        self.io.record_vector_read(bytes, 1);
        Ok(out)
    }

    /// Asynchronously fetch fragments into the prefetch cache (fire and
    /// forget): a later `read_vec` with the same fragments completes without
    /// waiting a fresh round trip. This is the client-side buffering that
    /// lets compute overlap with WAN latency.
    pub fn prefetch_vec(&self, frags: &[(u64, usize)]) {
        if frags.is_empty() || frags.len() > u16::MAX as usize {
            return;
        }
        let slots: Vec<Arc<Slot>> = frags.iter().map(|_| Slot::new(&self.inner.rt)).collect();
        {
            let mut cache = self.frag_cache.lock();
            if cache.len() + frags.len() > 4096 {
                return; // cache pressure: skip this prefetch
            }
            for (&(off, len), slot) in frags.iter().zip(&slots) {
                cache.insert((off, len as u32), Arc::clone(slot));
            }
        }
        let lens: Vec<usize> = frags.iter().map(|&(_, l)| l).collect();
        if self
            .inner
            .send(Op::ReadV, self.readv_payload(frags), Pending::Background { lens, slots })
            .is_err()
        {
            // Connection died; remove the placeholders so readers fall back
            // to sync reads (which will report the error properly).
            let mut cache = self.frag_cache.lock();
            for &(off, len) in frags {
                cache.remove(&(off, len as u32));
            }
        }
    }

    /// Positional read with sliding-window read-ahead: sequential patterns
    /// are detected and upcoming segments are fetched asynchronously.
    pub fn read_at_cached(&self, off: u64, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() || off >= self.size {
            return Ok(0);
        }
        let want = buf.len().min((self.size - off) as usize);
        if self.opts.readahead_window == 0 {
            let data = self.read_direct(off, want)?;
            let n = data.len().min(buf.len());
            buf[..n].copy_from_slice(&data[..n]);
            self.io.record_read(n as u64, 1);
            return Ok(n);
        }

        let seg = self.opts.readahead_segment as u64;
        let first_seg = off / seg;
        let last_seg = (off + want as u64 - 1) / seg;

        // Fetch (or retrieve) each needed segment.
        let mut assembled: Vec<(u64, Vec<u8>)> = Vec::new();
        for s in first_seg..=last_seg {
            let data = self.segment(s)?;
            assembled.push((s * seg, data));
        }

        // Sequential? Then schedule read-ahead.
        {
            let mut last = self.last_seq_end.lock();
            let sequential = match *last {
                Some(end) => off <= end && off + want as u64 > end.saturating_sub(seg),
                None => off < seg, // starting from (near) the beginning
            };
            *last = Some(off + want as u64);
            if sequential {
                let ahead_segs = self.opts.readahead_window / seg;
                for s in (last_seg + 1)..=(last_seg + ahead_segs) {
                    if s * seg >= self.size {
                        break;
                    }
                    self.prefetch_segment(s);
                }
            }
        }

        let mut n = 0usize;
        for (seg_off, data) in assembled {
            let data_end = seg_off + data.len() as u64;
            let copy_from = off.max(seg_off);
            let copy_to = (off + want as u64).min(data_end);
            if copy_from >= copy_to {
                continue;
            }
            let src = &data[(copy_from - seg_off) as usize..(copy_to - seg_off) as usize];
            let dst_off = (copy_from - off) as usize;
            buf[dst_off..dst_off + src.len()].copy_from_slice(src);
            n = n.max(dst_off + src.len());
        }
        self.io.record_read(n as u64, 1);
        Ok(n)
    }

    /// Get a segment: from cache, from a pending prefetch, or synchronously.
    fn segment(&self, idx: u64) -> io::Result<Vec<u8>> {
        let seg = self.opts.readahead_segment as u64;
        let slot = {
            let cache = self.seg_cache.lock();
            cache.segments.get(&idx).cloned()
        };
        if let Some(slot) = slot {
            self.inner.cache_hits.fetch_add(1, Ordering::Relaxed);
            return slot.wait_clone();
        }
        let off = idx * seg;
        let len = seg.min(self.size.saturating_sub(off)) as usize;
        let data = self.read_direct(off, len)?;
        self.insert_segment(idx, {
            let s = Slot::new(&self.inner.rt);
            s.fill(Ok(data.clone()));
            s
        });
        Ok(data)
    }

    fn prefetch_segment(&self, idx: u64) {
        let seg = self.opts.readahead_segment as u64;
        let off = idx * seg;
        if off >= self.size {
            return;
        }
        {
            let cache = self.seg_cache.lock();
            if cache.segments.contains_key(&idx) {
                return;
            }
        }
        let len = seg.min(self.size - off) as usize;
        let slot = Slot::new(&self.inner.rt);
        self.insert_segment(idx, Arc::clone(&slot));
        if self
            .inner
            .send(
                Op::Read,
                self.read_payload(off, len as u32),
                Pending::Background { lens: vec![len], slots: vec![slot] },
            )
            .is_err()
        {
            self.seg_cache.lock().segments.remove(&idx);
        }
    }

    fn insert_segment(&self, idx: u64, slot: Arc<Slot>) {
        let mut cache = self.seg_cache.lock();
        cache.segments.insert(idx, slot);
        cache.lru.retain(|&i| i != idx);
        cache.lru.push(idx);
        while cache.lru.len() > MAX_CACHED_SEGMENTS {
            let evict = cache.lru.remove(0);
            cache.segments.remove(&evict);
        }
    }

    /// I/O counters.
    pub fn io_stats(&self) -> IoStatsSnapshot {
        let mut s = self.io.snapshot();
        s.round_trips = self.inner.round_trips.load(Ordering::Relaxed);
        s
    }
}

impl RandomAccess for XrdFile {
    fn size(&self) -> io::Result<u64> {
        Ok(self.size)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        self.read_at_cached(offset, buf)
    }

    fn read_vec(&self, fragments: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        XrdFile::read_vec(self, fragments)
    }

    fn prefetch_vec(&self, fragments: &[(u64, usize)]) {
        XrdFile::prefetch_vec(self, fragments)
    }

    fn supports_prefetch(&self) -> bool {
        true
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.io_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{XrdServer, XrdServerConfig};
    use bytes::Bytes;
    use netsim::{LinkSpec, SimNet};
    use objstore::ObjectStore;

    fn setup(opts: XrdClientOptions) -> (SimNet, XrdClient, Vec<u8>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(5), ..Default::default() });
        let data: Vec<u8> = (0..2_000_000usize).map(|i| (i % 253) as u8).collect();
        let store = Arc::new(ObjectStore::new());
        store.put("/big", Bytes::from(data.clone()));
        store.put("/small", Bytes::from_static(b"tiny"));
        let server = XrdServer::new(store, XrdServerConfig::default());
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        let connector = net.connector("c");
        let client =
            XrdClient::connect(connector.as_ref(), net.runtime(), "s", 1094, opts).unwrap();
        (net, client, data)
    }

    #[test]
    fn open_read_close_roundtrip() {
        let (net, client, data) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        assert_eq!(f.size_bytes(), data.len() as u64);
        let mut buf = vec![0u8; 100];
        let n = f.read_at_cached(1000, &mut buf).unwrap();
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
                let _ = fbig2.read_direct(0, 1_900_000).unwrap();
                *done2.lock() = Some(net2.now() - t0);
            });
            done
        };

        let _g = net.enter();
        net.sleep(Duration::from_millis(1)); // let the big read go first
        let t0 = net.now();
        let mut buf = vec![0u8; 4];
        fsmall.read_at_cached(0, &mut buf).unwrap();
        let small_elapsed = net.now() - t0;
        net.sleep(Duration::from_secs(2));
        let big_elapsed = rt.lock().expect("big read finished");
        assert!(
            small_elapsed < big_elapsed,
            "small ({small_elapsed:?}) must not wait for big ({big_elapsed:?})"
        );
    }

    #[test]
    fn prefetch_vec_serves_next_read_from_cache() {
        let (net, client, data) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        let frags: Vec<(u64, usize)> = (0..16).map(|i| (i * 100_000, 50)).collect();
        f.prefetch_vec(&frags);
        // Wait for the prefetch to land, then the read must not add a trip.
        net.sleep(Duration::from_millis(50));
        let before = client.round_trips();
        let got = f.read_vec(&frags).unwrap();
        assert_eq!(client.round_trips(), before, "served from prefetch cache");
        assert!(client.cache_hits() >= 1);
        for (g, &(off, len)) in got.iter().zip(&frags) {
            assert_eq!(g, &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn prefetch_does_not_block_caller() {
        let (net, client, _) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        let t0 = net.now();
        f.prefetch_vec(&[(0, 100_000)]);
        assert_eq!(net.now(), t0, "prefetch must return immediately (no RTT)");
    }

    #[test]
    fn sequential_read_triggers_readahead() {
        let opts = XrdClientOptions {
            readahead_window: 256 * 1024,
            readahead_segment: 64 * 1024,
            ..Default::default()
        };
        let (net, client, data) = setup(opts);
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        // Sequentially read ~1 MB in 64 KiB steps.
        let mut buf = vec![0u8; 64 * 1024];
        let mut off = 0u64;
        for _ in 0..16 {
            let n = f.read_at_cached(off, &mut buf).unwrap();
            assert_eq!(&buf[..n], &data[off as usize..off as usize + n]);
            off += n as u64;
        }
        assert!(
            client.cache_hits() >= 8,
            "read-ahead should serve most sequential segments (hits={})",
            client.cache_hits()
        );
    }

    #[test]
    fn readahead_overlaps_latency_with_compute() {
        // With per-step compute ≥ RTT, read-ahead hides the network almost
        // entirely; without it every step pays the RTT.
        fn run(window: u64) -> Duration {
            let opts = XrdClientOptions {
                readahead_window: window,
                readahead_segment: 64 * 1024,
                ..Default::default()
            };
            let (net, client, data) = setup(opts);
            let _g = net.enter();
            let f = client.open("/big").unwrap();
            let mut buf = vec![0u8; 64 * 1024];
            let t0 = net.now();
            let mut off = 0u64;
            for _ in 0..16 {
                let n = f.read_at_cached(off, &mut buf).unwrap();
                off += n as u64;
                net.sleep(Duration::from_millis(15)); // "compute" > RTT(10ms)
            }
            let _ = data;
            net.now() - t0
        }
        let with = run(512 * 1024);
        let without = run(0);
        assert!(
            without > with + Duration::from_millis(100),
            "readahead {with:?} must beat no-readahead {without:?}"
        );
    }

    #[test]
    fn server_death_fails_pending_and_future_requests() {
        let (net, client, _) = setup(XrdClientOptions::default());
        let _g = net.enter();
        let f = client.open("/big").unwrap();
        net.set_host_down("s", true);
        let mut buf = vec![0u8; 16];
        assert!(f.read_at_cached(0, &mut buf).is_err());
        assert!(client.open("/small").is_err());
    }
}
