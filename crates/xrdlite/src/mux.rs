//! Frame multiplexing: the round-robin frame queue both ends write from,
//! the client's writer thread, and the client-side partial-frame
//! reassembler.
//!
//! XRootD's server does not write one response at a time: its I/O scheduler
//! interleaves *chunks* of concurrent responses on the wire so a large read
//! cannot head-of-line block a small one on the same connection (the exact
//! property the paper contrasts with HTTP pipelining, §2.2). We reproduce
//! that with:
//!
//! * `FrameQueue` — payloads are queued whole and cut into wire frames of
//!   at most a given size, round-robin across streams; all frames of a
//!   payload except the last carry [`wire::FLAG_PARTIAL`] (XRootD's
//!   `kXR_oksofar`). The server's connections drain theirs in 64 KiB
//!   chunks from the reactor; the client's writer (`FrameScheduler`)
//!   drains its request frames with no limit: a request is never split.
//! * [`Reassembler`] — the client accumulates partial frames per stream ID
//!   and yields the full payload when the final frame arrives.
//!
//! # Why the client has a writer thread
//!
//! The client is blocking code: its callers wait on their own response
//! slots. Under the simulator, a thread that blocks on a *simulator
//! primitive* (stream read/write, `Runtime::sleep`, `Signal::wait`) is
//! visible to the virtual clock; a thread that blocks on a bare mutex is
//! **not**. If callers held a `Mutex<BoxedStream>` across a `write_all` that
//! stalls on the simulated TCP window, every other caller queued on that
//! mutex would look *runnable* to the clock, so virtual time would never
//! advance, the window would never open, and the whole simulation would
//! hang — an "invisible block" deadlock. Callers here take a lock only to
//! queue a frame; the one registered writer thread blocks only on the
//! stream itself and on a [`Signal`], both of which the clock can see. Over
//! real TCP the same thread is merely the connection's single writer. (The
//! server needs none of this: its connections are reactor tasks that never
//! block.)

use crate::wire::{self, Frame};
use davix_sync::{AtomicBool, Ordering};
use netsim::{BoxedStream, Runtime, Signal};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::sync::Arc;

/// One frame payload being sent: header fields plus the unsent suffix.
struct OutStream {
    stream_id: u16,
    code: u8,
    payload: Vec<u8>,
    /// Next unsent byte of `payload`.
    offset: usize,
}

/// Payloads waiting to go out, cut into wire frames round-robin.
#[derive(Default)]
pub(crate) struct FrameQueue {
    rr: VecDeque<OutStream>,
}

impl FrameQueue {
    /// Queue a complete payload behind the others.
    pub(crate) fn push(&mut self, stream_id: u16, code: u8, payload: Vec<u8>) {
        self.rr.push_back(OutStream { stream_id, code, payload, offset: 0 });
    }

    /// Whether nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.rr.is_empty()
    }

    /// Pop the front payload, cut one frame of at most `max_payload` bytes,
    /// re-queue the rest at the back: round-robin fairness. A payload that
    /// fits in one frame is moved into it, not copied.
    pub(crate) fn next_frame(&mut self, max_payload: usize) -> Option<Frame> {
        let mut out = self.rr.pop_front()?;
        let take = (out.payload.len() - out.offset).min(max_payload);
        let partial = out.offset + take < out.payload.len();
        let payload = if out.offset == 0 && !partial {
            std::mem::take(&mut out.payload)
        } else {
            out.payload[out.offset..out.offset + take].to_vec()
        };
        out.offset += take;
        let flags = if partial { wire::FLAG_PARTIAL } else { 0 };
        let frame = Frame { stream_id: out.stream_id, code: out.code, flags, payload };
        if partial {
            self.rr.push_back(out);
        }
        Some(frame)
    }
}

/// The client's request writer: a [`FrameQueue`] drained onto a stream,
/// whole frames in FIFO order, by a dedicated writer thread.
///
/// * [`enqueue`](FrameScheduler::enqueue) never blocks on the network;
/// * each frame goes out with one `write_all`;
/// * a write error kills the scheduler: the writer exits and later enqueues
///   fail with [`io::ErrorKind::BrokenPipe`] carrying the error's text;
/// * [`close`](FrameScheduler::close) lets the writer drain what is queued
///   and exit; [`close_and_shutdown`](FrameScheduler::close_and_shutdown)
///   also half-closes the stream (FIN) after the drain, so teardown never
///   cuts a queued frame in half.
pub(crate) struct FrameScheduler {
    queue: Mutex<FrameQueue>,
    avail: Arc<dyn Signal>,
    closed: AtomicBool,
    /// Send FIN from the writer thread once it has drained and is exiting.
    shutdown_on_exit: AtomicBool,
    /// The write error that killed the writer, once it has.
    dead: Mutex<Option<String>>,
}

impl FrameScheduler {
    /// Create the scheduler and spawn its writer thread, named `name`.
    pub(crate) fn spawn(
        rt: &Arc<dyn Runtime>,
        name: &str,
        mut stream: BoxedStream,
    ) -> Arc<FrameScheduler> {
        let sched = Arc::new(FrameScheduler {
            queue: Mutex::new(FrameQueue::default()),
            avail: rt.signal(),
            closed: AtomicBool::new(false),
            shutdown_on_exit: AtomicBool::new(false),
            dead: Mutex::new(None),
        });
        let s2 = Arc::clone(&sched);
        rt.spawn(
            name,
            Box::new(move || {
                s2.run_writer(&mut stream);
                if s2.shutdown_on_exit.load(Ordering::Acquire) {
                    let _ = stream.shutdown_write();
                }
            }),
        );
        sched
    }

    /// The writer thread's loop: returns once closed and drained, or on the
    /// first write error.
    fn run_writer(&self, stream: &mut BoxedStream) {
        loop {
            let frame = self.queue.lock().next_frame(usize::MAX);
            match frame {
                Some(frame) => {
                    if let Err(e) = stream.write_all(&frame.encode()) {
                        *self.dead.lock() = Some(e.to_string());
                        return;
                    }
                }
                None => {
                    if self.closed.load(Ordering::Acquire) {
                        return;
                    }
                    // Reset *before* the emptiness re-check so an enqueue's
                    // `set` between the check and `wait` is not lost.
                    self.avail.reset();
                    if self.queue.lock().is_empty() && !self.closed.load(Ordering::Acquire) {
                        self.avail.wait(None);
                    }
                }
            }
        }
    }

    /// Enqueue a request frame. Success does **not** guarantee delivery: a
    /// later write error is reported to later enqueues only.
    pub(crate) fn enqueue(&self, stream_id: u16, code: u8, payload: Vec<u8>) -> io::Result<()> {
        if let Some(reason) = self.dead.lock().clone() {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, reason));
        }
        if self.closed.load(Ordering::Acquire) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "scheduler closed"));
        }
        self.queue.lock().push(stream_id, code, payload);
        self.avail.set();
        Ok(())
    }

    /// Drain what is queued, then let the writer thread exit.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.avail.set();
    }

    /// [`close`](FrameScheduler::close), then a half-close (FIN) of the
    /// stream from the writer thread once it has drained.
    pub(crate) fn close_and_shutdown(&self) {
        self.shutdown_on_exit.store(true, Ordering::Release);
        self.close();
    }
}

/// Client-side accumulator for chunked responses.
///
/// Feed every received frame to [`push`](Reassembler::push); it returns the
/// complete `(code, payload)` once the final (non-partial) frame of a stream
/// arrives, `None` while more frames are pending.
#[derive(Default)]
pub struct Reassembler {
    partial: HashMap<u16, Vec<u8>>,
}

impl Reassembler {
    /// Fresh reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume one frame. Returns the completed payload when `frame` is the
    /// final frame of its stream.
    pub fn push(&mut self, frame: Frame) -> Option<(u8, Vec<u8>)> {
        if frame.flags & wire::FLAG_PARTIAL != 0 {
            self.partial.entry(frame.stream_id).or_default().extend_from_slice(&frame.payload);
            return None;
        }
        match self.partial.remove(&frame.stream_id) {
            Some(mut acc) => {
                acc.extend_from_slice(&frame.payload);
                Some((frame.code, acc))
            }
            None => Some((frame.code, frame.payload)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, SimNet};
    use proptest::prelude::*;
    use std::time::Duration;

    fn frame(stream_id: u16, flags: u8, payload: &[u8]) -> Frame {
        Frame { stream_id, code: 0, flags, payload: payload.to_vec() }
    }

    #[test]
    fn reassembler_passes_through_unchunked() {
        let mut r = Reassembler::new();
        let got = r.push(frame(7, 0, b"abc")).expect("complete");
        assert_eq!(got, (0, b"abc".to_vec()));
    }

    #[test]
    fn reassembler_joins_chunks_in_order() {
        let mut r = Reassembler::new();
        assert!(r.push(frame(7, wire::FLAG_PARTIAL, b"ab")).is_none());
        assert!(r.push(frame(7, wire::FLAG_PARTIAL, b"cd")).is_none());
        let got = r.push(frame(7, 0, b"e")).expect("complete");
        assert_eq!(got.1, b"abcde".to_vec());
        assert!(r.partial.is_empty());
    }

    #[test]
    fn reassembler_interleaves_streams_independently() {
        let mut r = Reassembler::new();
        assert!(r.push(frame(1, wire::FLAG_PARTIAL, b"1a")).is_none());
        assert!(r.push(frame(2, wire::FLAG_PARTIAL, b"2a")).is_none());
        assert_eq!(r.push(frame(2, 0, b"2b")).unwrap().1, b"2a2b".to_vec());
        assert_eq!(r.push(frame(1, 0, b"1b")).unwrap().1, b"1a1b".to_vec());
    }

    #[test]
    fn queue_cuts_an_empty_payload_into_one_final_frame() {
        let mut q = FrameQueue::default();
        q.push(3, 0, Vec::new());
        let f = q.next_frame(1024).unwrap();
        assert_eq!((f.stream_id, f.flags, f.payload.len()), (3, 0, 0));
        assert!(q.is_empty() && q.next_frame(1024).is_none());
    }

    #[test]
    fn queue_without_a_limit_moves_a_long_payload_into_one_frame() {
        let mut q = FrameQueue::default();
        let payload: Vec<u8> = (0..200 * 1024).map(|i| (i % 251) as u8).collect();
        q.push(9, 4, payload.clone());
        let f = q.next_frame(usize::MAX).unwrap();
        assert_eq!((f.stream_id, f.code, f.flags), (9, 4, 0));
        assert_eq!(f.payload, payload);
        assert!(q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For any payloads and any chunk size, the queue's round-robin
        /// interleaving and the reassembler are exact inverses: every
        /// stream's payload arrives whole, with its code.
        #[test]
        fn queue_and_reassembler_are_inverses(
            payloads in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..5_000), 1..8),
            chunk in 1usize..2_048,
        ) {
            let mut q = FrameQueue::default();
            for (i, p) in payloads.iter().enumerate() {
                q.push(i as u16, (i % 2) as u8, p.clone());
            }
            let mut re = Reassembler::new();
            let mut got = HashMap::new();
            while let Some(f) = q.next_frame(chunk) {
                prop_assert!(f.payload.len() <= chunk);
                let sid = f.stream_id;
                if let Some(done) = re.push(f) {
                    prop_assert!(got.insert(sid, done).is_none(), "stream {} completed twice", sid);
                }
            }
            prop_assert!(re.partial.is_empty());
            prop_assert_eq!(got.len(), payloads.len());
            for (i, p) in payloads.iter().enumerate() {
                prop_assert_eq!(&got[&(i as u16)], &((i % 2) as u8, p.clone()));
            }
        }
    }

    /// What the sink on host `b` read off its one connection: every frame,
    /// then whether the stream ended with a FIN.
    #[derive(Default)]
    struct Sink {
        frames: Vec<Frame>,
        fin: bool,
    }

    /// Hosts `a` and `b` over `link`, with a sink listening on `b`.
    fn net_with_sink(link: LinkSpec) -> (SimNet, Arc<Mutex<Sink>>) {
        let net = SimNet::new();
        net.add_host("a");
        net.add_host("b");
        net.set_link("a", "b", link);
        let listener = net.bind("b", 9).unwrap();
        let sink = Arc::new(Mutex::new(Sink::default()));
        let sink2 = Arc::clone(&sink);
        net.spawn("sink", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            loop {
                match Frame::read_from(&mut s) {
                    Ok(f) => sink2.lock().frames.push(f),
                    Err(e) => {
                        sink2.lock().fin = e.kind() == io::ErrorKind::UnexpectedEof;
                        return;
                    }
                }
            }
        });
        (net, sink)
    }

    /// A scheduler on `a` writing to the sink, and a second handle on its
    /// stream: a connection's reader holds one, so the peer sees the end of
    /// the stream only through a FIN.
    fn scheduler(net: &SimNet) -> (Arc<FrameScheduler>, BoxedStream) {
        let stream = net.connect("a", "b", 9).unwrap();
        let reader = netsim::Stream::try_clone(&stream).unwrap();
        let rt: Arc<dyn Runtime> = net.runtime();
        (FrameScheduler::spawn(&rt, "sched", Box::new(stream)), reader)
    }

    #[test]
    fn scheduler_enqueue_after_close_fails() {
        let (net, _sink) = net_with_sink(LinkSpec::lan());
        let _g = net.enter();
        let (sched, _reader) = scheduler(&net);
        sched.close_and_shutdown();
        assert!(sched.enqueue(1, 0, vec![1]).is_err());
    }

    #[test]
    fn scheduler_drains_in_fifo_order() {
        let (net, sink) = net_with_sink(LinkSpec::lan());
        let _g = net.enter();
        let (sched, _reader) = scheduler(&net);
        for i in 0..10u8 {
            sched.enqueue(i.into(), 0, vec![i; 3]).unwrap();
        }
        sched.close_and_shutdown();
        net.sleep(Duration::from_secs(1));
        let sink = sink.lock();
        let got: Vec<(u16, Vec<u8>)> =
            sink.frames.iter().map(|f| (f.stream_id, f.payload.clone())).collect();
        let want: Vec<(u16, Vec<u8>)> = (0..10u8).map(|i| (i.into(), vec![i; 3])).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn producers_never_block_on_the_tcp_window() {
        // The invisible-block regression (see the module docs): a producer
        // enqueueing far more than the TCP window returns at once; the
        // writer thread absorbs the blocking.
        let slow = LinkSpec {
            delay: Duration::from_millis(50),
            bandwidth: Some(1 << 20),
            ..Default::default()
        };
        let (net, sink) = net_with_sink(slow);
        let _g = net.enter();
        let (sched, _reader) = scheduler(&net);
        let t0 = net.now();
        for i in 0..8 {
            sched.enqueue(i, 0, vec![0xAB; 512 * 1024]).unwrap(); // 4 MiB ≫ any window
        }
        assert_eq!(net.now(), t0, "enqueue must not consume virtual time");
        sched.close_and_shutdown();
        net.sleep(Duration::from_secs(60));
        let sink = sink.lock();
        assert_eq!(sink.frames.len(), 8, "a request frame is never split");
        let total: usize = sink.frames.iter().map(|f| f.payload.len()).sum();
        assert_eq!(total, 8 * 512 * 1024);
    }

    #[test]
    fn close_and_shutdown_sends_fin_only_after_the_queued_frames() {
        let slow = LinkSpec {
            delay: Duration::from_millis(50),
            bandwidth: Some(1 << 20),
            ..Default::default()
        };
        let (net, sink) = net_with_sink(slow);
        let _g = net.enter();
        let (sched, _reader) = scheduler(&net);
        for i in 0..4u8 {
            sched.enqueue(i.into(), 0, vec![i; 256 * 1024]).unwrap();
        }
        sched.close_and_shutdown();
        net.sleep(Duration::from_secs(30));
        let sink = sink.lock();
        assert!(sink.fin, "the peer must see a FIN");
        assert_eq!(sink.frames.len(), 4, "every queued frame precedes the FIN");
        for (i, f) in sink.frames.iter().enumerate() {
            assert_eq!(f.payload, vec![i as u8; 256 * 1024]);
        }
    }
}
