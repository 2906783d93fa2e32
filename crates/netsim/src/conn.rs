//! The connection engine: the one [`Driven`] task a
//! [`ServerCore`](crate::ServerCore) makes of an accepted stream, whatever
//! protocol it speaks.
//!
//! A server connection does the same things in every protocol: it reads
//! into a receive buffer, decodes requests from it, queues answers, writes
//! them until the transport pushes back, stops taking requests while it
//! holds too much, and ends when the peer half-closes or the server stops.
//! [`Conn`] does all of that once; a protocol supplies only a [`Codec`] —
//! its grammar, its state and how its answers are laid out on the wire.
//! HTTP answers one request at a time, in order; xrdlite holds answers until
//! they are due and cuts them into frames round-robin. That is the whole
//! difference between the two servers.
//!
//! * **The receive buffer.** Reads land [`READ_CHUNK`] bytes at a time in
//!   an area the shard thread keeps for all its connections, zeroed once,
//!   and what arrived is appended to the connection's buffer. A connection
//!   keeps only the bytes that arrived, and a drained buffer gives back what
//!   a long message made it grow to, so an idle connection holds less than
//!   1 KiB. A codec may read payload itself, straight from the stream into
//!   its own buffer ([`Codec::read_direct`]); the engine asks it whenever
//!   the receive buffer is empty.
//! * **One output queue** of segments in wire order: bytes serialised into
//!   a buffer the queue owns (and keeps for the next answer once it has
//!   gone), `Bytes` queued as they are — a slice of a stored object is never
//!   copied — and frames, each an owned header and a `Bytes` payload. One
//!   write call offers everything queued up to the next frame (`writev` on a
//!   socket; on the simulated network one call is one segment); a frame is
//!   offered alone, so a codec that writes frames writes one per call. The
//!   engine asks the codec for more output ([`Codec::refill`]) only when
//!   the queue is empty.
//! * **One bound.** A connection takes no new request while its codec holds
//!   [`MAX_ANSWERS`] answers, or while more than [`MAX_BYTES`] counted bytes
//!   wait to go out ([`Io::full`]): a peer that pipelines requests and never
//!   reads the answers holds a bounded amount of memory. Bytes queued with
//!   [`Io::append`] and [`Io::push`] count; a frame does not, since its
//!   codec counted it for as long as it held it.
//! * **One end rule.** Once the peer half-closes, the server stops or the
//!   codec ends the connection ([`Step::End`]), nothing more is read — but
//!   for the rest of a request whose body is arriving, unless the peer has
//!   gone — and the codec answers every complete request it has. The
//!   connection closes when its codec holds no answer and its output has
//!   gone, or [`DRAIN_TIMEOUT`] after it ended, whichever is first. An
//!   incomplete request is dropped unanswered.
//! * **Deadlines:** the codec's own (timeouts, an answer's release instant)
//!   and the drain's, one wheel entry for both.

use crate::reactor::{DriveOutcome, Driven};
use crate::transport::{BoxedStream, Signal, Stream};
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, IoSlice};
use std::sync::Arc;
use std::time::Duration;

/// Most bytes one read brings into the receive buffer.
pub const READ_CHUNK: usize = 16 * 1024;
/// A connection takes no new request while its codec holds this many
/// answers.
pub const MAX_ANSWERS: usize = 16;
/// A connection takes no new request while more than this many counted
/// bytes wait to go out.
pub const MAX_BYTES: usize = 256 * 1024;
/// How long a connection that has stopped taking requests may take to
/// answer and flush what it holds before it is dropped.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// What a codec's [`advance`](Codec::advance) did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Something changed: flush and advance again.
    Again,
    /// Nothing more to do with what has arrived: read more.
    Read,
    /// Waiting for one of the codec's deadlines; read nothing meanwhile.
    Wait,
    /// Take no more requests: flush what is queued, then close.
    End,
    /// Close the connection now, whatever is queued.
    Close,
}

/// A protocol on top of the engine: what the received bytes mean and what
/// to send back.
pub trait Codec: Send {
    /// Take what the receive buffer holds as far as it goes: decode,
    /// answer, queue output, [`consume`](Io::consume) what was taken.
    fn advance(&mut self, io: &mut Io, now: Duration) -> Step;

    /// The next instant the codec needs a wake, if any.
    fn deadline(&self) -> Option<Duration>;

    /// Queue more output: called whenever the output queue is empty.
    fn refill(&mut self, _io: &mut Io, _now: Duration) {}

    /// The answers it holds back, and how many counted bytes they hold,
    /// for the bound ([`Io::full`]).
    fn held(&self) -> (usize, usize) {
        (0, 0)
    }

    /// Whether a request's body is arriving: the engine reads the rest of
    /// it past the bound and after the connection has ended.
    fn mid_request(&self) -> bool {
        false
    }

    /// Read payload from `stream` into the codec's own buffer instead of
    /// the receive buffer, when the codec wants to (`None` otherwise).
    /// Asked only while the receive buffer is empty.
    fn read_direct(&mut self, _stream: &mut dyn Stream) -> Option<io::Result<usize>> {
        None
    }
}

thread_local! {
    /// Where this thread's reads into a receive buffer land first. A
    /// connection is driven on one thread and a read returns before
    /// anything else is driven there, so one area serves every connection
    /// of a shard.
    static LANDING: RefCell<[u8; READ_CHUNK]> = const { RefCell::new([0; READ_CHUNK]) };
}

/// One stretch of queued output.
enum Seg {
    /// Bytes serialised into the queue.
    Owned(Vec<u8>),
    /// Bytes queued as they are.
    Shared(Bytes),
    /// A frame's header and payload, offered alone.
    Frame(Bytes, Bytes),
}

impl Seg {
    fn slices(&self) -> [&[u8]; 2] {
        match self {
            Seg::Owned(buf) => [buf, &[]],
            Seg::Shared(body) => [body, &[]],
            Seg::Frame(head, payload) => [head, payload],
        }
    }
}

/// The engine's side of a connection that a codec works with: the receive
/// buffer and the output queue.
#[derive(Default)]
pub struct Io {
    /// Received bytes the codec has not taken.
    rbuf: Vec<u8>,
    /// Unsent output in wire order.
    segs: VecDeque<Seg>,
    /// How much of the front segment has been written.
    sent: usize,
    /// Unsent bytes over all segments.
    pending: usize,
    /// Unsent bytes outside frames.
    counted: usize,
    /// The server is stopping.
    stopping: bool,
}

impl Io {
    /// Received bytes not yet taken.
    pub fn rbuf(&self) -> &Vec<u8> {
        &self.rbuf
    }

    /// Drop the first `n` received bytes: taken. Emptied, the buffer gives
    /// back what a long message made it grow to.
    pub fn consume(&mut self, n: usize) {
        self.rbuf.drain(..n);
        if self.rbuf.is_empty() && self.rbuf.capacity() > READ_CHUNK {
            self.rbuf = Vec::new();
        }
    }

    /// Let `fill` serialise bytes at the end of the queue: onto the last
    /// segment when that is a buffer, into a new one otherwise. Counted.
    pub fn append(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        if !matches!(self.segs.back(), Some(Seg::Owned(_))) {
            self.segs.push_back(Seg::Owned(Vec::new()));
        }
        let Some(Seg::Owned(buf)) = self.segs.back_mut() else { unreachable!() };
        let before = buf.len();
        fill(buf);
        self.pending += buf.len() - before;
        self.counted += buf.len() - before;
    }

    /// Queue `body` as it is. Counted.
    pub fn push(&mut self, body: Bytes) {
        if !body.is_empty() {
            (self.pending, self.counted) = (self.pending + body.len(), self.counted + body.len());
            self.segs.push_back(Seg::Shared(body));
        }
    }

    /// Queue one frame: `head`, copied, and `payload` as it is, to be
    /// offered in a write call of their own. Not counted.
    pub fn frame(&mut self, head: &[u8], payload: Bytes) {
        self.pending += head.len() + payload.len();
        self.segs.push_back(Seg::Frame(Bytes::copy_from_slice(head), payload));
    }

    /// Unsent bytes queued.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Whether a codec holding `held` answers and counted bytes (as
    /// [`Codec::held`] reports them) has reached the bound.
    pub fn full(&self, (answers, bytes): (usize, usize)) -> bool {
        answers >= MAX_ANSWERS || self.counted + bytes > MAX_BYTES
    }

    /// Whether the server is stopping.
    pub fn stopping(&self) -> bool {
        self.stopping
    }

    /// Read up to [`READ_CHUNK`] bytes onto the end of the receive buffer.
    fn read_from(&mut self, stream: &mut dyn Stream) -> io::Result<usize> {
        let rbuf = &mut self.rbuf;
        LANDING.with_borrow_mut(|landing| {
            stream.try_read(landing).inspect(|&n| rbuf.extend_from_slice(&landing[..n]))
        })
    }

    /// Write queued output until it has all gone or the transport pushes
    /// back, asking `codec` for more whenever the queue runs empty.
    fn send_queued(
        &mut self,
        stream: &mut dyn Stream,
        codec: &mut impl Codec,
        now: Duration,
    ) -> io::Result<()> {
        loop {
            if self.pending == 0 {
                codec.refill(self, now);
                if self.pending == 0 {
                    return Ok(());
                }
            }
            match self.write_next(stream) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "stream closed")),
                Ok(n) => self.written(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// Offer what is queued up to the next frame (or the front frame alone)
    /// in one write call.
    fn write_next(&self, stream: &mut dyn Stream) -> io::Result<usize> {
        let alone = matches!(self.segs.front(), Some(Seg::Frame(..)));
        let mut skip = self.sent;
        let mut offer = self
            .segs
            .iter()
            .enumerate()
            .take_while(|(i, seg)| *i == 0 || !alone && !matches!(seg, Seg::Frame(..)))
            .flat_map(|(_, seg)| seg.slices())
            .map(move |part| {
                let cut = skip.min(part.len());
                skip -= cut;
                &part[cut..]
            })
            .filter(|part| !part.is_empty());
        let first = offer.next().unwrap_or_default();
        match offer.next() {
            None => stream.try_write(first),
            Some(second) => {
                let iov: Vec<IoSlice<'_>> =
                    [first, second].into_iter().chain(offer).map(IoSlice::new).collect();
                stream.try_write_vectored(&iov)
            }
        }
    }

    /// Drop `n` written bytes from the front of the queue.
    fn written(&mut self, mut n: usize) {
        self.pending -= n;
        loop {
            let last = self.segs.len() == 1;
            let Some(front) = self.segs.front_mut() else { return };
            let left = front.slices().iter().map(|s| s.len()).sum::<usize>() - self.sent;
            if !matches!(front, Seg::Frame(..)) {
                self.counted -= n.min(left);
            }
            if n < left {
                self.sent += n;
                return;
            }
            (n, self.sent) = (n - left, 0);
            match front {
                // The last buffer standing is kept for the next answer.
                Seg::Owned(buf) if last => return buf.clear(),
                _ => self.segs.pop_front(),
            };
        }
    }
}

/// One connection: a stream, the engine's buffers and a codec.
pub struct Conn<C> {
    stream: BoxedStream,
    io: Io,
    codec: C,
    /// The peer has half-closed.
    eof: bool,
    /// When the connection stopped taking requests, once it has.
    ended: Option<Duration>,
}

impl<C: Codec> Conn<C> {
    /// A connection speaking `codec` over `stream`.
    pub fn new(stream: BoxedStream, codec: C) -> Conn<C> {
        Conn { stream, io: Io::default(), codec, eof: false, ended: None }
    }

    /// The codec.
    pub fn codec(&self) -> &C {
        &self.codec
    }

    /// The receive buffer and the output queue.
    pub fn io(&self) -> &Io {
        &self.io
    }

    /// Wait for the next wake, or close: an ended connection closes once
    /// `input_done` (nothing more will be read), its codec holds no answer
    /// and its output has gone, or at its drain deadline.
    fn settle(&self, now: Duration, input_done: bool) -> DriveOutcome {
        let Some(since) = self.ended else { return DriveOutcome::Continue };
        let idle = input_done && self.io.pending == 0 && self.codec.held().0 == 0;
        if idle || now >= since + DRAIN_TIMEOUT {
            DriveOutcome::Done
        } else {
            DriveOutcome::Continue
        }
    }
}

impl<C: Codec> Driven for Conn<C> {
    fn drive(&mut self, now: Duration) -> DriveOutcome {
        loop {
            if self.io.send_queued(&mut *self.stream, &mut self.codec, now).is_err() {
                return DriveOutcome::Done;
            }
            match self.codec.advance(&mut self.io, now) {
                Step::Again => {}
                Step::End => {
                    self.ended.get_or_insert(now);
                }
                Step::Close => return DriveOutcome::Done,
                Step::Wait => return self.settle(now, false),
                Step::Read => {
                    let mid = self.codec.mid_request();
                    if self.io.stopping && !mid {
                        self.ended.get_or_insert(now);
                    }
                    if self.eof || self.ended.is_some() && !mid {
                        return self.settle(now, true);
                    }
                    if !mid && self.io.full(self.codec.held()) {
                        return self.settle(now, false); // until the peer reads
                    }
                    // Into the codec's own buffer if it asks, else into `rbuf`.
                    let stream = &mut *self.stream;
                    let direct = self.io.rbuf.is_empty().then(|| self.codec.read_direct(stream));
                    match direct.flatten().unwrap_or_else(|| self.io.read_from(stream)) {
                        Ok(0) => {
                            self.eof = true;
                            self.ended.get_or_insert(now);
                        }
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return self.settle(now, false)
                        }
                        Err(_) => return DriveOutcome::Done,
                    }
                }
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        let drain = self.ended.map(|since| since + DRAIN_TIMEOUT);
        self.codec.deadline().into_iter().chain(drain).min()
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        // Transports waited on via `poll_fd` report `Unsupported` here.
        let _ = self.stream.set_waker(waker);
    }

    fn poll_fd(&self) -> Option<i32> {
        self.stream.poll_fd()
    }

    fn wants_write(&self) -> bool {
        self.io.pending > 0
    }

    fn begin_shutdown(&mut self) {
        self.io.stopping = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// Records the bytes of each write call, taking at most `cap` a call.
    struct Wire {
        calls: Vec<Vec<u8>>,
        cap: usize,
    }

    impl Read for Wire {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Err(io::ErrorKind::WouldBlock.into())
        }
    }

    impl Write for Wire {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            crate::Pollable::try_write(self, buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl crate::Pollable for Wire {
        fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.try_write_vectored(&[IoSlice::new(buf)])
        }

        fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let call: Vec<u8> =
                bufs.iter().flat_map(|b| b.iter()).take(self.cap).copied().collect();
            self.calls.push(call);
            Ok(self.calls.last().map_or(0, Vec::len))
        }
    }

    impl Stream for Wire {
        fn set_read_timeout(&mut self, _: Option<Duration>) -> io::Result<()> {
            Ok(())
        }

        fn peer(&self) -> String {
            "wire".into()
        }

        fn try_clone(&self) -> io::Result<BoxedStream> {
            Err(io::ErrorKind::Unsupported.into())
        }

        fn shutdown_write(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A codec with nothing of its own to send.
    struct Quiet;

    impl Codec for Quiet {
        fn advance(&mut self, _: &mut Io, _: Duration) -> Step {
            Step::Read
        }

        fn deadline(&self) -> Option<Duration> {
            None
        }
    }

    /// What `io` writes, call by call, to a wire taking `cap` bytes a call.
    fn calls(io: &mut Io, cap: usize) -> Vec<String> {
        let mut wire = Wire { calls: Vec::new(), cap };
        io.send_queued(&mut wire, &mut Quiet, Duration::ZERO).unwrap();
        wire.calls.into_iter().map(|c| String::from_utf8(c).unwrap()).collect()
    }

    #[test]
    fn a_call_offers_everything_up_to_the_next_frame_and_a_frame_alone() {
        for (cap, want) in [
            (usize::MAX, &["head|body|", "F1:one", "F2:", "tail"][..]),
            (4, &["head", "|bod", "y|", "F1:o", "ne", "F2:", "tail"]),
        ] {
            let mut io = Io::default();
            io.append(|buf| buf.extend_from_slice(b"head|"));
            io.push(Bytes::from_static(b"body|"));
            io.frame(b"F1:", Bytes::from_static(b"one"));
            io.frame(b"F2:", Bytes::new());
            io.append(|buf| buf.extend_from_slice(b"tail"));
            assert_eq!(calls(&mut io, cap), want, "{cap} bytes a call");
            assert_eq!((io.pending(), io.counted), (0, 0));
        }
    }

    #[test]
    fn the_bound_counts_appended_and_pushed_bytes_not_frames() {
        let mut io = Io::default();
        io.frame(b"F:", Bytes::from(vec![0u8; 2 * MAX_BYTES]));
        assert!(!io.full((MAX_ANSWERS - 1, 0)), "a frame is its codec's to count");
        assert!(io.full((MAX_ANSWERS, 0)) && io.full((0, MAX_BYTES + 1)));
        io.push(Bytes::from(vec![0u8; MAX_BYTES / 2]));
        io.append(|buf| buf.resize(MAX_BYTES / 2, 0));
        assert!(!io.full((0, 0)) && io.full((0, 1)), "{} counted", io.counted);
        // What has gone no longer counts; the last buffer is kept, emptied.
        calls(&mut io, usize::MAX);
        assert!(!io.full((0, MAX_BYTES)) && io.full((0, MAX_BYTES + 1)));
        assert!(matches!(io.segs.back(), Some(Seg::Owned(buf)) if buf.is_empty()));
    }
}
