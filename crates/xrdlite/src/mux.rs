//! Frame multiplexing: the round-robin frame queue the server's codec cuts
//! its frames from, and the client's partial-frame reassembler.
//!
//! XRootD's server does not write one response at a time: its I/O scheduler
//! interleaves *chunks* of concurrent responses on the wire so a large read
//! cannot head-of-line block a small one on the same connection (the exact
//! property the paper contrasts with HTTP pipelining, §2.2). We reproduce
//! that with:
//!
//! * `FrameQueue` — answers are queued whole, each held until its due
//!   instant, then cut into wire frames of at most a given size,
//!   round-robin across streams; all frames of a payload except the last
//!   carry [`wire::FLAG_PARTIAL`] (XRootD's `kXR_oksofar`). A payload is a
//!   `Bytes` and a frame is its header and a slice of it, so a READ's
//!   answer goes out as slices of the stored object and is never copied.
//!   The server's codec cuts one 64 KiB frame whenever the connection
//!   engine's output queue ([`netsim::conn`]) runs empty, so a frame is cut
//!   only when it can be written and a small answer never waits behind all
//!   of a large one's frames. A client request is never split.
//! * `Reassembler` — the client accumulates partial frames per stream ID
//!   and yields the full payload when the final frame arrives.
//!
//! # The client's batons
//!
//! The client is blocking code that starts no thread: the caller that
//! issues a request writes its frame, and a caller waiting for an answer
//! reads the connection for everyone. Under the simulator, a thread that
//! blocks on a *simulator primitive* (stream read/write, `Runtime::sleep`,
//! `Signal::wait`) is visible to the virtual clock; a thread that blocks on
//! a bare mutex is **not**. If callers held a `Mutex<BoxedStream>` across a
//! `write_all` that stalls on the simulated TCP window, every other caller
//! queued on that mutex would look *runnable* to the clock, so virtual time
//! would never advance, the window would never open, and the whole
//! simulation would hang — an "invisible block" deadlock. So each side of
//! the connection, with its own stream handle, is a baton: a caller takes it
//! out of the connection's state under the lock, drops the lock, and only
//! then blocks on the stream. A caller that finds a side taken waits on a
//! runtime `Signal`, which the clock can see, until the holder hands the
//! side back and sets it. Over real TCP the same rule gives each side one
//! owner at a time. (The server needs none of this: its connections are
//! reactor tasks that never block.)

use crate::wire::{self, Frame};
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::Duration;

/// One answer to send: header fields plus the unsent rest of its payload.
pub(crate) struct Answer {
    pub(crate) stream_id: u16,
    pub(crate) code: u8,
    pub(crate) payload: Bytes,
    /// Whether `payload` was copied for this answer rather than shared.
    pub(crate) copied: bool,
}

/// Answers waiting to go out: held until they are due, then cut into wire
/// frames round-robin.
#[derive(Default)]
pub(crate) struct FrameQueue {
    /// Answers not yet due, each with the instant it is: in that order.
    held: VecDeque<(Duration, Answer)>,
    /// Due answers, in round-robin order.
    rr: VecDeque<Answer>,
    /// Bytes of copied payloads not yet cut into a frame.
    copied: usize,
}

impl FrameQueue {
    /// Queue a complete answer, due at `due` (no earlier than any queued
    /// before it). A copied payload counts in
    /// [`copied`](FrameQueue::copied) until it is cut.
    pub(crate) fn push(&mut self, due: Duration, answer: Answer) {
        self.copied += if answer.copied { answer.payload.len() } else { 0 };
        self.held.push_back((due, answer));
    }

    /// Put every answer due by `now` behind the others being cut.
    pub(crate) fn release(&mut self, now: Duration) {
        while self.held.front().is_some_and(|(due, _)| *due <= now) {
            self.rr.extend(self.held.pop_front().map(|(_, answer)| answer));
        }
    }

    /// When the next held answer is due.
    pub(crate) fn next_due(&self) -> Option<Duration> {
        self.held.front().map(|(due, _)| *due)
    }

    /// Answers queued, held or being cut.
    pub(crate) fn len(&self) -> usize {
        self.held.len() + self.rr.len()
    }

    /// Bytes of copied payloads queued and not yet cut into a frame.
    pub(crate) fn copied(&self) -> usize {
        self.copied
    }

    /// Pop the front due payload, cut one frame of at most `max_payload`
    /// bytes — its header and a slice of the payload — and re-queue the rest
    /// at the back: round-robin fairness.
    pub(crate) fn next_frame(&mut self, max_payload: usize) -> Option<([u8; 8], Bytes)> {
        let mut out = self.rr.pop_front()?;
        let take = out.payload.len().min(max_payload);
        let payload = out.payload.slice(..take);
        out.payload = out.payload.slice(take..);
        self.copied -= if out.copied { take } else { 0 };
        let partial = !out.payload.is_empty();
        let flags = if partial { wire::FLAG_PARTIAL } else { 0 };
        let head = wire::header(out.stream_id, out.code, flags, take as u32);
        if partial {
            self.rr.push_back(out);
        }
        Some((head, payload))
    }
}

/// Client-side accumulator for chunked responses.
///
/// Feed every received frame to [`push`](Reassembler::push); it returns the
/// complete `(code, payload)` once the final (non-partial) frame of a stream
/// arrives, `None` while more frames are pending. A payload that would grow
/// past [`wire::MAX_PAYLOAD`] is `InvalidData`: a peer cannot make the
/// client buffer more for one answer than it may send in one frame.
#[derive(Default)]
pub(crate) struct Reassembler {
    partial: HashMap<u16, Vec<u8>>,
}

impl Reassembler {
    /// Consume one frame. Returns the completed payload when `frame` is the
    /// final frame of its stream.
    pub(crate) fn push(&mut self, frame: Frame) -> io::Result<Option<(u8, Vec<u8>)>> {
        let Frame { stream_id, code, flags, payload } = frame;
        let payload = match self.partial.remove(&stream_id) {
            Some(acc) if acc.len() + payload.len() > wire::MAX_PAYLOAD as usize => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("stream {stream_id}: an answer past {} bytes", wire::MAX_PAYLOAD),
                ));
            }
            Some(mut acc) => {
                acc.extend_from_slice(&payload);
                acc
            }
            None => payload,
        };
        if flags & wire::FLAG_PARTIAL == 0 {
            return Ok(Some((code, payload)));
        }
        self.partial.insert(stream_id, payload);
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn frame(stream_id: u16, flags: u8, payload: &[u8]) -> Frame {
        Frame { stream_id, code: 0, flags, payload: payload.to_vec() }
    }

    fn answer(stream_id: u16, payload: Bytes, copied: bool) -> Answer {
        Answer { stream_id, code: 0, payload, copied }
    }

    /// The next frame `q` cuts, as the wire carries it.
    fn cut(q: &mut FrameQueue, max_payload: usize) -> Option<Frame> {
        let (head, payload) = q.next_frame(max_payload)?;
        let (frame, n) = Frame::decode(&[&head[..], &payload].concat()).unwrap().unwrap();
        assert_eq!(n, 8 + payload.len());
        Some(frame)
    }

    #[test]
    fn reassembler_passes_through_unchunked() {
        let mut r = Reassembler::default();
        let got = r.push(frame(7, 0, b"abc")).unwrap().expect("complete");
        assert_eq!(got, (0, b"abc".to_vec()));
    }

    #[test]
    fn reassembler_joins_chunks_in_order() {
        let mut r = Reassembler::default();
        assert!(r.push(frame(7, wire::FLAG_PARTIAL, b"ab")).unwrap().is_none());
        assert!(r.push(frame(7, wire::FLAG_PARTIAL, b"cd")).unwrap().is_none());
        let got = r.push(frame(7, 0, b"e")).unwrap().expect("complete");
        assert_eq!(got.1, b"abcde".to_vec());
        assert!(r.partial.is_empty());
    }

    #[test]
    fn reassembler_interleaves_streams_independently() {
        let mut r = Reassembler::default();
        assert!(r.push(frame(1, wire::FLAG_PARTIAL, b"1a")).unwrap().is_none());
        assert!(r.push(frame(2, wire::FLAG_PARTIAL, b"2a")).unwrap().is_none());
        assert_eq!(r.push(frame(2, 0, b"2b")).unwrap().unwrap().1, b"2a2b".to_vec());
        assert_eq!(r.push(frame(1, 0, b"1b")).unwrap().unwrap().1, b"1a1b".to_vec());
    }

    #[test]
    fn reassembler_refuses_an_answer_past_the_payload_cap() {
        let mut r = Reassembler::default();
        let cap = vec![0u8; wire::MAX_PAYLOAD as usize];
        let whole = Frame { stream_id: 3, code: 0, flags: wire::FLAG_PARTIAL, payload: cap };
        assert!(r.push(whole).unwrap().is_none(), "exactly the cap is still an answer");
        let err = r.push(frame(3, 0, b"!")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn queue_cuts_an_empty_payload_into_one_final_frame() {
        let mut q = FrameQueue::default();
        q.push(Duration::ZERO, answer(3, Bytes::new(), true));
        q.release(Duration::ZERO);
        let f = cut(&mut q, 1024).unwrap();
        assert_eq!((f.stream_id, f.flags, f.payload.len()), (3, 0, 0));
        assert!(q.next_frame(1024).is_none());
    }

    #[test]
    fn queue_holds_each_answer_until_it_is_due_and_counts_only_copies() {
        let mut q = FrameQueue::default();
        let shared = Bytes::from(vec![1u8; 3 * 1024]);
        q.push(Duration::from_millis(5), answer(1, shared.slice(1024..), false));
        q.push(Duration::from_millis(7), answer(2, Bytes::from(vec![2u8; 1500]), true));
        assert_eq!((q.len(), q.copied(), q.next_due()), (2, 1500, Some(Duration::from_millis(5))));
        q.release(Duration::from_millis(4));
        assert!(q.next_frame(1024).is_none(), "nothing is due yet");
        q.release(Duration::from_millis(7));
        assert_eq!(q.next_due(), None);
        let mut cuts = Vec::new();
        while let Some(f) = cut(&mut q, 1024) {
            cuts.push((f.stream_id, f.payload.len(), q.copied()));
        }
        assert_eq!(cuts, [(1, 1024, 1500), (2, 1024, 476), (1, 1024, 476), (2, 476, 0)]);
        assert_eq!(q.len(), 0);
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
                let a = Answer { code: (i % 2) as u8, ..answer(i as u16, p.clone().into(), i % 2 == 0) };
                q.push(Duration::ZERO, a);
            }
            q.release(Duration::ZERO);
            let mut re = Reassembler::default();
            let mut got = HashMap::new();
            while let Some(f) = cut(&mut q, chunk) {
                prop_assert!(f.payload.len() <= chunk);
                let sid = f.stream_id;
                if let Some(done) = re.push(f).unwrap() {
                    prop_assert!(got.insert(sid, done).is_none(), "stream {} completed twice", sid);
                }
            }
            prop_assert!(re.partial.is_empty());
            prop_assert_eq!((q.len(), q.copied()), (0, 0));
            prop_assert_eq!(got.len(), payloads.len());
            for (i, p) in payloads.iter().enumerate() {
                prop_assert_eq!(&got[&(i as u16)], &((i % 2) as u8, p.clone()));
            }
        }
    }
}
