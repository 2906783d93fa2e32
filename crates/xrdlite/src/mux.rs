//! Frame multiplexing: the round-robin frame queue the server writes from,
//! and the client's partial-frame reassembler.
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
//!   chunks from the reactor. A client request is never split.
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
use std::collections::{HashMap, VecDeque};
use std::io;

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
        q.push(3, 0, Vec::new());
        let f = q.next_frame(1024).unwrap();
        assert_eq!((f.stream_id, f.flags, f.payload.len()), (3, 0, 0));
        assert!(q.next_frame(1024).is_none());
    }

    #[test]
    fn queue_moves_a_payload_that_fits_into_one_frame() {
        let mut q = FrameQueue::default();
        let payload: Vec<u8> = (0..wire::MAX_FRAME_PAYLOAD).map(|i| (i % 251) as u8).collect();
        q.push(9, 4, payload.clone());
        let f = q.next_frame(wire::MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!((f.stream_id, f.code, f.flags), (9, 4, 0));
        assert_eq!(f.payload, payload);
        assert!(q.next_frame(wire::MAX_FRAME_PAYLOAD).is_none());
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
            let mut re = Reassembler::default();
            let mut got = HashMap::new();
            while let Some(f) = q.next_frame(chunk) {
                prop_assert!(f.payload.len() <= chunk);
                let sid = f.stream_id;
                if let Some(done) = re.push(f).unwrap() {
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
}
