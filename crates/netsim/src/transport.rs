//! Transport abstraction shared by the simulated and the real network.
//!
//! Protocol code in the other crates (the davix client, the HTTP server, the
//! xrdlite baseline) is written against these traits so it runs unchanged on
//! either the [`crate::sim`] virtual network or real TCP sockets
//! ([`crate::tcp`]).

use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Non-blocking readiness interface consumed by the reactor
/// ([`crate::reactor`]).
///
/// Both transports implement it, each advertising a different wait
/// mechanism:
///
/// * the simulated transport ([`crate::sim::SimStream`]) supports
///   [`set_waker`](Pollable::set_waker) — the simulator fires the waker
///   whenever the stream *may* have become readable or writable (payload
///   delivered, ACK returned, FIN/RST arrived);
/// * the real transport ([`crate::tcp::TcpStreamWrap`]) exposes its OS file
///   descriptor via [`poll_fd`](Pollable::poll_fd) so a reactor shard can
///   wait on many streams with one `poll(2)` call.
///
/// Readiness is **level-triggered**: a spurious wake is legal, so consumers
/// must call `try_read`/`try_write` until they see
/// [`io::ErrorKind::WouldBlock`].
pub trait Pollable {
    /// Non-blocking read. `Err(WouldBlock)` means "nothing buffered right
    /// now"; `Ok(0)` means the peer half-closed (EOF).
    fn try_read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "transport is not pollable"))
    }

    /// [`try_read`](Pollable::try_read) onto the end of `buf`: appends at
    /// most `max` bytes and returns how many. On `WouldBlock` or any other
    /// error `buf.len()` is as it was. The default zero-extends `buf` by
    /// `max`, reads into that and truncates; a real socket overrides it to
    /// read into the vector's spare capacity and skip the fill, and the
    /// simulator to grow the vector by only what has arrived.
    fn try_read_spare(&mut self, buf: &mut Vec<u8>, max: usize) -> io::Result<usize> {
        let start = buf.len();
        buf.resize(start + max, 0);
        let read = self.try_read(&mut buf[start..]);
        buf.truncate(start + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Non-blocking write. `Err(WouldBlock)` means the send window / socket
    /// buffer is full; a short `Ok(n)` is normal.
    fn try_write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "transport is not pollable"))
    }

    /// Non-blocking gather write: `bufs` in order, as if they were one
    /// contiguous buffer, so a caller need not copy a head and a body
    /// together to send them in one call. Returns how many bytes of the
    /// concatenation were taken. The default offers the first non-empty
    /// slice to [`try_write`](Pollable::try_write).
    fn try_write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match bufs.iter().find(|b| !b.is_empty()) {
            Some(buf) => self.try_write(buf),
            None => Ok(0),
        }
    }

    /// Register (`Some`) or clear (`None`) a waker that is set whenever this
    /// stream may have become readable or writable. Supported by the
    /// simulated transport; real sockets return `Err(Unsupported)` and are
    /// waited on via [`poll_fd`](Pollable::poll_fd) instead.
    fn set_waker(&mut self, _waker: Option<Arc<dyn Signal>>) -> io::Result<()> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "transport has no waker"))
    }

    /// The OS file descriptor to wait on with `poll(2)`, when one exists.
    fn poll_fd(&self) -> Option<i32> {
        None
    }
}

/// A bidirectional byte stream (one TCP connection or one simulated
/// connection).
///
/// `try_clone` yields a second handle to the *same* connection so that one
/// thread can read while another writes (needed by multiplexing clients such
/// as xrdlite). The connection is closed (FIN) when the last handle is
/// dropped.
///
/// Every stream is also [`Pollable`] so the event-driven server core can
/// drive it without dedicating a thread to it; plain blocking `Read`/`Write`
/// remains available for synchronous client code.
pub trait Stream: Read + Write + Send + Pollable {
    /// Limit how long a blocking read may wait. `None` removes the limit.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;

    /// A human-readable name for the remote endpoint (`host:port`).
    fn peer(&self) -> String;

    /// A second handle to the same underlying connection.
    fn try_clone(&self) -> io::Result<BoxedStream>;

    /// Half-close the write direction (sends FIN); reads stay usable.
    fn shutdown_write(&mut self) -> io::Result<()>;
}

/// Owned trait object for a [`Stream`].
pub type BoxedStream = Box<dyn Stream>;

/// Accepts inbound connections on one host/port.
///
/// `Sync` so a server can share one listener between an accept thread and a
/// `stop()` path that closes it (all methods take `&self`).
pub trait Listener: Send + Sync {
    /// Block until a client connects; returns the stream and the peer name.
    fn accept(&self) -> io::Result<(BoxedStream, String)>;

    /// The port this listener is bound to.
    fn local_port(&self) -> u16;

    /// Stop accepting: pending and future `accept` calls return an error.
    fn close(&self);
}

/// Opens outbound connections. Implementations are bound to a local host
/// (simulation) or to the local machine (real TCP).
pub trait Connector: Send + Sync {
    /// Connect to `host:port`, waiting at most `timeout` if given.
    fn connect(&self, host: &str, port: u16, timeout: Option<Duration>) -> io::Result<BoxedStream>;
}

/// A one-shot waitable event usable from library code under simulation.
///
/// Libraries must *not* block on bare condition variables while running under
/// the simulator (the virtual clock cannot see them); they wait on `Signal`s
/// obtained from their [`Runtime`] instead. Semantics are "manual-reset
/// event": `set` makes every current and future `wait` return until `reset`.
pub trait Signal: Send + Sync {
    /// Block until the signal is set (or the timeout elapses).
    /// Returns `true` if the signal was set, `false` on timeout.
    fn wait(&self, timeout: Option<Duration>) -> bool;

    /// Set the signal, waking all waiters.
    fn set(&self);

    /// Clear the signal.
    fn reset(&self);

    /// Non-blocking check.
    fn is_set(&self) -> bool;
}

/// Execution environment: time, sleeping, thread spawning and signals.
///
/// Under simulation all four are virtual-time aware; under [`RealRuntime`]
/// they map to `std::time` / `std::thread`.
///
/// [`RealRuntime`]: crate::tcp::RealRuntime
pub trait Runtime: Send + Sync {
    /// Monotonic time since an arbitrary epoch (simulation start or process
    /// start). Only differences are meaningful.
    fn now(&self) -> Duration;

    /// Block the calling thread for `d` (virtual or real time).
    fn sleep(&self, d: Duration);

    /// Spawn a thread that participates in the runtime. Under simulation the
    /// thread is registered with the virtual clock; it must only block on
    /// runtime primitives (streams, `sleep`, signals) and must eventually
    /// exit.
    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>);

    /// [`spawn`](Runtime::spawn) for a thread whose owner must see it gone.
    /// The returned closure blocks until the operating-system thread has
    /// terminated: past its thread-locals and its allocator caches, which a
    /// signal set by the thread itself cannot vouch for. A runtime that
    /// cannot tell (the simulator) returns a closure that does nothing, so
    /// wait for the *work* to end on a [`Signal`] first, then call this.
    fn spawn_joinable(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> Box<dyn FnOnce() + Send> {
        self.spawn(name, f);
        Box::new(|| {})
    }

    /// Create a fresh (unset) [`Signal`].
    fn signal(&self) -> Arc<dyn Signal>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimNet;
    use crate::tcp::{RealRuntime, TcpStreamWrap};

    #[test]
    fn real_runtime_signal_roundtrip() {
        let rt = RealRuntime::new();
        let sig = rt.signal();
        assert!(!sig.is_set());
        sig.set();
        assert!(sig.is_set());
        assert!(sig.wait(None));
        sig.reset();
        assert!(!sig.is_set());
        assert!(!sig.wait(Some(Duration::from_millis(5))));
    }

    #[test]
    fn real_runtime_spawn_and_signal() {
        let rt = Arc::new(RealRuntime::new());
        let sig = rt.signal();
        let sig2 = Arc::clone(&sig);
        rt.spawn("setter", Box::new(move || sig2.set()));
        assert!(sig.wait(Some(Duration::from_secs(5))));
    }

    /// Drive `try_read_spare` on `reader`, whose peer is `writer`, calling
    /// `settle` to let what was sent arrive: exact bytes appended, never
    /// more than `max` a call, no change on `WouldBlock`, `0` at EOF.
    fn spare_reads_append_what_arrived(
        reader: &mut dyn Stream,
        writer: &mut dyn Stream,
        settle: &dyn Fn(),
    ) {
        const MAX: usize = 300;
        // More spare capacity than `MAX`, behind bytes that must stay.
        let mut buf = Vec::with_capacity(1 << 20);
        buf.extend_from_slice(b"head");
        let would_block =
            |r: io::Result<usize>| matches!(r, Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        assert!(would_block(reader.try_read_spare(&mut buf, MAX)), "nothing sent yet");
        assert_eq!(buf, b"head");
        let sent: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        writer.write_all(&sent).unwrap();
        let mut tries = 0;
        while buf.len() < 4 + sent.len() {
            settle();
            let before = buf.len();
            match reader.try_read_spare(&mut buf, MAX) {
                Ok(n) => {
                    assert!(n > 0 && n <= MAX, "{n} bytes in one read of at most {MAX}");
                    assert_eq!(buf.len(), before + n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => assert_eq!(buf.len(), before),
                Err(e) => panic!("read failed: {e}"),
            }
            tries += 1;
            assert!(tries < 1000, "the bytes sent never arrived");
        }
        assert_eq!(&buf[..4], b"head");
        assert!(buf[4..] == sent[..], "the bytes sent, in order");
        assert!(would_block(reader.try_read_spare(&mut buf, MAX)), "all of it was read");
        writer.shutdown_write().unwrap();
        let eof = loop {
            settle();
            match reader.try_read_spare(&mut buf, MAX) {
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                r => break r.unwrap(),
            }
        };
        assert_eq!((eof, buf.len()), (0, 4 + sent.len()), "EOF appends nothing");
    }

    #[test]
    fn try_read_spare_appends_at_most_max_on_tcp_and_on_the_simulator() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let (mut reader, mut writer) = (TcpStreamWrap::new(server), TcpStreamWrap::new(client));
        let pause = || std::thread::sleep(Duration::from_millis(2));
        spare_reads_append_what_arrived(&mut reader, &mut writer, &pause);

        let net = SimNet::new();
        net.add_host("a");
        net.add_host("b");
        let listener = net.bind("b", 80).unwrap();
        let _g = net.enter();
        let mut writer = net.connect("a", "b", 80).unwrap();
        let (mut reader, _) = listener.accept_sim().unwrap();
        let settle = || net.sleep(Duration::from_millis(5));
        spare_reads_append_what_arrived(&mut reader, &mut writer, &settle);

        // A short arrival grows the buffer by what arrived, not by `max`.
        let mut writer = net.connect("a", "b", 80).unwrap();
        let (mut reader, _) = listener.accept_sim().unwrap();
        writer.write_all(b"ten bytes!").unwrap();
        settle();
        let (mut buf, max) = (Vec::new(), 1 << 20);
        assert_eq!(reader.try_read_spare(&mut buf, max).unwrap(), 10);
        assert_eq!(buf, b"ten bytes!");
        assert!(buf.capacity() < max, "capacity {} after a 10-byte read", buf.capacity());
    }

    #[test]
    fn real_runtime_clock_advances() {
        let rt = RealRuntime::new();
        let t0 = rt.now();
        rt.sleep(Duration::from_millis(2));
        assert!(rt.now() > t0);
    }
}
