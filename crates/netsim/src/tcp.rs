//! Real-network implementations of the [`transport`](crate::transport)
//! traits over `std::net` TCP sockets and `std::thread`.
//!
//! Everything written against [`Stream`]/[`Listener`]/[`Connector`]/
//! [`Runtime`] (the davix client, the HTTP server, xrdlite) runs on loopback
//! or LAN sockets through these types with no code changes — the simulated
//! network is only one backend.

use crate::transport::{BoxedStream, Connector, Listener, Pollable, Runtime, Signal, Stream};
use davix_sync::{AtomicBool, Ordering};
use parking_lot::{Condvar, Mutex};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`Stream`] over a real `TcpStream`.
pub struct TcpStreamWrap {
    inner: TcpStream,
    peer: String,
    /// Whether the socket has been switched to non-blocking mode (done
    /// lazily on the first `try_read`/`try_write`; the reactor never mixes
    /// blocking and non-blocking I/O on one stream).
    nonblocking: bool,
}

impl TcpStreamWrap {
    /// Wrap an already-connected socket.
    pub fn new(inner: TcpStream) -> Self {
        let peer =
            inner.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "<unknown>".to_string());
        TcpStreamWrap { inner, peer, nonblocking: false }
    }

    fn ensure_nonblocking(&mut self) -> io::Result<()> {
        if !self.nonblocking {
            self.inner.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        Ok(())
    }
}

impl Pollable for TcpStreamWrap {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.ensure_nonblocking()?;
        loop {
            match self.inner.read(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                r => return r,
            }
        }
    }

    /// One recv(2) straight into `buf`'s spare capacity: no fill, no copy.
    #[cfg(unix)]
    fn try_read_spare(&mut self, buf: &mut Vec<u8>, max: usize) -> io::Result<usize> {
        use std::os::unix::io::AsRawFd;
        self.ensure_nonblocking()?;
        loop {
            match crate::reactor::sys::recv_spare(self.inner.as_raw_fd(), buf, max) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                r => return r,
            }
        }
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.ensure_nonblocking()?;
        loop {
            match self.inner.write(buf) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                r => return r,
            }
        }
    }

    fn try_write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        self.ensure_nonblocking()?;
        loop {
            match self.inner.write_vectored(bufs) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                r => return r,
            }
        }
    }

    #[cfg(unix)]
    fn poll_fd(&self) -> Option<i32> {
        use std::os::unix::io::AsRawFd;
        Some(self.inner.as_raw_fd())
    }
}

impl Read for TcpStreamWrap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for TcpStreamWrap {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Stream for TcpStreamWrap {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }

    fn try_clone(&self) -> io::Result<BoxedStream> {
        Ok(Box::new(TcpStreamWrap {
            inner: self.inner.try_clone()?,
            peer: self.peer.clone(),
            nonblocking: self.nonblocking,
        }))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.inner.shutdown(Shutdown::Write)
    }
}

/// A [`Listener`] over a real `TcpListener`.
pub struct TcpListenerWrap {
    inner: TcpListener,
    port: u16,
    closed: Arc<AtomicBool>,
}

impl TcpListenerWrap {
    /// Bind on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let inner = TcpListener::bind(addr)?;
        let port = inner.local_addr()?.port();
        Ok(TcpListenerWrap { inner, port, closed: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound socket address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }
}

impl Listener for TcpListenerWrap {
    fn accept(&self) -> io::Result<(BoxedStream, String)> {
        let (s, peer) = self.inner.accept()?;
        if self.closed.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "listener closed"));
        }
        s.set_nodelay(true).ok();
        Ok((Box::new(TcpStreamWrap::new(s)), peer.to_string()))
    }

    fn local_port(&self) -> u16 {
        self.port
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Unblock a pending accept() by connecting to ourselves.
        if let Ok(addr) = self.inner.local_addr() {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
        }
    }
}

/// A [`Connector`] over real TCP.
#[derive(Default)]
pub struct TcpConnector;

impl Connector for TcpConnector {
    fn connect(&self, host: &str, port: u16, timeout: Option<Duration>) -> io::Result<BoxedStream> {
        let addrs: Vec<SocketAddr> = (host, port).to_socket_addrs()?.collect();
        let addr = addrs.first().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no address for {host}:{port}"))
        })?;
        let s = match timeout {
            Some(t) => TcpStream::connect_timeout(addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        s.set_nodelay(true).ok();
        Ok(Box::new(TcpStreamWrap::new(s)))
    }
}

/// Wall-clock [`Runtime`] over `std::thread` / `std::time`.
pub struct RealRuntime {
    start: Instant,
}

impl Default for RealRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl RealRuntime {
    /// A runtime whose epoch is "now".
    pub fn new() -> Self {
        // davix-lint: allow(determinism) — RealRuntime maps the virtual-time API onto the wall clock by definition
        RealRuntime { start: Instant::now() }
    }
}

impl Runtime for RealRuntime {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep(&self, d: Duration) {
        // davix-lint: allow(determinism) — the real runtime's sleep IS the OS sleep
        std::thread::sleep(d);
    }

    fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) {
        spawn_thread(name, f);
    }

    fn spawn_joinable(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> Box<dyn FnOnce() + Send> {
        let handle = spawn_thread(name, f);
        Box::new(move || {
            let _ = handle.join();
        })
    }

    fn signal(&self) -> Arc<dyn Signal> {
        Arc::new(RealSignal { state: Mutex::new(false), cv: Condvar::new() })
    }
}

fn spawn_thread(name: &str, f: Box<dyn FnOnce() + Send>) -> std::thread::JoinHandle<()> {
    // Spawn is a happens-before edge: the child adopts the parent's
    // vector clock as of the fork point (no-op without race-detect).
    let pkt = davix_sync::race::fork_packet();
    // davix-lint: allow(thread-hygiene) — Runtime::spawn is the sanctioned spawn path for real-TCP daemons
    std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            davix_sync::race::adopt_packet(&pkt);
            f()
        })
        .expect("spawn thread")
}

/// Condvar-backed manual-reset event for the real runtime.
struct RealSignal {
    state: Mutex<bool>,
    cv: Condvar,
}

impl Signal for RealSignal {
    fn wait(&self, timeout: Option<Duration>) -> bool {
        let mut set = self.state.lock();
        match timeout {
            None => {
                while !*set {
                    self.cv.wait(&mut set);
                }
                true
            }
            Some(t) => {
                // davix-lint: allow(determinism) — real-runtime signal deadlines are wall-clock deadlines
                let deadline = Instant::now() + t;
                while !*set {
                    if self.cv.wait_until(&mut set, deadline).timed_out() {
                        return *set;
                    }
                }
                true
            }
        }
    }

    fn set(&self) {
        *self.state.lock() = true;
        self.cv.notify_all();
    }

    fn reset(&self) {
        *self.state.lock() = false;
    }

    fn is_set(&self) -> bool {
        *self.state.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_echo_roundtrip() {
        let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let conn = TcpConnector;
        let mut s = conn.connect("127.0.0.1", port, Some(Duration::from_secs(5))).unwrap();
        s.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        handle.join().unwrap();
    }

    #[test]
    fn tcp_clone_allows_split_read_write() {
        let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 3];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&buf).unwrap();
        });
        let conn = TcpConnector;
        let s = conn.connect("127.0.0.1", port, Some(Duration::from_secs(5))).unwrap();
        let mut w = s.try_clone().unwrap();
        let mut r = s;
        w.write_all(b"abc").unwrap();
        let mut buf = [0u8; 3];
        r.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"abc");
        handle.join().unwrap();
    }

    #[test]
    fn partial_vectored_writes_reassemble_on_a_slow_reader() {
        let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        // The reader takes its first byte only once the writer has been
        // pushed back, so partial writes and `WouldBlock` are certain.
        let (pushed_back, go) = std::sync::mpsc::channel::<()>();
        let reader = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            go.recv().unwrap();
            let mut got = Vec::new();
            s.read_to_end(&mut got).unwrap();
            got
        });
        let mut w = TcpConnector.connect("127.0.0.1", port, Some(Duration::from_secs(5))).unwrap();
        let head = vec![b'h'; 300];
        let body: Vec<u8> = (0..32usize << 20).map(|i| (i % 251) as u8).collect();
        let (mut sent, mut first, mut pushed_back) = (0, None, Some(pushed_back));
        while sent < head.len() + body.len() {
            let h = &head[sent.min(head.len())..];
            let b = &body[sent.saturating_sub(head.len())..];
            match w.try_write_vectored(&[io::IoSlice::new(h), io::IoSlice::new(b)]) {
                Ok(n) => {
                    first.get_or_insert(n);
                    sent += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if let Some(tx) = pushed_back.take() {
                        tx.send(()).unwrap();
                    }
                    std::thread::yield_now();
                }
                Err(e) => panic!("write failed: {e}"),
            }
        }
        assert!(pushed_back.is_none(), "32 MiB fitted the socket buffers: nothing was tested");
        assert!(first.unwrap() > head.len(), "one call must gather head and body (writev)");
        w.shutdown_write().unwrap();
        assert!(reader.join().unwrap() == [head, body].concat());
    }

    #[test]
    fn connect_to_closed_port_fails() {
        let conn = TcpConnector;
        // Bind and immediately drop to get a (very likely) unused port.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let r = conn.connect("127.0.0.1", port, Some(Duration::from_millis(500)));
        assert!(r.is_err());
    }

    #[test]
    fn read_timeout_is_honoured() {
        let listener = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = listener.local_port();
        let handle = std::thread::spawn(move || {
            let (_s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(200));
        });
        let conn = TcpConnector;
        let mut s = conn.connect("127.0.0.1", port, Some(Duration::from_secs(5))).unwrap();
        s.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let mut buf = [0u8; 1];
        let err = s.read(&mut buf).unwrap_err();
        assert!(
            err.kind() == io::ErrorKind::WouldBlock || err.kind() == io::ErrorKind::TimedOut,
            "unexpected error kind {:?}",
            err.kind()
        );
        handle.join().unwrap();
    }
}
