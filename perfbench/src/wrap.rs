//! Benchmark-side wrappers over the crates' public traits. Each forwards
//! every call unchanged and records a [`trace`] span around it, so the
//! traced run attributes time to a layer without touching the layer.

use crate::trace::{self, Layer};
use httpd::{Handler, Request, Response};
use ioapi::{IoStatsSnapshot, RandomAccess};
use netsim::{BoxedStream, Connector, Listener, Pollable, Signal, Stream};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Spans `core.read_at` / `core.read_vec` around a [`RandomAccess`] source
/// (a `DavFile`, an `XrdFile`).
pub struct TimedSource(pub Arc<dyn RandomAccess>);

impl RandomAccess for TimedSource {
    fn size(&self) -> io::Result<u64> {
        self.0.size()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let mut span = trace::span(Layer::CoreReadAt);
        let n = self.0.read_at(offset, buf)?;
        span.bytes = n as u64;
        Ok(n)
    }

    fn read_vec(&self, fragments: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        let mut span = trace::span(Layer::CoreReadVec);
        span.items = fragments.len() as u64;
        let out = self.0.read_vec(fragments)?;
        span.bytes = out.iter().map(|v| v.len() as u64).sum();
        Ok(out)
    }

    fn prefetch_vec(&self, fragments: &[(u64, usize)]) {
        self.0.prefetch_vec(fragments)
    }

    fn supports_prefetch(&self) -> bool {
        self.0.supports_prefetch()
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.0.stats()
    }
}

/// Spans `objstore.handle` around the storage handler, on the shard thread
/// that runs it.
pub struct TimedHandler(pub Arc<dyn Handler>);

impl Handler for TimedHandler {
    fn handle(&self, req: Request) -> Response {
        let mut span = trace::span(Layer::ObjstoreHandle);
        let resp = self.0.handle(req);
        span.bytes = resp.body.len() as u64;
        resp
    }
}

/// Spans `tcp.connect` and hands out [`TimedStream`]s.
pub struct TimedConnector<C>(pub C);

impl<C: Connector> Connector for TimedConnector<C> {
    fn connect(&self, host: &str, port: u16, timeout: Option<Duration>) -> io::Result<BoxedStream> {
        let _span = trace::span(Layer::TcpConnect);
        Ok(Box::new(TimedStream(self.0.connect(host, port, timeout)?)))
    }
}

/// Wraps accepted connections in [`TimedStream`]s.
pub struct TimedListener(pub Box<dyn Listener>);

impl Listener for TimedListener {
    fn accept(&self) -> io::Result<(BoxedStream, String)> {
        let (stream, peer) = self.0.accept()?;
        Ok((Box::new(TimedStream(stream)), peer))
    }

    fn local_port(&self) -> u16 {
        self.0.local_port()
    }

    fn close(&self) {
        self.0.close()
    }
}

/// Spans every socket call: blocking `tcp.read`/`tcp.write` (the client
/// side) and non-blocking `tcp.try_read`/`tcp.try_write` (the reactor
/// side). Readiness plumbing (`poll_fd`, `set_waker`) passes through
/// untouched, so the reactor polls the real descriptor.
pub struct TimedStream(pub BoxedStream);

fn is_wouldblock<T>(r: &io::Result<T>) -> bool {
    matches!(r, Err(e) if e.kind() == io::ErrorKind::WouldBlock)
}

impl Read for TimedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut span = trace::span(Layer::TcpRead);
        let r = self.0.read(buf);
        span.bytes = *r.as_ref().unwrap_or(&0) as u64;
        r
    }
}

impl Write for TimedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut span = trace::span(Layer::TcpWrite);
        let r = self.0.write(buf);
        span.bytes = *r.as_ref().unwrap_or(&0) as u64;
        r
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Pollable for TimedStream {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let mut span = trace::span(Layer::TcpTryRead);
        let r = self.0.try_read(buf);
        span.bytes = *r.as_ref().unwrap_or(&0) as u64;
        span.wouldblock = is_wouldblock(&r);
        r
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut span = trace::span(Layer::TcpTryWrite);
        let r = self.0.try_write(buf);
        span.bytes = *r.as_ref().unwrap_or(&0) as u64;
        span.wouldblock = is_wouldblock(&r);
        r
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) -> io::Result<()> {
        self.0.set_waker(waker)
    }

    fn poll_fd(&self) -> Option<i32> {
        self.0.poll_fd()
    }
}

impl Stream for TimedStream {
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(timeout)
    }

    fn peer(&self) -> String {
        self.0.peer()
    }

    fn try_clone(&self) -> io::Result<BoxedStream> {
        Ok(Box::new(TimedStream(self.0.try_clone()?)))
    }

    fn shutdown_write(&mut self) -> io::Result<()> {
        self.0.shutdown_write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpwire::{Method, RequestHead, StatusCode};
    use ioapi::MemFile;
    use netsim::{TcpConnector, TcpListenerWrap};

    #[test]
    fn timed_source_is_transparent() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5000).collect();
        let plain = MemFile::new(data.clone());
        let timed = TimedSource(Arc::new(MemFile::new(data)));
        assert_eq!(timed.size().unwrap(), plain.size().unwrap());
        let (mut a, mut b) = ([0u8; 300], [0u8; 300]);
        assert_eq!(timed.read_at(4900, &mut a).unwrap(), plain.read_at(4900, &mut b).unwrap());
        assert_eq!(a, b);
        let frags = [(0u64, 10usize), (4000, 77), (123, 1)];
        assert_eq!(timed.read_vec(&frags).unwrap(), plain.read_vec(&frags).unwrap());
        assert_eq!(timed.supports_prefetch(), plain.supports_prefetch());
    }

    #[test]
    fn timed_handler_is_transparent() {
        let echo = |req: Request| Response::with_body(StatusCode::OK, "x/y", req.body);
        let timed = TimedHandler(Arc::new(echo));
        let req = |body: &[u8]| Request {
            head: RequestHead::new(Method::Put, "/o"),
            body: body.to_vec(),
            peer: "p".into(),
        };
        let (a, b) = (timed.handle(req(b"payload")), echo(req(b"payload")));
        assert_eq!((a.status, a.body.as_ref()), (b.status, b.body.as_ref()));
        assert_eq!(a.headers.get("content-type"), b.headers.get("content-type"));
    }

    #[test]
    fn timed_stream_carries_bytes_and_keeps_the_descriptor() {
        let inner = TcpListenerWrap::bind("127.0.0.1:0").unwrap();
        let port = inner.local_port();
        let listener = TimedListener(Box::new(inner));
        assert_eq!(listener.local_port(), port);
        let payload: Vec<u8> = (0..100_000u32).map(|i| (i * 31) as u8).collect();
        let expect = payload.clone();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            assert!(s.poll_fd().is_some(), "reactor needs the real fd");
            let mut got = vec![0u8; expect.len()];
            s.read_exact(&mut got).unwrap();
            assert_eq!(got, expect);
            // Echo back through the non-blocking half.
            let mut sent = 0;
            while sent < got.len() {
                match s.try_write(&got[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
        });
        let mut c = TimedConnector(TcpConnector).connect("127.0.0.1", port, None).unwrap();
        assert!(c.poll_fd().is_some());
        assert!(c.peer().contains(&port.to_string()));
        let mut w = c.try_clone().unwrap();
        w.write_all(&payload).unwrap();
        let mut back = vec![0u8; payload.len()];
        c.read_exact(&mut back).unwrap();
        assert_eq!(back, payload);
        server.join().unwrap();
    }
}
