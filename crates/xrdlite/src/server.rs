//! The xrdlite server: frames in, frames out, over an [`ObjectStore`].
//!
//! Requests on one connection are handled *concurrently* (one runtime thread
//! per in-flight request) and responses are **interleaved on the wire in
//! chunks** by a per-connection [`FrameScheduler`] — matching XRootD's
//! asynchronous server model with its own I/O scheduler, so a large read
//! does not head-of-line block a small one on the same connection.

use crate::mux::FrameScheduler;
use crate::wire::{self, Frame, Op, PayloadReader, PayloadWriter, Status};
use davix_sync::{AtomicU32, AtomicU64, Ordering};
use netsim::{BoxedStream, Listener, Runtime};
use objstore::ObjectStore;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Interleaving granularity: responses larger than this are split into
/// partial frames scheduled round-robin across streams.
const MAX_FRAME_PAYLOAD: usize = 64 * 1024;

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
    /// Listeners being served, closed by [`stop`](XrdServer::stop).
    listeners: Mutex<Vec<Arc<dyn Listener>>>,
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
            listeners: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            connections: AtomicU64::new(0),
        })
    }

    /// Stop accepting new connections: closes every listener, which wakes
    /// an accept thread parked in `accept` so it exits. Connections already
    /// accepted run on until their client hangs up.
    pub fn stop(&self) {
        let listeners = std::mem::take(&mut *self.listeners.lock());
        for l in listeners {
            l.close();
        }
    }

    /// Run the accept loop (returns immediately; work happens on runtime
    /// threads).
    pub fn serve(self: &Arc<Self>, listener: Box<dyn Listener>, rt: Arc<dyn Runtime>) {
        let listener: Arc<dyn Listener> = Arc::from(listener);
        self.listeners.lock().push(Arc::clone(&listener));
        let server = Arc::clone(self);
        let rt2 = Arc::clone(&rt);
        rt.spawn(
            "xrd-accept",
            Box::new(move || {
                let mut conn_id = 0u64;
                loop {
                    let (stream, _) = match listener.accept() {
                        Ok(x) => x,
                        Err(_) => return,
                    };
                    conn_id += 1;
                    server.connections.fetch_add(1, Ordering::Relaxed);
                    let server2 = Arc::clone(&server);
                    let rt3 = Arc::clone(&rt2);
                    rt2.spawn(
                        &format!("xrd-conn-{conn_id}"),
                        Box::new(move || server2.handle_connection(stream, &rt3)),
                    );
                }
            }),
        );
    }

    fn handle_connection(self: Arc<Self>, mut stream: BoxedStream, rt: &Arc<dyn Runtime>) {
        if wire::server_handshake(&mut stream).is_err() {
            return;
        }
        let writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        // All responses funnel through one scheduler thread that interleaves
        // them in chunks; request threads never touch the socket, so none of
        // them can stall on the TCP window (and under simulation no thread
        // ever blocks invisibly on a mutex held across a window-limited
        // write).
        let sched = FrameScheduler::spawn(
            rt,
            &format!("xrd-writer-{}", stream.peer()),
            writer,
            MAX_FRAME_PAYLOAD,
        );
        let handles: Arc<Mutex<HashMap<u32, String>>> = Arc::new(Mutex::new(HashMap::new()));
        let next_handle = Arc::new(AtomicU32::new(1));
        let mut req_seq = 0u64;
        loop {
            let frame = match Frame::read_from(&mut stream) {
                Ok(f) => f,
                Err(_) => {
                    // Connection closed: drain queued responses, then stop.
                    sched.close();
                    return;
                }
            };
            self.requests.fetch_add(1, Ordering::Relaxed);
            req_seq += 1;
            let server = Arc::clone(&self);
            let sched = Arc::clone(&sched);
            let handles = Arc::clone(&handles);
            let next_handle = Arc::clone(&next_handle);
            let rt2 = Arc::clone(rt);
            // Concurrent handling: a slow (large) request must not block
            // later small ones — this is the protocol's multiplexing.
            rt.spawn(
                &format!("xrd-req-{req_seq}"),
                Box::new(move || {
                    if !server.cfg.process_delay.is_zero() {
                        rt2.sleep(server.cfg.process_delay);
                    }
                    let (status, payload) = server.dispatch(&frame, &handles, &next_handle);
                    let _ = sched.enqueue(frame.stream_id, status as u8, payload);
                }),
            );
        }
    }

    fn dispatch(
        &self,
        frame: &Frame,
        handles: &Mutex<HashMap<u32, String>>,
        next_handle: &AtomicU32,
    ) -> (Status, Vec<u8>) {
        let err = |msg: String| (Status::Error, msg.into_bytes());
        let Some(op) = Op::from_u8(frame.code) else {
            return err(format!("unknown op {}", frame.code));
        };
        match op {
            Op::Open => {
                let path = String::from_utf8_lossy(&frame.payload).into_owned();
                match self.store.get(&path) {
                    Some(meta) => {
                        let h = next_handle.fetch_add(1, Ordering::Relaxed);
                        handles.lock().insert(h, path);
                        (
                            Status::Ok,
                            PayloadWriter::new().u32(h).u64(meta.data.len() as u64).build(),
                        )
                    }
                    None => err(format!("no such file: {path}")),
                }
            }
            Op::Stat => {
                let path = String::from_utf8_lossy(&frame.payload).into_owned();
                match self.store.get(&path) {
                    Some(meta) => {
                        (Status::Ok, PayloadWriter::new().u64(meta.data.len() as u64).build())
                    }
                    None => err(format!("no such file: {path}")),
                }
            }
            Op::Read => {
                let mut r = PayloadReader::new(&frame.payload);
                let parsed = (|| -> std::io::Result<(u32, u64, u32)> {
                    Ok((r.u32()?, r.u64()?, r.u32()?))
                })();
                let Ok((h, off, len)) = parsed else {
                    return err("malformed READ".to_string());
                };
                let Some(path) = handles.lock().get(&h).cloned() else {
                    return err(format!("bad handle {h}"));
                };
                let Some(meta) = self.store.get(&path) else {
                    return err(format!("file vanished: {path}"));
                };
                let size = meta.data.len() as u64;
                if off >= size {
                    return (Status::Ok, Vec::new());
                }
                let end = (off + len as u64).min(size);
                (Status::Ok, meta.data[off as usize..end as usize].to_vec())
            }
            Op::ReadV => {
                let mut r = PayloadReader::new(&frame.payload);
                let header = (|| -> std::io::Result<(u32, u16)> { Ok((r.u32()?, r.u16()?)) })();
                let Ok((h, n)) = header else {
                    return err("malformed READV".to_string());
                };
                let Some(path) = handles.lock().get(&h).cloned() else {
                    return err(format!("bad handle {h}"));
                };
                let Some(meta) = self.store.get(&path) else {
                    return err(format!("file vanished: {path}"));
                };
                let size = meta.data.len() as u64;
                let mut out = Vec::new();
                for _ in 0..n {
                    let frag = (|| -> std::io::Result<(u64, u32)> { Ok((r.u64()?, r.u32()?)) })();
                    let Ok((off, len)) = frag else {
                        return err("malformed READV fragment".to_string());
                    };
                    // `off + len` can overflow: a hostile `off` near
                    // `u64::MAX` must get an error, not a panic that leaves
                    // the request unanswered.
                    if off > size || u64::from(len) > size - off {
                        return err(format!("fragment {off}+{len} beyond size {size}"));
                    }
                    out.extend_from_slice(&meta.data[off as usize..][..len as usize]);
                }
                (Status::Ok, out)
            }
            Op::Close => {
                let mut r = PayloadReader::new(&frame.payload);
                match r.u32() {
                    Ok(h) => {
                        handles.lock().remove(&h);
                        (Status::Ok, Vec::new())
                    }
                    Err(_) => err("malformed CLOSE".to_string()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::{LinkSpec, SimNet};
    use std::io::{Read, Write};

    fn sim_server(data: &'static [u8]) -> (SimNet, Arc<XrdServer>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec::lan());
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(data));
        let server = XrdServer::new(store, XrdServerConfig::default());
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        (net, server)
    }

    /// Send one raw request frame and read its response frame.
    fn call(s: &mut (impl Read + Write), id: u16, op: Op, payload: Vec<u8>) -> Frame {
        s.write_all(&Frame { stream_id: id, code: op as u8, flags: 0, payload }.encode()).unwrap();
        let resp = Frame::read_from(s).unwrap();
        assert_eq!(resp.stream_id, id);
        resp
    }

    #[test]
    fn an_overflowing_readv_fragment_is_an_error_and_the_connection_lives_on() {
        let (net, _server) = sim_server(b"0123456789abcdef");
        let _g = net.enter();
        let mut s = net.connect("c", "s", 1094).unwrap();
        wire::client_handshake(&mut s).unwrap();
        let open = call(&mut s, 1, Op::Open, b"/f".to_vec());
        assert_eq!(open.code, Status::Ok as u8);
        let h = PayloadReader::new(&open.payload).u32().unwrap();
        // `off + len` wraps to 11: inside the 16-byte file if added blindly.
        let readv = PayloadWriter::new().u32(h).u16(1).u64(u64::MAX - 4).u32(16).build();
        let resp = call(&mut s, 2, Op::ReadV, readv);
        assert_eq!(resp.code, Status::Error as u8, "{}", String::from_utf8_lossy(&resp.payload));
        let read = call(&mut s, 3, Op::Read, PayloadWriter::new().u32(h).u64(10).u32(4).build());
        assert_eq!((read.code, read.payload.as_slice()), (Status::Ok as u8, &b"abcd"[..]));
    }

    #[test]
    fn stop_ends_the_accept_thread() {
        let net = SimNet::new();
        net.add_host("s");
        let _g = net.enter();
        let before = net.thread_census();
        let server = XrdServer::new(Arc::new(ObjectStore::new()), XrdServerConfig::default());
        server.serve(Box::new(net.bind("s", 1094).unwrap()), net.runtime());
        net.sleep(Duration::from_millis(1));
        assert_eq!(net.thread_census(), before + 1, "the accept thread runs");
        server.stop();
        net.sleep(Duration::from_millis(1));
        assert_eq!(net.thread_census(), before, "stop must end the accept thread");
    }
}
