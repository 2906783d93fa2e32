//! Event-driven *client* harness: thousands of simulated clients on a
//! handful of OS threads.
//!
//! Load-generating clients run on the same [`Reactor`] the servers do. A
//! client is a [`ClientSession`] — a non-blocking state machine over a
//! [`Pollable`](crate::transport::Pollable) stream — wrapped in a
//! [`ClientTask`] that implements [`Driven`]. Under simulation each client
//! costs a couple of slab entries and a waker, not an OS thread, so a
//! 10,000-client c10k scenario runs on however many reactor shards you give
//! it. A session that speaks HTTP does not parse it: it drives the davix
//! client's own resumable exchange (`davix::Exchange`, then
//! `httpwire::BodyFraming` for the body) on its stream, so what a load test
//! measures is the client that ships.
//!
//! Sessions are transport-agnostic (they only see a `BoxedStream`), but the
//! harness is built sim-first: connections are opened with the non-blocking
//! [`SimNet::connect_start`](crate::sim::SimNet::connect_start) so even the
//! handshake costs no thread. A real-TCP connect closure works too, at the
//! price of briefly blocking a shard in `connect(2)`.

use crate::reactor::{DriveOutcome, Driven, Reactor};
use crate::transport::{BoxedStream, Runtime, Signal};
use davix_sync::{AtomicUsize, Ordering};
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// What a session wants after a `poll`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPoll {
    /// Waiting for the stream: park until the next readiness wake.
    Pending,
    /// Think time: park until the given *absolute* runtime instant.
    Sleep(Duration),
    /// Finished successfully: close the connection and retire.
    Done,
}

/// A non-blocking client state machine.
///
/// `poll` is called with the connected stream whenever the stream may have
/// become ready (or a requested sleep expired); it must make as much progress
/// as readiness allows — `try_read`/`try_write` until `WouldBlock` — and
/// never block. Returning `Err` retires the client as failed.
pub trait ClientSession: Send {
    /// Advance as far as readiness allows. `now` is the runtime clock.
    fn poll(&mut self, io: &mut BoxedStream, now: Duration) -> io::Result<SessionPoll>;

    /// Whether the session has output it still wants to flush (drives
    /// `POLLOUT` interest on fd-polled transports). Sessions that only write
    /// in response to reads can leave the default.
    fn wants_write(&self) -> bool {
        false
    }
}

/// Deferred connection factory: called on the driving shard when the task's
/// start time arrives. Return a stream that is *already or eventually*
/// connected — `try_write` may return `WouldBlock` while a handshake is in
/// flight (see [`SimNet::connect_start`](crate::sim::SimNet::connect_start)).
pub type ConnectFn = Box<dyn FnOnce() -> io::Result<BoxedStream> + Send>;

struct FleetInner {
    live: AtomicUsize,
    launched: AtomicUsize,
    failures: AtomicUsize,
    done: Arc<dyn Signal>,
}

/// Tracks a population of [`ClientTask`]s to completion.
///
/// `launch` submits one client; `wait` blocks (on a runtime [`Signal`], so it
/// is virtual-time safe) until every launched client has retired and returns
/// the failure count.
pub struct Fleet {
    inner: Arc<FleetInner>,
}

impl Fleet {
    /// New empty fleet on `rt`'s clock.
    pub fn new(rt: &Arc<dyn Runtime>) -> Fleet {
        Fleet {
            inner: Arc::new(FleetInner {
                live: AtomicUsize::new(0),
                launched: AtomicUsize::new(0),
                failures: AtomicUsize::new(0),
                done: rt.signal(),
            }),
        }
    }

    /// Submit one client to `reactor`: `connect` runs (on the shard) once
    /// `start_at` (runtime clock) passes, then `session` is polled on
    /// readiness until it finishes.
    pub fn launch(
        &self,
        reactor: &Reactor,
        start_at: Duration,
        connect: ConnectFn,
        session: Box<dyn ClientSession>,
    ) {
        self.inner.live.fetch_add(1, Ordering::SeqCst);
        self.inner.launched.fetch_add(1, Ordering::SeqCst);
        reactor.submit(Box::new(ClientTask {
            fleet: Arc::clone(&self.inner),
            start_at,
            connect: Some(connect),
            stream: None,
            session,
            sleep_until: None,
            waker: None,
            finished: false,
        }));
    }

    /// Clients launched so far.
    pub fn launched(&self) -> usize {
        self.inner.launched.load(Ordering::SeqCst)
    }

    /// Clients that retired with an error so far.
    pub fn failures(&self) -> usize {
        self.inner.failures.load(Ordering::SeqCst)
    }

    /// Block until every launched client has retired; returns the failure
    /// count. Safe under simulation (waits on a runtime signal).
    pub fn wait(&self) -> usize {
        while self.inner.live.load(Ordering::SeqCst) > 0 {
            self.inner.done.wait(Some(Duration::from_secs(1)));
            self.inner.done.reset();
        }
        self.inner.failures.load(Ordering::SeqCst)
    }
}

/// [`Driven`] adapter that runs one [`ClientSession`] on a reactor shard.
pub struct ClientTask {
    fleet: Arc<FleetInner>,
    start_at: Duration,
    connect: Option<ConnectFn>,
    stream: Option<BoxedStream>,
    session: Box<dyn ClientSession>,
    sleep_until: Option<Duration>,
    /// Shard waker stashed until the stream exists to attach it to.
    waker: Option<Arc<dyn Signal>>,
    finished: bool,
}

impl ClientTask {
    fn retire(&mut self, failed: bool) -> DriveOutcome {
        if !self.finished {
            self.finished = true;
            // Drop the stream first so the FIN goes out before the fleet
            // observes completion.
            self.stream = None;
            if failed {
                self.fleet.failures.fetch_add(1, Ordering::SeqCst);
            }
            if self.fleet.live.fetch_sub(1, Ordering::SeqCst) == 1 {
                self.fleet.done.set();
            }
        }
        DriveOutcome::Done
    }
}

impl Driven for ClientTask {
    fn drive(&mut self, now: Duration) -> DriveOutcome {
        if self.finished {
            return DriveOutcome::Done;
        }
        if self.stream.is_none() {
            if now < self.start_at {
                return DriveOutcome::Continue; // deadline() re-drives us
            }
            let connect = self.connect.take().expect("connect closure present");
            match connect() {
                Ok(mut s) => {
                    if let Some(w) = &self.waker {
                        let _ = s.set_waker(Some(Arc::clone(w)));
                    }
                    self.stream = Some(s);
                }
                Err(_) => return self.retire(true),
            }
        }
        if let Some(t) = self.sleep_until {
            if now < t {
                return DriveOutcome::Continue;
            }
            self.sleep_until = None;
        }
        let stream = self.stream.as_mut().expect("stream connected");
        loop {
            match self.session.poll(stream, now) {
                Ok(SessionPoll::Pending) => return DriveOutcome::Continue,
                Ok(SessionPoll::Sleep(t)) => {
                    if t <= now {
                        continue; // already due: poll again immediately
                    }
                    self.sleep_until = Some(t);
                    return DriveOutcome::Continue;
                }
                Ok(SessionPoll::Done) => return self.retire(false),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return DriveOutcome::Continue,
                Err(_) => return self.retire(true),
            }
        }
    }

    fn deadline(&self) -> Option<Duration> {
        if self.finished {
            return None;
        }
        if self.stream.is_none() {
            return Some(self.start_at);
        }
        self.sleep_until
    }

    fn set_waker(&mut self, waker: Option<Arc<dyn Signal>>) {
        if let Some(s) = self.stream.as_mut() {
            let _ = s.set_waker(waker.clone());
        }
        self.waker = waker;
    }

    fn poll_fd(&self) -> Option<i32> {
        self.stream.as_ref().and_then(|s| s.poll_fd())
    }

    fn wants_write(&self) -> bool {
        // Before the handshake resolves the session may be mid-send.
        self.stream.is_some() && self.session.wants_write()
    }

    fn begin_shutdown(&mut self) {
        // Load clients have no graceful-drain obligation: retire on the next
        // drive. An aborted client is not a protocol failure.
        let _ = self.retire(false);
    }
}

impl Drop for ClientTask {
    fn drop(&mut self) {
        // Keep the fleet accounting honest even if the reactor drops us
        // without a final drive.
        let _ = self.retire(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::ReactorConfig;
    use crate::sim::{LinkSpec, SimNet};
    use std::io::{Read, Write};

    /// Writes one payload, half-closes, reads until EOF, checks the echo.
    struct EchoOnce {
        sent: usize,
        half_closed: bool,
        got: Vec<u8>,
        payload: &'static [u8],
    }

    impl ClientSession for EchoOnce {
        fn poll(&mut self, io: &mut BoxedStream, _now: Duration) -> io::Result<SessionPoll> {
            while self.sent < self.payload.len() {
                match io.try_write(&self.payload[self.sent..]) {
                    Ok(n) => self.sent += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(SessionPoll::Pending)
                    }
                    Err(e) => return Err(e),
                }
            }
            if !self.half_closed {
                io.shutdown_write()?;
                self.half_closed = true;
            }
            let mut buf = [0u8; 256];
            loop {
                match io.try_read(&mut buf) {
                    Ok(0) => {
                        if self.got == self.payload {
                            return Ok(SessionPoll::Done);
                        }
                        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad echo"));
                    }
                    Ok(n) => self.got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(SessionPoll::Pending)
                    }
                    Err(e) => return Err(e),
                }
            }
        }

        fn wants_write(&self) -> bool {
            self.sent < self.payload.len()
        }
    }

    #[test]
    fn fleet_of_sim_clients_on_two_threads() {
        let net = SimNet::new();
        net.add_host("client");
        net.add_host("server");
        net.set_link("client", "server", LinkSpec::lan());
        let listener = net.bind("server", 80).unwrap();
        net.spawn("echo-server", move || {
            let mut served = 0;
            while served < 50 {
                let (mut s, _) = match listener.accept_sim() {
                    Ok(x) => x,
                    Err(_) => break,
                };
                served += 1;
                std::thread::Builder::new()
                    .name("echo-conn".into())
                    .spawn({
                        move || {
                            let mut buf = Vec::new();
                            if s.read_to_end(&mut buf).is_ok() {
                                let _ = s.write_all(&buf);
                            }
                        }
                    })
                    .unwrap();
            }
        });
        // NB: the per-connection echo threads above are *unregistered* (raw
        // std threads) — the clock tolerates them because the accept loop
        // keeps readiness flowing; they exist to exercise exactly that path.
        let rt: Arc<dyn Runtime> = net.runtime();
        let reactor = Reactor::new(
            Arc::clone(&rt),
            ReactorConfig { threads: 2, name: "simclient-test".into() },
        );
        let fleet = Fleet::new(&rt);
        let _guard = net.enter();
        for i in 0..50 {
            let net2 = net.clone();
            fleet.launch(
                &reactor,
                Duration::from_millis(i as u64 % 7),
                Box::new(move || {
                    net2.connect_start("client", "server", 80).map(|s| Box::new(s) as BoxedStream)
                }),
                Box::new(EchoOnce {
                    sent: 0,
                    half_closed: false,
                    got: Vec::new(),
                    payload: b"hello, event-driven world",
                }),
            );
        }
        let failures = fleet.wait();
        assert_eq!(failures, 0);
        assert_eq!(fleet.launched(), 50);
        reactor.shutdown();
    }
}
