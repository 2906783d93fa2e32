//! The dynamic connection pool with session recycling (paper §2.2, Fig. 2).
//!
//! Calling threads *dispatch* requests by checking a session out of the pool
//! (one per endpoint stack), using it, and returning it if the response
//! allowed keep-alive. Reuse keeps the TCP congestion window warm — the
//! measured benefit is the F2 experiment.

use crate::error::{DavixError, Result};
use crate::metrics::Metrics;
use httpwire::Uri;
use netsim::{BoxedStream, Connector, Runtime};
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::io::BufReader;
use std::sync::Arc;
use std::time::Duration;

/// Pool key: where a session is connected to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// URI scheme (pool separates http/https).
    pub scheme: String,
    /// Host name.
    pub host: String,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Endpoint of a URI. Scheme and host are normalized to lowercase
    /// (RFC 3986 §6.2.2.1): `http://HOST/` and `http://host/` are the same
    /// keep-alive target, and mixed-case spellings (a Metalink vs. a
    /// redirect) must recycle each other's sessions, not build parallel
    /// idle stacks.
    pub fn of(uri: &Uri) -> Endpoint {
        Endpoint {
            scheme: uri.scheme.to_ascii_lowercase(),
            host: uri.host.to_ascii_lowercase(),
            port: uri.port,
        }
    }

    /// Whether this (normalized) endpoint is where `scheme://host:port`
    /// leads, whatever the case of the spelling at hand.
    fn is(&self, scheme: &str, host: &str, port: u16) -> bool {
        self.port == port
            && self.host.eq_ignore_ascii_case(host)
            && self.scheme.eq_ignore_ascii_case(scheme)
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
    }
}

/// A checked-out keep-alive session: one connection, read through a buffer
/// and written directly, plus bookkeeping.
pub struct Session {
    pub(crate) conn: BufReader<BoxedStream>,
    /// Whether this session came from the idle pool (stale-retry heuristics).
    pub(crate) reused: bool,
    /// Where each request is serialised — head, then an in-memory body —
    /// before its one write. Kept between requests, so a warm session
    /// serialises without allocating.
    pub(crate) wire: Vec<u8>,
    endpoint: Endpoint,
    /// [`stack_key`] of `endpoint`.
    key: u64,
    last_used: Duration,
    requests_served: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("endpoint", &self.endpoint)
            .field("reused", &self.reused)
            .field("requests_served", &self.requests_served)
            .finish_non_exhaustive()
    }
}

impl Session {
    pub(crate) fn note_request(&mut self) {
        self.requests_served += 1;
    }
}

/// What keys an endpoint's idle stack: a hash of `scheme://host:port` that
/// does not see case, so the stack is found from the pieces of a URI as
/// they stand — no [`Endpoint`] is built to look one up and none is cloned
/// to file a session under.
fn stack_key(scheme: &str, host: &str, port: u16) -> u64 {
    // FNV-1a over the folded bytes, each string closed by a byte that is
    // never part of one.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    for text in [scheme, host] {
        text.bytes().for_each(|b| eat(b.to_ascii_lowercase()));
        eat(0xff);
    }
    port.to_le_bytes().into_iter().for_each(&mut eat);
    hash
}

/// Emptied stacks kept for the next endpoint that needs one.
const SPARE_STACKS: usize = 8;

/// The pool's idle sessions.
#[derive(Default)]
struct Idle {
    /// Per [`stack_key`], sessions in the order they were returned. Every
    /// session knows its own endpoint and is matched against the one asked
    /// for, so two endpoints whose keys collide merely share a stack. A
    /// drained stack's entry is removed: federation workloads touch many
    /// endpoints, and empty entries would otherwise pile up forever.
    stacks: HashMap<u64, Vec<Session>>,
    /// What is left of removed entries, so that a session going back and
    /// forth alone does not allocate a stack each round trip.
    spare: Vec<Vec<Session>>,
}

/// Thread-safe session pool keyed by endpoint.
pub struct SessionPool {
    connector: Arc<dyn Connector>,
    rt: Arc<dyn Runtime>,
    metrics: Arc<Metrics>,
    max_idle_per_endpoint: usize,
    idle_ttl: Duration,
    connect_timeout: Duration,
    io_timeout: Duration,
    idle: Mutex<Idle>,
}

impl SessionPool {
    /// Build a pool.
    pub fn new(
        connector: Arc<dyn Connector>,
        rt: Arc<dyn Runtime>,
        metrics: Arc<Metrics>,
        max_idle_per_endpoint: usize,
        idle_ttl: Duration,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> Self {
        SessionPool {
            connector,
            rt,
            metrics,
            max_idle_per_endpoint,
            idle_ttl,
            connect_timeout,
            io_timeout,
            idle: Mutex::new(Idle::default()),
        }
    }

    /// Check out a session: recycle the most recently returned idle session
    /// for the endpoint, or open a fresh connection.
    pub fn acquire(&self, ep: &Endpoint) -> Result<Session> {
        self.checkout(&ep.scheme, &ep.host, ep.port)
    }

    /// [`acquire`](Self::acquire) for the endpoint of `uri`, which is only
    /// spelled out if a connection has to be opened.
    pub(crate) fn acquire_for(&self, uri: &Uri) -> Result<Session> {
        self.checkout(&uri.scheme, &uri.host, uri.port)
    }

    fn checkout(&self, scheme: &str, host: &str, port: u16) -> Result<Session> {
        let now = self.rt.now();
        let key = stack_key(scheme, host, port);
        {
            let mut idle = self.idle.lock();
            let Idle { stacks, spare } = &mut *idle;
            let mut found = None;
            if let Entry::Occupied(mut slot) = stacks.entry(key) {
                let stack = slot.get_mut();
                // LIFO: the most recently used session has the warmest cwnd.
                while let Some(i) = stack.iter().rposition(|s| s.endpoint.is(scheme, host, port)) {
                    let mut s = stack.remove(i);
                    if now.saturating_sub(s.last_used) <= self.idle_ttl {
                        Metrics::bump(&self.metrics.sessions_reused);
                        s.reused = true;
                        found = Some(s);
                        break;
                    }
                    Metrics::bump(&self.metrics.sessions_discarded);
                    // drop: connection closes (FIN) on drop of the streams
                }
                if stack.is_empty() {
                    let emptied = slot.remove();
                    if spare.len() < SPARE_STACKS {
                        spare.push(emptied);
                    }
                }
            }
            if let Some(s) = found {
                return Ok(s);
            }
        }
        let endpoint =
            Endpoint { scheme: scheme.to_ascii_lowercase(), host: host.to_ascii_lowercase(), port };
        self.connect(endpoint, key)
    }

    fn connect(&self, endpoint: Endpoint, key: u64) -> Result<Session> {
        let mut stream = self
            .connector
            .connect(&endpoint.host, endpoint.port, Some(self.connect_timeout))
            .map_err(DavixError::from)?;
        stream.set_read_timeout(Some(self.io_timeout)).map_err(DavixError::from)?;
        Metrics::bump(&self.metrics.sessions_created);
        Ok(Session {
            conn: BufReader::with_capacity(32 * 1024, stream),
            reused: false,
            wire: Vec::new(),
            endpoint,
            key,
            last_used: self.rt.now(),
            requests_served: 0,
        })
    }

    /// Return a session. `reusable = false` (response forbade keep-alive, or
    /// an error corrupted the stream) drops the connection instead.
    pub fn release(&self, mut session: Session, reusable: bool) {
        if !reusable {
            Metrics::bump(&self.metrics.sessions_discarded);
            return;
        }
        session.last_used = self.rt.now();
        session.reused = false;
        let mut idle = self.idle.lock();
        let Idle { stacks, spare } = &mut *idle;
        let stack = stacks.entry(session.key).or_insert_with(|| spare.pop().unwrap_or_default());
        stack.push(session);
        if stack.len() <= self.max_idle_per_endpoint {
            return;
        }
        let ep = &stack[stack.len() - 1].endpoint;
        if stack.iter().filter(|s| s.endpoint == *ep).count() > self.max_idle_per_endpoint {
            // Evict the endpoint's oldest: the first of them in the stack.
            // The stack cannot empty here (we just pushed), so there is no
            // entry to prune on this path — `checkout` removes what it drains.
            let oldest = stack.iter().position(|s| s.endpoint == *ep);
            stack.remove(oldest.expect("the session just pushed is one of them"));
            Metrics::bump(&self.metrics.sessions_discarded);
        }
    }

    /// Number of idle sessions currently pooled for an endpoint.
    pub fn idle_count(&self, ep: &Endpoint) -> usize {
        let idle = self.idle.lock();
        let stack = idle.stacks.get(&stack_key(&ep.scheme, &ep.host, ep.port));
        stack.map_or(0, |s| {
            s.iter().filter(|s| s.endpoint.is(&ep.scheme, &ep.host, ep.port)).count()
        })
    }

    /// Drop every idle session.
    pub fn clear(&self) {
        self.idle.lock().stacks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{LinkSpec, SimNet};
    use std::io::Read;

    impl SessionPool {
        /// Number of endpoints with at least one idle session (drained
        /// stacks are pruned, so this tracks live keep-alive targets, not
        /// history).
        fn endpoints_tracked(&self) -> usize {
            self.idle.lock().stacks.len()
        }
    }

    fn setup() -> (SimNet, SessionPool, Endpoint, Arc<Metrics>) {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        net.set_link("c", "s", LinkSpec { delay: Duration::from_millis(1), ..Default::default() });
        let listener = net.bind("s", 80).unwrap();
        net.spawn("echo-server", move || loop {
            match listener.accept_sim() {
                Ok((_s, _)) => { /* hold the connection open */ }
                Err(_) => return,
            }
        });
        let metrics = Arc::new(Metrics::default());
        let pool = SessionPool::new(
            net.connector("c"),
            net.runtime(),
            Arc::clone(&metrics),
            2,
            Duration::from_secs(10),
            Duration::from_secs(5),
            Duration::from_secs(5),
        );
        let ep = Endpoint { scheme: "http".into(), host: "s".into(), port: 80 };
        (net, pool, ep, metrics)
    }

    #[test]
    fn acquire_creates_then_recycles() {
        let (net, pool, ep, metrics) = setup();
        let _g = net.enter();
        let s1 = pool.acquire(&ep).unwrap();
        assert!(!s1.reused);
        pool.release(s1, true);
        assert_eq!(pool.idle_count(&ep), 1);
        let s2 = pool.acquire(&ep).unwrap();
        assert!(s2.reused, "second checkout must recycle");
        let snap = metrics.snapshot();
        assert_eq!(snap.sessions_created, 1);
        assert_eq!(snap.sessions_reused, 1);
    }

    #[test]
    fn non_reusable_sessions_are_dropped() {
        let (net, pool, ep, _m) = setup();
        let _g = net.enter();
        let s = pool.acquire(&ep).unwrap();
        pool.release(s, false);
        assert_eq!(pool.idle_count(&ep), 0);
        let s2 = pool.acquire(&ep).unwrap();
        assert!(!s2.reused);
    }

    #[test]
    fn pool_caps_idle_sessions() {
        let (net, pool, ep, metrics) = setup();
        let _g = net.enter();
        let sessions: Vec<Session> = (0..4).map(|_| pool.acquire(&ep).unwrap()).collect();
        for s in sessions {
            pool.release(s, true);
        }
        assert_eq!(pool.idle_count(&ep), 2, "max_idle_per_endpoint honoured");
        assert_eq!(metrics.snapshot().sessions_discarded, 2);
    }

    #[test]
    fn ttl_discards_stale_sessions() {
        let (net, pool, ep, metrics) = setup();
        let _g = net.enter();
        let s = pool.acquire(&ep).unwrap();
        pool.release(s, true);
        net.sleep(Duration::from_secs(11)); // > idle_ttl
        let s2 = pool.acquire(&ep).unwrap();
        assert!(!s2.reused, "stale session must not be recycled");
        assert_eq!(metrics.snapshot().sessions_discarded, 1);
    }

    #[test]
    fn drained_endpoint_entries_are_pruned() {
        let (net, pool, ep, _m) = setup();
        let _g = net.enter();
        let s = pool.acquire(&ep).unwrap();
        pool.release(s, true);
        assert_eq!(pool.endpoints_tracked(), 1);
        // Recycling the only idle session empties the stack: the map entry
        // must go with it, or federation workloads touching many endpoints
        // grow the idle map without bound.
        let s = pool.acquire(&ep).unwrap();
        assert!(s.reused);
        assert_eq!(pool.endpoints_tracked(), 0, "drained stack must be pruned");
        pool.release(s, true);
        assert_eq!(pool.endpoints_tracked(), 1);
        // TTL expiry drains the stack the same way.
        net.sleep(Duration::from_secs(11));
        let s2 = pool.acquire(&ep).unwrap();
        assert!(!s2.reused);
        assert_eq!(pool.endpoints_tracked(), 0, "TTL-expired stack must be pruned");
        pool.release(s2, false);
        assert_eq!(pool.endpoints_tracked(), 0);
    }

    #[test]
    fn endpoint_of_normalizes_scheme_and_host_case() {
        let upper = Endpoint::of(&"HTTP://S.CERN.CH/Data".parse().unwrap());
        let lower = Endpoint::of(&"http://s.cern.ch/other".parse().unwrap());
        assert_eq!(upper, lower, "mixed-case spellings must share one idle stack");
        assert_eq!(upper.scheme, "http");
        assert_eq!(upper.host, "s.cern.ch");
    }

    #[test]
    fn mixed_case_uris_recycle_one_session() {
        let (net, pool, _ep, metrics) = setup();
        let _g = net.enter();
        let s = pool.acquire(&Endpoint::of(&"http://S/x".parse().unwrap())).unwrap();
        pool.release(s, true);
        let s2 = pool.acquire(&Endpoint::of(&"http://s/y".parse().unwrap())).unwrap();
        assert!(s2.reused, "case-shifted host must hit the same stack");
        assert_eq!(metrics.snapshot().sessions_created, 1);
        assert_eq!(pool.endpoints_tracked(), 0);
    }

    #[test]
    fn many_endpoints_keep_their_own_stacks() {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let ports = 8000..8016u16;
        for port in ports.clone() {
            let listener = net.bind("s", port).unwrap();
            net.spawn("hold-open", move || {
                let mut held = Vec::new();
                while let Ok(conn) = listener.accept_sim() {
                    held.push(conn);
                }
            });
        }
        let metrics = Arc::new(Metrics::default());
        let pool = SessionPool::new(
            net.connector("c"),
            net.runtime(),
            Arc::clone(&metrics),
            2,
            Duration::from_secs(10),
            Duration::from_secs(5),
            Duration::from_secs(5),
        );
        let _g = net.enter();
        let ep = |port| Endpoint { scheme: "http".into(), host: "s".into(), port };
        let out: Vec<Session> =
            ports.clone().flat_map(|p| [p, p]).map(|p| pool.acquire(&ep(p)).unwrap()).collect();
        out.into_iter().for_each(|s| pool.release(s, true));
        assert_eq!(pool.endpoints_tracked(), ports.len());
        for port in ports.clone() {
            assert_eq!(pool.idle_count(&ep(port)), 2);
            // Spelled differently, found all the same — and it is this
            // endpoint's session that comes back.
            let s = pool.checkout("HTTP", "S", port).unwrap();
            assert!(s.reused && s.endpoint == ep(port));
            assert_eq!(pool.idle_count(&ep(port)), 1);
        }
        assert_eq!(metrics.snapshot().sessions_created, 2 * ports.len() as u64);
    }

    #[test]
    fn connect_failure_is_reported() {
        let (net, pool, _ep, _m) = setup();
        let _g = net.enter();
        let bad = Endpoint { scheme: "http".into(), host: "s".into(), port: 81 };
        let err = pool.acquire(&bad).unwrap_err();
        assert!(matches!(err, DavixError::Connection(_)));
    }

    #[test]
    fn sessions_really_share_a_connection() {
        // A recycled session keeps talking on the same TCP stream: write on
        // it, observe on the server side of the same conn.
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("s");
        let listener = net.bind("s", 80).unwrap();
        net.spawn("server", move || {
            let (mut s, _) = listener.accept_sim().unwrap();
            let mut buf = [0u8; 2];
            s.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ab");
        });
        let metrics = Arc::new(Metrics::default());
        let pool = SessionPool::new(
            net.connector("c"),
            net.runtime(),
            metrics,
            4,
            Duration::from_secs(10),
            Duration::from_secs(5),
            Duration::from_secs(5),
        );
        let ep = Endpoint { scheme: "http".into(), host: "s".into(), port: 80 };
        let _g = net.enter();
        let mut s1 = pool.acquire(&ep).unwrap();
        std::io::Write::write_all(s1.conn.get_mut(), b"a").unwrap();
        pool.release(s1, true);
        let mut s2 = pool.acquire(&ep).unwrap();
        std::io::Write::write_all(s2.conn.get_mut(), b"b").unwrap();
        // server asserts it sees "ab" on one connection
        net.sleep(Duration::from_millis(50));
        assert_eq!(net.stats().conns_created, 1);
    }
}
