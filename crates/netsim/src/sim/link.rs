//! The link/TCP model: hosts, the links between them, and the connections
//! that cross them.
//!
//! * Each direction of a host pair is a FIFO: a segment waits for the
//!   transmissions queued before it (`link_busy`), occupies the link for
//!   its size over the bandwidth, then arrives one propagation delay later.
//!   Connections sharing a path contend there.
//! * Establishing a connection costs `handshake_rtts` round trips (SYN out,
//!   SYN-ACK back); a refusal (closed port, downed host) costs one.
//! * Each direction has a congestion window that starts at `init_cwnd`
//!   bytes and grows by one byte per acknowledged byte (classic slow start,
//!   i.e. doubling per RTT) up to `max_cwnd`. A sender with a full window
//!   blocks until an ACK, scheduled one RTT after its segment, returns. A
//!   reused connection keeps its grown window — precisely the effect the
//!   paper's session recycling exploits (§2.2).
//! * One write call is one segment. Nagle holds back a sub-MSS write while
//!   data is unacknowledged; a delayed ACK holds a sub-MSS segment's ACK.
//!
//! The model changes connection state and schedules events; it wakes no
//! one. What may have become ready it reports back — a `bool`, or the
//! connections to reset — and `State::apply` names the `WaitKind` key.

use super::events::{EventKind, Events};
use super::{dur_ns, WaitKind};
use crate::fault::{Delivery, FaultState};
use crate::slab::Slab;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::Duration;

/// Characteristics of the path between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// One-way propagation delay.
    pub delay: Duration,
    /// Capacity in bytes per second per direction; `None` = unlimited.
    pub bandwidth: Option<u64>,
    /// Initial congestion window in bytes (IW10 ≈ 14 600 by default).
    pub init_cwnd: u64,
    /// Congestion window ceiling; `None` derives ~2× the bandwidth-delay
    /// product (clamped to [64 KiB, 16 MiB]), or 4 MiB on unlimited links.
    pub max_cwnd: Option<u64>,
    /// Round trips a connection setup costs. `1` is plain TCP (SYN /
    /// SYN-ACK); `3` approximates TCP + a TLS 1.2 handshake — the setup
    /// latency the paper's §2.2 cites for rejecting SPDY's mandatory TLS.
    pub handshake_rtts: u32,
    /// Nagle's algorithm: a write smaller than one MSS is held back while
    /// any previously sent data is unacknowledged. Off by default (modern
    /// clients set `TCP_NODELAY`); turn on together with [`delayed_ack`] to
    /// reproduce the §2.2 "side effects with the TCP's nagle algorithm"
    /// that plague HTTP pipelining.
    ///
    /// [`delayed_ack`]: LinkSpec::delayed_ack
    pub nagle: bool,
    /// Delayed-ACK timer: the ACK of a segment smaller than one MSS is
    /// held this long (classically ~40 ms). `None` = immediate ACKs.
    pub delayed_ack: Option<Duration>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            delay: Duration::from_micros(500),
            bandwidth: None,
            init_cwnd: 14_600,
            max_cwnd: None,
            handshake_rtts: 1,
            nagle: false,
            delayed_ack: None,
        }
    }
}

impl LinkSpec {
    /// Gigabit LAN, ≈2.5 ms RTT: the paper's "CERN ↔ CERN" case (latency < 5 ms).
    pub fn lan() -> Self {
        LinkSpec {
            delay: Duration::from_micros(1250),
            bandwidth: Some(125_000_000),
            ..Default::default()
        }
    }

    /// Pan-European path (GEANT), ≈25 ms RTT: "UK(GLAS) ↔ CERN" (latency < 50 ms).
    pub fn pan_european() -> Self {
        LinkSpec {
            delay: Duration::from_micros(12_500),
            bandwidth: Some(125_000_000),
            ..Default::default()
        }
    }

    /// Transatlantic path, ≈150 ms RTT: "USA(BNL) ↔ CERN" (latency < 300 ms).
    pub fn wan() -> Self {
        LinkSpec {
            delay: Duration::from_micros(75_000),
            bandwidth: Some(125_000_000),
            ..Default::default()
        }
    }

    /// Same-host loopback.
    fn loopback() -> Self {
        LinkSpec { delay: Duration::from_micros(10), bandwidth: None, ..Default::default() }
    }

    fn resolve_max_cwnd(&self) -> u64 {
        match self.max_cwnd {
            Some(m) => m.max(self.init_cwnd),
            None => match self.bandwidth {
                Some(bw) => {
                    let rtt_ns = 2 * dur_ns(self.delay) as u128;
                    let bdp = (bw as u128 * rtt_ns / 1_000_000_000) as u64;
                    (2 * bdp).clamp(64 * 1024, 16 * 1024 * 1024).max(self.init_cwnd)
                }
                None => 4 * 1024 * 1024,
            },
        }
    }

    fn tx_ns(&self, bytes: u64) -> u64 {
        match self.bandwidth {
            Some(bw) if bw > 0 => (bytes as u128 * 1_000_000_000 / bw as u128) as u64,
            _ => 0,
        }
    }

    /// This link with a TLS-1.2-like setup cost (3 round trips total).
    pub fn with_tls_handshake(self) -> Self {
        LinkSpec { handshake_rtts: 3, ..self }
    }

    /// This link with Nagle + a 40 ms delayed-ACK timer (the classic
    /// pathological pairing for pipelined small writes).
    pub fn with_nagle(self) -> Self {
        LinkSpec { nagle: true, delayed_ack: Some(Duration::from_millis(40)), ..self }
    }
}

/// TCP maximum segment size used by the Nagle / delayed-ACK models.
const MSS: u64 = 1460;

/// Aggregate counters maintained by the simulator.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    /// Connections successfully initiated (`connect` calls that got a SYN out).
    pub conns_created: u64,
    /// Payload bytes handed to the network by senders.
    pub bytes_sent: u64,
    /// Payload bytes delivered to receive buffers.
    pub bytes_delivered: u64,
    /// Connections initiated towards each destination host.
    pub conns_per_host: HashMap<String, u64>,
}

/// Per-direction connection state. Direction `d` carries bytes written by
/// endpoint `d` (0 = the connecting client, 1 = the accepting server).
struct DirState {
    cwnd: u64,
    inflight: u64,
    max_cwnd: u64,
    delay_ns: u64,
    spec: LinkSpec,
    rbuf: VecDeque<Vec<u8>>,
    rbuf_front_off: usize,
    rbuf_len: usize,
    fin: bool,
    fin_sent: bool,
    /// When the last segment scheduled on this direction arrives.
    last_arrival: u64,
    /// Happens-before clock for message delivery on this direction: the
    /// delivering thread releases when payload lands in `rbuf`, the reader
    /// acquires when it drains — so "data I wrote before send is visible
    /// after recv" is a modeled edge, not just a state-lock side effect.
    race: davix_sync::race::SyncObj,
}

impl DirState {
    fn new(spec: LinkSpec) -> Self {
        DirState {
            cwnd: spec.init_cwnd,
            inflight: 0,
            max_cwnd: spec.resolve_max_cwnd(),
            delay_ns: dur_ns(spec.delay),
            spec,
            rbuf: VecDeque::new(),
            rbuf_front_off: 0,
            rbuf_len: 0,
            fin: false,
            fin_sent: false,
            last_arrival: 0,
            race: davix_sync::race::SyncObj::new(),
        }
    }

    /// Copy buffered bytes out of the receive buffer into `buf`.
    fn drain_into(&mut self, buf: &mut [u8]) -> usize {
        // Delivery edge: everything the delivering thread did before the
        // payload landed happens-before this read.
        self.race.acquire();
        let mut n = 0;
        while n < buf.len() && self.rbuf_len > 0 {
            let chunk = self.rbuf.front().expect("nonempty rbuf");
            let off = self.rbuf_front_off;
            let take = (chunk.len() - off).min(buf.len() - n);
            buf[n..n + take].copy_from_slice(&chunk[off..off + take]);
            n += take;
            self.rbuf_front_off += take;
            self.rbuf_len -= take;
            if self.rbuf_front_off == chunk.len() {
                self.rbuf.pop_front();
                self.rbuf_front_off = 0;
            }
        }
        n
    }
}

struct Conn {
    hosts: [u32; 2],
    established: bool,
    refused: bool,
    reset: bool,
    open_handles: [u32; 2],
    dirs: [DirState; 2],
}

struct HostState {
    name: String,
    down: bool,
}

struct ListenerState {
    open: bool,
    backlog: VecDeque<usize>,
}

/// What [`Links::send_segment`] did with the bytes it was offered.
pub(super) enum Sent {
    /// This many bytes went onto the wire as one segment.
    Segment(usize),
    /// Nothing can go yet; the blocking writer waits on this.
    Blocked(WaitKind),
}

/// Hosts, links, listeners and connections.
#[derive(Default)]
pub(super) struct Links {
    hosts: Vec<HostState>,
    host_by_name: HashMap<String, u32>,
    specs: HashMap<(u32, u32), LinkSpec>,
    pub(super) default_link: LinkSpec,
    /// When each direction of a host pair is done with the transmissions
    /// queued on it.
    link_busy: HashMap<(u32, u32), u64>,
    listeners: HashMap<(u32, u16), ListenerState>,
    conns: Slab<Conn>,
    pub(super) stats: NetStats,
}

impl Links {
    /// Add a host (idempotent).
    pub(super) fn add_host(&mut self, name: &str) {
        if !self.host_by_name.contains_key(name) {
            self.host_by_name.insert(name.to_string(), self.hosts.len() as u32);
            self.hosts.push(HostState { name: name.to_string(), down: false });
        }
    }

    pub(super) fn host_id(&self, name: &str) -> io::Result<u32> {
        self.host_by_name.get(name).copied().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("unknown host {name:?}"))
        })
    }

    /// Configure the symmetric link between hosts `a` and `b`. Panics on
    /// unknown hosts.
    pub(super) fn set_link(&mut self, a: &str, b: &str, spec: LinkSpec) {
        let ia = self.host_id(a).expect("set_link: unknown host");
        let ib = self.host_id(b).expect("set_link: unknown host");
        self.specs.insert((ia, ib), spec);
        self.specs.insert((ib, ia), spec);
    }

    fn spec(&self, a: u32, b: u32) -> LinkSpec {
        if a == b {
            return self.specs.get(&(a, b)).copied().unwrap_or_else(LinkSpec::loopback);
        }
        self.specs.get(&(a, b)).copied().unwrap_or(self.default_link)
    }

    /// Take host `id` down — clearing its listener backlogs — or bring it
    /// back. Returns the live connections it touches, which the caller
    /// resets (none when it comes back); `None` for an unknown host.
    pub(super) fn set_host_down(&mut self, id: u32, down: bool) -> Option<Vec<usize>> {
        self.hosts.get_mut(id as usize)?.down = down;
        if !down {
            return Some(Vec::new());
        }
        for ((host, _), l) in self.listeners.iter_mut() {
            if *host == id {
                l.backlog.clear();
            }
        }
        let live = self.conns.iter().filter(|(_, c)| !c.reset && c.hosts.contains(&id));
        Some(live.map(|(cid, _)| cid).collect())
    }

    /// Mark `cid` reset; `false` when it already was (or is unknown).
    pub(super) fn mark_reset(&mut self, cid: usize) -> bool {
        match self.conns.get_mut(cid) {
            Some(c) if !c.reset => {
                c.reset = true;
                true
            }
            _ => false,
        }
    }

    /// Payload lands in the receive buffer of `(conn, dir)`; `false` when
    /// the connection is gone or reset.
    pub(super) fn on_deliver(&mut self, conn: usize, dir: usize, data: Vec<u8>) -> bool {
        let Some(c) = self.conns.get_mut(conn).filter(|c| !c.reset) else { return false };
        let d = &mut c.dirs[dir];
        d.rbuf_len += data.len();
        self.stats.bytes_delivered += data.len() as u64;
        d.rbuf.push_back(data);
        d.race.release();
        true
    }

    /// An ACK returns to the sender of `(conn, dir)` and opens its window;
    /// `false` when the connection is gone or reset.
    pub(super) fn on_ack(&mut self, conn: usize, dir: usize, bytes: u64) -> bool {
        let Some(c) = self.conns.get_mut(conn).filter(|c| !c.reset) else { return false };
        let d = &mut c.dirs[dir];
        d.inflight = d.inflight.saturating_sub(bytes);
        d.cwnd = (d.cwnd + bytes).min(d.max_cwnd);
        true
    }

    /// A SYN reaches `host:port`: queued on the listener backlog (`true`),
    /// or refused because the host is down or nobody listens there
    /// (`false`; the caller resets the connection).
    pub(super) fn on_syn(&mut self, conn: usize, host: u32, port: u16) -> bool {
        let host_up = self.hosts.get(host as usize).is_some_and(|h| !h.down);
        match self.listeners.get_mut(&(host, port)).filter(|l| l.open) {
            Some(l) if host_up => {
                l.backlog.push_back(conn);
                true
            }
            _ => false,
        }
    }

    /// The handshake ends: refused, or established unless the connection
    /// died meanwhile.
    pub(super) fn on_handshake(&mut self, conn: usize, refused: bool) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.refused |= refused;
            c.established |= !c.reset && !c.refused;
        }
    }

    /// A FIN reaches the reader of `(conn, dir)`; `false` when the
    /// connection is gone.
    pub(super) fn on_fin(&mut self, conn: usize, dir: usize) -> bool {
        let Some(c) = self.conns.get_mut(conn) else { return false };
        c.dirs[dir].fin = true;
        true
    }

    /// Create the record of a connection from `from_host` to
    /// `to_host:port` and schedule its handshake — or, when the host is
    /// down, nobody listens or the fault plan blackholes the SYN, its
    /// refusal one RTT out.
    pub(super) fn open_conn(
        &mut self,
        ev: &mut Events,
        fault: Option<&mut FaultState>,
        from_host: &str,
        to_host: &str,
        port: u16,
    ) -> io::Result<usize> {
        let a = self.host_id(from_host)?;
        let b = self.host_id(to_host)?;
        let spec = self.spec(a, b);
        let rtt = 2 * dur_ns(spec.delay);
        let cid = self.conns.insert(Conn {
            hosts: [a, b],
            established: false,
            refused: false,
            reset: false,
            open_handles: [1, 0],
            dirs: [DirState::new(spec), DirState::new(spec)],
        });
        self.stats.conns_created += 1;
        *self.stats.conns_per_host.entry(to_host.to_string()).or_insert(0) += 1;

        let reachable =
            !self.hosts[b as usize].down && self.listeners.get(&(b, port)).is_some_and(|l| l.open);
        // Only a connect that would otherwise succeed can be fault-refused.
        let fault_refused = reachable && fault.is_some_and(|f| f.refuses_connect(cid));
        if fault_refused {
            ev.note(format!("fault connect-refuse c{cid}"));
        }
        let now = ev.now_ns();
        if !reachable || fault_refused {
            // Refusal costs one RTT (SYN out, RST back).
            ev.schedule(now + rtt, EventKind::Refuse { conn: cid });
        } else {
            // Setup costs `handshake_rtts` round trips: 1 for TCP, more when
            // the link models a TLS-style negotiation on top.
            let setup = rtt * u64::from(spec.handshake_rtts.max(1));
            ev.schedule(
                now + dur_ns(spec.delay),
                EventKind::SynArrive { conn: cid, host: b, port },
            );
            ev.schedule(now + setup, EventKind::Established { conn: cid });
        }
        Ok(cid)
    }

    /// Where `cid`'s handshake stands: `Some(true)` established,
    /// `Some(false)` still in flight, `None` refused or reset.
    pub(super) fn handshake(&self, cid: usize) -> Option<bool> {
        let c = self.conns.get(cid).expect("conn alive");
        (!c.reset && !c.refused).then_some(c.established)
    }

    /// The TCP send model, once: put as much of `bufs` — one write call's
    /// worth, taken as their concatenation — as the congestion window (and
    /// Nagle) allow onto `conn`'s wire from `side` as a single segment,
    /// occupying the link and scheduling its delivery and ACK.
    pub(super) fn send_segment(
        &mut self,
        ev: &mut Events,
        fault: Option<&mut FaultState>,
        conn: usize,
        side: usize,
        bufs: &[io::IoSlice<'_>],
    ) -> io::Result<Sent> {
        let dir = side;
        let offered: usize = bufs.iter().map(|b| b.len()).sum();
        let c = self.conns.get_mut(conn).expect("conn alive");
        if c.reset {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "connection reset by peer"));
        }
        if c.refused {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "connection refused"));
        }
        // The connecting side cannot transmit before the handshake finishes
        // (streams from `connect_start` may still be in it); the
        // Established/Refuse event fires the side-0 waker.
        if side == 0 && !c.established {
            return Ok(Sent::Blocked(WaitKind::ConnectDone { conn }));
        }
        let d = &mut c.dirs[dir];
        if d.fin_sent {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "write after shutdown"));
        }
        let mut avail = d.cwnd.saturating_sub(d.inflight);
        // Nagle: hold a sub-MSS tail while anything is in flight (it will
        // coalesce with later writes or go out on the ACK).
        if d.spec.nagle && d.inflight > 0 && (offered as u64) < MSS {
            avail = 0;
        }
        if avail == 0 {
            return Ok(Sent::Blocked(WaitKind::Window { conn, dir }));
        }
        let k = (avail as usize).min(offered);
        d.inflight += k as u64;
        let (delay_ns, spec) = (d.delay_ns, d.spec);
        self.stats.bytes_sent += k as u64;
        let busy = self.link_busy.entry((c.hosts[dir], c.hosts[1 - dir])).or_insert(0);
        let start = (*busy).max(ev.now_ns());
        let tx = spec.tx_ns(k as u64);
        *busy = start + tx;
        let mut arrive = start + tx + delay_ns;
        if let Some(f) = fault {
            match f.segment_fate(conn, dir) {
                Delivery::Pass => {}
                Delivery::Delay(extra) => {
                    ev.note(format!("fault delay c{conn}.{dir} +{extra}ns"));
                    arrive += extra;
                }
                Delivery::Drop => {
                    // No retransmission in a lossless model: the drop
                    // surfaces as a reset at the would-be arrival.
                    ev.note(format!("fault drop c{conn}.{dir}"));
                    ev.schedule(arrive, EventKind::FaultReset { conn });
                    return Ok(Sent::Segment(k));
                }
            }
            // Jitter must not reorder the in-order byte stream: a delayed
            // segment holds back everything queued behind it (head-of-line
            // blocking — how reordering pressure manifests in a stream model).
            arrive = arrive.max(d.last_arrival + 1);
        }
        d.last_arrival = arrive;
        let mut data = Vec::with_capacity(k);
        for buf in bufs {
            data.extend_from_slice(&buf[..buf.len().min(k - data.len())]);
        }
        ev.schedule(arrive, EventKind::Deliver { conn, dir, data });
        // Delayed ACK: a sub-MSS segment's ACK sits on the receiver's timer
        // (real stacks ACK every second full segment immediately).
        let ack_hold = match spec.delayed_ack {
            Some(t) if (k as u64) < MSS => dur_ns(t),
            _ => 0,
        };
        ev.schedule(arrive + ack_hold + delay_ns, EventKind::Ack { conn, dir, bytes: k as u64 });
        Ok(Sent::Segment(k))
    }

    /// The receive side, once: bytes already delivered to `side` of `conn`,
    /// `Ok(Some(0))` at end of stream, `Ok(None)` when nothing has arrived.
    pub(super) fn recv_ready(
        &mut self,
        conn: usize,
        side: usize,
        buf: &mut [u8],
    ) -> io::Result<Option<usize>> {
        let c = self.conns.get_mut(conn).expect("conn alive");
        let d = &mut c.dirs[1 - side];
        if d.rbuf_len > 0 {
            return Ok(Some(d.drain_into(buf)));
        }
        if c.reset {
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "connection reset"));
        }
        if c.refused {
            return Err(io::Error::new(io::ErrorKind::ConnectionRefused, "connection refused"));
        }
        Ok(d.fin.then_some(0))
    }

    /// Schedule the FIN of `side`'s direction of `conn` behind what the
    /// link still carries, and no earlier than the direction's last
    /// segment (a tie applies in schedule order, so the data lands first);
    /// a no-op once sent or after a reset.
    pub(super) fn send_fin(&mut self, ev: &mut Events, conn: usize, side: usize) {
        let Some(c) = self.conns.get_mut(conn) else { return };
        let d = &mut c.dirs[side];
        let already = d.fin_sent || c.reset;
        d.fin_sent = true;
        if already {
            return;
        }
        let busy = self.link_busy.get(&(c.hosts[side], c.hosts[1 - side])).copied().unwrap_or(0);
        let at = (busy.max(ev.now_ns()) + d.delay_ns).max(d.last_arrival);
        ev.schedule(at, EventKind::Fin { conn, dir: side });
    }

    /// One more handle on endpoint `side` of `conn`.
    pub(super) fn add_handle(&mut self, conn: usize, side: usize) {
        if let Some(c) = self.conns.get_mut(conn) {
            c.open_handles[side] += 1;
        }
    }

    /// One handle on endpoint `side` of `conn` fewer; `true` when it was
    /// the last, whose drop sends the FIN.
    pub(super) fn drop_handle(&mut self, conn: usize, side: usize) -> bool {
        let Some(c) = self.conns.get_mut(conn) else { return false };
        c.open_handles[side] = c.open_handles[side].saturating_sub(1);
        c.open_handles[side] == 0
    }

    /// Open a listener on `host:port`; `false` when one is open there.
    pub(super) fn bind_listener(&mut self, host: u32, port: u16) -> bool {
        if self.listeners.get(&(host, port)).is_some_and(|l| l.open) {
            return false;
        }
        self.listeners.insert((host, port), ListenerState { open: true, backlog: VecDeque::new() });
        true
    }

    /// The first backlog entry of `host:port` that was not reset while it
    /// queued, as its connection and the peer's host name (one more
    /// server-side handle); `Ok(None)` when the backlog is empty.
    pub(super) fn pop_backlog(
        &mut self,
        host: u32,
        port: u16,
    ) -> io::Result<Option<(usize, String)>> {
        loop {
            let l =
                self.listeners.get_mut(&(host, port)).filter(|l| l.open).ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotConnected, "listener closed")
                })?;
            let Some(cid) = l.backlog.pop_front() else { return Ok(None) };
            let c = self.conns.get_mut(cid).expect("conn alive");
            if c.reset {
                continue;
            }
            c.open_handles[1] += 1;
            return Ok(Some((cid, self.hosts[c.hosts[0] as usize].name.clone())));
        }
    }

    /// Close the listener on `host:port`; returns its backlog, which the
    /// caller resets.
    pub(super) fn close_listener(&mut self, host: u32, port: u16) -> Vec<usize> {
        match self.listeners.get_mut(&(host, port)) {
            Some(l) => {
                l.open = false;
                l.backlog.drain(..).collect()
            }
            None => Vec::new(),
        }
    }
}
