//! # netsim — deterministic virtual-time network simulation
//!
//! The libdavix paper evaluates HTTP I/O over three real networks (CERN LAN,
//! GEANT to Glasgow, transatlantic to BNL with < 5 ms / < 50 ms / < 300 ms
//! latency). Reproducing those conditions needs a network we can control, so
//! this crate provides a **discrete-event simulator with virtual time**:
//!
//! * hosts connected by links with configurable one-way delay and bandwidth;
//! * a TCP cost model: connection handshake (1 RTT), slow start
//!   (byte-counted congestion-window growth from `init_cwnd` towards
//!   `max_cwnd`, i.e. doubling per RTT), window-limited sending, FIFO
//!   per-direction link serialization, FIN/RST teardown;
//! * blocking [`std::io::Read`]/[`std::io::Write`] streams and listeners so
//!   ordinary synchronous protocol code runs unmodified on top of it;
//! * virtual time: a 300 ms RTT costs nothing to simulate, and timings are
//!   reproducible run to run — with a single-threaded [`Reactor`] driving
//!   all actors the whole event trace is bit-identical per seed
//!   ([`SimNet::record_trace`]/[`SimNet::take_trace`]); with free OS
//!   threads, interleavings affect event *insertion* order only when two
//!   threads race on the same link.
//!
//! The simulator coordinates real OS threads through a cooperative
//! scheduler (see [`sim`] for the full protocol): threads spawned through
//! [`SimNet::spawn`] (or covered by a [`SimNet::enter`] guard) are
//! *registered* — each parks on its own token, wakes are exact-key lookups
//! rather than broadcasts, and virtual time only advances when every
//! registered thread is parked, moved by whichever of them parked last (a
//! net owns no thread of its own), which keeps the clock honest at c10k+
//! waiter counts. The last runnable thread starting a timed wait (a sleep,
//! a read, connect or signal timeout) that no scheduled event precedes or
//! ties does not park at all: it moves the clock to its own deadline and
//! returns timed out, which is the instant parking would have reached.
//! Blocking primitives are the streams themselves,
//! [`SimNet::sleep`] and the [`Signal`]s handed out by the [`Runtime`] —
//! protocol libraries must use those instead of bare condition variables
//! so the simulator can see them, and must not hold a bare mutex across a
//! stream write that can stall on the TCP window (threads queued on that
//! mutex look runnable, so the clock never moves; xrdlite's client gives
//! its connection one registered writer thread instead, and the servers
//! block nowhere: their connections are [`Driven`] tasks on a
//! [`ServerCore`]'s reactor). For dense workloads,
//! [`simclient`] runs whole client populations as event-driven
//! [`simclient::ClientSession`] state machines on a [`Reactor`] instead of
//! one thread per client.
//!
//! The same [`transport`] traits are implemented over real TCP sockets in
//! [`tcp`], so everything built on top (the davix client, the storage server,
//! the xrdlite baseline) runs identically on loopback sockets.
//!
//! ```
//! use netsim::{SimNet, LinkSpec};
//! use std::io::{Read, Write};
//! use std::time::Duration;
//!
//! let net = SimNet::new();
//! net.add_host("client");
//! net.add_host("server");
//! net.set_link("client", "server", LinkSpec::lan());
//!
//! let listener = net.bind("server", 80).unwrap();
//! net.spawn("server", move || {
//!     let (mut s, _) = listener.accept_sim().unwrap();
//!     let mut buf = [0u8; 4];
//!     s.read_exact(&mut buf).unwrap();
//!     s.write_all(b"pong").unwrap();
//! });
//!
//! let _guard = net.enter();
//! let mut c = net.connect("client", "server", 80).unwrap();
//! c.write_all(b"ping").unwrap();
//! let mut buf = [0u8; 4];
//! c.read_exact(&mut buf).unwrap();
//! assert_eq!(&buf, b"pong");
//! assert!(net.now() >= Duration::from_millis(1)); // at least 2 LAN RTTs
//! ```

pub mod fault;
pub mod race;
pub mod reactor;
pub mod sim;
pub mod simclient;
mod slab;
pub mod tcp;
pub mod transport;

pub use fault::{FaultPlan, FaultStats, SplitRng};
pub use reactor::{DriveOutcome, Driven, Reactor, ReactorConfig, ServerCore, TimerWheel};
pub use sim::{LinkSpec, NetStats, SchedStats, SimListener, SimNet, SimRuntime, SimStream};
pub use simclient::{ClientSession, ClientTask, ConnectFn, Fleet, SessionPoll};
pub use tcp::{RealRuntime, TcpConnector, TcpListenerWrap, TcpStreamWrap};
pub use transport::{BoxedStream, Connector, Listener, Pollable, Runtime, Signal, Stream};
