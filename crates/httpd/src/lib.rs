//! # httpd — an embeddable event-driven HTTP/1.1 server
//!
//! The server side of the reproduction: storage nodes (`objstore`) and the
//! federation service (`dynafed`) mount [`Handler`]s on this server and run
//! it over either the simulated network or real TCP (anything implementing
//! [`netsim::Listener`]).
//!
//! ## Architecture: a c10k reactor, not a thread per connection
//!
//! One accept thread per listener feeds a shared [`netsim::Reactor`] —
//! both are [`netsim::ServerCore`]'s, the core the xrdlite server runs on
//! too; a fixed budget of shard threads ([`ServerConfig::reactor_threads`],
//! default 2) drives *every* connection, so a thousand keep-alive clients
//! cost a thousand connection state machines but only that fixed thread
//! count (the `fig7_c10k` bench asserts exactly this). Each connection is a
//! non-blocking state machine (`conn.rs`): Idle → Head → Body → Respond →
//! Closing, advanced only when the reactor reports readiness. Deadlines —
//! keep-alive idle ([`ServerConfig::idle_timeout`], closed silently),
//! slowloris eviction ([`ServerConfig::header_read_timeout`], answered
//! `408`), simulated processing delay ([`ServerConfig::process_delay`]) and
//! the close-drain grace — all live on the reactor's hashed timer wheel,
//! never in a sleeping thread, which is also what lets them behave
//! identically over simulated streams (where `set_read_timeout` has no
//! uniform meaning) and real sockets. Accept backpressure
//! ([`ServerConfig::max_connections`]) pauses the accept loop, pushing
//! overload into the listener's backlog instead of into memory.
//!
//! Protocol behaviour is deliberately *spec-faithful* rather than clever:
//!
//! * **keep-alive** per RFC 7230 §6.3 (HTTP/1.1 persistent by default,
//!   `Connection: close` honoured, optional server-imposed request cap to
//!   emulate the "aggressive pipeline interruptions" the paper complains
//!   about);
//! * **pipelining**: requests are read and answered strictly in order on a
//!   connection — which is exactly what gives HTTP/1.1 pipelining its
//!   head-of-line blocking problem (§2.2, Figure 1). The F1 experiment
//!   measures this server doing precisely that;
//! * responses carry `Content-Length`; oversized request heads get `431`,
//!   malformed ones `400`, and a client that stalls mid-request gets `408`
//!   from the timer wheel.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod conn;
pub mod server;

pub use server::{Handler, HttpServer, Request, Response, ServerConfig, ServerStats};
