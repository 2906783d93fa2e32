//! # xrdlite — an XRootD-like binary data-access protocol (the baseline)
//!
//! The paper benchmarks libdavix against **XRootD**, crediting three features
//! for XRootD's advantage on high-latency links (§2.2, §3):
//!
//! 1. its own **I/O multiplexing**: many outstanding requests on one TCP
//!    connection, matched to callers by stream ID;
//! 2. **vectored reads** (`kXR_readv`): many fragments in one round trip;
//! 3. a **sliding-window buffering algorithm** (client-side read-ahead):
//!    data for upcoming reads is requested *asynchronously*, overlapping
//!    network latency with application compute.
//!
//! `xrdlite` reproduces the first two over a compact binary framing
//! ([`wire`]), with a server ([`server`]) that fronts the same
//! [`objstore::ObjectStore`] the HTTP nodes serve — so benchmark comparisons
//! hit identical data. The third is where ROOT keeps it, in the
//! `TTreeCache`: `rootio::TreeCache` prefetches the next window of baskets
//! on a runtime thread over any source, this one and davix alike.
//!
//! It deliberately does *not* reproduce the rest of XRootD (authentication,
//! federation/redirection, third-party copy): the paper's evaluation
//! exercises none of that, and davix's Metalink layer plays the federation
//! role on the HTTP side.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

pub mod client;
mod mux;
pub mod server;
pub mod wire;

pub use client::{XrdClient, XrdClientOptions, XrdFile};
pub use server::XrdServer;
