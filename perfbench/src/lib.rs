//! # perfbench — what the davix reproduction costs in real time
//!
//! The figure/table binaries of `crates/bench` reproduce the paper's claims
//! in *virtual* time; this package measures what the code costs on real
//! hardware, end to end and layer by layer, from outside the crates:
//!
//! * five workloads ([`workload::SPECS`]) — four on loopback TCP with
//!   client and server sharing the process, one on the simulator;
//! * seven end-to-end metrics per workload ([`metrics::END_TO_END`]),
//!   measured with tracing off;
//! * a per-layer ledger ([`metrics::PER_LAYER`]) from a separate traced
//!   run: span wrappers over the crates' public traits ([`wrap`]), the
//!   counters the crates already export, extra arms ([`arms`]) and isolated
//!   probes ([`probes`]).
//!
//! See `README.md` in this directory for the glossary and how to run it.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!(
    "perfbench reads /proc and calls Linux system calls: it builds for 64-bit Linux only"
);

pub mod arms;
pub mod cli;
pub mod gen;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod report;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workload;
pub mod wrap;
