//! # rootio — a ROOT-like columnar event file format with TreeCache
//!
//! The paper's workload is a High-Energy-Physics analysis: ROOT files hold
//! *trees* of particle events, split per-branch into compressed *baskets*;
//! reading a set of branches over many events produces thousands of small
//! fragmented reads, which ROOT's `TTreeCache` gathers into vectored
//! requests handed to the I/O layer (davix's `pread_vec` / XRootD's
//! `readv`) — see §2.3 and Figure 3 of the paper.
//!
//! This crate reproduces that stack from scratch:
//!
//! * [`codec`]: an LZSS-style block compressor with CRC-checked framing
//!   (stands in for ROOT's zlib usage);
//! * [`model`]: an event schema (kinematics + sparse calorimeter cells) and
//!   a seeded generator producing realistically compressible data;
//! * [`writer`] / [`reader`]: the `RTTF` container — header, per-branch
//!   baskets, basket index, footer — readable over any
//!   [`ioapi::RandomAccess`] source (local bytes, davix, xrdlite);
//! * [`cache`]: the `TreeCache` — plans basket fetches for a window of
//!   upcoming events, coalesces them into one vectored read, and
//!   optionally *prefetches the next window* on a runtime thread, over any
//!   source, so compute overlaps the network;
//! * [`analysis`]: histograms and the invariant-mass analysis job used by
//!   the Figure 4 reproduction, with a virtual-time CPU cost model.
//!
//! `unsafe` is allowed in one module only: the x86-64 LZSS kernel
//! (`codec::x86`), where every block carries a `// SAFETY:` comment.

#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod analysis;
pub mod cache;
pub mod codec;
pub mod model;
pub mod reader;
pub mod writer;

pub use analysis::{AnalysisJob, Histogram, JobReport};
pub use cache::{TreeCache, TreeCacheOptions, Window};
pub use model::{BranchDef, BranchKind, EventBatch, Generator, Schema};
pub use reader::TreeReader;
pub use writer::{write_tree, WriterOptions};

/// File magic for the container format.
pub const MAGIC: &[u8; 4] = b"RTTF";
/// Container format version.
pub(crate) const FORMAT_VERSION: u16 = 1;
