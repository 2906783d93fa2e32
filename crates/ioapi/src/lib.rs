//! # ioapi — shared random-access I/O abstractions
//!
//! The paper's consumers (the ROOT-style analysis in `rootio`) read *files*
//! through positional and vectored reads, while the producers (`davix` over
//! HTTP, `xrdlite` over its binary protocol, plain in-memory buffers) differ
//! wildly in transport. [`RandomAccess`] is the seam between them, with
//! [`IoStats`] exposing the counters the paper's arguments hinge on: how many
//! network round trips did a given access pattern cost?

// `unsafe` is confined to the x86-64 checksum kernels
// (`checksum::x86`), the one module that allows it; every block there
// carries a `// SAFETY:` comment.
#![deny(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod checksum;

use bytes::Bytes;
use davix_sync::{AtomicU64, Ordering};
use std::io;
use std::sync::Arc;

/// Positional, thread-safe, random-access reads over some byte source.
///
/// All methods take `&self`: implementations multiplex internally (connection
/// pools, stream IDs), so one handle can serve many reader threads — the
/// "highly parallel I/O" requirement of §1.
pub trait RandomAccess: Send + Sync {
    /// Total size of the entity in bytes.
    fn size(&self) -> io::Result<u64>;

    /// Read up to `buf.len()` bytes starting at `offset`. Returns the number
    /// of bytes read; `0` only at or past end of file. Short reads are
    /// allowed (callers use [`read_exact_at`](RandomAccess::read_exact_at)).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize>;

    /// Vectored positional read: fetch every `(offset, length)` fragment.
    ///
    /// The default implementation loops over [`read_at`](RandomAccess::read_at)
    /// (one logical round trip per fragment); remote implementations override
    /// this with a single packed request — the paper's §2.3 optimization.
    fn read_vec(&self, fragments: &[(u64, usize)]) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(fragments.len());
        for &(off, len) in fragments {
            let mut buf = vec![0u8; len];
            self.read_exact_at(off, &mut buf)?;
            out.push(buf);
        }
        Ok(out)
    }

    /// Hint that the caller will soon `read_vec` these fragments. No source
    /// in this workspace acts on it and nothing calls it: the default is a
    /// no-op, and `rootio::TreeCache` prefetches the next window itself,
    /// over any source.
    fn prefetch_vec(&self, _fragments: &[(u64, usize)]) {}

    /// Whether [`prefetch_vec`](RandomAccess::prefetch_vec) actually does
    /// anything for this source.
    fn supports_prefetch(&self) -> bool {
        false
    }

    /// Read exactly `buf.len()` bytes at `offset` or fail with
    /// [`io::ErrorKind::UnexpectedEof`].
    fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let mut done = 0usize;
        while done < buf.len() {
            let n = self.read_at(offset + done as u64, &mut buf[done..])?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("eof at offset {} ({} of {} bytes)", offset, done, buf.len()),
                ));
            }
            done += n;
        }
        Ok(())
    }

    /// Snapshot of the I/O counters for this source (zero if not tracked).
    fn stats(&self) -> IoStatsSnapshot {
        IoStatsSnapshot::default()
    }
}

/// Atomic I/O counters an implementation can embed.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Logical read operations issued by callers.
    pub reads: AtomicU64,
    /// Vectored read operations issued by callers.
    pub vector_reads: AtomicU64,
    /// Payload bytes returned to callers.
    pub bytes_read: AtomicU64,
    /// Network round trips actually performed (the paper's key metric).
    pub round_trips: AtomicU64,
}

impl IoStats {
    /// Record a scalar read of `bytes` that cost `round_trips` round trips.
    pub fn record_read(&self, bytes: u64, round_trips: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.round_trips.fetch_add(round_trips, Ordering::Relaxed);
    }

    /// Record a vectored read of `bytes` over `round_trips` round trips.
    pub fn record_vector_read(&self, bytes: u64, round_trips: u64) {
        self.vector_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.round_trips.fetch_add(round_trips, Ordering::Relaxed);
    }

    /// Current values.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            vector_reads: self.vector_reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`IoStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStatsSnapshot {
    /// Logical read operations.
    pub reads: u64,
    /// Vectored read operations.
    pub vector_reads: u64,
    /// Payload bytes returned.
    pub bytes_read: u64,
    /// Network round trips performed.
    pub round_trips: u64,
}

impl IoStatsSnapshot {
    /// Difference against an earlier snapshot.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            reads: self.reads - earlier.reads,
            vector_reads: self.vector_reads - earlier.vector_reads,
            bytes_read: self.bytes_read - earlier.bytes_read,
            round_trips: self.round_trips - earlier.round_trips,
        }
    }
}

/// In-memory implementation (the "local file" baseline, also used in tests).
#[derive(Debug, Clone)]
pub struct MemFile {
    data: Bytes,
    stats: Arc<IoStats>,
}

impl MemFile {
    /// Wrap a byte buffer.
    pub fn new(data: impl Into<Bytes>) -> Self {
        MemFile { data: data.into(), stats: Arc::new(IoStats::default()) }
    }

    /// Borrow the underlying bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }
}

impl RandomAccess for MemFile {
    fn size(&self) -> io::Result<u64> {
        Ok(self.data.len() as u64)
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let len = self.data.len() as u64;
        if offset >= len {
            return Ok(0);
        }
        let n = buf.len().min((len - offset) as usize);
        buf[..n].copy_from_slice(&self.data[offset as usize..offset as usize + n]);
        self.stats.record_read(n as u64, 0);
        Ok(n)
    }

    fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memfile_read_at_bounds() {
        let f = MemFile::new(&b"0123456789"[..]);
        assert_eq!(f.size().unwrap(), 10);
        let mut buf = [0u8; 4];
        assert_eq!(f.read_at(0, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"0123");
        assert_eq!(f.read_at(8, &mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"89");
        assert_eq!(f.read_at(10, &mut buf).unwrap(), 0);
        assert_eq!(f.read_at(11, &mut buf).unwrap(), 0);
    }

    #[test]
    fn read_exact_at_loops_and_errors_at_eof() {
        let f = MemFile::new(&b"abcdef"[..]);
        let mut buf = [0u8; 6];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
        let mut buf = [0u8; 3];
        let err = f.read_exact_at(5, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn default_read_vec_fetches_all_fragments() {
        let f = MemFile::new(&b"0123456789"[..]);
        let got = f.read_vec(&[(0, 2), (8, 2), (4, 1)]).unwrap();
        assert_eq!(got, vec![b"01".to_vec(), b"89".to_vec(), b"4".to_vec()]);
    }

    #[test]
    fn stats_accumulate_and_diff() {
        let s = IoStats::default();
        s.record_read(100, 1);
        s.record_vector_read(500, 1);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 1);
        assert_eq!(snap.vector_reads, 1);
        assert_eq!(snap.bytes_read, 600);
        assert_eq!(snap.round_trips, 2);
        s.record_read(1, 1);
        let d = s.snapshot().since(&snap);
        assert_eq!(d.reads, 1);
        assert_eq!(d.bytes_read, 1);
    }
}
