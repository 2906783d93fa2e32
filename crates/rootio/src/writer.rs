//! Writing `RTTF` tree files.
//!
//! Layout (little-endian):
//!
//! ```text
//! header : MAGIC "RTTF" | version:u16 | n_branches:u16 | n_events:u64
//!        | events_per_basket:u32
//! dict   : per branch: name_len:u16 name kind:u8 param:u32
//! data   : baskets, written in event-window order — for each window of
//!          `events_per_basket` events, one compressed basket per branch,
//!          adjacent on disk (like ROOT, this gives a TreeCache spatial
//!          locality to coalesce)
//! index  : n_baskets:u32, then per basket:
//!          branch:u16 first_event:u64 n_events:u32 offset:u64 len:u32
//! footer : index_offset:u64 index_len:u64 MAGIC
//! ```

use crate::codec;
use crate::model::{BranchKind, Generator};
use crate::{FORMAT_VERSION, MAGIC};

/// Writer knobs.
#[derive(Debug, Clone)]
pub struct WriterOptions {
    /// Events per basket (per branch).
    pub events_per_basket: usize,
    /// Compress baskets (disable for incompressibility experiments).
    pub compress: bool,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions { events_per_basket: 200, compress: true }
    }
}

/// Size of the fixed footer.
pub const FOOTER_LEN: usize = 8 + 8 + 4;
/// Size of the fixed header that precedes the dictionary.
pub(crate) const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 4;

fn kind_tag(kind: BranchKind) -> (u8, u32) {
    match kind {
        BranchKind::F32 => (0, 0),
        BranchKind::I8 => (1, 0),
        BranchKind::U16 => (2, 0),
        BranchKind::I16Array(n) => (3, n as u32),
    }
}

/// Generate `n_events` events and serialize the whole tree file into memory.
pub fn write_tree(generator: &mut Generator, n_events: u64, opts: &WriterOptions) -> Vec<u8> {
    let schema = generator.schema().clone();
    let mut out = Vec::new();

    // header
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(schema.branches.len() as u16).to_le_bytes());
    out.extend_from_slice(&n_events.to_le_bytes());
    out.extend_from_slice(&(opts.events_per_basket as u32).to_le_bytes());

    // dict
    for b in &schema.branches {
        out.extend_from_slice(&(b.name.len() as u16).to_le_bytes());
        out.extend_from_slice(b.name.as_bytes());
        let (tag, param) = kind_tag(b.kind);
        out.push(tag);
        out.extend_from_slice(&param.to_le_bytes());
    }

    // baskets, window-interleaved
    struct IndexEntry {
        branch: u16,
        first_event: u64,
        n_events: u32,
        offset: u64,
        len: u32,
    }
    let mut index: Vec<IndexEntry> = Vec::new();
    let mut first_event = 0u64;
    while first_event < n_events {
        let batch_n = opts.events_per_basket.min((n_events - first_event) as usize);
        let batch = generator.batch(batch_n);
        for (bi, col) in batch.columns.iter().enumerate() {
            let blob = if opts.compress { codec::compress(col) } else { codec::store(col) };
            index.push(IndexEntry {
                branch: bi as u16,
                first_event,
                n_events: batch_n as u32,
                offset: out.len() as u64,
                len: blob.len() as u32,
            });
            out.extend_from_slice(&blob);
        }
        first_event += batch_n as u64;
    }

    // index
    let index_offset = out.len() as u64;
    out.extend_from_slice(&(index.len() as u32).to_le_bytes());
    for e in &index {
        out.extend_from_slice(&e.branch.to_le_bytes());
        out.extend_from_slice(&e.first_event.to_le_bytes());
        out.extend_from_slice(&e.n_events.to_le_bytes());
        out.extend_from_slice(&e.offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
    }
    let index_len = out.len() as u64 - index_offset;

    // footer
    out.extend_from_slice(&index_offset.to_le_bytes());
    out.extend_from_slice(&index_len.to_le_bytes());
    out.extend_from_slice(MAGIC);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Schema;

    #[test]
    fn file_structure_is_sane() {
        let mut g = Generator::new(Schema::hep(16), 1);
        let bytes = write_tree(&mut g, 1000, &WriterOptions::default());
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC);
        // Compression should beat raw width for the sparse schema.
        let raw = 1000 * Schema::hep(16).event_width();
        assert!(bytes.len() < raw, "{} vs raw {}", bytes.len(), raw);
    }

    #[test]
    fn deterministic_output() {
        let a = write_tree(&mut Generator::new(Schema::hep(8), 5), 500, &WriterOptions::default());
        let b = write_tree(&mut Generator::new(Schema::hep(8), 5), 500, &WriterOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    fn uncompressed_mode_is_larger() {
        let opts_c = WriterOptions { compress: true, ..Default::default() };
        let opts_u = WriterOptions { compress: false, ..Default::default() };
        let c = write_tree(&mut Generator::new(Schema::hep(32), 5), 500, &opts_c);
        let u = write_tree(&mut Generator::new(Schema::hep(32), 5), 500, &opts_u);
        assert!(u.len() > c.len());
    }

    #[test]
    fn uncompressed_trees_are_the_bytes_they_always_were() {
        // Length and CRC-32 of trees written with `compress: false` at the
        // commit that still had the writer's own raw-frame code.
        for (branches, seed, n_events, events_per_basket, len, crc) in
            [(16, 5, 500, 200, 26_501, 0x0cfc_071a), (256, 2014, 1_200, 40, 646_139, 0xd9e6_9042)]
        {
            let opts = WriterOptions { events_per_basket, compress: false };
            let bytes =
                write_tree(&mut Generator::new(Schema::hep(branches), seed), n_events, &opts);
            assert_eq!(
                (bytes.len(), ioapi::checksum::crc32(&bytes)),
                (len, crc),
                "hep({branches}), seed {seed}"
            );
        }
    }

    #[test]
    fn partial_final_basket() {
        let opts = WriterOptions { events_per_basket: 300, compress: true };
        let mut g = Generator::new(Schema::hep(4), 2);
        // 1000 events → baskets of 300/300/300/100
        let bytes = write_tree(&mut g, 1000, &opts);
        assert_eq!(&bytes[bytes.len() - 4..], MAGIC);
    }
}
