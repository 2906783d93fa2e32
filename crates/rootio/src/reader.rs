//! Reading `RTTF` tree files over any [`RandomAccess`] source.

use crate::codec;
use crate::model::{BranchDef, BranchKind, Schema};
use crate::writer::{FOOTER_LEN, HEADER_LEN};
use crate::MAGIC;
use ioapi::RandomAccess;
use std::io;
use std::sync::Arc;

/// Index record of one basket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasketInfo {
    /// Owning branch index.
    pub branch: u16,
    /// First event stored in the basket.
    pub first_event: u64,
    /// Number of events stored.
    pub n_events: u32,
    /// Byte offset of the compressed blob in the file.
    pub offset: u64,
    /// Compressed blob length.
    pub len: u32,
}

/// An open tree.
pub struct TreeReader {
    source: Arc<dyn RandomAccess>,
    schema: Schema,
    n_events: u64,
    events_per_basket: u32,
    baskets: Vec<BasketInfo>,
    /// Per branch: indices into `baskets`, ordered by `first_event`.
    by_branch: Vec<Vec<usize>>,
}

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl TreeReader {
    /// Open a tree file: read footer, header, dictionary, basket index.
    /// Costs three reads (footer, index, header) on the source.
    pub fn open(source: Arc<dyn RandomAccess>) -> io::Result<TreeReader> {
        let total = source.size()?;
        if total < (FOOTER_LEN + 4) as u64 {
            return Err(bad("file too small for RTTF"));
        }
        let mut footer = [0u8; FOOTER_LEN];
        source.read_exact_at(total - FOOTER_LEN as u64, &mut footer)?;
        if &footer[16..20] != MAGIC {
            return Err(bad("bad RTTF footer magic"));
        }
        let index_offset = u64::from_le_bytes(footer[0..8].try_into().unwrap());
        let index_len = u64::from_le_bytes(footer[8..16].try_into().unwrap());
        // Both are the file's word: the sum must not wrap past the bounds
        // test, and `index_len` sizes an allocation below.
        if index_offset.checked_add(index_len).is_none_or(|end| end > total) {
            return Err(bad("index out of bounds"));
        }
        if index_offset < HEADER_LEN as u64 {
            return Err(bad("index overlaps the header"));
        }

        // Header + dictionary live at the front; read a generous fixed
        // chunk (dictionaries are tiny).
        let head_len = 4096.min(index_offset) as usize;
        let mut head = vec![0u8; head_len];
        source.read_exact_at(0, &mut head)?;
        if &head[..4] != MAGIC {
            return Err(bad("bad RTTF header magic"));
        }
        let _version = u16::from_le_bytes(head[4..6].try_into().unwrap());
        let n_branches = u16::from_le_bytes(head[6..8].try_into().unwrap()) as usize;
        let n_events = u64::from_le_bytes(head[8..16].try_into().unwrap());
        let events_per_basket = u32::from_le_bytes(head[16..20].try_into().unwrap());
        if events_per_basket == 0 {
            return Err(bad("events_per_basket = 0"));
        }

        let mut pos = HEADER_LEN;
        let mut branches = Vec::with_capacity(n_branches);
        for _ in 0..n_branches {
            if pos + 2 > head.len() {
                return Err(bad("dictionary truncated"));
            }
            let name_len = u16::from_le_bytes(head[pos..pos + 2].try_into().unwrap()) as usize;
            pos += 2;
            if pos + name_len + 5 > head.len() {
                return Err(bad("dictionary truncated"));
            }
            let name = String::from_utf8_lossy(&head[pos..pos + name_len]).into_owned();
            pos += name_len;
            let tag = head[pos];
            pos += 1;
            let param = u32::from_le_bytes(head[pos..pos + 4].try_into().unwrap());
            pos += 4;
            let kind = match tag {
                0 => BranchKind::F32,
                1 => BranchKind::I8,
                2 => BranchKind::U16,
                3 => BranchKind::I16Array(param as usize),
                t => return Err(bad(format!("unknown branch kind {t}"))),
            };
            branches.push(BranchDef { name, kind });
        }
        let schema = Schema { branches };

        // Basket index.
        let mut index_bytes = vec![0u8; index_len as usize];
        source.read_exact_at(index_offset, &mut index_bytes)?;
        if index_bytes.len() < 4 {
            return Err(bad("index truncated"));
        }
        let n_baskets = u32::from_le_bytes(index_bytes[0..4].try_into().unwrap()) as usize;
        const REC: usize = 2 + 8 + 4 + 8 + 4;
        if index_bytes.len() < 4 + n_baskets * REC {
            return Err(bad("index record area truncated"));
        }
        let mut baskets = Vec::with_capacity(n_baskets);
        let mut by_branch: Vec<Vec<usize>> = vec![Vec::new(); schema.branches.len()];
        for i in 0..n_baskets {
            let p = 4 + i * REC;
            let r = &index_bytes[p..p + REC];
            let info = BasketInfo {
                branch: u16::from_le_bytes(r[0..2].try_into().unwrap()),
                first_event: u64::from_le_bytes(r[2..10].try_into().unwrap()),
                n_events: u32::from_le_bytes(r[10..14].try_into().unwrap()),
                offset: u64::from_le_bytes(r[14..22].try_into().unwrap()),
                len: u32::from_le_bytes(r[22..26].try_into().unwrap()),
            };
            if info.branch as usize >= schema.branches.len() {
                return Err(bad("basket references unknown branch"));
            }
            // `len` sizes the blob buffer of every later read of this basket.
            if info.offset.checked_add(info.len as u64).is_none_or(|end| end > index_offset) {
                return Err(bad("basket outside the data area"));
            }
            by_branch[info.branch as usize].push(i);
            baskets.push(info);
        }
        for list in &mut by_branch {
            list.sort_by_key(|&i| baskets[i].first_event);
        }
        Ok(TreeReader { source, schema, n_events, events_per_basket, baskets, by_branch })
    }

    /// The tree schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total events in the tree.
    pub fn n_events(&self) -> u64 {
        self.n_events
    }

    /// Events per basket (uniform except the final basket).
    pub fn events_per_basket(&self) -> u32 {
        self.events_per_basket
    }

    /// The underlying byte source.
    pub fn source(&self) -> &Arc<dyn RandomAccess> {
        &self.source
    }

    /// Basket metadata.
    pub fn baskets(&self) -> &[BasketInfo] {
        &self.baskets
    }

    /// Which basket (global index) holds `event` of `branch`.
    pub fn basket_for(&self, branch: usize, event: u64) -> io::Result<usize> {
        if event >= self.n_events {
            return Err(bad(format!("event {event} out of range")));
        }
        let ord = event / self.events_per_basket as u64;
        self.branch_baskets(branch)
            .get(ord as usize)
            .copied()
            .ok_or_else(|| bad(format!("no basket for branch {branch} event {event}")))
    }

    /// The baskets of `branch` (global indices) by ordinal: entry `k` holds
    /// events `k * events_per_basket ..`.
    pub(crate) fn branch_baskets(&self, branch: usize) -> &[usize] {
        self.by_branch.get(branch).map_or(&[], Vec::as_slice)
    }

    fn info(&self, basket: usize) -> io::Result<BasketInfo> {
        self.baskets
            .get(basket)
            .copied()
            .ok_or_else(|| bad(format!("basket {basket} out of range")))
    }

    /// Fetch and decompress one basket (one scalar read).
    pub fn read_basket(&self, basket: usize) -> io::Result<Vec<u8>> {
        let info = self.info(basket)?;
        let mut blob = vec![0u8; info.len as usize];
        self.source.read_exact_at(info.offset, &mut blob)?;
        self.decode_basket(basket, &blob)
    }

    /// Decompress an already-fetched basket blob.
    pub fn decode_basket(&self, basket: usize, blob: &[u8]) -> io::Result<Vec<u8>> {
        let info = self.info(basket)?;
        self.column(info, codec::decompress(blob)?)
    }

    /// `col`, if it holds exactly the basket's events.
    fn column(&self, info: BasketInfo, col: Vec<u8>) -> io::Result<Vec<u8>> {
        let width = self.schema.branches[info.branch as usize].kind.width();
        if (info.n_events as usize).checked_mul(width) != Some(col.len()) {
            return Err(bad("basket size mismatch after decompression"));
        }
        Ok(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Generator;
    use crate::writer::{write_tree, WriterOptions};
    use ioapi::MemFile;

    fn sample(n_events: u64, per_basket: usize) -> (Vec<u8>, Schema) {
        let schema = Schema::hep(16);
        let mut g = Generator::new(schema.clone(), 11);
        let bytes = write_tree(
            &mut g,
            n_events,
            &WriterOptions { events_per_basket: per_basket, compress: true },
        );
        (bytes, schema)
    }

    #[test]
    fn open_reads_schema_and_counts() {
        let (bytes, schema) = sample(1000, 200);
        let r = TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap();
        assert_eq!(r.schema(), &schema);
        assert_eq!(r.n_events(), 1000);
        assert_eq!(r.events_per_basket(), 200);
        // 5 baskets per branch × 7 branches
        assert_eq!(r.baskets().len(), 35);
    }

    #[test]
    fn baskets_roundtrip_content() {
        let (bytes, schema) = sample(500, 100);
        // Regenerate the expected columns.
        let mut g = Generator::new(schema.clone(), 11);
        let reader = TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap();
        for window in 0..5 {
            let batch = g.batch(100);
            for (bi, col) in batch.columns.iter().enumerate() {
                let basket = reader.basket_for(bi, window * 100).unwrap();
                let got = reader.read_basket(basket).unwrap();
                assert_eq!(&got, col, "branch {bi} window {window}");
            }
        }
    }

    #[test]
    fn basket_for_boundaries() {
        let (bytes, _) = sample(1000, 300); // baskets: 300,300,300,100
        let r = TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap();
        assert_eq!(r.basket_for(0, 0).unwrap(), r.basket_for(0, 299).unwrap());
        assert_ne!(r.basket_for(0, 299).unwrap(), r.basket_for(0, 300).unwrap());
        assert!(r.basket_for(0, 999).is_ok());
        assert!(r.basket_for(0, 1000).is_err());
    }

    #[test]
    fn corrupt_files_rejected() {
        let (bytes, _) = sample(100, 50);
        // Truncated file.
        let r = TreeReader::open(Arc::new(MemFile::new(bytes[..10].to_vec())));
        assert!(r.is_err());
        // Broken footer magic.
        let mut b = bytes.clone();
        let n = b.len();
        b[n - 1] ^= 0xFF;
        assert!(TreeReader::open(Arc::new(MemFile::new(b))).is_err());
        // Broken header magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(TreeReader::open(Arc::new(MemFile::new(b))).is_err());
        // Corrupt basket payload → CRC failure on read.
        let mut b = bytes.clone();
        b[2000] ^= 0xFF; // somewhere in basket data
        if let Ok(r) = TreeReader::open(Arc::new(MemFile::new(b))) {
            let mut any_err = false;
            for basket in 0..r.baskets().len() {
                if r.read_basket(basket).is_err() {
                    any_err = true;
                }
            }
            assert!(any_err, "corruption must surface somewhere");
        }
    }

    /// A footer is 20 bytes the file's author chose. `index_offset` below
    /// the fixed header used to slice the header block out of range.
    #[test]
    fn footer_pointing_into_the_header_is_invalid_data() {
        for index_offset in [0u64, 3, 4, 19] {
            // 84 bytes: passes the size test, footer magic intact.
            let mut b = vec![0u8; 84];
            b[..4].copy_from_slice(MAGIC);
            b[64..72].copy_from_slice(&index_offset.to_le_bytes());
            b[80..].copy_from_slice(MAGIC);
            let err = TreeReader::open(Arc::new(MemFile::new(b))).err().expect("rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "index_offset {index_offset}");
        }
    }

    /// `index_offset + index_len` wrapping past the bounds test used to
    /// reach `vec![0; index_len]`.
    #[test]
    fn footer_whose_offset_and_length_wrap_is_invalid_data() {
        let (mut b, _) = sample(100, 50);
        let footer = b.len() - FOOTER_LEN;
        let index_offset = u64::from_le_bytes(b[footer..footer + 8].try_into().unwrap());
        let wrapping = (u64::MAX - index_offset + 1).to_le_bytes();
        b[footer + 8..footer + 16].copy_from_slice(&wrapping);
        let err = TreeReader::open(Arc::new(MemFile::new(b))).err().expect("rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn basket_index_out_of_range_is_the_same_error_on_both_paths() {
        let (bytes, _) = sample(100, 50);
        let r = TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap();
        let n = r.baskets().len();
        let read = r.read_basket(n).unwrap_err();
        let decoded = r.decode_basket(n, &[]).unwrap_err();
        assert_eq!(decoded.kind(), io::ErrorKind::InvalidData);
        assert_eq!(decoded.to_string(), read.to_string());
    }

    #[test]
    fn uncompressed_files_read_back_too() {
        let schema = Schema::hep(4);
        let mut g = Generator::new(schema.clone(), 3);
        let bytes =
            write_tree(&mut g, 200, &WriterOptions { events_per_basket: 100, compress: false });
        let r = TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap();
        let mut g2 = Generator::new(schema, 3);
        let batch = g2.batch(100);
        let basket = r.basket_for(0, 0).unwrap();
        assert_eq!(r.read_basket(basket).unwrap(), batch.columns[0]);
    }
}
