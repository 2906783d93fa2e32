//! Property test for `TreeReader::open` on hostile files: the footer, the
//! header, the dictionary and the basket index are all bytes the file's
//! author chose, so whatever they say `open` answers `Ok` or `InvalidData`
//! — never a panic, never an allocation the file's size does not bound.

use ioapi::MemFile;
use proptest::prelude::*;
use rootio::writer::FOOTER_LEN;
use rootio::{Generator, Schema, TreeReader, WriterOptions};
use std::io::ErrorKind;
use std::sync::Arc;

fn valid_tree() -> Vec<u8> {
    let mut generator = Generator::new(Schema::hep(4), 7);
    rootio::write_tree(&mut generator, 90, &WriterOptions { events_per_basket: 25, compress: true })
}

/// The metadata of `tree` as byte ranges: header with dictionary, basket
/// index, footer.
fn metadata_regions(tree: &[u8]) -> [std::ops::Range<usize>; 3] {
    let footer = tree.len() - FOOTER_LEN;
    let index = u64::from_le_bytes(tree[footer..footer + 8].try_into().unwrap()) as usize;
    let first_basket = TreeReader::open(Arc::new(MemFile::new(tree.to_vec())))
        .unwrap()
        .baskets()
        .iter()
        .map(|b| b.offset as usize)
        .min()
        .unwrap();
    [0..first_basket, index..footer, footer..tree.len()]
}

/// `open`, and every basket it then offers read the way the cache would.
fn open_never_panics(bytes: Vec<u8>) {
    match TreeReader::open(Arc::new(MemFile::new(bytes))) {
        Ok(reader) => {
            for basket in 0..reader.baskets().len().min(64) {
                let _ = reader.read_basket(basket);
            }
            let _ = reader.basket_for(0, 0);
        }
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Overwrite a little-endian field's worth of bytes somewhere in the
    /// header, the index or the footer with an edge value: zero, all ones,
    /// a small count, or noise.
    #[test]
    fn mutated_metadata_opens_or_is_invalid_data(
        region in 0usize..3,
        at in any::<usize>(),
        width in 1usize..9,
        edge in 0u8..4,
        noise in any::<u64>(),
    ) {
        let mut tree = valid_tree();
        let region = metadata_regions(&tree)[region].clone();
        let at = region.start + at % region.len();
        let value = match edge {
            0 => 0,
            1 => u64::MAX,
            2 => noise % 64,
            _ => noise,
        };
        for (b, v) in tree[at..].iter_mut().zip(&value.to_le_bytes()[..width]) {
            *b = *v;
        }
        open_never_panics(tree);
    }

    /// The footer's two fields: small, near the file's size, near the top
    /// of `u64` (so their sum wraps), or noise.
    #[test]
    fn any_footer_opens_or_is_invalid_data(
        fields in proptest::collection::vec((0u8..4, any::<u64>()), 2..3),
    ) {
        let mut tree = valid_tree();
        let total = tree.len() as u64;
        let field = |(edge, noise): (u8, u64)| match edge {
            0 => noise % 64,
            1 => total - 32 + noise % 64,
            2 => u64::MAX - noise % (2 * total),
            _ => noise,
        };
        let footer = tree.len() - FOOTER_LEN;
        tree[footer..footer + 8].copy_from_slice(&field(fields[0]).to_le_bytes());
        tree[footer + 8..footer + 16].copy_from_slice(&field(fields[1]).to_le_bytes());
        open_never_panics(tree);
    }

    /// Cut the file anywhere, with and without a footer stuck back on (a
    /// plain cut almost always fails at the footer magic).
    #[test]
    fn truncated_trees_open_or_are_invalid_data(cut in any::<usize>(), refoot in any::<bool>()) {
        let tree = valid_tree();
        let mut cut_tree = tree[..cut % (tree.len() + 1)].to_vec();
        if refoot {
            cut_tree.extend_from_slice(&tree[tree.len() - FOOTER_LEN..]);
        }
        open_never_panics(cut_tree);
    }
}
