//! Property tests for the TreeCache: whatever the window size, compression
//! setting, basket geometry or access order, the values read through the
//! cache must equal the values read without it — gathering is an
//! optimization, never a semantic change (§2.3: the vectored query carries
//! "the same" fragments the scalar reads would have), and prefetching the
//! next window changes neither the values nor the window loads.

use ioapi::MemFile;
use proptest::prelude::*;
use rootio::{Generator, Schema, TreeCache, TreeCacheOptions, TreeReader, WriterOptions};
use std::io;
use std::sync::Arc;

fn rt() -> Arc<dyn netsim::Runtime> {
    Arc::new(netsim::RealRuntime::new())
}

fn reader(seed: u64, events: u64, per_basket: usize, compress: bool) -> Arc<TreeReader> {
    let mut generator = Generator::new(Schema::hep(16), seed);
    let file = rootio::write_tree(
        &mut generator,
        events,
        &WriterOptions { events_per_basket: per_basket, compress },
    );
    Arc::new(TreeReader::open(Arc::new(MemFile::new(file))).unwrap())
}

/// The `f32` of `branch` at `event`, through the window from `event`.
fn f32_at(cache: &mut TreeCache, branch: usize, event: u64) -> io::Result<f32> {
    let column = cache.window(event)?.column(branch, 4)?;
    Ok(f32::from_le_bytes(column[..4].try_into().expect("4 bytes")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cached reads equal uncached reads for every (branch, event), across
    /// window sizes and basket geometries.
    #[test]
    fn cache_is_transparent(
        seed in 0u64..1_000,
        events in 1u64..300,
        per_basket in 1usize..60,
        window in 1u64..120,
        compress in proptest::bool::ANY,
    ) {
        let r = reader(seed, events, per_basket, compress);
        let branches: Vec<usize> = (0..3).collect();
        let mut cached = TreeCache::new(
            Arc::clone(&r),
            &branches,
            TreeCacheOptions { window_events: window, enabled: true, prefetch: false },
            rt(),
        );
        let mut plain = TreeCache::new(
            Arc::clone(&r),
            &branches,
            TreeCacheOptions { enabled: false, ..Default::default() },
            rt(),
        );
        let mut prefetching = TreeCache::new(
            Arc::clone(&r),
            &branches,
            TreeCacheOptions { window_events: window, enabled: true, prefetch: true },
            rt(),
        );
        for ev in 0..events {
            for &b in &branches {
                let via_cache = f32_at(&mut cached, b, ev).unwrap();
                let direct = f32_at(&mut plain, b, ev).unwrap();
                prop_assert_eq!(via_cache.to_bits(), direct.to_bits(),
                    "branch {} event {}", b, ev);
                let prefetched = f32_at(&mut prefetching, b, ev).unwrap();
                prop_assert_eq!(prefetched.to_bits(), direct.to_bits(),
                    "prefetched: branch {} event {}", b, ev);
            }
        }
        prop_assert!(cached.windows_loaded() >= 1);
        prop_assert_eq!(prefetching.windows_loaded(), cached.windows_loaded());
    }

    /// Random access order does not change values either (windows reload,
    /// never corrupt).
    #[test]
    fn cache_survives_random_access_order(
        seed in 0u64..1_000,
        order in proptest::collection::vec(0u64..200, 1..50),
        window in 1u64..64,
    ) {
        let events = 200;
        let r = reader(seed, events, 16, true);
        let mut cached = TreeCache::new(
            Arc::clone(&r),
            &[0],
            TreeCacheOptions { window_events: window, enabled: true, prefetch: false },
            rt(),
        );
        let mut plain = TreeCache::new(
            Arc::clone(&r),
            &[0],
            TreeCacheOptions { enabled: false, ..Default::default() },
            rt(),
        );
        for &ev in &order {
            let a = f32_at(&mut cached, 0, ev).unwrap();
            let b = f32_at(&mut plain, 0, ev).unwrap();
            prop_assert_eq!(a.to_bits(), b.to_bits(), "event {}", ev);
        }
    }

    /// Reading past the end errors on both paths, identically.
    #[test]
    fn out_of_range_events_error(seed in 0u64..100, events in 1u64..50) {
        let r = reader(seed, events, 8, false);
        let mut cached = TreeCache::new(Arc::clone(&r), &[0], TreeCacheOptions::default(), rt());
        let mut plain = TreeCache::new(
            Arc::clone(&r),
            &[0],
            TreeCacheOptions { enabled: false, ..Default::default() },
            rt(),
        );
        prop_assert!(f32_at(&mut cached, 0, events).is_err());
        prop_assert!(f32_at(&mut plain, 0, events).is_err());
    }
}
