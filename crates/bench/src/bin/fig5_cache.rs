//! **Block cache**: upstream-request elimination on repeated and
//! sequential reads (the client-side complement of §2.3's round-trip
//! argument).
//!
//! Workload: an analysis-style pass over one remote file — sequential
//! 16 KiB reads front to back, run **twice** (HEP analyses re-read hot
//! fractions; OSDF/XCache studies show client/edge hit-rate dominates
//! wall time). Three configurations:
//!
//! * `off`        — the cache disabled (every read is a GET, the pre-PR4
//!   behaviour);
//! * `cache`      — block cache on: pass 1 fetches each 256 KiB block
//!   once, pass 2 is served from memory;
//! * `cache+ra`   — cache plus adaptive read-ahead: the sequential
//!   detector prefetches a growing window, so even pass 1's reads mostly
//!   land on resident or in-flight blocks.
//!
//! The harness *asserts* the PR's acceptance criteria — ≥ 5× fewer
//! upstream requests with the cache on, and a non-zero hit-rate — so a
//! cache regression exits non-zero in CI.
//!
//! CI smoke knob: `DAVIX_BENCH_CACHE_KIB` (file size in KiB, default
//! 4096, clamped to ≥ 1024 so the file always spans several 256 KiB
//! blocks — with a single block there is nothing for read-ahead to do
//! and the assertions below would be vacuous).

use bytes::Bytes;
use davix::{Config, DavixClient};
use davix_bench::{env_usize, millis, single_server, BenchReport, Table};
use netsim::LinkSpec;
use std::time::Duration;

const READ: usize = 16 * 1024;

struct Run {
    requests: u64,
    hit_ratio: f64,
    prefetched: u64,
    elapsed: Duration,
}

fn run(data: &[u8], cfg: Config) -> Run {
    let link = LinkSpec { delay: Duration::from_millis(5), ..Default::default() };
    let object = ("/data/hot.root".to_string(), Bytes::from(data.to_vec()));
    let (net, _) = single_server(link, "dpm.cern.ch", [object]);
    let _g = net.enter();
    let client = DavixClient::new(net.connector("client"), net.runtime(), cfg);
    let file = client.open("http://dpm.cern.ch/data/hot.root").unwrap();
    let before = client.metrics();
    let t0 = net.now();
    let mut buf = vec![0u8; READ];
    for _pass in 0..2 {
        let mut off = 0u64;
        loop {
            let n = file.pread(off, &mut buf).unwrap();
            if n == 0 {
                break;
            }
            assert_eq!(&buf[..n], &data[off as usize..off as usize + n], "at {off}");
            off += n as u64;
        }
    }
    let elapsed = net.now() - t0;
    let m = client.metrics().since(&before);
    Run {
        requests: m.requests,
        hit_ratio: m.cache_hit_ratio(),
        prefetched: m.bytes_prefetched,
        elapsed,
    }
}

fn main() {
    let size = env_usize("DAVIX_BENCH_CACHE_KIB", 4096).max(1024) * 1024;
    let data: Vec<u8> = (0..size).map(|i| ((i * 37 + 11) % 251) as u8).collect();
    println!(
        "== block cache: sequential re-read, 2 passes x {} KiB in 16 KiB reads ==\n",
        size / 1024
    );

    let off = run(&data, Config::default().no_retry());
    let cached = run(&data, Config::default().no_retry().with_cache(64 * 1024 * 1024));
    let ra = run(&data, Config::default().no_retry().with_cache(64 * 1024 * 1024).with_readahead());

    let mut report = BenchReport::new("fig5_cache");
    report.label("workload", format!("2 passes x {} KiB in 16 KiB reads", size / 1024));
    let mut table =
        Table::new(&["config", "upstream requests", "hit rate", "prefetched KiB", "time (ms)"]);
    for (name, r) in [("off", &off), ("cache", &cached), ("cache+ra", &ra)] {
        let key = name.replace('+', "_");
        report.metric(&format!("{key}.requests"), r.requests as f64);
        report.metric(&format!("{key}.hit_ratio"), r.hit_ratio);
        report.metric_ms(&format!("{key}.time_ms"), r.elapsed);
        table.row(vec![
            name.to_string(),
            r.requests.to_string(),
            format!("{:.1}%", r.hit_ratio * 100.0),
            (r.prefetched / 1024).to_string(),
            millis(r.elapsed),
        ]);
    }
    table.print();
    report.table("main", &table);
    report.write();

    // Acceptance criteria — a regression here must fail CI.
    assert!(
        off.requests >= cached.requests * 5,
        "cache must eliminate >=5x upstream requests (off={}, cache={})",
        off.requests,
        cached.requests
    );
    assert!(cached.hit_ratio > 0.0, "re-read workload must produce cache hits");
    assert!(ra.hit_ratio > 0.0, "read-ahead run must produce cache hits");
    assert!(ra.prefetched > 0, "sequential scan must trigger read-ahead prefetch");
    assert!(
        cached.elapsed < off.elapsed,
        "cached pass must be faster in virtual time ({:?} vs {:?})",
        cached.elapsed,
        off.elapsed
    );
    println!(
        "\nclaim check: pass 2 never touches the network (hit rate {:.0}%), and\n\
         block-aligned fetches collapse {}x 16 KiB GETs into {} block fetches —\n\
         {}x fewer upstream requests; read-ahead additionally overlaps pass 1's\n\
         fetches with the reader ({} KiB prefetched).",
        cached.hit_ratio * 100.0,
        2 * (size / READ),
        cached.requests,
        off.requests / cached.requests.max(1),
        ra.prefetched / 1024,
    );
}
