//! **Figure 3 / §2.3**: vectored I/O over HTTP multi-range.
//!
//! Claim: packing N fragmented reads into one multi-range request
//! "drastically reduces the number of remote network I/O operations" and
//! thus the latency bill. We sweep the fragment count and compare:
//!
//! * `scalar` — one single-range GET per fragment, sequential;
//! * `parallel` — one GET per fragment on the client's I/O pool, 8 wide
//!   (what you could do *without* multi-range);
//! * `davix readv` — one multi-range GET (`pread_vec`);
//! * `xrd readv` — the baseline protocol's `kXR_readv` equivalent.
//!
//! Run with `--insitu` to instead compare the full analysis job with the
//! TreeCache disabled vs enabled (ablation A2).

use bytes::Bytes;
use davix::Config;
use davix_bench::{secs, BenchReport, Table};
use davix_repro::testbed::{Testbed, TestbedConfig, DATA_PATH};
use ioapi::RandomAccess;
use netsim::LinkSpec;
use rootio::{AnalysisJob, Generator, Schema, TreeCacheOptions, TreeReader, WriterOptions};
use std::sync::Arc;
use std::time::Duration;

const OBJ: usize = 64 * 1024 * 1024;
const FRAG: usize = 2 * 1024;

fn testbed(link: LinkSpec, data: Bytes) -> Testbed {
    Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), link)],
        data,
        with_xrd: true,
        ..Default::default()
    })
}

fn fragments(n: usize) -> Vec<(u64, usize)> {
    // Deterministic pseudo-random spread over the object.
    let mut out = Vec::with_capacity(n);
    let mut x = 0x243F_6A88_85A3_08D3u64;
    for _ in 0..n {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let off = (x >> 16) % (OBJ as u64 - FRAG as u64);
        out.push((off, FRAG));
    }
    out
}

fn sweep() {
    println!("== Figure 3 / §2.3: N fragmented reads, one round trip ==");
    println!("object: {} MiB, fragments of {} KiB\n", OBJ / 1024 / 1024, FRAG / 1024);
    let data = Bytes::from(vec![0x5Au8; OBJ]);
    let mut report = BenchReport::new("fig3_vectored");
    report.label("object", format!("{} MiB, {} KiB fragments", OBJ / 1024 / 1024, FRAG / 1024));

    for (key, name, link) in
        [("lan", "LAN (2.5 ms RTT)", LinkSpec::lan()), ("wan", "WAN (150 ms RTT)", LinkSpec::wan())]
    {
        println!("--- {name} ---");
        let mut table = Table::new(&[
            "fragments",
            "scalar (s)",
            "parallel8 (s)",
            "davix readv (s)",
            "xrd readv (s)",
            "scalar reqs",
            "readv reqs",
        ]);
        // `DAVIX_BENCH_MAX_FRAGMENTS` caps the sweep so CI can smoke the
        // harness in seconds; the full paper sweep goes to 1024. The
        // smallest size always runs so a too-low cap cannot silently turn
        // the smoke into a no-op.
        let cap = davix_bench::env_usize("DAVIX_BENCH_MAX_FRAGMENTS", 1024).max(16);
        for n in [16usize, 64, 256, 1024].into_iter().filter(|&n| n <= cap) {
            let frags = fragments(n);

            // scalar sequential
            let tb = testbed(link, data.clone());
            let _g = tb.net.enter();
            let client = tb.davix_client(Config::default().no_retry());
            let f = client.open(&tb.url(0)).unwrap();
            let t0 = tb.net.now();
            let mut buf = vec![0u8; FRAG];
            for &(off, _) in &frags {
                f.pread(off, &mut buf).unwrap();
            }
            let t_scalar = tb.net.now() - t0;
            let scalar_reqs = client.metrics().requests - 1; // minus the HEAD
            drop(_g);

            // parallel single-range (SingleRanges policy fans out via pool)
            let tb = testbed(link, data.clone());
            let _g = tb.net.enter();
            let client = tb.davix_client(Config::default().no_retry().single_ranges());
            let f = client.open(&tb.url(0)).unwrap();
            let t0 = tb.net.now();
            f.pread_vec(&frags).unwrap();
            let t_par = tb.net.now() - t0;
            drop(_g);

            // davix multi-range
            let tb = testbed(link, data.clone());
            let _g = tb.net.enter();
            let client = tb.davix_client(Config::default().no_retry());
            let f = client.open(&tb.url(0)).unwrap();
            let before = client.metrics().requests;
            let t0 = tb.net.now();
            f.pread_vec(&frags).unwrap();
            let t_davix = tb.net.now() - t0;
            let readv_reqs = client.metrics().requests - before;
            drop(_g);

            // xrd readv
            let tb = testbed(link, data.clone());
            let _g = tb.net.enter();
            let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
            let xf = xrd.open(DATA_PATH).unwrap();
            let t0 = tb.net.now();
            xf.read_vec(&frags).unwrap();
            let t_xrd = tb.net.now() - t0;
            drop(_g);

            report.metric(&format!("{key}.n{n}.scalar_s"), t_scalar.as_secs_f64());
            report.metric(&format!("{key}.n{n}.parallel8_s"), t_par.as_secs_f64());
            report.metric(&format!("{key}.n{n}.readv_s"), t_davix.as_secs_f64());
            report.metric(&format!("{key}.n{n}.xrd_readv_s"), t_xrd.as_secs_f64());
            table.row(vec![
                n.to_string(),
                secs(t_scalar),
                secs(t_par),
                secs(t_davix),
                secs(t_xrd),
                scalar_reqs.to_string(),
                readv_reqs.to_string(),
            ]);
        }
        table.print();
        println!();
        report.table(key, &table);
    }
    println!(
        "claim check: scalar cost grows linearly with fragments × RTT; the vectored\n\
         read stays ~1 round trip regardless of N ('virtually eliminates the need\n\
         for I/O multiplexing', §2.3), matching the xrd baseline's readv."
    );
    report.write();
}

fn insitu() {
    println!("== Ablation A2: the Figure 4 job with the TreeCache on/off ==\n");
    let mut generator = Generator::new(Schema::hep(64), 2014);
    let file = rootio::write_tree(
        &mut generator,
        4_000,
        &WriterOptions { events_per_basket: 40, compress: true },
    );
    let mut table = Table::new(&["link", "cache on (s)", "cache off (s)", "reqs on", "reqs off"]);
    for (name, link) in [("LAN", LinkSpec::lan()), ("WAN", LinkSpec::wan())] {
        let mut cells = vec![name.to_string()];
        let mut reqs = Vec::new();
        for enabled in [true, false] {
            let tb = testbed(link, Bytes::from(file.clone()));
            let _g = tb.net.enter();
            let client = tb.davix_client(Config::default());
            let f = Arc::new(client.open(&tb.url(0)).unwrap());
            let reader = Arc::new(TreeReader::open(f as Arc<dyn RandomAccess>).unwrap());
            let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();
            let job = AnalysisJob {
                per_event_cpu: Duration::from_micros(100),
                read_calorimeter: false,
                ..Default::default()
            };
            let t0 = tb.net.now();
            job.run(reader, TreeCacheOptions { enabled, window_events: 200, prefetch: false }, &rt)
                .unwrap();
            cells.push(secs(tb.net.now() - t0));
            reqs.push(client.metrics().requests.to_string());
        }
        cells.extend(reqs);
        table.row(cells);
    }
    table.print();
    println!(
        "\nwithout gathering, every basket is a fresh latency-priced round trip —\n\
         the pre-TTreeCache world the paper's vectored I/O fixes."
    );
    let mut report = BenchReport::new("fig3_insitu");
    report.table("treecache_ablation", &table);
    report.write();
}

fn main() {
    if std::env::args().any(|a| a == "--insitu") {
        insitu();
    } else {
        sweep();
    }
}
