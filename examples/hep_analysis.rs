//! The paper's §3 workload as a runnable example: a ROOT-style analysis job
//! reading ~12 000 events through davix/HTTP *and* through the xrdlite
//! baseline, over the three network profiles of Figure 4.
//!
//! ```sh
//! cargo run --release --example hep_analysis
//! ```

use bytes::Bytes;
use davix::Config;
use davix_repro::testbed::{paper_links, Testbed, TestbedConfig, DATA_PATH};
use ioapi::RandomAccess;
use rootio::{AnalysisJob, Generator, Schema, TreeCacheOptions, TreeReader, WriterOptions};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A scaled-down 12 000-event file: file and bandwidth shrink together,
    // latency stays real.
    let n_events = 12_000u64;
    let mut generator = Generator::new(Schema::hep(64), 2014);
    let bytes = rootio::write_tree(
        &mut generator,
        n_events,
        &WriterOptions { events_per_basket: 200, compress: true },
    );
    println!("tree file: {} events, {} bytes on disk\n", n_events, bytes.len());

    let job = AnalysisJob { per_event_cpu: Duration::from_micros(500), ..Default::default() };

    println!("{:<28} {:>14} {:>14}", "link", "davix/HTTP", "xrdlite");
    for (name, link) in paper_links(0.01) {
        let mut row = Vec::new();
        for proto in ["davix", "xrd"] {
            let tb = Testbed::start(TestbedConfig {
                replicas: vec![("dpm1.cern.ch".to_string(), link)],
                data: Bytes::from(bytes.clone()),
                with_xrd: true,
                ..Default::default()
            });
            let _g = tb.net.enter();
            let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();

            let (source, cache_opts): (Arc<dyn RandomAccess>, TreeCacheOptions) = match proto {
                "davix" => {
                    let client = tb.davix_client(Config::default());
                    (Arc::new(client.open(&tb.url(0)).unwrap()), TreeCacheOptions::default())
                }
                _ => {
                    let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
                    (
                        Arc::new(xrd.open(DATA_PATH).unwrap()),
                        TreeCacheOptions { prefetch: true, ..Default::default() },
                    )
                }
            };
            let reader = Arc::new(TreeReader::open(source).unwrap());
            let t0 = tb.net.now();
            let report = job.run(reader, cache_opts, &rt).unwrap();
            let elapsed = tb.net.now() - t0;
            row.push(elapsed);

            if proto == "davix" && name.contains("LAN") {
                println!(
                    "analysis sanity: {} events, mass histogram mean {:.1} GeV, peak bin {}\n",
                    report.events_processed,
                    report.mass_histogram.mean(),
                    report.mass_histogram.mode_bin()
                );
            }
        }
        println!(
            "{:<28} {:>12.2?} {:>12.2?}   ({})",
            name,
            row[0],
            row[1],
            if row[0] < row[1] { "davix faster" } else { "xrd faster" }
        );
    }
    println!("\n(virtual seconds; compare the *shape* with Figure 4 of the paper)");
}
