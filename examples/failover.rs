//! Metalink fail-over (§2.4, default strategy): three replicas, two die,
//! reads keep succeeding.
//!
//! ```sh
//! cargo run --example failover
//! ```

use bytes::Bytes;
use davix::Config;
use davix_repro::testbed::{Testbed, TestbedConfig, FED};
use netsim::LinkSpec;

fn main() {
    let data: Vec<u8> = (0..200_000usize).map(|i| (i % 251) as u8).collect();
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm-ch.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm-uk.gridpp.ac.uk".to_string(), LinkSpec::pan_european()),
            ("dpm-us.bnl.gov".to_string(), LinkSpec::wan()),
        ],
        data: Bytes::from(data),
        with_federation: true,
        ..Default::default()
    });
    let _g = tb.net.enter();

    // Metalinks come from the DynaFed federation.
    let cfg = Config::default().with_metalink_base(format!("http://{FED}/myfed").parse().unwrap());
    let client = tb.davix_client(cfg);

    let file = client.open_failover(&tb.url(0)).expect("open");
    println!("opened {} ({} bytes)", file.current_uri(), file.size_hint());

    let mut buf = vec![0u8; 64];
    file.pread(0, &mut buf).unwrap();
    println!("read ok from {}", file.current_uri().host);

    println!("\n*** killing dpm-ch.cern.ch ***");
    tb.net.set_host_down("dpm-ch.cern.ch", true);
    file.pread(100_000, &mut buf).unwrap();
    println!("read ok from {} (failed over)", file.current_uri().host);

    println!("\n*** killing dpm-uk.gridpp.ac.uk too ***");
    tb.net.set_host_down("dpm-uk.gridpp.ac.uk", true);
    file.pread(150_000, &mut buf).unwrap();
    println!("read ok from {} (failed over again)", file.current_uri().host);

    let m = client.metrics();
    println!(
        "\nmetrics: {} fail-overs, {} metalink fetches, {} retries",
        m.failovers, m.metalinks_fetched, m.retries
    );
    println!("the paper's guarantee holds: reads succeed while ≥1 replica lives (§2.4)");
}
