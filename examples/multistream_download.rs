//! Multi-stream downloads (§2.4): pull chunks of one file from several
//! replicas in parallel, and see the bandwidth/server-load trade-off the
//! paper describes.
//!
//! ```sh
//! cargo run --release --example multistream_download
//! ```

use bytes::Bytes;
use davix::{multistream_download, Config, MultistreamOptions};
use davix_repro::testbed::{Testbed, TestbedConfig};
use netsim::LinkSpec;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn main() {
    let size = 8_000_000usize;
    let data: Vec<u8> = (0..size).map(|i| ((i / 7) % 256) as u8).collect();

    // Three replicas, each behind its own modest 2 MB/s link: a single
    // stream cannot exceed 2 MB/s, three streams approach 6 MB/s.
    let link = LinkSpec {
        delay: Duration::from_millis(10),
        bandwidth: Some(2_000_000),
        ..Default::default()
    };
    println!("file: {size} bytes; 3 replicas, 2 MB/s each, 20 ms RTT\n");
    println!("{:<10} {:>12} {:>14} {:>12}", "streams", "time", "throughput", "connections");

    for streams in [1usize, 2, 3, 6] {
        let tb = Testbed::start(TestbedConfig {
            replicas: vec![
                ("r1.example".to_string(), link),
                ("r2.example".to_string(), link),
                ("r3.example".to_string(), link),
            ],
            data: Bytes::from(data.clone()),
            ..Default::default()
        });
        let _g = tb.net.enter();
        let client = tb.davix_client(Config::default());
        let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();

        let t0 = tb.net.now();
        let got = Arc::new(Mutex::new(Vec::new()));
        multistream_download(
            &client,
            &client.replica_scheduler(replicas),
            &MultistreamOptions { streams, chunk_size: 512 * 1024 },
            got.clone(),
        )
        .expect("download");
        let elapsed = tb.net.now() - t0;
        assert!(*got.lock().unwrap() == data, "payload integrity");

        let conns = tb.net.stats().conns_created;
        let mbps = size as f64 / elapsed.as_secs_f64() / 1e6;
        println!("{:<10} {:>12.2?} {:>11.2} MB/s {:>12}", streams, elapsed, mbps, conns);
    }

    println!(
        "\nthroughput scales with streams until the client side saturates, while\n\
         server load (connections) grows with it — exactly the trade-off §2.4 notes."
    );
}
