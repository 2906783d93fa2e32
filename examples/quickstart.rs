//! Quickstart: bring up a simulated storage node, open a remote file with
//! davix, and do scalar + vectored reads.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use davix::Config;
use davix_repro::testbed::{Testbed, TestbedConfig};
use netsim::LinkSpec;

fn main() {
    // One DPM-like storage node, 25 ms RTT from the client.
    let data: Vec<u8> = (0..1_000_000u32).flat_map(|i| i.to_le_bytes()).collect();
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![("dpm.example.org".to_string(), LinkSpec::pan_european())],
        data: Bytes::from(data),
        ..Default::default()
    });
    let _guard = tb.net.enter();

    // A davix client with default settings (session pool + multi-range).
    let client = tb.davix_client(Config::default());
    let url = tb.url(0);
    println!("opening {url}");
    let file = client.open(&url).expect("open");
    println!("  size: {} bytes", file.size_hint());

    // Scalar positional read.
    let mut buf = [0u8; 16];
    let n = file.pread(4_000_000, &mut buf).expect("pread");
    println!("  pread @4MB -> {n} bytes: {buf:02x?}");

    // Vectored read: 64 fragments in ONE network round trip (§2.3).
    let frags: Vec<(u64, usize)> = (0..64).map(|i| (i * 62_500, 16)).collect();
    let t0 = tb.net.now();
    let parts = file.pread_vec(&frags).expect("pread_vec");
    let elapsed = tb.net.now() - t0;
    println!(
        "  pread_vec: {} fragments, {} bytes total, {:?} virtual time",
        parts.len(),
        parts.iter().map(Vec::len).sum::<usize>(),
        elapsed
    );

    let m = client.metrics();
    println!("\nclient metrics:");
    println!("  requests:          {}", m.requests);
    println!("  sessions created:  {}", m.sessions_created);
    println!(
        "  sessions reused:   {} (reuse ratio {:.0}%)",
        m.sessions_reused,
        m.reuse_ratio() * 100.0
    );
    println!("  vectored requests: {}", m.vectored_requests);
    println!("  bytes in:          {}", m.bytes_in);
    assert_eq!(m.sessions_created, 1, "keep-alive keeps one connection");
}
