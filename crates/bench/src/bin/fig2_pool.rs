//! **Figure 2 / §2.2**: the dynamic connection pool with session recycling.
//!
//! Claim: recycling keep-alive sessions amortizes the TCP handshake *and*
//! keeps the congestion window warm, so repetitive I/O (the HEP access
//! pattern) goes much faster than connection-per-request — and the effect
//! grows with latency.
//!
//! Experiment A: 256 sequential 256 KiB GETs — fresh connection per request
//! (HTTP/1.0 style) vs recycled keep-alive session, on LAN/GEANT/WAN.
//!
//! Experiment B: 256 requests split over 1..16 concurrent worker threads —
//! shows the pool sizing itself to the level of concurrency ("a connection
//! pool whose size is proportional to the level of concurrency", §2.2):
//! connections created ≈ workers, reuse stays high, and wall time divides by
//! the parallelism.

use bytes::Bytes;
use davix::{Config, DavixClient, PreparedRequest};
use davix_bench::{secs, BenchReport, Table};
use davix_repro::testbed::paper_links;
use httpd::ServerConfig;
use netsim::{LinkSpec, Runtime as _, SimNet};
use objstore::{ObjectStore, StorageNode, StorageOptions};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

const OBJ: usize = 256 * 1024;

/// Requests per experiment; `DAVIX_BENCH_REQUESTS` shrinks it for CI smoke
/// runs (the paper setup is 256). At least one request always runs so a
/// zero knob cannot silently turn the smoke into a no-op.
fn n_req() -> usize {
    davix_bench::env_usize("DAVIX_BENCH_REQUESTS", 256).max(1)
}

fn testnet(link: LinkSpec) -> SimNet {
    let net = SimNet::new();
    net.add_host("client");
    net.add_host("server");
    net.set_link("client", "server", link);
    let store = Arc::new(ObjectStore::new());
    store.put("/obj", Bytes::from(vec![9u8; OBJ]));
    StorageNode::start(
        store,
        Box::new(net.bind("server", 80).unwrap()),
        net.runtime(),
        StorageOptions::default(),
        ServerConfig::default(),
    );
    net
}

fn run_sequential(link: LinkSpec, fresh_conns: bool) -> (Duration, u64) {
    let net = testnet(link);
    let _g = net.enter();
    let client = DavixClient::new(net.connector("client"), net.runtime(), Config::default());
    let uri: httpwire::Uri = "http://server/obj".parse().unwrap();
    let t0 = net.now();
    for _ in 0..n_req() {
        let mut req = PreparedRequest::get(uri.clone());
        if fresh_conns {
            // HTTP/1.0-style: ask the server to close after each response.
            req = req.header("Connection", "close");
        }
        client.executor().execute_expect(&req, "get").unwrap();
    }
    (net.now() - t0, client.metrics().sessions_created)
}

fn run_concurrent(link: LinkSpec, workers: usize, max_idle: usize) -> (Duration, u64, f64) {
    let net = testnet(link);
    let client = DavixClient::new(
        net.connector("client"),
        net.runtime(),
        Config { max_idle_per_endpoint: max_idle, ..Config::default() },
    );
    let remaining = Arc::new(Mutex::new(n_req()));
    let done = net.runtime().signal();
    let live = Arc::new(Mutex::new(workers));
    // Registered before the first spawn: the workers already parked must
    // not be the whole census while the rest are still being spawned.
    let _g = net.enter();
    for w in 0..workers {
        let client = client.clone();
        let remaining = Arc::clone(&remaining);
        let done = Arc::clone(&done);
        let live = Arc::clone(&live);
        net.spawn(&format!("worker-{w}"), move || {
            loop {
                {
                    let mut r = remaining.lock();
                    if *r == 0 {
                        break;
                    }
                    *r -= 1;
                }
                let uri = "http://server/obj".parse().unwrap();
                client.executor().execute_expect(&PreparedRequest::get(uri), "get").unwrap();
            }
            let mut l = live.lock();
            *l -= 1;
            if *l == 0 {
                done.set();
            }
        });
    }
    done.wait(None);
    let m = client.metrics();
    (net.now(), m.sessions_created, m.reuse_ratio())
}

fn main() {
    println!("== Figure 2 / §2.2: session recycling vs connection-per-request ==");
    println!("A: {} sequential {} KiB GETs\n", n_req(), OBJ / 1024);

    let mut table = Table::new(&[
        "link",
        "fresh conns (s)",
        "recycled (s)",
        "speedup",
        "conns fresh",
        "conns recycled",
    ]);
    let mut report = BenchReport::new("fig2_pool");
    report.label("workload", format!("{} sequential {} KiB GETs", n_req(), OBJ / 1024));
    for (name, link) in paper_links(1.0) {
        let (t_fresh, c_fresh) = run_sequential(link, true);
        let (t_pool, c_pool) = run_sequential(link, false);
        let key = name.to_lowercase().replace(' ', "_");
        report.metric(&format!("{key}.fresh.total_s"), t_fresh.as_secs_f64());
        report.metric(&format!("{key}.recycled.total_s"), t_pool.as_secs_f64());
        report.metric(&format!("{key}.speedup"), t_fresh.as_secs_f64() / t_pool.as_secs_f64());
        table.row(vec![
            name.to_string(),
            secs(t_fresh),
            secs(t_pool),
            format!("{:.2}x", t_fresh.as_secs_f64() / t_pool.as_secs_f64()),
            c_fresh.to_string(),
            c_pool.to_string(),
        ]);
    }
    table.print();
    report.table("sequential", &table);

    println!("\nB: {} GETs on GEANT, sweeping worker-thread concurrency\n", n_req());
    let mut table = Table::new(&["workers", "time (s)", "conns created", "reuse ratio"]);
    for workers in [1usize, 2, 4, 8, 16] {
        let (t, conns, reuse) = run_concurrent(LinkSpec::pan_european(), workers, 16);
        report.metric(&format!("concurrent.w{workers}.total_s"), t.as_secs_f64());
        report.metric(&format!("concurrent.w{workers}.reuse"), reuse);
        table.row(vec![
            workers.to_string(),
            secs(t),
            conns.to_string(),
            format!("{:.0}%", reuse * 100.0),
        ]);
    }
    table.print();
    report.table("concurrent", &table);
    println!(
        "\nclaim check: recycling wins everywhere and the advantage grows with RTT\n\
         (handshake + slow start are per-connection, latency-priced); the pool\n\
         opens ≈ one connection per concurrent worker and recycles it for the\n\
         rest of the run — 'a connection pool whose size is proportional to the\n\
         level of concurrency' (§2.2)."
    );
    report.write();
}
