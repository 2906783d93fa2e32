//! **§2.4 (replica scheduler)**: multi-stream download under replica
//! degradation — one fast, one slow, one *flapping* replica.
//!
//! Beyond the paper's static tables: the shared `ReplicaScheduler` ranks
//! replicas by EWMA latency and evicts repeat-failers onto a cooldown
//! blacklist. The workload proves the dynamic claims:
//!
//! * streams concentrate on the fast replica (latency-aware selection);
//! * when the flapping replica dies mid-download its worker *respawns* on
//!   the next-best replica instead of shrinking the pool;
//! * after the flap heals and the blacklist cooldown expires, the replica
//!   **rejoins the download and contributes chunks again** — asserted, so
//!   CI fails if recovery re-admission ever breaks.
//!
//! CI smoke knob: `DAVIX_BENCH_DEGRADE_MIB` (entity size in MiB, default
//! 16) shrinks the workload; the flap window scales with it.

use bytes::Bytes;
use davix::{multistream_download, Config, MultistreamOptions};
use davix_bench::{env_usize, millis, BenchReport, Table};
use davix_repro::testbed::{Testbed, TestbedConfig};
use netsim::{LinkSpec, Runtime as _};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const FAST: &str = "fast.cern.ch";
const SLOW: &str = "slow.bnl.gov";
const FLAP: &str = "flappy.gridpp.ac.uk";

fn main() {
    let size = env_usize("DAVIX_BENCH_DEGRADE_MIB", 16) * 1024 * 1024;
    let chunk = (size / 64).max(64 * 1024);
    println!("== §2.4 scheduler: multi-stream under replica degradation ==");
    println!(
        "file: {} MiB, {} KiB chunks, 3 streams; replicas: fast (16 MB/s), slow (2 MB/s),\n\
         flapping (8 MB/s, down mid-download, then recovers)\n",
        size / 1024 / 1024,
        chunk / 1024,
    );
    let data: Vec<u8> = (0..size).map(|i| ((i / 17) % 256) as u8).collect();

    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            (
                FAST.to_string(),
                LinkSpec {
                    delay: Duration::from_millis(2),
                    bandwidth: Some(16_000_000),
                    ..Default::default()
                },
            ),
            (
                SLOW.to_string(),
                LinkSpec {
                    delay: Duration::from_millis(40),
                    bandwidth: Some(2_000_000),
                    ..Default::default()
                },
            ),
            (
                FLAP.to_string(),
                LinkSpec {
                    delay: Duration::from_millis(4),
                    bandwidth: Some(8_000_000),
                    ..Default::default()
                },
            ),
        ],
        data: Bytes::from(data.clone()),
        ..Default::default()
    });

    // Scale the fault window with the workload so the CI smoke run keeps
    // the same shape: down at ~15% of the estimated transfer, back up at
    // ~40%, blacklist cooldown ~8% (several re-probe cycles while down,
    // prompt re-admission after recovery).
    let est = Duration::from_secs_f64(size as f64 / 20e6);
    let t_down = est.mul_f64(0.15);
    let t_up = est.mul_f64(0.40);
    let cooldown = est.mul_f64(0.08);

    let cfg = Config::default().no_retry().replica_blacklist(1, cooldown);
    let _g = tb.net.enter();
    let client = tb.davix_client(cfg);
    let replicas: Vec<httpwire::Uri> = (0..3).map(|i| tb.url(i).parse().unwrap()).collect();
    let scheduler = client.replica_scheduler(replicas);

    let net2 = tb.net.clone();
    let rt = tb.net.runtime();
    tb.net.spawn("flapper", move || {
        rt.sleep(t_down);
        net2.set_host_down(FLAP, true);
        rt.sleep(t_up - t_down);
        net2.set_host_down(FLAP, false);
    });

    let t0 = tb.net.now();
    let got = Arc::new(Mutex::new(Vec::new()));
    let completions = multistream_download(
        &client,
        &scheduler,
        &MultistreamOptions { streams: 3, chunk_size: chunk },
        got.clone(),
    )
    .expect("download must survive the flap");
    let elapsed = tb.net.now() - t0;
    assert!(*got.lock().unwrap() == data, "the downloaded entity must be byte-identical");

    let recovery = t0 + t_up;
    let mut table =
        Table::new(&["replica", "chunks", "after recovery", "ewma latency (ms)", "failures"]);
    for snap in scheduler.snapshot() {
        let host = &snap.uri.host;
        let chunks = completions.iter().filter(|c| &c.replica.host == host).count();
        let late =
            completions.iter().filter(|c| &c.replica.host == host && c.at > recovery).count();
        table.row(vec![
            host.clone(),
            chunks.to_string(),
            late.to_string(),
            snap.ewma_latency.map(millis).unwrap_or_else(|| "-".to_string()),
            snap.failures.to_string(),
        ]);
    }
    table.print();
    let m = client.metrics();
    println!(
        "\ntotal: {} in {}; {} respawns, {} blacklistings, {} fail-overs",
        completions.len(),
        millis(elapsed),
        m.streams_respawned,
        m.replicas_blacklisted,
        m.failovers,
    );
    let mut bench_report = BenchReport::new("tab8_degradation");
    bench_report
        .label("workload", format!("{} MiB, 3 streams, flapping replica", size / 1024 / 1024));
    bench_report.metric_ms("total_ms", elapsed);
    bench_report.metric("respawns", m.streams_respawned as f64);
    bench_report.metric("blacklistings", m.replicas_blacklisted as f64);
    bench_report.table("replicas", &table);
    bench_report.write();

    // The acceptance gate: the flapping replica must contribute chunks
    // *after* it recovered — blacklist cooldown re-admission at work.
    let late_flap =
        completions.iter().filter(|c| c.replica.host == FLAP && c.at > recovery).count();
    assert!(m.streams_respawned >= 1, "a worker must have switched off the dead replica");
    assert!(
        late_flap >= 1,
        "flapping replica contributed no chunks after recovery (cooldown re-admission broken)"
    );
    println!(
        "\nclaim check: streams cluster on the fast replica; the flap costs its\n\
         in-flight chunk (worker respawns on the next-best replica) and the\n\
         replica REJOINS after recovery ({late_flap} post-recovery chunks) —\n\
         latency-aware selection + dead-source eviction + cooldown re-probe."
    );
}
