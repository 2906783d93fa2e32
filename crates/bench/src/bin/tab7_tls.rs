//! **Ablation T7 / §2.2**: what mandatory TLS would cost the davix workload.
//!
//! The paper rejects SPDY because it "explicitly enforces the usage of
//! SSL/TLS", citing the handshake latency and the transfer overhead
//! (Coarfa et al. \[14\]). This ablation quantifies the handshake half on our
//! testbed: every connection on a "TLS" link pays 3 round trips of setup
//! (TCP + a TLS-1.2-like negotiation) instead of 1.
//!
//! Workload: 64 × 64 KiB GETs per configuration —
//!
//! * `fresh`   — one connection per request (HTTP/1.0 style);
//! * `recycled`— one keep-alive session through the davix pool.
//!
//! Claim under test: TLS punishes exactly the connection-per-request
//! pattern davix's session recycling eliminates; with recycling, the
//! handshake is paid once and amortizes to noise. (Bulk-encryption CPU
//! cost, the other half of \[14\], is not modelled — it would scale with
//! bytes, not connections, and affects both patterns equally.)

use bytes::Bytes;
use davix_bench::{env_usize, secs, sequential_gets, single_server, BenchReport, Table};
use davix_repro::testbed::paper_links;
use netsim::LinkSpec;
use std::time::Duration;

/// Requests per configuration; `DAVIX_BENCH_TLS_REQUESTS` shrinks it for
/// CI smoke runs.
fn n_req() -> usize {
    env_usize("DAVIX_BENCH_TLS_REQUESTS", 64).max(1)
}

const OBJ: usize = 64 * 1024;

fn run(link: LinkSpec, fresh_conns: bool) -> (Duration, u64) {
    let (net, _) =
        single_server(link, "server", [("/obj".to_string(), Bytes::from(vec![5u8; OBJ]))]);
    sequential_gets(&net, "http://server/obj", n_req(), fresh_conns)
}

fn main() {
    println!("== Ablation T7 / §2.2: the cost of mandatory TLS ==");
    println!("{} x {} KiB GETs; TLS modelled as 3 setup RTTs instead of 1\n", n_req(), OBJ / 1024);

    let mut table = Table::new(&[
        "link",
        "fresh plain (s)",
        "fresh TLS (s)",
        "TLS penalty",
        "pooled plain (s)",
        "pooled TLS (s)",
        "TLS penalty",
    ]);
    let mut report = BenchReport::new("tab7_tls");
    report.label("workload", format!("{} x {} KiB GETs", n_req(), OBJ / 1024));
    for (name, link) in paper_links(1.0) {
        let (fresh_plain, c1) = run(link, true);
        let (fresh_tls, c2) = run(link.with_tls_handshake(), true);
        let (pool_plain, c3) = run(link, false);
        let (pool_tls, c4) = run(link.with_tls_handshake(), false);
        assert_eq!((c1, c2), (n_req() as u64, n_req() as u64));
        assert_eq!((c3, c4), (1, 1));
        let key = name.to_lowercase().replace(' ', "_");
        report.metric(
            &format!("{key}.fresh_tls_penalty"),
            fresh_tls.as_secs_f64() / fresh_plain.as_secs_f64() - 1.0,
        );
        report.metric(
            &format!("{key}.pooled_tls_penalty"),
            pool_tls.as_secs_f64() / pool_plain.as_secs_f64() - 1.0,
        );
        table.row(vec![
            name.to_string(),
            secs(fresh_plain),
            secs(fresh_tls),
            format!("+{:.0}%", (fresh_tls.as_secs_f64() / fresh_plain.as_secs_f64() - 1.0) * 100.0),
            secs(pool_plain),
            secs(pool_tls),
            format!("+{:.1}%", (pool_tls.as_secs_f64() / pool_plain.as_secs_f64() - 1.0) * 100.0),
        ]);
    }
    table.print();
    report.table("main", &table);
    report.write();
    println!(
        "\nclaim check: the TLS handshake multiplies the per-connection setup\n\
         cost, so connection-per-request workloads pay it N times (the paper's\n\
         argument against SPDY's mandatory TLS for HPC); davix's session\n\
         recycling pays it once, after which it amortizes to noise."
    );
}
