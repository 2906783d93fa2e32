//! **Figure 4 (the headline result)**: execution time of a ROOT analysis job
//! reading 100 % of ~12 000 events, via davix/HTTP and via the XRootD-like
//! baseline, over the paper's three networks.
//!
//! Paper (mean of 576 HammerCloud runs):
//!
//! | link            | XRootD (s) | HTTP/davix (s) |
//! |-----------------|-----------:|---------------:|
//! | CERN↔CERN       |      97.91 |          97.22 |
//! | UK(GLAS)↔CERN   |     107.80 |         107.88 |
//! | USA(BNL)↔CERN   |     173.20 |         203.49 |
//!
//! We reproduce the *shape*: parity on low-latency links, the baseline
//! protocol ahead on the transatlantic link because its asynchronous
//! sliding-window prefetch overlaps RTTs with per-event compute, while
//! davix's multi-range reads are synchronous (§2.2/§2.3 trade-off the paper
//! itself describes).
//!
//! Usage: `fig4_analysis [--fraction 0.1] [--reps 3] [--events 12000]`
//!
//! CI smoke knobs: `DAVIX_BENCH_EVENTS` / `DAVIX_BENCH_REPS` override the
//! defaults of `--events` / `--reps` (explicit flags still win).

use bytes::Bytes;
use davix::Config;
use davix_bench::{env_usize, mean_std, BenchReport, Table};
use davix_repro::testbed::{paper_links, Testbed, TestbedConfig, DATA_PATH};
use ioapi::RandomAccess;
use rootio::{AnalysisJob, Generator, Schema, TreeCacheOptions, TreeReader, WriterOptions};
use std::sync::Arc;
use std::time::Duration;

struct Args {
    fraction: f64,
    reps: u32,
    events: u64,
    /// Link bandwidth scale; `None` = scale by generated-file-size / 700 MB
    /// (the paper's file), so transfer *times* match the paper's regime.
    bw_scale: Option<f64>,
    /// `--sweep`: table over event fractions (the §3 "fraction or totality"
    /// axis) instead of the link table.
    sweep: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        fraction: 1.0,
        reps: env_usize("DAVIX_BENCH_REPS", 3) as u32,
        events: env_usize("DAVIX_BENCH_EVENTS", 12_000) as u64,
        bw_scale: None,
        sweep: false,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--fraction" => {
                args.fraction = argv[i + 1].parse().expect("--fraction <f64>");
                i += 2;
            }
            "--reps" => {
                args.reps = argv[i + 1].parse().expect("--reps <u32>");
                i += 2;
            }
            "--events" => {
                args.events = argv[i + 1].parse().expect("--events <u64>");
                i += 2;
            }
            "--bw-scale" => {
                // "auto" scales bandwidth by generated-file-size / 700 MB
                // (the paper's file) so transfer times match the paper's
                // regime; a number sets the scale directly.
                args.bw_scale = match argv[i + 1].as_str() {
                    "auto" => Some(0.0),
                    v => Some(v.parse().expect("--bw-scale <f64>|auto")),
                };
                i += 2;
            }
            "--sweep" => {
                args.sweep = true;
                i += 1;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    args
}

/// Per-event CPU calibrated so the LAN job lands near the paper's ~97 s.
const PER_EVENT_CPU: Duration = Duration::from_micros(8_050);
/// TreeCache window: 120 events ≈ the paper's 30 MB TTreeCache scaled to
/// our file (≈100 vectored fetches over the job).
const WINDOW_EVENTS: u64 = 120;

/// One analysis job; returns virtual seconds.
fn run_job(file: &[u8], link: netsim::LinkSpec, proto: &str, fraction: f64) -> f64 {
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![("dpm1.cern.ch".to_string(), link)],
        data: Bytes::from(file.to_vec()),
        with_xrd: true,
        server_delay: Duration::from_micros(500),
        ..Default::default()
    });
    let _g = tb.net.enter();
    let rt: Arc<dyn netsim::Runtime> = tb.net.runtime();
    let job = AnalysisJob { fraction, per_event_cpu: PER_EVENT_CPU, ..Default::default() };
    let (source, cache): (Arc<dyn RandomAccess>, TreeCacheOptions) = if proto == "davix" {
        let client = tb.davix_client(Config::default());
        (
            Arc::new(client.open(&tb.url(0)).unwrap()),
            TreeCacheOptions { window_events: WINDOW_EVENTS, enabled: true, prefetch: false },
        )
    } else {
        let xrd = tb.xrd_client(0, xrdlite::XrdClientOptions::default()).unwrap();
        (
            Arc::new(xrd.open(DATA_PATH).unwrap()),
            TreeCacheOptions { window_events: WINDOW_EVENTS, enabled: true, prefetch: true },
        )
    };
    let reader = Arc::new(TreeReader::open(source).unwrap());
    let t0 = tb.net.now();
    job.run(reader, cache, &rt).unwrap();
    (tb.net.now() - t0).as_secs_f64()
}

/// The §3 "fraction or totality" axis: sweep the selected-event fraction on
/// the LAN and the WAN. As CPU shrinks with the selection, the job turns
/// I/O-bound and the WAN gap widens — the regime HEP job placement avoids.
fn run_sweep(file: &[u8], bw_scale: f64) {
    let links = paper_links(bw_scale);
    let (_, lan) = links[0];
    let (_, wan) = links[2];
    let mut table = Table::new(&[
        "fraction",
        "LAN davix (s)",
        "LAN xrd (s)",
        "LAN d/x",
        "WAN davix (s)",
        "WAN xrd (s)",
        "WAN d/x",
    ]);
    for fraction in [0.1, 0.25, 0.5, 1.0] {
        let ld = run_job(file, lan, "davix", fraction);
        let lx = run_job(file, lan, "xrd", fraction);
        let wd = run_job(file, wan, "davix", fraction);
        let wx = run_job(file, wan, "xrd", fraction);
        table.row(vec![
            format!("{:.0}%", fraction * 100.0),
            format!("{ld:.2}"),
            format!("{lx:.2}"),
            format!("{:.3}", ld / lx),
            format!("{wd:.2}"),
            format!("{wx:.2}"),
            format!("{:.3}", wd / wx),
        ]);
    }
    table.print();
    println!(
        "\nsmaller selections = less CPU to hide latency behind: the WAN ratio\n\
         grows as the job turns I/O-bound (the paper's motivation for sending\n\
         jobs close to the data, §3)."
    );
}

fn main() {
    let args = parse_args();
    println!("== Figure 4: ROOT analysis job, davix/HTTP vs xrdlite ==");
    println!(
        "events={} fraction={} reps={} per-event CPU={:?} cache window={} events\n",
        args.events, args.fraction, args.reps, PER_EVENT_CPU, WINDOW_EVENTS
    );

    // The paper's 700 MB / 12 000 events ≈ 58 KB per event; we scale the
    // file ~100× down and keep latencies real.
    let mut generator = Generator::new(Schema::hep(256), 2014);
    let file = rootio::write_tree(
        &mut generator,
        args.events,
        &WriterOptions { events_per_basket: 40, compress: true },
    );
    // Default (scale 1.0): full 1 Gb/s links — I/O cost is pure round-trip
    // structure, the regime that differentiates the two protocols and drives
    // Fig. 4's ratios. `--bw-scale auto` instead scales bandwidth with the
    // generated file (paper file = 700 MB over 1 Gb/s) so the ~6 s of
    // transfer time reappears.
    let bw_scale = match args.bw_scale {
        Some(s) if s > 0.0 => s,
        Some(_) => file.len() as f64 / 700e6, // "auto"
        None => 1.0,
    };
    println!(
        "tree file: {} bytes on disk ({} baskets), bandwidth scale {:.5}\n",
        file.len(),
        args.events / 40 * 7,
        bw_scale
    );

    if args.sweep {
        run_sweep(&file, bw_scale);
        return;
    }

    let paper: &[(&str, f64, f64)] = &[
        ("CERN<->CERN (LAN)", 97.91, 97.22),
        ("UK(GLAS)<->CERN (GEANT)", 107.80, 107.88),
        ("USA(BNL)<->CERN (WAN)", 173.20, 203.49),
    ];

    let mut table = Table::new(&[
        "link",
        "davix (s)",
        "xrd (s)",
        "ratio d/x",
        "paper davix",
        "paper xrd",
        "paper d/x",
    ]);

    let mut report = BenchReport::new("fig4_analysis");
    report.label(
        "workload",
        format!("events={} fraction={} reps={}", args.events, args.fraction, args.reps),
    );
    for (li, (name, link)) in paper_links(bw_scale).into_iter().enumerate() {
        let mut times = [Vec::new(), Vec::new()]; // [davix, xrd]
        for rep in 0..args.reps {
            for (pi, proto) in ["davix", "xrd"].iter().enumerate() {
                let secs = run_job(&file, link, proto, args.fraction);
                times[pi].push(secs);
                if rep == 0 && li == 0 {
                    eprintln!("  [{proto:>5}] {name}: {secs:.2}s");
                }
            }
        }
        let (d_mean, _) = mean_std(&times[0]);
        let (x_mean, _) = mean_std(&times[1]);
        let (p_x, p_d) = (paper[li].1, paper[li].2);
        let key = ["lan", "geant", "wan"][li];
        report.metric(&format!("{key}.davix_s"), d_mean);
        report.metric(&format!("{key}.xrd_s"), x_mean);
        report.metric(&format!("{key}.ratio"), d_mean / x_mean);
        table.row(vec![
            name.to_string(),
            format!("{d_mean:.2}"),
            format!("{x_mean:.2}"),
            format!("{:.3}", d_mean / x_mean),
            format!("{p_d:.2}"),
            format!("{p_x:.2}"),
            format!("{:.3}", p_d / p_x),
        ]);
    }
    println!();
    table.print();
    report.table("links", &table);
    report.write();
    println!(
        "\nshape check: parity (ratio ≈ 1.0) on LAN/GEANT, ratio > 1 on the WAN\n\
         (the baseline's async prefetch hides transatlantic RTTs; davix pays them\n\
         synchronously — §3 of the paper attributes its 17.5% WAN gap to exactly\n\
         this sliding-window buffering)."
    );
}
