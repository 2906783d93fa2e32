//! One run of one workload in this process: set up, warm up, verify,
//! measure for the asked time, verify again, and turn the repetitions into
//! the named metrics — end-to-end ones from a bare run, per-layer ones from
//! a traced run.

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs;
use crate::stats::{iqr_ratio, median, percentile_sorted, samples_beyond, MIB};
use crate::trace::{self, Layer, Totals};
use crate::workload::{self, Counters, Instance, Params, Rep};
use std::path::PathBuf;
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long to measure; repetitions of the fixed op list run until this
    /// much time has passed.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the bare end-to-end run.
    pub trace: bool,
    /// Hundredth-size ops and sixteenth-size data.
    pub smoke: bool,
    /// Flip one stored byte before the final verification: the run must
    /// then report failures.
    pub canary_corrupt: bool,
    /// Where a traced run writes its retained spans.
    pub trace_out: Option<PathBuf>,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Inter-quartile spread across repetitions as a share of the median
    /// (rate and CPU metrics).
    pub spread: Option<f64>,
    /// Samples behind the number (percentiles: pooled op count;
    /// rate metrics: repetitions).
    pub samples: Option<u64>,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Ops and verification comparisons attempted.
    pub attempted: u64,
    /// How many of them failed or returned wrong bytes.
    pub failed: u64,
    pub metrics: Vec<Value>,
}

impl Outcome {
    /// No op failed, every verified byte matched, and every metric is a
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed repetitions of each kind, however short `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn rep(&mut self, rep: &Rep) {
        self.attempted += rep.attempted();
        self.failed += rep.failed;
    }

    fn verify(&mut self, inst: &mut dyn Instance) {
        let (checked, missed) = inst.verify();
        self.attempted += checked;
        self.failed += missed;
        if missed > 0 {
            eprintln!("perfbench: verification missed {missed} of {checked} comparisons");
        }
    }
}

fn ops_per_s(rep: &Rep) -> f64 {
    rep.attempted() as f64 / (rep.wall_ns as f64 / 1e9)
}

/// Run per `args`; `None` if the workload name is unknown.
pub fn run(args: &RunArgs) -> Option<Outcome> {
    let spec = workload::spec(&args.workload)?;
    let params = Params { seed: args.seed, smoke: args.smoke, traced: args.trace };
    let mut tally = Tally::default();

    // Set-up = data generation + server start + one warm-up repetition,
    // timed as a whole. The bare run sets up several times (dropping each
    // instance before the next, so peak RSS sees one) and keeps the last.
    let mut setup_s = Vec::new();
    let mut inst: Option<Box<dyn Instance>> = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(inst.take());
        let t0 = Instant::now();
        let mut fresh = workload::setup(spec.name, params)?;
        tally.rep(&fresh.rep(false));
        setup_s.push(t0.elapsed().as_secs_f64());
        inst = Some(fresh);
    }
    let mut inst = inst.expect("at least one set-up");
    if args.trace {
        tally.rep(&inst.rep(true));
    }
    tally.verify(inst.as_mut());

    let metrics = if args.trace {
        measure_traced(args, spec.tail_pct, inst.as_mut(), &mut tally)
    } else {
        measure_bare(args, inst.as_mut(), &mut tally, &setup_s)
    };

    if args.canary_corrupt {
        inst.corrupt();
    }
    tally.verify(inst.as_mut());
    drop(inst);

    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path).map(std::io::BufWriter::new).and_then(|mut f| {
            let n = trace::write_jsonl(&mut f)?;
            std::io::Write::flush(&mut f)?;
            Ok(n)
        });
        match written {
            Ok(n) => eprintln!("perfbench: wrote {n} spans to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    Some(Outcome {
        workload: spec.name.to_string(),
        seed: args.seed,
        traced: args.trace,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn measure_bare(
    args: &RunArgs,
    inst: &mut dyn Instance,
    tally: &mut Tally,
    setup_s: &[f64],
) -> Vec<Value> {
    let (mut rate, mut mib, mut cpu, mut lat) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while rate.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        let cpu0 = procfs::process_cpu_us();
        let rep = inst.rep(false);
        cpu.push((procfs::process_cpu_us() - cpu0) / rep.attempted() as f64);
        rate.push(ops_per_s(&rep));
        mib.push(rep.payload_bytes as f64 / MIB / (rep.wall_ns as f64 / 1e9));
        tally.rep(&rep);
        lat.extend(rep.lat_ns);
    }
    lat.sort_unstable();
    let reps = rate.len() as u64;

    let across = |name, xs: &[f64]| (name, median(xs), Some(iqr_ratio(xs)), Some(reps));
    let values = [
        ("setup_s", median(setup_s), Some(iqr_ratio(setup_s)), Some(setup_s.len() as u64)),
        across("ops_per_s", &rate),
        across("mib_per_s", &mib),
        ("op_p50_us", percentile_sorted(&lat, 50.0) as f64 / 1e3, None, Some(lat.len() as u64)),
        across("cpu_us_per_op", &cpu),
        ("peak_rss_mib", procfs::peak_rss_mib(), None, None),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, (name, value, spread, samples))| {
            assert_eq!(def.name, name, "values are listed in registry order");
            Value { name, value, unit: def.unit, spread, samples }
        })
        .collect()
}

/// Sums over the traced repetitions of a traced run.
#[derive(Default)]
struct Traced {
    ops: u64,
    wall_ns: u64,
    payload_bytes: u64,
    client_cpu_us: f64,
    shard_cpu_us: f64,
    spans: Totals,
    counters: Counters,
}

fn measure_traced(
    args: &RunArgs,
    tail_pct: f64,
    inst: &mut dyn Instance,
    tally: &mut Tally,
) -> Vec<Value> {
    // Bare and traced repetitions alternate, so drift hits both alike and
    // their ratio is the tracing overhead.
    let (mut bare_rate, mut traced_rate, mut bare_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut sum = Traced::default();
    let t0 = Instant::now();
    while traced_rate.len() < MIN_REPS || t0.elapsed().as_secs_f64() < args.seconds {
        let rep = inst.rep(false);
        bare_rate.push(ops_per_s(&rep));
        tally.rep(&rep);
        bare_lat.extend(rep.lat_ns);

        let (spans0, counters0) = (trace::totals(), inst.counters(true));
        let shard0 = procfs::threads_cpu_us("httpd-shard");
        let rep = inst.rep(true);
        sum.shard_cpu_us += procfs::threads_cpu_us("httpd-shard") - shard0;
        sum.spans.add(&trace::totals().since(&spans0));
        sum.counters.add(&inst.counters(true).since(&counters0));
        sum.ops += rep.attempted();
        sum.wall_ns += rep.wall_ns;
        sum.payload_bytes += rep.payload_bytes;
        sum.client_cpu_us += rep.client_cpu_us;
        traced_rate.push(ops_per_s(&rep));
        tally.rep(&rep);
    }

    bare_lat.sort_unstable();
    if samples_beyond(bare_lat.len(), tail_pct) < 10 {
        eprintln!(
            "perfbench: only {} samples beyond p{tail_pct} — the tail is under-sampled",
            samples_beyond(bare_lat.len(), tail_pct)
        );
    }
    let mut found = layer_values(&sum);
    found.push(("client.op_tail_us", percentile_sorted(&bare_lat, tail_pct) as f64 / 1e3));
    found.push(("trace.overhead_ratio", median(&traced_rate) / median(&bare_rate)));
    found.extend(inst.extra_arms());
    found.extend(crate::probes::run_all(args.smoke));
    for (name, _) in &found {
        assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name} is not a registered metric");
    }

    PER_LAYER
        .iter()
        .map(|def| Value {
            name: def.name,
            // A layer that is not on this workload's path reports 0.
            value: found.iter().find(|f| f.0 == def.name).map_or(0.0, |f| f.1),
            unit: def.unit,
            spread: None,
            samples: (def.name == "client.op_tail_us").then_some(bare_lat.len() as u64),
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The in-workload layer metrics from the traced repetitions' sums.
fn layer_values(t: &Traced) -> Vec<(&'static str, f64)> {
    let ops = t.ops as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let s = |l: Layer| t.spans.of(l);
    let (rd, wr) = (s(Layer::TcpRead), s(Layer::TcpWrite));
    let (try_rd, try_wr) = (s(Layer::TcpTryRead), s(Layer::TcpTryWrite));
    let (handle, pass, read_vec, op) =
        (s(Layer::ObjstoreHandle), s(Layer::RootioPass), s(Layer::CoreReadVec), s(Layer::Op));
    let c = &t.counters;
    // Shard CPU is only attributable while the loopback server's shards
    // live across the repetition; simulated servers start and stop per op.
    let shard_cpu_us = if try_rd.count > 0 { t.shard_cpu_us } else { 0.0 };
    vec![
        ("core.requests_per_op", c.requests as f64 / ops),
        (
            "core.session_reuse_ratio",
            ratio(c.sessions_reused as f64, (c.sessions_reused + c.sessions_created) as f64),
        ),
        ("core.client_cpu_us_per_op", t.client_cpu_us / ops),
        // Time inside blocking socket calls. On one CPU the server usually
        // runs *inside* the client's write (the wake-up preempts it), so
        // reads and writes are summed: together they are "waiting for the
        // server, plus the copies".
        ("core.sock_wait_us_per_op", us(rd.total_ns + wr.total_ns) / ops),
        ("core.sock_reads_per_op", rd.count as f64 / ops),
        ("core.sock_writes_per_op", wr.count as f64 / ops),
        ("core.read_vec_us", ratio(us(read_vec.total_ns), read_vec.count as f64)),
        ("netsim.tcp.rx_bytes_per_payload_byte", ratio(rd.bytes as f64, t.payload_bytes as f64)),
        ("httpd.shard_cpu_us_per_op", shard_cpu_us / ops),
        ("httpd.self_cpu_us_per_op", (shard_cpu_us - us(handle.total_ns)).max(0.0) / ops),
        ("httpd.try_reads_per_op", try_rd.count as f64 / ops),
        ("httpd.try_writes_per_op", try_wr.count as f64 / ops),
        (
            "httpd.bytes_per_try_read",
            ratio(try_rd.bytes as f64, (try_rd.count - try_rd.wouldblock) as f64),
        ),
        (
            "httpd.wouldblock_ratio",
            ratio(
                (try_rd.wouldblock + try_wr.wouldblock) as f64,
                (try_rd.count + try_wr.count) as f64,
            ),
        ),
        ("objstore.handle_us_per_op", us(handle.total_ns) / ops),
        ("objstore.handle_share", ratio(handle.total_ns as f64, op.total_ns as f64)),
        ("rootio.self_us_per_op", us(pass.self_ns) / ops),
        ("rootio.io_share", ratio((pass.total_ns - pass.self_ns) as f64, pass.total_ns as f64)),
        ("rootio.fragments_per_read_vec", ratio(read_vec.items as f64, read_vec.count as f64)),
        ("netsim.sim.events_per_op", c.sim_events as f64 / ops),
        ("netsim.sim.parks_per_op", c.sim_parks as f64 / ops),
        ("netsim.sim.clock_advances_per_op", c.sim_clock_advances as f64 / ops),
        ("netsim.sim.bytes_delivered_per_op", c.sim_bytes_delivered as f64 / ops),
        ("netsim.sim.ns_per_event", ratio(t.wall_ns as f64, c.sim_events as f64)),
        ("netsim.sim.virt_job_s", c.virt_job_s),
    ]
}
