//! The five workloads. Each is a *closed* loop (a caller sends its next
//! request only after the previous reply, which is what an analysis job or
//! `davix-get` does) over a fixed, seeded op list, so one repetition does
//! the same work on every run and exact-count layer metrics repeat.

pub(crate) mod analysis_sparse;
mod bulk_get;
mod bulk_put;
mod sim_wan_job;
mod small_get;

use crate::stack::Loopback;
use crate::trace;
use objstore::ObjectStore;
use std::sync::Arc;
use std::time::Instant;

/// Name, reason and reported tail percentile of one workload.
pub struct Spec {
    /// Final name (used on the command line and in `BENCHMARK.json`).
    pub name: &'static str,
    /// Which layers it stresses and why it exists.
    pub why: &'static str,
    /// The percentile reported as `client.op_tail_us`: the highest one
    /// that keeps at least ten samples beyond it in the bare half of a
    /// traced run at this workload's op rate, fixed so the metric keeps one
    /// definition.
    pub tail_pct: f64,
}

/// The workloads, in report order.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "small_get",
        why: "1 KiB GETs from 2 threads: per-request cost dominates (head parse/serialise, session pool, conn state machine, reactor dispatch); body bytes are negligible",
        tail_pct: 99.0,
    },
    Spec {
        name: "bulk_get",
        why: "16 MiB objects read front to back in 1 MiB preads: per-byte cost of the read path (executor streaming, conn write buffer, store slicing); per-request cost is negligible",
        tail_pct: 95.0,
    },
    Spec {
        name: "bulk_put",
        why: "16 MiB streaming PUTs with Expect: 100-continue: the same layers the other way (request-body accumulation, store PUT and checksums), so a read-path gain that costs writes shows",
        tail_pct: 80.0,
    },
    Spec {
        name: "analysis_sparse",
        why: "the paper's sparse analysis pattern: multi-range GETs of 500 fragments of ~80 B; per-fragment cost dominates (range header, multipart, coalescing, store assembly, rootio gather)",
        tail_pct: 90.0,
    },
    Spec {
        name: "sim_wan_job",
        why: "the Fig. 4 WAN davix job in virtual time: the only workload where the simulator's event loop and park/unpark hand-off do the work and real sockets do none",
        tail_pct: 70.0,
    },
];

/// The spec named `name`.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// What a workload is built from.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Shrink op counts by 100 and data sizes by ~16 (CI smoke, tests).
    pub smoke: bool,
    /// Also build the span-wrapped stack for traced repetitions.
    pub traced: bool,
}

/// `full` iterations, or a hundredth of them (at least one) in smoke mode.
pub fn smoke_ops(full: usize, smoke: bool) -> usize {
    if smoke {
        (full / 100).max(1)
    } else {
        full
    }
}

impl Params {
    /// `full` ops per repetition, a hundredth in smoke mode.
    pub fn ops(&self, full: usize) -> usize {
        smoke_ops(full, self.smoke)
    }

    /// `full` bytes/events of generated data, or a sixteenth in smoke mode.
    pub fn size(&self, full: usize) -> usize {
        if self.smoke {
            full / 16
        } else {
            full
        }
    }
}

/// One repetition's measurements.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time from the first op's start to the last op's end.
    pub wall_ns: u64,
    /// Latency of every op.
    pub lat_ns: Vec<u64>,
    /// Payload bytes the ops delivered to (or accepted from) the caller.
    pub payload_bytes: u64,
    /// Ops that returned an error or wrong bytes.
    pub failed: u64,
    /// CPU time of the client threads.
    pub client_cpu_us: f64,
}

impl Rep {
    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    fn absorb(&mut self, log: OpLog) {
        self.lat_ns.extend(log.lat_ns);
        self.payload_bytes += log.payload_bytes;
        self.failed += log.failed;
        self.client_cpu_us += log.cpu_us;
    }
}

/// Cumulative exact counters of one stack, read between repetitions; the
/// runner reports their growth per op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// HTTP requests the client executed (`davix::Metrics::requests`).
    pub requests: u64,
    /// Pooled sessions opened.
    pub sessions_created: u64,
    /// Pooled sessions reused.
    pub sessions_reused: u64,
    /// Simulator events applied (`SchedStats::events_applied`).
    pub sim_events: u64,
    /// Simulator thread parks.
    pub sim_parks: u64,
    /// Virtual-clock advances.
    pub sim_clock_advances: u64,
    /// Payload bytes the simulator delivered (`NetStats::bytes_delivered`).
    pub sim_bytes_delivered: u64,
    /// Virtual seconds of the last simulated job.
    pub virt_job_s: f64,
}

impl Counters {
    /// Growth since `earlier` (`virt_job_s` is a reading, not a sum: the
    /// later one is kept).
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            requests: self.requests - earlier.requests,
            sessions_created: self.sessions_created - earlier.sessions_created,
            sessions_reused: self.sessions_reused - earlier.sessions_reused,
            sim_events: self.sim_events - earlier.sim_events,
            sim_parks: self.sim_parks - earlier.sim_parks,
            sim_clock_advances: self.sim_clock_advances - earlier.sim_clock_advances,
            sim_bytes_delivered: self.sim_bytes_delivered - earlier.sim_bytes_delivered,
            virt_job_s: self.virt_job_s,
        }
    }

    /// Add `other` into `self` (`virt_job_s` takes `other`'s reading).
    pub fn add(&mut self, other: &Counters) {
        self.requests += other.requests;
        self.sessions_created += other.sessions_created;
        self.sessions_reused += other.sessions_reused;
        self.sim_events += other.sim_events;
        self.sim_parks += other.sim_parks;
        self.sim_clock_advances += other.sim_clock_advances;
        self.sim_bytes_delivered += other.sim_bytes_delivered;
        self.virt_job_s = other.virt_job_s;
    }

    /// The counters of a loopback stack.
    pub fn of_loopback(stack: &Loopback) -> Counters {
        let m = stack.client.metrics();
        Counters {
            requests: m.requests,
            sessions_created: m.sessions_created,
            sessions_reused: m.sessions_reused,
            ..Counters::default()
        }
    }
}

/// A set-up workload: data generated, servers started, clients connected.
pub trait Instance {
    /// Run one repetition of the fixed op list, on the span-wrapped stack
    /// when `traced`.
    fn rep(&mut self, traced: bool) -> Rep;

    /// Untimed pass comparing every byte the ops return or store against
    /// the generated data; returns how many comparisons were made and how
    /// many missed.
    fn verify(&mut self) -> (u64, u64);

    /// Flip one byte the ops read (the `--canary corrupt` arm): a following
    /// [`verify`](Self::verify) must report a miss.
    fn corrupt(&mut self);

    /// Cumulative counters of the bare or the traced stack.
    fn counters(&self, traced: bool) -> Counters;

    /// The extra arms this workload owns in the traced run, as
    /// `(per-layer metric, value)`.
    fn extra_arms(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Build the workload named `name`.
pub fn setup(name: &str, p: Params) -> Option<Box<dyn Instance>> {
    Some(match name {
        "small_get" => Box::new(small_get::SmallGet::setup(p)),
        "bulk_get" => Box::new(bulk_get::BulkGet::setup(p)),
        "bulk_put" => Box::new(bulk_put::BulkPut::setup(p)),
        "analysis_sparse" => Box::new(analysis_sparse::AnalysisSparse::setup(p)),
        "sim_wan_job" => Box::new(sim_wan_job::SimWanJob::setup(p)),
        _ => return None,
    })
}

/// The bare loopback stack and, for a traced run, a second span-wrapped
/// one serving the same store.
pub(crate) struct Stacks {
    bare: Loopback,
    traced: Option<Loopback>,
}

impl Stacks {
    pub(crate) fn start(store: Arc<ObjectStore>, p: Params) -> Stacks {
        Stacks {
            bare: Loopback::start(Arc::clone(&store), false),
            traced: p.traced.then(|| Loopback::start(store, true)),
        }
    }

    pub(crate) fn pick(&self, traced: bool) -> &Loopback {
        if traced {
            self.traced.as_ref().expect("a traced repetition needs Params::traced")
        } else {
            &self.bare
        }
    }

    pub(crate) fn each(&self) -> impl Iterator<Item = (bool, &Loopback)> {
        std::iter::once((false, &self.bare)).chain(self.traced.as_ref().map(|t| (true, t)))
    }
}

/// Latencies and outcomes of the ops one client thread ran.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    lat_ns: Vec<u64>,
    payload_bytes: u64,
    failed: u64,
    cpu_us: f64,
}

/// Run `n` ops back to back on the calling thread, timing each. `op(i)`
/// returns the payload bytes it moved, or why it failed. With `traced`,
/// each op runs under an `op` span whose id is `id_base + i`.
pub(crate) fn timed_ops(
    n: usize,
    traced: bool,
    id_base: u64,
    mut op: impl FnMut(usize) -> Result<u64, String>,
) -> OpLog {
    let mut log = OpLog { lat_ns: Vec::with_capacity(n), ..OpLog::default() };
    let cpu0 = crate::procfs::this_thread_cpu_us();
    for i in 0..n {
        let _span = traced.then(|| trace::op_span(id_base + i as u64));
        let t0 = Instant::now();
        let outcome = op(i);
        log.lat_ns.push(t0.elapsed().as_nanos() as u64);
        match outcome {
            Ok(bytes) => log.payload_bytes += bytes,
            Err(why) => {
                if log.failed < 3 {
                    eprintln!("perfbench: op {i} failed: {why}");
                }
                log.failed += 1;
            }
        }
    }
    log.cpu_us = crate::procfs::this_thread_cpu_us() - cpu0;
    log
}

/// A repetition run by the calling thread alone.
pub(crate) fn single_thread_rep(
    n: usize,
    traced: bool,
    op: impl FnMut(usize) -> Result<u64, String>,
) -> Rep {
    let t0 = Instant::now();
    let log = timed_ops(n, traced, 0, op);
    let mut rep = Rep { wall_ns: t0.elapsed().as_nanos() as u64, ..Rep::default() };
    rep.absorb(log);
    rep
}

/// Compare a payload against the expected one at a seeded 64-byte window
/// (plus its length): the cheap per-op check of the timed loops.
pub(crate) fn check_window(seed: u64, op: u64, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("length {} != {}", got.len(), want.len()));
    }
    if want.len() >= 64 {
        let w = crate::gen::check_window(seed, op, want.len());
        if got[w..w + 64] != want[w..w + 64] {
            return Err(format!("wrong bytes in window {w}..{}", w + 64));
        }
    }
    Ok(())
}
