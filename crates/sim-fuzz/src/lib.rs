//! # sim-fuzz — seeded whole-federation fault injection with invariant checking
//!
//! One seed, one scenario: [`run_one`] stands up a full simulated grid
//! (origin replicas with Metalink, a DynaFed federation front, a cached
//! failover reader and a multistream writer on the worker node), installs a
//! seeded [`FaultPlan`] over the replica hosts, drives a randomized
//! interleaving of reads and uploads through the faults, and then checks
//! the federation invariants the paper's claims rest on:
//!
//! * **all-or-nothing** — a committed upload is exactly its payload at its
//!   destination; an interrupted upload leaves *no* visible object with
//!   different bytes (staging buffers and temp names included);
//! * **cache-coherence** — bytes served through the client cache never
//!   diverge from the origin payload, across any number of fail-overs;
//! * **readmission** — a replica that heals is re-admitted by the
//!   `ReplicaScheduler` (probes bring it back; no starvation);
//! * **progress** — no fail-over livelock: every operation completes (or
//!   fails cleanly) within a bounded slice of virtual time while at least
//!   one replica is reachable, which the plan guarantees.
//!
//! Every decision — the workload interleaving, the fault schedule, the
//! payloads — derives from the single `u64` seed through stateless
//! splittable RNG streams, so a failure report's `seed=<u64>
//! plan=<fingerprint>` line is a complete reproduction recipe:
//! `davix-simfuzz --seed N` replays it identically (see
//! [`FuzzReport::summary`], which two consecutive runs must reproduce
//! byte-for-byte — pinned by this crate's tests).
//!
//! When the `race-detect` happens-before sanitizer is compiled in (see
//! `netsim::race`), every run also collects its data-race reports as
//! `race` violations, so a racing seed prints the same `seed=<u64>`
//! reproduction line as any other failure. The mutation suite
//! (`tools/mutants.sh`) proves both kinds of check can fail: it
//! re-introduces a commit-atomicity bug in the storage nodes and an
//! unsynchronized write in the client's batch engine as source patches,
//! and requires this crate's clean-corpus tests to catch each one.

#![forbid(unsafe_code)]

use bytes::Bytes;
use davix::{multistream_upload, Config, UploadOptions, UploadProtocol};
use davix_repro::testbed::{Testbed, TestbedConfig, CLIENT, DATA_PATH, FED};
use netsim::{buggify, FaultPlan, FaultStats, LinkSpec, SplitRng};
use std::sync::Arc;
use std::time::Duration;

/// Parameters of one fuzz run. Everything that shapes the scenario is
/// here; two runs with equal configs produce equal [`FuzzReport`]s.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The seed: selects workload interleaving, payloads and fault draws.
    pub seed: u64,
    /// Fault classes and intensities (fingerprinted together with the seed).
    pub plan: FaultPlan,
    /// Operations (reads + uploads) the driver attempts.
    pub ops: usize,
    /// Size of the shared origin object readers verify against.
    pub payload_len: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        // `chaos()` sprinkles its outage windows over a 90 s horizon; a run
        // of 40 ops spends ~10–15 s of virtual time, so compress the
        // partition schedule into that span — otherwise most windows land
        // after the workload and the readmission invariant goes untested.
        let mut plan = FaultPlan::chaos();
        plan.horizon = Duration::from_secs(12);
        plan.outage_min = Duration::from_millis(800);
        plan.outage_max = Duration::from_secs(4);
        plan.partitions = 5;
        FuzzConfig { seed: 0, plan, ops: 40, payload_len: 192 * 1024 }
    }
}

/// One invariant violation, with enough detail to debug from the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant: `all-or-nothing`, `cache-coherence`, `readmission`,
    /// `progress` or (under the `race-detect` feature) `race`.
    pub invariant: &'static str,
    /// What exactly was observed.
    pub detail: String,
}

/// Outcome of one seeded run. [`summary`](Self::summary) is the canonical
/// reproducibility surface: two runs of the same `(seed, plan, config)`
/// must produce byte-identical summaries.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed that produced this run.
    pub seed: u64,
    /// `(plan, seed)` fingerprint (see [`FaultPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Reads that completed and verified.
    pub reads_ok: u64,
    /// Reads that exhausted their retry budget.
    pub reads_failed: u64,
    /// Uploads that committed.
    pub uploads_ok: u64,
    /// Uploads that failed (legitimate under faults — the invariant is
    /// about what they leave behind, not that they succeed).
    pub uploads_failed: u64,
    /// Invariant violations found (empty = the run passed).
    pub violations: Vec<Violation>,
    /// Virtual time consumed, in milliseconds.
    pub virtual_ms: u64,
    /// Fault decisions the plan actually took.
    pub fault: FaultStats,
    /// Recorded virtual-time event trace (network + fault events), for
    /// `--trace` dumps and debugging.
    pub trace: Vec<(Duration, String)>,
}

impl FuzzReport {
    /// Whether the run upheld every invariant.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Canonical single-line summary. Byte-identical across replays of the
    /// same seed — this is the reproducibility contract the CI job and the
    /// crate's tests pin.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "seed={} plan={:016x} reads={}/{} uploads={}/{} vtime_ms={} \
             faults[delay={} drop={} connrefuse={} outage={} heal={} buggify={}/{}] trace_len={}",
            self.seed,
            self.fingerprint,
            self.reads_ok,
            self.reads_ok + self.reads_failed,
            self.uploads_ok,
            self.uploads_ok + self.uploads_failed,
            self.virtual_ms,
            self.fault.delays_injected,
            self.fault.drops_injected,
            self.fault.connects_refused,
            self.fault.outages,
            self.fault.heals,
            self.fault.buggify_hits,
            self.fault.buggify_decisions,
            self.trace.len(),
        );
        for v in &self.violations {
            s.push_str(&format!(" VIOLATION[{}: {}]", v.invariant, v.detail));
        }
        s
    }
}

/// Retry budget for one read before it counts as a progress failure.
const READ_ATTEMPTS: usize = 6;
/// Virtual-time ceiling for one operation; the plan keeps ≥ 1 replica up,
/// so blowing the budget means livelock, not legitimate slowness.
const OP_BUDGET: Duration = Duration::from_secs(240);
/// Probe rounds allowed for healed replicas to be re-admitted.
const READMIT_ROUNDS: usize = 30;

struct UploadRecord {
    node: usize,
    path: String,
    data: Bytes,
    ok: bool,
}

/// Deterministic pseudo-random payload for `(seed, tag)`.
fn payload_bytes(seed: u64, tag: u64, len: usize) -> Bytes {
    let mut rng = SplitRng::new(seed ^ tag.rotate_left(17));
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    Bytes::from(v)
}

/// Serializes whole scenarios while the race detector is collecting: race
/// reports land in one process-global registry, so two concurrent
/// `run_one`s (the test harness runs seeds in parallel) would otherwise
/// drain each other's findings. A `std` mutex on purpose — taking the
/// instrumented vendored lock here would add a synchronization edge of its
/// own around every run.
static RACE_RUN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Run one seeded scenario end to end and report what it found.
pub fn run_one(cfg: &FuzzConfig) -> FuzzReport {
    // Collect data races as violations instead of panicking mid-scenario:
    // a race then prints the same `FAIL seed=…` reproduction line as any
    // invariant failure. Leftover reports from earlier runs in this
    // process are drained so they cannot bleed into this seed's report.
    let _race_guard = netsim::race::enabled().then(|| {
        let g = RACE_RUN_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        netsim::race::set_panic_on_race(false);
        netsim::race::take_reports();
        g
    });

    let origin = payload_bytes(cfg.seed, 0, cfg.payload_len);
    let tb = Testbed::start(TestbedConfig {
        replicas: vec![
            ("dpm1.cern.ch".to_string(), LinkSpec::lan()),
            ("dpm2.cern.ch".to_string(), LinkSpec::pan_european()),
            ("dpm3.cern.ch".to_string(), LinkSpec::wan()),
        ],
        data: origin.clone(),
        with_federation: true,
        ..Default::default()
    });

    // Registered for the whole run: the virtual clock can only advance
    // while this thread is parked on a sim primitive, so the pre-scheduled
    // fault windows interleave with the workload instead of racing it.
    let guard = tb.net.enter();
    tb.net.record_trace(true);
    let replica_hosts: Vec<&str> = tb.hosts.iter().map(String::as_str).collect();
    let fingerprint = tb.net.install_fault_plan(cfg.plan.clone(), cfg.seed, &replica_hosts);

    // One io thread and one upload stream: at most one runnable OS thread
    // at any instant (the driver parks while a pool worker runs), which
    // keeps the whole run schedule-deterministic — the reproducibility
    // contract `--seed` replay depends on.
    let fed_base: httpwire::Uri = format!("http://{FED}/myfed").parse().expect("fed base uri");
    let reader = tb.davix_client(
        Config::default()
            .with_metalink_base(fed_base)
            .with_cache(4 << 20)
            .with_io_threads(1)
            .replica_blacklist(2, Duration::from_millis(500)),
    );
    let writer = tb.davix_client(Config::default().with_io_threads(1).no_retry());
    let connector = tb.net.connector(CLIENT);

    // The scheduler under the readmission invariant: it sees failures
    // during outages (via probes) and must re-admit every replica after
    // heal-all.
    let replica_uris: Vec<httpwire::Uri> = tb
        .hosts
        .iter()
        .map(|h| format!("http://{h}{DATA_PATH}").parse().expect("replica uri"))
        .collect();
    let sched = reader.replica_scheduler(replica_uris);

    let mut violations: Vec<Violation> = Vec::new();
    let mut reads_ok = 0u64;
    let mut reads_failed = 0u64;
    let mut uploads_ok = 0u64;
    let mut uploads_failed = 0u64;
    let mut uploads: Vec<UploadRecord> = Vec::new();

    let mut rng = SplitRng::new(cfg.seed);
    let mut file = reader.open_failover(&tb.url(0)).ok();

    for op in 0..cfg.ops {
        let t0 = tb.net.now();
        if rng.chance(0.65) {
            // ---- read: pread a window through cache + failover, verify.
            let off = rng.range(0, origin.len().saturating_sub(1) as u64);
            let len = rng.range(1, 32 * 1024).min(origin.len() as u64 - off) as usize;
            let mut buf = vec![0u8; len];
            let mut attempt = 0;
            let outcome = loop {
                // A buggify decision point of our own: occasionally throw
                // away the open file (and its failover state) mid-workload.
                if buggify!(tb.net, "reader.reopen") {
                    file = None;
                }
                if file.is_none() {
                    file = reader.open_failover(&tb.url(0)).ok();
                }
                match file.as_ref().map(|f| f.pread(off, &mut buf)) {
                    Some(Ok(n)) if n == len => break Some(()),
                    _ => {
                        attempt += 1;
                        file = None;
                        if attempt >= READ_ATTEMPTS {
                            break None;
                        }
                        tb.net.sleep(Duration::from_millis(700));
                    }
                }
            };
            match outcome {
                Some(()) => {
                    if buf[..] != origin[off as usize..off as usize + len] {
                        violations.push(Violation {
                            invariant: "cache-coherence",
                            detail: format!(
                                "op {op}: read [{off}, +{len}) diverged from origin payload"
                            ),
                        });
                    }
                    reads_ok += 1;
                }
                None => reads_failed += 1,
            }
        } else {
            // ---- upload: multistream write of a fresh object to one node.
            let node = rng.range(0, tb.hosts.len() as u64) as usize;
            let len = rng.range(6_000, 40_000) as usize;
            let data = payload_bytes(cfg.seed, 1 + op as u64, len);
            let path = format!("/up/obj-{op}");
            let url = format!("http://{}{}", tb.hosts[node], path);
            let protocol = if rng.chance(0.3) {
                UploadProtocol::S3Multipart
            } else {
                UploadProtocol::SegmentedPut
            };
            let opts = UploadOptions {
                streams: Some(1),
                chunk_size: Some(8192),
                max_chunk_failures: 2,
                protocol,
            };
            let ok = multistream_upload(
                &writer,
                &url,
                Arc::new(data.clone()) as Arc<dyn davix::ChunkSource>,
                &opts,
            )
            .is_ok();
            if ok {
                uploads_ok += 1;
            } else {
                uploads_failed += 1;
            }
            uploads.push(UploadRecord { node, path, data, ok });
        }
        // Keep the scheduler observing the federation's health.
        if op % 4 == 3 {
            sched.probe_once(connector.as_ref(), Duration::from_secs(1));
        }
        let spent = tb.net.now().saturating_sub(t0);
        if spent > OP_BUDGET {
            violations.push(Violation {
                invariant: "progress",
                detail: format!(
                    "op {op} consumed {spent:?} of virtual time (budget {OP_BUDGET:?})"
                ),
            });
            break;
        }
    }

    // ---- settle: end the fault phase, heal everything, let probes run.
    let fault = tb.net.clear_fault_plan().unwrap_or_default();
    for host in &tb.hosts {
        tb.net.set_host_down(host, false);
    }
    tb.net.sleep(Duration::from_secs(2));

    // ---- invariant: every healed replica is re-admitted.
    let n = tb.hosts.len();
    let mut readmitted = false;
    for _ in 0..READMIT_ROUNDS {
        sched.probe_once(connector.as_ref(), Duration::from_secs(2));
        if sched.healthy_count() == n {
            readmitted = true;
            break;
        }
        tb.net.sleep(Duration::from_secs(1));
    }
    if !readmitted {
        violations.push(Violation {
            invariant: "readmission",
            detail: format!(
                "only {}/{n} replicas healthy after heal-all and {READMIT_ROUNDS} probe rounds",
                sched.healthy_count()
            ),
        });
    }

    // ---- invariant: cached bytes == origin after the dust settles.
    if let Ok(f) = reader.open_failover(&tb.url(0)) {
        let mut buf = vec![0u8; origin.len()];
        let mut off = 0usize;
        let mut fine = true;
        while off < buf.len() {
            match f.pread(off as u64, &mut buf[off..]) {
                Ok(n) if n > 0 => off += n,
                _ => {
                    fine = false;
                    break;
                }
            }
        }
        if fine && buf[..] != origin[..] {
            violations.push(Violation {
                invariant: "cache-coherence",
                detail: "full re-read after heal diverged from origin payload".to_string(),
            });
        }
    }

    // ---- invariant: uploads are all-or-nothing, staging debris included.
    for (i, node) in tb.nodes.iter().enumerate() {
        let staging = node.handler.staging_stats();
        for rec in uploads.iter().filter(|r| r.node == i && r.ok) {
            if staging.paths.iter().any(|p| p == &rec.path || is_temp_of(p, &rec.path)) {
                violations.push(Violation {
                    invariant: "all-or-nothing",
                    detail: format!("committed upload {} left staging state on node {i}", rec.path),
                });
            }
        }
        for (name, is_dir, _) in node.store.list("/up") {
            if is_dir {
                continue;
            }
            let full = format!("/up/{name}");
            let got = node.store.get(&full).map(|m| m.data).unwrap_or_default();
            // A visible object must be byte-exact for *some* upload of its
            // base path: either the committed destination or a fully-staged
            // temp entity whose MOVE never ran (a failed upload's commit
            // raced the fault — full bytes are legitimate, partial are not).
            let base = temp_base(&full).unwrap_or(full.clone());
            // Violation details use the scrubbed name: the temp suffix
            // embeds the (wall-world) pid + a process-global token, which
            // must not leak into the reproducibility surface.
            let shown = scrub_temp(&full);
            match uploads.iter().find(|r| r.path == base) {
                Some(rec) => {
                    if got != rec.data {
                        violations.push(Violation {
                            invariant: "all-or-nothing",
                            detail: format!(
                                "node {i}: visible object {shown} has {} bytes not matching the \
                                 {}-byte payload of upload {} (ok={})",
                                got.len(),
                                rec.data.len(),
                                rec.path,
                                rec.ok
                            ),
                        });
                    } else if rec.ok && full != rec.path {
                        violations.push(Violation {
                            invariant: "all-or-nothing",
                            detail: format!(
                                "node {i}: committed upload {} left temp debris {shown}",
                                rec.path
                            ),
                        });
                    }
                }
                None => violations.push(Violation {
                    invariant: "all-or-nothing",
                    detail: format!(
                        "node {i}: unexplained object {shown} in the uploads namespace"
                    ),
                }),
            }
        }
        // Committed destinations must hold exactly the committed bytes.
        for rec in uploads.iter().filter(|r| r.node == i && r.ok) {
            match node.store.get(&rec.path) {
                Some(m) if m.data == rec.data => {}
                Some(m) => violations.push(Violation {
                    invariant: "all-or-nothing",
                    detail: format!(
                        "node {i}: committed upload {} holds {} bytes, expected {}",
                        rec.path,
                        m.data.len(),
                        rec.data.len()
                    ),
                }),
                None => violations.push(Violation {
                    invariant: "all-or-nothing",
                    detail: format!(
                        "node {i}: committed upload {} has no destination object",
                        rec.path
                    ),
                }),
            }
        }
    }

    let virtual_ms = tb.net.now().as_millis() as u64;
    let trace = tb.net.take_trace();
    drop(file);
    drop(guard);

    // ---- invariant (race-detect builds): no unordered shared-memory
    // access anywhere in the run. Reports use the replay-stable rendering
    // (sites + thread names, no epochs) and are sorted + deduplicated so
    // the summary is byte-identical across replays of the same seed.
    if netsim::race::enabled() {
        let mut races: Vec<String> =
            netsim::race::take_reports().iter().map(|r| r.stable_detail()).collect();
        races.sort();
        races.dedup();
        violations.extend(races.into_iter().map(|detail| Violation { invariant: "race", detail }));
    }

    FuzzReport {
        seed: cfg.seed,
        fingerprint,
        reads_ok,
        reads_failed,
        uploads_ok,
        uploads_failed,
        violations,
        virtual_ms,
        fault,
        trace,
    }
}

/// Whether `p` is a segmented-upload temp name for destination `base`
/// (the client stages at `{base}.davix-upload-{pid:x}-{token:x}`).
fn is_temp_of(p: &str, base: &str) -> bool {
    p.strip_prefix(base).is_some_and(|rest| rest.starts_with(".davix-upload-"))
}

/// The destination path a temp name belongs to, if `p` is one.
fn temp_base(p: &str) -> Option<String> {
    p.find(".davix-upload-").map(|i| p[..i].to_string())
}

/// Replace the pid/token tail of a temp name with `*`: the display form
/// used in violation details, stable across processes.
fn scrub_temp(p: &str) -> String {
    match p.find(".davix-upload-") {
        Some(i) => format!("{}.davix-upload-*", &p[..i]),
        None => p.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_name_helpers() {
        assert!(is_temp_of("/up/obj-3.davix-upload-1a2b-3c4d", "/up/obj-3"));
        assert!(!is_temp_of("/up/obj-31.davix-upload-1a2b", "/up/obj-3"));
        assert!(!is_temp_of("/up/obj-3", "/up/obj-3"));
        assert_eq!(temp_base("/up/obj-3.davix-upload-1a2b"), Some("/up/obj-3".to_string()));
        assert_eq!(temp_base("/up/obj-3"), None);
    }

    #[test]
    fn payload_bytes_is_deterministic_and_tag_sensitive() {
        assert_eq!(payload_bytes(1, 0, 64), payload_bytes(1, 0, 64));
        assert_ne!(payload_bytes(1, 0, 64), payload_bytes(1, 1, 64));
        assert_ne!(payload_bytes(1, 0, 64), payload_bytes(2, 0, 64));
        assert_eq!(payload_bytes(7, 3, 100).len(), 100);
    }
}
