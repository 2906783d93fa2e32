//! Seeded fault injection for the simulator (the "buggify" engine).
//!
//! A [`FaultPlan`] describes *what kinds* of faults may happen and how
//! often; a single `u64` seed decides *which* decision points actually
//! fire. Every random decision is derived statelessly from
//! `(seed, stream, counter)` through a SplitMix64 mixer, so decisions on
//! independent streams (one per connection direction, per buggify context,
//! per plan) do not perturb each other: adding traffic on connection A
//! never changes the fault schedule seen by connection B. That is what
//! makes a printed `seed=<u64> plan=<fingerprint>` line replay
//! bit-identically — the reproducibility contract pinned by
//! `tests/determinism.rs` and relied on by `davix-simfuzz`.
//!
//! The plan is installed with
//! [`SimNet::install_fault_plan`](crate::SimNet::install_fault_plan),
//! which pre-schedules the plan's partition/heal windows as ordinary
//! simulator events. Every decision — a segment's fate, a connect
//! refusal, a window's placement, a `buggify!` point — is made here; the
//! simulator's link model asks per segment and per connect, and records
//! each answer in its trace. Sim-only code can add its own decision points
//! with the [`buggify!`](crate::buggify) macro.

use crate::sim::dur_ns;
use std::collections::HashMap;
use std::hash::Hash;
use std::time::Duration;

/// Decision stream tag: per-segment delivery faults (drop / extra delay).
const STREAM_DELIVERY: u64 = 0x1;
/// Decision stream tag: connect-time refusals.
const STREAM_CONNECT: u64 = 0x2;
/// Decision stream tag: the partition/heal schedule generated at install.
const STREAM_PLAN: u64 = 0x3;
/// Decision stream tag: `buggify!` decision points.
const STREAM_BUGGIFY: u64 = 0x4;

/// SplitMix64 finalizer: a cheap, well-mixed u64 -> u64 bijection.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Combine a stream tag with up to two identifiers into one stream key.
fn stream_key(tag: u64, a: u64, b: u64) -> u64 {
    mix(tag ^ mix(a).rotate_left(1) ^ mix(b).rotate_left(2))
}

/// Stable 64-bit hash of a context string (FNV-1a folded through [`mix`]).
fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix(h)
}

/// Deterministic splittable RNG: a SplitMix64 sequence whose starting
/// point is itself derived by mixing `(seed, stream, counter)`. Two
/// `SplitRng`s with any differing key component produce statistically
/// independent sequences, and the same key always produces the same
/// sequence — no shared mutable stream, so decision order between
/// unrelated streams cannot matter.
#[derive(Debug, Clone)]
pub struct SplitRng {
    state: u64,
}

impl SplitRng {
    /// Root sequence for `seed`.
    pub fn new(seed: u64) -> SplitRng {
        SplitRng { state: mix(seed) }
    }

    /// The sequence for decision `counter` on `stream` under `seed`.
    pub fn at(seed: u64, stream: u64, counter: u64) -> SplitRng {
        SplitRng { state: mix(mix(seed) ^ mix(stream)).wrapping_add(mix(counter)) }
    }

    /// Derive an independent child sequence tagged `stream`.
    pub fn split(&self, stream: u64) -> SplitRng {
        SplitRng { state: mix(self.state ^ mix(stream)) }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.state)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform integer in `[lo, hi)`; returns `lo` when the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_u64() % (hi - lo)
    }

    /// Pick one element of `items` (panics on an empty slice).
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() as u64) as usize]
    }
}

/// Knobs for a seeded fault schedule. All probabilities are per decision
/// point (per delivered segment, per connect attempt, per `buggify!`
/// call); durations are virtual time. [`FaultPlan::default`] injects
/// nothing — every fault class is opt-in.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Probability that a delivered segment picks up extra latency.
    /// Because arrivals stay monotonic per stream direction, a delayed
    /// segment also delays everything queued behind it, the FIN included
    /// (head-of-line blocking), which is how reordering pressure manifests
    /// in an in-order byte-stream transport.
    pub delay_prob: f64,
    /// Upper bound on the extra latency of a delayed segment.
    pub delay_max: Duration,
    /// Probability that a segment is dropped. The transport models
    /// lossless TCP (no retransmit timer), so a drop surfaces as a
    /// connection reset at the instant the segment would have arrived.
    pub drop_prob: f64,
    /// Probability that a `connect` is refused even though the listener
    /// is up (SYN lost / transient blackhole).
    pub connect_fail_prob: f64,
    /// Number of host outage windows to attempt to place on the targets
    /// passed to `install_fault_plan` within [`FaultPlan::horizon`].
    pub partitions: usize,
    /// Minimum duration of one outage window.
    pub outage_min: Duration,
    /// Maximum duration of one outage window.
    pub outage_max: Duration,
    /// Virtual-time span (from install) inside which outages are placed.
    pub horizon: Duration,
    /// Cap on concurrently-down target hosts. `install_fault_plan`
    /// additionally clamps this to `targets.len() - 1`, so at least one
    /// target always stays reachable.
    pub max_down: usize,
    /// Default probability for [`buggify!`](crate::buggify) points that
    /// do not pass an explicit one.
    pub buggify_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            delay_prob: 0.0,
            delay_max: Duration::from_millis(50),
            drop_prob: 0.0,
            connect_fail_prob: 0.0,
            partitions: 0,
            outage_min: Duration::from_secs(1),
            outage_max: Duration::from_secs(5),
            horizon: Duration::from_secs(60),
            max_down: 1,
            buggify_prob: 0.0,
        }
    }
}

impl FaultPlan {
    /// A moderately hostile preset: occasional segment delays and drops,
    /// rare connect refusals, and repeated partition/heal cycles — the
    /// default diet of `davix-simfuzz`.
    pub fn chaos() -> FaultPlan {
        FaultPlan {
            delay_prob: 0.05,
            delay_max: Duration::from_millis(80),
            drop_prob: 0.01,
            connect_fail_prob: 0.02,
            partitions: 6,
            outage_min: Duration::from_secs(2),
            outage_max: Duration::from_secs(8),
            horizon: Duration::from_secs(90),
            max_down: 2,
            buggify_prob: 0.05,
        }
    }

    /// Stable fingerprint of `(plan, seed)`. Two runs replay identically
    /// iff their fingerprints match, so failure reports print both:
    /// `seed=<u64> plan=<fingerprint>`.
    pub fn fingerprint(&self, seed: u64) -> u64 {
        let mut h = mix(seed);
        for word in [
            self.delay_prob.to_bits(),
            self.delay_max.as_nanos() as u64,
            self.drop_prob.to_bits(),
            self.connect_fail_prob.to_bits(),
            self.partitions as u64,
            self.outage_min.as_nanos() as u64,
            self.outage_max.as_nanos() as u64,
            self.horizon.as_nanos() as u64,
            self.max_down as u64,
            self.buggify_prob.to_bits(),
        ] {
            h = mix(h ^ mix(word));
        }
        h
    }

    /// The outage windows `(host, start, end)`, in virtual nanoseconds from
    /// install, that this plan places on `targets` under `seed`. At most
    /// `max_down` targets — and never all of them — are down at once.
    pub(crate) fn outage_windows(&self, seed: u64, targets: &[u32]) -> Vec<(u32, u64, u64)> {
        let mut rng = SplitRng::at(seed, STREAM_PLAN, 0);
        let horizon = dur_ns(self.horizon).max(1);
        let omin = dur_ns(self.outage_min).max(1);
        let omax = dur_ns(self.outage_max).max(omin + 1);
        let max_down = self.max_down.min(targets.len().saturating_sub(1));
        let mut windows: Vec<(u32, u64, u64)> = Vec::new();
        if max_down == 0 {
            return windows;
        }
        for _ in 0..self.partitions {
            let host = *rng.pick(targets);
            let start = rng.range(0, horizon);
            let end = start + rng.range(omin, omax);
            // A window is placed only if it keeps the concurrently-down set
            // within bounds; rejected draws are simply skipped so the
            // schedule stays a pure function of (plan, seed).
            let overlapping = || windows.iter().filter(|(_, s, e)| *s < end && start < *e);
            let host_busy = overlapping().any(|(h, _, _)| *h == host);
            if host_busy || overlapping().count() >= max_down {
                continue;
            }
            windows.push((host, start, end));
        }
        windows
    }
}

/// Counters for every fault decision taken so far; retrieved with
/// `SimNet::fault_stats` and folded into `davix-simfuzz` reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Segments that picked up extra latency.
    pub delays_injected: u64,
    /// Segments dropped (surfaced as connection resets).
    pub drops_injected: u64,
    /// Connect attempts refused by the plan.
    pub connects_refused: u64,
    /// Host outage windows that began.
    pub outages: u64,
    /// Host outage windows that ended (heals).
    pub heals: u64,
    /// `buggify!` decision points evaluated.
    pub buggify_decisions: u64,
    /// `buggify!` decision points that fired.
    pub buggify_hits: u64,
}

/// What the installed plan does to one outgoing segment.
pub(crate) enum Delivery {
    /// It arrives when the link model says.
    Pass,
    /// It is dropped.
    Drop,
    /// It arrives this many nanoseconds late.
    Delay(u64),
}

/// Live per-plan state attached to the simulator core: every fault
/// decision is one of its methods, so the simulator only asks and traces
/// the answer.
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    seed: u64,
    pub(crate) fingerprint: u64,
    pub(crate) stats: FaultStats,
    /// Per-(conn, dir) count of delivery decisions taken, keying the
    /// stateless per-segment RNG.
    seg_counters: HashMap<(usize, usize), u64>,
    /// Per-context count of buggify decisions taken.
    buggify_counters: HashMap<u64, u64>,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan, seed: u64) -> FaultState {
        let fingerprint = plan.fingerprint(seed);
        FaultState {
            plan,
            seed,
            fingerprint,
            stats: FaultStats::default(),
            seg_counters: HashMap::new(),
            buggify_counters: HashMap::new(),
        }
    }

    /// The plan's decision for the next outgoing segment on `(conn, dir)`.
    /// Decisions are keyed statelessly by `(seed, conn, dir, per-direction
    /// counter)`, so traffic on one connection never perturbs another's
    /// fault schedule.
    pub(crate) fn segment_fate(&mut self, conn: usize, dir: usize) -> Delivery {
        let counter = next_count(&mut self.seg_counters, (conn, dir));
        let stream = stream_key(STREAM_DELIVERY, conn as u64, dir as u64);
        let mut rng = SplitRng::at(self.seed, stream, counter);
        if rng.chance(self.plan.drop_prob) {
            self.stats.drops_injected += 1;
            Delivery::Drop
        } else if rng.chance(self.plan.delay_prob) {
            self.stats.delays_injected += 1;
            Delivery::Delay(rng.range(1, dur_ns(self.plan.delay_max).max(2)))
        } else {
            Delivery::Pass
        }
    }

    /// Whether the plan refuses connect attempt `cid` (SYN blackholed)
    /// even though the listener is up.
    pub(crate) fn refuses_connect(&mut self, cid: usize) -> bool {
        let stream = stream_key(STREAM_CONNECT, cid as u64, 0);
        let refused = SplitRng::at(self.seed, stream, 0).chance(self.plan.connect_fail_prob);
        self.stats.connects_refused += u64::from(refused);
        refused
    }

    /// One `buggify!` decision on context `ctx`, at the plan's probability.
    pub(crate) fn buggify_hit(&mut self, ctx: &str) -> bool {
        self.stats.buggify_decisions += 1;
        let ctx_hash = hash_str(ctx);
        let counter = next_count(&mut self.buggify_counters, ctx_hash);
        let stream = stream_key(STREAM_BUGGIFY, ctx_hash, 0);
        let hit = SplitRng::at(self.seed, stream, counter).chance(self.plan.buggify_prob);
        self.stats.buggify_hits += u64::from(hit);
        hit
    }
}

/// Count one more decision under `key`; returns the new count.
fn next_count<K: Hash + Eq>(counters: &mut HashMap<K, u64>, key: K) -> u64 {
    let c = counters.entry(key).or_insert(0);
    *c += 1;
    *c
}

/// Evaluate a sim-only fault decision point against the installed
/// [`FaultPlan`]. Returns `false` whenever no plan is installed, so
/// instrumented code costs nothing in plain runs.
///
/// ```ignore
/// if buggify!(net, "cache.evict-early") { cache.evict_all(); }
/// ```
#[macro_export]
macro_rules! buggify {
    ($net:expr, $ctx:expr) => {
        $net.buggify($ctx)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_rng_is_deterministic_and_stream_independent() {
        let mut a1 = SplitRng::at(7, STREAM_DELIVERY, 1);
        let mut a2 = SplitRng::at(7, STREAM_DELIVERY, 1);
        assert_eq!(a1.next_u64(), a2.next_u64());
        let mut b = SplitRng::at(7, STREAM_DELIVERY, 2);
        let mut c = SplitRng::at(8, STREAM_DELIVERY, 1);
        let base = SplitRng::at(7, STREAM_DELIVERY, 1).next_u64();
        assert_ne!(base, b.next_u64());
        assert_ne!(base, c.next_u64());
    }

    #[test]
    fn next_f64_stays_in_unit_interval() {
        let mut r = SplitRng::new(42);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn chance_matches_probability_roughly() {
        let mut r = SplitRng::new(1);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
        assert!(!SplitRng::new(2).chance(0.0));
        assert!(SplitRng::new(2).chance(1.1));
    }

    #[test]
    fn range_and_pick_are_bounded() {
        let mut r = SplitRng::new(9);
        for _ in 0..100 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
        assert_eq!(r.range(5, 5), 5);
        let items = [1, 2, 3];
        assert!(items.contains(r.pick(&items)));
    }

    #[test]
    fn fingerprint_distinguishes_seed_and_plan() {
        let p = FaultPlan::chaos();
        assert_eq!(p.fingerprint(1), p.fingerprint(1));
        assert_ne!(p.fingerprint(1), p.fingerprint(2));
        let mut q = p.clone();
        q.drop_prob += 0.001;
        assert_ne!(p.fingerprint(1), q.fingerprint(1));
        assert_ne!(FaultPlan::default().fingerprint(1), p.fingerprint(1));
    }

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::default();
        assert_eq!(p.delay_prob, 0.0);
        assert_eq!(p.drop_prob, 0.0);
        assert_eq!(p.connect_fail_prob, 0.0);
        assert_eq!(p.partitions, 0);
        assert_eq!(p.buggify_prob, 0.0);
    }

    #[test]
    fn hash_str_is_stable_and_collision_free_on_contexts() {
        assert_eq!(hash_str("cache.evict"), hash_str("cache.evict"));
        assert_ne!(hash_str("cache.evict"), hash_str("cache.evict2"));
        assert_ne!(hash_str(""), hash_str(" "));
    }
}
