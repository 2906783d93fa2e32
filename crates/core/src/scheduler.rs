//! Shared replica scheduling with health scoring.
//!
//! Both §2.4 strategies — fail-over ([`DavixClient::open_failover`]) and
//! multi-stream ([`multistream_download`]) — need the same decision made
//! over and over: *which replica should serve the next operation?* The
//! seed code answered it statically (walk the Metalink list in order;
//! round-robin streams at spawn time), which ignores everything the client
//! learns while running: which replicas are dead, which are slow, which
//! just recovered.
//!
//! [`ReplicaScheduler`] centralizes that knowledge. It owns the replica
//! list plus per-replica health state:
//!
//! * an **EWMA of observed latency** (every successful operation feeds a
//!   sample back), used to rank healthy replicas fastest-first;
//! * a **consecutive-failure blacklist**: after
//!   [`Config::replica_failure_threshold`] failures in a row a replica sits
//!   out for [`Config::replica_blacklist_cooldown`], then becomes eligible
//!   again (half-open — one more failure re-blacklists it, one success
//!   clears it);
//! * optionally, **active `OPTIONS` probes**: one round per
//!   [`ReplicaScheduler::probe_once`] call, on whatever schedule the caller
//!   keeps, through the same [`probe_endpoint`] primitive DynaFed's
//!   `HealthMonitor` runs on its own loop.
//!
//! Callers hold the scheduler's internal lock only to *pick* a replica or
//! *record* an outcome — never across network I/O — so any number of
//! threads can be in flight against any mix of replicas at once.
//!
//! [`DavixClient::open_failover`]: crate::DavixClient::open_failover
//! [`multistream_download`]: crate::multistream_download

use crate::config::Config;
use crate::executor::{Exchange, ExchangePoll, PreparedRequest};
use crate::metrics::Metrics;
use httpwire::{Method, Uri};
use netsim::{Connector, Runtime};
use parking_lot::Mutex;
use std::io::BufReader;
use std::sync::Arc;
use std::time::Duration;

/// Index of a replica inside its [`ReplicaScheduler`]. Stable for the
/// scheduler's lifetime (replicas are only ever appended).
pub type ReplicaId = usize;

/// EWMA smoothing factor of the per-replica latency score: the weight of
/// the newest sample.
const EWMA_ALPHA: f64 = 0.3;

/// Per-replica health state.
struct Health {
    uri: Uri,
    /// EWMA of observed operation latency, seconds. `None` = never sampled.
    ewma: Option<f64>,
    consecutive_failures: u32,
    /// While `now < blacklisted_until`, the replica is skipped by `pick`.
    blacklisted_until: Option<Duration>,
    successes: u64,
    failures: u64,
}

impl Health {
    fn new(uri: Uri) -> Health {
        Health {
            uri,
            ewma: None,
            consecutive_failures: 0,
            blacklisted_until: None,
            successes: 0,
            failures: 0,
        }
    }

    fn blacklisted_at(&self, now: Duration) -> bool {
        self.blacklisted_until.map(|t| now < t).unwrap_or(false)
    }

    /// Ranking key among healthy replicas: unknown latency sorts first (new
    /// replicas get probed eagerly, in list = Metalink priority order).
    fn score(&self) -> f64 {
        self.ewma.unwrap_or(0.0)
    }
}

/// Value snapshot of one replica's health, for observability and tests.
#[derive(Debug, Clone)]
pub struct ReplicaHealthSnapshot {
    /// The replica URI.
    pub uri: Uri,
    /// Smoothed observed latency, if any operation succeeded yet.
    pub ewma_latency: Option<Duration>,
    /// Failures since the last success.
    pub consecutive_failures: u32,
    /// Whether the replica is currently sitting out a blacklist cooldown.
    pub blacklisted: bool,
    /// Total successful operations served.
    pub successes: u64,
    /// Total failed operations.
    pub failures: u64,
}

/// Shared, thread-safe replica ranking (see the module docs).
pub struct ReplicaScheduler {
    rt: Arc<dyn Runtime>,
    /// Consecutive failures before a replica is blacklisted (at least 1).
    failure_threshold: u32,
    /// How long a blacklisted replica sits out before it may be re-tried.
    blacklist_cooldown: Duration,
    metrics: Option<Arc<Metrics>>,
    state: Mutex<Vec<Health>>,
}

impl ReplicaScheduler {
    /// Build a scheduler over `replicas` (kept in priority order), with the
    /// blacklist settings of `cfg`.
    pub fn new(
        replicas: Vec<Uri>,
        rt: Arc<dyn Runtime>,
        cfg: &Config,
        metrics: Option<Arc<Metrics>>,
    ) -> ReplicaScheduler {
        ReplicaScheduler {
            rt,
            failure_threshold: cfg.replica_failure_threshold.max(1),
            blacklist_cooldown: cfg.replica_blacklist_cooldown,
            metrics,
            state: Mutex::new(replicas.into_iter().map(Health::new).collect()),
        }
    }

    /// Number of replicas known to the scheduler.
    pub fn len(&self) -> usize {
        self.state.lock().len()
    }

    /// Whether the scheduler knows no replicas at all.
    pub fn is_empty(&self) -> bool {
        self.state.lock().is_empty()
    }

    /// The URI of replica `id`.
    pub fn uri(&self, id: ReplicaId) -> Option<Uri> {
        self.state.lock().get(id).map(|h| h.uri.clone())
    }

    /// Append replicas, skipping any already present (compared ignoring
    /// scheme/host case). Returns the ids of the newly added entries.
    pub(crate) fn add_replicas(&self, uris: impl IntoIterator<Item = Uri>) -> Vec<ReplicaId> {
        let mut st = self.state.lock();
        let mut added = Vec::new();
        for uri in uris {
            if st.iter().any(|h| same_resource(&h.uri, &uri)) {
                continue;
            }
            st.push(Health::new(uri));
            added.push(st.len() - 1);
        }
        added
    }

    /// Best replica to try next: the lowest-latency healthy one. Blacklisted
    /// replicas are skipped while their cooldown runs, but — last resort —
    /// are still handed out (soonest-to-recover first) when *nothing* else
    /// is left: the §2.4 guarantee is "a read succeeds as long as one
    /// replica is reachable", so the scheduler never refuses to name a
    /// candidate while untried replicas exist.
    pub fn pick(&self) -> Option<(ReplicaId, Uri)> {
        self.pick_excluding(&[])
    }

    /// As [`pick`](Self::pick), skipping the (per-operation) `exclude` set.
    pub(crate) fn pick_excluding(&self, exclude: &[ReplicaId]) -> Option<(ReplicaId, Uri)> {
        let now = self.rt.now();
        let st = self.state.lock();
        let mut best: Option<(ReplicaId, f64)> = None;
        let mut fallback: Option<(ReplicaId, Duration)> = None;
        for (id, h) in st.iter().enumerate() {
            if exclude.contains(&id) {
                continue;
            }
            if h.blacklisted_at(now) {
                let until = h.blacklisted_until.unwrap_or(now);
                if fallback.map(|(_, t)| until < t).unwrap_or(true) {
                    fallback = Some((id, until));
                }
            } else if best.map(|(_, s)| h.score() < s).unwrap_or(true) {
                best = Some((id, h.score()));
            }
        }
        let id = best.map(|(id, _)| id).or(fallback.map(|(id, _)| id))?;
        Some((id, st[id].uri.clone()))
    }

    /// Up to `k` healthy (non-blacklisted) replicas, fastest first.
    pub(crate) fn ranked(&self, k: usize) -> Vec<(ReplicaId, Uri)> {
        let now = self.rt.now();
        let st = self.state.lock();
        let mut healthy: Vec<(ReplicaId, f64)> = st
            .iter()
            .enumerate()
            .filter(|(_, h)| !h.blacklisted_at(now))
            .map(|(id, h)| (id, h.score()))
            .collect();
        healthy.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        healthy.into_iter().take(k).map(|(id, _)| (id, st[id].uri.clone())).collect()
    }

    /// Deterministic replica assignment for worker `slot` of a parallel
    /// download: healthy replicas are spread over slots fastest-first; when
    /// every replica is blacklisted the whole list is used instead (the
    /// caller's failure budget, not the scheduler, decides when to give up).
    pub fn assign(&self, slot: usize) -> Option<(ReplicaId, Uri)> {
        let healthy = self.ranked(usize::MAX);
        if !healthy.is_empty() {
            return healthy.get(slot % healthy.len()).cloned();
        }
        let st = self.state.lock();
        if st.is_empty() {
            return None;
        }
        // All blacklisted: order by soonest recovery so waiting slots cluster
        // on the replica most likely to answer first.
        let mut all: Vec<(ReplicaId, Duration)> = st
            .iter()
            .enumerate()
            .map(|(id, h)| (id, h.blacklisted_until.unwrap_or(Duration::ZERO)))
            .collect();
        all.sort_by_key(|&(id, until)| (until, id));
        let (id, _) = all[slot % all.len()];
        Some((id, st[id].uri.clone()))
    }

    /// Count of replicas currently eligible (not blacklisted).
    pub fn healthy_count(&self) -> usize {
        let now = self.rt.now();
        self.state.lock().iter().filter(|h| !h.blacklisted_at(now)).count()
    }

    /// Feed back a successful operation: updates the latency EWMA, clears
    /// the failure streak and lifts any blacklist.
    pub(crate) fn record_success(&self, id: ReplicaId, latency: Duration) {
        let mut st = self.state.lock();
        let Some(h) = st.get_mut(id) else { return };
        let sample = latency.as_secs_f64();
        h.ewma = Some(match h.ewma {
            Some(prev) => EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * prev,
            None => sample,
        });
        h.consecutive_failures = 0;
        h.blacklisted_until = None;
        h.successes += 1;
    }

    /// Feed back a liveness-only observation (an `OPTIONS` probe, a bare
    /// HEAD): clears the failure streak and any blacklist, but touches the
    /// read-latency EWMA only when the replica has no sample yet
    /// (bootstrap) — a ping's RTT carries no bandwidth information and must
    /// not erase what real transfers taught us about a replica's speed.
    pub(crate) fn record_probe(&self, id: ReplicaId, latency: Duration) {
        let mut st = self.state.lock();
        let Some(h) = st.get_mut(id) else { return };
        if h.ewma.is_none() {
            h.ewma = Some(latency.as_secs_f64());
        }
        h.consecutive_failures = 0;
        h.blacklisted_until = None;
    }

    /// Feed back a failed operation: extends the failure streak and, at the
    /// configured threshold, blacklists the replica for one cooldown.
    pub(crate) fn record_failure(&self, id: ReplicaId) {
        let now = self.rt.now();
        let mut st = self.state.lock();
        let Some(h) = st.get_mut(id) else { return };
        h.failures += 1;
        h.consecutive_failures += 1;
        if h.consecutive_failures >= self.failure_threshold {
            let newly = !h.blacklisted_at(now);
            h.blacklisted_until = Some(now + self.blacklist_cooldown);
            if newly {
                if let Some(m) = &self.metrics {
                    Metrics::bump(&m.replicas_blacklisted);
                }
            }
        }
    }

    /// One active probe round: `OPTIONS` every replica and feed the outcome
    /// back as a health sample (latency on success, a failure otherwise).
    /// Dead replicas get evicted (blacklisted) without any caller paying for
    /// the discovery; recovered ones get their cooldown lifted early.
    pub fn probe_once(&self, connector: &dyn Connector, timeout: Duration) {
        let targets: Vec<(ReplicaId, Uri)> = {
            let st = self.state.lock();
            st.iter().enumerate().map(|(id, h)| (id, h.uri.clone())).collect()
        };
        for (id, uri) in targets {
            if let Some(m) = &self.metrics {
                Metrics::bump(&m.replica_probes);
            }
            let t0 = self.rt.now();
            if probe_endpoint(connector, &uri.host, uri.port, timeout) {
                self.record_probe(id, self.rt.now() - t0);
            } else {
                self.record_failure(id);
            }
        }
    }

    /// Value snapshot of every replica's health, in id order.
    pub fn snapshot(&self) -> Vec<ReplicaHealthSnapshot> {
        let now = self.rt.now();
        self.state
            .lock()
            .iter()
            .map(|h| ReplicaHealthSnapshot {
                uri: h.uri.clone(),
                ewma_latency: h.ewma.map(Duration::from_secs_f64),
                consecutive_failures: h.consecutive_failures,
                blacklisted: h.blacklisted_at(now),
                successes: h.successes,
                failures: h.failures,
            })
            .collect()
    }
}

/// One liveness probe: TCP connect, then one bodyless `OPTIONS /`
/// [`Exchange`] on it, `timeout` bounding the connect and each read; any
/// well-formed final response head counts as alive. This is the reusable
/// primitive behind both the scheduler's active probing and DynaFed's
/// `HealthMonitor`.
pub fn probe_endpoint(connector: &dyn Connector, host: &str, port: u16, timeout: Duration) -> bool {
    let Ok(mut stream) = connector.connect(host, port, Some(timeout)) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(timeout));
    let uri = Uri::new("http", host, port, "/");
    let req = PreparedRequest::new(Method::Options, uri).header("Connection", "close");
    let polled = Exchange::new(&req).poll(&mut BufReader::new(stream));
    matches!(polled, Ok(ExchangePoll::Head(_)))
}

/// Whether two URIs name the same resource: scheme and host compared
/// case-insensitively (RFC 3986 §6.2.2.1), port and path exactly.
pub(crate) fn same_resource(a: &Uri, b: &Uri) -> bool {
    a.scheme.eq_ignore_ascii_case(&b.scheme)
        && a.host.eq_ignore_ascii_case(&b.host)
        && a.port == b.port
        && a.path == b.path
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::SimNet;

    fn uris(n: usize) -> Vec<Uri> {
        (0..n).map(|i| format!("http://r{i}.example/f").parse().unwrap()).collect()
    }

    fn cfg() -> Config {
        Config::default().replica_blacklist(2, Duration::from_millis(500))
    }

    fn sim_sched(n: usize) -> (SimNet, Arc<ReplicaScheduler>) {
        let net = SimNet::new();
        net.add_host("h");
        let sched = Arc::new(ReplicaScheduler::new(uris(n), net.runtime(), &cfg(), None));
        (net, sched)
    }

    #[test]
    fn pick_prefers_untried_then_fastest() {
        let (net, s) = sim_sched(3);
        let _g = net.enter();
        // All untried: list order.
        assert_eq!(s.pick().unwrap().0, 0);
        s.record_success(0, Duration::from_millis(80));
        s.record_success(1, Duration::from_millis(10));
        // Replica 2 is still unsampled → tried first; then the fastest.
        assert_eq!(s.pick().unwrap().0, 2);
        s.record_success(2, Duration::from_millis(40));
        assert_eq!(s.pick().unwrap().0, 1);
        assert_eq!(s.ranked(2).iter().map(|(id, _)| *id).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn blacklist_after_threshold_and_cooldown_reopen() {
        let (net, s) = sim_sched(2);
        let _g = net.enter();
        s.record_success(0, Duration::from_millis(1));
        s.record_failure(0);
        assert_eq!(s.healthy_count(), 2, "one failure is under the threshold");
        s.record_failure(0);
        assert_eq!(s.healthy_count(), 1, "second consecutive failure blacklists");
        assert_eq!(s.pick().unwrap().0, 1);
        // Cooldown expiry re-opens the replica (half-open).
        net.sleep(Duration::from_millis(600));
        assert_eq!(s.healthy_count(), 2);
        // A success clears the streak for good; a failure re-blacklists at once.
        s.record_failure(0);
        assert_eq!(s.healthy_count(), 1, "half-open failure re-blacklists immediately");
        net.sleep(Duration::from_millis(600));
        s.record_success(0, Duration::from_millis(1));
        s.record_failure(0);
        assert_eq!(s.healthy_count(), 2, "success reset the failure streak");
    }

    #[test]
    fn pick_falls_back_to_blacklisted_as_last_resort() {
        let (net, s) = sim_sched(2);
        let _g = net.enter();
        for id in 0..2 {
            s.record_failure(id);
            s.record_failure(id);
        }
        assert_eq!(s.healthy_count(), 0);
        // Nothing healthy, but pick still names a candidate (soonest-to-recover).
        assert!(s.pick().is_some());
        // Excluding both: nothing left.
        assert!(s.pick_excluding(&[0, 1]).is_none());
        // assign() also keeps handing out blacklisted replicas.
        assert!(s.assign(0).is_some());
    }

    #[test]
    fn add_replicas_dedupes_ignoring_case() {
        let (net, s) = sim_sched(1);
        let _g = net.enter();
        let added = s.add_replicas(vec![
            "http://R0.EXAMPLE/f".parse().unwrap(), // dup of r0, case-shifted
            "http://r1.example/f".parse().unwrap(),
        ]);
        assert_eq!(added, vec![1]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ewma_smooths_latency() {
        let (net, s) = sim_sched(1);
        let _g = net.enter();
        s.record_success(0, Duration::from_millis(100));
        s.record_success(0, Duration::from_millis(200));
        let ewma = s.snapshot()[0].ewma_latency.unwrap();
        // alpha = 0.3: 0.3*200 + 0.7*100 = 130 ms.
        assert!((ewma.as_secs_f64() - 0.130).abs() < 1e-9, "{ewma:?}");
    }

    #[test]
    fn probes_bootstrap_but_never_overwrite_data_latency() {
        let (net, s) = sim_sched(1);
        let _g = net.enter();
        // Bootstrap: with no data sample yet, the probe RTT seeds the EWMA.
        s.record_probe(0, Duration::from_millis(5));
        assert_eq!(s.snapshot()[0].ewma_latency, Some(Duration::from_millis(5)));
        // A real transfer moves it; later probes must not touch it — a
        // ping's RTT says nothing about bandwidth.
        s.record_success(0, Duration::from_millis(400));
        let data = s.snapshot()[0].ewma_latency;
        s.record_probe(0, Duration::from_millis(5));
        assert_eq!(s.snapshot()[0].ewma_latency, data, "probe moved the data signal");
        // But a probe does lift a blacklist (liveness is what it measures).
        s.record_failure(0);
        s.record_failure(0);
        assert_eq!(s.healthy_count(), 0);
        s.record_probe(0, Duration::from_millis(5));
        assert_eq!(s.healthy_count(), 1);
    }

    #[test]
    fn probe_rounds_evict_and_readmit() {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("r0.example");
        let listener = net.bind("r0.example", 80).unwrap();
        net.spawn("opt-server", move || loop {
            match listener.accept_sim() {
                Ok((mut s, _)) => {
                    use std::io::{Read, Write};
                    let mut buf = [0u8; 1024];
                    let _ = s.read(&mut buf);
                    let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
                }
                Err(_) => return,
            }
        });
        let sched = Arc::new(ReplicaScheduler::new(
            vec!["http://r0.example/f".parse().unwrap()],
            net.runtime(),
            &Config::default().replica_blacklist(1, Duration::from_secs(3600)),
            None,
        ));
        let _g = net.enter();
        sched.probe_once(net.connector("c").as_ref(), Duration::from_secs(1));
        assert_eq!(sched.healthy_count(), 1);
        assert!(sched.snapshot()[0].ewma_latency.is_some(), "probe fed a latency sample");

        net.set_host_down("r0.example", true);
        sched.probe_once(net.connector("c").as_ref(), Duration::from_secs(1));
        assert_eq!(sched.healthy_count(), 0, "dead replica evicted by the probe");

        // Recovery lifts the (hour-long) blacklist without waiting it out.
        net.set_host_down("r0.example", false);
        net.sleep(Duration::from_millis(10));
        sched.probe_once(net.connector("c").as_ref(), Duration::from_secs(1));
        assert_eq!(sched.healthy_count(), 1, "probe readmitted the recovered replica");
    }

    /// A probe to a non-default port names it in `Host` (RFC 7230 §5.4), as
    /// the executor's requests do; port 80 stays bare.
    #[test]
    fn probe_host_header_carries_a_non_default_port() {
        let net = SimNet::new();
        net.add_host("c");
        net.add_host("r0.example");
        let heads = Arc::new(Mutex::new(Vec::new()));
        for port in [8080u16, 80] {
            let listener = net.bind("r0.example", port).unwrap();
            let heads = Arc::clone(&heads);
            net.spawn("recording-server", move || {
                if let Ok((mut s, _)) = listener.accept_sim() {
                    use std::io::{Read, Write};
                    let mut buf = [0u8; 1024];
                    let n = s.read(&mut buf).unwrap_or(0);
                    heads.lock().push(String::from_utf8_lossy(&buf[..n]).into_owned());
                    let _ = s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n");
                }
            });
        }
        let _g = net.enter();
        let connector = net.connector("c");
        for port in [8080u16, 80] {
            assert!(probe_endpoint(connector.as_ref(), "r0.example", port, Duration::from_secs(1)));
        }
        let heads = heads.lock();
        assert!(heads[0].contains("\r\nHost: r0.example:8080\r\n"), "{}", heads[0]);
        assert!(heads[1].contains("\r\nHost: r0.example\r\n"), "{}", heads[1]);
    }

    #[test]
    fn same_resource_ignores_case_only_where_allowed() {
        let a: Uri = "http://host.example/Path".parse().unwrap();
        assert!(same_resource(&a, &"HTTP://HOST.EXAMPLE/Path".parse().unwrap()));
        assert!(!same_resource(&a, &"http://host.example/path".parse().unwrap()));
        assert!(!same_resource(&a, &"http://host.example:81/Path".parse().unwrap()));
    }
}
