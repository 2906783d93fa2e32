//! Replica health probing.
//!
//! DynaFed keeps its view of endpoint liveness fresh by probing; we do the
//! same with one bodyless `OPTIONS` exchange per host on a runtime thread.
//! The probe is [`davix::scheduler::probe_endpoint`]: the client's own
//! [`davix::Exchange`] with a deadline, so the client-side
//! [`davix::ReplicaScheduler`], this server-side monitor and every other
//! client request speak HTTP through one implementation.

use crate::catalog::ReplicaCatalog;
use davix::scheduler::probe_endpoint;
use davix_sync::{AtomicBool, Ordering};
use netsim::{Connector, Runtime};
use std::sync::Arc;
use std::time::Duration;

/// How long a probe waits to connect and for each read of its answer.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Background health monitor. Stop it with [`HealthMonitor::stop`]; it exits
/// at the next tick.
pub struct HealthMonitor {
    stop: Arc<AtomicBool>,
}

impl HealthMonitor {
    /// Start probing every host in `catalog` each `interval`. A host is
    /// *alive* when a TCP connect + `OPTIONS /` gets a final HTTP response
    /// head within two seconds per step.
    pub fn start(
        catalog: Arc<ReplicaCatalog>,
        connector: Arc<dyn Connector>,
        rt: Arc<dyn Runtime>,
        interval: Duration,
        rounds: Option<u32>,
    ) -> HealthMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let rt2 = Arc::clone(&rt);
        rt.spawn(
            "dynafed-health",
            Box::new(move || {
                let mut round = 0u32;
                loop {
                    if stop2.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(max) = rounds {
                        if round >= max {
                            return;
                        }
                    }
                    round += 1;
                    for (host, port) in catalog.hosts() {
                        let alive = probe_endpoint(connector.as_ref(), &host, port, PROBE_TIMEOUT);
                        catalog.mark_host(&host, alive);
                    }
                    rt2.sleep(interval);
                }
            }),
        );
        HealthMonitor { stop }
    }

    /// Ask the monitor to exit at its next tick.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Replica;
    use bytes::Bytes;
    use httpd::ServerConfig;
    use netsim::{LinkSpec, SimNet};
    use objstore::{ObjectStore, StorageNode, StorageOptions};

    #[test]
    fn monitor_flips_liveness_both_ways() {
        let net = SimNet::new();
        net.add_host("fed");
        net.add_host("dpm1");
        net.set_link(
            "fed",
            "dpm1",
            LinkSpec { delay: Duration::from_millis(1), ..Default::default() },
        );
        let store = Arc::new(ObjectStore::new());
        store.put("/f", Bytes::from_static(b"x"));
        StorageNode::start(
            store,
            Box::new(net.bind("dpm1", 80).unwrap()),
            net.runtime(),
            StorageOptions::default(),
            ServerConfig::default(),
        );

        let catalog = Arc::new(ReplicaCatalog::new());
        catalog.register("/f", Replica::new("http://dpm1/f", 1));
        catalog.mark_host("dpm1", false); // start pessimistic

        let monitor = HealthMonitor::start(
            Arc::clone(&catalog),
            net.connector("fed"),
            net.runtime(),
            Duration::from_millis(100),
            Some(2),
        );

        let _g = net.enter();
        net.sleep(Duration::from_millis(50));
        assert!(
            !catalog.live_replicas("/f").is_empty(),
            "first probe round should mark dpm1 alive"
        );

        // Take the host down; the second round must notice.
        net.set_host_down("dpm1", true);
        net.sleep(Duration::from_millis(150));
        assert!(catalog.live_replicas("/f").is_empty(), "second probe should mark dpm1 dead");
        monitor.stop();
    }
}
