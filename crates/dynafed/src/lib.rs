//! # dynafed — a dynamic storage federation
//!
//! The paper pairs libdavix with DynaFed (*Dynamic Storage Federation*,
//! Furano et al.): a service that aggregates storage endpoints into one
//! namespace and hands clients **Metalink** documents describing where the
//! replicas of a resource live (§2.4). This crate reproduces that role:
//!
//! * [`ReplicaCatalog`]: path → replica list with priorities and liveness;
//! * [`FedHandler`]: an [`httpd::Handler`] that answers
//!   `GET …?metalink` with an RFC 5854 document of the *live* replicas, and
//!   plain `GET` with a `302` redirect to the best live replica;
//! * [`HealthMonitor`]: a background prober that sends `OPTIONS` to each
//!   replica host on an interval and flips liveness in the catalog;
//! * [`Federation`]: glue to serve the handler on a host.

pub mod catalog;
pub mod handler;
pub mod health;

pub use catalog::{Replica, ReplicaCatalog};
pub use handler::FedHandler;
pub use health::HealthMonitor;

use httpd::{HttpServer, ServerConfig};
use netsim::{Listener, Runtime};
use std::sync::Arc;

/// A running federation service.
pub struct Federation {
    /// The shared catalog (register replicas here).
    pub catalog: Arc<ReplicaCatalog>,
    /// The HTTP server.
    pub server: Arc<HttpServer>,
}

impl Federation {
    /// Serve a federation with namespace prefix `prefix` (e.g. `/myfed`).
    pub fn start(
        catalog: Arc<ReplicaCatalog>,
        prefix: &str,
        listener: Box<dyn Listener>,
        rt: Arc<dyn Runtime>,
    ) -> Federation {
        let handler = Arc::new(FedHandler::new(Arc::clone(&catalog), prefix));
        let server = HttpServer::new(handler, ServerConfig::default());
        server.serve(listener, rt);
        Federation { catalog, server }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_assembles() {
        let net = netsim::SimNet::new();
        net.add_host("fed");
        let catalog = Arc::new(ReplicaCatalog::new());
        catalog.register("/f", Replica::new("http://a/f", 1));
        let fed = Federation::start(
            catalog,
            "/myfed",
            Box::new(net.bind("fed", 80).unwrap()),
            net.runtime(),
        );
        assert_eq!(fed.catalog.replicas("/f").len(), 1);
    }
}
