//! The top-level client handle.

use crate::cache::BlockCache;
use crate::config::Config;
use crate::error::{DavixError, Result};
use crate::executor::HttpExecutor;
use crate::file::DavFile;
use crate::iopool::IoPool;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::posix::DavPosix;
use httpwire::Uri;
use netsim::{Connector, Runtime};
use std::sync::Arc;

/// Shared internals of a client (executor + config); everything a `DavFile`
/// needs to do I/O.
pub struct ClientInner {
    pub(crate) executor: HttpExecutor,
    pub(crate) cfg: Config,
    /// The shared block cache, present when `Config::cache_capacity_bytes`
    /// is non-zero. All files opened through this client share it.
    pub(crate) cache: Option<Arc<BlockCache>>,
    /// Shared bounded worker pool for background I/O (multi-stream
    /// transfers, read-ahead).
    pub(crate) io_pool: Arc<IoPool>,
}

impl ClientInner {
    /// A scheduler over `replicas` on this client's runtime, metrics and
    /// blacklist settings.
    pub(crate) fn replica_scheduler(&self, replicas: Vec<Uri>) -> Arc<crate::ReplicaScheduler> {
        Arc::new(crate::ReplicaScheduler::new(
            replicas,
            Arc::clone(self.executor.runtime()),
            &self.cfg,
            Some(Arc::clone(self.executor.metrics())),
        ))
    }
}

/// A davix client: connection pool, request executor and the file-oriented
/// API on top. Cheap to clone; all clones share the pool.
#[derive(Clone)]
pub struct DavixClient {
    pub(crate) inner: Arc<ClientInner>,
}

impl DavixClient {
    /// Build a client over any transport ([`netsim::SimNet::connector`] or
    /// [`netsim::TcpConnector`]) and runtime.
    pub fn new(connector: Arc<dyn Connector>, rt: Arc<dyn Runtime>, cfg: Config) -> DavixClient {
        let metrics = Arc::new(Metrics::default());
        let executor = HttpExecutor::new(connector, rt, cfg.clone(), Arc::clone(&metrics));
        let io_pool = IoPool::new(Arc::clone(executor.runtime()), cfg.io_threads);
        let cache = (cfg.cache_capacity_bytes > 0).then(|| {
            BlockCache::new(
                Arc::clone(executor.runtime()),
                Arc::clone(&io_pool),
                metrics,
                crate::config::CACHE_BLOCK_SIZE,
                cfg.cache_capacity_bytes,
            )
        });
        DavixClient { inner: Arc::new(ClientInner { executor, cfg, cache, io_pool }) }
    }

    /// Parse a URL.
    pub fn parse_url(&self, url: &str) -> Result<Uri> {
        url.parse().map_err(DavixError::from)
    }

    /// Open a remote file (HEAD + size discovery).
    pub fn open(&self, url: &str) -> Result<DavFile> {
        let uri = self.parse_url(url)?;
        DavFile::open(&self.inner, uri, false)
    }

    /// Open with Metalink fail-over: any replica-eligible failure triggers
    /// replica discovery and transparent switch-over (§2.4, default
    /// strategy). The same [`DavFile`] as [`open`](Self::open) returns,
    /// with [`DavFile::scheduler`] ranking its replicas.
    pub fn open_failover(&self, url: &str) -> Result<DavFile> {
        let uri = self.parse_url(url)?;
        DavFile::open(&self.inner, uri, true)
    }

    /// The client's shared background-I/O worker pool (multi-stream
    /// transfers, read-ahead). Exposed for diagnostics and tests.
    pub fn io_pool(&self) -> &Arc<IoPool> {
        &self.inner.io_pool
    }

    /// POSIX-flavoured namespace operations (stat/opendir/mkdir/unlink…).
    pub fn posix(&self) -> DavPosix {
        DavPosix::new(Arc::clone(&self.inner))
    }

    /// A [`ReplicaScheduler`] over `replicas`, wired to this client's
    /// runtime, metrics and health knobs. Share one between fail-over reads
    /// and [`multistream_download`] so both feed the same health picture.
    ///
    /// [`ReplicaScheduler`]: crate::ReplicaScheduler
    /// [`multistream_download`]: crate::multistream_download
    pub fn replica_scheduler(&self, replicas: Vec<Uri>) -> Arc<crate::ReplicaScheduler> {
        self.inner.replica_scheduler(replicas)
    }

    /// Resolve the Metalink of `url` without opening the file (§2.4): the
    /// replica list, with the size and checksums a download verifies.
    pub fn resolve_replica_set(&self, url: &str) -> Result<crate::replicas::ReplicaSet> {
        let uri = self.parse_url(url)?;
        crate::replicas::fetch_replica_set(&self.inner, &uri)
    }

    /// Counter snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.executor.metrics().snapshot()
    }

    /// The executor, for advanced callers (benchmarks issue raw requests).
    pub fn executor(&self) -> &HttpExecutor {
        &self.inner.executor
    }

    /// The configuration in force.
    pub fn config(&self) -> &Config {
        &self.inner.cfg
    }
}
