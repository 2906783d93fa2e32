//! Client configuration.

use httpwire::Uri;
use std::time::Duration;

/// How the client issues vectored reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePolicy {
    /// Pack fragments into one multi-range request; degrade gracefully when
    /// the server answers with a single range or the full entity (default —
    /// this is the §2.3 design).
    MultiRange,
    /// Never send multi-range: issue one single-range request per coalesced
    /// fragment, dispatched in parallel through the session pool. (The
    /// pre-davix state of the art; used as an ablation baseline.)
    SingleRanges,
}

/// Retry behaviour for idempotent requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Extra attempts after the first failure (0 = never retry).
    pub retries: u32,
    /// Base backoff between attempts (doubled each retry, virtual time).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { retries: 2, backoff: Duration::from_millis(50) }
    }
}

/// Tunables of a [`DavixClient`](crate::DavixClient).
#[derive(Debug, Clone)]
pub struct Config {
    /// Idle keep-alive sessions kept per endpoint (Figure 2's pool).
    pub max_idle_per_endpoint: usize,
    /// Connect timeout.
    pub connect_timeout: Duration,
    /// Per-read inactivity timeout on responses.
    pub io_timeout: Duration,
    /// Retry policy for idempotent requests.
    pub retry: RetryPolicy,
    /// Vectored-read strategy.
    pub range_policy: RangePolicy,
    /// Where to fetch Metalinks: `Some(base)` queries
    /// `{base}{path}?metalink` (a federation service); `None` asks the
    /// resource's own origin (`{url}?metalink`).
    pub metalink_base: Option<Uri>,
    /// Consecutive failures before the replica scheduler blacklists a
    /// replica (§2.4 health scoring; see [`ReplicaScheduler`]).
    ///
    /// [`ReplicaScheduler`]: crate::ReplicaScheduler
    pub replica_failure_threshold: u32,
    /// How long a blacklisted replica sits out before becoming eligible
    /// again (half-open: one success clears it, one failure re-blacklists).
    pub replica_blacklist_cooldown: Duration,
    /// Capacity of the block cache (see [`BlockCache`]) in bytes of cached
    /// payload, held in 256 KiB blocks. **0 disables the cache entirely
    /// (the default)** — every read goes to the wire exactly as in previous
    /// releases.
    ///
    /// [`BlockCache`]: crate::BlockCache
    pub cache_capacity_bytes: u64,
    /// Adaptive read-ahead (off by default): once a file handle reads
    /// sequentially, a prefetch window opens at one cache block and doubles
    /// per consecutive read up to 16 blocks (4 MiB). It requires the cache
    /// ([`cache_capacity_bytes`](Config::cache_capacity_bytes) > 0) —
    /// prefetched blocks land there.
    pub readahead: bool,
    /// Concurrency cap of the client's shared background-I/O pool
    /// ([`IoPool`]): multi-stream download workers, parallel upload
    /// workers, cache read-ahead fetches, the replica fan-out of a vectored
    /// read and the parallel single-range fallback all draw from this
    /// budget instead of spawning their own threads. It bounds every thread
    /// the client starts for I/O; work the pool has no worker for runs on
    /// the calling thread.
    ///
    /// [`IoPool`]: crate::IoPool
    pub io_threads: usize,
}

/// Redirect hops followed before [`DavixError::RedirectLoop`](crate::DavixError).
pub(crate) const MAX_REDIRECTS: u32 = 8;

/// Block size of the shared client-side block cache: reads are rounded to
/// block-aligned upstream fetches of this many bytes.
pub(crate) const CACHE_BLOCK_SIZE: u64 = 256 * 1024;

/// The read-ahead window's ceiling, in cache blocks (4 MiB).
pub(crate) const READAHEAD_MAX_BLOCKS: u64 = 16;

/// Upload bodies at least this long are sent with `Expect: 100-continue`,
/// so a server that rejects the request (auth, redirect, quota) can say so
/// *before* the client ships the payload. Bodies of unknown length always
/// are.
pub(crate) const EXPECT_CONTINUE_THRESHOLD: u64 = 256 * 1024;

/// The `User-Agent` every request carries.
pub(crate) const USER_AGENT: &str = "davix-rs/0.1";

impl Default for Config {
    fn default() -> Self {
        Config {
            max_idle_per_endpoint: 16,
            connect_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(120),
            retry: RetryPolicy::default(),
            range_policy: RangePolicy::MultiRange,
            metalink_base: None,
            replica_failure_threshold: 2,
            replica_blacklist_cooldown: Duration::from_secs(5),
            cache_capacity_bytes: 0,
            readahead: false,
            io_threads: 16,
        }
    }
}

impl Config {
    /// Disable retries (useful in tests that count requests).
    pub fn no_retry(mut self) -> Self {
        self.retry = RetryPolicy { retries: 0, backoff: Duration::ZERO };
        self
    }

    /// Use the single-range ablation mode.
    pub fn single_ranges(mut self) -> Self {
        self.range_policy = RangePolicy::SingleRanges;
        self
    }

    /// Cap the shared background-I/O pool at `n` worker threads.
    pub fn with_io_threads(mut self, n: usize) -> Self {
        self.io_threads = n.max(1);
        self
    }

    /// Point metalink discovery at a federation service.
    pub fn with_metalink_base(mut self, base: Uri) -> Self {
        self.metalink_base = Some(base);
        self
    }

    /// Tune the replica scheduler's blacklist (failures before eviction and
    /// the cooldown before a blacklisted replica is re-tried).
    pub fn replica_blacklist(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.replica_failure_threshold = threshold;
        self.replica_blacklist_cooldown = cooldown;
        self
    }

    /// Enable the shared block cache with `capacity_bytes` of cached
    /// payload (0 disables).
    pub fn with_cache(mut self, capacity_bytes: u64) -> Self {
        self.cache_capacity_bytes = capacity_bytes;
        self
    }

    /// Enable adaptive read-ahead: the prefetch window opens at one cache
    /// block on the second consecutive sequential read and doubles up to
    /// 16 blocks.
    pub fn with_readahead(mut self) -> Self {
        self.readahead = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(c.max_idle_per_endpoint >= 1);
        assert_eq!(c.range_policy, RangePolicy::MultiRange);
        assert!(c.metalink_base.is_none());
    }

    #[test]
    fn builder_helpers() {
        let c = Config::default().no_retry().single_ranges();
        assert_eq!(c.retry.retries, 0);
        assert_eq!(c.range_policy, RangePolicy::SingleRanges);
        let base: Uri = "http://fed.cern.ch/myfed".parse().unwrap();
        let c = Config::default().with_metalink_base(base.clone());
        assert_eq!(c.metalink_base, Some(base));
        let c = Config::default().replica_blacklist(5, Duration::from_secs(1));
        assert_eq!(c.replica_failure_threshold, 5);
        assert_eq!(c.replica_blacklist_cooldown, Duration::from_secs(1));
    }
}
