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
    /// Maximum redirect hops before [`DavixError::RedirectLoop`](crate::DavixError).
    pub max_redirects: u32,
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
    /// Block size of the shared client-side block cache (see
    /// [`BlockCache`]). Reads are rounded to block-aligned upstream
    /// fetches; bigger blocks mean fewer round trips, smaller blocks less
    /// over-read on sparse access.
    ///
    /// [`BlockCache`]: crate::BlockCache
    pub cache_block_size: u64,
    /// Capacity of the block cache in bytes of cached payload. **0 disables
    /// the cache entirely (the default)** — every read goes to the wire
    /// exactly as in previous releases.
    pub cache_capacity_bytes: u64,
    /// Initial read-ahead window opened once a file handle is detected
    /// reading sequentially (bytes). **0 disables read-ahead (the
    /// default).** Read-ahead requires the cache
    /// ([`cache_capacity_bytes`](Config::cache_capacity_bytes) > 0) —
    /// prefetched blocks land there.
    pub readahead_min: u64,
    /// Ceiling the adaptive read-ahead window grows to (doubling on each
    /// consecutive sequential read). 0 disables read-ahead.
    pub readahead_max: u64,
    /// Upload bodies at least this large are sent with
    /// `Expect: 100-continue`, so a server that rejects the request (auth,
    /// redirect, quota) can say so *before* the client ships the payload.
    /// Bodies of unknown length always use it; `u64::MAX` disables it.
    pub expect_continue_threshold: u64,
    /// Concurrency cap of the client's shared background-I/O pool
    /// ([`IoPool`]): multi-stream download workers, parallel upload
    /// workers and cache read-ahead fetches all draw from this budget
    /// instead of spawning their own threads.
    ///
    /// [`IoPool`]: crate::IoPool
    pub io_threads: usize,
    /// `User-Agent` header.
    pub user_agent: String,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_idle_per_endpoint: 16,
            connect_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(120),
            max_redirects: 8,
            retry: RetryPolicy::default(),
            range_policy: RangePolicy::MultiRange,
            metalink_base: None,
            replica_failure_threshold: 2,
            replica_blacklist_cooldown: Duration::from_secs(5),
            cache_block_size: 256 * 1024,
            cache_capacity_bytes: 0,
            readahead_min: 0,
            readahead_max: 0,
            expect_continue_threshold: 256 * 1024,
            io_threads: 16,
            user_agent: "davix-rs/0.1".to_string(),
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

    /// Set the block size of the block cache.
    ///
    /// # Panics
    /// Panics on a zero block size (disable the cache by setting capacity
    /// to 0 instead).
    pub fn with_cache_block_size(mut self, block_size: u64) -> Self {
        assert!(block_size > 0, "cache block size must be non-zero");
        self.cache_block_size = block_size;
        self
    }

    /// Enable adaptive read-ahead: the prefetch window opens at `min`
    /// bytes on the second consecutive sequential read and doubles up to
    /// `max`. Either bound at 0 disables read-ahead.
    pub fn with_readahead(mut self, min: u64, max: u64) -> Self {
        self.readahead_min = min;
        self.readahead_max = max.max(min);
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
        assert!(c.max_redirects >= 1);
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
