//! Client-wide counters. Benchmarks difference these to report the paper's
//! key quantities: requests, round trips, connection reuse.

use davix_sync::{AtomicU64, Ordering};

/// Generates, from the one field list ([`metric_fields!`]), the atomic
/// struct, its plain-value [`MetricsSnapshot`], [`Metrics::snapshot`] and
/// [`MetricsSnapshot::since`].
macro_rules! metrics {
    ($($(#[$doc:meta])* $kind:ident $name:ident,)+) => {
        /// Atomic counters shared by all components of one client.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$doc])* pub $name: AtomicU64,)+
        }

        /// Value snapshot of [`Metrics`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct MetricsSnapshot {
            $(pub $name: u64,)+
        }

        impl Metrics {
            /// Plain-value copy of all counters.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)+ }
            }
        }

        impl MetricsSnapshot {
            /// Counter-wise difference against an earlier snapshot.
            /// `peak_body_buffer` and `peak_upload_buffer` are high-water
            /// marks, not counters: the newer snapshot's value is kept
            /// as-is.
            pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
                MetricsSnapshot { $($name: metrics!(@since $kind self.$name, earlier.$name),)+ }
            }
        }
    };
    (@since counter $now:expr, $earlier:expr) => { $now - $earlier };
    (@since peak $now:expr, $earlier:expr) => { $now };
}

/// The one list of [`Metrics`] fields — every `counter` and the two `peak`
/// high-water marks, each spelled once — handed to the macro `$with`.
macro_rules! metric_fields {
    ($with:ident) => {
        $with! {
            /// HTTP requests written to the wire (including retries and redirects).
            counter requests,
            /// Requests that were retried after a failure.
            counter retries,
            /// Redirect hops followed.
            counter redirects,
            /// New TCP sessions established.
            counter sessions_created,
            /// Sessions checked out from the idle pool (recycled).
            counter sessions_reused,
            /// Idle sessions dropped (TTL or pool overflow).
            counter sessions_discarded,
            /// Response body bytes received.
            counter bytes_in,
            /// Request bytes sent (heads + bodies).
            counter bytes_out,
            /// Body bytes delivered through [`ResponseStream`](crate::ResponseStream)
            /// reads (every response body flows through here, including the
            /// collect-to-`Vec` path of [`HttpExecutor::execute`](crate::HttpExecutor::execute)).
            counter bytes_streamed,
            /// High-water mark of any single collected body buffer, in bytes.
            /// Stays 0 while every consumer streams — the Fig. 2/3 benches use this
            /// to show the read path allocates nothing proportional to the body.
            peak peak_body_buffer,
            /// Multi-range (vectored) GETs issued.
            counter vectored_requests,
            /// Vectored reads that had to fall back to per-fragment requests.
            counter vector_fallbacks,
            /// Range requests a server answered with `200` + the full entity
            /// instead of `206` (the client then reads only the requested window).
            counter range_downgrades,
            /// Metalink documents fetched.
            counter metalinks_fetched,
            /// Replica fail-overs performed.
            counter failovers,
            /// Replicas blacklisted by the scheduler (consecutive-failure eviction).
            counter replicas_blacklisted,
            /// Active `OPTIONS` health probes sent to replicas.
            counter replica_probes,
            /// Multistream workers that switched to another replica after theirs
            /// failed (instead of dying and shrinking the stream pool).
            counter streams_respawned,
            /// Block-cache reads served from memory (no upstream request), including
            /// reads that joined another caller's in-flight fetch.
            counter cache_hits,
            /// Block-cache blocks that had to be fetched upstream.
            counter cache_misses,
            /// Bytes landed in the block cache by background read-ahead/prefetch.
            counter bytes_prefetched,
            /// Readers that parked on another caller's in-flight block fetch
            /// instead of issuing a duplicate request (single-flight dedup).
            counter singleflight_waits,
            /// Request-body payload bytes written to the wire by uploads
            /// (streaming bodies and buffered `PUT`s; retried bodies count every
            /// transmission). Protocol chatter with a body — PROPFIND XML,
            /// multipart-complete documents — is not an upload and is excluded.
            counter bytes_uploaded,
            /// Chunks committed by [`multistream_upload`](crate::multistream_upload)
            /// workers (successful segment/part PUTs, not counting retries).
            counter chunks_uploaded,
            /// Upload exchanges that were retried after a failure (5xx or a
            /// transport fault with the body partially sent).
            counter upload_retries,
            /// High-water mark of chunk payload resident in upload buffers, in
            /// bytes. Bounded by `chunk_size × streams` of the upload's
            /// [`UploadOptions`](crate::UploadOptions) — the write path never
            /// buffers the whole object.
            peak peak_upload_buffer,
        }
    };
}

metric_fields!(metrics);

impl Metrics {
    /// Add one to a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raise a high-water-mark gauge to at least `n`.
    pub(crate) fn record_max(gauge: &AtomicU64, n: u64) {
        gauge.fetch_max(n, Ordering::Relaxed);
    }
}

impl MetricsSnapshot {
    /// Fraction of cache lookups served from memory.
    pub fn cache_hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of session checkouts served from the pool.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.sessions_created + self.sessions_reused;
        if total == 0 {
            0.0
        } else {
            self.sessions_reused as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let m = Metrics::default();
        Metrics::bump(&m.requests);
        Metrics::add(&m.bytes_in, 100);
        let a = m.snapshot();
        assert_eq!(a.requests, 1);
        assert_eq!(a.bytes_in, 100);
        Metrics::bump(&m.requests);
        let d = m.snapshot().since(&a);
        assert_eq!(d.requests, 1);
        assert_eq!(d.bytes_in, 0);
    }

    /// Every snapshot field as `(name, is a high-water mark, value)`.
    macro_rules! fields_mut {
        ($($(#[$doc:meta])* $kind:ident $name:ident,)+) => {
            fn fields_mut(s: &mut MetricsSnapshot) -> Vec<(&'static str, bool, &mut u64)> {
                vec![$((stringify!($name), stringify!($kind) == "peak", &mut s.$name),)+]
            }
        };
    }
    metric_fields!(fields_mut);

    #[test]
    fn since_subtracts_every_counter_and_keeps_every_high_water_mark() {
        let (mut earlier, mut now) = (MetricsSnapshot::default(), MetricsSnapshot::default());
        for (i, (_, _, v)) in fields_mut(&mut earlier).into_iter().enumerate() {
            *v = i as u64 + 1;
        }
        for (i, (_, _, v)) in fields_mut(&mut now).into_iter().enumerate() {
            *v = 10 * (i as u64 + 1);
        }
        let mut delta = now.since(&earlier);
        let fields = fields_mut(&mut delta);
        assert_eq!(fields.len(), 26);
        let peaks: Vec<_> = fields.iter().filter(|f| f.1).map(|f| f.0).collect();
        assert_eq!(peaks, ["peak_body_buffer", "peak_upload_buffer"]);
        for (i, (name, peak, v)) in fields.into_iter().enumerate() {
            let i = i as u64 + 1;
            assert_eq!(*v, if peak { 10 * i } else { 9 * i }, "{name}");
        }
    }

    #[test]
    fn snapshot_copies_every_field() {
        let m = Metrics::default();
        Metrics::add(&m.requests, 3);
        Metrics::record_max(&m.peak_upload_buffer, 7);
        let mut snap = m.snapshot();
        let set: Vec<_> = fields_mut(&mut snap).into_iter().filter(|f| *f.2 != 0).collect();
        assert_eq!(set.len(), 2);
        assert_eq!((set[0].0, *set[0].2), ("requests", 3));
        assert_eq!((set[1].0, *set[1].2), ("peak_upload_buffer", 7));
    }

    #[test]
    fn reuse_ratio() {
        let s = MetricsSnapshot { sessions_created: 1, sessions_reused: 3, ..Default::default() };
        assert!((s.reuse_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(MetricsSnapshot::default().reuse_ratio(), 0.0);
    }
}
