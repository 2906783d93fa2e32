//! A bounded, spawn-on-demand worker pool for the client's background I/O,
//! and the chunk-transfer engine both parallel transfers run on it.
//!
//! Multi-stream downloads, parallel uploads and cache read-ahead all need
//! worker threads. Before this pool each call site spawned its own
//! (`streams` threads per download, one per prefetch batch, …), so a busy
//! client's thread count was the *sum* of every concurrent operation's
//! appetite. [`IoPool`] caps it at [`Config::io_threads`] for the whole
//! client: jobs queue, workers are spawned only while fewer than the cap
//! are live, and a worker exits as soon as the queue is drained — an idle
//! client holds zero pool threads, and (under simulation) a drained pool
//! leaves no parked waiters or pending timers to perturb virtual time.
//!
//! Jobs must be independent: a job that blocks waiting for a *queued* job
//! to run would deadlock a saturated pool. `run_chunked` is the shape
//! that keeps to it, written once for both directions: its workers drain a
//! shared chunk queue and exit, so any subset of them making progress
//! completes the batch. (`util::parallel_map` stays on raw runtime threads
//! for the same reason: as pool jobs, its ordered-result waits could queue
//! behind the very jobs they wait for.)
//!
//! [`Config::io_threads`]: crate::Config::io_threads

use crate::error::{DavixError, Result};
use netsim::Runtime;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send>;

struct PoolState {
    queue: VecDeque<Job>,
    /// Workers currently running (or committed to spawn).
    live: usize,
    /// High-water mark of `live`, for tests and diagnostics.
    peak_live: usize,
    /// Monotonic spawn counter (names threads).
    spawned: u64,
    /// Happens-before clock for the submit→run handoff: everything the
    /// submitter did before `submit` is ordered before the job body, even
    /// though the job may run on a worker that skipped the submitter's
    /// unlock (no-op without the `race-detect` feature).
    handoff: davix_sync::race::SyncObj,
}

/// Bounded spawn-on-demand worker pool shared by one client.
pub struct IoPool {
    rt: Arc<dyn Runtime>,
    max: usize,
    state: Mutex<PoolState>,
}

impl IoPool {
    /// Create a pool that runs at most `max` jobs concurrently on `rt`
    /// (clamped to at least 1).
    pub fn new(rt: Arc<dyn Runtime>, max: usize) -> Arc<IoPool> {
        Arc::new(IoPool {
            rt,
            max: max.max(1),
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                live: 0,
                peak_live: 0,
                spawned: 0,
                handoff: davix_sync::race::SyncObj::new(),
            }),
        })
    }

    /// Queue `job`; it runs as soon as a worker is free (immediately, on a
    /// freshly spawned worker, while fewer than the cap are live).
    pub fn submit(self: &Arc<Self>, job: impl FnOnce() + Send + 'static) {
        let spawn_name = {
            let mut st = self.state.lock();
            st.queue.push_back(Box::new(job));
            st.handoff.release();
            if st.live < self.max {
                st.live += 1;
                st.peak_live = st.peak_live.max(st.live);
                st.spawned += 1;
                Some(format!("davix-io-{}", st.spawned))
            } else {
                None // a live worker will loop back and pick it up
            }
        };
        if let Some(name) = spawn_name {
            let pool = Arc::clone(self);
            self.rt.spawn(&name, Box::new(move || pool.worker()));
        }
    }

    /// Pop-and-run until the queue is empty, then exit. The exit decision
    /// happens under the state lock, so a concurrent `submit` either hands
    /// this worker the job or observes the decremented `live` and spawns.
    fn worker(self: &Arc<Self>) {
        loop {
            let job = {
                let mut st = self.state.lock();
                match st.queue.pop_front() {
                    Some(j) => {
                        st.handoff.acquire();
                        j
                    }
                    None => {
                        st.live -= 1;
                        return;
                    }
                }
            };
            job();
        }
    }

    /// Concurrency cap.
    pub fn max_workers(&self) -> usize {
        self.max
    }

    /// Workers currently live.
    pub fn live_workers(&self) -> usize {
        self.state.lock().live
    }

    /// High-water mark of concurrently live workers.
    pub fn peak_workers(&self) -> usize {
        self.state.lock().peak_live
    }
}

/// One piece of a chunked transfer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk {
    /// Position in the entity's chunk sequence.
    pub(crate) idx: usize,
    /// Byte offset within the entity.
    pub(crate) off: u64,
    /// Length in bytes (`chunk_size`, less for the last one).
    pub(crate) len: usize,
}

/// What a worker made of one chunk.
pub(crate) enum ChunkOutcome {
    /// Transferred.
    Done,
    /// Failed here; put it back for any worker to try again, and charge the
    /// transfer's failure budget.
    Retry(DavixError),
    /// No replay can succeed: stop the whole transfer.
    Fatal(DavixError),
}

struct Progress {
    queue: VecDeque<Chunk>,
    remaining: usize,
    failures: usize,
    fatal: Option<DavixError>,
    /// Workers that have not left yet.
    live: usize,
}

/// The chunk-transfer engine: split `size` bytes into `chunk_size` pieces
/// and let up to `workers` pool jobs work through them, each with the
/// closure `make_worker(n)` built for it. A chunk that fails is requeued
/// for whichever worker is free next, until more than `max_failures` have
/// failed in total. `submitted` runs on the calling thread once every
/// worker is with the pool and before anything is waited for. Returns the
/// number of requeued failures, or the error that stopped the transfer.
///
/// The caller wakes when every chunk is done or when the **last worker has
/// left** — never with a worker still in a transfer, so whatever the
/// caller does next (abort a staged upload, report failure) cannot race a
/// chunk in flight.
pub(crate) fn run_chunked<W>(
    pool: &Arc<IoPool>,
    size: u64,
    chunk_size: usize,
    workers: usize,
    max_failures: usize,
    mut make_worker: impl FnMut(usize) -> W,
    submitted: impl FnOnce(),
) -> Result<usize>
where
    W: FnMut(Chunk) -> ChunkOutcome + Send + 'static,
{
    let queue: VecDeque<Chunk> = (0..size.div_ceil(chunk_size as u64))
        .map(|i| {
            let off = i * chunk_size as u64;
            Chunk { idx: i as usize, off, len: chunk_size.min((size - off) as usize) }
        })
        .collect();
    let workers = workers.min(queue.len());
    if workers == 0 {
        return Ok(0);
    }
    let progress = Arc::new(Mutex::new(Progress {
        remaining: queue.len(),
        queue,
        failures: 0,
        fatal: None,
        live: workers,
    }));
    let done = pool.rt.signal();
    for n in 0..workers {
        let mut work = make_worker(n);
        let (progress, done) = (Arc::clone(&progress), Arc::clone(&done));
        pool.submit(move || {
            loop {
                let chunk = {
                    let mut st = progress.lock();
                    if st.fatal.is_some() {
                        break; // another worker stopped the transfer
                    }
                    let Some(chunk) = st.queue.pop_front() else { break };
                    chunk
                };
                let outcome = work(chunk);
                let mut st = progress.lock();
                match outcome {
                    ChunkOutcome::Done => {
                        st.remaining -= 1;
                        if st.remaining == 0 {
                            done.set();
                        }
                    }
                    ChunkOutcome::Retry(e) => {
                        st.queue.push_back(chunk);
                        st.failures += 1;
                        if st.failures > max_failures {
                            st.fatal.get_or_insert(e);
                        }
                    }
                    ChunkOutcome::Fatal(e) => {
                        st.fatal.get_or_insert(e);
                    }
                }
            }
            let mut st = progress.lock();
            st.live -= 1;
            if st.live == 0 {
                // Last one out: if work remains, nobody will do it — wake
                // the caller so it can report failure instead of hanging.
                done.set();
            }
        });
    }
    submitted();
    done.wait(None);

    let mut st = progress.lock();
    match st.fatal.take() {
        Some(e) => Err(e),
        None if st.remaining > 0 => {
            Err(DavixError::Protocol("chunk workers exited with chunks unfinished".to_string()))
        }
        None => Ok(st.failures),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use davix_sync::{AtomicUsize, Ordering};
    use netsim::SimNet;
    use std::time::Duration;

    #[test]
    fn runs_every_job_with_bounded_concurrency() {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 2);
        let _g = net.enter();

        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let done = rt.signal();
        let n = 7;
        for _ in 0..n {
            let rt = Arc::clone(&rt);
            let running = Arc::clone(&running);
            let peak = Arc::clone(&peak);
            let finished = Arc::clone(&finished);
            let done = Arc::clone(&done);
            pool.submit(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                rt.sleep(Duration::from_millis(10));
                running.fetch_sub(1, Ordering::SeqCst);
                if finished.fetch_add(1, Ordering::SeqCst) + 1 == n {
                    done.set();
                }
            });
        }
        done.wait(None);
        assert_eq!(finished.load(Ordering::SeqCst), n);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "at most 2 jobs may overlap, saw {}",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(pool.peak_workers(), 2);
    }

    #[test]
    fn workers_exit_when_drained_and_respawn_on_demand() {
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 4);
        let _g = net.enter();

        for round in 0..3 {
            let done = rt.signal();
            let d2 = Arc::clone(&done);
            pool.submit(move || d2.set());
            done.wait(None);
            // The worker may still be between `job()` and its exit check;
            // give it a virtual instant to drain.
            while pool.live_workers() > 0 {
                rt.sleep(Duration::from_millis(1));
            }
            assert_eq!(pool.live_workers(), 0, "drained after round {round}");
        }
    }
}
