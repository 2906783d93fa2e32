//! A bounded, spawn-on-demand worker pool for the client's background I/O,
//! and the one way the client runs work in parallel on it: the batch.
//!
//! Multi-stream downloads, parallel uploads, cache read-ahead, the replica
//! fan-out of a vectored read and the parallel single-range fallback all
//! need worker threads. Before this pool each call site spawned its own
//! (`streams` threads per download, one per prefetch batch, …), so a busy
//! client's thread count was the *sum* of every concurrent operation's
//! appetite. [`IoPool`] caps it at [`Config::io_threads`] for the whole
//! client: jobs queue, workers are spawned only while fewer than the cap
//! are live, and a worker exits as soon as the queue is drained — an idle
//! client holds zero pool threads, and (under simulation) a drained pool
//! leaves no parked waiters or pending timers to perturb virtual time.
//!
//! A batch (`run_batch`) is a list of items drained by up to N pool jobs;
//! it hands back what each item made, in item order, whichever drain made
//! it and whenever it finished, so no caller keeps a table of its own.
//!
//! A job that blocks waiting for a *queued* job would deadlock a saturated
//! pool. A batch never does, because of one rule: **a drain the pool
//! cannot give a fresh worker at submit time is run by the caller, not
//! queued.** Every drain the caller then waits for is either running on
//! the caller itself or owns a worker spawned for it. While the pool is
//! under its cap every queued job has such a worker not yet started (a
//! queue that formed at the cap empties before any worker exits), so a
//! drain given one starts without any other job finishing first. The wait therefore ends whoever
//! the caller is — `main`, or a read-ahead job that is the pool's only
//! worker and whose replica read fans out: at `io_threads = 1` that job
//! runs its whole batch itself. When every drain gets a worker, the caller
//! only waits, exactly as it would on threads of its own.
//!
//! [`Config::io_threads`]: crate::Config::io_threads

use crate::error::{DavixError, Result};
use crate::metrics::Metrics;
use davix_sync::{AtomicU64, Ordering};
use ioapi::checksum::Digests;
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
        self.place(Box::new(job), true);
    }

    /// Queue `job` and spawn a worker for it while fewer than the cap are
    /// live. At the cap, `job` waits for a live worker to loop back to it
    /// if `or_queue`, and is handed back otherwise.
    fn place(self: &Arc<Self>, job: Job, or_queue: bool) -> Option<Job> {
        let name = {
            let mut st = self.state.lock();
            let spawn = st.live < self.max;
            if !spawn && !or_queue {
                return Some(job);
            }
            st.queue.push_back(job);
            st.handoff.release();
            if !spawn {
                return None; // a live worker will loop back and pick it up
            }
            st.live += 1;
            st.peak_live = st.peak_live.max(st.live);
            st.spawned += 1;
            format!("davix-io-{}", st.spawned)
        };
        let pool = Arc::clone(self);
        self.rt.spawn(&name, Box::new(move || pool.worker()));
        None
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

    /// High-water mark of concurrently live workers.
    pub fn peak_workers(&self) -> usize {
        self.state.lock().peak_live
    }
}

/// What a drain made of one item of a batch.
pub(crate) enum Outcome<T, R> {
    /// Finished, with this result.
    Done(R),
    /// Failed here; the item goes back on the queue, keeping its place in
    /// the results, for any drain to try again, and charges the batch's
    /// failure budget.
    Retry(T, DavixError),
    /// No replay can succeed: stop the whole batch.
    Fatal(DavixError),
}

struct Progress<T, R> {
    /// Items not handed out yet, each with its index.
    queue: VecDeque<(usize, T)>,
    /// Each item's result, at the item's index, once it is done.
    results: Vec<Option<R>>,
    remaining: usize,
    failures: usize,
    fatal: Option<DavixError>,
    /// Drains that have not left yet.
    live: usize,
}

/// The batch: `items` drained by up to `drains` jobs, drain `n` working
/// each item it takes with the closure `make_drain(n)`. A drain loops until
/// the queue is empty or the batch stopped, so one that starts late leaves
/// at once. An item that fails is requeued for whichever drain is free
/// next, until more than `max_failures` have failed in total. Returns each
/// item's result in item order, whatever order they finished in, and the
/// number of requeued failures; or the error that stopped the batch.
///
/// A drain goes to `pool` only if a fresh worker can be spawned for it
/// right now; the calling thread runs the rest itself, one after another,
/// once every drain is placed and before it waits (the module docs say why
/// this cannot deadlock). No lock is held while a drain runs. On a worker the
/// submit→run hand-off is the pool's; on the caller it is program order.
///
/// The caller wakes when every item is done or when the **last drain has
/// left** — never with a drain still working, so whatever the caller does
/// next (abort a staged upload, report failure) cannot race an item in
/// flight.
pub(crate) fn run_batch<T, R, D>(
    pool: &Arc<IoPool>,
    items: Vec<T>,
    drains: usize,
    max_failures: usize,
    mut make_drain: impl FnMut(usize) -> D,
) -> Result<(Vec<R>, usize)>
where
    T: Send + 'static,
    R: Send + 'static,
    D: FnMut(T) -> Outcome<T, R> + Send + 'static,
{
    let n_items = items.len();
    let drains = drains.min(n_items);
    if drains == 0 {
        return Ok((Vec::new(), 0));
    }
    let progress = Arc::new(Mutex::new(Progress {
        queue: items.into_iter().enumerate().collect(),
        results: (0..n_items).map(|_| None).collect(),
        remaining: n_items,
        failures: 0,
        fatal: None,
        live: drains,
    }));
    let done = pool.rt.signal();
    let mut unstarted: Vec<Job> = Vec::new();
    for n in 0..drains {
        let mut work = make_drain(n);
        let (progress, done) = (Arc::clone(&progress), Arc::clone(&done));
        let drain: Job = Box::new(move || {
            loop {
                let (idx, item) = {
                    let mut st = progress.lock();
                    if st.fatal.is_some() {
                        break; // another drain stopped the batch
                    }
                    let Some(next) = st.queue.pop_front() else { break };
                    next
                };
                let outcome = work(item);
                let mut st = progress.lock();
                match outcome {
                    Outcome::Done(result) => {
                        st.results[idx] = Some(result);
                        st.remaining -= 1;
                        if st.remaining == 0 {
                            done.set();
                        }
                    }
                    Outcome::Retry(item, e) => {
                        st.queue.push_back((idx, item));
                        st.failures += 1;
                        if st.failures > max_failures {
                            st.fatal.get_or_insert(e);
                        }
                    }
                    Outcome::Fatal(e) => {
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
        unstarted.extend(pool.place(drain, false));
    }
    for drain in unstarted {
        drain();
    }
    done.wait(None);

    let mut st = progress.lock();
    if let Some(e) = st.fatal.take() {
        return Err(e);
    }
    match std::mem::take(&mut st.results).into_iter().collect() {
        Some(results) => Ok((results, st.failures)),
        None => Err(DavixError::Protocol("batch drains exited with items unfinished".to_string())),
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

/// The chunk-transfer engine both parallel transfers run: `size` bytes in
/// `chunk_size` pieces as one [`run_batch`] of up to `workers` drains,
/// drain `n` transferring its chunks with `make_worker(n)`; a chunk's
/// transfer makes its `(crc32, adler32)` and an `R`. A chunk's bytes count
/// as resident while its transfer runs, and their high-water mark is
/// [`Metrics::peak_chunk_buffer`]: a worker holds no chunk between
/// transfers, so it stays within `workers × chunk_size`. Returns each
/// chunk's `R` in chunk order, the entity's digests folded from the
/// chunks' with [`Digests::append`], and the requeued failures.
pub(crate) fn run_chunked<R, W>(
    pool: &Arc<IoPool>,
    metrics: &Arc<Metrics>,
    size: u64,
    chunk_size: usize,
    workers: usize,
    max_failures: usize,
    mut make_worker: impl FnMut(usize) -> W,
) -> Result<(Vec<R>, (u32, u32), usize)>
where
    R: Send + 'static,
    W: FnMut(Chunk) -> Outcome<Chunk, ((u32, u32), R)> + Send + 'static,
{
    let chunk = |idx: usize| {
        let off = idx as u64 * chunk_size as u64;
        Chunk { idx, off, len: chunk_size.min((size - off) as usize) }
    };
    let chunks = (0..size.div_ceil(chunk_size as u64) as usize).map(chunk).collect();
    let resident = Arc::new(AtomicU64::new(0));
    let (done, failures) = run_batch(pool, chunks, workers, max_failures, |n| {
        let mut transfer = make_worker(n);
        let (resident, metrics) = (Arc::clone(&resident), Arc::clone(metrics));
        move |c: Chunk| {
            let len = c.len as u64;
            let held = resident.fetch_add(len, Ordering::Relaxed) + len;
            Metrics::record_max(&metrics.peak_chunk_buffer, held);
            let outcome = transfer(c);
            resident.fetch_sub(len, Ordering::Relaxed);
            outcome
        }
    })?;
    let mut digests = Digests::new();
    let results = done
        .into_iter()
        .enumerate()
        .map(|(idx, (digest, r))| {
            digests.append(digest, chunk(idx).len as u64);
            r
        })
        .collect();
    Ok((results, digests.finish(), failures))
}

/// `f` over `items` as one [`run_batch`] of up to `width` drains; the
/// results come back in input order. One item, or a width of one, runs
/// here: there is nothing to overlap.
pub(crate) fn map_ordered<T, R>(
    pool: &Arc<IoPool>,
    items: Vec<T>,
    width: usize,
    f: impl Fn(T) -> R + Send + Sync + 'static,
) -> Vec<R>
where
    T: Send + 'static,
    R: Send + 'static,
{
    if width.min(items.len()) <= 1 {
        return items.into_iter().map(f).collect();
    }
    let f = Arc::new(f);
    let drain = |_| {
        let f = Arc::clone(&f);
        move |item| Outcome::Done(f(item))
    };
    run_batch(pool, items, width, 0, drain).expect("a map item never fails").0
}

#[cfg(test)]
mod tests {
    use super::*;
    use davix_sync::{AtomicUsize, Ordering};
    use netsim::SimNet;
    use std::time::Duration;

    impl IoPool {
        /// Workers currently live.
        pub(crate) fn live_workers(&self) -> usize {
            self.state.lock().live
        }
    }

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

    fn real_pool(max: usize) -> Arc<IoPool> {
        IoPool::new(Arc::new(netsim::RealRuntime::new()), max)
    }

    #[test]
    fn map_returns_results_in_input_order() {
        // The first item finishes long after the rest: its result still
        // comes back first.
        let out = map_ordered(&real_pool(16), (0..50).collect(), 8, |x: i32| {
            if x == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            x * 2
        });
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_of_no_items_is_empty() {
        let out: Vec<i32> = map_ordered(&real_pool(4), Vec::<i32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn map_with_one_item_or_one_drain_runs_on_the_caller() {
        let pool = real_pool(4);
        assert_eq!(map_ordered(&pool, vec![41], 8, |x: i32| x + 1), vec![42]);
        assert_eq!(map_ordered(&pool, vec![1, 2, 3], 1, |x: i32| x + 1), vec![2, 3, 4]);
        assert_eq!(pool.peak_workers(), 0, "nothing to overlap, nothing spawned");
    }

    #[test]
    fn batch_drains_overlap_in_virtual_time() {
        // 8 items of 10 ms on 4 drains take 20 ms, not 80: the drains
        // really run side by side under the simulator.
        let net = SimNet::new();
        net.add_host("h");
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 16);
        let _g = net.enter();
        let t0 = net.now();
        let out = map_ordered(&pool, (0..8).collect(), 4, move |x: i32| {
            rt.sleep(Duration::from_millis(10));
            x
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(net.now() - t0, Duration::from_millis(20), "4-way overlap expected");
        assert_eq!(pool.peak_workers(), 4);
    }

    /// Run `f` as the only worker of a pool capped at one, and return what
    /// it returned.
    fn in_the_only_worker<R: Send + 'static>(
        net: &SimNet,
        f: impl FnOnce(Arc<IoPool>) -> R + Send + 'static,
    ) -> (R, Arc<IoPool>) {
        let rt = net.runtime() as Arc<dyn Runtime>;
        let pool = IoPool::new(Arc::clone(&rt), 1);
        let out = Arc::new(Mutex::new(None));
        let done = rt.signal();
        let (inner, slot, finished) = (Arc::clone(&pool), Arc::clone(&out), Arc::clone(&done));
        pool.submit(move || {
            *slot.lock() = Some(f(inner));
            finished.set();
        });
        done.wait(None);
        let r = out.lock().take().expect("the job ran");
        (r, pool)
    }

    /// A batch run by the pool's only worker: the pool can start none of
    /// its drains, so that worker runs them itself and the batch completes
    /// instead of waiting on a queue only it could serve.
    #[test]
    fn run_chunked_inside_the_only_worker_completes() {
        let net = SimNet::new();
        net.add_host("h");
        let _g = net.enter();
        let rt = net.runtime() as Arc<dyn Runtime>;
        let chunks = Arc::new(AtomicUsize::new(0));
        let (t0, counted) = (net.now(), Arc::clone(&chunks));
        let metrics = Arc::new(Metrics::default());
        let m = Arc::clone(&metrics);
        let (result, pool) = in_the_only_worker(&net, move |pool| {
            let drain = |_| {
                let (rt, counted) = (Arc::clone(&rt), Arc::clone(&counted));
                move |_: Chunk| {
                    rt.sleep(Duration::from_millis(1));
                    counted.fetch_add(1, Ordering::SeqCst);
                    Outcome::Done(((0, 1), ()))
                }
            };
            run_chunked(&pool, &m, 1000, 100, 4, 0, drain)
        });
        assert_eq!(result.unwrap().2, 0);
        let peak = metrics.peak_chunk_buffer.load(Ordering::SeqCst);
        assert_eq!(peak, 100, "one chunk at a time on the one thread");
        assert_eq!(chunks.load(Ordering::SeqCst), 10);
        assert_eq!(pool.peak_workers(), 1, "the batch spawned nothing");
        assert_eq!(net.now() - t0, Duration::from_millis(10), "one thread did all ten");
    }

    #[test]
    fn a_retried_chunk_is_requeued_inside_the_only_worker() {
        let net = SimNet::new();
        net.add_host("h");
        let _g = net.enter();
        let attempts = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&attempts);
        let (result, _) = in_the_only_worker(&net, move |pool| {
            let drain = |_| {
                let seen = Arc::clone(&seen);
                move |c: Chunk| {
                    let mut seen = seen.lock();
                    seen.push(c.idx);
                    if c.idx == 1 && seen.len() == 2 {
                        Outcome::Retry(c, DavixError::Protocol("flaky".to_string()))
                    } else {
                        Outcome::Done(((0, 1), c.off))
                    }
                }
            };
            run_chunked(&pool, &Arc::new(Metrics::default()), 400, 100, 2, 1, drain)
        });
        let (offsets, _, failures) = result.unwrap();
        assert_eq!(failures, 1, "one requeued failure, within the budget");
        assert_eq!(*attempts.lock(), vec![0, 1, 2, 3, 1], "chunk 1 went back to the queue");
        assert_eq!(offsets, vec![0, 100, 200, 300], "chunk order, though chunk 1 finished last");
    }
}
