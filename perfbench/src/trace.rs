//! In-memory span recorder for the traced run.
//!
//! Spans are recorded *around* calls into each crate's public API by the
//! wrappers in [`crate::wrap`] and by the workload loops — nothing inside
//! the measured crates is instrumented. Each thread appends to its own log
//! (an uncontended mutex, so the harness can read server-shard logs it did
//! not spawn); per-layer aggregates (count, total, self time, bytes) are
//! kept online, and the raw spans are retained up to a per-thread cap for
//! `--trace-out`. Self time of a span is its duration minus the time its
//! child spans cover.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer boundaries a span can be recorded at. Client-side spans nest
/// `op` → `rootio.pass` → `core.read_vec`/`core.read_at` → `tcp.read`/
/// `tcp.write`; server-side spans (`objstore.handle`, `tcp.try_read`,
/// `tcp.try_write`) run on the httpd shard threads and carry no op id until
/// a request id exists on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Op,
    RootioPass,
    CoreReadVec,
    CoreReadAt,
    TcpConnect,
    TcpRead,
    TcpWrite,
    ObjstoreHandle,
    TcpTryRead,
    TcpTryWrite,
}

/// Number of [`Layer`] variants.
pub const N_LAYERS: usize = 10;

impl Layer {
    /// Every layer, in declaration order.
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::Op,
        Layer::RootioPass,
        Layer::CoreReadVec,
        Layer::CoreReadAt,
        Layer::TcpConnect,
        Layer::TcpRead,
        Layer::TcpWrite,
        Layer::ObjstoreHandle,
        Layer::TcpTryRead,
        Layer::TcpTryWrite,
    ];

    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Op => "op",
            Layer::RootioPass => "rootio.pass",
            Layer::CoreReadVec => "core.read_vec",
            Layer::CoreReadAt => "core.read_at",
            Layer::TcpConnect => "tcp.connect",
            Layer::TcpRead => "tcp.read",
            Layer::TcpWrite => "tcp.write",
            Layer::ObjstoreHandle => "objstore.handle",
            Layer::TcpTryRead => "tcp.try_read",
            Layer::TcpTryWrite => "tcp.try_write",
        }
    }
}

/// Running totals of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus time covered by child spans.
    pub self_ns: u64,
    /// Payload bytes the calls moved.
    pub bytes: u64,
    /// Sub-items the calls carried (fragments of a vectored read).
    pub items: u64,
    /// Calls that ended in `WouldBlock`.
    pub wouldblock: u64,
}

/// Per-layer totals, indexable by [`Layer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals(pub [Agg; N_LAYERS]);

impl Totals {
    /// The totals of `layer`.
    pub fn of(&self, layer: Layer) -> Agg {
        self.0[layer as usize]
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Totals) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.count += b.count;
            a.total_ns += b.total_ns;
            a.self_ns += b.self_ns;
            a.bytes += b.bytes;
            a.items += b.items;
            a.wouldblock += b.wouldblock;
        }
    }

    /// Growth since `earlier`.
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = Totals::default();
        for (i, (a, b)) in self.0.iter().zip(earlier.0.iter()).enumerate() {
            out.0[i] = Agg {
                count: a.count - b.count,
                total_ns: a.total_ns - b.total_ns,
                self_ns: a.self_ns - b.self_ns,
                bytes: a.bytes - b.bytes,
                items: a.items - b.items,
                wouldblock: a.wouldblock - b.wouldblock,
            };
        }
        out
    }
}

/// One retained span. `parent` indexes the same thread's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: Option<u64>,
}

/// Raw spans retained per thread; later spans only feed the aggregates.
/// 1 KiB GETs close ~2 M spans per second, so an uncapped list would
/// dominate the traced run's memory.
const SPAN_CAP: usize = 100_000;

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    stored: Option<u32>,
}

struct ThreadLog {
    thread: String,
    open: Vec<Open>,
    spans: Vec<Span>,
    totals: Totals,
    op_id: Option<u64>,
}

struct Tracer {
    epoch: Instant,
    logs: Mutex<Vec<Arc<Mutex<ThreadLog>>>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| Tracer { epoch: Instant::now(), logs: Mutex::new(Vec::new()) })
}

thread_local! {
    static LOG: RefCell<Option<Arc<Mutex<ThreadLog>>>> = const { RefCell::new(None) };
}

fn with_log<R>(f: impl FnOnce(&mut ThreadLog) -> R) -> R {
    LOG.with(|slot| {
        let mut slot = slot.borrow_mut();
        let log = slot.get_or_insert_with(|| {
            let log = Arc::new(Mutex::new(ThreadLog {
                thread: std::thread::current().name().unwrap_or("unnamed").to_string(),
                open: Vec::new(),
                spans: Vec::new(),
                totals: Totals::default(),
                op_id: None,
            }));
            tracer().logs.lock().expect("trace registry poisoned").push(Arc::clone(&log));
            log
        });
        let mut guard = log.lock().expect("thread log poisoned by a panicking span");
        f(&mut guard)
    })
}

fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// An open span; closes when dropped. Set the counters it should carry
/// before that.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    /// Payload bytes moved by the call.
    pub bytes: u64,
    /// Sub-items carried by the call.
    pub items: u64,
    /// The call ended in `WouldBlock`.
    pub wouldblock: bool,
}

/// Open a span at `layer` on the calling thread, nested under whichever
/// span is open there.
pub fn span(layer: Layer) -> SpanGuard {
    let start_ns = now_ns();
    with_log(|log| {
        let stored = (log.spans.len() < SPAN_CAP).then(|| {
            let parent = log.open.last().and_then(|o| o.stored);
            log.spans.push(Span { layer, start_ns, end_ns: 0, parent, op_id: log.op_id });
            (log.spans.len() - 1) as u32
        });
        log.open.push(Open { layer, start_ns, child_ns: 0, stored });
    });
    SpanGuard { bytes: 0, items: 0, wouldblock: false }
}

/// Open the root span of operation `op_id`; spans opened on this thread
/// until it closes carry the id.
pub fn op_span(op_id: u64) -> SpanGuard {
    with_log(|log| log.op_id = Some(op_id));
    span(Layer::Op)
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        with_log(|log| {
            let Some(open) = log.open.pop() else { return };
            let dur = end_ns.saturating_sub(open.start_ns);
            if let Some(i) = open.stored {
                log.spans[i as usize].end_ns = end_ns;
            }
            if let Some(parent) = log.open.last_mut() {
                parent.child_ns += dur;
            }
            if open.layer == Layer::Op {
                log.op_id = None;
            }
            let agg = &mut log.totals.0[open.layer as usize];
            agg.count += 1;
            agg.total_ns += dur;
            agg.self_ns += dur.saturating_sub(open.child_ns);
            agg.bytes += self.bytes;
            agg.items += self.items;
            agg.wouldblock += self.wouldblock as u64;
        });
    }
}

/// Totals over every thread that has recorded a span so far. Call while the
/// system is quiescent (between repetitions).
pub fn totals() -> Totals {
    let mut sum = Totals::default();
    for log in tracer().logs.lock().expect("trace registry poisoned").iter() {
        sum.add(&log.lock().expect("thread log poisoned").totals);
    }
    sum
}

/// Write every retained span as one JSON object per line:
/// `{"id","thread","name","start_ns","end_ns","parent","op_id"}` with
/// `parent`/`op_id` `null` where absent. Returns the number of lines.
pub fn write_jsonl(out: &mut impl Write) -> io::Result<usize> {
    let mut lines = 0;
    for (t, log) in tracer().logs.lock().expect("trace registry poisoned").iter().enumerate() {
        let log = log.lock().expect("thread log poisoned");
        let thread = &log.thread;
        for (i, s) in log.spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "null".to_string());
            writeln!(
                out,
                "{{\"id\":\"t{t}.{i}\",\"thread\":\"{thread}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| format!("\"t{t}.{p}\""))),
                opt(s.op_id.map(|o| o.to_string())),
            )?;
            lines += 1;
        }
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_fresh_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::Builder::new()
            .name("trace-test".into())
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("join")
    }

    #[test]
    fn nesting_is_well_formed_and_self_time_excludes_children() {
        let (spans, totals) = on_fresh_thread(|| {
            {
                let _op = op_span(7);
                {
                    let mut rv = span(Layer::CoreReadVec);
                    rv.items = 500;
                    for _ in 0..3 {
                        let mut r = span(Layer::TcpRead);
                        r.bytes = 10;
                        std::thread::sleep(std::time::Duration::from_millis(2));
                    }
                }
            }
            let after = span(Layer::TcpWrite);
            drop(after);
            with_log(|log| (log.spans.clone(), log.totals))
        });
        assert_eq!(spans.len(), 6);
        for (i, s) in spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                let p = &spans[p as usize];
                assert!((p as *const Span) < (s as *const Span), "parent precedes child");
                assert!(p.start_ns <= s.start_ns && s.end_ns <= p.end_ns, "span {i} inside parent");
            }
        }
        assert_eq!(spans[0].layer, Layer::Op);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[..5].iter().all(|s| s.op_id == Some(7)));
        assert_eq!(spans[5].op_id, None, "op id cleared when the op span closes");
        assert_eq!(spans[5].parent, None);

        let rv = totals.of(Layer::CoreReadVec);
        let rd = totals.of(Layer::TcpRead);
        assert_eq!((rv.count, rv.items, rd.count, rd.bytes), (1, 500, 3, 30));
        assert!(rd.total_ns >= 6_000_000);
        assert_eq!(rv.self_ns, rv.total_ns - rd.total_ns);
        assert_eq!(rd.self_ns, rd.total_ns);
        let op = totals.of(Layer::Op);
        assert_eq!(op.self_ns, op.total_ns - rv.total_ns);
    }

    #[test]
    fn totals_see_other_threads_and_diff() {
        let before = totals();
        on_fresh_thread(|| {
            let mut s = span(Layer::TcpTryRead);
            s.wouldblock = true;
        });
        let d = totals().since(&before);
        assert!(d.of(Layer::TcpTryRead).count >= 1);
        assert!(d.of(Layer::TcpTryRead).wouldblock >= 1);
    }

    #[test]
    fn jsonl_lines_are_objects() {
        on_fresh_thread(|| {
            let _op = op_span(1);
            let _c = span(Layer::TcpConnect);
        });
        let mut buf = Vec::new();
        let n = write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), n);
        assert!(n >= 2);
        for line in text.lines() {
            assert!(line.starts_with("{\"id\":\"t") && line.ends_with('}'), "{line}");
            assert!(line.contains("\"name\":\"") && line.contains("\"parent\":"));
        }
        assert!(text.contains("\"name\":\"tcp.connect\""));
    }
}
