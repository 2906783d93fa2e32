//! The event queue: virtual time and what is scheduled on it.
//!
//! A binary heap of events ordered by `(instant, schedule sequence)`, the
//! main loop of a discrete-event simulation with the loop itself left to
//! the caller: [`Events::schedule`] pushes, [`Events::advance`] moves the
//! clock to the earliest scheduled instant, and [`Events::pop_due`] then
//! hands out every event due at that instant in the order it was
//! scheduled. Nothing here blocks, locks or knows a thread; the scheduler
//! decides when the clock may move, and `State::apply` what an event does.

use std::collections::BinaryHeap;
use std::time::Duration;

#[derive(Debug)]
pub(super) enum EventKind {
    /// Payload arrives at the receive buffer of `conn` direction `dir`.
    Deliver { conn: usize, dir: usize, data: Vec<u8> },
    /// ACK returns to the sender of `conn` direction `dir`.
    Ack { conn: usize, dir: usize, bytes: u64 },
    /// SYN reaches the server: enqueue on the listener backlog.
    SynArrive { conn: usize, host: u32, port: u16 },
    /// Handshake completes at the client.
    Established { conn: usize },
    /// RST comes back to the client (closed port / downed host).
    Refuse { conn: usize },
    /// FIN arrives at the receiver of direction `dir`.
    Fin { conn: usize, dir: usize },
    /// Fault plan: a scheduled outage window begins on `host`.
    FaultDown { host: u32 },
    /// Fault plan: the outage window on `host` ends.
    FaultHeal { host: u32 },
    /// Fault plan: a dropped segment surfaces as a reset of `conn` at the
    /// instant the segment would have arrived.
    FaultReset { conn: usize },
    /// A sleep or timeout deadline fires.
    WakeWaiter { wid: usize, gen: u64 },
}

impl EventKind {
    /// The trace line for this event. Network-level events only:
    /// `WakeWaiter` entries are scheduler internals whose waiter ids depend
    /// on OS-thread park patterns, while the network schedule is what
    /// determinism is about.
    fn label(&self) -> Option<String> {
        Some(match self {
            EventKind::Deliver { conn, dir, data } => {
                format!("deliver c{conn}.{dir} {}b", data.len())
            }
            EventKind::Ack { conn, dir, bytes } => format!("ack c{conn}.{dir} {bytes}b"),
            EventKind::SynArrive { conn, host, port } => format!("syn c{conn} -> h{host}:{port}"),
            EventKind::Established { conn } => format!("established c{conn}"),
            EventKind::Refuse { conn } => format!("refuse c{conn}"),
            EventKind::Fin { conn, dir } => format!("fin c{conn}.{dir}"),
            EventKind::FaultDown { host } => format!("fault down h{host}"),
            EventKind::FaultHeal { host } => format!("fault heal h{host}"),
            EventKind::FaultReset { conn } => format!("fault reset c{conn}"),
            EventKind::WakeWaiter { .. } => return None,
        })
    }
}

struct Event {
    at: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // Reversed so that BinaryHeap (a max-heap) pops the earliest event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

#[derive(Default)]
pub(super) struct Events {
    heap: BinaryHeap<Event>,
    seq: u64,
    now_ns: u64,
    /// Bumped by every schedule, clock move, park, (de)registration, host
    /// up/down and finished wake delivery: the stall watchdog compares it,
    /// with the scheduler's unpark count, across its real-time wait.
    pub(super) change_tick: u64,
    /// Virtual-time event trace, recorded while `Some` (see
    /// [`SimNet::record_trace`](super::SimNet::record_trace)).
    trace: Option<Vec<(u64, String)>>,
}

impl Events {
    pub(super) fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The instant `d` after now, saturating at the end of virtual time: a
    /// `Duration::MAX` timeout means "never", not an overflow.
    pub(super) fn deadline_after(&self, d: Duration) -> u64 {
        self.now_ns.saturating_add(super::dur_ns(d))
    }

    /// Schedule `kind` at `at`; an instant already past lands at now.
    pub(super) fn schedule(&mut self, at: u64, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event { at: at.max(self.now_ns), seq: self.seq, kind });
        self.change_tick += 1;
    }

    /// The earliest scheduled instant, if anything is scheduled.
    pub(super) fn next_at(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.at)
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len()
    }

    /// One clock advance: move the clock to the earliest scheduled event,
    /// whose batch [`pop_due`](Self::pop_due) then hands out. `false` when
    /// nothing is scheduled.
    pub(super) fn advance(&mut self) -> bool {
        let Some(t) = self.next_at() else { return false };
        debug_assert!(t >= self.now_ns, "event scheduled in the past");
        self.now_ns = self.now_ns.max(t);
        self.change_tick += 1;
        true
    }

    /// The next event due now, in schedule order, recorded in the trace;
    /// `None` once the instant's batch is done.
    pub(super) fn pop_due(&mut self) -> Option<EventKind> {
        if self.heap.peek()?.at > self.now_ns {
            return None;
        }
        let kind = self.heap.pop()?.kind;
        if let Some(t) = self.trace.as_mut() {
            t.extend(kind.label().map(|label| (self.now_ns, label)));
        }
        Some(kind)
    }

    /// Move the clock to `t` with no event: the clock turn of a timed wait
    /// nothing can pre-empt.
    pub(super) fn skip_to(&mut self, t: u64) {
        self.now_ns = self.now_ns.max(t);
        self.change_tick += 1;
    }

    /// Record a fault-injection decision in the trace at the current
    /// instant; injected decisions are part of the determinism contract.
    pub(super) fn note(&mut self, label: String) {
        if let Some(t) = self.trace.as_mut() {
            t.push((self.now_ns, label));
        }
    }

    pub(super) fn record_trace(&mut self, on: bool) {
        self.trace = on.then(Vec::new);
    }

    pub(super) fn take_trace(&mut self) -> Vec<(Duration, String)> {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t)
                .into_iter()
                .map(|(ns, label)| (Duration::from_nanos(ns), label))
                .collect(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fin(conn: usize) -> EventKind {
        EventKind::Fin { conn, dir: 0 }
    }

    fn conn_of(kind: Option<EventKind>) -> Option<usize> {
        match kind? {
            EventKind::Fin { conn, .. } => Some(conn),
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn same_instant_events_pop_in_schedule_order() {
        let mut ev = Events::default();
        for conn in [3, 1, 2] {
            ev.schedule(100, fin(conn));
        }
        ev.schedule(50, fin(9));
        assert!(ev.advance());
        assert_eq!(conn_of(ev.pop_due()), Some(9));
        assert_eq!(conn_of(ev.pop_due()), None);
        assert!(ev.advance());
        let batch: Vec<_> = std::iter::from_fn(|| conn_of(ev.pop_due())).collect();
        assert_eq!(batch, [3, 1, 2]);
    }

    #[test]
    fn an_event_scheduled_in_the_past_lands_at_now() {
        let mut ev = Events::default();
        ev.schedule(1_000, fin(0));
        assert!(ev.advance());
        assert_eq!(conn_of(ev.pop_due()), Some(0));
        ev.schedule(10, fin(1));
        assert_eq!(ev.next_at(), Some(1_000));
        // Due at once, without a clock move.
        assert_eq!(conn_of(ev.pop_due()), Some(1));
        assert!(!ev.advance());
        assert_eq!(ev.now_ns(), 1_000);
    }

    #[test]
    fn one_advance_takes_every_event_due_at_its_instant() {
        let mut ev = Events::default();
        ev.record_trace(true);
        ev.schedule(7, fin(0));
        ev.schedule(5, fin(1));
        ev.schedule(7, fin(2));
        ev.schedule(5, EventKind::WakeWaiter { wid: 0, gen: 1 });
        let tick = ev.change_tick;
        assert!(ev.advance());
        assert_eq!((ev.now_ns(), ev.change_tick), (5, tick + 1), "one move, one tick");
        assert_eq!(conn_of(ev.pop_due()), Some(1));
        assert!(matches!(ev.pop_due(), Some(EventKind::WakeWaiter { .. })));
        assert!(ev.pop_due().is_none(), "the 7 ns events wait for the next advance");
        assert_eq!(ev.len(), 2);
        assert!(ev.advance());
        assert_eq!(ev.now_ns(), 7);
        assert_eq!(conn_of(ev.pop_due()), Some(0));
        assert_eq!(conn_of(ev.pop_due()), Some(2));
        assert!(!ev.advance(), "nothing left to advance to");
        let trace: Vec<_> = ev.take_trace().into_iter().map(|(t, l)| (t.as_nanos(), l)).collect();
        let want = [(5, "fin c1.0"), (7, "fin c0.0"), (7, "fin c2.0")];
        assert_eq!(trace, want.map(|(t, l)| (t, l.to_string())), "wakes stay out of the trace");
    }
}
