//! **Figure 7 (repro extension) / c10k**: the event-driven server core
//! serves thousands of concurrent keep-alive clients on a fixed, small
//! reactor-thread budget — and the *clients* are event-driven too.
//!
//! The paper's servers (DPM/dCache front-ends) are long-lived HTTP/1.1
//! daemons facing grid-scale fan-in; a thread-per-connection server would
//! need one OS thread per client. This harness demonstrates the repro's
//! reactor doing the classic c10k exercise on both sides of the wire:
//!
//! * **steady phase** — N clients, staggered over 50 ms, each run R
//!   keep-alive GETs with 10 ms think time on one connection. Clients are
//!   [`netsim::simclient`] state machines multiplexed on a small client
//!   reactor, so N clients cost O(reactor threads) OS threads, wall time
//!   scales ~linearly in N, and per-request latency is recorded in virtual
//!   time. Each GET is the davix client's own [`Exchange`] driven on the
//!   non-blocking stream, its body read through [`BodyFraming`]: the bench
//!   measures the client that ships. An optional sweep re-runs the phase at
//!   several client counts so the bench JSON carries the scaling curve.
//! * **slowloris phase** — A attackers send a partial request head and
//!   stall. The timer wheel must evict every one with `408 Request
//!   Timeout`, while a probe client's keep-alive requests keep completing
//!   with steady-phase latency.
//!
//! The run *asserts* (not just prints): zero request errors, every request
//! answered, p99 latency under [`P99_BOUND_MS`] virtual ms, server and
//! client thread budgets respected (simulator thread census stays flat in
//! the client count), all attackers evicted, and a clean `stop()` that
//! joins every reactor thread.
//!
//! CI smoke knobs: `DAVIX_BENCH_C10K_CLIENTS` (default 10000),
//! `DAVIX_BENCH_C10K_REQUESTS` (per client, default 8),
//! `DAVIX_BENCH_C10K_THREADS` (server reactor shards, default 4),
//! `DAVIX_BENCH_C10K_CLIENT_THREADS` (client reactor shards, default 4),
//! `DAVIX_BENCH_C10K_ATTACKERS` (slowloris connections, default 64),
//! `DAVIX_BENCH_C10K_SWEEP` (comma-separated extra client counts to run
//! before the main one, e.g. `256,1000`; default none).

use davix::{Exchange, ExchangePoll, PreparedRequest};
use davix_bench::{env_usize, BenchReport, Table};
use davix_sync::{AtomicUsize, Ordering};
use httpd::{HttpServer, Request, Response, ServerConfig};
use httpwire::codec::{parse_response_head, BodyLen, HeadScan};
use httpwire::parse::BodyFraming;
use httpwire::{StatusCode, Uri};
use netsim::simclient::{ClientSession, ConnectFn, Fleet, SessionPoll};
use netsim::{BoxedStream, LinkSpec, Reactor, ReactorConfig, SchedStats, SimNet};
use parking_lot::Mutex;
use std::io::{self, BufReader, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Response body size: small and uniform, the metadata-ish requests that
/// dominate a storage front-end's connection count.
const BODY: usize = 512;

/// Virtual-time p99 bound for the steady phase. Links are LAN (2.5 ms RTT)
/// and the handler is instantaneous, so a healthy reactor answers in a few
/// ms; a server that serializes clients behind blocked threads blows far
/// past this.
const P99_BOUND_MS: f64 = 100.0;

/// Attackers must be evicted by this header-read budget.
const SLOWLORIS_TIMEOUT: Duration = Duration::from_millis(200);

/// Think time between keep-alive requests.
const THINK: Duration = Duration::from_millis(10);

fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(sorted.is_sorted(), "percentile of unsorted latencies");
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

// ---------------------------------------------------------------------------
// client state machines
// ---------------------------------------------------------------------------

/// A non-blocking stream as the client's exchange reads and writes it,
/// `WouldBlock` passed on as it comes.
struct NonBlocking<'a>(&'a mut BoxedStream);

impl Read for NonBlocking<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.try_read(buf)
    }
}

impl Write for NonBlocking<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.try_write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Where a [`GetLoop`] is in its current request.
enum Step {
    /// Thinking; the next request starts on the next poll.
    Think,
    Exchange(Exchange),
    Body(BodyFraming),
}

/// R serial keep-alive GETs with think time, entirely non-blocking: each
/// one the client's own [`Exchange`] driven on the stream, its body read
/// through [`BodyFraming`] — the real client's code, not a model of it.
struct GetLoop {
    id: usize,
    requests: usize,
    think: Duration,
    done_reqs: usize,
    step: Step,
    req_t0: Duration,
    latencies: Arc<Mutex<Vec<f64>>>,
}

impl GetLoop {
    fn new(id: usize, requests: usize, think: Duration, latencies: Arc<Mutex<Vec<f64>>>) -> Self {
        GetLoop {
            id,
            requests,
            think,
            done_reqs: 0,
            step: Step::Think,
            req_t0: Duration::ZERO,
            latencies,
        }
    }
}

impl ClientSession for GetLoop {
    fn poll(&mut self, io: &mut BoxedStream, now: Duration) -> io::Result<SessionPoll> {
        // What this buffer holds is used up within the poll: one ends on
        // `WouldBlock` (nothing buffered) or at the end of a response.
        let mut conn = BufReader::with_capacity(4096, NonBlocking(io));
        loop {
            match &mut self.step {
                Step::Think => {
                    self.req_t0 = now;
                    let path = format!("/obj/{}/{}", self.id, self.done_reqs);
                    let req = PreparedRequest::get(Uri::new("http", "server", 80, &path));
                    self.step = Step::Exchange(Exchange::new(&req));
                }
                Step::Exchange(exchange) => match exchange.poll(&mut conn) {
                    Ok(ExchangePoll::Pending) => return Ok(SessionPoll::Pending),
                    Ok(ExchangePoll::Head(start))
                        if start.head.status == StatusCode::OK
                            && start.body == BodyLen::Fixed(BODY as u64) =>
                    {
                        self.step = Step::Body(BodyFraming::new(start.body));
                    }
                    // An error retires the session, counted as the fleet's failure.
                    Ok(ExchangePoll::Head(start)) => {
                        let what = format!("{} {:?}", start.head.status, start.body);
                        return Err(io::Error::new(io::ErrorKind::InvalidData, what));
                    }
                    Err(e) => return Err(e.into()),
                },
                Step::Body(body) => match body.read(&mut conn, &mut [0u8; BODY]) {
                    Ok(0) => {
                        self.latencies.lock().push((now - self.req_t0).as_secs_f64() * 1e3);
                        self.done_reqs += 1;
                        self.step = Step::Think;
                        if self.done_reqs == self.requests {
                            return Ok(SessionPoll::Done);
                        }
                        return Ok(SessionPoll::Sleep(now + self.think));
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        return Ok(SessionPoll::Pending)
                    }
                    Err(e) => return Err(e),
                },
            }
        }
    }

    fn wants_write(&self) -> bool {
        match &self.step {
            Step::Think => true,
            Step::Exchange(exchange) => !exchange.is_sent(),
            Step::Body(_) => false,
        }
    }
}

/// What a slowloris attacker sends before it stalls: a request head cut off
/// mid-field.
const PARTIAL: &[u8] = b"GET /stall HTTP/1.1\r\nHost: serv";

/// Whether `resp`, all an attacker got before the server hung up, is a
/// `408 Request Timeout`: the one response head the bench parses itself.
fn evicted_with_408(resp: &[u8]) -> bool {
    let end = HeadScan::default().find(resp).ok().flatten();
    // davix-lint: allow(one-client) — the server's eviction answer, which no client request gets
    end.and_then(|end| parse_response_head(&resp[..end]).ok())
        .is_some_and(|head| head.status == StatusCode::REQUEST_TIMEOUT)
}

/// Sends a partial request head, stalls past the server's header-read
/// budget, then reads to EOF and checks for the `408` eviction.
struct SlowlorisSession {
    sent: usize,
    slept: bool,
    resp: Vec<u8>,
    evicted: Arc<AtomicUsize>,
}

impl ClientSession for SlowlorisSession {
    fn poll(&mut self, io: &mut BoxedStream, now: Duration) -> io::Result<SessionPoll> {
        while self.sent < PARTIAL.len() {
            match io.try_write(&PARTIAL[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(SessionPoll::Pending),
                Err(e) => return Err(e),
            }
        }
        if !self.slept {
            self.slept = true;
            return Ok(SessionPoll::Sleep(now + SLOWLORIS_TIMEOUT * 3));
        }
        let mut buf = [0u8; 1024];
        loop {
            match io.try_read(&mut buf) {
                Ok(n) if n > 0 => self.resp.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(SessionPoll::Pending),
                // EOF or a reset: the server hung up either way, and only
                // the 408 matters.
                _ if evicted_with_408(&self.resp) => {
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                    return Ok(SessionPoll::Done);
                }
                _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "hung up without 408")),
            }
        }
    }

    fn wants_write(&self) -> bool {
        self.sent < PARTIAL.len()
    }
}

// ---------------------------------------------------------------------------
// phases
// ---------------------------------------------------------------------------

struct PointResult {
    latencies: Vec<f64>,
    virt_wall: Duration,
    real_wall: Duration,
    census: usize,
    sched: SchedStats,
    peak_open: u64,
    served: u64,
    threads_live: usize,
    evicted: usize,
    probe_latencies: Vec<f64>,
}

/// Connects a client on `host` to the server, non-blocking.
fn connect_from(net: &SimNet, host: &str) -> ConnectFn {
    let (net, host) = (net.clone(), host.to_string());
    Box::new(move || net.connect_start(&host, "server", 80).map(|s| Box::new(s) as BoxedStream))
}

/// Build a fresh net + server + client reactor, run the steady phase at
/// `clients`, optionally follow with the slowloris phase, and tear down.
fn run_point(
    clients: usize,
    requests: usize,
    threads: usize,
    client_threads: usize,
    attackers: usize,
) -> PointResult {
    let net = SimNet::new();
    net.add_host("server");
    let nhosts = 16.min(clients.max(1));
    let hosts: Vec<String> = (0..nhosts).map(|i| format!("c{i}")).collect();
    for h in &hosts {
        net.add_host(h);
    }
    net.set_default_link(LinkSpec::lan());

    let server = HttpServer::new(
        Arc::new(|_req: Request| {
            Response::with_body(StatusCode::OK, "application/octet-stream", vec![b'x'; BODY])
        }),
        ServerConfig {
            reactor_threads: threads,
            idle_timeout: Some(Duration::from_secs(60)),
            header_read_timeout: Some(SLOWLORIS_TIMEOUT),
            ..ServerConfig::default()
        },
    );
    server.serve(Box::new(net.bind("server", 80).unwrap()), net.runtime());
    let stats = server.stats();

    let rt: Arc<dyn netsim::Runtime> = net.runtime();
    let reactor = Reactor::new(
        Arc::clone(&rt),
        ReactorConfig { threads: client_threads, name: "c10k-client".into() },
    );

    let latencies: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));

    // --- steady phase ---
    let _guard = net.enter();
    let t0 = net.now();
    let wall0 = std::time::Instant::now();
    let fleet = Fleet::new(&rt);
    for i in 0..clients {
        // Stagger connects over 50 ms so the accept burst is a ramp, then
        // overlap: every client holds its connection for the whole loop.
        let start_at = t0 + Duration::from_millis((i % 50) as u64);
        fleet.launch(
            &reactor,
            start_at,
            connect_from(&net, &hosts[i % hosts.len()]),
            Box::new(GetLoop::new(i, requests, THINK, Arc::clone(&latencies))),
        );
    }
    let failures = fleet.wait();
    let census = net.thread_census();
    let real_wall = wall0.elapsed();
    let virt_wall = net.now() - t0;

    let threads_live = server.reactor_threads_live();
    let peak_open = stats.peak_open.load(Ordering::Relaxed);
    let served = stats.requests.load(Ordering::Relaxed);
    let mut lat = latencies.lock().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());

    assert_eq!(failures, 0, "{failures} client sessions failed at {clients} clients");
    assert_eq!(lat.len(), clients * requests, "every steady request answered");
    assert!(served >= (clients * requests) as u64, "server counted all requests");
    assert_eq!(threads_live, threads, "server reactor held its thread budget");
    // The whole point of the refactor: OS thread count is O(reactor
    // threads), independent of the client count. Census = server shards +
    // client shards + acceptor/supervisor daemons + this entered thread.
    assert!(
        census <= threads + client_threads + 4,
        "thread census {census} not O(reactor threads) for {clients} clients"
    );
    assert!(
        peak_open >= (clients / 2) as u64,
        "clients were actually concurrent (peak_open {peak_open} < {clients}/2)"
    );
    let p99 = percentile(&lat, 99.0);
    assert!(p99 <= P99_BOUND_MS, "steady p99 {p99:.1} ms > bound {P99_BOUND_MS} ms");

    // --- slowloris phase (optional) ---
    let timeouts_before = stats.timeouts.load(Ordering::Relaxed);
    let evicted_ctr = Arc::new(AtomicUsize::new(0));
    let probe_lat: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut evicted = 0;
    let mut probe = Vec::new();
    if attackers > 0 {
        let fleet = Fleet::new(&rt);
        let t1 = net.now();
        for a in 0..attackers {
            fleet.launch(
                &reactor,
                t1,
                connect_from(&net, &hosts[a % hosts.len()]),
                Box::new(SlowlorisSession {
                    sent: 0,
                    slept: false,
                    resp: Vec::new(),
                    evicted: Arc::clone(&evicted_ctr),
                }),
            );
        }
        let prober = GetLoop::new(usize::MAX, 20, SLOWLORIS_TIMEOUT / 8, Arc::clone(&probe_lat));
        fleet.launch(&reactor, t1, connect_from(&net, &hosts[0]), Box::new(prober));
        let failures = fleet.wait();
        evicted = evicted_ctr.load(Ordering::Relaxed);
        let timeouts = stats.timeouts.load(Ordering::Relaxed) - timeouts_before;
        assert_eq!(failures, 0, "slowloris-phase sessions failed");
        assert_eq!(evicted, attackers, "every slowloris connection got a 408");
        assert!(timeouts >= attackers as u64, "timer wheel counted the evictions");
        probe = std::mem::take(&mut *probe_lat.lock());
        probe.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let probe_p99 = percentile(&probe, 99.0);
        assert!(probe_p99 <= P99_BOUND_MS, "probe p99 {probe_p99:.1} ms during attack");
    }

    let sched = net.sched_stats();
    reactor.shutdown();
    server.stop();
    assert_eq!(server.reactor_threads_live(), 0, "stop() joined every reactor thread");

    PointResult {
        latencies: lat,
        virt_wall,
        real_wall,
        census,
        sched,
        peak_open,
        served,
        threads_live,
        evicted,
        probe_latencies: probe,
    }
}

fn sweep_counts(main_clients: usize) -> Vec<usize> {
    let sweep = std::env::var("DAVIX_BENCH_C10K_SWEEP").unwrap_or_default();
    let entries = sweep.split(',').map(str::trim).filter(|t| !t.is_empty());
    let count = |t: &str| {
        t.parse().unwrap_or_else(|_| panic!("DAVIX_BENCH_C10K_SWEEP entry {t:?} not a count"))
    };
    // The main run already covers its own count.
    entries.map(count).filter(|&n| n != main_clients).collect()
}

fn main() {
    let clients = env_usize("DAVIX_BENCH_C10K_CLIENTS", 10_000);
    let requests = env_usize("DAVIX_BENCH_C10K_REQUESTS", 8);
    let threads = env_usize("DAVIX_BENCH_C10K_THREADS", 4);
    let client_threads = env_usize("DAVIX_BENCH_C10K_CLIENT_THREADS", 4);
    let attackers = env_usize("DAVIX_BENCH_C10K_ATTACKERS", 64);
    let sweep = sweep_counts(clients);
    println!(
        "== Figure 7: c10k — {clients} keep-alive clients on {threads}+{client_threads} \
         reactor threads ==\n"
    );

    let mut report = BenchReport::new("fig7_c10k");
    report.label(
        "workload",
        format!("{clients} clients x {requests} keep-alive GETs + {attackers} slowloris"),
    );

    let mut scaling = Table::new(&[
        "clients",
        "requests",
        "p50 (ms)",
        "p99 (ms)",
        "virt wall (s)",
        "real wall (s)",
        "census",
        "parks",
    ]);
    let mut record_point = |n: usize, r: &PointResult, report: &mut BenchReport| {
        let p50 = percentile(&r.latencies, 50.0);
        let p99 = percentile(&r.latencies, 99.0);
        scaling.row(vec![
            n.to_string(),
            r.latencies.len().to_string(),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{:.2}", r.virt_wall.as_secs_f64()),
            format!("{:.2}", r.real_wall.as_secs_f64()),
            r.census.to_string(),
            r.sched.parks.to_string(),
        ]);
        let pfx = format!("scale.c{n}");
        report.metric(&format!("{pfx}.real_wall_s"), r.real_wall.as_secs_f64());
        report.metric(&format!("{pfx}.virt_wall_s"), r.virt_wall.as_secs_f64());
        report.metric(&format!("{pfx}.p99_ms"), p99);
        report.metric(&format!("{pfx}.census"), r.census as f64);
    };

    // Scaling sweep (usually the smaller counts), then the main run.
    for &n in &sweep {
        println!("-- sweep point: {n} clients --");
        let r = run_point(n, requests, threads, client_threads, 0);
        record_point(n, &r, &mut report);
    }
    println!("-- main run: {clients} clients --");
    let main_run = run_point(clients, requests, threads, client_threads, attackers);
    record_point(clients, &main_run, &mut report);

    let p50 = percentile(&main_run.latencies, 50.0);
    let p99 = percentile(&main_run.latencies, 99.0);
    let pmax = main_run.latencies.last().copied().unwrap_or(0.0);
    let probe_p99 = percentile(&main_run.probe_latencies, 99.0);

    let mut table = Table::new(&["phase", "conns", "requests", "p50 (ms)", "p99 (ms)", "max (ms)"]);
    table.row(vec![
        "steady keep-alive".into(),
        clients.to_string(),
        main_run.latencies.len().to_string(),
        format!("{p50:.1}"),
        format!("{p99:.1}"),
        format!("{pmax:.1}"),
    ]);
    table.row(vec![
        "slowloris + probe".into(),
        (attackers + 1).to_string(),
        main_run.probe_latencies.len().to_string(),
        format!("{:.1}", percentile(&main_run.probe_latencies, 50.0)),
        format!("{probe_p99:.1}"),
        format!("{:.1}", main_run.probe_latencies.last().copied().unwrap_or(0.0)),
    ]);
    table.print();
    println!();
    scaling.print();
    println!(
        "\nserver reactor threads: {} (budget {threads}) for {clients} clients; \
         peak open conns: {}; sim thread census: {}; steady wall: {} virtual s / \
         {:.2} real s; slowloris evicted: {}/{attackers}",
        main_run.threads_live,
        main_run.peak_open,
        main_run.census,
        davix_bench::secs(main_run.virt_wall),
        main_run.real_wall.as_secs_f64(),
        main_run.evicted,
    );
    println!(
        "\nclaim check: {clients} concurrent keep-alive clients were served by \
         {} server reactor threads (clients multiplexed on {client_threads} more, \
         sim census {}) with p99 {p99:.1} ms (bound {P99_BOUND_MS} ms), and {} \
         slowloris connections were evicted by the timer wheel while the probe \
         stayed at p99 {probe_p99:.1} ms.",
        main_run.threads_live, main_run.census, main_run.evicted,
    );

    report.metric("clients", clients as f64);
    report.metric("requests", (clients * requests) as f64);
    report.metric("reactor_threads", main_run.threads_live as f64);
    report.metric("client_reactor_threads", client_threads as f64);
    report.metric("thread_census", main_run.census as f64);
    report.metric("peak_open_conns", main_run.peak_open as f64);
    report.metric("served", main_run.served as f64);
    report.metric("steady.p50_ms", p50);
    report.metric("steady.p99_ms", p99);
    report.metric("steady.max_ms", pmax);
    report.metric("steady.wall_s", main_run.virt_wall.as_secs_f64());
    report.metric("steady.real_wall_s", main_run.real_wall.as_secs_f64());
    report.metric("slowloris.evicted", main_run.evicted as f64);
    report.metric("slowloris.probe_p99_ms", probe_p99);
    report.metric("sched.peak_registered", main_run.sched.peak_registered as f64);
    report.metric("sched.peak_runnable", main_run.sched.peak_runnable as f64);
    report.metric("sched.parks", main_run.sched.parks as f64);
    report.metric("sched.unparks", main_run.sched.unparks as f64);
    report.metric("sched.clock_advances", main_run.sched.clock_advances as f64);
    report.metric("sched.events_applied", main_run.sched.events_applied as f64);
    // Detector-overhead datapoint: `steady.real_wall_s` above measures this
    // same run, so recording whether the race sanitizer was compiled in
    // lets a bench-trajectory diff attribute a real-wall shift to the
    // detector instead of a reactor regression. The virtual-time numbers
    // must not move either way. `reports` must stay 0: the c10k path runs
    // under the detector with no modeled race.
    report.metric("race_detect.enabled", if netsim::race::enabled() { 1.0 } else { 0.0 });
    report.metric("race_detect.reports", netsim::race::take_reports().len() as f64);
    report.table("main", &table);
    report.table("scaling", &scaling);
    report.write();
}
