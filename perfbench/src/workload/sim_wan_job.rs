//! `sim_wan_job`: the Fig. 4 WAN davix arm, built the way
//! `fig4_analysis::run_job` builds it (`Testbed`, 12 000 events in 40-event
//! compressed baskets, 8.05 ms virtual CPU per event, the paper's
//! transatlantic link, 500 µs server delay, 120-event cache window). Real
//! sockets do nothing here; the simulator's event loop and thread hand-off
//! do everything.

use super::analysis_sparse::same_report;
use super::{single_thread_rep, Counters, Instance, Params, Rep};
use crate::trace::{self, Layer};
use crate::wrap::TimedSource;
use bytes::Bytes;
use davix_repro::testbed::{paper_links, Testbed, TestbedConfig};
use ioapi::{MemFile, RandomAccess};
use netsim::{LinkSpec, RealRuntime, Runtime};
use rootio::{
    AnalysisJob, Generator, JobReport, Schema, TreeCacheOptions, TreeReader, WriterOptions,
};
use std::sync::Arc;
use std::time::Duration;

const EVENTS: usize = 12_000;
const OPS: usize = 5;
const PER_EVENT_CPU: Duration = Duration::from_micros(8_050);
const WINDOW_EVENTS: u64 = 120;

pub(crate) struct SimWanJob {
    ops: usize,
    tree: Bytes,
    link: LinkSpec,
    reference: JobReport,
    /// Virtual seconds of the first job; every later one must match it.
    virt_job_s: Option<f64>,
    /// Cumulative simulator counters, `[bare, traced]`.
    counters: [Counters; 2],
}

fn cache_options() -> TreeCacheOptions {
    TreeCacheOptions { window_events: WINDOW_EVENTS, enabled: true, prefetch: false }
}

impl SimWanJob {
    pub(crate) fn setup(p: Params) -> SimWanJob {
        let mut generator = Generator::new(Schema::hep(256), p.seed);
        let tree = Bytes::from(rootio::write_tree(
            &mut generator,
            p.size(EVENTS) as u64,
            &WriterOptions { events_per_basket: 40, compress: true },
        ));
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let mem = Arc::new(TreeReader::open(Arc::new(MemFile::new(tree.clone()))).expect("tree"));
        let reference =
            AnalysisJob::default().run(mem, cache_options(), &rt).expect("reference run");
        let (_, link) = paper_links(1.0)[2];
        SimWanJob {
            ops: p.ops(OPS),
            tree,
            link,
            reference,
            virt_job_s: None,
            counters: [Counters::default(); 2],
        }
    }

    /// One job on a fresh testbed; returns payload bytes and the
    /// simulator's counters for this job.
    fn job(&self, traced: bool) -> Result<(u64, Counters), String> {
        let tb = Testbed::start(TestbedConfig {
            replicas: vec![("dpm1.cern.ch".to_string(), self.link)],
            data: self.tree.clone(),
            // fig4_analysis also starts an (idle) xrootd listener here. Its
            // accept thread cannot be stopped, so it would leak two threads
            // per job; the virtual job time is bit-identical without it.
            with_xrd: false,
            server_delay: Duration::from_micros(500),
            ..Default::default()
        });
        let result = self.job_on(&tb, traced);
        // Unlike fig4_analysis, stop the servers: a benchmark process runs
        // dozens of jobs and must not pile up parked server threads.
        for node in &tb.nodes {
            node.server.stop();
        }
        result
    }

    fn job_on(&self, tb: &Testbed, traced: bool) -> Result<(u64, Counters), String> {
        let _guard = tb.net.enter();
        let rt: Arc<dyn Runtime> = tb.net.runtime();
        let client = tb.davix_client(davix::Config::default());
        let file = Arc::new(client.open(&tb.url(0)).map_err(|e| e.to_string())?);
        let source: Arc<dyn RandomAccess> =
            if traced { Arc::new(TimedSource(Arc::clone(&file) as _)) } else { file.clone() };
        let reader = Arc::new(TreeReader::open(source).map_err(|e| e.to_string())?);
        let job = AnalysisJob { per_event_cpu: PER_EVENT_CPU, ..Default::default() };
        let t0 = tb.net.now();
        let report = {
            let _span = traced.then(|| trace::span(Layer::RootioPass));
            job.run(reader, cache_options(), &rt).map_err(|e| e.to_string())?
        };
        let virt_job_s = (tb.net.now() - t0).as_secs_f64();
        if !same_report(&report, &self.reference) {
            return Err("job report differs from the in-memory reference run".to_string());
        }
        let (sched, net, m) = (tb.net.sched_stats(), tb.net.stats(), client.metrics());
        let counters = Counters {
            requests: m.requests,
            sessions_created: m.sessions_created,
            sessions_reused: m.sessions_reused,
            sim_events: sched.events_applied,
            sim_parks: sched.parks,
            sim_clock_advances: sched.clock_advances,
            sim_bytes_delivered: net.bytes_delivered,
            virt_job_s,
        };
        Ok((file.io_stats().bytes_read, counters))
    }

    fn checked_job(&mut self, traced: bool) -> Result<u64, String> {
        let (bytes, c) = self.job(traced)?;
        let first = *self.virt_job_s.get_or_insert(c.virt_job_s);
        if c.virt_job_s.to_bits() != first.to_bits() {
            return Err(format!("virtual job time {} != first job's {first}", c.virt_job_s));
        }
        self.counters[traced as usize].add(&c);
        Ok(bytes)
    }
}

impl Instance for SimWanJob {
    fn rep(&mut self, traced: bool) -> Rep {
        let ops = self.ops;
        single_thread_rep(ops, traced, |_| self.checked_job(traced))
    }

    /// Every job already compares its full report with the in-memory
    /// reference and its virtual time with the first job's; one more job
    /// re-checks both untimed.
    fn verify(&mut self) -> (u64, u64) {
        (1, self.checked_job(false).is_err() as u64)
    }

    /// Flips a byte in the middle of the compressed tree.
    fn corrupt(&mut self) {
        let mut data = self.tree.to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        self.tree = Bytes::from(data);
    }

    fn counters(&self, traced: bool) -> Counters {
        self.counters[traced as usize]
    }
}
