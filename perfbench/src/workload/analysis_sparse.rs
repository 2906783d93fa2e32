//! `analysis_sparse`: the paper's §2.3/§3 access pattern on loopback — an
//! analysis pass that reads only the five kinematic branches of a
//! 100 000-event tree through `TreeReader` → `DavFile`, i.e. multi-range
//! GETs of 500 fragments of ~80 bytes. (The Fig. 4 full-read shape was
//! rejected here: on loopback the I/O stack is only a quarter of its wall
//! time.)

use super::{single_thread_rep, Counters, Instance, Params, Rep, Stacks};
use crate::trace::{self, Layer};
use crate::wrap::TimedSource;
use bytes::Bytes;
use ioapi::{MemFile, RandomAccess};
use netsim::{RealRuntime, Runtime};
use objstore::ObjectStore;
use rootio::{
    AnalysisJob, Generator, JobReport, Schema, TreeCacheOptions, TreeReader, WriterOptions,
};
use std::sync::Arc;

const EVENTS: usize = 100_000;
const OPS: usize = 20;
pub(crate) const PATH: &str = "/data/events.root";

/// The job every pass runs: kinematics only, no modelled CPU.
pub(crate) fn job() -> AnalysisJob {
    AnalysisJob { fraction: 1.0, per_event_cpu: std::time::Duration::ZERO, read_calorimeter: false }
}

/// One vectored read per 2 000-event window: 100 baskets × 5 branches.
pub(crate) fn cache_options() -> TreeCacheOptions {
    TreeCacheOptions { window_events: 2_000, enabled: true, prefetch: false }
}

/// Whether two job reports agree on everything the job computes.
pub(crate) fn same_report(a: &JobReport, b: &JobReport) -> bool {
    a.events_processed == b.events_processed
        && a.mass_histogram == b.mass_histogram
        && a.cal_sum == b.cal_sum
        && a.windows_loaded == b.windows_loaded
}

/// One pass over `reader`; returns the payload bytes the source delivered.
pub(crate) fn pass(
    reader: &Arc<TreeReader>,
    rt: &Arc<dyn Runtime>,
    reference: &JobReport,
    traced: bool,
) -> Result<u64, String> {
    let _span = traced.then(|| trace::span(Layer::RootioPass));
    let before = reader.source().stats().bytes_read;
    let report = job().run(Arc::clone(reader), cache_options(), rt).map_err(|e| e.to_string())?;
    if !same_report(&report, reference) {
        return Err("job report differs from the in-memory reference run".to_string());
    }
    Ok(reader.source().stats().bytes_read - before)
}

pub(crate) struct AnalysisSparse {
    ops: usize,
    stacks: Stacks,
    tree: Bytes,
    rt: Arc<dyn Runtime>,
    /// The same job over the same bytes held in memory.
    reference: JobReport,
    /// One opened tree per stack (`[bare, traced]`): the open (a HEAD plus
    /// footer, header and index reads) is set-up.
    readers: [Option<Arc<TreeReader>>; 2],
}

impl AnalysisSparse {
    pub(crate) fn setup(p: Params) -> AnalysisSparse {
        let mut generator = Generator::new(Schema::hep(256), p.seed);
        let tree = Bytes::from(rootio::write_tree(
            &mut generator,
            p.size(EVENTS) as u64,
            &WriterOptions { events_per_basket: 20, compress: false },
        ));
        let rt: Arc<dyn Runtime> = Arc::new(RealRuntime::new());
        let mem = Arc::new(TreeReader::open(Arc::new(MemFile::new(tree.clone()))).expect("tree"));
        let reference = job().run(mem, cache_options(), &rt).expect("reference run");

        let store = Arc::new(ObjectStore::new());
        store.put(PATH, tree.clone());
        let stacks = Stacks::start(store, p);
        let mut readers = [None, None];
        for (traced, stack) in stacks.each() {
            let file = Arc::new(stack.client.open(&stack.url(PATH)).expect("open tree"));
            let source: Arc<dyn RandomAccess> =
                if traced { Arc::new(TimedSource(file)) } else { file };
            readers[traced as usize] = Some(Arc::new(TreeReader::open(source).expect("tree")));
        }
        AnalysisSparse { ops: p.ops(OPS), stacks, tree, rt, reference, readers }
    }

    fn reader(&self, traced: bool) -> &Arc<TreeReader> {
        self.readers[traced as usize].as_ref().expect("stack was set up")
    }
}

impl Instance for AnalysisSparse {
    fn rep(&mut self, traced: bool) -> Rep {
        let (reader, rt, reference) = (self.reader(traced), &self.rt, &self.reference);
        single_thread_rep(self.ops, traced, |_| pass(reader, rt, reference, traced))
    }

    /// The stored tree must be the generated one byte for byte, and a pass
    /// over each stack must reproduce the in-memory reference report.
    fn verify(&mut self) -> (u64, u64) {
        let mut checked = 1;
        let stored = self.stacks.pick(false).store.get(PATH);
        let mut missed = (stored.map(|m| m.data) != Some(self.tree.clone())) as u64;
        for (traced, _) in self.stacks.each() {
            checked += 1;
            if pass(self.reader(traced), &self.rt, &self.reference, false).is_err() {
                missed += 1;
            }
        }
        (checked, missed)
    }

    /// Flips a byte of the first `px` basket, which every pass reads.
    fn corrupt(&mut self) {
        let reader = self.reader(false);
        let px = reader.schema().index_of("px").expect("px branch");
        let basket = reader.baskets()[reader.basket_for(px, 0).expect("first basket")];
        let mut data = self.tree.to_vec();
        data[basket.offset as usize + basket.len as usize / 2] ^= 0x40;
        self.stacks.pick(false).store.put(PATH, Bytes::from(data));
    }

    fn counters(&self, traced: bool) -> Counters {
        Counters::of_loopback(self.stacks.pick(traced))
    }

    fn extra_arms(&mut self) -> Vec<(&'static str, f64)> {
        crate::arms::xrd_analysis(self.tree.clone(), &self.reference, self.ops)
    }
}
