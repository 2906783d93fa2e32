//! The analysis job: histograms and the event loop used to reproduce the
//! paper's §3 evaluation ("a High Energy analysis job based on ROOT reading
//! a fraction or the totality of ~12 000 particle events").

use crate::cache::{Column, TreeCache, TreeCacheOptions};
use crate::reader::TreeReader;
use netsim::Runtime;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// The `k`-th `f32` of a run [`Column::run_bytes`] lent.
fn f32_at(run: &[u8], k: usize) -> f32 {
    f32::from_le_bytes(run[4 * k..4 * k + 4].try_into().expect("4 bytes"))
}

/// Calorimeter cells summed in `i32` before one widening: a chunk of
/// 65 535 cells sums to at most 65 535 × 2¹⁵ < 2³¹ in magnitude.
const CAL_CHUNK_CELLS: usize = 65_535;

/// The sum of one event's little-endian `i16` calorimeter cells, in `i32`
/// lanes widened once per chunk of [`CAL_CHUNK_CELLS`].
fn cal_cells_sum(cells: &[u8]) -> i64 {
    cells
        .chunks(2 * CAL_CHUNK_CELLS)
        .map(|chunk| {
            let lanes = chunk.chunks_exact(2).map(|v| i32::from(i16::from_le_bytes([v[0], v[1]])));
            i64::from(lanes.sum::<i32>())
        })
        .sum()
}

/// A fixed-bin 1-D histogram (what HEP analyses fill).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Entries below range.
    pub underflow: u64,
    /// Entries above range.
    pub overflow: u64,
    entries: u64,
    sum: f64,
}

impl Histogram {
    /// `n` bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(hi > lo && n > 0, "bad histogram range");
        Histogram { lo, hi, bins: vec![0; n], underflow: 0, overflow: 0, entries: 0, sum: 0.0 }
    }

    /// Fill one value.
    pub fn fill(&mut self, x: f64) {
        self.entries += 1;
        self.sum += x;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.bins[idx.min(n - 1)] += 1;
        }
    }

    /// Total entries (including under/overflow).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Mean of filled values.
    pub fn mean(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.sum / self.entries as f64
        }
    }

    /// Bin contents.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Index of the fullest bin.
    pub fn mode_bin(&self) -> usize {
        self.bins.iter().enumerate().max_by_key(|(_, &v)| v).map(|(i, _)| i).unwrap_or(0)
    }
}

/// Job parameters.
#[derive(Debug, Clone)]
pub struct AnalysisJob {
    /// Fraction of events to process (1.0 = all; the paper also ran
    /// fractional selections). Selection is a deterministic stride.
    pub fraction: f64,
    /// Modelled CPU cost per processed event (virtual time under
    /// simulation); calibrated so the LAN job lands near the paper's ~97 s.
    pub per_event_cpu: Duration,
    /// Also read the calorimeter array (bulk of the bytes).
    pub read_calorimeter: bool,
}

impl Default for AnalysisJob {
    fn default() -> Self {
        AnalysisJob { fraction: 1.0, per_event_cpu: Duration::ZERO, read_calorimeter: true }
    }
}

/// What a finished job reports.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Events actually processed.
    pub events_processed: u64,
    /// Invariant-mass histogram of opposite-charge pairs.
    pub mass_histogram: Histogram,
    /// Total calorimeter energy observed (checksum-like validation value).
    pub cal_sum: i64,
    /// Vectored windows loaded by the TreeCache.
    pub windows_loaded: u64,
}

impl AnalysisJob {
    /// Run the job over `reader` using the given cache configuration.
    ///
    /// The event loop mirrors a simple dilepton search: per event read the
    /// kinematics, pair with the previous opposite-charge candidate, fill an
    /// invariant-mass histogram; optionally sum calorimeter deposits.
    pub fn run(
        &self,
        reader: Arc<TreeReader>,
        cache_opts: TreeCacheOptions,
        rt: &Arc<dyn Runtime>,
    ) -> io::Result<JobReport> {
        let schema = reader.schema().clone();
        let idx = |name: &str| {
            schema.index_of(name).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("missing branch {name}"))
            })
        };
        let (px, py, pz, en, q) =
            (idx("px")?, idx("py")?, idx("pz")?, idx("energy")?, idx("charge")?);
        let cal = if self.read_calorimeter { Some(idx("cal")?) } else { None };
        let cal_width = match schema.branches.get(cal.unwrap_or(0)).map(|b| b.kind) {
            Some(crate::model::BranchKind::I16Array(n)) => n,
            _ => 0,
        };
        let mut branches: Vec<usize> = vec![px, py, pz, en, q];
        if let Some(c) = cal {
            branches.push(c);
        }
        let mut cache = TreeCache::new(Arc::clone(&reader), &branches, cache_opts, Arc::clone(rt));

        let stride = if self.fraction >= 1.0 {
            1u64
        } else if self.fraction <= 0.0 {
            return Ok(JobReport {
                events_processed: 0,
                mass_histogram: Histogram::new(0.0, 200.0, 100),
                cal_sum: 0,
                windows_loaded: 0,
            });
        } else {
            (1.0 / self.fraction).round().max(1.0) as u64
        };

        let mut histogram = Histogram::new(0.0, 200.0, 100);
        let mut cal_sum: i64 = 0;
        let mut processed = 0u64;
        let mut prev: Option<(f32, f32, f32, f32, i8)> = None;

        let per = reader.events_per_basket() as u64;
        let n_events = reader.n_events();
        let mut ev = 0u64;
        while ev < n_events {
            // Every event of the run lives in the same basket of each
            // branch: resolve the columns once. A miss costs what the first
            // value read of the run would have cost, in the same order —
            // `px` loads the window, or, cache off, each branch its basket.
            for &b in &branches {
                cache.load(b, ev)?;
            }
            let (cpx, cpy, cpz, cen, cq) = (
                cache.column(px, ev)?,
                cache.column(py, ev)?,
                cache.column(pz, ev)?,
                cache.column(en, ev)?,
                cache.column(q, ev)?,
            );
            let ccal = cal.map(|c| cache.column(c, ev)).transpose()?;
            // The run's bytes of each branch, checked once; every value of
            // the run is read from them.
            let run = ev..(ev / per + 1).saturating_mul(per).min(n_events);
            let f32s = |c| Column::run_bytes(&c, run.clone(), 4);
            let (bpx, bpy, bpz, ben) = (f32s(cpx)?, f32s(cpy)?, f32s(cpz)?, f32s(cen)?);
            let bq = cq.run_bytes(run.clone(), 1)?;
            let cal_bytes = 2 * cal_width;
            let bcal = ccal.map(|c| c.run_bytes(run.clone(), cal_bytes)).transpose()?;
            while ev < run.end {
                let k = (ev - run.start) as usize;
                let e =
                    (f32_at(bpx, k), f32_at(bpy, k), f32_at(bpz, k), f32_at(ben, k), bq[k] as i8);
                if let Some(p) = prev {
                    if p.4 != e.4 {
                        // Opposite charge: invariant mass of the pair.
                        let e_tot = (p.3 + e.3) as f64;
                        let px_t = (p.0 + e.0) as f64;
                        let py_t = (p.1 + e.1) as f64;
                        let pz_t = (p.2 + e.2) as f64;
                        let m2 = e_tot * e_tot - (px_t * px_t + py_t * py_t + pz_t * pz_t);
                        if m2 > 0.0 {
                            histogram.fill(m2.sqrt());
                        }
                    }
                }
                prev = Some(e);
                if let Some(cells) = bcal {
                    cal_sum += cal_cells_sum(&cells[k * cal_bytes..(k + 1) * cal_bytes]);
                }
                if !self.per_event_cpu.is_zero() {
                    rt.sleep(self.per_event_cpu);
                }
                processed += 1;
                ev += stride;
            }
        }

        Ok(JobReport {
            events_processed: processed,
            mass_histogram: histogram,
            cal_sum,
            windows_loaded: cache.windows_loaded(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Generator, Schema};
    use crate::writer::{write_tree, WriterOptions};
    use ioapi::MemFile;

    fn reader(n_events: u64) -> Arc<TreeReader> {
        let mut g = Generator::new(Schema::hep(8), 99);
        let bytes =
            write_tree(&mut g, n_events, &WriterOptions { events_per_basket: 100, compress: true });
        Arc::new(TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap())
    }

    fn rt() -> Arc<dyn Runtime> {
        Arc::new(netsim::RealRuntime::new())
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.fill(-1.0);
        h.fill(0.0);
        h.fill(5.5);
        h.fill(9.999);
        h.fill(10.0);
        h.fill(100.0);
        assert_eq!(h.entries(), 6);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.bins()[0], 1);
        assert_eq!(h.bins()[5], 1);
        assert_eq!(h.bins()[9], 1);
    }

    #[test]
    #[should_panic(expected = "bad histogram range")]
    fn histogram_rejects_bad_range() {
        let _ = Histogram::new(5.0, 5.0, 10);
    }

    #[test]
    fn full_job_processes_all_events() {
        let r = reader(1_000);
        let job = AnalysisJob::default();
        let report = job.run(r, TreeCacheOptions::default(), &rt()).unwrap();
        assert_eq!(report.events_processed, 1_000);
        assert!(report.mass_histogram.entries() > 300, "plenty of opposite-charge pairs");
        assert_ne!(report.cal_sum, 0);
    }

    #[test]
    fn fractional_job_strides() {
        let r = reader(1_000);
        let job = AnalysisJob { fraction: 0.1, ..Default::default() };
        let report = job.run(r, TreeCacheOptions::default(), &rt()).unwrap();
        assert_eq!(report.events_processed, 100);
    }

    #[test]
    fn zero_fraction_is_empty() {
        let r = reader(100);
        let job = AnalysisJob { fraction: 0.0, ..Default::default() };
        let report = job.run(r, TreeCacheOptions::default(), &rt()).unwrap();
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn results_are_identical_with_and_without_cache() {
        let r = reader(2_000);
        let job = AnalysisJob::default();
        let with = job
            .run(Arc::clone(&r), TreeCacheOptions { enabled: true, ..Default::default() }, &rt())
            .unwrap();
        let without = job
            .run(Arc::clone(&r), TreeCacheOptions { enabled: false, ..Default::default() }, &rt())
            .unwrap();
        assert_eq!(with.events_processed, without.events_processed);
        assert_eq!(with.cal_sum, without.cal_sum);
        assert_eq!(with.mass_histogram, without.mass_histogram);
        assert!(with.windows_loaded > 0);
        assert_eq!(without.windows_loaded, 0);
    }

    /// The job done the slow way: every value of every selected event
    /// fetched with its own `read_basket`, no cache, no runs.
    fn naive(reader: &TreeReader, job: &AnalysisJob) -> (u64, Histogram, i64) {
        let idx = |name: &str| reader.schema().index_of(name).unwrap();
        let value = |branch: usize, ev: u64, width: usize| {
            let basket = reader.basket_for(branch, ev).unwrap();
            let at = (ev - reader.baskets()[basket].first_event) as usize * width;
            reader.read_basket(basket).unwrap()[at..at + width].to_vec()
        };
        let f32_at =
            |name: &str, ev| f32::from_le_bytes(value(idx(name), ev, 4).try_into().unwrap());
        let stride = if job.fraction >= 1.0 { 1 } else { (1.0 / job.fraction).round() as usize };
        let cal_width = reader.schema().branches[idx("cal")].kind.width();
        let mut histogram = Histogram::new(0.0, 200.0, 100);
        let (mut processed, mut cal_sum) = (0u64, 0i64);
        let mut prev: Option<([f32; 4], u8)> = None;
        for ev in (0..reader.n_events()).step_by(stride) {
            let p = ["px", "py", "pz", "energy"].map(|name| f32_at(name, ev));
            let q = value(idx("charge"), ev, 1)[0];
            if let Some((o, _)) = prev.filter(|&(_, oq)| oq != q) {
                let t = [0, 1, 2, 3].map(|i| (o[i] + p[i]) as f64);
                let m2 = t[3] * t[3] - (t[0] * t[0] + t[1] * t[1] + t[2] * t[2]);
                if m2 > 0.0 {
                    histogram.fill(m2.sqrt());
                }
            }
            prev = Some((p, q));
            if job.read_calorimeter {
                let cells = value(idx("cal"), ev, cal_width);
                cal_sum += cells
                    .chunks_exact(2)
                    .map(|c| i16::from_le_bytes([c[0], c[1]]) as i64)
                    .sum::<i64>();
            }
            processed += 1;
        }
        (processed, histogram, cal_sum)
    }

    #[test]
    fn job_matches_a_value_by_value_reference_in_every_configuration() {
        for compress in [true, false] {
            let mut g = Generator::new(Schema::hep(8), 5);
            let bytes = write_tree(&mut g, 610, &WriterOptions { events_per_basket: 20, compress });
            let r = Arc::new(TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap());
            for fraction in [1.0, 0.37, 0.1] {
                for read_calorimeter in [true, false] {
                    let job = AnalysisJob { fraction, read_calorimeter, ..Default::default() };
                    let want = naive(&r, &job);
                    for enabled in [true, false] {
                        // 50-event windows over 20-event baskets: straddlers.
                        let opts = TreeCacheOptions { window_events: 50, enabled, prefetch: false };
                        let got = job.run(Arc::clone(&r), opts, &rt()).unwrap();
                        let what = format!(
                            "compress {compress} fraction {fraction} cal {read_calorimeter} \
                             cache {enabled}"
                        );
                        assert_eq!(
                            (got.events_processed, got.mass_histogram, got.cal_sum),
                            want.clone(),
                            "{what}"
                        );
                        let windows = if enabled { 610u64.div_ceil(50) } else { 0 };
                        assert_eq!(got.windows_loaded, windows, "{what}");
                    }
                }
            }
        }
    }

    /// A raw-stored tree of `n_events` whose every calorimeter cell holds
    /// `cell`: each `cal` basket is replaced by a frame of the same length.
    fn constant_cal_tree(cells: usize, n_events: u64, cell: i16) -> TreeReader {
        let mut g = Generator::new(Schema::hep(cells), 7);
        let opts = WriterOptions { events_per_basket: 5, compress: false };
        let mut bytes = write_tree(&mut g, n_events, &opts);
        let r = TreeReader::open(Arc::new(MemFile::new(bytes.clone()))).unwrap();
        let cal = r.schema().index_of("cal").unwrap() as u16;
        for b in r.baskets().iter().filter(|b| b.branch == cal) {
            let column = cell.to_le_bytes().repeat(cells * b.n_events as usize);
            let at = b.offset as usize;
            bytes[at..at + b.len as usize].copy_from_slice(&crate::codec::store(&column));
        }
        TreeReader::open(Arc::new(MemFile::new(bytes))).unwrap()
    }

    #[test]
    fn extreme_calorimeter_cells_sum_exactly() {
        // 70 000 cells span two `i32` chunks.
        for cells in [256, 70_000] {
            for cell in [i16::MIN, i16::MAX] {
                let r = Arc::new(constant_cal_tree(cells, 10, cell));
                let job = AnalysisJob::default();
                let got = job.run(Arc::clone(&r), TreeCacheOptions::default(), &rt()).unwrap();
                let want = naive(&r, &job).2;
                assert_eq!(want, 10 * cells as i64 * i64::from(cell), "{cells} cells of {cell}");
                assert_eq!(got.cal_sum, want, "{cells} cells of {cell}");
            }
        }
    }

    #[test]
    fn a_window_of_no_events_is_an_input_error_unless_the_cache_is_off() {
        let job = AnalysisJob::default();
        let opts = TreeCacheOptions { window_events: 0, enabled: true, prefetch: false };
        let err = job.run(reader(300), opts.clone(), &rt()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        let off = TreeCacheOptions { enabled: false, ..opts };
        assert_eq!(job.run(reader(300), off, &rt()).unwrap().events_processed, 300);
    }

    #[test]
    fn kinematics_only_job_skips_calorimeter() {
        let r = reader(500);
        let job = AnalysisJob { read_calorimeter: false, ..Default::default() };
        let report = job.run(r, TreeCacheOptions::default(), &rt()).unwrap();
        assert_eq!(report.cal_sum, 0);
        assert_eq!(report.events_processed, 500);
    }

    #[test]
    fn per_event_cpu_advances_virtual_time() {
        let net = netsim::SimNet::new();
        net.add_host("h");
        let rt: Arc<dyn Runtime> = net.runtime();
        let r = reader(100);
        let job = AnalysisJob {
            per_event_cpu: Duration::from_millis(2),
            read_calorimeter: false,
            ..Default::default()
        };
        let _g = net.enter();
        let t0 = net.now();
        job.run(r, TreeCacheOptions::default(), &rt).unwrap();
        assert_eq!(net.now() - t0, Duration::from_millis(200));
    }
}
