//! The whole benchmark at smoke size through the library entry point: every
//! workload bare and traced, the probes, the corruption canary and the
//! exact-count metrics. Traced runs share one process-wide span registry,
//! so the tests take turns.

use perfbench::metrics::{END_TO_END, EXACT, PER_LAYER};
use perfbench::run::{run, Outcome, RunArgs};
use perfbench::workload::SPECS;
use std::sync::Mutex;

static TURN: Mutex<()> = Mutex::new(());

fn smoke(workload: &str, seed: u64, trace: bool, canary_corrupt: bool) -> Outcome {
    run(&RunArgs {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        smoke: true,
        canary_corrupt,
        trace_out: None,
    })
    .expect("known workload")
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for spec in &SPECS {
        let o = smoke(spec.name, 2014, false, false);
        assert!(o.correct(), "{}: {} of {} failed", spec.name, o.failed, o.attempted);
        assert!(o.attempted > 0);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        for m in &o.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{}.{} = {}",
                spec.name,
                m.name,
                m.value
            );
        }
        for name in ["setup_s", "ops_per_s", "mib_per_s", "op_p50_us", "peak_rss_mib"] {
            assert!(o.get(name).unwrap() > 0.0, "{}.{name} must never be 0", spec.name);
        }
    }
}

#[test]
fn traced_runs_report_every_layer_metric_and_exact_counts_repeat() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for spec in &SPECS {
        let a = smoke(spec.name, 7, true, false);
        assert!(a.correct(), "{}: {} of {} failed", spec.name, a.failed, a.attempted);
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>());
        assert!(a.metrics.iter().all(|m| m.value.is_finite()), "{}", spec.name);
        assert!(a.get("core.requests_per_op").unwrap() >= 1.0);
        assert!(a.get("trace.overhead_ratio").unwrap() > 0.0);
        // Every probe ran.
        for p in
            perfbench::probes::PROBES.iter().filter(|p| p.name != "core.cache.thrash_hit_ratio")
        {
            assert!(a.get(p.name).unwrap() > 0.0, "{}: probe {} reported 0", spec.name, p.name);
        }

        let b = smoke(spec.name, 7, true, false);
        for name in EXACT {
            let (x, y) = (a.get(name).unwrap(), b.get(name).unwrap());
            assert_eq!(x.to_bits(), y.to_bits(), "{}.{name}: {x} vs {y}", spec.name);
        }

        let on_sim = spec.name == "sim_wan_job";
        assert_eq!(a.get("netsim.sim.events_per_op").unwrap() > 0.0, on_sim);
        assert_eq!(a.get("netsim.sim.virt_job_s").unwrap() > 0.0, on_sim);
        assert_eq!(a.get("httpd.try_reads_per_op").unwrap() > 0.0, !on_sim, "real sockets");
        let sparse = spec.name == "analysis_sparse";
        assert_eq!(a.get("xrdlite.analysis_ops_per_s").unwrap() > 0.0, sparse);
        assert_eq!(a.get("rootio.fragments_per_read_vec").unwrap() > 1.0, sparse || on_sim);
    }
}

#[test]
fn a_flipped_stored_byte_is_reported_as_a_failure() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    for spec in &SPECS {
        let o = smoke(spec.name, 2014, false, true);
        assert!(o.failed > 0 && !o.correct(), "{}: corruption went unnoticed", spec.name);
    }
}
