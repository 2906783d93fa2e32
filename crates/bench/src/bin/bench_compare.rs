//! **bench_compare** — diff two bench-trajectory snapshots.
//!
//! CI persists every run's `BENCH_*.json` files as the `bench-trajectory`
//! artifact ([`davix_bench::BenchReport`]). This binary compares the current
//! snapshot against a previous one and flags per-metric drift beyond a
//! tolerance, so a perf regression shows up as a readable report instead of
//! a number silently moving inside an artifact nobody opens.
//!
//! ```text
//! bench_compare <baseline-dir> <current-dir> [--tolerance PCT] [--strict]
//!               [--github-annotations]
//! ```
//!
//! * Metrics are matched by `(file, key)`. Time-like metrics (key ending in
//!   `_ms` or `_s`) only count as **regressions** when they *increase*
//!   beyond tolerance (getting faster is fine); `real_wall` metrics are
//!   machine-dependent and get 4× the tolerance. All other metrics are
//!   two-sided **drift** (a changed request count is suspicious in either
//!   direction).
//! * Exit code is 0 unless `--strict` is given and at least one **gating**
//!   finding was found. Gating means deterministic: virtual-time metrics
//!   and counts are bit-stable run to run, so any drift there is a real
//!   change in behaviour. `real_wall` findings (and `peak_runnable`, an
//!   OS-scheduling high-water mark) are always advisory — they measure the
//!   CI runner, not the code — and never fail the build, even under
//!   `--strict`. With `--github-annotations`, gating findings under
//!   `--strict` become `::error::` [workflow commands] and advisory ones
//!   `::warning::` (without `--strict`, everything is a warning).
//!
//! [workflow commands]: https://docs.github.com/en/actions/reference/workflow-commands-for-github-actions
//!
//! The parser reads only the `"metrics"` object of the known
//! [`BenchReport::to_json`] shape (one `"key": value` pair per line); it is
//! deliberately not a general JSON parser — there is no serde in the tree.
//!
//! [`BenchReport::to_json`]: davix_bench::BenchReport::to_json

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default relative tolerance (25%): virtual-time numbers are deterministic,
/// but workload knobs legitimately move between commits; the comparator
/// should catch order-of-magnitude rot, not force byte-stable output.
const DEFAULT_TOLERANCE: f64 = 0.25;

/// Extra slack factor for real-wall-clock metrics (machine-dependent).
const REAL_WALL_SLACK: f64 = 4.0;

fn parse_metrics(path: &Path) -> std::io::Result<BTreeMap<String, f64>> {
    let text = std::fs::read_to_string(path)?;
    let mut metrics = BTreeMap::new();
    let mut in_metrics = false;
    for line in text.lines() {
        let t = line.trim();
        if !in_metrics {
            if t.starts_with("\"metrics\"") {
                in_metrics = true;
                // Single-line empty object: "metrics": {},
                if t.contains('}') {
                    break;
                }
            }
            continue;
        }
        if t.starts_with('}') {
            break;
        }
        // Lines look like: "steady.p99_ms": 5.0,
        let Some((rawk, rawv)) = t.split_once(':') else { continue };
        let key = rawk.trim().trim_matches('"').to_string();
        let val = rawv.trim().trim_end_matches(',');
        if let Ok(v) = val.parse::<f64>() {
            metrics.insert(key, v);
        }
        // null (non-finite) metrics are simply not comparable: skip.
    }
    Ok(metrics)
}

fn bench_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
                    .unwrap_or(false)
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    out.sort();
    out
}

fn is_time_like(key: &str) -> bool {
    key.ends_with("_ms") || key.ends_with("_s")
}

/// Metrics that measure the machine, not the code: wall clocks, the
/// high-water mark of simultaneously runnable sim threads, which is how far
/// the OS let woken threads overlap (fig7 reads 10, 9, 8 and now and then 7
/// or 6 on one commit), and the scheduler's park/unpark counts, which are
/// OS-level hand-offs: how often a woken thread found its work already
/// done depends on when the OS ran it, not on virtual time.
fn is_advisory(key: &str) -> bool {
    key.contains("real_wall")
        || key.ends_with("peak_runnable")
        || key.ends_with("sched.parks")
        || key.ends_with("sched.unparks")
}

enum Verdict {
    Ok,
    Regression(String),
    Drift(String),
}

fn judge(key: &str, base: f64, cur: f64, tolerance: f64) -> Verdict {
    let tol = if is_advisory(key) { tolerance * REAL_WALL_SLACK } else { tolerance };
    if base == 0.0 {
        if cur.abs() > f64::EPSILON {
            return Verdict::Drift(format!("{key}: 0 -> {cur}"));
        }
        return Verdict::Ok;
    }
    let rel = (cur - base) / base.abs();
    if rel.abs() <= tol {
        return Verdict::Ok;
    }
    let msg = format!("{key}: {base} -> {cur} ({:+.1}%)", rel * 100.0);
    if is_time_like(key) {
        if rel > 0.0 {
            Verdict::Regression(msg)
        } else {
            Verdict::Ok // faster is not a problem
        }
    } else {
        Verdict::Drift(msg)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut strict = false;
    let mut annotations = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--tolerance" => {
                let v = args.next().expect("--tolerance needs a percentage");
                tolerance = v.parse::<f64>().expect("--tolerance percentage") / 100.0;
            }
            "--strict" => strict = true,
            "--github-annotations" => annotations = true,
            _ => dirs.push(PathBuf::from(a)),
        }
    }
    if dirs.len() != 2 {
        eprintln!(
            "usage: bench_compare <baseline-dir> <current-dir> [--tolerance PCT] [--strict] \
             [--github-annotations]"
        );
        return ExitCode::from(2);
    }
    let (baseline, current) = (&dirs[0], &dirs[1]);

    // (advisory, message). Advisory findings are on `real_wall` metrics —
    // machine-dependent, reported but never gating.
    let mut regressions: Vec<(bool, String)> = Vec::new();
    let mut drifts: Vec<(bool, String)> = Vec::new();
    let mut compared = 0usize;
    let mut missing_files = 0usize;

    for cur_path in bench_files(current) {
        let name = cur_path.file_name().unwrap().to_string_lossy().to_string();
        let base_path = baseline.join(&name);
        if !base_path.exists() {
            println!("{name}: new bench (no baseline) — skipped");
            missing_files += 1;
            continue;
        }
        let base = match parse_metrics(&base_path) {
            Ok(m) => m,
            Err(e) => {
                println!("{name}: unreadable baseline ({e}) — skipped");
                continue;
            }
        };
        let cur = match parse_metrics(&cur_path) {
            Ok(m) => m,
            Err(e) => {
                println!("{name}: unreadable current ({e}) — skipped");
                continue;
            }
        };
        for (key, cur_v) in &cur {
            let Some(base_v) = base.get(key) else {
                // New metric: nothing to compare (and renames show up as
                // one new + one vanished, both benign).
                continue;
            };
            compared += 1;
            match judge(key, *base_v, *cur_v, tolerance) {
                Verdict::Ok => {}
                Verdict::Regression(m) => {
                    regressions.push((is_advisory(key), format!("{name}: {m}")));
                }
                Verdict::Drift(m) => drifts.push((is_advisory(key), format!("{name}: {m}"))),
            }
        }
        for key in base.keys() {
            if !cur.contains_key(key) {
                drifts.push((is_advisory(key), format!("{name}: {key}: metric vanished")));
            }
        }
    }

    let gating = regressions.iter().chain(drifts.iter()).filter(|(advisory, _)| !advisory).count();
    println!(
        "\nbench-compare: {compared} metrics compared ({} tolerance, real-wall x{}), \
         {} regressions, {} drifts ({gating} gating), {missing_files} new benches",
        format_args!("{:.0}%", tolerance * 100.0),
        REAL_WALL_SLACK,
        regressions.len(),
        drifts.len(),
    );
    for (advisory, r) in &regressions {
        let tag = if *advisory { "regression (advisory)" } else { "REGRESSION" };
        println!("  {tag:<21} {r}");
    }
    for (advisory, d) in &drifts {
        let tag = if *advisory { "drift (advisory)" } else { "drift" };
        println!("  {tag:<21} {d}");
    }
    if annotations {
        // GitHub Actions picks `::error::`/`::warning::` lines off stdout
        // and surfaces them on the run summary and the PR checks page.
        // Under --strict, gating findings annotate as errors (the job will
        // fail); advisory real-wall findings stay warnings everywhere.
        // Workflow commands are one message per line, so any embedded
        // newline (there are none today) must not split one.
        for (advisory, r) in &regressions {
            let level = if strict && !advisory { "error" } else { "warning" };
            println!("::{level} title=bench regression::{}", r.replace('\n', " "));
        }
        for (advisory, d) in &drifts {
            let level = if strict && !advisory { "error" } else { "warning" };
            println!("::{level} title=bench drift::{}", d.replace('\n', " "));
        }
    }
    if strict && gating > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_metrics_from_report_json() {
        let mut r = davix_bench::BenchReport::new("t");
        r.metric("a.total_s", 1.5);
        r.metric("b.count", 7.0);
        r.metric("c.bad", f64::NAN);
        let dir = std::env::temp_dir().join(format!("bench_compare_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_t.json");
        std::fs::write(&path, r.to_json()).unwrap();
        let m = parse_metrics(&path).unwrap();
        assert_eq!(m.get("a.total_s"), Some(&1.5));
        assert_eq!(m.get("b.count"), Some(&7.0));
        assert!(!m.contains_key("c.bad"), "null metrics are skipped");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn time_like_metrics_are_one_sided() {
        assert!(matches!(judge("x.p99_ms", 10.0, 20.0, 0.25), Verdict::Regression(_)));
        assert!(matches!(judge("x.p99_ms", 20.0, 10.0, 0.25), Verdict::Ok));
        assert!(matches!(judge("x.count", 20.0, 10.0, 0.25), Verdict::Drift(_)));
        assert!(matches!(judge("x.count", 10.0, 11.0, 0.25), Verdict::Ok));
        assert!(matches!(judge("x.zero", 0.0, 1.0, 0.25), Verdict::Drift(_)));
    }

    #[test]
    fn real_wall_findings_are_advisory() {
        // The --strict gate keys off this partition: deterministic
        // virtual-time metrics gate, machine-dependent wall clocks advise.
        assert!(is_advisory("steady.real_wall_s"));
        assert!(is_advisory("fig7.real_wall_per_1k_ms"));
        assert!(is_advisory("sched.peak_runnable"));
        assert!(!is_advisory("steady.p99_ms"));
        assert!(!is_advisory("transfer.total_s"));
    }

    #[test]
    fn park_counts_are_advisory() {
        // fig7's park/unpark counts follow the OS run order; the virtual
        // clock's own counts beside them still gate.
        assert!(is_advisory("sched.parks"));
        assert!(is_advisory("sched.unparks"));
        assert!(!is_advisory("sched.clock_advances"));
        assert!(!is_advisory("sched.parks_total_s"));
    }

    #[test]
    fn real_wall_gets_slack() {
        // +80% on a real-wall metric is inside 4 x 25%.
        assert!(matches!(judge("steady.real_wall_s", 1.0, 1.8, 0.25), Verdict::Ok));
        assert!(matches!(judge("steady.real_wall_s", 1.0, 2.5, 0.25), Verdict::Regression(_)));
    }
}
