//! Output: the contract's one-line JSON result, the human tables, and the
//! `--json` file (through the repository's existing hand-rolled
//! `BenchReport` writer — there is no serde in the tree).

use crate::metrics::{self, MetricDef};
use crate::run::{Outcome, Value};
use davix_bench::{BenchReport, Table};

/// JSON number with every digit `f64` holds; non-finite values have no JSON
/// spelling and become `null` (which the reader treats as a failed run).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The last line a run prints:
/// `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// What [`result_line`] said, read back by the parent of a child run.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, String)>,
}

impl Parsed {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// Parse a line produced by [`result_line`] (only that shape — this is not
/// a JSON parser).
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let after = |hay: &str, key: &str| hay.find(key).map(|i| hay[i + key.len()..].to_string());
    let scalar = |key: &str| {
        let rest = after(line, &format!("\"{key}\": "))?;
        Some(rest[..rest.find([',', '}'])?].trim().to_string())
    };
    let body = after(line, "\"metrics\": {")?;
    let mut metrics = Vec::new();
    let mut rest = body.as_str();
    while let Some(q) = rest.find('"') {
        let name_end = q + 1 + rest[q + 1..].find('"')?;
        let name = rest[q + 1..name_end].to_string();
        let entry = &rest[name_end..];
        let close = entry.find('}')?;
        let fields = &entry[..close];
        let value = after(fields, "\"value\": ")?;
        let value = value[..value.find(',')?].trim().parse::<f64>().ok()?;
        let unit = after(fields, "\"unit\": \"")?;
        let unit = unit[..unit.find('"')?].to_string();
        metrics.push((name, value, unit));
        rest = &entry[close + 1..];
    }
    Some(Parsed {
        correct: scalar("correct")? == "true",
        attempted: scalar("attempted")?.parse().ok()?,
        failed: scalar("failed")?.parse().ok()?,
        metrics,
    })
}

fn fmt_value(v: f64) -> String {
    match v.abs() {
        0.0 => "0".to_string(),
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.4}"),
    }
}

/// One workload's metrics, one per row, with units, spread and sample
/// counts. Zero-valued layer metrics (layer not on the path) are skipped.
pub fn print_outcome(o: &Outcome) {
    println!(
        "== {} (seed {}, {}) — attempted {}, failed {} ==",
        o.workload,
        o.seed,
        if o.traced { "traced: per-layer" } else { "bare: end-to-end" },
        o.attempted,
        o.failed
    );
    let mut table = Table::new(&["metric", "value", "unit", "better", "iqr/median", "samples"]);
    for Value { name, value, unit, spread, samples } in &o.metrics {
        if o.traced && *value == 0.0 {
            continue;
        }
        let better = metrics::def(name).map_or("", |d: &MetricDef| d.better);
        table.row(vec![
            name.to_string(),
            fmt_value(*value),
            unit.to_string(),
            better.to_string(),
            spread.map_or(String::new(), |s| format!("{:.2}%", s * 100.0)),
            samples.map_or(String::new(), |n| n.to_string()),
        ]);
    }
    table.print();
    println!();
}

/// All workloads side by side: one row per metric, one column per workload.
pub fn summary_table(results: &[(String, Parsed)]) -> Table {
    let mut headers = vec!["metric", "unit"];
    headers.extend(results.iter().map(|(w, _)| w.as_str()));
    let mut table = Table::new(&headers);
    let Some((_, first)) = results.first() else { return table };
    for (name, _, unit) in &first.metrics {
        let mut row = vec![name.clone(), unit.clone()];
        row.extend(results.iter().map(|(_, p)| p.get(name).map_or(String::new(), fmt_value)));
        table.row(row);
    }
    table
}

/// The `--json` document: every metric of every workload as
/// `<section>.<workload>.<metric>`, plus one summary table per section; no
/// gain is claimed.
pub fn bench_report(seed: u64, sections: &[(&str, &[(String, Parsed)])]) -> BenchReport {
    let mut report = BenchReport::new("perfbench");
    report.label("seed", seed.to_string());
    report.label("claim", "none: this run defines the baseline");
    report.label(
        "cores",
        std::thread::available_parallelism().map_or("unknown".to_string(), |n| n.to_string()),
    );
    for (section, results) in sections {
        for (workload, parsed) in results.iter() {
            report.label(
                &format!("{section}.{workload}.ops"),
                format!("attempted={} failed={}", parsed.attempted, parsed.failed),
            );
            for (name, value, _) in &parsed.metrics {
                report.metric(&format!("{section}.{workload}.{name}"), *value);
            }
        }
        report.table(section, &summary_table(results));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            workload: "small_get".into(),
            seed: 2014,
            traced: false,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                Value {
                    name: "ops_per_s",
                    value: 118234.56789,
                    unit: "1/s",
                    spread: Some(0.01),
                    samples: Some(10),
                },
                Value { name: "setup_s", value: 0.8127, unit: "s", spread: None, samples: None },
                Value { name: "tiny", value: 1.25e-7, unit: "ratio", spread: None, samples: None },
            ],
        }
    }

    #[test]
    fn result_line_has_the_contract_shape_and_round_trips() {
        let line = result_line(&outcome());
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        let depth = line.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
        let parsed = parse_result_line(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (1000, 0));
        assert_eq!(parsed.get("ops_per_s"), Some(118234.56789));
        assert_eq!(parsed.get("tiny"), Some(1.25e-7));
        assert_eq!(parsed.metrics[1], ("setup_s".to_string(), 0.8127, "s".to_string()));
    }

    #[test]
    fn failures_and_non_finite_values_are_not_correct() {
        let mut o = outcome();
        o.failed = 1;
        assert!(result_line(&o).starts_with("{\"correct\": false"));
        let mut o = outcome();
        o.metrics[0].value = f64::NAN;
        let line = result_line(&o);
        assert!(line.starts_with("{\"correct\": false") && line.contains("\"value\": null"));
        assert!(parse_result_line("no json here").is_none());
    }

    #[test]
    fn bench_report_uses_the_shared_writer() {
        let parsed = parse_result_line(&result_line(&outcome())).unwrap();
        let results = vec![("small_get".to_string(), parsed)];
        let json = bench_report(2014, &[("end_to_end", &results)]).to_json();
        assert!(json.contains("\"bench\": \"perfbench\""));
        assert!(json.contains("\"claim\": \"none"));
        assert!(json.contains("\"end_to_end.small_get.setup_s\": 0.8127"));
        assert!(json.contains("\"headers\": [\"metric\", \"unit\", \"small_get\"]"));
    }
}
