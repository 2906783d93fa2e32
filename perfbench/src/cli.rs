//! Command line.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1      one run, in this process (the
//!           [--smoke] [--canary corrupt] [--trace-out PATH]    benchmark contract's interface)
//! perfbench run [--seed N] [--seconds S] [--workload W] [--trace] [--smoke]
//!               [--canary corrupt] [--json PATH]               every workload, one child each;
//!                                                              --trace adds the traced suite
//! perfbench probes [--smoke]                                   the isolated probes only
//! perfbench selfcheck [--seed N] [--seconds S] [--smoke]       the suite twice; must agree
//! perfbench manifest                                           print BENCHMARK.json
//! ```

use crate::metrics::{END_TO_END, EXACT, PER_LAYER};
use crate::report::{self, Parsed};
use crate::run::{run, RunArgs};
use crate::workload::SPECS;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures for, here and in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    canary_corrupt: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 2014,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        canary_corrupt: false,
        json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--smoke" => o.smoke = true,
            "--json" => o.json = Some(PathBuf::from(value()?)),
            "--trace-out" => o.trace_out = Some(PathBuf::from(value()?)),
            "--canary" => match value()?.as_str() {
                "corrupt" => o.canary_corrupt = true,
                other => return Err(format!("unknown canary `{other}` (known: corrupt)")),
            },
            // `--trace 0|1` from the contract's driver, bare `--trace` by hand.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") => {
                    it.next();
                    o.trace = false;
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(o.seconds >= 0.0 && o.seconds <= 3600.0) {
        return Err("--seconds must be between 0 and 3600".to_string());
    }
    if let Some(w) = &o.workload {
        if crate::workload::spec(w).is_none() {
            let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
            return Err(format!("unknown workload `{w}` (known: {})", known.join(", ")));
        }
    }
    Ok(o)
}

/// Entry point of the `perfbench` binary.
pub fn main(args: Vec<String>) -> ExitCode {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "probes" | "selfcheck" | "manifest")) => (c, &args[1..]),
        _ => ("single", &args[..]),
    };
    let opts = match parse(rest) {
        Ok(o) => o,
        Err(why) => {
            eprintln!("perfbench: {why}");
            return ExitCode::from(2);
        }
    };
    let ok = match command {
        "single" => single(&opts),
        "run" => suite(&opts),
        "probes" => {
            for p in crate::probes::PROBES.iter() {
                let t0 = std::time::Instant::now();
                let value = (p.run)(opts.smoke);
                let unit = crate::metrics::def(p.name).map_or("", |d| d.unit);
                println!(
                    "{:<42} {value:>16.3} {unit:<6} ({:.0} ms)",
                    p.name,
                    t0.elapsed().as_secs_f64() * 1e3
                );
            }
            true
        }
        "selfcheck" => selfcheck(&opts),
        "manifest" => {
            print!("{}", manifest());
            true
        }
        _ => unreachable!("command was matched above"),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One run of one workload in this process; the result line goes last.
fn single(o: &Opts) -> bool {
    let Some(workload) = o.workload.clone() else {
        eprintln!("perfbench: --workload is required (or use `perfbench run`)");
        return false;
    };
    match crate::procfs::pin_to_one_cpu() {
        Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        None => eprintln!("perfbench: could not pin to one CPU; timings will be noisier"),
    }
    let outcome = run(&RunArgs {
        workload,
        seed: o.seed,
        seconds: o.seconds,
        trace: o.trace,
        smoke: o.smoke,
        canary_corrupt: o.canary_corrupt,
        trace_out: o.trace_out.clone(),
    })
    .expect("workload name was validated");
    report::print_outcome(&outcome);
    println!("{}", report::result_line(&outcome));
    outcome.correct()
}

/// Run `workload` in a child process (so peak RSS and set-up are its own)
/// and read its result line back.
fn child(o: &Opts, workload: &str, trace: bool) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    if o.canary_corrupt {
        cmd.args(["--canary", "corrupt"]);
    }
    let out = cmd.output().expect("spawn a child run");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout.lines().last().and_then(report::parse_result_line);
    if parsed.is_none() {
        eprintln!("perfbench: {workload} printed no result line ({})", out.status);
    }
    parsed
}

/// Every selected workload once, bare or traced.
fn children(o: &Opts, trace: bool) -> Option<Vec<(String, Parsed)>> {
    SPECS
        .iter()
        .filter(|s| o.workload.as_deref().is_none_or(|w| w == s.name))
        .map(|s| {
            eprintln!("perfbench: {} ({}) …", s.name, if trace { "traced" } else { "bare" });
            child(o, s.name, trace).map(|p| (s.name.to_string(), p))
        })
        .collect()
}

/// The bare suite, and with `--trace` the traced suite after it.
fn suite(o: &Opts) -> bool {
    let mut sections = Vec::new();
    for trace in if o.trace { &[false, true][..] } else { &[false][..] } {
        let Some(results) = children(o, *trace) else { return false };
        let section = if *trace { "per_layer" } else { "end_to_end" };
        println!("== perfbench run: seed {}, {} s per workload, {section} ==", o.seed, o.seconds);
        report::summary_table(&results).print();
        for (w, p) in &results {
            println!("{w}: attempted {} failed {} correct {}", p.attempted, p.failed, p.correct);
        }
        println!();
        sections.push((section, results));
    }
    if let Some(path) = &o.json {
        let borrowed: Vec<(&str, &[(String, Parsed)])> =
            sections.iter().map(|(name, results)| (*name, &results[..])).collect();
        if let Err(e) = std::fs::write(path, report::bench_report(o.seed, &borrowed).to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return false;
        }
    }
    sections.iter().all(|(_, results)| results.iter().all(|(_, p)| p.correct))
}

/// Run the suite twice back to back. Every end-to-end metric's two values
/// must agree within the metric's own bound, and every exact-count layer
/// metric must agree to the bit.
fn selfcheck(o: &Opts) -> bool {
    let mut offenders = Vec::new();
    for trace in [false, true] {
        let (Some(a), Some(b)) = (children(o, trace), children(o, trace)) else { return false };
        for ((w, a), (_, b)) in a.iter().zip(&b) {
            if !(a.correct && b.correct) {
                offenders.push(format!("{w}: a run was not correct"));
            }
            for def in if trace { &PER_LAYER[..] } else { &END_TO_END[..] } {
                let (Some(x), Some(y)) = (a.get(def.name), b.get(def.name)) else { continue };
                let differs = match def.bound {
                    Some(bound) => (x - y).abs() > bound * x.abs().min(y.abs()),
                    None => EXACT.contains(&def.name) && x.to_bits() != y.to_bits(),
                };
                if differs {
                    offenders.push(format!("{w}.{}: {x} vs {y}", def.name));
                }
            }
        }
    }
    if offenders.is_empty() {
        println!("perfbench selfcheck: two runs agree (seed {})", o.seed);
    } else {
        println!("perfbench selfcheck: {} metric(s) disagree:", offenders.len());
        offenders.iter().for_each(|line| println!("  {line}"));
    }
    offenders.is_empty()
}

/// `BENCHMARK.json`, generated from the registry.
pub fn manifest() -> String {
    let quoted = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| format!("    {{\"name\": {}, \"why\": {}}}", quoted(s.name), quoted(s.why)))
        .collect();
    let metric = |d: &crate::metrics::MetricDef| {
        let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quoted(d.name),
            quoted(d.unit),
            quoted(d.better)
        )
    };
    let list = |defs: &[crate::metrics::MetricDef]| {
        defs.iter().map(metric).collect::<Vec<_>>().join(",\n")
    };
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": \
         {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        list(&END_TO_END),
        list(&PER_LAYER)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_contract_invocation_and_the_hand_forms() {
        let o = parse(&args("--workload bulk_put --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("bulk_put"), 7, 3.0, true)
        );
        assert!(!parse(&args("--workload bulk_put --trace 0")).unwrap().trace);
        let o = parse(&args("--trace --smoke --canary corrupt")).unwrap();
        assert!(o.trace && o.smoke && o.canary_corrupt);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--canary melt")).is_err());
        assert!(parse(&args("--seconds")).is_err());
        assert!(parse(&args("--frobnicate")).is_err());
    }

    #[test]
    fn manifest_has_exactly_the_contract_keys_within_its_limits() {
        let m = manifest();
        for key in ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"] {
            assert_eq!(m.matches(&format!("\n  \"{key}\": ")).count(), 1, "{key}");
        }
        assert!(m.len() < 64 * 1024);
        assert!(SPECS.iter().all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!((2..=8).contains(&SPECS.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
