//! `davix-simfuzz` — run seeded whole-federation fault-injection scenarios.
//!
//! ```text
//! davix-simfuzz --seed 42                        # one seed
//! davix-simfuzz --seeds-file crates/sim-fuzz/seeds.txt --fresh 4 --base 12345
//! davix-simfuzz --seed 7 --trace out.jsonl       # dump the virtual-time event trace
//! ```
//!
//! Every failure prints `FAIL seed=<u64> plan=<fingerprint> ...` — feeding
//! that seed back via `--seed` replays the run bit-identically.

use sim_fuzz::{run_one, FuzzConfig};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;

struct Args {
    seeds: Vec<u64>,
    seeds_file: Option<String>,
    fresh: usize,
    base: Option<u64>,
    ops: Option<usize>,
    trace: Option<String>,
    github_annotations: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: davix-simfuzz [--seed N]... [--seeds-file F] [--fresh N [--base B]]\n\
         \x20                    [--ops N] [--trace PATH] [--github-annotations]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seeds: Vec::new(),
        seeds_file: None,
        fresh: 0,
        base: None,
        ops: None,
        trace: None,
        github_annotations: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--seed" => match val("--seed").parse() {
                Ok(s) => args.seeds.push(s),
                Err(_) => usage(),
            },
            "--seeds-file" => args.seeds_file = Some(val("--seeds-file")),
            "--fresh" => args.fresh = val("--fresh").parse().unwrap_or_else(|_| usage()),
            "--base" => args.base = Some(val("--base").parse().unwrap_or_else(|_| usage())),
            "--ops" => args.ops = Some(val("--ops").parse().unwrap_or_else(|_| usage())),
            "--trace" => args.trace = Some(val("--trace")),
            "--github-annotations" => args.github_annotations = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    args
}

fn read_seeds_file(path: &str) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read seeds file {path}: {e}");
        std::process::exit(2);
    });
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.parse().unwrap_or_else(|_| {
                eprintln!("bad seed line in {path}: {l:?}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// Derive `n` fresh seeds from a base (e.g. the CI run id), through the same
/// splittable stream construction the engine uses, so CI explores new
/// schedules every run while remaining reproducible from the printed seeds.
fn fresh_seeds(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| netsim::SplitRng::at(base, 0x5eed, i).next_u64()).collect()
}

fn write_trace(path: &str, trace: &[(std::time::Duration, String)]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (t, ev) in trace {
        writeln!(f, "{{\"t_ns\":{},\"event\":{:?}}}", t.as_nanos(), ev)?;
    }
    f.flush()
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut seeds = args.seeds.clone();
    if let Some(f) = &args.seeds_file {
        seeds.extend(read_seeds_file(f));
    }
    if args.fresh > 0 {
        let base = args.base.unwrap_or_else(|| {
            // The ONE sanctioned wall-clock read in the workspace's
            // determinism story: entropy for fresh seeds at the CLI entry
            // point. Everything downstream is a pure function of the seed.
            // davix-lint: allow(determinism) — fresh-seed entropy at the CLI seed entry point
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0xdeadbeef)
        });
        seeds.extend(fresh_seeds(base, args.fresh));
    }
    if seeds.is_empty() {
        eprintln!("no seeds given (use --seed, --seeds-file or --fresh)");
        usage();
    }

    let mut failures = 0usize;
    for seed in seeds {
        let mut cfg = FuzzConfig { seed, ..Default::default() };
        if let Some(ops) = args.ops {
            cfg.ops = ops;
        }
        let fingerprint = cfg.plan.fingerprint(seed);
        match catch_unwind(AssertUnwindSafe(|| run_one(&cfg))) {
            Ok(report) => {
                if report.passed() {
                    println!("ok   {}", report.summary());
                } else {
                    failures += 1;
                    for v in &report.violations {
                        println!(
                            "FAIL seed={} plan={:016x} invariant={} — {}",
                            report.seed, report.fingerprint, v.invariant, v.detail
                        );
                        if args.github_annotations {
                            println!(
                                "::error title=sim-fuzz failure::seed={} plan={:016x} \
                                 invariant={} — {} (repro: davix-simfuzz --seed {})",
                                report.seed, report.fingerprint, v.invariant, v.detail, report.seed
                            );
                        }
                    }
                    println!("     repro: davix-simfuzz --seed {}", report.seed);
                    if let Some(path) = &args.trace {
                        match write_trace(path, &report.trace) {
                            Ok(()) => {
                                println!("     trace: {path} ({} events)", report.trace.len())
                            }
                            Err(e) => eprintln!("cannot write trace {path}: {e}"),
                        }
                    }
                }
            }
            Err(_) => {
                failures += 1;
                println!(
                    "FAIL seed={seed} plan={fingerprint:016x} invariant=panic — scenario panicked"
                );
                if args.github_annotations {
                    println!(
                        "::error title=sim-fuzz panic::seed={seed} plan={fingerprint:016x} \
                         (repro: davix-simfuzz --seed {seed})"
                    );
                }
                println!("     repro: davix-simfuzz --seed {seed}");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} failing seed(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
