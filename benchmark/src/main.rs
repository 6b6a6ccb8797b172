//! `td-benchmark`: run one workload (or all) untraced or traced, or
//! compare two sets of runs. See `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use td_benchmark::calib::Calibrator;
use td_benchmark::catalog::{END_TO_END, PER_LAYER};
use td_benchmark::report::{self, Metric};
use td_benchmark::run::{self, RunCfg};
use td_benchmark::scenario::{Spec, ALL};
use td_benchmark::{compare, traced};

/// `run_seconds` of `BENCHMARK.json`: how long a run measures when
/// `--seconds` is not given.
const RUN_SECONDS: u64 = 20;

const USAGE: &str = "\
usage: td-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--out DIR]
       td-benchmark compare DIR_A DIR_B
workloads: tree_10k td_2500 bundle_churn_600 service_256";

struct Args {
    workloads: Vec<Spec>,
    cfg: RunCfg,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: ALL.to_vec(),
        cfg: RunCfg {
            seed: 1,
            seconds: RUN_SECONDS as f64,
            smoke: false,
        },
        trace: false,
        out: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    let spec = Spec::by_name(&name).ok_or(format!("unknown workload {name}"))?;
                    parsed.workloads = vec![spec];
                }
            }
            "--seed" => {
                parsed.cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                parsed.cfg.seconds = seconds;
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it, or bare.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => parsed.cfg.smoke = true,
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Run one workload and print it; returns whether it was correct.
fn run_one(spec: Spec, args: &Args, cal: &mut Calibrator) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        spec.name(),
        args.cfg.seed,
        args.cfg.seconds,
        u8::from(args.trace),
        if args.cfg.smoke {
            "  SMOKE: shortened run, numbers are not comparable"
        } else {
            ""
        }
    );
    let (metrics, attempted, failed, violations): (Vec<Metric>, u64, u64, Vec<String>) = if args
        .trace
    {
        let t = traced::run(spec, args.cfg, cal, &args.out);
        for line in &t.ladder {
            println!("  {line}");
        }
        let metrics = PER_LAYER
            .iter()
            .map(|&entry| Metric {
                entry,
                value: t.metrics.get(entry.name).copied().unwrap_or(0.0),
            })
            .collect();
        (metrics, t.attempted, t.failed, t.violations)
    } else {
        let o = run::run(spec, args.cfg, cal);
        let values = o.metrics.values();
        let d = &o.diag;
        println!(
                "  measured {} epochs in {} blocks; {} latency samples; answer digest {:016x} (prefix {:016x})",
                d.epochs, d.blocks, d.latency_samples, d.answer_digest, d.prefix_digest
            );
        println!(
                "  uncalibrated: {:.1} node-epochs/s, latency p50 {:.4} ms, set-up {:.4} s; calibrated latency p90 {:.4} ms p99 {:.4} ms",
                d.raw_node_epochs_per_s,
                d.raw_report_latency_ms_p50,
                d.raw_setup_s,
                d.report_latency_ms_p90,
                d.report_latency_ms_p99
            );
        let metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&entry, value)| Metric { entry, value })
            .collect();
        (metrics, o.attempted, o.failed, o.violations)
    };
    print!("{}", report::table(&metrics));
    println!("  operations attempted {attempted} failed {failed}");
    for v in &violations {
        println!("  GATE: {v}");
    }
    let correct = failed == 0 && violations.is_empty();
    println!(
        "{}",
        report::json_line(correct, attempted.max(1), failed, &metrics)
    );
    correct
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::compare(a.as_ref(), b.as_ref()) {
            Ok((table, all_ok)) => {
                print!("{table}");
                ExitCode::from(u8::from(!all_ok))
            }
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut cal = Calibrator::new(args.cfg.smoke);
    let mut correct = true;
    for &spec in &args.workloads {
        correct &= run_one(spec, &args, &mut cal);
    }
    ExitCode::from(u8::from(!correct))
}
