//! Drives the whole harness at smoke scale: all four workloads untraced
//! and traced, every check on, through the binary as `run.sh` starts it.

use std::path::{Path, PathBuf};
use std::process::Command;

use td_benchmark::catalog::{END_TO_END, PER_LAYER};
use td_benchmark::report::parse_json_line;

const WORKLOADS: [&str; 4] = ["tree_10k", "td_2500", "bundle_churn_600", "service_256"];

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out")
}

/// Run the binary; returns its last line's metrics after checking that
/// the run was correct.
fn run(workload: &str, trace: bool, seed: u64) -> Vec<(String, f64)> {
    let out = Command::new(env!("CARGO_BIN_EXE_td-benchmark"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--out")
        .arg(out_dir())
        .output()
        .expect("the harness starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("SMOKE"), "smoke output is marked as such");
    let last = stdout.lines().last().expect("a result line");
    let (correct, metrics) = parse_json_line(last).expect("the last line is the result object");
    assert!(correct, "{workload} trace={trace}: {last}");
    metrics
}

#[test]
fn every_workload_runs_untraced_and_traced() {
    for workload in WORKLOADS {
        let names = |metrics: &[(String, f64)]| -> Vec<String> {
            metrics.iter().map(|(n, _)| n.clone()).collect()
        };
        let untraced = run(workload, false, 3);
        assert_eq!(
            names(&untraced),
            END_TO_END.map(|e| e.name.to_string()),
            "{workload}: untraced runs print the end-to-end metrics"
        );
        for (name, value) in &untraced {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }
        let traced = run(workload, true, 3);
        assert_eq!(
            names(&traced),
            PER_LAYER.map(|e| e.name.to_string()),
            "{workload}: traced runs print the per-layer metrics"
        );
        let trace_file = out_dir().join(format!("trace-{workload}.jsonl"));
        let spans = std::fs::read_to_string(&trace_file).expect("the trace file is written");
        assert!(spans.lines().count() > 10, "{workload}: spans recorded");
        assert!(spans
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}

#[test]
fn deterministic_metrics_repeat_exactly_on_td_2500() {
    let deterministic = [
        "allocs_per_node_epoch",
        "alloc_bytes_per_node_epoch",
        "peak_heap_mb",
        "bytes_per_node_epoch",
        "rel_error_rms",
        "answer_coverage",
    ];
    let (a, b) = (run("td_2500", false, 11), run("td_2500", false, 11));
    for name in deterministic {
        let of = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == name).expect("printed").1;
        assert_eq!(
            of(&a).to_bits(),
            of(&b).to_bits(),
            "{name} repeats bit for bit"
        );
    }
}

/// `BENCHMARK.json` is written by hand from the catalog; keep them equal.
#[test]
fn benchmark_json_matches_the_catalog() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (section, entries) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let start = compact.find(&format!("\"{section}\":[")).expect(section);
        let body = &compact[start..start + compact[start..].find(']').expect("closed list")];
        assert_eq!(
            body.matches("{\"name\"").count(),
            entries.len(),
            "{section} length"
        );
        for e in entries {
            let bound = if section == "end_to_end" {
                format!(",\"bound\":{}", e.bound)
            } else {
                String::new()
            };
            let want = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"{bound}}}",
                e.name, e.unit, e.better
            );
            assert!(body.contains(&want), "{section} lacks {want}");
        }
    }
    for workload in WORKLOADS {
        assert!(compact.contains(&format!("{{\"name\":\"{workload}\",\"why\":")));
    }
}
