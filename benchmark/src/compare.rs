//! `compare A B`: two sets of run outputs side by side.
//!
//! A set is a directory of files named `<workload>.<anything>`, each the
//! standard output of one untraced run (what `repeat.sh` writes). For
//! every workload and end-to-end metric the table gives each side's
//! median and quartiles, how much worse B's median is than A's, the
//! metric's bound, and a verdict:
//!
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `unresolved` — the quartile spread of a side is wider than the
//!   bound, so the runs cannot tell (unless every run of B reads better
//!   than every run of A);
//! * `ok` — otherwise.

use std::collections::BTreeMap;
use std::path::Path;

use crate::catalog::{Entry, END_TO_END};
use crate::report::parse_json_line;
use crate::stats::quartiles;

type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(dir: &Path) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(workload) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.split('.').next())
        else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some((correct, metrics)) = text.lines().last().and_then(parse_json_line) else {
            return Err(format!("{}: no result line", path.display()));
        };
        if !correct {
            return Err(format!("{}: the run was not correct", path.display()));
        }
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            by_metric.entry(name).or_default().push(value);
        }
    }
    Ok(runs)
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(entry: &Entry, a: f64, b: f64) -> f64 {
    match entry.better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

fn all_better(entry: &Entry, a: &[f64], b: &[f64]) -> bool {
    let fold = |v: &[f64], f: fn(f64, f64) -> f64, init| v.iter().copied().fold(init, f);
    match entry.better {
        "higher" => fold(b, f64::min, f64::INFINITY) > fold(a, f64::max, f64::NEG_INFINITY),
        _ => fold(b, f64::max, f64::NEG_INFINITY) < fold(a, f64::min, f64::INFINITY),
    }
}

/// Compare the run sets in `a` and `b`; returns the table and whether
/// every row is `ok`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (runs_a, runs_b) = (load(a)?, load(b)?);
    let mut out = format!(
        "{:<18} {:<27} {:>12} {:>24} {:>12} {:>24} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "worse", "bound"
    );
    let mut all_ok = true;
    for (workload, metrics_a) in &runs_a {
        let Some(metrics_b) = runs_b.get(workload) else {
            return Err(format!("{workload}: no runs in {}", b.display()));
        };
        for entry in &END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(entry.name), metrics_b.get(entry.name))
            else {
                return Err(format!("{workload}: {} missing from a run", entry.name));
            };
            if va.len() < 2 || vb.len() < 2 {
                return Err(format!(
                    "{workload}: quartiles need at least two runs a side"
                ));
            }
            let (mut sa, mut sb) = (va.clone(), vb.clone());
            let (qa, qb) = (quartiles(&mut sa), quartiles(&mut sb));
            let worse = worsening(entry, qa[1], qb[1]);
            let spread = ((qa[2] - qa[0]) / qa[1]).max((qb[2] - qb[0]) / qb[1]);
            let verdict = if worse > entry.bound {
                "regressed"
            } else if spread > entry.bound && !all_better(entry, va, vb) {
                "unresolved"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            out.push_str(&format!(
                "{:<18} {:<27} {:>12.6} {:>24} {:>12.6} {:>24} {:>+7.2}% {:>5.1}%  {verdict} (spread {:.2}%)\n",
                workload,
                entry.name,
                qa[1],
                format!("{:.6}..{:.6}", qa[0], qa[2]),
                qb[1],
                format!("{:.6}..{:.6}", qb[0], qb[2]),
                worse * 100.0,
                entry.bound * 100.0,
                spread * 100.0
            ));
        }
    }
    Ok((out, all_ok))
}
