//! # td-bench — regenerators for every table and figure in §7
//!
//! Each experiment lives in [`experiments`] as one module with one
//! `regenerate(scale)`: it prints its results as aligned tables, writes
//! them as CSV under `results/` and runs its checks, at paper scale or
//! at smoke scale (`TD_SCALE=smoke`). Each `src/bin` binary is a
//! one-line `main` over one regenerator, at its own default scale;
//! `run_all` calls every regenerator in turn at one scale (24 CSVs; at
//! smoke scale they are committed). With `TD_SCALE` set, `run_all`
//! writes exactly what the binaries write. With it unset the defaults
//! differ: `bench_churn`, `fig09d_freq_windowed`, `fig_quantiles` and
//! `stream_windows` default to smoke scale, while `run_all` runs them,
//! like every other regenerator, at paper scale.
//! Performance is measured by the standalone harness under
//! `benchmark/`, not here.
//!
//! | Regenerator | Paper artifact |
//! |---|---|
//! | `fig02_count_rms` | Figure 2 (Count RMS, loss 0–0.4) |
//! | `fig04_delta_evolution` | Figure 4 (delta region under Regional loss) |
//! | `fig05_sum_rms` | Figures 5(a)/5(b) (Sum RMS, Global/Regional) |
//! | `fig06_timeline` | Figure 6(a–c) (relative error timeline) |
//! | `fig07_domination` | Figure 7(a)/(b) (domination factor sweeps) |
//! | `fig08_freq_load` | Figure 8 (frequent-items loads) |
//! | `fig09_freq_loss` | Figure 9(a)/(b) (false negatives vs loss) |
//! | `tab01_comparison` | Table 1 (quantitative backing) |
//! | `tab02_domination` | Table 2 (example 2-dominating tree) |
//! | `labdata_sum` | §7.3's LabData RMS numbers |
//! | `ablations` | exact vs in-band signal, tree construction, damping (extension) |
//! | `fig09d_freq_windowed` | windowed false negatives beside Figure 9 (extension) |
//! | `fig_quantiles` | quantile rank error vs bytes (extension) |
//! | `stream_windows` | windowed-Sum RMS vs window length and hop (extension) |
//! | `bench_churn` | burst loss × node churn sweep (extension) |
//! | `telemetry_snapshot` | telemetry smoke and exporter (not a paper artifact) |

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

/// How big to run an experiment.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Independent repetitions (different seeds) averaged per point.
    pub runs: u64,
    /// Measured epochs per run (after warm-up).
    pub epochs: u64,
    /// Warm-up epochs before measurement ("data collection begins only
    /// after the aggregation topologies become stable", §7.1).
    pub warmup: u64,
    /// Sensors in the Synthetic deployment.
    pub sensors: usize,
    /// Items per node in frequent-items workloads.
    pub items_per_node: usize,
}

impl Scale {
    /// The paper's configuration (§7.1): 600 sensors, 100 measured
    /// epochs, adaptation every 10 epochs (warm-up lets the delta settle).
    pub fn paper() -> Self {
        Scale {
            runs: 3,
            epochs: 100,
            warmup: 100,
            sensors: 600,
            items_per_node: 500,
        }
    }

    /// A fast configuration for smoke regeneration in CI.
    pub fn smoke() -> Self {
        Scale {
            runs: 1,
            epochs: 30,
            warmup: 40,
            sensors: 150,
            items_per_node: 120,
        }
    }

    /// Scale selected by the `TD_SCALE` environment variable
    /// (`paper` | `smoke`; unset falls back to `default`).
    ///
    /// An unrecognized value is almost always a typo that would silently
    /// run a multi-minute paper-scale job (or publish smoke-scale
    /// numbers as if they were full-scale), so it is reported on stderr
    /// before falling back.
    pub fn from_env_or(default: Scale) -> Scale {
        Scale::from_setting(std::env::var("TD_SCALE").ok().as_deref(), default)
    }

    /// [`Scale::from_env_or`] with the setting passed in (`None` = the
    /// variable is unset) — the pure core, separated so it can be tested
    /// without mutating process environment (a data race under the
    /// parallel test harness).
    fn from_setting(setting: Option<&str>, default: Scale) -> Scale {
        match setting {
            Some("smoke") => Scale::smoke(),
            Some("paper") => Scale::paper(),
            Some(other) => {
                eprintln!(
                    "warning: unrecognized TD_SCALE={other:?} (expected \"smoke\" or \"paper\"); \
                     falling back to the default scale (sensors={}, epochs={}, runs={})",
                    default.sensors, default.epochs, default.runs
                );
                default
            }
            None => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        let p = Scale::paper();
        assert_eq!(p.sensors, 600);
        assert_eq!(p.epochs, 100);
        let s = Scale::smoke();
        assert!(s.sensors < p.sensors);
    }

    #[test]
    fn scale_setting_selects_and_survives_typos() {
        let default = Scale::smoke();
        assert_eq!(
            Scale::from_setting(Some("paper"), default).sensors,
            Scale::paper().sensors
        );
        assert_eq!(
            Scale::from_setting(Some("smoke"), Scale::paper()).sensors,
            Scale::smoke().sensors
        );
        // A typo falls back to the default (and warns on stderr).
        assert_eq!(
            Scale::from_setting(Some("papr"), Scale::paper()).sensors,
            Scale::paper().sensors
        );
        assert_eq!(Scale::from_setting(None, default).sensors, default.sensors);
    }
}
