//! Figure 6: relative-error timeline under changing network conditions.
//!
//! 400 epochs of a Sum query while the failure model steps through
//! `Global(0)` → `Regional(0.3, 0)` at t=100 → `Global(0.3)` at t=200 →
//! `Global(0)` at t=300. The paper's observations to reproduce: TAG is
//! best in the lossless phases, SD in the lossy ones; both TD schemes
//! track the better of the two once converged; TD converges slower but
//! tighter than TD-Coarse (which oscillates near the optimum).

use crate::report::{f, Table};
use crate::Scale;
use std::collections::BTreeMap;
use td_netsim::rng::substream;
use td_workloads::scenario::figure6_timeline;
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, EpochView, TrialPool};
use tributary_delta::metrics::relative_error;
use tributary_delta::protocol::ScalarProtocol;
use tributary_delta::query::QuerySet;
use tributary_delta::session::{Scheme, SessionBuilder};

/// Per-epoch relative errors for every scheme.
#[derive(Clone, Debug)]
pub struct TimelineResult {
    /// `series[scheme][t]` = relative error at epoch `t`.
    pub series: BTreeMap<&'static str, Vec<f64>>,
    /// Epochs simulated.
    pub epochs: u64,
}

/// The four phases of the timeline, for summary statistics.
pub const PHASES: [(&str, u64, u64); 4] = [
    ("Global(0)", 0, 100),
    ("Regional(0.3,0)", 100, 200),
    ("Global(0.3)", 200, 300),
    ("Global(0) again", 300, 400),
];

/// Run the timeline (single seeded run, as the paper plots).
pub fn run(scale: Scale, seed: u64) -> TimelineResult {
    let net = Synthetic::sized(scale.sensors).build(seed);
    let model = figure6_timeline();
    let epochs = 400u64;
    let schemes = Scheme::all();
    let per_scheme = TrialPool::new().map(&schemes, |&scheme| {
        // Each scheme's substream is derived from the experiment seed, so
        // the series match a sequential regeneration.
        let mut rng = substream(seed, 0xF06 + 0x100 * scheme.index());
        let session = SessionBuilder::new(scheme).build(&net, &mut rng);
        // The timeline is the experiment: every epoch is plotted, so the
        // driver runs with zero warmup.
        let mut driver = Driver::new(session, 0);
        let mut errors = Vec::with_capacity(epochs as usize);
        driver.run(
            &Synthetic::sum_workload(&net, seed),
            &model,
            epochs,
            |set: &mut QuerySet<'_>, values| {
                set.register(ScalarProtocol::new(
                    td_aggregates::sum::Sum::default(),
                    values,
                ))
            },
            |view: EpochView<'_>, handle| {
                let actual: f64 = view.readings[1..].iter().sum::<u64>() as f64;
                errors.push(relative_error(*view.record.answers.get(handle), actual));
            },
            &mut rng,
        );
        errors
    });
    let mut series = BTreeMap::new();
    for (scheme, errors) in schemes.into_iter().zip(per_scheme) {
        series.insert(scheme.name(), errors);
    }
    TimelineResult { series, epochs }
}

/// Mean relative error of a scheme during the **settled half** of each
/// phase (skipping the first 50 epochs of the phase, where adaptation is
/// still converging).
pub fn phase_means(result: &TimelineResult) -> Table {
    let mut t = Table::new(
        "Figure 6: mean relative error per phase (settled half)",
        &["phase", "TAG", "SD", "TD-Coarse", "TD"],
    );
    for (name, start, end) in PHASES {
        let settled = start + (end - start) / 2;
        let mean = |scheme: &str| -> f64 {
            let s = &result.series[scheme];
            let window = &s[settled as usize..end as usize];
            window.iter().sum::<f64>() / window.len() as f64
        };
        t.row(vec![
            name.to_string(),
            f(mean("TAG")),
            f(mean("SD")),
            f(mean("TD-Coarse")),
            f(mean("TD")),
        ]);
    }
    t
}

/// The full per-epoch table (the CSV behind the figure).
pub fn full_table(result: &TimelineResult) -> Table {
    let mut t = Table::new(
        "Figure 6: relative error timeline",
        &["epoch", "TAG", "SD", "TD-Coarse", "TD"],
    );
    for e in 0..result.epochs as usize {
        t.row(vec![
            e.to_string(),
            f(result.series["TAG"][e]),
            f(result.series["SD"][e]),
            f(result.series["TD-Coarse"][e]),
            f(result.series["TD"][e]),
        ]);
    }
    t
}

/// Regenerate Figure 6: the full timeline (`results/fig06_timeline.csv`)
/// and the per-phase means (printed, `results/fig06_phase_means.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    println!(
        "Figure 6 — relative error timeline (sensors={})",
        scale.sensors
    );
    let result = run(scale, 0xF1606);
    full_table(&result).write_csv("fig06_timeline")?;
    phase_means(&result).publish("fig06_phase_means")?;
    println!(
        "\npaper shape: TAG best in lossless phases, SD best in lossy ones;\n\
         converged TD/TD-Coarse track the better of the two; TD converges\n\
         slower (~50 epochs) but settles tighter than TD-Coarse"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_cover_400_epochs() {
        assert_eq!(PHASES[0].1, 0);
        assert_eq!(PHASES[3].2, 400);
        for w in PHASES.windows(2) {
            assert_eq!(w[0].2, w[1].1);
        }
    }
}
