//! The correlated-failure experiment (extension): accuracy and cost
//! under **burst loss × node churn**, across all four schemes.
//!
//! Every cell runs a drifting `SyntheticSum` stream at the *same*
//! long-run average loss (20%), but shapes the channel differently:
//! `burst_len = 1` is (rate-matched, near-i.i.d.) Bernoulli-style
//! noise, longer bursts concentrate the same loss into multi-epoch
//! Gilbert–Elliott blackouts ([`GilbertElliott::bursty`]) — the failure
//! shape real radios produce and i.i.d. sweeps can't. On top of that, a
//! seeded [`ChurnSchedule`] removes (and returns) nodes mid-run; the
//! session routes around each event as a bounded structural delta, so
//! the sweep also exercises — and reports — the plan cache's
//! patch-vs-recompile behaviour (`plan_patches` / `plan_compiles`).
//!
//! Expected shape: at equal average loss, longer bursts hurt every
//! scheme (whole windows of a subtree vanish at once, beyond what
//! multi-path redundancy inside one epoch can hide), with TAG worst —
//! a bursty uplink silences its whole subtree for the burst's length —
//! and adaptation (TD/TD-Coarse) recovering between bursts. Churn adds
//! a floor: an absent node's readings are unrecoverable, so coverage
//! (reported per cell) drops by roughly the stationary absence, while
//! re-routing keeps the *present* nodes flowing. The patch counters
//! should show churn absorbed almost entirely by `EpochPlan::patch`
//! for the ring-based schemes (TAG recompiles its label-free plan).
//!
//! [`GilbertElliott::bursty`]: td_netsim::loss::GilbertElliott::bursty
//! [`ChurnSchedule`]: td_netsim::churn::ChurnSchedule

use crate::report::{f, Table};
use crate::Scale;
use td_netsim::churn::ChurnSchedule;
use td_netsim::loss::GilbertElliott;
use td_netsim::rng::derive_seed;
use td_stream::{EpochMerge, StreamQuery, StreamSession, WindowSpec};
use td_workloads::synthetic::Synthetic;
use td_workloads::workload::DriftingStream;
use tributary_delta::driver::{Driver, TrialPool, Workload};
use tributary_delta::metrics::rms_error_series;
use tributary_delta::session::{Scheme, SessionBuilder};

/// The long-run average loss every cell is rate-matched to.
pub const MEAN_LOSS: f64 = 0.2;
/// Drop probability inside a Bad-state burst.
pub const BURST_P_BAD: f64 = 0.9;
/// Mean downtime of a churned node, in epochs.
pub const MEAN_DOWNTIME: f64 = 20.0;

/// The default burst-length axis (mean Bad-state sojourn, epochs);
/// 1 ≈ rate-matched per-epoch noise, 16 = multi-epoch blackouts.
pub const BURSTS: [f64; 3] = [1.0, 4.0, 16.0];
/// The default churn axis (per-node per-epoch leave probability).
pub const CHURN_RATES: [f64; 3] = [0.0, 0.002, 0.01];

/// One `(scheme, burst_len, churn_rate)` cell of the sweep.
#[derive(Clone, Debug)]
pub struct ChurnRow {
    /// Scheme display name.
    pub scheme: &'static str,
    /// Mean burst length in epochs (1 ≈ uncorrelated).
    pub burst_len: f64,
    /// Per-node per-epoch leave probability.
    pub churn_rate: f64,
    /// RMS relative error of per-epoch answers vs the all-node truth.
    pub rms: f64,
    /// Mean payload bytes per epoch.
    pub bytes_per_epoch: f64,
    /// Mean contributor coverage across panes.
    pub mean_coverage: f64,
    /// Churn departures over the measured run.
    pub nodes_left: u64,
    /// Churn arrivals over the measured run.
    pub nodes_joined: u64,
    /// Epoch-plan compiles the session's cache performed.
    pub plan_compiles: u64,
    /// In-place epoch-plan patches (adaptation relabels + churn
    /// reroutes absorbed without recompiling).
    pub plan_patches: u64,
}

/// One cell: a windowed Sum stream under burst loss and churn.
fn one_cell(scheme: Scheme, burst_len: f64, churn_rate: f64, scale: Scale, seed: u64) -> ChurnRow {
    let net = Synthetic::sized(scale.sensors).build(seed ^ 0xC193);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, seed ^ 0x5EED), seed ^ 2);
    let model = GilbertElliott::bursty(
        MEAN_LOSS,
        burst_len,
        BURST_P_BAD,
        derive_seed(seed, 0xB0057 ^ burst_len.to_bits()),
    );
    let churn = if churn_rate > 0.0 {
        ChurnSchedule::new(
            net.len(),
            churn_rate,
            MEAN_DOWNTIME,
            derive_seed(seed, 0xC40A ^ churn_rate.to_bits()),
        )
    } else {
        ChurnSchedule::disabled(net.len())
    };

    let mut topo_rng = td_netsim::rng::substream(seed, 0xA0 + scheme.index());
    let session = SessionBuilder::new(scheme).build(&net, &mut topo_rng);
    let mut stream = StreamSession::new(Driver::new(session, scale.warmup));
    let handle = stream.register(
        StreamQuery::scalar(td_aggregates::sum::Sum::default())
            .window(WindowSpec::tumbling(1), EpochMerge::Add),
    )[0];
    let mut rng = td_netsim::rng::substream(seed, 0xB0 + scheme.index());
    let reports = stream.run_under_churn(&workload, &model, &churn, scale.epochs, &mut rng);

    let (estimates, actuals): (Vec<f64>, Vec<f64>) = reports
        .iter()
        .filter(|r| r.handle == handle)
        .map(|r| {
            let truth = workload.readings(r.start_epoch)[1..].iter().sum::<u64>() as f64;
            (r.answer, truth)
        })
        .unzip();
    let stats = stream.session().stats();
    let plan = stream.session().plan_stats();
    let epochs_run = stream.stream_stats().epochs_run.max(1);
    ChurnRow {
        scheme: scheme.name(),
        burst_len,
        churn_rate,
        rms: rms_error_series(&estimates, &actuals),
        bytes_per_epoch: stats.total_bytes() as f64 / epochs_run as f64,
        mean_coverage: stream.stream_stats().mean_pane_coverage(),
        nodes_left: stats.nodes_left(),
        nodes_joined: stats.nodes_joined(),
        plan_compiles: plan.compiles,
        plan_patches: plan.patches,
    }
}

/// Run the sweep over explicit axes, one [`TrialPool`] job per
/// `(scheme, burst, churn)` cell.
pub fn run_grid(bursts: &[f64], churn_rates: &[f64], scale: Scale, seed: u64) -> Vec<ChurnRow> {
    let mut cells = Vec::new();
    for &burst in bursts {
        for &rate in churn_rates {
            for scheme in Scheme::all() {
                cells.push((scheme, burst, rate));
            }
        }
    }
    TrialPool::new().map(&cells, |&(scheme, burst, rate)| {
        one_cell(scheme, burst, rate, scale, seed)
    })
}

/// The full default sweep (`BURSTS` × `CHURN_RATES` × all schemes).
pub fn run(scale: Scale, seed: u64) -> Vec<ChurnRow> {
    run_grid(&BURSTS, &CHURN_RATES, scale, seed)
}

/// Render the sweep as a report table (`results/churn.csv`).
pub fn table(rows: &[ChurnRow]) -> Table {
    let mut t = Table::new(
        "Correlated failures: RMS + cost vs burst length and churn rate",
        &[
            "scheme",
            "burst_len",
            "churn_rate",
            "rms",
            "bytes_per_epoch",
            "mean_coverage",
            "nodes_left",
            "nodes_joined",
            "plan_compiles",
            "plan_patches",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            format!("{:.0}", r.burst_len),
            format!("{}", r.churn_rate),
            f(r.rms),
            format!("{:.1}", r.bytes_per_epoch),
            f(r.mean_coverage),
            r.nodes_left.to_string(),
            r.nodes_joined.to_string(),
            r.plan_compiles.to_string(),
            r.plan_patches.to_string(),
        ]);
    }
    t
}

/// Regenerate the correlated-failure sweep (`results/churn.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    table(&run(scale, 0xC4012)).publish("churn")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_has_sane_shape() {
        let scale = Scale {
            runs: 1,
            epochs: 30,
            warmup: 10,
            sensors: 120,
            items_per_node: 0,
        };
        let rows = run_grid(&[1.0, 8.0], &[0.0, 0.01], scale, 0xC4A2);
        assert_eq!(rows.len(), Scheme::all().len() * 4);
        for r in &rows {
            assert!(r.rms.is_finite() && r.rms >= 0.0, "{r:?}");
            assert!(r.bytes_per_epoch > 0.0);
            assert!(r.mean_coverage > 0.0 && r.mean_coverage <= 1.0);
            if r.churn_rate == 0.0 {
                assert_eq!(r.nodes_left, 0, "churn fired in a churn-free cell");
            }
        }
        // Churn actually fired somewhere, and the ring-based schemes
        // absorbed it (plus adaptation) by patching, not recompiling.
        assert!(rows.iter().any(|r| r.churn_rate > 0.0 && r.nodes_left > 0));
        for r in rows.iter().filter(|r| r.scheme != "TAG") {
            if r.nodes_left > 0 {
                assert!(r.plan_patches > 0, "{}: churn never patched", r.scheme);
                assert!(
                    r.plan_patches > r.plan_compiles,
                    "{}: rebuilt more than patched: {r:?}",
                    r.scheme
                );
            }
        }
    }
}
