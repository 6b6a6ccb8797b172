//! §7.3's real-scenario numbers: RMS error of Sum on LabData.
//!
//! The paper reports TAG ≈ 0.5, SD ≈ 0.12, and TD/TD-Coarse ≈ 0.1 ("by
//! running synopsis diffusion over most of the nodes"). The shape to
//! reproduce: TAG ≫ SD under the lab's measured-style loss, with both TD
//! schemes at or slightly below SD.

use crate::report::{f, Table};
use crate::Scale;
use std::collections::BTreeMap;
use td_netsim::rng::substream;
use td_workloads::labdata::LabData;
use tributary_delta::driver::{Driver, TrialPool};
use tributary_delta::metrics::rms_error_series;
use tributary_delta::session::{Scheme, SessionBuilder};

/// RMS per scheme plus the paper's reported values.
#[derive(Clone, Debug)]
pub struct LabSumResult {
    /// Measured RMS per scheme.
    pub rms: BTreeMap<&'static str, f64>,
    /// Mean delta fraction for the TD schemes (how much of the network
    /// ran multi-path — the paper says "most").
    pub td_delta_fraction: f64,
}

/// Run the experiment. Every `(scheme, run)` pair is an independent
/// trial fanned across the pool; the per-run substream derivation is
/// unchanged, so the averages match a sequential regeneration.
pub fn run(scale: Scale, seed: u64) -> LabSumResult {
    let lab = LabData::new(seed);
    let net = lab.network();
    let model = lab.loss_model();
    let cells: Vec<(Scheme, u64)> = Scheme::all()
        .into_iter()
        .flat_map(|s| (0..scale.runs).map(move |run| (s, run)))
        .collect();
    let measured = TrialPool::new().map(seed, &cells, |_, &(scheme, run), _pool_rng| {
        let mut rng = substream(seed, 0x1ab5 + run * 131 + scheme.index() * 104_729);
        let session = SessionBuilder::new(scheme).build(net, &mut rng);
        let mut driver = Driver::new(session, scale.warmup);
        let result = driver.run_scalar(
            &td_aggregates::sum::Sum::default(),
            &lab,
            &model,
            scale.epochs,
            |readings| readings[1..].iter().sum::<u64>() as f64,
            &mut rng,
        );
        let rms = rms_error_series(&result.estimates, &result.actuals);
        let delta_frac = driver.session().delta_nodes().len() as f64 / net.num_sensors() as f64;
        (rms, delta_frac)
    });
    let mut rms = BTreeMap::new();
    let mut td_delta_fraction = 0.0;
    for (scheme, chunk) in Scheme::all()
        .iter()
        .zip(measured.chunks(scale.runs as usize))
    {
        let total: f64 = chunk.iter().map(|(r, _)| r).sum();
        rms.insert(scheme.name(), total / scale.runs as f64);
        if *scheme == Scheme::Td {
            td_delta_fraction = chunk.iter().map(|(_, d)| d).sum::<f64>() / scale.runs as f64;
        }
    }
    LabSumResult {
        rms,
        td_delta_fraction,
    }
}

/// Render against the paper's numbers.
pub fn table(result: &LabSumResult) -> Table {
    let paper: BTreeMap<&str, f64> = [("TAG", 0.5), ("SD", 0.12), ("TD-Coarse", 0.1), ("TD", 0.1)]
        .into_iter()
        .collect();
    let mut t = Table::new(
        "LabData Sum RMS (§7.3)",
        &["scheme", "measured_rms", "paper_rms"],
    );
    for scheme in ["TAG", "SD", "TD-Coarse", "TD"] {
        t.row(vec![
            scheme.to_string(),
            f(result.rms[scheme]),
            f(paper[scheme]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_paper() {
        let scale = Scale {
            runs: 1,
            epochs: 40,
            warmup: 60,
            sensors: 0,
            items_per_node: 0,
        };
        let res = run(scale, 21);
        // TAG much worse than SD; TD no worse than SD (small slack for a
        // single seeded run). The paper reports a 4x TAG/SD gap on the
        // real lab; our sparser reconstruction yields ~1.7x — same
        // ordering, weaker factor (documented in EXPERIMENTS.md).
        assert!(
            res.rms["TAG"] > 1.5 * res.rms["SD"],
            "TAG {} vs SD {}",
            res.rms["TAG"],
            res.rms["SD"]
        );
        assert!(
            res.rms["TD"] <= res.rms["SD"] * 1.25,
            "TD {} vs SD {}",
            res.rms["TD"],
            res.rms["SD"]
        );
        assert!(
            res.rms["TD-Coarse"] <= res.rms["SD"] * 1.25,
            "TD-Coarse {} vs SD {}",
            res.rms["TD-Coarse"],
            res.rms["SD"]
        );
    }
}

#[cfg(test)]
mod calibration {
    use super::*;
    use td_netsim::loss::DistanceLoss;

    /// Calibration probe (run with --ignored --nocapture --release):
    /// prints TAG/SD RMS for candidate LabData loss parameters so the
    /// constants in `LabData::loss_model` can be pinned to the paper's
    /// TAG ~ 0.5 / SD ~ 0.12 split.
    #[test]
    #[ignore]
    fn probe_loss_parameters() {
        let scale = Scale {
            runs: 2,
            epochs: 60,
            warmup: 160,
            sensors: 0,
            items_per_node: 0,
        };
        let lab = LabData::new(21);
        let base_positions = td_workloads::labdata::mote_positions();
        for range in [13.0f64] {
            let owned_net = td_netsim::network::Network::new(base_positions.clone(), range);
            let net = &owned_net;
            println!("--- range {range} ---");
            {
                // Topology context for interpreting the numbers.
                let rings = td_topology::rings::Rings::build(net);
                let mut recv = 0usize;
                let mut cnt = 0usize;
                for u in rings.connected_nodes() {
                    if u != td_netsim::node::BASE_STATION {
                        recv += rings.receivers(u).len();
                        cnt += 1;
                    }
                }
                println!(
                    "mean receivers/node: {:.2}, depth {}",
                    recv as f64 / cnt as f64,
                    rings.max_level()
                );
            }
            for (floor, ceil, steep) in [(0.05, 0.6, 3.0)] {
                {
                    use td_netsim::loss::LossModel;
                    let m = DistanceLoss::new(floor, ceil, steep);
                    let mut tot = 0.0;
                    let mut links = 0;
                    for u in net.node_ids() {
                        for &v in net.neighbors(u) {
                            tot += m.loss_rate(u, v, net, 0);
                            links += 1;
                        }
                    }
                    print!("mean link loss {:.3} | ", tot / links as f64);
                }
                let model = DistanceLoss::new(floor, ceil, steep);
                let mut rms = std::collections::BTreeMap::new();
                let mut pcts = std::collections::BTreeMap::new();
                for scheme in [Scheme::Tag, Scheme::Sd, Scheme::TdCoarse, Scheme::Td] {
                    let mut total = 0.0;
                    for run in 0..scale.runs {
                        let mut rng = substream(99, 0xCA1 + run * 7 + scheme.index() * 104_729);
                        let session = SessionBuilder::new(scheme).build(net, &mut rng);
                        let mut driver = Driver::new(session, scale.warmup);
                        let mut pct_acc = 0.0;
                        let mut est = Vec::new();
                        let mut act = Vec::new();
                        driver.run(
                            &lab,
                            &model,
                            scale.epochs,
                            |set: &mut tributary_delta::query::QuerySet<'_>, values| {
                                set.register(tributary_delta::protocol::ScalarProtocol::new(
                                    td_aggregates::sum::Sum::default(),
                                    values,
                                ))
                            },
                            |view: tributary_delta::driver::EpochView<'_>, handle| {
                                if view.measured {
                                    est.push(*view.record.answers.get(handle));
                                    act.push(view.readings[1..].iter().sum::<u64>() as f64);
                                    pct_acc += view.record.pct_contributing;
                                }
                            },
                            &mut rng,
                        );
                        total += rms_error_series(&est, &act);
                        *pcts.entry(scheme.name()).or_insert(0.0) +=
                            pct_acc / scale.epochs as f64 / scale.runs as f64;
                    }
                    rms.insert(scheme.name(), total / scale.runs as f64);
                }
                println!(
                "floor {floor} ceil {ceil} steep {steep}: TAG {:.3} SD {:.3} TDC {:.3} TD {:.3} | pct TAG {:.2} SD {:.2} TDC {:.2} TD {:.2}",
                rms["TAG"], rms["SD"], rms["TD-Coarse"], rms["TD"],
                pcts["TAG"], pcts["SD"], pcts["TD-Coarse"], pcts["TD"]
            );
            }
        }
    }
}
