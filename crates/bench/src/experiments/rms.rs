//! Figures 2 and 5: RMS error of Count/Sum versus message loss rate.
//!
//! Figure 2 is the 0–0.4 prefix of Figure 5(a) computed for Count;
//! Figure 5(a) sweeps `Global(p)` for Sum over `p ∈ [0, 1]` and Figure
//! 5(b) sweeps `Regional(p, 0.05)`. Four schemes everywhere: TAG, SD,
//! TD-Coarse, TD. Shape targets (EXPERIMENTS.md): TAG best at `p ≈ 0`,
//! crossing below SD at small `p`; SD flat near its ~12% approximation
//! error; TD/TD-Coarse at or below the best of the two at every rate,
//! with up to ~3× error reduction at realistic rates.

use crate::report::{f, Table};
use crate::Scale;
use std::collections::BTreeMap;
use td_netsim::loss::LossModel;
use td_netsim::rng::substream;
use td_workloads::scenario;
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, TrialPool};
use tributary_delta::metrics::rms_error_series;
use tributary_delta::session::{Scheme, SessionBuilder};

/// Which aggregate the sweep runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepAggregate {
    /// Count (Figure 2).
    Count,
    /// Sum (Figure 5).
    Sum,
}

/// Which failure model the sweep applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepFailure {
    /// `Global(p)`.
    Global,
    /// `Regional(p, 0.05)` over the paper's quadrant.
    Regional,
}

/// One sweep point: loss rate and per-scheme RMS error.
#[derive(Clone, Debug)]
pub struct RmsPoint {
    /// The swept loss rate `p`.
    pub p: f64,
    /// RMS error per scheme name.
    pub rms: BTreeMap<&'static str, f64>,
}

/// RMS error of one scheme over `scale.epochs` measured epochs, averaged
/// over `scale.runs` seeds. Each run is one [`Driver`] pass: the driver
/// owns the warmup/measure loop the experiments used to hand-roll.
fn rms_one<M: LossModel>(
    agg: SweepAggregate,
    scheme: Scheme,
    model: &M,
    scale: Scale,
    seed: u64,
) -> f64 {
    let mut total = 0.0;
    for run in 0..scale.runs {
        let net = Synthetic::sized(scale.sensors).build(seed ^ (run + 1));
        let mut topo_rng = substream(seed, 0xA0 + run);
        let session = SessionBuilder::new(scheme).build(&net, &mut topo_rng);
        let mut driver = Driver::new(session, scale.warmup);
        let mut rng = substream(seed, 0xB0 + run);
        let result = match agg {
            SweepAggregate::Count => driver.run_scalar(
                // Per-run salt: runs sample independent sketch draws.
                &td_aggregates::count::Count::default().with_salt(seed ^ (run * 7 + 1)),
                &Synthetic::count_workload(&net),
                model,
                scale.epochs,
                |_| net.num_sensors() as f64,
                &mut rng,
            ),
            SweepAggregate::Sum => driver.run_scalar(
                &td_aggregates::sum::Sum::default(),
                &Synthetic::sum_workload(&net, seed ^ run),
                model,
                scale.epochs,
                |readings| readings[1..].iter().sum::<u64>() as f64,
                &mut rng,
            ),
        };
        total += rms_error_series(&result.estimates, &result.actuals);
    }
    total / scale.runs as f64
}

/// Run the sweep across loss rates and all four schemes. Every
/// `(loss rate, scheme)` cell is an independent trial fanned across one
/// flat [`TrialPool`], so the sweep load-balances instead of
/// serializing all four schemes behind each loss rate.
pub fn sweep(
    agg: SweepAggregate,
    failure: SweepFailure,
    ps: &[f64],
    scale: Scale,
    seed: u64,
) -> Vec<RmsPoint> {
    let cells: Vec<(f64, Scheme)> = ps
        .iter()
        .flat_map(|&p| Scheme::all().into_iter().map(move |s| (p, s)))
        .collect();
    let values = TrialPool::new().map(seed, &cells, |_, &(p, scheme), _pool_rng| {
        let spec = Synthetic::sized(scale.sensors);
        match failure {
            SweepFailure::Global => rms_one(agg, scheme, &scenario::global(p), scale, seed),
            SweepFailure::Regional => rms_one(
                agg,
                scheme,
                &scenario::regional_for(spec.width, spec.height, p, 0.05),
                scale,
                seed,
            ),
        }
    });
    ps.iter()
        .zip(values.chunks(Scheme::all().len()))
        .map(|(&p, chunk)| {
            let mut rms = BTreeMap::new();
            for (scheme, &value) in Scheme::all().into_iter().zip(chunk) {
                rms.insert(scheme.name(), value);
            }
            RmsPoint { p, rms }
        })
        .collect()
}

/// Render a sweep as a report table.
pub fn table(title: &str, points: &[RmsPoint]) -> Table {
    let mut t = Table::new(title, &["loss_rate", "TAG", "SD", "TD-Coarse", "TD"]);
    for pt in points {
        t.row(vec![
            format!("{:.3}", pt.p),
            f(pt.rms["TAG"]),
            f(pt.rms["SD"]),
            f(pt.rms["TD-Coarse"]),
            f(pt.rms["TD"]),
        ]);
    }
    t
}

/// Figure 2: Count under `Global(p)`, `p ∈ {0, 0.05, …, 0.4}`.
pub fn figure2(scale: Scale, seed: u64) -> Vec<RmsPoint> {
    let ps: Vec<f64> = (0..=8).map(|i| i as f64 * 0.05).collect();
    sweep(
        SweepAggregate::Count,
        SweepFailure::Global,
        &ps,
        scale,
        seed,
    )
}

/// Figure 5(a): Sum under `Global(p)`, `p ∈ {0, 0.125, …, 1.0}`.
pub fn figure5a(scale: Scale, seed: u64) -> Vec<RmsPoint> {
    let ps: Vec<f64> = (0..=8).map(|i| i as f64 * 0.125).collect();
    sweep(SweepAggregate::Sum, SweepFailure::Global, &ps, scale, seed)
}

/// Figure 5(b): Sum under `Regional(p, 0.05)`.
pub fn figure5b(scale: Scale, seed: u64) -> Vec<RmsPoint> {
    let ps: Vec<f64> = (0..=8).map(|i| i as f64 * 0.125).collect();
    sweep(
        SweepAggregate::Sum,
        SweepFailure::Regional,
        &ps,
        scale,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny smoke sweep checking the headline shape: at p = 0 TAG is
    /// (near-)exact while SD pays its approximation error; at high p TAG
    /// collapses while SD and TD hold up.
    #[test]
    fn shape_smoke() {
        let scale = Scale {
            runs: 1,
            epochs: 20,
            warmup: 60,
            sensors: 150,
            items_per_node: 0,
        };
        let points = sweep(
            SweepAggregate::Sum,
            SweepFailure::Global,
            &[0.0, 0.35],
            scale,
            77,
        );
        let p0 = &points[0].rms;
        assert!(
            p0["TAG"] < 0.02,
            "TAG at p=0 should be near-exact: {}",
            p0["TAG"]
        );
        assert!(
            p0["SD"] > 0.03 && p0["SD"] < 0.35,
            "SD approximation error out of band: {}",
            p0["SD"]
        );
        let p35 = &points[1].rms;
        assert!(
            p35["TAG"] > 2.0 * p35["SD"],
            "tree should collapse vs multi-path at p=0.35: TAG {} SD {}",
            p35["TAG"],
            p35["SD"]
        );
        let best = p35["TAG"].min(p35["SD"]);
        assert!(
            p35["TD"] <= best * 1.35,
            "TD {} should track the best baseline {best}",
            p35["TD"]
        );
    }
}
