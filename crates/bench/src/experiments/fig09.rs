//! Figure 9: false negatives of the frequent-items schemes vs loss rate,
//! on LabData streams — without (a) and with (b) tree retransmissions.
//!
//! Parameters per §7.4.3: ε = 0.1 %, s = 1 %, best-effort FM counters in
//! the multi-path parts, reporting threshold `(s − ε)·N̂`. Shape targets:
//! TAG's false negatives climb steeply with loss; SD stays low; TD tracks
//! the better of the two; two tree retransmissions rescue TAG at low loss
//! but SD/TD still win beyond p ≈ 0.5; false positives stay small.
//!
//! Every scheme runs its own session on the epoch engine with the same
//! `FreqProtocol`, so the three columns differ only in their labeling.

use crate::report::Table;
use crate::Scale;
use std::collections::BTreeMap;
use td_frequent::items::{true_frequent, ItemBag};
use td_frequent::multipath::MultipathConfig;
use td_netsim::loss::{Global, LossModel};
use td_netsim::rng::substream;
use td_netsim::stats::CommStats;
use td_quantiles::gradient::MinTotalLoad;
use td_sketches::counter::FmFactory;
use td_topology::domination::domination_factor;
use td_topology::td::TdTopology;
use td_workloads::items::labdata_bags;
use td_workloads::labdata::LabData;
use tributary_delta::driver::TrialPool;
use tributary_delta::metrics::{false_negative_rate, false_positive_rate};
use tributary_delta::protocol::{FreqOutput, FreqProtocol};
use tributary_delta::session::{Scheme, SessionBuilder};

/// ε = 0.1 % and s = 1 % (§7.4.3).
pub const EPS: f64 = 0.001;
/// Support threshold.
pub const SUPPORT: f64 = 0.01;

/// One sweep point.
#[derive(Clone, Debug)]
pub struct FnPoint {
    /// Loss rate.
    pub p: f64,
    /// False-negative percentage per scheme.
    pub fn_pct: BTreeMap<&'static str, f64>,
    /// False-positive percentage per scheme.
    pub fp_pct: BTreeMap<&'static str, f64>,
}

/// The LabData item streams of one seed and their ground truth.
pub(crate) struct Fixture {
    pub(crate) lab: LabData,
    bags: Vec<ItemBag>,
    pub(crate) truth: Vec<u64>,
    pub(crate) n_total: u64,
}

/// Each mote's discretized light readings over `scale.items_per_node`
/// epochs, and the items frequent at support [`SUPPORT`].
pub(crate) fn fixture(scale: Scale, seed: u64) -> Fixture {
    let lab = LabData::new(seed);
    let bags = labdata_bags(&lab, scale.items_per_node as u64);
    let truth = true_frequent(&bags, SUPPORT);
    let n_total: u64 = bags.iter().map(|b| b.total()).sum();
    Fixture {
        lab,
        bags,
        truth,
        n_total,
    }
}

fn rates(reported: &[u64], truth: &[u64]) -> (f64, f64) {
    (
        100.0 * false_negative_rate(reported, truth),
        100.0 * false_positive_rate(reported, truth),
    )
}

/// §7.4.3's reporting rule: items whose estimated count exceeds
/// `(s − ε)` of the total count. The support threshold is defined against
/// the query's total N (the deployment knows its own data volume), so
/// loss-induced undercounting produces false negatives — exactly what
/// Figure 9 measures.
pub(crate) fn report_against_total(
    estimates: impl Iterator<Item = (u64, f64)>,
    n_true: u64,
) -> Vec<u64> {
    let threshold = (SUPPORT - EPS) * n_true as f64;
    estimates
        .filter(|&(_, c)| c > threshold)
        .map(|(u, _)| u)
        .collect()
}

/// One run of `scheme`'s frequent-items query on its own session,
/// built from `rng` with `retries` tree retransmissions. TAG and SD
/// answer in the one epoch `run`; TD and TD-Coarse run
/// `scale.warmup / 2 + 5` epochs from 0, so their delta adapts, and
/// answer in the last. Returns the answer and that epoch's
/// communication.
pub(crate) fn scheme_run<M: LossModel, R: rand::Rng + ?Sized>(
    fx: &Fixture,
    scheme: Scheme,
    model: &M,
    retries: u32,
    run: u64,
    scale: Scale,
    rng: &mut R,
) -> (FreqOutput, CommStats) {
    let mut session = SessionBuilder::new(scheme)
        .tree_retransmit(retries)
        .build(fx.lab.network(), rng);
    // TAG runs only the tree half and SD only the multi-path half, each
    // with the whole ε; TD splits ε between the two (§6.3).
    let (eps, first, last) = match scheme {
        Scheme::Tag | Scheme::Sd => (EPS, run, run),
        Scheme::TdCoarse | Scheme::Td => (EPS / 2.0, 0, scale.warmup / 2 + 4),
    };
    let tree = session
        .tag_tree()
        .or(session.topology().map(TdTopology::tree))
        .expect("every scheme aggregates over a tree");
    let gradient = MinTotalLoad::new(eps, domination_factor(tree, 0.05).max(1.1));
    let mp_cfg = MultipathConfig::new(eps, 2.0, fx.n_total * 2, FmFactory { bitmaps: 16 });
    let proto = FreqProtocol::new(mp_cfg, gradient, SUPPORT, &fx.bags);
    for epoch in first..last {
        session.run_epoch(&proto, model, epoch, rng);
    }
    let mut before = session.stats().clone();
    let out = session.run_epoch(&proto, model, last, rng).output;
    (out, before.advance_to(session.stats()))
}

/// Mean false-negative and false-positive percentages of `scheme` over
/// `scale.runs` runs, each on its own RNG substream.
fn scheme_rates<M: LossModel>(
    fx: &Fixture,
    scheme: Scheme,
    model: &M,
    retries: u32,
    scale: Scale,
    seed: u64,
) -> (f64, f64) {
    let salt = match scheme {
        Scheme::Tag => 0x7A6,
        Scheme::Sd => 0x5D0,
        Scheme::TdCoarse | Scheme::Td => 0x7D0,
    };
    let (mut fn_sum, mut fp_sum) = (0.0, 0.0);
    for run in 0..scale.runs {
        let mut rng = substream(seed, salt + run);
        let (out, _) = scheme_run(fx, scheme, model, retries, run, scale, &mut rng);
        let reported = report_against_total(
            out.estimates.counts.iter().map(|(&u, &c)| (u, c)),
            fx.n_total,
        );
        let (fnr, fpr) = rates(&reported, &fx.truth);
        fn_sum += fnr;
        fp_sum += fpr;
    }
    (fn_sum / scale.runs as f64, fp_sum / scale.runs as f64)
}

/// One sweep point: every scheme under `model`.
fn point<M: LossModel>(
    fx: &Fixture,
    p: f64,
    model: &M,
    retries: u32,
    scale: Scale,
    seed: u64,
) -> FnPoint {
    let mut fn_pct = BTreeMap::new();
    let mut fp_pct = BTreeMap::new();
    for scheme in [Scheme::Tag, Scheme::Sd, Scheme::Td] {
        let (fnr, fpr) = scheme_rates(fx, scheme, model, retries, scale, seed);
        fn_pct.insert(scheme.name(), fnr);
        fp_pct.insert(scheme.name(), fpr);
    }
    FnPoint { p, fn_pct, fp_pct }
}

/// The lab's regional failure: the west half of the 40 m × 30 m floor
/// loses at `p1`, the rest at 0.05 — §7.4.3's full-paper extension
/// ("under Regional(p, 0.05), TD is significantly better than TAG or SD").
fn lab_regional(p1: f64) -> td_netsim::loss::Regional {
    td_netsim::loss::Regional::new(
        td_netsim::node::Rect::from_coords(0.0, 0.0, 20.0, 30.0),
        p1,
        0.05,
    )
}

/// §7.4.3 extension: false negatives under `Regional(p, 0.05)` on the lab
/// floorplan. Same schemes and reporting rule as the global sweep.
pub fn run_regional(scale: Scale, seed: u64) -> Vec<FnPoint> {
    let fx = fixture(scale, seed);
    let ps: Vec<f64> = (0..=9).map(|i| i as f64 * 0.1).collect();
    TrialPool::new().map(&ps, |&p| point(&fx, p, &lab_regional(p), 0, scale, seed))
}

/// Run the sweep: `retries = 0` is Figure 9(a), `retries = 2` Figure 9(b)
/// (retransmissions apply to tree links only; SD is unaffected).
pub fn run(retries: u32, scale: Scale, seed: u64) -> Vec<FnPoint> {
    let fx = fixture(scale, seed);
    let ps: Vec<f64> = (0..=9).map(|i| i as f64 * 0.1).collect();
    TrialPool::new().map(&ps, |&p| {
        point(&fx, p, &Global::new(p), retries, scale, seed)
    })
}

/// Render the sweep.
pub fn table(title: &str, points: &[FnPoint]) -> Table {
    let mut t = Table::new(
        title,
        &[
            "loss_rate",
            "FN%_TAG",
            "FN%_SD",
            "FN%_TD",
            "FP%_TAG",
            "FP%_SD",
            "FP%_TD",
        ],
    );
    for pt in points {
        t.row(vec![
            format!("{:.1}", pt.p),
            format!("{:.1}", pt.fn_pct["TAG"]),
            format!("{:.1}", pt.fn_pct["SD"]),
            format!("{:.1}", pt.fn_pct["TD"]),
            format!("{:.1}", pt.fp_pct["TAG"]),
            format!("{:.1}", pt.fp_pct["SD"]),
            format!("{:.1}", pt.fp_pct["TD"]),
        ]);
    }
    t
}

/// Regenerate Figure 9: (a) without and (b) with two tree
/// retransmissions, plus the §7.4.3 regional extension (c)
/// (`results/fig09{a,b,c}_*.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    println!(
        "Figure 9 — frequent-items false negatives (items/node={}, runs={})",
        scale.items_per_node, scale.runs
    );
    table(
        "Figure 9(a): false negatives, no retransmission",
        &run(0, scale, 0xF1609A),
    )
    .publish("fig09a_false_negatives")?;
    table(
        "Figure 9(b): false negatives, 2 tree retransmissions",
        &run(2, scale, 0xF1609B),
    )
    .publish("fig09b_false_negatives_retx")?;
    table(
        "§7.4.3 extension: false negatives under Regional(p, 0.05)",
        &run_regional(scale, 0xF1609C),
    )
    .publish("fig09c_false_negatives_regional")?;
    println!(
        "\npaper shape: (a) TAG's FN% climbs steeply, SD stays low, TD tracks\n\
         the best; (b) retransmissions rescue TAG at low p but SD/TD still\n\
         win beyond p ~ 0.5; false positives stay small (< ~3% lossless)"
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_point_has_no_false_negatives() {
        let scale = Scale {
            runs: 1,
            epochs: 5,
            warmup: 10,
            sensors: 0,
            items_per_node: 150,
        };
        let fx = fixture(scale, 3);
        assert!(!fx.truth.is_empty(), "workload has no frequent items");
        let lossless = Global::new(0.0);
        let (fn_tag, _) = scheme_rates(&fx, Scheme::Tag, &lossless, 0, scale, 3);
        assert_eq!(fn_tag, 0.0, "TAG misses items without loss");
        let (fn_sd, _) = scheme_rates(&fx, Scheme::Sd, &lossless, 0, scale, 3);
        assert!(fn_sd <= 34.0, "SD lossless FN {fn_sd}% too high");
    }

    #[test]
    fn tree_collapses_at_high_loss_multipath_survives() {
        let scale = Scale {
            runs: 2,
            epochs: 5,
            warmup: 10,
            sensors: 0,
            items_per_node: 120,
        };
        let fx = fixture(scale, 5);
        let lossy = Global::new(0.7);
        let (fn_tag, _) = scheme_rates(&fx, Scheme::Tag, &lossy, 0, scale, 5);
        let (fn_sd, _) = scheme_rates(&fx, Scheme::Sd, &lossy, 0, scale, 5);
        assert!(
            fn_tag > fn_sd,
            "TAG FN {fn_tag}% not worse than SD {fn_sd}% at p=0.7"
        );
    }
}
