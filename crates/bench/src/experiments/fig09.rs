//! Figure 9: false negatives of the frequent-items schemes vs loss rate,
//! on LabData streams — without (a) and with (b) tree retransmissions.
//!
//! Parameters per §7.4.3: ε = 0.1 %, s = 1 %, best-effort FM counters in
//! the multi-path parts, reporting threshold `(s − ε)·N̂`. Shape targets:
//! TAG's false negatives climb steeply with loss; SD stays low; TD tracks
//! the better of the two; two tree retransmissions rescue TAG at low loss
//! but SD/TD still win beyond p ≈ 0.5; false positives stay small.

use crate::report::Table;
use crate::Scale;
use std::collections::BTreeMap;
use td_frequent::items::{true_frequent, ItemBag};
use td_frequent::multipath::{run_rings, MultipathConfig};
use td_frequent::tree::{run_tree, TreeFrequentConfig};
use td_netsim::loss::Global;
use td_netsim::rng::substream;
use td_quantiles::gradient::MinTotalLoad;
use td_sketches::counter::FmFactory;
use td_topology::domination::domination_factor;
use td_topology::rings::Rings;
use td_topology::tree::{build_tag_tree, ParentSelection};
use td_workloads::items::labdata_bags;
use td_workloads::labdata::LabData;
use tributary_delta::driver::{Driver, TrialPool};
use tributary_delta::metrics::{false_negative_rate, false_positive_rate};
use tributary_delta::protocol::FreqProtocol;
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

struct Fixture {
    lab: LabData,
    bags: Vec<ItemBag>,
    truth: Vec<u64>,
    n_total: u64,
}

fn fixture(scale: Scale, seed: u64) -> Fixture {
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
fn report_against_total(estimates: impl Iterator<Item = (u64, f64)>, n_true: u64) -> Vec<u64> {
    let threshold = (SUPPORT - EPS) * n_true as f64;
    estimates
        .filter(|&(_, c)| c > threshold)
        .map(|(u, _)| u)
        .collect()
}

fn tag_rates(fx: &Fixture, p: f64, retries: u32, runs: u64, seed: u64) -> (f64, f64) {
    tag_rates_with(fx, &Global::new(p), retries, runs, seed)
}

fn tag_rates_with<M: td_netsim::loss::LossModel>(
    fx: &Fixture,
    model: &M,
    retries: u32,
    runs: u64,
    seed: u64,
) -> (f64, f64) {
    let net = fx.lab.network();
    let (mut fn_sum, mut fp_sum) = (0.0, 0.0);
    for run in 0..runs {
        let mut rng = substream(seed, 0x7A6 + run);
        let tree = build_tag_tree(net, ParentSelection::Random, None, false, &mut rng);
        let cfg = TreeFrequentConfig::new(EPS).with_retransmit(retries);
        let res = run_tree(net, &tree, &cfg, &fx.bags, model, run, &mut rng);
        let reported =
            report_against_total(res.summary.iter().map(|(u, c)| (u, c as f64)), fx.n_total);
        let (fnr, fpr) = rates(&reported, &fx.truth);
        fn_sum += fnr;
        fp_sum += fpr;
    }
    (fn_sum / runs as f64, fp_sum / runs as f64)
}

fn sd_rates(fx: &Fixture, p: f64, runs: u64, seed: u64) -> (f64, f64) {
    sd_rates_with(fx, &Global::new(p), runs, seed)
}

fn sd_rates_with<M: td_netsim::loss::LossModel>(
    fx: &Fixture,
    model: &M,
    runs: u64,
    seed: u64,
) -> (f64, f64) {
    let net = fx.lab.network();
    let rings = Rings::build(net);
    let cfg = MultipathConfig::new(EPS, 2.0, fx.n_total * 2, FmFactory { bitmaps: 16 });
    let (mut fn_sum, mut fp_sum) = (0.0, 0.0);
    for run in 0..runs {
        let mut rng = substream(seed, 0x5D0 + run);
        let res = run_rings(net, &rings, &cfg, &fx.bags, model, run, &mut rng);
        let reported = report_against_total(
            res.estimates.counts.iter().map(|(&u, &c)| (u, c)),
            fx.n_total,
        );
        let (fnr, fpr) = rates(&reported, &fx.truth);
        fn_sum += fnr;
        fp_sum += fpr;
    }
    (fn_sum / runs as f64, fp_sum / runs as f64)
}

fn td_rates(fx: &Fixture, p: f64, retries: u32, scale: Scale, seed: u64) -> (f64, f64) {
    td_rates_with(fx, &Global::new(p), retries, scale, seed)
}

fn td_rates_with<M: td_netsim::loss::LossModel>(
    fx: &Fixture,
    model: &M,
    retries: u32,
    scale: Scale,
    seed: u64,
) -> (f64, f64) {
    let net = fx.lab.network();
    let (mut fn_sum, mut fp_sum) = (0.0, 0.0);
    for run in 0..scale.runs {
        let mut rng = substream(seed, 0x7D0 + run);
        let session = SessionBuilder::new(Scheme::Td)
            .tree_retransmit(retries)
            .build(net, &mut rng);
        // Split ε between the tree and multi-path parts (§6.3).
        let d = session
            .topology()
            .map(|t| domination_factor(t.tree(), 0.05))
            .unwrap_or(2.0)
            .max(1.1);
        let gradient = MinTotalLoad::new(EPS / 2.0, d);
        let mp_cfg =
            MultipathConfig::new(EPS / 2.0, 2.0, fx.n_total * 2, FmFactory { bitmaps: 16 });
        let mut driver = Driver::new(session, 0);
        let out = driver
            .run_protocol(
                |_epoch| FreqProtocol::new(mp_cfg.clone(), gradient, SUPPORT, &fx.bags),
                model,
                scale.warmup / 2 + 5,
                &mut rng,
            )
            .expect("ran at least one epoch");
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
    TrialPool::new().map(&ps, |&p| {
        let model = lab_regional(p);
        let mut fn_pct = BTreeMap::new();
        let mut fp_pct = BTreeMap::new();
        let (fnr, fpr) = tag_rates_with(&fx, &model, 0, scale.runs, seed);
        fn_pct.insert("TAG", fnr);
        fp_pct.insert("TAG", fpr);
        let (fnr, fpr) = sd_rates_with(&fx, &model, scale.runs, seed);
        fn_pct.insert("SD", fnr);
        fp_pct.insert("SD", fpr);
        let (fnr, fpr) = td_rates_with(&fx, &model, 0, scale, seed);
        fn_pct.insert("TD", fnr);
        fp_pct.insert("TD", fpr);
        FnPoint { p, fn_pct, fp_pct }
    })
}

/// Run the sweep: `retries = 0` is Figure 9(a), `retries = 2` Figure 9(b)
/// (retransmissions apply to tree links only; SD is unaffected).
pub fn run(retries: u32, scale: Scale, seed: u64) -> Vec<FnPoint> {
    let fx = fixture(scale, seed);
    let ps: Vec<f64> = (0..=9).map(|i| i as f64 * 0.1).collect();
    TrialPool::new().map(&ps, |&p| {
        let mut fn_pct = BTreeMap::new();
        let mut fp_pct = BTreeMap::new();
        let (fnr, fpr) = tag_rates(&fx, p, retries, scale.runs, seed);
        fn_pct.insert("TAG", fnr);
        fp_pct.insert("TAG", fpr);
        let (fnr, fpr) = sd_rates(&fx, p, scale.runs, seed);
        fn_pct.insert("SD", fnr);
        fp_pct.insert("SD", fpr);
        let (fnr, fpr) = td_rates(&fx, p, retries, scale, seed);
        fn_pct.insert("TD", fnr);
        fp_pct.insert("TD", fpr);
        FnPoint { p, fn_pct, fp_pct }
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
        let (fn_tag, _) = tag_rates(&fx, 0.0, 0, 1, 3);
        assert_eq!(fn_tag, 0.0, "TAG misses items without loss");
        let (fn_sd, _) = sd_rates(&fx, 0.0, 1, 3);
        assert!(fn_sd <= 34.0, "SD lossless FN {fn_sd}% too high");
    }

    #[test]
    fn tree_collapses_at_high_loss_multipath_survives() {
        let scale = Scale {
            runs: 1,
            epochs: 5,
            warmup: 10,
            sensors: 0,
            items_per_node: 120,
        };
        let fx = fixture(scale, 5);
        let (fn_tag, _) = tag_rates(&fx, 0.7, 0, 2, 5);
        let (fn_sd, _) = sd_rates(&fx, 0.7, 2, 5);
        assert!(
            fn_tag > fn_sd,
            "TAG FN {fn_tag}% not worse than SD {fn_sd}% at p=0.7"
        );
    }
}
