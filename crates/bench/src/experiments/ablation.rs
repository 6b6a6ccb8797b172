//! Ablations of the design choices DESIGN.md calls out (beyond the
//! paper's own figures):
//!
//! 1. **Adaptation signal**: instrumented exact "% contributing" versus
//!    the in-band sketched Count a real base station would use (§4.2).
//! 2. **Tree construction**: Min Total-load's communication on the plain
//!    ring-restricted tree versus the §6.1.3 bushy tree (the domination
//!    factor is the constant in Lemma 3's bound).
//! 3. **Oscillation damping**: adaptation actions with and without the
//!    §4.2 damping heuristic under a steady loss rate near the threshold
//!    boundary.

use crate::report::{f, Table};
use crate::Scale;
use td_frequent::tree::{run_tree, TreeFrequentConfig};
use td_netsim::loss::{Global, NoLoss};
use td_netsim::rng::substream;
use td_topology::bushy::{build_bushy_tree, build_restricted_tree, BushyOptions};
use td_topology::domination::domination_factor;
use td_topology::rings::Rings;
use td_workloads::items::zipf_bags;
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, TrialPool};
use tributary_delta::metrics::rms_error_series;
use tributary_delta::session::{Scheme, SessionBuilder};

/// Ablation 1: exact vs in-band adaptation signal at `Global(0.3)`.
pub fn signal_ablation(scale: Scale, seed: u64) -> Table {
    let net = Synthetic::sized(scale.sensors).build(seed);
    let model = Global::new(0.3);
    let mut t = Table::new(
        "Ablation: adaptation signal (TD-Coarse, Global(0.3))",
        &[
            "signal",
            "rms",
            "final_pct_contributing",
            "final_delta_size",
        ],
    );
    let variants = [("exact (instrumented)", true), ("in-band sketch", false)];
    let rows = TrialPool::new().map(seed, &variants, |_, &(name, exact), _pool_rng| {
        let mut builder = SessionBuilder::new(Scheme::TdCoarse);
        if !exact {
            builder = builder.in_band_signal();
        }
        let mut rng = substream(seed, 0xAB1);
        let mut driver = Driver::new(builder.build(&net, &mut rng), scale.warmup);
        let result = driver.run_scalar(
            &td_aggregates::count::Count::default(),
            &Synthetic::count_workload(&net),
            &model,
            scale.epochs,
            |_| net.num_sensors() as f64,
            &mut rng,
        );
        vec![
            name.to_string(),
            f(rms_error_series(&result.estimates, &result.actuals)),
            f(result.last_pct_contributing),
            result.last_delta_size.to_string(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

/// Ablation 2: bushy tree vs plain restricted tree for Min Total-load.
pub fn tree_construction_ablation(scale: Scale, seed: u64) -> Table {
    let net = Synthetic::small(scale.sensors.min(250)).build(seed);
    let rings = Rings::build(&net);
    let bags = zipf_bags(&net, scale.items_per_node, 5000, 1.1, seed);
    let mut t = Table::new(
        "Ablation: tree construction for Min Total-load (eps = 1%)",
        &["tree", "domination_factor", "total_words", "max_words"],
    );
    let mut rng = substream(seed, 0xAB2);
    let plain = build_restricted_tree(&net, &rings, &mut rng);
    let bushy = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
    for (name, tree) in [("restricted (random)", &plain), ("bushy (§6.1.3)", &bushy)] {
        let mut rng = substream(seed, 0xAB3);
        let res = run_tree(
            &net,
            tree,
            &TreeFrequentConfig::new(0.01),
            &bags,
            &NoLoss,
            0,
            &mut rng,
        );
        t.row(vec![
            name.to_string(),
            format!("{:.2}", domination_factor(tree, 0.05)),
            res.stats.total_words().to_string(),
            res.stats.max_words_per_sensor().to_string(),
        ]);
    }
    t
}

/// Ablation 3: damping on/off under a loss rate that parks the system
/// near the threshold boundary (where TD-Coarse oscillates, §7.3).
pub fn damping_ablation(scale: Scale, seed: u64) -> Table {
    let net = Synthetic::sized(scale.sensors).build(seed);
    let model = Global::new(0.12);
    let mut t = Table::new(
        "Ablation: oscillation damping (TD-Coarse, Global(0.12))",
        &["damping", "adapt_actions", "final_interval_multiplier"],
    );
    let variants = [("on", true), ("off", false)];
    let rows = TrialPool::new().map(seed, &variants, |_, &(name, enabled), _pool_rng| {
        let mut cfg = *SessionBuilder::new(Scheme::TdCoarse).config();
        // A zero-width band guarantees every adaptation epoch acts, so the
        // system flaps around the threshold; damping's job is to slow the
        // flapping down.
        cfg.adapter.shrink_margin = 0.0;
        if !enabled {
            cfg.adapter.damping_after = u32::MAX; // never engages
        }
        let mut rng = substream(seed, 0xAB4);
        let session = SessionBuilder::from_config(cfg).build(&net, &mut rng);
        let mut driver = Driver::new(session, scale.warmup);
        let result = driver.run_scalar(
            &td_aggregates::count::Count::default(),
            &Synthetic::count_workload(&net),
            &model,
            scale.epochs * 2,
            |_| net.num_sensors() as f64,
            &mut rng,
        );
        vec![
            name.to_string(),
            result.adapt_moves.to_string(),
            driver
                .session()
                .adapter_damping()
                .map(|d| d.to_string())
                .unwrap_or_default(),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bushy_tree_not_worse_for_min_total_load() {
        let t = tree_construction_ablation(
            Scale {
                runs: 1,
                epochs: 0,
                warmup: 0,
                sensors: 150,
                items_per_node: 100,
            },
            13,
        );
        assert_eq!(t.len(), 2);
    }
}
