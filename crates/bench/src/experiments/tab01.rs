//! Table 1, quantified: energy (messages, bytes) and error (communication
//! vs approximation) per scheme, for Count and for Frequent Items.
//!
//! The paper's Table 1 is qualitative ("minimal / small / very large…");
//! this regenerator measures the quantities behind it at a representative
//! realistic loss rate (p = 0.15) and at p = 0 (isolating approximation
//! error from communication error).

use crate::report::{f, Table};
use crate::Scale;
use td_frequent::items::true_frequent;
use td_frequent::multipath::{run_rings, MultipathConfig};
use td_frequent::tree::{run_tree, TreeFrequentConfig};
use td_netsim::loss::Global;
use td_netsim::rng::substream;
use td_sketches::counter::FmFactory;
use td_topology::rings::Rings;
use td_topology::tree::{build_tag_tree, ParentSelection};
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, TrialPool};
use tributary_delta::metrics::{false_negative_rate, rms_error_series};
use tributary_delta::session::{Scheme, SessionBuilder};

/// One measured row.
#[derive(Clone, Debug)]
pub struct ComparisonRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// End-to-end answer latency (ms) for the Count query: slot time ×
    /// ring/tree depth, with the scheme's widest partial result and
    /// retransmission setting (netsim's latency model; Table 1's
    /// "Latency" column).
    pub count_latency_ms: f64,
    /// Mean messages per sensor per epoch (Count query).
    pub count_msgs_per_node: f64,
    /// Mean payload bytes per sensor per epoch (Count query).
    pub count_bytes_per_node: f64,
    /// Count: total error at p = 0.15 (communication + approximation).
    pub count_err_lossy: f64,
    /// Count: error at p = 0 (approximation alone).
    pub count_err_lossless: f64,
    /// Frequent items: false-negative rate at p = 0.15.
    pub freq_fn_lossy: f64,
    /// Frequent items: mean messages per sensor (one aggregation).
    pub freq_msgs_per_node: f64,
}

fn count_metrics(scheme: Scheme, p: f64, scale: Scale, seed: u64) -> (f64, f64, f64, f64) {
    let net = Synthetic::sized(scale.sensors).build(seed);
    let model = Global::new(p);
    let mut rng = substream(seed, 0x7AB1);
    let session = SessionBuilder::new(scheme).build(&net, &mut rng);
    let mut driver = Driver::new(session, scale.warmup);
    let result = driver.run_scalar(
        &td_aggregates::count::Count::default(),
        &Synthetic::count_workload(&net),
        &model,
        scale.epochs,
        |_| net.num_sensors() as f64,
        &mut rng,
    );
    let session = driver.into_session();
    let epochs_total = (scale.warmup + scale.epochs) as f64;
    let msgs = session.stats().total_messages() as f64 / net.num_sensors() as f64 / epochs_total;
    let bytes = session.stats().total_bytes() as f64 / net.num_sensors() as f64 / epochs_total;
    // Latency: slot width from the scheme's mean messages per node per
    // epoch (rounded up), depth from the topology actually in use.
    let depth = match scheme {
        Scheme::Tag => session
            .tag_tree()
            .map(|t| t.max_depth())
            .unwrap_or_default(),
        _ => session
            .topology()
            .map(|t| t.rings().max_level())
            .unwrap_or_default(),
    };
    let latency = td_netsim::epoch::LatencyModel {
        timing: td_netsim::epoch::SlotTiming::default(),
        messages_per_slot: msgs.ceil().max(1.0) as u32,
        retransmissions: 0,
    }
    .epoch_latency_ms(depth);
    (
        rms_error_series(&result.estimates, &result.actuals),
        msgs,
        bytes,
        latency,
    )
}

fn freq_metrics(scheme: Scheme, p: f64, scale: Scale, seed: u64) -> (f64, f64) {
    // §7.4.3 compares message costs on the LabData streams ("3 times on
    // average"); skewed bucketized readings keep synopses realistic.
    let lab = td_workloads::labdata::LabData::new(seed);
    let net = lab.network().clone();
    let bags = td_workloads::items::labdata_bags(&lab, scale.items_per_node as u64);
    let truth = true_frequent(&bags, 0.01);
    let n_total: u64 = bags.iter().map(|b| b.total()).sum();
    let eps = 0.001;
    let mut rng = substream(seed, 0x7AB2);
    match scheme {
        Scheme::Tag => {
            let tree = build_tag_tree(&net, ParentSelection::Random, None, false, &mut rng);
            let res = run_tree(
                &net,
                &tree,
                &TreeFrequentConfig::new(eps),
                &bags,
                &Global::new(p),
                0,
                &mut rng,
            );
            let reported = res.summary.report_frequent(0.01);
            (
                false_negative_rate(&reported, &truth),
                res.stats.total_messages() as f64 / net.num_sensors() as f64,
            )
        }
        _ => {
            let rings = Rings::build(&net);
            let cfg = MultipathConfig::new(eps, 2.0, n_total * 2, FmFactory { bitmaps: 16 });
            let res = run_rings(&net, &rings, &cfg, &bags, &Global::new(p), 0, &mut rng);
            let reported = res.estimates.report(0.01 - eps);
            (
                false_negative_rate(&reported, &truth),
                res.stats.total_messages() as f64 / net.num_sensors() as f64,
            )
        }
    }
}

/// Measure all schemes (one trial-pool job per scheme).
pub fn run(scale: Scale, seed: u64) -> Vec<ComparisonRow> {
    TrialPool::new().map(seed, &Scheme::all(), |_, &scheme, _pool_rng| {
        let (err_lossy, msgs, bytes, latency) = count_metrics(scheme, 0.15, scale, seed);
        let (err_lossless, _, _, _) = count_metrics(scheme, 0.0, scale, seed ^ 0x11);
        // Frequent items: TD variants share SD's multi-path costs in
        // this summary (their delta dominates under loss); TAG is the
        // tree column.
        let (freq_fn, freq_msgs) = freq_metrics(scheme, 0.15, scale, seed);
        ComparisonRow {
            scheme: scheme.name(),
            count_latency_ms: latency,
            count_msgs_per_node: msgs,
            count_bytes_per_node: bytes,
            count_err_lossy: err_lossy,
            count_err_lossless: err_lossless,
            freq_fn_lossy: freq_fn,
            freq_msgs_per_node: freq_msgs,
        }
    })
}

/// Render the comparison.
pub fn table(rows: &[ComparisonRow]) -> Table {
    let mut t = Table::new(
        "Table 1 (quantified): energy and error components, Global(0.15)",
        &[
            "scheme",
            "count_msgs/node/epoch",
            "count_bytes/node/epoch",
            "count_latency_ms",
            "count_rms@0.15",
            "count_rms@0 (approx err)",
            "freq_FN@0.15",
            "freq_msgs/node",
        ],
    );
    for r in rows {
        t.row(vec![
            r.scheme.to_string(),
            format!("{:.2}", r.count_msgs_per_node),
            format!("{:.1}", r.count_bytes_per_node),
            format!("{:.0}", r.count_latency_ms),
            f(r.count_err_lossy),
            f(r.count_err_lossless),
            f(r.freq_fn_lossy),
            format!("{:.2}", r.freq_msgs_per_node),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualitative_claims_hold_at_smoke_scale() {
        let scale = Scale {
            runs: 1,
            epochs: 20,
            warmup: 60,
            sensors: 150,
            items_per_node: 100,
        };
        let rows = run(scale, 17);
        let get = |n: &str| rows.iter().find(|r| r.scheme == n).unwrap().clone();
        let tag = get("TAG");
        let sd = get("SD");
        let td = get("TD");
        // Tree: no approximation error. (SD's lossless Count error is a
        // single deterministic sketch draw for the fixed node population,
        // so its magnitude is not asserted — only that the tree is exact.)
        assert!(tag.count_err_lossless < 0.02);
        // Tree: very large communication error under loss.
        assert!(tag.count_err_lossy > sd.count_err_lossy);
        // TD avoids the tree's collapse. (Comparing TD against SD's
        // absolute error is fragile at smoke scale: with a fixed node
        // population, each scheme's Count error is a single sketch draw.)
        assert!(
            td.count_err_lossy < tag.count_err_lossy,
            "TD {} vs TAG {}",
            td.count_err_lossy,
            tag.count_err_lossy
        );
        assert!(td.count_err_lossy < 0.4, "TD error {}", td.count_err_lossy);
        // Everybody sends ~1 message per node per epoch for Count, and
        // latency stays within the same order of magnitude across schemes
        // (Table 1: "minimal" for all).
        for r in &rows {
            assert!(
                r.count_msgs_per_node < 2.5,
                "{}: {} msgs",
                r.scheme,
                r.count_msgs_per_node
            );
            assert!(
                r.count_latency_ms > 0.0 && r.count_latency_ms < 2000.0,
                "{}: latency {} ms",
                r.scheme,
                r.count_latency_ms
            );
        }
        // Frequent items cost more messages in multi-path than tree.
        assert!(sd.freq_msgs_per_node > tag.freq_msgs_per_node);
    }
}
