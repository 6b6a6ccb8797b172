//! Figure 9(d) (extension): **windowed** false negatives of the
//! frequent-items schemes vs loss rate.
//!
//! The paper's Figure 9 scores one-shot frequent-items queries; the
//! stream layer's set-valued panes ([`FreqPane`]) let the same §6
//! machinery answer "which items were frequent over the last W epochs"
//! — each epoch contributes one pane of per-item count estimates, a
//! sliding window merges them by multiset union, and the window-level
//! report applies §7.4.3's rule at window scope: report items whose
//! merged estimate exceeds `(s − ε)` of the window's *true* total (the
//! deployment knows its data volume, so loss-induced undercounting
//! shows up as false negatives, exactly as in the one-shot figure).
//!
//! The item distribution drifts across epochs (a stable heavy pair plus
//! a slot-rotating mid-weight item), so overlapping windows genuinely
//! mix distributions and the windowed truth differs from any single
//! epoch's. Expected shape: same ordering as Figure 9(a) — TAG's FN%
//! climbs steeply with loss, SD stays low, TD tracks the better of the
//! two — but softened, because a window of W panes averages W
//! independent loss draws.
//!
//! [`FreqPane`]: td_stream::FreqPane

use crate::experiments::fig09::{self, FnPoint};
use crate::Scale;
use std::collections::BTreeMap;
use td_frequent::items::{true_frequent, ItemBag};
use td_frequent::multipath::MultipathConfig;
use td_netsim::loss::Global;
use td_netsim::rng::substream;
use td_quantiles::gradient::MinTotalLoad;
use td_sketches::counter::FmFactory;
use td_stream::{EpochMerge, FreqStreamQuery, StreamQuery, StreamSession, WindowSpec};
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, FixedReadings, TrialPool};
use tributary_delta::metrics::{false_negative_rate, false_positive_rate};
use tributary_delta::session::{Scheme, SessionBuilder};

/// Support threshold s. Higher than the one-shot figure's 1% so the
/// drifting mid-weight items sit near the threshold — the regime where
/// windowed undercounting actually flips report decisions.
pub const SUPPORT: f64 = 0.05;
/// Tree-side error budget ε_a (precision gradient).
const EPS_TREE: f64 = 0.01;
/// Multi-path error budget ε_b.
const EPS_MP: f64 = 0.01;
/// Sliding-window length in panes (hop 1).
pub const WINDOW: u32 = 4;
/// Distinct drifting epoch slots (epoch `e` replays slot `e % SLOTS`).
const SLOTS: usize = 3;

/// The drifting per-epoch item bags: every sensor carries a stable
/// heavy pair (items 1, 2), one slot-rotating mid-weight item
/// (`10 + slot`), and a per-node tail item. Node 0 is the base station
/// and holds nothing.
fn bags_table(nodes: usize) -> Vec<Vec<ItemBag>> {
    (0..SLOTS)
        .map(|s| {
            (0..nodes)
                .map(|i| {
                    if i == 0 {
                        ItemBag::new()
                    } else {
                        ItemBag::from_counts([
                            (1u64, 30),
                            (2u64, 18),
                            (10 + s as u64, 12),
                            (100 + i as u64 % 11, 4),
                        ])
                    }
                })
                .collect()
        })
        .collect()
}

/// The exact frequent set and total count over the epochs
/// `start..=end` (merging each epoch's true bags).
fn windowed_truth(bags: &[Vec<ItemBag>], start: u64, end: u64) -> (Vec<u64>, u64) {
    let merged: Vec<ItemBag> = (start..=end)
        .flat_map(|e| bags[e as usize % SLOTS].iter().cloned())
        .collect();
    let total = merged.iter().map(|b| b.total()).sum();
    (true_frequent(&merged, SUPPORT), total)
}

/// Mean windowed FN% / FP% for one `(scheme, loss)` cell, over
/// `scale.runs` independent streams. Only full windows are scored.
fn cell(scheme: Scheme, p: f64, scale: Scale, seed: u64) -> (f64, f64) {
    let net = Synthetic::sized(scale.sensors).build(seed ^ 0xF19D);
    let bags = bags_table(net.len());
    let n_slot_max = bags
        .iter()
        .map(|epoch| epoch.iter().map(|b| b.total()).sum::<u64>())
        .max()
        .expect("bag table is non-empty");
    let eps = EPS_TREE + EPS_MP;
    let (mut fn_sum, mut fp_sum, mut scored) = (0.0, 0.0, 0u64);
    for run in 0..scale.runs {
        let mut rng = substream(seed, 0x9D0 + run * 8 + scheme.index());
        let session = SessionBuilder::new(scheme).build(&net, &mut rng);
        // Warm-up 0: report epochs index the bag table directly.
        let mut stream = StreamSession::new(Driver::new(session, 0));
        let query = StreamQuery::new(FreqStreamQuery::new(
            MultipathConfig::new(
                EPS_MP,
                2.0,
                n_slot_max * WINDOW as u64 * 2,
                FmFactory { bitmaps: 16 },
            ),
            MinTotalLoad::new(EPS_TREE, 2.25),
            SUPPORT,
            bags.clone(),
        ))
        .window(WindowSpec::sliding(WINDOW, 1), EpochMerge::Add);
        let _ = stream.register(query);
        let reports = stream.run(
            &FixedReadings(vec![1; net.len()]),
            &Global::new(p),
            scale.epochs,
            &mut rng,
        );
        for r in reports.iter().filter(|r| r.panes == r.expected_panes) {
            let freq = r.freq.as_ref().expect("freq panes carry estimates");
            let (truth, n_true) = windowed_truth(&bags, r.start_epoch, r.end_epoch);
            // §7.4.3's reporting rule at window scope: estimate above
            // `(s − ε)` of the window's true total.
            let threshold = (SUPPORT - eps) * n_true as f64;
            let reported: Vec<u64> = freq
                .counts()
                .iter()
                .filter(|&(_, &c)| c > threshold)
                .map(|(&u, _)| u)
                .collect();
            fn_sum += 100.0 * false_negative_rate(&reported, &truth);
            fp_sum += 100.0 * false_positive_rate(&reported, &truth);
            scored += 1;
        }
    }
    let n = scored.max(1) as f64;
    (fn_sum / n, fp_sum / n)
}

/// Run the windowed sweep: loss `p ∈ {0.0 … 0.9}` × {TAG, SD, TD},
/// one [`TrialPool`] cell per loss point. Reuses [`FnPoint`] (and thus
/// `fig09::table`) so the CSV shape matches the one-shot figures.
pub fn run(scale: Scale, seed: u64) -> Vec<FnPoint> {
    let ps: Vec<f64> = (0..=9).map(|i| i as f64 * 0.1).collect();
    TrialPool::new().map(&ps, |&p| {
        let mut fn_pct = BTreeMap::new();
        let mut fp_pct = BTreeMap::new();
        for scheme in [Scheme::Tag, Scheme::Sd, Scheme::Td] {
            let (fnr, fpr) = cell(scheme, p, scale, seed);
            fn_pct.insert(scheme.name(), fnr);
            fp_pct.insert(scheme.name(), fpr);
        }
        FnPoint { p, fn_pct, fp_pct }
    })
}

/// Regenerate Figure 9(d) (`results/fig09d_false_negatives_windowed.csv`).
pub fn regenerate(scale: Scale) -> std::io::Result<()> {
    println!(
        "Figure 9(d) — windowed frequent-items false negatives \
         (sliding({},1), s={}, sensors={}, epochs={}, runs={})",
        WINDOW, SUPPORT, scale.sensors, scale.epochs, scale.runs
    );
    fig09::table(
        "Figure 9(d): windowed false negatives, sliding window of panes",
        &run(scale, 0xF1609D),
    )
    .publish("fig09d_false_negatives_windowed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_windows_report_exactly() {
        let scale = Scale {
            runs: 1,
            epochs: 8,
            warmup: 0,
            sensors: 80,
            items_per_node: 0,
        };
        let (fn_tag, fp_tag) = cell(Scheme::Tag, 0.0, scale, 7);
        assert_eq!(fn_tag, 0.0, "lossless windowed TAG missed frequent items");
        assert!(fp_tag.is_finite());
        let (fn_td, _) = cell(Scheme::Td, 0.0, scale, 7);
        assert!(
            fn_td <= 25.0,
            "lossless windowed TD FN {fn_td}% implausibly high"
        );
    }

    #[test]
    fn windowed_truth_mixes_drifting_slots() {
        let bags = bags_table(40);
        // A full window spans every slot, so each slot's rotating item
        // dilutes below the single-epoch support share.
        let (truth, total) = windowed_truth(&bags, 0, WINDOW as u64 - 1);
        assert!(total > 0);
        assert!(truth.contains(&1) && truth.contains(&2), "stable pair");
        let (single, _) = windowed_truth(&bags, 0, 0);
        assert!(single.contains(&10), "slot-0 item frequent in its epoch");
    }
}
