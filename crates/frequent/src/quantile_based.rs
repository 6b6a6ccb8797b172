//! The Quantiles-based frequent-items baseline (\[8\], Figure 8).
//!
//! "Frequent items can be computed from quantiles" (§7.4.2, footnote 5):
//! run Greenwald–Khanna summaries up the tree under a precision gradient,
//! then read item frequencies out of the rank structure at the base
//! station — `freq(u) = rank(u) − rank(u−1)`, within `2E` of truth. The
//! summaries carry 3 words per tuple versus 2 per item for ε-deficient
//! summaries, and GK's compression is value-ordered rather than
//! frequency-aware, which is why this baseline pays more communication on
//! the bushy trees the paper evaluates (Figure 8's tallest bars).

use crate::items::ItemBag;
use td_netsim::loss::{unicast, LossModel, Retransmit};
use td_netsim::network::Network;
use td_netsim::node::BASE_STATION;
use td_netsim::stats::CommStats;
use td_quantiles::gradient::{MinMaxLoad, PrecisionGradient};
use td_quantiles::summary::GkSummary;
use td_topology::tree::Tree;

/// Result of a quantiles-based run.
#[derive(Clone, Debug)]
pub struct QuantileRunResult {
    /// The GK summary at the base station.
    pub summary: GkSummary,
    /// Communication accounting (words; 3 per GK tuple).
    pub stats: CommStats,
}

impl QuantileRunResult {
    /// Report items with estimated frequency > `(s − eps) · N`.
    pub fn report_frequent(&self, s: f64, eps: f64) -> Vec<u64> {
        let n = self.summary.population() as f64;
        let threshold = (s - eps) * n;
        let mut out: Vec<u64> = Vec::new();
        let mut last = None;
        for v in self.summary.values() {
            if last == Some(v) {
                continue; // summaries may carry duplicate values
            }
            last = Some(v);
            if self.summary.frequency(v) as f64 > threshold {
                out.push(v);
            }
        }
        out
    }
}

/// Run GK summaries up `tree` under Min Max-load's linear gradient for
/// error tolerance `eps` (the rank error budget as a fraction of N),
/// the gradient the baseline pairs with. Each node of height `k`
/// combines its children with its local exact summary and reduces to
/// absolute uncertainty `ε(k) · n_subtree` before transmitting.
pub fn run_tree_gk<M: LossModel, R: rand::Rng + ?Sized>(
    net: &Network,
    tree: &Tree,
    eps: f64,
    bags: &[ItemBag],
    model: &M,
    epoch: u64,
    rng: &mut R,
) -> QuantileRunResult {
    assert!(eps > 0.0 && eps < 1.0, "eps {eps} out of (0,1)");
    assert_eq!(bags.len(), tree.len());
    let heights = tree.heights();
    let gradient = MinMaxLoad::new(eps, heights[BASE_STATION.index()].max(1));

    let mut inbox: Vec<Vec<GkSummary>> = vec![Vec::new(); tree.len()];
    let mut stats = CommStats::new(tree.len());
    let mut result = GkSummary::empty();

    for u in tree.bottom_up_order() {
        let mut acc = GkSummary::exact(&bags[u.index()].expand());
        for child in std::mem::take(&mut inbox[u.index()]) {
            acc = acc.combine(&child);
        }
        let k = heights[u.index()];
        let budget = (gradient.eps_at(k) * acc.population() as f64).floor() as u64;
        acc.reduce(budget);
        match tree.parent(u) {
            None => result = acc,
            Some(p) => {
                let words = acc.wire_words();
                let outcome = unicast(model, Retransmit::default(), u, p, net, epoch, rng);
                stats.record_send(u, words * 4, words, outcome.attempts_used as u64);
                if outcome.delivered {
                    inbox[p.index()].push(acc);
                }
            }
        }
    }
    QuantileRunResult {
        summary: result,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{count_items, true_frequent};
    use td_netsim::loss::NoLoss;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;
    use td_topology::bushy::{build_bushy_tree, BushyOptions};
    use td_topology::rings::Rings;

    fn setup(seed: u64) -> (Network, Tree, Vec<ItemBag>) {
        let mut rng = rng_from_seed(seed);
        let net =
            Network::random_connected(50, 20.0, 20.0, Position::new(10.0, 10.0), 5.0, &mut rng);
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        use rand::Rng;
        let mut bags = vec![ItemBag::new(); net.len()];
        for u in net.sensor_ids() {
            for _ in 0..150 {
                if rng.gen_bool(0.4) {
                    bags[u.index()].add(rng.gen_range(1u64..4), 1);
                } else {
                    bags[u.index()].add(rng.gen_range(50u64..2000), 1);
                }
            }
        }
        (net, tree, bags)
    }

    #[test]
    fn finds_frequent_items_lossless() {
        let (net, tree, bags) = setup(111);
        let eps = 0.01;
        let mut rng = rng_from_seed(112);
        let res = run_tree_gk(&net, &tree, eps, &bags, &NoLoss, 0, &mut rng);
        let truth = count_items(&bags);
        assert_eq!(res.summary.population(), truth.total());
        let s = 0.05;
        let reported = res.report_frequent(s, eps);
        for item in true_frequent(&bags, s) {
            assert!(reported.contains(&item), "missing frequent item {item}");
        }
    }

    #[test]
    fn frequency_estimates_within_error() {
        let (net, tree, bags) = setup(113);
        let eps = 0.02;
        let mut rng = rng_from_seed(114);
        let res = run_tree_gk(&net, &tree, eps, &bags, &NoLoss, 0, &mut rng);
        let truth = count_items(&bags);
        let n = truth.total() as f64;
        for item in [1u64, 2, 3] {
            let est = res.summary.frequency(item) as f64;
            let err = (est - truth.count(item) as f64).abs();
            assert!(
                err <= 2.0 * eps * n + 2.0,
                "item {item}: est {est} truth {} err {err}",
                truth.count(item)
            );
        }
    }

    #[test]
    fn costs_more_than_min_total_load() {
        // Figure 8's qualitative claim: Quantiles-based transmits more
        // words than the paper's Min Total-load at the same ε.
        let (net, tree, bags) = setup(115);
        let eps = 0.01;
        let mut rng = rng_from_seed(116);
        let gk = run_tree_gk(&net, &tree, eps, &bags, &NoLoss, 0, &mut rng);
        let mtl = crate::tree::tests::min_total_load(&tree, eps);
        let mut rng = rng_from_seed(116);
        let (_, mtl) = crate::tree::tests::run(&net, &tree, &mtl, &bags, &NoLoss, 0, &mut rng);
        assert!(
            gk.stats.total_words() > mtl.total_words(),
            "GK {} words vs MTL {} words",
            gk.stats.total_words(),
            mtl.total_words()
        );
    }
}
