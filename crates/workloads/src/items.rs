//! Item streams for the frequent-items experiments (§7.4), and
//! [`run_on_tree`], the one epoch those experiments run over a tree they
//! built themselves.

use crate::labdata::LabData;
use rand::distributions::Distribution;
use rand::Rng;
use td_frequent::items::ItemBag;
use td_netsim::loss::{LossModel, Retransmit};
use td_netsim::network::Network;
use td_netsim::rng::substream;
use td_netsim::stats::CommStats;
use td_topology::tree::Tree;
use tributary_delta::{EpochPlan, Protocol, QuerySet, RunnerConfig, Scheme, SessionConfig};

/// A Zipf sampler over items `0..universe` with exponent `alpha`
/// (inverse-CDF over precomputed cumulative weights).
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Build a sampler.
    ///
    /// # Panics
    /// Panics if `universe == 0` or `alpha < 0`.
    pub fn new(universe: usize, alpha: f64) -> Self {
        assert!(universe > 0);
        assert!(alpha >= 0.0);
        let mut cumulative = Vec::with_capacity(universe);
        let mut acc = 0.0;
        for rank in 1..=universe {
            acc += 1.0 / (rank as f64).powf(alpha);
            cumulative.push(acc);
        }
        let total = acc;
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }
}

impl Distribution<u64> for Zipf {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("finite"))
        {
            Ok(i) | Err(i) => i.min(self.cumulative.len() - 1) as u64,
        }
    }
}

/// Zipf-skewed per-node bags: every node draws `per_node` items from the
/// same global Zipf(`alpha`) distribution over `universe` items — the
/// "consensus reading" workload motivating frequent items (§5).
pub fn zipf_bags(
    net: &Network,
    per_node: usize,
    universe: usize,
    alpha: f64,
    seed: u64,
) -> Vec<ItemBag> {
    let zipf = Zipf::new(universe, alpha);
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        let mut rng = substream(seed, 0x21F0 + u.0 as u64);
        for _ in 0..per_node {
            bags[u.index()].add(zipf.sample(&mut rng), 1);
        }
    }
    bags
}

/// §7.4.2's synthetic stress: "the same item never occurs in multiple
/// streams and within a stream the items are uniformly distributed".
/// Node `i` draws uniformly from its private range of `values_per_node`
/// item ids.
pub fn disjoint_uniform_bags(
    net: &Network,
    per_node: usize,
    values_per_node: u64,
    seed: u64,
) -> Vec<ItemBag> {
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        let base = u.0 as u64 * values_per_node;
        let mut rng = substream(seed, 0xD150 + u.0 as u64);
        for _ in 0..per_node {
            bags[u.index()].add(base + rng.gen_range(0..values_per_node), 1);
        }
    }
    bags
}

/// LabData item streams: each mote's discretized light readings over a
/// window of epochs (the realistic skew used in Figures 8 and 9).
pub fn labdata_bags(lab: &LabData, window_epochs: u64) -> Vec<ItemBag> {
    let net = lab.network();
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        for epoch in 0..window_epochs {
            bags[u.index()].add(LabData::discretize(lab.light_reading(u.0, epoch)), 1);
        }
    }
    bags
}

/// One epoch (epoch 0) of `proto` over a given aggregation `tree`, on
/// the epoch engine: the all-`T` plan of the tree, run with TAG's paper
/// defaults (no adaptation fields charged) and `retries`
/// retransmissions per tree link. Returns the answer and the epoch's
/// communication. This is how Figure 8, the tree ablation and the
/// frequent-items tests run Algorithm 1 on the bushy trees they build;
/// a scheme that builds its own topology runs on a
/// [`Session`](tributary_delta::Session) instead.
pub fn run_on_tree<P: Protocol, M: LossModel, R: Rng + ?Sized>(
    net: &Network,
    tree: &Tree,
    proto: &P,
    model: &M,
    retries: u32,
    rng: &mut R,
) -> (P::Output, CommStats) {
    let mut set = QuerySet::new();
    set.register(proto);
    let config = RunnerConfig {
        tree_retransmit: Retransmit { retries },
        ..SessionConfig::paper_defaults(Scheme::Tag).runner
    };
    let mut stats = CommStats::new(net.len());
    let mut out =
        EpochPlan::compile_tag(tree).run_set(&set, net, model, config, 0, &mut stats, rng);
    let output = out
        .outputs
        .pop()
        .and_then(|o| o.downcast::<P::Output>().ok())
        .expect("the one registered query answered");
    (*output, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_frequent::items::count_items;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;

    fn small_net() -> Network {
        let mut rng = rng_from_seed(1);
        Network::random_connected(40, 20.0, 20.0, Position::new(10.0, 10.0), 5.0, &mut rng)
    }

    #[test]
    fn zipf_is_skewed_and_normalized() {
        let z = Zipf::new(1000, 1.1);
        let mut rng = rng_from_seed(2);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        // Rank-1 item much more frequent than rank-100.
        assert!(counts[0] > 10 * counts[99].max(1));
        assert_eq!(counts.iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut rng = rng_from_seed(3);
        let mut counts = vec![0u64; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 1000.0).abs() < 150.0, "non-uniform: {counts:?}");
        }
    }

    #[test]
    fn zipf_bags_share_heavy_items() {
        let net = small_net();
        let bags = zipf_bags(&net, 200, 5000, 1.2, 4);
        let all = count_items(&bags);
        assert_eq!(all.total(), 200 * net.num_sensors() as u64);
        // Item 0 (rank 1) dominates globally.
        assert!(all.count(0) as f64 > 0.1 * all.total() as f64);
    }

    #[test]
    fn disjoint_bags_never_overlap() {
        let net = small_net();
        let bags = disjoint_uniform_bags(&net, 100, 50, 5);
        for u in net.sensor_ids() {
            for (item, _) in bags[u.index()].iter() {
                let owner = item / 50;
                assert_eq!(owner, u.0 as u64, "item {item} leaked across streams");
            }
        }
    }

    #[test]
    fn bags_are_deterministic() {
        let net = small_net();
        let a = zipf_bags(&net, 50, 100, 1.0, 9);
        let b = zipf_bags(&net, 50, 100, 1.0, 9);
        assert_eq!(a, b);
        let c = zipf_bags(&net, 50, 100, 1.0, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn labdata_bags_skewed_by_daylight() {
        let lab = LabData::new(11);
        let bags = labdata_bags(&lab, 200);
        let all = count_items(&bags);
        assert_eq!(all.total(), 200 * 54);
        // The discretized universe is small and skewed: some item should
        // be clearly frequent at s = 5%.
        let n = all.total() as f64;
        assert!(
            !all.items_above(0.05 * n).is_empty(),
            "no frequent items in LabData streams"
        );
    }
}
