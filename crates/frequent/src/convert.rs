//! The Tributary-Delta conversion function for frequent items (§6.3).
//!
//! When a tributary root hands its ε(k)-summary to its delta parent, the
//! parent re-expresses it as a multi-path synopsis by applying the SG
//! function to the summary's estimated frequencies: each `c̃(u)` is
//! treated as an actual frequency (its pseudo-occurrences salted by the
//! *tributary root*, which path correctness guarantees is the root of a
//! unique subtree), and the SG pruning threshold is applied with
//! `n' = n` from the summary. The final error is at most the sum of the
//! tree error ε_a and the multi-path error ε_b, so a deployment targeting
//! ε splits the budget as `ε_a + ε_b = ε`.

use crate::multipath::{MultipathConfig, SynopsisSet};
use crate::summary::FreqSummary;
use td_netsim::node::NodeId;
use td_sketches::counter::CounterFactory;
use td_sketches::hash::keyed;

/// Salt namespace for tree-root populations (kept distinct from live node
/// populations so a root's converted items never collide with its own
/// multi-path contributions in some other epoch).
const CONVERT_KEY: u64 = 0x7DC0;

/// Convert a tree summary from tributary root `root` into a multi-path
/// synopsis and insert it into `set` (built in the set's retired
/// storage). Returns `false`, inserting nothing, if the summary covers
/// no items.
pub fn convert_summary_into<F: CounterFactory>(
    cfg: &MultipathConfig<F>,
    root: NodeId,
    summary: &FreqSummary,
    set: &mut SynopsisSet<F::Counter>,
) -> bool {
    set.insert_generated(
        cfg,
        keyed(CONVERT_KEY, root.0 as u64),
        summary.iter(),
        summary.n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::ItemBag;
    use crate::multipath::generate_from_bag;
    use td_sketches::counter::ExactFactory;

    fn cfg(eps: f64) -> MultipathConfig<ExactFactory> {
        MultipathConfig::new(eps, 1.5, 1 << 20, ExactFactory)
    }

    #[test]
    fn conversion_preserves_population_and_heavy_counts() {
        let cfg = cfg(0.01);
        let bag = ItemBag::from_counts([(1, 5000), (2, 2000), (3, 10)]);
        let tree = FreqSummary::combine(&[FreqSummary::local(&bag)], &FreqSummary::empty(), 0.001);
        let mut set = SynopsisSet::new();
        assert!(convert_summary_into(&cfg, NodeId(7), &tree, &mut set));
        let est = set.evaluate();
        // ñ equals the tree summary's population exactly (exact counters).
        assert!((est.n_est - tree.n as f64).abs() < 1e-9);
        // Heavy counts carried through within the tree deficiency.
        let c1 = est.counts[&1];
        assert!(c1 <= 5000.0 && c1 >= 5000.0 - 0.001 * tree.n as f64 - 1.0);
    }

    #[test]
    fn conversion_is_deterministic_and_dedups() {
        // The same summary converted twice (e.g. a duplicated delivery)
        // fuses to the same estimates.
        let cfg = cfg(0.01);
        let bag = ItemBag::from_counts([(1, 3000), (2, 1500)]);
        let tree = FreqSummary::local(&bag);
        let mut set = SynopsisSet::new();
        assert!(convert_summary_into(&cfg, NodeId(3), &tree, &mut set));
        assert!(convert_summary_into(&cfg, NodeId(3), &tree, &mut set));
        set.compact(&cfg);
        let est = set.evaluate();
        assert!((est.n_est - 4500.0).abs() < 1e-9);
        assert!((est.counts[&1] - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn different_roots_are_disjoint_populations() {
        let cfg = cfg(0.01);
        let bag = ItemBag::from_counts([(1, 1000)]);
        let tree = FreqSummary::local(&bag);
        let mut set = SynopsisSet::new();
        assert!(convert_summary_into(&cfg, NodeId(3), &tree, &mut set));
        assert!(convert_summary_into(&cfg, NodeId(4), &tree, &mut set));
        set.compact(&cfg);
        let est = set.evaluate();
        assert!((est.n_est - 2000.0).abs() < 1e-9);
        assert!((est.counts[&1] - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn converted_and_native_synopses_mix() {
        // The Figure 3 situation: a delta node fuses native multi-path
        // synopses with a converted tributary summary.
        let cfg = cfg(0.01);
        let tree = FreqSummary::local(&ItemBag::from_counts([(1, 1024), (9, 600)]));
        let mut set = SynopsisSet::new();
        assert!(convert_summary_into(&cfg, NodeId(2), &tree, &mut set));
        let native = generate_from_bag(
            &cfg,
            NodeId(5),
            &ItemBag::from_counts([(1, 1024), (7, 512)]),
        )
        .unwrap();
        set.insert(native);
        set.compact(&cfg);
        let est = set.evaluate();
        assert!((est.n_est - (1624.0 + 1536.0)).abs() < 1e-9);
        assert!((est.counts[&1] - 2048.0).abs() < 1e-9);
        assert!((est.counts[&7] - 512.0).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_converts_to_none() {
        let cfg = cfg(0.01);
        let mut set = SynopsisSet::new();
        assert!(!convert_summary_into(
            &cfg,
            NodeId(1),
            &FreqSummary::empty(),
            &mut set
        ));
        assert!(set.is_empty());
    }
}
