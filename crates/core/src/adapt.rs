//! Delta-region adaptation (§4.2): TD-Coarse and TD, with oscillation
//! damping.
//!
//! The base station watches the fraction of nodes contributing to each
//! answer. Below the user threshold it **expands** the delta (more
//! robustness); comfortably above, it **shrinks** (more exactness,
//! smaller messages):
//!
//! * **TD-Coarse** switches *all* switchable vertices at once — the delta
//!   grows/shrinks by a whole level. Fast convergence, but it cannot
//!   localize, and near the optimum it tends to overshoot in both
//!   directions.
//! * **TD** uses the per-subtree non-contribution reports: expansion
//!   switches the children of the switchable M vertex whose subtree
//!   reported the *most* missing nodes; shrinking switches the switchable
//!   M vertices that reported the *least*. Finer convergence, localized
//!   deltas (Figure 4), slower to converge (Figure 6c).
//!
//! Repeated expand/shrink alternation is damped by stretching the
//! adaptation interval (§4.2's "gradually reduces the frequency of
//! adjustments").

use crate::envelope::ExtremaSet;
use td_netsim::node::NodeId;
use td_topology::td::TdTopology;

/// Which adaptation strategy to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Switch every switchable vertex at once (whole-level moves).
    TdCoarse,
    /// Target the subtrees with extremal non-contribution.
    Td,
}

/// Adapter configuration.
#[derive(Clone, Copy, Debug)]
pub struct AdapterConfig {
    /// Minimum fraction of nodes that must contribute (paper: 0.9).
    pub threshold: f64,
    /// Epochs between adaptation decisions (paper: 10).
    pub adapt_every: u64,
    /// Margin above the threshold before shrinking is considered
    /// ("% contributing is well above the threshold").
    pub shrink_margin: f64,
    /// Consecutive expand/shrink alternations before damping kicks in.
    pub damping_after: u32,
}

/// Maximum damping multiplier on the adaptation interval.
const MAX_DAMPING: u64 = 8;

/// TD only: when the contribution deficit (threshold − pct) exceeds
/// this gap, expansion escalates to a whole-level (`expand_all`) move
/// for that step. §4.2 leaves TD's adaptivity heuristics open ("using
/// max/2 instead of max or maintaining the top-k values"); deficit-
/// proportional escalation keeps fine-grained, localized growth when
/// the target is close (Figure 4) and converges level-by-level like
/// TD-Coarse when loss is network-wide — where localization cannot
/// meet the target anyway.
const ESCALATION_GAP: f64 = 0.15;

impl Default for AdapterConfig {
    fn default() -> Self {
        AdapterConfig {
            threshold: 0.9,
            adapt_every: 10,
            shrink_margin: 0.07,
            damping_after: 2,
        }
    }
}

/// What an adaptation step did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptAction {
    /// Not an adaptation epoch (or damped).
    Idle,
    /// Expanded the delta by `switched` vertices.
    Expanded {
        /// Number of vertices switched T → M.
        switched: usize,
    },
    /// Shrank the delta by `switched` vertices.
    Shrunk {
        /// Number of vertices switched M → T.
        switched: usize,
    },
    /// An adaptation epoch where the contribution already met the target.
    Satisfied,
}

/// The base station's adaptation state machine.
#[derive(Clone, Debug)]
pub struct Adapter {
    config: AdapterConfig,
    strategy: Strategy,
    /// Sliding window of recent signed moves (+1 expand, −1 shrink).
    recent: std::collections::VecDeque<i8>,
    damping: u64,
    last_adapt_epoch: Option<u64>,
}

impl Adapter {
    /// Create an adapter running `strategy` (the session passes its
    /// scheme's).
    pub fn new(config: AdapterConfig, strategy: Strategy) -> Self {
        assert!((0.0..=1.0).contains(&config.threshold));
        assert!(config.adapt_every >= 1);
        Adapter {
            config,
            strategy,
            recent: std::collections::VecDeque::with_capacity(8),
            damping: 1,
            last_adapt_epoch: None,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AdapterConfig {
        &self.config
    }

    /// Current damping multiplier (1 = undamped).
    pub fn damping(&self) -> u64 {
        self.damping
    }

    /// Decide and apply an adaptation for the epoch that just finished.
    ///
    /// * `pct_contributing` — the base station's view of the contributing
    ///   fraction (in-band estimate or instrumented ground truth).
    /// * `max_noncontrib` / `min_noncontrib` — the §4.2 top-k extremum
    ///   reports fused through the delta (used by [`Strategy::Td`]).
    ///
    /// Every label switch this step applies re-mints the topology's
    /// version; the session's plan cache sees the moved version and
    /// rebuilds its compiled schedule in place before the next epoch.
    pub fn step(
        &mut self,
        topo: &mut TdTopology,
        epoch: u64,
        pct_contributing: f64,
        max_noncontrib: &ExtremaSet,
        min_noncontrib: &ExtremaSet,
    ) -> AdaptAction {
        let interval = self.config.adapt_every * self.damping;
        let due = match self.last_adapt_epoch {
            None => epoch + 1 >= self.config.adapt_every,
            Some(last) => epoch >= last + interval,
        };
        if !due {
            return AdaptAction::Idle;
        }
        self.last_adapt_epoch = Some(epoch);

        if pct_contributing < self.config.threshold {
            let escalate = self.strategy == Strategy::Td
                && pct_contributing < self.config.threshold - ESCALATION_GAP;
            let switched = match self.strategy {
                Strategy::TdCoarse => topo.expand_all(),
                Strategy::Td if escalate => topo.expand_all(),
                Strategy::Td => self.expand_td(topo, epoch, max_noncontrib),
            };
            // Coverage below target triggered an expansion attempt:
            // record what the decision saw and what it did.
            td_telemetry::td_event!(
                td_telemetry::Level::Debug,
                "adapt",
                "expand",
                td_telemetry::LogicalClock::at_epoch(epoch),
                pct = pct_contributing,
                threshold = self.config.threshold,
                escalated = escalate,
                switched = switched,
                delta = topo.delta_size(),
                damping = self.damping,
            );
            if switched > 0 {
                self.record_move(1);
                AdaptAction::Expanded { switched }
            } else {
                AdaptAction::Satisfied
            }
        } else if pct_contributing > self.config.threshold + self.config.shrink_margin
            && topo.delta_size() > 0
        {
            let switched = match self.strategy {
                Strategy::TdCoarse => topo.shrink_all(),
                Strategy::Td => self.shrink_td(topo, min_noncontrib),
            };
            td_telemetry::td_event!(
                td_telemetry::Level::Debug,
                "adapt",
                "shrink",
                td_telemetry::LogicalClock::at_epoch(epoch),
                pct = pct_contributing,
                threshold = self.config.threshold,
                switched = switched,
                delta = topo.delta_size(),
                damping = self.damping,
            );
            if switched > 0 {
                self.record_move(-1);
                AdaptAction::Shrunk { switched }
            } else {
                AdaptAction::Satisfied
            }
        } else {
            // In the band: stable; relax damping.
            self.recent.clear();
            self.damping = 1;
            td_telemetry::td_event!(
                td_telemetry::Level::Debug,
                "adapt",
                "satisfied",
                td_telemetry::LogicalClock::at_epoch(epoch),
                pct = pct_contributing,
                threshold = self.config.threshold,
                delta = topo.delta_size(),
            );
            AdaptAction::Satisfied
        }
    }

    /// TD expansion: switch the children of the switchable M vertices
    /// whose subtrees reported the most non-contributing nodes (the §4.2
    /// top-k heuristic; each report that is still an M vertex gets its
    /// subtree expanded). Falls back to the switchable M vertex with the
    /// largest subtree when no report is available (e.g. nothing reached
    /// the base station at all).
    fn expand_td(&self, topo: &mut TdTopology, epoch: u64, max_noncontrib: &ExtremaSet) -> usize {
        let mut switched = 0usize;
        // §4.2's max/2 heuristic: act on every report within half of the
        // worst one, so expansion parallelizes across genuinely lossy
        // subtrees without chasing single-node noise (which would smear
        // the delta outside the failure region).
        let floor = max_noncontrib
            .best()
            .map(|b| (b.value / 2).max(1))
            .unwrap_or(1);
        for e in max_noncontrib.entries() {
            if e.value < floor {
                continue;
            }
            if topo.mode(e.node) == td_topology::td::Mode::M {
                let got = topo.expand_subtree(e.node).unwrap_or(0);
                td_telemetry::td_event!(
                    td_telemetry::Level::Trace,
                    "adapt",
                    "expand-report",
                    td_telemetry::LogicalClock::at_epoch(epoch),
                    node = e.node.index(),
                    report = e.value,
                    switched = got,
                    children = topo.tree().children(e.node).len(),
                );
                switched += got;
            } else {
                td_telemetry::td_event!(
                    td_telemetry::Level::Trace,
                    "adapt",
                    "expand-skip",
                    td_telemetry::LogicalClock::at_epoch(epoch),
                    node = e.node.index(),
                    report = e.value,
                );
            }
        }
        if switched == 0 {
            let mut stack = Vec::new();
            let target = topo
                .switchable_m_iter()
                .max_by_key(|&n| subtree_size(topo, n, &mut stack));
            if let Some(node) = target {
                switched = topo.expand_subtree(node).unwrap_or(0);
            }
        }
        switched
    }

    /// TD shrink: switch every reported switchable M vertex whose count
    /// equals the minimum (the paper switches "each switchable M node
    /// whose subtree has only min nodes not contributing").
    fn shrink_td(&self, topo: &mut TdTopology, min_noncontrib: &ExtremaSet) -> usize {
        match min_noncontrib.best() {
            Some(best) => {
                let mut switched = 0usize;
                for e in min_noncontrib.entries() {
                    if e.value != best.value {
                        break; // sorted ascending: past the minimum band
                    }
                    if topo.switch_to_t(e.node).is_ok() {
                        switched += 1;
                    }
                }
                switched
            }
            None => {
                // No reports (e.g. delta is only the base station): shrink
                // the smallest-subtree switchable vertex.
                let mut stack = Vec::new();
                let target = topo
                    .switchable_m_iter()
                    .min_by_key(|&n| subtree_size(topo, n, &mut stack));
                match target {
                    Some(n) => topo.switch_to_t(n).map(|_| 1).unwrap_or(0),
                    None => 0,
                }
            }
        }
    }

    fn record_move(&mut self, dir: i8) {
        self.recent.push_back(dir);
        if self.recent.len() > 6 {
            self.recent.pop_front();
        }
        // Count trailing strict alternations.
        let mut alternations = 0;
        let v: Vec<i8> = self.recent.iter().copied().collect();
        for w in v.windows(2).rev() {
            if w[0] != w[1] {
                alternations += 1;
            } else {
                break;
            }
        }
        if alternations >= self.config.damping_after {
            self.damping = (self.damping * 2).min(MAX_DAMPING);
        } else if alternations == 0 && self.recent.len() >= 2 {
            self.damping = 1;
        }
    }
}

/// How many vertices hang from `root` in `topo`'s tree, itself included,
/// walked on the caller's `stack`. Switchable `M` vertices have only `T`
/// vertices below them, so their subtrees are disjoint and sizing every
/// candidate walks each vertex at most once.
fn subtree_size(topo: &TdTopology, root: NodeId, stack: &mut Vec<NodeId>) -> usize {
    stack.push(root);
    std::iter::from_fn(|| {
        let u = stack.pop()?;
        stack.extend_from_slice(topo.tree().children(u));
        Some(())
    })
    .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::Extremum;
    use td_netsim::network::Network;
    use td_netsim::node::{NodeId, Position};
    use td_netsim::rng::rng_from_seed;
    use td_topology::bushy::{build_bushy_tree, BushyOptions};
    use td_topology::rings::Rings;
    use td_topology::td::Mode;

    fn topo(seed: u64) -> TdTopology {
        let mut rng = rng_from_seed(seed);
        let net =
            Network::random_connected(200, 20.0, 20.0, Position::new(10.0, 10.0), 3.0, &mut rng);
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        TdTopology::new(rings, tree, 1)
    }

    /// The fallbacks' subtree size is the vertex plus everything below
    /// it: for every vertex, the nodes whose parent chain passes through
    /// it, with one stack reused across calls.
    #[test]
    fn subtree_size_counts_the_vertex_and_everything_below_it() {
        let td = topo(140);
        let tree = td.tree();
        let n = tree.len() as u32;
        let mut stack = Vec::new();
        for root in tree.tree_nodes() {
            let below = (0..n)
                .map(NodeId)
                .filter(|&u| std::iter::successors(Some(u), |&v| tree.parent(v)).any(|v| v == root))
                .count();
            assert_eq!(subtree_size(&td, root, &mut stack), below, "{root}");
        }
    }

    #[test]
    fn respects_adaptation_interval() {
        let mut td = topo(141);
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 10,
                ..Default::default()
            },
            Strategy::Td,
        );
        let none = ExtremaSet::largest();
        let none_min = ExtremaSet::smallest();
        for epoch in 0..8 {
            assert_eq!(
                adapter.step(&mut td, epoch, 0.2, &none, &none_min),
                AdaptAction::Idle,
                "epoch {epoch}"
            );
        }
        assert!(matches!(
            adapter.step(&mut td, 9, 0.2, &none, &none_min),
            AdaptAction::Expanded { .. }
        ));
        // Next decision only 10 epochs later.
        assert_eq!(
            adapter.step(&mut td, 10, 0.2, &none, &none_min),
            AdaptAction::Idle
        );
    }

    #[test]
    fn coarse_expands_whole_level_and_shrinks_back() {
        let mut td = topo(142);
        let before = td.delta_size();
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                ..Default::default()
            },
            Strategy::TdCoarse,
        );
        let a = adapter.step(
            &mut td,
            0,
            0.5,
            &ExtremaSet::largest(),
            &ExtremaSet::smallest(),
        );
        assert!(matches!(a, AdaptAction::Expanded { switched } if switched > 0));
        assert!(td.delta_size() > before);
        let b = adapter.step(
            &mut td,
            1,
            0.999,
            &ExtremaSet::largest(),
            &ExtremaSet::smallest(),
        );
        assert!(matches!(b, AdaptAction::Shrunk { switched } if switched > 0));
        assert_eq!(td.delta_size(), before);
        assert!(td.validate().is_ok());
    }

    #[test]
    fn td_expands_reported_subtree_only() {
        let mut td = topo(143);
        let reported = td
            .switchable_m_nodes()
            .into_iter()
            .find(|&n| !td.tree().children(n).is_empty())
            .expect("switchable M with children");
        let kids = td.tree().children(reported).len();
        let before = td.delta_size();
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                ..Default::default()
            },
            Strategy::Td,
        );
        let mut max = ExtremaSet::largest();
        max.insert(Extremum {
            value: 42,
            node: reported,
        });
        // pct close to the threshold: the fine-grained path (deficit
        // below the escalation gap) targets only the reported subtree.
        let action = adapter.step(&mut td, 0, 0.85, &max, &ExtremaSet::smallest());
        assert_eq!(action, AdaptAction::Expanded { switched: kids });
        assert_eq!(td.delta_size(), before + kids);
        for &c in td.tree().children(reported) {
            assert_eq!(td.mode(c), Mode::M);
        }
        assert!(td.validate().is_ok());
    }

    #[test]
    fn td_shrinks_min_reported_vertex() {
        let mut td = topo(144);
        let victim = td.switchable_m_nodes()[0];
        let before = td.delta_size();
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                ..Default::default()
            },
            Strategy::Td,
        );
        let mut min = ExtremaSet::smallest();
        min.insert(Extremum {
            value: 0,
            node: victim,
        });
        let action = adapter.step(&mut td, 0, 0.99, &ExtremaSet::largest(), &min);
        assert_eq!(action, AdaptAction::Shrunk { switched: 1 });
        assert_eq!(td.delta_size(), before - 1);
        assert_eq!(td.mode(victim), Mode::T);
    }

    #[test]
    fn within_band_is_satisfied() {
        let mut td = topo(145);
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                threshold: 0.9,
                shrink_margin: 0.07,
                ..Default::default()
            },
            Strategy::Td,
        );
        assert_eq!(
            adapter.step(
                &mut td,
                0,
                0.93,
                &ExtremaSet::largest(),
                &ExtremaSet::smallest()
            ),
            AdaptAction::Satisfied
        );
    }

    #[test]
    fn oscillation_triggers_damping() {
        let mut td = topo(146);
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                damping_after: 2,
                ..Default::default()
            },
            Strategy::TdCoarse,
        );
        // Force alternating expand/shrink decisions.
        let mut epoch = 0;
        for i in 0..6 {
            let pct = if i % 2 == 0 { 0.2 } else { 0.999 };
            loop {
                let action = adapter.step(
                    &mut td,
                    epoch,
                    pct,
                    &ExtremaSet::largest(),
                    &ExtremaSet::smallest(),
                );
                epoch += 1;
                if action != AdaptAction::Idle {
                    break;
                }
            }
        }
        assert!(adapter.damping() > 1, "damping did not engage");
        // A stable in-band reading resets damping.
        loop {
            let action = adapter.step(
                &mut td,
                epoch,
                0.93,
                &ExtremaSet::largest(),
                &ExtremaSet::smallest(),
            );
            epoch += 1;
            if action != AdaptAction::Idle {
                break;
            }
        }
        assert_eq!(adapter.damping(), 1);
    }

    #[test]
    fn expansion_converges_to_full_delta() {
        let mut td = topo(147);
        let total = td.rings().connected_count();
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                ..Default::default()
            },
            Strategy::TdCoarse,
        );
        for epoch in 0..50 {
            adapter.step(
                &mut td,
                epoch,
                0.1,
                &ExtremaSet::largest(),
                &ExtremaSet::smallest(),
            );
        }
        assert_eq!(
            td.delta_size(),
            total,
            "delta did not reach the whole network"
        );
        assert!(td.validate().is_ok());
    }

    #[test]
    fn stale_extremum_node_falls_back_gracefully() {
        // A max-noncontrib report naming a vertex that has since become T
        // must not panic; the adapter falls back to the largest subtree.
        let mut td = topo(148);
        let t_vertex = td
            .rings()
            .connected_nodes()
            .find(|&n| td.mode(n) == Mode::T)
            .unwrap();
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                ..Default::default()
            },
            Strategy::Td,
        );
        let mut max = ExtremaSet::largest();
        max.insert(Extremum {
            value: 7,
            node: t_vertex,
        });
        let action = adapter.step(&mut td, 0, 0.3, &max, &ExtremaSet::smallest());
        assert!(matches!(action, AdaptAction::Expanded { .. }));
        assert!(td.validate().is_ok());
    }

    #[test]
    fn shrink_with_nonswitchable_min_is_noop_not_panic() {
        let mut td = topo(149);
        // The base station is M but not switchable while level-1 M nodes
        // exist; a min report naming it must not corrupt the topology.
        let mut adapter = Adapter::new(
            AdapterConfig {
                adapt_every: 1,
                ..Default::default()
            },
            Strategy::Td,
        );
        let mut min = ExtremaSet::smallest();
        min.insert(Extremum {
            value: 0,
            node: NodeId(0),
        });
        let action = adapter.step(&mut td, 0, 0.99, &ExtremaSet::largest(), &min);
        // Either it shrank nothing (Satisfied) or a legal single switch.
        match action {
            AdaptAction::Satisfied | AdaptAction::Shrunk { .. } | AdaptAction::Idle => {}
            other => panic!("unexpected action {other:?}"),
        }
        assert!(td.validate().is_ok());
    }
}
