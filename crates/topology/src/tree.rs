//! Spanning aggregation trees and the standard TAG construction.

use rand::seq::SliceRandom;
use rand::Rng;
use td_netsim::loss::LossModel;
use td_netsim::network::Network;
use td_netsim::node::{NodeId, BASE_STATION};

/// A spanning tree rooted at the base station, used for tree-based
/// in-network aggregation (TAG \[10\] and the tree parts of Tributary-Delta).
///
/// Nodes disconnected from the base station have no parent and are excluded
/// from aggregation. Levels are tree depths (base station = 0); heights
/// follow §6.1's recursive definition (leaf = 1; internal node = 1 + max
/// child height).
#[derive(Clone, Debug)]
pub struct Tree {
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<Option<u16>>,
    in_tree: Vec<bool>,
}

impl Tree {
    /// Build a tree from a parent array (`parent[0]` must be `None`; every
    /// other in-tree node must eventually reach the base station).
    ///
    /// # Panics
    /// Panics if the parent relation has a cycle or the base station has a
    /// parent.
    pub fn from_parents(parent: Vec<Option<NodeId>>) -> Self {
        assert!(!parent.is_empty(), "tree needs at least the base station");
        assert!(parent[0].is_none(), "base station cannot have a parent");
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                assert!(p.index() < n, "parent out of range");
                assert!(p.index() != i, "self-parenting at node {i}");
                children[p.index()].push(NodeId(i as u32));
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        // Compute depths by BFS from the root; in-tree = reachable from root.
        let mut depth = vec![None; n];
        let mut in_tree = vec![false; n];
        depth[0] = Some(0);
        in_tree[0] = true;
        let mut queue = std::collections::VecDeque::from([BASE_STATION]);
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            let du = depth[u.index()].unwrap();
            for &c in &children[u.index()] {
                depth[c.index()] = Some(du + 1);
                in_tree[c.index()] = true;
                visited += 1;
                queue.push_back(c);
            }
        }
        // Any node with a parent but unreachable from the root is on a cycle
        // or dangles from one.
        let with_parent = parent.iter().filter(|p| p.is_some()).count();
        assert!(
            visited == with_parent + 1,
            "parent relation contains a cycle ({} reachable, {} with parents)",
            visited,
            with_parent
        );
        Tree {
            parent,
            children,
            depth,
            in_tree,
        }
    }

    /// The parent of a node (`None` for the base station and for
    /// disconnected nodes).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent[id.index()]
    }

    /// The children of a node, in id order.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.children[id.index()]
    }

    /// Tree depth of a node (base station = 0), `None` if not in the tree.
    #[inline]
    pub fn depth(&self, id: NodeId) -> Option<u16> {
        self.depth[id.index()]
    }

    /// Whether the node is connected to the base station through the tree.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        self.in_tree[id.index()]
    }

    /// Total number of nodes tracked (in-tree or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True iff only the base station is tracked.
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Number of nodes in the tree (connected to the base station).
    pub fn tree_size(&self) -> usize {
        self.in_tree.iter().filter(|&&b| b).count()
    }

    /// Iterator over in-tree node ids.
    pub fn tree_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.parent.len() as u32)
            .map(NodeId)
            .filter(|id| self.in_tree[id.index()])
    }

    /// Maximum depth over in-tree nodes.
    pub fn max_depth(&self) -> u16 {
        self.depth.iter().flatten().copied().max().unwrap_or(0)
    }

    /// Heights per §6.1: leaves have height 1, internal nodes 1 + max child
    /// height. Nodes outside the tree get height 0.
    pub fn heights(&self) -> Vec<u32> {
        let mut heights = vec![0u32; self.parent.len()];
        // Process nodes by decreasing depth so children are done first.
        let mut order: Vec<NodeId> = self.tree_nodes().collect();
        order.sort_by_key(|id| std::cmp::Reverse(self.depth[id.index()]));
        for u in order {
            let h = self.children[u.index()]
                .iter()
                .map(|c| heights[c.index()])
                .max()
                .map_or(1, |m| m + 1);
            heights[u.index()] = h;
        }
        heights
    }

    /// In-tree nodes ordered by decreasing depth (leaves first) — the order
    /// in which level-synchronized aggregation processes senders.
    pub fn bottom_up_order(&self) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = self.tree_nodes().collect();
        order.sort_by_key(|id| (std::cmp::Reverse(self.depth[id.index()]), id.0));
        order
    }

    /// Re-parent `child` onto `new_parent` **in place**, preserving every
    /// node's depth: the new parent must sit at the same depth as the
    /// current one (for ring-restricted trees that is exactly the §4.1
    /// constraint — any ring receiver of `child` qualifies). Because
    /// depths are untouched, the switch can never create a cycle and no
    /// derived order (bottom-up, level-synchronized) changes — a parent
    /// switch is a *bounded structural delta*, the same way a label
    /// switch is. Heights and subtree sizes along the two ancestor
    /// chains do change; they are recomputed on demand by
    /// [`heights`](Self::heights) (and by a compiled epoch plan when it
    /// rebuilds in place).
    ///
    /// A no-op when `new_parent` is already the parent.
    ///
    /// # Panics
    /// Panics if `child` has no parent (base station or disconnected),
    /// `new_parent` is not in the tree, or the depths differ.
    pub fn switch_parent(&mut self, child: NodeId, new_parent: NodeId) {
        let old = self.parent[child.index()]
            .unwrap_or_else(|| panic!("{child} has no parent to switch away from"));
        if old == new_parent {
            return;
        }
        assert!(
            self.in_tree[new_parent.index()],
            "new parent {new_parent} is not in the tree"
        );
        assert_eq!(
            self.depth[old.index()],
            self.depth[new_parent.index()],
            "parent switch must preserve {child}'s depth ({old} -> {new_parent})"
        );
        let olds = &mut self.children[old.index()];
        let pos = olds
            .iter()
            .position(|&c| c == child)
            .expect("child listed under its parent");
        olds.remove(pos);
        let news = &mut self.children[new_parent.index()];
        let pos = news.binary_search(&child).expect_err("not yet a child");
        news.insert(pos, child);
        self.parent[child.index()] = Some(new_parent);
    }

    /// Check that every tree edge `(child, parent)` is also a radio link of
    /// `net` and, if `rings_level` is provided, that each parent sits exactly
    /// one ring level below its child (the §4.1 synchronization constraint).
    pub fn respects_links(
        &self,
        net: &Network,
        rings_level: Option<&dyn Fn(NodeId) -> Option<u16>>,
    ) -> bool {
        for u in self.tree_nodes() {
            if let Some(p) = self.parent(u) {
                if !net.in_range(u, p) {
                    return false;
                }
                if let Some(level_of) = rings_level {
                    match (level_of(u), level_of(p)) {
                        (Some(lu), Some(lp)) if lp + 1 == lu => {}
                        _ => return false,
                    }
                }
            }
        }
        true
    }
}

/// How the TAG construction picks a parent among the candidates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ParentSelection {
    /// Uniformly at random (the default flood behaviour: first broadcast
    /// heard, with random tie-breaking).
    #[default]
    Random,
    /// The candidate with the best (lowest-loss) link, the link-quality
    /// parent choice of \[24\].
    BestLink,
}

/// Build a standard TAG spanning tree \[10\].
///
/// Nodes attach level-by-level outward from the base station: a node at hop
/// level `L` picks its parent among radio neighbors at hop level `L−1`
/// *plus* — since the standard algorithm "allows choosing a parent from the
/// same level" (§6.1.3) — same-level neighbors that attached earlier in the
/// flood. Selection follows `selection`; `quality` supplies link loss rates
/// for [`ParentSelection::BestLink`].
pub fn build_tag_tree<R: Rng + ?Sized>(
    net: &Network,
    selection: ParentSelection,
    quality: Option<&dyn LossModel>,
    allow_same_level: bool,
    rng: &mut R,
) -> Tree {
    let hops = net.hop_counts();
    let mut parent: Vec<Option<NodeId>> = vec![None; net.len()];
    let mut attached = vec![false; net.len()];
    attached[BASE_STATION.index()] = true;
    let max_hop = hops
        .iter()
        .filter(|&&h| h != u32::MAX)
        .copied()
        .max()
        .unwrap_or(0);
    for level in 1..=max_hop {
        // Random arrival order within the level models the flood's timing.
        let mut this_level: Vec<NodeId> = net
            .node_ids()
            .filter(|id| hops[id.index()] == level)
            .collect();
        this_level.shuffle(rng);
        for u in this_level {
            let mut candidates: Vec<NodeId> = net
                .neighbors(u)
                .iter()
                .copied()
                .filter(|v| {
                    let hv = hops[v.index()];
                    hv + 1 == level || (allow_same_level && hv == level && attached[v.index()])
                })
                .collect();
            if candidates.is_empty() {
                continue; // unreachable in a connected net, defensive otherwise
            }
            let choice = match selection {
                ParentSelection::Random => *candidates.choose(rng).expect("non-empty"),
                ParentSelection::BestLink => {
                    let model = quality.expect("BestLink selection requires a quality model");
                    candidates.sort_by(|&a, &b| {
                        let la = model.loss_rate(u, a, net, 0);
                        let lb = model.loss_rate(u, b, net, 0);
                        la.partial_cmp(&lb)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then(a.0.cmp(&b.0))
                    });
                    candidates[0]
                }
            };
            parent[u.index()] = Some(choice);
            attached[u.index()] = true;
        }
    }
    Tree::from_parents(parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_netsim::loss::DistanceLoss;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;

    fn random_net(n: usize, seed: u64) -> Network {
        let mut rng = rng_from_seed(seed);
        Network::random_in_rect(n, 20.0, 20.0, Position::new(10.0, 10.0), 3.0, &mut rng)
    }

    #[test]
    fn from_parents_builds_children_and_depths() {
        // base <- 1 <- 2, base <- 3
        let tree = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(0)),
        ]);
        assert_eq!(tree.children(BASE_STATION), &[NodeId(1), NodeId(3)]);
        assert_eq!(tree.depth(NodeId(2)), Some(2));
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(tree.tree_size(), 4);
        assert_eq!(tree.heights(), vec![3, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detected() {
        let _ = Tree::from_parents(vec![None, Some(NodeId(2)), Some(NodeId(1))]);
    }

    #[test]
    #[should_panic(expected = "base station cannot have a parent")]
    fn base_parent_rejected() {
        let _ = Tree::from_parents(vec![Some(NodeId(1)), None]);
    }

    #[test]
    fn disconnected_nodes_excluded() {
        let tree = Tree::from_parents(vec![None, Some(NodeId(0)), None]);
        assert!(tree.contains(NodeId(1)));
        assert!(!tree.contains(NodeId(2)));
        assert_eq!(tree.tree_size(), 2);
        assert_eq!(tree.heights()[2], 0);
    }

    #[test]
    fn tag_tree_spans_connected_network() {
        let net = random_net(200, 31);
        assert!(net.is_connected());
        let mut rng = rng_from_seed(32);
        let tree = build_tag_tree(&net, ParentSelection::Random, None, false, &mut rng);
        assert_eq!(tree.tree_size(), net.len());
        assert!(tree.respects_links(&net, None));
    }

    #[test]
    fn tag_tree_parents_at_lower_hop_level_when_same_level_disallowed() {
        let net = random_net(150, 33);
        let hops = net.hop_counts();
        let mut rng = rng_from_seed(34);
        let tree = build_tag_tree(&net, ParentSelection::Random, None, false, &mut rng);
        for u in tree.tree_nodes() {
            if let Some(p) = tree.parent(u) {
                assert_eq!(hops[p.index()] + 1, hops[u.index()]);
            }
        }
    }

    #[test]
    fn tag_tree_same_level_allowed_still_acyclic_and_spanning() {
        let net = random_net(150, 35);
        let mut rng = rng_from_seed(36);
        let tree = build_tag_tree(&net, ParentSelection::Random, None, true, &mut rng);
        assert_eq!(tree.tree_size(), net.len()); // from_parents would panic on a cycle
    }

    #[test]
    fn best_link_prefers_closer_parent() {
        // Triangle: node 2 can attach to base (far) or node 1 (near);
        // distance-based quality should pick node 1... but node 1 is at the
        // same hop level as node 2, so restrict to a 2-hop chain shape.
        let net = Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),  // level 1, near node 2
                Position::new(1.9, 0.01), // level 1 via base? dist to base 1.9 < 2.0 range
                Position::new(2.8, 0.0),  // level 2: neighbors = 1 (d=1.8), 2 (d=0.9)
            ],
            2.0,
        );
        let quality = DistanceLoss::new(0.0, 0.9, 1.0);
        let mut rng = rng_from_seed(37);
        let tree = build_tag_tree(
            &net,
            ParentSelection::BestLink,
            Some(&quality),
            false,
            &mut rng,
        );
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
    }

    #[test]
    fn bottom_up_order_children_before_parents() {
        let net = random_net(100, 38);
        let mut rng = rng_from_seed(39);
        let tree = build_tag_tree(&net, ParentSelection::Random, None, false, &mut rng);
        let order = tree.bottom_up_order();
        let pos: std::collections::HashMap<NodeId, usize> = order
            .iter()
            .copied()
            .enumerate()
            .map(|(i, n)| (n, i))
            .collect();
        for u in tree.tree_nodes() {
            if let Some(p) = tree.parent(u) {
                assert!(pos[&u] < pos[&p], "{u} not before its parent {p}");
            }
        }
    }

    #[test]
    fn switch_parent_moves_subtree_and_refreshes_derivations() {
        // base <- 1 <- 3, base <- 2; move 3 under 2 (same depth parents).
        let mut tree = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
        ]);
        assert_eq!(tree.heights(), vec![3, 2, 1, 1]);
        tree.switch_parent(NodeId(3), NodeId(2));
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(2)));
        assert_eq!(tree.children(NodeId(1)), &[] as &[NodeId]);
        assert_eq!(tree.children(NodeId(2)), &[NodeId(3)]);
        assert_eq!(tree.depth(NodeId(3)), Some(2), "depth preserved");
        assert_eq!(tree.heights(), vec![3, 1, 2, 1]);
        // Switching back restores the original shape.
        tree.switch_parent(NodeId(3), NodeId(1));
        assert_eq!(tree.heights(), vec![3, 2, 1, 1]);
        // No-op switch changes nothing.
        tree.switch_parent(NodeId(3), NodeId(1));
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "must preserve")]
    fn switch_parent_rejects_depth_changes() {
        let mut tree = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(0)),
        ]);
        // Node 3 (depth 1) cannot adopt node 1 (depth 1) as parent: its
        // current parent is the base (depth 0).
        tree.switch_parent(NodeId(3), NodeId(1));
    }

    #[test]
    fn heights_of_chain_and_star() {
        // Chain of 4: heights 4,3,2,1. Star: root height 2, leaves 1.
        let chain = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(1)),
            Some(NodeId(2)),
        ]);
        assert_eq!(chain.heights(), vec![4, 3, 2, 1]);
        let star = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(0)),
        ]);
        assert_eq!(star.heights(), vec![2, 1, 1, 1]);
    }
}
