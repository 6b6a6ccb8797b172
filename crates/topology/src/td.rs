//! The labeled Tributary-Delta graph (§3).
//!
//! Every vertex runs either a tree algorithm (`T`, a *tributary*) or a
//! multi-path algorithm (`M`, part of the *delta*). Correctness requires
//! that a multi-path partial result is only ever consumed by a multi-path
//! vertex (Property 1, *edge correctness*; equivalently Property 2, *path
//! correctness*: on any path, no `T` edge after an `M` edge). Receivers
//! enforce this by construction: `T` vertices accept partial results only
//! from their tree children, and `M` vertices accept synopses from `M`
//! ring-sources plus tree partials from their `T` tree children (which
//! they convert, §5).
//!
//! The resulting structural invariant maintained by this module is
//! **upward closure**: the tree parent of every non-base `M` vertex is
//! itself `M`. Together with the §4.1 restriction (tree links ⊆ ring
//! links), this guarantees every `M` vertex has at least one `M` receiver
//! one ring level down, so no delta data is orphaned, and the delta region
//! is a connected blob containing the base station — exactly Figure 1.
//!
//! Switchability follows the paper:
//! * a `T` vertex is switchable iff its parent is `M` (or it has no parent
//!   — the base station);
//! * an `M` vertex is switchable iff all its incoming edges are `T` edges,
//!   i.e. no ring neighbor one level *above* it is labeled `M`.
//!
//! Observation 1 (children of a switchable `M` vertex are switchable `T`
//! vertices) and Lemma 1 (nonempty `T`/`M` sets always contain a
//! switchable vertex) hold by construction and are verified in tests.

use crate::rings::Rings;
use crate::tree::Tree;
use td_netsim::node::{NodeId, BASE_STATION};

/// The aggregation mode a vertex runs (§3's vertex labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Tree aggregation (a tributary vertex).
    T,
    /// Multi-path aggregation (a delta vertex).
    M,
}

/// The process-global version mint. Every topology version — initial or
/// post-mutation — is drawn from here, so a version value is unique
/// across *all* [`TdTopology`] instances and lineages: equal versions
/// imply an identical labeling and tree, and a cached plan can never be fooled
/// by a rebuilt (or cloned-and-diverged) topology whose own counter
/// happens to land on the same number — its versions are different
/// numbers by construction, so a stale plan always fails the version
/// check instead of silently reusing a dead schedule.
static NEXT_VERSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Mint a fresh, process-globally-unique topology version.
fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// Errors from label-switching operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchError {
    /// The vertex is not currently switchable in the requested direction.
    NotSwitchable(NodeId),
    /// The vertex is disconnected from the base station.
    Disconnected(NodeId),
    /// The requested tree parent is not a legal choice for the vertex:
    /// not a ring receiver one level down, or a `T`-labeled parent for
    /// an `M`-labeled child (which would break upward closure).
    InvalidParent(NodeId),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::NotSwitchable(id) => write!(f, "{id} is not switchable"),
            SwitchError::Disconnected(id) => write!(f, "{id} is not connected to the base"),
            SwitchError::InvalidParent(id) => write!(f, "{id} is not a legal tree parent here"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// A Tributary-Delta aggregation topology: rings + a ring-restricted tree +
/// per-vertex mode labels, with the §3 correctness invariants maintained
/// across every switch.
/// ```
/// use td_netsim::network::Network;
/// use td_netsim::node::Position;
/// use td_netsim::rng::rng_from_seed;
/// use td_topology::bushy::{build_bushy_tree, BushyOptions};
/// use td_topology::rings::Rings;
/// use td_topology::td::TdTopology;
///
/// let mut rng = rng_from_seed(1);
/// let net = Network::random_connected(80, 10.0, 10.0, Position::new(5.0, 5.0), 2.5, &mut rng);
/// let rings = Rings::build(&net);
/// let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
/// let mut td = TdTopology::new(rings, tree, 1); // delta = ring levels ≤ 1
///
/// let before = td.delta_size();
/// td.expand_all();                  // widen the delta one level
/// assert!(td.delta_size() > before);
/// td.validate().unwrap();           // edge/path correctness maintained
/// ```
#[derive(Clone, Debug)]
pub struct TdTopology {
    rings: Rings,
    tree: Tree,
    label: Vec<Mode>,
    /// Re-minted on every successful mutation (labels or tree parents);
    /// lets callers cache derived structures (compiled epoch plans) and
    /// refresh them only when the topology actually changed.
    version: u64,
}

impl TdTopology {
    /// Create a topology whose delta region is all vertices with ring level
    /// ≤ `delta_levels` (0 = just the base station). The tree must respect
    /// the §4.1 restriction: every tree parent is exactly one ring level
    /// below its child.
    ///
    /// # Panics
    /// Panics if the tree violates the ring restriction.
    pub fn new(rings: Rings, tree: Tree, delta_levels: u16) -> Self {
        let n = rings.len();
        assert_eq!(n, tree.len(), "rings and tree must cover the same nodes");
        for u in tree.tree_nodes() {
            if let Some(p) = tree.parent(u) {
                let lu = rings.level(u).expect("tree node must be ring-connected");
                let lp = rings.level(p).expect("tree parent must be ring-connected");
                assert_eq!(
                    lp + 1,
                    lu,
                    "tree link {u}->{p} violates the ring-level restriction"
                );
            }
        }
        let mut label = vec![Mode::T; n];
        for u in rings.connected_nodes() {
            if rings.level(u).unwrap() <= delta_levels {
                label[u.index()] = Mode::M;
            }
        }
        let td = TdTopology {
            rings,
            tree,
            label,
            version: fresh_version(),
        };
        debug_assert!(td.validate().is_ok());
        td
    }

    /// Pure-tree topology: the delta region is empty (even the base station
    /// runs the tree algorithm).
    pub fn all_tree(rings: Rings, tree: Tree) -> Self {
        let mut td = TdTopology::new(rings, tree, 0);
        td.label[BASE_STATION.index()] = Mode::T;
        debug_assert!(td.validate().is_ok());
        td
    }

    /// Pure multi-path topology: every connected vertex is in the delta.
    pub fn all_multipath(rings: Rings, tree: Tree) -> Self {
        let max = rings.max_level();
        TdTopology::new(rings, tree, max)
    }

    /// The rings topology.
    pub fn rings(&self) -> &Rings {
        &self.rings
    }

    /// The (ring-restricted) aggregation tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// The mode of a vertex.
    #[inline]
    pub fn mode(&self, id: NodeId) -> Mode {
        self.label[id.index()]
    }

    /// The topology version: re-minted from a process-global counter on
    /// every label or tree-parent mutation. Version values are unique
    /// across **all** topology instances (not merely within one), so
    /// equal versions guarantee an identical labeling and tree even
    /// across rebuilds and clones:
    /// anything compiled from the topology (schedules, epoch plans)
    /// stays valid exactly while the version holds still, and a plan
    /// compiled against a topology that has since been rebuilt can
    /// never collide with the replacement's versions. Values are
    /// monotone per instance but **not contiguous** — never do
    /// arithmetic on them.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of vertices tracked.
    pub fn len(&self) -> usize {
        self.label.len()
    }

    /// True iff only the base station exists.
    pub fn is_empty(&self) -> bool {
        self.label.len() <= 1
    }

    /// Vertices currently labeled `M` and connected, in id order.
    /// Borrows instead of allocating — collect if ownership is needed.
    pub fn delta_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.connected()
            .filter(|&u| self.label[u.index()] == Mode::M)
    }

    /// Number of connected `M` vertices.
    pub fn delta_size(&self) -> usize {
        self.connected()
            .filter(|&u| self.label[u.index()] == Mode::M)
            .count()
    }

    /// Number of connected `T` vertices.
    pub fn tributary_size(&self) -> usize {
        self.connected()
            .filter(|&u| self.label[u.index()] == Mode::T)
            .count()
    }

    fn connected(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.rings.connected_nodes()
    }

    /// Whether `id` is a switchable `T` vertex: labeled `T` and its parent
    /// is `M` (or it is the base station).
    pub fn is_switchable_t(&self, id: NodeId) -> bool {
        if self.rings.level(id).is_none() || self.label[id.index()] != Mode::T {
            return false;
        }
        match self.tree.parent(id) {
            None => id == BASE_STATION,
            Some(p) => self.label[p.index()] == Mode::M,
        }
    }

    /// Whether `id` is a switchable `M` vertex: labeled `M` and all its
    /// incoming edges are `T` edges (no `M`-labeled ring source one level
    /// above it).
    pub fn is_switchable_m(&self, id: NodeId) -> bool {
        if self.rings.level(id).is_none() || self.label[id.index()] != Mode::M {
            return false;
        }
        self.rings
            .sources(id)
            .iter()
            .all(|&s| self.label[s.index()] == Mode::T)
    }

    /// All switchable `T` vertices, in id order (borrowing iterator).
    pub fn switchable_t_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.connected().filter(|&u| self.is_switchable_t(u))
    }

    /// All switchable `M` vertices, in id order (borrowing iterator).
    pub fn switchable_m_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.connected().filter(|&u| self.is_switchable_m(u))
    }

    /// All switchable `T` vertices, in id order.
    pub fn switchable_t_nodes(&self) -> Vec<NodeId> {
        self.switchable_t_iter().collect()
    }

    /// All switchable `M` vertices, in id order.
    pub fn switchable_m_nodes(&self) -> Vec<NodeId> {
        self.switchable_m_iter().collect()
    }

    /// Switch a switchable `T` vertex to `M` (expanding the delta).
    pub fn switch_to_m(&mut self, id: NodeId) -> Result<(), SwitchError> {
        if self.rings.level(id).is_none() {
            return Err(SwitchError::Disconnected(id));
        }
        if !self.is_switchable_t(id) {
            return Err(SwitchError::NotSwitchable(id));
        }
        self.label[id.index()] = Mode::M;
        self.version = fresh_version();
        debug_assert!(self.validate().is_ok());
        Ok(())
    }

    /// Switch a switchable `M` vertex to `T` (shrinking the delta).
    pub fn switch_to_t(&mut self, id: NodeId) -> Result<(), SwitchError> {
        if self.rings.level(id).is_none() {
            return Err(SwitchError::Disconnected(id));
        }
        if !self.is_switchable_m(id) {
            return Err(SwitchError::NotSwitchable(id));
        }
        self.label[id.index()] = Mode::T;
        self.version = fresh_version();
        debug_assert!(self.validate().is_ok());
        Ok(())
    }

    /// TD-Coarse expansion: switch *all* currently switchable `T` vertices
    /// to `M`, widening the delta region by one level (§4.2). Returns the
    /// number of vertices switched.
    pub fn expand_all(&mut self) -> usize {
        let targets = self.switchable_t_nodes();
        for &u in &targets {
            self.label[u.index()] = Mode::M;
        }
        if !targets.is_empty() {
            self.version = fresh_version();
        }
        debug_assert!(self.validate().is_ok());
        targets.len()
    }

    /// TD-Coarse shrink: switch *all* currently switchable `M` vertices to
    /// `T`. Returns the number of vertices switched.
    pub fn shrink_all(&mut self) -> usize {
        let targets = self.switchable_m_nodes();
        for &u in &targets {
            self.label[u.index()] = Mode::T;
        }
        if !targets.is_empty() {
            self.version = fresh_version();
        }
        debug_assert!(self.validate().is_ok());
        targets.len()
    }

    /// TD (fine-grained) expansion: switch all `T` children of the
    /// switchable `M` vertex `root` to `M` (§4.2: targeting the subtree
    /// with the most non-contributing nodes). Returns the number switched.
    pub fn expand_subtree(&mut self, root: NodeId) -> Result<usize, SwitchError> {
        if !self.is_switchable_m(root) && self.mode(root) != Mode::M {
            return Err(SwitchError::NotSwitchable(root));
        }
        // Observation 1: the children of a switchable M vertex are
        // switchable T vertices; switching them is always legal. If `root`
        // is M but not switchable its children are still switchable T
        // vertices (their parent is M), so this works for any M vertex.
        let children: Vec<NodeId> = self
            .tree
            .children(root)
            .iter()
            .copied()
            .filter(|&c| self.label[c.index()] == Mode::T)
            .collect();
        for &c in &children {
            debug_assert!(self.is_switchable_t(c));
            self.label[c.index()] = Mode::M;
        }
        if !children.is_empty() {
            self.version = fresh_version();
        }
        debug_assert!(self.validate().is_ok());
        Ok(children.len())
    }

    /// Switch the tree parents of a batch of vertices **in one
    /// mutation**: `moves` lists `(child, new_parent)` pairs, each new
    /// parent a ring receiver of its child (one level down, preserving
    /// §4.1 and every vertex's depth) and label-compatible (`M`
    /// children keep `M` parents — upward closure). The whole batch is
    /// validated first and applied as one mutation, so one churn event
    /// or maintenance round costs one version bump however many orphans
    /// it reroutes. No-op moves (already the parent) are skipped. Returns the number of parents actually switched.
    ///
    /// Labels are untouched, so edge/path correctness is preserved by
    /// the label-compatibility check alone.
    ///
    /// ```
    /// use td_netsim::network::Network;
    /// use td_netsim::node::Position;
    /// use td_netsim::rng::rng_from_seed;
    /// use td_topology::bushy::{build_bushy_tree, BushyOptions};
    /// use td_topology::rings::Rings;
    /// use td_topology::td::{Mode, TdTopology};
    ///
    /// let mut rng = rng_from_seed(5);
    /// let net = Network::random_connected(80, 10.0, 10.0, Position::new(5.0, 5.0), 2.5, &mut rng);
    /// let rings = Rings::build(&net);
    /// let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
    /// let mut td = TdTopology::new(rings, tree, 1);
    ///
    /// // Re-parent some T vertex onto another of its ring receivers.
    /// let (child, alt) = td
    ///     .rings()
    ///     .connected_nodes()
    ///     .find_map(|u| {
    ///         let p = td.tree().parent(u)?;
    ///         let alt = td
    ///             .rings()
    ///             .receivers(u)
    ///             .iter()
    ///             .copied()
    ///             .find(|&r| r != p && (td.mode(u) == Mode::T || td.mode(r) == Mode::M))?;
    ///         Some((u, alt))
    ///     })
    ///     .expect("some vertex has an alternative receiver");
    /// let v0 = td.version();
    /// assert_eq!(td.switch_parents(&[(child, alt)]), Ok(1));
    /// assert_eq!(td.tree().parent(child), Some(alt));
    /// assert!(td.version() > v0);
    /// td.validate().unwrap();
    /// ```
    pub fn switch_parents(&mut self, moves: &[(NodeId, NodeId)]) -> Result<usize, SwitchError> {
        for &(child, parent) in moves {
            if child == BASE_STATION {
                return Err(SwitchError::NotSwitchable(child));
            }
            if self.rings.level(child).is_none() {
                return Err(SwitchError::Disconnected(child));
            }
            if self.rings.level(parent).is_none() {
                return Err(SwitchError::Disconnected(parent));
            }
            if !self.rings.receivers(child).contains(&parent) {
                return Err(SwitchError::InvalidParent(parent));
            }
            if self.label[child.index()] == Mode::M && self.label[parent.index()] != Mode::M {
                return Err(SwitchError::InvalidParent(parent));
            }
        }
        let mut switched = 0;
        for &(child, parent) in moves {
            if self.tree.parent(child) != Some(parent) {
                self.tree.switch_parent(child, parent);
                switched += 1;
            }
        }
        if switched > 0 {
            self.version = fresh_version();
        }
        debug_assert!(self.validate().is_ok());
        Ok(switched)
    }

    /// Switch one vertex's tree parent (a one-entry
    /// [`switch_parents`](Self::switch_parents) batch).
    pub fn switch_parent(&mut self, child: NodeId, new_parent: NodeId) -> Result<(), SwitchError> {
        self.switch_parents(&[(child, new_parent)]).map(|_| ())
    }

    /// The `M`-labeled receivers of `id`'s broadcast (ring neighbors one
    /// level down that will actually consume a synopsis from `id`).
    #[cfg(test)]
    pub fn m_receivers(&self, id: NodeId) -> Vec<NodeId> {
        self.rings
            .receivers(id)
            .iter()
            .copied()
            .filter(|&r| self.label[r.index()] == Mode::M)
            .collect()
    }

    /// Check the structural invariants:
    /// 1. upward closure — every non-base `M` vertex has an `M` tree parent
    ///    (implies edge/path correctness under receiver filtering, and that
    ///    no delta vertex is orphaned);
    /// 2. if any vertex is `M`, the base station is `M`.
    pub fn validate(&self) -> Result<(), String> {
        let mut any_m = false;
        for u in self.connected() {
            if self.label[u.index()] != Mode::M {
                continue;
            }
            any_m = true;
            if u == BASE_STATION {
                continue;
            }
            match self.tree.parent(u) {
                Some(p) if self.label[p.index()] == Mode::M => {}
                Some(p) => {
                    return Err(format!(
                        "upward closure violated: M vertex {u} has T parent {p}"
                    ))
                }
                None => return Err(format!("M vertex {u} has no tree parent")),
            }
        }
        if any_m && self.label[BASE_STATION.index()] != Mode::M {
            return Err("delta region exists but base station is T".into());
        }
        Ok(())
    }

    /// Path correctness (Property 2) checked explicitly over the effective
    /// data-flow graph: walking up from any vertex toward the base, once a
    /// vertex is `M` every later vertex is `M`. Equivalent to
    /// [`validate`](Self::validate) but phrased as the paper states it;
    /// used by tests.
    pub fn check_path_correctness(&self) -> bool {
        for u in self.connected() {
            let mut seen_m = self.label[u.index()] == Mode::M;
            let mut cur = u;
            while let Some(p) = self.tree.parent(cur) {
                let pm = self.label[p.index()] == Mode::M;
                if seen_m && !pm {
                    return false;
                }
                seen_m = seen_m || pm;
                cur = p;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bushy::{build_bushy_tree, BushyOptions};
    use rand::seq::SliceRandom;
    use rand::Rng;
    use td_netsim::network::Network;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;

    fn topo(seed: u64, delta_levels: u16) -> TdTopology {
        let mut rng = rng_from_seed(seed);
        let net =
            Network::random_in_rect(200, 20.0, 20.0, Position::new(10.0, 10.0), 2.5, &mut rng);
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        TdTopology::new(rings, tree, delta_levels)
    }

    #[test]
    fn initial_delta_by_level() {
        let td = topo(51, 2);
        for u in td.rings().connected_nodes() {
            let expected = if td.rings().level(u).unwrap() <= 2 {
                Mode::M
            } else {
                Mode::T
            };
            assert_eq!(td.mode(u), expected);
        }
        assert!(td.validate().is_ok());
        assert!(td.check_path_correctness());
    }

    #[test]
    fn all_tree_and_all_multipath_extremes() {
        let td_tree = {
            let mut t = topo(52, 0);
            t.label[BASE_STATION.index()] = Mode::T;
            t
        };
        assert_eq!(td_tree.delta_size(), 0);
        assert!(td_tree.validate().is_ok());

        let mut rng = rng_from_seed(53);
        let net =
            Network::random_in_rect(100, 20.0, 20.0, Position::new(10.0, 10.0), 2.5, &mut rng);
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        let connected = rings.connected_count();
        let td_mp = TdTopology::all_multipath(rings, tree);
        assert_eq!(td_mp.delta_size(), connected);
        assert_eq!(td_mp.tributary_size(), 0);
    }

    #[test]
    fn switchable_t_requires_m_parent() {
        let td = topo(54, 1);
        for u in td.switchable_t_nodes() {
            match td.tree().parent(u) {
                Some(p) => assert_eq!(td.mode(p), Mode::M),
                None => assert_eq!(u, BASE_STATION),
            }
        }
        // Every T vertex whose parent is M must be listed.
        for u in td.rings().connected_nodes() {
            if td.mode(u) == Mode::T {
                if let Some(p) = td.tree().parent(u) {
                    assert_eq!(
                        td.is_switchable_t(u),
                        td.mode(p) == Mode::M,
                        "switchability mismatch at {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn switchable_m_has_no_m_sources() {
        let td = topo(55, 3);
        for u in td.switchable_m_nodes() {
            for &s in td.rings().sources(u) {
                assert_eq!(td.mode(s), Mode::T);
            }
        }
    }

    #[test]
    fn observation_1_children_of_switchable_m_are_switchable_t() {
        let td = topo(56, 2);
        for u in td.switchable_m_nodes() {
            for &c in td.tree().children(u) {
                assert_eq!(td.mode(c), Mode::T, "child {c} of switchable M {u}");
                assert!(td.is_switchable_t(c));
            }
        }
    }

    #[test]
    fn lemma_1_switchable_vertices_exist() {
        // For any delta radius with both T and M vertices present, both
        // switchable sets are non-empty.
        for levels in 0..5 {
            let td = topo(57, levels);
            if td.tributary_size() > 0 {
                assert!(
                    !td.switchable_t_nodes().is_empty(),
                    "no switchable T at delta radius {levels}"
                );
            }
            if td.delta_size() > 0 {
                assert!(
                    !td.switchable_m_nodes().is_empty(),
                    "no switchable M at delta radius {levels}"
                );
            }
        }
    }

    #[test]
    fn expand_all_widens_by_one_level() {
        let mut td = topo(58, 1);
        let before = td.delta_size();
        let switched = td.expand_all();
        assert!(switched > 0);
        assert_eq!(td.delta_size(), before + switched);
        assert!(td.validate().is_ok());
        // All new M vertices are at level 2 (children of level-1 delta).
        for u in td.delta_nodes() {
            assert!(td.rings().level(u).unwrap() <= 2);
        }
    }

    #[test]
    fn shrink_all_inverts_expand_all_on_uniform_delta() {
        let mut td = topo(59, 2);
        let before: Vec<Mode> = td.label.clone();
        td.expand_all();
        td.shrink_all();
        assert_eq!(td.label, before);
    }

    #[test]
    fn switch_to_m_rejects_non_switchable() {
        let mut td = topo(60, 1);
        // A T vertex whose parent is T is not switchable.
        let deep_t = td
            .rings()
            .connected_nodes()
            .find(|&u| {
                td.mode(u) == Mode::T && td.tree().parent(u).is_some_and(|p| td.mode(p) == Mode::T)
            })
            .expect("some deep T vertex exists");
        assert_eq!(
            td.switch_to_m(deep_t),
            Err(SwitchError::NotSwitchable(deep_t))
        );
    }

    #[test]
    fn switch_to_t_rejects_interior_m() {
        let mut td = topo(61, 3);
        // The base station has M sources (level-1 delta nodes), so it is
        // not switchable while the delta extends beyond it.
        if td
            .rings()
            .sources(BASE_STATION)
            .iter()
            .any(|&s| td.mode(s) == Mode::M)
        {
            assert_eq!(
                td.switch_to_t(BASE_STATION),
                Err(SwitchError::NotSwitchable(BASE_STATION))
            );
        }
    }

    #[test]
    fn expand_subtree_switches_only_that_subtree() {
        let mut td = topo(62, 1);
        let root = td
            .switchable_m_nodes()
            .into_iter()
            .find(|&u| !td.tree().children(u).is_empty())
            .expect("a switchable M vertex with children");
        let kids = td.tree().children(root).len();
        let before = td.delta_size();
        let switched = td.expand_subtree(root).unwrap();
        assert_eq!(switched, kids);
        assert_eq!(td.delta_size(), before + switched);
        assert!(td.validate().is_ok());
    }

    #[test]
    fn random_switch_sequences_preserve_invariants() {
        // Fuzz: apply hundreds of random legal switches; invariants must
        // hold after each.
        let mut td = topo(63, 1);
        let mut rng = rng_from_seed(64);
        for step in 0..300 {
            if rng.gen_bool(0.5) {
                let ts = td.switchable_t_nodes();
                if let Some(&u) = ts.choose(&mut rng) {
                    td.switch_to_m(u).unwrap();
                }
            } else {
                let ms = td.switchable_m_nodes();
                if let Some(&u) = ms.choose(&mut rng) {
                    td.switch_to_t(u).unwrap();
                }
            }
            assert!(td.validate().is_ok(), "invariant broken at step {step}");
            assert!(td.check_path_correctness());
        }
    }

    #[test]
    fn version_bumps_only_on_label_mutation() {
        let mut td = topo(66, 1);
        let v0 = td.version();
        // Read-only accessors leave the version alone.
        let _ = td.delta_nodes();
        let _ = td.switchable_t_nodes();
        assert_eq!(td.version(), v0);
        // A successful switch re-mints it (monotone, not contiguous —
        // the mint is process-global).
        let u = td.switchable_t_nodes()[0];
        td.switch_to_m(u).unwrap();
        let v1 = td.version();
        assert!(v1 > v0);
        // A rejected switch does not.
        let deep_t = td
            .rings()
            .connected_nodes()
            .find(|&w| {
                td.mode(w) == Mode::T && td.tree().parent(w).is_some_and(|p| td.mode(p) == Mode::T)
            })
            .expect("some deep T vertex exists");
        assert!(td.switch_to_m(deep_t).is_err());
        assert_eq!(td.version(), v1);
        // Bulk operations mint on an effective change and not on a
        // no-op one.
        assert!(td.expand_all() > 0);
        let v2 = td.version();
        assert!(v2 > v1);
        let leaf_m = td
            .delta_nodes()
            .find(|&u| td.tree().children(u).iter().all(|&c| td.mode(c) == Mode::M))
            .expect("some M vertex has no T child");
        assert_eq!(td.expand_subtree(leaf_m), Ok(0));
        assert_eq!(td.version(), v2);
    }

    #[test]
    fn delta_nodes_iterates_in_id_order() {
        let td = topo(69, 2);
        let collected: Vec<NodeId> = td.delta_nodes().collect();
        assert!(collected.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(collected.len(), td.delta_size());
        for u in td.delta_nodes() {
            assert_eq!(td.mode(u), Mode::M);
        }
    }

    #[test]
    fn m_receivers_subset_of_ring_receivers() {
        let td = topo(65, 2);
        for u in td.delta_nodes() {
            if u == BASE_STATION {
                continue;
            }
            let mr = td.m_receivers(u);
            assert!(
                !mr.is_empty(),
                "delta vertex {u} has no M receiver (orphaned data)"
            );
            for r in mr {
                assert!(td.rings().receivers(u).contains(&r));
                assert_eq!(td.mode(r), Mode::M);
            }
        }
    }
}
