//! Churn rerouting: [`reroute`], the one policy, over any tree, and
//! [`apply_churn`], which runs it on a [`TdTopology`] **in place** — one
//! mutation and one version bump per event, so a compiled epoch plan
//! rebuilds its schedule in place instead of being recompiled.

use crate::td::{Mode, TdTopology};
use crate::tree::Tree;
use td_netsim::node::{NodeId, BASE_STATION};

/// Outcome of applying one epoch's churn events to a topology.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Orphaned children re-parented onto a surviving receiver.
    pub reparented: usize,
    /// Orphans with no label-compatible surviving receiver: they keep
    /// their absent parent and simply lose data until it returns (no
    /// alternative route exists).
    pub stranded: usize,
    /// Rejoining nodes re-attached away from a still-absent parent.
    pub rejoined: usize,
}

/// Route around one epoch's churn over `tree` with a **bounded
/// structural delta**: every tree child of a node in `left`, then every
/// node in `joined` whose parent is still absent, moves to its lowest-id
/// present candidate parent. `candidates(c)` lists the parents `c` may
/// take, all at its parent's depth. `absent` is the full post-event
/// absent set (leavers included); an orphan with no present candidate is
/// "stranded" (keeps the dead parent, loses the data) — the realistic
/// outcome when a region's only uplink is down.
///
/// Returns the moves as `(child, new parent)` in child id order, one per
/// child (a later move of a child replaces its earlier one), and the
/// report. No RNG is drawn, so refreshed and rebuilt sessions stay
/// bit-identical.
pub fn reroute<I: IntoIterator<Item = NodeId>>(
    tree: &Tree,
    left: &[NodeId],
    joined: &[NodeId],
    absent: &[NodeId],
    candidates: impl Fn(NodeId) -> I,
) -> (Vec<(NodeId, NodeId)>, ChurnReport) {
    let mut is_absent = vec![false; tree.len()];
    for n in absent {
        if n.index() < is_absent.len() {
            is_absent[n.index()] = true;
        }
    }
    let best = |c: NodeId, avoid: NodeId| {
        candidates(c)
            .into_iter()
            .filter(|&r| r != avoid && !is_absent[r.index()])
            .min()
    };
    let mut report = ChurnReport::default();
    // Keyed by child id, last write wins.
    let mut moves = std::collections::BTreeMap::new();
    for &u in left {
        // Injected events may name any id; one outside the tree has no
        // children to reroute.
        if u == BASE_STATION || u.index() >= tree.len() || !tree.contains(u) {
            continue;
        }
        for &c in tree.children(u) {
            match best(c, u) {
                Some(p) => {
                    moves.insert(c, p);
                    report.reparented += 1;
                }
                None => report.stranded += 1,
            }
        }
    }
    for &j in joined {
        let Some(p) = tree.parent(j) else {
            continue;
        };
        if !is_absent[p.index()] {
            continue;
        }
        if let Some(best) = best(j, p) {
            moves.insert(j, best);
            report.rejoined += 1;
        }
    }
    (moves.into_iter().collect(), report)
}

/// [`reroute`] a labeled topology in place: the candidates are each
/// child's ring receivers, label-compatible (`M` children need an `M`
/// parent), so rejoining *is* attaching at the nearest ring level; the
/// moves are **one** [`TdTopology::switch_parents`] mutation, and the
/// cached epoch plan refreshes in place instead of rebuilding.
pub fn apply_churn(
    topo: &mut TdTopology,
    left: &[NodeId],
    joined: &[NodeId],
    absent: &[NodeId],
) -> ChurnReport {
    let (moves, report) = reroute(topo.tree(), left, joined, absent, |c| {
        let needs_m = topo.mode(c) == Mode::M;
        let topo = &*topo;
        topo.rings()
            .receivers(c)
            .iter()
            .copied()
            .filter(move |&r| !needs_m || topo.mode(r) == Mode::M)
    });
    topo.switch_parents(&moves)
        .expect("churn reroutes are validated ring receivers");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bushy::{build_bushy_tree, BushyOptions};
    use crate::rings::Rings;
    use crate::tree::Tree;
    use td_netsim::network::Network;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;

    fn setup(seed: u64) -> (Network, Rings, Tree) {
        let mut rng = rng_from_seed(seed);
        let net =
            Network::random_connected(120, 12.0, 12.0, Position::new(6.0, 6.0), 3.0, &mut rng);
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        (net, rings, tree)
    }

    #[test]
    fn apply_churn_reroutes_orphans_and_reattaches_joins() {
        let (_, rings, tree) = setup(89);
        let mut topo = TdTopology::all_tree(rings, tree);
        // Pick a departing node with children and a surviving
        // alternative receiver for at least one child.
        let u = topo
            .rings()
            .connected_nodes()
            .find(|&u| {
                u != BASE_STATION
                    && topo
                        .tree()
                        .children(u)
                        .iter()
                        .any(|&c| topo.rings().receivers(c).len() > 1)
            })
            .expect("some parent with reroutable children");
        let orphans: Vec<NodeId> = topo.tree().children(u).to_vec();
        let v0 = topo.version();
        let report = apply_churn(&mut topo, &[u], &[], &[u]);
        assert_eq!(report.reparented + report.stranded, orphans.len());
        assert!(report.reparented > 0);
        assert!(topo.validate().is_ok());
        for &c in &orphans {
            let p = topo.tree().parent(c).unwrap();
            if p == u {
                continue; // stranded: no alternative existed
            }
            assert!(topo.rings().receivers(c).contains(&p));
        }
        // The event moved the version.
        assert_ne!(topo.version(), v0);

        // The node rejoins; its own parent is fine, so nothing moves —
        // but a child of a *still-absent* parent re-attaches on join.
        let vr = topo.version();
        let rejoin = apply_churn(&mut topo, &[], &[u], &[]);
        assert_eq!(rejoin, ChurnReport::default());
        assert_eq!(topo.version(), vr, "no-op churn must not mint versions");
    }

    #[test]
    fn apply_churn_is_deterministic() {
        let (_, rings, tree) = setup(90);
        let left: Vec<NodeId> = rings
            .connected_nodes()
            .filter(|n| n.0 % 7 == 1)
            .take(6)
            .collect();
        let run = || {
            let mut topo = TdTopology::new(rings.clone(), tree.clone(), 1);
            apply_churn(&mut topo, &left, &[], &left);
            (0..topo.len() as u32)
                .map(|i| topo.tree().parent(NodeId(i)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
