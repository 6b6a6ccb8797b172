//! The Rings multi-path topology (§2).
//!
//! Construction mirrors the paper: "first the base station transmits and
//! any node hearing this transmission is in ring 1. At each subsequent
//! step, nodes in ring *i* transmit and any node hearing one of these
//! transmissions — but not already in a ring — is in ring *i+1*." In the
//! unit-disk radio model this is exactly BFS hop count from the base
//! station. Aggregation then proceeds level-by-level: level *i+1* nodes
//! broadcast while level *i* nodes listen, and *every* level-*i* node that
//! hears a level-*i+1* partial result folds it in — that receiver-side
//! redundancy is the source of multi-path robustness.
//!
//! The ring links are stored flat, in one CSR array beside the level
//! table: node `u`'s row is `links[start[u]..start[u + 1]]`, its links one
//! level below (its receivers) first and its links one level above (its
//! sources) after `split[u]`. Both halves are filtered from the already
//! sorted [`Network::neighbors`], so each comes out ascending without a
//! sort; a node without a level has an empty row.

use td_netsim::network::Network;
use td_netsim::node::NodeId;

/// The rings topology: each node's ring number (level), with the base
/// station at level 0. Nodes that cannot reach the base station have no
/// level and are excluded from aggregation.
#[derive(Clone, Debug)]
pub struct Rings {
    level: Vec<Option<u16>>,
    max_level: u16,
    /// CSR row starts into `links`; `n + 1` entries.
    start: Box<[u32]>,
    /// Where each row's links below end and its links above begin.
    split: Box<[u32]>,
    /// Every node's row: its radio neighbors exactly one level below
    /// (the nodes that can hear its level-synchronized broadcast), then
    /// those exactly one level above (the nodes whose broadcasts it
    /// listens to).
    links: Box<[NodeId]>,
}

impl Rings {
    /// Build the rings topology over a network by BFS from the base station.
    pub fn build(net: &Network) -> Self {
        let hops = net.hop_counts();
        let mut level = vec![None; net.len()];
        let mut max_level = 0u16;
        for (i, &h) in hops.iter().enumerate() {
            if h != u32::MAX {
                let l = u16::try_from(h).expect("network diameter exceeds u16 levels");
                level[i] = Some(l);
                max_level = max_level.max(l);
            }
        }
        let mut start = Vec::with_capacity(net.len() + 1);
        let mut split = Vec::with_capacity(net.len());
        let mut links = Vec::new();
        start.push(0u32);
        let levels = &level;
        for (u, &lu) in levels.iter().enumerate() {
            // `u`'s neighbors at level `l`, in the network's ascending order.
            let nbrs = net.neighbors(NodeId(u as u32));
            let at = |l: Option<u16>| {
                nbrs.iter()
                    .filter(move |v| l.is_some() && levels[v.index()] == l)
            };
            links.extend(at(lu.and_then(|l| l.checked_sub(1))));
            split.push(links.len() as u32);
            links.extend(at(lu.map(|l| l + 1)));
            start.push(links.len() as u32);
        }
        Rings {
            level,
            max_level,
            start: start.into_boxed_slice(),
            split: split.into_boxed_slice(),
            links: links.into_boxed_slice(),
        }
    }

    /// The ring level of a node, if it is connected to the base station.
    #[inline]
    pub fn level(&self, id: NodeId) -> Option<u16> {
        self.level[id.index()]
    }

    /// The highest ring level present.
    #[inline]
    pub fn max_level(&self) -> u16 {
        self.max_level
    }

    /// Number of nodes tracked (connected or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// True iff no nodes are tracked.
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// The radio neighbors of `id` exactly one ring level *below* it —
    /// the receivers of its broadcast during aggregation.
    #[inline]
    pub fn receivers(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.links[self.start[i] as usize..self.split[i] as usize]
    }

    /// The radio neighbors of `id` exactly one ring level *above* it —
    /// the nodes it listens to during aggregation.
    #[inline]
    pub fn sources(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.links[self.split[i] as usize..self.start[i + 1] as usize]
    }

    /// Iterator over the connected node ids.
    pub fn connected_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.level.len() as u32)
            .map(NodeId)
            .filter(|id| self.level[id.index()].is_some())
    }

    /// Number of nodes connected to the base station (including it).
    pub fn connected_count(&self) -> usize {
        self.level.iter().filter(|l| l.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_netsim::node::{Position, BASE_STATION};
    use td_netsim::rng::rng_from_seed;

    fn chain(n: usize) -> Network {
        let positions = (0..n).map(|i| Position::new(i as f64, 0.0)).collect();
        Network::new(positions, 1.0)
    }

    #[test]
    fn base_station_is_level_zero() {
        let net = chain(4);
        let rings = Rings::build(&net);
        assert_eq!(rings.level(BASE_STATION), Some(0));
        assert_eq!(rings.level(NodeId(3)), Some(3));
        assert_eq!(rings.max_level(), 3);
    }

    /// The CSR rows must be exactly the level filter of the sorted
    /// neighbor lists (hop counts one below, one above), in their order,
    /// and empty for a node the base station cannot reach — on a random
    /// deployment with unreachable nodes and on a grid.
    #[test]
    fn receivers_and_sources_are_adjacent_levels() {
        let mut rng = rng_from_seed(21);
        let nets = [
            Network::random_in_rect(150, 20.0, 20.0, Position::new(10.0, 10.0), 3.0, &mut rng),
            Network::random_in_rect(150, 30.0, 30.0, Position::new(15.0, 15.0), 2.2, &mut rng),
            Network::grid(7, 6, 1.0, Position::new(3.0, 2.5), 1.5),
        ];
        let mut unreachable = 0;
        for net in &nets {
            let rings = Rings::build(net);
            let hops = net.hop_counts();
            for u in net.node_ids() {
                let hu = hops[u.index()];
                let reachable = hu != u32::MAX;
                let at = |h: Option<u32>| -> Vec<NodeId> {
                    let nbrs = net.neighbors(u).iter().copied();
                    nbrs.filter(|v| reachable && Some(hops[v.index()]) == h)
                        .collect()
                };
                assert_eq!(rings.receivers(u), &at(hu.checked_sub(1))[..], "{u}");
                assert_eq!(rings.sources(u), &at(hu.checked_add(1))[..], "{u}");
                if !reachable {
                    unreachable += 1;
                    continue;
                }
                let lu = rings.level(u).unwrap();
                for &r in rings.receivers(u) {
                    assert_eq!(rings.level(r), Some(lu - 1));
                    assert!(net.in_range(u, r));
                }
                for &s in rings.sources(u) {
                    assert_eq!(rings.level(s), Some(lu + 1));
                    assert!(net.in_range(u, s));
                }
            }
        }
        assert!(unreachable > 0, "no deployment left a node unreachable");
    }

    #[test]
    fn every_non_base_node_has_a_receiver() {
        // By BFS construction a level-i node heard some level-(i-1) node.
        let mut rng = rng_from_seed(22);
        let net =
            Network::random_in_rect(200, 20.0, 20.0, Position::new(10.0, 10.0), 2.5, &mut rng);
        let rings = Rings::build(&net);
        for u in rings.connected_nodes() {
            if u != BASE_STATION {
                assert!(
                    !rings.receivers(u).is_empty(),
                    "{u} at level {:?} has no receiver",
                    rings.level(u)
                );
            }
        }
    }

    #[test]
    fn disconnected_nodes_have_no_level() {
        let net = Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),
                Position::new(50.0, 0.0),
            ],
            1.5,
        );
        let rings = Rings::build(&net);
        assert_eq!(rings.level(NodeId(2)), None);
        assert!(rings.receivers(NodeId(2)).is_empty() && rings.sources(NodeId(2)).is_empty());
        assert_eq!(rings.sources(BASE_STATION), &[NodeId(1)]);
        assert_eq!(rings.receivers(NodeId(1)), &[BASE_STATION]);
        assert_eq!(rings.connected_count(), 2);
        assert_eq!(rings.level(NodeId(1)), Some(1));
        assert_eq!(
            rings.connected_nodes().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(1)]
        );
    }

    #[test]
    fn levels_partition_connected_nodes() {
        let mut rng = rng_from_seed(23);
        let net =
            Network::random_in_rect(300, 20.0, 20.0, Position::new(10.0, 10.0), 2.0, &mut rng);
        let rings = Rings::build(&net);
        // Every connected node sits at one level in 0..=max.
        let total: usize = (0..=rings.max_level())
            .map(|l| {
                rings
                    .connected_nodes()
                    .filter(|&u| rings.level(u) == Some(l))
                    .count()
            })
            .sum();
        assert_eq!(total, rings.connected_count());
    }
}
