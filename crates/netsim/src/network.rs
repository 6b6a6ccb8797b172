//! The deployment: node positions, radio range, and the induced
//! connectivity graph.
//!
//! The radio graph is stored once, flat, in compressed sparse row (CSR)
//! form: `n + 1` `u32` offsets and one exact-size array of neighbor ids,
//! node `i`'s neighbors being `adjacency[offsets[i]..offsets[i + 1]]`,
//! sorted ascending. Positions, offsets and adjacency sit behind
//! `Arc<[_]>`, and `Network` has no `&mut self` method, so a clone (each
//! `Session` keeps one) bumps three reference counts and allocates
//! nothing: every session over one deployment reads the same graph.

use std::sync::Arc;

use crate::node::{NodeId, Position, BASE_STATION};
use rand::Rng;

/// A sensor network deployment.
///
/// Node 0 is the base station; nodes `1..n` are sensor motes. Two nodes can
/// hear each other iff their Euclidean distance is at most the radio
/// `range` (the unit-disk model used by the TAG simulator). The adjacency
/// is symmetric, precomputed at construction and shared by every clone.
#[derive(Clone, Debug)]
pub struct Network {
    positions: Arc<[Position]>,
    range: f64,
    /// CSR row starts: node `i`'s neighbors are
    /// `adjacency[offsets[i]..offsets[i + 1]]`; `n + 1` entries.
    offsets: Arc<[u32]>,
    /// Every node's neighbor list, concatenated in node order.
    adjacency: Arc<[NodeId]>,
}

impl Network {
    /// Build a network from explicit positions (`positions[0]` is the base
    /// station) and a radio range.
    ///
    /// # Panics
    /// Panics if `positions` is empty, `range` is not positive and finite,
    /// or the graph has more than `u32::MAX` directed links.
    pub fn new(positions: Vec<Position>, range: f64) -> Self {
        assert!(
            !positions.is_empty(),
            "network needs at least a base station"
        );
        assert!(
            range.is_finite() && range > 0.0,
            "radio range must be positive, got {range}"
        );
        let (offsets, adjacency) = build_neighbors(&positions, range);
        Network {
            positions: positions.into(),
            range,
            offsets: offsets.into(),
            adjacency: adjacency.into(),
        }
    }

    /// The paper's `Synthetic` style deployment: `sensors` motes placed
    /// uniformly at random in a `width × height` rectangle anchored at the
    /// origin, with the base station at `base`.
    pub fn random_in_rect<R: Rng + ?Sized>(
        sensors: usize,
        width: f64,
        height: f64,
        base: Position,
        range: f64,
        rng: &mut R,
    ) -> Self {
        let mut positions = Vec::with_capacity(sensors + 1);
        positions.push(base);
        for _ in 0..sensors {
            positions.push(Position::new(
                rng.gen_range(0.0..width),
                rng.gen_range(0.0..height),
            ));
        }
        Network::new(positions, range)
    }

    /// Like [`random_in_rect`](Self::random_in_rect), but redraws the
    /// placement (up to 100 attempts) until every mote can reach the base
    /// station. Sparse random deployments are frequently disconnected;
    /// experiments that assume full coverage use this constructor.
    ///
    /// # Panics
    /// Panics if no connected placement is found in 100 attempts (the
    /// density is simply too low for the range).
    pub fn random_connected<R: Rng + ?Sized>(
        sensors: usize,
        width: f64,
        height: f64,
        base: Position,
        range: f64,
        rng: &mut R,
    ) -> Self {
        for _ in 0..100 {
            let net = Network::random_in_rect(sensors, width, height, base, range, rng);
            if net.is_connected() {
                return net;
            }
        }
        panic!(
            "no connected placement of {sensors} sensors in {width}x{height} at range {range} \
             after 100 attempts"
        );
    }

    /// A regular grid deployment with `cols × rows` motes spaced `spacing`
    /// apart, plus the base station at `base`. Useful for tests where exact
    /// topology matters.
    pub fn grid(cols: usize, rows: usize, spacing: f64, base: Position, range: f64) -> Self {
        let mut positions = Vec::with_capacity(cols * rows + 1);
        positions.push(base);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Position::new(c as f64 * spacing, r as f64 * spacing));
            }
        }
        Network::new(positions, range)
    }

    /// Total number of nodes including the base station.
    #[inline]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// `true` iff the network contains only the base station.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.positions.len() <= 1
    }

    /// Number of sensor motes (excludes the base station).
    #[inline]
    pub fn num_sensors(&self) -> usize {
        self.positions.len() - 1
    }

    /// The radio range.
    #[inline]
    pub fn range(&self) -> f64 {
        self.range
    }

    /// Position of a node.
    #[inline]
    pub fn position(&self, id: NodeId) -> Position {
        self.positions[id.index()]
    }

    /// All positions, indexed by node id.
    #[inline]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Radio neighbors of a node (symmetric; excludes the node itself).
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterator over all node ids, base station first.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// Iterator over sensor ids only (excludes the base station).
    pub fn sensor_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.positions.len() as u32).map(NodeId)
    }

    /// Euclidean distance between two nodes.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(self.position(b))
    }

    /// Whether two distinct nodes are within radio range of each other.
    #[inline]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.distance(a, b) <= self.range
    }

    /// Minimum hop count from every node to the base station (BFS over the
    /// connectivity graph). Unreachable nodes get `u32::MAX`.
    pub fn hop_counts(&self) -> Vec<u32> {
        let n = self.len();
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        dist[BASE_STATION.index()] = 0;
        queue.push_back(BASE_STATION);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &v in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every node can reach the base station over the radio graph.
    pub fn is_connected(&self) -> bool {
        self.hop_counts().iter().all(|&d| d != u32::MAX)
    }

    /// Average node degree (useful when calibrating deployment density).
    pub fn average_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        self.adjacency.len() as f64 / self.positions.len() as f64
    }
}

/// Unit-disk adjacency via uniform-grid spatial bucketing.
///
/// Nodes are hashed into `range`-wide cells; a node's neighbors can only
/// live in its own or one of the eight adjacent cells, so each node
/// tests `O(density · range²)` candidates instead of all `n − 1` — large
/// deployments (10k+ motes) build in near-linear time where the naive
/// all-pairs scan is quadratic. Returns the CSR pair `(offsets,
/// adjacency)`, filled in one pass over the nodes: each node's list is
/// appended to the flat array and sorted in place, so it comes out
/// ascending (the same order the all-pairs construction produced),
/// keeping every downstream traversal and RNG draw sequence unchanged.
///
/// # Panics
/// Panics if the graph has more than `u32::MAX` directed links.
fn build_neighbors(positions: &[Position], range: f64) -> (Vec<u32>, Vec<NodeId>) {
    let n = positions.len();
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut adjacency = Vec::new();
    let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
    for p in positions {
        min_x = min_x.min(p.x);
        min_y = min_y.min(p.y);
    }
    let cell_of = |p: &Position| -> (i64, i64) {
        (
            ((p.x - min_x) / range).floor() as i64,
            ((p.y - min_y) / range).floor() as i64,
        )
    };
    // Sparse grid: deployments are free to spread over an arbitrarily
    // large area, so cells are keyed rather than stored densely.
    let mut grid: std::collections::HashMap<(i64, i64), Vec<u32>> =
        std::collections::HashMap::new();
    for (i, p) in positions.iter().enumerate() {
        grid.entry(cell_of(p)).or_default().push(i as u32);
    }
    for (i, p) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        let row = adjacency.len();
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = grid.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in bucket {
                    if j as usize != i && p.distance(positions[j as usize]) <= range {
                        adjacency.push(NodeId(j));
                    }
                }
            }
        }
        adjacency[row..].sort_unstable();
        offsets.push(u32::try_from(adjacency.len()).expect("radio graph exceeds u32::MAX links"));
    }
    (offsets, adjacency)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;

    #[test]
    fn adjacency_is_symmetric_and_irreflexive() {
        let mut rng = rng_from_seed(1);
        let net = Network::random_in_rect(80, 20.0, 20.0, Position::new(10.0, 10.0), 4.0, &mut rng);
        for u in net.node_ids() {
            assert!(!net.neighbors(u).contains(&u), "{u} adjacent to itself");
            for &v in net.neighbors(u) {
                assert!(net.neighbors(v).contains(&u), "asymmetric edge {u} -> {v}");
            }
        }
    }

    #[test]
    fn neighbors_respect_range() {
        let mut rng = rng_from_seed(2);
        let net = Network::random_in_rect(60, 20.0, 20.0, Position::new(10.0, 10.0), 3.0, &mut rng);
        for u in net.node_ids() {
            for v in net.node_ids() {
                if u == v {
                    continue;
                }
                let adjacent = net.neighbors(u).contains(&v);
                assert_eq!(adjacent, net.distance(u, v) <= 3.0);
                assert_eq!(adjacent, net.in_range(u, v));
            }
        }
    }

    #[test]
    fn grid_network_shape() {
        let net = Network::grid(4, 3, 1.0, Position::new(0.0, 0.0), 1.0);
        assert_eq!(net.len(), 13);
        assert_eq!(net.num_sensors(), 12);
        // Interior grid node has 4 grid neighbors (plus possibly the base).
        let center = NodeId(1 + 4 + 1); // row 1, col 1
        assert!(net.neighbors(center).len() >= 4);
    }

    #[test]
    fn hop_counts_bfs_levels() {
        // Chain: base - a - b - c, spacing 1, range 1.
        let net = Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),
                Position::new(2.0, 0.0),
                Position::new(3.0, 0.0),
            ],
            1.0,
        );
        assert_eq!(net.hop_counts(), vec![0, 1, 2, 3]);
        assert!(net.is_connected());
    }

    #[test]
    fn disconnected_network_detected() {
        let net = Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),
                Position::new(10.0, 0.0), // out of range of everyone
            ],
            1.5,
        );
        assert!(!net.is_connected());
        let hops = net.hop_counts();
        assert_eq!(hops[2], u32::MAX);
    }

    #[test]
    fn synthetic_600_in_20x20_is_connected_at_range_2() {
        // The paper's Synthetic scenario: 600 sensors in 20ft x 20ft,
        // base station at (10,10). At range 2.0 the expected degree is
        // ~ pi * 4 * 1.5 ≈ 19, far above the connectivity threshold.
        let mut rng = rng_from_seed(7);
        let net =
            Network::random_in_rect(600, 20.0, 20.0, Position::new(10.0, 10.0), 2.0, &mut rng);
        assert_eq!(net.num_sensors(), 600);
        assert!(net.is_connected());
        assert!(net.average_degree() > 8.0);
    }

    #[test]
    #[should_panic(expected = "radio range must be positive")]
    fn zero_range_rejected() {
        let _ = Network::new(vec![Position::new(0.0, 0.0)], 0.0);
    }

    /// Grid bucketing into the CSR must reproduce the naive all-pairs
    /// adjacency exactly — same neighbors, same (ascending) order, no
    /// self-loops, symmetric — across ranges that put many, few, or no
    /// nodes per cell, with negative coordinates in play, on a regular
    /// grid (links at exactly the range), on a disconnected deployment
    /// with an isolated node, and on a lone base station.
    #[test]
    fn grid_bucketing_matches_all_pairs_reference() {
        let mut rng = rng_from_seed(91);
        let mut deployments: Vec<Network> = Vec::new();
        for &(sensors, width, range) in
            &[(120usize, 20.0f64, 2.5f64), (80, 20.0, 7.0), (50, 5.0, 0.4)]
        {
            let mut positions = vec![Position::new(width / 2.0, width / 2.0)];
            for _ in 0..sensors {
                positions.push(Position::new(
                    rng.gen_range(0.0..width) - width / 3.0,
                    rng.gen_range(0.0..width) - width / 3.0,
                ));
            }
            deployments.push(Network::new(positions, range));
        }
        deployments.push(Network::grid(6, 5, 1.0, Position::new(2.5, 2.0), 1.0));
        deployments.push(Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),
                Position::new(1.0, 1.0),
                Position::new(30.0, 30.0), // hears no one
                Position::new(-30.0, 30.0),
                Position::new(-30.5, 30.0),
            ],
            1.5,
        ));
        deployments.push(Network::new(vec![Position::new(3.0, 4.0)], 2.0));
        for net in &deployments {
            let positions = net.positions();
            let range = net.range();
            let mut links = 0;
            for u in net.node_ids() {
                let i = u.index();
                let reference: Vec<NodeId> = (0..positions.len())
                    .filter(|&j| j != i && positions[i].distance(positions[j]) <= range)
                    .map(|j| NodeId(j as u32))
                    .collect();
                assert_eq!(
                    net.neighbors(u),
                    &reference[..],
                    "node {i} at range {range}"
                );
                for &v in net.neighbors(u) {
                    assert!(net.neighbors(v).contains(&u), "asymmetric edge {u} -> {v}");
                }
                links += reference.len();
            }
            assert_eq!(
                net.average_degree(),
                links as f64 / net.len() as f64,
                "average degree at range {range}"
            );
        }
        let disconnected = &deployments[4];
        assert!(disconnected.neighbors(NodeId(3)).is_empty());
        assert_eq!(disconnected.neighbors(NodeId(4)), &[NodeId(5)]);
        assert!(deployments[5].neighbors(BASE_STATION).is_empty());
        assert_eq!(deployments[5].average_degree(), 0.0);
    }

    #[test]
    fn large_deployment_builds_quickly_and_connected() {
        // 10k motes would be ~50M pair tests under the all-pairs scan;
        // bucketing keeps this test effectively instant.
        let mut rng = rng_from_seed(92);
        let net =
            Network::random_in_rect(10_000, 80.0, 80.0, Position::new(40.0, 40.0), 2.0, &mut rng);
        assert_eq!(net.num_sensors(), 10_000);
        assert!(net.is_connected());
        assert!(net.average_degree() > 8.0);
    }
}
