//! Node churn: seeded join/leave schedules and their channel overlay.
//!
//! [`crate::loss::DeadNodes`] injects *permanent* failures; real
//! deployments see **churn** — nodes dropping out mid-run (battery
//! swap, reboot, duty cycle) and rejoining later. [`ChurnSchedule`]
//! models that as one up/down two-state Markov chain per node
//! ([`crate::markov::BinaryMarkov`]), stepped once per epoch: an alive
//! node leaves with probability `leave_rate` each epoch and stays away
//! for a geometric downtime of mean `mean_downtime` epochs. Everything
//! is a pure function of `(seed, node, epoch)`, so trials replay
//! bit-for-bit and every scheme sees the identical churn trajectory.
//!
//! The schedule has two consumers, deliberately decoupled:
//!
//! * **Channel**: [`ChurnLoss`] (via [`ChurnSchedule::overlay`]) wraps
//!   any inner [`LossModel`] — an absent sender or receiver loses every
//!   transmission, exactly like [`crate::loss::DeadNodes`] but
//!   epoch-dependent. It composes with `DeadNodes` in either order.
//! * **Topology**: [`ChurnSchedule::events_at`] reports the epoch's
//!   join/leave transitions so the aggregation layer can route around
//!   absent parents (see `td_topology::maintenance::apply_churn`) as a
//!   bounded structural delta instead of a rebuild.
//!
//! The base station (node 0) never churns.
//!
//! ```
//! use td_netsim::churn::ChurnSchedule;
//! use td_netsim::loss::{LossModel, NoLoss};
//! use td_netsim::network::Network;
//! use td_netsim::node::{NodeId, Position};
//!
//! let schedule = ChurnSchedule::new(50, 0.05, 10.0, 42);
//! // Deterministic per (node, epoch); the deployment starts complete.
//! assert!(schedule.events_at(0).absent.is_empty());
//! let events = schedule.events_at(30);
//! assert_eq!(events.epoch, 30);
//! // The channel overlay silences absent nodes.
//! let net = Network::new(vec![Position::new(0.0, 0.0), Position::new(1.0, 0.0)], 1.5);
//! let model = schedule.overlay(NoLoss);
//! let expect = if schedule.is_absent(NodeId(1), 30) { 1.0 } else { 0.0 };
//! assert_eq!(model.loss_rate(NodeId(1), NodeId(0), &net, 30), expect);
//! ```

use crate::loss::LossModel;
use crate::markov::{BinaryMarkov, StartState};
use crate::network::Network;
use crate::node::{NodeId, BASE_STATION};

/// The membership transitions of one epoch, plus the resulting absent
/// set — everything the topology layer needs to route around churn and
/// everything the accounting layer surfaces per pane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnEvents {
    /// The epoch these events fire at.
    pub epoch: u64,
    /// Nodes that came back up this epoch (down at `epoch − 1`).
    pub joined: Vec<NodeId>,
    /// Nodes that went down this epoch (up at `epoch − 1`).
    pub left: Vec<NodeId>,
    /// Every node absent *at* this epoch (after the transitions).
    pub absent: Vec<NodeId>,
}

impl ChurnEvents {
    /// Whether the epoch saw any membership change.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.left.is_empty()
    }
}

/// A seeded per-node join/leave schedule: each sensor is an independent
/// up/down Markov chain stepped per epoch (`leave_rate` = P(up→down),
/// `1/mean_downtime` = P(down→up)). All nodes start up at epoch 0 —
/// deployments begin complete and decay — and the base station is
/// pinned up forever.
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    num_nodes: usize,
    chain: BinaryMarkov,
}

impl ChurnSchedule {
    /// Create a schedule over `num_nodes` nodes. `leave_rate` is the
    /// per-epoch probability an alive node goes down;
    /// `mean_downtime` is the mean absence length in epochs.
    ///
    /// # Panics
    /// Panics unless `0 <= leave_rate <= 1` and `mean_downtime >= 1`.
    pub fn new(num_nodes: usize, leave_rate: f64, mean_downtime: f64, seed: u64) -> Self {
        assert!(mean_downtime >= 1.0, "downtime lasts at least one epoch");
        ChurnSchedule {
            num_nodes,
            chain: BinaryMarkov::new(
                leave_rate,
                1.0 / mean_downtime,
                StartState::Fixed(false),
                seed,
            ),
        }
    }

    /// A schedule that never fires (the churn-free baseline of sweeps).
    pub fn disabled(num_nodes: usize) -> Self {
        ChurnSchedule::new(num_nodes, 0.0, 1.0, 0)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.num_nodes
    }

    /// Whether the schedule covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.num_nodes == 0
    }

    /// Whether `node` is absent at `epoch` (the base station never is).
    pub fn is_absent(&self, node: NodeId, epoch: u64) -> bool {
        node != BASE_STATION
            && node.index() < self.num_nodes
            && self.chain.state_at(node.0 as u64, epoch)
    }

    /// Every absent node at `epoch`, in id order.
    #[cfg(test)]
    pub fn absent_at(&self, epoch: u64) -> Vec<NodeId> {
        (1..self.num_nodes as u32)
            .map(NodeId)
            .filter(|&n| self.is_absent(n, epoch))
            .collect()
    }

    /// The membership transitions between `epoch − 1` and `epoch`
    /// (empty transitions at epoch 0: the run starts complete), plus
    /// the absent set at `epoch`.
    pub fn events_at(&self, epoch: u64) -> ChurnEvents {
        let mut events = ChurnEvents {
            epoch,
            ..ChurnEvents::default()
        };
        for node in (1..self.num_nodes as u32).map(NodeId) {
            // Epoch-monotone queries (`epoch − 1` before `epoch`) keep
            // the chain memo advancing instead of replaying from 0.
            let before = epoch > 0 && self.is_absent(node, epoch - 1);
            let now = self.is_absent(node, epoch);
            if now {
                events.absent.push(node);
            }
            if epoch == 0 {
                continue;
            }
            match (before, now) {
                (false, true) => events.left.push(node),
                (true, false) => events.joined.push(node),
                _ => {}
            }
        }
        events
    }

    /// Overlay this schedule on an inner loss model: transmissions to
    /// or from an absent node are always lost.
    pub fn overlay<M: LossModel>(&self, inner: M) -> ChurnLoss<'_, M> {
        ChurnLoss {
            schedule: self,
            inner,
        }
    }
}

/// A [`LossModel`] adapter silencing nodes their [`ChurnSchedule`]
/// marks absent; present pairs defer to the inner model. Composes with
/// [`crate::loss::DeadNodes`] (and any other wrapper) in either order.
#[derive(Clone, Debug)]
pub struct ChurnLoss<'a, M> {
    schedule: &'a ChurnSchedule,
    inner: M,
}

impl<M: LossModel> LossModel for ChurnLoss<'_, M> {
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64 {
        if self.schedule.is_absent(from, epoch) || self.schedule.is_absent(to, epoch) {
            1.0
        } else {
            self.inner.loss_rate(from, to, net, epoch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::{DeadNodes, NoLoss};
    use crate::node::Position;

    fn net3() -> Network {
        Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),
                Position::new(2.0, 0.0),
            ],
            1.5,
        )
    }

    #[test]
    fn starts_complete_and_base_never_churns() {
        let s = ChurnSchedule::new(100, 0.2, 5.0, 3);
        assert!(s.absent_at(0).is_empty());
        for epoch in 0..500 {
            assert!(!s.is_absent(BASE_STATION, epoch));
        }
    }

    #[test]
    fn events_partition_transitions_and_match_absent_sets() {
        let s = ChurnSchedule::new(60, 0.1, 4.0, 9);
        let mut prev_absent = s.absent_at(0);
        let mut any_left = false;
        let mut any_joined = false;
        for epoch in 1..200 {
            let ev = s.events_at(epoch);
            assert_eq!(ev.absent, s.absent_at(epoch));
            // absent(e) = absent(e-1) + left − joined.
            let mut expect = prev_absent.clone();
            expect.retain(|n| !ev.joined.contains(n));
            expect.extend(ev.left.iter().copied());
            expect.sort_unstable();
            assert_eq!(ev.absent, expect, "epoch {epoch}");
            any_left |= !ev.left.is_empty();
            any_joined |= !ev.joined.is_empty();
            prev_absent = ev.absent;
        }
        assert!(any_left && any_joined, "no churn ever fired");
    }

    #[test]
    fn stationary_absence_matches_occupancy() {
        let s = ChurnSchedule::new(80, 0.05, 5.0, 21);
        // The up/down chain's stationary absence:
        // leave / (leave + 1/downtime) = 0.05 / (0.05 + 0.2).
        let pi = 0.2;
        let mut down = 0usize;
        let mut total = 0usize;
        // Skip the all-up transient at the start.
        for epoch in 200..600 {
            down += s.absent_at(epoch).len();
            total += 79;
        }
        let frac = down as f64 / total as f64;
        assert!((frac - pi).abs() < 0.03, "absence {frac} vs {pi}");
    }

    #[test]
    fn disabled_schedule_never_fires() {
        let s = ChurnSchedule::disabled(40);
        for epoch in 0..100 {
            assert!(s.absent_at(epoch).is_empty());
            assert!(s.events_at(epoch).is_empty());
        }
    }

    #[test]
    fn overlay_silences_absent_nodes_and_composes() {
        let net = net3();
        let s = ChurnSchedule::new(3, 0.3, 4.0, 17);
        let epoch = (1..500)
            .find(|&e| s.is_absent(NodeId(1), e))
            .expect("node 1 eventually leaves");
        let m = s.overlay(NoLoss);
        assert_eq!(m.loss_rate(NodeId(1), NodeId(0), &net, epoch), 1.0);
        assert_eq!(m.loss_rate(NodeId(0), NodeId(1), &net, epoch), 1.0);
        let present = (1..500).find(|&e| !s.is_absent(NodeId(2), e)).unwrap();
        assert_eq!(m.loss_rate(NodeId(2), NodeId(0), &net, present), 0.0);
        // Composition with DeadNodes: both failure sources apply.
        let dead = DeadNodes::new(&[NodeId(2)], s.overlay(NoLoss));
        assert_eq!(dead.loss_rate(NodeId(2), NodeId(0), &net, present), 1.0);
        assert_eq!(dead.loss_rate(NodeId(1), NodeId(0), &net, epoch), 1.0);
    }

    #[test]
    fn schedule_is_deterministic_across_clones() {
        let a = ChurnSchedule::new(50, 0.1, 6.0, 33);
        let b = a.clone();
        for epoch in (0..120).rev() {
            assert_eq!(a.absent_at(epoch), b.absent_at(epoch));
        }
    }
}
