//! Message-loss models and delivery primitives.
//!
//! Wireless sensor networks commonly see up to 30% message loss (\[23\] in
//! the paper), and the evaluation sweeps loss rates from 0 to 1 under two
//! failure models (§7.1):
//!
//! * [`Global`]`(p)` — every transmission is dropped independently with
//!   probability `p`.
//! * [`Regional`]`(p1, p2)` — transmissions *sent by* nodes inside a
//!   rectangular failure region are dropped with probability `p1`, everyone
//!   else with `p2`. (The paper attributes the loss rate to nodes in the
//!   region; we interpret this as sender-side loss, which matches how the
//!   delta region reacts in Figure 4.)
//! * [`DistanceLoss`] — per-link loss rising with distance, the LabData
//!   reconstruction's stand-in for the deployment's measured link losses.
//! * [`Timeline`] — switches between models at given epochs, for the
//!   dynamic scenario of Figure 6.
//! * [`DeadNodes`] — failure injection: listed nodes never deliver.
//! * [`GilbertElliott`] — temporally **correlated** burst loss: a
//!   per-sender (or per-link) two-state Good/Bad Markov channel stepped
//!   once per epoch. With equal Good/Bad drop rates it reduces bit for
//!   bit to [`Global`] — the state machinery draws from its own seeded
//!   substream, never from the delivery RNG.
//!
//! Loss is receiver-independent for unicast and receiver-*dependent* for
//! broadcast: when a node broadcasts, each potential receiver flips its own
//! coin, which is what gives multi-path its robustness (each reading must be
//! lost on *all* paths to disappear).

use crate::network::Network;
use crate::node::{NodeId, Rect};
use rand::Rng;

/// A message-loss model: the probability that a single transmission from
/// `from` to `to` at `epoch` is lost.
///
/// Implementations must be pure functions of their arguments so simulations
/// are reproducible; all randomness happens in the delivery helpers.
pub trait LossModel: Send + Sync {
    /// Probability in `[0, 1]` that a transmission `from -> to` during
    /// `epoch` is lost.
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64;

    /// Sample whether a single transmission is delivered.
    fn delivered<R: Rng + ?Sized>(
        &self,
        from: NodeId,
        to: NodeId,
        net: &Network,
        epoch: u64,
        rng: &mut R,
    ) -> bool
    where
        Self: Sized,
    {
        let p = self.loss_rate(from, to, net, epoch);
        debug_assert!((0.0..=1.0).contains(&p), "loss rate {p} out of range");
        // A draw below `p` drops the message; p = 0 never drops, p = 1
        // always drops (`gen` is in [0, 1)).
        rng.gen::<f64>() >= p
    }
}

/// Blanket impl so `&M` and boxed models are usable wherever a model is.
impl<M: LossModel + ?Sized> LossModel for &M {
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64 {
        (**self).loss_rate(from, to, net, epoch)
    }
}

impl LossModel for Box<dyn LossModel> {
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64 {
        (**self).loss_rate(from, to, net, epoch)
    }
}

/// Perfect channel: nothing is ever lost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn loss_rate(&self, _: NodeId, _: NodeId, _: &Network, _: u64) -> f64 {
        0.0
    }
}

/// The paper's `Global(p)` failure model: uniform loss everywhere.
#[derive(Clone, Copy, Debug)]
pub struct Global {
    p: f64,
}

impl Global {
    /// Create a global loss model with rate `p`.
    ///
    /// # Panics
    /// Panics unless `0 <= p <= 1`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss rate {p} out of [0,1]");
        Global { p }
    }

    /// The loss rate.
    pub fn rate(&self) -> f64 {
        self.p
    }
}

impl LossModel for Global {
    fn loss_rate(&self, _: NodeId, _: NodeId, _: &Network, _: u64) -> f64 {
        self.p
    }
}

/// The paper's `Regional(p1, p2)` failure model: senders inside `region`
/// lose messages at `p_inside`, all other senders at `p_outside`.
#[derive(Clone, Copy, Debug)]
pub struct Regional {
    region: Rect,
    p_inside: f64,
    p_outside: f64,
}

impl Regional {
    /// Create a regional loss model.
    ///
    /// # Panics
    /// Panics unless both rates are in `[0, 1]`.
    pub fn new(region: Rect, p_inside: f64, p_outside: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_inside), "p_inside out of [0,1]");
        assert!((0.0..=1.0).contains(&p_outside), "p_outside out of [0,1]");
        Regional {
            region,
            p_inside,
            p_outside,
        }
    }

    /// The failure region.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Loss rate for senders inside the region.
    pub fn p_inside(&self) -> f64 {
        self.p_inside
    }

    /// Loss rate for senders outside the region.
    pub fn p_outside(&self) -> f64 {
        self.p_outside
    }
}

impl LossModel for Regional {
    fn loss_rate(&self, from: NodeId, _: NodeId, net: &Network, _: u64) -> f64 {
        if self.region.contains(net.position(from)) {
            self.p_inside
        } else {
            self.p_outside
        }
    }
}

/// Distance-dependent link loss: `p(d) = floor + (ceiling - floor) *
/// (d / range)^steepness`, clamped to `[floor, ceiling]`.
///
/// This is the standard empirical shape for mote radios (loss low in the
/// connected region, rising sharply near the range edge \[23\]) and is what
/// the LabData reconstruction uses in place of the measured per-link rates.
#[derive(Clone, Copy, Debug)]
pub struct DistanceLoss {
    floor: f64,
    ceiling: f64,
    steepness: f64,
}

impl DistanceLoss {
    /// Create a distance-based loss model.
    ///
    /// # Panics
    /// Panics unless `0 <= floor <= ceiling <= 1` and `steepness > 0`.
    pub fn new(floor: f64, ceiling: f64, steepness: f64) -> Self {
        assert!((0.0..=1.0).contains(&floor));
        assert!((0.0..=1.0).contains(&ceiling));
        assert!(floor <= ceiling, "floor {floor} > ceiling {ceiling}");
        assert!(steepness > 0.0);
        DistanceLoss {
            floor,
            ceiling,
            steepness,
        }
    }
}

impl LossModel for DistanceLoss {
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, _: u64) -> f64 {
        let frac = (net.distance(from, to) / net.range()).clamp(0.0, 1.0);
        self.floor + (self.ceiling - self.floor) * frac.powf(self.steepness)
    }
}

/// A loss model that switches between phases at fixed epochs — the dynamic
/// scenario of Figure 6 (`Global(0)` → `Regional(0.3,0)` at t=100 →
/// `Global(0.3)` at t=200 → `Global(0)` at t=300).
pub struct Timeline {
    /// `(start_epoch, model)` phases, sorted by `start_epoch`; the phase in
    /// effect at epoch `e` is the last one with `start_epoch <= e`.
    phases: Vec<(u64, Box<dyn LossModel>)>,
}

impl Timeline {
    /// Create a timeline from `(start_epoch, model)` phases.
    ///
    /// # Panics
    /// Panics if `phases` is empty, unsorted, or does not start at epoch 0.
    pub fn new(phases: Vec<(u64, Box<dyn LossModel>)>) -> Self {
        assert!(!phases.is_empty(), "timeline needs at least one phase");
        assert_eq!(phases[0].0, 0, "first phase must start at epoch 0");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phases must be strictly sorted by start epoch"
        );
        Timeline { phases }
    }

    /// Which phase index is in effect at `epoch`.
    pub fn phase_at(&self, epoch: u64) -> usize {
        match self.phases.binary_search_by_key(&epoch, |p| p.0) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }
}

impl LossModel for Timeline {
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64 {
        self.phases[self.phase_at(epoch)]
            .1
            .loss_rate(from, to, net, epoch)
    }
}

/// Failure injection: the listed nodes are dead — every transmission they
/// send or should receive is lost. Wraps an inner model for the
/// remaining nodes.
pub struct DeadNodes<M> {
    /// Indexed by node id, sized to the largest dead id; ids past the end
    /// are alive.
    dead: Vec<bool>,
    inner: M,
}

impl<M: LossModel> DeadNodes<M> {
    /// Mark `dead_ids` dead on top of `inner`. Any id is accepted, even
    /// one past the end of the network.
    pub fn new(dead_ids: &[NodeId], inner: M) -> Self {
        let len = dead_ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        let mut dead = vec![false; len];
        for id in dead_ids {
            dead[id.index()] = true;
        }
        DeadNodes { dead, inner }
    }
}

impl<M: LossModel> LossModel for DeadNodes<M> {
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64 {
        if self.dead.get(from.index()).copied().unwrap_or(false)
            || self.dead.get(to.index()).copied().unwrap_or(false)
        {
            1.0
        } else {
            self.inner.loss_rate(from, to, net, epoch)
        }
    }
}

/// Whose channel state a [`GilbertElliott`] chain tracks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BurstScope {
    /// One Good/Bad chain per **sender**: a node in a bad state loses
    /// every transmission it makes that epoch (interference or a duty
    /// cycle local to the mote). This is the default — it correlates a
    /// sender's unicast and broadcast fates the way a shared radio does.
    #[default]
    PerSender,
    /// One chain per **directed link**: fading is local to a pair, so a
    /// sender can be bad toward one receiver and fine toward another.
    PerLink,
}

/// The Gilbert–Elliott two-state burst-loss channel: each sender (or
/// directed link, per [`BurstScope`]) is in a *Good* or *Bad* state,
/// dropping transmissions with `p_good` / `p_bad` respectively, and the
/// state evolves once per **epoch** as a two-state Markov chain
/// (`p_enter_bad` = P(Good→Bad), `p_exit_bad` = P(Bad→Good), so the
/// mean burst lasts `1/p_exit_bad` epochs). This is the standard model
/// for temporally correlated wireless loss — the failure shape i.i.d.
/// Bernoulli sweeps can't produce: entire epochs where a subtree's
/// uplink is gone, then quiet stretches at the same average rate.
///
/// Chain states start in the stationary distribution (rate-matched from
/// epoch 0) and are a pure function of `(seed, entity, epoch)` drawn
/// from a private hash substream ([`crate::markov::BinaryMarkov`]) —
/// **not** from the delivery RNG passed to
/// [`delivered`](LossModel::delivered). Two consequences:
///
/// * simulations stay bit-for-bit reproducible and scheme-comparable
///   (every scheme sees the identical burst trajectory under one seed);
/// * with `p_good == p_bad == p` the model is **bit-identical** to
///   [`Global`]`(p)`: the returned rate is the constant `p` whatever
///   the hidden state, and the delivery RNG consumption is unchanged.
///
/// ```
/// use td_netsim::loss::{GilbertElliott, Global, LossModel};
/// use td_netsim::network::Network;
/// use td_netsim::node::{NodeId, Position};
/// use td_netsim::rng::rng_from_seed;
///
/// let net = Network::new(vec![Position::new(0.0, 0.0), Position::new(1.0, 0.0)], 1.5);
/// // ~20% average loss arriving in bursts of mean length 8 epochs.
/// let bursty = GilbertElliott::bursty(0.2, 8.0, 0.9, 7);
/// assert!(bursty.loss_rate(NodeId(1), NodeId(0), &net, 0) <= 0.9);
///
/// // Equal Good/Bad rates reduce to Bernoulli bit for bit.
/// let ge = GilbertElliott::new(0.3, 0.3, 0.1, 0.2, 7);
/// let (mut a, mut b) = (rng_from_seed(1), rng_from_seed(1));
/// for epoch in 0..50 {
///     assert_eq!(
///         ge.delivered(NodeId(1), NodeId(0), &net, epoch, &mut a),
///         Global::new(0.3).delivered(NodeId(1), NodeId(0), &net, epoch, &mut b),
///     );
/// }
/// ```
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    p_good: f64,
    p_bad: f64,
    chain: crate::markov::BinaryMarkov,
    scope: BurstScope,
}

impl GilbertElliott {
    /// Create a per-sender burst channel. `p_good`/`p_bad` are the drop
    /// probabilities in the Good/Bad states; `p_enter_bad`/`p_exit_bad`
    /// are the per-epoch transition probabilities. `seed` drives the
    /// state chains only (derive it per trial via
    /// [`crate::rng::derive_seed`] so trials see independent bursts).
    ///
    /// # Panics
    /// Panics unless all four probabilities are in `[0, 1]`.
    pub fn new(p_good: f64, p_bad: f64, p_enter_bad: f64, p_exit_bad: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_good), "p_good out of [0,1]");
        assert!((0.0..=1.0).contains(&p_bad), "p_bad out of [0,1]");
        GilbertElliott {
            p_good,
            p_bad,
            chain: crate::markov::BinaryMarkov::new(
                p_enter_bad,
                p_exit_bad,
                crate::markov::StartState::Stationary,
                seed,
            ),
            scope: BurstScope::PerSender,
        }
    }

    /// A burst channel hitting an average loss rate of `mean_loss` with
    /// bursts of mean length `mean_burst_len` epochs: the Bad state
    /// drops at `p_bad`, the Good state at 0, and the stationary Bad
    /// occupancy is sized to `mean_loss / p_bad`. This is the
    /// rate-matched counterpart of [`Global`]`(mean_loss)` for burst
    /// sweeps: same long-run loss, different temporal clustering.
    ///
    /// # Panics
    /// Panics unless `0 <= mean_loss < p_bad <= 1`,
    /// `mean_burst_len >= 1`, and the combination is feasible: hitting
    /// the target occupancy needs `P(Good→Bad) ≤ 1`, i.e. the mean Good
    /// sojourn `(1 − π_bad)·burst/π_bad` must last at least one epoch.
    /// (Rejecting infeasible points beats silently clamping to a
    /// channel whose realized loss undershoots the requested mean.)
    pub fn bursty(mean_loss: f64, mean_burst_len: f64, p_bad: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_bad), "p_bad out of [0,1]");
        assert!(
            (0.0..p_bad).contains(&mean_loss),
            "mean_loss {mean_loss} must sit below p_bad {p_bad}"
        );
        assert!(mean_burst_len >= 1.0, "bursts last at least one epoch");
        let pi_bad = mean_loss / p_bad;
        let p_exit = 1.0 / mean_burst_len;
        let p_enter = pi_bad * p_exit / (1.0 - pi_bad);
        assert!(
            p_enter <= 1.0,
            "infeasible burst shape: occupancy {pi_bad:.3} with bursts of \
             {mean_burst_len} epochs needs P(Good->Bad) = {p_enter:.3} > 1; \
             lengthen the bursts or lower mean_loss/raise p_bad"
        );
        GilbertElliott::new(0.0, p_bad, p_enter, p_exit, seed)
    }

    /// Track one chain per directed link instead of per sender.
    pub fn per_link(mut self) -> Self {
        self.scope = BurstScope::PerLink;
        self
    }

    /// The long-run average loss rate
    /// (`π_bad · p_bad + (1 − π_bad) · p_good`).
    #[cfg(test)]
    pub fn stationary_loss(&self) -> f64 {
        let pi = self.chain.stationary_p1();
        pi * self.p_bad + (1.0 - pi) * self.p_good
    }

    /// Mean Bad-state sojourn in epochs (`1 / p_exit_bad`; infinite if
    /// the Bad state never exits).
    #[cfg(test)]
    pub fn mean_burst_len(&self) -> f64 {
        1.0 / self.chain.rates().1
    }

    /// Whether the entity behind `from -> to` is in the Bad state at
    /// `epoch`.
    #[cfg(test)]
    pub fn in_bad_state(&self, from: NodeId, to: NodeId, epoch: u64) -> bool {
        self.chain.state_at(self.key(from, to), epoch)
    }

    /// The chain key of a transmission under the configured scope.
    #[inline]
    fn key(&self, from: NodeId, to: NodeId) -> u64 {
        match self.scope {
            BurstScope::PerSender => from.0 as u64,
            BurstScope::PerLink => ((from.0 as u64) << 32) | to.0 as u64,
        }
    }
}

impl LossModel for GilbertElliott {
    fn loss_rate(&self, from: NodeId, to: NodeId, _: &Network, epoch: u64) -> f64 {
        if self.chain.state_at(self.key(from, to), epoch) {
            self.p_bad
        } else {
            self.p_good
        }
    }
}

/// Retransmission policy for tree links (§7.4.3): a sender retries a failed
/// unicast up to `retries` extra times. Each retry costs a transmission and
/// waits for an acknowledgment, so latency and channel capacity suffer
/// (modeled by the caller via [`attempts_used`](RetransmitOutcome)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Retransmit {
    /// Number of retries after the first attempt (0 = plain unicast).
    pub retries: u32,
}

/// Result of a (possibly retransmitted) unicast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetransmitOutcome {
    /// Whether any attempt succeeded.
    pub delivered: bool,
    /// How many transmissions were actually sent (1..=1+retries).
    pub attempts_used: u32,
}

/// Send one message over a tree link with optional retransmissions.
pub fn unicast<M: LossModel, R: Rng + ?Sized>(
    model: &M,
    policy: Retransmit,
    from: NodeId,
    to: NodeId,
    net: &Network,
    epoch: u64,
    rng: &mut R,
) -> RetransmitOutcome {
    let mut attempts_used = 0;
    for _ in 0..=policy.retries {
        attempts_used += 1;
        if model.delivered(from, to, net, epoch, rng) {
            return RetransmitOutcome {
                delivered: true,
                attempts_used,
            };
        }
    }
    RetransmitOutcome {
        delivered: false,
        attempts_used,
    }
}

/// Broadcast one message to a set of potential receivers: each receiver
/// independently hears it or not. Returns the receivers that heard it.
///
/// This is the physical-layer behaviour multi-path aggregation exploits:
/// one transmission, many chances to be heard.
pub fn broadcast<M: LossModel, R: Rng + ?Sized>(
    model: &M,
    from: NodeId,
    receivers: &[NodeId],
    net: &Network,
    epoch: u64,
    rng: &mut R,
) -> Vec<NodeId> {
    receivers
        .iter()
        .copied()
        .filter(|&to| model.delivered(from, to, net, epoch, rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Position;
    use crate::rng::rng_from_seed;

    fn line_net() -> Network {
        Network::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(1.0, 0.0),
                Position::new(2.0, 0.0),
                Position::new(11.0, 0.0),
            ],
            1.5,
        )
    }

    #[test]
    fn no_loss_always_delivers() {
        let net = line_net();
        let mut rng = rng_from_seed(0);
        for _ in 0..100 {
            assert!(NoLoss.delivered(NodeId(1), NodeId(0), &net, 0, &mut rng));
        }
    }

    #[test]
    fn global_one_never_delivers() {
        let net = line_net();
        let mut rng = rng_from_seed(0);
        let m = Global::new(1.0);
        for _ in 0..100 {
            assert!(!m.delivered(NodeId(1), NodeId(0), &net, 0, &mut rng));
        }
    }

    #[test]
    fn global_rate_empirical() {
        let net = line_net();
        let mut rng = rng_from_seed(42);
        let m = Global::new(0.3);
        let trials = 20_000;
        let delivered = (0..trials)
            .filter(|_| m.delivered(NodeId(1), NodeId(0), &net, 0, &mut rng))
            .count();
        let rate = delivered as f64 / trials as f64;
        assert!((rate - 0.7).abs() < 0.02, "delivery rate {rate}");
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn global_rejects_bad_rate() {
        let _ = Global::new(1.5);
    }

    #[test]
    fn regional_rates_by_sender_position() {
        let net = line_net();
        let region = Rect::from_coords(0.0, -1.0, 1.5, 1.0); // contains nodes 0,1
        let m = Regional::new(region, 0.8, 0.05);
        assert_eq!(m.loss_rate(NodeId(1), NodeId(2), &net, 0), 0.8);
        assert_eq!(m.loss_rate(NodeId(2), NodeId(1), &net, 0), 0.05);
    }

    #[test]
    fn distance_loss_monotonic() {
        let net = line_net();
        let m = DistanceLoss::new(0.05, 0.6, 2.0);
        let near = m.loss_rate(NodeId(0), NodeId(1), &net, 0); // d = 1.0
        let base_adj = m.loss_rate(NodeId(1), NodeId(2), &net, 0); // d = 1.0
        assert!((near - base_adj).abs() < 1e-12);
        // distance 2 > range 1.5 clamps to ceiling
        let far = m.loss_rate(NodeId(0), NodeId(2), &net, 0);
        assert!((far - 0.6).abs() < 1e-12);
        assert!(near < far);
        assert!(near >= 0.05);
    }

    #[test]
    fn timeline_switches_phases() {
        let net = line_net();
        let t = Timeline::new(vec![
            (0, Box::new(NoLoss) as Box<dyn LossModel>),
            (100, Box::new(Global::new(0.3))),
            (200, Box::new(NoLoss)),
        ]);
        assert_eq!(t.loss_rate(NodeId(1), NodeId(0), &net, 0), 0.0);
        assert_eq!(t.loss_rate(NodeId(1), NodeId(0), &net, 99), 0.0);
        assert_eq!(t.loss_rate(NodeId(1), NodeId(0), &net, 100), 0.3);
        assert_eq!(t.loss_rate(NodeId(1), NodeId(0), &net, 199), 0.3);
        assert_eq!(t.loss_rate(NodeId(1), NodeId(0), &net, 200), 0.0);
        assert_eq!(t.loss_rate(NodeId(1), NodeId(0), &net, 5000), 0.0);
        assert_eq!(t.phase_at(150), 1);
    }

    #[test]
    #[should_panic(expected = "first phase must start at epoch 0")]
    fn timeline_must_start_at_zero() {
        let _ = Timeline::new(vec![(5, Box::new(NoLoss) as Box<dyn LossModel>)]);
    }

    #[test]
    fn dead_nodes_never_send_or_receive() {
        let net = line_net();
        let m = DeadNodes::new(&[NodeId(1)], NoLoss);
        assert_eq!(m.loss_rate(NodeId(1), NodeId(0), &net, 0), 1.0);
        assert_eq!(m.loss_rate(NodeId(2), NodeId(1), &net, 0), 1.0);
        assert_eq!(m.loss_rate(NodeId(2), NodeId(0), &net, 0), 0.0);
    }

    #[test]
    fn dead_node_past_the_network_end_is_dead() {
        // The line network has 4 nodes; id 9 lies past its end.
        let net = line_net();
        let m = DeadNodes::new(&[NodeId(9), NodeId(1)], NoLoss);
        assert_eq!(m.loss_rate(NodeId(9), NodeId(0), &net, 0), 1.0);
        assert_eq!(m.loss_rate(NodeId(0), NodeId(9), &net, 0), 1.0);
        assert_eq!(m.loss_rate(NodeId(1), NodeId(0), &net, 0), 1.0);
        assert_eq!(m.loss_rate(NodeId(3), NodeId(2), &net, 0), 0.0);
        // Ids past the largest dead one are alive.
        assert_eq!(m.loss_rate(NodeId(10), NodeId(0), &net, 0), 0.0);
    }

    #[test]
    fn retransmission_improves_delivery() {
        let net = line_net();
        let m = Global::new(0.5);
        let trials = 10_000;
        let mut rng = rng_from_seed(9);
        let mut plain = 0;
        let mut retried = 0;
        for _ in 0..trials {
            if unicast(
                &m,
                Retransmit { retries: 0 },
                NodeId(1),
                NodeId(0),
                &net,
                0,
                &mut rng,
            )
            .delivered
            {
                plain += 1;
            }
            if unicast(
                &m,
                Retransmit { retries: 2 },
                NodeId(1),
                NodeId(0),
                &net,
                0,
                &mut rng,
            )
            .delivered
            {
                retried += 1;
            }
        }
        let p_plain = plain as f64 / trials as f64;
        let p_retried = retried as f64 / trials as f64;
        assert!((p_plain - 0.5).abs() < 0.03, "{p_plain}");
        // 1 - 0.5^3 = 0.875
        assert!((p_retried - 0.875).abs() < 0.03, "{p_retried}");
    }

    #[test]
    fn retransmit_attempts_accounting() {
        let net = line_net();
        let mut rng = rng_from_seed(1);
        let all_fail = unicast(
            &Global::new(1.0),
            Retransmit { retries: 2 },
            NodeId(1),
            NodeId(0),
            &net,
            0,
            &mut rng,
        );
        assert!(!all_fail.delivered);
        assert_eq!(all_fail.attempts_used, 3);
        let first_try = unicast(
            &NoLoss,
            Retransmit { retries: 2 },
            NodeId(1),
            NodeId(0),
            &net,
            0,
            &mut rng,
        );
        assert!(first_try.delivered);
        assert_eq!(first_try.attempts_used, 1);
    }

    #[test]
    fn broadcast_hits_subset() {
        let net = line_net();
        let mut rng = rng_from_seed(5);
        let receivers = [NodeId(0), NodeId(2)];
        let heard = broadcast(&NoLoss, NodeId(1), &receivers, &net, 0, &mut rng);
        assert_eq!(heard, vec![NodeId(0), NodeId(2)]);
        let none = broadcast(&Global::new(1.0), NodeId(1), &receivers, &net, 0, &mut rng);
        assert!(none.is_empty());
    }

    #[test]
    fn broadcast_receivers_independent() {
        // With p=0.5 and 2 receivers, P(exactly one hears) = 0.5; a
        // correlated implementation would give 0.
        let net = line_net();
        let mut rng = rng_from_seed(11);
        let m = Global::new(0.5);
        let receivers = [NodeId(0), NodeId(2)];
        let mut exactly_one = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if broadcast(&m, NodeId(1), &receivers, &net, 0, &mut rng).len() == 1 {
                exactly_one += 1;
            }
        }
        let frac = exactly_one as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.03, "{frac}");
    }

    #[test]
    fn gilbert_elliott_equal_rates_is_bernoulli_bit_for_bit() {
        let net = line_net();
        for p in [0.0, 0.3, 1.0] {
            let ge = GilbertElliott::new(p, p, 0.15, 0.4, 99);
            let global = Global::new(p);
            let mut rng_a = rng_from_seed(1234);
            let mut rng_b = rng_from_seed(1234);
            for epoch in 0..200 {
                assert_eq!(
                    ge.delivered(NodeId(1), NodeId(0), &net, epoch, &mut rng_a),
                    global.delivered(NodeId(1), NodeId(0), &net, epoch, &mut rng_b),
                    "p={p} epoch={epoch}"
                );
            }
        }
    }

    #[test]
    fn gilbert_elliott_bursty_hits_target_rate_with_longer_runs() {
        let net = line_net();
        let mean_loss = 0.25;
        let bursty = GilbertElliott::bursty(mean_loss, 10.0, 0.95, 5);
        assert!((bursty.stationary_loss() - mean_loss).abs() < 1e-12);
        assert!((bursty.mean_burst_len() - 10.0).abs() < 1e-12);
        // Empirical rate over many senders and epochs approaches the
        // target, and bad epochs cluster into runs.
        let mut rng = rng_from_seed(6);
        let mut lost = 0usize;
        let mut total = 0usize;
        let mut bad_runs = Vec::new();
        for sender in 1..40u32 {
            let mut run = 0u32;
            for epoch in 0..400 {
                if !bursty.delivered(NodeId(sender), NodeId(0), &net, epoch, &mut rng) {
                    lost += 1;
                }
                total += 1;
                if bursty.in_bad_state(NodeId(sender), NodeId(0), epoch) {
                    run += 1;
                } else if run > 0 {
                    bad_runs.push(run);
                    run = 0;
                }
            }
        }
        let rate = lost as f64 / total as f64;
        assert!((rate - mean_loss).abs() < 0.03, "empirical loss {rate}");
        let mean_run = bad_runs.iter().map(|&r| r as f64).sum::<f64>() / bad_runs.len() as f64;
        assert!(mean_run > 4.0, "bursts too short: {mean_run}");
    }

    #[test]
    fn gilbert_elliott_scopes_key_their_chains_differently() {
        let net = line_net();
        let per_sender = GilbertElliott::bursty(0.4, 6.0, 1.0, 11);
        let per_link = per_sender.clone().per_link();
        // Per-sender: one chain for node 1, whatever the receiver.
        let sender_agrees = (0..300).all(|e| {
            per_sender.in_bad_state(NodeId(1), NodeId(0), e)
                == per_sender.in_bad_state(NodeId(1), NodeId(2), e)
        });
        assert!(sender_agrees, "per-sender state must ignore the receiver");
        // Per-link: the two directed links evolve independently.
        let links_differ = (0..300).any(|e| {
            per_link.in_bad_state(NodeId(1), NodeId(0), e)
                != per_link.in_bad_state(NodeId(1), NodeId(2), e)
        });
        assert!(links_differ, "per-link chains never diverged");
        let _ = &net;
    }

    #[test]
    #[should_panic(expected = "must sit below p_bad")]
    fn gilbert_elliott_bursty_rejects_unreachable_rate() {
        let _ = GilbertElliott::bursty(0.5, 4.0, 0.4, 1);
    }

    #[test]
    #[should_panic(expected = "infeasible burst shape")]
    fn gilbert_elliott_bursty_rejects_infeasible_occupancy() {
        // Occupancy 0.917 with 1-epoch bursts would need P(Good→Bad) = 11.
        let _ = GilbertElliott::bursty(0.55, 1.0, 0.6, 1);
    }
}
