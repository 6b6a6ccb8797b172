//! Multi-query aggregation sessions: the engine every experiment and
//! deployment entry point drives.
//!
//! A [`Session`] owns a scheme's topology state (a TAG tree, a rings
//! labeling, or an adapting Tributary-Delta labeling), runs one epoch at
//! a time against a caller-supplied [`QuerySet`], applies adaptation on
//! the paper's cadence (every 10 epochs by default), and accumulates
//! communication statistics. Sessions are built with [`SessionBuilder`];
//! any number of heterogeneous queries — scalar aggregates next to
//! frequent-items — register on one session and are all answered by a
//! **single per-epoch traversal** ([`Session::run_set`]), sharing the
//! contributor envelope, in-band count sketch, and adaptation signal.
//! [`Session::run_epoch`] remains as the one-query convenience and runs
//! through the same bundled engine, so a dedicated session and a bundled
//! one produce bit-identical per-query answers under the same seed.
//!
//! ## Plan cache: compile, reuse, rebuild in place
//!
//! The session compiles its [`EpochPlan`] once and reuses it while the
//! topology version holds still. When adaptation relabels vertices or
//! churn re-parents them, the version moves and the cached plan
//! rebuilds its schedule in place ([`EpochPlan::patch`]): the same
//! O(network) builder as a compile, into the plan's own tables, with
//! every arena kept. It compiles again only after
//! [`Session::clear_cached_plan`] (and, on TAG, after a churn reroute).
//! All three paths (reuse, refresh, compile) are bit-identical by
//! construction; [`Session::plan_stats`] counts how often each ran.
//!
//! The four schemes of §7:
//!
//! * [`Scheme::Tag`] — tree aggregation on a standard TAG tree \[10\];
//! * [`Scheme::Sd`] — synopsis diffusion over rings \[16\] (an all-delta
//!   labeling, no adaptation);
//! * [`Scheme::TdCoarse`] / [`Scheme::Td`] — Tributary-Delta with the
//!   §4.2 coarse / fine-grained strategies.

use crate::adapt::{AdaptAction, Adapter, AdapterConfig, Strategy};
use crate::protocol::Protocol;
use crate::query::{Answers, QuerySet};
use crate::runner::{EpochPlan, RunnerConfig};
use td_netsim::churn::ChurnEvents;
use td_netsim::loss::LossModel;
use td_netsim::network::Network;
use td_netsim::stats::CommStats;
use td_telemetry::phase::{self, Phase};
use td_topology::bushy::{build_bushy_tree, BushyOptions};
use td_topology::maintenance::{apply_churn, reroute, ChurnReport};
use td_topology::rings::Rings;
use td_topology::td::TdTopology;
use td_topology::tree::{build_tag_tree, ParentSelection, Tree};

/// The aggregation scheme a session runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Tree aggregation (TAG).
    Tag,
    /// Synopsis diffusion over rings (SD).
    Sd,
    /// Tributary-Delta, coarse-grained adaptation.
    TdCoarse,
    /// Tributary-Delta, fine-grained adaptation.
    Td,
}

impl Scheme {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Tag => "TAG",
            Scheme::Sd => "SD",
            Scheme::TdCoarse => "TD-Coarse",
            Scheme::Td => "TD",
        }
    }

    /// All four schemes in the paper's plotting order.
    pub fn all() -> [Scheme; 4] {
        [Scheme::Tag, Scheme::Sd, Scheme::TdCoarse, Scheme::Td]
    }

    /// Stable per-scheme index (the position in [`Scheme::all`]) — the
    /// collision-free salt for deriving independent RNG substreams per
    /// scheme (display names don't work: `"SD"` and `"TD"` share a
    /// length).
    pub fn index(self) -> u64 {
        match self {
            Scheme::Tag => 0,
            Scheme::Sd => 1,
            Scheme::TdCoarse => 2,
            Scheme::Td => 3,
        }
    }
}

/// Session configuration.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// The scheme to run.
    pub scheme: Scheme,
    /// Adaptation knobs (TD schemes only).
    pub adapter: AdapterConfig,
    /// Runner knobs (retransmissions).
    pub runner: RunnerConfig,
    /// Initial delta radius in ring levels (TD schemes; 0 = base only).
    pub initial_delta_levels: u16,
    /// Whether adaptation reads the instrumented exact contribution
    /// (default) or the in-band sketched estimate (protocol-faithful,
    /// noisier — the ablation benches compare both).
    pub use_exact_contrib_signal: bool,
}

impl SessionConfig {
    /// The paper's defaults for a scheme: 90% threshold, adapt every 10
    /// epochs, delta starting at the base station's first ring.
    pub fn paper_defaults(scheme: Scheme) -> Self {
        SessionConfig {
            scheme,
            adapter: AdapterConfig::default(),
            runner: RunnerConfig {
                // The non-adaptive baselines carry no adaptation fields.
                charge_adaptation_overhead: matches!(scheme, Scheme::TdCoarse | Scheme::Td),
                ..RunnerConfig::default()
            },
            initial_delta_levels: 1,
            use_exact_contrib_signal: true,
        }
    }
}

/// Counters for the session's plan-cache maintenance: how often the
/// cached [`EpochPlan`] was compiled from scratch versus rebuilt in
/// place after the topology changed ([`EpochPlan::patch`]) — the same
/// builder either way, into fresh tables or into the plan's own — and
/// how many vertices those refreshes found changed. Kept outside
/// [`CommStats`] on purpose — plan maintenance is simulator work, not radio traffic, and
/// the determinism tests pin `CommStats` equality across cache
/// strategies that *should* differ here.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Full compilations (the first epoch, and the first after
    /// [`Session::clear_cached_plan`] or a TAG churn reroute, since a
    /// TAG plan has no version to refresh by).
    pub compiles: u64,
    /// In-place rebuilds of a stale plan after adaptation or churn
    /// changed the topology.
    pub patches: u64,
    /// Vertices whose mode or tree parent had changed, summed over the
    /// refreshes (each vertex once per refresh).
    pub patched_relabels: u64,
}

/// One-line summary — what bench log lines print.
impl std::fmt::Display for PlanCacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} compiles, {} patches ({} vertices changed)",
            self.compiles, self.patches, self.patched_relabels
        )
    }
}

/// Fluent constructor for [`Session`]s: start from a scheme's paper
/// defaults, override what the deployment needs, and [`build`] against a
/// network.
///
/// ```ignore
/// let mut session = SessionBuilder::new(Scheme::Td)
///     .threshold(0.85)
///     .adapt_every(5)
///     .build(&net, &mut rng);
/// ```
///
/// [`build`]: SessionBuilder::build
#[derive(Clone, Copy, Debug)]
pub struct SessionBuilder {
    config: SessionConfig,
}

impl SessionBuilder {
    /// Start from the paper's defaults for `scheme`.
    pub fn new(scheme: Scheme) -> Self {
        SessionBuilder {
            config: SessionConfig::paper_defaults(scheme),
        }
    }

    /// Start from an explicit configuration.
    pub fn from_config(config: SessionConfig) -> Self {
        SessionBuilder { config }
    }

    /// Minimum fraction of nodes that must contribute (paper: 0.9).
    pub fn threshold(mut self, threshold: f64) -> Self {
        self.config.adapter.threshold = threshold;
        self
    }

    /// Epochs between adaptation decisions (paper: 10).
    pub fn adapt_every(mut self, epochs: u64) -> Self {
        self.config.adapter.adapt_every = epochs;
        self
    }

    /// Retries after a failed tree unicast (0 = plain).
    pub fn tree_retransmit(mut self, retries: u32) -> Self {
        self.config.runner.tree_retransmit = td_netsim::loss::Retransmit { retries };
        self
    }

    /// Initial delta radius in ring levels (TD schemes).
    pub fn initial_delta_levels(mut self, levels: u16) -> Self {
        self.config.initial_delta_levels = levels;
        self
    }

    /// Drive adaptation from the in-band sketched count instead of the
    /// instrumented exact contribution (protocol-faithful, noisier).
    pub fn in_band_signal(mut self) -> Self {
        self.config.use_exact_contrib_signal = false;
        self
    }

    /// How many threads an epoch may use.
    ///
    /// The unit of work is a **query column**: each registered query
    /// runs the whole epoch over its own typed column as one job (the
    /// shared envelope instrumentation is one more), so an epoch runs on
    /// `k = min(workers, queries)` threads — the calling thread plus
    /// `k - 1` scoped ones, spawned once per epoch — and a one-query set
    /// never spawns a thread. Loss outcomes are drawn on the calling
    /// thread before any column runs and every column writes only its
    /// own storage, so **every value produces bit-identical results** —
    /// this knob trades wall-clock only. `0` (the default) is one thread
    /// per available core; `1` = sequential. Networks smaller than
    /// [`parallel_min_nodes`](Self::parallel_min_nodes) run on the
    /// calling thread regardless.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.runner.workers = workers;
        self
    }

    /// Node-count floor below which an epoch runs its query columns on
    /// the calling thread, even with `workers > 1` (default 512 — below
    /// that spawning costs more than it saves, and the result is
    /// identical anyway).
    pub fn parallel_min_nodes(mut self, min_nodes: usize) -> Self {
        self.config.runner.parallel_min_nodes = min_nodes;
        self
    }

    /// The configuration as currently assembled.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Build the session over `net`. Topology construction draws from
    /// `rng` (deterministic given the seed stream).
    pub fn build<R: rand::Rng + ?Sized>(self, net: &Network, rng: &mut R) -> Session {
        Session::new(self.config, net, rng)
    }
}

enum SessionKind {
    Tag {
        tree: Tree,
    },
    // Boxed: the labeled topology is ~3x the TAG variant's size.
    Td {
        topo: Box<TdTopology>,
        adapter: Option<Adapter>,
    },
}

/// A running aggregation session.
pub struct Session {
    config: SessionConfig,
    net: Network,
    kind: SessionKind,
    stats: CommStats,
    sensors: usize,
    /// The compiled epoch plan, reused across epochs. Steady-state
    /// epochs run schedule-recomputation-free and reuse the plan's
    /// draw/column arenas; when adaptation or churn changes the
    /// topology the plan **rebuilds its schedule in place** (arenas
    /// untouched).
    plan: Option<EpochPlan>,
    /// Compile/refresh counters for the cached plan.
    plan_stats: PlanCacheStats,
}

/// The per-epoch record a session reports for a single-query run.
#[derive(Clone, Debug)]
pub struct EpochRecord<O> {
    /// The evaluated answer.
    pub output: O,
    /// Exact number of contributing sensors.
    pub contributing: usize,
    /// Fraction of (connected) sensors contributing.
    pub pct_contributing: f64,
    /// Current delta size (0 for TAG).
    pub delta_size: usize,
    /// What adaptation did after this epoch.
    pub action: AdaptAction,
}

/// The per-epoch record of a multi-query run: every registered query's
/// answer (fetched through its [`crate::query::QueryHandle`]) plus the
/// instrumentation every query shares.
#[derive(Debug)]
pub struct QueryRecord {
    /// Per-query answers, indexed by handle.
    pub answers: Answers,
    /// Exact number of contributing sensors (shared by all queries).
    pub contributing: usize,
    /// Fraction of (connected) sensors contributing.
    pub pct_contributing: f64,
    /// Current delta size (0 for TAG).
    pub delta_size: usize,
    /// What adaptation did after this epoch.
    pub action: AdaptAction,
}

impl Session {
    /// Create a session over a network. Topology construction draws from
    /// `rng` (deterministic given the seed stream).
    pub fn new<R: rand::Rng + ?Sized>(config: SessionConfig, net: &Network, rng: &mut R) -> Self {
        let kind = match config.scheme {
            Scheme::Tag => SessionKind::Tag {
                tree: build_tag_tree(net, ParentSelection::Random, None, false, rng),
            },
            Scheme::Sd => {
                let rings = Rings::build(net);
                let tree = build_bushy_tree(net, &rings, BushyOptions::default(), rng);
                SessionKind::Td {
                    topo: Box::new(TdTopology::all_multipath(rings, tree)),
                    adapter: None,
                }
            }
            scheme @ (Scheme::TdCoarse | Scheme::Td) => {
                let rings = Rings::build(net);
                let tree = build_bushy_tree(net, &rings, BushyOptions::default(), rng);
                let topo = Box::new(TdTopology::new(rings, tree, config.initial_delta_levels));
                let strategy = if scheme == Scheme::TdCoarse {
                    Strategy::TdCoarse
                } else {
                    Strategy::Td
                };
                SessionKind::Td {
                    topo,
                    adapter: Some(Adapter::new(config.adapter, strategy)),
                }
            }
        };
        let sensors = match &kind {
            SessionKind::Tag { tree } => tree.tree_size().saturating_sub(1),
            SessionKind::Td { topo, .. } => topo.rings().connected_count().saturating_sub(1),
        };
        Session {
            config,
            net: net.clone(),
            kind,
            stats: CommStats::new(net.len()),
            sensors,
            plan: None,
            plan_stats: PlanCacheStats::default(),
        }
    }

    /// Convenience: a session with the paper's defaults for `scheme`.
    pub fn with_paper_defaults<R: rand::Rng + ?Sized>(
        scheme: Scheme,
        net: &Network,
        rng: &mut R,
    ) -> Self {
        Session::new(SessionConfig::paper_defaults(scheme), net, rng)
    }

    /// Number of connected sensors (the `% contributing` denominator).
    pub fn sensors(&self) -> usize {
        self.sensors
    }

    /// Accumulated communication statistics.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// The session's live configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Current delta membership (empty for TAG), for Figure 4.
    pub fn delta_nodes(&self) -> Vec<td_netsim::node::NodeId> {
        match &self.kind {
            SessionKind::Tag { .. } => Vec::new(),
            SessionKind::Td { topo, .. } => topo.delta_nodes().collect(),
        }
    }

    /// Current delta size (0 for TAG) without collecting the membership.
    pub fn delta_size(&self) -> usize {
        match &self.kind {
            SessionKind::Tag { .. } => 0,
            SessionKind::Td { topo, .. } => topo.delta_size(),
        }
    }

    /// Plan-cache maintenance counters: full compiles vs in-place
    /// refreshes (and the vertices the refreshes found changed).
    pub fn plan_stats(&self) -> PlanCacheStats {
        self.plan_stats
    }

    /// The Tributary-Delta topology, when the scheme has one.
    pub fn topology(&self) -> Option<&TdTopology> {
        match &self.kind {
            SessionKind::Tag { .. } => None,
            SessionKind::Td { topo, .. } => Some(topo),
        }
    }

    /// The adapter's current damping multiplier, when the scheme adapts.
    pub fn adapter_damping(&self) -> Option<u64> {
        match &self.kind {
            SessionKind::Td {
                adapter: Some(a), ..
            } => Some(a.damping()),
            _ => None,
        }
    }

    /// Drop the cached [`EpochPlan`], forcing the next epoch to
    /// compile a new one from the topology. Results are unaffected (the
    /// compile, reuse, and refresh paths are bit-identical); this exists
    /// so benchmarks and tests can drive the per-epoch-rebuild path
    /// explicitly.
    pub fn clear_cached_plan(&mut self) {
        self.plan = None;
    }

    /// Override the intra-epoch worker count mid-flight (see
    /// [`SessionBuilder::workers`]: the unit is a query column, so an
    /// epoch uses `min(workers, queries)` threads; results are
    /// bit-identical on any value, so this is always safe). The service
    /// layer uses it to pin tenants serial — tenant-level parallelism
    /// already fills the cores there.
    pub fn set_workers(&mut self, workers: usize) {
        self.config.runner.workers = workers;
    }

    /// Apply one epoch's churn events **before** running that epoch:
    /// re-route the aggregation structure around the departed nodes and
    /// record the membership change in [`stats`](Self::stats) (so
    /// per-epoch snapshots attribute churn to the right panes).
    ///
    /// * TD/SD schemes route around churn as a **bounded structural
    ///   delta** ([`td_topology::maintenance::apply_churn`] →
    ///   [`TdTopology::switch_parents`]): orphaned children re-parent
    ///   onto surviving ring receivers, rejoining nodes re-attach, and
    ///   the cached epoch plan **rebuilds in place** on the next epoch
    ///   exactly as after an adaptation relabel — counted in
    ///   [`plan_stats`](Self::plan_stats), bit-identical to a compile.
    /// * TAG runs the same policy ([`td_topology::maintenance::reroute`])
    ///   with the radio neighbors one tree depth up as candidates, applies
    ///   the moves with [`Tree::switch_parent`], and recompiles its plan,
    ///   which carries no version to refresh by. The TAG tree is built
    ///   with no same-level parents, so every depth is a ring level, those
    ///   neighbors are the node's ring receivers, and a switch keeps every
    ///   depth.
    ///
    /// The policy is deterministic (no RNG draws), so churn-afflicted
    /// runs replay bit-for-bit and schemes stay comparable. The caller
    /// still decides how absent nodes sound on the channel — wrap the
    /// epoch's loss model in
    /// [`ChurnLoss`](td_netsim::churn::ChurnLoss) (or anything
    /// equivalent); the session only handles structure and accounting.
    pub fn apply_churn(&mut self, events: &ChurnEvents) -> ChurnReport {
        self.stats
            .record_churn(events.joined.len() as u64, events.left.len() as u64);
        match &mut self.kind {
            SessionKind::Td { topo, .. } => {
                apply_churn(topo, &events.left, &events.joined, &events.absent)
            }
            SessionKind::Tag { tree } => {
                let (moves, report) = {
                    let tree = &*tree;
                    // Radio neighbors one depth up: the depth a parent
                    // must sit at, so every switch keeps the depths.
                    reroute(tree, &events.left, &events.joined, &events.absent, |c| {
                        self.net.neighbors(c).iter().copied().filter(move |&n| {
                            tree.depth(n).is_some_and(|d| Some(d + 1) == tree.depth(c))
                        })
                    })
                };
                for &(c, p) in &moves {
                    tree.switch_parent(c, p);
                }
                if !moves.is_empty() {
                    // TAG plans carry no version; a structural change
                    // recompiles the plan.
                    self.plan = None;
                }
                report
            }
        }
    }

    /// The TAG tree, when the scheme is TAG.
    pub fn tag_tree(&self) -> Option<&Tree> {
        match &self.kind {
            SessionKind::Tag { tree } => Some(tree),
            SessionKind::Td { .. } => None,
        }
    }

    /// Run one epoch carrying **every** query in `set` through a single
    /// topology traversal, then adapt if due.
    ///
    /// The protocols in `set` hold this epoch's readings; answers come
    /// back through the handles returned at registration. The adaptation
    /// signal (contributing fraction, non-contribution extrema) is
    /// computed once from the shared envelope and applied once — exactly
    /// as a single-query epoch would.
    pub fn run_set<M: LossModel, R: rand::Rng + ?Sized>(
        &mut self,
        set: &QuerySet<'_>,
        model: &M,
        epoch: u64,
        rng: &mut R,
    ) -> QueryRecord {
        // Compile the first plan; after that, rebuild a TD plan in place
        // whenever the topology's version has moved past it. The budget
        // is the whole network, which no refresh can exceed.
        match (&mut self.plan, &self.kind) {
            (None, kind) => {
                let sw = phase::stopwatch();
                self.plan = Some(match kind {
                    SessionKind::Tag { tree } => EpochPlan::compile_tag(tree),
                    SessionKind::Td { topo, .. } => EpochPlan::compile_td(topo),
                });
                phase::record(Phase::Compile, sw);
                self.plan_stats.compiles += 1;
            }
            (Some(plan), SessionKind::Td { topo, .. })
                if plan.compiled_version() != Some(topo.version()) =>
            {
                let sw = phase::stopwatch();
                let changed = plan
                    .patch(topo, topo.len())
                    .expect("a TD plan refreshes within the whole network");
                phase::record(Phase::Patch, sw);
                self.plan_stats.patches += 1;
                self.plan_stats.patched_relabels += changed as u64;
            }
            _ => {}
        }
        let plan = self.plan.as_mut().expect("plan just ensured");
        let out = plan.run_set(
            set,
            &self.net,
            model,
            self.config.runner,
            epoch,
            &mut self.stats,
            rng,
        );
        let pct = out.contributing as f64 / self.sensors.max(1) as f64;
        let (delta_size, action) = match &mut self.kind {
            SessionKind::Tag { .. } => (0, AdaptAction::Idle),
            SessionKind::Td { topo, adapter } => {
                let signal = if self.config.use_exact_contrib_signal {
                    pct
                } else {
                    out.contributing_est / self.sensors.max(1) as f64
                };
                let action = match adapter {
                    Some(a) => a.step(
                        topo,
                        epoch,
                        signal,
                        &out.max_noncontrib,
                        &out.min_noncontrib,
                    ),
                    None => AdaptAction::Idle,
                };
                (topo.delta_size(), action)
            }
        };
        td_telemetry::td_event!(
            td_telemetry::Level::Debug,
            "session",
            "epoch",
            td_telemetry::LogicalClock::at_epoch(epoch),
            scheme = match self.kind {
                SessionKind::Tag { .. } => "tag",
                SessionKind::Td { .. } => "td",
            },
            contributing = out.contributing,
            pct = pct,
            delta = delta_size,
        );
        QueryRecord {
            answers: Answers::new(out.outputs),
            contributing: out.contributing,
            pct_contributing: pct,
            delta_size,
            action,
        }
    }

    /// Run one epoch with a single typed query (a one-entry
    /// [`QuerySet`] through the same bundled engine, so the answer is
    /// bit-identical to the same query registered in a larger set).
    pub fn run_epoch<P: Protocol, M: LossModel, R: rand::Rng + ?Sized>(
        &mut self,
        proto: &P,
        model: &M,
        epoch: u64,
        rng: &mut R,
    ) -> EpochRecord<P::Output> {
        let mut set = QuerySet::new();
        let handle = set.register(proto);
        let mut rec = self.run_set(&set, model, epoch, rng);
        EpochRecord {
            output: rec.answers.take(handle),
            contributing: rec.contributing,
            pct_contributing: rec.pct_contributing,
            delta_size: rec.delta_size,
            action: rec.action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FreqProtocol, ScalarProtocol};
    use td_aggregates::count::Count;
    use td_aggregates::sum::Sum;
    use td_frequent::items::ItemBag;
    use td_frequent::multipath::MultipathConfig;
    use td_netsim::loss::{Global, NoLoss, Regional};
    use td_netsim::node::{Position, Rect};
    use td_netsim::rng::rng_from_seed;
    use td_quantiles::gradient::MinTotalLoad;
    use td_sketches::counter::ExactFactory;

    fn net(seed: u64, sensors: usize) -> Network {
        let mut rng = rng_from_seed(seed);
        Network::random_connected(
            sensors,
            20.0,
            20.0,
            Position::new(10.0, 10.0),
            2.5,
            &mut rng,
        )
    }

    #[test]
    fn all_schemes_run_and_account_everyone_lossless() {
        let net = net(151, 300);
        let values: Vec<u64> = vec![1; net.len()];
        for scheme in Scheme::all() {
            let mut rng = rng_from_seed(152);
            let mut session = Session::with_paper_defaults(scheme, &net, &mut rng);
            let proto = ScalarProtocol::new(Count::default(), &values);
            let rec = session.run_epoch(&proto, &NoLoss, 0, &mut rng);
            assert_eq!(
                rec.contributing,
                net.num_sensors(),
                "{} lost nodes without loss",
                scheme.name()
            );
        }
    }

    #[test]
    fn builder_overrides_land_in_config() {
        let b = SessionBuilder::new(Scheme::Td)
            .threshold(0.8)
            .adapt_every(5)
            .tree_retransmit(2)
            .initial_delta_levels(3)
            .in_band_signal()
            .workers(4)
            .parallel_min_nodes(64);
        let cfg = b.config();
        assert_eq!(cfg.adapter.threshold, 0.8);
        assert_eq!(cfg.adapter.adapt_every, 5);
        assert_eq!(cfg.runner.tree_retransmit.retries, 2);
        assert_eq!(cfg.initial_delta_levels, 3);
        assert!(!cfg.use_exact_contrib_signal);
        assert_eq!(cfg.runner.workers, 4);
        assert_eq!(cfg.runner.parallel_min_nodes, 64);

        let network = net(161, 150);
        let mut rng = rng_from_seed(162);
        let mut session = b.build(&network, &mut rng);
        assert!(session.topology().is_some());
        session.set_workers(1);
        assert_eq!(session.config().runner.workers, 1);
    }

    #[test]
    fn td_expands_under_loss_until_threshold_met() {
        let net = net(153, 400);
        let values: Vec<u64> = vec![10; net.len()];
        let mut rng = rng_from_seed(154);
        let mut session = Session::with_paper_defaults(Scheme::TdCoarse, &net, &mut rng);
        let model = Global::new(0.25);
        let mut grew = false;
        let initial_delta = session.delta_nodes().len();
        let epochs = 200u64;
        let mut tail_pct = Vec::new();
        for epoch in 0..epochs {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
            if rec.delta_size > initial_delta {
                grew = true;
            }
            if epoch >= epochs - 50 {
                tail_pct.push(rec.pct_contributing);
            }
        }
        assert!(grew, "delta never expanded under 25% loss");
        // Per-epoch contribution is noisy under 25% loss, so assert on
        // the settled mean rather than a single final epoch.
        let mean = tail_pct.iter().sum::<f64>() / tail_pct.len() as f64;
        assert!(
            mean >= 0.75,
            "mean contribution {mean} still low after adaptation"
        );
    }

    #[test]
    fn td_fine_localizes_to_failure_region() {
        // Regional failure in one quadrant with an otherwise healthy
        // network: the TD delta should concentrate in the quadrant. (When
        // the outside loss alone already pushes tree delivery below the
        // 90% target, global expansion is the *correct* response — see
        // the Figure 4(b) discussion — so this test keeps outside loss
        // small to isolate the localization behaviour.) A single seeded
        // run has high variance, so enrichment is averaged over three
        // deployments.
        let region = Rect::from_coords(0.0, 0.0, 10.0, 10.0);
        let model = Regional::new(region, 0.3, 0.005);
        let mut enrichment = Vec::new();
        for (net_seed, run_seed) in [(155u64, 156u64), (255, 256), (355, 356)] {
            let net = net(net_seed, 400);
            let values: Vec<u64> = vec![1; net.len()];
            let mut rng = rng_from_seed(run_seed);
            let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
            for epoch in 0..150 {
                let proto = ScalarProtocol::new(Count::default(), &values);
                session.run_epoch(&proto, &model, epoch, &mut rng);
            }
            let delta = session.delta_nodes();
            assert!(delta.len() > 1, "TD delta never grew (net {net_seed})");
            let inside = delta
                .iter()
                .filter(|&&n| region.contains(net.position(n)))
                .count();
            enrichment.push(inside as f64 / delta.len() as f64);
        }
        let mean = enrichment.iter().sum::<f64>() / enrichment.len() as f64;
        // The failure quadrant holds ~25% of nodes; a localized delta
        // should be clearly enriched beyond that on average.
        assert!(
            mean > 0.32,
            "TD delta not localized: enrichment {enrichment:?}"
        );
    }

    #[test]
    fn sd_never_adapts() {
        let net = net(157, 200);
        let values: Vec<u64> = vec![1; net.len()];
        let mut rng = rng_from_seed(158);
        let mut session = Session::with_paper_defaults(Scheme::Sd, &net, &mut rng);
        let before = session.delta_nodes().len();
        for epoch in 0..30 {
            let proto = ScalarProtocol::new(Count::default(), &values);
            let rec = session.run_epoch(&proto, &Global::new(0.4), epoch, &mut rng);
            assert_eq!(rec.action, AdaptAction::Idle);
        }
        assert_eq!(session.delta_nodes().len(), before);
    }

    #[test]
    fn in_band_signal_mode_still_converges() {
        let net = net(159, 300);
        let values: Vec<u64> = vec![1; net.len()];
        let mut rng = rng_from_seed(160);
        let mut session = SessionBuilder::new(Scheme::TdCoarse)
            .in_band_signal()
            .build(&net, &mut rng);
        let model = Global::new(0.3);
        let initial_delta = session.delta_nodes().len();
        let mut tail_pct = Vec::new();
        for epoch in 0..300 {
            let proto = ScalarProtocol::new(Count::default(), &values);
            let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
            if epoch >= 250 {
                tail_pct.push(rec.pct_contributing);
            }
        }
        // The sketched signal is noisy, so the bar is expansion plus a
        // clearly-improved settled mean, not the exact-signal target.
        assert!(
            session.delta_nodes().len() > initial_delta,
            "in-band signal never drove expansion"
        );
        let mean = tail_pct.iter().sum::<f64>() / tail_pct.len() as f64;
        assert!(mean > 0.55, "in-band-signal adaptation stuck at {mean}");
    }

    /// A small churn event (a few departures) reaches the next epoch as
    /// an in-place plan refresh — never a recompile — and the refreshed
    /// session stays bit-identical to one that recompiles every epoch.
    #[test]
    fn churn_patches_the_cached_plan_and_stays_bit_identical() {
        use td_netsim::churn::ChurnSchedule;
        let net = net(171, 250);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 11).collect();
        let schedule = ChurnSchedule::new(net.len(), 0.01, 8.0, 99);
        let epochs = 40u64;
        for scheme in [Scheme::Sd, Scheme::TdCoarse, Scheme::Td] {
            let run = |rebuild_every_epoch: bool| {
                let mut rng = rng_from_seed(172);
                let mut session = Session::with_paper_defaults(scheme, &net, &mut rng);
                let mut outs = Vec::new();
                for epoch in 0..epochs {
                    let events = schedule.events_at(epoch);
                    session.apply_churn(&events);
                    if rebuild_every_epoch {
                        session.clear_cached_plan();
                    }
                    let proto = ScalarProtocol::new(Sum::default(), &values);
                    let model = schedule.overlay(Global::new(0.1));
                    let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
                    outs.push((rec.output, rec.contributing, rec.delta_size));
                }
                (outs, session.stats().clone(), session.plan_stats())
            };
            let (patched, patched_stats, plan) = run(false);
            let (rebuilt, rebuilt_stats, _) = run(true);
            assert_eq!(patched, rebuilt, "{} diverged under churn", scheme.name());
            assert_eq!(patched_stats, rebuilt_stats);
            assert_eq!(
                plan.compiles,
                1,
                "{}: churn recompiled: {plan:?}",
                scheme.name()
            );
            assert!(plan.patches > 0, "{}: churn never patched", scheme.name());
            assert!(patched_stats.nodes_left() > 0, "schedule never fired");
        }
    }

    /// TAG sessions survive churn too: orphans re-route onto surviving
    /// equal-depth neighbors and the (label-free) plan recompiles.
    #[test]
    fn tag_sessions_route_around_churn() {
        use td_netsim::churn::ChurnSchedule;
        let net = net(173, 200);
        let values: Vec<u64> = vec![1; net.len()];
        let schedule = ChurnSchedule::new(net.len(), 0.02, 6.0, 5);
        let mut rng = rng_from_seed(174);
        let mut session = Session::with_paper_defaults(Scheme::Tag, &net, &mut rng);
        let mut rerouted = 0usize;
        for epoch in 0..60 {
            let events = schedule.events_at(epoch);
            let report = session.apply_churn(&events);
            rerouted += report.reparented + report.rejoined;
            let proto = ScalarProtocol::new(Count::default(), &values);
            let model = schedule.overlay(NoLoss);
            let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
            // Sanity: the lossless channel still delivers everyone who
            // is present and routed around the absent set.
            assert!(rec.contributing <= net.num_sensors());
        }
        assert!(rerouted > 0, "TAG churn never re-routed an orphan");
        assert!(session.stats().nodes_left() > 0);
    }

    /// One churn-reroute policy: a TAG session's reroute (radio
    /// neighbors one depth up) reports and re-parents exactly as
    /// `maintenance::apply_churn` does on the all-`T` ring topology over
    /// the same tree, every epoch of a churn schedule, at three leave
    /// rates.
    #[test]
    fn tag_reroute_is_the_ring_reroute() {
        use td_netsim::churn::ChurnSchedule;
        use td_netsim::node::NodeId;
        for (seed, leave_rate) in [(175u64, 0.01), (176, 0.05), (177, 0.2)] {
            let net = net(seed, 200);
            let schedule = ChurnSchedule::new(net.len(), leave_rate, 6.0, seed);
            let mut rng = rng_from_seed(seed);
            let mut session = Session::with_paper_defaults(Scheme::Tag, &net, &mut rng);
            let tree = session.tag_tree().expect("a TAG session").clone();
            let mut topo = TdTopology::all_tree(Rings::build(&net), tree);
            let mut moved = 0;
            for epoch in 0..200 {
                let events = schedule.events_at(epoch);
                let tag = session.apply_churn(&events);
                let ring = apply_churn(&mut topo, &events.left, &events.joined, &events.absent);
                assert_eq!(tag, ring, "leave rate {leave_rate}, epoch {epoch}");
                let tag_tree = session.tag_tree().expect("a TAG session");
                for u in (0..net.len() as u32).map(NodeId) {
                    assert_eq!(
                        tag_tree.parent(u),
                        topo.tree().parent(u),
                        "leave rate {leave_rate}, epoch {epoch}, node {u}"
                    );
                }
                moved += tag.reparented + tag.rejoined;
            }
            assert!(moved > 0, "leave rate {leave_rate}: nothing rerouted");
        }
    }

    /// Move the topology's version 80 times without changing it: one
    /// switchable vertex toggled back and forth 40 times. The labeling
    /// ends where it started, so the next epoch refreshes a stale plan
    /// that finds nothing changed.
    fn toggle_a_vertex(session: &mut Session) {
        let SessionKind::Td { topo, .. } = &mut session.kind else {
            return;
        };
        if let Some(u) = topo.switchable_t_nodes().first().copied() {
            for _ in 0..40 {
                topo.switch_to_m(u).unwrap();
                topo.switch_to_t(u).unwrap();
            }
        } else {
            let u = topo.switchable_m_nodes()[0];
            for _ in 0..40 {
                topo.switch_to_t(u).unwrap();
                topo.switch_to_m(u).unwrap();
            }
        }
    }

    /// Plan caching across an adapting run is invisible: a session that
    /// recompiles its plan every epoch, and one whose topology version
    /// is churned mid-run by 80 switches that cancel out, produce
    /// bit-identical answers, adaptation trajectory, and accounting to
    /// one reusing the cache (which refreshes only on topology version
    /// bumps) — and the churned session never compiles again.
    #[test]
    fn cached_plan_matches_forced_rebuild_across_adaptation() {
        let net = net(165, 300);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 30).collect();
        let model = Global::new(0.3);
        let epochs = 60u64;
        let toggle_at = 30u64;
        for scheme in Scheme::all() {
            let run = |rebuild_every_epoch: bool, toggle: bool| {
                let mut rng = rng_from_seed(166);
                let mut session = Session::with_paper_defaults(scheme, &net, &mut rng);
                let mut outs = Vec::new();
                for epoch in 0..epochs {
                    if rebuild_every_epoch {
                        session.clear_cached_plan();
                    }
                    if toggle && epoch == toggle_at {
                        toggle_a_vertex(&mut session);
                    }
                    let proto = ScalarProtocol::new(Sum::default(), &values);
                    let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
                    outs.push((rec.output, rec.contributing, rec.delta_size));
                }
                (outs, session.stats().clone(), session.plan_stats())
            };
            let (cached, cached_stats, cached_plan) = run(false, false);
            let (rebuilt, rebuilt_stats, _) = run(true, false);
            let (toggled, toggled_stats, toggled_plan) = run(false, true);
            assert_eq!(cached, rebuilt, "{} diverged", scheme.name());
            assert_eq!(
                cached_stats,
                rebuilt_stats,
                "{} stats diverged",
                scheme.name()
            );
            assert_eq!(cached, toggled, "{} diverged", scheme.name());
            assert_eq!(cached_stats, toggled_stats);
            assert_eq!(
                toggled_plan.compiles,
                1,
                "{}: a moved version recompiled: {toggled_plan:?}",
                scheme.name()
            );
            assert_eq!(cached_plan.compiles, 1);
        }
    }

    /// A multi-query set over an adapting session behaves exactly like a
    /// single-query session: same per-epoch answers, same adaptation
    /// trajectory, one traversal's worth of messages.
    #[test]
    fn multi_query_session_matches_single_query_sessions() {
        let net = net(163, 250);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 5 + i % 50).collect();
        let bags: Vec<ItemBag> = (0..net.len())
            .map(|i| {
                if i == 0 {
                    ItemBag::new()
                } else {
                    ItemBag::from_counts([(1, 40), (2 + i as u64 % 7, 10)])
                }
            })
            .collect();
        let n_total: u64 = bags.iter().map(|b| b.total()).sum();
        let model = Global::new(0.2);
        let epochs = 25u64;
        let mp_cfg = MultipathConfig::new(0.01, 1.5, n_total * 2, ExactFactory);
        let gradient = MinTotalLoad::new(0.01, 2.25);

        // Single-query baselines, each over its own identically-seeded
        // session.
        let run_count = || {
            let mut rng = rng_from_seed(164);
            let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
            let mut outs = Vec::new();
            for epoch in 0..epochs {
                let proto = ScalarProtocol::new(Count::default(), &values);
                outs.push(session.run_epoch(&proto, &model, epoch, &mut rng).output);
            }
            (outs, session.stats().total_rounds())
        };
        let run_sum = || {
            let mut rng = rng_from_seed(164);
            let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
            let mut outs = Vec::new();
            for epoch in 0..epochs {
                let proto = ScalarProtocol::new(Sum::default(), &values);
                outs.push(session.run_epoch(&proto, &model, epoch, &mut rng).output);
            }
            outs
        };
        let run_freq = || {
            let mut rng = rng_from_seed(164);
            let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
            let mut outs = Vec::new();
            for epoch in 0..epochs {
                let proto = FreqProtocol::new(mp_cfg.clone(), gradient, 0.2, &bags);
                outs.push(session.run_epoch(&proto, &model, epoch, &mut rng).output);
            }
            outs
        };
        let (count_alone, rounds_alone) = run_count();
        let sum_alone = run_sum();
        let freq_alone = run_freq();

        // The bundled session, same seed.
        let mut rng = rng_from_seed(164);
        let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
        let mut count_bundled = Vec::new();
        let mut sum_bundled = Vec::new();
        let mut freq_bundled = Vec::new();
        for epoch in 0..epochs {
            let count_p = ScalarProtocol::new(Count::default(), &values);
            let sum_p = ScalarProtocol::new(Sum::default(), &values);
            let freq_p = FreqProtocol::new(mp_cfg.clone(), gradient, 0.2, &bags);
            let mut set = QuerySet::new();
            let h_count = set.register(&count_p);
            let h_sum = set.register(&sum_p);
            let h_freq = set.register(&freq_p);
            let mut rec = session.run_set(&set, &model, epoch, &mut rng);
            count_bundled.push(*rec.answers.get(h_count));
            sum_bundled.push(*rec.answers.get(h_sum));
            freq_bundled.push(rec.answers.take(h_freq));
        }

        assert_eq!(count_bundled, count_alone);
        assert_eq!(sum_bundled, sum_alone);
        for (b, a) in freq_bundled.iter().zip(&freq_alone) {
            assert_eq!(b.n_est, a.n_est);
            assert_eq!(b.reported, a.reported);
        }
        // One traversal per epoch, not three.
        assert_eq!(session.stats().total_rounds(), rounds_alone);
    }
}
