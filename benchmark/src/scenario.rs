//! The four workloads: what each one builds from the seed and how one
//! epoch of it is driven. Everything here calls the library's public
//! functions only; nothing is measured in this module.
//!
//! `--seed` drives the delivery RNG: which transmissions arrive, epoch
//! by epoch, and with them every adaptation decision. The same seed
//! replays the same run.
//!
//! Everything else is the workload's own constant ([`DEPLOYMENT_SEED`]):
//! where the nodes are, the trees and rings built over them, what the
//! sensors read, which senders are in a loss burst when and which nodes
//! are away when. Each of those moves the deterministic metrics by more
//! than they are allowed to move: on another deployment the delta has
//! another size (allocations ±8.6 %, bytes ±5.4 % on `td_2500`), other
//! readings give the FM sketches another bias (RMS error ±13 %), another
//! burst or churn trajectory means another amount of work per epoch
//! (allocations ±4.3 %, heap peak ±14 % on `bundle_churn_600`). With them
//! fixed, ten seeds agree to 0.02 % on `td_2500` and 1.4 % on
//! `bundle_churn_600`.

use rand::rngs::StdRng;
use td_aggregates::count::Count;
use td_aggregates::minmax::Max;
use td_aggregates::sum::Sum;
use td_frequent::items::ItemBag;
use td_frequent::multipath::MultipathConfig;
use td_netsim::churn::ChurnSchedule;
use td_netsim::loss::{GilbertElliott, Global, LossModel};
use td_netsim::network::Network;
use td_netsim::node::NodeId;
use td_netsim::rng::{derive_seed, substream};
use td_quantiles::gradient::MinTotalLoad;
use td_quantiles::QDigest;
use td_service::{ServiceRuntime, Tenant, TenantHandle};
use td_sketches::counter::FmFactory;
use td_stream::{
    EpochMerge, FreqStreamQuery, QuantileStreamQuery, StreamQuery, StreamSession, WindowReport,
    WindowSpec,
};
use td_workloads::synthetic::Synthetic;
use td_workloads::workload::SyntheticSum;
use tributary_delta::driver::{Driver, Workload};
use tributary_delta::protocol::ScalarProtocol;
use tributary_delta::protocol::{FreqOutput, FreqProtocol, QuantileOutput, QuantileProtocol};
use tributary_delta::query::{QueryHandle, QuerySet};
use tributary_delta::session::{Scheme, Session, SessionBuilder};

/// The seed of every workload's deployment: node positions and the
/// aggregation structure built over them.
pub const DEPLOYMENT_SEED: u64 = 0x7D_2005;

/// Labels under which the run's seed and the deployment seed are split.
mod salt {
    pub const NETWORK: u64 = 0xB0_0001;
    pub const TOPOLOGY: u64 = 0xB0_0007;
    pub const READINGS: u64 = 0xB0_0002;
    pub const ENGINE_RNG: u64 = 0xB0_0003;
    pub const BURST: u64 = 0xB0_0004;
    pub const CHURN: u64 = 0xB0_0005;
    pub const PRELUDE_RNG: u64 = 0xB0_0006;
    pub const TENANT: u64 = 0xB0_1000;
}

/// Frequent-items query of the bundle: the `fig09d` drifting bag table.
pub mod freq_cfg {
    /// Support threshold s.
    pub const SUPPORT: f64 = 0.05;
    /// Tree-side error budget ε_a.
    pub const EPS_TREE: f64 = 0.01;
    /// Multi-path error budget ε_b.
    pub const EPS_MP: f64 = 0.01;
    /// Sliding-window length of the frequent-items query.
    pub const WINDOW: u32 = 4;
    /// Distinct epoch slots of the bag table (epoch e uses e % SLOTS).
    pub const SLOTS: usize = 3;
}

/// q-digest domain width of the bundle's quantile query (readings are
/// in 20..=130).
pub const QDIGEST_BITS: u32 = 10;
/// Final rank-error tolerance of the bundle's quantile query.
pub const QUANTILE_EPS: f64 = 0.02;

/// The channel of a single-session workload. An enum, not a boxed trait
/// object, so the runner's per-draw `loss_rate` call stays a direct one
/// exactly as it is for a library user who passes `Global` by value.
#[derive(Clone, Debug)]
pub enum Channel {
    /// Independent loss at one rate.
    Global(Global),
    /// Gilbert–Elliott burst loss, one chain per sender.
    Burst(GilbertElliott),
}

impl LossModel for Channel {
    #[inline]
    fn loss_rate(&self, from: NodeId, to: NodeId, net: &Network, epoch: u64) -> f64 {
        match self {
            Channel::Global(m) => m.loss_rate(from, to, net, epoch),
            Channel::Burst(m) => m.loss_rate(from, to, net, epoch),
        }
    }
}

/// How a single-session workload's channel is made from the seed.
#[derive(Clone, Copy, Debug)]
pub enum LossSpec {
    /// `Global(p)`.
    Global(f64),
    /// `GilbertElliott::bursty(mean_loss, mean_burst_len, p_bad, seed)`.
    Burst(f64, f64, f64),
}

/// One single-session workload.
#[derive(Clone, Copy, Debug)]
pub struct SingleSpec {
    /// Workload name.
    pub name: &'static str,
    /// `Synthetic::small(sensors)` (600 is the paper's deployment).
    pub sensors: usize,
    /// The session as the workload configures it.
    pub session: fn() -> SessionBuilder,
    /// Whether topology and plan hold still for the whole run, so that a
    /// plan compiled from a clone of the topology replays the session.
    pub static_plan: bool,
    /// The channel.
    pub loss: LossSpec,
    /// `ChurnSchedule::new(n, 0.01, 8.0, seed)` through
    /// `step_under_churn`, or no churn.
    pub churn: bool,
    /// Five bundled queries, or the one windowed Sum.
    pub bundle: bool,
    /// Length of the Sum query's `sliding(len, 1)`/`Add` window.
    pub sum_window: u32,
    /// Driver warm-up epochs (they emit no reports; part of set-up).
    pub warmup: u64,
    /// Measured epochs per block.
    pub block: u64,
    /// Measured epochs every run completes; the deterministic metrics
    /// are taken over exactly these.
    pub min_epochs: u64,
    /// Share of an epoch's time that keeps a second thread busy (process
    /// CPU time over wall time, minus one, on the baseline machine); what
    /// the calibration's pair ratio is weighted with.
    pub parallel_share: f64,
    /// How often a run sets the workload up (the median is reported).
    pub setups: usize,
}

/// `tree_10k`.
pub const TREE_10K: SingleSpec = SingleSpec {
    name: "tree_10k",
    sensors: 10_000,
    session: || SessionBuilder::new(Scheme::Tag),
    static_plan: true,
    loss: LossSpec::Global(0.05),
    churn: false,
    bundle: false,
    sum_window: 8,
    warmup: 20,
    block: 64,
    min_epochs: 1024,
    parallel_share: 0.3,
    setups: 3,
};

/// `td_2500`.
pub const TD_2500: SingleSpec = SingleSpec {
    name: "td_2500",
    sensors: 2_500,
    session: || {
        SessionBuilder::new(Scheme::Td)
            .initial_delta_levels(6)
            .adapt_every(1 << 40)
            .workers(1)
    },
    static_plan: true,
    loss: LossSpec::Global(0.1),
    churn: false,
    bundle: false,
    sum_window: 8,
    warmup: 20,
    block: 32,
    min_epochs: 512,
    parallel_share: 0.0,
    setups: 3,
};

/// `bundle_churn_600`.
pub const BUNDLE_CHURN_600: SingleSpec = SingleSpec {
    name: "bundle_churn_600",
    sensors: 600,
    session: || SessionBuilder::new(Scheme::Td),
    static_plan: false,
    loss: LossSpec::Burst(0.15, 4.0, 0.8),
    churn: true,
    bundle: true,
    sum_window: 16,
    warmup: 100,
    block: 10,
    min_epochs: 120,
    parallel_share: 0.5,
    // One set-up is 100 epochs of an adapting delta: five seconds.
    setups: 2,
};

/// `service_256`.
#[derive(Clone, Copy, Debug)]
pub struct ServiceSpec {
    /// Workload name.
    pub name: &'static str,
    /// Tenants hosted.
    pub tenants: usize,
    /// Sensors per tenant.
    pub sensors: usize,
    /// Warm-up rounds (driven and checked in set-up, not measured).
    pub warmup: u64,
    /// Measured rounds per block.
    pub block: u64,
    /// Measured rounds every run completes.
    pub min_rounds: u64,
    /// As [`SingleSpec::parallel_share`]: the worker and the driving
    /// thread together.
    pub parallel_share: f64,
    /// How often a run sets the workload up (the median is reported).
    pub setups: usize,
}

/// `service_256`.
pub const SERVICE_256: ServiceSpec = ServiceSpec {
    name: "service_256",
    tenants: 256,
    sensors: 30,
    warmup: 4,
    block: 8,
    min_rounds: 160,
    parallel_share: 0.1,
    setups: 3,
};

/// Window length of every tenant's `sliding(len, 1)`/`Add` Sum query.
pub const TENANT_WINDOW: u32 = 4;

/// What a tenant's one window is expected to emit.
pub fn tenant_expect() -> [WindowExpect; 1] {
    [WindowExpect {
        query: 0,
        window: 0,
        spec: WindowSpec::sliding(TENANT_WINDOW, 1),
        truth: WindowTruth::SumAdd,
    }]
}
/// Every tenant's outbox capacity.
pub const TENANT_OUTBOX: usize = 64;

/// A workload by name.
#[derive(Clone, Copy, Debug)]
pub enum Spec {
    /// One session stepped by the harness.
    Single(SingleSpec),
    /// Many tenants behind a `ServiceRuntime`.
    Service(ServiceSpec),
}

/// The workloads in the order they are listed and run.
pub const ALL: [Spec; 4] = [
    Spec::Single(TREE_10K),
    Spec::Single(TD_2500),
    Spec::Single(BUNDLE_CHURN_600),
    Spec::Service(SERVICE_256),
];

impl Spec {
    /// Workload name.
    pub fn name(&self) -> &'static str {
        match self {
            Spec::Single(s) => s.name,
            Spec::Service(s) => s.name,
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        ALL.into_iter().find(|s| s.name() == name)
    }
}

/// What one registered window is expected to emit, for the correctness
/// gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowTruth {
    /// `Add` over a Sum query: the answer estimates Σ readings.
    SumAdd,
    /// `Add` over a Count query: the answer estimates sensors × panes.
    CountAdd,
    /// Anything else: validity is checked, the value is not.
    Unchecked,
}

/// One registered window, in registration order.
#[derive(Clone, Copy, Debug)]
pub struct WindowExpect {
    /// Stream query index.
    pub query: usize,
    /// Window index within the query.
    pub window: usize,
    /// Its shape.
    pub spec: WindowSpec,
    /// What its answer can be checked against.
    pub truth: WindowTruth,
}

impl WindowExpect {
    /// Whether the window emits after pane `seq` (0-based).
    pub fn emits_after(&self, seq: u64) -> bool {
        match self.spec {
            WindowSpec::Tumbling { len } => (seq + 1).is_multiple_of(u64::from(len)),
            WindowSpec::Sliding { hop, .. } => (seq + 1).is_multiple_of(u64::from(hop)),
            WindowSpec::Landmark => true,
        }
    }
}

/// The `fig09d` drifting item bags: a stable heavy pair, one
/// slot-rotating mid-weight item, one per-node tail item.
pub fn bags_table(nodes: usize) -> Vec<Vec<ItemBag>> {
    (0..freq_cfg::SLOTS)
        .map(|slot| {
            (0..nodes)
                .map(|i| {
                    if i == 0 {
                        ItemBag::new()
                    } else {
                        ItemBag::from_counts([
                            (1u64, 30),
                            (2u64, 18),
                            (10 + slot as u64, 12),
                            (100 + i as u64 % 11, 4),
                        ])
                    }
                })
                .collect()
        })
        .collect()
}

/// The frequent-items query's multi-path configuration over `bags`.
pub fn multipath_cfg(bags: &[Vec<ItemBag>]) -> MultipathConfig<FmFactory> {
    let slot_max = bags
        .iter()
        .map(|slot| slot.iter().map(ItemBag::total).sum::<u64>())
        .max()
        .expect("the bag table has slots");
    MultipathConfig::new(
        freq_cfg::EPS_MP,
        2.0,
        slot_max * u64::from(freq_cfg::WINDOW) * 2,
        FmFactory { bitmaps: 16 },
    )
}

/// Register the workload's stream queries, returning what each window
/// is expected to emit.
pub fn register_queries(
    stream: &mut StreamSession,
    spec: &SingleSpec,
    nodes: usize,
) -> Vec<WindowExpect> {
    let mut expect = Vec::new();
    let mut note = |handles: Vec<td_stream::WindowHandle>, specs: &[(WindowSpec, WindowTruth)]| {
        for (h, &(spec, truth)) in handles.iter().zip(specs) {
            expect.push(WindowExpect {
                query: h.query,
                window: h.window,
                spec,
                truth,
            });
        }
    };
    let sum_win = WindowSpec::sliding(spec.sum_window, 1);
    if !spec.bundle {
        let h =
            stream.register(StreamQuery::scalar(Sum::default()).window(sum_win, EpochMerge::Add));
        note(h, &[(sum_win, WindowTruth::SumAdd)]);
        return expect;
    }
    let tumbling = WindowSpec::tumbling(8);
    let h = stream.register(
        StreamQuery::scalar(Sum::default())
            .window(sum_win, EpochMerge::Add)
            .window(tumbling, EpochMerge::Mean),
    );
    note(
        h,
        &[
            (sum_win, WindowTruth::SumAdd),
            (tumbling, WindowTruth::Unchecked),
        ],
    );
    let h = stream.register(StreamQuery::scalar(Count::default()).window(sum_win, EpochMerge::Add));
    note(h, &[(sum_win, WindowTruth::CountAdd)]);
    let h = stream.register(StreamQuery::scalar(Max).window(sum_win, EpochMerge::Max));
    note(h, &[(sum_win, WindowTruth::Unchecked)]);
    let bags = bags_table(nodes);
    let freq_win = WindowSpec::sliding(freq_cfg::WINDOW, 1);
    let h = stream.register(
        StreamQuery::new(FreqStreamQuery::new(
            multipath_cfg(&bags),
            MinTotalLoad::new(freq_cfg::EPS_TREE, 2.25),
            freq_cfg::SUPPORT,
            bags,
        ))
        .window(freq_win, EpochMerge::Add),
    );
    note(h, &[(freq_win, WindowTruth::Unchecked)]);
    let q_win = WindowSpec::sliding(8, 1);
    let h = stream.register(
        StreamQuery::new(QuantileStreamQuery::qdigest(
            QDIGEST_BITS,
            MinTotalLoad::new(QUANTILE_EPS, 2.25),
        ))
        .window(q_win, EpochMerge::Add),
    );
    note(h, &[(q_win, WindowTruth::Unchecked)]);
    expect
}

/// The same queries for the rungs below the stream layer, which build
/// their `QuerySet` themselves: protocols from `tributary_delta` only.
pub struct QueryMix {
    bundle: bool,
    bags: Vec<Vec<ItemBag>>,
}

/// One epoch's handles into a [`QueryMix`] set.
pub struct MixHandles {
    /// The Sum query (always present; the ladder's cross-check answer).
    pub sum: QueryHandle<f64>,
    /// The frequent-items query of the bundle.
    pub freq: Option<QueryHandle<FreqOutput>>,
    /// The quantile query of the bundle.
    pub quantile: Option<QueryHandle<QuantileOutput<QDigest>>>,
}

impl QueryMix {
    /// The mix `spec` registers on a network of `nodes` nodes.
    pub fn new(spec: &SingleSpec, nodes: usize) -> Self {
        QueryMix {
            bundle: spec.bundle,
            bags: if spec.bundle {
                bags_table(nodes)
            } else {
                Vec::new()
            },
        }
    }

    /// Register this epoch's protocols in the stream layer's order.
    pub fn register<'e>(
        &'e self,
        set: &mut QuerySet<'e>,
        readings: &'e [u64],
        epoch: u64,
    ) -> MixHandles {
        let sum = set.register(ScalarProtocol::new(Sum::default(), readings));
        if !self.bundle {
            return MixHandles {
                sum,
                freq: None,
                quantile: None,
            };
        }
        set.register(ScalarProtocol::new(Count::default(), readings));
        set.register(ScalarProtocol::new(Max, readings));
        let slot = (epoch % self.bags.len() as u64) as usize;
        let freq = set.register(FreqProtocol::new(
            multipath_cfg(&self.bags),
            MinTotalLoad::new(freq_cfg::EPS_TREE, 2.25),
            freq_cfg::SUPPORT,
            &self.bags[slot],
        ));
        let quantile = set.register(QuantileProtocol::qdigest(
            QDIGEST_BITS,
            MinTotalLoad::new(QUANTILE_EPS, 2.25),
            readings,
        ));
        MixHandles {
            sum,
            freq: Some(freq),
            quantile: Some(quantile),
        }
    }
}

/// Everything a single-session workload derives from the seed before a
/// session exists: shared by the measured run and every ladder rung.
pub struct World {
    /// The workload.
    pub spec: SingleSpec,
    /// The run's seed.
    pub seed: u64,
    /// The deployment.
    pub net: Network,
    /// Per-epoch readings.
    pub workload: SyntheticSum,
}

impl World {
    /// Build the deployment and the readings source.
    pub fn new(spec: SingleSpec, seed: u64) -> Self {
        let net = Synthetic::small(spec.sensors).build(derive_seed(DEPLOYMENT_SEED, salt::NETWORK));
        let workload = SyntheticSum::new(&net, derive_seed(DEPLOYMENT_SEED, salt::READINGS));
        World {
            spec,
            seed,
            net,
            workload,
        }
    }

    /// A fresh channel (its burst chains memoize per instance, so every
    /// consumer that replays epochs from 0 takes its own).
    pub fn channel(&self) -> Channel {
        match self.spec.loss {
            LossSpec::Global(p) => Channel::Global(Global::new(p)),
            LossSpec::Burst(mean, burst, p_bad) => Channel::Burst(GilbertElliott::bursty(
                mean,
                burst,
                p_bad,
                derive_seed(DEPLOYMENT_SEED, salt::BURST),
            )),
        }
    }

    /// A fresh churn schedule, if the workload churns.
    pub fn churn(&self) -> Option<ChurnSchedule> {
        self.spec.churn.then(|| {
            ChurnSchedule::new(
                self.net.len(),
                0.01,
                8.0,
                derive_seed(DEPLOYMENT_SEED, salt::CHURN),
            )
        })
    }

    /// The RNG the session's epochs are driven with. Every rung starts
    /// from this same stream, so they all draw the same deliveries.
    pub fn engine_rng(&self) -> StdRng {
        substream(self.seed, salt::ENGINE_RNG)
    }

    /// The RNG the `NoLoss` prelude's epochs are driven with.
    pub fn prelude_rng(&self) -> StdRng {
        substream(self.seed, salt::PRELUDE_RNG)
    }

    /// Build the workload's session over the deployment. The topology's
    /// random choices are part of the deployment, so every call builds
    /// the same one.
    pub fn session(&self) -> Session {
        let mut rng = substream(DEPLOYMENT_SEED, salt::TOPOLOGY);
        (self.spec.session)().build(&self.net, &mut rng)
    }

    /// Exact Σ readings over the sensors at `epoch`.
    pub fn true_sum(&self, epoch: u64) -> u64 {
        self.workload.readings(epoch)[1..].iter().sum()
    }
}

/// A single-session workload ready to step: the measured subject.
pub struct Single {
    /// What it was built from.
    pub world: World,
    /// The session under its stream layer.
    pub stream: StreamSession,
    /// The registered windows.
    pub expect: Vec<WindowExpect>,
    channel: Channel,
    churn: Option<ChurnSchedule>,
    rng: StdRng,
}

impl Single {
    /// Build session, driver and stream layer over `world` and register
    /// the queries. No epoch has run yet.
    pub fn new(world: World) -> Self {
        let rng = world.engine_rng();
        let mut stream = StreamSession::new(Driver::new(world.session(), world.spec.warmup));
        let expect = register_queries(&mut stream, &world.spec, world.net.len());
        Single {
            channel: world.channel(),
            churn: world.churn(),
            world,
            stream,
            expect,
            rng,
        }
    }

    /// One epoch through `StreamSession::step` / `step_under_churn`.
    #[inline]
    pub fn step(&mut self) -> Vec<WindowReport> {
        let workload = self.world.workload;
        self.step_with(&workload)
    }

    /// One epoch with the readings coming from `workload` (the traced
    /// run wraps the workload's own source to see the call).
    #[inline]
    pub fn step_with<W: Workload>(&mut self, workload: &W) -> Vec<WindowReport> {
        match &self.churn {
            Some(schedule) => {
                self.stream
                    .step_under_churn(workload, &self.channel, schedule, &mut self.rng)
            }
            None => self.stream.step(workload, &self.channel, &mut self.rng),
        }
    }
}

/// One tenant of `service_256`, before it is handed to a runtime or
/// stepped inline.
pub struct TenantParts {
    /// The tenant's deployment.
    pub net: Network,
    /// Its session with the Sum query registered.
    pub stream: StreamSession,
    /// Its readings.
    pub workload: SyntheticSum,
    /// Its channel.
    pub model: Global,
    /// The seed of its private RNG (`td_service::tenant_rng`).
    pub rng_seed: u64,
}

/// Scheme of tenant `i`.
pub fn tenant_scheme(i: usize) -> Scheme {
    [Scheme::Tag, Scheme::Td, Scheme::TdCoarse][i % 3]
}

/// Loss rate of tenant `i`.
pub fn tenant_loss(i: usize) -> f64 {
    [0.05, 0.15, 0.25][i % 3]
}

/// Build tenant `i` of a run seeded `seed`.
pub fn tenant_parts(spec: &ServiceSpec, seed: u64, i: usize) -> TenantParts {
    let tenant_seed = derive_seed(seed, salt::TENANT + i as u64);
    let deployment = derive_seed(DEPLOYMENT_SEED, salt::TENANT + i as u64);
    let net = Synthetic::small(spec.sensors).build(derive_seed(deployment, salt::NETWORK));
    let mut rng = substream(deployment, salt::TOPOLOGY);
    let session = SessionBuilder::new(tenant_scheme(i)).build(&net, &mut rng);
    let mut stream = StreamSession::new(Driver::new(session, 0));
    stream.register(
        StreamQuery::scalar(Sum::default())
            .window(WindowSpec::sliding(TENANT_WINDOW, 1), EpochMerge::Add),
    );
    TenantParts {
        workload: SyntheticSum::new(&net, derive_seed(deployment, salt::READINGS)),
        model: Global::new(tenant_loss(i)),
        rng_seed: tenant_seed,
        net,
        stream,
    }
}

impl TenantParts {
    /// The hosted form: paused before epoch 0 until resumed.
    pub fn into_tenant(self) -> Tenant {
        Tenant::builder(self.stream, self.workload, self.model)
            .seed(self.rng_seed)
            .run_until(0)
            .outbox_capacity(TENANT_OUTBOX)
            .build()
    }
}

/// The hosted tenants of one `service_256` run.
pub struct Hosted {
    /// The runtime (one worker: with the driving thread that makes the
    /// machine's two).
    pub runtime: ServiceRuntime,
    /// One handle per tenant, in tenant order.
    pub handles: Vec<TenantHandle>,
    /// Each tenant's readings source, for ground truth.
    pub workloads: Vec<SyntheticSum>,
    /// Sensors per tenant (connected deployments: all of them report).
    pub sensors: usize,
}

impl Hosted {
    /// Stop the runtime and return its final accounting. The handles are
    /// dropped only afterwards: a dropped handle's queued reports would be
    /// counted as dropped.
    pub fn shutdown(self) -> td_service::ServiceStats {
        let Hosted {
            runtime, handles, ..
        } = self;
        let stats = runtime.shutdown();
        drop(handles);
        stats
    }
}
