//! The traced ladder of a single-session workload: one scenario driven
//! at every rung from bare delivery draws up to `StreamSession::step`.
//!
//! Every rung replays the same seed: the same deployment, the same
//! readings, the same topology (sessions are built from the same RNG
//! stream) and the same delivery draws. A rung's cost is its timed
//! blocks minus the time spent producing readings (every rung needs
//! them, and the stream layer fetches them itself, so they are timed
//! apart and reported as the `workloads` layer). A layer's self time is
//! its rung minus the rung below.
//!
//! The rungs also cross-check each other: from `Session::run_set` up the
//! windowed Sum must agree rung to rung, and so must the runner rung when
//! the workload's plan never changes.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use td_netsim::loss::{broadcast, unicast, Retransmit};
use td_netsim::node::BASE_STATION;
use td_netsim::stats::CommStats;
use td_stream::StreamStats;
use td_telemetry::phase::Phase;
use td_topology::td::{Mode, TdTopology};
use td_topology::tree::Tree;
use tributary_delta::adapt::AdaptAction;
use tributary_delta::driver::{Driver, Workload};
use tributary_delta::query::QuerySet;
use tributary_delta::runner::{EpochPlan, RunnerConfig};
use tributary_delta::session::{PlanCacheStats, QueryRecord, Session};

use crate::calib::Calibrator;
use crate::check::Gate;
use crate::meter::Meter;
use crate::scenario::{QueryMix, Single, World};
use crate::trace;

/// What one rung measured.
#[derive(Clone, Debug, Default)]
pub struct Rung {
    /// Rung name.
    pub name: &'static str,
    /// Measured epochs.
    pub epochs: u64,
    /// Sensors × measured epochs.
    pub node_epochs: f64,
    /// Calibrated ns of the timed blocks, readings included.
    pub total_cal_ns: f64,
    /// The same as the clock read it.
    pub total_raw_ns: f64,
    /// Calibrated ns spent producing readings inside those blocks.
    pub readings_cal_ns: f64,
    /// Heap allocations inside the blocks.
    pub allocs: u64,
    /// The windowed Sum after each measured epoch.
    pub window_sums: Vec<f64>,
    /// Answer digest (stream rungs).
    pub digest: u64,
    /// Messages sent (runner rung).
    pub messages: u64,
    /// Payload bytes sent (runner rung).
    pub comm_bytes: u64,
    /// Plan-cache counters at the end (session rung and above).
    pub plan_stats: PlanCacheStats,
    /// Adaptation moves in the measured epochs (session rung).
    pub adapt_moves: u64,
    /// Calibrated ns inside `Session::apply_churn` and calls (session rung).
    pub apply_churn_cal_ns: f64,
    /// See `apply_churn_cal_ns`.
    pub apply_churn_calls: u64,
    /// Delta size at the end.
    pub delta_size: usize,
    /// The stream layer's counters at the end (stream rungs).
    pub stream_stats: StreamStats,
    /// What each `td_telemetry` phase histogram gained during the timed
    /// blocks, ns, in `Phase::ALL` order (stream rungs).
    pub phase_ns: [u64; 7],
}

impl Rung {
    /// Calibrated ns per node-epoch, readings excluded.
    pub fn ns_per_node_epoch(&self) -> f64 {
        (self.total_cal_ns - self.readings_cal_ns) / self.node_epochs
    }
}

/// Σ of every phase histogram in the global registry, ns.
pub fn phase_sums() -> [u64; 7] {
    let snap = td_telemetry::global().snapshot();
    Phase::ALL.map(|p| snap.histogram(p.metric_name()).map_or(0, |h| h.sum))
}

/// Time `epochs` epochs from `first` in blocks of `block`; `epoch_fn`
/// returns the raw ns it spent producing readings.
#[allow(clippy::too_many_arguments)]
fn clocked(
    cal: &mut Calibrator,
    parallel_share: f64,
    rung: &mut Rung,
    sensors: usize,
    first: u64,
    epochs: u64,
    block: u64,
    mut epoch_fn: impl FnMut(u64) -> u64,
) {
    let mut meter = Meter::new(cal, parallel_share, 0);
    let mut e = first;
    while e < first + epochs {
        let n = block.min(first + epochs - e);
        let readings_raw: u64 = meter.block(|_| (e..e + n).map(&mut epoch_fn).sum());
        rung.readings_cal_ns += readings_raw as f64 * meter.last_factor;
        e += n;
    }
    rung.epochs = epochs;
    rung.node_epochs = sensors as f64 * epochs as f64;
    rung.total_cal_ns = meter.cal_ns;
    rung.total_raw_ns = meter.raw_ns;
    rung.allocs = meter.allocs;
}

/// The readings of one epoch, with the raw ns producing them took.
fn timed_readings(world: &World, epoch: u64) -> (Vec<u64>, u64) {
    let _span = trace::begin("workloads.readings", epoch);
    let t0 = Instant::now();
    let readings = world.workload.readings(epoch);
    (readings, t0.elapsed().as_nanos() as u64)
}

/// The windowed Sum the stream layer would report, from per-epoch
/// answers: a left fold over the last `len` of them, oldest first.
struct WindowSums {
    ring: VecDeque<f64>,
    len: usize,
}

impl WindowSums {
    fn new(len: u32) -> Self {
        WindowSums {
            ring: VecDeque::with_capacity(len as usize + 1),
            len: len as usize,
        }
    }

    fn push(&mut self, answer: f64) -> f64 {
        self.ring.push_back(answer);
        if self.ring.len() > self.len {
            self.ring.pop_front();
        }
        self.ring.iter().sum()
    }
}

/// The aggregation structure a session runs over, cloned out of it.
#[derive(Clone)]
pub enum Structure {
    /// A TAG tree.
    Tag(Tree),
    /// A labeled Tributary-Delta topology.
    Td(Box<TdTopology>),
}

impl Structure {
    /// Clone the structure of `session`.
    pub fn of(session: &Session) -> Self {
        match (session.tag_tree(), session.topology()) {
            (Some(tree), _) => Structure::Tag(tree.clone()),
            (None, Some(topo)) => Structure::Td(Box::new(topo.clone())),
            (None, None) => unreachable!("a session is TAG or has a TD topology"),
        }
    }

    /// Compile an epoch plan for it.
    pub fn compile(&self) -> EpochPlan {
        match self {
            Structure::Tag(tree) => EpochPlan::compile_tag(tree),
            Structure::Td(topo) => EpochPlan::compile_td(topo),
        }
    }

    /// Delta size (0 for TAG).
    pub fn delta_size(&self) -> usize {
        match self {
            Structure::Tag(_) => 0,
            Structure::Td(topo) => topo.delta_size(),
        }
    }
}

/// Rung 0: the delivery draws of one epoch over `structure` and nothing
/// else — one unicast per tributary vertex, one broadcast per delta
/// vertex — under the workload's channel (and churn overlay).
pub fn rung_draws(world: &World, structure: &Structure, cal: &mut Calibrator, epochs: u64) -> Rung {
    trace::set_rung("draws");
    let spec = world.spec;
    let channel = world.channel();
    let churn = world.churn();
    let mut rng = world.engine_rng();
    let net = &world.net;
    let mut delivered = 0u64;
    let mut epoch_draws = |epoch: u64| {
        let _span = trace::begin("netsim.draws", epoch);
        macro_rules! draws {
            ($model:expr) => {
                match structure {
                    Structure::Tag(tree) => {
                        for u in tree.tree_nodes().filter(|&u| u != BASE_STATION) {
                            let parent = tree.parent(u).expect("a non-root tree node has a parent");
                            let sent = unicast(
                                $model,
                                Retransmit::default(),
                                u,
                                parent,
                                net,
                                epoch,
                                &mut rng,
                            );
                            delivered += u64::from(sent.delivered);
                        }
                    }
                    Structure::Td(topo) => {
                        for u in topo
                            .rings()
                            .connected_nodes()
                            .filter(|&u| u != BASE_STATION)
                        {
                            match topo.mode(u) {
                                Mode::T => {
                                    let parent =
                                        topo.tree().parent(u).expect("a T vertex has a parent");
                                    let sent = unicast(
                                        $model,
                                        Retransmit::default(),
                                        u,
                                        parent,
                                        net,
                                        epoch,
                                        &mut rng,
                                    );
                                    delivered += u64::from(sent.delivered);
                                }
                                Mode::M => {
                                    let heard = broadcast(
                                        $model,
                                        u,
                                        topo.rings().receivers(u),
                                        net,
                                        epoch,
                                        &mut rng,
                                    );
                                    delivered += heard.len() as u64;
                                }
                            }
                        }
                    }
                }
            };
        }
        match &churn {
            Some(schedule) => draws!(&schedule.overlay(&channel)),
            None => draws!(&channel),
        }
        0
    };
    let mut rung = Rung {
        name: "draws",
        ..Rung::default()
    };
    for epoch in 0..spec.warmup.min(4) {
        epoch_draws(epoch);
    }
    clocked(
        cal,
        0.0,
        &mut rung,
        world.net.num_sensors(),
        spec.warmup,
        epochs,
        spec.block,
        &mut epoch_draws,
    );
    std::hint::black_box(delivered);
    rung
}

/// Rung 1: `EpochPlan::run_set` on a plan compiled from `structure`,
/// with `config` (the session's own runner configuration, or a worker
/// override).
pub fn rung_runner(
    world: &World,
    structure: &Structure,
    config: RunnerConfig,
    name: &'static str,
    cal: &mut Calibrator,
    epochs: u64,
) -> Rung {
    trace::set_rung(name);
    let spec = world.spec;
    let mix = QueryMix::new(&spec, world.net.len());
    let channel = world.channel();
    let churn = world.churn();
    let mut rng = world.engine_rng();
    let mut plan = structure.compile();
    let mut stats = CommStats::new(world.net.len());
    let mut sums = WindowSums::new(spec.sum_window);
    let mut window_sums = Vec::with_capacity(epochs as usize);
    let mut epoch_fn = |epoch: u64, stats: &mut CommStats| {
        let (readings, readings_ns) = timed_readings(world, epoch);
        let mut set = QuerySet::new();
        let handles = mix.register(&mut set, &readings, epoch);
        let out = {
            let _span = trace::begin("core.plan_run_set", epoch);
            match &churn {
                Some(schedule) => plan.run_set(
                    &set,
                    &world.net,
                    &schedule.overlay(&channel),
                    config,
                    epoch,
                    stats,
                    &mut rng,
                ),
                None => plan.run_set(&set, &world.net, &channel, config, epoch, stats, &mut rng),
            }
        };
        let sum = *out.outputs[handles.sum.index()]
            .downcast_ref::<f64>()
            .expect("the Sum query answers with an f64");
        if epoch >= spec.warmup {
            window_sums.push(sums.push(sum));
        }
        readings_ns
    };
    // A static plan replays the session only from the same RNG state, so
    // it runs the whole warm-up; otherwise a few epochs suffice for the
    // plan's arenas and pools to reach their steady size.
    let warm = if spec.static_plan {
        spec.warmup
    } else {
        spec.warmup.min(4)
    };
    for epoch in spec.warmup - warm..spec.warmup {
        epoch_fn(epoch, &mut stats);
    }
    let (messages0, bytes0) = (stats.total_messages(), stats.total_bytes());
    let mut rung = Rung {
        name,
        ..Rung::default()
    };
    // One worker keeps one thread busy whatever the workload declares.
    let parallel_share = if config.effective_workers() > 1 {
        spec.parallel_share
    } else {
        0.0
    };
    clocked(
        cal,
        parallel_share,
        &mut rung,
        world.net.num_sensors(),
        spec.warmup,
        epochs,
        spec.block,
        |epoch| epoch_fn(epoch, &mut stats),
    );
    rung.window_sums = window_sums;
    rung.messages = stats.total_messages() - messages0;
    rung.comm_bytes = stats.total_bytes() - bytes0;
    rung.delta_size = structure.delta_size();
    rung
}

fn is_move(record: &QueryRecord) -> bool {
    matches!(
        record.action,
        AdaptAction::Expanded { .. } | AdaptAction::Shrunk { .. }
    )
}

/// Rungs 2 and 3: `Session::run_set` (applying churn as the stream
/// layer would), directly or through `Driver::step_set`.
pub fn rung_session(
    world: &World,
    through_driver: bool,
    cal: &mut Calibrator,
    epochs: u64,
) -> Rung {
    let name = if through_driver { "driver" } else { "session" };
    trace::set_rung(name);
    let spec = world.spec;
    let mix = QueryMix::new(&spec, world.net.len());
    let channel = world.channel();
    let churn = world.churn();
    let mut rng = world.engine_rng();
    // The driver owns the session on both rungs; the session rung
    // reaches through it, so the two differ only in the call made.
    let mut driver = Driver::new(world.session(), spec.warmup);
    let mut sums = WindowSums::new(spec.sum_window);
    let mut window_sums = Vec::with_capacity(epochs as usize);
    let mut adapt_moves = 0u64;
    let churn_raw_ns = Cell::new(0u64);
    let churn_calls = Cell::new(0u64);
    let mut epoch_fn = |epoch: u64, driver: &mut Driver| {
        let (readings, readings_ns) = timed_readings(world, epoch);
        let mut set = QuerySet::new();
        let handles = mix.register(&mut set, &readings, epoch);
        macro_rules! run {
            ($model:expr) => {
                if through_driver {
                    let _span = trace::begin("core.driver_step_set", epoch);
                    driver.step_set(&set, $model, &mut rng).record
                } else {
                    let _span = trace::begin("core.session_run_set", epoch);
                    driver.session_mut().run_set(&set, $model, epoch, &mut rng)
                }
            };
        }
        let record = match &churn {
            Some(schedule) => {
                let events = schedule.events_at(epoch);
                {
                    let _span = trace::begin("core.session_apply_churn", epoch);
                    let t0 = Instant::now();
                    driver.session_mut().apply_churn(&events);
                    churn_raw_ns.set(churn_raw_ns.get() + t0.elapsed().as_nanos() as u64);
                    churn_calls.set(churn_calls.get() + 1);
                }
                run!(&schedule.overlay(&channel))
            }
            None => run!(&channel),
        };
        if epoch >= spec.warmup {
            adapt_moves += u64::from(is_move(&record));
            window_sums.push(sums.push(*record.answers.get(handles.sum)));
        }
        readings_ns
    };
    for epoch in 0..spec.warmup {
        epoch_fn(epoch, &mut driver);
    }
    churn_raw_ns.set(0);
    churn_calls.set(0);
    let mut rung = Rung {
        name,
        ..Rung::default()
    };
    clocked(
        cal,
        spec.parallel_share,
        &mut rung,
        world.net.num_sensors(),
        spec.warmup,
        epochs,
        spec.block,
        |epoch| epoch_fn(epoch, &mut driver),
    );
    rung.window_sums = window_sums;
    rung.adapt_moves = adapt_moves;
    // Scaled by the run's overall factor: the calls are too short to be
    // attributed to single blocks.
    rung.apply_churn_cal_ns = churn_raw_ns.get() as f64 * rung.total_cal_ns / rung.total_raw_ns;
    rung.apply_churn_calls = churn_calls.get();
    rung.plan_stats = driver.session().plan_stats();
    rung.delta_size = driver.session().delta_size();
    rung
}

/// The workload's readings source seen from outside: spans and times the
/// stream layer's own `readings` call.
struct TracedWorkload<'a, W> {
    inner: &'a W,
    raw_ns: &'a AtomicU64,
}

impl<W: Workload> Workload for TracedWorkload<'_, W> {
    fn readings(&self, epoch: u64) -> Vec<u64> {
        let _span = trace::begin("workloads.readings", epoch);
        let t0 = Instant::now();
        let readings = self.inner.readings(epoch);
        self.raw_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        readings
    }
}

/// Rung 4: `StreamSession::step*`, the shortened copy of the measured
/// run. With `traced` the call is spanned and the readings are timed
/// apart; without, it is the plain copy the traced one is compared with.
/// Returns the rung and the session's structure at the end.
pub fn rung_stream(
    world: World,
    traced: bool,
    name: &'static str,
    cal: &mut Calibrator,
    epochs: u64,
) -> (Rung, Structure, World) {
    trace::set_rung(name);
    let spec = world.spec;
    let sensors = world.net.num_sensors();
    let mut subject = Single::new(world);
    let session = subject.stream.session();
    let mut gate = Gate::new(
        &subject.expect,
        session.config().scheme,
        session.sensors(),
        spec.warmup,
        (spec.warmup + epochs) as usize,
    );
    let source = subject.world.workload;
    let readings_ns = AtomicU64::new(0);
    let mut window_sums = Vec::with_capacity(epochs as usize);
    let mut epoch_fn = |epoch: u64, subject: &mut Single, gate: &mut Gate| {
        let before = readings_ns.load(Relaxed);
        let reports = if traced {
            let _span = trace::begin("stream.step", epoch);
            subject.step_with(&TracedWorkload {
                inner: &source,
                raw_ns: &readings_ns,
            })
        } else {
            subject.step()
        };
        gate.check_epoch(epoch, &reports);
        if let Some(r) = reports
            .iter()
            .find(|r| r.handle.query == 0 && r.handle.window == 0)
        {
            window_sums.push(r.answer);
        }
        readings_ns.load(Relaxed) - before
    };
    for epoch in 0..spec.warmup {
        gate.push_truth(subject.world.true_sum(epoch));
        epoch_fn(epoch, &mut subject, &mut gate);
    }
    for epoch in spec.warmup..spec.warmup + epochs {
        gate.push_truth(subject.world.true_sum(epoch));
    }
    let mut rung = Rung {
        name,
        ..Rung::default()
    };
    let phases_before = phase_sums();
    clocked(
        cal,
        spec.parallel_share,
        &mut rung,
        sensors,
        spec.warmup,
        epochs,
        spec.block,
        |epoch| epoch_fn(epoch, &mut subject, &mut gate),
    );
    for (gained, (after, before)) in rung
        .phase_ns
        .iter_mut()
        .zip(phase_sums().into_iter().zip(phases_before))
    {
        *gained = after - before;
    }
    rung.window_sums = window_sums;
    rung.digest = gate.stats.digest;
    if gate.stats.failed > 0 {
        // A failed report poisons the digest comparison on purpose.
        rung.digest = !rung.digest;
    }
    let session = subject.stream.session();
    rung.plan_stats = session.plan_stats();
    rung.delta_size = session.delta_size();
    rung.stream_stats = *subject.stream.stream_stats();
    let structure = Structure::of(session);
    (rung, structure, subject.world)
}

/// Whether two rungs report the same windowed Sums (to rounding: the
/// stream layer maintains its windows incrementally).
pub fn window_sums_agree(a: &Rung, b: &Rung) -> Result<(), String> {
    if a.window_sums.len() != b.window_sums.len() {
        return Err(format!(
            "rungs {} and {} answered {} and {} epochs",
            a.name,
            b.name,
            a.window_sums.len(),
            b.window_sums.len()
        ));
    }
    for (i, (x, y)) in a.window_sums.iter().zip(&b.window_sums).enumerate() {
        if (x - y).abs() > 1e-9 * x.abs().max(y.abs()) {
            return Err(format!(
                "rungs {} and {} disagree at measured epoch {i}: {x} vs {y}",
                a.name, b.name
            ));
        }
    }
    Ok(())
}
