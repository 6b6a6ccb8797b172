//! The cross-epoch stream engine: panes, window folds, and emission
//! over one multi-query [`Session`].
//!
//! A [`StreamSession`] owns a [`Driver`] (which owns the `Session` and
//! the §7.1 warmup clock) plus the registered [`StreamQuery`]s. Each
//! epoch it registers every query's underlying protocol on one
//! [`QuerySet`] — so N windowed queries still cost **one topology
//! traversal** — runs the epoch through [`Driver::step_set`], and turns
//! each answer into a *pane*: the value plus that epoch's
//! contributor-envelope coverage, its [`CommStats`] delta, and whether
//! adaptation relabeled the topology afterwards. Each window folds the
//! pane into its own [`WindowAccum`] and emits [`WindowReport`]s when
//! its schedule closes.
//!
//! ## Loss, churn, and adaptation visibility
//!
//! Windows never hide degradation: a report carries the newest pane's
//! coverage fraction and communication accounting, the window-level
//! mean/min coverage, the number of tributary/delta relabels that
//! fired *between* its panes, and — for
//! [`StreamSession::run_under_churn`] — the nodes that joined or left
//! across its panes. A completed pane is a plain value — a later
//! relabel changes how future panes are computed, never the merged
//! history — so adaptation mid-window degrades answers visibly
//! (through coverage) rather than invalidating them.
//!
//! ## Absorption
//!
//! Each window owns a [`WindowAccum`] — the state machine from
//! [`crate::window`] — which folds a pane into a running accumulator,
//! or buffers it and refolds the window's ≤ `len` panes when an
//! overlapping window emits; steady-state hops allocate nothing.
//! Reports carry the window aggregates plus the newest pane's
//! [`PaneStats`]; a `tumbling(1)` window's reports are the per-pane
//! history.

use std::sync::Arc;

use rand::Rng;
use td_netsim::churn::{ChurnEvents, ChurnSchedule};
use td_netsim::loss::LossModel;
use td_netsim::stats::CommStats;
use tributary_delta::adapt::AdaptAction;
use tributary_delta::driver::{Driver, Workload};
use tributary_delta::query::QuerySet;
use tributary_delta::session::Session;

use crate::query::{PaneProtocol, StreamQuery};
use crate::window::{
    AccumCounters, EpochMerge, FoldMode, FreqPane, PaneInput, PaneValue, QuantilePane, WindowAccum,
    WindowSpec,
};

/// Identifies one window of one registered stream query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct WindowHandle {
    /// Index of the stream query (registration order).
    pub query: usize,
    /// Index of the window within the query (attachment order).
    pub window: usize,
}

/// One pane's slice of a [`WindowReport`]: the per-epoch
/// instrumentation a window answer was merged from.
#[derive(Clone, Debug)]
pub struct PaneStats {
    /// The absolute epoch the pane ran in.
    pub epoch: u64,
    /// Contributor-envelope coverage fraction of that epoch.
    pub coverage: f64,
    /// Whether adaptation relabeled the topology right after this
    /// pane's epoch.
    pub relabeled: bool,
    /// Communication accounting of that epoch's traversal — shared
    /// (`Arc`) between every report it appears in, so carrying it is a
    /// pointer bump, not a per-node counter copy.
    pub comm: Arc<CommStats>,
}

/// One emitted window answer plus everything needed to judge it.
#[derive(Clone, Debug)]
pub struct WindowReport {
    /// Which window emitted.
    pub handle: WindowHandle,
    /// The underlying protocol's display name (`Arc`-shared with the
    /// session — a report carries it for a pointer bump).
    pub query_name: Arc<str>,
    /// The window shape.
    pub spec: WindowSpec,
    /// The cross-epoch merge the answer evaluates.
    pub merge: EpochMerge,
    /// First epoch merged into the window.
    pub start_epoch: u64,
    /// Last epoch merged into the window.
    pub end_epoch: u64,
    /// Panes actually merged.
    pub panes: usize,
    /// Panes of a complete window (`panes < expected_panes` marks the
    /// partial prefix a sliding window emits before filling up; equal
    /// for landmark, which is always "complete so far").
    pub expected_panes: usize,
    /// The window answer.
    pub answer: f64,
    /// Mean contributor-envelope coverage across the merged panes.
    pub coverage: f64,
    /// The worst single pane's coverage.
    pub min_coverage: f64,
    /// Tributary/delta relabels that fired *between* this window's
    /// panes. A relabel after the window's final pane is not counted
    /// here: an overlapping sliding window that still contains that
    /// pane (with a successor) will count it, while for tumbling
    /// windows it fell between windows and is counted by none.
    pub relabels: u32,
    /// Churn arrivals attributed to this window's panes (each pane's
    /// [`CommStats::nodes_joined`] delta; for landmark windows a
    /// running total since the stream began). 0 unless the run applied
    /// churn ([`StreamSession::run_under_churn`]).
    pub nodes_joined: u64,
    /// Churn departures attributed to this window's panes — the
    /// membership half of "lossy windows degrade visibly": a window
    /// whose coverage dipped because nodes left says so here.
    pub nodes_left: u64,
    /// Payload bytes across the window's panes, maintained
    /// incrementally (exact `u64` arithmetic). For landmark windows a
    /// running total since the stream began.
    pub bytes: u64,
    /// The merged set-valued frequent-items estimate, for queries whose
    /// panes are [`PaneValue::Freq`]; `None` for scalar queries.
    pub freq: Option<Arc<FreqPane>>,
    /// The merged quantile summary, for queries whose panes are
    /// [`PaneValue::Quantile`] — ask it for any rank, not just the
    /// median that [`answer`](Self::answer) carries; `None` otherwise.
    pub quantile: Option<Arc<QuantilePane>>,
    /// The newest pane's per-epoch instrumentation — always present,
    /// O(1) to carry (the `CommStats` is `Arc`-shared).
    pub last_pane: PaneStats,
}

impl WindowReport {
    /// Whether any merged pane missed contributors — the "degrade
    /// visibly, not silently" bit consumers should check before
    /// trusting the answer as exact.
    pub fn is_lossy(&self) -> bool {
        self.min_coverage < 1.0
    }

    /// Total payload bytes across the window's panes — for landmark
    /// reports a running total since the stream began (the landmark
    /// window never evicts).
    pub fn comm_bytes(&self) -> u64 {
        self.bytes
    }
}

/// Counters proving the sharing the engine promises: panes are built
/// per *query* per measured epoch — never per window — and windows only
/// merge, never recompute.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Epochs run (warmup included).
    pub epochs_run: u64,
    /// Measured epochs (those that produced panes).
    pub measured_epochs: u64,
    /// Panes built — exactly `measured_epochs × queries`, however many
    /// windows ride on them.
    pub panes_built: u64,
    /// Pane merge/fold operations performed across all windows.
    pub pane_merges: u64,
    /// Window answers computed by refolding the window's pane buffer
    /// ([`AccumCounters::value_refolds`]): one per emission of an
    /// overlapping sliding window. Kept for the benchmark harness's
    /// `stream.value_refolds` row until ROADMAP item 7 deletes both.
    pub value_refolds: u64,
    /// Window reports emitted.
    pub reports_emitted: u64,
    /// Sum of every built pane's coverage fraction — each measured
    /// epoch counted once per query, never re-weighted by how many
    /// windows or reports a pane lands in.
    pub pane_coverage_sum: f64,
}

impl StreamStats {
    /// Mean contributor coverage across all built panes (1.0 when no
    /// pane exists yet).
    pub fn mean_pane_coverage(&self) -> f64 {
        if self.panes_built == 0 {
            1.0
        } else {
            self.pane_coverage_sum / self.panes_built as f64
        }
    }
}

/// Per-query pane bookkeeping (parallel to the session's boxed
/// protocols — split so the epoch loop can borrow protocols shared
/// while mutating window state).
struct QueryState {
    name: Arc<str>,
    windows: Vec<WindowAccum>,
    next_seq: u64,
    /// Deregistered queries stay in place as tombstones so earlier
    /// queries' indices (and every issued [`WindowHandle`]) stay valid;
    /// inactive queries are skipped by the epoch loop.
    active: bool,
}

/// Why [`StreamSession::deregister`] refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeregisterError {
    /// No query was ever registered under that index.
    UnknownQuery,
    /// The query was already deregistered.
    AlreadyInactive,
    /// Deregistering it would leave the session with nothing to run —
    /// an epoch needs at least one active query.
    LastActiveQuery,
}

impl std::fmt::Display for DeregisterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeregisterError::UnknownQuery => write!(f, "unknown stream query index"),
            DeregisterError::AlreadyInactive => write!(f, "stream query already deregistered"),
            DeregisterError::LastActiveQuery => {
                write!(f, "cannot deregister the last active stream query")
            }
        }
    }
}

/// The streaming window engine over one aggregation session.
///
/// ```ignore
/// let driver = Driver::new(SessionBuilder::new(Scheme::Td).build(&net, &mut rng), warmup);
/// let mut stream = StreamSession::new(driver);
/// let handles = stream.register(
///     StreamQuery::scalar(Sum::default())
///         .window(WindowSpec::sliding(10, 1), EpochMerge::Add)
///         .window(WindowSpec::tumbling(30), EpochMerge::Mean),
/// );
/// let reports = stream.run(&workload, &channel, epochs, &mut rng);
/// ```
pub struct StreamSession {
    driver: Driver,
    protos: Vec<Box<dyn PaneProtocol>>,
    queries: Vec<QueryState>,
    last_stats: CommStats,
    stats: StreamStats,
}

impl StreamSession {
    /// Wrap a driver (its warmup epochs produce no panes).
    pub fn new(driver: Driver) -> Self {
        let last_stats = driver.session().stats().clone();
        StreamSession {
            driver,
            protos: Vec::new(),
            queries: Vec::new(),
            last_stats,
            stats: StreamStats::default(),
        }
    }

    /// Register a stream query, returning one handle per attached
    /// window. All the query's windows share one pane series; all
    /// registered queries share each epoch's single traversal.
    ///
    /// # Panics
    /// Panics if the query has no windows (it would produce panes
    /// nobody consumes), or if a set-valued query attaches a window
    /// with a merge law other than [`EpochMerge::Add`].
    pub fn register<P: PaneProtocol + 'static>(
        &mut self,
        query: StreamQuery<P>,
    ) -> Vec<WindowHandle> {
        assert!(
            !query.windows.is_empty(),
            "a stream query needs at least one window"
        );
        let qi = self.protos.len();
        let kind = query.proto.pane_kind();
        let windows: Vec<WindowAccum> = query
            .windows
            .iter()
            .map(|cfg| WindowAccum::new(cfg.spec, cfg.merge, kind, FoldMode::Incremental))
            .collect();
        let handles = (0..windows.len())
            .map(|wi| WindowHandle {
                query: qi,
                window: wi,
            })
            .collect();
        self.queries.push(QueryState {
            name: PaneProtocol::name(&query.proto).into(),
            windows,
            next_seq: 0,
            active: true,
        });
        self.protos.push(Box::new(query.proto));
        handles
    }

    /// The wrapped driver.
    pub fn driver(&self) -> &Driver {
        &self.driver
    }

    /// The underlying session (topology, cumulative stats).
    pub fn session(&self) -> &Session {
        self.driver.session()
    }

    /// The engine's sharing counters.
    pub fn stream_stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Number of registered stream queries, tombstoned ones included
    /// (registration indices are never reused).
    pub fn query_count(&self) -> usize {
        self.protos.len()
    }

    /// Number of queries still active (= protocols per epoch set).
    pub fn active_query_count(&self) -> usize {
        self.queries.iter().filter(|q| q.active).count()
    }

    /// Deregister a stream query by its index ([`WindowHandle::query`]).
    /// The query stops costing a query column from the next epoch on and
    /// its windows stop emitting; its tombstone keeps every other
    /// query's index (and issued handles) valid. Irreversible.
    pub fn deregister(&mut self, query: usize) -> Result<(), DeregisterError> {
        let q = self
            .queries
            .get_mut(query)
            .ok_or(DeregisterError::UnknownQuery)?;
        if !q.active {
            return Err(DeregisterError::AlreadyInactive);
        }
        q.active = false;
        if self.queries.iter().all(|q| !q.active) {
            self.queries[query].active = true;
            return Err(DeregisterError::LastActiveQuery);
        }
        Ok(())
    }

    /// Apply one batch of membership transitions to the session outside
    /// a schedule ([`Session::apply_churn`] — orphans re-route, the
    /// cached plan rebuilds in place, the join/leave counts land in the next
    /// pane's [`CommStats`] delta). This is the service layer's churn
    /// injection point; note it changes **structure and accounting**
    /// only — silencing absent nodes on the channel stays the loss
    /// model's job, exactly as in a hand-rolled churn loop.
    ///
    /// [`Session::apply_churn`]: tributary_delta::session::Session::apply_churn
    pub fn inject_churn(&mut self, events: &ChurnEvents) {
        self.driver.session_mut().apply_churn(events);
    }

    /// Drop the underlying session's cached epoch plan
    /// ([`Session::clear_cached_plan`]) so the next epoch recompiles it.
    /// Reports are unaffected; this is the per-epoch-rebuild reference
    /// the refreshed plan is pinned against.
    ///
    /// [`Session::clear_cached_plan`]: tributary_delta::session::Session::clear_cached_plan
    pub fn clear_cached_plan(&mut self) {
        self.driver.session_mut().clear_cached_plan();
    }

    /// Override the underlying session's intra-epoch worker count
    /// ([`Session::set_workers`] — bit-identical on any value).
    /// `ServiceRuntime` pins its tenants to `1`: tenant-level
    /// parallelism already saturates the cores, and nested fan-out
    /// would oversubscribe them.
    ///
    /// [`Session::set_workers`]: tributary_delta::session::Session::set_workers
    pub fn set_workers(&mut self, workers: usize) {
        self.driver.session_mut().set_workers(workers);
    }

    /// Run `warmup + epochs` epochs (continuing the driver's clock),
    /// returning every window report emitted by measured epochs in
    /// emission order.
    pub fn run<W, M, R>(
        &mut self,
        workload: &W,
        model: &M,
        epochs: u64,
        rng: &mut R,
    ) -> Vec<WindowReport>
    where
        W: Workload + ?Sized,
        M: LossModel,
        R: Rng + ?Sized,
    {
        self.run_inner(workload, model, None, epochs, rng)
    }

    /// [`run`](Self::run) under node churn: before each epoch the
    /// schedule's membership transitions are applied to the session
    /// ([`Session::apply_churn`] — orphans re-route, the plan refreshes)
    /// and delivery runs under [`ChurnSchedule::overlay`], so absent
    /// nodes are silent on the channel *and* routed around in the
    /// structure. Every pane's [`CommStats`] delta carries the epoch's
    /// joined/left counts, and reports total them in
    /// [`WindowReport::nodes_joined`]/[`nodes_left`] — windows spanning
    /// churn degrade visibly instead of silently.
    ///
    /// [`Session::apply_churn`]: tributary_delta::session::Session::apply_churn
    /// [`nodes_left`]: WindowReport::nodes_left
    pub fn run_under_churn<W, M, R>(
        &mut self,
        workload: &W,
        model: &M,
        churn: &ChurnSchedule,
        epochs: u64,
        rng: &mut R,
    ) -> Vec<WindowReport>
    where
        W: Workload + ?Sized,
        M: LossModel,
        R: Rng + ?Sized,
    {
        self.run_inner(workload, model, Some(churn), epochs, rng)
    }

    /// Advance exactly **one** epoch (warmup or measured), returning
    /// the window reports that epoch emitted (none during warmup).
    ///
    /// This is the single-epoch unit [`run`](Self::run) loops over and
    /// the service layer drives directly: a tenant's session is stepped
    /// epoch-by-epoch on whatever worker owns it, interleaved with
    /// other tenants, and stays bit-identical to a batch
    /// [`run`](Self::run) because both paths *are* this method.
    pub fn step<W, M, R>(&mut self, workload: &W, model: &M, rng: &mut R) -> Vec<WindowReport>
    where
        W: Workload + ?Sized,
        M: LossModel,
        R: Rng + ?Sized,
    {
        self.step_inner(workload, model, None, rng)
    }

    /// [`step`](Self::step) under a churn schedule: applies the epoch's
    /// membership transitions to the session and runs delivery under
    /// [`ChurnSchedule::overlay`] — the single-epoch unit
    /// [`run_under_churn`](Self::run_under_churn) loops over.
    pub fn step_under_churn<W, M, R>(
        &mut self,
        workload: &W,
        model: &M,
        churn: &ChurnSchedule,
        rng: &mut R,
    ) -> Vec<WindowReport>
    where
        W: Workload + ?Sized,
        M: LossModel,
        R: Rng + ?Sized,
    {
        self.step_inner(workload, model, Some(churn), rng)
    }

    fn run_inner<W, M, R>(
        &mut self,
        workload: &W,
        model: &M,
        churn: Option<&ChurnSchedule>,
        epochs: u64,
        rng: &mut R,
    ) -> Vec<WindowReport>
    where
        W: Workload + ?Sized,
        M: LossModel,
        R: Rng + ?Sized,
    {
        let mut reports = Vec::new();
        for _ in 0..self.driver.epochs_to_run(epochs) {
            reports.extend(self.step_inner(workload, model, churn, rng));
        }
        reports
    }

    fn step_inner<W, M, R>(
        &mut self,
        workload: &W,
        model: &M,
        churn: Option<&ChurnSchedule>,
        rng: &mut R,
    ) -> Vec<WindowReport>
    where
        W: Workload + ?Sized,
        M: LossModel,
        R: Rng + ?Sized,
    {
        assert!(
            self.queries.iter().any(|q| q.active),
            "register at least one stream query before running"
        );
        let mut reports = Vec::new();
        let epoch = self.driver.next_epoch();
        let readings = workload.readings(epoch);
        // One set, one traversal, however many queries and windows.
        // Tombstoned queries skip their slot entirely.
        let mut set = QuerySet::new();
        let active: Vec<bool> = self.queries.iter().map(|q| q.active).collect();
        let slots: Vec<Option<usize>> = self
            .protos
            .iter()
            .zip(&active)
            .map(|(p, &on)| on.then(|| p.register(&mut set, &readings, epoch)))
            .collect();
        let mut stepped = match churn {
            Some(schedule) => {
                let events = schedule.events_at(epoch);
                self.driver.session_mut().apply_churn(&events);
                self.driver.step_set(&set, &schedule.overlay(model), rng)
            }
            None => self.driver.step_set(&set, model, rng),
        };
        let values: Vec<Option<PaneValue>> = self
            .protos
            .iter()
            .zip(&slots)
            .map(|(p, slot)| slot.map(|s| p.pane_value(&mut stepped.record.answers, s)))
            .collect();
        drop(set);

        self.stats.epochs_run += 1;
        // One walk and one allocation per epoch (the pane's counters):
        // `last_stats` catches up with the session total without
        // cloning the full per-node vector.
        let comm = self.last_stats.advance_to(self.driver.session().stats());
        if !stepped.measured {
            return reports;
        }
        self.stats.measured_epochs += 1;

        let relabeled = matches!(
            stepped.record.action,
            AdaptAction::Expanded { .. } | AdaptAction::Shrunk { .. }
        );
        let pane = PaneStats {
            epoch,
            coverage: stepped.record.pct_contributing,
            relabeled,
            comm: Arc::new(comm),
        };
        // Window-fold phase: every query's pane absorption and window
        // re-folds for this epoch, as one latency sample.
        let sw = td_telemetry::phase::stopwatch();
        for (qi, value) in values.into_iter().enumerate() {
            if let Some(value) = value {
                self.absorb_pane(qi, value, &pane, &mut reports);
            }
        }
        td_telemetry::phase::record(td_telemetry::phase::Phase::WindowFold, sw);
        reports
    }

    /// Fold one measured epoch's answer into query `qi`'s pane series —
    /// one [`WindowAccum::absorb`] per window — and emit
    /// whatever windows close on it.
    fn absorb_pane(
        &mut self,
        qi: usize,
        value: PaneValue,
        pane: &PaneStats,
        reports: &mut Vec<WindowReport>,
    ) {
        let q = &mut self.queries[qi];
        let seq = q.next_seq;
        q.next_seq += 1;
        self.stats.panes_built += 1;
        self.stats.pane_coverage_sum += pane.coverage;
        let input = PaneInput {
            epoch: pane.epoch,
            value,
            coverage: pane.coverage,
            relabeled: pane.relabeled,
            nodes_joined: pane.comm.nodes_joined(),
            nodes_left: pane.comm.nodes_left(),
            bytes: pane.comm.total_bytes(),
        };
        let mut counters = AccumCounters::default();
        for (wi, w) in q.windows.iter_mut().enumerate() {
            let Some(ans) = w.absorb(seq, &input, &mut counters) else {
                continue;
            };
            reports.push(WindowReport {
                handle: WindowHandle {
                    query: qi,
                    window: wi,
                },
                query_name: Arc::clone(&q.name),
                spec: w.spec,
                merge: w.merge,
                start_epoch: ans.start_epoch,
                end_epoch: ans.end_epoch,
                panes: ans.panes,
                expected_panes: w.spec.full_span().unwrap_or(ans.panes),
                answer: ans.value,
                coverage: ans.coverage,
                min_coverage: ans.min_coverage,
                relabels: ans.relabels,
                nodes_joined: ans.nodes_joined,
                nodes_left: ans.nodes_left,
                bytes: ans.bytes,
                freq: ans.freq,
                quantile: ans.quantile,
                last_pane: pane.clone(),
            });
            self.stats.reports_emitted += 1;
        }
        self.stats.pane_merges += counters.pane_merges;
        self.stats.value_refolds += counters.value_refolds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::StreamQuery;
    use td_aggregates::sum::Sum;
    use td_netsim::loss::{Global, NoLoss};
    use td_netsim::network::Network;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;
    use tributary_delta::driver::FixedReadings;
    use tributary_delta::session::{Scheme, SessionBuilder};

    fn net(seed: u64, sensors: usize) -> Network {
        let mut rng = rng_from_seed(seed);
        Network::random_connected(sensors, 10.0, 10.0, Position::new(5.0, 5.0), 2.5, &mut rng)
    }

    fn stream(
        scheme: Scheme,
        net: &Network,
        warmup: u64,
        seed: u64,
    ) -> (StreamSession, rand::rngs::StdRng) {
        let mut rng = rng_from_seed(seed);
        let session = SessionBuilder::new(scheme).build(net, &mut rng);
        (StreamSession::new(Driver::new(session, warmup)), rng)
    }

    #[test]
    fn tumbling_emission_schedule_and_totals() {
        let net = net(301, 80);
        let values: Vec<u64> = vec![2; net.len()];
        let truth = 2.0 * net.num_sensors() as f64;
        let (mut ss, mut rng) = stream(Scheme::Tag, &net, 2, 302);
        // A tumbling(1) sibling reports every pane on its own.
        let handles = ss.register(
            StreamQuery::scalar(Sum::default())
                .window(WindowSpec::tumbling(3), EpochMerge::Add)
                .window(WindowSpec::tumbling(1), EpochMerge::Add),
        );
        assert_eq!(
            handles,
            vec![
                WindowHandle {
                    query: 0,
                    window: 0
                },
                WindowHandle {
                    query: 0,
                    window: 1
                }
            ]
        );
        let reports = ss.run(&FixedReadings(values), &NoLoss, 9, &mut rng);
        let (windows, panes): (Vec<&WindowReport>, Vec<&WindowReport>) =
            reports.iter().partition(|r| r.handle == handles[0]);
        assert_eq!(panes.len(), 9);
        // 9 measured panes → windows close after panes 2, 5, 8.
        assert_eq!(windows.len(), 3);
        for (i, r) in windows.iter().enumerate() {
            assert_eq!(r.panes, 3);
            assert_eq!(r.expected_panes, 3);
            // Lossless TAG: each pane is the exact sum, window = 3×.
            assert_eq!(r.answer, 3.0 * truth);
            assert_eq!(r.coverage, 1.0);
            assert!(!r.is_lossy());
            assert_eq!(r.relabels, 0);
            // Warmup epochs 0-1 produce no panes: first window spans
            // epochs 2-4.
            assert_eq!(r.start_epoch, 2 + 3 * i as u64);
            assert_eq!(r.end_epoch, 4 + 3 * i as u64);
            assert_eq!(r.last_pane.epoch, r.end_epoch);
            assert!(r.comm_bytes() > 0);
            assert_eq!(
                r.comm_bytes(),
                panes
                    .iter()
                    .filter(|p| (r.start_epoch..=r.end_epoch).contains(&p.last_pane.epoch))
                    .map(|p| p.last_pane.comm.total_bytes())
                    .sum::<u64>(),
                "incremental byte total diverged from the per-pane stats"
            );
        }
        let st = ss.stream_stats();
        assert_eq!(st.epochs_run, 11);
        assert_eq!(st.measured_epochs, 9);
        assert_eq!(st.panes_built, 9);
        assert_eq!(st.reports_emitted, 12);
    }

    #[test]
    fn sliding_window_emits_partial_prefix_then_full() {
        let net = net(303, 80);
        let values: Vec<u64> = vec![1; net.len()];
        let (mut ss, mut rng) = stream(Scheme::Tag, &net, 0, 304);
        let _ = ss.register(
            StreamQuery::scalar(Sum::default()).window(WindowSpec::sliding(4, 2), EpochMerge::Mean),
        );
        let reports = ss.run(&FixedReadings(values), &NoLoss, 8, &mut rng);
        // Emissions after panes 1, 3, 5, 7: spans 2, 4, 4, 4.
        let spans: Vec<usize> = reports.iter().map(|r| r.panes).collect();
        assert_eq!(spans, vec![2, 4, 4, 4]);
        assert!(reports[0].panes < reports[0].expected_panes);
        assert_eq!(reports[1].panes, reports[1].expected_panes);
        let truth = net.num_sensors() as f64;
        for r in &reports {
            assert_eq!(r.answer, truth, "mean of identical panes");
        }
        // Overlapping windows share panes: epochs overlap across reports.
        assert_eq!(reports[1].start_epoch, 0);
        assert_eq!(reports[2].start_epoch, 2);
    }

    #[test]
    fn landmark_window_runs_from_stream_start_in_constant_state() {
        let net = net(305, 80);
        let values: Vec<u64> = vec![3; net.len()];
        let truth = 3.0 * net.num_sensors() as f64;
        let (mut ss, mut rng) = stream(Scheme::Tag, &net, 1, 306);
        let _ = ss.register(
            StreamQuery::scalar(Sum::default()).window(WindowSpec::landmark(), EpochMerge::Add),
        );
        let reports = ss.run(&FixedReadings(values), &NoLoss, 6, &mut rng);
        assert_eq!(reports.len(), 6);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.panes, i + 1);
            assert_eq!(r.start_epoch, 1, "landmark anchors at first measured epoch");
            assert_eq!(r.answer, (i + 1) as f64 * truth);
            // O(1) state: reports carry the newest pane's stats only.
            assert_eq!(r.last_pane.epoch, r.end_epoch);
        }
    }

    #[test]
    fn many_windows_share_one_pane_series_and_one_traversal() {
        let net = net(307, 120);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 13).collect();
        let epochs = 12u64;
        let model = Global::new(0.15);

        // Baseline: a plain single-query driver run, same seed.
        let mut rng = rng_from_seed(308);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut driver = Driver::new(session, 0);
        driver.run_scalar(
            &Sum::default(),
            &FixedReadings(values.clone()),
            &model,
            epochs,
            |_| 0.0,
            &mut rng,
        );
        let baseline_rounds = driver.session().stats().total_rounds();

        // Stream: THREE windows over one query — still one traversal.
        let (mut ss, mut rng) = stream(Scheme::Td, &net, 0, 308);
        let handles = ss.register(
            StreamQuery::scalar(Sum::default())
                .window(WindowSpec::sliding(6, 1), EpochMerge::Add)
                .window(WindowSpec::tumbling(4), EpochMerge::Max)
                .window(WindowSpec::landmark(), EpochMerge::Mean),
        );
        assert_eq!(handles.len(), 3);
        let reports = ss.run(&FixedReadings(values), &model, epochs, &mut rng);
        let st = ss.stream_stats();
        assert_eq!(st.panes_built, epochs, "one pane per epoch per query");
        assert_eq!(
            ss.session().stats().total_rounds(),
            baseline_rounds,
            "three windows must not add traversals"
        );
        // Every window reported; handles partition the reports.
        for h in &handles {
            assert!(reports.iter().any(|r| r.handle == *h));
        }
    }

    #[test]
    fn churn_surfaces_in_reports_and_matches_a_manual_loop() {
        use td_netsim::churn::ChurnSchedule;
        let net = net(311, 150);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 5).collect();
        let schedule = ChurnSchedule::new(net.len(), 0.03, 5.0, 13);
        let model = Global::new(0.1);
        let epochs = 30u64;

        // Manual baseline: same seed, same per-epoch churn application.
        let mut rng = rng_from_seed(312);
        let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut manual = Vec::new();
        for epoch in 0..epochs {
            session.apply_churn(&schedule.events_at(epoch));
            let proto = tributary_delta::protocol::ScalarProtocol::new(Sum::default(), &values);
            let rec = session.run_epoch(&proto, &schedule.overlay(&model), epoch, &mut rng);
            manual.push(rec.output);
        }
        assert!(session.stats().nodes_left() > 0, "schedule never fired");

        // Stream engine, tumbling(1): identical answers, churn totals
        // surfaced per report.
        let (mut ss, mut rng) = stream(Scheme::Td, &net, 0, 312);
        let _ = ss.register(
            StreamQuery::scalar(Sum::default()).window(WindowSpec::tumbling(1), EpochMerge::Add),
        );
        let reports =
            ss.run_under_churn(&FixedReadings(values), &model, &schedule, epochs, &mut rng);
        let answers: Vec<f64> = reports.iter().map(|r| r.answer).collect();
        assert_eq!(answers, manual, "stream churn run diverged from manual");
        let joined: u64 = reports.iter().map(|r| r.nodes_joined).sum();
        let left: u64 = reports.iter().map(|r| r.nodes_left).sum();
        assert_eq!(left, ss.session().stats().nodes_left());
        assert_eq!(joined, ss.session().stats().nodes_joined());
        assert!(left > 0, "reports hid the churn");
        // A churn-free run reports zeros.
        let (mut quiet, mut rng) = stream(Scheme::Td, &net, 0, 313);
        let _ = quiet.register(
            StreamQuery::scalar(Sum::default()).window(WindowSpec::tumbling(1), EpochMerge::Add),
        );
        let qreports = quiet.run(&FixedReadings(vec![1; net.len()]), &model, 5, &mut rng);
        assert!(qreports
            .iter()
            .all(|r| r.nodes_left == 0 && r.nodes_joined == 0));
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn windowless_query_rejected() {
        let net = net(309, 60);
        let (mut ss, _) = stream(Scheme::Tag, &net, 0, 310);
        let _ = ss.register(StreamQuery::scalar(Sum::default()));
    }
}
