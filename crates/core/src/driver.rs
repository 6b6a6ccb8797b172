//! The scenario driver: one owner for the warmup → measure → adapt loop
//! that every experiment, example, and deployment entry point used to
//! hand-roll.
//!
//! A [`Driver`] wraps a [`Session`] plus the warmup discipline of §7.1
//! ("data collection begins only after the aggregation topologies become
//! stable"). Each epoch it asks a [`Workload`] for that epoch's
//! readings, lets the caller register this epoch's queries on a fresh
//! [`QuerySet`] (protocols borrow the readings, so the set is rebuilt
//! per epoch — handles stay valid because registration order is stable),
//! runs the single bundled traversal, and hands the answers to an
//! observer along with whether the epoch counts as measured. Every
//! epoch, whichever entry point asked for it, is one
//! [`Driver::step_set`]: that is the only place the epoch clock moves.
//!
//! [`Driver::run_scalar`] is the one-scalar-aggregate convenience that
//! covers the common "estimate vs truth series" experiment shape
//! directly.
//!
//! ## Parallel trials
//!
//! The paper's evaluation is thousands of *independent* epochs across
//! schemes, loss rates, and seeds, so the experiment layer is
//! embarrassingly parallel by construction. [`TrialPool::map`] runs one
//! job per trial configuration on the crate's one thread fan-out — the
//! same longest-first scoped executor an epoch's query columns run on —
//! and returns the outputs **in configuration order**. A job draws all
//! of its randomness from its own configuration (each configuration
//! carries its seed), so a sweep is bit-for-bit identical whatever the
//! thread count or scheduling.

use crate::protocol::{Protocol, ScalarProtocol};
use crate::query::{QueryHandle, QuerySet};
use crate::session::{QueryRecord, Session};
use td_aggregates::traits::Aggregate;
use td_netsim::loss::LossModel;

/// A source of per-epoch scalar readings (`readings()[0]` belongs to the
/// base station and is ignored by aggregates).
///
/// Unifies the Synthetic and LabData scenarios — and anything else that
/// can produce a reading per node per epoch — behind the one interface
/// the [`Driver`] consumes.
///
/// `Send + Sync` is a supertrait so workloads can cross worker threads:
/// the trial pool shares one workload across trials and the service
/// layer owns one boxed workload per tenant on whichever worker shard
/// the tenant hashes to. Workloads are epoch-indexed pure data, so
/// every existing implementation satisfies the bounds for free.
pub trait Workload: Send + Sync {
    /// The readings for `epoch`, one per node.
    fn readings(&self, epoch: u64) -> Vec<u64>;
}

/// The trivial workload: the same readings every epoch. Covers constant
/// Count-style queries and item-stream experiments where the protocol
/// carries its own (epoch-independent) data.
#[derive(Clone, Debug)]
pub struct FixedReadings(pub Vec<u64>);

impl Workload for FixedReadings {
    fn readings(&self, _epoch: u64) -> Vec<u64> {
        self.0.clone()
    }
}

impl<W: Workload + ?Sized> Workload for &W {
    fn readings(&self, epoch: u64) -> Vec<u64> {
        (**self).readings(epoch)
    }
}

/// One epoch stepped through [`Driver::step_set`]: the record plus the
/// driver's clock bookkeeping.
#[derive(Debug)]
pub struct SteppedEpoch {
    /// The absolute epoch number that ran (warmup included).
    pub epoch: u64,
    /// Whether the epoch is past warmup (a "measured" epoch).
    pub measured: bool,
    /// The epoch's answers and shared instrumentation.
    pub record: QueryRecord,
}

/// What the driver shows the observer after each epoch.
pub struct EpochView<'a> {
    /// The absolute epoch number (warmup epochs included).
    pub epoch: u64,
    /// Whether this epoch is past warmup (a "measured" epoch).
    pub measured: bool,
    /// The readings this epoch ran over.
    pub readings: &'a [u64],
    /// The epoch's answers and shared instrumentation.
    pub record: QueryRecord,
    /// The session, for topology/stats introspection.
    pub session: &'a Session,
}

/// The collected result of a [`Driver::run_scalar`] run.
#[derive(Clone, Debug, Default)]
pub struct ScalarRun {
    /// Estimates from each measured epoch.
    pub estimates: Vec<f64>,
    /// Ground-truth values from each measured epoch.
    pub actuals: Vec<f64>,
    /// `pct_contributing` of the final epoch.
    pub last_pct_contributing: f64,
    /// Delta size after the final epoch.
    pub last_delta_size: usize,
    /// Number of adaptation moves (expansions + shrinks) over the whole
    /// run, warmup included.
    pub adapt_moves: u64,
}

/// Owns a session's warmup/epoch/adaptation loop.
pub struct Driver {
    session: Session,
    warmup: u64,
    next_epoch: u64,
}

impl Driver {
    /// Wrap `session` with `warmup` unmeasured epochs.
    pub fn new(session: Session, warmup: u64) -> Self {
        Driver {
            session,
            warmup,
            next_epoch: 0,
        }
    }

    /// The wrapped session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Mutable access to the wrapped session (e.g. to clear the cached
    /// epoch plan when a bench wants the recompile-every-epoch path).
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// Unwrap the session (keeps its topology and statistics).
    pub fn into_session(self) -> Session {
        self.session
    }

    /// The next epoch number the driver will run (epochs accumulate
    /// across `run*` calls, so a driver can be driven in phases).
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }

    /// How many epochs a run of `epochs` measured epochs steps from
    /// here: the warmup epochs not yet run, then `epochs`. Warmup applies
    /// only once, so a driver past it steps exactly `epochs`.
    pub fn epochs_to_run(&self, epochs: u64) -> u64 {
        self.warmup.saturating_sub(self.next_epoch) + epochs
    }

    /// Run exactly one epoch over a caller-built query set, advancing
    /// the warmup/epoch clock.
    ///
    /// This is the concrete-lifetime escape hatch: [`run`](Self::run)'s
    /// `register` callback is higher-ranked over the set lifetime
    /// (`for<'e>`), which a caller registering protocols that borrow its
    /// own state cannot satisfy — stepping one epoch at a time gives the
    /// set a concrete lifetime instead. The stream engine's pane sources
    /// drive their epochs through here.
    pub fn step_set<M: LossModel, R: rand::Rng + ?Sized>(
        &mut self,
        set: &QuerySet<'_>,
        model: &M,
        rng: &mut R,
    ) -> SteppedEpoch {
        let epoch = self.next_epoch;
        let record = self.session.run_set(set, model, epoch, rng);
        self.next_epoch += 1;
        SteppedEpoch {
            epoch,
            measured: epoch >= self.warmup,
            record,
        }
    }

    /// Run `warmup + epochs` epochs (continuing the epoch clock).
    ///
    /// Per epoch: `register` places this epoch's queries on a fresh set
    /// over the workload's readings and returns whatever handles the
    /// observer needs; `observe` then receives the [`EpochView`] and
    /// those handles. Warmup applies only to the driver's first run —
    /// once past it, every epoch is measured.
    pub fn run<W, M, R, H, Reg, Obs>(
        &mut self,
        workload: &W,
        model: &M,
        epochs: u64,
        mut register: Reg,
        mut observe: Obs,
        rng: &mut R,
    ) where
        W: Workload + ?Sized,
        M: LossModel,
        R: rand::Rng + ?Sized,
        Reg: for<'e> FnMut(&mut QuerySet<'e>, &'e [u64]) -> H,
        Obs: FnMut(EpochView<'_>, H),
    {
        for _ in 0..self.epochs_to_run(epochs) {
            let readings = workload.readings(self.next_epoch);
            let mut set = QuerySet::new();
            let handles = register(&mut set, &readings);
            let SteppedEpoch {
                epoch,
                measured,
                record,
            } = self.step_set(&set, model, rng);
            drop(set);
            observe(
                EpochView {
                    epoch,
                    measured,
                    readings: &readings,
                    record,
                    session: &self.session,
                },
                handles,
            );
        }
    }

    /// Run a single scalar aggregate over the workload, collecting the
    /// measured estimate/truth series (`truth` maps an epoch's readings
    /// to the exact answer).
    pub fn run_scalar<A, W, M, R, T>(
        &mut self,
        agg: &A,
        workload: &W,
        model: &M,
        epochs: u64,
        truth: T,
        rng: &mut R,
    ) -> ScalarRun
    where
        A: Aggregate + 'static,
        W: Workload + ?Sized,
        M: LossModel,
        R: rand::Rng + ?Sized,
        T: Fn(&[u64]) -> f64,
    {
        let mut out = ScalarRun::default();
        self.run(
            workload,
            model,
            epochs,
            |set: &mut QuerySet<'_>, readings| {
                set.register(ScalarProtocol::new(agg.clone(), readings))
            },
            |view: EpochView<'_>, handle: QueryHandle<f64>| {
                if view.measured {
                    out.estimates.push(*view.record.answers.get(handle));
                    out.actuals.push(truth(view.readings));
                }
                out.last_pct_contributing = view.record.pct_contributing;
                out.last_delta_size = view.record.delta_size;
                if matches!(
                    view.record.action,
                    crate::adapt::AdaptAction::Expanded { .. }
                        | crate::adapt::AdaptAction::Shrunk { .. }
                ) {
                    out.adapt_moves += 1;
                }
            },
            rng,
        );
        out
    }

    /// Run a caller-built protocol per epoch (the non-scalar convenience:
    /// frequent items and custom protocols carrying their own data),
    /// returning the final epoch's output.
    ///
    /// Unlike [`run`](Self::run), the per-epoch protocol may borrow data
    /// outside the driver (item bags, readings tables): `make` is called
    /// once per epoch and the protocol only needs to outlive that epoch.
    /// That is also why this loops over [`step_set`](Self::step_set)
    /// instead of delegating to [`run`](Self::run): `run`'s register
    /// callback is higher-ranked over the set lifetime (`for<'e>`), which
    /// a closure registering a protocol that captures outer borrows
    /// cannot satisfy — here the loop body gives the set a concrete
    /// lifetime.
    pub fn run_protocol<P, M, R, F>(
        &mut self,
        mut make: F,
        model: &M,
        epochs: u64,
        rng: &mut R,
    ) -> Option<P::Output>
    where
        P: Protocol,
        M: LossModel,
        R: rand::Rng + ?Sized,
        F: FnMut(u64) -> P,
    {
        let mut last = None;
        for _ in 0..self.epochs_to_run(epochs) {
            let proto = make(self.next_epoch);
            let mut set = QuerySet::new();
            let handle = set.register(&proto);
            last = Some(self.step_set(&set, model, rng).record.answers.take(handle));
        }
        last
    }
}

/// The experiment layer's parallel map: one job per trial
/// configuration, fanned across threads by the crate's one scoped
/// executor, outputs in configuration order.
///
/// Determinism does not depend on scheduling: a job sees only its own
/// configuration (which carries whatever seed the trial draws from) and
/// writes only its own output slot. A pool of one thread runs the jobs
/// in configuration order on the calling thread — the sequential loop
/// the determinism tests pin the pool against bit for bit. A panicking
/// job panics the caller.
#[derive(Clone, Copy, Debug)]
pub struct TrialPool {
    threads: usize,
}

impl Default for TrialPool {
    fn default() -> Self {
        TrialPool::new()
    }
}

impl TrialPool {
    /// A pool sized to the machine (`available_parallelism`, 1 if
    /// unknown).
    pub fn new() -> Self {
        TrialPool {
            threads: crate::parallel::available_threads(),
        }
    }

    /// A pool with an explicit worker count (1 = sequential execution).
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads >= 1, "a trial pool needs at least one worker");
        TrialPool { threads }
    }

    /// Map `job` over `configs` in parallel: job `i` gets `configs[i]`,
    /// and its output lands at index `i`.
    pub fn map<C, T, F>(&self, configs: &[C], job: F) -> Vec<T>
    where
        C: Sync,
        T: Send,
        F: Fn(&C) -> T + Sync,
    {
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(configs.len(), || None);
        let jobs: Vec<(&C, &mut Option<T>)> = configs.iter().zip(&mut slots).collect();
        let threads = self.threads.min(configs.len());
        // No timings carry over between calls, so jobs start in
        // configuration order.
        crate::parallel::run_longest_first(threads, jobs, &mut Vec::new(), |(config, slot)| {
            *slot = Some(job(config))
        });
        slots
            .into_iter()
            .map(|t| t.expect("every job runs exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{Scheme, SessionBuilder};
    use td_aggregates::count::Count;
    use td_aggregates::sum::Sum;
    use td_netsim::loss::NoLoss;
    use td_netsim::network::Network;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;

    fn net(seed: u64) -> Network {
        let mut rng = rng_from_seed(seed);
        Network::random_connected(120, 12.0, 12.0, Position::new(6.0, 6.0), 2.5, &mut rng)
    }

    #[test]
    fn warmup_epochs_are_not_measured() {
        let net = net(201);
        let mut rng = rng_from_seed(202);
        let session = SessionBuilder::new(Scheme::Tag).build(&net, &mut rng);
        let mut driver = Driver::new(session, 5);
        let workload = FixedReadings(vec![1; net.len()]);
        let run = driver.run_scalar(
            &Count::default(),
            &workload,
            &NoLoss,
            7,
            |_| net.num_sensors() as f64,
            &mut rng,
        );
        assert_eq!(run.estimates.len(), 7);
        assert_eq!(driver.next_epoch(), 12);
        // Lossless TAG: exact every measured epoch.
        assert_eq!(run.estimates, run.actuals);
    }

    #[test]
    fn driver_matches_hand_rolled_loop() {
        let net = net(203);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 3 + i % 20).collect();
        let truth: f64 = values[1..].iter().sum::<u64>() as f64;
        let model = td_netsim::loss::Global::new(0.2);

        // Hand-rolled.
        let mut rng = rng_from_seed(204);
        let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut manual = Vec::new();
        for epoch in 0..12u64 {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            manual.push(session.run_epoch(&proto, &model, epoch, &mut rng).output);
        }

        // Driver, same seed, warmup 4 → the measured tail must match.
        let mut rng = rng_from_seed(204);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut driver = Driver::new(session, 4);
        let run = driver.run_scalar(
            &Sum::default(),
            &FixedReadings(values.clone()),
            &model,
            8,
            |readings| readings[1..].iter().sum::<u64>() as f64,
            &mut rng,
        );
        assert_eq!(run.estimates, manual[4..].to_vec());
        assert!(run.actuals.iter().all(|&a| a == truth));
    }

    #[test]
    fn step_set_matches_run_bit_for_bit() {
        let net = net(207);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 2 + i % 9).collect();
        let model = td_netsim::loss::Global::new(0.15);

        // Closure-driven loop.
        let mut rng = rng_from_seed(208);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut driver = Driver::new(session, 3);
        let mut via_run = Vec::new();
        driver.run(
            &FixedReadings(values.clone()),
            &model,
            5,
            |set: &mut QuerySet<'_>, readings| {
                set.register(ScalarProtocol::new(Sum::default(), readings))
            },
            |view: EpochView<'_>, h| {
                via_run.push((view.epoch, view.measured, *view.record.answers.get(h)))
            },
            &mut rng,
        );

        // Stepped loop, same seed.
        let mut rng = rng_from_seed(208);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut driver = Driver::new(session, 3);
        assert_eq!(driver.epochs_to_run(5), 8);
        let mut via_step = Vec::new();
        for _ in 0..8 {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            let handle = set.register(&proto);
            let mut stepped = driver.step_set(&set, &model, &mut rng);
            via_step.push((
                stepped.epoch,
                stepped.measured,
                stepped.record.answers.take(handle),
            ));
        }
        assert_eq!(via_run, via_step);
    }

    #[test]
    fn trial_pool_results_are_thread_count_invariant() {
        // Each config carries its own seed; any scheduling dependence
        // would scramble the output.
        let seeds: Vec<u64> = (0..16).map(|i| 99 + i).collect();
        let job = |&seed: &u64| {
            use rand::Rng;
            (seed, rng_from_seed(seed).gen::<u64>())
        };
        let sequential: Vec<(u64, u64)> = seeds.iter().map(job).collect();
        for threads in [1, 4, 32] {
            assert_eq!(
                TrialPool::with_threads(threads).map(&seeds, job),
                sequential
            );
        }
    }

    #[test]
    fn trial_pool_map_preserves_config_order() {
        let configs: Vec<u64> = (0..23).map(|i| i * 10).collect();
        let out = TrialPool::with_threads(3).map(&configs, |&c| c + 1);
        let expect: Vec<u64> = configs.iter().map(|c| c + 1).collect();
        assert_eq!(out, expect);
        assert!(TrialPool::with_threads(3)
            .map(&[] as &[u64], |&c| c)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "trial 5 failed")]
    fn trial_pool_job_panic_reaches_the_caller_sequentially() {
        let configs: Vec<u64> = (0..8).collect();
        TrialPool::with_threads(1).map(&configs, |&c| {
            assert_ne!(c, 5, "trial 5 failed");
            c
        });
    }

    #[test]
    #[should_panic]
    fn trial_pool_job_panic_reaches_the_caller_in_parallel() {
        // On a spawned thread the scope re-raises with its own message,
        // so only the panic itself is pinned.
        let configs: Vec<u64> = (0..8).collect();
        TrialPool::with_threads(4).map(&configs, |&c| {
            assert_ne!(c, 5, "trial 5 failed");
            c
        });
    }

    #[test]
    fn phased_runs_continue_the_epoch_clock() {
        let net = net(205);
        let mut rng = rng_from_seed(206);
        let session = SessionBuilder::new(Scheme::Sd).build(&net, &mut rng);
        let mut driver = Driver::new(session, 3);
        let workload = FixedReadings(vec![1; net.len()]);
        let mut epochs_seen = Vec::new();
        for _ in 0..2 {
            driver.run(
                &workload,
                &NoLoss,
                2,
                |set: &mut QuerySet<'_>, readings| {
                    set.register(ScalarProtocol::new(Count::default(), readings))
                },
                |view: EpochView<'_>, _h| epochs_seen.push((view.epoch, view.measured)),
                &mut rng,
            );
        }
        // First run: 3 warmup + 2 measured; second: warmup already spent.
        let expect: Vec<(u64, bool)> = (0..7u64).map(|e| (e, e >= 3)).collect();
        assert_eq!(epochs_seen, expect);
        assert_eq!(driver.epochs_to_run(2), 2);
    }
}
