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
//! observer along with whether the epoch counts as measured.
//!
//! [`Driver::run_scalar`] is the one-scalar-aggregate convenience that
//! covers the common "estimate vs truth series" experiment shape
//! directly.
//!
//! ## Parallel trials
//!
//! The paper's evaluation is thousands of *independent* epochs across
//! schemes, loss rates, and seeds, so the experiment layer is
//! embarrassingly parallel by construction. [`TrialPool`] owns that
//! parallelism: a `std::thread::scope`-based executor that fans
//! independent trial configurations across cores, hands every trial a
//! deterministic RNG substream salted by its trial index
//! ([`TrialPool::trial_rng`]), and merges results back **in trial
//! order** — so a run is bit-for-bit identical whatever the thread count
//! or scheduling. [`Driver::run_trials`] and [`Driver::run_sweep`] layer
//! the common shapes on top (N seeds of one scenario; a parameter sweep
//! × N seeds per point), merging per-trial [`CommStats`] with
//! [`CommStats::merge`].

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::protocol::{Protocol, ScalarProtocol};
use crate::query::{QueryHandle, QuerySet};
use crate::session::{QueryRecord, Session};
use rand::rngs::StdRng;
use td_aggregates::traits::Aggregate;
use td_netsim::loss::LossModel;
use td_netsim::rng::substream;
use td_netsim::stats::CommStats;

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

    /// The session's plan-cache counters: compiles vs in-place patches
    /// across this driver's run — the adaptation-cost telemetry benches
    /// report next to epochs/sec.
    pub fn plan_stats(&self) -> crate::session::PlanCacheStats {
        self.session.plan_stats()
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

    /// The configured warmup epoch count.
    pub fn warmup(&self) -> u64 {
        self.warmup
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
        let remaining_warmup = self.warmup.saturating_sub(self.next_epoch);
        for _ in 0..remaining_warmup + epochs {
            let epoch = self.next_epoch;
            let readings = workload.readings(epoch);
            let mut set = QuerySet::new();
            let handles = register(&mut set, &readings);
            let record = self.session.run_set(&set, model, epoch, rng);
            drop(set);
            observe(
                EpochView {
                    epoch,
                    measured: epoch >= self.warmup,
                    readings: &readings,
                    record,
                    session: &self.session,
                },
                handles,
            );
            self.next_epoch += 1;
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
    /// That is also why this repeats [`run`](Self::run)'s small epoch
    /// loop instead of delegating to it: `run`'s register callback is
    /// higher-ranked over the set lifetime (`for<'e>`), which a closure
    /// registering a protocol that captures outer borrows cannot
    /// satisfy — here the loop body gives the set a concrete lifetime.
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
        let remaining_warmup = self.warmup.saturating_sub(self.next_epoch);
        for _ in 0..remaining_warmup + epochs {
            let epoch = self.next_epoch;
            let proto = make(epoch);
            let mut set = QuerySet::new();
            let handle = set.register(&proto);
            let mut rec = self.session.run_set(&set, model, epoch, rng);
            last = Some(rec.answers.take(handle));
            self.next_epoch += 1;
        }
        last
    }

    /// Run `trials` independent trials of a scenario across the pool,
    /// merging communication statistics. Trial `t` receives the
    /// deterministic substream [`TrialPool::trial_rng`]`(seed, t)`;
    /// outputs come back in trial order and the per-trial stats are
    /// folded with [`CommStats::merge`], so the batch is bit-for-bit
    /// identical to running the trials sequentially.
    ///
    /// The per-trial stats must track the same node count (the usual
    /// case: every trial simulates the same deployment size);
    /// [`CommStats::merge`] panics otherwise.
    pub fn run_trials<T, F>(pool: &TrialPool, seed: u64, trials: u64, trial: F) -> TrialBatch<T>
    where
        T: Send,
        F: Fn(u64, &mut StdRng) -> (T, CommStats) + Sync,
    {
        let results = pool.run(seed, trials, trial);
        let mut batch = TrialBatch {
            outputs: Vec::with_capacity(results.len()),
            stats: None,
        };
        for (out, trial_stats) in results {
            batch.absorb(out, trial_stats);
        }
        batch
    }

    /// Run a parameter sweep: `trials_per_point` independent trials of
    /// every point in `points`, all fanned across one flat pool (so a
    /// slow point does not serialize the sweep), regrouped per point in
    /// order. The RNG substream of `(point p, trial t)` is salted by the
    /// flattened index `p * trials_per_point + t` — independent of the
    /// thread count, so sweeps replay bit-for-bit.
    pub fn run_sweep<P, T, F>(
        pool: &TrialPool,
        seed: u64,
        points: &[P],
        trials_per_point: u64,
        job: F,
    ) -> Vec<TrialBatch<T>>
    where
        P: Sync,
        T: Send,
        F: Fn(&P, u64, &mut StdRng) -> (T, CommStats) + Sync,
    {
        let total = points.len() as u64 * trials_per_point;
        let flat = pool.run(seed, total, |g, rng| {
            let point = (g / trials_per_point) as usize;
            let trial = g % trials_per_point;
            job(&points[point], trial, rng)
        });
        // One batch per point unconditionally, so the `zip(points)`
        // contract holds even for a degenerate zero-trial sweep.
        let mut batches: Vec<TrialBatch<T>> = points
            .iter()
            .map(|_| TrialBatch {
                outputs: Vec::with_capacity(trials_per_point as usize),
                stats: None,
            })
            .collect();
        for (g, (out, trial_stats)) in flat.into_iter().enumerate() {
            batches[g / trials_per_point as usize].absorb(out, trial_stats);
        }
        batches
    }
}

/// The merged outcome of one [`Driver::run_trials`] batch (or one sweep
/// point of [`Driver::run_sweep`]).
#[derive(Clone, Debug)]
pub struct TrialBatch<T> {
    /// Per-trial outputs, in trial order.
    pub outputs: Vec<T>,
    /// Communication statistics summed across the batch's trials
    /// ([`CommStats::merge`]); `None` when the batch ran zero trials.
    pub stats: Option<CommStats>,
}

impl<T> TrialBatch<T> {
    /// Fold one trial's result in: append the output, merge the stats
    /// (first trial seeds the accumulator).
    fn absorb(&mut self, output: T, stats: CommStats) {
        match &mut self.stats {
            Some(acc) => acc.merge(&stats),
            none => *none = Some(stats),
        }
        self.outputs.push(output);
    }
}

/// A `std::thread::scope`-based executor for independent simulation
/// trials.
///
/// Work is claimed off a shared atomic counter, so long trials load-
/// balance across workers; determinism does not depend on scheduling
/// because every trial's RNG is derived from `(seed, trial index)` alone
/// ([`TrialPool::trial_rng`]) and results are reassembled in index
/// order. A pool of one thread degenerates to a plain sequential loop
/// over the identical substreams — the equivalence the determinism tests
/// pin bit-for-bit.
#[derive(Clone, Copy, Debug)]
pub struct TrialPool {
    threads: usize,
}

impl Default for TrialPool {
    fn default() -> Self {
        TrialPool::new()
    }
}

/// Salt mixed into every trial substream so trial streams never collide
/// with the topology/loss substreams experiments derive from the same
/// experiment seed.
const TRIAL_STREAM_SALT: u64 = 0x7121_A100;

impl TrialPool {
    /// A pool sized to the machine (`available_parallelism`, 1 if
    /// unknown).
    pub fn new() -> Self {
        TrialPool {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
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

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The deterministic RNG substream of trial `index` under `seed` —
    /// the stream [`run`](Self::run) hands each job. Public so
    /// sequential baselines (tests, single-trial reruns of one sweep
    /// point) can replay exactly what the pool executed.
    pub fn trial_rng(seed: u64, index: u64) -> StdRng {
        substream(seed, TRIAL_STREAM_SALT.wrapping_add(index))
    }

    /// Run `trials` independent jobs, returning outputs in trial order.
    /// Job `t` runs `job(t, &mut trial_rng(seed, t))` on whichever
    /// worker claims it first.
    pub fn run<T, F>(&self, seed: u64, trials: u64, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64, &mut StdRng) -> T + Sync,
    {
        let n = usize::try_from(trials).expect("trial count fits in usize");
        self.dispatch(n, |i| {
            let mut rng = TrialPool::trial_rng(seed, i as u64);
            job(i as u64, &mut rng)
        })
    }

    /// Map `job` over `configs` in parallel: job `i` gets `configs[i]`
    /// and the substream `trial_rng(seed, i)`. Outputs in config order.
    pub fn map<C, T, F>(&self, seed: u64, configs: &[C], job: F) -> Vec<T>
    where
        C: Sync,
        T: Send,
        F: Fn(u64, &C, &mut StdRng) -> T + Sync,
    {
        self.dispatch(configs.len(), |i| {
            let mut rng = TrialPool::trial_rng(seed, i as u64);
            job(i as u64, &configs[i], &mut rng)
        })
    }

    /// The shared fan-out core: claim indices `0..n` off an atomic
    /// counter, run `job` on each, reassemble in index order.
    fn dispatch<T, F>(&self, n: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        // One worker or one trial: the identical sequential loop, inline.
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(job).collect();
        }
        let counter = AtomicUsize::new(0);
        // Index-keyed placement instead of collect-and-sort: every slot
        // is filled exactly once (the atomic counter hands each index to
        // one worker), so reassembly is a straight O(n) unwrap.
        let mut slots: Vec<Option<T>> = Vec::new();
        slots.resize_with(n, || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        // Reused per-worker scratch, sized for an even
                        // share up front so claim-loop pushes never
                        // reallocate.
                        let mut local = Vec::with_capacity(n / workers + 1);
                        loop {
                            let i = counter.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, job(i)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, t) in h.join().expect("trial worker panicked") {
                    slots[i] = Some(t);
                }
            }
        });
        slots
            .into_iter()
            .map(|t| t.expect("every trial index claimed exactly once"))
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
        assert_eq!(driver.warmup(), 3);
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
        // The job mixes its trial index into draws from the provided
        // substream; any scheduling dependence would scramble the output.
        let job = |t: u64, rng: &mut rand::rngs::StdRng| {
            use rand::Rng;
            (t, rng.gen::<u64>())
        };
        let sequential = TrialPool::with_threads(1).run(99, 16, job);
        let parallel = TrialPool::with_threads(4).run(99, 16, job);
        let wide = TrialPool::with_threads(32).run(99, 16, job);
        assert_eq!(sequential, parallel);
        assert_eq!(sequential, wide);
        assert_eq!(sequential.len(), 16);
        // And each stream really is the advertised substream.
        for (t, draw) in &sequential {
            use rand::Rng;
            assert_eq!(*draw, TrialPool::trial_rng(99, *t).gen::<u64>());
        }
    }

    #[test]
    fn trial_pool_map_preserves_config_order() {
        let configs: Vec<u64> = (0..23).map(|i| i * 10).collect();
        let out = TrialPool::with_threads(3).map(7, &configs, |i, &c, _rng| (i, c));
        for (i, (idx, c)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
            assert_eq!(*c, configs[i]);
        }
    }

    #[test]
    fn run_trials_merges_stats_across_trials() {
        let batch = Driver::run_trials(&TrialPool::with_threads(2), 1, 5, |t, _rng| {
            let mut stats = td_netsim::stats::CommStats::new(3);
            stats.record_send(td_netsim::node::NodeId(1), 4, 1, 1);
            (t, stats)
        });
        assert_eq!(batch.outputs, vec![0, 1, 2, 3, 4]);
        let stats = batch.stats.expect("five trials merged");
        assert_eq!(stats.total_bytes(), 20);
        assert_eq!(stats.total_rounds(), 5);
    }

    #[test]
    fn run_sweep_groups_points_in_order() {
        let points = [10u64, 20, 30];
        let batches = Driver::run_sweep(&TrialPool::with_threads(4), 2, &points, 4, |&p, t, _| {
            (p + t, td_netsim::stats::CommStats::new(1))
        });
        assert_eq!(batches.len(), 3);
        for (i, batch) in batches.iter().enumerate() {
            let p = points[i];
            assert_eq!(batch.outputs, vec![p, p + 1, p + 2, p + 3]);
        }
    }

    #[test]
    fn run_sweep_zero_trials_still_yields_one_batch_per_point() {
        let points = [1u64, 2];
        let batches = Driver::run_sweep(&TrialPool::with_threads(2), 3, &points, 0, |&p, t, _| {
            (p + t, td_netsim::stats::CommStats::new(1))
        });
        assert_eq!(batches.len(), 2);
        for batch in &batches {
            assert!(batch.outputs.is_empty());
            assert!(batch.stats.is_none());
        }
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
    }
}
