//! The service runtime: a fixed pool of worker threads, each owning a
//! disjoint shard of tenants, multiplexed epoch-by-epoch.
//!
//! ## Sharding and determinism
//!
//! A tenant is hash-assigned to one shard at submission
//! ([`splitmix64`] of its id modulo the worker count) and never
//! migrates, so on the hot path a worker touches only state it owns —
//! no cross-worker locking, just its inbox (a mutex swapped empty once
//! per scheduling pass) and per-tenant atomics. Every mutable thing an
//! epoch touches (session, workload, loss model, churn schedule, RNG)
//! lives inside the tenant, so interleaving tenants on a worker — or
//! spreading them over any number of workers — cannot perturb any
//! tenant's draws: each output stream is bit-identical to stepping
//! that tenant alone in a serial loop.
//!
//! ## Epoch-addressed reconfiguration
//!
//! Live operations (register/deregister a query, inject churn) carry a
//! target epoch and are applied *before* that epoch runs, in epoch
//! order — so "what happened at epoch k" is part of the tenant's
//! definition, not a race against the scheduler. An operation arriving
//! after its epoch already ran still applies (before the next epoch)
//! but is counted in [`ServiceStats::late_ops`]; pair operations with
//! [`TenantBuilder::run_until`](crate::TenantBuilder::run_until)
//! pauses to make them race-free.
//!
//! ## Backpressure
//!
//! Each tenant's reports flow through a bounded [`Outbox`]. When it
//! fills, the worker keeps the overflow staged and **parks** the
//! tenant — skipping its epochs until a drain makes room. Reports are
//! never dropped while the tenant's handle is alive; a park is time
//! (visible in [`ServiceStats`]), not data loss.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use td_netsim::churn::ChurnEvents;
use td_netsim::rng::splitmix64;
use td_stream::{PaneProtocol, StreamQuery, StreamSession, WindowHandle, WindowReport};
use td_telemetry::Registry;

use crate::outbox::{Outbox, TenantReport};
use crate::stats::{Counters, ServiceStats};
use crate::tenant::{Tenant, TenantId, TenantPhase, TenantShared, TenantStatus};

/// How long an idle worker sleeps between inbox checks when no wakeup
/// arrives (drains and submissions notify immediately; this only
/// bounds the cost of a missed signal).
const IDLE_WAIT: Duration = Duration::from_millis(5);

struct Waker {
    signal: Mutex<bool>,
    cv: Condvar,
}

impl Waker {
    fn new() -> Self {
        Waker {
            signal: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        *self.signal.lock().expect("waker lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self, timeout: Duration) {
        let mut signal = self.signal.lock().expect("waker lock");
        if !*signal {
            let (guard, _) = self.cv.wait_timeout(signal, timeout).expect("waker wait");
            signal = guard;
        }
        *signal = false;
    }
}

type RegisterFn = Box<dyn FnOnce(&mut StreamSession) -> Vec<WindowHandle> + Send>;

/// A live reconfiguration of one tenant, applied by its owning worker
/// at the operation's target epoch.
enum TenantOp {
    Register { expect: usize, apply: RegisterFn },
    Deregister(usize),
    InjectChurn(ChurnEvents),
    RunUntil(Option<u64>),
}

enum Command {
    Submit {
        id: TenantId,
        tenant: Box<Tenant>,
        shared: Arc<TenantShared>,
        outbox: Arc<Outbox>,
    },
    Op {
        id: TenantId,
        at_epoch: u64,
        op: TenantOp,
    },
    Remove {
        id: TenantId,
        ack: Sender<()>,
    },
}

/// One worker's share of the runtime: its command inbox, wakeup
/// signal, and live-tenant count. Everything else a worker touches is
/// thread-local.
struct Shard {
    inbox: Mutex<Vec<Command>>,
    waker: Waker,
    stop: AtomicBool,
    live: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            inbox: Mutex::new(Vec::new()),
            waker: Waker::new(),
            stop: AtomicBool::new(false),
            live: AtomicU64::new(0),
        }
    }

    fn push(&self, cmd: Command) {
        self.inbox.lock().expect("shard inbox lock").push(cmd);
        self.waker.notify();
    }

    fn take(&self) -> Vec<Command> {
        std::mem::take(&mut *self.inbox.lock().expect("shard inbox lock"))
    }
}

fn shard_of(id: TenantId, workers: usize) -> usize {
    (splitmix64(id.0) % workers as u64) as usize
}

/// Worker-local per-tenant state.
struct Entry {
    tenant: Box<Tenant>,
    shared: Arc<TenantShared>,
    outbox: Arc<Outbox>,
    /// Reports emitted but not yet accepted by the (full) outbox.
    staged: VecDeque<(WindowReport, Instant)>,
    /// Pending operations keyed by target epoch.
    ops: BTreeMap<u64, Vec<TenantOp>>,
    park_started: Option<Instant>,
    removing: Option<Sender<()>>,
}

fn worker_loop(shard: Arc<Shard>, counters: Arc<Counters>) {
    let mut tenants: BTreeMap<u64, Entry> = BTreeMap::new();
    loop {
        let commands = shard.take();
        let mut progress = !commands.is_empty();
        for cmd in commands {
            match cmd {
                Command::Submit {
                    id,
                    tenant,
                    shared,
                    outbox,
                } => {
                    shared.set_phase(TenantPhase::Running);
                    shard.live.fetch_add(1, Ordering::Relaxed);
                    tenants.insert(
                        id.0,
                        Entry {
                            tenant,
                            shared,
                            outbox,
                            staged: VecDeque::new(),
                            ops: BTreeMap::new(),
                            park_started: None,
                            removing: None,
                        },
                    );
                }
                Command::Op { id, at_epoch, op } => match tenants.get_mut(&id.0) {
                    Some(e) => e.ops.entry(at_epoch).or_default().push(op),
                    // Unknown tenant: refuse (the ack-less op just
                    // vanishes; the count is the caller's signal).
                    None => counters.rejected_ops.inc(),
                },
                Command::Remove { id, ack } => match tenants.get_mut(&id.0) {
                    Some(e) => e.removing = Some(ack),
                    // Dropping `ack` disconnects the handle's wait.
                    None => counters.rejected_ops.inc(),
                },
            }
        }
        let stopping = shard.stop.load(Ordering::Relaxed);
        let ids: Vec<u64> = tenants.keys().copied().collect();
        for id in ids {
            let retire = if stopping {
                true
            } else {
                let e = tenants.get_mut(&id).expect("tenant id just listed");
                step_entry(id, e, &counters, &mut progress)
            };
            if retire {
                let e = tenants.remove(&id).expect("tenant id just listed");
                retire_entry(id, e, &counters);
                shard.live.fetch_sub(1, Ordering::Relaxed);
                progress = true;
            }
        }
        if stopping {
            return;
        }
        if !progress {
            shard.waker.wait(IDLE_WAIT);
        }
    }
}

/// Advance one tenant by at most one epoch. Returns whether the entry
/// should be retired (removal requested and its epoch boundary
/// reached).
fn step_entry(id: u64, e: &mut Entry, counters: &Counters, progress: &mut bool) -> bool {
    // 1. Backpressure: move staged reports into the outbox; if any
    // remain it is full — park (never drop) until a drain makes room.
    if !e.staged.is_empty() {
        if e.outbox.offer(&mut e.staged) > 0 {
            *progress = true;
        }
        if !e.staged.is_empty() && e.removing.is_none() {
            if e.park_started.is_none() {
                e.park_started = Some(Instant::now());
                e.shared.set_phase(TenantPhase::Parked);
                counters.parks.inc();
                td_telemetry::td_event!(
                    td_telemetry::Level::Debug,
                    "service",
                    "park",
                    td_telemetry::LogicalClock::NONE.with_tenant(id),
                    staged = e.staged.len(),
                    queued = e.outbox.len(),
                );
            }
            return false;
        }
    }
    if let Some(since) = e.park_started.take() {
        let parked = since.elapsed();
        counters.park_nanos.add(parked.as_nanos() as u64);
        td_telemetry::td_event!(
            td_telemetry::Level::Debug,
            "service",
            "unpark",
            td_telemetry::LogicalClock::NONE.with_tenant(id),
            parked_ns = parked.as_nanos() as u64,
        );
    }
    // 2. Removal happens at an epoch boundary — never mid-epoch.
    if e.removing.is_some() {
        return true;
    }
    // 3. Apply operations due at (or, late, before) the next epoch, in
    // epoch order.
    let next = e.tenant.session.driver().next_epoch();
    let due: Vec<u64> = e.ops.range(..=next).map(|(at, _)| *at).collect();
    for at in due {
        for op in e.ops.remove(&at).expect("due epoch just listed") {
            *progress = true;
            apply_op(e, at, next, op, counters);
        }
    }
    // 4. Paused at its epoch bound: idle but live (ops still apply).
    if e.tenant.run_until.is_some_and(|until| next >= until) {
        e.shared.set_phase(TenantPhase::Paused);
        return false;
    }
    // 5. Drive exactly one epoch. Everything mutable is tenant-owned,
    // so this is bit-identical to the same step in a serial loop.
    let t = &mut *e.tenant;
    let reports = match &t.churn {
        Some(schedule) => t
            .session
            .step_under_churn(&*t.workload, &t.model, schedule, &mut t.rng),
        None => t.session.step(&*t.workload, &t.model, &mut t.rng),
    };
    e.shared.set_phase(TenantPhase::Running);
    e.shared.bump_epochs();
    counters.epochs_driven.inc();
    counters.reports_emitted.add(reports.len() as u64);
    let emitted = Instant::now();
    e.staged.extend(reports.into_iter().map(|r| (r, emitted)));
    if !e.staged.is_empty() {
        e.outbox.offer(&mut e.staged);
    }
    *progress = true;
    false
}

fn apply_op(e: &mut Entry, at: u64, next: u64, op: TenantOp, counters: &Counters) {
    // RunUntil is a pacing control, not an epoch-k event — never late.
    if at < next && !matches!(op, TenantOp::RunUntil(_)) {
        counters.late_ops.inc();
    }
    match op {
        TenantOp::Register { expect, apply } => {
            // The handle claimed index `expect` client-side; refuse if
            // the session moved on (a conflicting registration won).
            if e.tenant.session.query_count() == expect {
                let _ = apply(&mut e.tenant.session);
            } else {
                counters.rejected_ops.inc();
            }
        }
        TenantOp::Deregister(query) => {
            if e.tenant.session.deregister(query).is_err() {
                counters.rejected_ops.inc();
            }
        }
        TenantOp::InjectChurn(events) => e.tenant.session.inject_churn(&events),
        TenantOp::RunUntil(until) => e.tenant.run_until = until,
    }
}

/// Final flush at removal or shutdown: everything staged goes into the
/// (now unbounded, closed) outbox so a live handle can still drain it;
/// if no handle is left, the queue is discarded and counted dropped.
fn retire_entry(id: u64, mut e: Entry, counters: &Counters) {
    e.outbox.flush_and_close(&mut e.staged);
    if let Some(since) = e.park_started.take() {
        counters.park_nanos.add(since.elapsed().as_nanos() as u64);
    }
    e.shared.set_phase(TenantPhase::Removed);
    let removed = e.removing.is_some();
    if let Some(ack) = e.removing.take() {
        counters.tenants_removed.inc();
        let _ = ack.send(());
    }
    td_telemetry::td_event!(
        td_telemetry::Level::Info,
        "service",
        "retire",
        td_telemetry::LogicalClock::NONE.with_tenant(id),
        removed = removed,
        epochs = e.shared.epochs(),
    );
    e.outbox.discard_if_unreachable();
}

/// The caller's side of one submitted tenant: drain its reports,
/// reconfigure it live, watch it, remove it. Not cloneable — one
/// consumer per tenant keeps drain order (and the registration-index
/// handshake) simple.
pub struct TenantHandle {
    id: TenantId,
    shard: Arc<Shard>,
    outbox: Arc<Outbox>,
    shared: Arc<TenantShared>,
}

impl TenantHandle {
    /// The tenant's runtime-assigned id.
    pub fn id(&self) -> TenantId {
        self.id
    }

    /// Register another stream query on the tenant's session before
    /// epoch `at_epoch` runs, returning its window handles immediately
    /// (indices are claimed client-side and verified by the worker;
    /// see [`ServiceStats::rejected_ops`]).
    pub fn register_at<P: PaneProtocol + 'static>(
        &self,
        at_epoch: u64,
        query: StreamQuery<P>,
    ) -> Vec<WindowHandle> {
        let windows = query.windows().len();
        assert!(windows > 0, "a stream query needs at least one window");
        let expect = self.shared.next_query.fetch_add(1, Ordering::Relaxed);
        let handles = (0..windows)
            .map(|window| WindowHandle {
                query: expect,
                window,
            })
            .collect();
        let apply: RegisterFn = Box::new(move |session| session.register(query));
        self.shard.push(Command::Op {
            id: self.id,
            at_epoch,
            op: TenantOp::Register { expect, apply },
        });
        handles
    }

    /// Deregister stream query `query` (a [`WindowHandle::query`]
    /// index) before epoch `at_epoch` runs.
    pub fn deregister_at(&self, at_epoch: u64, query: usize) {
        self.shard.push(Command::Op {
            id: self.id,
            at_epoch,
            op: TenantOp::Deregister(query),
        });
    }

    /// Apply a batch of membership transitions to the tenant's session
    /// before epoch `at_epoch` runs (see
    /// [`StreamSession::inject_churn`]).
    pub fn inject_churn_at(&self, at_epoch: u64, events: ChurnEvents) {
        self.shard.push(Command::Op {
            id: self.id,
            at_epoch,
            op: TenantOp::InjectChurn(events),
        });
    }

    /// Move the tenant's epoch bound: run until its next epoch would
    /// be `until` (then pause), or forever with `None`. Applies
    /// immediately, not epoch-addressed.
    pub fn resume(&self, until: Option<u64>) {
        self.shard.push(Command::Op {
            id: self.id,
            at_epoch: 0,
            op: TenantOp::RunUntil(until),
        });
    }

    /// Take up to `max` queued reports, oldest first. Draining wakes
    /// the shard so a parked tenant resumes.
    pub fn drain(&self, max: usize) -> Vec<TenantReport> {
        let out = self.outbox.drain(max);
        if !out.is_empty() {
            self.shard.waker.notify();
        }
        out
    }

    /// Lifecycle snapshot (phase, epochs driven, queued reports).
    pub fn status(&self) -> TenantStatus {
        TenantStatus {
            phase: self.shared.phase(),
            epochs_driven: self.shared.epochs(),
            queued_reports: self.outbox.len(),
        }
    }

    /// Gracefully remove the tenant: it stops at its next epoch
    /// boundary, every already-emitted report is flushed, and the full
    /// remaining report stream is returned — the drain-on-remove is
    /// deterministic because removal never splits an epoch. Keeps
    /// draining while it waits, so a full outbox cannot deadlock the
    /// removal.
    pub fn remove(self) -> Vec<TenantReport> {
        let (ack, done) = mpsc::channel();
        self.shard.push(Command::Remove { id: self.id, ack });
        let mut drained = Vec::new();
        loop {
            drained.extend(self.outbox.drain(usize::MAX));
            self.shard.waker.notify();
            match done.recv_timeout(Duration::from_millis(1)) {
                Ok(()) => break,
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    // Runtime already shut down: the worker is gone but
                    // it closed the outbox on its way out.
                    if self.shard.stop.load(Ordering::Relaxed) && self.outbox.is_closed() {
                        break;
                    }
                }
            }
        }
        drained.extend(self.outbox.drain(usize::MAX));
        drained
    }
}

/// A fixed pool of worker threads multiplexing many independent
/// tenants — see the [crate docs](crate) for the sharding, determinism,
/// and backpressure discipline.
///
/// Dropping the runtime stops the workers (flushing every tenant's
/// outbox); [`shutdown`](Self::shutdown) does the same and returns the
/// final [`ServiceStats`]. Handles outlive the runtime: closed
/// outboxes stay drainable.
pub struct ServiceRuntime {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
    counters: Arc<Counters>,
    next_id: AtomicU64,
}

impl ServiceRuntime {
    /// Spawn `workers` worker threads (one shard each).
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "a service runtime needs at least one worker");
        // Each runtime owns its registry so concurrent runtimes (tests,
        // embedded services) never share counters — the isolation the
        // old per-runtime atomics had.
        let registry = Arc::new(Registry::new());
        let counters = Arc::new(Counters::new(&registry));
        let shards: Vec<Arc<Shard>> = (0..workers).map(|_| Arc::new(Shard::new())).collect();
        let handles = shards
            .iter()
            .map(|shard| {
                let shard = Arc::clone(shard);
                let counters = Arc::clone(&counters);
                thread::spawn(move || worker_loop(shard, counters))
            })
            .collect();
        ServiceRuntime {
            shards,
            workers: handles,
            registry,
            counters,
            next_id: AtomicU64::new(0),
        }
    }

    /// Worker-thread (= shard) count.
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// The runtime's metric registry — the `service.*` counters live
    /// here; callers can register their own metrics alongside or take
    /// a [`td_telemetry::Snapshot`] of everything at once.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Hand a tenant to its worker. Returns immediately; the tenant
    /// starts running as soon as its shard's next scheduling pass picks
    /// it up.
    pub fn submit(&self, mut tenant: Tenant) -> TenantHandle {
        // Tenants run serial-per-tenant: the runtime's worker pool is
        // the parallelism here, and a tenant fanning its own epochs
        // across cores would oversubscribe it. Results are unaffected —
        // the intra-epoch parallel path is bit-identical — so this is
        // purely a scheduling decision.
        tenant.session.set_workers(1);
        let id = TenantId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let shard = Arc::clone(&self.shards[shard_of(id, self.shards.len())]);
        let shared = Arc::new(TenantShared::new(tenant.session.query_count()));
        let outbox = Arc::new(Outbox::new(
            tenant.outbox_capacity,
            Arc::clone(&self.counters),
        ));
        self.counters.tenants_added.inc();
        td_telemetry::td_event!(
            td_telemetry::Level::Info,
            "service",
            "submit",
            td_telemetry::LogicalClock::NONE.with_tenant(id.0),
            queries = tenant.session.query_count(),
        );
        shard.push(Command::Submit {
            id,
            tenant: Box::new(tenant),
            shared: Arc::clone(&shared),
            outbox: Arc::clone(&outbox),
        });
        TenantHandle {
            id,
            shard,
            outbox,
            shared,
        }
    }

    /// Point-in-time accounting snapshot.
    pub fn stats(&self) -> ServiceStats {
        let shard_occupancy: Vec<u64> = self
            .shards
            .iter()
            .map(|s| s.live.load(Ordering::Relaxed))
            .collect();
        let c = &self.counters;
        ServiceStats {
            workers: self.shards.len(),
            tenants_added: c.tenants_added.value(),
            tenants_removed: c.tenants_removed.value(),
            tenants_live: shard_occupancy.iter().sum(),
            epochs_driven: c.epochs_driven.value(),
            reports_emitted: c.reports_emitted.value(),
            reports_drained: c.reports_drained.value(),
            reports_dropped: c.reports_dropped.value(),
            parks: c.parks.value(),
            park_nanos: c.park_nanos.value(),
            late_ops: c.late_ops.value(),
            rejected_ops: c.rejected_ops.value(),
            shard_occupancy,
        }
    }

    /// Stop every worker (each flushes and closes its tenants'
    /// outboxes — still drainable through live handles) and return the
    /// final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.halt();
        self.stats()
    }

    fn halt(&mut self) {
        for shard in &self.shards {
            shard.stop.store(true, Ordering::Relaxed);
            shard.waker.notify();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServiceRuntime {
    fn drop(&mut self) {
        self.halt();
    }
}
