//! Level-synchronized intra-epoch parallel executors.
//!
//! Every sender within one schedule level is independent — §4.1 tree
//! parents and broadcast receivers sit strictly at later levels — so a
//! level can fan out across worker threads with a barrier before the
//! next. Three disciplines keep the result **bit-identical** to the
//! sequential executor on any worker count:
//!
//! 1. **All RNG draws are precomputed** on the calling thread in exact
//!    schedule order (one unicast per T/TAG sender, one `delivered`
//!    draw per broadcast-table entry) before any worker starts, so the
//!    caller's RNG ends an epoch in the same state either way.
//! 2. **Shards are deterministic id-order chunks** of a level's step
//!    range — chunk 0 runs inline on the main thread, chunks `1..` on
//!    scoped workers (no registry deps; the same discipline as
//!    `TrialPool`).
//! 3. **Per-shard effects merge in step order**: `CommStats` records
//!    and inbox pushes replay exactly the sequential sequence, so f64
//!    accumulation order and envelope delivery order never change.
//!
//! Multi-path delivery is the sequential executor's: an M sender's
//! envelope is parked once (by the merge, in step order) and receivers
//! get its slot. The level above the one being run travels to the
//! workers as an `Arc<ParkedLevel>` they read by shared reference and
//! drop before reporting, so after the barrier the main thread holds
//! the only handle again and recycles the level.
//!
//! Envelope parts rest in the shared `Pools` only. A worker chunk's
//! free-list rides the per-level channel messages: it is lent the
//! chunk's need when the jobs are prepared (so job prep draws bundle
//! `Vec`s from the pool the processing worker will recycle into) and
//! drained back at the barrier, so parts cannot pile up on one side of
//! a shard boundary however the tree sends envelopes across it.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use super::*;
use td_netsim::loss::RetransmitOutcome;

// ---------------------------------------------------------------------
// Precomputed communication outcomes
// ---------------------------------------------------------------------

/// Every loss-model draw of one TD epoch, in sequential draw order.
struct TdComm {
    /// Per step: the unicast outcome (T steps) or `None` (M steps).
    outcomes: Vec<Option<RetransmitOutcome>>,
    /// Per broadcast-table entry: whether the broadcast reached it.
    delivered: Vec<bool>,
}

fn precompute_td_comm<M: LossModel, R: rand::Rng + ?Sized>(
    sched: &TdSchedule,
    net: &Network,
    model: &M,
    config: RunnerConfig,
    epoch: u64,
    rng: &mut R,
) -> TdComm {
    let mut outcomes = Vec::with_capacity(sched.steps.len());
    let mut delivered = vec![false; sched.receivers.len()];
    for step in &sched.steps {
        match step.mode {
            Mode::T => outcomes.push(Some(unicast(
                model,
                config.tree_retransmit,
                step.node,
                step.parent,
                net,
                epoch,
                rng,
            ))),
            Mode::M => {
                outcomes.push(None);
                // The sequential path draws for every receiver before
                // checking `is M`; replay that exactly.
                let range = step.recv_start as usize..step.recv_end as usize;
                for (d, &(r, _)) in delivered[range.clone()]
                    .iter_mut()
                    .zip(&sched.receivers[range])
                {
                    *d = model.delivered(step.node, r, net, epoch, rng);
                }
            }
        }
    }
    TdComm {
        outcomes,
        delivered,
    }
}

/// Every unicast outcome of one TAG epoch (`None` for the base step,
/// which sends nothing), in sequential draw order.
fn precompute_tag_comm<M: LossModel, R: rand::Rng + ?Sized>(
    sched: &TagSchedule,
    net: &Network,
    model: &M,
    config: RunnerConfig,
    epoch: u64,
    rng: &mut R,
) -> Vec<Option<RetransmitOutcome>> {
    sched
        .steps
        .iter()
        .map(|step| {
            step.parent
                .map(|p| unicast(model, config.tree_retransmit, step.node, p, net, epoch, rng))
        })
        .collect()
}

// ---------------------------------------------------------------------
// TD jobs
// ---------------------------------------------------------------------

/// One TD sender's inputs, self-contained so a worker needs no arena
/// access: the staged local bundle and the (drained) inbox `Vec`s ride
/// along and return in the matching [`TdOut`] to keep their capacity.
struct TdJob {
    slot: u32,
    step: TdStep,
    outcome: Option<RetransmitOutcome>,
    local: Bundle,
    tree_in: Vec<TreeEnvelope<Bundle>>,
    mp_in: Vec<u32>,
}

/// What a TD sender put on the air.
enum TdSent {
    None,
    /// A delivered unicast and its destination slot.
    Tree(u32, TreeEnvelope<Bundle>),
    /// A broadcast: the envelope, once. Who heard it is in the
    /// precomputed draws, read by the merge.
    Mp(MpEnvelope<Bundle>),
}

/// One TD sender's effects, merged back on the main thread in step
/// order.
struct TdOut {
    node: NodeId,
    slot: u32,
    bytes: usize,
    words: usize,
    rounds: u64,
    sent: TdSent,
    tree_in: Vec<TreeEnvelope<Bundle>>,
    mp_in: Vec<u32>,
}

/// How many of `steps` are M senders (each draws a count sketch).
fn m_senders(steps: &[TdStep]) -> usize {
    steps.iter().filter(|s| s.mode == Mode::M).count()
}

/// Assemble one chunk's jobs from the arena slabs (disjoint field
/// borrows; the bundle `Vec`s come from the pool of whichever worker
/// will process the chunk).
#[allow(clippy::too_many_arguments)]
fn prep_td_jobs(
    sched: &TdSchedule,
    comm: &TdComm,
    range: std::ops::Range<usize>,
    q: usize,
    locals: &mut [Option<ErasedMsg>],
    tree_inbox: &mut [Vec<TreeEnvelope<Bundle>>],
    mp_inbox: &mut [Vec<u32>],
    pool: &mut Pools,
) -> Vec<TdJob> {
    range
        .map(|slot| {
            let step = sched.steps[slot];
            let local = take_local(locals, slot, q, pool);
            let tree_in = std::mem::take(&mut tree_inbox[slot]);
            let mp_in = match step.mode {
                Mode::T => Vec::new(),
                Mode::M => std::mem::take(&mut mp_inbox[slot]),
            };
            TdJob {
                slot: slot as u32,
                step,
                outcome: comm.outcomes[slot],
                local,
                tree_in,
                mp_in,
            }
        })
        .collect()
}

/// Execute one TD sender against precomputed outcomes — the exact
/// per-step body of the sequential executor, with pushes deferred into
/// the returned [`TdOut`]. `parked` is the level above the sender's.
fn process_td_job(
    sched: &TdSchedule,
    parked: &ParkedLevel,
    set: &QuerySet<'_>,
    n: usize,
    charge: bool,
    mut job: TdJob,
    pool: &mut Pools,
) -> TdOut {
    let step = job.step;
    match step.mode {
        Mode::T => {
            let contributors = pool.idset(n);
            let env = build_tree_envelope_set(
                set,
                step.node,
                step.height,
                contributors,
                job.local,
                &mut job.tree_in,
                pool,
            );
            let payload = bundle_tree_words(set, env.msg.as_ref().expect("bundle present"));
            let overhead = if charge { TREE_OVERHEAD_WORDS } else { 0 };
            let words = payload + overhead;
            let outcome = job.outcome.expect("T steps carry a unicast outcome");
            let sent = if outcome.delivered {
                TdSent::Tree(sched.slot_or_base(step.parent) as u32, env)
            } else {
                recycle_tree_env(pool, env);
                TdSent::None
            };
            TdOut {
                node: step.node,
                slot: job.slot,
                bytes: words * 4,
                words,
                rounds: outcome.attempts_used as u64,
                sent,
                tree_in: job.tree_in,
                mp_in: job.mp_in,
            }
        }
        Mode::M => {
            let contributors = pool.idset(n);
            let count_sketch = pool.sketch();
            let env = build_mp_envelope_set(
                set,
                step.node,
                contributors,
                count_sketch,
                step.subtree_size,
                step.switchable_m,
                job.local,
                &mut job.tree_in,
                &mut job.mp_in,
                parked,
                pool,
            );
            let (bytes, words) = mp_send_size(set, &env, charge);
            TdOut {
                node: step.node,
                slot: job.slot,
                bytes,
                words,
                rounds: 1,
                sent: TdSent::Mp(env),
                tree_in: job.tree_in,
                mp_in: job.mp_in,
            }
        }
    }
}

/// Apply one TD sender's effects: record stats, deliver a tree envelope
/// to its parent's inbox or park a broadcast in `airing` and hand its
/// slot to every M receiver that heard it, restore the drained inbox
/// `Vec`s (capacity preserved). Called in step order — this is what
/// pins the parallel path bit-identical.
fn merge_td_out(
    sched: &TdSchedule,
    delivered: &[bool],
    tree_inbox: &mut [Vec<TreeEnvelope<Bundle>>],
    mp_inbox: &mut [Vec<u32>],
    airing: &mut ParkedLevel,
    stats: &mut CommStats,
    out: TdOut,
) {
    stats.record_send(out.node, out.bytes, out.words, out.rounds);
    match out.sent {
        TdSent::None => {}
        TdSent::Tree(dest, env) => tree_inbox[dest as usize].push(env),
        TdSent::Mp(env) => {
            let step = &sched.steps[out.slot as usize];
            let range = step.recv_start as usize..step.recv_end as usize;
            for (&(r, is_m), &d) in sched.receivers[range.clone()].iter().zip(&delivered[range]) {
                if d && is_m {
                    mp_inbox[sched.slot_or_base(r)].push(out.slot);
                }
            }
            airing.park(out.slot as usize, env);
            // Only M steps drained their multi-path inbox.
            mp_inbox[out.slot as usize] = out.mp_in;
        }
    }
    tree_inbox[out.slot as usize] = out.tree_in;
}

// ---------------------------------------------------------------------
// TAG jobs
// ---------------------------------------------------------------------

struct TagJob {
    slot: u32,
    step: TagStep,
    outcome: Option<RetransmitOutcome>,
    local: Bundle,
    tree_in: Vec<TreeEnvelope<Bundle>>,
}

enum TagSent {
    None,
    Slot(u32, TreeEnvelope<Bundle>),
    Base(TreeEnvelope<Bundle>),
}

struct TagOut {
    node: NodeId,
    slot: u32,
    /// `(bytes, words, rounds)` to record — `None` for the base step,
    /// which sends nothing (failed unicasts still record).
    record: Option<(usize, usize, u64)>,
    sent: TagSent,
    tree_in: Vec<TreeEnvelope<Bundle>>,
}

fn prep_tag_jobs(
    sched: &TagSchedule,
    comm: &[Option<RetransmitOutcome>],
    range: std::ops::Range<usize>,
    q: usize,
    locals: &mut [Option<ErasedMsg>],
    tree_inbox: &mut [Vec<TreeEnvelope<Bundle>>],
    pool: &mut Pools,
) -> Vec<TagJob> {
    range
        .map(|slot| TagJob {
            slot: slot as u32,
            step: sched.steps[slot],
            outcome: comm[slot],
            local: take_local(locals, slot, q, pool),
            tree_in: std::mem::take(&mut tree_inbox[slot]),
        })
        .collect()
}

fn process_tag_job(
    sched: &TagSchedule,
    set: &QuerySet<'_>,
    n: usize,
    charge: bool,
    mut job: TagJob,
    pool: &mut Pools,
) -> TagOut {
    let step = job.step;
    let contributors = pool.idset(n);
    let env = build_tree_envelope_set(
        set,
        step.node,
        step.height,
        contributors,
        job.local,
        &mut job.tree_in,
        pool,
    );
    match step.parent {
        None => TagOut {
            node: step.node,
            slot: job.slot,
            record: None,
            sent: TagSent::Base(env),
            tree_in: job.tree_in,
        },
        Some(p) => {
            let payload = bundle_tree_words(set, env.msg.as_ref().expect("bundle present"));
            let overhead = if charge { TREE_OVERHEAD_WORDS } else { 0 };
            let words = payload + overhead;
            let outcome = job.outcome.expect("non-base steps carry an outcome");
            let sent = if outcome.delivered {
                TagSent::Slot(sched.slot_of[p.index()], env)
            } else {
                recycle_tree_env(pool, env);
                TagSent::None
            };
            TagOut {
                node: step.node,
                slot: job.slot,
                record: Some((words * 4, words, outcome.attempts_used as u64)),
                sent,
                tree_in: job.tree_in,
            }
        }
    }
}

fn merge_tag_out(
    tree_inbox: &mut [Vec<TreeEnvelope<Bundle>>],
    stats: &mut CommStats,
    base_children: &mut Vec<TreeEnvelope<Bundle>>,
    out: TagOut,
) {
    if let Some((bytes, words, rounds)) = out.record {
        stats.record_send(out.node, bytes, words, rounds);
    }
    match out.sent {
        TagSent::None => {}
        TagSent::Slot(dest, env) => tree_inbox[dest as usize].push(env),
        TagSent::Base(env) => base_children.push(env),
    }
    tree_inbox[out.slot as usize] = out.tree_in;
}

// ---------------------------------------------------------------------
// Level loop
// ---------------------------------------------------------------------

/// Deterministic id-order chunk bounds: `len` steps starting at `start`
/// split into `min(workers, len)` contiguous chunks, the first `len %
/// chunks` of them one longer. Chunking never affects results (merges
/// happen in step order regardless) — only load balance.
fn chunk_bounds(start: usize, len: usize, workers: usize) -> Vec<usize> {
    let nchunks = workers.min(len);
    let base = len / nchunks;
    let rem = len % nchunks;
    let mut bounds = Vec::with_capacity(nchunks + 1);
    let mut at = start;
    bounds.push(at);
    for c in 0..nchunks {
        at += base + usize::from(c < rem);
        bounds.push(at);
    }
    bounds
}

#[allow(clippy::too_many_arguments)]
pub(super) fn run_td_parallel<M: LossModel, R: rand::Rng + ?Sized>(
    sched: &TdSchedule,
    arenas: &mut Arenas,
    set: &QuerySet<'_>,
    net: &Network,
    model: &M,
    config: RunnerConfig,
    epoch: u64,
    stats: &mut CommStats,
    rng: &mut R,
    workers: usize,
) -> SetEpochOutput {
    let q = set.len();
    stage_td(sched, arenas, set, q);
    let sw = phase::stopwatch();
    let comm = precompute_td_comm(sched, net, model, config, epoch, rng);
    phase::record(Phase::Randomness, sw);
    let n = arenas.n;
    let charge = config.charge_adaptation_overhead;
    let spawned = workers - 1;
    while arenas.worker_pools.len() < spawned {
        arenas.worker_pools.push(Pools::new());
    }
    {
        let Arenas {
            tree_inbox,
            mp_inbox,
            parked_prev,
            parked_cur,
            locals,
            pools,
            worker_pools,
            ..
        } = arenas;
        // Shared with the workers for the scope; back in the arena
        // (buffers kept) when it ends.
        let mut prev = Arc::new(std::mem::take(parked_prev));
        let mut cur = Arc::new(std::mem::take(parked_cur));
        std::thread::scope(|scope| {
            let delivered = comm.delivered.as_slice();
            type ToWorker = (Vec<TdJob>, Arc<ParkedLevel>, Pools);
            let mut to_worker: Vec<Sender<ToWorker>> = Vec::with_capacity(spawned);
            let mut from_worker: Vec<Receiver<(Vec<TdOut>, Pools)>> = Vec::with_capacity(spawned);
            for _ in 0..spawned {
                let (job_tx, job_rx) = channel::<ToWorker>();
                let (out_tx, out_rx) = channel::<(Vec<TdOut>, Pools)>();
                to_worker.push(job_tx);
                from_worker.push(out_rx);
                scope.spawn(move || {
                    while let Ok((jobs, parked, mut pool)) = job_rx.recv() {
                        let outs: Vec<TdOut> = jobs
                            .into_iter()
                            .map(|job| {
                                process_td_job(sched, &parked, set, n, charge, job, &mut pool)
                            })
                            .collect();
                        // Hand the level back before reporting: once the
                        // main thread has every chunk's report it must
                        // hold the only handle.
                        drop(parked);
                        if out_tx.send((outs, pool)).is_err() {
                            break;
                        }
                    }
                });
            }
            // Worker pools ride the channel round-trips; they rest here,
            // empty, between levels.
            let mut resting: Vec<Option<Pools>> = worker_pools.drain(..).map(Some).collect();

            for &(lv_start, lv_end) in &sched.levels {
                // One per-level-execute sample covers the whole level:
                // chunk prep, inline chunk 0, and the merge barrier.
                let sw = phase::stopwatch();
                let airing = Arc::get_mut(&mut cur).expect("no worker holds the level being run");
                airing.open(lv_start as usize, (lv_end - lv_start) as usize);
                let bounds = chunk_bounds(lv_start as usize, (lv_end - lv_start) as usize, workers);
                let nchunks = bounds.len() - 1;
                let level = &sched.steps[lv_start as usize..lv_end as usize];
                pools.ensure(n, level.len(), m_senders(level));
                // Ship chunks 1.. first so workers overlap with chunk 0.
                for c in 1..nchunks {
                    let mut pool = resting[c - 1].take().expect("pool rests between levels");
                    let range = bounds[c]..bounds[c + 1];
                    pools.lend(
                        &mut pool,
                        range.len(),
                        m_senders(&sched.steps[range.clone()]),
                    );
                    let jobs = prep_td_jobs(
                        sched, &comm, range, q, locals, tree_inbox, mp_inbox, &mut pool,
                    );
                    to_worker[c - 1]
                        .send((jobs, Arc::clone(&prev), pool))
                        .expect("worker alive");
                }
                // Chunk 0 inline on the shared pools (lowest step
                // indices, so merging it first preserves step order).
                let jobs = prep_td_jobs(
                    sched,
                    &comm,
                    bounds[0]..bounds[1],
                    q,
                    locals,
                    tree_inbox,
                    mp_inbox,
                    pools,
                );
                for job in jobs {
                    let out = process_td_job(sched, &prev, set, n, charge, job, pools);
                    merge_td_out(sched, delivered, tree_inbox, mp_inbox, airing, stats, out);
                }
                // Barrier: merge worker chunks in chunk (= step) order.
                for c in 1..nchunks {
                    let (outs, mut pool) = from_worker[c - 1].recv().expect("worker alive");
                    pools.reclaim(&mut pool);
                    resting[c - 1] = Some(pool);
                    for out in outs {
                        merge_td_out(sched, delivered, tree_inbox, mp_inbox, airing, stats, out);
                    }
                }
                // Everyone who could hear the level above has run.
                Arc::get_mut(&mut prev)
                    .expect("workers drop their handle before reporting")
                    .recycle_into(pools);
                std::mem::swap(&mut prev, &mut cur);
                phase::record(Phase::LevelExecute, sw);
            }
            drop(to_worker);
            worker_pools.extend(resting.into_iter().map(|p| p.expect("pool at rest")));
        });
        let unshare = |level: &mut Arc<ParkedLevel>| {
            std::mem::take(Arc::get_mut(level).expect("the workers have exited"))
        };
        *parked_prev = unshare(&mut prev);
        *parked_cur = unshare(&mut cur);
    }
    let sw = phase::stopwatch();
    let out = finish_td(sched, arenas, set);
    phase::record(Phase::Merge, sw);
    out
}

#[allow(clippy::too_many_arguments)]
pub(super) fn run_tag_parallel<M: LossModel, R: rand::Rng + ?Sized>(
    sched: &TagSchedule,
    arenas: &mut Arenas,
    set: &QuerySet<'_>,
    net: &Network,
    model: &M,
    config: RunnerConfig,
    epoch: u64,
    stats: &mut CommStats,
    rng: &mut R,
    workers: usize,
) -> SetEpochOutput {
    let q = set.len();
    stage_tag(sched, arenas, set, q);
    let sw = phase::stopwatch();
    let comm = precompute_tag_comm(sched, net, model, config, epoch, rng);
    phase::record(Phase::Randomness, sw);
    let n = arenas.n;
    let charge = config.charge_adaptation_overhead;
    let spawned = workers - 1;
    while arenas.worker_pools.len() < spawned {
        arenas.worker_pools.push(Pools::new());
    }
    let mut base_children: Vec<TreeEnvelope<Bundle>> = Vec::new();
    {
        let Arenas {
            tree_inbox,
            locals,
            pools,
            worker_pools,
            ..
        } = arenas;
        std::thread::scope(|scope| {
            let comm = comm.as_slice();
            let mut to_worker: Vec<Sender<(Vec<TagJob>, Pools)>> = Vec::with_capacity(spawned);
            let mut from_worker: Vec<Receiver<(Vec<TagOut>, Pools)>> = Vec::with_capacity(spawned);
            for _ in 0..spawned {
                let (job_tx, job_rx) = channel::<(Vec<TagJob>, Pools)>();
                let (out_tx, out_rx) = channel::<(Vec<TagOut>, Pools)>();
                to_worker.push(job_tx);
                from_worker.push(out_rx);
                scope.spawn(move || {
                    while let Ok((jobs, mut pool)) = job_rx.recv() {
                        let outs: Vec<TagOut> = jobs
                            .into_iter()
                            .map(|job| process_tag_job(sched, set, n, charge, job, &mut pool))
                            .collect();
                        if out_tx.send((outs, pool)).is_err() {
                            break;
                        }
                    }
                });
            }
            let mut resting: Vec<Option<Pools>> = worker_pools.drain(..).map(Some).collect();

            for &(lv_start, lv_end) in &sched.levels {
                let sw = phase::stopwatch();
                let bounds = chunk_bounds(lv_start as usize, (lv_end - lv_start) as usize, workers);
                let nchunks = bounds.len() - 1;
                pools.ensure(n, (lv_end - lv_start) as usize, 0);
                for c in 1..nchunks {
                    let mut pool = resting[c - 1].take().expect("pool rests between levels");
                    let range = bounds[c]..bounds[c + 1];
                    pools.lend(&mut pool, range.len(), 0);
                    let jobs = prep_tag_jobs(sched, comm, range, q, locals, tree_inbox, &mut pool);
                    to_worker[c - 1].send((jobs, pool)).expect("worker alive");
                }
                let jobs = prep_tag_jobs(
                    sched,
                    comm,
                    bounds[0]..bounds[1],
                    q,
                    locals,
                    tree_inbox,
                    pools,
                );
                for job in jobs {
                    let out = process_tag_job(sched, set, n, charge, job, pools);
                    merge_tag_out(tree_inbox, stats, &mut base_children, out);
                }
                for c in 1..nchunks {
                    let (outs, mut pool) = from_worker[c - 1].recv().expect("worker alive");
                    pools.reclaim(&mut pool);
                    resting[c - 1] = Some(pool);
                    for out in outs {
                        merge_tag_out(tree_inbox, stats, &mut base_children, out);
                    }
                }
                phase::record(Phase::LevelExecute, sw);
            }
            drop(to_worker);
            worker_pools.extend(resting.into_iter().map(|p| p.expect("pool at rest")));
        });
    }
    let sw = phase::stopwatch();
    let out = finish_tag(sched, arenas, set, base_children);
    phase::record(Phase::Merge, sw);
    out
}
