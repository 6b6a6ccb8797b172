//! The level loop's fan-out: the scoped workers that process chunks
//! `1..k` of a level while the calling thread processes chunk 0.
//!
//! The loop itself, the step body and everything that decides a result
//! live in `runner.rs`; a [`FanOut`] only moves work. A worker gets a
//! chunk's own arena slots (a [`Slabs`] borrowed for the length of the
//! epoch — chunks are disjoint, so no inbox is ever moved or locked), a
//! handle on the parked level above, and a free-list; it runs
//! [`Exec::process`] over the chunk and sends back what each step put
//! on the air, in step order, for the calling thread to
//! [`Exec::merge`]. It never draws randomness, never records a send and
//! never touches another slot's inbox, which is why the worker count
//! cannot change a result.
//!
//! Workers are spawned once per epoch (no registry deps; the same
//! discipline as `TrialPool`) and fed one message per level. A worker
//! drops its handle on the parked level *before* it reports, so once
//! the calling thread has every chunk's report it holds the only handle
//! again and may recycle the level.
//!
//! Envelope parts rest in the plan's `Pools` only. A worker's free-list
//! rides the per-level messages: it is lent the chunk's need when the
//! chunk is shipped and drained back at the barrier, so parts cannot
//! pile up on one side of a chunk boundary however the tree sends
//! envelopes across it. Between levels the free-lists rest here, empty,
//! kept only for their `Vec` capacity.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::Scope;

use super::{Exec, ParkedLevel, Pools, Sent, Slabs};

/// One chunk of one level, on its way to a worker.
struct Job<'s> {
    own: Slabs<'s>,
    above: Arc<ParkedLevel>,
    pools: Pools,
}

/// The workers of one epoch. `'s` is how long the arena slabs are
/// borrowed for: the whole level loop.
pub(super) struct FanOut<'s> {
    to_worker: Vec<Sender<Job<'s>>>,
    from_worker: Vec<Receiver<(Vec<Sent>, Pools)>>,
    /// Worker `w`'s free-list while no chunk of its is in flight.
    resting: Vec<Pools>,
}

impl<'s> FanOut<'s> {
    /// Spawn `spawned` workers on `scope`; they exit when the fan-out
    /// is dropped.
    pub(super) fn spawn<'scope, 'a: 'scope, 'e: 'scope>(
        scope: &'scope Scope<'scope, '_>,
        exec: Exec<'a, 'e>,
        spawned: usize,
    ) -> FanOut<'s>
    where
        's: 'scope,
    {
        let mut fan = FanOut {
            to_worker: Vec::with_capacity(spawned),
            from_worker: Vec::with_capacity(spawned),
            resting: Vec::with_capacity(spawned),
        };
        for _ in 0..spawned {
            let (job_tx, job_rx) = channel::<Job<'s>>();
            let (sent_tx, sent_rx) = channel();
            fan.to_worker.push(job_tx);
            fan.from_worker.push(sent_rx);
            fan.resting.push(Pools::default());
            scope.spawn(move || {
                while let Ok(Job {
                    mut own,
                    above,
                    mut pools,
                }) = job_rx.recv()
                {
                    let sent: Vec<Sent> = (own.first..own.first + own.len())
                        .map(|slot| exec.process(&mut own, slot, &above, &mut pools))
                        .collect();
                    // Hand the level back before reporting: once the
                    // calling thread has every chunk's report it must
                    // hold the only handle.
                    drop(above);
                    if sent_tx.send((sent, pools)).is_err() {
                        break;
                    }
                }
            });
        }
        fan
    }

    /// How many chunks a level can be cut into: the workers plus the
    /// calling thread.
    pub(super) fn workers(&self) -> usize {
        self.to_worker.len() + 1
    }

    /// Send chunk `c ≥ 1` of the running level, `m_senders` of whose
    /// steps are M senders, to its worker, lending it the chunk's share
    /// of the [`Pools::ensure`]d free-lists.
    pub(super) fn ship(
        &mut self,
        c: usize,
        own: Slabs<'s>,
        m_senders: usize,
        above: &Arc<ParkedLevel>,
        pools: &mut Pools,
    ) {
        let mut lent = std::mem::take(&mut self.resting[c - 1]);
        pools.lend(&mut lent, own.len(), m_senders);
        let job = Job {
            own,
            above: Arc::clone(above),
            pools: lent,
        };
        self.to_worker[c - 1].send(job).expect("worker alive");
    }

    /// Wait for chunk `c`'s worker and take back everything its
    /// free-list holds. Returns what the chunk's steps put on the air,
    /// in step order.
    pub(super) fn collect(&mut self, c: usize, pools: &mut Pools) -> Vec<Sent> {
        let (sent, mut lent) = self.from_worker[c - 1].recv().expect("worker alive");
        pools.reclaim(&mut lent);
        self.resting[c - 1] = lent;
        sent
    }
}
