//! The crate's one thread fan-out: a batch of independent jobs run on
//! `k` threads, the calling thread and `k - 1` scoped ones.
//!
//! Two callers use it. The epoch runner hands it one job per query
//! column plus the envelope column, once per epoch; [`TrialPool::map`]
//! hands it one job per trial configuration. The jobs and everything
//! that decides a result live with the callers; this only moves work.
//! Each job owns its storage outright (a `&mut` to its own column or
//! output slot) and only reads what every job shares, so which thread
//! runs a job and in what order cannot change a result.
//!
//! Threads claim jobs from one atomic index into a **longest-first**
//! order (LPT): the jobs sorted by how long each took the last time the
//! caller fanned out, ties (and the first fan-out) in job order. The
//! biggest job starts first, and the small ones fill in behind it.
//!
//! A panicking job panics the caller: the scope joins every thread and
//! then re-raises.
//!
//! [`TrialPool::map`]: crate::driver::TrialPool::map

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The machine's available parallelism, queried once per process (1 if
/// unknown).
pub(crate) fn available_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Run every job of `jobs` through `body` on `threads` threads, claimed
/// longest first by `ns` — each job's wall time at the previous
/// fan-out, indexed like `jobs` — and leave this run's times in `ns`.
pub(crate) fn run_longest_first<J: Send>(
    threads: usize,
    jobs: Vec<J>,
    ns: &mut Vec<u64>,
    body: impl Fn(J) + Sync,
) {
    ns.resize(jobs.len(), 0);
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(ns[j]));
    let cells: Vec<(Mutex<Option<J>>, AtomicU64)> = jobs
        .into_iter()
        .map(|job| (Mutex::new(Some(job)), AtomicU64::new(0)))
        .collect();
    // `Relaxed` throughout: the index only hands out job numbers, a
    // job's data travels through its mutex, and the times are read after
    // the scope has joined every thread.
    let next = AtomicUsize::new(0);
    let work = || {
        while let Some(&j) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            let (job, took) = &cells[j];
            let job = job
                .lock()
                .expect("a job's cell is never poisoned")
                .take()
                .expect("each job is claimed once");
            let start = Instant::now();
            body(job);
            took.store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    for (n, (_, took)) in ns.iter_mut().zip(cells) {
        *n = took.into_inner();
    }
}
