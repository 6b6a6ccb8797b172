//! The epoch's fan-out: its jobs — one per query column plus the
//! envelope column — run on `k` threads, the calling thread and
//! `k - 1` scoped ones, spawned once per epoch.
//!
//! The jobs and everything that decides a result live in `runner.rs`;
//! this only moves work. Each job owns its storage outright (a `&mut`
//! to its own column) and only reads what every job shares (the
//! schedule, the draws, the delivery lists), so which thread runs a job
//! and in what order cannot change a result.
//!
//! Threads claim jobs from one atomic index into a **longest-first**
//! order (LPT): the jobs sorted by how long each took the last time the
//! epoch fanned out, ties (and the first epoch) in job order. The
//! biggest column starts first, and the small ones fill in behind it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Run every job of `jobs` through `body` on `threads` threads, claimed
/// longest first by `ns` — each job's wall time at the previous
/// fan-out, indexed like `jobs` — and leave this run's times in `ns`.
pub(super) fn run_longest_first<J: Send>(
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
