//! Calibrated time.
//!
//! On a small shared VM the speed of one unchanged binary drifts by tens
//! of percent over tens of seconds, and, worse, the VM's second vCPU
//! comes and goes: for minutes at a time two busy threads get the
//! throughput of little more than one. Two runs of the same code then
//! disagree by more than any bound worth enforcing. What drifts is the
//! machine, and a fixed kernel run beside the workload drifts with it:
//! this module times such a kernel before every block of measured work
//! and after the last, and [`Calibrator::factor`] turns the two samples
//! around a block into the factor that re-expresses the block's duration
//! on a machine on which the kernel takes [`NOMINAL_SOLO_NS`] and a
//! second busy thread costs the first nothing. Units therefore still
//! read as seconds.
//!
//! One sample is three allocation-free pieces that do not care what the
//! workload left in the caches:
//!
//! * **sweep** — one wrapping-sum pass over a pre-touched 64 MiB array,
//!   far larger than any cache: memory bandwidth;
//! * **chase** — dependent loads around a random cycle through an 8 MiB
//!   array: cache and memory latency, which is what the engine's
//!   pointer-heavy epochs are mostly made of;
//! * **pair** — a multiply-rotate-xor dependency chain over a 16 KiB
//!   array (L1 resident, pure core work), first on this thread alone,
//!   then on this thread and on a parked helper thread at once. The ratio
//!   of the two is 1 while the VM has two real cores and approaches 2
//!   while it has one.
//!
//! Sweep and chase sum to the sample's *solo* time. (The chain is left
//! out of it: what slows this machine down is its neighbours' memory
//! traffic, which a cache-resident chain does not feel, so including it
//! only dilutes the signal. Measured in `benchmark/README.md`.) A workload that keeps
//! more than one thread busy declares what share of its time it does so
//! (`parallel_share`); its factor also divides by
//! `1 + parallel_share × (pair − 1)`.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// The solo time of one sample on the machine that recorded the baseline
/// in `benchmark/README.md`, while it had two free cores (the median over
/// the recorded runs). Calibrated times are what the work would have
/// taken while the kernel took this.
pub const NOMINAL_SOLO_NS: f64 = 18.0e6;

/// How much more than the kernel the engine slows down when the machine
/// does: over ten runs of each workload, the median block's duration rose
/// with the solo time to the power 1.26 (`td_2500`), 1.45 (`tree_10k`),
/// 1.79 (`service_256`) and 1.85 (`bundle_churn_600`) — the engine's
/// working sets depend on the shared last-level cache more than the
/// kernel's do. One exponent for all of them; see the README's table of
/// spreads at 1.0, 1.5 and 2.0.
pub const ELASTICITY: f64 = 1.5;

const CHAIN_WORDS: usize = 16 * 1024 / 8;
const CHAIN_WARM_PASSES: usize = 60;
const CHAIN_PASSES: usize = 800;
const SWEEP_WORDS: usize = 64 * 1024 * 1024 / 8;
const CHASE_SLOTS: usize = 8 * 1024 * 1024 / 4;
const CHASE_STEPS: usize = 80_000;

/// One calibration sample.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Sweep + chase on this thread alone, ns.
    pub solo_ns: f64,
    /// Chain time with the helper thread running it too, over the chain
    /// time alone: 1 with two free cores, towards 2 with one.
    pub pair: f64,
}

fn chain_pass(chain: &mut [u64], mut x: u64) -> u64 {
    for w in chain {
        x = (x ^ *w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(23);
        *w = x;
    }
    x
}

fn timed_chain(chain: &mut [u64]) -> f64 {
    let mut x = 1u64;
    for _ in 0..CHAIN_WARM_PASSES {
        x = chain_pass(chain, x);
    }
    let t0 = Instant::now();
    for _ in 0..CHAIN_PASSES {
        x = chain_pass(chain, x);
    }
    let ns = t0.elapsed().as_nanos() as f64;
    black_box(x);
    ns
}

/// The parked thread that runs the chain alongside the sampling thread.
struct Helper {
    /// `None` once the calibrator is being dropped: hanging up is what
    /// lets the helper leave its loop.
    go: Option<Sender<()>>,
    done: Receiver<f64>,
    start: Arc<Barrier>,
    thread: Option<JoinHandle<()>>,
}

impl Helper {
    fn spawn() -> Self {
        let (go, go_rx) = channel::<()>();
        let (done_tx, done) = channel::<f64>();
        let start = Arc::new(Barrier::new(2));
        let barrier = Arc::clone(&start);
        let thread = std::thread::spawn(move || {
            let mut chain: Vec<u64> = crate::alloc::excluded(|| (0..CHAIN_WORDS as u64).collect());
            while go_rx.recv().is_ok() {
                barrier.wait();
                if done_tx.send(timed_chain(&mut chain)).is_err() {
                    break;
                }
            }
            crate::alloc::excluded(|| drop(chain));
        });
        Helper {
            go: Some(go),
            done,
            start,
            thread: Some(thread),
        }
    }
}

/// Owns the kernel's arrays, the helper thread and every sample taken.
pub struct Calibrator {
    chain: Vec<u64>,
    sweep: Vec<u64>,
    chase: Vec<u32>,
    /// Dependent loads per sample.
    chase_steps: usize,
    cursor: u32,
    helper: Helper,
    samples: Vec<Sample>,
}

impl Calibrator {
    /// Allocate and touch the arrays (harness-owned: hidden from the
    /// allocation counters), start the helper thread and take a few
    /// samples to settle. A `light` calibrator sweeps and chases an eighth
    /// as much: its factors are not comparable with anything, which is
    /// what a smoke run's numbers are anyway, and a smoke run is mostly
    /// calibration otherwise.
    pub fn new(light: bool) -> Self {
        let shrink = if light { 8 } else { 1 };
        let mut cal = crate::alloc::excluded(|| Calibrator {
            chain: (0..CHAIN_WORDS as u64).collect(),
            // Written element by element so every page is resident.
            sweep: (0..(SWEEP_WORDS / shrink) as u64)
                .map(|i| i ^ 0x9E37_79B9)
                .collect(),
            chase: random_cycle(CHASE_SLOTS),
            chase_steps: CHASE_STEPS / shrink,
            cursor: 0,
            helper: Helper::spawn(),
            samples: Vec::with_capacity(4096),
        });
        for _ in 0..3 {
            cal.kernel();
        }
        cal
    }

    fn kernel(&mut self) -> Sample {
        let chain_ns = timed_chain(&mut self.chain);
        let t0 = Instant::now();
        let sum = self.sweep.iter().fold(0u64, |acc, &w| acc.wrapping_add(w));
        let mut at = self.cursor;
        for _ in 0..self.chase_steps {
            at = self.chase[at as usize];
        }
        let rest_ns = t0.elapsed().as_nanos() as f64;
        self.cursor = at;
        black_box(sum);

        // The same chain on both threads at once, started together.
        self.helper
            .go
            .as_ref()
            .expect("only `drop` hangs up")
            .send(())
            .expect("the helper lives as long as the calibrator");
        self.helper.start.wait();
        let mine = timed_chain(&mut self.chain);
        let theirs = self
            .helper
            .done
            .recv()
            .expect("the helper lives as long as the calibrator");
        Sample {
            solo_ns: rest_ns,
            pair: ((mine + theirs) / 2.0 / chain_ns).max(1.0),
        }
    }

    /// Take one sample, remember it and return it.
    pub fn sample(&mut self) -> Sample {
        let sample = self.kernel();
        if self.samples.len() < self.samples.capacity() {
            self.samples.push(sample);
        }
        sample
    }

    /// The factor by which a duration measured between the samples
    /// `before` and `after` is multiplied to give calibrated time, for
    /// work that keeps a second thread busy for `parallel_share` of it.
    pub fn factor(before: Sample, after: Sample, parallel_share: f64) -> f64 {
        let solo = (before.solo_ns + after.solo_ns) / 2.0;
        let pair = (before.pair + after.pair) / 2.0;
        (NOMINAL_SOLO_NS / solo).powf(ELASTICITY) / (1.0 + parallel_share * (pair - 1.0))
    }

    /// Every sample taken, in order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

/// A random single cycle through `slots` slots (Sattolo's algorithm with
/// a fixed xorshift stream: the same cycle in every process).
fn random_cycle(slots: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..slots as u32).collect();
    let mut s = 0x1234_5678_9ABC_DEF0u64;
    for i in (1..slots).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        next.swap(i, (s % i as u64) as usize);
    }
    next
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        drop(self.helper.go.take());
        if let Some(thread) = self.helper.thread.take() {
            // The helper only runs the kernel; if it panicked there is
            // nothing to clean up, and `drop` must not panic itself.
            let _ = thread.join();
        }
        // Allocated under `excluded`, so freed under it.
        crate::alloc::excluded(|| {
            drop(std::mem::take(&mut self.chain));
            drop(std::mem::take(&mut self.sweep));
            drop(std::mem::take(&mut self.chase));
            drop(std::mem::take(&mut self.samples));
        });
    }
}
