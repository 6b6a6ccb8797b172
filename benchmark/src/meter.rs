//! Block-wise measurement in calibrated time.
//!
//! A [`Meter`] times blocks of work. It takes one calibration sample
//! before the first block and one after every block; a block's wall and
//! CPU time and each latency sample taken inside it are multiplied by
//! the factor of the two samples around it. Totals are plain sums over
//! blocks: nothing is trimmed and no repetition is discarded.

use std::time::Instant;

use crate::alloc::{self, Hidden};
use crate::calib::{Calibrator, Sample};
use crate::clock::process_cpu_ns;

/// Raw and calibrated totals of the blocks measured so far.
pub struct Meter<'c> {
    cal: &'c mut Calibrator,
    parallel_share: f64,
    log_blocks: bool,
    last_sample: Sample,
    started: Instant,
    /// Blocks measured.
    pub blocks: u64,
    /// Σ block wall time, ns, as the clock read it.
    pub raw_ns: f64,
    /// Σ block wall time × block factor, ns.
    pub cal_ns: f64,
    /// Σ process CPU time × block factor, ns.
    pub cal_cpu_ns: f64,
    /// Heap allocations inside blocks.
    pub allocs: u64,
    /// Bytes requested inside blocks.
    pub alloc_bytes: u64,
    /// The factor of the latest block.
    pub last_factor: f64,
    raw_latency_ns: Hidden<Vec<f64>>,
    cal_latency_ns: Hidden<Vec<f64>>,
}

impl<'c> Meter<'c> {
    /// A meter for work that keeps a second thread busy for
    /// `parallel_share` of its time, with room for `latency_samples`
    /// samples; takes the first calibration sample. With `TD_BENCH_BLOCKS`
    /// set, every block is logged to standard error.
    pub fn new(cal: &'c mut Calibrator, parallel_share: f64, latency_samples: usize) -> Self {
        let last_sample = cal.sample();
        Meter {
            cal,
            parallel_share,
            log_blocks: std::env::var_os("TD_BENCH_BLOCKS").is_some(),
            last_sample,
            started: Instant::now(),
            blocks: 0,
            raw_ns: 0.0,
            cal_ns: 0.0,
            cal_cpu_ns: 0.0,
            allocs: 0,
            alloc_bytes: 0,
            last_factor: 1.0,
            raw_latency_ns: Hidden::new(|| Vec::with_capacity(latency_samples)),
            cal_latency_ns: Hidden::new(|| Vec::with_capacity(latency_samples)),
        }
    }

    /// Wall time since the meter was made, calibration included: what
    /// `--seconds` is compared with.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Measure one block. `work` receives a sink for raw latency samples
    /// (ns); over all blocks it must not push more than the meter was
    /// made for.
    pub fn block<T>(&mut self, work: impl FnOnce(&mut Vec<f64>) -> T) -> T {
        let first = self.raw_latency_ns.len();
        // The sink is full-capacity and harness-owned; pushing within its
        // capacity allocates nothing, so the block's allocation delta is
        // the measured code's alone.
        let mut sink = self.raw_latency_ns.with(std::mem::take);
        let before = alloc::snapshot();
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let out = work(&mut sink);
        let wall = t0.elapsed().as_nanos() as f64;
        let cpu = (process_cpu_ns() - cpu0) as f64;
        let (allocs, bytes) = alloc::snapshot().since(&before);
        self.raw_latency_ns.with(|v| *v = sink);

        let sample = self.cal.sample();
        let factor = Calibrator::factor(self.last_sample, sample, self.parallel_share);
        if self.log_blocks {
            eprintln!(
                "block {} wall_ms {:.3} cpu_ms {:.3} solo_ms {:.3} pair {:.3} factor {:.4}",
                self.blocks,
                wall / 1e6,
                cpu / 1e6,
                (self.last_sample.solo_ns + sample.solo_ns) / 2e6,
                (self.last_sample.pair + sample.pair) / 2.0,
                factor
            );
        }
        self.last_sample = sample;
        self.last_factor = factor;
        self.blocks += 1;
        self.raw_ns += wall;
        self.cal_ns += wall * factor;
        self.cal_cpu_ns += cpu * factor;
        self.allocs += allocs;
        self.alloc_bytes += bytes;
        let raw = &self.raw_latency_ns;
        self.cal_latency_ns
            .with(|cal| cal.extend(raw[first..].iter().map(|ns| ns * factor)));
        out
    }

    /// Raw latency samples, ns, in the order taken.
    pub fn raw_latency_ns(&self) -> &[f64] {
        &self.raw_latency_ns
    }

    /// Calibrated latency samples, ns, in the order taken.
    pub fn cal_latency_ns(&self) -> &[f64] {
        &self.cal_latency_ns
    }
}

/// Sorted copy of `samples` (harness-owned).
pub fn sorted(samples: &[f64]) -> Hidden<Vec<f64>> {
    Hidden::new(|| {
        let mut v = samples.to_vec();
        crate::stats::sort(&mut v);
        v
    })
}
