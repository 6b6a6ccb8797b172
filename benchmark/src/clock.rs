//! Process CPU time and the cost of reading the wall clock.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

/// CPU time consumed by the whole process so far, in nanoseconds: every
/// thread, including threads that have already exited. (The level-parallel
/// executor spawns and joins its workers every epoch, so summing
/// `/proc/self/task/*/schedstat` would lose most of their time.)
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // the 64-bit Linux targets this harness supports) and the clock id
    // is a constant the kernel defines; the call writes `ts` and nothing
    // else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Median cost of one `Instant::now()` in nanoseconds — the floor under
/// every span and latency sample.
pub fn timer_ns() -> f64 {
    let mut per_call = [0.0f64; 9];
    for slot in &mut per_call {
        let t0 = Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(Instant::now());
        }
        *slot = t0.elapsed().as_nanos() as f64 / 10_000.0;
    }
    crate::stats::median(&mut per_call)
}
