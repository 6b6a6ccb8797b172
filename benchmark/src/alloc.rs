//! A counting `#[global_allocator]`: allocations, bytes requested, live
//! bytes and the live peak of everything the measured code allocates,
//! on every thread.
//!
//! The counters are sharded per thread (one cache line each, relaxed
//! atomics), because two executor workers bumping one shared counter
//! 40 000 times an epoch would measure the counter, not the executor.
//! The peak is therefore sampled, not exact: a thread re-sums the live
//! bytes of all shards each time it has allocated another
//! [`PEAK_SAMPLE_BYTES`], and [`snapshot`] samples once more. On one
//! thread the sampling points are a function of the allocation sequence,
//! so the peak repeats exactly there too.
//!
//! Buffers the harness itself owns (latency samples, spans, the
//! calibration array) are allocated under [`excluded`] and are invisible
//! to every counter. An excluded buffer must also be freed (or grown)
//! under [`excluded`], or be leaked: the allocator keeps no per-block
//! tag, so a free outside the guard would be subtracted from live bytes
//! it was never added to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

const SHARDS: usize = 16;
/// How much a thread allocates between two samples of the global live
/// total; bounds the peak's error at this many bytes per running thread.
pub const PEAK_SAMPLE_BYTES: u64 = 64 * 1024;

#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
    /// Signed: a block may be freed by another thread than allocated it.
    live: AtomicI64,
    since_sample: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicI64::new(0),
            since_sample: AtomicU64::new(0),
        }
    }
}

static COUNTERS: [Shard; SHARDS] = [const { Shard::new() }; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // Const-initialised and without destructors, so touching them from
    // inside the allocator never allocates and never fails at thread exit.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    static EXCLUDE_DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn shard() -> &'static Shard {
    let mut i = SHARD.get();
    if i == usize::MAX {
        i = NEXT_SHARD.fetch_add(1, Relaxed) % SHARDS;
        SHARD.set(i);
    }
    &COUNTERS[i]
}

fn live_now() -> i64 {
    COUNTERS.iter().map(|s| s.live.load(Relaxed)).sum()
}

fn sample_peak() {
    PEAK.fetch_max(live_now(), Relaxed);
}

fn note_alloc(size: usize, grown_from: usize) {
    if EXCLUDE_DEPTH.get() > 0 {
        return;
    }
    let s = shard();
    s.allocs.fetch_add(1, Relaxed);
    s.bytes.fetch_add(size as u64, Relaxed);
    s.live.fetch_add(size as i64 - grown_from as i64, Relaxed);
    if s.since_sample.fetch_add(size as u64, Relaxed) + size as u64 >= PEAK_SAMPLE_BYTES {
        s.since_sample.store(0, Relaxed);
        sample_peak();
    }
}

fn note_free(size: usize) {
    if EXCLUDE_DEPTH.get() == 0 {
        shard().live.fetch_sub(size as i64, Relaxed);
    }
}

/// The allocator: `System`, counted.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls touches only atomics and const-initialised thread-locals, so it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size(), 0);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size(), 0);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`,
        // with this `layout`; both are passed through as is.
        unsafe { System.dealloc(ptr, layout) };
        note_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` satisfy the caller's
        // `realloc` contract and are passed through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // One allocation request of `new_size` bytes; live bytes
            // move by the difference.
            note_alloc(new_size, layout.size());
        }
        p
    }
}

/// The counters at one instant, summed over all threads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Allocation requests (`alloc`, `alloc_zeroed`, `realloc`).
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: i64,
    /// Highest sampled value of `live` since the process started or
    /// [`reset_peak`] was called.
    pub peak: i64,
}

impl Snapshot {
    /// Allocations and bytes requested since `earlier`.
    pub fn since(&self, earlier: &Snapshot) -> (u64, u64) {
        (self.allocs - earlier.allocs, self.bytes - earlier.bytes)
    }
}

/// Read every counter (and sample the peak once more).
pub fn snapshot() -> Snapshot {
    sample_peak();
    Snapshot {
        allocs: COUNTERS.iter().map(|s| s.allocs.load(Relaxed)).sum(),
        bytes: COUNTERS.iter().map(|s| s.bytes.load(Relaxed)).sum(),
        live: live_now(),
        peak: PEAK.load(Relaxed),
    }
}

/// Forget the peak reached so far: the next [`snapshot`] reports the
/// highest live total from now on. Called where a workload's run starts,
/// so that one process can run several workloads.
pub fn reset_peak() {
    PEAK.store(live_now(), Relaxed);
}

/// Run `f` with this thread's allocations and frees hidden from every
/// counter — for buffers the harness owns. See the module docs for the
/// one rule: free what you allocate here under `excluded` too, or leak it.
pub fn excluded<T>(f: impl FnOnce() -> T) -> T {
    struct Depth;
    impl Drop for Depth {
        fn drop(&mut self) {
            EXCLUDE_DEPTH.set(EXCLUDE_DEPTH.get() - 1);
        }
    }
    EXCLUDE_DEPTH.set(EXCLUDE_DEPTH.get() + 1);
    let _depth = Depth;
    f()
}

/// A harness-owned value: built, mutated through [`Hidden::with`] and
/// dropped under [`excluded`], so none of its allocations are counted.
/// Reading it needs no guard.
pub struct Hidden<T>(Option<T>);

impl<T> Hidden<T> {
    /// Build the value under [`excluded`].
    pub fn new(build: impl FnOnce() -> T) -> Self {
        Hidden(Some(excluded(build)))
    }

    /// Mutate the value under [`excluded`].
    pub fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let value = self.0.as_mut().expect("present until dropped");
        excluded(|| f(value))
    }
}

impl<T> std::ops::Deref for Hidden<T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("present until dropped")
    }
}

impl<T> Drop for Hidden<T> {
    fn drop(&mut self) {
        excluded(|| drop(self.0.take()));
    }
}
