//! A tier-1 allocation budget for the delta's message building.
//!
//! The five-query bundle (Sum, Count, Max, frequent items over inline FM
//! counters, q-digest quantiles) runs on `Synthetic::small(600)` under
//! `Scheme::Td` on one worker with `Global(0.15)` loss: 100 warm-up
//! epochs (the adaptive delta grows over most of the network), then 100
//! measured. Every delta vertex builds its message in its query column's
//! long-lived accumulator and seals it at exact size, so a vertex's
//! fusions allocate almost nothing; a change that puts fresh buffers back
//! on that path shows here as a budget overrun. A sealed frequent-items
//! set is two buffers (headers, items) and a sealed quantile set one (its
//! part list, sensors' readings inline).
//!
//! Measured when the budget was set (both repeat run to run): 5.19
//! allocations and 2 186 B requested per node-epoch, in a debug build and
//! in release alike. With one item list per class synopsis and a boxed
//! q-digest per reading the same run took 8.37 allocations and 2 573 B,
//! and before the accumulator 26.8 and 11 849 B. The budgets sit about
//! 15 % above the measured values.
//!
//! Two checks hold value insertion to keeping no per-thread state. FM
//! value insertion on a fresh thread allocates nothing; and the same
//! bundle on two workers, whose second thread is spawned afresh each
//! epoch and claims whole query columns, requests less than 4 B per
//! node-epoch more than on one worker. Measured: 0 allocations, and
//! 2 186.72 B at `workers(2)` against 2 185.53 B at `workers(1)` (the
//! scoped spawn's own cost). With a 35 KB thread-local row memo, cold on
//! every new thread, insertion made 1 allocation of 35 840 B and
//! `workers(2)` read 2 246.45 B.
//!
//! One test in its own binary: the counting allocator is process-wide,
//! so nothing else may allocate while the bundle runs. The allocator is
//! the one `unsafe` item of the test suite; it forwards to the system
//! allocator and only counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use td_suite::aggregates::count::Count;
use td_suite::aggregates::minmax::Max;
use td_suite::aggregates::sum::Sum;
use td_suite::core::protocol::{FreqProtocol, QuantileProtocol, ScalarProtocol};
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::frequent::items::ItemBag;
use td_suite::frequent::multipath::MultipathConfig;
use td_suite::netsim::loss::Global;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::quantiles::gradient::MinTotalLoad;
use td_suite::sketches::counter::FmFactory;
use td_suite::sketches::fm::FmSketch;
use td_suite::workloads::synthetic::Synthetic;

/// Allocations per node-epoch the bundle may make.
const ALLOCS_BUDGET: f64 = 6.0;
/// Bytes requested per node-epoch the bundle may make.
const BYTES_BUDGET: f64 = 2_510.0;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations and bytes requested (a
/// reallocation counts as one allocation of its new size).
struct Counting;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 100;
const MEASURED: u64 = 100;

/// Bytes per node-epoch a second worker may add: its scoped thread,
/// spawned once per epoch, and nothing per column it claims.
const SECOND_WORKER_BYTES: f64 = 4.0;

#[test]
fn the_bundle_stays_within_its_allocation_budget() {
    // Value insertion keeps no per-thread state: a fresh thread inserts
    // into a sketch without allocating.
    let mut sketch = FmSketch::default_config();
    let fresh_thread = std::thread::scope(|s| {
        s.spawn(|| {
            let start = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
            sketch.insert_value(7, 50);
            (
                ALLOCS.load(Relaxed) - start.0,
                BYTES.load(Relaxed) - start.1,
            )
        })
        .join()
        .expect("insertion thread")
    });
    eprintln!(
        "insert_value(_, 50) on a fresh thread: {} allocations, {} B",
        fresh_thread.0, fresh_thread.1
    );
    assert_eq!(
        fresh_thread,
        (0, 0),
        "insertion allocated on a fresh thread"
    );

    let (allocs, bytes) = bundle_per_node_epoch(1);
    eprintln!("workers(1): {allocs:.3} allocations and {bytes:.2} B requested per node-epoch");
    assert!(
        allocs <= ALLOCS_BUDGET,
        "{allocs:.3} allocations per node-epoch, budget {ALLOCS_BUDGET}"
    );
    assert!(
        bytes <= BYTES_BUDGET,
        "{bytes:.0} B per node-epoch, budget {BYTES_BUDGET}"
    );

    // A second worker runs query columns on a thread spawned afresh each
    // epoch; the columns it claims must not cost it more than they cost
    // the first worker.
    let (allocs_2, bytes_2) = bundle_per_node_epoch(2);
    eprintln!("workers(2): {allocs_2:.3} allocations and {bytes_2:.2} B requested per node-epoch");
    assert!(
        bytes_2 - bytes < SECOND_WORKER_BYTES,
        "workers(2) requests {bytes_2:.2} B per node-epoch, workers(1) {bytes:.2} B"
    );
}

/// Allocations and bytes requested per node-epoch by the five-query
/// bundle on `workers` threads, over the measured epochs.
fn bundle_per_node_epoch(workers: usize) -> (f64, f64) {
    let net = Synthetic::small(600).build(0xA110C);
    let readings: Vec<u64> = (0..net.len() as u64).map(|i| (i * 37) % 1000).collect();
    let bag_slots: Vec<Vec<ItemBag>> = (0..4u64)
        .map(|slot| {
            (0..net.len())
                .map(|i| {
                    if i == 0 {
                        ItemBag::new()
                    } else {
                        ItemBag::from_counts([
                            (1u64, 30),
                            (2u64, 18),
                            (10 + slot, 12),
                            (100 + i as u64 % 11, 4),
                        ])
                    }
                })
                .collect()
        })
        .collect();
    let n_slot: u64 = bag_slots[0].iter().map(ItemBag::total).sum();
    let mp_cfg = MultipathConfig::new(0.01, 2.0, n_slot * 8, FmFactory { bitmaps: 16 });
    let model = Global::new(0.15);
    let mut rng = rng_from_seed(0xA110C + 1);
    let mut session = SessionBuilder::new(Scheme::Td)
        .workers(workers)
        .build(&net, &mut rng);
    let mut start = (0, 0);
    for epoch in 0..WARM_UP + MEASURED {
        if epoch == WARM_UP {
            start = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
        }
        let mut set = QuerySet::new();
        set.register(ScalarProtocol::new(Sum::default(), &readings));
        set.register(ScalarProtocol::new(Count::default(), &readings));
        set.register(ScalarProtocol::new(Max, &readings));
        set.register(FreqProtocol::new(
            mp_cfg.clone(),
            MinTotalLoad::new(0.01, 2.25),
            0.05,
            &bag_slots[(epoch % 4) as usize],
        ));
        set.register(QuantileProtocol::qdigest(
            10,
            MinTotalLoad::new(0.02, 2.25),
            &readings,
        ));
        session.run_set(&set, &model, epoch, &mut rng);
    }
    let node_epochs = (net.num_sensors() as u64 * MEASURED) as f64;
    (
        (ALLOCS.load(Relaxed) - start.0) as f64 / node_epochs,
        (BYTES.load(Relaxed) - start.1) as f64 / node_epochs,
    )
}
