//! A heap budget for the radio graph and the rings read from it.
//!
//! `Network` keeps its positions and its CSR adjacency behind `Arc`s, so
//! cloning it allocates nothing, and a TAG session (which keeps a clone)
//! holds little more than its tree. `Rings` keeps its ring links in one
//! CSR array filtered from the network's. The three tests pin those
//! three facts on `Synthetic::small(10_000)`, the benchmark's largest
//! deployment.
//!
//! Measured when the budgets were set (average degree 28.75; the
//! figures repeat run to run, debug and release alike): the network
//! 1 350 304 B live and its rings 671 224 B; a TAG session 400 040 B
//! above its 453 429 B tree, which is exactly its per-node `CommStats`.
//! With one heap list per node in both structures the network was
//! 1 997 064 B and the rings 1 296 692 B, a `Network::clone` was a deep
//! copy (10 003 allocations, 1 550 272 B), and the session held
//! 1 950 312 B above its tree. The budgets sit about 15 % above the
//! measured values.
//!
//! Its own binary: the counting allocator is process-wide. It counts
//! per thread, so the tests may run in parallel; none of the measured
//! calls spawns a thread. The allocator forwards to the system
//! allocator and only counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::netsim::network::Network;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::topology::tree::ParentSelection;
use td_suite::topology::{build_tag_tree, Rings};
use td_suite::workloads::synthetic::Synthetic;

/// Live bytes the network plus its rings may hold.
const NETWORK_AND_RINGS_BUDGET: i64 = 2_325_000;
/// Live bytes a TAG session may hold above its tree: its per-node
/// counters, and nothing for the network it shares.
const SESSION_ABOVE_TREE_BUDGET: i64 = 460_000;

const SENSORS: usize = 10_000;
const SEED: u64 = 0x10_000;

thread_local! {
    // Const-initialised and without destructors, so the allocator can
    // touch them at any point of a thread's life without allocating.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting the calling thread's allocations and
/// live bytes (a reallocation counts as one allocation).
struct Counting;

fn note(allocs: u64, grown: i64) {
    ALLOCS.set(ALLOCS.get() + allocs);
    LIVE.set(LIVE.get() + grown);
}

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made and the
/// bytes it left live on this thread.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let start = (ALLOCS.get(), LIVE.get());
    let out = f();
    (out, ALLOCS.get() - start.0, LIVE.get() - start.1)
}

fn network() -> Network {
    Synthetic::small(SENSORS).build(SEED)
}

#[test]
fn network_clone_allocates_nothing() {
    let net = network();
    let (copy, allocs, live) = measured(|| net.clone());
    eprintln!("Network::clone: {allocs} allocations, {live} B live");
    assert_eq!((allocs, live), (0, 0), "Network::clone allocated");
    let last = net.sensor_ids().last().unwrap();
    assert!(std::ptr::eq(copy.neighbors(last), net.neighbors(last)));
    assert!(std::ptr::eq(copy.positions(), net.positions()));
}

#[test]
fn network_and_rings_stay_within_their_budget() {
    let (net, _, net_live) = measured(network);
    let (rings, _, rings_live) = measured(|| Rings::build(&net));
    eprintln!(
        "{SENSORS} sensors, average degree {:.2}: network {net_live} B, rings {rings_live} B",
        net.average_degree()
    );
    assert_eq!(rings.connected_count(), net.len());
    assert!(
        net_live + rings_live <= NETWORK_AND_RINGS_BUDGET,
        "network {net_live} B + rings {rings_live} B, budget {NETWORK_AND_RINGS_BUDGET} B"
    );
}

#[test]
fn a_tag_session_holds_its_tree_and_not_a_network_copy() {
    let net = network();
    let (tree, _, tree_live) = measured(|| {
        build_tag_tree(
            &net,
            ParentSelection::Random,
            None,
            false,
            &mut rng_from_seed(SEED),
        )
    });
    let (session, _, session_live) =
        measured(|| SessionBuilder::new(Scheme::Tag).build(&net, &mut rng_from_seed(SEED)));
    eprintln!("TAG session {session_live} B live, its tree alone {tree_live} B");
    assert_eq!(
        session.tag_tree().map(|t| t.tree_size()),
        Some(tree.tree_size())
    );
    assert!(
        session_live <= tree_live + SESSION_ABOVE_TREE_BUDGET,
        "session {session_live} B, tree {tree_live} B + budget {SESSION_ABOVE_TREE_BUDGET} B"
    );
}
