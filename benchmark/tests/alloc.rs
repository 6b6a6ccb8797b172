//! The counting allocator counts a known allocation pattern exactly.
//!
//! One test in its own binary: the counters are process-wide, so nothing
//! else may allocate while the pattern runs.

use std::hint::black_box;

use td_benchmark::alloc::{excluded, snapshot, Hidden};

#[test]
fn a_known_pattern_is_counted_exactly() {
    let before = snapshot();

    // `black_box` keeps the optimiser from eliding or merging them.
    let a = black_box(vec![0u8; 1000]); // 1 allocation, 1000 bytes
    let mut b: Vec<u64> = black_box(Vec::with_capacity(4)); // 1 allocation, 32 bytes
    b.extend([1, 2, 3, 4]);
    black_box(&mut b).push(5); // 1 reallocation to 8 elements: 64 bytes requested
    let c = black_box(Box::new([0u32; 16])); // 1 allocation, 64 bytes
    let hidden = excluded(|| vec![0u8; 1 << 20]); // invisible
    let mut owned = Hidden::new(|| Vec::<u32>::with_capacity(16)); // invisible
    owned.with(|v| v.extend(0..1000)); // grows under the guard: invisible

    let during = snapshot();
    let (allocs, bytes) = during.since(&before);
    assert_eq!(allocs, 4, "three allocations and one reallocation");
    assert_eq!(bytes, 1000 + 32 + 64 + 64);
    assert_eq!(
        during.live - before.live,
        1000 + 64 + 64,
        "b holds 64 bytes now"
    );
    assert!(during.peak >= during.live);

    drop((a, b, c));
    excluded(|| drop(hidden));
    drop(owned);
    let after = snapshot();
    assert_eq!(after.live, before.live, "everything counted was freed");
    assert_eq!(after.since(&during), (0, 0), "frees are not allocations");
}
