//! # td-aggregates — aggregates for the Tributary-Delta framework
//!
//! §5 of the paper: computing an aggregate under Tributary-Delta needs
//! three pieces —
//!
//! 1. a **tree algorithm** (exact partial results merged up tributaries),
//! 2. a **multi-path algorithm** in the synopsis-diffusion SG/SF/SE style
//!    (duplicate-insensitive synopses fused through the delta), and
//! 3. a **conversion function** turning a tree partial result into a
//!    synopsis the multi-path side can fuse — applied where a tributary
//!    root hands its subtree's result to its delta parent (Figure 3).
//!
//! The [`traits::Aggregate`] trait packages all three plus wire-size
//! accounting; the runner in the `tributary-delta` crate reaches an
//! aggregate through its `ScalarProtocol` adapter. Implementations here:
//!
//! | Aggregate | Tree partial | Synopsis | Approximation error |
//! |-----------|--------------|----------|---------------------|
//! | [`count::Count`] | exact counter | FM sketch | ≈ 12% at 40 bitmaps |
//! | [`sum::Sum`] | exact sum | FM sketch (value insertion) | ≈ 12% |
//! | [`minmax::Min`] / [`minmax::Max`] | exact | exact (idempotent) | none |
//! | [`average::Average`] | (sum, count) | (FM, FM) | ≈ 17% (ratio) |
//!
//! Frequent items — the paper's difficult aggregate — has its own crate
//! (`td-frequent`) because its partial results are summaries/synopsis
//! *collections* rather than scalars.
//!
//! The law checks every aggregate must pass (⊕ commutative, associative
//! and idempotent; `merge_tree` commutative and associative; conversion
//! sound) are test helpers in `laws.rs`, run by each aggregate's tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod average;
pub mod count;
#[cfg(test)]
mod laws;
pub mod minmax;
pub mod sum;
pub mod traits;

pub use average::Average;
pub use count::Count;
pub use minmax::{Max, Min};
pub use sum::Sum;
pub use traits::Aggregate;
