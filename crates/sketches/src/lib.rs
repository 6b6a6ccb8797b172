//! # td-sketches — duplicate-insensitive synopses
//!
//! Multi-path aggregation delivers every partial result along many paths,
//! so the data structures that carry partial results must be **order- and
//! duplicate-insensitive** (ODI): merging (`⊕`) must be commutative,
//! associative, and idempotent. This crate provides the synopses the paper
//! builds on:
//!
//! * [`fm`] — Flajolet–Martin / PCSA bit-vector sketches \[7\], with the
//!   Considine-style value insertion used for Sum in \[5\] and §7.1's
//!   40×32-bit configuration whose averaged estimate has the ≈12%
//!   approximation error seen in Figure 2.
//! * [`rle`] — the run-length wire encoding that packs those 40 bitmaps
//!   into a single 48-byte TinyDB message (\[17\], §7.1).
//! * [`kmv`] — k-minimum-values distinct-count sketches: the
//!   *accuracy-preserving duplicate-insensitive sum operator* of
//!   Definition 1 (relative error `εc ≈ 1/√(k−2)`), including exact
//!   order-statistics value insertion.
//! * [`sample`] — min-hash uniform samples (duplicate-insensitive uniform
//!   sampling, §5), the basis for sampled quantiles and moments.
//! * [`counter`] — the [`counter::DiCounter`] abstraction over
//!   duplicate-insensitive counters (exact / FM / KMV) that the
//!   frequent-items Algorithm 2 is generic over.
//! * [`keyed`] — the keyed union over flat sorted `(key, value)` runs
//!   that fuses the delta's set-valued synopses by reference.
//! * [`hash`] — the deterministic 64-bit hash family everything above
//!   draws from.
//!
//! The ⊕ laws are enforced by property tests in every module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod fm;
pub mod hash;
pub mod keyed;
pub mod kmv;
pub mod rle;
pub mod sample;

pub use counter::DiCounter;
pub use fm::FmSketch;
pub use kmv::Kmv;
pub use sample::MinHashSample;
