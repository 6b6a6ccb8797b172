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
//! * [`counter`] — the [`counter::DiCounter`] abstraction over
//!   duplicate-insensitive counters (exact, and the FM counter §7.4.3
//!   runs) that the frequent-items Algorithm 2 is generic over.
//! * [`keyed`] — the keyed union over flat sorted `(key, value)` runs
//!   that fuses the delta's set-valued synopses by reference.
//! * [`hash`] — the deterministic 64-bit hash family everything above
//!   draws from.
//!
//! The ⊕ laws are enforced by property tests in every module.
//!
//! The crate denies `unsafe` code with one exception: the call, in the
//! private `avx512` module, into the AVX-512 kernels of [`fm`] (value
//! draws, distinct insertion, the estimate's `z` sum) and [`rle`] (sizing
//! sixteen counters at a time). A function compiled for CPU features the
//! baseline target lacks may only run where they exist, so that call is
//! `unsafe`; every kernel goes through it, and it is made only after both
//! features it needs were detected at run time. Without it, Sum's FM
//! insertion (most of the CPU time of a tributary/delta epoch) and the
//! frequent-items delta's counters would run at scalar speed on every
//! CPU, or the whole build would need a target flag.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod counter;
pub mod fm;
pub mod hash;
pub mod keyed;
pub mod rle;

pub use counter::DiCounter;
pub use fm::FmSketch;
