//! # td-quantiles — Greenwald–Khanna quantile summaries for sensor trees
//!
//! The Greenwald–Khanna (GK) summary \[8\] is the classic deterministic
//! ε-approximate quantile structure, and the basis of two pieces of the
//! paper:
//!
//! * the **Quantiles-based frequent-items baseline** of §7.4.2 ("frequent
//!   items can be computed from quantiles"), and
//! * §6.1.4's extension of the paper's precision-gradient machinery to
//!   quantiles — "the first quantiles algorithms" with optimal total
//!   communication on d-dominating trees.
//!
//! This implementation follows the *power-conserving* formulation of
//! GK \[8\], which is built for sensor trees: each node builds an exact
//! summary of its local collection, **combines** its children's summaries
//! (absolute rank uncertainties add), then **reduces** (compresses) the
//! result to its height's error budget before transmitting. The
//! [`summary::GkSummary`] type tracks its own absolute uncertainty `E` so
//! validity is checkable at every step.
//!
//! Two summary families share one combine/reduce surface
//! ([`summary::QuantileSummary`]):
//!
//! * [`summary::GkSummary`] — the power-conserving GK formulation;
//! * [`qdigest::QDigest`] — the q-digest of "Medians and Beyond"
//!   (dyadic-range counts), whose combine is node-wise count addition.
//!
//! See [`summary`] and [`qdigest`] for the data structures,
//! [`gradient`] for the precision-gradient helpers shared with the
//! frequent-items crate. The algebraic law checks (combine
//! commutativity/associativity up to canonical form, reduce budget
//! adherence, quantile monotonicity) are property tests in `laws.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gradient;
#[cfg(test)]
mod laws;
pub mod qdigest;
pub mod summary;

pub use gradient::PrecisionGradient;
pub use qdigest::QDigest;
pub use summary::{GkSummary, QuantileSummary};
