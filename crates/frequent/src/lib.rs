//! # td-frequent — frequent-items aggregation (§6 of the paper)
//!
//! Finding frequent items is the paper's "difficult aggregate": exact
//! counting would ship every distinct item to the base station, so both
//! schemes work with ε-deficient counts — every reported count `c̃(u)`
//! satisfies `max(0, c(u) − ε·N) ≤ c̃(u) ≤ c(u)`, and all items with
//! `c̃(u) > (s−ε)·N` are reported (no false negatives among items with
//! frequency ≥ `s·N`; false positives have frequency ≥ `(s−ε)·N`).
//!
//! This crate holds the algorithms; the epoch engine in
//! `tributary-delta` runs them. Its `FreqProtocol` drives Algorithm 1 in
//! tree (tributary) vertices, Algorithm 2 in the delta and the §6.3
//! conversion at the boundary, so TAG (all tree), SD (all delta) and
//! Tributary-Delta answer frequent-items queries on one executor.
//!
//! * [`items`] — item collections and exact counting (ground truth).
//! * [`summary`] — the ε-deficient summary and **Algorithm 1** (generate
//!   an ε(k)-summary at a height-k node); the precision gradients that
//!   pick ε(k) — `Min Total-load` (Lemma 3), `Min Max-load` \[13\],
//!   `Hybrid` (§6.1.4) — live in `td-quantiles`.
//! * [`quantile_based`] — the Quantiles-based baseline \[8\]: the engine
//!   runs GK summaries of each node's items up the tree; this module
//!   holds the gradient they pair with and reads frequencies out of the
//!   ranks at the base.
//! * [`multipath`] — the paper's new multi-path algorithm (§6.2):
//!   class-indexed synopses with duplicate-insensitive counters, rising
//!   thresholds in place of subtraction, and the η slack (**Algorithm 2**).
//! * [`convert`] — the Tributary-Delta conversion function (§6.3): a tree
//!   summary re-expressed as a multi-path synopsis via the SG threshold.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convert;
pub mod items;
pub mod multipath;
pub mod quantile_based;
pub mod summary;
mod tree;

pub use items::{count_items, Item, ItemBag};
pub use multipath::{MultipathConfig, SynopsisSet};
pub use summary::FreqSummary;
