//! # td-workloads — the paper's evaluation scenarios (§7.1)
//!
//! Two deployments drive every experiment:
//!
//! * [`labdata`] — a reconstruction of the Intel Research Berkeley lab
//!   deployment: 54 motes in a ~40 m × 30 m lab, light readings, and
//!   distance-dependent link loss. The real dataset \[9\] is not available
//!   offline, so this module synthesizes a deployment with the same
//!   *statistics the paper relies on*: an irregular, bushy topology whose
//!   TAG tree has a domination factor near the paper's measured 2.25,
//!   several hops of network depth, realistic loss, and strongly skewed
//!   diurnal light traces (see DESIGN.md's substitution table).
//! * [`synthetic`] — the Synthetic scenario: 600 sensors placed uniformly
//!   at random in a 20 ft × 20 ft area with the base station at (10, 10),
//!   plus the density/width sweeps of Figure 7.
//!
//! [`items`] generates the item streams for the frequent-items
//! experiments (Zipf-skewed readings and §7.4.2's disjoint-uniform
//! streams) and runs one epoch over a tree an experiment built itself
//! ([`items::run_on_tree`]); [`scenario`] packages the failure models,
//! including the dynamic timeline of Figure 6. [`workload`] plugs both deployments
//! into the session driver's [`tributary_delta::Workload`] interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod items;
pub mod labdata;
pub mod scenario;
pub mod synthetic;
pub mod workload;

pub use labdata::LabData;
pub use synthetic::Synthetic;
pub use workload::SyntheticSum;
