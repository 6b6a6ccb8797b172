//! # tributary-delta — the paper's core contribution (§3–§5)
//!
//! Tributary-Delta runs **tree aggregation** (exact, small messages,
//! fragile) in the outer *tributaries* of a sensor network and
//! **multi-path aggregation** (robust, approximate) in an inner *delta*
//! region around the base station, adjusting the boundary dynamically to
//! hold a user-specified fraction of nodes contributing to each answer.
//!
//! ## The multi-query session engine
//!
//! Real deployments run many simultaneous aggregates over the same radio
//! traffic, so the execution engine is built around a **query set**, not
//! a single query: build a session with [`SessionBuilder`], register any
//! number of heterogeneous queries on a [`query::QuerySet`] (Count next
//! to Sum next to frequent-items), and one call to
//! [`session::Session::run_set`] answers all of them with a **single
//! topology traversal** — one unicast/broadcast per node carrying every
//! query's message, one contributor envelope, one in-band count sketch,
//! one adaptation decision. Registering a query costs a message in each
//! send, not a network round. Typed [`query::QueryHandle`]s fetch each
//! answer without downcasting at the call site.
//!
//! ```ignore
//! let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
//! let count = ScalarProtocol::new(Count::default(), &values);
//! let sum = ScalarProtocol::new(Sum::default(), &values);
//! let mut set = QuerySet::new();
//! let h_count = set.register(&count);
//! let h_sum = set.register(&sum);
//! let mut rec = session.run_set(&set, &channel, epoch, &mut rng);
//! let n_alive: f64 = *rec.answers.get(h_count);
//! let total: f64 = *rec.answers.get(h_sum);
//! ```
//!
//! [`driver::Driver`] owns the §7.1 warmup/measure/adapt loop on top,
//! fed by a [`driver::Workload`] (Synthetic, LabData, or anything that
//! yields per-epoch readings).
//!
//! ## Compile-then-execute epochs
//!
//! Epoch execution is split into two phases. [`runner::EpochPlan`]
//! **compiles** a topology — a TD labeling, or a TAG tree as the all-`T`
//! plan of the same builder — into a reusable schedule: the depth-ordered
//! sender list, per-sender parents/heights, each slot's tree children
//! and flattened broadcast delivery lists. [`runner::EpochPlan::run_set`]
//! **executes** epochs over it: it draws the epoch's loss outcomes up front, runs
//! each query over its own typed, slot-indexed message column (one
//! dynamic call per query per epoch, no boxed message per node), then
//! accounts the sends and evaluates at the base station. A
//! [`session::Session`] caches one plan per topology and rebuilds its
//! schedule in place, into the same buffers, when §4.2 adaptation
//! relabels vertices or churn reroutes the tree, so steady-state epochs
//! do zero schedule recomputation and no epoch grows a buffer. With more than one query the columns may run on several
//! threads ([`runner::RunnerConfig::workers`]); any thread count is
//! bit-identical.
//!
//! ## Parallel trials
//!
//! Multi-trial experiments (seeds × loss rates × schemes) fan across
//! cores with [`driver::TrialPool::map`]: one job per trial
//! configuration, each carrying its own seed, outputs in configuration
//! order, so a sweep is bit-for-bit identical at any thread count. It
//! runs on the same longest-first scoped fan-out as an epoch's query
//! columns — the crate's one thread executor.
//!
//! Crate layout:
//!
//! * [`protocol`] — the typed [`protocol::Protocol`] abstraction an
//!   aggregate implements to run under Tributary-Delta: tree messages,
//!   multi-path synopses, and the conversion function between them (§5).
//!   Adapters are provided for every scalar aggregate in `td-aggregates`
//!   ([`protocol::ScalarProtocol`]) and for the §6 frequent-items
//!   algorithms ([`protocol::FreqProtocol`]).
//! * [`query`] — the object-safe layer: the [`query::QuerySet`]
//!   registry of heterogeneous queries (every `Protocol` erased at the
//!   granularity of a whole epoch) and typed [`query::QueryHandle`]s.
//! * [`envelope`] — the instrumentation the runner adds to each link's
//!   send: exact tree subtree counts, the in-band approximate Count of
//!   §4.2, and the per-subtree non-contribution extrema that drive the
//!   fine-grained TD strategy. Shared by every query in the set.
//! * [`runner`] — one epoch of level-synchronized execution over a
//!   compiled [`td_topology::TdTopology`] or TAG tree schedule,
//!   carrying the whole query set per link. Synopsis-diffusion (SD) is
//!   the special case of an all-multipath topology; TAG is the all-tree
//!   special case on an unrestricted tree.
//! * [`adapt`] — the §4.2 adaptation strategies **TD-Coarse** (grow or
//!   shrink the delta by a whole level) and **TD** (target the subtrees
//!   with the most non-contributing nodes), with oscillation damping.
//! * [`session`] — the multi-epoch engine tying runner + adapter
//!   together: [`SessionBuilder`], [`session::Session::run_set`], and
//!   the single-query convenience [`session::Session::run_epoch`].
//! * [`driver`] — the scenario driver owning the warmup/epoch loop, fed
//!   by [`driver::Workload`] readings.
//! * [`metrics`] — RMS/relative error and false-positive/negative rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod driver;
pub mod envelope;
pub mod metrics;
mod parallel;
pub mod protocol;
pub mod query;
pub mod runner;
pub mod session;

pub use adapt::{AdaptAction, Adapter, AdapterConfig, Strategy};
pub use driver::{Driver, EpochView, FixedReadings, ScalarRun, SteppedEpoch, TrialPool, Workload};
pub use protocol::{
    FreqProtocol, Protocol, QuantileOutput, QuantileProtocol, QuantileSynopsisSet, ScalarProtocol,
};
pub use query::{Answers, QueryHandle, QuerySet};
pub use runner::{EpochPlan, RunnerConfig, SetEpochOutput};
pub use session::{QueryRecord, Scheme, Session, SessionBuilder, SessionConfig};
