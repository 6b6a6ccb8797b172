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
//! topology traversal** — one unicast/broadcast per node carrying a
//! per-link message bundle, one contributor envelope, one in-band count
//! sketch, one adaptation decision. Registering a query costs a bundle
//! slot, not a network round. Typed [`query::QueryHandle`]s fetch each
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
//! **compiles** a topology into a reusable schedule — the level-ordered
//! sender list, per-sender parents/heights, flattened broadcast delivery
//! lists, and the preallocated inbox + `(node, query)` bundle-slot
//! arenas — and [`runner::EpochPlan::run_set`] **executes** epochs over
//! it. A [`session::Session`] caches one plan per topology version and
//! recompiles only when §4.2 adaptation actually relabels vertices, so
//! steady-state epochs do zero schedule recomputation and no per-node
//! inbox growth. The one-shot entry points (`run_td_epoch_set` & co.)
//! compile-and-execute in one call over the identical code path, so
//! plan reuse is bit-for-bit invisible in results.
//!
//! ## Parallel trials
//!
//! Multi-trial experiments (seeds × loss rates × schemes) fan across
//! cores with [`driver::TrialPool`], a `std::thread::scope` executor
//! whose per-trial RNG substreams are salted by trial index alone —
//! results are reassembled in trial order and are bit-for-bit identical
//! at any thread count. [`driver::Driver::run_trials`] and
//! [`driver::Driver::run_sweep`] cover the common batch shapes and merge
//! per-trial accounting with `CommStats::merge`.
//!
//! Crate layout:
//!
//! * [`protocol`] — the typed [`protocol::Protocol`] abstraction an
//!   aggregate implements to run under Tributary-Delta: tree messages,
//!   multi-path synopses, and the conversion function between them (§5).
//!   Adapters are provided for every scalar aggregate in `td-aggregates`
//!   ([`protocol::ScalarProtocol`]) and for the §6 frequent-items
//!   algorithms ([`protocol::FreqProtocol`]).
//! * [`query`] — the object-safe layer: [`query::DynProtocol`] (every
//!   `Protocol` blanket-erased behind [`query::ErasedMsg`]), the
//!   [`query::QuerySet`] registry, and typed [`query::QueryHandle`]s.
//! * [`envelope`] — instrumentation wrappers the runner adds around each
//!   link's message bundle: exact tree subtree counts, the in-band
//!   approximate Count of §4.2, and the per-subtree
//!   non-contribution extrema that drive the fine-grained TD strategy.
//!   Shared by every query in the bundle.
//! * [`runner`] — one epoch of level-synchronized execution over a
//!   [`td_topology::TdTopology`] (plus the pure-TAG baseline runner),
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
pub mod protocol;
pub mod query;
pub mod runner;
pub mod session;

pub use adapt::{AdaptAction, Adapter, AdapterConfig, Strategy};
pub use driver::{
    Driver, EpochView, FixedReadings, ScalarRun, SteppedEpoch, TrialBatch, TrialPool, Workload,
};
pub use protocol::{
    FreqProtocol, Protocol, QuantileOutput, QuantileProtocol, QuantileSynopsisSet, ScalarProtocol,
};
pub use query::{Answers, DynProtocol, ErasedMsg, QueryHandle, QuerySet};
pub use runner::{run_tag_epoch_set, run_td_epoch_set, EpochPlan, RunnerConfig, SetEpochOutput};
pub use session::{QueryRecord, Scheme, Session, SessionBuilder, SessionConfig};
