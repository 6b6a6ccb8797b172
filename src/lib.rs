//! # td-suite — umbrella crate for the Tributary-Delta reproduction
//!
//! Re-exports every crate in the workspace under one roof so examples and
//! integration tests can use a single dependency. See the individual crates
//! for documentation:
//!
//! - [`netsim`] — the sensor-network simulator substrate
//! - [`topology`] — TAG trees, rings, bushy trees, labeled TD graphs
//! - [`sketches`] — duplicate-insensitive synopses (FM)
//! - [`aggregates`] — Count/Sum/Min/Max/Average in the SG/SF/SE framework
//! - [`quantiles`] — Greenwald–Khanna summaries with precision gradients
//! - [`frequent`] — the paper's frequent-items algorithms (§6)
//! - [`core`] — the Tributary-Delta framework: the **multi-query session
//!   engine** (`SessionBuilder` → `QuerySet` → one traversal for N
//!   queries), the scenario `Driver`, and the adaptation strategies (§3–4)
//! - [`workloads`] — LabData / Synthetic scenarios, failure models, and
//!   their `Workload` adapters for the driver (§7.1)
//! - [`stream`] — the cross-epoch streaming window engine:
//!   tumbling/sliding/landmark windows over the session engine, one
//!   shared pane series per protocol (extension)
//! - [`service`] — the multi-tenant hosting layer: a fixed worker pool
//!   multiplexing thousands of independent tenant sessions with sharded
//!   ownership, bounded outboxes, and bit-deterministic isolation
//!   (extension)
//! - [`telemetry`] — lock-free sharded metrics, structured events keyed
//!   by the logical clock, and epoch-lifecycle phase profiling, provably
//!   inert (extension)
//!
//! The typical entry point is the session engine:
//!
//! ```
//! use td_suite::core::protocol::ScalarProtocol;
//! use td_suite::core::query::QuerySet;
//! use td_suite::core::session::{Scheme, SessionBuilder};
//! use td_suite::netsim::loss::Global;
//! use td_suite::netsim::rng::rng_from_seed;
//! use td_suite::workloads::synthetic::Synthetic;
//!
//! let net = Synthetic::small(120).build(1);
//! let mut rng = rng_from_seed(2);
//! let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
//!
//! // Any number of heterogeneous queries, one traversal per epoch.
//! let values = vec![1u64; net.len()];
//! let count = ScalarProtocol::new(td_suite::aggregates::count::Count::default(), &values);
//! let sum = ScalarProtocol::new(td_suite::aggregates::sum::Sum::default(), &values);
//! let mut set = QuerySet::new();
//! let h_count = set.register(&count);
//! let h_sum = set.register(&sum);
//! let rec = session.run_set(&set, &Global::new(0.1), 0, &mut rng);
//! // Two answers, one traversal (the estimates are independent sketch
//! // draws, so only sanity is asserted here).
//! assert!(*rec.answers.get(h_count) > 0.0);
//! assert!(*rec.answers.get(h_sum) > 0.0);
//! ```

// Compile and run the README's code blocks as doctests, so the
// quickstart can never rot (`cargo test --doc -p td-suite`).
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use td_aggregates as aggregates;
pub use td_frequent as frequent;
pub use td_netsim as netsim;
pub use td_quantiles as quantiles;
pub use td_service as service;
pub use td_sketches as sketches;
pub use td_stream as stream;
pub use td_telemetry as telemetry;
pub use td_topology as topology;
pub use td_workloads as workloads;
pub use tributary_delta as core;
