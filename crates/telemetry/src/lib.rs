//! Observability layer for the Tributary-Delta suite.
//!
//! Three pieces, designed so the hot path never takes a cross-thread
//! lock:
//!
//! - [`registry`] — a metrics registry of counters, gauges, and
//!   fixed-bucket latency histograms. Every metric is **sharded**: each
//!   recording thread updates its own cache-padded atomic slot with
//!   `Relaxed` ordering, and shards are merged only when a
//!   [`Snapshot`] is taken. The registry's lock is touched only at
//!   metric registration and snapshot time, never per-record.
//! - [`events`] — structured events keyed by the *logical* clock of
//!   the system ([`LogicalClock`]: epoch, ring level, schedule slot,
//!   tenant id) with wall-clock attached as an annotation, filtered at
//!   runtime by a `TD_LOG`-style level filter (silent by default),
//!   buffered in a bounded ring whose evictions are counted, and
//!   exportable as JSONL.
//! - [`phase`] — stopwatches for the seven epoch-lifecycle phases
//!   (compile, patch, precompute-randomness, per-level execute, merge,
//!   window fold, outbox drain), recorded into histograms in the
//!   process-global registry.
//!
//! # Inertness
//!
//! Telemetry never touches an RNG or a result path, so a run with
//! event recording off is bit-identical to one traced at `Trace` —
//! pinned, with a fixed-seed digest, by the workspace's
//! `e2e_telemetry` tests.
//!
//! # Example
//!
//! ```
//! use td_telemetry::{global, phase, Level, LogicalClock};
//!
//! // Metrics: handles are cheap clones; recording is lock-free.
//! let reqs = global().counter("doc.requests");
//! reqs.add(3);
//!
//! // Phases: time a block into a global histogram.
//! let sw = phase::stopwatch();
//! let answer = 6 * 7;
//! phase::record(phase::Phase::Merge, sw);
//!
//! // Events: silent unless a level filter enables them.
//! td_telemetry::td_event!(
//!     Level::Debug, "doc", "answer",
//!     LogicalClock::at_epoch(1),
//!     value = answer as u64,
//! );
//!
//! let snap = global().snapshot();
//! assert_eq!(snap.counter("doc.requests"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod json;
pub mod phase;
pub mod registry;
pub mod snapshot;

pub use events::{Event, FieldValue, Level, LogicalClock};
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use snapshot::{HistogramSnapshot, Snapshot};

use std::sync::OnceLock;

/// The process-global registry used by [`phase`] hooks and the
/// [`td_event!`]-adjacent counters.
///
/// Layers that need isolation (one [`Registry`] per service runtime,
/// say) create their own instances; the global one aggregates
/// process-wide phase profiles.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}
