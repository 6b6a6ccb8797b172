//! # td-service — a multi-tenant aggregation service
//!
//! The rest of the workspace simulates **one** sensor-network
//! aggregation at a time; a deployment hosts thousands. This crate is
//! the hosting layer: a [`ServiceRuntime`] owns a fixed pool of worker
//! threads and multiplexes many independent *tenants* across them,
//! where each tenant is a complete simulation — network, workload,
//! loss model, optional churn schedule, and a
//! [`StreamSession`](td_stream::StreamSession) of registered window
//! queries — advanced epoch-by-epoch through the same
//! [`Driver`](tributary_delta::Driver) machinery a standalone run
//! uses.
//!
//! Three disciplines define the layer:
//!
//! * **Sharded ownership.** Each tenant is hash-assigned to one worker
//!   and never migrates; workers share nothing mutable, so the hot
//!   path takes no cross-worker locks.
//! * **Bit-exact isolation.** Every tenant draws from its own
//!   [`tenant_rng`] substream and owns all of its mutable state, so
//!   its report stream is bit-identical to running it alone in a
//!   serial loop — on any worker count, under live add/remove and
//!   churn injection. The isolation tests pin exactly this.
//! * **Park, never drop.** Reports flow through a bounded per-tenant
//!   outbox; a full outbox parks the tenant until the consumer drains,
//!   and the pressure is visible in [`ServiceStats`] rather than paid
//!   in lost data.
//!
//! ## Quickstart
//!
//! ```
//! use td_aggregates::sum::Sum;
//! use td_netsim::loss::Global;
//! use td_netsim::network::Network;
//! use td_netsim::node::Position;
//! use td_netsim::rng::rng_from_seed;
//! use td_service::{ServiceRuntime, Tenant};
//! use td_stream::{EpochMerge, StreamQuery, StreamSession, WindowSpec};
//! use tributary_delta::driver::{Driver, FixedReadings};
//! use tributary_delta::session::{Scheme, SessionBuilder};
//!
//! // One tenant = one self-contained aggregation world.
//! let mut rng = rng_from_seed(7);
//! let net = Network::random_connected(40, 10.0, 10.0, Position::new(5.0, 5.0), 2.5, &mut rng);
//! let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
//! let mut stream = StreamSession::new(Driver::new(session, 0));
//! stream.register(
//!     StreamQuery::scalar(Sum::default()).window(WindowSpec::sliding(4, 1), EpochMerge::Add),
//! );
//! let tenant = Tenant::builder(stream, FixedReadings(vec![1; net.len()]), Global::new(0.05))
//!     .seed(7)
//!     .run_until(12) // pause after epochs 0..12 — a deterministic stop
//!     .build();
//!
//! // Submit it to a two-worker runtime and drain its reports.
//! let runtime = ServiceRuntime::new(2);
//! let handle = runtime.submit(tenant);
//! let mut reports = Vec::new();
//! while handle.status().epochs_driven < 12 || handle.status().queued_reports > 0 {
//!     reports.extend(handle.drain(64));
//! }
//! assert!(reports.iter().all(|r| r.report.answer > 0.0));
//! let stats = runtime.shutdown();
//! println!("{stats}");
//! assert_eq!(stats.epochs_driven, 12);
//! assert_eq!(stats.reports_dropped, 0); // park-not-drop
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod outbox;
mod runtime;
mod stats;
mod tenant;

pub use outbox::TenantReport;
pub use runtime::{ServiceRuntime, TenantHandle};
pub use stats::ServiceStats;
pub use tenant::{Tenant, TenantBuilder, TenantId, TenantPhase, TenantStatus};

use rand::rngs::StdRng;
use td_netsim::rng::substream;

/// Substream salt separating tenant RNGs from every other consumer of
/// the same seed: a tenant seeded `s` never shares draws with the root
/// stream of `s` or with the substreams an experiment derives from it.
pub const TENANT_STREAM_SALT: u64 = 0x7D5E_7E4A;

/// The RNG for the tenant seeded `seed` — the substream discipline
/// that makes a tenant's draws independent of every other tenant and
/// of scheduling. [`TenantBuilder::seed`] uses this; a serial
/// reference run must use it too to reproduce a service tenant
/// bit-for-bit.
pub fn tenant_rng(seed: u64) -> StdRng {
    substream(seed, TENANT_STREAM_SALT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn tenant_rng_is_the_pinned_substream() {
        let mut a = tenant_rng(42);
        let mut b = substream(42, TENANT_STREAM_SALT);
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
        // Distinct from the root stream and the low-salt substreams of
        // the same seed.
        let first = tenant_rng(42).gen::<u64>();
        assert_ne!(first, td_netsim::rng::rng_from_seed(42).gen::<u64>());
        for salt in 0..4 {
            assert_ne!(first, substream(42, salt).gen::<u64>());
        }
    }
}
