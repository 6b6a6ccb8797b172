//! End-to-end service-layer pins:
//!
//! (a) **tenant isolation** — N tenants with distinct seeds, hosted on
//!     1, 2, and 8 workers, each produce a report stream bit-identical
//!     to stepping the same tenant alone in a serial loop, including
//!     tenants driven under churn schedules and a mid-run reconfigure
//!     (register a second query, inject churn, deregister) applied at a
//!     pinned epoch through the handle;
//! (b) **park-not-drop backpressure** — a capacity-1 outbox parks the
//!     tenant (visible in `ServiceStats`) and still loses nothing;
//! (c) **deterministic drain-on-remove** — removing a live tenant
//!     returns exactly a prefix of its serial report stream, cut at an
//!     epoch boundary.

use proptest::prelude::*;
use td_suite::aggregates::sum::Sum;
use td_suite::core::driver::{Driver, FixedReadings};
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::netsim::churn::{ChurnEvents, ChurnSchedule};
use td_suite::netsim::loss::Global;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::{NodeId, Position};
use td_suite::netsim::rng::rng_from_seed;
use td_suite::service::{tenant_rng, ServiceRuntime, Tenant, TenantHandle, TenantPhase};
use td_suite::stream::{EpochMerge, StreamQuery, StreamSession, WindowReport, WindowSpec};

/// Everything determinism-relevant about a report, answer bit-exact.
type Fingerprint = (usize, usize, u64, u64, u64, u64, u64, u64, u32);

fn fingerprint(r: &WindowReport) -> Fingerprint {
    (
        r.handle.query,
        r.handle.window,
        r.start_epoch,
        r.end_epoch,
        r.answer.to_bits(),
        r.coverage.to_bits(),
        r.nodes_joined,
        r.nodes_left,
        r.relabels,
    )
}

/// One tenant's blueprint: enough to build it twice — once for the
/// service, once for the serial reference.
#[derive(Clone)]
struct Blueprint {
    seed: u64,
    sensors: usize,
    scheme: Scheme,
    loss: f64,
    warmup: u64,
    churn: bool,
}

impl Blueprint {
    fn network(&self) -> Network {
        let mut rng = rng_from_seed(self.seed ^ 0xBEEF);
        Network::random_connected(
            self.sensors,
            10.0,
            10.0,
            Position::new(5.0, 5.0),
            2.5,
            &mut rng,
        )
    }

    fn session(&self, net: &Network) -> StreamSession {
        let mut rng = rng_from_seed(self.seed ^ 0xCAFE);
        let session = SessionBuilder::new(self.scheme).build(net, &mut rng);
        let mut stream = StreamSession::new(Driver::new(session, self.warmup));
        let _ = stream.register(
            StreamQuery::scalar(Sum::default())
                .window(WindowSpec::sliding(4, 1), EpochMerge::Add)
                .window(WindowSpec::landmark(), EpochMerge::Mean),
        );
        stream
    }

    fn schedule(&self, net: &Network) -> Option<ChurnSchedule> {
        self.churn
            .then(|| ChurnSchedule::new(net.len(), 0.04, 4.0, self.seed ^ 0xD00D))
    }

    fn second_query() -> StreamQuery<td_suite::stream::ScalarQuery<Sum>> {
        StreamQuery::scalar(Sum::default()).window(WindowSpec::tumbling(2), EpochMerge::Add)
    }

    fn injected_events(epoch: u64) -> ChurnEvents {
        ChurnEvents {
            epoch,
            joined: vec![],
            left: vec![NodeId(3), NodeId(5)],
            absent: vec![NodeId(3), NodeId(5)],
        }
    }

    /// The serial ground truth: step the same pieces by hand through
    /// the scripted reconfiguration (pause at `e1`: add a query, inject
    /// churn; pause at `e2`: deregister query 0; run to `e3`).
    fn serial(&self, e1: u64, e2: u64, e3: u64) -> Vec<Fingerprint> {
        let net = self.network();
        let mut session = self.session(&net);
        let workload = FixedReadings(vec![2; net.len()]);
        let model = Global::new(self.loss);
        let schedule = self.schedule(&net);
        let mut rng = tenant_rng(self.seed);
        let mut out = Vec::new();
        let step = |s: &mut StreamSession, rng: &mut rand::rngs::StdRng| match &schedule {
            Some(sched) => s.step_under_churn(&workload, &model, sched, rng),
            None => s.step(&workload, &model, rng),
        };
        for _ in 0..e1 {
            out.extend(step(&mut session, &mut rng));
        }
        let _ = session.register(Self::second_query());
        session.inject_churn(&Self::injected_events(e1));
        for _ in e1..e2 {
            out.extend(step(&mut session, &mut rng));
        }
        session.deregister(0).expect("query 0 is deregisterable");
        for _ in e2..e3 {
            out.extend(step(&mut session, &mut rng));
        }
        out.iter().map(fingerprint).collect()
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, cond: F) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

/// Drain until the tenant is paused at `target` epochs with nothing
/// queued. Draining while waiting matters twice over: a tenant whose
/// reports overflow its outbox parks and cannot reach its pause until
/// someone makes room, and "paused" alone is ambiguous right after a
/// `resume` (the worker may not have seen the new bound yet), so the
/// epoch target is what actually anchors the rendezvous.
fn drain_paused(handle: &TenantHandle, target: u64, sink: &mut Vec<WindowReport>) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let got = handle.drain(16);
        let was_empty = got.is_empty();
        sink.extend(got.into_iter().map(|t| t.report));
        if was_empty {
            let st = handle.status();
            if st.epochs_driven >= target
                && st.phase == TenantPhase::Paused
                && st.queued_reports == 0
            {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out draining to pause at {target} (status {st:?})"
            );
            std::thread::yield_now();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// (a) bit-exact tenant isolation on 1, 2, and 8 workers, with a
    /// scripted mid-run reconfiguration on every tenant.
    #[test]
    fn tenants_are_bit_identical_to_serial_runs(base in 10_000u64..40_000) {
        let blueprints: Vec<Blueprint> = (0..5u64)
            .map(|i| Blueprint {
                seed: base.wrapping_mul(31).wrapping_add(i * 977),
                sensors: 30 + (i as usize) * 7,
                scheme: [Scheme::Tag, Scheme::Td, Scheme::TdCoarse][i as usize % 3],
                loss: 0.05 + 0.04 * i as f64,
                warmup: i % 3,
                churn: i % 2 == 1,
            })
            .collect();
        let (e1, e2, e3) = (5u64, 9u64, 13u64);
        let serial: Vec<Vec<Fingerprint>> =
            blueprints.iter().map(|b| b.serial(e1, e2, e3)).collect();

        for workers in [1usize, 2, 8] {
            let runtime = ServiceRuntime::new(workers);
            let handles: Vec<TenantHandle> = blueprints
                .iter()
                .map(|b| {
                    let net = b.network();
                    let mut builder = Tenant::builder(
                        b.session(&net),
                        FixedReadings(vec![2; net.len()]),
                        Global::new(b.loss),
                    )
                    .seed(b.seed)
                    .run_until(e1)
                    .outbox_capacity(8);
                    if let Some(sched) = b.schedule(&net) {
                        builder = builder.churn(sched);
                    }
                    runtime.submit(builder.build())
                })
                .collect();

            let mut streams: Vec<Vec<WindowReport>> = vec![Vec::new(); handles.len()];
            // Phase 1: run to the first pause, then reconfigure. The
            // pause makes the epoch-addressed ops race-free: queue them
            // first, resume last.
            for (h, sink) in handles.iter().zip(&mut streams) {
                drain_paused(h, e1, sink);
                let wh = h.register_at(e1, Blueprint::second_query());
                prop_assert_eq!(wh.len(), 1);
                prop_assert_eq!(wh[0].query, 1);
                h.inject_churn_at(e1, Blueprint::injected_events(e1));
                h.resume(Some(e2));
            }
            // Phase 2: deregister the original query at the second
            // pause, then run to the end.
            for (h, sink) in handles.iter().zip(&mut streams) {
                drain_paused(h, e2, sink);
                h.deregister_at(e2, 0);
                h.resume(Some(e3));
            }
            for (h, sink) in handles.iter().zip(&mut streams) {
                drain_paused(h, e3, sink);
            }

            let stats = runtime.shutdown();
            prop_assert_eq!(stats.reports_dropped, 0, "park-not-drop violated");
            prop_assert_eq!(stats.late_ops, 0, "an op missed its epoch");
            prop_assert_eq!(stats.rejected_ops, 0);
            prop_assert_eq!(
                stats.epochs_driven,
                e3 * handles.len() as u64,
                "every tenant runs exactly e3 epochs"
            );
            prop_assert_eq!(stats.workers, workers);
            prop_assert_eq!(
                stats.shard_occupancy.iter().sum::<u64>(),
                stats.tenants_live
            );

            for (i, (sink, expect)) in streams.iter().zip(&serial).enumerate() {
                let got: Vec<Fingerprint> = sink.iter().map(fingerprint).collect();
                prop_assert_eq!(
                    &got,
                    expect,
                    "tenant {} diverged from its serial run on {} workers",
                    i,
                    workers
                );
            }
        }
    }
}

/// (b) a full outbox parks the tenant — time, not data loss; an outbox
/// that holds the tenant's full report budget never parks at all.
#[test]
fn full_outbox_parks_and_never_drops() {
    let bp = Blueprint {
        seed: 4242,
        sensors: 40,
        scheme: Scheme::Td,
        loss: 0.1,
        warmup: 0,
        churn: false,
    };
    let epochs = 20u64;
    // Serial reference: plain step loop, no reconfiguration.
    let net = bp.network();
    let mut session = bp.session(&net);
    let workload = FixedReadings(vec![2; net.len()]);
    let model = Global::new(bp.loss);
    let mut rng = tenant_rng(bp.seed);
    let mut serial = Vec::new();
    for _ in 0..epochs {
        serial.extend(session.step(&workload, &model, &mut rng));
    }

    for capacity in [1, serial.len()] {
        let runtime = ServiceRuntime::new(2);
        let handle = runtime.submit(
            Tenant::builder(bp.session(&net), workload.clone(), model)
                .seed(bp.seed)
                .run_until(epochs)
                .outbox_capacity(capacity)
                .build(),
        );
        if capacity == 1 {
            // Don't drain until the tenant is visibly parked on its
            // 1-slot outbox (each epoch emits 2+ reports, so pressure is
            // immediate).
            wait_for("tenant parks", || {
                handle.status().phase == TenantPhase::Parked
            });
        }
        let mut reports = Vec::new();
        drain_paused(&handle, epochs, &mut reports);
        let stats = runtime.shutdown();
        if capacity == 1 {
            assert!(stats.parks > 0, "capacity-1 outbox never parked: {stats}");
            assert!(stats.park_nanos > 0);
        } else {
            assert_eq!(stats.parks, 0, "full-budget outbox parked: {stats}");
        }
        assert_eq!(stats.reports_dropped, 0, "parked tenant dropped reports");
        assert_eq!(stats.epochs_driven, epochs);
        assert_eq!(
            reports.iter().map(fingerprint).collect::<Vec<_>>(),
            serial.iter().map(fingerprint).collect::<Vec<_>>(),
            "backpressured stream diverged from serial (capacity {capacity})"
        );
    }
}

/// (c) removing a live tenant yields exactly a prefix of its serial
/// stream, cut at an epoch boundary, with nothing lost in the cut.
#[test]
fn remove_drains_a_deterministic_epoch_prefix() {
    let bp = Blueprint {
        seed: 777,
        sensors: 40,
        scheme: Scheme::Tag,
        loss: 0.05,
        warmup: 1,
        churn: false,
    };
    let net = bp.network();
    let workload = FixedReadings(vec![2; net.len()]);
    let model = Global::new(bp.loss);

    let runtime = ServiceRuntime::new(2);
    let handle = runtime.submit(
        Tenant::builder(bp.session(&net), workload.clone(), model)
            .seed(bp.seed)
            .build(), // no run_until: free-running until removed
    );
    wait_for("some progress", || handle.status().epochs_driven >= 5);
    let removed = handle.remove();
    let stats = runtime.shutdown();
    assert_eq!(stats.tenants_removed, 1);
    assert_eq!(stats.tenants_live, 0);
    assert_eq!(stats.reports_dropped, 0);
    // The drain is every report from warmup..cut — a prefix of serial,
    // 2 reports per measured epoch.
    let got: Vec<Fingerprint> = removed.iter().map(|t| fingerprint(&t.report)).collect();
    assert!(!got.is_empty(), "removed before producing anything");
    assert_eq!(got.len() % 2, 0, "cut split an epoch's report pair");
    // Serial reference at least as long as the drain (the tenant runs
    // freely until the removal lands, so its length is not known up
    // front). Reports per measured epoch are fixed (2 windows), so an
    // epoch-boundary cut is a clean slice.
    let mut session = bp.session(&net);
    let mut rng = tenant_rng(bp.seed);
    let mut serial = Vec::new();
    while serial.len() < got.len() {
        serial.extend(session.step(&workload, &model, &mut rng));
    }
    assert_eq!(
        got.as_slice(),
        &serial.iter().map(fingerprint).collect::<Vec<_>>()[..got.len()],
        "removed tenant's stream is not a serial prefix"
    );
}
