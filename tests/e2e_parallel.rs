//! End-to-end pins for the query-column fan-out: an epoch runs each
//! registered query's column as one job, on `min(workers, queries)`
//! threads, so every pin here registers the five-query bundle — Sum,
//! Count, Max, frequent items and a q-digest — and runs with
//! `parallel_min_nodes(0)`, so that the fan-out really engages at test
//! scale:
//!
//! (a) **bit-identity** — for every scheme (TAG, SD, TD, TD-Coarse),
//!     running the same session at 1, 2, 3 and 8 workers produces
//!     bit-identical per-epoch answers, instrumentation, adaptation
//!     trajectory, communication accounting, and — because every loss
//!     outcome is drawn on the calling thread before any column runs —
//!     an identical RNG stream afterwards;
//! (b) **under churn and plan patching** — the same holds through
//!     `StreamSession::step_under_churn`, where epochs interleave with
//!     structural churn patches and §4.2 relabels, window reports
//!     included;
//! (c) **through the service layer** — a tenant whose session asks for
//!     8 workers is pinned serial by `ServiceRuntime::submit` (the
//!     runtime's own worker pool is the parallelism) and its report
//!     stream still matches the serial single-worker reference exactly.

use proptest::prelude::*;
use rand::Rng;
use td_suite::aggregates::count::Count;
use td_suite::aggregates::minmax::Max;
use td_suite::aggregates::sum::Sum;
use td_suite::core::driver::{Driver, FixedReadings};
use td_suite::core::protocol::{FreqProtocol, QuantileProtocol, ScalarProtocol};
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::frequent::items::ItemBag;
use td_suite::frequent::multipath::MultipathConfig;
use td_suite::netsim::churn::ChurnSchedule;
use td_suite::netsim::loss::Global;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::netsim::stats::CommStats;
use td_suite::quantiles::gradient::MinTotalLoad;
use td_suite::service::{tenant_rng, ServiceRuntime, Tenant, TenantHandle, TenantPhase};
use td_suite::sketches::counter::ExactFactory;
use td_suite::stream::{
    EpochMerge, FreqStreamQuery, QuantileStreamQuery, StreamQuery, StreamSession, WindowReport,
    WindowSpec,
};

/// One epoch's determinism-relevant record: the bundle's answers (bits
/// or `Debug` text), contributing count, delta size, adaptation action.
type EpochRecord = ([u64; 3], String, String, usize, usize, String);
/// Everything determinism-relevant about a window report, answer
/// bit-exact, set-valued panes by their `Debug` text.
type Fingerprint = (usize, usize, u64, u64, u64, u64, u64, u64, u32, String);

/// q-digest universe: readings below 2^10.
const QD_BITS: u32 = 10;

fn build_net(seed: u64, sensors: usize) -> Network {
    let mut rng = rng_from_seed(seed);
    Network::random_connected(sensors, 14.0, 14.0, Position::new(7.0, 7.0), 2.6, &mut rng)
}

/// Per-node item bags: one heavy item everywhere, a light one per
/// residue class, and every fifth node empty.
fn bags(net: &Network, salt: u64) -> Vec<ItemBag> {
    (0..net.len() as u64)
        .map(|i| {
            if i == 0 || (i + salt).is_multiple_of(5) {
                ItemBag::new()
            } else {
                ItemBag::from_counts([(1, 6), (10 + (i + salt) % 4, 2)])
            }
        })
        .collect()
}

fn freq_config(bags: &[ItemBag]) -> MultipathConfig<ExactFactory> {
    let total: u64 = bags.iter().map(|b| b.total()).sum();
    MultipathConfig::new(0.01, 1.5, total.max(1) * 2, ExactFactory)
}

/// One full run at a given worker count: per-epoch records of the
/// five-query bundle, the final comm accounting, and one RNG draw taken
/// *after* the run — equal draws mean the fan-out consumed exactly the
/// sequential random stream.
fn history(
    scheme: Scheme,
    net: &Network,
    values: &[u64],
    loss: f64,
    workers: usize,
    seed: u64,
) -> (Vec<EpochRecord>, CommStats, u64) {
    let mut rng = rng_from_seed(seed);
    let mut session = SessionBuilder::new(scheme)
        .adapt_every(3)
        .workers(workers)
        .parallel_min_nodes(0)
        .build(net, &mut rng);
    let model = Global::new(loss);
    let mut outs = Vec::new();
    for epoch in 0..12u64 {
        let bags = bags(net, epoch);
        let sum = ScalarProtocol::new(Sum::default(), values);
        let count = ScalarProtocol::new(Count::default(), values);
        let max = ScalarProtocol::new(Max, values);
        let freq = FreqProtocol::new(
            freq_config(&bags),
            MinTotalLoad::new(0.01, 2.25),
            0.15,
            &bags,
        );
        let digest = QuantileProtocol::qdigest(QD_BITS, MinTotalLoad::new(0.02, 2.25), values);
        let mut set = QuerySet::new();
        let scalars = [set.register(&sum), set.register(&count), set.register(&max)];
        let h_freq = set.register(&freq);
        let h_digest = set.register(&digest);
        let rec = session.run_set(&set, &model, epoch, &mut rng);
        outs.push((
            scalars.map(|h| rec.answers.get(h).to_bits()),
            format!("{:?}", rec.answers.get(h_freq)),
            format!("{:?}", rec.answers.get(h_digest)),
            rec.contributing,
            rec.delta_size,
            format!("{:?}", rec.action),
        ));
    }
    (outs, session.stats().clone(), rng.gen::<u64>())
}

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
        format!("{:?} {:?}", r.freq, r.quantile),
    )
}

/// A stream session over the five-query bundle, windowed.
fn bundle_stream(
    scheme: Scheme,
    net: &Network,
    adapt_every: Option<u64>,
    workers: usize,
    seed: u64,
) -> StreamSession {
    let mut rng = rng_from_seed(seed);
    let mut builder = SessionBuilder::new(scheme)
        .workers(workers)
        .parallel_min_nodes(0);
    if let Some(every) = adapt_every {
        builder = builder.adapt_every(every);
    }
    let session = builder.build(net, &mut rng);
    let mut stream = StreamSession::new(Driver::new(session, 1));
    let _ = stream.register(
        StreamQuery::scalar(Sum::default())
            .window(WindowSpec::sliding(3, 1), EpochMerge::Add)
            .window(WindowSpec::tumbling(2), EpochMerge::Mean),
    );
    let _ = stream.register(
        StreamQuery::scalar(Count::default()).window(WindowSpec::sliding(3, 1), EpochMerge::Add),
    );
    let _ = stream
        .register(StreamQuery::scalar(Max).window(WindowSpec::sliding(3, 1), EpochMerge::Add));
    let bags_by_epoch: Vec<Vec<ItemBag>> = (0..3).map(|s| bags(net, s)).collect();
    let _ = stream.register(
        StreamQuery::new(FreqStreamQuery::new(
            freq_config(&bags_by_epoch[0]),
            MinTotalLoad::new(0.01, 2.25),
            0.15,
            bags_by_epoch,
        ))
        .window(WindowSpec::sliding(2, 1), EpochMerge::Add),
    );
    let _ = stream.register(
        StreamQuery::new(QuantileStreamQuery::qdigest(
            QD_BITS,
            MinTotalLoad::new(0.02, 2.25),
        ))
        .window(WindowSpec::sliding(3, 1), EpochMerge::Add),
    );
    stream
}

/// A windowed streaming run under churn at a given worker count.
fn stream_run(
    scheme: Scheme,
    net: &Network,
    loss: f64,
    workers: usize,
    seed: u64,
) -> Vec<Fingerprint> {
    let mut stream = bundle_stream(scheme, net, Some(4), 1, seed ^ 0x57E9);
    stream.set_workers(workers);
    let mut rng = rng_from_seed(seed ^ 0x57EA);
    let workload = FixedReadings((0..net.len() as u64).map(|i| 3 + i % 17).collect());
    let model = Global::new(loss);
    let schedule = ChurnSchedule::new(net.len(), 0.05, 3.0, seed ^ 0xC4A9);
    let mut out = Vec::new();
    for _ in 0..14 {
        out.extend(
            stream
                .step_under_churn(&workload, &model, &schedule, &mut rng)
                .iter()
                .map(fingerprint),
        );
    }
    out
}

fn wait_drained(handle: &TenantHandle, target: u64) -> Vec<Fingerprint> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let mut out = Vec::new();
    loop {
        let got = handle.drain(16);
        let was_empty = got.is_empty();
        out.extend(got.into_iter().map(|t| fingerprint(&t.report)));
        if was_empty {
            let st = handle.status();
            if st.epochs_driven >= target
                && st.phase == TenantPhase::Paused
                && st.queued_reports == 0
            {
                return out;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out draining tenant to epoch {target} (status {st:?})"
            );
            std::thread::yield_now();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) every scheme × workers {1, 2, 3, 8}: answers, stats, and
    /// the RNG stream are bit-identical, adaptation relabels included.
    #[test]
    fn every_scheme_is_bit_identical_across_worker_counts(
        seed in 0u64..1_000,
        loss_pct in 0u32..36,
        sensors in 60usize..120,
    ) {
        let net = build_net(41_000 + seed, sensors);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + (i * 37) % 900).collect();
        let loss = loss_pct as f64 / 100.0;
        for scheme in Scheme::all() {
            let baseline = history(scheme, &net, &values, loss, 1, 90 + seed);
            for workers in [2usize, 3, 8] {
                let parallel = history(scheme, &net, &values, loss, workers, 90 + seed);
                prop_assert_eq!(
                    &baseline, &parallel,
                    "{} diverged at {} workers", scheme.name(), workers
                );
            }
        }
    }

    /// (b) streaming under churn: window reports are bit-identical
    /// across worker counts while plans patch for churn and relabels.
    #[test]
    fn windowed_churn_streams_are_bit_identical_across_worker_counts(
        seed in 0u64..1_000,
        loss_pct in 0u32..31,
    ) {
        let net = build_net(52_000 + seed, 80);
        let loss = loss_pct as f64 / 100.0;
        for scheme in [Scheme::Tag, Scheme::Td, Scheme::TdCoarse] {
            let baseline = stream_run(scheme, &net, loss, 1, seed);
            for workers in [2usize, 3, 8] {
                let parallel = stream_run(scheme, &net, loss, workers, seed);
                prop_assert_eq!(
                    &baseline, &parallel,
                    "{} stream diverged at {} workers", scheme.name(), workers
                );
            }
        }
    }
}

/// (c) the service layer pins tenants serial: a tenant built from a
/// session that asked for 8 workers produces exactly the serial
/// reference's reports (the pin is pure scheduling — results would be
/// bit-identical either way, which is what makes it safe).
#[test]
fn service_tenants_asking_for_workers_match_the_serial_reference() {
    let seed = 0xD17A;
    let net = build_net(seed, 50);
    let epochs = 12u64;
    let loss = 0.1;
    let readings = || FixedReadings((0..net.len() as u64).map(|i| 2 + i % 13).collect());

    // Serial reference: explicitly one worker, stepped by hand.
    let mut serial = bundle_stream(Scheme::Td, &net, None, 1, seed ^ 0xCAFE);
    let workload = readings();
    let model = Global::new(loss);
    let mut rng = tenant_rng(seed);
    let mut reference = Vec::new();
    for _ in 0..epochs {
        reference.extend(
            serial
                .step(&workload, &model, &mut rng)
                .iter()
                .map(fingerprint),
        );
    }

    // Service run: the tenant's session asks for 8 workers; submit
    // pins it back to serial-per-tenant.
    let runtime = ServiceRuntime::new(2);
    let handle = runtime.submit(
        Tenant::builder(
            bundle_stream(Scheme::Td, &net, None, 8, seed ^ 0xCAFE),
            readings(),
            Global::new(loss),
        )
        .seed(seed)
        .run_until(epochs)
        .outbox_capacity(64)
        .build(),
    );
    let drained = wait_drained(&handle, epochs);
    assert!(reference.len() > 5 * epochs as usize / 2, "too few reports");
    assert_eq!(reference, drained);
}
