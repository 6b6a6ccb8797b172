//! Telemetry smoke + exporter: drives a scenario that touches every
//! epoch-lifecycle phase — plan **compile**, churn-driven **patch**,
//! per-level **randomness** pre-draw, per-level **execute**,
//! **merge**, stream **window fold**, and service **outbox drain** —
//! then exports the merged metric snapshot as
//! `results/telemetry_snapshot.json`, a Prometheus-text dump
//! (`telemetry_snapshot.prom`), and the buffered structured events as
//! JSONL (`telemetry_events.jsonl`).
//!
//! With telemetry compiled in (the default) it **asserts** that every
//! phase histogram is populated and the event ring is non-empty, so CI
//! can run this binary as the observability smoke test. Built with
//! `--no-default-features` it still writes the files — marked
//! `"telemetry_compiled": false`, with no phase histograms — proving
//! the export path itself needs no feature gates.

use td_bench::report::write_results_text;
use td_netsim::churn::ChurnSchedule;
use td_netsim::loss::Global;
use td_netsim::rng::rng_from_seed;
use td_service::{ServiceRuntime, Tenant, TenantPhase};
use td_stream::{EpochMerge, StreamQuery, StreamSession, WindowSpec};
use td_telemetry::phase::Phase;
use td_telemetry::{events, Level, Snapshot};
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, FixedReadings};
use tributary_delta::session::{Scheme, SessionBuilder};

const SENSORS: usize = 300;
const WARMUP: u64 = 2;
const EPOCHS: u64 = 30;

/// Stream scenario: a TD session whose levels are cut into two chunks
/// (workers = 2, floor lowered to 64 nodes) so the fan-out runs, with
/// churn injected every few epochs so the plan patch path runs, all
/// behind a windowed stream query so panes fold.
fn run_stream_scenario() {
    let net = Synthetic::small(SENSORS).build(3);
    let mut rng = rng_from_seed(0x7E1E);
    let session = SessionBuilder::new(Scheme::Td)
        .workers(2)
        .parallel_min_nodes(64)
        .build(&net, &mut rng);
    let mut stream = StreamSession::new(Driver::new(session, WARMUP));
    let _ = stream.register(
        StreamQuery::scalar(td_aggregates::sum::Sum::default())
            .window(WindowSpec::sliding(4, 1), EpochMerge::Add),
    );
    let readings: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 50).collect();
    let workload = FixedReadings(readings);
    let model = Global::new(0.1);
    let churn = ChurnSchedule::new(net.len(), 0.02, 5.0, 9);
    let mut reports = 0usize;
    for _ in 0..WARMUP + EPOCHS {
        let epoch = stream.driver().next_epoch();
        if epoch > WARMUP && epoch.is_multiple_of(5) {
            stream.inject_churn(&churn.events_at(epoch));
        }
        reports += stream.step(&workload, &model, &mut rng).len();
    }
    println!(
        "stream scenario: {} epochs, {reports} reports, comm {}",
        WARMUP + EPOCHS,
        stream.session().stats()
    );
}

/// Service scenario: a few tenants multiplexed on a two-worker runtime
/// and drained to their pause — the outbox-drain phase plus the
/// `service.*` counters. Returns the runtime's registry snapshot.
fn run_service_scenario() -> Snapshot {
    let runtime = ServiceRuntime::new(2);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let net = Synthetic::small(30).build(0xBE5E ^ i);
            let mut rng = rng_from_seed(0xCAFE ^ i);
            let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
            let mut stream = StreamSession::new(Driver::new(session, WARMUP));
            let _ = stream.register(
                StreamQuery::scalar(td_aggregates::sum::Sum::default())
                    .window(WindowSpec::sliding(4, 1), EpochMerge::Add),
            );
            let readings = vec![1 + i % 50; net.len()];
            let tenant = Tenant::builder(stream, FixedReadings(readings), Global::new(0.05))
                .seed(i)
                .run_until(WARMUP + 10)
                .outbox_capacity(16)
                .build();
            runtime.submit(tenant)
        })
        .collect();
    let mut drained = 0usize;
    let mut done = vec![false; handles.len()];
    let mut remaining = handles.len();
    while remaining > 0 {
        for (h, finished) in handles.iter().zip(&mut done) {
            if *finished {
                continue;
            }
            drained += h.drain(8).len();
            let st = h.status();
            if st.phase == TenantPhase::Paused && st.queued_reports == 0 {
                *finished = true;
                remaining -= 1;
            }
        }
        std::thread::yield_now();
    }
    let service_snapshot = runtime.telemetry().snapshot();
    let stats = runtime.shutdown();
    println!("service scenario: drained {drained} reports; {stats}");
    service_snapshot
}

fn main() {
    // Populate the event ring too (epoch, adapter, and service events),
    // without the stderr echo drowning the run.
    events::set_echo(false);
    events::set_level(Some(Level::Debug));

    run_stream_scenario();
    let service_snapshot = run_service_scenario();

    // One merged view: the process-global registry (phase histograms)
    // folded with the service runtime's own registry (service.*
    // counters). Snapshot merge is associative/commutative, so the
    // order is immaterial.
    let mut snap = td_telemetry::global().snapshot();
    snap.merge(&service_snapshot);

    write_results_text("telemetry_snapshot.json", &snap.to_json());
    write_results_text("telemetry_snapshot.prom", &snap.to_prometheus());
    let mut jsonl = Vec::new();
    let exported = events::export_jsonl(&mut jsonl).expect("in-memory write");
    write_results_text(
        "telemetry_events.jsonl",
        &String::from_utf8(jsonl).expect("events are utf-8"),
    );
    println!("exported {exported} structured events");

    if td_telemetry::compiled() {
        for p in Phase::ALL {
            let hist = snap
                .histogram(p.metric_name())
                .unwrap_or_else(|| panic!("phase histogram {} missing", p.metric_name()));
            assert!(
                !hist.is_empty(),
                "phase histogram {} is empty — the scenario no longer reaches it",
                p.metric_name()
            );
            println!(
                "  {}: n={} p50={:.0}ns p99={:.0}ns",
                p.metric_name(),
                hist.count(),
                hist.quantile(0.50),
                hist.quantile(0.99)
            );
        }
        assert!(
            snap.counter("service.epochs_driven") > 0,
            "service counters missing from the merged snapshot"
        );
        assert!(exported > 0, "event ring is empty at Debug level");
        println!(
            "telemetry smoke OK: all {} phases populated",
            Phase::ALL.len()
        );
    } else {
        assert!(
            snap.histograms.is_empty(),
            "no-telemetry build recorded phase histograms"
        );
        println!("telemetry compiled out: exported marker snapshot only");
    }
}
