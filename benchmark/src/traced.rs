//! The traced run of one workload: a shortened copy of the measured run
//! (same seed, an eighth of the minimum epochs) driven untraced and then
//! at every rung of the ladder with spans recorded, the hosting rung,
//! and the isolated probes. Produces every per-layer metric.

use std::collections::BTreeMap;
use std::path::Path;

use td_telemetry::Level;
use tributary_delta::runner::RunnerConfig;
use tributary_delta::session::{Scheme, SessionBuilder};

use crate::calib::Calibrator;
use crate::catalog;
use crate::clock;
use crate::hosting::{self, Hosting};
use crate::ladder::{self, Rung};
use crate::meter::Meter;
use crate::probes;
use crate::run::{self, Drive, RoundCounters, RunCfg};
use crate::scenario::{tenant_parts, LossSpec, ServiceSpec, SingleSpec, Spec, World, SERVICE_256};
use crate::stats;
use crate::trace;

/// The single-session ladder of `service_256` runs on one tenant-sized
/// world: the TD tenant's configuration, stepped alone.
const TENANT_LADDER: SingleSpec = SingleSpec {
    name: "service_256",
    sensors: SERVICE_256.sensors,
    session: || SessionBuilder::new(Scheme::Td),
    static_plan: false,
    loss: LossSpec::Global(0.15),
    churn: false,
    bundle: false,
    sum_window: crate::scenario::TENANT_WINDOW,
    warmup: 4,
    block: 256,
    min_epochs: 8192,
    parallel_share: 0.0,
    setups: 1,
};

/// Rounds of the hosting rung on workloads other than `service_256`.
const SIDE_HOSTING_ROUNDS: u64 = 16;

/// The result of one traced run.
pub struct Traced {
    /// Every per-layer metric by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Expected window reports of the shortened untraced copy.
    pub attempted: u64,
    /// Missing or invalid ones.
    pub failed: u64,
    /// Everything else the gate objects to.
    pub violations: Vec<String>,
    /// The ladder, one line per rung, for the log.
    pub ladder: Vec<String>,
}

const PHASE_SHARE_METRICS: [&str; 7] = [
    "telemetry.phase_compile_share",
    "telemetry.phase_patch_share",
    "telemetry.phase_randomness_share",
    "telemetry.phase_level_execute_share",
    "telemetry.phase_merge_share",
    "telemetry.phase_window_fold_share",
    "telemetry.phase_outbox_drain_share",
];

/// What the single-session ladder measured.
struct LadderOut {
    draws: Rung,
    runner: Rung,
    session: Rung,
    driver: Rung,
    stream: Rung,
    w1: Rung,
    w2: Rung,
    debug_events: Rung,
    world: World,
    violations: Vec<String>,
}

fn single_ladder(spec: SingleSpec, seed: u64, cal: &mut Calibrator, epochs: u64) -> LadderOut {
    let mut violations = Vec::new();
    let (stream, structure, world) =
        ladder::rung_stream(World::new(spec, seed), true, "stream", cal, epochs);
    let driver = ladder::rung_session(&world, true, cal, epochs);
    let session = ladder::rung_session(&world, false, cal, epochs);
    let configured: RunnerConfig = (spec.session)().config().runner;
    let runner = ladder::rung_runner(&world, &structure, configured, "runner", cal, epochs);
    let with_workers = |workers: usize, name: &'static str, cal: &mut Calibrator| {
        if configured.effective_workers() == workers {
            let mut same = runner.clone();
            same.name = name;
            same
        } else {
            let config = RunnerConfig {
                workers,
                ..configured
            };
            ladder::rung_runner(&world, &structure, config, name, cal, epochs)
        }
    };
    let w1 = with_workers(1, "runner.workers1", cal);
    let w2 = with_workers(2, "runner.workers2", cal);
    let draws = ladder::rung_draws(&world, &structure, cal, epochs);

    for (a, b) in [(&stream, &driver), (&driver, &session)] {
        violations.extend(ladder::window_sums_agree(a, b).err());
    }
    if spec.static_plan {
        for r in [&runner, &w1, &w2] {
            violations.extend(ladder::window_sums_agree(&session, r).err());
        }
    }

    td_telemetry::events::set_level(Some(Level::Debug));
    let (debug_events, _, world) =
        ladder::rung_stream(world, false, "stream.debug_events", cal, epochs);
    td_telemetry::events::set_level(None);
    drop(td_telemetry::events::drain());
    if debug_events.digest != stream.digest {
        violations.push("recording Debug events changed the answers".into());
    }
    LadderOut {
        draws,
        runner,
        session,
        driver,
        stream,
        w1,
        w2,
        debug_events,
        world,
        violations,
    }
}

fn ladder_lines(l: &LadderOut) -> Vec<String> {
    let mut lines = Vec::new();
    let mut below: Option<&Rung> = None;
    for r in [&l.draws, &l.runner, &l.session, &l.driver, &l.stream] {
        let ns = r.ns_per_node_epoch();
        let over = below.map_or(String::new(), |b| {
            format!(
                "  self {:+.1} ns  x{:.3} of {}",
                ns - b.ns_per_node_epoch(),
                ns / b.ns_per_node_epoch(),
                b.name
            )
        });
        lines.push(format!(
            "rung {:<8} {:>10.1} ns/node-epoch  {:>8.3} allocs/node-epoch{over}",
            r.name,
            ns,
            r.allocs as f64 / r.node_epochs
        ));
        below = Some(r);
    }
    lines
}

/// Fill the metrics the single-session ladder and the probes produce.
fn ladder_metrics(m: &mut BTreeMap<&'static str, f64>, l: &LadderOut, untraced_ns_per_ne: f64) {
    let ne = l.stream.node_epochs;
    m.insert("netsim.draw_ns_per_node_epoch", l.draws.ns_per_node_epoch());
    m.insert("topology.delta_size", l.stream.delta_size as f64);
    m.insert(
        "core.runner_ns_per_node_epoch",
        l.runner.ns_per_node_epoch(),
    );
    let runner_ns = l.runner.total_cal_ns - l.runner.readings_cal_ns;
    m.insert(
        "core.runner_ns_per_message",
        runner_ns / l.runner.messages.max(1) as f64,
    );
    m.insert(
        "core.runner_bytes_per_message",
        l.runner.comm_bytes as f64 / l.runner.messages.max(1) as f64,
    );
    m.insert(
        "core.runner_allocs_per_node_epoch",
        l.runner.allocs as f64 / l.runner.node_epochs,
    );
    m.insert(
        "core.runner_w2_speedup",
        l.w1.ns_per_node_epoch() / l.w2.ns_per_node_epoch(),
    );
    m.insert(
        "core.session_ns_per_node_epoch",
        l.session.ns_per_node_epoch(),
    );
    m.insert(
        "core.session_overhead_ratio",
        l.session.ns_per_node_epoch() / l.runner.ns_per_node_epoch(),
    );
    m.insert(
        "core.session_allocs_per_node_epoch",
        l.session.allocs as f64 / l.session.node_epochs,
    );
    m.insert(
        "core.session_plan_compiles",
        l.session.plan_stats.compiles as f64,
    );
    m.insert(
        "core.session_plan_patches",
        l.session.plan_stats.patches as f64,
    );
    m.insert(
        "core.session_relabels_absorbed",
        l.session.plan_stats.patched_relabels as f64,
    );
    m.insert(
        "core.session_apply_churn_ns",
        l.session.apply_churn_cal_ns / l.session.apply_churn_calls.max(1) as f64,
    );
    m.insert("core.adapt_moves", l.session.adapt_moves as f64);
    m.insert(
        "core.driver_ns_per_node_epoch",
        l.driver.ns_per_node_epoch(),
    );
    m.insert(
        "core.driver_overhead_ratio",
        l.driver.ns_per_node_epoch() / l.session.ns_per_node_epoch(),
    );
    m.insert(
        "stream.step_ns_per_node_epoch",
        l.stream.ns_per_node_epoch(),
    );
    m.insert(
        "stream.overhead_ratio",
        l.stream.ns_per_node_epoch() / l.driver.ns_per_node_epoch(),
    );
    m.insert(
        "stream.allocs_per_epoch",
        (l.stream.allocs as f64 - l.driver.allocs as f64) / l.stream.epochs as f64,
    );
    m.insert(
        "stream.pane_merges",
        l.stream.stream_stats.pane_merges as f64,
    );
    m.insert(
        "stream.value_refolds",
        l.stream.stream_stats.value_refolds as f64,
    );
    m.insert(
        "stream.reports_emitted",
        l.stream.stream_stats.reports_emitted as f64,
    );
    for (name, ns) in PHASE_SHARE_METRICS.iter().zip(l.stream.phase_ns).take(6) {
        m.insert(name, ns as f64 / l.stream.total_raw_ns);
    }
    m.insert(
        "telemetry.events_debug_overhead_ratio",
        l.debug_events.total_cal_ns / ne / untraced_ns_per_ne,
    );
    m.insert(
        "bench.trace_overhead_ratio",
        l.stream.total_cal_ns / ne / untraced_ns_per_ne,
    );
}

fn hosting_metrics(m: &mut BTreeMap<&'static str, f64>, h: &Hosting, outbox_drain_ns: u64) {
    m.insert(
        "service.tenant_epochs_per_s",
        h.hosted_many.tenant_epochs_per_s,
    );
    m.insert(
        "service.inline_tenant_epochs_per_s",
        h.inline_many.tenant_epochs_per_s,
    );
    m.insert(
        "service.overhead_ratio",
        h.inline_many.tenant_epochs_per_s / h.hosted_many.tenant_epochs_per_s,
    );
    m.insert(
        "service.inline_tenants_16_over_256_ratio",
        h.inline_few.tenant_epochs_per_s / h.inline_many.tenant_epochs_per_s,
    );
    m.insert(
        "service.hosted_tenants_16_over_256_ratio",
        h.hosted_few.tenant_epochs_per_s / h.hosted_many.tenant_epochs_per_s,
    );
    m.insert("service.submit_us", h.extras.submit_us);
    m.insert(
        "service.resume_to_first_report_ms_p50",
        h.extras.resume_to_first_report_ms_p50,
    );
    m.insert("service.outbox_wait_ms_p50", h.extras.outbox_wait_ms_p50);
    m.insert("service.drain_call_us", h.extras.drain_call_us);
    m.insert("service.parks", h.extras.parks as f64);
    m.insert("service.park_ms", h.extras.park_ms);
    m.insert("service.late_ops", h.extras.late_ops as f64);
    m.insert("service.reports_dropped", h.extras.reports_dropped as f64);
    let hosted_raw_ns: f64 = [&h.hosted_many, &h.hosted_few]
        .iter()
        .map(|p| (p.tenants as u64 * p.rounds) as f64 / p.raw_tenant_epochs_per_s * 1e9)
        .sum();
    m.insert(
        "telemetry.phase_outbox_drain_share",
        outbox_drain_ns as f64 / hosted_raw_ns,
    );
}

fn bench_metrics(m: &mut BTreeMap<&'static str, f64>, drive: &Drive, cal: &Calibrator) {
    let (_, diag) = run::summarize(drive, vec![0.0], vec![0.0]);
    m.insert("bench.raw_node_epochs_per_s", diag.raw_node_epochs_per_s);
    m.insert(
        "bench.raw_report_latency_ms_p50",
        diag.raw_report_latency_ms_p50,
    );
    m.insert("bench.report_latency_ms_p90", diag.report_latency_ms_p90);
    m.insert("bench.report_latency_ms_p99", diag.report_latency_ms_p99);
    m.insert("bench.latency_samples", diag.latency_samples as f64);
    m.insert("bench.timer_ns", clock::timer_ns());
    let mut samples: Vec<f64> = cal.samples().iter().map(|s| s.solo_ns).collect();
    stats::sort(&mut samples);
    m.insert(
        "bench.calib_ms_p50",
        stats::percentile_sorted(&samples, 0.5) / 1e6,
    );
    m.insert(
        "bench.calib_p90_over_p10",
        stats::percentile_sorted(&samples, 0.9) / stats::percentile_sorted(&samples, 0.1),
    );
}

/// Calibrated seconds `build` takes.
fn build_s(cal: &mut Calibrator, build: impl FnOnce()) -> f64 {
    trace::set_rung("probe");
    let mut meter = Meter::new(cal, 0.0, 0);
    meter.block(|_| {
        let _span = trace::begin("netsim.network_build", 0);
        build()
    });
    meter.cal_ns / 1e9
}

/// Run one workload traced and write its spans to
/// `out_dir/trace-<workload>.jsonl`.
pub fn run(spec: Spec, cfg: RunCfg, cal: &mut Calibrator, out_dir: &Path) -> Traced {
    let mut m = BTreeMap::new();
    let mut violations = Vec::new();
    let mut ladder_text = Vec::new();
    let short = |min: u64, block: u64| cfg.scaled(min / 8, block);
    let seed = cfg.seed;

    // The shortened copy, untraced: the base of the tracing overhead and
    // the digest every traced drive must reproduce.
    let (drive, untraced_digest, ladder_spec, ladder_epochs) = match spec {
        Spec::Single(s) => {
            let s = cfg.at_scale(s);
            let epochs = short(s.min_epochs, s.block);
            match run::setup_single(s, seed, epochs) {
                Ok((mut subject, mut gate)) => {
                    let drive =
                        run::drive_single(&mut subject, &mut gate, cal, epochs, epochs, 0.0);
                    let digest = drive.gate.digest;
                    (Some(drive), digest, s, epochs)
                }
                Err(e) => {
                    violations.push(format!("set-up: {e}"));
                    (None, 0, s, epochs)
                }
            }
        }
        Spec::Service(s) => {
            let s = cfg.service_at_scale(s);
            let rounds = short(s.min_rounds, s.block);
            let tenant_ladder = cfg.at_scale(TENANT_LADDER);
            let epochs = short(tenant_ladder.min_epochs, tenant_ladder.block);
            match run::setup_service(s, seed, rounds, None) {
                Ok((hosted, mut gates)) => {
                    let mut counters = RoundCounters::default();
                    let drive = run::drive_service(
                        &s,
                        &hosted,
                        &mut gates,
                        cal,
                        rounds,
                        rounds,
                        0.0,
                        None,
                        &mut counters,
                    );
                    violations.extend(run::service_violations(
                        &hosted.shutdown(),
                        s.tenants,
                        s.warmup + rounds,
                        &counters,
                    ));
                    let digest = drive.gate.digest;
                    (Some(drive), digest, tenant_ladder, epochs)
                }
                Err(e) => {
                    violations.push(format!("set-up: {e}"));
                    (None, 0, tenant_ladder, epochs)
                }
            }
        }
    };
    let Some(drive) = drive else {
        return Traced {
            metrics: m,
            attempted: 1,
            failed: 1,
            violations,
            ladder: ladder_text,
        };
    };
    violations.extend(drive.gate.notes.iter().cloned());

    trace::start();
    let ladder = single_ladder(ladder_spec, seed, cal, ladder_epochs);
    violations.extend(ladder.violations.iter().cloned());
    ladder_text.extend(ladder_lines(&ladder));

    let outbox_before = ladder::phase_sums()[6];
    let (hosting_spec, hosting_rounds) = match spec {
        Spec::Service(s) => {
            let s = cfg.service_at_scale(s);
            (s, short(s.min_rounds, s.block))
        }
        Spec::Single(_) => {
            let s = cfg.service_at_scale(SERVICE_256);
            (s, cfg.scaled(SIDE_HOSTING_ROUNDS, s.block))
        }
    };
    let few_rounds = if cfg.smoke {
        hosting_rounds
    } else {
        hosting_rounds * (hosting_spec.tenants / hosting::FEW_TENANTS).max(1) as u64
    };
    let hosted = hosting::hosting(&hosting_spec, seed, cal, hosting_rounds, few_rounds);
    let outbox_ns = ladder::phase_sums()[6] - outbox_before;
    violations.extend(hosted.violations.iter().cloned());

    // What the untraced copy cost per node-epoch, and what its traced
    // twin must reproduce.
    let untraced_ns_per_ne = match spec {
        Spec::Single(_) => {
            if ladder.stream.digest != untraced_digest {
                violations.push(format!(
                    "traced digest {:016x} != untraced digest {untraced_digest:016x}",
                    ladder.stream.digest
                ));
            }
            drive.cal_ns / drive.node_epochs
        }
        Spec::Service(_) => {
            if hosted.hosted_many.digest != untraced_digest {
                violations.push(format!(
                    "traced hosted digest {:016x} != untraced digest {untraced_digest:016x}",
                    hosted.hosted_many.digest
                ));
            }
            // The tenant ladder's own untraced base: its stream rung
            // without spans is the debug-events rung with events off,
            // which is not run; the traced rung serves as its own base.
            ladder.stream.total_cal_ns / ladder.stream.node_epochs
        }
    };
    ladder_metrics(&mut m, &ladder, untraced_ns_per_ne);
    if let Spec::Service(s) = spec {
        // For the service the tracing overhead is that of the hosted
        // drive: spans around `resume` and every polling pass.
        let traced_ns_per_round = 1e9 * s.tenants as f64 / hosted.hosted_many.tenant_epochs_per_s;
        m.insert(
            "bench.trace_overhead_ratio",
            traced_ns_per_round / (drive.cal_ns / drive.epochs as f64),
        );
    }
    hosting_metrics(&mut m, &hosted, outbox_ns);
    bench_metrics(&mut m, &drive, cal);

    let world = &ladder.world;
    let shrink = if cfg.smoke { 20 } else { 1 };
    let scheme = (ladder_spec.session)().config().scheme;
    m.extend(probes::by_name(
        &probes::netsim(&world.net, seed, shrink, cal),
        &probes::topology(&world.net, scheme, seed, shrink, cal),
        &probes::primitives(&world.workload, world.net.len(), seed, shrink, cal),
    ));
    m.insert(
        "frequent.false_negative_rate",
        probes::frequent_false_negative_rate(seed),
    );
    m.insert(
        "netsim.network_build_s",
        match spec {
            Spec::Single(s) => build_s(cal, || drop(World::new(s, seed))),
            Spec::Service(s) => build_s(cal, || {
                for i in 0..s.tenants {
                    drop(tenant_net(&s, seed, i));
                }
            }),
        },
    );

    match trace::finish(
        spec.name(),
        &out_dir.join(format!("trace-{}.jsonl", spec.name())),
    ) {
        Ok((_, 0)) => {}
        Ok((_, dropped)) => violations.push(format!("{dropped} spans did not fit the buffer")),
        Err(e) => violations.push(format!("writing the trace: {e}")),
    }
    for entry in catalog::PER_LAYER {
        if !m.contains_key(entry.name) {
            violations.push(format!("per-layer metric {} was not produced", entry.name));
        }
    }
    Traced {
        metrics: m,
        attempted: drive.gate.attempted,
        failed: drive.gate.failed,
        violations,
        ladder: ladder_text,
    }
}

fn tenant_net(spec: &ServiceSpec, seed: u64, i: usize) -> td_netsim::network::Network {
    tenant_parts(spec, seed, i).net
}
