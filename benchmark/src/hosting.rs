//! The hosting rung: the same tenants stepped inline in one serial loop
//! and driven through `ServiceRuntime`, at two tenant counts.
//!
//! Inline and hosted tenants are built from the same seeds, boxed the
//! same way (the runtime stores a tenant's workload and channel as trait
//! objects, so the inline loop does too) and stepped the same number of
//! epochs, so the ratio of their tenant-epochs per second is the hosting
//! layer's overhead and nothing else — and their answer digests must be
//! equal, which is the runtime's bit-identical-isolation promise.

use rand::rngs::StdRng;
use td_netsim::loss::LossModel;
use td_stream::StreamSession;
use tributary_delta::driver::Workload;

use crate::calib::Calibrator;
use crate::check::Gate;
use crate::meter::Meter;
use crate::run::{self, RoundCounters, RoundScratch};
use crate::scenario::{tenant_parts, ServiceSpec};
use crate::stats;
use crate::trace;

/// One (tenant count, inline or hosted) point.
#[derive(Clone, Debug, Default)]
pub struct Point {
    /// Tenants.
    pub tenants: usize,
    /// Measured rounds.
    pub rounds: u64,
    /// Tenant-epochs per calibrated second.
    pub tenant_epochs_per_s: f64,
    /// The same as the clock read it.
    pub raw_tenant_epochs_per_s: f64,
    /// Folded answer digest over warm-up and measured rounds.
    pub digest: u64,
    /// Failed reports.
    pub failed: u64,
}

/// What only the hosted drive can measure.
#[derive(Clone, Debug, Default)]
pub struct HostedExtras {
    /// Median `ServiceRuntime::submit` call, µs (raw).
    pub submit_us: f64,
    /// Median round start → first report drained, ms (calibrated).
    pub resume_to_first_report_ms_p50: f64,
    /// Median `TenantReport::waited`, ms (raw: the runtime measures it).
    pub outbox_wait_ms_p50: f64,
    /// Mean `TenantHandle::drain` call, µs (raw).
    pub drain_call_us: f64,
    /// `ServiceStats::parks`.
    pub parks: u64,
    /// `ServiceStats::park_nanos`, ms.
    pub park_ms: f64,
    /// `ServiceStats::late_ops`.
    pub late_ops: u64,
    /// `ServiceStats::reports_dropped`.
    pub reports_dropped: u64,
    /// Accounting violations.
    pub violations: Vec<String>,
}

struct InlineTenant {
    stream: StreamSession,
    workload: Box<dyn Workload>,
    model: Box<dyn LossModel>,
    rng: StdRng,
    gate: Gate,
}

/// Step `spec.tenants` tenants inline: every round steps each tenant
/// once, in tenant order.
pub fn inline_point(spec: &ServiceSpec, seed: u64, cal: &mut Calibrator, rounds: u64) -> Point {
    trace::set_rung("service.inline");
    let epochs = (spec.warmup + rounds) as usize;
    let mut tenants: Vec<InlineTenant> = (0..spec.tenants)
        .map(|i| {
            let mut parts = tenant_parts(spec, seed, i);
            // What `ServiceRuntime::submit` does to every tenant.
            parts.stream.set_workers(1);
            let mut gate = run::tenant_gate(i, parts.stream.session().sensors(), epochs);
            for e in 0..epochs as u64 {
                gate.push_truth(parts.workload.readings(e)[1..].iter().sum());
            }
            InlineTenant {
                stream: parts.stream,
                workload: Box::new(parts.workload),
                model: Box::new(parts.model),
                rng: td_service::tenant_rng(parts.rng_seed),
                gate,
            }
        })
        .collect();
    let round = |epoch: u64, tenants: &mut [InlineTenant]| {
        let _span = trace::begin("service.inline_round", epoch);
        for t in tenants {
            let reports = t.stream.step(&*t.workload, &t.model, &mut t.rng);
            t.gate.check_epoch(epoch, &reports);
        }
    };
    for epoch in 0..spec.warmup {
        round(epoch, &mut tenants);
    }
    let mut meter = Meter::new(cal, 0.0, 0);
    let mut epoch = spec.warmup;
    while epoch < spec.warmup + rounds {
        let n = spec.block.min(spec.warmup + rounds - epoch);
        meter.block(|_| {
            for e in epoch..epoch + n {
                round(e, &mut tenants);
            }
        });
        epoch += n;
    }
    let gates: Vec<Gate> = tenants.into_iter().map(|t| t.gate).collect();
    let folded = run::fold_gates(&gates);
    let tenant_epochs = (spec.tenants as u64 * rounds) as f64;
    Point {
        tenants: spec.tenants,
        rounds,
        tenant_epochs_per_s: tenant_epochs / (meter.cal_ns / 1e9),
        raw_tenant_epochs_per_s: tenant_epochs / (meter.raw_ns / 1e9),
        digest: folded.digest,
        failed: folded.failed,
    }
}

/// Drive `spec.tenants` tenants through a one-worker `ServiceRuntime` in
/// closed-loop rounds.
pub fn hosted_point(
    spec: &ServiceSpec,
    seed: u64,
    cal: &mut Calibrator,
    rounds: u64,
) -> Result<(Point, HostedExtras), String> {
    trace::set_rung("service.hosted");
    let mut submit_us = Vec::with_capacity(spec.tenants);
    let (hosted, mut gates) = run::setup_service(*spec, seed, rounds, Some(&mut submit_us))?;
    let mut counters = RoundCounters::default();
    let mut scratch = RoundScratch::default();
    let mut waited = Vec::with_capacity(spec.tenants * rounds as usize);
    let mut first_report_ns = Vec::with_capacity(rounds as usize);
    run::push_tenant_truth(&hosted, &mut gates, spec.warmup..spec.warmup + rounds);
    let mut meter = Meter::new(cal, spec.parallel_share, spec.tenants * rounds as usize);
    let mut epoch = spec.warmup;
    while epoch < spec.warmup + rounds {
        let n = spec.block.min(spec.warmup + rounds - epoch);
        let mut firsts = Vec::with_capacity(n as usize);
        meter.block(|latency| {
            for e in epoch..epoch + n {
                let first = latency.len();
                run::hosted_round(
                    &hosted,
                    &mut gates,
                    e,
                    &mut scratch,
                    latency,
                    Some(&mut waited),
                    &mut counters,
                );
                // Samples are pushed in drain order: the round's first
                // is its first report.
                firsts.extend(latency.get(first).copied());
            }
        });
        first_report_ns.extend(firsts.iter().map(|ns| ns * meter.last_factor));
        epoch += n;
    }
    let stats = hosted.shutdown();
    let folded = run::fold_gates(&gates);
    let tenant_epochs = (spec.tenants as u64 * rounds) as f64;
    let point = Point {
        tenants: spec.tenants,
        rounds,
        tenant_epochs_per_s: tenant_epochs / (meter.cal_ns / 1e9),
        raw_tenant_epochs_per_s: tenant_epochs / (meter.raw_ns / 1e9),
        digest: folded.digest,
        failed: folded.failed,
    };
    let extras = HostedExtras {
        submit_us: stats::median(&mut submit_us),
        resume_to_first_report_ms_p50: stats::median(&mut first_report_ns) / 1e6,
        outbox_wait_ms_p50: stats::median(&mut waited) / 1e6,
        drain_call_us: counters.drain_ns as f64 / 1e3 / counters.drain_calls.max(1) as f64,
        parks: stats.parks,
        park_ms: stats.park_nanos as f64 / 1e6,
        late_ops: stats.late_ops,
        reports_dropped: stats.reports_dropped,
        violations: run::service_violations(&stats, spec.tenants, spec.warmup + rounds, &counters),
    };
    Ok((point, extras))
}

/// The four points of the hosting rung and what the hosted drive alone
/// sees.
#[derive(Clone, Debug, Default)]
pub struct Hosting {
    /// Inline, the workload's tenant count.
    pub inline_many: Point,
    /// Hosted, the workload's tenant count.
    pub hosted_many: Point,
    /// Inline, 16 tenants, as many tenant-epochs.
    pub inline_few: Point,
    /// Hosted, 16 tenants, as many tenant-epochs.
    pub hosted_few: Point,
    /// From the hosted drive at the workload's tenant count.
    pub extras: HostedExtras,
    /// Digest mismatches, failed reports and accounting violations.
    pub violations: Vec<String>,
}

/// Tenants of the small points.
pub const FEW_TENANTS: usize = 16;

/// Run the hosting rung: `rounds` rounds at `spec.tenants` tenants and
/// `few_rounds` at [`FEW_TENANTS`] (as many tenant-epochs, except in a
/// smoke run).
pub fn hosting(
    spec: &ServiceSpec,
    seed: u64,
    cal: &mut Calibrator,
    rounds: u64,
    few_rounds: u64,
) -> Hosting {
    let few = ServiceSpec {
        tenants: FEW_TENANTS,
        ..*spec
    };
    let mut out = Hosting {
        inline_many: inline_point(spec, seed, cal, rounds),
        inline_few: inline_point(&few, seed, cal, few_rounds),
        ..Hosting::default()
    };
    for (tenants, rounds) in [(spec.tenants, rounds), (FEW_TENANTS, few_rounds)] {
        let spec = ServiceSpec { tenants, ..*spec };
        match hosted_point(&spec, seed, cal, rounds) {
            Ok((point, extras)) => {
                out.violations.extend(extras.violations.iter().cloned());
                if tenants == FEW_TENANTS {
                    out.hosted_few = point;
                } else {
                    out.hosted_many = point;
                    out.extras = extras;
                }
            }
            Err(e) => out.violations.push(format!("hosted {tenants}: {e}")),
        }
    }
    for (inline, hosted) in [
        (&out.inline_many, &out.hosted_many),
        (&out.inline_few, &out.hosted_few),
    ] {
        if inline.digest != hosted.digest {
            out.violations.push(format!(
                "{} tenants: hosted digest {:016x} != inline digest {:016x}",
                inline.tenants, hosted.digest, inline.digest
            ));
        }
        if inline.failed + hosted.failed > 0 {
            out.violations.push(format!(
                "{} tenants: {} inline and {} hosted reports failed",
                inline.tenants, inline.failed, hosted.failed
            ));
        }
    }
    out
}
