//! The untraced run of one workload: set-up, measured blocks, the
//! correctness gate, and the end-to-end metrics.

use std::time::{Duration, Instant};

use td_service::{ServiceRuntime, ServiceStats, TenantPhase};
use tributary_delta::driver::Workload;

use crate::alloc::{self, Hidden};
use crate::calib::Calibrator;
use crate::check::{self, Gate, GateStats};
use crate::meter::{self, Meter};
use crate::scenario::{
    tenant_expect, tenant_parts, tenant_scheme, Hosted, ServiceSpec, Single, SingleSpec, Spec,
    World,
};
use crate::stats;

/// How long a run measures and how often it sets up.
#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    /// Workload seed.
    pub seed: u64,
    /// Measure at least this long (and at least the workload's minimum
    /// epoch count).
    pub seconds: f64,
    /// Divide every epoch count by 50 and ignore `seconds`.
    pub smoke: bool,
}

impl RunCfg {
    /// An epoch count at this run's scale (whole blocks, at least one).
    pub fn scaled(&self, epochs: u64, block: u64) -> u64 {
        let epochs = if self.smoke { epochs / 50 } else { epochs };
        epochs.div_ceil(block).max(1) * block
    }

    /// The workload at this run's scale: a smoke run also cuts the
    /// warm-up short (the bundle's 100 epochs are most of its set-up) and
    /// measures in blocks an eighth the size.
    pub fn at_scale(&self, spec: SingleSpec) -> SingleSpec {
        if !self.smoke {
            return spec;
        }
        SingleSpec {
            warmup: spec.warmup.min(8),
            block: (spec.block / 8).max(2),
            ..spec
        }
    }

    /// [`at_scale`](Self::at_scale) for the service workload.
    pub fn service_at_scale(&self, spec: ServiceSpec) -> ServiceSpec {
        if !self.smoke {
            return spec;
        }
        ServiceSpec {
            block: (spec.block / 8).max(2),
            ..spec
        }
    }

    /// How often set-up is repeated: as the workload asks, once in a
    /// smoke run.
    pub fn setups(&self, asked: usize) -> usize {
        if self.smoke {
            1
        } else {
            asked
        }
    }

    fn seconds(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            self.seconds
        }
    }
}

/// A run never measures more than this many times its minimum epochs.
const CAP_FACTOR: u64 = 16;

/// What the deterministic metrics are taken over: the first
/// `min_epochs` measured epochs of every run.
#[derive(Clone, Debug, Default)]
pub struct Prefix {
    /// Node-epochs in the prefix.
    pub node_epochs: f64,
    /// Heap allocations.
    pub allocs: u64,
    /// Bytes requested.
    pub alloc_bytes: u64,
    /// Peak live heap so far (bytes), set-up included.
    pub peak_bytes: i64,
    /// The gate's counts.
    pub gate: GateStats,
}

/// Everything one measured drive produced.
pub struct Drive {
    /// Measured epochs (rounds for `service_256`).
    pub epochs: u64,
    /// Node-epochs measured.
    pub node_epochs: f64,
    /// Blocks.
    pub blocks: u64,
    /// Σ block wall time, raw and calibrated, ns.
    pub raw_ns: f64,
    /// See `raw_ns`.
    pub cal_ns: f64,
    /// Σ calibrated process CPU time, ns.
    pub cal_cpu_ns: f64,
    /// Calibrated report latencies, sorted, ns.
    pub cal_latency_ns: Hidden<Vec<f64>>,
    /// Raw report latencies, sorted, ns.
    pub raw_latency_ns: Hidden<Vec<f64>>,
    /// The fixed prefix.
    pub prefix: Prefix,
    /// The gate over the whole drive.
    pub gate: GateStats,
}

impl Drive {
    /// What `meter` measured over `epochs` epochs (rounds) of `nodes`
    /// node-epochs each.
    fn new(meter: &Meter<'_>, epochs: u64, nodes: f64, prefix: Prefix, gate: GateStats) -> Self {
        Drive {
            epochs,
            node_epochs: nodes * epochs as f64,
            blocks: meter.blocks,
            raw_ns: meter.raw_ns,
            cal_ns: meter.cal_ns,
            cal_cpu_ns: meter.cal_cpu_ns,
            cal_latency_ns: meter::sorted(meter.cal_latency_ns()),
            raw_latency_ns: meter::sorted(meter.raw_latency_ns()),
            prefix,
            gate,
        }
    }
}

/// The ten end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct EndToEnd {
    /// Calibrated set-up time, s (median over the run's set-ups).
    pub setup_s: f64,
    /// Node-epochs per calibrated second.
    pub node_epochs_per_s: f64,
    /// Median calibrated report latency, ms.
    pub report_latency_ms_p50: f64,
    /// Calibrated process CPU per node-epoch, µs.
    pub cpu_us_per_node_epoch: f64,
    /// Heap allocations per node-epoch (prefix).
    pub allocs_per_node_epoch: f64,
    /// Bytes requested per node-epoch (prefix).
    pub alloc_bytes_per_node_epoch: f64,
    /// Peak live heap, MB (set-up and prefix).
    pub peak_heap_mb: f64,
    /// Simulated radio payload per node-epoch, B (prefix).
    pub bytes_per_node_epoch: f64,
    /// RMS relative error of the windowed Sum (prefix).
    pub rel_error_rms: f64,
    /// Mean coverage of the windowed Sum's reports (prefix).
    pub answer_coverage: f64,
}

impl EndToEnd {
    /// The values in `catalog::END_TO_END` order.
    pub fn values(&self) -> [f64; 10] {
        [
            self.setup_s,
            self.node_epochs_per_s,
            self.report_latency_ms_p50,
            self.cpu_us_per_node_epoch,
            self.allocs_per_node_epoch,
            self.alloc_bytes_per_node_epoch,
            self.peak_heap_mb,
            self.bytes_per_node_epoch,
            self.rel_error_rms,
            self.answer_coverage,
        ]
    }
}

/// Numbers that qualify the end-to-end metrics.
#[derive(Clone, Debug, Default)]
pub struct Diagnostics {
    /// Node-epochs per second as the clock read it.
    pub raw_node_epochs_per_s: f64,
    /// Median report latency as the clock read it, ms.
    pub raw_report_latency_ms_p50: f64,
    /// Calibrated p90, ms.
    pub report_latency_ms_p90: f64,
    /// Calibrated p99, ms.
    pub report_latency_ms_p99: f64,
    /// Latency samples.
    pub latency_samples: u64,
    /// Median set-up time as the clock read it, s.
    pub raw_setup_s: f64,
    /// Measured epochs.
    pub epochs: u64,
    /// Measured blocks.
    pub blocks: u64,
    /// Answer digest of the whole drive.
    pub answer_digest: u64,
    /// Answer digest of the prefix.
    pub prefix_digest: u64,
}

/// The result of one untraced run.
pub struct Outcome {
    /// End-to-end metrics.
    pub metrics: EndToEnd,
    /// Their qualifiers.
    pub diag: Diagnostics,
    /// Expected window reports.
    pub attempted: u64,
    /// Missing or invalid ones.
    pub failed: u64,
    /// Gate failures that are not report failures (accounting, prelude).
    pub violations: Vec<String>,
}

/// Set a single-session workload up: deployment, lossless prelude,
/// session, query registration and warm-up epochs.
pub fn setup_single(
    spec: SingleSpec,
    seed: u64,
    gate_epochs: u64,
) -> Result<(Single, Gate), String> {
    let world = World::new(spec, seed);
    check::prelude(&world)?;
    let mut subject = Single::new(world);
    let session = subject.stream.session();
    let (scheme, sensors) = (session.config().scheme, session.sensors());
    let mut gate = Gate::new(
        &subject.expect,
        scheme,
        sensors,
        spec.warmup,
        (spec.warmup + gate_epochs) as usize,
    );
    for epoch in 0..spec.warmup {
        gate.push_truth(subject.world.true_sum(epoch));
        let reports = subject.step();
        gate.check_epoch(epoch, &reports);
    }
    Ok((subject, gate))
}

/// Drive a set-up single-session workload for `min_epochs` measured
/// epochs and then until `seconds` have passed (or `cap_epochs`).
pub fn drive_single(
    subject: &mut Single,
    gate: &mut Gate,
    cal: &mut Calibrator,
    min_epochs: u64,
    cap_epochs: u64,
    seconds: f64,
) -> Drive {
    let spec = subject.world.spec;
    let sensors = subject.stream.session().sensors() as f64;
    let mut meter = Meter::new(cal, spec.parallel_share, cap_epochs as usize);
    let mut epoch = spec.warmup;
    let mut prefix = Prefix::default();
    loop {
        let done = epoch - spec.warmup;
        if done >= cap_epochs || (done >= min_epochs && meter.elapsed_s() >= seconds) {
            break;
        }
        for e in epoch..epoch + spec.block {
            gate.push_truth(subject.world.true_sum(e));
        }
        meter.block(|latency| {
            for e in epoch..epoch + spec.block {
                let t0 = Instant::now();
                let reports = subject.step();
                latency.push(t0.elapsed().as_nanos() as f64);
                gate.check_epoch(e, &reports);
            }
        });
        epoch += spec.block;
        if epoch - spec.warmup == min_epochs {
            prefix = Prefix {
                node_epochs: sensors * min_epochs as f64,
                allocs: meter.allocs,
                alloc_bytes: meter.alloc_bytes,
                peak_bytes: alloc::snapshot().peak,
                gate: gate.stats.clone(),
            };
        }
    }
    Drive::new(
        &meter,
        epoch - spec.warmup,
        sensors,
        prefix,
        gate.stats.clone(),
    )
}

/// The gate of tenant `i`: one `sliding(TENANT_WINDOW, 1)`/`Add` Sum.
pub fn tenant_gate(i: usize, sensors: usize, epochs: usize) -> Gate {
    Gate::new(&tenant_expect(), tenant_scheme(i), sensors, 0, epochs)
}

/// The driving thread sleeps this long after every polling pass that
/// leaves tenants pending. It never spins: a poller that only slept after
/// fruitless passes was busy half the time, and whenever the VM's second
/// vCPU went away it took that time from the worker, which made
/// `service_256` swing by 1.5x with the machine's mood. Half a
/// millisecond is a hundredth of a round.
pub const POLL_INTERVAL: Duration = Duration::from_micros(500);

/// One closed-loop round gave up waiting for a tenant after this long.
const ROUND_TIMEOUT: Duration = Duration::from_secs(60);

/// What the driving thread did in the rounds so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundCounters {
    /// `TenantHandle::drain` calls.
    pub drain_calls: u64,
    /// Σ time inside them, ns.
    pub drain_ns: u64,
    /// Sleeps of [`POLL_INTERVAL`] between polling passes.
    pub poll_sleeps: u64,
    /// Rounds abandoned on [`ROUND_TIMEOUT`].
    pub timeouts: u64,
}

/// Buffers one round reuses from the last.
#[derive(Default)]
pub struct RoundScratch {
    /// Tenants not yet paused at the round's epoch.
    pending: Vec<usize>,
    /// Whether the round's report of each tenant has been drained.
    delivered: Vec<bool>,
}

/// One closed-loop round of the hosted tenants: resume every tenant to
/// run epoch `epoch`, then poll every [`POLL_INTERVAL`] until each is
/// paused again with that epoch's report drained. Latency samples (round start → the drain that
/// returned the tenant's report, raw ns) go to `latency`.
pub fn hosted_round(
    hosted: &Hosted,
    gates: &mut [Gate],
    epoch: u64,
    scratch: &mut RoundScratch,
    latency: &mut Vec<f64>,
    waited: Option<&mut Vec<f64>>,
    counters: &mut RoundCounters,
) {
    let RoundScratch { pending, delivered } = scratch;
    let mut waited = waited;
    let t0 = Instant::now();
    {
        let _span = crate::trace::begin("service.resume_all", epoch);
        for h in &hosted.handles {
            h.resume(Some(epoch + 1));
        }
    }
    pending.clear();
    pending.extend(0..hosted.handles.len());
    delivered.clear();
    delivered.resize(hosted.handles.len(), false);
    while !pending.is_empty() {
        let _pass = crate::trace::begin("service.drain_pass", epoch);
        let mut progressed = false;
        pending.retain(|&i| {
            let h = &hosted.handles[i];
            if !delivered[i] {
                let d0 = Instant::now();
                let got = h.drain(64);
                counters.drain_ns += d0.elapsed().as_nanos() as u64;
                counters.drain_calls += 1;
                for r in &got {
                    latency.push(t0.elapsed().as_nanos() as f64);
                    if let Some(w) = waited.as_deref_mut() {
                        w.push(r.waited.as_nanos() as f64);
                    }
                    gates[i].check_epoch(r.report.end_epoch, std::slice::from_ref(&r.report));
                    delivered[i] |= r.report.end_epoch == epoch;
                    progressed = true;
                }
            }
            if delivered[i] {
                let st = h.status();
                if st.phase == TenantPhase::Paused && st.epochs_driven == epoch + 1 {
                    progressed = true;
                    return false;
                }
            }
            true
        });
        if !progressed && t0.elapsed() > ROUND_TIMEOUT {
            counters.timeouts += 1;
            for &i in pending.iter() {
                if !delivered[i] {
                    gates[i].check_epoch(epoch, &[]);
                }
            }
            pending.clear();
        }
        if !pending.is_empty() {
            counters.poll_sleeps += 1;
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Set `service_256` up: build every tenant, run the lossless prelude on
/// one tenant of each scheme, submit all to a one-worker runtime and
/// drive the warm-up rounds. `submit_us`, if given, collects how long
/// each `ServiceRuntime::submit` call took (raw µs).
pub fn setup_service(
    spec: ServiceSpec,
    seed: u64,
    gate_epochs: u64,
    mut submit_us: Option<&mut Vec<f64>>,
) -> Result<(Hosted, Vec<Gate>), String> {
    for i in 0..3.min(spec.tenants) {
        let parts = tenant_parts(&spec, seed, i);
        let mut rng = td_service::tenant_rng(parts.rng_seed ^ 0x9E37);
        check::prelude_on(parts.stream, &tenant_expect(), &parts.workload, &mut rng)
            .map_err(|e| format!("tenant {i}: {e}"))?;
    }
    let runtime = ServiceRuntime::new(1);
    let mut handles = Vec::with_capacity(spec.tenants);
    let mut workloads = Vec::with_capacity(spec.tenants);
    let mut gates = Vec::with_capacity(spec.tenants);
    for i in 0..spec.tenants {
        let parts = tenant_parts(&spec, seed, i);
        let sensors = parts.stream.session().sensors();
        gates.push(tenant_gate(
            i,
            sensors,
            (spec.warmup + gate_epochs) as usize,
        ));
        workloads.push(parts.workload);
        let tenant = parts.into_tenant();
        let t0 = Instant::now();
        handles.push(runtime.submit(tenant));
        if let Some(samples) = submit_us.as_deref_mut() {
            samples.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    let hosted = Hosted {
        runtime,
        handles,
        workloads,
        sensors: spec.sensors,
    };
    let mut pending = RoundScratch::default();
    let mut latency = Vec::with_capacity(spec.tenants * spec.warmup as usize);
    let mut counters = RoundCounters::default();
    for epoch in 0..spec.warmup {
        push_tenant_truth(&hosted, &mut gates, epoch..epoch + 1);
        hosted_round(
            &hosted,
            &mut gates,
            epoch,
            &mut pending,
            &mut latency,
            None,
            &mut counters,
        );
    }
    if counters.timeouts > 0 {
        return Err("a warm-up round timed out".into());
    }
    Ok((hosted, gates))
}

/// Record every tenant's exact Σ readings for `epochs`.
pub fn push_tenant_truth(hosted: &Hosted, gates: &mut [Gate], epochs: std::ops::Range<u64>) {
    for (gate, workload) in gates.iter_mut().zip(&hosted.workloads) {
        for e in epochs.clone() {
            gate.push_truth(workload.readings(e)[1..].iter().sum());
        }
    }
}

/// Fold the per-tenant gates into one, in tenant order.
pub fn fold_gates(gates: &[Gate]) -> GateStats {
    let mut all = GateStats::default();
    for g in gates {
        all.absorb(&g.stats);
    }
    all
}

/// Drive the hosted tenants for `min_rounds` measured rounds and then
/// until `seconds` have passed (or `cap_rounds`).
#[allow(clippy::too_many_arguments)]
pub fn drive_service(
    spec: &ServiceSpec,
    hosted: &Hosted,
    gates: &mut [Gate],
    cal: &mut Calibrator,
    min_rounds: u64,
    cap_rounds: u64,
    seconds: f64,
    mut waited: Option<&mut Vec<f64>>,
    counters: &mut RoundCounters,
) -> Drive {
    let node_epochs_per_round = (spec.tenants * hosted.sensors) as f64;
    let mut meter = Meter::new(cal, spec.parallel_share, cap_rounds as usize * spec.tenants);
    let mut pending = RoundScratch::default();
    let mut epoch = spec.warmup;
    let mut prefix = Prefix::default();
    loop {
        let done = epoch - spec.warmup;
        if done >= cap_rounds || (done >= min_rounds && meter.elapsed_s() >= seconds) {
            break;
        }
        push_tenant_truth(hosted, gates, epoch..epoch + spec.block);
        meter.block(|latency| {
            for e in epoch..epoch + spec.block {
                hosted_round(
                    hosted,
                    gates,
                    e,
                    &mut pending,
                    latency,
                    waited.as_deref_mut(),
                    counters,
                );
            }
        });
        epoch += spec.block;
        if epoch - spec.warmup == min_rounds {
            prefix = Prefix {
                node_epochs: node_epochs_per_round * min_rounds as f64,
                allocs: meter.allocs,
                alloc_bytes: meter.alloc_bytes,
                peak_bytes: alloc::snapshot().peak,
                gate: fold_gates(gates),
            };
        }
    }
    Drive::new(
        &meter,
        epoch - spec.warmup,
        node_epochs_per_round,
        prefix,
        fold_gates(gates),
    )
}

/// Check the runtime's own accounting against what was driven.
pub fn service_violations(
    stats: &ServiceStats,
    tenants: usize,
    epochs_each: u64,
    counters: &RoundCounters,
) -> Vec<String> {
    let mut out = Vec::new();
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            out.push(format!("service {what}: {got}, expected {want}"));
        }
    };
    expect("reports_dropped", stats.reports_dropped, 0);
    expect("parks", stats.parks, 0);
    expect("late_ops", stats.late_ops, 0);
    expect("rejected_ops", stats.rejected_ops, 0);
    expect(
        "epochs_driven",
        stats.epochs_driven,
        tenants as u64 * epochs_each,
    );
    expect(
        "reports_emitted",
        stats.reports_emitted,
        tenants as u64 * epochs_each,
    );
    expect("round timeouts", counters.timeouts, 0);
    out
}

/// Turn a drive and the set-up samples into the reported numbers.
pub fn summarize(
    drive: &Drive,
    mut cal_setup_s: Vec<f64>,
    mut raw_setup_s: Vec<f64>,
) -> (EndToEnd, Diagnostics) {
    let p = &drive.prefix;
    let ms = |sorted: &[f64], q: f64| stats::percentile_sorted(sorted, q) / 1e6;
    let metrics = EndToEnd {
        setup_s: stats::median(&mut cal_setup_s),
        node_epochs_per_s: drive.node_epochs / (drive.cal_ns / 1e9),
        report_latency_ms_p50: ms(&drive.cal_latency_ns, 0.5),
        cpu_us_per_node_epoch: drive.cal_cpu_ns / 1e3 / drive.node_epochs,
        allocs_per_node_epoch: p.allocs as f64 / p.node_epochs,
        alloc_bytes_per_node_epoch: p.alloc_bytes as f64 / p.node_epochs,
        peak_heap_mb: p.peak_bytes as f64 / 1e6,
        bytes_per_node_epoch: p.gate.comm_bytes as f64 / p.node_epochs,
        rel_error_rms: p.gate.rel_error_rms(),
        answer_coverage: p.gate.mean_coverage(),
    };
    let diag = Diagnostics {
        raw_node_epochs_per_s: drive.node_epochs / (drive.raw_ns / 1e9),
        raw_report_latency_ms_p50: ms(&drive.raw_latency_ns, 0.5),
        report_latency_ms_p90: ms(&drive.cal_latency_ns, 0.9),
        report_latency_ms_p99: ms(&drive.cal_latency_ns, 0.99),
        latency_samples: drive.cal_latency_ns.len() as u64,
        raw_setup_s: stats::median(&mut raw_setup_s),
        epochs: drive.epochs,
        blocks: drive.blocks,
        answer_digest: drive.gate.digest,
        prefix_digest: p.gate.digest,
    };
    (metrics, diag)
}

/// Run one workload untraced.
pub fn run(spec: Spec, cfg: RunCfg, cal: &mut Calibrator) -> Outcome {
    alloc::reset_peak();
    let mut cal_setup = Vec::new();
    let mut raw_setup = Vec::new();
    let mut violations = Vec::new();
    let mut timed_setup = |cal: &mut Calibrator, build: &mut dyn FnMut() -> Result<(), String>| {
        let before = cal.sample();
        let t0 = Instant::now();
        let built = build();
        let raw = t0.elapsed().as_secs_f64();
        // Set-up is one thread's work on every workload.
        let factor = Calibrator::factor(before, cal.sample(), 0.0);
        raw_setup.push(raw);
        cal_setup.push(raw * factor);
        built
    };
    let drive = match spec {
        Spec::Single(s) => {
            let s = cfg.at_scale(s);
            let min = cfg.scaled(s.min_epochs, s.block);
            let cap = min * CAP_FACTOR;
            let mut subject = None;
            for _ in 0..cfg.setups(s.setups) {
                // The previous set-up's subject goes first, so that two
                // never coexist in the heap peak.
                subject = None;
                let built = timed_setup(cal, &mut || {
                    subject = Some(setup_single(s, cfg.seed, cap)?);
                    Ok(())
                });
                if let Err(e) = built {
                    violations.push(format!("set-up: {e}"));
                    break;
                }
            }
            subject.map(|(mut subject, mut gate)| {
                drive_single(&mut subject, &mut gate, cal, min, cap, cfg.seconds())
            })
        }
        Spec::Service(s) => {
            let s = cfg.service_at_scale(s);
            let min = cfg.scaled(s.min_rounds, s.block);
            let cap = min * CAP_FACTOR;
            let mut subject: Option<(Hosted, Vec<Gate>)> = None;
            for _ in 0..cfg.setups(s.setups) {
                if let Some((hosted, _gates)) = subject.take() {
                    hosted.shutdown();
                }
                let built = timed_setup(cal, &mut || {
                    subject = Some(setup_service(s, cfg.seed, cap, None)?);
                    Ok(())
                });
                if let Err(e) = built {
                    violations.push(format!("set-up: {e}"));
                    break;
                }
            }
            subject.map(|(hosted, mut gates)| {
                let mut counters = RoundCounters::default();
                let drive = drive_service(
                    &s,
                    &hosted,
                    &mut gates,
                    cal,
                    min,
                    cap,
                    cfg.seconds(),
                    None,
                    &mut counters,
                );
                violations.extend(service_violations(
                    &hosted.shutdown(),
                    s.tenants,
                    s.warmup + drive.epochs,
                    &counters,
                ));
                drive
            })
        }
    };
    let Some(drive) = drive else {
        return Outcome {
            metrics: EndToEnd::default(),
            diag: Diagnostics::default(),
            attempted: 1,
            failed: 1,
            violations,
        };
    };
    let (metrics, diag) = summarize(&drive, cal_setup, raw_setup);
    Outcome {
        metrics,
        diag,
        attempted: drive.gate.attempted,
        failed: drive.gate.failed,
        violations: violations
            .into_iter()
            .chain(drive.gate.notes.iter().cloned())
            .collect(),
    }
}
