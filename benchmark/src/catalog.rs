//! Every metric the harness prints, with its unit and direction — the
//! table `BENCHMARK.json` is written from — and, for per-layer metrics,
//! the layer they belong to and the end-to-end metric they should move.

/// One metric's entry.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end: share of the parent's median by which the metric may
    /// get worse. Per-layer: 0 (no bound).
    pub bound: f64,
    /// Per-layer: which end-to-end metric it should move, on which
    /// workload. End-to-end: how it is measured.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> Entry {
    Entry {
        name,
        unit,
        better,
        bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> Entry {
    Entry {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

/// The end-to-end metrics, in print order.
pub const END_TO_END: [Entry; 10] = [
    e2e("setup_s", "s", "lower", 0.25, "calibrated; one set-up from nothing to the first measured epoch: deployment, lossless prelude, topology, session, query registration, warm-up epochs; median of the run's set-ups"),
    e2e("node_epochs_per_s", "1/s", "higher", 0.25, "calibrated; node-epochs over the sum of calibrated block durations"),
    e2e("report_latency_ms_p50", "ms", "lower", 0.25, "calibrated; median time from handing an epoch over to holding its window reports"),
    e2e("cpu_us_per_node_epoch", "us", "lower", 0.25, "calibrated; process CPU time over all threads per node-epoch"),
    e2e("allocs_per_node_epoch", "count", "lower", 0.05, "heap allocations per node-epoch over the fixed prefix"),
    e2e("alloc_bytes_per_node_epoch", "B", "lower", 0.05, "bytes requested per node-epoch over the fixed prefix"),
    e2e("peak_heap_mb", "MB", "lower", 0.05, "peak live heap over set-up and the fixed prefix, harness buffers excluded"),
    e2e("bytes_per_node_epoch", "B", "lower", 0.05, "simulated radio payload per node-epoch over the fixed prefix"),
    e2e("rel_error_rms", "ratio", "lower", 0.12, "RMS relative error of the windowed Sum against ground truth over the fixed prefix"),
    e2e("answer_coverage", "ratio", "higher", 0.02, "mean WindowReport::coverage of the windowed Sum over the fixed prefix"),
];

/// The per-layer metrics, in print order.
pub const PER_LAYER: [Entry; 75] = [
    // netsim
    layer("netsim.network_build_s", "s", "lower", "setup_s on tree_10k"),
    layer("netsim.unicast_draw_ns", "ns", "lower", "node_epochs_per_s on tree_10k"),
    layer("netsim.broadcast_draw_ns_per_receiver", "ns", "lower", "node_epochs_per_s on td_2500"),
    layer("netsim.ge_draw_ns", "ns", "lower", "node_epochs_per_s on bundle_churn_600"),
    layer("netsim.churn_events_at_ns", "ns", "lower", "node_epochs_per_s on bundle_churn_600"),
    layer("netsim.draw_ns_per_node_epoch", "ns", "lower", "rung 0; node_epochs_per_s on every single-session workload"),
    // topology
    layer("topology.rings_build_s", "s", "lower", "setup_s on td_2500"),
    layer("topology.tree_build_s", "s", "lower", "setup_s on tree_10k and td_2500"),
    layer("topology.td_new_s", "s", "lower", "setup_s on td_2500"),
    layer("topology.relabel_ns", "ns", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("topology.delta_size", "count", "lower", "explains node_epochs_per_s on td_2500 and bundle_churn_600"),
    // sketches, aggregates
    layer("sketches.fm_insert_ns", "ns", "lower", "node_epochs_per_s on td_2500; nothing on tree_10k"),
    layer("sketches.fm_merge_ns", "ns", "lower", "node_epochs_per_s on td_2500; nothing on tree_10k"),
    layer("aggregates.sum_fuse_ns", "ns", "lower", "node_epochs_per_s on td_2500; nothing on tree_10k"),
    // quantiles, frequent
    layer("quantiles.qdigest_combine_ns", "ns", "lower", "node_epochs_per_s on bundle_churn_600 only"),
    layer("quantiles.qdigest_reduce_ns", "ns", "lower", "node_epochs_per_s on bundle_churn_600 only"),
    layer("quantiles.rank_error_max", "ratio", "lower", "accuracy of the quantile query; no timing metric"),
    layer("frequent.summary_merge_ns", "ns", "lower", "node_epochs_per_s, alloc_bytes_per_node_epoch on bundle_churn_600 only"),
    layer("frequent.multipath_fuse_ns", "ns", "lower", "node_epochs_per_s, alloc_bytes_per_node_epoch on bundle_churn_600 only"),
    layer("frequent.false_negative_rate", "ratio", "lower", "accuracy of the frequent-items query; no timing metric"),
    // core: runner
    layer("core.plan_compile_ns_per_node", "ns", "lower", "setup_s on every workload"),
    layer("core.plan_patch_ns", "ns", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("core.runner_ns_per_node_epoch", "ns", "lower", "rung 1; node_epochs_per_s on tree_10k and td_2500"),
    layer("core.runner_ns_per_message", "ns", "lower", "node_epochs_per_s on tree_10k and td_2500"),
    layer("core.runner_bytes_per_message", "B", "lower", "bytes_per_node_epoch on every workload"),
    layer("core.runner_allocs_per_node_epoch", "count", "lower", "allocs_per_node_epoch on tree_10k and td_2500"),
    layer("core.runner_w2_speedup", "ratio", "higher", "workers(1) time over workers(2) time; node_epochs_per_s and cpu_us_per_node_epoch on tree_10k and bundle_churn_600, not td_2500 or service_256"),
    // core: session, driver, adapt
    layer("core.session_ns_per_node_epoch", "ns", "lower", "rung 2; node_epochs_per_s on every single-session workload"),
    layer("core.session_overhead_ratio", "ratio", "lower", "session rung over runner rung; about 1 expected"),
    layer("core.session_allocs_per_node_epoch", "count", "lower", "allocs_per_node_epoch on every single-session workload"),
    layer("core.session_plan_compiles", "count", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("core.session_plan_patches", "count", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("core.session_relabels_absorbed", "count", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("core.session_apply_churn_ns", "ns", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("core.adapt_moves", "count", "lower", "explains plan patches on bundle_churn_600"),
    layer("core.driver_ns_per_node_epoch", "ns", "lower", "rung 3; node_epochs_per_s on every single-session workload"),
    layer("core.driver_overhead_ratio", "ratio", "lower", "driver rung over session rung; about 1 expected"),
    // stream
    layer("stream.step_ns_per_node_epoch", "ns", "lower", "rung 4; node_epochs_per_s, report_latency_ms_p50 on bundle_churn_600"),
    layer("stream.overhead_ratio", "ratio", "lower", "stream rung over driver rung; report_latency_ms_p50 on bundle_churn_600, about 1 on tree_10k"),
    layer("stream.allocs_per_epoch", "count", "lower", "stream rung minus driver rung; allocs_per_node_epoch on bundle_churn_600"),
    layer("stream.window_absorb_ns", "ns", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("stream.pane_merges", "count", "lower", "report_latency_ms_p50 on bundle_churn_600"),
    layer("stream.value_refolds", "count", "lower", "report_latency_ms_p50 on bundle_churn_600 and td_2500"),
    layer("stream.reports_emitted", "count", "higher", "qualifies the others"),
    // workloads
    layer("workloads.readings_ns_per_node", "ns", "lower", "node_epochs_per_s, alloc_bytes_per_node_epoch on tree_10k"),
    // service
    layer("service.tenant_epochs_per_s", "1/s", "higher", "node_epochs_per_s on service_256 only"),
    layer("service.inline_tenant_epochs_per_s", "1/s", "higher", "the engine's share of node_epochs_per_s on service_256"),
    layer("service.overhead_ratio", "ratio", "lower", "inline rate over hosted rate; node_epochs_per_s, cpu_us_per_node_epoch on service_256 only"),
    layer("service.inline_tenants_16_over_256_ratio", "ratio", "lower", "inline rate at 16 tenants over rate at 256: the working-set share of the slide"),
    layer("service.hosted_tenants_16_over_256_ratio", "ratio", "lower", "hosted rate at 16 tenants over rate at 256"),
    layer("service.submit_us", "us", "lower", "setup_s on service_256"),
    layer("service.resume_to_first_report_ms_p50", "ms", "lower", "report_latency_ms_p50 on service_256"),
    layer("service.outbox_wait_ms_p50", "ms", "lower", "report_latency_ms_p50 on service_256"),
    layer("service.drain_call_us", "us", "lower", "cpu_us_per_node_epoch on service_256"),
    layer("service.parks", "count", "lower", "must stay 0"),
    layer("service.park_ms", "ms", "lower", "must stay 0"),
    layer("service.late_ops", "count", "lower", "must stay 0"),
    layer("service.reports_dropped", "count", "lower", "must stay 0"),
    // telemetry
    layer("telemetry.phase_compile_share", "ratio", "lower", "share of the stream rung's time; explains core self time"),
    layer("telemetry.phase_patch_share", "ratio", "lower", "share of the stream rung's time; bundle_churn_600"),
    layer("telemetry.phase_randomness_share", "ratio", "lower", "share of the stream rung's time; parallel executor only"),
    layer("telemetry.phase_level_execute_share", "ratio", "lower", "share of the stream rung's time"),
    layer("telemetry.phase_merge_share", "ratio", "lower", "share of the stream rung's time"),
    layer("telemetry.phase_window_fold_share", "ratio", "lower", "share of the stream rung's time; explains stream self time"),
    layer("telemetry.phase_outbox_drain_share", "ratio", "lower", "share of the hosted drive's time"),
    layer("telemetry.events_debug_overhead_ratio", "ratio", "lower", "stream rung with Debug events over without; what telemetry may cost on tree_10k"),
    // bench
    layer("bench.calib_ms_p50", "ms", "lower", "qualifies calibrated times"),
    layer("bench.calib_p90_over_p10", "ratio", "lower", "how much the machine drifted during the run"),
    layer("bench.raw_node_epochs_per_s", "1/s", "higher", "the shortened untraced copy, as the clock read it"),
    layer("bench.raw_report_latency_ms_p50", "ms", "lower", "the shortened untraced copy, as the clock read it"),
    layer("bench.report_latency_ms_p90", "ms", "lower", "calibrated; too noisy to bound"),
    layer("bench.report_latency_ms_p99", "ms", "lower", "calibrated; too noisy to bound"),
    layer("bench.latency_samples", "count", "higher", "sample count behind the percentiles"),
    layer("bench.trace_overhead_ratio", "ratio", "lower", "traced stream rung over the untraced copy"),
    layer("bench.timer_ns", "ns", "lower", "floor under every span and latency sample"),
];
