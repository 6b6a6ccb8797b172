//! End-to-end streaming window engine pins:
//!
//! (a) a `tumbling(1)` window is bit-identical to the per-epoch
//!     `run_set` answers under every scheme;
//! (b) sliding windows are recompute-free — panes per epoch equal the
//!     underlying query count (never the window count) and the
//!     traversal cost equals a plain single-query session's;
//! (c) window answers are stable across an adaptation relabel
//!     mid-window: every report is exactly the pane-algebra fold of the
//!     recorded per-epoch answers, even when the topology was relabeled
//!     between its panes;
//! (d) the stream engine inherits incremental plan patching unchanged:
//!     a windowed run over a session whose plan cache patches on
//!     relabel is bit-identical to one that recompiles every epoch;
//! (e) `step`/`step_under_churn` are the exact single-epoch units of
//!     `run`/`run_under_churn`: a hand-rolled step loop is bit-identical
//!     to the batch run, reports and stats included — the contract the
//!     service layer's epoch multiplexing rests on;
//! (f) `StreamSession` is `Send` (statically asserted), so whole
//!     sessions can be handed to service worker threads.

use proptest::prelude::*;
use td_suite::aggregates::sum::Sum;
use td_suite::core::driver::Driver;
use td_suite::core::protocol::ScalarProtocol;
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::netsim::loss::Global;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::stream::{EpochMerge, StreamQuery, StreamSession, WindowSpec};
use td_suite::workloads::synthetic::Synthetic;
use td_suite::workloads::workload::DriftingStream;
use tributary_delta::driver::Workload;

fn net(seed: u64, sensors: usize) -> Network {
    let mut rng = rng_from_seed(seed);
    Network::random_connected(sensors, 12.0, 12.0, Position::new(6.0, 6.0), 2.5, &mut rng)
}

/// Per-epoch baseline: the same session construction and rng stream as
/// the `StreamSession` run, answered one epoch at a time through
/// `run_epoch`. Returns the measured epochs' `(epoch, answer)` pairs.
fn baseline_epochs<W: Workload>(
    scheme: Scheme,
    net: &Network,
    workload: &W,
    loss: f64,
    warmup: u64,
    epochs: u64,
    seed: u64,
) -> Vec<(u64, f64)> {
    let model = Global::new(loss);
    let mut rng = rng_from_seed(seed);
    let mut session = SessionBuilder::new(scheme).build(net, &mut rng);
    let mut out = Vec::new();
    for epoch in 0..warmup + epochs {
        let readings = workload.readings(epoch);
        let proto = ScalarProtocol::new(Sum::default(), &readings);
        let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
        if epoch >= warmup {
            out.push((epoch, rec.output));
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn stream_run<W: Workload>(
    scheme: Scheme,
    net: &Network,
    workload: &W,
    loss: f64,
    warmup: u64,
    epochs: u64,
    seed: u64,
    windows: &[(WindowSpec, EpochMerge)],
) -> (StreamSession, Vec<td_suite::stream::WindowReport>) {
    let mut rng = rng_from_seed(seed);
    let session = SessionBuilder::new(scheme).build(net, &mut rng);
    let mut stream = StreamSession::new(Driver::new(session, warmup));
    let mut query = StreamQuery::scalar(Sum::default());
    for &(spec, merge) in windows {
        query = query.window(spec, merge);
    }
    let _ = stream.register(query);
    let reports = stream.run(workload, &Global::new(loss), epochs, &mut rng);
    (stream, reports)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// (a) `tumbling(1)` ≡ per-epoch answers, bit for bit, per scheme —
    /// pinned as a property over seeds and loss rates.
    #[test]
    fn tumbling_one_is_bit_identical_to_per_epoch_answers(
        seed in 1000u64..4000,
        loss in 0.0f64..0.35,
    ) {
        let net = net(seed, 150);
        let workload = DriftingStream::new(Synthetic::sum_workload(&net, seed), seed ^ 9);
        let (warmup, epochs) = (3u64, 12u64);
        for scheme in Scheme::all() {
            let baseline =
                baseline_epochs(scheme, &net, &workload, loss, warmup, epochs, seed ^ 0xE2E);
            let (_, reports) = stream_run(
                scheme,
                &net,
                &workload,
                loss,
                warmup,
                epochs,
                seed ^ 0xE2E,
                &[(WindowSpec::tumbling(1), EpochMerge::Add)],
            );
            prop_assert_eq!(reports.len(), baseline.len(), "{}", scheme.name());
            for (r, (epoch, answer)) in reports.iter().zip(&baseline) {
                prop_assert_eq!(r.start_epoch, *epoch);
                prop_assert_eq!(r.end_epoch, *epoch);
                prop_assert_eq!(
                    r.answer.to_bits(),
                    answer.to_bits(),
                    "{} epoch {} diverged: {} vs {}",
                    scheme.name(),
                    epoch,
                    r.answer,
                    answer
                );
            }
        }
    }
}

/// (b) sliding windows are recompute-free: one pane per query per
/// measured epoch regardless of window count, and exactly one
/// traversal's rounds — all verified through stats.
#[test]
fn sliding_windows_are_recompute_free() {
    let net = net(501, 200);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, 501), 502);
    let (warmup, epochs, loss, seed) = (2u64, 20u64, 0.2, 503u64);

    // Plain single-query baseline for the traversal budget.
    let model = Global::new(loss);
    let mut rng = rng_from_seed(seed);
    let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
    for epoch in 0..warmup + epochs {
        let readings = workload.readings(epoch);
        let proto = ScalarProtocol::new(Sum::default(), &readings);
        session.run_epoch(&proto, &model, epoch, &mut rng);
    }
    let baseline_rounds = session.stats().total_rounds();

    // Four windows over ONE query.
    let (stream, reports) = stream_run(
        Scheme::Td,
        &net,
        &workload,
        loss,
        warmup,
        epochs,
        seed,
        &[
            (WindowSpec::sliding(8, 1), EpochMerge::Add),
            (WindowSpec::sliding(8, 4), EpochMerge::Mean),
            (WindowSpec::tumbling(5), EpochMerge::Max),
            (WindowSpec::landmark(), EpochMerge::Add),
        ],
    );
    let st = stream.stream_stats();
    assert_eq!(st.measured_epochs, epochs);
    assert_eq!(
        st.panes_built,
        epochs * stream.query_count() as u64,
        "pane count per epoch must equal the query count, not the window count"
    );
    assert_eq!(stream.query_count(), 1);
    assert_eq!(
        stream.session().stats().total_rounds(),
        baseline_rounds,
        "four windows must cost exactly one traversal per epoch"
    );
    // Emission schedules: sliding(8,1) every pane, sliding(8,4) every
    // 4th, tumbling(5) every 5th, landmark every pane.
    let count_of = |w: usize| reports.iter().filter(|r| r.handle.window == w).count();
    assert_eq!(count_of(0), epochs as usize);
    assert_eq!(count_of(1), (epochs / 4) as usize);
    assert_eq!(count_of(2), (epochs / 5) as usize);
    assert_eq!(count_of(3), epochs as usize);
    // Under loss, degradation is visible, not silent.
    assert!(reports.iter().all(|r| r.min_coverage > 0.0));
    assert!(reports.iter().any(|r| r.is_lossy()));
}

/// (c) window answers are stable across a mid-window relabel: each
/// report is exactly the fold of the recorded per-epoch answers over
/// its span, relabels included — completed panes are never invalidated.
#[test]
fn window_answers_stable_across_adaptation_relabel() {
    let net = net(601, 300);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, 601), 602);
    // 25% global loss forces TD-Coarse to expand its delta during the
    // run; warmup 0 so the relabels land inside measured windows.
    let (warmup, epochs, loss, seed) = (0u64, 60u64, 0.25, 603u64);
    let baseline = baseline_epochs(
        Scheme::TdCoarse,
        &net,
        &workload,
        loss,
        warmup,
        epochs,
        seed,
    );
    let (_, reports) = stream_run(
        Scheme::TdCoarse,
        &net,
        &workload,
        loss,
        warmup,
        epochs,
        seed,
        &[(WindowSpec::sliding(10, 1), EpochMerge::Add)],
    );
    assert!(
        reports.iter().any(|r| r.relabels > 0),
        "no adaptation relabel landed inside any window — test needs a harsher channel"
    );
    for r in &reports {
        let expected: f64 = baseline
            .iter()
            .filter(|(e, _)| (r.start_epoch..=r.end_epoch).contains(e))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(
            r.answer.to_bits(),
            expected.to_bits(),
            "window [{}, {}] (relabels {}) diverged from the pane fold",
            r.start_epoch,
            r.end_epoch,
            r.relabels
        );
    }
}

/// (d) cheap adaptation is inherited, not re-implemented: the same
/// windowed TD-Coarse run over a patch-on-relabel session and over one
/// whose plan is rebuilt every epoch (`clear_cached_plan`) produces
/// bit-identical window reports and per-pane accounting — and the
/// patching run really did patch (one compile for the whole run).
#[test]
fn stream_windows_identical_under_patched_and_recompiled_plans() {
    let net = net(701, 300);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, 701), 702);
    let (warmup, epochs, loss, seed) = (0u64, 60u64, 0.25, 703u64);
    let run = |clear_every_epoch: bool| {
        let mut rng = rng_from_seed(seed);
        let session = SessionBuilder::new(Scheme::TdCoarse).build(&net, &mut rng);
        let mut stream = StreamSession::new(Driver::new(session, warmup));
        let query = StreamQuery::scalar(Sum::default())
            .window(WindowSpec::sliding(10, 1), EpochMerge::Add)
            .window(WindowSpec::tumbling(6), EpochMerge::Add);
        let _ = stream.register(query);
        let mut reports = Vec::new();
        for _ in 0..warmup + epochs {
            if clear_every_epoch {
                stream.clear_cached_plan();
            }
            reports.extend(stream.step(&workload, &Global::new(loss), &mut rng));
        }
        let plan_stats = stream.session().plan_stats();
        let summary: Vec<_> = reports
            .iter()
            .map(|r| {
                (
                    r.start_epoch,
                    r.end_epoch,
                    r.answer.to_bits(),
                    r.relabels,
                    r.comm_bytes(),
                )
            })
            .collect();
        (summary, plan_stats)
    };
    let (patched, patched_plan) = run(false);
    let (rebuilt, rebuilt_plan) = run(true);
    assert_eq!(
        patched, rebuilt,
        "stream reports diverged across plan-cache strategies"
    );
    assert!(
        patched.iter().any(|&(_, _, _, relabels, _)| relabels > 0),
        "no relabel landed inside any window — test needs a harsher channel"
    );
    assert_eq!(
        patched_plan.compiles, 1,
        "patched run recompiled: {patched_plan:?}"
    );
    assert!(
        patched_plan.patches > 0,
        "nothing patched: {patched_plan:?}"
    );
    assert_eq!(rebuilt_plan.patches, 0);
    assert_eq!(
        rebuilt_plan.compiles,
        warmup + epochs,
        "one compile per epoch: {rebuilt_plan:?}"
    );
}

/// Compress a report into everything determinism-relevant, with the
/// answer bit-exact.
fn report_fingerprint(
    r: &td_suite::stream::WindowReport,
) -> (usize, usize, u64, u64, u64, u64, u64, u64, u32) {
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

/// (e) a hand-rolled `step` loop is bit-identical to `run`, warmup and
/// stats included — and likewise for `step_under_churn` vs
/// `run_under_churn`.
#[test]
fn step_loop_is_bit_identical_to_run() {
    use td_suite::netsim::churn::ChurnSchedule;
    let net = net(801, 150);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, 801), 802);
    let (warmup, epochs, loss, seed) = (3u64, 25u64, 0.2, 803u64);
    let windows = [
        (WindowSpec::sliding(6, 1), EpochMerge::Add),
        (WindowSpec::tumbling(4), EpochMerge::Mean),
    ];
    let build = || {
        let mut rng = rng_from_seed(seed);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut stream = StreamSession::new(Driver::new(session, warmup));
        let mut query = StreamQuery::scalar(Sum::default());
        for &(spec, merge) in &windows {
            query = query.window(spec, merge);
        }
        let _ = stream.register(query);
        (stream, rng)
    };

    // Loss-only: run vs a step loop over the same epoch count.
    let model = Global::new(loss);
    let (mut batch, mut rng) = build();
    let batch_reports = batch.run(&workload, &model, epochs, &mut rng);
    let (mut stepped, mut rng) = build();
    let mut step_reports = Vec::new();
    for _ in 0..warmup + epochs {
        step_reports.extend(stepped.step(&workload, &model, &mut rng));
    }
    assert_eq!(
        batch_reports
            .iter()
            .map(report_fingerprint)
            .collect::<Vec<_>>(),
        step_reports
            .iter()
            .map(report_fingerprint)
            .collect::<Vec<_>>(),
        "step loop diverged from run"
    );
    assert_eq!(batch.stream_stats(), stepped.stream_stats());
    assert_eq!(batch.session().stats(), stepped.session().stats());

    // Churn: run_under_churn vs a step_under_churn loop.
    let schedule = ChurnSchedule::new(net.len(), 0.03, 5.0, 17);
    let (mut batch, mut rng) = build();
    let batch_reports = batch.run_under_churn(&workload, &model, &schedule, epochs, &mut rng);
    let (mut stepped, mut rng) = build();
    let mut step_reports = Vec::new();
    for _ in 0..warmup + epochs {
        step_reports.extend(stepped.step_under_churn(&workload, &model, &schedule, &mut rng));
    }
    assert_eq!(
        batch_reports
            .iter()
            .map(report_fingerprint)
            .collect::<Vec<_>>(),
        step_reports
            .iter()
            .map(report_fingerprint)
            .collect::<Vec<_>>(),
        "step_under_churn loop diverged from run_under_churn"
    );
    assert_eq!(batch.session().stats(), stepped.session().stats());
    assert!(
        batch.session().stats().nodes_left() > 0,
        "churn schedule never fired — the churn half of this pin is vacuous"
    );
}

/// (f) whole stream sessions can cross threads — the bound the service
/// layer's tenant hand-off requires, pinned at compile time.
#[test]
fn stream_session_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<StreamSession>();
    assert_send::<td_suite::stream::WindowReport>();
}

/// EVERY report field that could diverge between fold modes, floats
/// bit-exact, set-valued panes included.
#[allow(clippy::type_complexity)]
fn mode_fingerprint(
    r: &td_suite::stream::WindowReport,
) -> (
    (usize, usize),
    (u64, u64, usize, usize),
    (u64, u64, u64),
    (u32, u64, u64, u64),
    Vec<(u64, u64)>,
) {
    let freq_bits: Vec<(u64, u64)> = match &r.freq {
        None => Vec::new(),
        Some(f) => {
            let mut v: Vec<(u64, u64)> =
                f.counts().iter().map(|(&u, &c)| (u, c.to_bits())).collect();
            v.push((u64::MAX, f.total().to_bits()));
            v
        }
    };
    (
        (r.handle.query, r.handle.window),
        (r.start_epoch, r.end_epoch, r.panes, r.expected_panes),
        (
            r.answer.to_bits(),
            r.coverage.to_bits(),
            r.min_coverage.to_bits(),
        ),
        (r.relabels, r.nodes_joined, r.nodes_left, r.comm_bytes()),
        freq_bits,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Tentpole pin: `FoldMode::Incremental` (running folds where no
    /// pane leaves the window) emits reports bit-for-bit identical to
    /// the from-scratch re-fold on EVERY field, for every `EpochMerge`
    /// op, across random window specs, churn, adaptation relabels, and
    /// worker counts.
    #[test]
    fn incremental_reports_are_bit_identical_to_refold(
        seed in 1u64..50_000,
        loss in 0.1f64..0.3,
        workers in 1usize..4,
        len_a in 2u32..12,
        hop_a in 1u32..12,
        len_b in 2u32..12,
        hop_b in 1u32..12,
        len_c in 2u32..12,
        hop_c in 1u32..12,
        len_d in 2u32..12,
        tumble in 1u32..8,
    ) {
        use td_suite::netsim::churn::ChurnSchedule;
        use td_suite::stream::FoldMode;
        let net = net(seed % 5000 + 42, 140);
        let workload = DriftingStream::new(Synthetic::sum_workload(&net, seed), seed ^ 5);
        // One window per merge law, shapes randomized (hop clamped into
        // 1..=len), plus a tumbling and a landmark window.
        let windows = [
            (WindowSpec::sliding(len_a, 1 + hop_a % len_a), EpochMerge::Add),
            (WindowSpec::sliding(len_b, 1 + hop_b % len_b), EpochMerge::Mean),
            (WindowSpec::sliding(len_c, 1 + hop_c % len_c), EpochMerge::Min),
            (WindowSpec::sliding(len_d, 1), EpochMerge::Max),
            (WindowSpec::tumbling(tumble), EpochMerge::Add),
            (WindowSpec::landmark(), EpochMerge::Mean),
        ];
        let schedule = ChurnSchedule::new(net.len(), 0.02, 5.0, seed ^ 0xC4);
        let run = |mode: FoldMode| {
            let mut rng = rng_from_seed(seed ^ 0xF01D);
            // TD-Coarse at 10–30% loss so adaptation relabels land
            // mid-window; churn exercises the join/leave aggregates.
            let session = SessionBuilder::new(Scheme::TdCoarse).build(&net, &mut rng);
            let mut stream = StreamSession::new(Driver::new(session, 1));
            stream.set_workers(workers);
            let mut query = StreamQuery::scalar(Sum::default());
            for &(spec, merge) in &windows {
                query = query.window(spec, merge);
            }
            let _ = stream.register(query);
            stream.set_fold_mode(mode);
            let reports =
                stream.run_under_churn(&workload, &Global::new(loss), &schedule, 40, &mut rng);
            let stats = *stream.stream_stats();
            // Emissions of overlapping and of non-landmark windows.
            let emits = |refolds: fn(WindowSpec) -> bool| {
                reports.iter().filter(|r| refolds(r.spec)).count() as u64
            };
            let refold_emits = (
                emits(|s| matches!(s, WindowSpec::Sliding { len, hop } if hop < len)),
                emits(|s| s != WindowSpec::Landmark),
            );
            (
                reports.iter().map(mode_fingerprint).collect::<Vec<_>>(),
                stats,
                refold_emits,
            )
        };
        let (incremental, inc_stats, (overlapping, non_landmark)) = run(FoldMode::Incremental);
        let (refold, ref_stats, _) = run(FoldMode::Refold);
        prop_assert_eq!(incremental, refold, "fold modes diverged");
        prop_assert_eq!(inc_stats.panes_built, ref_stats.panes_built);
        prop_assert_eq!(inc_stats.reports_emitted, ref_stats.reports_emitted);
        prop_assert_eq!(
            inc_stats.value_refolds, overlapping,
            "incremental mode refolds once per overlapping emission"
        );
        prop_assert_eq!(
            ref_stats.value_refolds, non_landmark,
            "refold mode refolds once per non-landmark emission"
        );
    }
}

/// Set-valued panes, exact counters: a windowed frequent-items query
/// under `FoldMode::Incremental` is bit-identical to the re-fold, its
/// one overlapping window (`sliding(6, 1)`) refolds once per emission,
/// and a full lossless tumbling window reports every truly frequent
/// item of its merged epochs (the §6 guarantee lifted to windows).
#[test]
fn windowed_frequent_items_exact_counters_hit_the_o1_path() {
    use td_suite::frequent::items::ItemBag;
    use td_suite::frequent::multipath::MultipathConfig;
    use td_suite::quantiles::gradient::MinTotalLoad;
    use td_suite::sketches::counter::ExactFactory;
    use td_suite::stream::{FoldMode, FreqStreamQuery};
    let net = net(901, 100);
    let support = 0.15;
    // Three drifting epoch slots: a stable heavy item plus a rotating
    // mid-weight item per slot.
    let slots = 3usize;
    let bags_by_epoch: Vec<Vec<ItemBag>> = (0..slots)
        .map(|s| {
            (0..net.len())
                .map(|i| {
                    if i == 0 {
                        ItemBag::new()
                    } else {
                        ItemBag::from_counts([
                            (1u64, 40),
                            (10 + s as u64, 25),
                            (100 + i as u64 % 7, 6),
                        ])
                    }
                })
                .collect()
        })
        .collect();
    let n_epoch: u64 = bags_by_epoch[0].iter().map(|b| b.total()).sum();
    let run = |mode: FoldMode| {
        let mut rng = rng_from_seed(902);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut stream = StreamSession::new(Driver::new(session, 0));
        let query = StreamQuery::new(FreqStreamQuery::new(
            MultipathConfig::new(0.01, 1.5, n_epoch * 2, ExactFactory),
            MinTotalLoad::new(0.01, 2.25),
            support,
            bags_by_epoch.clone(),
        ))
        .window(WindowSpec::tumbling(3), EpochMerge::Add)
        .window(WindowSpec::sliding(6, 1), EpochMerge::Add)
        .window(WindowSpec::landmark(), EpochMerge::Add);
        let _ = stream.register(query);
        stream.set_fold_mode(mode);
        let reports = stream.run(
            &td_suite::core::driver::FixedReadings(vec![1; net.len()]),
            &td_suite::netsim::loss::NoLoss,
            18,
            &mut rng,
        );
        let stats = *stream.stream_stats();
        (reports, stats)
    };
    let (incremental, inc_stats) = run(FoldMode::Incremental);
    let (refold, _) = run(FoldMode::Refold);
    assert_eq!(
        incremental.iter().map(mode_fingerprint).collect::<Vec<_>>(),
        refold.iter().map(mode_fingerprint).collect::<Vec<_>>(),
        "set-valued fold modes diverged"
    );
    let sliding_emits = incremental.iter().filter(|r| r.handle.window == 1).count();
    assert_eq!(
        inc_stats.value_refolds, sliding_emits as u64,
        "only the overlapping window refolds, once per emission"
    );
    // Windowed no-false-negative check on full lossless tumbling
    // windows: merged truth over the window's epoch slots.
    let eps = 0.01 + 0.01; // ε_a + ε_b
    let mut checked = 0;
    for r in incremental
        .iter()
        .filter(|r| r.handle.window == 0 && r.panes == r.expected_panes)
    {
        let freq = r.freq.as_ref().expect("freq query emits set-valued panes");
        let reported = freq.report(support, eps);
        // Exact windowed truth from the bag construction.
        let mut true_counts = std::collections::BTreeMap::<u64, u64>::new();
        let mut true_total = 0u64;
        for epoch in r.start_epoch..=r.end_epoch {
            for bag in &bags_by_epoch[epoch as usize % slots] {
                for (item, count) in bag.iter() {
                    *true_counts.entry(item).or_insert(0) += count;
                    true_total += count;
                }
            }
        }
        for (&item, &count) in &true_counts {
            if count as f64 > support * true_total as f64 {
                assert!(
                    reported.contains(&item),
                    "window [{}, {}] missed frequent item {item}",
                    r.start_epoch,
                    r.end_epoch
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 0, "no truly frequent item ever checked — vacuous");
}

/// Set-valued panes, FM counters: fractional estimates under an
/// overlapping window refold the pane buffer at every emission, and the
/// answers pin bit-for-bit against refold mode.
#[test]
fn windowed_frequent_items_fm_counters_fall_back_without_loosening_the_pin() {
    use td_suite::frequent::items::ItemBag;
    use td_suite::frequent::multipath::MultipathConfig;
    use td_suite::quantiles::gradient::MinTotalLoad;
    use td_suite::sketches::counter::FmFactory;
    use td_suite::stream::{FoldMode, FreqStreamQuery};
    let net = net(911, 90);
    let bags: Vec<ItemBag> = (0..net.len())
        .map(|i| {
            if i == 0 {
                ItemBag::new()
            } else {
                ItemBag::from_counts([(1u64, 30), (2 + i as u64 % 5, 8)])
            }
        })
        .collect();
    let n_epoch: u64 = bags.iter().map(|b| b.total()).sum();
    let run = |mode: FoldMode| {
        let mut rng = rng_from_seed(912);
        let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
        let mut stream = StreamSession::new(Driver::new(session, 0));
        let query = StreamQuery::new(FreqStreamQuery::new(
            MultipathConfig::new(0.02, 1.5, n_epoch * 2, FmFactory { bitmaps: 16 }),
            MinTotalLoad::new(0.02, 2.25),
            0.2,
            vec![bags.clone()],
        ))
        .window(WindowSpec::sliding(5, 1), EpochMerge::Add);
        let _ = stream.register(query);
        stream.set_fold_mode(mode);
        let reports = stream.run(
            &td_suite::core::driver::FixedReadings(vec![1; net.len()]),
            &Global::new(0.15),
            15,
            &mut rng,
        );
        let stats = *stream.stream_stats();
        (reports, stats)
    };
    let (incremental, inc_stats) = run(FoldMode::Incremental);
    let (refold, _) = run(FoldMode::Refold);
    assert_eq!(
        incremental.iter().map(mode_fingerprint).collect::<Vec<_>>(),
        refold.iter().map(mode_fingerprint).collect::<Vec<_>>(),
        "FM fold modes diverged"
    );
    assert_eq!(
        inc_stats.value_refolds,
        incremental.len() as u64,
        "the sliding window refolds once per emission"
    );
}
