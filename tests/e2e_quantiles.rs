//! End-to-end quantile-query pins (the §6.1.4 extension as a
//! first-class query class):
//!
//! (a) a bundle carrying N quantile queries (GK and q-digest) next to a
//!     scalar and a frequent-items query answers every one bit-identically
//!     to dedicated single-query sessions, at ONE traversal's rounds —
//!     for all four schemes;
//! (b) GK and q-digest rank error stays within the summary's
//!     self-reported uncertainty `E` at EVERY tree height, under random
//!     topologies and random subtree loss — the validity invariant the
//!     precision gradient rides on;
//! (c) every windowed quantile answer is bit-equal to the left fold of
//!     a `tumbling(1)` window's per-pane summaries over its span (an
//!     oracle that shares no code with the window accumulator) across
//!     adaptation relabels and churn, for both summary families and all
//!     four schemes, and worker counts 1, 2 and 8 agree bit for bit.

mod common;

use proptest::prelude::*;
use td_suite::aggregates::sum::Sum;
use td_suite::core::driver::Driver;
use td_suite::core::protocol::{
    FreqProtocol, Protocol, QuantileOutput, QuantileProtocol, ScalarProtocol,
};
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, Session, SessionBuilder};
use td_suite::frequent::items::ItemBag;
use td_suite::frequent::multipath::MultipathConfig;
use td_suite::netsim::churn::ChurnSchedule;
use td_suite::netsim::loss::Global;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::{NodeId, Position};
use td_suite::netsim::rng::rng_from_seed;
use td_suite::quantiles::gradient::MinTotalLoad;
use td_suite::quantiles::{GkSummary, QDigest, QuantileSummary};
use td_suite::sketches::counter::ExactFactory;
use td_suite::stream::{EpochMerge, QuantileStreamQuery, StreamQuery, StreamSession, WindowSpec};
use td_suite::workloads::synthetic::Synthetic;
use td_suite::workloads::workload::DriftingStream;
use tributary_delta::driver::Workload;

const SEED: u64 = 61404;
const EPOCHS: u64 = 25;
const QD_BITS: u32 = 16;

// ---------------------------------------------------------------------
// (a) bundled ≡ dedicated, one traversal
// ---------------------------------------------------------------------

struct Fixture {
    net: Network,
    values: Vec<u64>,
    bags: Vec<ItemBag>,
    mp_cfg: MultipathConfig<ExactFactory>,
    gradient: MinTotalLoad,
}

fn fixture(scheme_salt: u64) -> Fixture {
    let mut rng = rng_from_seed(SEED ^ scheme_salt);
    let net = Network::random_connected(150, 13.0, 13.0, Position::new(6.5, 6.5), 2.5, &mut rng);
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 10 + (i * 13) % 900).collect();
    let bags: Vec<ItemBag> = (0..net.len())
        .map(|i| {
            if i == 0 {
                ItemBag::new()
            } else {
                ItemBag::from_counts([(1u64, 30), (2 + i as u64 % 5, 8)])
            }
        })
        .collect();
    let n_total: u64 = bags.iter().map(|b| b.total()).sum();
    Fixture {
        net,
        values,
        bags,
        mp_cfg: MultipathConfig::new(0.01, 1.5, n_total * 2, ExactFactory),
        gradient: MinTotalLoad::new(0.02, 2.25),
    }
}

fn fresh_session(fx: &Fixture, scheme: Scheme) -> (Session, rand::rngs::StdRng) {
    let mut rng = rng_from_seed(SEED + 1);
    let session = SessionBuilder::new(scheme).build(&fx.net, &mut rng);
    (session, rng)
}

/// Run one dedicated single-query session over the whole epoch range
/// and return the per-epoch outputs plus the session's round count.
fn run_dedicated<P: Protocol>(
    fx: &Fixture,
    scheme: Scheme,
    model: &Global,
    mut make: impl FnMut() -> P,
) -> (Vec<P::Output>, u64, u64) {
    let (mut session, mut rng) = fresh_session(fx, scheme);
    let mut out = Vec::new();
    for epoch in 0..EPOCHS {
        let proto = make();
        out.push(session.run_epoch(&proto, model, epoch, &mut rng).output);
    }
    (
        out,
        session.stats().total_rounds(),
        session.stats().total_bytes(),
    )
}

fn check_bundled_scheme(scheme: Scheme, scheme_salt: u64) {
    let fx = fixture(scheme_salt);
    let model = Global::new(0.2);

    let (gk_single, gk_rounds, _) = run_dedicated(&fx, scheme, &model, || {
        QuantileProtocol::gk(fx.gradient, &fx.values)
    });
    let (qd_single, qd_rounds, _) = run_dedicated(&fx, scheme, &model, || {
        QuantileProtocol::qdigest(QD_BITS, fx.gradient, &fx.values)
    });
    let (sum_single, sum_rounds, _) = run_dedicated(&fx, scheme, &model, || {
        ScalarProtocol::new(Sum::default(), &fx.values)
    });
    let (freq_single, freq_rounds, _) = run_dedicated(&fx, scheme, &model, || {
        FreqProtocol::new(fx.mp_cfg.clone(), fx.gradient, 0.15, &fx.bags)
    });
    assert!(
        [qd_rounds, sum_rounds, freq_rounds]
            .iter()
            .all(|&r| r == gk_rounds),
        "{}: dedicated sessions diverged in rounds",
        scheme.name()
    );

    // The bundle: both quantile families + scalar + frequent, one set.
    let (mut session, mut rng) = fresh_session(&fx, scheme);
    let mut gk_bundle: Vec<QuantileOutput<GkSummary>> = Vec::new();
    let mut qd_bundle: Vec<QuantileOutput<QDigest>> = Vec::new();
    let mut sum_bundle = Vec::new();
    let mut freq_reports = Vec::new();
    for epoch in 0..EPOCHS {
        let gk_p = QuantileProtocol::gk(fx.gradient, &fx.values);
        let qd_p = QuantileProtocol::qdigest(QD_BITS, fx.gradient, &fx.values);
        let sum_p = ScalarProtocol::new(Sum::default(), &fx.values);
        let freq_p = FreqProtocol::new(fx.mp_cfg.clone(), fx.gradient, 0.15, &fx.bags);
        let mut set = QuerySet::new();
        let h_gk = set.register(&gk_p);
        let h_qd = set.register(&qd_p);
        let h_sum = set.register(&sum_p);
        let h_freq = set.register(&freq_p);
        let mut rec = session.run_set(&set, &model, epoch, &mut rng);
        gk_bundle.push(rec.answers.take(h_gk));
        qd_bundle.push(rec.answers.take(h_qd));
        sum_bundle.push(*rec.answers.get(h_sum));
        freq_reports.push(rec.answers.take(h_freq).reported);
    }

    // Bit-for-bit equivalence: summaries are structural (`PartialEq`),
    // so this pins every tuple/node, not just the median.
    assert_eq!(gk_bundle, gk_single, "{}: GK diverged", scheme.name());
    assert_eq!(qd_bundle, qd_single, "{}: q-digest diverged", scheme.name());
    assert_eq!(sum_bundle, sum_single, "{}: Sum diverged", scheme.name());
    for (b, a) in freq_reports.iter().zip(&freq_single) {
        assert_eq!(b, &a.reported, "{}: frequent diverged", scheme.name());
    }

    // The whole bundle still costs one traversal's rounds.
    assert_eq!(
        session.stats().total_rounds(),
        gk_rounds,
        "{}: bundled rounds exceed one traversal",
        scheme.name()
    );

    // Sanity on content: the final GK median is within E of the true
    // median of the contributing population (coverage < 1 under loss, so
    // compare rank error against the summary's own population).
    let last = gk_bundle.last().unwrap();
    assert!(last.population() > 0);
    let med = last.quantile(0.5).unwrap();
    let target = last.population().div_ceil(2);
    assert!(
        last.summary.rank(med).abs_diff(target) <= last.uncertainty() + 1,
        "{}: median rank off by more than E",
        scheme.name()
    );
}

#[test]
fn td_quantile_bundle_matches_dedicated_sessions() {
    check_bundled_scheme(Scheme::Td, 1);
}

#[test]
fn td_coarse_quantile_bundle_matches_dedicated_sessions() {
    check_bundled_scheme(Scheme::TdCoarse, 2);
}

#[test]
fn sd_quantile_bundle_matches_dedicated_sessions() {
    check_bundled_scheme(Scheme::Sd, 3);
}

#[test]
fn tag_quantile_bundle_matches_dedicated_sessions() {
    check_bundled_scheme(Scheme::Tag, 4);
}

// ---------------------------------------------------------------------
// (b) rank error ≤ self-reported E at every height, under loss
// ---------------------------------------------------------------------

/// Aggregate a random subtree bottom-up through the protocol's own
/// methods, dropping whole subtrees with the given probability (a lost
/// link loses the subtree's entire message, exactly as in the runner).
/// Returns the finalized message plus the multiset of values it
/// actually includes, and checks the validity invariant at this height.
fn aggregate_subtree<S: QuantileSummary, G: td_suite::quantiles::PrecisionGradient>(
    p: &QuantileProtocol<'_, S, G>,
    children: &[Vec<usize>],
    values: &[u64],
    node: usize,
    drops: &[bool],
) -> Option<(S, Vec<u64>, u32)> {
    let mut msg = p.local_tree(NodeId(node as u32))?;
    let mut included = vec![values[node]];
    let mut height = 0u32;
    for &c in &children[node] {
        if drops[c] {
            continue; // lost link: the whole subtree is gone
        }
        if let Some((child_msg, child_vals, child_h)) =
            aggregate_subtree(p, children, values, c, drops)
        {
            p.merge_tree(&mut msg, &child_msg);
            included.extend(child_vals);
            height = height.max(child_h + 1);
        }
    }
    let msg = p.finalize_tree(NodeId(node as u32), height, msg);

    // The invariant under test: at EVERY height, for every probe value,
    // the reduced summary's rank is within its self-reported E of the
    // true rank over exactly the values it merged.
    let mut sorted = included.clone();
    sorted.sort_unstable();
    assert_eq!(msg.population(), included.len() as u64);
    for &v in &sorted {
        let true_rank = sorted.partition_point(|&x| x <= v) as u64;
        let lo = sorted.partition_point(|&x| x < v) as u64;
        let got = msg.rank(v);
        let err = if got < lo {
            lo - got
        } else {
            got.saturating_sub(true_rank)
        };
        assert!(
            err <= msg.uncertainty(),
            "{} node {node} height {height}: rank({v}) = {got}, true in [{lo}, {true_rank}], E = {}",
            msg.kind_name(),
            msg.uncertainty()
        );
    }
    Some((msg, included, height))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (b) the validity invariant holds at every height of a random
    /// tree with random subtree loss, for both summary families.
    #[test]
    fn rank_error_within_reported_uncertainty_at_every_height(
        n in 8usize..60,
        seed in 0u64..1_000_000,
        drop_pct in 0u32..30,
        eps in 1u32..8,
    ) {
        use rand::Rng;
        let mut rng = rng_from_seed(seed);
        // Random rooted tree: node i's parent is uniform in 1..i
        // (node 0 is the base station and holds no reading).
        let mut children = vec![Vec::new(); n];
        for i in 2..n {
            let parent = rng.gen_range(1..i);
            children[parent].push(i);
        }
        let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..50_000)).collect();
        let drops: Vec<bool> = (0..n)
            .map(|i| i > 1 && rng.gen_range(0u32..100) < drop_pct)
            .collect();
        let gradient = MinTotalLoad::new(f64::from(eps) / 100.0, 2.25);

        let gk = QuantileProtocol::gk(gradient, &values);
        let (msg, included, h) =
            aggregate_subtree(&gk, &children, &values, 1, &drops).unwrap();
        // The root's finalized message survives one more evaluate.
        let out = gk.evaluate_tree(&[msg], h + 1);
        prop_assert_eq!(out.population(), included.len() as u64);

        let qd = QuantileProtocol::qdigest(QD_BITS, gradient, &values);
        let (msg, included, h) =
            aggregate_subtree(&qd, &children, &values, 1, &drops).unwrap();
        let out = qd.evaluate_tree(&[msg], h + 1);
        prop_assert_eq!(out.population(), included.len() as u64);
    }
}

// ---------------------------------------------------------------------
// (c) windowed quantiles ≡ the left fold of their per-pane summaries
// ---------------------------------------------------------------------

/// Everything determinism-relevant in a quantile window report, floats
/// bit-exact and the merged summary structural.
type QuantileFingerprint = (
    (usize, usize),
    (u64, u64, usize),
    (u64, u64, u64),
    (u32, u64, u64, u64),
    Option<td_suite::stream::QuantilePane>,
);

fn quantile_fingerprint(r: &td_suite::stream::WindowReport) -> QuantileFingerprint {
    (
        (r.handle.query, r.handle.window),
        (r.start_epoch, r.end_epoch, r.panes),
        (
            r.answer.to_bits(),
            r.coverage.to_bits(),
            r.min_coverage.to_bits(),
        ),
        (r.relabels, r.nodes_joined, r.nodes_left, r.comm_bytes()),
        r.quantile.as_deref().cloned(),
    )
}

/// Per-report `(relabels, answer bits, population, E, p99)` rows, the
/// flattened full-fingerprint word stream, and the max relabel count.
type WindowedTrace = (Vec<(u32, u64, u64, u64, u64)>, Vec<u64>, u64);

fn windowed_run(
    net: &Network,
    workload: &impl Workload,
    scheme: Scheme,
    workers: usize,
    digest: bool,
) -> WindowedTrace {
    let gradient = MinTotalLoad::new(0.02, 2.25);
    if digest {
        windowed_run_family(
            net,
            workload,
            scheme,
            workers,
            QuantileStreamQuery::qdigest(QD_BITS, gradient),
        )
    } else {
        windowed_run_family(
            net,
            workload,
            scheme,
            workers,
            QuantileStreamQuery::gk(gradient),
        )
    }
}

fn windowed_run_family<S: td_suite::stream::IntoQuantilePane>(
    net: &Network,
    workload: &impl Workload,
    scheme: Scheme,
    workers: usize,
    source: QuantileStreamQuery<S, MinTotalLoad>,
) -> WindowedTrace {
    let mut rng = rng_from_seed(SEED ^ 0xF01D);
    let session = SessionBuilder::new(scheme).build(net, &mut rng);
    let mut stream = StreamSession::new(Driver::new(session, 1));
    stream.set_workers(workers);
    let windows = [
        (WindowSpec::sliding(6, 1), EpochMerge::Add),
        (WindowSpec::sliding(8, 3), EpochMerge::Add),
        (WindowSpec::tumbling(4), EpochMerge::Add),
        (WindowSpec::landmark(), EpochMerge::Add),
        (WindowSpec::tumbling(1), EpochMerge::Add),
    ];
    let mut query = StreamQuery::new(source);
    for &(spec, merge) in &windows {
        query = query.window(spec, merge);
    }
    let _ = stream.register(query);
    let schedule = ChurnSchedule::new(net.len(), 0.02, 5.0, SEED ^ 0xC4);
    let reports = stream.run_under_churn(workload, &Global::new(0.25), &schedule, 30, &mut rng);
    assert!(common::assert_matches_pane_fold(&reports, 0, windows.len() - 1) > 0);
    let relabels = reports.iter().map(|r| r.relabels).max().unwrap_or(0);
    // Median extraction goes through the merged summary: the scalar
    // answer the report carries IS that summary's median.
    for r in &reports {
        let q = r.quantile.as_ref().expect("quantile windows carry panes");
        assert_eq!(r.answer.to_bits(), q.median().to_bits());
    }
    let fingerprints = reports
        .iter()
        .map(|r| {
            let q = r.quantile.as_ref().unwrap();
            (
                r.relabels,
                r.answer.to_bits(),
                q.population(),
                q.uncertainty(),
                q.quantile(0.99).unwrap_or(0),
            )
        })
        .collect();
    let full: Vec<u64> = reports
        .iter()
        .flat_map(|r| {
            let (a, b, c, d, e) = {
                let q = quantile_fingerprint(r);
                (
                    q.0 .0 as u64 ^ (q.0 .1 as u64) << 32,
                    q.1 .0 ^ q.1 .1,
                    q.2 .0 ^ q.2 .1 ^ q.2 .2,
                    u64::from(q.3 .0) ^ q.3 .1 ^ q.3 .2 ^ q.3 .3,
                    q.4.map_or(0, |p| p.population() ^ p.rank(500)),
                )
            };
            [a, b, c, d, e]
        })
        .collect();
    (fingerprints, full, u64::from(relabels))
}

#[test]
fn windowed_quantiles_incremental_matches_refold_across_schemes_and_workers() {
    let mut rng = rng_from_seed(SEED ^ 7);
    let net = Network::random_connected(120, 12.0, 12.0, Position::new(6.0, 6.0), 2.5, &mut rng);
    let workload = DriftingStream::new(Synthetic::sum_workload(&net, SEED), SEED ^ 5);
    let mut any_relabel = false;
    for scheme in Scheme::all() {
        for digest in [false, true] {
            // Each run checks itself against the pane-fold oracle;
            // worker counts exercise the level-parallel runner, and the
            // 2- and 8-worker runs must agree bit-for-bit with 1 worker.
            let (reference, full_ref, relabels) = windowed_run(&net, &workload, scheme, 1, digest);
            any_relabel |= relabels > 0;
            for workers in [2usize, 8] {
                let (run, full_run, _) = windowed_run(&net, &workload, scheme, workers, digest);
                assert_eq!(
                    run,
                    reference,
                    "{} digest={digest} workers={workers}: diverged from 1 worker",
                    scheme.name()
                );
                assert_eq!(
                    full_run,
                    full_ref,
                    "{} digest={digest} workers={workers}: full fingerprint diverged",
                    scheme.name()
                );
            }
        }
    }
    assert!(
        any_relabel,
        "no adaptation relabel landed inside any window — the churn half of this pin is vacuous"
    );
}
