//! Tier-1 guarantees of the correlated-failure subsystem:
//!
//! * **Reduction**: a Gilbert–Elliott channel whose Good and Bad states
//!   drop at the same rate is *bit-identical* to the memoryless
//!   `Global` model across seeds and schemes — the burst machinery
//!   draws from its own substream and never perturbs the delivery RNG.
//! * **Structural patching**: a churn event (orphans re-parented,
//!   rejoiners re-attached) patches the compiled epoch plan in place to
//!   a state structurally identical to a fresh compile, and executes
//!   epochs bit-for-bit identically — including interleaved with §4.2
//!   adaptation relabels.
//! * **Acceptance**: a small churn event flows through
//!   `EpochPlan::patch` (counted in `PlanCacheStats`), never a full
//!   rebuild, and churn-afflicted sessions are indistinguishable
//!   (answers, adaptation trajectory, accounting) from sessions that
//!   recompile or rebuild every epoch — under all four schemes.

use proptest::prelude::*;
use td_suite::aggregates::sum::Sum;
use td_suite::core::protocol::ScalarProtocol;
use td_suite::core::query::QuerySet;
use td_suite::core::runner::{EpochPlan, RunnerConfig};
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::netsim::churn::{ChurnEvents, ChurnSchedule};
use td_suite::netsim::loss::{GilbertElliott, Global};
use td_suite::netsim::network::Network;
use td_suite::netsim::node::{NodeId, Position};
use td_suite::netsim::rng::rng_from_seed;
use td_suite::netsim::stats::CommStats;
use td_suite::topology::bushy::{build_bushy_tree, BushyOptions};
use td_suite::topology::maintenance::apply_churn;
use td_suite::topology::rings::Rings;
use td_suite::topology::td::TdTopology;

fn build_net(seed: u64, sensors: usize) -> Network {
    let mut rng = rng_from_seed(seed);
    Network::random_connected(sensors, 16.0, 16.0, Position::new(8.0, 8.0), 2.8, &mut rng)
}

fn build_topo(seed: u64, sensors: usize, delta_levels: u16) -> (Network, TdTopology) {
    let net = build_net(seed, sensors);
    let mut rng = rng_from_seed(seed ^ 0xF00D);
    let rings = Rings::build(&net);
    let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
    let delta_levels = delta_levels.min(rings.max_level());
    let td = TdTopology::new(rings, tree, delta_levels);
    (net, td)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Satellite: `GilbertElliott` with equal Good/Bad drop rates is
    /// bit-identical to `Bernoulli` (`Global`) across seeds and all
    /// four schemes — answers, instrumentation, adaptation trajectory,
    /// and communication accounting.
    #[test]
    fn equal_rate_gilbert_elliott_is_bernoulli_under_every_scheme(
        seed in 0u64..1_000,
        loss_pct in 0u32..41,
        burst_seed in any::<u64>(),
    ) {
        let net = build_net(7000 + seed, 140);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 19).collect();
        let p = loss_pct as f64 / 100.0;
        let epochs = 15u64;
        for scheme in Scheme::all() {
            let run = |use_ge: bool| {
                let mut rng = rng_from_seed(30 + seed);
                let mut session = SessionBuilder::new(scheme)
                    .adapt_every(4)
                    .build(&net, &mut rng);
                let mut outs = Vec::new();
                for epoch in 0..epochs {
                    let proto = ScalarProtocol::new(Sum::default(), &values);
                    let rec = if use_ge {
                        let ge = GilbertElliott::new(p, p, 0.2, 0.3, burst_seed);
                        session.run_epoch(&proto, &ge, epoch, &mut rng)
                    } else {
                        session.run_epoch(&proto, &Global::new(p), epoch, &mut rng)
                    };
                    outs.push((rec.output, rec.contributing, rec.delta_size, rec.action));
                }
                (outs, session.stats().clone())
            };
            let (ge, ge_stats) = run(true);
            let (bern, bern_stats) = run(false);
            prop_assert_eq!(&ge, &bern, "{} diverged from Bernoulli", scheme.name());
            prop_assert_eq!(&ge_stats, &bern_stats);
        }
    }

    /// Satellite + tentpole: after every churn event (interleaved with
    /// §4.2 relabels), the patched plan's structural digest equals a
    /// fresh compile's, and one lossy epoch over each is bit-identical.
    #[test]
    fn churn_patched_plan_digest_equals_fresh_compile(
        seed in 0u64..1_000,
        delta_levels in 0u16..4,
        leave_pct in 1u32..9,
        epochs in 4u64..16,
    ) {
        let (net, mut td) = build_topo(8000 + seed, 140, delta_levels);
        let schedule = ChurnSchedule::new(
            net.len(),
            leave_pct as f64 / 100.0,
            6.0,
            seed ^ 0xC4,
        );
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 31).collect();
        let model = Global::new(0.2);
        let mut plan = EpochPlan::compile_td(&td);

        for epoch in 0..epochs {
            let events = schedule.events_at(epoch);
            apply_churn(&mut td, &events.left, &events.joined, &events.absent);
            // Interleave an occasional whole-level relabel so label and
            // structural deltas patch through together.
            if epoch % 3 == 2 {
                td.expand_all();
            }
            prop_assert!(td.validate().is_ok());
            prop_assert!(
                plan.patch(&td, td.len()).is_some(),
                "patch refused at epoch {epoch}"
            );
            let mut fresh = EpochPlan::compile_td(&td);
            prop_assert_eq!(
                plan.structural_digest(),
                fresh.structural_digest(),
                "digest diverged at epoch {}", epoch
            );

            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            set.register(&proto);
            let mut stats_a = CommStats::new(net.len());
            let mut stats_b = CommStats::new(net.len());
            let mut rng_a = rng_from_seed(99 ^ seed.wrapping_add(epoch));
            let mut rng_b = rng_from_seed(99 ^ seed.wrapping_add(epoch));
            let churn_model = schedule.overlay(&model);
            let a = plan.run_set(
                &set, &net, &churn_model, RunnerConfig::default(),
                epoch, &mut stats_a, &mut rng_a,
            );
            let b = fresh.run_set(
                &set, &net, &churn_model, RunnerConfig::default(),
                epoch, &mut stats_b, &mut rng_b,
            );
            prop_assert_eq!(
                a.outputs[0].downcast_ref::<f64>(),
                b.outputs[0].downcast_ref::<f64>()
            );
            prop_assert_eq!(a.contributing, b.contributing);
            prop_assert_eq!(a.envelope, b.envelope);
            prop_assert_eq!(stats_a, stats_b);
        }
    }

    /// Acceptance: churn-afflicted sessions under every scheme are
    /// bit-identical whether the plan cache patches or is rebuilt from
    /// scratch every epoch (`clear_cached_plan`) — and the ring-based
    /// schemes absorb churn by patching.
    #[test]
    fn churn_sessions_match_recompiling_and_rebuilt_sessions(
        seed in 0u64..1_000,
        loss_pct in 0u32..30,
    ) {
        let net = build_net(9000 + seed, 160);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 23).collect();
        let model = Global::new(loss_pct as f64 / 100.0);
        let schedule = ChurnSchedule::new(net.len(), 0.01, 8.0, seed ^ 0xABC);
        let epochs = 30u64;
        for scheme in Scheme::all() {
            let run = |clear_every_epoch: bool| {
                let mut rng = rng_from_seed(50 + seed);
                let mut session = SessionBuilder::new(scheme)
                    .adapt_every(5)
                    .build(&net, &mut rng);
                let mut outs = Vec::new();
                for epoch in 0..epochs {
                    session.apply_churn(&schedule.events_at(epoch));
                    if clear_every_epoch {
                        session.clear_cached_plan();
                    }
                    let proto = ScalarProtocol::new(Sum::default(), &values);
                    let rec = session.run_epoch(
                        &proto, &schedule.overlay(&model), epoch, &mut rng,
                    );
                    outs.push((rec.output, rec.contributing, rec.delta_size, rec.action));
                }
                (outs, session.stats().clone(), session.plan_stats())
            };
            let (patched, patched_stats, plan) = run(false);
            let (rebuilt, rebuilt_stats, rebuilt_plan) = run(true);
            prop_assert_eq!(&patched, &rebuilt, "patch vs rebuild ({})", scheme.name());
            prop_assert_eq!(&patched_stats, &rebuilt_stats);
            prop_assert!(patched_stats.nodes_left() > 0, "churn never fired");
            if scheme != Scheme::Tag {
                // Ring-based schemes absorb churn (and adaptation) with
                // one initial compile plus in-place patches.
                prop_assert_eq!(plan.compiles, 1, "{} recompiled: {:?}", scheme.name(), plan);
                prop_assert!(plan.patches > 0, "{} never patched", scheme.name());
                prop_assert_eq!(rebuilt_plan.patches, 0);
            }
        }
    }
}

/// The acceptance check, isolated: ONE small churn event reaches
/// the next epoch as exactly one `EpochPlan::patch` — never a
/// recompile — under every ring-based scheme.
#[test]
fn one_small_churn_event_is_one_patch() {
    let net = build_net(4242, 220);
    let values: Vec<u64> = vec![1; net.len()];
    for scheme in [Scheme::Sd, Scheme::TdCoarse, Scheme::Td] {
        let mut rng = rng_from_seed(77);
        // A generous threshold keeps adaptation idle, isolating churn.
        let mut session = SessionBuilder::new(scheme)
            .threshold(0.5)
            .build(&net, &mut rng);
        // Pick a departing node whose orphans have surviving receivers.
        let topo = session.topology().expect("ring-based scheme");
        let compatible = |c: NodeId, r: NodeId| {
            use td_suite::topology::td::Mode;
            topo.mode(c) == Mode::T || topo.mode(r) == Mode::M
        };
        let leaver = topo
            .rings()
            .connected_nodes()
            .find(|&u| {
                !u.is_base()
                    && topo.tree().children(u).iter().any(|&c| {
                        topo.rings()
                            .receivers(c)
                            .iter()
                            .any(|&r| r != u && compatible(c, r))
                    })
            })
            .expect("a reroutable parent exists");

        for epoch in 0..5u64 {
            let proto = ScalarProtocol::new(Sum::default(), &values);
            session.run_epoch(&proto, &Global::new(0.05), epoch, &mut rng);
        }
        let before = session.plan_stats();
        let report = session.apply_churn(&ChurnEvents {
            epoch: 5,
            joined: Vec::new(),
            left: vec![leaver],
            absent: vec![leaver],
        });
        assert!(
            report.reparented > 0,
            "{}: nothing re-routed around {leaver}",
            scheme.name()
        );
        let proto = ScalarProtocol::new(Sum::default(), &values);
        session.run_epoch(&proto, &Global::new(0.05), 5, &mut rng);
        let after = session.plan_stats();
        assert_eq!(
            after.compiles,
            before.compiles,
            "{}: the churn event forced a rebuild",
            scheme.name()
        );
        assert_eq!(
            after.patches,
            before.patches + 1,
            "{}: the churn event did not flow through EpochPlan::patch",
            scheme.name()
        );
        assert_eq!(session.stats().nodes_left(), 1);
    }
}

/// Burst loss really is a different failure axis even at the same
/// per-transmission loss rate: a bad sender loses *all* its
/// transmissions for whole epochs, so (a) the coverage series is
/// strongly **autocorrelated** where the memoryless channel's is not,
/// and (b) coverage is strictly worse — receiver-side multi-path
/// redundancy cannot recover a reading whose every copy left the same
/// silenced radio. This is the robustness gap i.i.d. sweeps cannot
/// expose.
#[test]
fn bursts_cluster_failures_at_matched_average_rate() {
    let net = build_net(515, 200);
    let values: Vec<u64> = vec![1; net.len()];
    let epochs = 240u64;
    let coverage_series = |bursty: bool| -> Vec<f64> {
        let mut rng = rng_from_seed(516);
        // SD: no adaptation, so the channel alone shapes coverage.
        let mut session = SessionBuilder::new(Scheme::Sd).build(&net, &mut rng);
        let ge = GilbertElliott::bursty(0.25, 12.0, 0.95, 9);
        let global = Global::new(0.25);
        (0..epochs)
            .map(|epoch| {
                let proto = ScalarProtocol::new(Sum::default(), &values);
                let rec = if bursty {
                    session.run_epoch(&proto, &ge, epoch, &mut rng)
                } else {
                    session.run_epoch(&proto, &global, epoch, &mut rng)
                };
                rec.pct_contributing
            })
            .collect()
    };
    let stats = |xs: &[f64]| {
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        // Lag-1 autocorrelation: ~0 for a memoryless channel, strongly
        // positive when per-sender states persist across epochs.
        let cov = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (xs.len() - 1) as f64;
        (mean, cov / var.max(1e-12))
    };
    let (burst_mean, burst_ac) = stats(&coverage_series(true));
    let (iid_mean, iid_ac) = stats(&coverage_series(false));
    assert!(
        burst_mean < iid_mean - 0.03,
        "bursts were not harder than iid loss: {burst_mean} vs {iid_mean}"
    );
    assert!(
        burst_ac > iid_ac + 0.25,
        "bursts left no temporal correlation: ac {burst_ac} vs {iid_ac}"
    );
}
