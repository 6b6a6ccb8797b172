//! Tier-1 guarantees of the in-place epoch-plan refresh
//! (`EpochPlan::patch`, a rebuild into the plan's own tables): a plan patched
//! through any sequence of §4.2 adaptation mutations (single switches,
//! subtree expansions, whole-level TD-Coarse moves) must be
//! **structurally identical** to a plan compiled fresh from the mutated
//! topology — same schedule, same receiver table, same arena layout —
//! and must execute epochs **bit-for-bit identically**; and a session
//! whose cache patches must be indistinguishable (answers, adaptation
//! trajectory, communication accounting) from one that recompiles every
//! epoch, under all four schemes.

use proptest::prelude::*;
use td_suite::aggregates::sum::Sum;
use td_suite::core::protocol::ScalarProtocol;
use td_suite::core::query::QuerySet;
use td_suite::core::runner::{EpochPlan, RunnerConfig};
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::netsim::loss::Global;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::netsim::stats::CommStats;
use td_suite::topology::bushy::{build_bushy_tree, BushyOptions};
use td_suite::topology::rings::Rings;
use td_suite::topology::td::TdTopology;

fn build_topo(seed: u64, sensors: usize, delta_levels: u16) -> (Network, TdTopology) {
    let mut rng = rng_from_seed(seed);
    let net =
        Network::random_connected(sensors, 16.0, 16.0, Position::new(8.0, 8.0), 2.8, &mut rng);
    let rings = Rings::build(&net);
    let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
    let delta_levels = delta_levels.min(rings.max_level());
    let td = TdTopology::new(rings, tree, delta_levels);
    (net, td)
}

/// Apply one random legal mutation drawn from the §4.2 move set.
/// Returns whether anything switched.
fn random_mutation(td: &mut TdTopology, op: u8, pick: usize) -> bool {
    match op % 5 {
        0 => td.expand_all() > 0,
        1 => td.shrink_all() > 0,
        2 => {
            let roots = td.switchable_m_nodes();
            if roots.is_empty() {
                return false;
            }
            let root = roots[pick % roots.len()];
            td.expand_subtree(root).map(|n| n > 0).unwrap_or(false)
        }
        3 => {
            let ts = td.switchable_t_nodes();
            if ts.is_empty() {
                return false;
            }
            td.switch_to_m(ts[pick % ts.len()]).is_ok()
        }
        _ => {
            let ms = td.switchable_m_nodes();
            if ms.is_empty() {
                return false;
            }
            td.switch_to_t(ms[pick % ms.len()]).is_ok()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random expand/shrink/expand_all sequences: after every mutation,
    /// the patched plan's structural digest equals a fresh compile's,
    /// and one lossy epoch over each produces bit-identical answers,
    /// instrumentation, and communication accounting.
    #[test]
    fn patched_plan_matches_fresh_compile_under_random_mutations(
        seed in 0u64..1_000,
        delta_levels in 0u16..4,
        ops in proptest::collection::vec(any::<u8>(), 1..24),
        pick in any::<usize>(),
    ) {
        let (net, mut td) = build_topo(5000 + seed, 140, delta_levels);
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 37).collect();
        let model = Global::new(0.2);
        let mut plan = EpochPlan::compile_td(&td);

        for (i, &op) in ops.iter().enumerate() {
            let switched = random_mutation(&mut td, op, pick.wrapping_add(i));
            prop_assert!(td.validate().is_ok());
            // Patch unconditionally (a no-op when nothing switched).
            prop_assert!(plan.patch(&td, td.len()).is_some(), "patch refused after op {i}");
            let fresh = EpochPlan::compile_td(&td);
            prop_assert_eq!(
                plan.structural_digest(),
                fresh.structural_digest(),
                "digest diverged after op {} (switched={})", i, switched
            );

            // Bit-identical execution over the patched vs fresh plan.
            let proto = ScalarProtocol::new(Sum::default(), &values);
            let mut set = QuerySet::new();
            set.register(&proto);
            let mut fresh = fresh;
            let mut stats_a = CommStats::new(net.len());
            let mut stats_b = CommStats::new(net.len());
            let mut rng_a = rng_from_seed(777 ^ seed.wrapping_add(i as u64));
            let mut rng_b = rng_from_seed(777 ^ seed.wrapping_add(i as u64));
            let a = plan.run_set(
                &set, &net, &model, RunnerConfig::default(),
                i as u64, &mut stats_a, &mut rng_a,
            );
            let b = fresh.run_set(
                &set, &net, &model, RunnerConfig::default(),
                i as u64, &mut stats_b, &mut rng_b,
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

    /// Session-level equivalence under every scheme: a session whose
    /// plan cache patches and one that recompiles every single epoch
    /// (`clear_cached_plan`) produce identical per-epoch answers,
    /// adaptation trajectories, and stats.
    #[test]
    fn patching_sessions_match_recompiling_sessions_all_schemes(
        seed in 0u64..1_000,
        loss_pct in 0u32..35,
    ) {
        let mut rng = rng_from_seed(9100 + seed);
        let net = Network::random_connected(
            160, 16.0, 16.0, Position::new(8.0, 8.0), 2.8, &mut rng,
        );
        let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 23).collect();
        let model = Global::new(loss_pct as f64 / 100.0);
        let epochs = 35u64;
        for scheme in Scheme::all() {
            let run = |clear_every_epoch: bool| {
                let mut rng = rng_from_seed(40 + seed);
                let mut session = SessionBuilder::new(scheme)
                    .adapt_every(5)
                    .build(&net, &mut rng);
                let mut outs = Vec::new();
                for epoch in 0..epochs {
                    if clear_every_epoch {
                        session.clear_cached_plan();
                    }
                    let proto = ScalarProtocol::new(Sum::default(), &values);
                    let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
                    outs.push((rec.output, rec.contributing, rec.delta_size, rec.action));
                }
                (outs, session.stats().clone(), session.plan_stats())
            };
            let (patched, patched_stats, patched_plan) = run(false);
            let (rebuilt, rebuilt_stats, rebuilt_plan) = run(true);
            prop_assert_eq!(&patched, &rebuilt, "patch vs rebuild diverged ({})", scheme.name());
            prop_assert_eq!(&patched_stats, &rebuilt_stats);

            // The counters prove which path ran: an adapting patched
            // session compiled exactly once and patched once per move;
            // the rebuilt session compiled every epoch and never
            // patched. A move on the final epoch bumps the version with
            // no epoch left to consume it, so only earlier moves count.
            prop_assert_eq!(patched_plan.compiles, 1);
            prop_assert_eq!(rebuilt_plan.compiles, epochs);
            prop_assert_eq!(rebuilt_plan.patches, 0);
            let moves = patched[..patched.len() - 1]
                .iter()
                .filter(|(_, _, _, action)| matches!(
                    action,
                    td_suite::core::adapt::AdaptAction::Expanded { .. }
                        | td_suite::core::adapt::AdaptAction::Shrunk { .. }
                ))
                .count() as u64;
            if matches!(scheme, Scheme::TdCoarse | Scheme::Td) {
                prop_assert_eq!(patched_plan.patches, moves);
            } else {
                // TAG and SD never relabel: nothing to patch anywhere.
                prop_assert_eq!(patched_plan.patches, 0);
            }
        }
    }
}

/// A long adapting TD-Coarse run under heavy loss: the plan cache must
/// ride through every whole-level move with patches alone (one compile
/// at session start), absorbing the relabels the moves produced.
#[test]
fn adaptation_patches_instead_of_recompiling() {
    let mut rng = rng_from_seed(6200);
    let net = Network::random_connected(300, 20.0, 20.0, Position::new(10.0, 10.0), 2.8, &mut rng);
    let values: Vec<u64> = vec![1; net.len()];
    let model = Global::new(0.3);
    let mut session = SessionBuilder::new(Scheme::TdCoarse).build(&net, &mut rng);
    let mut moves = 0u64;
    let epochs = 120u64;
    for epoch in 0..epochs {
        let proto = ScalarProtocol::new(td_suite::aggregates::count::Count::default(), &values);
        let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
        // A move on the final epoch has no follow-up epoch to patch in.
        let followed_by_an_epoch = epoch + 1 < epochs;
        if followed_by_an_epoch
            && !matches!(
                rec.action,
                td_suite::core::adapt::AdaptAction::Idle
                    | td_suite::core::adapt::AdaptAction::Satisfied
            )
        {
            moves += 1;
        }
    }
    let stats = session.plan_stats();
    assert!(moves > 0, "adaptation never moved");
    assert_eq!(stats.compiles, 1, "adaptation recompiled: {stats:?}");
    assert_eq!(stats.patches, moves, "patch per move: {stats:?}");
    assert!(
        stats.patched_relabels >= moves,
        "relabels absorbed: {stats:?}"
    );
}

/// `EpochPlan::patch`'s relabel budget really gates: a relabel set past
/// it is refused (the caller recompiles), and the same set within
/// budget patches to a fresh compile's structure.
#[test]
fn oversized_deltas_fall_back_to_recompile() {
    let (_, mut td) = build_topo(6300, 200, 1);
    let mut plan = EpochPlan::compile_td(&td);
    let delta_before = td.delta_size();
    // Expand level by level until everything is in the delta — far more
    // than 25% of the network relabeled in aggregate.
    let mut total = 0;
    while td.expand_all() > 0 {
        total += 1;
        assert!(total < 100, "expansion did not terminate");
    }
    // Expansion only switches T vertices to M: each once.
    let relabels = td.delta_size() - delta_before;
    assert!(relabels > td.len() / 4);
    assert!(
        plan.patch(&td, td.len() / 4).is_none(),
        "oversized patch accepted"
    );
    // Within a generous budget the same patch applies and still matches
    // a fresh compile.
    assert_eq!(plan.patch(&td, td.len()), Some(relabels));
    assert_eq!(
        plan.structural_digest(),
        EpochPlan::compile_td(&td).structural_digest()
    );
}
