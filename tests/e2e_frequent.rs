//! End-to-end frequent-items runs through the Tributary-Delta protocol
//! (§6.3): tree tributaries running Algorithm 1, delta running
//! Algorithm 2, conversion at the boundary, ε split across the halves.

use td_suite::core::protocol::{FreqOutput, FreqProtocol, QuantileProtocol};
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, Session, SessionBuilder, SessionConfig};
use td_suite::frequent::items::{count_items, true_frequent, ItemBag};
use td_suite::frequent::multipath::MultipathConfig;
use td_suite::frequent::quantile_based;
use td_suite::netsim::churn::ChurnSchedule;
use td_suite::netsim::loss::{GilbertElliott, Global, LossModel, NoLoss};
use td_suite::netsim::network::Network;
use td_suite::netsim::node::{NodeId, Position, BASE_STATION};
use td_suite::netsim::rng::rng_from_seed;
use td_suite::netsim::stats::CommStats;
use td_suite::quantiles::gradient::{Hybrid, MinMaxLoad, MinTotalLoad, PrecisionGradient, Uniform};
use td_suite::quantiles::summary::GkSummary;
use td_suite::sketches::counter::{CounterFactory, ExactFactory, FmFactory};
use td_suite::topology::bushy::{build_bushy_tree, BushyOptions};
use td_suite::topology::domination::domination_factor;
use td_suite::topology::rings::Rings;
use td_suite::topology::tree::{build_tag_tree, ParentSelection, Tree};
use td_suite::workloads::items::run_on_tree;
use td_suite::workloads::synthetic::Synthetic;

fn fixture(seed: u64) -> (Network, Vec<ItemBag>) {
    let mut rng = rng_from_seed(seed);
    let net = Network::random_connected(100, 10.0, 10.0, Position::new(5.0, 5.0), 2.5, &mut rng);
    use rand::Rng;
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        for _ in 0..200 {
            if rng.gen_bool(0.35) {
                bags[u.index()].add(rng.gen_range(1u64..5), 1);
            } else {
                bags[u.index()].add(rng.gen_range(100u64..3000), 1);
            }
        }
    }
    (net, bags)
}

#[test]
fn td_frequent_lossless_exact_counters() {
    let (net, bags) = fixture(11);
    let n: u64 = bags.iter().map(|b| b.total()).sum();
    let support = 0.05;
    let mp_cfg = MultipathConfig::new(0.005, 1.5, n * 2, ExactFactory);
    let gradient = MinTotalLoad::new(0.005, 2.0);
    let mut rng = rng_from_seed(12);
    let mut session = Session::new(SessionConfig::paper_defaults(Scheme::Td), &net, &mut rng);
    let mut out = None;
    for epoch in 0..25 {
        let proto = FreqProtocol::new(mp_cfg.clone(), gradient, support, &bags);
        out = Some(session.run_epoch(&proto, &NoLoss, epoch, &mut rng));
    }
    let rec = out.unwrap();
    assert_eq!(rec.contributing, net.num_sensors());
    let output = rec.output;
    // N̂ exact with exact counters + no loss.
    assert!(
        (output.n_est - n as f64).abs() < 1e-6,
        "n_est {} vs {n}",
        output.n_est
    );
    for item in true_frequent(&bags, support) {
        assert!(
            output.reported.contains(&item),
            "missing frequent item {item}"
        );
    }
    // No absurd false positives: everything reported has real support
    // above (s − ε) · N.
    let truth = count_items(&bags);
    for item in &output.reported {
        assert!(
            truth.count(*item) as f64 > (support - 0.011) * n as f64,
            "false positive {item}"
        );
    }
}

#[test]
fn td_frequent_lossy_fm_counters_keeps_heavy_hitters() {
    let (net, bags) = fixture(13);
    let n: u64 = bags.iter().map(|b| b.total()).sum();
    let support = 0.05;
    let mp_cfg = MultipathConfig::new(0.005, 2.0, n * 2, FmFactory { bitmaps: 16 });
    let gradient = MinTotalLoad::new(0.005, 2.0);
    let mut rng = rng_from_seed(14);
    let mut session = Session::new(SessionConfig::paper_defaults(Scheme::Td), &net, &mut rng);
    let model = Global::new(0.2);
    let mut out = None;
    for epoch in 0..60 {
        let proto = FreqProtocol::new(mp_cfg.clone(), gradient, support, &bags);
        out = Some(session.run_epoch(&proto, &model, epoch, &mut rng));
    }
    let output = out.unwrap().output;
    // The four heavy hitters carry ~8-9% each; under 20% loss with an
    // adapted delta they must all be reported.
    for item in true_frequent(&bags, support) {
        assert!(
            output.reported.contains(&item),
            "missing heavy hitter {item} (reported {:?})",
            output.reported
        );
    }
}

#[test]
fn pure_tree_freq_protocol_via_session() {
    // The FreqProtocol also runs on the all-tree extreme (TAG scheme).
    let (net, bags) = fixture(15);
    let n: u64 = bags.iter().map(|b| b.total()).sum();
    let mp_cfg = MultipathConfig::new(0.005, 1.5, n * 2, ExactFactory);
    let gradient = MinTotalLoad::new(0.005, 2.0);
    let mut rng = rng_from_seed(16);
    let mut session = Session::with_paper_defaults(Scheme::Tag, &net, &mut rng);
    let proto = FreqProtocol::new(mp_cfg, gradient, 0.05, &bags);
    let rec = session.run_epoch(&proto, &NoLoss, 0, &mut rng);
    assert_eq!(rec.output.n_est, n as f64);
    for item in true_frequent(&bags, 0.05) {
        assert!(rec.output.reported.contains(&item));
    }
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// A 600-node adaptive TD deployment under burst loss and churn
/// carrying a frequent-items query (FM counters) and a q-digest quantile
/// query in one bundle, run for 60 epochs. Returns two FNV digests: the
/// answers (every epoch's frequent-items estimates and reported items,
/// and the q-digest's nodes, `n` and `E`) and the simulated bytes (every
/// epoch's byte delta).
fn set_valued_digests() -> (u64, u64) {
    let net = Synthetic::small(600).build(0x5E7_D16);
    let readings: Vec<u64> = (0..net.len() as u64).map(|i| (i * 37) % 1000).collect();
    let bag_slots: Vec<Vec<ItemBag>> = (0..4u64)
        .map(|slot| {
            (0..net.len())
                .map(|i| {
                    if i == 0 {
                        ItemBag::new()
                    } else {
                        ItemBag::from_counts([
                            (1u64, 30),
                            (2u64, 18),
                            (10 + slot, 12),
                            (100 + i as u64 % 11, 4),
                        ])
                    }
                })
                .collect()
        })
        .collect();
    let n_slot: u64 = bag_slots[0].iter().map(ItemBag::total).sum();
    let mp_cfg = MultipathConfig::new(0.01, 2.0, n_slot * 8, FmFactory { bitmaps: 16 });
    let burst = GilbertElliott::bursty(0.15, 4.0, 0.8, 0xB0B);
    let churn = ChurnSchedule::new(net.len(), 0.01, 8.0, 0xC4C);
    let mut rng = rng_from_seed(0xD16E57);
    let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
    let mut answers = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes_before = 0;
    for epoch in 0..60u64 {
        session.apply_churn(&churn.events_at(epoch));
        let bags = &bag_slots[(epoch % 4) as usize];
        let mut set = QuerySet::new();
        let freq = set.register(FreqProtocol::new(
            mp_cfg.clone(),
            MinTotalLoad::new(0.01, 2.25),
            0.05,
            bags,
        ));
        let quantile = set.register(QuantileProtocol::qdigest(
            10,
            MinTotalLoad::new(0.02, 2.25),
            &readings,
        ));
        let rec = session.run_set(&set, &churn.overlay(&burst), epoch, &mut rng);
        let h = &mut answers;
        let f = rec.answers.get(freq);
        fnv(h, f.n_est.to_bits());
        for (&item, est) in &f.estimates.counts {
            fnv(h, item);
            fnv(h, est.to_bits());
        }
        for &item in &f.reported {
            fnv(h, item);
        }
        let q = &rec.answers.get(quantile).summary;
        for ((depth, prefix), count) in q.nodes() {
            fnv(h, u64::from(depth));
            fnv(h, prefix);
            fnv(h, count);
        }
        fnv(h, q.population());
        fnv(h, q.uncertainty());
        let total = session.stats().total_bytes();
        fnv(&mut bytes, total - bytes_before);
        bytes_before = total;
    }
    assert!(session.stats().nodes_left() > 0, "churn never fired");
    assert!(session.plan_stats().patches > 0, "the delta never adapted");
    (answers, bytes)
}

/// The set-valued answers pinned to a constant, not to another engine
/// path (see [`set_valued_digests`]). A change in how the delta's
/// set-valued messages are fused or stored, or in what rides beside
/// them on the air, has to leave every answer where it was.
#[test]
fn set_valued_answers_match_the_pinned_digest() {
    let (answers, _) = set_valued_digests();
    assert_eq!(
        answers, PINNED_SET_VALUED_DIGEST,
        "set-valued answer digest moved (got {answers:#018x})"
    );
}

/// The same deployment's simulated bytes pinned to a constant: a change
/// in how set-valued messages are sized, or in the adaptation envelope
/// beside them, moves it.
#[test]
fn set_valued_bytes_match_the_pinned_digest() {
    let (_, bytes) = set_valued_digests();
    assert_eq!(
        bytes, PINNED_SET_VALUED_BYTES_DIGEST,
        "set-valued byte digest moved (got {bytes:#018x})"
    );
}

/// The answer half, stamped when one digest of answers and bytes was
/// split in two.
const PINNED_SET_VALUED_DIGEST: u64 = 0xf307_fbe9_2a03_189e;
/// The byte half, stamped with it and re-stamped (from
/// 0x7cdd_fee5_d9c0_94d7) when the envelope stopped riding on epochs
/// the adapter does not read.
const PINNED_SET_VALUED_BYTES_DIGEST: u64 = 0xab14_e47d_fd40_5adc;

/// Algorithm 1 over a given `tree` under `gradient`: one epoch of a
/// frequent-items query at support 0.05 on the engine's all-`T` plan.
/// Only the protocol's tree half runs, so its multi-path half is a
/// placeholder.
fn tree_run<G: PrecisionGradient, M: LossModel>(
    net: &Network,
    tree: &Tree,
    bags: &[ItemBag],
    gradient: G,
    model: &M,
    retries: u32,
    seed: u64,
) -> (FreqOutput, CommStats) {
    let placeholder = MultipathConfig::new(0.01, 2.0, 2, ExactFactory);
    let proto = FreqProtocol::new(placeholder, gradient, 0.05, bags);
    run_on_tree(net, tree, &proto, model, retries, &mut rng_from_seed(seed))
}

/// A tree's domination factor (held above 1, as Lemma 3 needs) and
/// height: what the §6.1 gradients are built from.
fn shape(tree: &Tree) -> (f64, u32) {
    let d = domination_factor(tree, 0.05).max(1.1);
    (d, tree.heights()[BASE_STATION.index()].max(1))
}

/// A deployment on a 20 × 20 field with radio range 4.5, a bushy tree
/// over it, and per-node bags of `items` occurrences: 30 % heavy hitters
/// {1, 2, 3}, the rest a long tail.
fn tree_fixture(nodes: usize, items: usize, seed: u64) -> (Network, Tree, Vec<ItemBag>) {
    use rand::Rng;
    let mut rng = rng_from_seed(seed);
    let net =
        Network::random_connected(nodes, 20.0, 20.0, Position::new(10.0, 10.0), 4.5, &mut rng);
    let tree = build_bushy_tree(&net, &Rings::build(&net), BushyOptions::default(), &mut rng);
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        for _ in 0..items {
            if rng.gen_bool(0.3) {
                bags[u.index()].add(rng.gen_range(1u64..4), 1);
            } else {
                bags[u.index()].add(rng.gen_range(100u64..10_000), 1);
            }
        }
    }
    (net, tree, bags)
}

/// TAG's frequent-items answers and loads on the engine, pinned to a
/// constant stamped from the private level walk td-frequent ran tree
/// schemes on before the engine replaced it: the base summary's
/// population, ε and counts, then every node's communication counters,
/// on a bushy tree without loss under Min Total-load, Min Max-load and
/// Hybrid, and on a TAG tree at 30 % loss with 0 and 2 retries. The
/// engine's step order is the walk's bottom-up order, so the loss draws
/// are the same sequence, and `accumulate` + `finalize` is the walk's
/// `combine` bit for bit.
#[test]
fn tag_frequent_items_match_the_deleted_tree_runner() {
    fn fold(h: &mut u64, eps: f64, (out, stats): &(FreqOutput, CommStats)) {
        fnv(h, out.n_est as u64);
        fnv(h, eps.to_bits());
        fnv(h, out.estimates.counts.len() as u64);
        for (&item, &c) in &out.estimates.counts {
            fnv(h, item);
            fnv(h, c as u64);
        }
        for i in 0..stats.len() {
            let c = stats.node(NodeId(i as u32));
            for x in [c.rounds, c.transmissions, c.messages, c.bytes, c.words] {
                fnv(h, x);
            }
        }
    }

    let (net, bags) = fixture(17);
    let mut rng = rng_from_seed(18);
    let bushy = build_bushy_tree(&net, &Rings::build(&net), BushyOptions::default(), &mut rng);
    let tag = build_tag_tree(&net, ParentSelection::Random, None, false, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (d, height) = shape(&bushy);
    let mtl = MinTotalLoad::new(0.01, d);
    let mml = MinMaxLoad::new(0.01, height);
    let hybrid = Hybrid::new(0.01, d, height);
    let eps = |g: &dyn PrecisionGradient| g.eps_at(height);
    fold(
        &mut h,
        eps(&mtl),
        &tree_run(&net, &bushy, &bags, mtl, &NoLoss, 0, 20),
    );
    fold(
        &mut h,
        eps(&mml),
        &tree_run(&net, &bushy, &bags, mml, &NoLoss, 0, 21),
    );
    fold(
        &mut h,
        eps(&hybrid),
        &tree_run(&net, &bushy, &bags, hybrid, &NoLoss, 0, 22),
    );
    let (d, height) = shape(&tag);
    let mtl = MinTotalLoad::new(0.01, d);
    let lossy = Global::new(0.3);
    for (retries, seed) in [(0, 23), (2, 24)] {
        let run = tree_run(&net, &tag, &bags, mtl, &lossy, retries, seed);
        fold(&mut h, mtl.eps_at(height), &run);
    }
    assert_eq!(
        h, PINNED_TREE_RUNNER_DIGEST,
        "TAG frequent-items digest moved (got {h:#018x})"
    );
}

/// Stamped from td-frequent's tree level walk on the commit before its
/// deletion; asserted unchanged on the engine.
const PINNED_TREE_RUNNER_DIGEST: u64 = 0xfc46_66a1_2e1b_a4e0;

/// The Quantiles-based baseline \[8\] over a given `tree` at error
/// tolerance `eps`: one epoch of GK summaries of every node's items on
/// the engine's all-`T` plan, without retries. Returns the base
/// station's summary and the epoch's communication.
fn gk_run<M: LossModel>(
    net: &Network,
    tree: &Tree,
    bags: &[ItemBag],
    eps: f64,
    model: &M,
    seed: u64,
) -> (GkSummary, CommStats) {
    let items: Vec<Vec<u64>> = bags.iter().map(ItemBag::expand).collect();
    let proto = QuantileProtocol::gk(quantile_based::gradient(eps, tree), &items);
    let (out, stats) = run_on_tree(net, tree, &proto, model, 0, &mut rng_from_seed(seed));
    (out.summary, stats)
}

/// The Quantiles-based baseline's answers and loads on the engine,
/// pinned to a constant stamped from the private level walk td-frequent
/// ran it on before the engine replaced it: the base summary's tuples,
/// population and uncertainty, then every node's communication
/// counters, on a bushy tree without loss at ε = 0.01 and 0.02 and on a
/// TAG tree at 30 % loss without retries. GK's `combine` breaks ties by
/// argument order, so this also pins that the engine merges a node's
/// own summary first and then its children in delivery order.
#[test]
fn quantiles_based_baseline_matches_the_deleted_tree_walk() {
    fn fold(h: &mut u64, (summary, stats): &(GkSummary, CommStats)) {
        for t in summary.tuples() {
            for x in [t.value, t.g, t.delta] {
                fnv(h, x);
            }
        }
        fnv(h, summary.population());
        fnv(h, summary.uncertainty());
        for i in 0..stats.len() {
            let c = stats.node(NodeId(i as u32));
            for x in [c.rounds, c.transmissions, c.messages, c.bytes, c.words] {
                fnv(h, x);
            }
        }
    }

    let (net, bags) = fixture(19);
    let mut rng = rng_from_seed(20);
    let bushy = build_bushy_tree(&net, &Rings::build(&net), BushyOptions::default(), &mut rng);
    let tag = build_tag_tree(&net, ParentSelection::Random, None, false, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fold(&mut h, &gk_run(&net, &bushy, &bags, 0.01, &NoLoss, 25));
    fold(&mut h, &gk_run(&net, &bushy, &bags, 0.02, &NoLoss, 26));
    fold(
        &mut h,
        &gk_run(&net, &tag, &bags, 0.01, &Global::new(0.3), 27),
    );
    assert_eq!(
        h, PINNED_GK_WALK_DIGEST,
        "Quantiles-based baseline digest moved (got {h:#018x})"
    );
}

/// Stamped from td-frequent's `run_tree_gk` level walk on the commit
/// before its deletion; asserted unchanged on the engine.
const PINNED_GK_WALK_DIGEST: u64 = 0x7277_a793_205d_7da0;

/// A deployment on a 20 × 20 field with radio range 5, a bushy tree
/// over it, and per-node bags of 150 occurrences: 40 % heavy hitters
/// {1, 2, 3}, the rest a tail.
fn gk_fixture(seed: u64) -> (Network, Tree, Vec<ItemBag>) {
    use rand::Rng;
    let mut rng = rng_from_seed(seed);
    let net = Network::random_connected(50, 20.0, 20.0, Position::new(10.0, 10.0), 5.0, &mut rng);
    let tree = build_bushy_tree(&net, &Rings::build(&net), BushyOptions::default(), &mut rng);
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        for _ in 0..150 {
            if rng.gen_bool(0.4) {
                bags[u.index()].add(rng.gen_range(1u64..4), 1);
            } else {
                bags[u.index()].add(rng.gen_range(50u64..2000), 1);
            }
        }
    }
    (net, tree, bags)
}

/// Without loss the Quantiles-based baseline counts every occurrence
/// and its rank-difference report misses no frequent item.
#[test]
fn quantiles_based_finds_frequent_items_lossless() {
    let (net, tree, bags) = gk_fixture(111);
    let eps = 0.01;
    let (summary, _) = gk_run(&net, &tree, &bags, eps, &NoLoss, 112);
    let truth = count_items(&bags);
    assert_eq!(summary.population(), truth.total());
    let s = 0.05;
    let reported = quantile_based::report_frequent(&summary, s, eps);
    for item in true_frequent(&bags, s) {
        assert!(reported.contains(&item), "missing frequent item {item}");
    }
}

/// The baseline's rank-difference frequencies are within `2εN` of
/// truth (plus rounding).
#[test]
fn quantiles_based_frequency_estimates_within_error() {
    let (net, tree, bags) = gk_fixture(113);
    let eps = 0.02;
    let (summary, _) = gk_run(&net, &tree, &bags, eps, &NoLoss, 114);
    let truth = count_items(&bags);
    let n = truth.total() as f64;
    for item in [1u64, 2, 3] {
        let est = summary.frequency(item) as f64;
        let err = (est - truth.count(item) as f64).abs();
        assert!(
            err <= 2.0 * eps * n + 2.0,
            "item {item}: est {est} truth {} err {err}",
            truth.count(item)
        );
    }
}

/// Algorithm 1 under every gradient keeps every estimate ε-deficient —
/// `c(u) − ε·N ≤ c̃(u) ≤ c(u)` with ε the base station's ε(h) — invents
/// no item, counts every occurrence without loss, and so reports every
/// item of support ≥ s.
#[test]
fn tree_frequent_items_are_eps_deficient_under_every_gradient() {
    fn check<G: PrecisionGradient + Copy>(net: &Network, tree: &Tree, bags: &[ItemBag], g: G) {
        let truth = count_items(bags);
        let slack = g.eps_at(shape(tree).1) * truth.total() as f64 + 1e-9;
        let (out, _) = tree_run(net, tree, bags, g, &NoLoss, 0, 72);
        assert_eq!(out.n_est, truth.total() as f64);
        for (item, true_c) in truth.iter() {
            let est = out.estimates.counts.get(&item).copied().unwrap_or(0.0);
            assert!(est <= true_c as f64, "item {item}: {est} > {true_c}");
            assert!(
                true_c as f64 - est <= slack,
                "item {item}: {est} undershoots {true_c}"
            );
        }
        assert!(out.estimates.counts.keys().all(|&u| truth.count(u) > 0));
        for item in true_frequent(bags, 0.05) {
            assert!(out.reported.contains(&item), "missing frequent item {item}");
        }
    }
    let (net, tree, bags) = tree_fixture(80, 300, 75);
    let (d, height) = shape(&tree);
    check(&net, &tree, &bags, MinTotalLoad::new(0.01, d));
    check(&net, &tree, &bags, MinMaxLoad::new(0.01, height));
    check(&net, &tree, &bags, Hybrid::new(0.01, d, height));
    check(&net, &tree, &bags, Uniform::new(0.01));
}

/// Figure 8's ordering on one bushy tree: Min Total-load sends fewer
/// words in total than Min Max-load (whose tiny leaf budgets cannot
/// prune the tail near the leaves) and no more than Hybrid (which halves
/// the leaf budget), and the quantiles-based baseline \[8\] sends more
/// than Min Total-load. Someone always transmits under every gradient.
#[test]
fn tree_gradient_loads_order_as_in_figure_8() {
    let (net, tree, bags) = tree_fixture(80, 300, 75);
    let (d, height) = shape(&tree);
    let eps = 0.01;
    let (g_mtl, g_mml) = (MinTotalLoad::new(eps, d), MinMaxLoad::new(eps, height));
    let g_hybrid = Hybrid::new(eps, d, height);
    let mtl = tree_run(&net, &tree, &bags, g_mtl, &NoLoss, 0, 76).1;
    let mml = tree_run(&net, &tree, &bags, g_mml, &NoLoss, 0, 76).1;
    let hybrid = tree_run(&net, &tree, &bags, g_hybrid, &NoLoss, 0, 76).1;
    let gk = gk_run(&net, &tree, &bags, eps, &NoLoss, 76).1;
    let (t_mtl, t_mml) = (mtl.total_words(), mml.total_words());
    let (t_hybrid, t_gk) = (hybrid.total_words(), gk.total_words());
    assert!(t_mtl < t_mml, "MTL {t_mtl} !< MML {t_mml}");
    assert!(t_mtl <= t_hybrid, "MTL {t_mtl} > Hybrid {t_hybrid}");
    assert!(t_gk > t_mtl, "GK {t_gk} !> MTL {t_mtl}");
    for stats in [&mtl, &mml, &hybrid] {
        assert!(stats.max_words_per_sensor() > 0);
    }
}

/// A lost unicast drops its sender's whole subtree, so loss only ever
/// undercounts; retransmitting tree links recovers population at the
/// cost of more transmissions.
#[test]
fn tree_loss_drops_subtrees_and_retransmission_recovers_them() {
    let (net, tree, bags) = tree_fixture(60, 100, 79);
    let truth = count_items(&bags);
    let mtl = MinTotalLoad::new(0.01, shape(&tree).0);
    let (out, _) = tree_run(&net, &tree, &bags, mtl, &Global::new(0.4), 0, 80);
    assert!(out.n_est < truth.total() as f64);
    for (&u, &c) in &out.estimates.counts {
        assert!(c <= truth.count(u) as f64, "estimate exceeds truth for {u}");
    }

    let (net, tree, bags) = tree_fixture(60, 100, 81);
    let mtl = MinTotalLoad::new(0.01, shape(&tree).0);
    let model = Global::new(0.3);
    let (lossy, lossy_stats) = tree_run(&net, &tree, &bags, mtl, &model, 0, 82);
    let (retried, retried_stats) = tree_run(&net, &tree, &bags, mtl, &model, 2, 82);
    assert!(
        retried.n_est > lossy.n_est,
        "retransmission did not help: {} vs {}",
        retried.n_est,
        lossy.n_est
    );
    assert!(retried_stats.total_transmissions() > lossy_stats.total_transmissions());
}

/// A deployment on a 20 × 20 field with ring range 4 and per-node bags
/// of `items` occurrences: 40 % heavy hitters {1, 2, 3}, the rest a
/// tail.
fn rings_fixture(nodes: usize, items: usize, seed: u64) -> (Network, Vec<ItemBag>) {
    use rand::Rng;
    let mut rng = rng_from_seed(seed);
    let net =
        Network::random_connected(nodes, 20.0, 20.0, Position::new(10.0, 10.0), 4.0, &mut rng);
    let mut rng = rng_from_seed(seed + 1);
    let mut bags = vec![ItemBag::new(); net.len()];
    for u in net.sensor_ids() {
        for _ in 0..items {
            if rng.gen_bool(0.4) {
                bags[u.index()].add(rng.gen_range(1u64..4), 1);
            } else {
                bags[u.index()].add(rng.gen_range(100u64..5000), 1);
            }
        }
    }
    (net, bags)
}

/// One SD epoch (all multi-path) of a frequent-items query with
/// multi-path config `mp_cfg`; the tree half has no vertex to run on.
fn sd_run<F: CounterFactory, M: LossModel>(
    net: &Network,
    bags: &[ItemBag],
    mp_cfg: MultipathConfig<F>,
    model: &M,
    seed: u64,
) -> (FreqOutput, CommStats) {
    let mut rng = rng_from_seed(seed);
    let mut session = SessionBuilder::new(Scheme::Sd).build(net, &mut rng);
    let proto = FreqProtocol::new(mp_cfg, MinTotalLoad::new(0.01, 2.0), 0.05, bags);
    let out = session.run_epoch(&proto, model, 0, &mut rng).output;
    (out, session.stats().clone())
}

/// Without loss and with exact counters SD counts every occurrence,
/// never overestimates an item, finds every item of support ≥ s and
/// reports nothing far below it.
#[test]
fn sd_lossless_exact_counters_find_every_frequent_item() {
    let (net, bags) = rings_fixture(60, 200, 91);
    let n: u64 = bags.iter().map(|b| b.total()).sum();
    let (s, eps) = (0.05, 0.002);
    let cfg = MultipathConfig::new(eps, 1.5, n * 2, ExactFactory);
    let (out, _) = sd_run(&net, &bags, cfg, &NoLoss, 93);
    assert!((out.estimates.n_est - n as f64).abs() < 1e-6);
    let reported = out.estimates.report(s - eps);
    for item in true_frequent(&bags, s) {
        assert!(reported.contains(&item), "missing {item}");
    }
    let truth = count_items(&bags);
    for item in &reported {
        assert!(
            truth.count(*item) as f64 > (s - eps) * n as f64 * 0.5,
            "false positive {item} with count {}",
            truth.count(*item)
        );
    }
    for (&u, &est) in &out.estimates.counts {
        assert!(
            est <= truth.count(u) as f64 + 1e-6,
            "item {u}: est {est} > truth"
        );
    }
}

/// At 30 % loss SD still accounts for the large majority of the
/// occurrences where TAG, on the same network and draws, loses most of
/// them; outer-ring nodes with a single receiver can still lose their
/// subtree, so a single run may fall well short. Held over 20 loss
/// seeds: SD's mean coverage stays above 3/4 and SD beats TAG on every
/// seed.
#[test]
fn sd_keeps_most_occurrences_at_30_percent_loss() {
    let (net, bags) = rings_fixture(150, 100, 97);
    let n: u64 = bags.iter().map(|b| b.total()).sum();
    let cfg = MultipathConfig::new(0.01, 1.5, n * 2, ExactFactory);
    let model = Global::new(0.3);
    let mut sd_sum = 0.0;
    for seed in 99..119 {
        let (sd, _) = sd_run(&net, &bags, cfg.clone(), &model, seed);
        let mut rng = rng_from_seed(seed);
        let mut tag = SessionBuilder::new(Scheme::Tag).build(&net, &mut rng);
        let proto = FreqProtocol::new(cfg.clone(), MinTotalLoad::new(0.01, 2.0), 0.05, &bags);
        let tag = tag.run_epoch(&proto, &model, 0, &mut rng).output;
        assert!(
            sd.estimates.n_est > tag.estimates.n_est,
            "seed {seed}: SD {} <= TAG {}",
            sd.estimates.n_est,
            tag.estimates.n_est
        );
        sd_sum += sd.estimates.n_est / n as f64;
    }
    assert!(
        sd_sum / 20.0 > 0.75,
        "SD keeps {:.3} of N on average",
        sd_sum / 20.0
    );
}

/// With best-effort FM counters SD still reports every heavy hitter
/// (each carries ~13 % of N at s = 5 %), and its synopses span more
/// than one TinyDB message per sensor (§7.4.3's "~3x the messages" of a
/// tree summary).
#[test]
fn sd_fm_synopses_report_heavy_hitters_in_several_messages() {
    let (net, bags) = rings_fixture(60, 200, 101);
    let n: u64 = bags.iter().map(|b| b.total()).sum();
    let eps = 0.005;
    let cfg = MultipathConfig::new(eps, 2.0, n * 2, FmFactory { bitmaps: 16 });
    let (out, stats) = sd_run(&net, &bags, cfg, &NoLoss, 103);
    let reported = out.estimates.report(0.05 - eps);
    for item in true_frequent(&bags, 0.05) {
        assert!(reported.contains(&item), "missing heavy hitter {item}");
    }
    let avg_messages = stats.total_messages() as f64 / net.num_sensors() as f64;
    assert!(
        avg_messages > 1.0,
        "expected multi-message synopses, got {avg_messages}"
    );
}
