//! End-to-end frequent-items runs through the Tributary-Delta protocol
//! (§6.3): tree tributaries running Algorithm 1, delta running
//! Algorithm 2, conversion at the boundary, ε split across the halves.

use td_suite::core::protocol::{FreqProtocol, QuantileProtocol};
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, Session, SessionBuilder, SessionConfig};
use td_suite::frequent::items::{count_items, true_frequent, ItemBag};
use td_suite::frequent::multipath::MultipathConfig;
use td_suite::netsim::churn::ChurnSchedule;
use td_suite::netsim::loss::{GilbertElliott, Global, NoLoss};
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::quantiles::gradient::MinTotalLoad;
use td_suite::sketches::counter::{ExactFactory, FmFactory};
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

/// The set-valued answers pinned to a constant, not to another engine
/// path: a 600-node adaptive TD deployment under burst loss and churn
/// carrying a frequent-items query (FM counters) and a q-digest quantile
/// query in one bundle. Every epoch folds the frequent-items estimates
/// and reported items, the q-digest's nodes, `n` and `E`, and the
/// epoch's simulated bytes into one FNV digest. The constant was stamped
/// before the delta's set-valued messages moved to flat sorted storage,
/// so a change in how they are fused, stored or sized has to leave every
/// answer and every byte where it was.
#[test]
fn set_valued_answers_match_the_pinned_digest() {
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
    let mut h = 0xcbf2_9ce4_8422_2325u64;
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
        let f = rec.answers.get(freq);
        fnv(&mut h, f.n_est.to_bits());
        for (&item, est) in &f.estimates.counts {
            fnv(&mut h, item);
            fnv(&mut h, est.to_bits());
        }
        for &item in &f.reported {
            fnv(&mut h, item);
        }
        let q = &rec.answers.get(quantile).summary;
        for ((depth, prefix), count) in q.nodes() {
            fnv(&mut h, u64::from(depth));
            fnv(&mut h, prefix);
            fnv(&mut h, count);
        }
        fnv(&mut h, q.population());
        fnv(&mut h, q.uncertainty());
        let bytes = session.stats().total_bytes();
        fnv(&mut h, bytes - bytes_before);
        bytes_before = bytes;
    }
    assert!(session.stats().nodes_left() > 0, "churn never fired");
    assert!(session.plan_stats().patches > 0, "the delta never adapted");
    assert_eq!(
        h, PINNED_SET_VALUED_DIGEST,
        "set-valued answer digest moved (got {h:#018x})"
    );
}

/// Stamped from a default-features run; asserted identically under
/// `--no-default-features`.
const PINNED_SET_VALUED_DIGEST: u64 = 0xff90_c8ba_0e8f_4348;
