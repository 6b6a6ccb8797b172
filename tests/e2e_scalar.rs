//! End-to-end runs of every scalar aggregate through every aggregation
//! scheme — the cross-crate integration surface a user touches first.

use td_suite::aggregates::average::Average;
use td_suite::aggregates::count::Count;
use td_suite::aggregates::minmax::{Max, Min};
use td_suite::aggregates::sum::Sum;
use td_suite::aggregates::traits::Aggregate;
use td_suite::core::protocol::ScalarProtocol;
use td_suite::core::session::{Scheme, Session};
use td_suite::netsim::loss::{Global, NoLoss};
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::rng_from_seed;

fn test_net(seed: u64) -> Network {
    let mut rng = rng_from_seed(seed);
    Network::random_connected(150, 12.0, 12.0, Position::new(6.0, 6.0), 2.5, &mut rng)
}

fn run_lossless<A: Aggregate>(agg: A, values: &[u64], net: &Network, scheme: Scheme) -> f64 {
    let mut rng = rng_from_seed(99);
    let mut session = Session::with_paper_defaults(scheme, net, &mut rng);
    let mut out = 0.0;
    for epoch in 0..3 {
        let proto = ScalarProtocol::new(agg.clone(), values);
        out = session.run_epoch(&proto, &NoLoss, epoch, &mut rng).output;
    }
    out
}

#[test]
fn count_all_schemes_lossless() {
    let net = test_net(1);
    let values = vec![1u64; net.len()];
    let truth = net.num_sensors() as f64;
    for scheme in Scheme::all() {
        let out = run_lossless(Count::default(), &values, &net, scheme);
        let rel = (out - truth).abs() / truth;
        let tol = match scheme {
            Scheme::Tag => 1e-9, // trees are exact
            _ => 0.4,            // sketch error budget
        };
        assert!(
            rel <= tol,
            "{}: count {out} vs {truth} (rel {rel})",
            scheme.name()
        );
    }
}

#[test]
fn sum_all_schemes_lossless() {
    let net = test_net(2);
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 10 + i % 50).collect();
    let truth: f64 = values[1..].iter().sum::<u64>() as f64;
    for scheme in Scheme::all() {
        let out = run_lossless(Sum::default(), &values, &net, scheme);
        let rel = (out - truth).abs() / truth;
        let tol = if scheme == Scheme::Tag { 1e-9 } else { 0.4 };
        assert!(rel <= tol, "{}: sum {out} vs {truth}", scheme.name());
    }
}

#[test]
fn min_max_exact_in_every_scheme() {
    let net = test_net(3);
    let mut values: Vec<u64> = (0..net.len() as u64)
        .map(|i| 100 + (i * 37) % 900)
        .collect();
    values[13] = 7; // global min
    values[77] = 5000; // global max
    for scheme in Scheme::all() {
        assert_eq!(
            run_lossless(Min, &values, &net, scheme),
            7.0,
            "{}",
            scheme.name()
        );
        assert_eq!(
            run_lossless(Max, &values, &net, scheme),
            5000.0,
            "{}",
            scheme.name()
        );
    }
}

#[test]
fn average_close_in_every_scheme() {
    let net = test_net(4);
    let values = vec![40u64; net.len()];
    for scheme in Scheme::all() {
        let out = run_lossless(Average::default(), &values, &net, scheme);
        assert!(
            (out - 40.0).abs() < 16.0,
            "{}: average {out}",
            scheme.name()
        );
    }
}

#[test]
fn lossy_ordering_tree_worst_td_tracks_best() {
    // The paper's headline in one integration test: at a realistic loss
    // rate, the tree underestimates badly, multi-path holds up, and TD
    // tracks the better of the two.
    let net = test_net(6);
    let values = vec![1u64; net.len()];
    let truth = net.num_sensors() as f64;
    let model = Global::new(0.3);
    let mut answers = std::collections::BTreeMap::new();
    for scheme in Scheme::all() {
        let mut rng = rng_from_seed(100);
        let mut session = Session::with_paper_defaults(scheme, &net, &mut rng);
        let mut total = 0.0;
        let epochs = 60u64;
        for epoch in 0..epochs {
            let proto = ScalarProtocol::new(Count::default(), &values);
            total += session.run_epoch(&proto, &model, epoch, &mut rng).output;
        }
        answers.insert(scheme.name(), total / epochs as f64);
    }
    let err = |s: &str| (answers[s] - truth).abs() / truth;
    assert!(
        err("TAG") > 2.0 * err("SD"),
        "TAG err {} vs SD err {}",
        err("TAG"),
        err("SD")
    );
    assert!(
        err("TD") < err("TAG"),
        "TD err {} vs TAG err {}",
        err("TD"),
        err("TAG")
    );
}

#[test]
fn stats_accumulate_across_epochs() {
    let net = test_net(7);
    let values = vec![1u64; net.len()];
    let mut rng = rng_from_seed(101);
    let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
    for epoch in 0..5 {
        let proto = ScalarProtocol::new(Count::default(), &values);
        session.run_epoch(&proto, &NoLoss, epoch, &mut rng);
    }
    let stats = session.stats();
    // Every sensor transmits once per epoch.
    assert!(stats.total_messages() >= 5 * net.num_sensors() as u64);
    assert!(stats.total_bytes() > 0);
}
