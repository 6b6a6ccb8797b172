//! Tier-1 determinism of the parallel trial executor, in the shape the
//! experiments use it: a [`TrialPool::map`] over trial configurations
//! that each carry their own seed must be **bit-for-bit identical** —
//! per-trial answers and merged [`CommStats`] — to a plain sequential
//! loop over the same configurations, under every aggregation scheme
//! and at any thread count.

use td_suite::aggregates::sum::Sum;
use td_suite::core::driver::{Driver, FixedReadings, TrialPool};
use td_suite::core::session::{Scheme, Session};
use td_suite::netsim::loss::Global;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::{rng_from_seed, substream};
use td_suite::netsim::stats::CommStats;

const TRIALS: u64 = 6;
const SEED: u64 = 7711;

fn test_net() -> Network {
    let mut rng = rng_from_seed(4001);
    Network::random_connected(180, 14.0, 14.0, Position::new(7.0, 7.0), 2.5, &mut rng)
}

/// One full trial: build a session from the trial's own seed, run a
/// warmed-up lossy Sum scenario, report the measured estimate series and
/// the trial's communication accounting.
fn trial(
    scheme: Scheme,
    loss: f64,
    seed: u64,
    net: &Network,
    values: &[u64],
) -> (Vec<f64>, CommStats) {
    let mut rng = substream(SEED, seed);
    let session = Session::with_paper_defaults(scheme, net, &mut rng);
    let mut driver = Driver::new(session, 3);
    let run = driver.run_scalar(
        &Sum::default(),
        &FixedReadings(values.to_vec()),
        &Global::new(loss),
        10,
        |readings| readings[1..].iter().sum::<u64>() as f64,
        &mut rng,
    );
    (run.estimates, driver.into_session().stats().clone())
}

/// Split trial results into their answers and their stats merged in
/// trial order.
fn merged(results: Vec<(Vec<f64>, CommStats)>) -> (Vec<Vec<f64>>, CommStats) {
    let mut answers = Vec::new();
    let mut stats: Option<CommStats> = None;
    for (out, trial_stats) in results {
        match &mut stats {
            Some(acc) => acc.merge(&trial_stats),
            none => *none = Some(trial_stats),
        }
        answers.push(out);
    }
    (answers, stats.expect("at least one trial"))
}

#[test]
fn run_trials_is_bit_identical_to_sequential_under_every_scheme() {
    let net = test_net();
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 40).collect();
    for scheme in Scheme::all() {
        let seeds: Vec<u64> = (0..TRIALS).collect();
        let job = |&seed: &u64| trial(scheme, 0.25, seed, &net, &values);
        let sequential = merged(seeds.iter().map(job).collect());
        for threads in [1usize, 2, 4, 16] {
            let (answers, stats) = merged(TrialPool::with_threads(threads).map(&seeds, job));
            assert_eq!(
                answers,
                sequential.0,
                "{} answers diverged at {threads} threads",
                scheme.name()
            );
            assert_eq!(
                stats,
                sequential.1,
                "{} CommStats diverged at {threads} threads",
                scheme.name()
            );
        }
    }
}

#[test]
fn run_sweep_is_bit_identical_to_nested_sequential_loops() {
    // One flat pool over (loss rate, seed) cells, as the figure sweeps
    // fan out, regrouped per point afterwards.
    let net = test_net();
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 2 + i % 25).collect();
    let points = [0.0f64, 0.2, 0.4];
    let trials_per_point = 2u64;
    let cells: Vec<(f64, u64)> = points
        .iter()
        .enumerate()
        .flat_map(|(pi, &p)| (0..trials_per_point).map(move |t| (p, pi as u64 * 100 + t)))
        .collect();
    let flat = TrialPool::with_threads(4).map(&cells, |&(p, seed)| {
        trial(Scheme::Td, p, seed, &net, &values)
    });
    let mut flat = flat.into_iter();

    for (pi, &p) in points.iter().enumerate() {
        let expect = merged(
            (0..trials_per_point)
                .map(|t| trial(Scheme::Td, p, pi as u64 * 100 + t, &net, &values))
                .collect(),
        );
        let got = merged(flat.by_ref().take(trials_per_point as usize).collect());
        assert_eq!(got.0, expect.0, "p={p} answers");
        assert_eq!(got.1, expect.1, "p={p} stats");
    }
}
