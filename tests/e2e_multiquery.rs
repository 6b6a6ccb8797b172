//! End-to-end multi-query session equivalence: a `QuerySet` running
//! Count + Sum + Average + frequent-items concurrently must produce, per
//! query, outputs identical to four dedicated single-query sessions
//! under the same seed and loss model — while `CommStats` records only
//! one traversal's worth of message rounds. Under total loss, the
//! bundle's answers are the empty aggregate's.

use td_suite::aggregates::average::Average;
use td_suite::aggregates::count::Count;
use td_suite::aggregates::minmax::Max;
use td_suite::aggregates::sum::Sum;
use td_suite::core::protocol::{FreqOutput, FreqProtocol, QuantileProtocol, ScalarProtocol};
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, Session, SessionBuilder};
use td_suite::frequent::items::ItemBag;
use td_suite::frequent::multipath::MultipathConfig;
use td_suite::netsim::churn::ChurnSchedule;
use td_suite::netsim::loss::{GilbertElliott, Global};
use td_suite::netsim::network::Network;
use td_suite::netsim::node::Position;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::quantiles::gradient::MinTotalLoad;
use td_suite::sketches::counter::ExactFactory;
use td_suite::workloads::synthetic::Synthetic;

const SEED: u64 = 90210;
const EPOCHS: u64 = 30;

struct Fixture {
    net: Network,
    values: Vec<u64>,
    bags: Vec<ItemBag>,
    mp_cfg: MultipathConfig<ExactFactory>,
    gradient: MinTotalLoad,
}

fn fixture(scheme_salt: u64) -> Fixture {
    let mut rng = rng_from_seed(SEED ^ scheme_salt);
    let net = Network::random_connected(180, 13.0, 13.0, Position::new(6.5, 6.5), 2.5, &mut rng);
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 10 + (i * 7) % 60).collect();
    let bags: Vec<ItemBag> = (0..net.len())
        .map(|i| {
            if i == 0 {
                ItemBag::new() // base station holds no items
            } else {
                ItemBag::from_counts([(1u64, 30), (2 + i as u64 % 5, 8), (100 + i as u64, 2)])
            }
        })
        .collect();
    let n_total: u64 = bags.iter().map(|b| b.total()).sum();
    Fixture {
        net,
        values,
        bags,
        mp_cfg: MultipathConfig::new(0.01, 1.5, n_total * 2, ExactFactory),
        gradient: MinTotalLoad::new(0.01, 2.25),
    }
}

/// The four dedicated sessions and the bundled session all start from
/// the same seed, so the topology build and per-epoch loss draws line up
/// exactly; any per-query divergence would be an engine bug.
fn fresh_session(fx: &Fixture, scheme: Scheme) -> (Session, rand::rngs::StdRng) {
    let mut rng = rng_from_seed(SEED + 1);
    let session = SessionBuilder::new(scheme).build(&fx.net, &mut rng);
    (session, rng)
}

#[derive(Default)]
struct SingleRuns {
    count: Vec<f64>,
    sum: Vec<f64>,
    average: Vec<f64>,
    freq: Vec<FreqOutput>,
    rounds_per_query: Vec<u64>,
    bytes_total: u64,
}

fn run_singles(fx: &Fixture, scheme: Scheme, model: &Global) -> SingleRuns {
    let mut out = SingleRuns::default();

    let (mut session, mut rng) = fresh_session(fx, scheme);
    for epoch in 0..EPOCHS {
        let proto = ScalarProtocol::new(Count::default(), &fx.values);
        out.count
            .push(session.run_epoch(&proto, model, epoch, &mut rng).output);
    }
    out.rounds_per_query.push(session.stats().total_rounds());
    out.bytes_total += session.stats().total_bytes();

    let (mut session, mut rng) = fresh_session(fx, scheme);
    for epoch in 0..EPOCHS {
        let proto = ScalarProtocol::new(Sum::default(), &fx.values);
        out.sum
            .push(session.run_epoch(&proto, model, epoch, &mut rng).output);
    }
    out.rounds_per_query.push(session.stats().total_rounds());
    out.bytes_total += session.stats().total_bytes();

    let (mut session, mut rng) = fresh_session(fx, scheme);
    for epoch in 0..EPOCHS {
        let proto = ScalarProtocol::new(Average::default(), &fx.values);
        out.average
            .push(session.run_epoch(&proto, model, epoch, &mut rng).output);
    }
    out.rounds_per_query.push(session.stats().total_rounds());
    out.bytes_total += session.stats().total_bytes();

    let (mut session, mut rng) = fresh_session(fx, scheme);
    for epoch in 0..EPOCHS {
        let proto = FreqProtocol::new(fx.mp_cfg.clone(), fx.gradient, 0.15, &fx.bags);
        out.freq
            .push(session.run_epoch(&proto, model, epoch, &mut rng).output);
    }
    out.rounds_per_query.push(session.stats().total_rounds());
    out.bytes_total += session.stats().total_bytes();

    out
}

fn check_scheme(scheme: Scheme, scheme_salt: u64) {
    let fx = fixture(scheme_salt);
    let model = Global::new(0.2);
    let singles = run_singles(&fx, scheme, &model);

    // Every dedicated session saw the identical loss stream, so each
    // made the same number of send rounds.
    assert!(
        singles
            .rounds_per_query
            .iter()
            .all(|&r| r == singles.rounds_per_query[0]),
        "{}: dedicated sessions diverged in rounds: {:?}",
        scheme.name(),
        singles.rounds_per_query
    );

    // The bundled session: all four queries per epoch, one traversal.
    let (mut session, mut rng) = fresh_session(&fx, scheme);
    let mut bundled = SingleRuns::default();
    for epoch in 0..EPOCHS {
        let count_p = ScalarProtocol::new(Count::default(), &fx.values);
        let sum_p = ScalarProtocol::new(Sum::default(), &fx.values);
        let avg_p = ScalarProtocol::new(Average::default(), &fx.values);
        let freq_p = FreqProtocol::new(fx.mp_cfg.clone(), fx.gradient, 0.15, &fx.bags);
        let mut set = QuerySet::new();
        let h_count = set.register(&count_p);
        let h_sum = set.register(&sum_p);
        let h_avg = set.register(&avg_p);
        let h_freq = set.register(&freq_p);
        assert_eq!(set.len(), 4);
        let mut rec = session.run_set(&set, &model, epoch, &mut rng);
        bundled.count.push(*rec.answers.get(h_count));
        bundled.sum.push(*rec.answers.get(h_sum));
        bundled.average.push(*rec.answers.get(h_avg));
        bundled.freq.push(rec.answers.take(h_freq));
    }

    // Bit-for-bit per-query equivalence, every epoch.
    assert_eq!(
        bundled.count,
        singles.count,
        "{}: Count diverged",
        scheme.name()
    );
    assert_eq!(bundled.sum, singles.sum, "{}: Sum diverged", scheme.name());
    assert_eq!(
        bundled.average,
        singles.average,
        "{}: Average diverged",
        scheme.name()
    );
    for (epoch, (b, a)) in bundled.freq.iter().zip(&singles.freq).enumerate() {
        assert_eq!(
            b.n_est,
            a.n_est,
            "{}: frequent-items N-hat diverged at epoch {epoch}",
            scheme.name()
        );
        assert_eq!(
            b.reported,
            a.reported,
            "{}: frequent-items report diverged at epoch {epoch}",
            scheme.name()
        );
        assert_eq!(
            b.estimates.counts,
            a.estimates.counts,
            "{}: frequent-items estimates diverged at epoch {epoch}",
            scheme.name()
        );
    }

    // One traversal's worth of message rounds — identical to what ONE
    // dedicated query costs, four times less than four of them.
    assert_eq!(
        session.stats().total_rounds(),
        singles.rounds_per_query[0],
        "{}: bundled rounds exceed one traversal",
        scheme.name()
    );
    // Byte accounting: payloads are additive, so the bundle never costs
    // more than four dedicated traversals — and for the adaptive schemes
    // it costs strictly less, because the per-link envelope overhead
    // (count sketch + extremum reports) is charged once instead of four
    // times.
    assert!(
        session.stats().total_bytes() <= singles.bytes_total,
        "{}: bundle bytes {} above dedicated total {}",
        scheme.name(),
        session.stats().total_bytes(),
        singles.bytes_total
    );
    if matches!(scheme, Scheme::Td | Scheme::TdCoarse) {
        assert!(
            session.stats().total_bytes() < singles.bytes_total,
            "{}: shared envelope saved no bytes ({} vs {})",
            scheme.name(),
            session.stats().total_bytes(),
            singles.bytes_total
        );
    }
}

/// A base station that hears nothing answers the empty aggregate: under
/// total loss every scheme's five-query bundle (Sum, Count, Max,
/// frequent items, q-digest) evaluates to zero scalars, no reported item
/// and `N̂ = 0`, and an empty digest — whether the base runs as a tree
/// (TAG) or multi-path (SD, and TD's delta).
#[test]
fn a_base_station_that_hears_nothing_answers_empty() {
    let fx = fixture(0);
    let model = Global::new(1.0);
    for scheme in Scheme::all() {
        let (mut session, mut rng) = fresh_session(&fx, scheme);
        for epoch in 0..6 {
            let sum = ScalarProtocol::new(Sum::default(), &fx.values);
            let count = ScalarProtocol::new(Count::default(), &fx.values);
            let max = ScalarProtocol::new(Max, &fx.values);
            let freq = FreqProtocol::new(fx.mp_cfg.clone(), fx.gradient, 0.15, &fx.bags);
            let digest = QuantileProtocol::qdigest(10, fx.gradient, &fx.values);
            let mut set = QuerySet::new();
            let scalars = [set.register(&sum), set.register(&count), set.register(&max)];
            let h_freq = set.register(&freq);
            let h_digest = set.register(&digest);
            let rec = session.run_set(&set, &model, epoch, &mut rng);
            let name = scheme.name();
            assert_eq!(rec.contributing, 0, "{name}: a reading got through");
            for h in scalars {
                assert_eq!(*rec.answers.get(h), 0.0, "{name} epoch {epoch}");
            }
            let freq = rec.answers.get(h_freq);
            assert!(freq.reported.is_empty(), "{name}: {:?}", freq.reported);
            assert_eq!(freq.n_est, 0.0, "{name} epoch {epoch}");
            assert_eq!(rec.answers.get(h_digest).population(), 0, "{name}");
        }
    }
}

#[test]
fn td_multiquery_matches_dedicated_sessions() {
    check_scheme(Scheme::Td, 1);
}

#[test]
fn td_coarse_multiquery_matches_dedicated_sessions() {
    check_scheme(Scheme::TdCoarse, 2);
}

#[test]
fn sd_multiquery_matches_dedicated_sessions() {
    check_scheme(Scheme::Sd, 3);
}

#[test]
fn tag_multiquery_matches_dedicated_sessions() {
    check_scheme(Scheme::Tag, 4);
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// The simulated bytes of the scalar multi-path synopses pinned to a
/// constant: an adaptive TD deployment under burst loss and churn, whose
/// sends carry the adaptation envelope (with its count sketch) on every
/// decision epoch, runs Sum, Count and Max in one bundle. Every epoch folds the
/// epoch's byte delta, and at the end every node's sent bytes, into one
/// FNV digest. The Sum and Count FM sketches and the envelope's count
/// sketch are priced by `rle::encoded_size_bytes`, so a change in how
/// that size is computed has to leave every byte where it was.
#[test]
fn scalar_wire_bytes_match_the_pinned_digest() {
    let net = Synthetic::small(300).build(0x5CA_1A2);
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 20 + (i * 13) % 111).collect();
    let burst = GilbertElliott::bursty(0.15, 4.0, 0.8, 0xB0B);
    let churn = ChurnSchedule::new(net.len(), 0.01, 8.0, 0xC4C);
    let mut rng = rng_from_seed(0x5CA_1A2 + 1);
    let mut session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut bytes_before = 0;
    for epoch in 0..60u64 {
        session.apply_churn(&churn.events_at(epoch));
        let sum_p = ScalarProtocol::new(Sum::default(), &values);
        let count_p = ScalarProtocol::new(Count::default(), &values);
        let max_p = ScalarProtocol::new(Max, &values);
        let mut set = QuerySet::new();
        set.register(&sum_p);
        set.register(&count_p);
        set.register(&max_p);
        session.run_set(&set, &churn.overlay(&burst), epoch, &mut rng);
        let bytes = session.stats().total_bytes();
        fnv(&mut h, bytes - bytes_before);
        bytes_before = bytes;
    }
    for u in net.node_ids() {
        fnv(&mut h, session.stats().node(u).bytes);
    }
    assert!(session.stats().nodes_left() > 0, "churn never fired");
    assert!(session.plan_stats().patches > 0, "the delta never adapted");
    assert_eq!(
        h, PINNED_SCALAR_WIRE_DIGEST,
        "scalar wire byte digest moved (got {h:#018x})"
    );
}

/// Stamped before the RLE size kernel replaced the encoder replay, and
/// re-stamped (from 0xc86b_0992_157b_7f29) when the envelope stopped
/// riding on epochs the adapter does not read.
const PINNED_SCALAR_WIRE_DIGEST: u64 = 0x0edd_26ef_2b29_aeaa;
