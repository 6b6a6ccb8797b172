//! Cross-crate invariant tests: the paper's structural properties hold
//! through adversarial, multi-epoch, adapting executions.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use td_suite::aggregates::count::Count;
use td_suite::aggregates::sum::Sum;
use td_suite::core::envelope::{Extremum, TOP_K_EXTREMA};
use td_suite::core::protocol::{Protocol, ScalarProtocol};
use td_suite::core::query::QuerySet;
use td_suite::core::runner::{EpochPlan, RunnerConfig};
use td_suite::core::session::{Scheme, Session, SessionBuilder, SessionConfig};
use td_suite::netsim::churn::ChurnSchedule;
use td_suite::netsim::loss::{DeadNodes, GilbertElliott, Global, LossModel};
use td_suite::netsim::message::WireSize;
use td_suite::netsim::network::Network;
use td_suite::netsim::node::{NodeId, Position};
use td_suite::netsim::rng::rng_from_seed;
use td_suite::netsim::stats::CommStats;
use td_suite::topology::bushy::{build_bushy_tree, BushyOptions};
use td_suite::topology::maintenance::apply_churn;
use td_suite::topology::rings::Rings;
use td_suite::topology::td::TdTopology;

fn net(seed: u64, sensors: usize) -> Network {
    let mut rng = rng_from_seed(seed);
    Network::random_connected(sensors, 12.0, 12.0, Position::new(6.0, 6.0), 2.5, &mut rng)
}

/// Edge/path correctness (Properties 1–2) must hold after every epoch of
/// an adapting session under chaotic loss.
#[test]
fn correctness_properties_hold_through_adaptation() {
    let net = net(21, 200);
    let values = vec![1u64; net.len()];
    for scheme in [Scheme::TdCoarse, Scheme::Td] {
        let mut rng = rng_from_seed(22);
        let mut session = Session::new(SessionConfig::paper_defaults(scheme), &net, &mut rng);
        for epoch in 0..120u64 {
            // Loss oscillates to provoke both expansion and shrinking.
            let p = if (epoch / 30) % 2 == 0 { 0.35 } else { 0.02 };
            let proto = ScalarProtocol::new(Count::default(), &values);
            session.run_epoch(&proto, &Global::new(p), epoch, &mut rng);
            let topo = session.topology().expect("TD scheme has a topology");
            topo.validate().unwrap_or_else(|e| {
                panic!(
                    "{} violated invariants at epoch {epoch}: {e}",
                    scheme.name()
                )
            });
            assert!(topo.check_path_correctness(), "path correctness broken");
        }
    }
}

/// Lemma 1: while both vertex classes exist, both switchable sets are
/// non-empty — checked across the delta sizes an adapting session visits.
#[test]
fn lemma1_through_adaptation() {
    let net = net(23, 150);
    let values = vec![1u64; net.len()];
    let mut rng = rng_from_seed(24);
    let mut session = Session::with_paper_defaults(Scheme::TdCoarse, &net, &mut rng);
    for epoch in 0..80u64 {
        let p = if (epoch / 20) % 2 == 0 { 0.4 } else { 0.0 };
        let proto = ScalarProtocol::new(Count::default(), &values);
        session.run_epoch(&proto, &Global::new(p), epoch, &mut rng);
        let topo = session.topology().unwrap();
        if topo.tributary_size() > 0 {
            assert!(!topo.switchable_t_nodes().is_empty());
        }
        if topo.delta_size() > 0 {
            assert!(!topo.switchable_m_nodes().is_empty());
        }
    }
}

/// Dead nodes (failure injection) never corrupt answers — they only
/// reduce the contributing set.
#[test]
fn dead_nodes_reduce_but_never_corrupt() {
    let net = net(25, 150);
    let values = vec![1u64; net.len()];
    let dead: Vec<NodeId> = (1..=20).map(NodeId).collect();
    let model = DeadNodes::new(&dead, Global::new(0.05));
    let mut rng = rng_from_seed(26);
    let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
    for epoch in 0..40 {
        let proto = ScalarProtocol::new(Count::default(), &values);
        let rec = session.run_epoch(&proto, &model, epoch, &mut rng);
        assert!(rec.contributing <= net.num_sensors() - dead.len());
        // The estimate never exceeds a sane bound over the live population.
        assert!(rec.output <= net.num_sensors() as f64 * 1.6);
    }
}

/// A protocol whose payload is the contributor set itself: every
/// non-base node sends `{u}`, merging and fusing are set union, and the
/// answer is the size of what reached the base station. It follows the
/// payload path — the same merges, conversions and fusions as any real
/// query — so it counts contributors independently of the runner's own
/// ground truth.
struct ContributorOracle;

impl ContributorOracle {
    fn own(node: NodeId) -> Option<BTreeSet<u32>> {
        (!node.is_base()).then(|| BTreeSet::from([node.0]))
    }
}

impl Protocol for ContributorOracle {
    type TreeMsg = BTreeSet<u32>;
    type MpMsg = BTreeSet<u32>;
    type Output = usize;

    fn local_tree(&self, node: NodeId) -> Option<BTreeSet<u32>> {
        Self::own(node)
    }

    fn merge_tree(&self, into: &mut BTreeSet<u32>, from: &BTreeSet<u32>) {
        into.extend(from);
    }

    fn local_mp(&self, node: NodeId, acc: &mut Option<BTreeSet<u32>>) -> bool {
        *acc = Self::own(node);
        acc.is_some()
    }

    fn fuse(&self, into: &mut BTreeSet<u32>, from: &BTreeSet<u32>) {
        into.extend(from);
    }

    fn convert(&self, _root: NodeId, msg: &BTreeSet<u32>, out: &mut Option<BTreeSet<u32>>) {
        *out = Some(msg.clone());
    }

    fn tree_words(&self, _msg: &BTreeSet<u32>) -> usize {
        1
    }

    fn mp_wire(&self, _msg: &BTreeSet<u32>) -> WireSize {
        WireSize::from_words(1)
    }

    fn evaluate_tree(&self, parts: &[BTreeSet<u32>], _base_height: u32) -> usize {
        parts.iter().flatten().collect::<BTreeSet<_>>().len()
    }

    fn evaluate_mp(&self, mp: &BTreeSet<u32>) -> usize {
        mp.len()
    }
}

/// A named channel, and the churn schedule the session applies before
/// each epoch when the channel silences absent nodes.
type Channel<'a> = (&'a str, &'a dyn LossModel, Option<&'a ChurnSchedule>);

/// Run the oracle beside a Sum for 16 adapting epochs and require its
/// answer to equal the session's `contributing` in every one. Returns
/// how many epochs had every sensor contributing.
fn oracle_agrees(
    net: &Network,
    (scheme, delta_levels): (Scheme, u16),
    workers: usize,
    (channel, model, churn): Channel<'_>,
) -> usize {
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 17).collect();
    let mut rng = rng_from_seed(61);
    let mut session = SessionBuilder::new(scheme)
        .initial_delta_levels(delta_levels)
        .adapt_every(3)
        .workers(workers)
        .parallel_min_nodes(0)
        .build(net, &mut rng);
    let mut full = 0;
    for epoch in 0..16u64 {
        if let Some(schedule) = churn {
            session.apply_churn(&schedule.events_at(epoch));
        }
        let mut set = QuerySet::new();
        let sum = set.register(ScalarProtocol::new(Sum::default(), &values));
        let oracle = set.register(ContributorOracle);
        let rec = session.run_set(&set, &model, epoch, &mut rng);
        assert!(rec.answers.get(sum).is_finite());
        assert_eq!(
            *rec.answers.get(oracle),
            rec.contributing,
            "{} (delta {delta_levels}), {channel}, {workers} workers, epoch {epoch}",
            scheme.name()
        );
        full += usize::from(rec.contributing == session.sensors());
    }
    full
}

/// The runner's exact contributor count equals what an independent
/// oracle query sees arrive: TAG, TD from the base alone and from two
/// delta levels (both adapting), and all-M SD; lossless, Bernoulli,
/// burst, dead-node and churn channels; one worker and two.
#[test]
fn contributing_matches_an_independent_oracle() {
    let net = net(27, 120);
    let dead: Vec<NodeId> = (1..=15).map(NodeId).collect();
    let churn = ChurnSchedule::new(net.len(), 0.05, 3.0, 0xC4A9);
    let lossless: Channel = ("lossless", &Global::new(0.0), None);
    let lossy: [Channel; 5] = [
        ("global 0.1", &Global::new(0.1), None),
        ("global 0.3", &Global::new(0.3), None),
        ("burst", &GilbertElliott::bursty(0.2, 4.0, 0.9, 0xB0B), None),
        (
            "dead nodes",
            &DeadNodes::new(&dead, Global::new(0.05)),
            None,
        ),
        ("churn", &churn.overlay(Global::new(0.1)), Some(&churn)),
    ];
    for shape in [
        (Scheme::Tag, 0),
        (Scheme::Td, 0),
        (Scheme::Td, 2),
        (Scheme::Sd, 0),
    ] {
        for workers in [1, 2] {
            let full = oracle_agrees(&net, shape, workers, lossless);
            assert_eq!(full, 16, "a lossless epoch lost someone");
            let mut partial = 0;
            for channel in lossy {
                partial += 16 - oracle_agrees(&net, shape, workers, channel);
            }
            assert!(partial > 0, "no lossy epoch lost anyone");
        }
    }
}

/// A protocol whose payload carries the §4.2 non-contribution reports
/// the way motes fuse them: tree messages are contributor sets (as in
/// [`ContributorOracle`]), and a multi-path message is every report it
/// has fused, keyed by reporting vertex. A switchable `M` vertex seals
/// its own report into its message: its static subtree, itself
/// excluded, less the contributors its delivered tree children carried
/// in. The reports travel the engine's own conversions, fusions and
/// broadcasts, so the answer — every report that reached the base
/// station — is independent of how the runner derives its extrema.
struct ExtremaOracle {
    /// Per node: `Some(static subtree size − 1)` for a switchable `M`
    /// vertex of the topology the epoch runs on.
    expected: Vec<Option<u64>>,
}

/// [`ExtremaOracle`]'s multi-path message.
#[derive(Clone, Default)]
struct Reports {
    /// The vertex building the message, until it is sealed.
    vertex: Option<NodeId>,
    /// The contributors its delivered tree children carried in (empty
    /// once sealed).
    received: BTreeSet<u32>,
    /// Reports fused so far: vertex id → non-contribution count.
    reports: BTreeMap<u32, u64>,
}

impl ExtremaOracle {
    fn new(topo: &TdTopology) -> Self {
        let tree = topo.tree();
        let mut subtree = vec![0u64; tree.len()];
        for u in tree.tree_nodes() {
            let mut at = Some(u);
            while let Some(v) = at {
                subtree[v.index()] += 1;
                at = tree.parent(v);
            }
        }
        let expected = (0..tree.len())
            .map(|i| {
                topo.is_switchable_m(NodeId(i as u32))
                    .then(|| subtree[i] - 1)
            })
            .collect();
        ExtremaOracle { expected }
    }

    /// Close the message's vertex: add its own report when switchable.
    fn close(&self, msg: &mut Reports) {
        if let Some(v) = msg.vertex.take() {
            if let Some(expected) = self.expected[v.index()] {
                let missing = expected.saturating_sub(msg.received.len() as u64);
                msg.reports.insert(v.0, missing);
            }
        }
        msg.received.clear();
    }
}

impl Protocol for ExtremaOracle {
    type TreeMsg = BTreeSet<u32>;
    type MpMsg = Reports;
    type Output = Vec<Extremum>;

    fn local_tree(&self, node: NodeId) -> Option<BTreeSet<u32>> {
        ContributorOracle::own(node)
    }

    fn merge_tree(&self, into: &mut BTreeSet<u32>, from: &BTreeSet<u32>) {
        into.extend(from);
    }

    fn local_mp(&self, node: NodeId, acc: &mut Option<Reports>) -> bool {
        *acc = Some(Reports {
            vertex: Some(node),
            ..Reports::default()
        });
        true
    }

    fn fuse(&self, into: &mut Reports, from: &Reports) {
        into.received.extend(&from.received);
        into.reports.extend(&from.reports);
    }

    fn convert(&self, _root: NodeId, msg: &BTreeSet<u32>, out: &mut Option<Reports>) {
        *out = Some(Reports {
            received: msg.clone(),
            ..Reports::default()
        });
    }

    fn seal(&self, acc: &mut Option<Reports>) -> Option<Reports> {
        let mut msg = acc.take()?;
        self.close(&mut msg);
        Some(msg)
    }

    fn tree_words(&self, _msg: &BTreeSet<u32>) -> usize {
        1
    }

    fn mp_wire(&self, _msg: &Reports) -> WireSize {
        WireSize::from_words(1)
    }

    fn evaluate_tree(&self, _parts: &[BTreeSet<u32>], _base_height: u32) -> Vec<Extremum> {
        Vec::new()
    }

    fn evaluate_mp(&self, mp: &Reports) -> Vec<Extremum> {
        let mut at_base = mp.clone();
        self.close(&mut at_base);
        let reports = at_base.reports.iter();
        reports
            .map(|(&node, &value)| Extremum {
                value,
                node: NodeId(node),
            })
            .collect()
    }
}

/// The reference top-k: every report sorted by value in the set's
/// direction, then by node id, cut to [`TOP_K_EXTREMA`].
fn reference_top_k(reports: &[Extremum], descending: bool) -> Vec<Extremum> {
    let mut all = reports.to_vec();
    all.sort_by(|a, b| {
        let by_value = if descending {
            b.value.cmp(&a.value)
        } else {
            a.value.cmp(&b.value)
        };
        by_value.then(a.node.0.cmp(&b.node.0))
    });
    all.truncate(TOP_K_EXTREMA);
    all
}

/// What [`extrema_oracle_agrees`] saw over its epochs.
#[derive(Default)]
struct ExtremaSeen {
    /// Epochs in which some switchable `M` vertex's report was lost.
    lost_report: usize,
    /// Epochs in which some report that arrived counted a missing node.
    missing_node: usize,
}

/// Run the extrema oracle beside a Sum on a plan of `topo` for 16
/// epochs — applying the channel's churn before each epoch and flipping
/// two random switchable vertices after every third, the plan patched
/// in place — and require `run_set`'s extrema to be the reference top-k
/// of the reports that reached the base station in every epoch.
fn extrema_oracle_agrees(
    net: &Network,
    (shape, mut topo): (&str, TdTopology),
    workers: usize,
    (channel, model, churn): Channel<'_>,
) -> ExtremaSeen {
    use rand::Rng;
    let values: Vec<u64> = (0..net.len() as u64).map(|i| 1 + i % 17).collect();
    let config = RunnerConfig {
        workers,
        parallel_min_nodes: 0,
        ..RunnerConfig::default()
    };
    let mut rng = rng_from_seed(63);
    let mut flips = rng_from_seed(64);
    let mut stats = CommStats::new(net.len());
    let mut plan = EpochPlan::compile_td(&topo);
    let mut seen = ExtremaSeen::default();
    for epoch in 0..16u64 {
        if let Some(schedule) = churn {
            let events = schedule.events_at(epoch);
            apply_churn(&mut topo, &events.left, &events.joined, &events.absent);
        }
        if epoch % 3 == 2 {
            for _ in 0..2 {
                let (to_m, to_t) = (topo.switchable_t_nodes(), topo.switchable_m_nodes());
                if !to_m.is_empty() && (to_t.is_empty() || flips.gen::<bool>()) {
                    topo.switch_to_m(to_m[flips.gen_range(0..to_m.len())])
                        .unwrap();
                } else if !to_t.is_empty() {
                    topo.switch_to_t(to_t[flips.gen_range(0..to_t.len())])
                        .unwrap();
                }
            }
        }
        plan.patch(&topo, topo.len())
            .expect("a TD plan patches within the whole network");
        let mut set = QuerySet::new();
        let sum = set.register(ScalarProtocol::new(Sum::default(), &values));
        let oracle = ExtremaOracle::new(&topo);
        let switchable = oracle.expected.iter().flatten().count();
        let handle = set.register(oracle);
        let out = plan.run_set(&set, net, &model, config, epoch, &mut stats, &mut rng);
        let answer = |i: usize| &out.outputs[i];
        let arrived: &Vec<Extremum> = answer(handle.index()).downcast_ref().unwrap();
        assert!(answer(sum.index())
            .downcast_ref::<f64>()
            .unwrap()
            .is_finite());
        let at = format!("{shape}, {channel}, {workers} workers, epoch {epoch}");
        let envelope = out
            .envelope
            .as_ref()
            .expect("the default config carries it");
        assert_eq!(
            envelope.max_noncontrib.entries(),
            reference_top_k(arrived, true),
            "{at}"
        );
        assert_eq!(
            envelope.min_noncontrib.entries(),
            reference_top_k(arrived, false),
            "{at}"
        );
        seen.lost_report += usize::from(arrived.len() < switchable);
        seen.missing_node += usize::from(arrived.iter().any(|e| e.value > 0));
    }
    seen
}

/// The base station's §4.2 extrema are the top-k of the reports an
/// independent oracle query carries to it through the engine's own
/// message paths: base-only, two-level and all-`M` deltas; lossless,
/// Bernoulli, burst, dead-node and churn channels, with relabels; one
/// worker and two.
#[test]
fn extrema_match_an_independent_oracle() {
    let net = net(27, 120);
    let rings = Rings::build(&net);
    let tree = build_bushy_tree(
        &net,
        &rings,
        BushyOptions::default(),
        &mut rng_from_seed(28),
    );
    let dead: Vec<NodeId> = (1..=15).map(NodeId).collect();
    let churn = ChurnSchedule::new(net.len(), 0.05, 3.0, 0xC4A9);
    let channels: [Channel; 6] = [
        ("lossless", &Global::new(0.0), None),
        ("global 0.1", &Global::new(0.1), None),
        ("global 0.3", &Global::new(0.3), None),
        ("burst", &GilbertElliott::bursty(0.2, 4.0, 0.9, 0xB0B), None),
        (
            "dead nodes",
            &DeadNodes::new(&dead, Global::new(0.05)),
            None,
        ),
        ("churn", &churn.overlay(Global::new(0.1)), Some(&churn)),
    ];
    for workers in [1, 2] {
        let mut seen = ExtremaSeen::default();
        for channel in channels {
            for shape in [
                ("base-only", TdTopology::new(rings.clone(), tree.clone(), 0)),
                ("two-level", TdTopology::new(rings.clone(), tree.clone(), 2)),
                (
                    "all-M",
                    TdTopology::all_multipath(rings.clone(), tree.clone()),
                ),
            ] {
                let s = extrema_oracle_agrees(&net, shape, workers, channel);
                seen.lost_report += s.lost_report;
                seen.missing_node += s.missing_node;
            }
        }
        assert!(seen.lost_report > 0, "no epoch lost a report");
        assert!(seen.missing_node > 0, "no report counted a missing node");
    }
}

/// The §4.1 synchronization constraint: every session-built TD topology
/// keeps tree links inside ring links, parents exactly one level down.
#[test]
fn tree_links_subset_of_ring_links() {
    for seed in [31u64, 32, 33] {
        let net = net(seed, 120);
        let rings = Rings::build(&net);
        let mut rng = rng_from_seed(seed ^ 0xF);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        let td = TdTopology::new(rings, tree, 1);
        for u in td.rings().connected_nodes() {
            if let Some(p) = td.tree().parent(u) {
                assert!(net.in_range(u, p), "tree link {u}->{p} not a radio link");
                assert_eq!(
                    td.rings().level(p).unwrap() + 1,
                    td.rings().level(u).unwrap(),
                    "parent not one ring level down"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random expand/shrink walks over random deployments preserve the
    /// topology invariants (fuzzing the switchability machinery from
    /// outside the crate that implements it).
    #[test]
    fn prop_random_walks_preserve_invariants(seed in 0u64..500, steps in 1usize..60) {
        let mut rng = rng_from_seed(seed);
        let net = Network::random_connected(80, 9.0, 9.0, Position::new(4.5, 4.5), 2.5, &mut rng);
        let rings = Rings::build(&net);
        let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
        let mut td = TdTopology::new(rings, tree, 1);
        use rand::Rng;
        for _ in 0..steps {
            if rng.gen_bool(0.5) {
                let ts = td.switchable_t_nodes();
                if let Some(&u) = ts.get(rng.gen_range(0..ts.len().max(1)).min(ts.len().saturating_sub(1))) {
                    let _ = td.switch_to_m(u);
                }
            } else {
                let ms = td.switchable_m_nodes();
                if let Some(&u) = ms.get(rng.gen_range(0..ms.len().max(1)).min(ms.len().saturating_sub(1))) {
                    let _ = td.switch_to_t(u);
                }
            }
            prop_assert!(td.validate().is_ok());
            prop_assert!(td.check_path_correctness());
        }
    }
}
