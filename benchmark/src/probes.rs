//! Isolated probes of single layers: one public function of one crate
//! called in a tight loop over inputs made from the seed, timed as one
//! calibrated block. They say what a primitive costs on its own, next to
//! what the ladder says it costs in place.

use std::collections::BTreeMap;
use std::hint::black_box;

use rand::Rng;
use td_aggregates::sum::Sum;
use td_aggregates::traits::Aggregate;
use td_frequent::items::{true_frequent, ItemBag};
use td_frequent::multipath::{fuse, generate_from_bag, MultipathConfig};
use td_frequent::summary::FreqSummary;
use td_netsim::churn::ChurnSchedule;
use td_netsim::loss::{broadcast, unicast, GilbertElliott, Global, LossModel, Retransmit};
use td_netsim::network::Network;
use td_netsim::node::NodeId;
use td_netsim::rng::{derive_seed, substream};
use td_quantiles::gradient::{MinTotalLoad, PrecisionGradient};
use td_quantiles::QDigest;
use td_sketches::counter::FmFactory;
use td_sketches::fm::FmSketch;
use td_stream::{
    AccumCounters, EpochMerge, FoldMode, FreqStreamQuery, PaneInput, PaneKind, PaneValue,
    StreamQuery, StreamSession, WindowAccum, WindowSpec,
};
use td_topology::bushy::{build_bushy_tree, BushyOptions};
use td_topology::rings::Rings;
use td_topology::td::TdTopology;
use td_topology::tree::{build_tag_tree, ParentSelection};
use td_workloads::synthetic::Synthetic;
use tributary_delta::driver::{Driver, FixedReadings, Workload};
use tributary_delta::metrics::false_negative_rate;
use tributary_delta::runner::EpochPlan;
use tributary_delta::session::{Scheme, SessionBuilder};

use crate::calib::Calibrator;
use crate::meter::Meter;
use crate::scenario::{bags_table, freq_cfg, multipath_cfg, QDIGEST_BITS};
use crate::trace;

/// Calibrated ns of `work`, which returns how many operations it made,
/// and the block's calibration factor.
fn timed(cal: &mut Calibrator, name: &'static str, work: impl FnOnce() -> u64) -> (f64, u64, f64) {
    trace::set_rung("probe");
    let mut meter = Meter::new(cal, 0.0, 0);
    let ops = meter.block(|_| {
        let _span = trace::begin(name, 0);
        work()
    });
    (meter.cal_ns, ops, meter.last_factor)
}

fn per_op(cal: &mut Calibrator, name: &'static str, work: impl FnOnce() -> u64) -> f64 {
    let (ns, ops, _) = timed(cal, name, work);
    ns / ops.max(1) as f64
}

/// `netsim` probes over `net`.
#[derive(Clone, Debug, Default)]
pub struct NetsimProbes {
    /// One `unicast` under `Global`, ns.
    pub unicast_draw_ns: f64,
    /// One `broadcast`, per potential receiver, ns.
    pub broadcast_draw_ns_per_receiver: f64,
    /// One `delivered` under `GilbertElliott`, ns.
    pub ge_draw_ns: f64,
    /// One `ChurnSchedule::events_at`, ns.
    pub churn_events_at_ns: f64,
}

/// How many epochs of `per_epoch` operations make about `target`.
fn epochs_for(per_epoch: usize, target: u64) -> u64 {
    (target / per_epoch.max(1) as u64).max(1)
}

/// Probe the delivery draws and the churn schedule on `net`.
pub fn netsim(net: &Network, seed: u64, shrink: u64, cal: &mut Calibrator) -> NetsimProbes {
    let global = Global::new(0.1);
    let sensors: Vec<NodeId> = net.sensor_ids().collect();
    let links: Vec<(NodeId, NodeId)> = sensors
        .iter()
        .filter_map(|&u| net.neighbors(u).first().map(|&v| (u, v)))
        .collect();
    let receivers: usize = sensors.iter().map(|&u| net.neighbors(u).len()).sum();
    let mut rng = substream(seed, 0xD7A3);
    let unicast_draw_ns = per_op(cal, "netsim.unicast", || {
        let epochs = epochs_for(links.len(), 1_000_000 / shrink);
        let mut heard = 0u64;
        for epoch in 0..epochs {
            for &(u, v) in &links {
                let sent = unicast(&global, Retransmit::default(), u, v, net, epoch, &mut rng);
                heard += u64::from(sent.delivered);
            }
        }
        black_box(heard);
        epochs * links.len() as u64
    });
    let broadcast_draw_ns_per_receiver = per_op(cal, "netsim.broadcast", || {
        let epochs = epochs_for(receivers, 1_000_000 / shrink);
        let mut heard = 0usize;
        for epoch in 0..epochs {
            for &u in &sensors {
                heard += broadcast(&global, u, net.neighbors(u), net, epoch, &mut rng).len();
            }
        }
        black_box(heard);
        epochs * receivers as u64
    });
    let burst = GilbertElliott::bursty(0.15, 4.0, 0.8, derive_seed(seed, 0xB0B));
    let ge_draw_ns = per_op(cal, "netsim.ge_delivered", || {
        let epochs = epochs_for(links.len(), 500_000 / shrink);
        let mut heard = 0u64;
        for epoch in 0..epochs {
            for &(u, v) in &links {
                heard += u64::from(burst.delivered(u, v, net, epoch, &mut rng));
            }
        }
        black_box(heard);
        epochs * links.len() as u64
    });
    let schedule = ChurnSchedule::new(net.len(), 0.01, 8.0, derive_seed(seed, 0xC42));
    let churn_events_at_ns = per_op(cal, "netsim.churn_events_at", || {
        let epochs = epochs_for(net.len(), 300_000 / shrink);
        let mut moved = 0usize;
        for epoch in 0..epochs {
            let events = schedule.events_at(epoch);
            moved += events.joined.len() + events.left.len();
        }
        black_box(moved);
        epochs
    });
    NetsimProbes {
        unicast_draw_ns,
        broadcast_draw_ns_per_receiver,
        ge_draw_ns,
        churn_events_at_ns,
    }
}

/// `topology` probes over `net`, and the `core` plan probes that need a
/// topology to work on.
#[derive(Clone, Debug, Default)]
pub struct TopologyProbes {
    /// `Rings::build`, s.
    pub rings_build_s: f64,
    /// The scheme's tree builder (`build_tag_tree` for TAG, else
    /// `build_bushy_tree`), s.
    pub tree_build_s: f64,
    /// `TdTopology::new`, s.
    pub td_new_s: f64,
    /// One `expand_subtree` or one round of `switch_to_t` undoing it, ns.
    pub relabel_ns: f64,
    /// `EpochPlan::patch` after each of those, ns.
    pub plan_patch_ns: f64,
    /// `EpochPlan::compile_*` of the scheme's own plan, per node, ns.
    pub plan_compile_ns_per_node: f64,
}

/// Probe topology construction, relabeling and plan maintenance on `net`.
pub fn topology(
    net: &Network,
    scheme: Scheme,
    seed: u64,
    shrink: u64,
    cal: &mut Calibrator,
) -> TopologyProbes {
    let mut rng = substream(seed, 0x70B0);
    let mut rings = None;
    let (ns, _, _) = timed(cal, "topology.rings_build", || {
        rings = Some(Rings::build(net));
        1
    });
    let rings_build_s = ns / 1e9;
    let rings = rings.expect("built above");
    let mut bushy = None;
    let (bushy_ns, _, _) = timed(cal, "topology.bushy_tree_build", || {
        bushy = Some(build_bushy_tree(
            net,
            &rings,
            BushyOptions::default(),
            &mut rng,
        ));
        1
    });
    let bushy = bushy.expect("built above");
    let mut tag_plan_ns_per_node = 0.0;
    let tree_build_s = if scheme == Scheme::Tag {
        let mut tag = None;
        let (tag_ns, _, _) = timed(cal, "topology.tag_tree_build", || {
            tag = Some(build_tag_tree(
                net,
                ParentSelection::Random,
                None,
                false,
                &mut rng,
            ));
            1
        });
        let tag = tag.expect("built above");
        tag_plan_ns_per_node = per_op(cal, "core.plan_compile_tag", || {
            for _ in 0..5 {
                black_box(EpochPlan::compile_tag(&tag));
            }
            5 * net.len() as u64
        });
        tag_ns / 1e9
    } else {
        bushy_ns / 1e9
    };
    // The widest initial delta that leaves a delta vertex with tributary
    // children to oscillate; a tenant-sized network may only have one at
    // one level, or none.
    let levels = [2u16, 1].into_iter().find(|&levels| {
        oscillation_root(&TdTopology::new(rings.clone(), bushy.clone(), levels)).is_some()
    });
    let mut td = None;
    let (ns, _, _) = timed(cal, "topology.td_new", || {
        td = Some(TdTopology::new(rings, bushy, levels.unwrap_or(1)));
        1
    });
    let td_new_s = ns / 1e9;
    let mut td = td.expect("built above");
    let td_plan_ns_per_node = per_op(cal, "core.plan_compile_td", || {
        for _ in 0..5 {
            black_box(EpochPlan::compile_td(&td));
        }
        5 * net.len() as u64
    });
    // The §4.2 oscillation: expand one switchable subtree, switch its
    // children back, and keep the plan in line after each.
    let ops = 4_000 / shrink;
    let (relabel_ns, both_ns) = match oscillation_root(&td) {
        Some(root) => {
            let relabel_ns = per_op(cal, "topology.relabel", || {
                for op in 0..ops {
                    oscillate(&mut td, root, op);
                }
                ops
            });
            let mut plan = EpochPlan::compile_td(&td);
            let both_ns = per_op(cal, "core.plan_patch", || {
                for op in 0..ops {
                    oscillate(&mut td, root, op);
                    black_box(plan.patch(&td, td.len()));
                }
                ops
            });
            (relabel_ns, both_ns)
        }
        // Nothing to relabel on this deployment.
        None => (0.0, 0.0),
    };
    TopologyProbes {
        rings_build_s,
        tree_build_s,
        td_new_s,
        relabel_ns,
        plan_patch_ns: (both_ns - relabel_ns).max(0.0),
        plan_compile_ns_per_node: if scheme == Scheme::Tag {
            tag_plan_ns_per_node
        } else {
            td_plan_ns_per_node
        },
    }
}

fn oscillation_root(td: &TdTopology) -> Option<NodeId> {
    td.switchable_m_nodes()
        .into_iter()
        .find(|&u| !td.tree().children(u).is_empty())
}

fn oscillate(td: &mut TdTopology, root: NodeId, step: u64) {
    if step.is_multiple_of(2) {
        td.expand_subtree(root).expect("the root stays an M vertex");
    } else {
        let children: Vec<NodeId> = td.tree().children(root).to_vec();
        for c in children {
            // A child that cannot switch back (it has M children of its
            // own) just stays; the next expand is then a no-op for it.
            let _ = td.switch_to_t(c);
        }
    }
}

/// `sketches`, `aggregates`, `quantiles`, `frequent`, `stream` and
/// `workloads` primitives.
#[derive(Clone, Debug, Default)]
pub struct PrimitiveProbes {
    /// `FmSketch::insert_distinct`, ns.
    pub fm_insert_ns: f64,
    /// `FmSketch::merge`, ns.
    pub fm_merge_ns: f64,
    /// `Sum::fuse` of two synopses, ns.
    pub sum_fuse_ns: f64,
    /// `QDigest::combine`, ns.
    pub qdigest_combine_ns: f64,
    /// `QDigest::reduce`, ns.
    pub qdigest_reduce_ns: f64,
    /// Largest rank error of the reduced root digest over every value,
    /// as a share of the population.
    pub rank_error_max: f64,
    /// Whether that error stayed within the digest's own `uncertainty()`.
    pub rank_error_within_bound: bool,
    /// `FreqSummary::combine` of two children and an own summary, ns.
    pub summary_merge_ns: f64,
    /// `multipath::fuse` of two same-class synopses, ns.
    pub multipath_fuse_ns: f64,
    /// `WindowAccum::absorb` on a `sliding(16, 1)`/`Add` window, ns.
    pub window_absorb_ns: f64,
    /// `Workload::readings` per node, ns.
    pub readings_ns_per_node: f64,
}

/// Probe the primitives. `workload` and `nodes` are the workload's own
/// readings source and deployment size.
pub fn primitives(
    workload: &impl Workload,
    nodes: usize,
    seed: u64,
    shrink: u64,
    cal: &mut Calibrator,
) -> PrimitiveProbes {
    let mut rng = substream(seed, 0x9121);
    let fm_insert_ns = per_op(cal, "sketches.fm_insert", || {
        let mut sketch = FmSketch::default_config();
        let base: u64 = rng.gen();
        let inserts = 500_000 / shrink;
        for i in 0..inserts {
            sketch.insert_distinct(base.wrapping_add(i));
        }
        black_box(sketch.estimate());
        inserts
    });
    let sketches: Vec<FmSketch> = (0..256u64)
        .map(|i| {
            let mut s = FmSketch::default_config();
            for j in 0..32 {
                s.insert_distinct(derive_seed(seed, i * 32 + j));
            }
            s
        })
        .collect();
    let fm_merge_ns = per_op(cal, "sketches.fm_merge", || {
        let mut acc = FmSketch::default_config();
        let rounds = 2_000 / shrink;
        for _ in 0..rounds {
            for s in &sketches {
                acc.merge(s);
            }
        }
        black_box(acc.estimate());
        rounds * sketches.len() as u64
    });
    let sum = Sum::default();
    let synopses: Vec<FmSketch> = (0..256u32)
        .map(|i| sum.local_synopsis(i, 20 + u64::from(i) % 100))
        .collect();
    let sum_fuse_ns = per_op(cal, "aggregates.sum_fuse", || {
        let mut acc = synopses[0].clone();
        let rounds = 2_000 / shrink;
        for _ in 0..rounds {
            for s in &synopses {
                sum.fuse(&mut acc, s);
            }
        }
        black_box(sum.evaluate_synopsis(&acc));
        rounds * synopses.len() as u64
    });

    // q-digest: 256 leaves of 16 readings each, combined pairwise up a
    // binary tree and reduced at every height to the gradient's budget,
    // as `QuantileProtocol` does along a tributary.
    let readings: Vec<u64> = workload.readings(0);
    let values: Vec<u64> = (0..4096).map(|i| readings[1 + i % (nodes - 1)]).collect();
    let gradient = MinTotalLoad::new(0.02, 2.25);
    let leaves: Vec<QDigest> = values
        .chunks(16)
        .map(|chunk| QDigest::exact(chunk, QDIGEST_BITS))
        .collect();
    let mut root = None;
    let mut combines = 0u64;
    let mut reduce_raw_ns = 0u64;
    let mut reduces = 0u64;
    let (tree_ns, _, factor) = timed(cal, "quantiles.qdigest_tree", || {
        for _ in 0..(20 / shrink).max(1) {
            let mut level: Vec<QDigest> = leaves.clone();
            let mut height = 1;
            while level.len() > 1 {
                height += 1;
                level = level
                    .chunks(2)
                    .map(|pair| {
                        let mut merged = pair[0].combine(&pair[1]);
                        combines += 1;
                        let budget =
                            (gradient.eps_at(height) * merged.population() as f64).floor() as u64;
                        let t0 = std::time::Instant::now();
                        merged.reduce(budget);
                        reduce_raw_ns += t0.elapsed().as_nanos() as u64;
                        reduces += 1;
                        merged
                    })
                    .collect();
            }
            root = level.pop();
        }
        combines
    });
    let root = root.expect("the tree has a root");
    let mut sorted = values.clone();
    sorted.sort_unstable();
    let worst = sorted
        .iter()
        .map(|&v| {
            let lo = sorted.partition_point(|&x| x < v) as u64;
            let hi = sorted.partition_point(|&x| x <= v) as u64;
            let got = root.rank(v);
            if got < lo {
                lo - got
            } else {
                got.saturating_sub(hi)
            }
        })
        .max()
        .unwrap_or(0);
    // `reduce` is timed inside the tree block and scaled by the block's
    // factor; the rest of the block is the combines (and leaf clones).
    let qdigest_reduce_ns = reduce_raw_ns as f64 * factor / reduces.max(1) as f64;
    let qdigest_combine_ns = (tree_ns / combines.max(1) as f64 - qdigest_reduce_ns).max(0.0);

    let bags = bags_table(64);
    let own = FreqSummary::local(&bags[0][1]);
    let children = [
        FreqSummary::local(&bags[1][2]),
        FreqSummary::local(&bags[2][3]),
    ];
    let summary_merge_ns = per_op(cal, "frequent.summary_combine", || {
        let mut kept = 0usize;
        let rounds = 100_000 / shrink;
        for _ in 0..rounds {
            kept += FreqSummary::combine(&children, &own, 0.005).len();
        }
        black_box(kept);
        rounds
    });
    let cfg = MultipathConfig::new(freq_cfg::EPS_MP, 2.0, 1 << 20, FmFactory { bitmaps: 16 });
    let a = generate_from_bag(&cfg, NodeId(1), &bags[0][1]).expect("a non-empty bag");
    let b = generate_from_bag(&cfg, NodeId(2), &bags[0][2]).expect("a non-empty bag");
    let multipath_fuse_ns = per_op(cal, "frequent.multipath_fuse", || {
        let mut items = 0usize;
        let rounds = 20_000 / shrink;
        for _ in 0..rounds {
            items += fuse(&cfg, a.clone(), b.clone()).num_items();
        }
        black_box(items);
        rounds
    });

    let window_absorb_ns = per_op(cal, "stream.window_absorb", || {
        let mut accum = WindowAccum::new(
            WindowSpec::sliding(16, 1),
            EpochMerge::Add,
            PaneKind::Scalar,
            FoldMode::Incremental,
        );
        let mut counters = AccumCounters::default();
        let mut total = 0.0;
        let panes = 200_000 / shrink;
        for seq in 0..panes {
            let pane = PaneInput {
                epoch: seq,
                value: PaneValue::Scalar((1_000 + seq % 97) as f64),
                coverage: 0.9,
                relabeled: false,
                nodes_joined: 0,
                nodes_left: 0,
                bytes: 4_000,
            };
            if let Some(answer) = accum.absorb(seq, &pane, &mut counters) {
                total += answer.value;
            }
        }
        black_box(total);
        panes
    });
    let readings_ns_per_node = per_op(cal, "workloads.readings", || {
        let epochs = epochs_for(nodes, 1_000_000 / shrink);
        let mut total = 0u64;
        for epoch in 0..epochs {
            total += workload.readings(epoch)[nodes / 2];
        }
        black_box(total);
        epochs * nodes as u64
    });
    PrimitiveProbes {
        fm_insert_ns,
        fm_merge_ns,
        sum_fuse_ns,
        qdigest_combine_ns,
        qdigest_reduce_ns,
        rank_error_max: worst as f64 / sorted.len() as f64,
        rank_error_within_bound: worst <= root.uncertainty(),
        summary_merge_ns,
        multipath_fuse_ns,
        window_absorb_ns,
        readings_ns_per_node,
    }
}

/// False-negative rate of a windowed frequent-items query on a small
/// deployment: the `fig09d` experiment at one point (150 sensors, TD,
/// `sliding(4, 1)`, full windows only) — at 45 % loss, because up to 30 %
/// TD misses nothing and a rate that is always 0 says nothing.
pub fn frequent_false_negative_rate(seed: u64) -> f64 {
    trace::set_rung("probe");
    let _span = trace::begin("frequent.windowed_false_negatives", 0);
    let net = Synthetic::small(150).build(derive_seed(seed, 0xF19D));
    let bags = bags_table(net.len());
    let mut rng = substream(seed, 0x9D0);
    let session = SessionBuilder::new(Scheme::Td).build(&net, &mut rng);
    let mut stream = StreamSession::new(Driver::new(session, 0));
    stream.register(
        StreamQuery::new(FreqStreamQuery::new(
            multipath_cfg(&bags),
            MinTotalLoad::new(freq_cfg::EPS_TREE, 2.25),
            freq_cfg::SUPPORT,
            bags.clone(),
        ))
        .window(WindowSpec::sliding(freq_cfg::WINDOW, 1), EpochMerge::Add),
    );
    let reports = stream.run(
        &FixedReadings(vec![1; net.len()]),
        &Global::new(0.45),
        24,
        &mut rng,
    );
    let eps = freq_cfg::EPS_TREE + freq_cfg::EPS_MP;
    let mut rates = Vec::new();
    for r in reports.iter().filter(|r| r.panes == r.expected_panes) {
        let Some(freq) = &r.freq else { continue };
        let merged: Vec<ItemBag> = (r.start_epoch..=r.end_epoch)
            .flat_map(|e| bags[e as usize % freq_cfg::SLOTS].iter().cloned())
            .collect();
        let n_true: u64 = merged.iter().map(ItemBag::total).sum();
        let truth = true_frequent(&merged, freq_cfg::SUPPORT);
        let threshold = (freq_cfg::SUPPORT - eps) * n_true as f64;
        let reported: Vec<u64> = freq
            .counts()
            .iter()
            .filter(|&(_, &c)| c > threshold)
            .map(|(&item, _)| item)
            .collect();
        rates.push(false_negative_rate(&reported, &truth));
    }
    rates.iter().sum::<f64>() / rates.len().max(1) as f64
}

/// Every probe's result by metric name, for the per-layer table.
pub fn by_name(
    n: &NetsimProbes,
    t: &TopologyProbes,
    p: &PrimitiveProbes,
) -> BTreeMap<&'static str, f64> {
    BTreeMap::from([
        ("netsim.unicast_draw_ns", n.unicast_draw_ns),
        (
            "netsim.broadcast_draw_ns_per_receiver",
            n.broadcast_draw_ns_per_receiver,
        ),
        ("netsim.ge_draw_ns", n.ge_draw_ns),
        ("netsim.churn_events_at_ns", n.churn_events_at_ns),
        ("topology.rings_build_s", t.rings_build_s),
        ("topology.tree_build_s", t.tree_build_s),
        ("topology.td_new_s", t.td_new_s),
        ("topology.relabel_ns", t.relabel_ns),
        ("core.plan_patch_ns", t.plan_patch_ns),
        ("core.plan_compile_ns_per_node", t.plan_compile_ns_per_node),
        ("sketches.fm_insert_ns", p.fm_insert_ns),
        ("sketches.fm_merge_ns", p.fm_merge_ns),
        ("aggregates.sum_fuse_ns", p.sum_fuse_ns),
        ("quantiles.qdigest_combine_ns", p.qdigest_combine_ns),
        ("quantiles.qdigest_reduce_ns", p.qdigest_reduce_ns),
        ("quantiles.rank_error_max", p.rank_error_max),
        ("frequent.summary_merge_ns", p.summary_merge_ns),
        ("frequent.multipath_fuse_ns", p.multipath_fuse_ns),
        ("stream.window_absorb_ns", p.window_absorb_ns),
        ("workloads.readings_ns_per_node", p.readings_ns_per_node),
    ])
}
