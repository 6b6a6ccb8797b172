//! Criterion benchmarks for the simulator substrate: topology
//! construction and full aggregation epochs at the paper's 600-node
//! scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use td_netsim::loss::Global;
use td_netsim::rng::rng_from_seed;
use td_netsim::stats::CommStats;
use td_topology::bushy::{build_bushy_tree, BushyOptions};
use td_topology::rings::Rings;
use td_topology::tree::{build_tag_tree, ParentSelection};
use td_workloads::synthetic::Synthetic;
use tributary_delta::protocol::ScalarProtocol;
use tributary_delta::query::QuerySet;
use tributary_delta::runner::{run_td_epoch_set, RunnerConfig};
use tributary_delta::session::{Scheme, Session};

fn bench_topology(c: &mut Criterion) {
    let net = Synthetic::paper().build(1);
    let mut g = c.benchmark_group("topology_600");
    g.sample_size(20);
    g.bench_function("rings", |b| b.iter(|| Rings::build(black_box(&net))));
    g.bench_function("tag_tree", |b| {
        b.iter(|| {
            let mut rng = rng_from_seed(2);
            build_tag_tree(
                black_box(&net),
                ParentSelection::Random,
                None,
                false,
                &mut rng,
            )
        })
    });
    g.bench_function("bushy_tree", |b| {
        b.iter(|| {
            let mut rng = rng_from_seed(3);
            let rings = Rings::build(&net);
            build_bushy_tree(black_box(&net), &rings, BushyOptions::default(), &mut rng)
        })
    });
    g.finish();
}

fn bench_epoch(c: &mut Criterion) {
    let net = Synthetic::paper().build(4);
    let rings = Rings::build(&net);
    let mut rng = rng_from_seed(5);
    let tree = build_bushy_tree(&net, &rings, BushyOptions::default(), &mut rng);
    let topo = td_topology::td::TdTopology::new(rings, tree, 2);
    let values = Synthetic::sum_readings(&net, 6, 0);
    let model = Global::new(0.1);
    let mut g = c.benchmark_group("epoch_600");
    g.sample_size(20);
    g.bench_function("td_sum_epoch", |b| {
        b.iter(|| {
            let proto = ScalarProtocol::new(td_aggregates::sum::Sum::default(), &values);
            let mut stats = CommStats::new(net.len());
            let mut rng = rng_from_seed(7);
            let mut set = QuerySet::new();
            set.register(&proto);
            run_td_epoch_set(
                &set,
                black_box(&topo),
                &net,
                &model,
                RunnerConfig::default(),
                0,
                &mut stats,
                &mut rng,
            )
        })
    });
    g.bench_function("session_count_10_epochs", |b| {
        b.iter(|| {
            let mut rng = rng_from_seed(8);
            let mut session = Session::with_paper_defaults(Scheme::Td, &net, &mut rng);
            let counts = Synthetic::count_readings(&net);
            for epoch in 0..10 {
                let proto = ScalarProtocol::new(td_aggregates::count::Count::default(), &counts);
                session.run_epoch(&proto, &model, epoch, &mut rng);
            }
            session
        })
    });
    g.finish();
}

criterion_group!(benches, bench_topology, bench_epoch);
criterion_main!(benches);
