//! Extending the framework: implement a custom aggregate (logical OR —
//! "has any sensor tripped its alarm?") and run it under Tributary-Delta.
//!
//! Everything a new aggregate needs is the `Aggregate` trait from
//! `td-aggregates`: a tree partial result, a duplicate-insensitive
//! synopsis, and the conversion between them (§5 of the paper), plus
//! their sizes — tree partials in words, synopses as a netsim
//! `WireSize`. OR is idempotent, so — like Min/Max — both sides are
//! exact and conversion is the identity.
//!
//! ```sh
//! cargo run --release --example custom_aggregate
//! ```

use td_suite::aggregates::traits::Aggregate;
use td_suite::core::driver::{Driver, EpochView, FixedReadings};
use td_suite::core::protocol::ScalarProtocol;
use td_suite::core::query::QuerySet;
use td_suite::core::session::{Scheme, SessionBuilder};
use td_suite::netsim::loss::Global;
use td_suite::netsim::message::WireSize;
use td_suite::netsim::rng::rng_from_seed;
use td_suite::workloads::synthetic::Synthetic;

/// Logical OR over per-node alarm bits (1 = tripped).
#[derive(Clone, Copy, Debug, Default)]
struct AnyAlarm;

impl Aggregate for AnyAlarm {
    type TreePartial = u64;
    type Synopsis = u64;

    fn name(&self) -> &'static str {
        "any-alarm"
    }

    fn local_tree(&self, _node: u32, value: u64) -> u64 {
        (value != 0) as u64
    }

    fn merge_tree(&self, into: &mut u64, from: &u64) {
        *into |= from;
    }

    fn local_synopsis(&self, _node: u32, value: u64) -> u64 {
        (value != 0) as u64
    }

    // OR is commutative, associative, and idempotent: multi-path can carry
    // it verbatim.
    fn fuse(&self, into: &mut u64, from: &u64) {
        *into |= from;
    }

    fn convert(&self, _root: u32, partial: &u64) -> u64 {
        *partial
    }

    fn evaluate_tree(&self, partial: &u64) -> f64 {
        *partial as f64
    }

    fn evaluate_synopsis(&self, synopsis: &u64) -> f64 {
        *synopsis as f64
    }

    fn tree_words(&self, _partial: &u64) -> usize {
        1
    }

    fn synopsis_wire(&self, _synopsis: &u64) -> WireSize {
        WireSize::from_words(1)
    }
}

fn main() {
    let net = Synthetic::small(200).build(11);
    let mut rng = rng_from_seed(12);

    // One sensor (id 137) trips its alarm.
    let mut values = vec![0u64; net.len()];
    values[137.min(net.len() - 1)] = 1;

    // A very lossy channel: will the single alarm bit make it through?
    let channel = Global::new(0.35);
    println!("one tripped alarm, 35% message loss, 60 epochs per scheme:\n");
    for scheme in Scheme::all() {
        let session = SessionBuilder::new(scheme).build(&net, &mut rng);
        let mut driver = Driver::new(session, 0);
        let mut heard = 0u32;
        driver.run(
            &FixedReadings(values.clone()),
            &channel,
            60,
            |set: &mut QuerySet<'_>, readings| {
                set.register(ScalarProtocol::new(AnyAlarm, readings))
            },
            |view: EpochView<'_>, handle| {
                if *view.record.answers.get(handle) >= 1.0 {
                    heard += 1;
                }
            },
            &mut rng,
        );
        println!("{:>10}: alarm heard in {heard}/60 epochs", scheme.name());
    }
    println!(
        "\nA tree drops the alarm whenever any link on its single path fails;\n\
         the delta region's multi-path redundancy (and TD's adaptation) keep\n\
         the alarm visible nearly every epoch."
    );
}
