//! The event ring counts what it evicts.
//!
//! The ring, its capacity and the registry are process-global, so this
//! test has a binary of its own: it sets `TD_LOG_RING` before the first
//! telemetry call and is the only code recording events.

use td_telemetry::events::{self, Event, DROPPED_METRIC};
use td_telemetry::{global, Level, LogicalClock};

const CAPACITY: u64 = 64;
const OVERFLOW: u64 = 5;

fn event(n: u64) -> Event {
    Event {
        level: Level::Info,
        target: "droptest",
        name: "fill",
        clock: LogicalClock::at_epoch(n),
        wall_ns: 0,
        fields: Vec::new(),
    }
}

#[test]
fn a_full_ring_counts_each_eviction() {
    std::env::set_var("TD_LOG_RING", CAPACITY.to_string());
    events::set_echo(false);
    let dropped = || global().snapshot().counter(DROPPED_METRIC);

    for n in 0..CAPACITY {
        events::record(event(n));
    }
    assert_eq!(dropped(), 0, "a ring at capacity has evicted nothing");

    for n in CAPACITY..CAPACITY + OVERFLOW {
        events::record(event(n));
    }
    assert_eq!(dropped(), OVERFLOW);
    let kept = events::drain();
    assert_eq!(kept.len() as u64, CAPACITY);
    assert_eq!(kept[0].clock.epoch, Some(OVERFLOW), "the oldest went first");

    // Draining empties the ring without counting anything as dropped.
    events::record(event(0));
    assert_eq!(dropped(), OVERFLOW);
    assert!(global().snapshot().to_json().contains(DROPPED_METRIC));
}
