//! Epoch scheduling and latency accounting.
//!
//! TAG-style aggregation is level-synchronized: nodes are allotted time
//! slots by level, level *i* listening while level *i+1* transmits, and
//! "the latency of a query result is dominated by the product of the epoch
//! duration and the number of levels" (§2). Table 1 tracks latency as a
//! first-class metric, and §7.4.3 notes the two costs retransmission adds:
//! each retry waits for an acknowledgment (latency grows linearly with
//! retries), and the ack traffic costs ~25% of channel capacity \[23\].
//!
//! This module models those costs explicitly so experiments can report
//! latency next to energy and error.

/// Per-slot timing parameters (milliseconds, mica2/TinyDB-flavored).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlotTiming {
    /// Time for one 48-byte message on air plus MAC overhead.
    pub message_ms: f64,
    /// Extra wait per retransmission attempt (ack timeout), §7.4.3.
    pub ack_wait_ms: f64,
}

impl Default for SlotTiming {
    fn default() -> Self {
        // 48 bytes at 38.4 kbps ≈ 10 ms on air; CSMA + preamble brings a
        // slot to ~25 ms; ack timeout comparable to a slot.
        SlotTiming {
            message_ms: 25.0,
            ack_wait_ms: 25.0,
        }
    }
}

/// Latency model for one epoch of level-synchronized aggregation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyModel {
    /// Slot timing.
    pub timing: SlotTiming,
    /// Messages a node may need to send in its slot (the widest partial
    /// result observed, in TinyDB messages).
    pub messages_per_slot: u32,
    /// Retransmission attempts configured on tree links.
    pub retransmissions: u32,
}

impl LatencyModel {
    /// A model for plain single-message aggregation.
    pub fn simple() -> Self {
        LatencyModel {
            timing: SlotTiming::default(),
            messages_per_slot: 1,
            retransmissions: 0,
        }
    }

    /// Duration of one level's slot: every message fragment, plus ack
    /// waits for each retry round.
    pub fn slot_ms(&self) -> f64 {
        let base = self.timing.message_ms * self.messages_per_slot as f64;
        let retry = self.retransmissions as f64
            * (self.timing.ack_wait_ms + self.timing.message_ms * self.messages_per_slot as f64);
        base + retry
    }

    /// End-to-end latency of one answer over `levels` ring/tree levels
    /// (§2: epoch duration × number of levels).
    pub fn epoch_latency_ms(&self, levels: u16) -> f64 {
        self.slot_ms() * levels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_levels() {
        let m = LatencyModel::simple();
        assert_eq!(m.epoch_latency_ms(4), 4.0 * m.slot_ms());
        assert!(m.epoch_latency_ms(8) > m.epoch_latency_ms(4));
    }

    #[test]
    fn retransmissions_grow_latency_linearly() {
        let base = LatencyModel::simple();
        let two = LatencyModel {
            retransmissions: 2,
            ..base
        };
        // Each retry adds an ack wait plus a resend.
        let per_retry = base.timing.ack_wait_ms + base.timing.message_ms;
        assert!((two.slot_ms() - (base.slot_ms() + 2.0 * per_retry)).abs() < 1e-9);
    }

    #[test]
    fn multi_message_payloads_stretch_slots() {
        let one = LatencyModel::simple();
        let three = LatencyModel {
            messages_per_slot: 3,
            ..one
        };
        assert!((three.slot_ms() - 3.0 * one.timing.message_ms).abs() < 1e-9);
    }

    #[test]
    fn footnote6_retransmission_slower_than_long_message() {
        // "two retransmissions would incur more latency than a single
        // transmission of a 3 times longer message" (§7.4.3, footnote 6).
        let m = LatencyModel::simple();
        let retransmit = LatencyModel {
            retransmissions: 2,
            ..m
        };
        let long = LatencyModel {
            messages_per_slot: 3,
            ..m
        };
        assert!(
            retransmit.slot_ms() > long.slot_ms(),
            "{} ms vs {} ms",
            retransmit.slot_ms(),
            long.slot_ms()
        );
    }
}
