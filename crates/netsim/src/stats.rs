//! Communication and energy accounting.
//!
//! Battery drain in motes is dominated by radio transmissions — "the drain
//! for sending a message between two neighboring sensors exceeds by several
//! orders of magnitude the drain for local operations" (§1). We therefore
//! count transmitted messages and bytes per node, the energy components
//! of Table 1, so experiments can report average and maximum load
//! (Figure 8).

use crate::node::NodeId;

/// Per-node communication counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeComm {
    /// Send rounds: logical per-epoch send events (one unicast or
    /// broadcast slot, however large its payload and however many
    /// packets it fragments into). A multi-query bundle costs one round.
    pub rounds: u64,
    /// Radio transmissions (incl. retransmissions; a broadcast counts once).
    pub transmissions: u64,
    /// TinyDB messages sent (one transmission may carry one message; a
    /// multi-message payload costs several transmissions).
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// 32-bit words (counters/items) sent — the unit of Figure 8.
    pub words: u64,
}

/// Aggregated communication statistics for a simulation run.
///
/// Equality is per-node counter equality — what the determinism tests
/// use to pin parallel trial execution to its sequential baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    per_node: Vec<NodeComm>,
    /// Churn arrivals observed over the run (see
    /// [`record_churn`](Self::record_churn)).
    nodes_joined: u64,
    /// Churn departures observed over the run.
    nodes_left: u64,
}

impl CommStats {
    /// Create counters for `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        CommStats {
            per_node: vec![NodeComm::default(); num_nodes],
            nodes_joined: 0,
            nodes_left: 0,
        }
    }

    /// Record that `node` transmitted a payload of `bytes`/`words`.
    ///
    /// `attempts` is how many times the payload went on the air (1 for a
    /// plain send, more under retransmission). The logical payload
    /// (`messages`, `words`) is counted once; the physical cost
    /// (`transmissions`, `bytes`) is multiplied by `attempts`.
    pub fn record_send(&mut self, node: NodeId, bytes: usize, words: usize, attempts: u64) {
        debug_assert!(attempts >= 1, "a send uses at least one attempt");
        let msgs = crate::message::messages_for_bytes(bytes);
        let c = &mut self.per_node[node.index()];
        c.rounds += 1;
        c.transmissions += msgs * attempts;
        c.messages += msgs;
        c.bytes += bytes as u64 * attempts;
        c.words += words as u64;
    }

    /// Record a churn event batch: `joined` nodes (re)appeared and
    /// `left` nodes went absent this epoch. Kept alongside the radio
    /// counters so per-epoch snapshots ([`advance_to`](Self::advance_to))
    /// attribute churn to the same panes/windows they attribute traffic
    /// to — lossy-under-churn windows degrade visibly.
    pub fn record_churn(&mut self, joined: u64, left: u64) {
        self.nodes_joined += joined;
        self.nodes_left += left;
    }

    /// Total churn arrivals recorded (0 unless the run applied churn).
    pub fn nodes_joined(&self) -> u64 {
        self.nodes_joined
    }

    /// Total churn departures recorded.
    pub fn nodes_left(&self) -> u64 {
        self.nodes_left
    }

    /// Counters of one node.
    pub fn node(&self, node: NodeId) -> NodeComm {
        self.per_node[node.index()]
    }

    /// Total send rounds across all nodes (the per-traversal unit: N
    /// bundled queries still cost one round per sending node per epoch).
    pub fn total_rounds(&self) -> u64 {
        self.per_node.iter().map(|c| c.rounds).sum()
    }

    /// Total messages across all nodes.
    pub fn total_messages(&self) -> u64 {
        self.per_node.iter().map(|c| c.messages).sum()
    }

    /// Total transmissions across all nodes.
    pub fn total_transmissions(&self) -> u64 {
        self.per_node.iter().map(|c| c.transmissions).sum()
    }

    /// Total payload bytes across all nodes.
    pub fn total_bytes(&self) -> u64 {
        self.per_node.iter().map(|c| c.bytes).sum()
    }

    /// Total words across all nodes (Figure 8's "total communication").
    pub fn total_words(&self) -> u64 {
        self.per_node.iter().map(|c| c.words).sum()
    }

    /// Average words per sensor node, excluding the base station.
    pub fn average_words_per_sensor(&self) -> f64 {
        let sensors = self.per_node.len().saturating_sub(1);
        if sensors == 0 {
            return 0.0;
        }
        self.per_node[1..].iter().map(|c| c.words).sum::<u64>() as f64 / sensors as f64
    }

    /// Maximum words sent by any single sensor (Figure 8's "max load").
    pub fn max_words_per_sensor(&self) -> u64 {
        self.per_node[1..]
            .iter()
            .map(|c| c.words)
            .max()
            .unwrap_or(0)
    }

    /// Merge another stats object into this one (same node count).
    pub fn merge(&mut self, other: &CommStats) {
        assert_eq!(self.per_node.len(), other.per_node.len());
        for (a, b) in self.per_node.iter_mut().zip(&other.per_node) {
            a.rounds += b.rounds;
            a.transmissions += b.transmissions;
            a.messages += b.messages;
            a.bytes += b.bytes;
            a.words += b.words;
        }
        self.nodes_joined += other.nodes_joined;
        self.nodes_left += other.nodes_left;
    }

    /// Move this snapshot forward to `now`, a later state of the same
    /// accumulating stats object, and return the per-node activity
    /// recorded in between (`now − self`, churn counts included): the
    /// difference and the catch-up in one walk over the nodes, with one
    /// allocation (the returned counters). This is how the stream engine
    /// attributes communication to a single epoch pane out of a
    /// session's cumulative counters.
    ///
    /// # Panics
    /// Panics if node counts differ or `self` is not actually an
    /// earlier snapshot of `now` (any of its counters exceeds `now`'s).
    pub fn advance_to(&mut self, now: &CommStats) -> CommStats {
        assert_eq!(
            self.per_node.len(),
            now.per_node.len(),
            "snapshot node counts differ"
        );
        let sub = |a: u64, b: u64| {
            a.checked_sub(b)
                .expect("diff baseline is not an earlier snapshot")
        };
        let per_node = self
            .per_node
            .iter_mut()
            .zip(&now.per_node)
            .map(|(then, now)| {
                let between = NodeComm {
                    rounds: sub(now.rounds, then.rounds),
                    transmissions: sub(now.transmissions, then.transmissions),
                    messages: sub(now.messages, then.messages),
                    bytes: sub(now.bytes, then.bytes),
                    words: sub(now.words, then.words),
                };
                *then = *now;
                between
            })
            .collect();
        let between = CommStats {
            per_node,
            nodes_joined: sub(now.nodes_joined, self.nodes_joined),
            nodes_left: sub(now.nodes_left, self.nodes_left),
        };
        self.nodes_joined = now.nodes_joined;
        self.nodes_left = now.nodes_left;
        between
    }

    /// Per-node counter difference `self − earlier`: the two-walk
    /// reference [`advance_to`](Self::advance_to) is checked against.
    ///
    /// # Panics
    /// Panics if node counts differ or `earlier` is not actually an
    /// earlier snapshot (any of its counters exceeds `self`'s).
    #[cfg(test)]
    fn diff(&self, earlier: &CommStats) -> CommStats {
        assert_eq!(
            self.per_node.len(),
            earlier.per_node.len(),
            "snapshot node counts differ"
        );
        let sub = |a: u64, b: u64| {
            a.checked_sub(b)
                .expect("diff baseline is not an earlier snapshot")
        };
        CommStats {
            per_node: self
                .per_node
                .iter()
                .zip(&earlier.per_node)
                .map(|(a, b)| NodeComm {
                    rounds: sub(a.rounds, b.rounds),
                    transmissions: sub(a.transmissions, b.transmissions),
                    messages: sub(a.messages, b.messages),
                    bytes: sub(a.bytes, b.bytes),
                    words: sub(a.words, b.words),
                })
                .collect(),
            nodes_joined: sub(self.nodes_joined, earlier.nodes_joined),
            nodes_left: sub(self.nodes_left, earlier.nodes_left),
        }
    }

    /// Number of nodes tracked.
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// Whether the stats track zero nodes.
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }
}

/// One-line totals — what bench log lines print. Per-node detail stays
/// behind [`node`](CommStats::node).
impl std::fmt::Display for CommStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} nodes: {} rounds, {} msgs ({} tx), {} bytes, {} words",
            self.per_node.len(),
            self.total_rounds(),
            self.total_messages(),
            self.total_transmissions(),
            self.total_bytes(),
            self.total_words()
        )?;
        if self.nodes_joined > 0 || self.nodes_left > 0 {
            write!(f, "; churn +{}/-{}", self.nodes_joined, self.nodes_left)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = CommStats::new(3);
        s.record_send(NodeId(1), 48, 12, 1);
        s.record_send(NodeId(2), 96, 24, 2); // 2-message payload sent twice
        assert_eq!(s.node(NodeId(1)).messages, 1);
        assert_eq!(s.node(NodeId(1)).transmissions, 1);
        assert_eq!(s.node(NodeId(1)).bytes, 48);
        assert_eq!(s.node(NodeId(1)).words, 12);
        assert_eq!(s.node(NodeId(2)).messages, 2);
        assert_eq!(s.node(NodeId(2)).transmissions, 4);
        assert_eq!(s.total_bytes(), 48 + 192);
        assert_eq!(s.total_words(), 12 + 24);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_transmissions(), 5);
        assert_eq!(s.total_rounds(), 2);
    }

    #[test]
    fn sensor_load_excludes_base() {
        let mut s = CommStats::new(3);
        s.record_send(NodeId(0), 480, 120, 1); // base station chatter
        s.record_send(NodeId(1), 4, 1, 1);
        s.record_send(NodeId(2), 12, 3, 1);
        assert_eq!(s.max_words_per_sensor(), 3);
        assert!((s.average_words_per_sensor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = CommStats::new(2);
        a.record_send(NodeId(1), 4, 1, 1);
        a.record_churn(2, 1);
        let mut b = CommStats::new(2);
        b.record_send(NodeId(1), 8, 2, 1);
        b.record_churn(0, 3);
        a.merge(&b);
        assert_eq!(a.node(NodeId(1)).bytes, 12);
        assert_eq!(a.node(NodeId(1)).words, 3);
        assert_eq!(a.node(NodeId(1)).messages, 2);
        assert_eq!(a.nodes_joined(), 2);
        assert_eq!(a.nodes_left(), 4);
    }

    #[test]
    fn churn_counters_flow_through_diff() {
        let mut s = CommStats::new(2);
        s.record_churn(1, 2);
        let snapshot = s.clone();
        s.record_churn(3, 0);
        let d = s.diff(&snapshot);
        assert_eq!(d.nodes_joined(), 3);
        assert_eq!(d.nodes_left(), 0);
    }

    #[test]
    fn diff_isolates_the_activity_between_snapshots() {
        let mut s = CommStats::new(3);
        s.record_send(NodeId(1), 48, 12, 2);
        let snapshot = s.clone();
        s.record_send(NodeId(2), 8, 2, 1);
        s.record_send(NodeId(1), 4, 1, 1);
        let d = s.diff(&snapshot);
        assert_eq!(d.node(NodeId(1)).bytes, 4);
        assert_eq!(d.node(NodeId(1)).rounds, 1);
        assert_eq!(d.node(NodeId(2)).words, 2);
        assert_eq!(d.total_rounds(), 2);
        // Adding the diff back onto the snapshot reproduces the total.
        let mut roundtrip = snapshot.clone();
        roundtrip.merge(&d);
        assert_eq!(roundtrip, s);
        // A diff against the current state is all-zero.
        assert_eq!(s.diff(&s).total_bytes(), 0);
    }

    /// `advance_to` is `diff` followed by `merge` in one walk: on random
    /// counters, churn counts included, it returns the same difference
    /// pane after pane and leaves the snapshot equal to the later state.
    #[test]
    fn advance_to_is_diff_then_merge() {
        use rand::Rng;
        let mut rng = crate::rng::rng_from_seed(29);
        for _ in 0..200 {
            let nodes = rng.gen_range(1..24usize);
            let mut total = CommStats::new(nodes);
            let mut snapshot = total.clone();
            for _ in 0..rng.gen_range(1..6) {
                for _ in 0..rng.gen_range(0..40) {
                    total.record_send(
                        NodeId(rng.gen_range(0..nodes as u32)),
                        rng.gen_range(0..300usize),
                        rng.gen_range(0..80usize),
                        rng.gen_range(1..4u64),
                    );
                }
                total.record_churn(rng.gen_range(0..3u64), rng.gen_range(0..3u64));
                let expect = total.diff(&snapshot);
                let mut merged = snapshot.clone();
                merged.merge(&expect);
                assert_eq!(snapshot.advance_to(&total), expect);
                assert_eq!(snapshot, merged);
                assert_eq!(snapshot, total);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not an earlier snapshot")]
    fn advance_to_rejects_a_later_baseline() {
        let mut s = CommStats::new(2);
        s.record_send(NodeId(1), 4, 1, 1);
        let _ = s.clone().advance_to(&CommStats::new(2));
    }

    #[test]
    #[should_panic(expected = "not an earlier snapshot")]
    fn diff_rejects_a_later_baseline() {
        let mut s = CommStats::new(2);
        s.record_send(NodeId(1), 4, 1, 1);
        let later = s.clone();
        let _ = CommStats::new(2).diff(&later);
    }
}
