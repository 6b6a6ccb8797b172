//! Instrumented message envelopes.
//!
//! Beside a node's protocol messages the runner can send one envelope
//! carrying the adaptation signals of §4.2. Envelopes carry counts, not
//! payloads: the messages themselves live in each query's column. Only
//! the base station's adapter reads an envelope, and only on the epochs
//! it decides on ([`Adapter::due`](crate::adapt::Adapter::due)), so an
//! envelope rides only on those epochs, with only the fields the scheme
//! reads ([`EnvelopeFields`]); every other send carries its payload
//! alone.
//!
//! * **Exact subtree count** (tree envelopes) — trees count exactly, and
//!   this count is what the paper's augmented messages carry.
//! * **Approximate count sketch** (multi-path envelopes) — the in-band
//!   duplicate-insensitive Count the base station can use as its
//!   protocol-faithful adaptation signal.
//! * **Non-contribution extrema** (TD only) — each switchable M vertex
//!   reports how many nodes of its (static) subtree failed to
//!   contribute, and the base station steers the fine-grained TD
//!   strategy by the largest and smallest reports. On motes, on an
//!   epoch that carries them, a multi-path send carries a top-k set of
//!   reports ([`TOP_K_EXTREMA`] slots, 8 B each) and a tree send one
//!   more word, which the runner charges per send, and each delta vertex
//!   fuses the sets it hears. The simulator does not fuse them: a top-k
//!   ignores order and duplicates and survives truncation at every hop,
//!   so the fused set at the base is exactly the top-k of the reports
//!   whose senders reach it, and the runner computes that once per epoch
//!   from the delivery draws ([`ExtremaSet`] is the set both use).
//!
//! The exact "% contributing" ground truth is not carried here: the
//! runner derives it once per epoch from the epoch's delivery draws (a
//! sensor contributes iff its envelope's delivery path reaches the base
//! station), which is free in a simulator and impossible on motes.

use td_netsim::node::NodeId;
use td_sketches::fm::FmSketch;

/// Bitmap count for the in-band approximate Count sketch (narrower than
/// the headline 40-bitmap aggregate: the signal only gates adaptation).
pub const COUNT_SKETCH_BITMAPS: usize = 16;

/// Which §4.2 adaptation fields a send carries beside its payload. A
/// session sets its scheme's fields ([`SessionConfig::paper_defaults`])
/// and carries them only on the epochs its adapter decides on; on every
/// other epoch, and in a session that never adapts, sends carry
/// [`Nothing`](Self::Nothing).
///
/// [`SessionConfig::paper_defaults`]: crate::session::SessionConfig::paper_defaults
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnvelopeFields {
    /// No envelope: the runner builds none and charges none (TAG, SD,
    /// and every epoch an adapter does not decide on). An adapter decides
    /// only on an envelope that arrived, so an adapting session
    /// configured with this never moves its delta.
    Nothing,
    /// The contributor count alone, what TD-Coarse reads: one word on a
    /// tree send (its exact subtree count) and the count sketch's RLE
    /// bytes on a multi-path send.
    Counts,
    /// The count plus the non-contribution extrema, what TD reads: a
    /// second word on a tree send and [`TOP_K_EXTREMA`] 8 B reports on a
    /// multi-path send.
    CountsAndExtrema,
}

impl EnvelopeFields {
    /// Whether a send carries an envelope at all.
    pub fn carried(self) -> bool {
        self != EnvelopeFields::Nothing
    }

    /// Extra words a tree send carries.
    pub fn tree_words(self) -> usize {
        match self {
            EnvelopeFields::Nothing => 0,
            EnvelopeFields::Counts => 1,
            EnvelopeFields::CountsAndExtrema => 2,
        }
    }

    /// Extra bytes a multi-path send carries beside its count sketch:
    /// the extremum reports.
    pub fn extrema_bytes(self) -> usize {
        match self {
            EnvelopeFields::CountsAndExtrema => 8 * TOP_K_EXTREMA,
            _ => 0,
        }
    }
}

/// The envelope as the base station received it on an epoch that
/// carried one: the adaptation signal of §4.2.
#[derive(Clone, Debug, PartialEq)]
pub struct BaseEnvelope {
    /// In-band estimate of the contributing count (exact tree counts,
    /// sketched delta counts).
    pub contributing_est: f64,
    /// Largest per-subtree non-contribution reports by switchable M
    /// vertices (TD expand signal; empty when the extrema were not
    /// carried).
    pub max_noncontrib: ExtremaSet,
    /// Smallest such reports (TD shrink signal).
    pub min_noncontrib: ExtremaSet,
}

/// An `(argmax/argmin, value)` pair: one switchable M vertex's report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extremum {
    /// The non-contribution count.
    pub value: u64,
    /// The switchable M vertex reporting it.
    pub node: NodeId,
}

/// How many extremum reports ride in each message. §4.2 suggests
/// "maintaining the top-k values instead of just the top-1" to speed up
/// TD's convergence; 4 reports cost 8 extra words and let one adaptation
/// step expand several lagging subtrees at once.
pub const TOP_K_EXTREMA: usize = 4;

/// A fixed-capacity, ODI top-k set of extremum reports. Each reporting
/// vertex appears at most once (duplicate deliveries carry identical
/// values), so inserting a report again changes nothing, and the set
/// does not depend on the order reports arrive in. Held inline: building
/// and reporting a set never allocates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtremaSet {
    /// `entries[..len]`, sorted by the ordering key (see `descending`).
    /// The set only ever grows, so the slots past `len` keep their
    /// initial filler and derived equality compares held entries only.
    entries: [Extremum; TOP_K_EXTREMA],
    len: u8,
    /// `true` keeps the largest values (expansion), `false` the smallest
    /// (shrinking).
    descending: bool,
}

impl Default for ExtremaSet {
    fn default() -> Self {
        Self::smallest()
    }
}

impl ExtremaSet {
    const EMPTY: [Extremum; TOP_K_EXTREMA] = [Extremum {
        value: 0,
        node: NodeId(0),
    }; TOP_K_EXTREMA];

    /// A top-k-largest set (expansion signal).
    pub fn largest() -> Self {
        ExtremaSet {
            entries: Self::EMPTY,
            len: 0,
            descending: true,
        }
    }

    /// A top-k-smallest set (shrink signal).
    pub fn smallest() -> Self {
        ExtremaSet {
            entries: Self::EMPTY,
            len: 0,
            descending: false,
        }
    }

    /// Insert one report (idempotent per reporting node).
    pub fn insert(&mut self, e: Extremum) {
        let held = self.entries();
        if held.iter().any(|x| x.node == e.node) {
            return;
        }
        // Reports are distinct per node, so keys are distinct and the
        // ordered insert lands exactly where a stable sort would.
        let descending = self.descending;
        let key = |x: &Extremum| {
            if descending {
                (-(x.value as i64), x.node.0 as i64)
            } else {
                (x.value as i64, x.node.0 as i64)
            }
        };
        let at = held.partition_point(|x| key(x) < key(&e));
        if at < TOP_K_EXTREMA {
            // Shift the tail one right, dropping the last entry when full.
            let len = (held.len() + 1).min(TOP_K_EXTREMA);
            self.entries.copy_within(at..len - 1, at + 1);
            self.entries[at] = e;
            self.len = len as u8;
        }
    }

    /// The reports, best-first.
    pub fn entries(&self) -> &[Extremum] {
        &self.entries[..self.len as usize]
    }

    /// The single best report, if any.
    pub fn best(&self) -> Option<Extremum> {
        self.entries().first().copied()
    }

    /// Whether no reports are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The base station's two extremum sets over `reports`: the top-k
/// largest (expand signal) and the top-k smallest (shrink signal). Being
/// top-k sets, neither depends on the order of `reports`.
pub(crate) fn extrema(reports: impl IntoIterator<Item = Extremum>) -> (ExtremaSet, ExtremaSet) {
    let (mut max, mut min) = (ExtremaSet::largest(), ExtremaSet::smallest());
    for e in reports {
        max.insert(e);
        min.insert(e);
    }
    (max, min)
}

/// A tree envelope's exact contributor count: `node` itself (the base
/// station counts nobody) plus what its delivered children counted.
pub(crate) fn tree_count(node: NodeId, children: impl IntoIterator<Item = u64>) -> u64 {
    u64::from(!node.is_base()) + children.into_iter().sum::<u64>()
}

/// Reopen `sketch` as delta vertex `node`'s local count sketch: cleared,
/// then holding `node` itself (the base station counts nobody). The
/// sketch is [`COUNT_SKETCH_BITMAPS`] wide — recycled, as the runner's
/// envelope column reopens its sketches, or fresh.
pub(crate) fn local_pooled(sketch: &mut FmSketch, node: NodeId) {
    debug_assert_eq!(sketch.num_bitmaps(), COUNT_SKETCH_BITMAPS);
    sketch.clear();
    if !node.is_base() {
        sketch.insert_distinct(td_sketches::hash::keyed(0xC0C0, node.0 as u64));
    }
}

/// Fold a delivered tree child's exact contributor count into a delta
/// vertex's count sketch. The count enters as a value salted by the
/// subtree `root` — the same conversion-function trick as the aggregate
/// itself.
pub(crate) fn absorb_tree_counts(sketch: &mut FmSketch, root: NodeId, count: u64) {
    sketch.insert_value(td_sketches::hash::keyed(0xC0C1, root.0 as u64), count);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local(node: NodeId) -> FmSketch {
        let mut sketch = FmSketch::new(COUNT_SKETCH_BITMAPS);
        local_pooled(&mut sketch, node);
        sketch
    }

    #[test]
    fn tree_envelope_counts_itself() {
        assert_eq!(tree_count(NodeId(3), []), 1);
        assert_eq!(tree_count(NodeId(0), []), 0);
    }

    #[test]
    fn tree_absorb_accumulates() {
        let b = tree_count(NodeId(2), []);
        assert_eq!(tree_count(NodeId(1), [b]), 2);
        let c = tree_count(NodeId(0), []);
        assert_eq!(
            tree_count(NodeId(1), [b, c]),
            2,
            "the base station counts nobody"
        );
    }

    #[test]
    fn mp_fuse_is_idempotent_on_counts() {
        let mut a = local(NodeId(1));
        let est = a.estimate();
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.estimate(), est);
        a.merge(&b);
        assert_eq!(a.estimate(), est);
    }

    fn report(node: u32, value: u64) -> Extremum {
        Extremum {
            value,
            node: NodeId(node),
        }
    }

    #[test]
    fn extrema_fusion_takes_max_and_min() {
        let (max, min) = extrema([report(1, 5), report(2, 9), report(3, 2)]);
        assert_eq!(max.best(), Some(report(2, 9)));
        assert_eq!(min.best(), Some(report(3, 2)));
        // All three reports survive in the top-k sets.
        assert_eq!(max.entries(), [report(2, 9), report(1, 5), report(3, 2)]);
        assert_eq!(min.entries(), [report(3, 2), report(1, 5), report(2, 9)]);
        // Past k reports, the set keeps the k best.
        let (max, min) = extrema((0..10).map(|n| report(n, u64::from(n) * 3)));
        assert_eq!(max.entries().len(), TOP_K_EXTREMA);
        assert_eq!(max.best(), Some(report(9, 27)));
        assert_eq!(min.best(), Some(report(0, 0)));
        assert_eq!(min.entries().last(), Some(&report(3, 9)));
    }

    #[test]
    fn extrema_fusion_deterministic_on_ties() {
        // Equal values break ties by node id, whatever the report order;
        // a re-delivered report changes nothing.
        let (x, y) = (report(1, 4), report(2, 4));
        let xy = extrema([x, y]);
        let yx = extrema([y, x, y, x]);
        assert_eq!(xy.0.entries(), [x, y]);
        assert_eq!(xy.1.entries(), [x, y]);
        assert_eq!(xy, yx);
    }

    #[test]
    fn pooled_constructors_match_fresh_ones() {
        let mut recycled = FmSketch::new(COUNT_SKETCH_BITMAPS);
        recycled.insert_distinct(td_sketches::hash::keyed(0xC0C0, 9));
        local_pooled(&mut recycled, NodeId(4));
        assert_eq!(recycled, local(NodeId(4)));
    }

    #[test]
    fn tree_counts_enter_count_sketch() {
        let mut m = local(NodeId(1));
        let count = tree_count(NodeId(2), (3..100u32).map(|i| tree_count(NodeId(i), [])));
        assert_eq!(count, 98);
        absorb_tree_counts(&mut m, NodeId(2), count);
        let est = m.estimate();
        assert!(est > 30.0 && est < 300.0, "count sketch estimate {est}");
    }

    /// The reference top-k: every distinct report, sorted by the key
    /// (value in the set's direction, then node id), cut to
    /// [`TOP_K_EXTREMA`].
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
        all.dedup_by_key(|x| x.node);
        all.truncate(TOP_K_EXTREMA);
        all
    }

    proptest::proptest! {
        /// Random insertion sequences, both orderings, match the
        /// sort-dedup-truncate reference after every insertion. Bit `i`
        /// of `redeliver` makes insertion `i` re-insert every report a
        /// second set holds after it too — what fusing that set in
        /// whole would deliver, so earlier reports arrive again. A
        /// node's report has one value (duplicate deliveries carry
        /// identical values); values collide often so the node-id
        /// tie-break is exercised.
        #[test]
        fn prop_extrema_set_is_the_sorted_top_k(
            nodes in proptest::collection::vec(0u32..12, 0..40),
            redeliver in proptest::prelude::any::<u64>(),
            salt in 0u64..1_000,
        ) {
            let report = |node: u32| Extremum {
                value: td_sketches::hash::keyed(salt, node as u64) % 5,
                node: NodeId(node),
            };
            for descending in [true, false] {
                let fresh = || {
                    if descending {
                        ExtremaSet::largest()
                    } else {
                        ExtremaSet::smallest()
                    }
                };
                let (mut set, mut other) = (fresh(), fresh());
                for (i, &node) in nodes.iter().enumerate() {
                    if redeliver >> i & 1 == 1 {
                        other.insert(report(node));
                        for &e in other.entries() {
                            set.insert(e);
                        }
                    } else {
                        set.insert(report(node));
                    }
                    let seen: Vec<Extremum> = nodes[..=i].iter().map(|&n| report(n)).collect();
                    let expect = reference_top_k(&seen, descending);
                    proptest::prop_assert_eq!(set.entries(), &expect[..]);
                    proptest::prop_assert_eq!(set.best(), expect.first().copied());
                    proptest::prop_assert_eq!(set.is_empty(), expect.is_empty());
                }
            }
        }
    }
}
