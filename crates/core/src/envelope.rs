//! Instrumented message envelopes.
//!
//! The runner wraps every protocol message in an envelope carrying the
//! adaptation signals of §4.2 plus exact ground truth for metrics:
//!
//! * **Exact contributor set** — a bitset of sensors whose data is in the
//!   message. This is simulator instrumentation (free in a simulator,
//!   impossible on motes); it provides the ground-truth "% contributing".
//! * **Exact subtree count** (tree envelopes) — trees count exactly, and
//!   this count is what the paper's augmented messages carry.
//! * **Approximate count sketch** (multi-path envelopes) — the in-band
//!   duplicate-insensitive Count the base station can use as its
//!   protocol-faithful adaptation signal.
//! * **Non-contribution extrema** — each switchable M vertex reports how
//!   many nodes of its (static) subtree failed to contribute; max/min
//!   with arg-nodes fuse ODI through the delta and steer the fine-grained
//!   TD strategy.

use td_netsim::node::NodeId;
use td_sketches::fm::FmSketch;
use td_sketches::idset::IdSet;

/// Bitmap count for the in-band approximate Count sketch (narrower than
/// the headline 40-bitmap aggregate: the signal only gates adaptation).
pub const COUNT_SKETCH_BITMAPS: usize = 16;

/// Extra words a tree message carries for adaptation (the exact subtree
/// count plus the non-contribution field of §4.2).
pub const TREE_OVERHEAD_WORDS: usize = 2;

/// An `(argmax/argmin, value)` pair fused through the delta.
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
/// values), so merging is idempotent.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExtremaSet {
    /// Sorted by the ordering key (see `descending`), at most
    /// [`TOP_K_EXTREMA`] entries.
    entries: Vec<Extremum>,
    /// `true` keeps the largest values (expansion), `false` the smallest
    /// (shrinking).
    descending: bool,
}

impl ExtremaSet {
    /// A top-k-largest set (expansion signal).
    pub fn largest() -> Self {
        ExtremaSet {
            entries: Vec::new(),
            descending: true,
        }
    }

    /// A top-k-smallest set (shrink signal).
    pub fn smallest() -> Self {
        ExtremaSet {
            entries: Vec::new(),
            descending: false,
        }
    }

    /// Insert one report (idempotent per reporting node).
    pub fn insert(&mut self, e: Extremum) {
        if self.entries.iter().any(|x| x.node == e.node) {
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
        let at = self.entries.partition_point(|x| key(x) < key(&e));
        if at < TOP_K_EXTREMA {
            self.entries.truncate(TOP_K_EXTREMA - 1);
            self.entries.insert(at, e);
        }
    }

    /// ODI merge.
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.descending, other.descending);
        for &e in &other.entries {
            self.insert(e);
        }
    }

    /// The reports, best-first.
    pub fn entries(&self) -> &[Extremum] {
        &self.entries
    }

    /// The single best report, if any.
    pub fn best(&self) -> Option<Extremum> {
        self.entries.first().copied()
    }

    /// Whether no reports are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A tree (tributary) message plus instrumentation.
#[derive(Clone, Debug)]
pub struct TreeEnvelope<T> {
    /// The protocol payload (`None` when the subtree had no data-bearing
    /// protocol message but still counts contributors).
    pub msg: Option<T>,
    /// The subtree root that produced this envelope (the conversion salt).
    pub root: NodeId,
    /// Exact count of contributing sensors in this subtree.
    pub count: u64,
    /// Exact contributor set (instrumentation).
    pub contributors: IdSet,
}

impl<T> TreeEnvelope<T> {
    /// A leaf-level envelope for `node` with its local message.
    pub fn local(capacity: usize, node: NodeId, msg: Option<T>) -> Self {
        Self::local_in(IdSet::new(capacity), node, msg)
    }

    /// [`TreeEnvelope::local`] over a recycled contributor set (must be
    /// cleared, capacity already sized to the network) — the
    /// allocation-free path driven by the runner arena's free-list.
    pub fn local_in(mut contributors: IdSet, node: NodeId, msg: Option<T>) -> Self {
        debug_assert!(
            contributors.is_empty(),
            "recycled contributor set not cleared"
        );
        let count = if node.is_base() {
            0
        } else {
            contributors.insert(node.0);
            1
        };
        TreeEnvelope {
            msg,
            root: node,
            count,
            contributors,
        }
    }

    /// Merge a delivered child envelope (payloads merged by the caller).
    pub fn absorb_counts(&mut self, child: &TreeEnvelope<T>) {
        self.count += child.count;
        self.contributors.union(&child.contributors);
    }
}

/// A multi-path (delta) message plus instrumentation.
#[derive(Clone, Debug)]
pub struct MpEnvelope<S> {
    /// The protocol payload.
    pub msg: Option<S>,
    /// Exact contributor set (instrumentation).
    pub contributors: IdSet,
    /// In-band duplicate-insensitive count of contributors.
    pub count_sketch: FmSketch,
    /// Largest per-subtree non-contributions seen (TD expand signal).
    pub max_noncontrib: ExtremaSet,
    /// Smallest per-subtree non-contributions seen (TD shrink signal).
    pub min_noncontrib: ExtremaSet,
}

impl<S> MpEnvelope<S> {
    /// A local envelope for a delta vertex.
    pub fn local(capacity: usize, node: NodeId, msg: Option<S>) -> Self {
        Self::local_in(IdSet::new(capacity), node, msg)
    }

    /// [`MpEnvelope::local`] over a recycled contributor set (must be
    /// cleared, capacity already sized to the network) — the
    /// allocation-free path driven by the runner arena's free-list.
    pub fn local_in(contributors: IdSet, node: NodeId, msg: Option<S>) -> Self {
        Self::local_pooled(contributors, FmSketch::new(COUNT_SKETCH_BITMAPS), node, msg)
    }

    /// [`MpEnvelope::local_in`] with the count sketch recycled too (must
    /// be cleared, [`COUNT_SKETCH_BITMAPS`] wide) — the fully
    /// allocation-free path: both per-envelope heap parts come from the
    /// runner arena's free-lists.
    pub fn local_pooled(
        mut contributors: IdSet,
        mut count_sketch: FmSketch,
        node: NodeId,
        msg: Option<S>,
    ) -> Self {
        debug_assert!(
            contributors.is_empty(),
            "recycled contributor set not cleared"
        );
        debug_assert!(count_sketch.is_empty(), "recycled count sketch not cleared");
        debug_assert_eq!(count_sketch.num_bitmaps(), COUNT_SKETCH_BITMAPS);
        if !node.is_base() {
            contributors.insert(node.0);
            count_sketch.insert_distinct(td_sketches::hash::keyed(0xC0C0, node.0 as u64));
        }
        MpEnvelope {
            msg,
            contributors,
            count_sketch,
            max_noncontrib: ExtremaSet::largest(),
            min_noncontrib: ExtremaSet::smallest(),
        }
    }

    /// Fold a delivered tree envelope's instrumentation in (payload
    /// conversion is the caller's job). The tree's exact count enters the
    /// count sketch as a value salted by the subtree root — the same
    /// conversion-function trick as the aggregate itself.
    pub fn absorb_tree_counts<T>(&mut self, child: &TreeEnvelope<T>) {
        self.contributors.union(&child.contributors);
        self.count_sketch.insert_value(
            td_sketches::hash::keyed(0xC0C1, child.root.0 as u64),
            child.count,
        );
    }

    /// ODI-fuse another delta envelope's instrumentation (payload fusion
    /// is the caller's job).
    pub fn fuse_counts(&mut self, other: &MpEnvelope<S>) {
        self.contributors.union(&other.contributors);
        self.count_sketch.merge(&other.count_sketch);
        self.max_noncontrib.merge(&other.max_noncontrib);
        self.min_noncontrib.merge(&other.min_noncontrib);
    }

    /// Record this vertex's own non-contribution report (switchable M
    /// vertices only, §4.2).
    pub fn report_noncontrib(&mut self, node: NodeId, value: u64) {
        let e = Extremum { value, node };
        self.max_noncontrib.insert(e);
        self.min_noncontrib.insert(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_envelope_counts_itself() {
        let e = TreeEnvelope::<u64>::local(10, NodeId(3), Some(7));
        assert_eq!(e.count, 1);
        assert!(e.contributors.contains(3));
        let b = TreeEnvelope::<u64>::local(10, NodeId(0), None);
        assert_eq!(b.count, 0);
    }

    #[test]
    fn tree_absorb_accumulates() {
        let mut a = TreeEnvelope::<u64>::local(10, NodeId(1), Some(1));
        let b = TreeEnvelope::<u64>::local(10, NodeId(2), Some(1));
        a.absorb_counts(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.contributors.len(), 2);
    }

    #[test]
    fn mp_fuse_is_idempotent_on_counts() {
        let mut a = MpEnvelope::<u64>::local(10, NodeId(1), Some(1));
        let b = a.clone();
        a.fuse_counts(&b);
        assert_eq!(a.contributors.len(), 1);
        let est = a.count_sketch.estimate();
        a.fuse_counts(&b);
        assert_eq!(a.count_sketch.estimate(), est);
    }

    #[test]
    fn extrema_fusion_takes_max_and_min() {
        let mut a = MpEnvelope::<u64>::local(10, NodeId(1), None);
        a.report_noncontrib(NodeId(1), 5);
        let mut b = MpEnvelope::<u64>::local(10, NodeId(2), None);
        b.report_noncontrib(NodeId(2), 9);
        let mut c = MpEnvelope::<u64>::local(10, NodeId(3), None);
        c.report_noncontrib(NodeId(3), 2);
        a.fuse_counts(&b);
        a.fuse_counts(&c);
        assert_eq!(
            a.max_noncontrib.best(),
            Some(Extremum {
                value: 9,
                node: NodeId(2)
            })
        );
        assert_eq!(
            a.min_noncontrib.best(),
            Some(Extremum {
                value: 2,
                node: NodeId(3)
            })
        );
        // All three reports survive in the top-k sets.
        assert_eq!(a.max_noncontrib.entries().len(), 3);
    }

    #[test]
    fn extrema_fusion_deterministic_on_ties() {
        // Equal values break ties by node id, independent of fuse order.
        let mut x = MpEnvelope::<u64>::local(10, NodeId(1), None);
        x.report_noncontrib(NodeId(1), 4);
        let mut y = MpEnvelope::<u64>::local(10, NodeId(2), None);
        y.report_noncontrib(NodeId(2), 4);
        let mut xy = x.clone();
        xy.fuse_counts(&y);
        let mut yx = y.clone();
        yx.fuse_counts(&x);
        assert_eq!(xy.max_noncontrib.entries(), yx.max_noncontrib.entries());
        assert_eq!(xy.min_noncontrib.entries(), yx.min_noncontrib.entries());
    }

    #[test]
    fn pooled_constructors_match_fresh_ones() {
        let mut recycled = IdSet::singleton(20, 5);
        recycled.clear();
        let pooled = TreeEnvelope::<u64>::local_in(recycled, NodeId(3), Some(7));
        let fresh = TreeEnvelope::<u64>::local(20, NodeId(3), Some(7));
        assert_eq!(pooled.count, fresh.count);
        assert_eq!(pooled.contributors, fresh.contributors);

        let mut recycled = IdSet::singleton(20, 9);
        recycled.clear();
        let pooled = MpEnvelope::<u64>::local_in(recycled, NodeId(4), Some(1));
        let fresh = MpEnvelope::<u64>::local(20, NodeId(4), Some(1));
        assert_eq!(pooled.contributors, fresh.contributors);
        assert_eq!(
            pooled.count_sketch.estimate(),
            fresh.count_sketch.estimate()
        );
    }

    #[test]
    fn tree_counts_enter_count_sketch() {
        let mut m = MpEnvelope::<u64>::local(200, NodeId(1), None);
        let mut t = TreeEnvelope::<u64>::local(200, NodeId(2), Some(1));
        for i in 3..100u32 {
            let c = TreeEnvelope::<u64>::local(200, NodeId(i), Some(1));
            t.absorb_counts(&c);
        }
        m.absorb_tree_counts(&t);
        let est = m.count_sketch.estimate();
        assert!(est > 30.0 && est < 300.0, "count sketch estimate {est}");
        assert_eq!(m.contributors.len(), 99);
    }
}
