//! Instrumented message envelopes.
//!
//! The runner wraps every protocol message in an envelope carrying the
//! adaptation signals of §4.2:
//!
//! * **Exact subtree count** (tree envelopes) — trees count exactly, and
//!   this count is what the paper's augmented messages carry.
//! * **Approximate count sketch** (multi-path envelopes) — the in-band
//!   duplicate-insensitive Count the base station can use as its
//!   protocol-faithful adaptation signal.
//! * **Non-contribution extrema** — each switchable M vertex reports how
//!   many nodes of its (static) subtree failed to contribute; max/min
//!   with arg-nodes fuse ODI through the delta and steer the fine-grained
//!   TD strategy.
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
/// values), so merging is idempotent. Held inline: building, fusing and
/// reporting a set never allocates.
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

    /// ODI merge.
    pub fn merge(&mut self, other: &Self) {
        debug_assert_eq!(self.descending, other.descending);
        for &e in other.entries() {
            self.insert(e);
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
}

impl<T> TreeEnvelope<T> {
    /// A leaf-level envelope for `node` with its local message.
    pub fn local(node: NodeId, msg: Option<T>) -> Self {
        TreeEnvelope {
            msg,
            root: node,
            count: u64::from(!node.is_base()),
        }
    }

    /// Merge a delivered child envelope (payloads merged by the caller).
    pub fn absorb_counts(&mut self, child: &TreeEnvelope<T>) {
        self.count += child.count;
    }
}

/// A multi-path (delta) message plus instrumentation.
#[derive(Clone, Debug)]
pub struct MpEnvelope<S> {
    /// The protocol payload.
    pub msg: Option<S>,
    /// In-band duplicate-insensitive count of contributors.
    pub count_sketch: FmSketch,
    /// Largest per-subtree non-contributions seen (TD expand signal).
    pub max_noncontrib: ExtremaSet,
    /// Smallest per-subtree non-contributions seen (TD shrink signal).
    pub min_noncontrib: ExtremaSet,
}

impl<S> MpEnvelope<S> {
    /// A local envelope for a delta vertex.
    pub fn local(node: NodeId, msg: Option<S>) -> Self {
        Self::local_pooled(FmSketch::new(COUNT_SKETCH_BITMAPS), node, msg)
    }

    /// [`MpEnvelope::local`] over a recycled count sketch (must be
    /// cleared, [`COUNT_SKETCH_BITMAPS`] wide) — the allocation-free path
    /// driven by the runner arena's free-list.
    pub fn local_pooled(mut count_sketch: FmSketch, node: NodeId, msg: Option<S>) -> Self {
        debug_assert!(count_sketch.is_empty(), "recycled count sketch not cleared");
        debug_assert_eq!(count_sketch.num_bitmaps(), COUNT_SKETCH_BITMAPS);
        if !node.is_base() {
            count_sketch.insert_distinct(td_sketches::hash::keyed(0xC0C0, node.0 as u64));
        }
        MpEnvelope {
            msg,
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
        self.count_sketch.insert_value(
            td_sketches::hash::keyed(0xC0C1, child.root.0 as u64),
            child.count,
        );
    }

    /// ODI-fuse another delta envelope's instrumentation (payload fusion
    /// is the caller's job).
    pub fn fuse_counts(&mut self, other: &MpEnvelope<S>) {
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
        let e = TreeEnvelope::<u64>::local(NodeId(3), Some(7));
        assert_eq!(e.count, 1);
        let b = TreeEnvelope::<u64>::local(NodeId(0), None);
        assert_eq!(b.count, 0);
    }

    #[test]
    fn tree_absorb_accumulates() {
        let mut a = TreeEnvelope::<u64>::local(NodeId(1), Some(1));
        let b = TreeEnvelope::<u64>::local(NodeId(2), Some(1));
        a.absorb_counts(&b);
        assert_eq!(a.count, 2);
        let c = TreeEnvelope::<u64>::local(NodeId(0), None);
        a.absorb_counts(&c);
        assert_eq!(a.count, 2, "the base station counts nobody");
    }

    #[test]
    fn mp_fuse_is_idempotent_on_counts() {
        let mut a = MpEnvelope::<u64>::local(NodeId(1), Some(1));
        let est = a.count_sketch.estimate();
        let b = a.clone();
        a.fuse_counts(&b);
        assert_eq!(a.count_sketch.estimate(), est);
        a.fuse_counts(&b);
        assert_eq!(a.count_sketch.estimate(), est);
    }

    #[test]
    fn extrema_fusion_takes_max_and_min() {
        let mut a = MpEnvelope::<u64>::local(NodeId(1), None);
        a.report_noncontrib(NodeId(1), 5);
        let mut b = MpEnvelope::<u64>::local(NodeId(2), None);
        b.report_noncontrib(NodeId(2), 9);
        let mut c = MpEnvelope::<u64>::local(NodeId(3), None);
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
        let mut x = MpEnvelope::<u64>::local(NodeId(1), None);
        x.report_noncontrib(NodeId(1), 4);
        let mut y = MpEnvelope::<u64>::local(NodeId(2), None);
        y.report_noncontrib(NodeId(2), 4);
        let mut xy = x.clone();
        xy.fuse_counts(&y);
        let mut yx = y.clone();
        yx.fuse_counts(&x);
        assert_eq!(xy.max_noncontrib.entries(), yx.max_noncontrib.entries());
        assert_eq!(xy.min_noncontrib.entries(), yx.min_noncontrib.entries());
        assert_eq!(xy.max_noncontrib, yx.max_noncontrib);
    }

    #[test]
    fn pooled_constructors_match_fresh_ones() {
        let mut recycled = FmSketch::new(COUNT_SKETCH_BITMAPS);
        recycled.insert_distinct(td_sketches::hash::keyed(0xC0C0, 9));
        recycled.clear();
        let pooled = MpEnvelope::<u64>::local_pooled(recycled, NodeId(4), Some(1));
        let fresh = MpEnvelope::<u64>::local(NodeId(4), Some(1));
        assert_eq!(
            pooled.count_sketch.estimate(),
            fresh.count_sketch.estimate()
        );
        assert_eq!(pooled.max_noncontrib, fresh.max_noncontrib);
        assert_eq!(pooled.min_noncontrib, fresh.min_noncontrib);
    }

    #[test]
    fn tree_counts_enter_count_sketch() {
        let mut m = MpEnvelope::<u64>::local(NodeId(1), None);
        let mut t = TreeEnvelope::<u64>::local(NodeId(2), Some(1));
        for i in 3..100u32 {
            let c = TreeEnvelope::<u64>::local(NodeId(i), Some(1));
            t.absorb_counts(&c);
        }
        assert_eq!(t.count, 98);
        m.absorb_tree_counts(&t);
        let est = m.count_sketch.estimate();
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
        /// Random `insert`/`merge` sequences, both orderings, match the
        /// sort-dedup-truncate reference after every operation. Bit `i`
        /// of `via_merge` routes report `i` through a second set that is
        /// merged in whole each time (so merges re-deliver earlier
        /// reports). A node's report has one value (duplicate deliveries
        /// carry identical values); values collide often so the node-id
        /// tie-break is exercised.
        #[test]
        fn prop_extrema_set_is_the_sorted_top_k(
            nodes in proptest::collection::vec(0u32..12, 0..40),
            via_merge in proptest::prelude::any::<u64>(),
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
                    if via_merge >> i & 1 == 1 {
                        other.insert(report(node));
                        set.merge(&other);
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
