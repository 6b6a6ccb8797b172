//! The protocol abstraction: what an aggregate must provide to run under
//! Tributary-Delta (§5), plus adapters for scalar aggregates and for the
//! frequent-items algorithms of §6.

use std::sync::Arc;
use td_aggregates::traits::Aggregate;
use td_frequent::convert::convert_summary_into;
use td_frequent::items::{Item, ItemBag};
use td_frequent::multipath::{FreqEstimates, MultipathConfig, SynopsisSet};
use td_frequent::summary::FreqSummary;
use td_netsim::message::WireSize;
use td_netsim::node::NodeId;
use td_quantiles::gradient::PrecisionGradient;
use td_quantiles::summary::QuantileSummary;
use td_sketches::counter::CounterFactory;
use td_sketches::keyed::union_by;

/// An aggregation protocol runnable by the Tributary-Delta runner.
///
/// Tree (tributary) nodes exchange `TreeMsg`s with ordinary merge
/// semantics; delta nodes exchange ODI `MpMsg`s; `convert` bridges a
/// tributary root's final message into the delta (§5). `finalize_tree`
/// lets height-dependent algorithms (the §6.1 precision gradients) apply
/// their per-level budget after a node has merged its children.
///
/// A delta vertex builds its message in the runner's long-lived
/// per-query **accumulator**: [`local_mp`](Self::local_mp) writes the
/// vertex's own contribution into it, each delivered tree child is
/// [`convert`](Self::convert)ed into a conversion scratch and fused in,
/// every heard broadcast is fused in, and [`seal`](Self::seal) moves
/// the finished message out for sending. The accumulator and the
/// scratch outlive the vertex, so a set-valued message can be built in
/// storage that earlier vertices grew and sealed at exact size.
///
/// The base station evaluates in the shape of its own mode: a tree-mode
/// base calls [`evaluate_tree`](Self::evaluate_tree) over the parts its
/// children delivered; a multi-path base calls
/// [`evaluate_mp`](Self::evaluate_mp) over the synopsis it fused (its
/// tree children were converted on arrival), or `evaluate_tree(&[], h)`
/// when nothing reached it.
///
/// `Sync` because the epoch's query columns run on several threads that
/// share the protocol instances by reference; instances are read-only
/// during an epoch, so plain-data implementations get this for free.
pub trait Protocol: Sync {
    /// Partial result used in tributaries. (`'static` so messages can be
    /// held in a [`crate::query::QuerySet`] query's type-erased column —
    /// protocol *instances* may still borrow their epoch's readings —
    /// and `Send` so a column can move to the worker thread that runs
    /// it. Not `Sync`: a column, broadcasts included, is read by one
    /// thread at a time.)
    type TreeMsg: Clone + Send + 'static;
    /// Duplicate-insensitive partial result used in the delta (same
    /// bounds as `TreeMsg`).
    type MpMsg: Clone + Send + 'static;
    /// The query answer produced at the base station.
    type Output: 'static;

    /// The local tree contribution of a node (`None` if the node has no
    /// data, e.g. the base station).
    fn local_tree(&self, node: NodeId) -> Option<Self::TreeMsg>;

    /// Merge a child's tree message into an accumulator.
    fn merge_tree(&self, into: &mut Self::TreeMsg, from: &Self::TreeMsg);

    /// Post-merge hook for height-dependent processing (default: none).
    fn finalize_tree(&self, _node: NodeId, _height: u32, msg: Self::TreeMsg) -> Self::TreeMsg {
        msg
    }

    /// Write the local multi-path contribution of `node` into the
    /// accumulator `acc` and return whether the node has one (`false`
    /// for the base station or a node without data). Whatever `acc`
    /// held is discarded; its storage may be reused.
    fn local_mp(&self, node: NodeId, acc: &mut Option<Self::MpMsg>) -> bool;

    /// ODI fusion of multi-path messages.
    fn fuse(&self, into: &mut Self::MpMsg, from: &Self::MpMsg);

    /// Conversion function: re-express the finished tree message of
    /// tributary root `root` as a multi-path message, written into `out`
    /// (left `Some`). Whatever `out` held is discarded; its storage may
    /// be reused.
    fn convert(&self, root: NodeId, msg: &Self::TreeMsg, out: &mut Option<Self::MpMsg>);

    /// Move the message built in the accumulator `acc` out for sending.
    /// The default takes it whole, leaving `acc` empty. A set-valued
    /// message instead moves its content into an exact-size message, so
    /// messages in flight carry no spare capacity, and leaves its
    /// storage in `acc` for the next vertex. Never clones the content.
    fn seal(&self, acc: &mut Option<Self::MpMsg>) -> Option<Self::MpMsg> {
        acc.take()
    }

    /// Size of a tree message in 32-bit words; a tree send is priced at
    /// 4 bytes a word.
    fn tree_words(&self, msg: &Self::TreeMsg) -> usize;

    /// Wire footprint of a multi-path message.
    fn mp_wire(&self, msg: &Self::MpMsg) -> WireSize;

    /// The answer at a tree-mode base station: the final combine of the
    /// tree parts its children delivered, at `base_height` for
    /// height-dependent budgets. Also the answer of a multi-path base
    /// that heard nothing (`parts` empty).
    fn evaluate_tree(&self, parts: &[Self::TreeMsg], base_height: u32) -> Self::Output;

    /// The answer at a multi-path base station: the evaluation of the
    /// delta synopsis it fused.
    fn evaluate_mp(&self, mp: &Self::MpMsg) -> Self::Output;
}

/// Protocols pass through shared references, so per-epoch instances can
/// be registered in a query set without giving up ownership.
impl<P: Protocol> Protocol for &P {
    type TreeMsg = P::TreeMsg;
    type MpMsg = P::MpMsg;
    type Output = P::Output;

    fn local_tree(&self, node: NodeId) -> Option<Self::TreeMsg> {
        (**self).local_tree(node)
    }

    fn merge_tree(&self, into: &mut Self::TreeMsg, from: &Self::TreeMsg) {
        (**self).merge_tree(into, from)
    }

    fn finalize_tree(&self, node: NodeId, height: u32, msg: Self::TreeMsg) -> Self::TreeMsg {
        (**self).finalize_tree(node, height, msg)
    }

    fn local_mp(&self, node: NodeId, acc: &mut Option<Self::MpMsg>) -> bool {
        (**self).local_mp(node, acc)
    }

    fn fuse(&self, into: &mut Self::MpMsg, from: &Self::MpMsg) {
        (**self).fuse(into, from)
    }

    fn convert(&self, root: NodeId, msg: &Self::TreeMsg, out: &mut Option<Self::MpMsg>) {
        (**self).convert(root, msg, out)
    }

    fn seal(&self, acc: &mut Option<Self::MpMsg>) -> Option<Self::MpMsg> {
        (**self).seal(acc)
    }

    fn tree_words(&self, msg: &Self::TreeMsg) -> usize {
        (**self).tree_words(msg)
    }

    fn mp_wire(&self, msg: &Self::MpMsg) -> WireSize {
        (**self).mp_wire(msg)
    }

    fn evaluate_tree(&self, parts: &[Self::TreeMsg], base_height: u32) -> Self::Output {
        (**self).evaluate_tree(parts, base_height)
    }

    fn evaluate_mp(&self, mp: &Self::MpMsg) -> Self::Output {
        (**self).evaluate_mp(mp)
    }
}

// ---------------------------------------------------------------------
// Scalar adapter
// ---------------------------------------------------------------------

/// Adapter running any [`Aggregate`] (Count, Sum, Min, Max, Average, or
/// one of your own) as a Tributary-Delta protocol. Holds the epoch's
/// readings: `values[i]` is node `i`'s reading (the base station's entry
/// is ignored).
#[derive(Clone, Debug)]
pub struct ScalarProtocol<'v, A> {
    agg: A,
    values: &'v [u64],
}

impl<'v, A: Aggregate> ScalarProtocol<'v, A> {
    /// Wrap an aggregate with this epoch's readings.
    pub fn new(agg: A, values: &'v [u64]) -> Self {
        ScalarProtocol { agg, values }
    }

    /// The wrapped aggregate.
    pub fn aggregate(&self) -> &A {
        &self.agg
    }
}

impl<'v, A: Aggregate> Protocol for ScalarProtocol<'v, A> {
    type TreeMsg = A::TreePartial;
    type MpMsg = A::Synopsis;
    type Output = f64;

    fn local_tree(&self, node: NodeId) -> Option<Self::TreeMsg> {
        if node.is_base() {
            return None;
        }
        Some(self.agg.local_tree(node.0, self.values[node.index()]))
    }

    fn merge_tree(&self, into: &mut Self::TreeMsg, from: &Self::TreeMsg) {
        self.agg.merge_tree(into, from);
    }

    fn local_mp(&self, node: NodeId, acc: &mut Option<Self::MpMsg>) -> bool {
        if node.is_base() {
            return false;
        }
        *acc = Some(self.agg.local_synopsis(node.0, self.values[node.index()]));
        true
    }

    fn fuse(&self, into: &mut Self::MpMsg, from: &Self::MpMsg) {
        self.agg.fuse(into, from);
    }

    fn convert(&self, root: NodeId, msg: &Self::TreeMsg, out: &mut Option<Self::MpMsg>) {
        *out = Some(self.agg.convert(root.0, msg));
    }

    fn tree_words(&self, msg: &Self::TreeMsg) -> usize {
        self.agg.tree_words(msg)
    }

    fn mp_wire(&self, msg: &Self::MpMsg) -> WireSize {
        self.agg.synopsis_wire(msg)
    }

    fn evaluate_tree(&self, parts: &[Self::TreeMsg], _base_height: u32) -> f64 {
        let Some((first, rest)) = parts.split_first() else {
            return 0.0;
        };
        let mut acc = first.clone();
        for p in rest {
            self.agg.merge_tree(&mut acc, p);
        }
        self.agg.evaluate_tree(&acc)
    }

    fn evaluate_mp(&self, mp: &Self::MpMsg) -> f64 {
        self.agg.evaluate_synopsis(mp)
    }
}

// ---------------------------------------------------------------------
// Frequent-items adapter
// ---------------------------------------------------------------------

/// The answer of a frequent-items query.
#[derive(Clone, Debug)]
pub struct FreqOutput {
    /// Items reported frequent (estimate > `(s − ε)·N̂`).
    pub reported: Vec<Item>,
    /// Estimated total occurrences N̂.
    pub n_est: f64,
    /// The raw per-item estimates.
    pub estimates: FreqEstimates,
}

/// Adapter running the §6 frequent-items algorithms under Tributary-Delta:
/// Algorithm 1 with a precision gradient in the tributaries, Algorithm 2
/// in the delta, and the §6.3 conversion at the boundary. The total error
/// splits as `ε = ε_a (tree) + ε_b (multi-path)`.
pub struct FreqProtocol<'v, F: CounterFactory, G> {
    /// Multi-path configuration (ε_b, η, counter factory).
    pub mp_cfg: MultipathConfig<F>,
    /// Precision gradient for the tree side (built for ε_a and the
    /// topology's domination factor / height).
    pub gradient: G,
    /// Support threshold s.
    pub support: f64,
    bags: &'v [ItemBag],
}

impl<'v, F: CounterFactory, G: PrecisionGradient> FreqProtocol<'v, F, G> {
    /// Create the protocol over this epoch's per-node item bags.
    pub fn new(mp_cfg: MultipathConfig<F>, gradient: G, support: f64, bags: &'v [ItemBag]) -> Self {
        FreqProtocol {
            mp_cfg,
            gradient,
            support,
            bags,
        }
    }

    /// The combined error tolerance ε = ε_a + ε_b.
    pub fn total_eps(&self) -> f64 {
        self.gradient.final_eps() + self.mp_cfg.eps
    }

    /// The answer from base-station estimates held to tolerance `eps`.
    fn output(&self, estimates: FreqEstimates, eps: f64) -> FreqOutput {
        FreqOutput {
            reported: estimates.report(self.support - eps),
            n_est: estimates.n_est,
            estimates,
        }
    }
}

impl<'v, F: CounterFactory, G: PrecisionGradient> Protocol for FreqProtocol<'v, F, G> {
    type TreeMsg = FreqSummary;
    type MpMsg = SynopsisSet<F::Counter>;
    type Output = FreqOutput;

    fn local_tree(&self, node: NodeId) -> Option<Self::TreeMsg> {
        if node.is_base() || self.bags[node.index()].is_empty() {
            return None;
        }
        Some(FreqSummary::local(&self.bags[node.index()]))
    }

    fn merge_tree(&self, into: &mut Self::TreeMsg, from: &Self::TreeMsg) {
        // Raw pointwise accumulation; the per-level decrement happens in
        // finalize_tree so that Algorithm 1's single Step-3 decrement per
        // node is preserved.
        into.accumulate(from);
    }

    fn finalize_tree(&self, _node: NodeId, height: u32, mut msg: Self::TreeMsg) -> Self::TreeMsg {
        msg.finalize(self.gradient.eps_at(height));
        msg
    }

    fn local_mp(&self, node: NodeId, acc: &mut Option<Self::MpMsg>) -> bool {
        if node.is_base() {
            return false;
        }
        let set = acc.get_or_insert_with(SynopsisSet::new);
        set.clear();
        let bag = &self.bags[node.index()];
        set.insert_generated(&self.mp_cfg, node.0 as u64, bag.iter(), bag.total())
    }

    fn fuse(&self, into: &mut Self::MpMsg, from: &Self::MpMsg) {
        into.fuse(&self.mp_cfg, from);
    }

    fn convert(&self, root: NodeId, msg: &Self::TreeMsg, out: &mut Option<Self::MpMsg>) {
        let set = out.get_or_insert_with(SynopsisSet::new);
        set.clear();
        convert_summary_into(&self.mp_cfg, root, msg, set);
    }

    fn seal(&self, acc: &mut Option<Self::MpMsg>) -> Option<Self::MpMsg> {
        acc.as_mut().map(SynopsisSet::seal)
    }

    fn tree_words(&self, msg: &Self::TreeMsg) -> usize {
        msg.wire_words()
    }

    fn mp_wire(&self, msg: &Self::MpMsg) -> WireSize {
        WireSize::from_words(msg.wire_words())
    }

    fn evaluate_tree(&self, parts: &[Self::TreeMsg], base_height: u32) -> FreqOutput {
        // The final Algorithm 1 combine at the base.
        let summary = FreqSummary::combine(
            parts,
            &FreqSummary::empty(),
            self.gradient.eps_at(base_height),
        );
        let estimates = FreqEstimates {
            n_est: summary.n as f64,
            counts: summary.iter().map(|(u, c)| (u, c as f64)).collect(),
        };
        self.output(estimates, self.gradient.final_eps())
    }

    fn evaluate_mp(&self, set: &Self::MpMsg) -> FreqOutput {
        // Fused sets are compact already: evaluate in place.
        let estimates = if set.is_compact() {
            set.evaluate()
        } else {
            let mut set = set.clone();
            set.compact(&self.mp_cfg);
            set.evaluate()
        };
        self.output(estimates, self.total_eps())
    }
}

// ---------------------------------------------------------------------
// Quantile adapter
// ---------------------------------------------------------------------

/// ODI multi-path message for quantile queries: per-origin parts keyed
/// by the node that generated them. Quantile summaries are
/// duplicate-*sensitive* (combining a summary with itself double-counts
/// its population), so the delta carries a keyed set — re-inserting a
/// part that another path already delivered is a no-op, which restores
/// order-and-duplicate insensitivity. The same trick `SynopsisSet` uses
/// for the frequent-items delta.
///
/// Stored flat, sorted by origin, 16 bytes a part. A sensor's own part
/// is its one reading, kept inline: a one-reading summary is one exact
/// entry (a q-digest leaf of count 1, a GK tuple), so nothing is built
/// until the base merges. A tributary root's summary, or the exact
/// summary of a sensor with several readings, sits behind an `Arc`: a
/// part never changes once made, so a union shares the summaries it
/// adds instead of copying them, and keeps its own part for origins it
/// holds.
#[derive(Debug)]
pub struct QuantileSynopsisSet<S> {
    parts: Vec<Part<S>>,
}

/// One origin's part of a [`QuantileSynopsisSet`].
#[derive(Debug)]
enum Part<S> {
    /// A sensor's own reading: the exact one-reading summary.
    Reading { origin: u32, value: u64 },
    /// A tributary root's converted summary, or the exact summary of a
    /// sensor with several readings.
    Summary { origin: u32, part: Arc<S> },
}

impl<S> Part<S> {
    fn origin(&self) -> u32 {
        match *self {
            Part::Reading { origin, .. } | Part::Summary { origin, .. } => origin,
        }
    }
}

impl<S> Clone for Part<S> {
    /// Copies a reading; shares a summary.
    fn clone(&self) -> Self {
        match self {
            Part::Reading { origin, value } => Part::Reading {
                origin: *origin,
                value: *value,
            },
            Part::Summary { origin, part } => Part::Summary {
                origin: *origin,
                part: Arc::clone(part),
            },
        }
    }
}

impl<S> Clone for QuantileSynopsisSet<S> {
    fn clone(&self) -> Self {
        QuantileSynopsisSet {
            parts: self.parts.clone(),
        }
    }

    /// Reuses this set's part list.
    fn clone_from(&mut self, source: &Self) {
        self.parts.clone_from(&source.parts);
    }
}

impl<S: QuantileSummary> QuantileSynopsisSet<S> {
    /// Make `self` the set holding one part, reusing its part list.
    fn set_singleton(&mut self, part: Part<S>) {
        self.parts.clear();
        self.parts.push(part);
    }

    /// Keyed union; the first writer wins (both copies of a key were
    /// generated by the same node, so they are identical). Grows in
    /// place; a new origin copies the sender's reading or shares its
    /// summary.
    fn union(&mut self, other: &Self) {
        union_by(
            &mut self.parts,
            &other.parts,
            Part::origin,
            |_, _| {},
            Part::clone,
            Part::clone,
        );
    }

    /// Move the parts out into an exact-size set, keeping this set's
    /// part list for reuse.
    fn seal(&mut self) -> Self {
        let mut parts = Vec::with_capacity(self.parts.len());
        parts.append(&mut self.parts);
        QuantileSynopsisSet { parts }
    }

    /// Wire words: one origin-id word plus each part's payload, a
    /// reading costing `reading_words` (its one-reading summary's).
    fn wire_words(&self, reading_words: usize) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                Part::Reading { .. } => 1 + reading_words,
                Part::Summary { part, .. } => 1 + part.wire_words(),
            })
            .sum()
    }

    /// Combine every part in deterministic (origin) order, in place.
    fn merged(&self, template: &S) -> S {
        let mut acc = template.exact_from(&[]);
        for p in &self.parts {
            match p {
                Part::Reading { value, .. } => acc.insert_exact(*value),
                Part::Summary { part, .. } => acc.combine_into(part),
            }
        }
        acc
    }

    /// An empty set.
    fn new() -> Self {
        QuantileSynopsisSet { parts: Vec::new() }
    }

    /// Number of distinct origins represented.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// Whether the set holds no parts.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

/// The answer of a quantile query: the merged summary at the base, which
/// self-reports its absolute rank uncertainty.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantileOutput<S> {
    /// The merged (and, on the pure-tree path, final-combined) summary.
    pub summary: S,
}

impl<S: QuantileSummary> QuantileOutput<S> {
    /// The φ-quantile of the aggregated population.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        self.summary.quantile(phi)
    }

    /// Estimated rank of `value` over the aggregated population.
    pub fn rank(&self, value: u64) -> u64 {
        self.summary.rank(value)
    }

    /// Number of contributing readings.
    pub fn population(&self) -> u64 {
        self.summary.population()
    }

    /// Self-reported absolute rank uncertainty `E`.
    pub fn uncertainty(&self) -> u64 {
        self.summary.uncertainty()
    }
}

/// One node's readings for an epoch: a single `u64`, or a multiset held
/// as a `Vec<u64>` (a node's expanded [`ItemBag`], as the
/// Quantiles-based frequent-items baseline \[8\] feeds it).
pub trait NodeReadings: Sync {
    /// The readings, in any order.
    fn readings(&self) -> &[u64];
}

impl NodeReadings for u64 {
    fn readings(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
}

impl NodeReadings for Vec<u64> {
    fn readings(&self) -> &[u64] {
        self
    }
}

/// Adapter running a quantile summary family (GK or q-digest — anything
/// implementing [`QuantileSummary`]) under Tributary-Delta: the §6.1.4
/// extension of the precision-gradient machinery to quantiles. Holds the
/// epoch's readings (`values[i]` is node `i`'s readings, one `u64` by
/// default; the base station's entry is ignored).
///
/// In the tributaries each node combines its children's summaries and
/// `finalize_tree` reduces the result to its height's **absolute** rank
/// budget `⌊ε(h) · n_subtree⌋` — the gradient's per-level error
/// *differences* pay for compression, so `MinTotalLoad` geometric
/// budgets beat a `Uniform` budget on bytes at matched final error. In
/// the delta, each sensor's readings ride a keyed ODI set under its own
/// key — one reading inline, several as their exact summary; `convert`
/// injects a tributary root's reduced summary under the root's key.
#[derive(Clone, Debug)]
pub struct QuantileProtocol<'v, S, G, R = u64> {
    template: S,
    gradient: G,
    values: &'v [R],
    /// Wire words of a one-reading summary, whatever the reading.
    reading_words: usize,
}

impl<'v, S: QuantileSummary, G: PrecisionGradient, R: NodeReadings> QuantileProtocol<'v, S, G, R> {
    /// Create the protocol over this epoch's readings. `template`
    /// carries the summary family's configuration (e.g. q-digest domain
    /// bits) and is otherwise empty.
    pub fn new(template: S, gradient: G, values: &'v [R]) -> Self {
        QuantileProtocol {
            reading_words: template.exact_from(&[0]).wire_words(),
            template,
            gradient,
            values,
        }
    }

    /// The final fractional rank-error tolerance ε at the base.
    pub fn total_eps(&self) -> f64 {
        self.gradient.final_eps()
    }

    /// Absolute rank budget at `height` for a subtree of `n` readings.
    fn budget(&self, height: u32, n: u64) -> u64 {
        (self.gradient.eps_at(height) * n as f64).floor() as u64
    }
}

impl<'v, G: PrecisionGradient, R: NodeReadings>
    QuantileProtocol<'v, td_quantiles::GkSummary, G, R>
{
    /// A Greenwald–Khanna quantile protocol.
    pub fn gk(gradient: G, values: &'v [R]) -> Self {
        QuantileProtocol::new(td_quantiles::GkSummary::empty(), gradient, values)
    }
}

impl<'v, G: PrecisionGradient, R: NodeReadings> QuantileProtocol<'v, td_quantiles::QDigest, G, R> {
    /// A q-digest quantile protocol over the domain `[0, 2^bits)`.
    pub fn qdigest(bits: u32, gradient: G, values: &'v [R]) -> Self {
        QuantileProtocol::new(td_quantiles::QDigest::empty(bits), gradient, values)
    }
}

impl<'v, S: QuantileSummary, G: PrecisionGradient, R: NodeReadings> Protocol
    for QuantileProtocol<'v, S, G, R>
{
    type TreeMsg = S;
    type MpMsg = QuantileSynopsisSet<S>;
    type Output = QuantileOutput<S>;

    fn local_tree(&self, node: NodeId) -> Option<Self::TreeMsg> {
        if node.is_base() {
            return None;
        }
        Some(
            self.template
                .exact_from(self.values[node.index()].readings()),
        )
    }

    fn merge_tree(&self, into: &mut Self::TreeMsg, from: &Self::TreeMsg) {
        into.combine_into(from);
    }

    fn finalize_tree(&self, _node: NodeId, height: u32, mut msg: Self::TreeMsg) -> Self::TreeMsg {
        msg.reduce(self.budget(height, msg.population()));
        msg
    }

    fn local_mp(&self, node: NodeId, acc: &mut Option<Self::MpMsg>) -> bool {
        if node.is_base() {
            return false;
        }
        let part = match *self.values[node.index()].readings() {
            [value] => Part::Reading {
                origin: node.0,
                value,
            },
            ref values => Part::Summary {
                origin: node.0,
                part: Arc::new(self.template.exact_from(values)),
            },
        };
        acc.get_or_insert_with(QuantileSynopsisSet::new)
            .set_singleton(part);
        true
    }

    fn fuse(&self, into: &mut Self::MpMsg, from: &Self::MpMsg) {
        into.union(from);
    }

    fn convert(&self, root: NodeId, msg: &Self::TreeMsg, out: &mut Option<Self::MpMsg>) {
        out.get_or_insert_with(QuantileSynopsisSet::new)
            .set_singleton(Part::Summary {
                origin: root.0,
                part: Arc::new(msg.clone()),
            });
    }

    fn seal(&self, acc: &mut Option<Self::MpMsg>) -> Option<Self::MpMsg> {
        acc.as_mut().map(QuantileSynopsisSet::seal)
    }

    fn tree_words(&self, msg: &Self::TreeMsg) -> usize {
        msg.wire_words()
    }

    fn mp_wire(&self, msg: &Self::MpMsg) -> WireSize {
        WireSize::from_words(msg.wire_words(self.reading_words))
    }

    fn evaluate_tree(&self, parts: &[Self::TreeMsg], base_height: u32) -> QuantileOutput<S> {
        // The final combine, then the base's budget.
        let mut acc = self.template.exact_from(&[]);
        for p in parts {
            acc.combine_into(p);
        }
        acc.reduce(self.budget(base_height, acc.population()));
        QuantileOutput { summary: acc }
    }

    fn evaluate_mp(&self, set: &Self::MpMsg) -> QuantileOutput<S> {
        QuantileOutput {
            summary: set.merged(&self.template),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_aggregates::count::Count;
    use td_aggregates::sum::Sum;
    use td_quantiles::gradient::MinTotalLoad;
    use td_sketches::counter::ExactFactory;

    /// `node`'s local multi-path message, built in a fresh accumulator.
    fn local<P: Protocol>(p: &P, node: NodeId) -> Option<P::MpMsg> {
        let mut acc = None;
        p.local_mp(node, &mut acc)
            .then(|| p.seal(&mut acc))
            .flatten()
    }

    /// `root`'s tree message converted into a fresh message.
    fn converted<P: Protocol>(p: &P, root: NodeId, msg: &P::TreeMsg) -> P::MpMsg {
        let mut out = None;
        p.convert(root, msg, &mut out);
        out.expect("convert writes a message")
    }

    #[test]
    fn scalar_protocol_tree_path() {
        let values = vec![0u64, 10, 20, 30];
        let p = ScalarProtocol::new(Sum::default(), &values);
        assert!(p.local_tree(NodeId(0)).is_none());
        let mut acc = p.local_tree(NodeId(1)).unwrap();
        let b = p.local_tree(NodeId(2)).unwrap();
        p.merge_tree(&mut acc, &b);
        assert_eq!(p.evaluate_tree(&[acc], 1), 30.0);
    }

    #[test]
    fn scalar_protocol_mp_path() {
        let values = vec![0u64, 1, 1, 1];
        let p = ScalarProtocol::new(Count::default(), &values);
        let mut acc = local(&p, NodeId(1)).unwrap();
        for n in [2u32, 3] {
            let s = local(&p, NodeId(n)).unwrap();
            p.fuse(&mut acc, &s);
        }
        let est = p.evaluate_mp(&acc);
        assert!(est > 0.5 && est < 12.0, "count estimate {est}");
    }

    #[test]
    fn scalar_protocol_conversion_path() {
        let values = vec![0u64; 101];
        let p = ScalarProtocol::new(Count::default(), &values);
        // 50-node tree partial converted and fused with 50 mp locals.
        let mut tree_acc = p.local_tree(NodeId(1)).unwrap();
        for n in 2..=50u32 {
            let t = p.local_tree(NodeId(n)).unwrap();
            p.merge_tree(&mut tree_acc, &t);
        }
        let mut mp = converted(&p, NodeId(1), &tree_acc);
        for n in 51..=100u32 {
            let s = local(&p, NodeId(n)).unwrap();
            p.fuse(&mut mp, &s);
        }
        let est = p.evaluate_mp(&mp);
        let rel = (est - 100.0).abs() / 100.0;
        assert!(rel < 0.45, "count estimate {est}");
    }

    #[test]
    fn quantile_protocol_tree_path_is_exact_at_small_scale() {
        // Readings 10,20,30 with budgets too small to compress: the
        // merged summary at the base is exact.
        let values = vec![0u64, 10, 20, 30];
        let p = QuantileProtocol::gk(MinTotalLoad::new(0.05, 2.25), &values);
        assert!(p.local_tree(NodeId(0)).is_none());
        let mut acc = p.local_tree(NodeId(1)).unwrap();
        for n in [2u32, 3] {
            let t = p.local_tree(NodeId(n)).unwrap();
            p.merge_tree(&mut acc, &t);
        }
        let acc = p.finalize_tree(NodeId(1), 2, acc);
        let out = p.evaluate_tree(&[acc], 3);
        assert_eq!(out.population(), 3);
        assert_eq!(out.quantile(0.5), Some(20));
        assert_eq!(out.rank(15), 1);
    }

    #[test]
    fn quantile_mp_fuse_is_duplicate_insensitive() {
        let values: Vec<u64> = (0..50).collect();
        let p = QuantileProtocol::qdigest(8, MinTotalLoad::new(0.05, 2.25), &values);
        let mut acc = local(&p, NodeId(1)).unwrap();
        let b = local(&p, NodeId(2)).unwrap();
        p.fuse(&mut acc, &b);
        // The same part arriving over a second path must not double-count.
        p.fuse(&mut acc, &b);
        let dup = acc.clone();
        p.fuse(&mut acc, &dup);
        let out = p.evaluate_mp(&acc);
        assert_eq!(out.population(), 2);
        assert_eq!(out.uncertainty(), 0);
    }

    #[test]
    fn quantile_conversion_path_counts_everyone_once() {
        let values: Vec<u64> = (0..101).collect();
        let p = QuantileProtocol::gk(MinTotalLoad::new(0.02, 2.25), &values);
        // Nodes 1..=50 as a tributary rooted at node 1; 51..=100 native mp.
        let mut tree = p.local_tree(NodeId(1)).unwrap();
        for n in 2..=50u32 {
            let t = p.local_tree(NodeId(n)).unwrap();
            p.merge_tree(&mut tree, &t);
        }
        let tree = p.finalize_tree(NodeId(1), 3, tree);
        let mut mp = converted(&p, NodeId(1), &tree);
        for n in 51..=100u32 {
            let s = local(&p, NodeId(n)).unwrap();
            p.fuse(&mut mp, &s);
        }
        let out = p.evaluate_mp(&mp);
        assert_eq!(out.population(), 100);
        let median = out.quantile(0.5).unwrap();
        let err = out.summary.rank(median).abs_diff(50);
        assert!(
            err <= out.uncertainty() + 1,
            "median {median} rank err {err} vs E {}",
            out.uncertainty()
        );
    }

    /// Over per-node multisets a node's tree message is the exact
    /// summary of all its readings; in the delta a one-reading node
    /// still sends its reading inline and a node with several sends
    /// their exact summary, so the base merges what the flat readings
    /// would give.
    #[test]
    fn quantile_protocol_over_multisets() {
        let t = td_quantiles::QDigest::empty(9);
        let values: Vec<Vec<u64>> = vec![vec![], vec![40], vec![7, 300, 7], vec![], vec![9, 1]];
        let p = QuantileProtocol::new(t.clone(), MinTotalLoad::new(0.05, 2.25), &values);
        assert_eq!(p.local_tree(NodeId(2)), Some(t.exact_from(&[7, 300, 7])));
        assert_eq!(p.local_tree(NodeId(3)).map(|s| s.population()), Some(0));
        let parts: Vec<_> = (1..=4u32).map(|n| local(&p, NodeId(n)).unwrap()).collect();
        assert!(matches!(
            parts[0].parts[..],
            [Part::Reading { value: 40, .. }]
        ));
        for (part, readings) in parts[1..].iter().zip(&values[2..]) {
            assert!(
                matches!(&part.parts[..], [Part::Summary { part, .. }] if **part == t.exact_from(readings))
            );
        }
        let mut mp = parts[0].clone();
        for s in &parts[1..] {
            p.fuse(&mut mp, s);
        }
        assert_eq!(
            p.evaluate_mp(&mp).summary,
            t.exact_from(&[40, 7, 300, 7, 9, 1])
        );
    }

    /// The readings origin `origin`'s part stands for. Every copy of an
    /// origin's part is identical, as in the engine (one node generates
    /// it). Origins divisible by 3 are tributary roots with a summary of
    /// several readings, the rest sensors with one reading each; a few
    /// readings fall outside a 9-bit q-digest's domain and saturate.
    fn values_of(origin: u32) -> Vec<u64> {
        let n = if origin.is_multiple_of(3) {
            2 + origin % 4
        } else {
            1
        };
        (0..n)
            .map(|i| (origin as u64 * 37 + i as u64 * 101) % 700)
            .collect()
    }

    /// Origin `origin`'s part as the engine builds it: a reading inline,
    /// a tributary root's summary behind an `Arc`.
    fn part<S: QuantileSummary>(template: &S, origin: u32) -> Part<S> {
        match values_of(origin)[..] {
            [value] => Part::Reading { origin, value },
            ref values => Part::Summary {
                origin,
                part: Arc::new(template.exact_from(values)),
            },
        }
    }

    /// Origin `origin`'s part with every reading as its one-reading
    /// summary behind an `Arc`: the layout before readings went inline.
    fn boxed_part<S: QuantileSummary>(template: &S, origin: u32) -> Part<S> {
        Part::Summary {
            origin,
            part: Arc::new(template.exact_from(&values_of(origin))),
        }
    }

    /// A set built the way the delta builds one: singletons of `make`'s
    /// parts unioned in the given order.
    fn set_of<S: QuantileSummary>(
        template: &S,
        origins: &[u32],
        make: fn(&S, u32) -> Part<S>,
    ) -> QuantileSynopsisSet<S> {
        let mut set = QuantileSynopsisSet::new();
        let mut one = QuantileSynopsisSet::new();
        for &o in origins {
            one.set_singleton(make(template, o));
            set.union(&one);
        }
        set
    }

    fn origin_set<S: QuantileSummary>(template: &S, origins: &[u32]) -> QuantileSynopsisSet<S> {
        set_of(template, origins, part)
    }

    /// The pre-flat union, kept as the oracle: a `BTreeMap` of deep
    /// copies, first writer wins.
    fn reference_set<S: QuantileSummary>(
        template: &S,
        origins: &[u32],
    ) -> std::collections::BTreeMap<u32, S> {
        let mut map = std::collections::BTreeMap::new();
        for &o in origins {
            map.entry(o)
                .or_insert_with(|| template.exact_from(&values_of(o)));
        }
        map
    }

    /// The set as `(origin, summary)`, each reading as its one-reading
    /// summary.
    fn flat<S: QuantileSummary>(template: &S, set: &QuantileSynopsisSet<S>) -> Vec<(u32, S)> {
        set.parts
            .iter()
            .map(|p| match p {
                Part::Reading { origin, value } => (*origin, template.exact_from(&[*value])),
                Part::Summary { origin, part } => (*origin, (**part).clone()),
            })
            .collect()
    }

    /// The flat set against the map oracle, for one summary family: the
    /// union, the merged base answer (the pre-flat fold by `combine`),
    /// and the three laws of aim 3(a) — duplicate delivery
    /// (`union(x, x) == x`), commutativity at evaluation, and
    /// associativity on the representation.
    fn check_quantile_set<S: QuantileSummary>(template: &S, a: &[u32], b: &[u32], c: &[u32]) {
        let flat = |set: &QuantileSynopsisSet<S>| flat(template, set);
        let (sa, sb, sc) = (
            origin_set(template, a),
            origin_set(template, b),
            origin_set(template, c),
        );
        let mut ab = sa.clone();
        ab.union(&sb);
        let mut oracle = reference_set(template, a);
        for (o, p) in reference_set(template, b) {
            oracle.entry(o).or_insert(p);
        }
        assert_eq!(flat(&ab), oracle.clone().into_iter().collect::<Vec<_>>());
        let mut fold = template.exact_from(&[]);
        for p in oracle.values() {
            fold = fold.combine(p);
        }
        assert_eq!(ab.merged(template), fold, "merged ≠ the pre-flat fold");
        // Duplicate delivery.
        let mut aa = sa.clone();
        aa.union(&sa);
        assert_eq!(flat(&aa), flat(&sa));
        // Commutativity at evaluation.
        let mut ba = sb.clone();
        ba.union(&sa);
        assert_eq!(ba.merged(template), ab.merged(template));
        // Associativity on the representation.
        let mut ab_c = ab.clone();
        ab_c.union(&sc);
        let mut bc = sb.clone();
        bc.union(&sc);
        let mut a_bc = sa.clone();
        a_bc.union(&bc);
        assert_eq!(flat(&ab_c), flat(&a_bc));
    }

    /// Inline readings mixed with tributary-root summaries merge and
    /// size exactly like the same set with every reading boxed as its
    /// one-reading summary, whatever order the parts arrive in.
    fn check_inline_readings<S: QuantileSummary>(template: &S, a: &[u32], b: &[u32]) {
        let reading_words = template.exact_from(&[0]).wire_words();
        let mut inline = set_of(template, a, part);
        inline.union(&set_of(template, b, part));
        let mut boxed = set_of(template, b, boxed_part);
        boxed.union(&set_of(template, a, boxed_part));
        assert_eq!(inline.len(), boxed.len());
        assert_eq!(inline.merged(template), boxed.merged(template));
        assert_eq!(
            inline.wire_words(reading_words),
            boxed.wire_words(reading_words)
        );
        let readings = inline
            .parts
            .iter()
            .filter(|p| matches!(p, Part::Reading { .. }))
            .count();
        let sensors = inline
            .parts
            .iter()
            .filter(|p| !p.origin().is_multiple_of(3))
            .count();
        assert_eq!(readings, sensors, "every sensor's part is inline");
    }

    proptest::proptest! {
        #[test]
        fn prop_quantile_set_is_the_map_union_and_lawful(
            a in proptest::collection::vec(0u32..40, 0..20),
            b in proptest::collection::vec(0u32..40, 0..20),
            c in proptest::collection::vec(0u32..40, 0..20),
        ) {
            check_quantile_set(&td_quantiles::QDigest::empty(9), &a, &b, &c);
            check_quantile_set(&td_quantiles::GkSummary::empty(), &a, &b, &c);
        }

        #[test]
        fn prop_inline_readings_merge_and_size_like_boxed_singletons(
            a in proptest::collection::vec(0u32..60, 0..30),
            b in proptest::collection::vec(0u32..60, 0..30),
        ) {
            check_inline_readings(&td_quantiles::QDigest::empty(9), &a, &b);
            check_inline_readings(&td_quantiles::GkSummary::empty(), &a, &b);
        }
    }

    /// The summary behind a part, if it is a summary.
    fn shared<S>(p: &Part<S>) -> Option<&Arc<S>> {
        match p {
            Part::Reading { .. } => None,
            Part::Summary { part, .. } => Some(part),
        }
    }

    /// A union never deep-copies a summary: origins the receiver holds
    /// keep its own part (the first writer wins, nothing is touched),
    /// a new origin's summary is shared with the sender, and a new
    /// origin's reading is copied. A part costs what an `(origin, Arc)`
    /// entry did.
    #[test]
    fn quantile_union_shares_summaries_and_copies_readings() {
        let t = td_quantiles::QDigest::empty(9);
        assert_eq!(
            std::mem::size_of::<Part<td_quantiles::QDigest>>(),
            std::mem::size_of::<(u32, Arc<td_quantiles::QDigest>)>()
        );
        // Origin 3 is a tributary root; 1, 2 and 4 are sensors.
        let mut into = origin_set(&t, &[1, 2, 3]);
        let own = Arc::clone(shared(&into.parts[2]).expect("origin 3 is a summary"));
        let held = origin_set(&t, &[3, 2]);
        into.union(&held);
        assert_eq!(flat(&t, &into), flat(&t, &origin_set(&t, &[1, 2, 3])));
        assert!(
            Arc::ptr_eq(shared(&into.parts[2]).unwrap(), &own),
            "a held origin's part was replaced"
        );
        assert_eq!(
            Arc::strong_count(shared(&held.parts[1]).unwrap()),
            1,
            "a held origin's part was taken"
        );
        let new = origin_set(&t, &[4, 0, 6]);
        into.union(&new);
        assert_eq!(
            into.parts.iter().map(Part::origin).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4, 6]
        );
        assert!(Arc::ptr_eq(
            shared(&into.parts[0]).unwrap(),
            shared(&new.parts[0]).unwrap()
        ));
        assert!(Arc::ptr_eq(
            shared(&into.parts[5]).unwrap(),
            shared(&new.parts[2]).unwrap()
        ));
        assert!(matches!(
            (&into.parts[4], &new.parts[1]),
            (Part::Reading { value: a, .. }, Part::Reading { value: b, .. }) if a == b
        ));
    }

    /// A sealed quantile set carries no spare capacity, however much
    /// the accumulator it was built in grew, and the accumulator keeps
    /// its storage.
    #[test]
    fn a_sealed_quantile_set_is_exact_size() {
        let t = td_quantiles::QDigest::empty(9);
        let mut acc = origin_set(&t, &(0..40).collect::<Vec<_>>());
        for n in [7usize, 3, 12] {
            acc.set_singleton(part(&t, 100));
            acc.union(&origin_set(
                &t,
                &(0..n as u32).map(|o| o * 3 + 1).collect::<Vec<_>>(),
            ));
            let grown = acc.parts.capacity();
            let before = flat(&t, &acc);
            let sealed = acc.seal();
            assert_eq!(sealed.len(), n + 1);
            assert_eq!(sealed.parts.capacity(), sealed.parts.len());
            assert_eq!(flat(&t, &sealed), before, "sealing moved the content");
            assert!(acc.is_empty());
            assert_eq!(
                acc.parts.capacity(),
                grown,
                "the accumulator lost its storage"
            );
        }
    }

    fn freq_fixture(bags: &[ItemBag]) -> FreqProtocol<'_, ExactFactory, MinTotalLoad> {
        let mp_cfg = MultipathConfig::new(0.01, 1.5, 1 << 20, ExactFactory);
        let gradient = MinTotalLoad::new(0.01, 2.25);
        FreqProtocol::new(mp_cfg, gradient, 0.2, bags)
    }

    #[test]
    fn freq_protocol_tree_only() {
        let bags = vec![
            ItemBag::new(), // base
            ItemBag::from_counts([(1, 500), (9, 10)]),
            ItemBag::from_counts([(1, 400), (2, 90)]),
        ];
        let p = freq_fixture(&bags);
        let mut a = p.local_tree(NodeId(1)).unwrap();
        let b = p.local_tree(NodeId(2)).unwrap();
        p.merge_tree(&mut a, &b);
        let a = p.finalize_tree(NodeId(1), 2, a);
        let out = p.evaluate_tree(&[a], 3);
        assert_eq!(out.n_est, 1000.0);
        assert!(out.reported.contains(&1));
        assert!(!out.reported.contains(&9));
    }

    #[test]
    fn freq_protocol_mixed_paths_agree_with_truth() {
        let bags = vec![
            ItemBag::new(),
            ItemBag::from_counts([(1, 600), (7, 30)]),
            ItemBag::from_counts([(1, 500), (8, 40)]),
            ItemBag::from_counts([(2, 700), (9, 50)]),
        ];
        let p = freq_fixture(&bags);
        // Node 1+2 as a tributary rooted at node 1; node 3 native mp.
        let mut tree = p.local_tree(NodeId(1)).unwrap();
        let t2 = p.local_tree(NodeId(2)).unwrap();
        p.merge_tree(&mut tree, &t2);
        let tree = p.finalize_tree(NodeId(1), 2, tree);
        let mut mp = converted(&p, NodeId(1), &tree);
        let native = local(&p, NodeId(3)).unwrap();
        p.fuse(&mut mp, &native);
        let out = p.evaluate_mp(&mp);
        // Exact counters: N̂ = 1920 exactly.
        assert!((out.n_est - 1920.0).abs() < 1e-6, "n_est {}", out.n_est);
        assert!(out.reported.contains(&1), "reported {:?}", out.reported);
        assert!(out.reported.contains(&2));
        assert!(!out.reported.contains(&7));
    }
}
