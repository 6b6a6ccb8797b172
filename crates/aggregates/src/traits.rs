//! The aggregate abstraction: the three pieces of §5 plus wire sizes.

use td_netsim::message::WireSize;

/// An aggregate computable in the Tributary-Delta framework (§5).
///
/// Type parameters of the computation:
/// * `TreePartial` — the partial result tree (tributary) nodes exchange;
///   merged with ordinary (duplicate-sensitive) semantics.
/// * `Synopsis` — the duplicate-insensitive partial result delta
///   (multi-path) nodes exchange; `fuse` must be commutative, associative
///   and idempotent.
///
/// The *conversion function* bridges the two: `convert(root, partial)`
/// must produce a synopsis that the multi-path scheme "equates with" the
/// tree partial — fusing it anywhere in the delta accounts for exactly the
/// readings the tree partial accumulated, no matter how many paths carry
/// the fused result afterwards. `root` identifies the tributary root so
/// the conversion can salt its pseudo-elements uniquely (path correctness
/// guarantees each tributary root is the root of a unique subtree, §4.2
/// footnote 3).
///
/// (`Send + Sync` on the aggregate because a protocol wrapping it is
/// shared by reference across the threads an epoch's query columns run
/// on, and stream queries carrying it move between worker threads;
/// every aggregate here is plain data.)
pub trait Aggregate: Clone + Send + Sync {
    /// Partial result used by tree (tributary) nodes. (`'static` +
    /// `Send` so partials can ride in a query's type-erased column and
    /// move with it to the worker thread that runs it; not `Sync`,
    /// because a column is read by one thread at a time.)
    type TreePartial: Clone + std::fmt::Debug + Send + 'static;
    /// Duplicate-insensitive partial result used by delta nodes (same
    /// bounds as `TreePartial`).
    type Synopsis: Clone + std::fmt::Debug + Send + 'static;

    /// Human-readable aggregate name (for reports).
    fn name(&self) -> &'static str;

    /// The tree partial result for a single local reading.
    fn local_tree(&self, node: u32, value: u64) -> Self::TreePartial;

    /// Merge a child's tree partial into an accumulator (ordinary
    /// duplicate-sensitive merge; inputs are disjoint subtrees).
    fn merge_tree(&self, into: &mut Self::TreePartial, from: &Self::TreePartial);

    /// Synopsis generation (SG): the synopsis for a single local reading.
    fn local_synopsis(&self, node: u32, value: u64) -> Self::Synopsis;

    /// Synopsis fusion (SF): duplicate-insensitive ⊕.
    fn fuse(&self, into: &mut Self::Synopsis, from: &Self::Synopsis);

    /// Conversion function: re-express a tree partial as a synopsis.
    fn convert(&self, root: u32, partial: &Self::TreePartial) -> Self::Synopsis;

    /// Evaluate a tree partial into the query answer.
    fn evaluate_tree(&self, partial: &Self::TreePartial) -> f64;

    /// Synopsis evaluation (SE): evaluate a synopsis into the answer.
    fn evaluate_synopsis(&self, synopsis: &Self::Synopsis) -> f64;

    /// Size of a tree partial in 32-bit words (tree sends are priced
    /// at 4 bytes a word).
    fn tree_words(&self, partial: &Self::TreePartial) -> usize;

    /// Wire footprint of a synopsis: encoded bytes drive message
    /// quantization, words drive the load metrics of Figure 8.
    fn synopsis_wire(&self, synopsis: &Self::Synopsis) -> WireSize;
}
