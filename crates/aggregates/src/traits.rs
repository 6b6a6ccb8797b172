//! The aggregate abstraction the Tributary-Delta runner is generic over.

/// Wire footprint of a partial result. Re-exported convenience alias of
/// the netsim type to avoid a dependency here: bytes drive message
/// quantization, words drive the load metrics of Figure 8.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wire {
    /// Payload bytes after encoding.
    pub bytes: usize,
    /// Payload size in 32-bit words before encoding.
    pub words: usize,
}

impl Wire {
    /// A wire size measured in words (4 bytes each).
    pub fn from_words(words: usize) -> Self {
        Wire {
            bytes: words * 4,
            words,
        }
    }
}

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
/// (`Send` so aggregate-carrying stream queries can cross worker
/// threads — the service layer moves whole tenant sessions between
/// them; every aggregate here is plain data.)
pub trait Aggregate: Clone + Send + Sync {
    /// Partial result used by tree (tributary) nodes. (`'static` +
    /// `Send` so partials can ride in the type-erased per-query
    /// columns of the session engine across worker threads.)
    type TreePartial: Clone + std::fmt::Debug + Send + Sync + 'static;
    /// Duplicate-insensitive partial result used by delta nodes.
    type Synopsis: Clone + std::fmt::Debug + Send + Sync + 'static;

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

    /// Wire footprint of a tree partial.
    fn tree_wire(&self, partial: &Self::TreePartial) -> Wire;

    /// Wire footprint of a synopsis.
    fn synopsis_wire(&self, synopsis: &Self::Synopsis) -> Wire;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_from_words() {
        let w = Wire::from_words(3);
        assert_eq!(w.bytes, 12);
        assert_eq!(w.words, 3);
    }
}
