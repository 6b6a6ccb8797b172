//! The object-safe multi-query layer: type-erased protocols, the
//! [`QuerySet`] registry, and typed [`QueryHandle`]s.
//!
//! [`Protocol`] is deliberately generic — each aggregate brings its own
//! tree-partial and synopsis types — which means one monomorphized
//! session can run exactly one query per epoch. Real deployments run
//! many simultaneous aggregates over the same radio traffic, and paying
//! a full topology traversal (plus a full set of envelope
//! instrumentation and adaptation signals) per query is the opposite of
//! what the radio can afford.
//!
//! [`DynProtocol`] erases the message types behind [`ErasedMsg`]
//! (`Box<dyn Any>` with clone support), and every `Protocol` is
//! blanket-converted into it. A [`QuerySet`] collects heterogeneous
//! erased queries — Count next to frequent-items — and the runner
//! carries *all* of their messages in a single per-epoch traversal: one
//! message bundle per link, sharing the contributor envelope, in-band
//! count sketch, and adaptation extrema that would otherwise be
//! duplicated N times. Per-query marginal cost becomes a bundle entry,
//! not a network round.
//!
//! Registration returns a [`QueryHandle<O>`] remembering the output
//! type, so answers come back typed despite the erased plumbing.

use std::any::Any;
use std::marker::PhantomData;

use crate::protocol::Protocol;
use td_netsim::message::WireSize;
use td_netsim::node::NodeId;

// ---------------------------------------------------------------------
// Erased messages
// ---------------------------------------------------------------------

/// Object-safe clone-plus-downcast, the capability every erased protocol
/// message needs. (`Send` so sessions holding cached bundles can cross
/// worker threads — the service layer moves whole tenants between
/// them — and `Sync` so the level-parallel workers can fuse one parked
/// broadcast by shared reference; protocol messages are plain data.)
trait AnyClone: Any + Send + Sync {
    fn clone_box(&self) -> Box<dyn AnyClone>;
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<T: Any + Clone + Send + Sync> AnyClone for T {
    fn clone_box(&self) -> Box<dyn AnyClone> {
        Box::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A type-erased protocol message (tree partial or multi-path synopsis).
///
/// Produced and consumed by [`DynProtocol`] implementations; the runner
/// moves these around without knowing what is inside.
pub struct ErasedMsg(Box<dyn AnyClone>);

impl Clone for ErasedMsg {
    fn clone(&self) -> Self {
        ErasedMsg(self.0.clone_box())
    }
}

impl std::fmt::Debug for ErasedMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ErasedMsg(..)")
    }
}

impl ErasedMsg {
    /// Erase a concrete message.
    pub fn new<T: Any + Clone + Send + Sync>(msg: T) -> Self {
        ErasedMsg(Box::new(msg))
    }

    /// Borrow the concrete message.
    ///
    /// # Panics
    /// Panics if the message is of a different type — which means a
    /// message produced by one query was routed into another, a runner
    /// bug worth failing loudly on.
    pub fn downcast_ref<T: Any>(&self) -> &T {
        self.0
            .as_any()
            .downcast_ref::<T>()
            .expect("erased message routed to a query of a different type")
    }

    /// Mutably borrow the concrete message (same panic contract as
    /// [`downcast_ref`](Self::downcast_ref)).
    pub fn downcast_mut<T: Any>(&mut self) -> &mut T {
        self.0
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("erased message routed to a query of a different type")
    }

    /// Move the concrete message out — no clone, unlike the borrowing
    /// accessors (same panic contract as
    /// [`downcast_ref`](Self::downcast_ref)).
    pub fn downcast<T: Any>(self) -> T {
        *self
            .0
            .into_any()
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("erased message routed to a query of a different type"))
    }
}

// ---------------------------------------------------------------------
// Object-safe protocol
// ---------------------------------------------------------------------

/// The object-safe mirror of [`Protocol`]: the same tree / multi-path /
/// conversion surface, with every message behind [`ErasedMsg`] and the
/// output behind `Box<dyn Any>`.
///
/// Do not implement this directly — implement [`Protocol`] and rely on
/// the blanket impl, which is what keeps the typed and erased surfaces
/// in lockstep.
///
/// `Sync` (mirroring [`Protocol`]) so a `QuerySet` can be shared by
/// reference across the intra-epoch worker threads.
pub trait DynProtocol: Sync {
    /// Erased [`Protocol::local_tree`].
    fn local_tree(&self, node: NodeId) -> Option<ErasedMsg>;
    /// Erased [`Protocol::merge_tree`].
    fn merge_tree(&self, into: &mut ErasedMsg, from: &ErasedMsg);
    /// Erased [`Protocol::finalize_tree`].
    fn finalize_tree(&self, node: NodeId, height: u32, msg: ErasedMsg) -> ErasedMsg;
    /// Erased [`Protocol::local_mp`].
    fn local_mp(&self, node: NodeId) -> Option<ErasedMsg>;
    /// Erased [`Protocol::fuse`].
    fn fuse(&self, into: &mut ErasedMsg, from: &ErasedMsg);
    /// Erased [`Protocol::convert`].
    fn convert(&self, root: NodeId, msg: &ErasedMsg) -> ErasedMsg;
    /// Erased [`Protocol::tree_wire`].
    fn tree_wire(&self, msg: &ErasedMsg) -> WireSize;
    /// Erased [`Protocol::mp_wire`].
    fn mp_wire(&self, msg: &ErasedMsg) -> WireSize;
    /// Erased [`Protocol::evaluate`]. Takes the tree parts by value:
    /// every part belongs to exactly one query, so the runner hands them
    /// over instead of cloning.
    fn evaluate(
        &self,
        tree_parts: Vec<ErasedMsg>,
        mp: Option<&ErasedMsg>,
        base_height: u32,
    ) -> Box<dyn Any>;
}

impl<P: Protocol> DynProtocol for P {
    fn local_tree(&self, node: NodeId) -> Option<ErasedMsg> {
        Protocol::local_tree(self, node).map(ErasedMsg::new)
    }

    fn merge_tree(&self, into: &mut ErasedMsg, from: &ErasedMsg) {
        Protocol::merge_tree(self, into.downcast_mut(), from.downcast_ref());
    }

    fn finalize_tree(&self, node: NodeId, height: u32, msg: ErasedMsg) -> ErasedMsg {
        ErasedMsg::new(Protocol::finalize_tree(self, node, height, msg.downcast()))
    }

    fn local_mp(&self, node: NodeId) -> Option<ErasedMsg> {
        Protocol::local_mp(self, node).map(ErasedMsg::new)
    }

    fn fuse(&self, into: &mut ErasedMsg, from: &ErasedMsg) {
        Protocol::fuse(self, into.downcast_mut(), from.downcast_ref());
    }

    fn convert(&self, root: NodeId, msg: &ErasedMsg) -> ErasedMsg {
        ErasedMsg::new(Protocol::convert(self, root, msg.downcast_ref()))
    }

    fn tree_wire(&self, msg: &ErasedMsg) -> WireSize {
        Protocol::tree_wire(self, msg.downcast_ref())
    }

    fn mp_wire(&self, msg: &ErasedMsg) -> WireSize {
        Protocol::mp_wire(self, msg.downcast_ref())
    }

    fn evaluate(
        &self,
        tree_parts: Vec<ErasedMsg>,
        mp: Option<&ErasedMsg>,
        base_height: u32,
    ) -> Box<dyn Any> {
        let parts: Vec<P::TreeMsg> = tree_parts
            .into_iter()
            .map(|m| m.downcast::<P::TreeMsg>())
            .collect();
        Box::new(Protocol::evaluate(
            self,
            &parts,
            mp.map(|m| m.downcast_ref::<P::MpMsg>()),
            base_height,
        ))
    }
}

// ---------------------------------------------------------------------
// Query sets and handles
// ---------------------------------------------------------------------

/// A typed receipt for a registered query: index into the set plus the
/// output type, so [`answers`](crate::session::QueryRecord) come back as
/// `O` without caller-side downcasting.
///
/// Handles are plain copyable indices. Registration order is what gives
/// a handle meaning, so a handle is only valid against the [`QuerySet`]
/// it came from — or any set that registered the same queries in the
/// same order, which is what lets the per-epoch rebuild (protocols
/// borrow each epoch's readings) reuse handles across epochs.
pub struct QueryHandle<O> {
    index: usize,
    _output: PhantomData<fn() -> O>,
}

impl<O> Clone for QueryHandle<O> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<O> Copy for QueryHandle<O> {}

impl<O> std::fmt::Debug for QueryHandle<O> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QueryHandle({})", self.index)
    }
}

impl<O> QueryHandle<O> {
    /// The handle's position in registration order.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// The queries of one epoch: heterogeneous erased protocols, all carried
/// by a single topology traversal.
///
/// Protocols borrow the epoch's readings, so a `QuerySet` lives for one
/// epoch (`'e`); handles outlive it and remain valid for any set built
/// by registering the same queries in the same order.
#[derive(Default)]
pub struct QuerySet<'e> {
    queries: Vec<Box<dyn DynProtocol + 'e>>,
}

impl<'e> QuerySet<'e> {
    /// An empty set.
    pub fn new() -> Self {
        QuerySet {
            queries: Vec::new(),
        }
    }

    /// Register a query, returning its typed handle.
    pub fn register<P: Protocol + 'e>(&mut self, proto: P) -> QueryHandle<P::Output> {
        let index = self.queries.len();
        self.queries.push(Box::new(proto));
        QueryHandle {
            index,
            _output: PhantomData,
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The erased queries, in registration order.
    pub fn queries(&self) -> impl Iterator<Item = &(dyn DynProtocol + 'e)> {
        self.queries.iter().map(|b| b.as_ref())
    }

    /// One erased query by registration index.
    pub fn query(&self, index: usize) -> &(dyn DynProtocol + 'e) {
        self.queries[index].as_ref()
    }
}

/// The typed answers of one epoch, indexed by [`QueryHandle`].
pub struct Answers {
    outputs: Vec<Option<Box<dyn Any>>>,
}

impl std::fmt::Debug for Answers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Answers({} queries)", self.outputs.len())
    }
}

impl Answers {
    pub(crate) fn new(outputs: Vec<Box<dyn Any>>) -> Self {
        Answers {
            outputs: outputs.into_iter().map(Some).collect(),
        }
    }

    /// Number of answers (matches the query set's length).
    pub fn len(&self) -> usize {
        self.outputs.len()
    }

    /// Whether the epoch carried no queries.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    /// Borrow the answer for `handle`.
    ///
    /// A handle is an index plus an output type, nothing more: using it
    /// against a set that registered *different* queries in the same
    /// slots is detected only when the output types differ. Two sets
    /// that registered same-typed queries in a different order (Count
    /// and Sum swapped, say) are indistinguishable, and the answer
    /// returned is whatever sits in the handle's slot — keep the
    /// registration order stable across epochs, as
    /// [`Driver`](crate::driver::Driver) does.
    ///
    /// # Panics
    /// Panics if the handle's slot holds an answer of a different type
    /// or is out of range (a handle from a differently-shaped set), or
    /// if the answer was already [`take`](Self::take)n.
    pub fn get<O: 'static>(&self, handle: QueryHandle<O>) -> &O {
        self.outputs[handle.index]
            .as_ref()
            .expect("answer already taken")
            .downcast_ref::<O>()
            .expect("query handle used against a mismatched query set")
    }

    /// Move the erased answer in `slot` (registration order) out — the
    /// dynamic counterpart of [`take`](Self::take) for callers that
    /// manage their own slot bookkeeping, like the stream engine's pane
    /// sources, which downcast on their side of an object-safe boundary.
    ///
    /// # Panics
    /// Panics if the slot is out of range or its answer was already
    /// taken.
    pub fn take_erased(&mut self, slot: usize) -> Box<dyn Any> {
        self.outputs[slot].take().expect("answer already taken")
    }

    /// Move the answer for `handle` out (for non-`Clone` outputs).
    ///
    /// # Panics
    /// Same contract (and same same-typed-slot caveat) as
    /// [`get`](Self::get).
    pub fn take<O: 'static>(&mut self, handle: QueryHandle<O>) -> O {
        *self.outputs[handle.index]
            .take()
            .expect("answer already taken")
            .downcast::<O>()
            .map_err(|_| "query handle used against a mismatched query set")
            .unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::ScalarProtocol;
    use td_aggregates::count::Count;
    use td_aggregates::sum::Sum;

    #[test]
    fn erased_round_trip_matches_typed() {
        let values = vec![0u64, 5, 7, 9];
        let p = ScalarProtocol::new(Sum::default(), &values);
        let dynp: &dyn DynProtocol = &p;

        let mut acc = dynp.local_tree(NodeId(1)).unwrap();
        let b = dynp.local_tree(NodeId(2)).unwrap();
        dynp.merge_tree(&mut acc, &b);
        let acc = dynp.finalize_tree(NodeId(1), 2, acc);
        let out = dynp.evaluate(vec![acc], None, 1);
        assert_eq!(*out.downcast_ref::<f64>().unwrap(), 12.0);

        // Wire sizes agree with the typed path.
        let typed = Protocol::local_tree(&p, NodeId(3)).unwrap();
        let erased = dynp.local_tree(NodeId(3)).unwrap();
        assert_eq!(
            Protocol::tree_wire(&p, &typed).words,
            dynp.tree_wire(&erased).words
        );
    }

    #[test]
    fn register_returns_sequential_handles() {
        let values = vec![0u64, 1, 2];
        let mut set = QuerySet::new();
        let h1 = set.register(ScalarProtocol::new(Count::default(), &values));
        let h2 = set.register(ScalarProtocol::new(Sum::default(), &values));
        assert_eq!(h1.index(), 0);
        assert_eq!(h2.index(), 1);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn answers_typed_access() {
        let mut answers = Answers::new(vec![Box::new(7.5f64), Box::new(1.0f64)]);
        let h0 = QueryHandle::<f64> {
            index: 0,
            _output: PhantomData,
        };
        assert_eq!(*answers.get(h0), 7.5);
        assert_eq!(answers.take(h0), 7.5);
    }

    #[test]
    fn answers_take_erased_matches_typed_take() {
        let mut answers = Answers::new(vec![Box::new(7.5f64), Box::new(2.5f64)]);
        let erased = answers.take_erased(1);
        assert_eq!(*erased.downcast::<f64>().unwrap(), 2.5);
        let h0 = QueryHandle::<f64> {
            index: 0,
            _output: PhantomData,
        };
        assert_eq!(answers.take(h0), 7.5);
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn answers_double_take_panics() {
        let mut answers = Answers::new(vec![Box::new(1.0f64)]);
        let h = QueryHandle::<f64> {
            index: 0,
            _output: PhantomData,
        };
        let _ = answers.take(h);
        let _ = answers.take(h);
    }
}
