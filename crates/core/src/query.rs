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
//! A [`QuerySet`] collects heterogeneous queries — Count next to
//! frequent-items — behind one small object-safe interface, and the
//! runner carries *all* of their messages in a single per-epoch
//! traversal: one send per link, sharing the contributor envelope,
//! in-band count sketch, and adaptation extrema that would otherwise be
//! duplicated N times. Per-query marginal cost becomes a message in the
//! send, not a network round. Erasure sits at the granularity of a whole
//! epoch: each query runs the epoch over its own typed column of
//! messages, so nothing per message is boxed or downcast.
//!
//! Registration returns a [`QueryHandle<O>`] remembering the output
//! type, so answers come back typed despite the erased plumbing.

use std::any::Any;
use std::marker::PhantomData;

use crate::protocol::Protocol;
use crate::runner::{evaluate_column, run_column, Column, Frame};

// ---------------------------------------------------------------------
// Object-safe protocol
// ---------------------------------------------------------------------

/// The object-safe face of a [`Protocol`] inside a [`QuerySet`]: one
/// call runs the query's whole epoch over its typed column, one more
/// evaluates the answer at the base station. Every `Protocol` gets it
/// through the blanket impl; the typed per-step code it dispatches to
/// lives in the runner.
///
/// `Sync` (mirroring [`Protocol`]) so a `QuerySet` can be shared by
/// reference across the threads an epoch's columns run on.
pub(crate) trait DynProtocol: Sync {
    /// Run this query's epoch into its column.
    fn run_column(&self, frame: &Frame<'_>, column: &mut Column);
    /// Evaluate this query at the base station over its column.
    fn evaluate(&self, frame: &Frame<'_>, column: &mut Column) -> Box<dyn Any>;
}

impl<P: Protocol> DynProtocol for P {
    fn run_column(&self, frame: &Frame<'_>, column: &mut Column) {
        run_column(self, frame, column);
    }

    fn evaluate(&self, frame: &Frame<'_>, column: &mut Column) -> Box<dyn Any> {
        Box::new(evaluate_column(self, frame, column))
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

    /// One erased query by registration index.
    pub(crate) fn query(&self, index: usize) -> &(dyn DynProtocol + 'e) {
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

    /// The erased column path answers what the typed protocol computes:
    /// on a lossless tree, a Sum query run through a set sums every
    /// sensor's reading, and each send is charged the typed wire size of
    /// its message plus the envelope's tree words.
    #[test]
    fn erased_round_trip_matches_typed() {
        use crate::runner::{EpochPlan, RunnerConfig};
        use td_netsim::loss::NoLoss;
        use td_netsim::network::Network;
        use td_netsim::node::{NodeId, Position};
        use td_netsim::rng::rng_from_seed;
        use td_netsim::stats::CommStats;
        use td_topology::tree::Tree;

        let mut rng = rng_from_seed(5);
        let net = Network::random_connected(3, 4.0, 4.0, Position::new(2.0, 2.0), 3.0, &mut rng);
        assert_eq!(net.len(), 4);
        // 3 → 1 → 0 ← 2
        let tree = Tree::from_parents(vec![
            None,
            Some(NodeId(0)),
            Some(NodeId(0)),
            Some(NodeId(1)),
        ]);
        let values = vec![0u64, 5, 7, 9];
        let p = ScalarProtocol::new(Sum::default(), &values);
        let mut set = QuerySet::new();
        let h = set.register(&p);
        let mut stats = CommStats::new(net.len());
        let out = EpochPlan::compile_tag(&tree).run_set(
            &set,
            &net,
            &NoLoss,
            RunnerConfig::default(),
            0,
            &mut stats,
            &mut rng,
        );
        assert_eq!(*Answers::new(out.outputs).get(h), 21.0);
        let local = Protocol::local_tree(&p, NodeId(3)).unwrap();
        let overhead = RunnerConfig::default().envelope.tree_words();
        let words = Protocol::tree_words(&p, &local) + overhead;
        assert_eq!(stats.total_bytes(), 3 * 4 * words as u64);
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
