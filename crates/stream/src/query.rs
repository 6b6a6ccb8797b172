//! Stream queries: any existing [`Protocol`] wrapped for cross-epoch
//! windowing.
//!
//! A [`StreamQuery`] bundles one underlying per-epoch protocol with any
//! number of windows over its answers. All windows of one query share
//! **one pane series**: the session registers the underlying protocol
//! once per epoch on the shared [`QuerySet`], so a query with five
//! windows still costs one query column in the single per-epoch topology
//! traversal — windows are free-riders on panes, panes are free-riders
//! on the traversal.
//!
//! Two layers wrap a protocol:
//!
//! * [`EpochProtocolFactory`] — the typed face: build the epoch's
//!   protocol instance from the epoch's readings (it may borrow the
//!   factory itself, e.g. item-bag tables) and reduce its output to the
//!   scalar pane value.
//! * [`PaneProtocol`] — the object-safe face the session stores; every
//!   factory implements it via the blanket impl.
//!
//! [`ScalarQuery`] adapts any [`Aggregate`] in one line, mirroring
//! [`ScalarProtocol`].

use td_aggregates::traits::Aggregate;
use tributary_delta::protocol::{Protocol, ScalarProtocol};
use tributary_delta::query::{Answers, QuerySet};

use crate::window::{EpochMerge, PaneKind, PaneValue, WindowSpec};

/// The object-safe face of one underlying per-epoch protocol: what the
/// stream session stores and drives each epoch.
///
/// Implement [`EpochProtocolFactory`] instead — the blanket impl keeps
/// the typed and erased surfaces in lockstep (the same pattern as
/// `Protocol` / `DynProtocol` in the core engine).
///
/// `Send` is a supertrait so a whole [`StreamSession`] (which stores
/// these boxed) can move across threads — the service layer hands each
/// tenant's session to whichever worker shard the tenant hashes to.
///
/// [`StreamSession`]: crate::session::StreamSession
pub trait PaneProtocol: Send {
    /// Register this epoch's underlying protocol on the shared query
    /// set, returning its registration slot. The protocol may borrow
    /// `self` and `readings` for the epoch (`'e`).
    fn register<'e>(&'e self, set: &mut QuerySet<'e>, readings: &'e [u64], epoch: u64) -> usize;

    /// Extract this epoch's answer from `slot` and reduce it to the
    /// pane value.
    fn pane_value(&self, answers: &mut Answers, slot: usize) -> PaneValue;

    /// Which [`PaneKind`] this query's panes carry — fixed per query,
    /// consulted once at registration to specialize the window
    /// accumulators.
    fn pane_kind(&self) -> PaneKind;

    /// Display name (reports and CSV rows).
    fn name(&self) -> String;
}

/// Builds a typed per-epoch protocol — the generic face of
/// [`PaneProtocol`], wrapping any existing [`Protocol`].
///
/// The factory outlives every epoch, so the protocol it builds may
/// borrow factory-owned data (item bags, reading tables) as well as the
/// epoch's readings; this is exactly the concrete-lifetime shape
/// `Driver::run`'s higher-ranked callback cannot express and
/// `Driver::step_set` exists for.
pub trait EpochProtocolFactory {
    /// The underlying protocol's output type.
    type Output: 'static;

    /// The per-epoch protocol instance.
    type Proto<'e>: Protocol<Output = Self::Output> + 'e
    where
        Self: 'e;

    /// Build the protocol for one epoch over its readings.
    fn make<'e>(&'e self, readings: &'e [u64], epoch: u64) -> Self::Proto<'e>;

    /// Reduce the epoch's answer to the pane value.
    fn pane_of(&self, output: Self::Output) -> PaneValue;

    /// Which [`PaneKind`] [`pane_of`](Self::pane_of) produces.
    /// Defaults to scalar; set-valued factories override.
    fn kind(&self) -> PaneKind {
        PaneKind::Scalar
    }

    /// Display name (reports and CSV rows).
    fn label(&self) -> String;
}

impl<F: EpochProtocolFactory + Send> PaneProtocol for F {
    fn register<'e>(&'e self, set: &mut QuerySet<'e>, readings: &'e [u64], epoch: u64) -> usize {
        set.register(self.make(readings, epoch)).index()
    }

    fn pane_value(&self, answers: &mut Answers, slot: usize) -> PaneValue {
        let output = answers
            .take_erased(slot)
            .downcast::<F::Output>()
            .expect("pane slot holds an answer of a different type");
        self.pane_of(*output)
    }

    fn pane_kind(&self) -> PaneKind {
        self.kind()
    }

    fn name(&self) -> String {
        self.label()
    }
}

/// Any scalar [`Aggregate`] as a stream source: each epoch runs a
/// [`ScalarProtocol`] over that epoch's readings (a fresh clone of the
/// aggregate, exactly as `Driver::run_scalar` does, so per-epoch
/// answers are bit-identical to a non-windowed run).
#[derive(Clone, Debug)]
pub struct ScalarQuery<A>(pub A);

impl<A: Aggregate + 'static> EpochProtocolFactory for ScalarQuery<A> {
    type Output = f64;
    type Proto<'e> = ScalarProtocol<'e, A>;

    fn make<'e>(&'e self, readings: &'e [u64], _epoch: u64) -> ScalarProtocol<'e, A> {
        ScalarProtocol::new(self.0.clone(), readings)
    }

    fn pane_of(&self, output: f64) -> PaneValue {
        PaneValue::Scalar(output)
    }

    fn label(&self) -> String {
        self.0.name().to_string()
    }
}

/// One window's configuration on a [`StreamQuery`].
#[derive(Clone, Copy, Debug)]
pub struct WindowCfg {
    /// The window shape.
    pub spec: WindowSpec,
    /// The cross-epoch merge law.
    pub merge: EpochMerge,
}

/// A windowed stream query: one underlying protocol `P` plus the
/// windows attached to its shared pane series.
#[derive(Clone, Debug)]
pub struct StreamQuery<P> {
    pub(crate) proto: P,
    pub(crate) windows: Vec<WindowCfg>,
}

impl<P: PaneProtocol> StreamQuery<P> {
    /// Wrap an underlying protocol with no windows yet.
    pub fn new(proto: P) -> Self {
        StreamQuery {
            proto,
            windows: Vec::new(),
        }
    }

    /// Attach one window (builder-style; call repeatedly for several
    /// windows over the same pane series). Reports carry the window
    /// aggregates plus the newest pane's stats.
    pub fn window(mut self, spec: WindowSpec, merge: EpochMerge) -> Self {
        self.windows.push(WindowCfg { spec, merge });
        self
    }

    /// The attached windows, in attachment order.
    pub fn windows(&self) -> &[WindowCfg] {
        &self.windows
    }
}

impl<A: Aggregate + 'static> StreamQuery<ScalarQuery<A>> {
    /// A stream query over a scalar aggregate.
    pub fn scalar(agg: A) -> Self {
        StreamQuery::new(ScalarQuery(agg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_aggregates::sum::Sum;
    use tributary_delta::query::QuerySet;

    #[test]
    fn scalar_query_registers_and_extracts() {
        use td_netsim::loss::NoLoss;
        use td_netsim::network::Network;
        use td_netsim::node::Position;
        use td_netsim::rng::rng_from_seed;
        use tributary_delta::session::{Scheme, Session};

        let mut rng = rng_from_seed(11);
        let net = Network::random_connected(40, 7.0, 7.0, Position::new(3.5, 3.5), 2.5, &mut rng);
        let values: Vec<u64> = vec![2; net.len()];
        let mut session = Session::with_paper_defaults(Scheme::Tag, &net, &mut rng);

        let q = ScalarQuery(Sum::default());
        let mut set = QuerySet::new();
        let slot = q.register(&mut set, &values, 0);
        assert_eq!(slot, 0);
        assert_eq!(set.len(), 1);
        assert_eq!(PaneProtocol::name(&q), "sum");

        let mut rec = session.run_set(&set, &NoLoss, 0, &mut rng);
        // Lossless TAG: the pane value is the exact sum.
        assert_eq!(q.pane_kind(), PaneKind::Scalar);
        assert_eq!(
            q.pane_value(&mut rec.answers, slot).scalar(),
            2.0 * net.num_sensors() as f64
        );
    }

    #[test]
    fn stream_query_accumulates_windows() {
        let q = StreamQuery::scalar(Sum::default())
            .window(WindowSpec::tumbling(4), EpochMerge::Add)
            .window(WindowSpec::sliding(8, 2), EpochMerge::Mean);
        assert_eq!(q.windows().len(), 2);
    }
}
