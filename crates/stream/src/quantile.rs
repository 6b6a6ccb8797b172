//! Windowed quantile queries: the §6.1.4 `QuantileProtocol` as a
//! stream source producing summary-valued panes.
//!
//! A [`QuantileStreamQuery`] runs one epoch of precision-gradient
//! quantile aggregation (GK or q-digest summaries combining up the
//! tributaries, a duplicate-insensitive synopsis set through the delta)
//! per measured epoch and wraps the epoch's merged summary in a
//! [`QuantilePane`]. Windows merge panes with the same combine law the
//! tree uses, so a sliding window's [`WindowReport`] carries the
//! windowed median as its scalar `value` *and* the full merged summary
//! in its `quantile` field — ask it for p99s, ranks, or any other φ.
//!
//! [`WindowReport`]: crate::session::WindowReport

use td_quantiles::gradient::PrecisionGradient;
use td_quantiles::summary::QuantileSummary;
use td_quantiles::{GkSummary, QDigest};
use tributary_delta::protocol::{QuantileOutput, QuantileProtocol};

use crate::query::EpochProtocolFactory;
use crate::window::{PaneKind, PaneValue, QuantilePane};

/// Conversion from a concrete summary family into the stream layer's
/// pane enum. Sealed in practice: the two implementors are the two
/// families [`QuantilePane`] knows how to merge.
pub trait IntoQuantilePane: QuantileSummary {
    /// Wrap this summary in its family's pane variant.
    fn into_pane(self) -> QuantilePane;
}

impl IntoQuantilePane for GkSummary {
    fn into_pane(self) -> QuantilePane {
        QuantilePane::Gk(self)
    }
}

impl IntoQuantilePane for QDigest {
    fn into_pane(self) -> QuantilePane {
        QuantilePane::Digest(self)
    }
}

/// A quantile stream source: one [`QuantileProtocol`] instance per
/// measured epoch, over that epoch's per-node readings (the same
/// readings scalar queries in the bundle see).
///
/// The `template` carries family configuration (e.g. the q-digest
/// domain width) and seeds each epoch's protocol; the `gradient`
/// allocates per-height error budgets down the tributaries.
pub struct QuantileStreamQuery<S, G> {
    template: S,
    gradient: G,
}

impl<S: IntoQuantilePane, G: PrecisionGradient + Clone> QuantileStreamQuery<S, G> {
    /// Build the source from an explicit summary template.
    pub fn new(template: S, gradient: G) -> Self {
        QuantileStreamQuery { template, gradient }
    }

    /// The final (root-level) rank-error tolerance ε of the gradient.
    pub fn total_eps(&self) -> f64 {
        self.gradient.final_eps()
    }
}

impl<G: PrecisionGradient + Clone> QuantileStreamQuery<GkSummary, G> {
    /// A Greenwald–Khanna windowed quantile source.
    pub fn gk(gradient: G) -> Self {
        QuantileStreamQuery::new(GkSummary::empty(), gradient)
    }
}

impl<G: PrecisionGradient + Clone> QuantileStreamQuery<QDigest, G> {
    /// A q-digest windowed quantile source over the domain `[0, 2^bits)`.
    pub fn qdigest(bits: u32, gradient: G) -> Self {
        QuantileStreamQuery::new(QDigest::empty(bits), gradient)
    }
}

impl<S, G> EpochProtocolFactory for QuantileStreamQuery<S, G>
where
    S: IntoQuantilePane,
    G: PrecisionGradient + Clone + Send + 'static,
{
    type Output = QuantileOutput<S>;
    type Proto<'e> = QuantileProtocol<'e, S, G>;

    fn make<'e>(&'e self, readings: &'e [u64], _epoch: u64) -> QuantileProtocol<'e, S, G> {
        QuantileProtocol::new(self.template.clone(), self.gradient.clone(), readings)
    }

    fn pane_of(&self, output: QuantileOutput<S>) -> PaneValue {
        PaneValue::Quantile(std::sync::Arc::new(output.summary.into_pane()))
    }

    fn kind(&self) -> PaneKind {
        PaneKind::Quantile
    }

    fn label(&self) -> String {
        format!(
            "quantile[{}](eps={})",
            self.template.kind_name(),
            self.total_eps()
        )
    }
}
