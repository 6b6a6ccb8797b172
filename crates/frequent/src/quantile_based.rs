//! The Quantiles-based frequent-items baseline (\[8\], Figure 8).
//!
//! "Frequent items can be computed from quantiles" (§7.4.2, footnote 5):
//! run Greenwald–Khanna summaries up the tree under a precision gradient,
//! then read item frequencies out of the rank structure at the base
//! station — `freq(u) = rank(u) − rank(u−1)`, within `2E` of truth. The
//! summaries carry 3 words per tuple versus 2 per item for ε-deficient
//! summaries, and GK's compression is value-ordered rather than
//! frequency-aware, which is why this baseline pays more communication on
//! the bushy trees the paper evaluates (Figure 8's tallest bars).
//!
//! The epoch engine runs it: `tributary-delta`'s `QuantileProtocol::gk`
//! over every node's [`ItemBag::expand`](crate::items::ItemBag::expand)ed
//! items, under [`gradient`]. Each node of height `k` combines its own
//! exact summary with its children's and reduces to absolute uncertainty
//! `⌊ε(k) · n_subtree⌋` before transmitting. [`report_frequent`] reads
//! the answer at the base.

use td_quantiles::gradient::MinMaxLoad;
use td_quantiles::summary::GkSummary;
use td_topology::tree::Tree;

/// The gradient the baseline pairs with: Min Max-load's linear gradient
/// for error tolerance `eps` (the rank error budget as a fraction of N)
/// over `tree`'s height.
///
/// # Panics
/// Panics if `eps` is outside (0, 1).
pub fn gradient(eps: f64, tree: &Tree) -> MinMaxLoad {
    assert!(eps > 0.0 && eps < 1.0, "eps {eps} out of (0,1)");
    let height = tree.heights()[td_netsim::node::BASE_STATION.index()];
    MinMaxLoad::new(eps, height.max(1))
}

/// Items of the base station's `summary` with estimated frequency
/// `> (s − eps) · N`.
pub fn report_frequent(summary: &GkSummary, s: f64, eps: f64) -> Vec<u64> {
    let threshold = (s - eps) * summary.population() as f64;
    let mut out: Vec<u64> = Vec::new();
    let mut last = None;
    for v in summary.values() {
        if last == Some(v) {
            continue; // summaries may carry duplicate values
        }
        last = Some(v);
        if summary.frequency(v) as f64 > threshold {
            out.push(v);
        }
    }
    out
}
