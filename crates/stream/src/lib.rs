//! # td-stream — cross-epoch streaming windows over the session engine
//!
//! The paper's engine answers one aggregate per epoch; real deployments
//! ask *stream* questions — "sum over the last 10 epochs, updated every
//! epoch". This crate adds that layer without re-traversing history,
//! following the pane/slice architecture of multi-dimensional stream
//! aggregation (Henning & Hasselbring): **compute one partial per
//! epoch, merge partials per window.**
//!
//! * [`WindowSpec`] — tumbling, sliding-with-hop, and landmark windows
//!   over the measured-epoch pane sequence.
//! * [`StreamQuery`] — any existing [`Protocol`] (via
//!   [`EpochProtocolFactory`], or [`ScalarQuery`] for any `Aggregate`)
//!   plus the windows attached to its pane series. N windows over one
//!   query share **one** pane per epoch.
//! * [`StreamSession`] — owns a [`Driver`](tributary_delta::Driver)
//!   (and through it the `Session`), registers every query's protocol
//!   on one [`QuerySet`](tributary_delta::QuerySet) per epoch (N
//!   windowed queries, one topology traversal), folds each pane into
//!   every window, and emits [`WindowReport`]s.
//! * [`PanePartial`] / [`EpochMerge`] — the associative, commutative
//!   cross-epoch merge: the scalar aggregates' tree-merge laws lifted
//!   to per-epoch answers. [`PaneAlgebra`] generalizes the fold so
//!   panes can carry *set-valued* state too — [`FreqPane`] merges
//!   per-item count estimates for windowed frequent-items queries
//!   ([`FreqStreamQuery`]), and [`QuantilePane`] carries merged
//!   GK/q-digest summaries for windowed medians and p99s
//!   ([`QuantileStreamQuery`]).
//! * [`WindowAccum`] / [`FoldMode`] — the per-window fold, written once
//!   over [`PaneAlgebra`]: a running fold where no pane ever leaves the
//!   window, a refold of the ≤ `len` buffered panes at each emission of
//!   an overlapping sliding window — bit-for-bit the from-scratch fold.
//!
//! Windows interoperate with loss and adaptation instead of hiding
//! them: every report carries the newest pane's [`CommStats`] and
//! coverage, the window's mean/min coverage, and the count of
//! tributary/delta relabels that fired between its panes. Completed
//! panes are plain merged values, so a mid-window relabel never
//! invalidates history.
//!
//! [`Protocol`]: tributary_delta::Protocol
//! [`CommStats`]: td_netsim::stats::CommStats

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod freq;
pub mod quantile;
pub mod query;
pub mod session;
pub mod window;

pub use freq::FreqStreamQuery;
pub use quantile::{IntoQuantilePane, QuantileStreamQuery};
pub use query::{EpochProtocolFactory, PaneProtocol, ScalarQuery, StreamQuery, WindowCfg};
pub use session::{
    DeregisterError, PaneStats, StreamSession, StreamStats, WindowHandle, WindowReport,
};
pub use window::{
    AccumCounters, EpochMerge, FoldMode, FreqPane, PaneAlgebra, PaneInput, PaneKind, PanePartial,
    PaneValue, QuantilePane, WindowAccum, WindowAnswer, WindowSpec,
};
