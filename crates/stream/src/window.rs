//! Window shapes, the cross-epoch pane algebra, and the
//! [`WindowAccum`] state machine.
//!
//! A *pane* is one measured epoch's contribution to a windowed query:
//! the epoch answer plus its instrumentation. Windows never re-traverse
//! history — they merge panes, and the merge must therefore be
//! associative and commutative so panes can combine in any order and
//! grouping. [`PanePartial`] is that merge: the product of the scalar
//! aggregates' tree-merge laws (`Sum`/`Count` addition, `Min`/`Max`
//! extrema, `Average`'s `(sum, count)` pair) lifted to the `f64`
//! answers epochs produce, and [`EpochMerge`] selects which component a
//! window evaluates. Beyond four scalars, [`FreqPane`] carries
//! *set-valued* per-item count estimates and [`QuantilePane`] a merged
//! quantile summary, so frequent-items and quantile queries are windowed
//! like any scalar; [`PaneValue`] is the closed enum of the three kinds.
//!
//! ## One fold per window
//!
//! [`WindowAccum`] answers every window with the left fold of its panes,
//! each kind folding with its own `merge`, selected by window shape:
//!
//! * tumbling / landmark / `sliding(len, hop == len)` — no pane ever
//!   leaves the window, so a **running** left fold (reset at each
//!   emission for tumbling) is the answer;
//! * overlapping sliding (`hop < len`) — the window buffers its ≤ `len`
//!   panes and **refolds** them at each emission (`len − 1` merges).
//!
//! Both are the same left fold over the same panes in the same order.
//! The report's instrumentation (epochs, pane count, coverage, relabels,
//! churn, bytes) is folded the same way, beside the value. Evicting a
//! pane needs no inverse: the buffer drops it. The windows the
//! workloads, experiments and examples open are ≤ 16 panes, so a refold
//! is a handful of merges.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use td_frequent::items::Item;
use td_quantiles::summary::QuantileSummary;

/// The shape of a window over the measured-epoch pane sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowSpec {
    /// Non-overlapping windows of `len` panes: one answer every `len`
    /// epochs, covering exactly the panes since the previous answer.
    Tumbling {
        /// Window length in panes (≥ 1).
        len: u32,
    },
    /// Overlapping windows of `len` panes emitted every `hop` panes
    /// (`hop < len` overlaps; `hop == len` degenerates to tumbling).
    /// Until `len` panes exist the emitted window is a partial prefix.
    Sliding {
        /// Window length in panes (≥ 1).
        len: u32,
        /// Panes between emissions (≥ 1, ≤ `len`).
        hop: u32,
    },
    /// The landmark window: every answer covers all panes since the
    /// stream's first measured epoch, emitted every pane. Maintained as
    /// a running accumulator — O(1) state and merge work per epoch, no
    /// pane buffer at all.
    Landmark,
}

impl WindowSpec {
    /// A tumbling window of `len` panes.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn tumbling(len: u32) -> Self {
        WindowSpec::Tumbling { len }.checked()
    }

    /// A sliding window of `len` panes emitted every `hop` panes.
    ///
    /// # Panics
    /// Panics if `len` or `hop` is zero, or if `hop > len` (that would
    /// silently drop panes from every window — use tumbling plus a
    /// longer length instead).
    pub fn sliding(len: u32, hop: u32) -> Self {
        WindowSpec::Sliding { len, hop }.checked()
    }

    /// The landmark window.
    pub fn landmark() -> Self {
        WindowSpec::Landmark
    }

    /// The spec itself, once its invariants hold. The variant fields are
    /// public, so a literal skips the constructors; [`WindowAccum::new`]
    /// checks again.
    fn checked(self) -> Self {
        if let WindowSpec::Tumbling { len } | WindowSpec::Sliding { len, .. } = self {
            assert!(len >= 1, "a window needs at least one pane");
        }
        if let WindowSpec::Sliding { len, hop } = self {
            assert!(hop >= 1, "a hop advances by at least one pane");
            assert!(hop <= len, "hop {hop} > len {len} would drop panes");
        }
        self
    }

    /// Whether a window closes after pane `seq` (0-based sequence number
    /// in the measured-epoch pane series).
    pub(crate) fn emits_after(&self, seq: u64) -> bool {
        match *self {
            WindowSpec::Tumbling { len } => (seq + 1).is_multiple_of(len as u64),
            WindowSpec::Sliding { hop, .. } => (seq + 1).is_multiple_of(hop as u64),
            WindowSpec::Landmark => true,
        }
    }

    /// Whether consecutive windows share panes. `hop == len` never
    /// overlaps: it is tumbling by another name, and runs the same
    /// running accumulator.
    pub(crate) fn overlaps(&self) -> bool {
        matches!(*self, WindowSpec::Sliding { len, hop } if hop < len)
    }

    /// The full pane count of a complete window (`None` for landmark,
    /// which never completes).
    pub(crate) fn full_span(&self) -> Option<usize> {
        match *self {
            WindowSpec::Tumbling { len } | WindowSpec::Sliding { len, .. } => Some(len as usize),
            WindowSpec::Landmark => None,
        }
    }

    /// Display name, e.g. `tumbling(8)` / `sliding(8,2)` / `landmark`.
    pub fn name(&self) -> String {
        match *self {
            WindowSpec::Tumbling { len } => format!("tumbling({len})"),
            WindowSpec::Sliding { len, hop } => format!("sliding({len},{hop})"),
            WindowSpec::Landmark => "landmark".to_string(),
        }
    }
}

/// Which component of the pane algebra a window's answer evaluates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochMerge {
    /// Sum of per-epoch answers — windowed totals of `Sum`/`Count`
    /// queries ("total readings over the last 10 epochs").
    Add,
    /// Minimum of per-epoch answers (windowed `Min`).
    Min,
    /// Maximum of per-epoch answers (windowed `Max`).
    Max,
    /// Mean of per-epoch answers — windowed rates, or the
    /// average-of-averages of an `Average` query.
    Mean,
}

impl EpochMerge {
    /// Display name for reports and CSV rows.
    pub fn name(&self) -> &'static str {
        match self {
            EpochMerge::Add => "add",
            EpochMerge::Min => "min",
            EpochMerge::Max => "max",
            EpochMerge::Mean => "mean",
        }
    }
}

/// The cross-epoch window partial: every component of the pane algebra,
/// merged field-wise. Merging is associative and commutative by
/// construction — each field is one scalar aggregate's tree-merge law
/// (exactly so for `min`/`max`/`count` and for integer-valued sums;
/// up to floating-point rounding for fractional multi-path estimates).
/// A single-pane partial evaluates bit-for-bit to its pane value under
/// every [`EpochMerge`], which is what pins `tumbling(1)` to the
/// per-epoch answers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PanePartial {
    /// Sum of pane values.
    pub sum: f64,
    /// Minimum pane value.
    pub min: f64,
    /// Maximum pane value.
    pub max: f64,
    /// Number of panes merged.
    pub count: u64,
}

impl PanePartial {
    /// The partial of a single pane.
    pub fn of(value: f64) -> Self {
        PanePartial {
            sum: value,
            min: value,
            max: value,
            count: 1,
        }
    }

    /// Field-wise merge (associative + commutative ⊎).
    pub fn merge(&mut self, other: &Self) {
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Evaluate the window answer under `merge`.
    pub fn evaluate(&self, merge: EpochMerge) -> f64 {
        match merge {
            EpochMerge::Add => self.sum,
            EpochMerge::Min => self.min,
            EpochMerge::Max => self.max,
            EpochMerge::Mean => {
                if self.count == 0 {
                    0.0
                } else {
                    self.sum / self.count as f64
                }
            }
        }
    }
}

/// A set-valued pane: per-item count estimates plus the estimated
/// total, as produced by one epoch of a frequent-items query
/// (§6 / Figure 9). Merging adds counts item-wise and totals — the
/// multiset-union law lifted to estimates. Construction drops
/// non-positive counts so that an item is present iff it contributes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FreqPane {
    counts: BTreeMap<Item, f64>,
    total: f64,
}

impl FreqPane {
    /// Build from per-item estimates and an estimated total count.
    /// Non-positive and non-finite counts are dropped (see type docs).
    pub fn from_counts(counts: impl IntoIterator<Item = (Item, f64)>, total: f64) -> Self {
        FreqPane {
            counts: counts.into_iter().filter(|&(_, c)| c > 0.0).collect(),
            total,
        }
    }

    /// Build from a [`FreqEstimates`] answer (the §6 estimate map plus
    /// its N̂).
    ///
    /// [`FreqEstimates`]: td_frequent::multipath::FreqEstimates
    pub fn from_estimates(est: &td_frequent::multipath::FreqEstimates) -> Self {
        Self::from_counts(est.counts.iter().map(|(&u, &c)| (u, c)), est.n_est)
    }

    /// The per-item count estimates (positive entries only).
    pub fn counts(&self) -> &BTreeMap<Item, f64> {
        &self.counts
    }

    /// The estimated total occurrence count N̂ over the merged panes.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Item-wise merge (adds counts and totals).
    pub fn merge(&mut self, other: &FreqPane) {
        for (&u, &c) in &other.counts {
            *self.counts.entry(u).or_insert(0.0) += c;
        }
        self.total += other.total;
    }

    /// §7.4.3's reporting rule over the merged window: items whose
    /// estimated count exceeds `(support − eps)` of the window's
    /// estimated total N̂.
    pub fn report(&self, support: f64, eps: f64) -> Vec<Item> {
        let threshold = (support - eps) * self.total;
        self.counts
            .iter()
            .filter(|&(_, &c)| c > threshold)
            .map(|(&u, _)| u)
            .collect()
    }
}

/// A quantile pane: one epoch's merged quantile summary, as produced by
/// a `QuantileProtocol` riding the query set. Merging combines the
/// summaries (populations union, uncertainties add) — the same law the
/// tree protocol uses, lifted across epochs.
#[derive(Clone, Debug, PartialEq)]
pub enum QuantilePane {
    /// A Greenwald–Khanna summary pane.
    Gk(td_quantiles::GkSummary),
    /// A q-digest summary pane.
    Digest(td_quantiles::QDigest),
}

impl QuantilePane {
    /// Merge another pane of the same family (union of populations), in
    /// place.
    ///
    /// # Panics
    /// Panics on a family mismatch — one query produces one family.
    pub fn merge(&mut self, other: &QuantilePane) {
        match (&mut *self, other) {
            (QuantilePane::Gk(a), QuantilePane::Gk(b)) => a.combine_into(b),
            (QuantilePane::Digest(a), QuantilePane::Digest(b)) => a.combine_into(b),
            (a, b) => panic!("quantile pane family mismatch: {a:?} fed {b:?}"),
        }
    }

    /// Number of readings merged into the pane.
    pub fn population(&self) -> u64 {
        match self {
            QuantilePane::Gk(s) => s.population(),
            QuantilePane::Digest(d) => d.population(),
        }
    }

    /// Self-reported absolute rank uncertainty `E` of the merged summary.
    pub fn uncertainty(&self) -> u64 {
        match self {
            QuantilePane::Gk(s) => s.uncertainty(),
            QuantilePane::Digest(d) => d.uncertainty(),
        }
    }

    /// The φ-quantile of the merged population (`None` when empty).
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        match self {
            QuantilePane::Gk(s) => s.quantile(phi),
            QuantilePane::Digest(d) => d.quantile(phi),
        }
    }

    /// Estimated rank of `value` over the merged population.
    pub fn rank(&self, value: u64) -> u64 {
        match self {
            QuantilePane::Gk(s) => s.rank(value),
            QuantilePane::Digest(d) => d.rank(value),
        }
    }

    /// The windowed median — the scalar face a [`WindowAnswer::value`]
    /// carries for quantile windows (0.0 for an empty pane, e.g. a
    /// window of fully-lossy epochs).
    pub fn median(&self) -> f64 {
        self.quantile(0.5).map_or(0.0, |v| v as f64)
    }
}

/// One epoch's pane value: the scalar answer of an ordinary query, the
/// set-valued estimate map of a frequent-items query, or the quantile
/// summary of a quantile query. The set-valued variants are
/// `Arc`-shared so a pane ride through window buffers and reports is a
/// pointer bump, not a map copy.
#[derive(Clone, Debug)]
pub enum PaneValue {
    /// A scalar per-epoch answer.
    Scalar(f64),
    /// A set-valued frequent-items pane.
    Freq(Arc<FreqPane>),
    /// A quantile-summary pane.
    Quantile(Arc<QuantilePane>),
}

impl PaneValue {
    /// The kind of pane this is.
    fn kind(&self) -> PaneKind {
        match self {
            PaneValue::Scalar(_) => PaneKind::Scalar,
            PaneValue::Freq(_) => PaneKind::Freq,
            PaneValue::Quantile(_) => PaneKind::Quantile,
        }
    }

    /// The scalar face of the pane: the value itself, a freq pane's
    /// estimated total N̂, or a quantile pane's median.
    pub fn scalar(&self) -> f64 {
        match self {
            PaneValue::Scalar(v) => *v,
            PaneValue::Freq(f) => f.total(),
            PaneValue::Quantile(q) => q.median(),
        }
    }
}

/// Which kind of pane a query produces — chosen at registration so the
/// window accumulators can be specialized before the first pane.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaneKind {
    /// Scalar `f64` panes ([`PaneValue::Scalar`]).
    Scalar,
    /// Set-valued frequent-items panes ([`PaneValue::Freq`]); windows
    /// over them must use [`EpochMerge::Add`] (multiset union).
    Freq,
    /// Quantile-summary panes ([`PaneValue::Quantile`]); windows over
    /// them must use [`EpochMerge::Add`] (population union).
    Quantile,
}

/// How a [`WindowAccum`] maintains its answer. There is one way, so
/// this is a one-variant enum, kept only because the benchmark harness
/// passes it to [`WindowAccum::new`]; ROADMAP item 7 deletes it with the
/// harness's use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FoldMode {
    /// A running fold where no pane ever leaves the window, a buffer
    /// refold per emission where panes do.
    #[default]
    Incremental,
}

/// One measured pane as the window accumulators consume it: the value
/// plus the per-epoch instrumentation that window reports aggregate.
#[derive(Clone, Debug)]
pub struct PaneInput {
    /// Absolute epoch the pane ran in.
    pub epoch: u64,
    /// The pane value.
    pub value: PaneValue,
    /// Contributor-envelope coverage fraction of the epoch.
    pub coverage: f64,
    /// Whether adaptation relabeled the topology right after the epoch.
    pub relabeled: bool,
    /// Churn arrivals in the epoch.
    pub nodes_joined: u64,
    /// Churn departures in the epoch.
    pub nodes_left: u64,
    /// Payload bytes of the epoch's traversal.
    pub bytes: u64,
}

/// Everything a closing window emits, before the session wraps it into
/// a [`WindowReport`](crate::session::WindowReport).
#[derive(Clone, Debug)]
pub struct WindowAnswer {
    /// First epoch merged.
    pub start_epoch: u64,
    /// Last epoch merged.
    pub end_epoch: u64,
    /// Panes merged.
    pub panes: usize,
    /// The window answer (for freq windows: the estimated total N̂; for
    /// quantile windows: the windowed median).
    pub value: f64,
    /// The merged set-valued estimate, for freq windows.
    pub freq: Option<Arc<FreqPane>>,
    /// The merged quantile summary, for quantile windows (p99s and
    /// arbitrary φ come from here; `value` carries the median).
    pub quantile: Option<Arc<QuantilePane>>,
    /// Mean pane coverage.
    pub coverage: f64,
    /// Worst single pane's coverage.
    pub min_coverage: f64,
    /// Relabels between the window's panes.
    pub relabels: u32,
    /// Churn arrivals across the window's panes.
    pub nodes_joined: u64,
    /// Churn departures across the window's panes.
    pub nodes_left: u64,
    /// Payload bytes across the window's panes.
    pub bytes: u64,
}

/// Work counters an absorb pass accumulates, so callers (the stream
/// session, the tests) can account fold work without the accumulator
/// owning global stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccumCounters {
    /// Pane merge/fold operations performed.
    pub pane_merges: u64,
    /// Window answers computed by refolding the pane buffer: one per
    /// emission of an overlapping window. Kept for the benchmark
    /// harness's `stream.value_refolds` row until ROADMAP item 7
    /// deletes both.
    pub value_refolds: u64,
}

/// A window's left fold over its panes, one variant per [`PaneKind`]:
/// each kind folds with its own `merge`.
#[derive(Clone, Debug)]
enum Fold {
    Scalar(PanePartial),
    Freq(FreqPane),
    Quantile(QuantilePane),
}

impl Fold {
    /// The fold of a single pane.
    fn of(value: &PaneValue) -> Self {
        match value {
            PaneValue::Scalar(v) => Fold::Scalar(PanePartial::of(*v)),
            PaneValue::Freq(f) => Fold::Freq(FreqPane::clone(f)),
            PaneValue::Quantile(q) => Fold::Quantile(QuantilePane::clone(q)),
        }
    }

    /// Absorb `panes` in order (left-fold order: `self` holds the older
    /// panes), returning how many merges that took. The kind is matched
    /// once per call, so a refold's loop runs on the concrete partial.
    ///
    /// # Panics
    /// Panics on a pane of another kind than the fold's.
    fn absorb<'a>(&mut self, panes: impl IntoIterator<Item = &'a PaneValue>) -> u64 {
        fn mismatch(pane: &PaneValue) -> ! {
            panic!("pane kind mismatch: fold fed {pane:?}")
        }
        let mut merges = 0;
        match self {
            Fold::Scalar(acc) => {
                for pane in panes {
                    let PaneValue::Scalar(v) = pane else {
                        mismatch(pane)
                    };
                    acc.merge(&PanePartial::of(*v));
                    merges += 1;
                }
            }
            Fold::Freq(acc) => {
                for pane in panes {
                    let PaneValue::Freq(f) = pane else {
                        mismatch(pane)
                    };
                    acc.merge(f);
                    merges += 1;
                }
            }
            Fold::Quantile(acc) => {
                for pane in panes {
                    let PaneValue::Quantile(q) = pane else {
                        mismatch(pane)
                    };
                    acc.merge(q);
                    merges += 1;
                }
            }
        }
        merges
    }

    /// The window answer the fold evaluates to under `merge` (set-valued
    /// folds only ever see [`EpochMerge::Add`]).
    fn answer(self, merge: EpochMerge) -> PaneValue {
        match self {
            Fold::Scalar(p) => PaneValue::Scalar(p.evaluate(merge)),
            Fold::Freq(f) => PaneValue::Freq(Arc::new(f)),
            Fold::Quantile(q) => PaneValue::Quantile(Arc::new(q)),
        }
    }
}

/// The instrumentation half of a window's left fold: every report field
/// besides the value, folded pane by pane in window order.
#[derive(Clone, Copy, Debug, Default)]
struct Instr {
    start_epoch: u64,
    end_epoch: u64,
    panes: u64,
    coverage_sum: f64,
    min_coverage: f64,
    relabels: u32,
    /// Relabel flag of the newest pane — promoted into `relabels` only
    /// once a later pane arrives (a relabel after the newest pane is not
    /// *between* panes yet).
    last_relabeled: bool,
    joined: u64,
    left: u64,
    bytes: u64,
}

impl Instr {
    /// Fold one more pane in, after the ones already held.
    fn push(&mut self, pane: &PaneInput) {
        if self.panes == 0 {
            self.start_epoch = pane.epoch;
            self.min_coverage = pane.coverage;
        } else {
            self.relabels += u32::from(self.last_relabeled);
            self.min_coverage = self.min_coverage.min(pane.coverage);
        }
        self.last_relabeled = pane.relabeled;
        self.end_epoch = pane.epoch;
        self.panes += 1;
        self.coverage_sum += pane.coverage;
        self.joined += pane.nodes_joined;
        self.left += pane.nodes_left;
        self.bytes += pane.bytes;
    }
}

/// Per-window state machine: absorbs one pane per measured epoch and
/// emits a [`WindowAnswer`] whenever the window's schedule closes. Every
/// field of the answer — value, epochs, pane count, coverage, relabels,
/// churn and bytes — is the left fold of the window's panes: a running
/// fold where no pane ever leaves the window, a refold of the buffered
/// panes at each emission where panes do (see the module docs).
///
/// The buffer of in-window panes (overlapping sliding windows only) is
/// the *only* per-pane state retained; the other windows keep pure
/// running folds. Steady-state absorption allocates nothing: the buffer
/// reaches its window-length capacity once and is reused thereafter.
#[derive(Debug)]
pub struct WindowAccum {
    pub(crate) spec: WindowSpec,
    pub(crate) merge: EpochMerge,
    kind: PaneKind,
    /// Running left fold of the values, for windows no pane ever leaves
    /// (`None` before the first pane and after each tumbling emission).
    running: Option<Fold>,
    /// Running fold of the instrumentation, beside `running`.
    running_instr: Instr,
    /// In-window panes, oldest first, for overlapping windows (empty
    /// for the others).
    buf: VecDeque<PaneInput>,
    /// Tumbling-like: start a fresh fold after each emission.
    resets: bool,
}

impl WindowAccum {
    /// Build the accumulator for one window. `_mode` has one value and
    /// changes nothing.
    ///
    /// # Panics
    /// Panics on a window spec that breaks the [`WindowSpec::tumbling`]
    /// / [`WindowSpec::sliding`] invariants, and for set-valued panes
    /// with a merge other than [`EpochMerge::Add`] — multiset union is
    /// the only law a count map supports.
    pub fn new(spec: WindowSpec, merge: EpochMerge, kind: PaneKind, _mode: FoldMode) -> Self {
        let spec = spec.checked();
        assert!(
            kind == PaneKind::Scalar || merge == EpochMerge::Add,
            "set-valued panes support EpochMerge::Add only, got {merge:?}"
        );
        let overlapping = spec.overlaps();
        let cap = if overlapping {
            spec.full_span().unwrap_or(0) + 1
        } else {
            0
        };
        WindowAccum {
            spec,
            merge,
            kind,
            running: None,
            running_instr: Instr::default(),
            buf: VecDeque::with_capacity(cap),
            resets: !overlapping && spec != WindowSpec::Landmark,
        }
    }

    /// Absorb pane `seq` (0-based sequence number in the measured-epoch
    /// pane series) and return the window answer if the window closes
    /// on it.
    ///
    /// # Panics
    /// Panics on a pane of another kind than the window was built for.
    pub fn absorb(
        &mut self,
        seq: u64,
        pane: &PaneInput,
        counters: &mut AccumCounters,
    ) -> Option<WindowAnswer> {
        assert!(
            pane.value.kind() == self.kind,
            "pane kind mismatch: {:?} window fed {:?}",
            self.kind,
            pane.value
        );
        if self.spec.overlaps() {
            self.buf.push_back(pane.clone());
            if let Some(len) = self.spec.full_span() {
                if self.buf.len() > len {
                    self.buf.pop_front();
                }
            }
        } else {
            self.running_instr.push(pane);
            match &mut self.running {
                Some(acc) => counters.pane_merges += acc.absorb([&pane.value]),
                None => self.running = Some(Fold::of(&pane.value)),
            }
        }
        if !self.spec.emits_after(seq) {
            return None;
        }
        Some(self.emit(counters))
    }

    fn emit(&mut self, counters: &mut AccumCounters) -> WindowAnswer {
        let (fold, instr) = if self.spec.overlaps() {
            // Refold the buffer, oldest pane first.
            counters.value_refolds += 1;
            let mut panes = self.buf.iter();
            let first = panes.next().expect("window emitted with no panes");
            let mut acc = Fold::of(&first.value);
            counters.pane_merges += acc.absorb(panes.map(|p| &p.value));
            let mut instr = Instr::default();
            self.buf.iter().for_each(|p| instr.push(p));
            (Some(acc), instr)
        } else if self.resets {
            // `last_relabeled` goes with the fold: a relabel after a
            // window's final pane falls *between* windows and is counted
            // by neither.
            (self.running.take(), std::mem::take(&mut self.running_instr))
        } else {
            (self.running.clone(), self.running_instr)
        };
        let fold = fold.expect("window emitted with no panes");
        let answer = fold.answer(self.merge);
        let value = answer.scalar();
        let (freq, quantile) = match answer {
            PaneValue::Scalar(_) => (None, None),
            PaneValue::Freq(f) => (Some(f), None),
            PaneValue::Quantile(q) => (None, Some(q)),
        };
        WindowAnswer {
            start_epoch: instr.start_epoch,
            end_epoch: instr.end_epoch,
            panes: instr.panes as usize,
            value,
            freq,
            quantile,
            coverage: instr.coverage_sum / instr.panes as f64,
            min_coverage: instr.min_coverage,
            relabels: instr.relabels,
            nodes_joined: instr.joined,
            nodes_left: instr.left,
            bytes: instr.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use td_aggregates::minmax::{Max, Min};
    use td_aggregates::sum::Sum;
    use td_aggregates::traits::Aggregate;

    /// The merged tree partial of `readings`, folded in order.
    fn merge_tree<A: Aggregate>(agg: &A, readings: &[(u32, u64)]) -> A::TreePartial {
        let (&(n, v), rest) = readings.split_first().expect("non-empty");
        let mut acc = agg.local_tree(n, v);
        for &(n, v) in rest {
            agg.merge_tree(&mut acc, &agg.local_tree(n, v));
        }
        acc
    }

    fn fold(values: &[f64]) -> PanePartial {
        let mut acc = PanePartial::of(values[0]);
        for &v in &values[1..] {
            acc.merge(&PanePartial::of(v));
        }
        acc
    }

    /// How many panes the window closing after pane `seq` merges — the
    /// schedule oracle.
    fn span_at(spec: WindowSpec, seq: u64) -> usize {
        match spec {
            WindowSpec::Tumbling { len } => len as usize,
            WindowSpec::Sliding { len, .. } => (len as u64).min(seq + 1) as usize,
            WindowSpec::Landmark => (seq + 1) as usize,
        }
    }

    /// A pane whose instrumentation (coverage, relabel, churn, bytes)
    /// is derived from `tag`.
    fn pane_input(seq: usize, value: PaneValue, tag: u64) -> PaneInput {
        let t = tag % 3;
        PaneInput {
            epoch: seq as u64,
            value,
            coverage: [1.0, 0.9, 0.75][t as usize],
            relabeled: t == 2,
            nodes_joined: u64::from(t == 1),
            nodes_left: u64::from(t == 2),
            bytes: 100 + tag,
        }
    }

    /// A freq answer as bits: total, then `(item, count)` pairs.
    fn freq_bits(f: &Option<Arc<FreqPane>>) -> Option<(u64, Vec<(u64, u64)>)> {
        f.as_ref().map(|f| {
            let counts = f.counts().iter().map(|(&u, &c)| (u, c.to_bits()));
            (f.total().to_bits(), counts.collect())
        })
    }

    /// Feed `panes` through a window and pin every answer to the left
    /// fold of the `span_at(spec, seq)` newest panes, computed here with
    /// each kind's own `merge` and no accumulator code: value, set-valued
    /// payloads, epochs, panes, `coverage`, `min_coverage`, relabels,
    /// churn and bytes bit for bit, before and after evictions alike.
    fn pin_to_left_fold(
        spec: WindowSpec,
        merge: EpochMerge,
        kind: PaneKind,
        panes: &[PaneInput],
    ) -> Result<(), String> {
        let mut acc = WindowAccum::new(spec, merge, kind, FoldMode::Incremental);
        let mut counters = AccumCounters::default();
        let mut emitted = 0;
        for (seq, pane) in panes.iter().enumerate() {
            let got = acc.absorb(seq as u64, pane, &mut counters);
            prop_assert_eq!(
                got.is_some(),
                spec.emits_after(seq as u64),
                "schedule at {}",
                seq
            );
            let Some(a) = got else { continue };
            emitted += 1;
            let window = &panes[seq + 1 - span_at(spec, seq as u64)..=seq];
            let (first, rest) = window.split_first().expect("a window has panes");
            match &first.value {
                PaneValue::Scalar(v) => {
                    let mut fold = PanePartial::of(*v);
                    for p in rest {
                        fold.merge(&PanePartial::of(p.value.scalar()));
                    }
                    let want = fold.evaluate(merge);
                    prop_assert_eq!(a.value.to_bits(), want.to_bits(), "{:?} at {}", merge, seq);
                    prop_assert!(a.freq.is_none() && a.quantile.is_none());
                }
                PaneValue::Freq(f) => {
                    let mut fold = FreqPane::clone(f);
                    for p in rest {
                        let PaneValue::Freq(f) = &p.value else {
                            panic!("mixed pane kinds")
                        };
                        fold.merge(f);
                    }
                    prop_assert_eq!(a.value.to_bits(), fold.total().to_bits());
                    prop_assert_eq!(freq_bits(&a.freq), freq_bits(&Some(Arc::new(fold))));
                }
                PaneValue::Quantile(q) => {
                    let mut fold = QuantilePane::clone(q);
                    for p in rest {
                        let PaneValue::Quantile(q) = &p.value else {
                            panic!("mixed pane kinds")
                        };
                        fold.merge(q);
                    }
                    prop_assert_eq!(a.value.to_bits(), fold.median().to_bits());
                    prop_assert_eq!(a.quantile.as_deref(), Some(&fold));
                }
            }
            let last = window.last().expect("a window has panes");
            prop_assert_eq!(
                (a.start_epoch, a.end_epoch, a.panes),
                (first.epoch, last.epoch, window.len())
            );
            let covs = window.iter().map(|p| p.coverage);
            let min_cov = covs.clone().fold(f64::INFINITY, f64::min);
            prop_assert_eq!(a.min_coverage.to_bits(), min_cov.to_bits());
            let mean = covs.fold(0.0, |s, c| s + c) / window.len() as f64;
            prop_assert_eq!(a.coverage.to_bits(), mean.to_bits(), "coverage at {}", seq);
            let between = &window[..window.len() - 1];
            prop_assert_eq!(
                (a.relabels, a.nodes_joined, a.nodes_left, a.bytes),
                (
                    between.iter().filter(|p| p.relabeled).count() as u32,
                    window.iter().map(|p| p.nodes_joined).sum::<u64>(),
                    window.iter().map(|p| p.nodes_left).sum::<u64>(),
                    window.iter().map(|p| p.bytes).sum::<u64>(),
                )
            );
        }
        let refolds = if spec.overlaps() { emitted } else { 0 };
        prop_assert_eq!(counters.value_refolds, refolds);
        Ok(())
    }

    #[test]
    fn single_pane_evaluates_to_its_value_exactly() {
        for v in [0.0, -3.25, 1234.5678, 1e-12] {
            let p = PanePartial::of(v);
            for m in [
                EpochMerge::Add,
                EpochMerge::Min,
                EpochMerge::Max,
                EpochMerge::Mean,
            ] {
                assert_eq!(p.evaluate(m).to_bits(), v.to_bits(), "{m:?} on {v}");
            }
        }
    }

    #[test]
    fn spec_emission_schedule() {
        let t = WindowSpec::tumbling(3);
        let emits: Vec<bool> = (0..7).map(|s| t.emits_after(s)).collect();
        assert_eq!(emits, [false, false, true, false, false, true, false]);
        assert_eq!(span_at(t, 2), 3);

        let s = WindowSpec::sliding(4, 2);
        let emits: Vec<bool> = (0..6).map(|q| s.emits_after(q)).collect();
        assert_eq!(emits, [false, true, false, true, false, true]);
        // Partial prefix until 4 panes exist.
        assert_eq!(span_at(s, 1), 2);
        assert_eq!(span_at(s, 3), 4);
        assert_eq!(span_at(s, 5), 4);

        let l = WindowSpec::landmark();
        assert!(l.emits_after(0) && l.emits_after(9));
        assert_eq!(span_at(l, 9), 10);
        assert_eq!(l.full_span(), None);
    }

    #[test]
    #[should_panic(expected = "would drop panes")]
    fn sliding_hop_beyond_len_rejected() {
        let _ = WindowSpec::sliding(2, 3);
    }

    // A literal skips the constructors; the accumulator re-checks.
    #[test]
    #[should_panic(expected = "at least one pane")]
    fn accum_rejects_zero_length_literal() {
        let _ = WindowAccum::new(
            WindowSpec::Tumbling { len: 0 },
            EpochMerge::Add,
            PaneKind::Scalar,
            FoldMode::Incremental,
        );
    }

    #[test]
    #[should_panic(expected = "a hop advances")]
    fn accum_rejects_zero_hop_literal() {
        let _ = WindowAccum::new(
            WindowSpec::Sliding { len: 2, hop: 0 },
            EpochMerge::Add,
            PaneKind::Scalar,
            FoldMode::Incremental,
        );
    }

    #[test]
    #[should_panic(expected = "would drop panes")]
    fn accum_rejects_hop_beyond_len_literal() {
        let _ = WindowAccum::new(
            WindowSpec::Sliding { len: 2, hop: 3 },
            EpochMerge::Add,
            PaneKind::Scalar,
            FoldMode::Incremental,
        );
    }

    #[test]
    #[should_panic(expected = "pane kind mismatch")]
    fn accum_rejects_a_pane_of_another_kind() {
        let mut acc = WindowAccum::new(
            WindowSpec::tumbling(2),
            EpochMerge::Add,
            PaneKind::Freq,
            FoldMode::Incremental,
        );
        let pane = pane_input(0, PaneValue::Scalar(1.0), 0);
        let _ = acc.absorb(0, &pane, &mut AccumCounters::default());
    }

    #[test]
    #[should_panic(expected = "EpochMerge::Add only")]
    fn accum_rejects_a_set_valued_window_without_add() {
        let _ = WindowAccum::new(
            WindowSpec::sliding(4, 1),
            EpochMerge::Mean,
            PaneKind::Quantile,
            FoldMode::Incremental,
        );
    }

    // On integer-valued panes the Add/Min/Max components coincide with
    // the corresponding `td_aggregates` tree-merge laws — the window
    // algebra *is* the aggregate merge law lifted across epochs.
    proptest! {
        #[test]
        fn pane_merge_matches_aggregate_merge_laws(
            values in proptest::collection::vec(0u64..1_000_000, 1..24),
        ) {
            let readings: Vec<(u32, u64)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u32 + 1, v))
                .collect();
            let panes: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            let acc = fold(&panes);

            let sum = Sum::default();
            let sum_partial = merge_tree(&sum, &readings);
            prop_assert_eq!(acc.evaluate(EpochMerge::Add), sum.evaluate_tree(&sum_partial));
            let min_partial = merge_tree(&Min, &readings);
            prop_assert_eq!(acc.evaluate(EpochMerge::Min), Min.evaluate_tree(&min_partial));
            let max_partial = merge_tree(&Max, &readings);
            prop_assert_eq!(acc.evaluate(EpochMerge::Max), Max.evaluate_tree(&max_partial));
        }

        #[test]
        fn pane_merge_is_order_and_grouping_invariant(
            values in proptest::collection::vec(0u64..1_000_000, 2..24),
            split in 1usize..23,
            rotate in 0usize..23,
        ) {
            // Integer-valued panes: f64 addition is exact below 2^53, so
            // associativity/commutativity hold bit-for-bit — the same
            // precondition the aggregates' own merge laws rely on.
            let panes: Vec<f64> = values.iter().map(|&v| v as f64).collect();
            let forward = fold(&panes);

            let mut reversed: Vec<f64> = panes.clone();
            reversed.reverse();
            prop_assert_eq!(forward, fold(&reversed));

            let mut rotated = panes.clone();
            rotated.rotate_left(rotate % panes.len());
            prop_assert_eq!(forward, fold(&rotated));

            // Grouping: (prefix ⊎) ⊎ (suffix ⊎) = linear fold.
            let split = split % (panes.len() - 1) + 1;
            let mut grouped = fold(&panes[..split]);
            grouped.merge(&fold(&panes[split..]));
            prop_assert_eq!(forward, grouped);
        }

        /// The accumulator against the left-fold oracle on every answer
        /// field, for every merge law, over random sliding shapes plus a
        /// tumbling and the landmark window, with integer panes and with
        /// fractional ones (thirds, so float addition is order-sensitive
        /// and a fold in the wrong order shows).
        #[test]
        fn window_accum_incremental_equals_refold(
            raw in proptest::collection::vec(-5_000i64..5_000, 4..120),
            len in 2u32..10,
            hop_raw in 1u32..10,
            fractional in any::<bool>(),
        ) {
            let hop = 1 + hop_raw % len;
            let panes: Vec<PaneInput> = raw
                .iter()
                .enumerate()
                .map(|(seq, &v)| {
                    let value = if fractional { v as f64 / 3.0 } else { v as f64 };
                    pane_input(seq, PaneValue::Scalar(value), v.unsigned_abs())
                })
                .collect();
            let specs = [
                WindowSpec::sliding(len, hop),
                WindowSpec::tumbling(len),
                WindowSpec::landmark(),
            ];
            for spec in specs {
                for merge in [
                    EpochMerge::Add,
                    EpochMerge::Mean,
                    EpochMerge::Min,
                    EpochMerge::Max,
                ] {
                    pin_to_left_fold(spec, merge, PaneKind::Scalar, &panes)?;
                }
            }
        }
    }

    /// Construction drops non-positive counts, so an item is present
    /// iff it contributes.
    #[test]
    fn freq_pane_drops_non_positive_counts() {
        let canon = FreqPane::from_counts([(7, 0.0), (8, -1.0), (9, 2.0)], 2.0);
        assert_eq!(canon.counts().len(), 1);
    }

    proptest! {
        /// Quantile windows of either summary family match the left-fold
        /// oracle bit-for-bit. The GK panes are reduced to a small budget
        /// over few distinct readings, so their tuples carry `g > 1` and
        /// tie across panes: a GK merge then breaks ties and adds
        /// uncertainty by operand order, and a window folded in another
        /// order (or missing a pane) reads a different summary. q-digest
        /// merges add counts node by node and cannot see the order; their
        /// panes pin the fold's contents.
        #[test]
        fn incremental_quantile_matches_refold(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u64..48, 8..20), 6..30),
            len in 2u32..8,
            hop_raw in 1u32..8,
            digest in any::<bool>(),
            budget in 1u64..4,
        ) {
            let hop = 1 + hop_raw % len;
            let panes: Vec<PaneInput> = raw
                .iter()
                .enumerate()
                .map(|(seq, vals)| {
                    let pane = if digest {
                        QuantilePane::Digest(td_quantiles::QDigest::exact(vals, 10))
                    } else {
                        let mut gk = td_quantiles::GkSummary::exact(vals);
                        gk.reduce(budget);
                        QuantilePane::Gk(gk)
                    };
                    pane_input(seq, PaneValue::Quantile(Arc::new(pane)), vals[0])
                })
                .collect();
            let spec = WindowSpec::sliding(len, hop);
            pin_to_left_fold(spec, EpochMerge::Add, PaneKind::Quantile, &panes)?;
        }

        /// Frequent-items windows match the left-fold oracle bit-for-bit,
        /// with integer counts (exact counters) and with fractional ones
        /// (FM estimates, order-sensitive under float addition); an
        /// overlapping window refolds once per emission, a `hop == len`
        /// one never.
        #[test]
        fn incremental_freq_matches_refold(
            raw in proptest::collection::vec(
                proptest::collection::btree_map(0u64..12, 1u64..50, 0..6), 6..40),
            len in 2u32..8,
            hop_raw in 1u32..8,
            fractional in any::<bool>(),
        ) {
            let hop = 1 + hop_raw % len;
            let bump = if fractional { 0.1 } else { 0.0 };
            let panes: Vec<PaneInput> = raw
                .iter()
                .enumerate()
                .map(|(seq, counts)| {
                    let total: u64 = counts.values().sum();
                    let pane = FreqPane::from_counts(
                        counts.iter().map(|(&u, &c)| (u, c as f64 + bump)),
                        total as f64 + bump,
                    );
                    pane_input(seq, PaneValue::Freq(Arc::new(pane)), total)
                })
                .collect();
            let spec = WindowSpec::sliding(len, hop);
            pin_to_left_fold(spec, EpochMerge::Add, PaneKind::Freq, &panes)?;
        }
    }

    /// The steady-state pin (the stream-layer sibling of the runner's
    /// pool pins): after the window fills, 10 000 more hops do not grow
    /// the pane buffer, and a landmark window over the same panes keeps
    /// no buffer at all.
    #[test]
    fn steady_state_hops_never_allocate() {
        const HOPS: u64 = 10_000;
        /// Absorb panes `lo..hi`, returning how many windows emitted.
        fn drive(acc: &mut WindowAccum, c: &mut AccumCounters, lo: u64, hi: u64) -> u64 {
            let mut emitted = 0;
            for seq in lo..hi {
                let pane = PaneInput {
                    epoch: seq,
                    value: PaneValue::Scalar((seq % 97) as f64),
                    coverage: [1.0, 0.9, 0.75][(seq % 3) as usize],
                    relabeled: false,
                    nodes_joined: 0,
                    nodes_left: 0,
                    bytes: 64,
                };
                emitted += u64::from(acc.absorb(seq, &pane, c).is_some());
            }
            emitted
        }
        // Every merge law keeps the same buffer, so one law suffices.
        for len in [64u32, 4096] {
            let warm = 2 * len as u64;
            let mut acc = WindowAccum::new(
                WindowSpec::sliding(len, 1),
                EpochMerge::Add,
                PaneKind::Scalar,
                FoldMode::Incremental,
            );
            let mut c = AccumCounters::default();
            drive(&mut acc, &mut c, 0, warm);
            let cap = acc.buf.capacity();
            assert_eq!(drive(&mut acc, &mut c, warm, warm + HOPS), HOPS);
            assert_eq!(acc.buf.len(), len as usize);
            assert_eq!(acc.buf.capacity(), cap, "W={len}: buffer grew");
        }
        let mut landmark = WindowAccum::new(
            WindowSpec::landmark(),
            EpochMerge::Mean,
            PaneKind::Scalar,
            FoldMode::Incremental,
        );
        let mut c = AccumCounters::default();
        assert_eq!(drive(&mut landmark, &mut c, 0, HOPS), HOPS);
        assert_eq!(landmark.buf.capacity(), 0, "landmark kept pane state");
    }
}
