//! Window shapes, the cross-epoch pane algebra, and the incremental
//! [`WindowAccum`] state machine.
//!
//! A *pane* is one measured epoch's contribution to a windowed query:
//! the epoch answer plus its instrumentation. Windows never re-traverse
//! history — they merge panes, and the merge must therefore be
//! associative and commutative so panes can combine in arrival order, hop
//! order, or eviction order interchangeably. [`PanePartial`] is that
//! merge: the product of the scalar aggregates' tree-merge laws
//! (`Sum`/`Count` addition, `Min`/`Max` extrema, `Average`'s
//! `(sum, count)` pair) lifted to the `f64` answers epochs produce, and
//! [`EpochMerge`] selects which component a window evaluates. The
//! [`PaneAlgebra`] trait generalizes the fold beyond four scalars:
//! [`FreqPane`] carries *set-valued* per-item count estimates and
//! [`QuantilePane`] a merged quantile summary, so frequent-items and
//! quantile queries are windowed like any scalar.
//!
//! ## Incremental maintenance: a hop costs O(1), not O(W)
//!
//! [`WindowAccum`] replaces the per-emission re-fold with one value fold
//! per window, written once over [`PaneAlgebra`] and selected by window
//! shape and merge law:
//!
//! * tumbling / landmark / `sliding(len, hop == len)` → a **running**
//!   left fold (reset at each emission for tumbling) — trivially the
//!   same fold as a from-scratch pass;
//! * sliding `hop < len`, `Add`/`Mean` (every set-valued window) →
//!   **subtract-on-evict** ([`PaneAlgebra::retract`]) guarded by an
//!   exactness certificate (below);
//! * sliding `hop < len`, scalar `Min`/`Max` → the **two-stacks** scheme
//!   ([`TwoStacks`]): amortized O(1) push/evict/query without needing
//!   an inverse.
//!
//! ### The bit-for-bit pin, honestly
//!
//! Every answer this machinery emits is pinned **bit-for-bit** equal to
//! the from-scratch left fold of the window's panes (the old engine's
//! behavior, preserved as [`FoldMode::Refold`]). Floating-point
//! subtraction does not invert floating-point addition in general, so
//! the subtract path only fires under a certificate that makes every
//! partial sum provably exact: all pane values currently in the window
//! are integer-valued with magnitude ≤ 2⁵¹ and their magnitudes sum to
//! ≤ 2⁵² — then all sums and differences are exactly representable and
//! the subtracted sum *equals* the refolded sum, bit for bit. When the
//! certificate fails (fractional multi-path estimates, overflow-scale
//! values, GK summaries, whose combine has no inverse) or the pane
//! declines the retraction, the eviction falls back to refolding from
//! the window's own pane buffer — O(len) for that hop, still bit-exact,
//! counted in [`AccumCounters::value_refolds`]. Pushes never need the
//! certificate: appending to a left fold *is* the left fold of the
//! extended sequence. `Min`/`Max` are selection operations (the answer
//! is one of the pane values), so [`TwoStacks`] matches the refold
//! exactly up to the IEEE `min(±0.0, ∓0.0)` tie, which pane values (sums
//! of readings) do not produce.

use std::borrow::Cow;
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

/// The cross-epoch fold interface, one implementation per pane kind:
/// [`PanePartial`] for scalar panes, [`FreqPane`] for set-valued
/// frequent-items panes, [`QuantilePane`] for quantile summaries.
/// [`WindowAccum`]'s running, subtract-on-evict and refold paths are
/// written once against this trait.
pub trait PaneAlgebra: Clone + std::fmt::Debug + Send + 'static {
    /// This kind's view of a pane value — borrowed for the shared
    /// set-valued panes, built for scalars — or `None` for a pane of
    /// another kind.
    fn from_pane(value: &PaneValue) -> Option<Cow<'_, Self>>;

    /// Absorb the next pane (left-fold order: `self` is the older
    /// partial, `next` the newer pane).
    fn absorb(&mut self, next: &Self);

    /// Subtract a previously absorbed pane. Called only while the
    /// window's exactness certificate holds. Either the result equals a
    /// from-scratch fold of the remaining panes, bit for bit, and this
    /// returns `true`; or `self` is left unchanged and this returns
    /// `false`, and the caller refolds.
    fn retract(&mut self, evicted: &Self) -> bool;

    /// The pane's exactness-certificate weight and eligibility (see the
    /// module docs): the magnitude it adds to the window's budget, and
    /// whether its contribution is integer-valued and small enough for
    /// exact subtraction.
    fn exactness(&self) -> (f64, bool);

    /// The window answer this partial evaluates to under `merge`.
    fn answer(self, merge: EpochMerge) -> PaneValue;
}

impl PaneAlgebra for PanePartial {
    fn from_pane(value: &PaneValue) -> Option<Cow<'_, Self>> {
        match value {
            PaneValue::Scalar(v) => Some(Cow::Owned(PanePartial::of(*v))),
            _ => None,
        }
    }

    fn absorb(&mut self, next: &Self) {
        self.merge(next);
    }

    /// Exact on `sum` and `count`, the components `Add`/`Mean` evaluate
    /// — the only scalar laws that subtract. `min`/`max` have no
    /// inverse and are left as they were.
    fn retract(&mut self, evicted: &Self) -> bool {
        self.sum -= evicted.sum;
        self.count -= evicted.count;
        true
    }

    fn exactness(&self) -> (f64, bool) {
        let v = self.sum;
        (
            v.abs(),
            v.is_finite() && v.fract() == 0.0 && v.abs() <= EXACT_VALUE_MAX,
        )
    }

    fn answer(self, merge: EpochMerge) -> PaneValue {
        PaneValue::Scalar(self.evaluate(merge))
    }
}

/// A set-valued pane: per-item count estimates plus the estimated
/// total, as produced by one epoch of a frequent-items query
/// (§6 / Figure 9). Merging adds counts item-wise and totals — the
/// multiset-union law lifted to estimates. Construction drops
/// non-positive counts so that an item is present iff it contributes,
/// which keeps the subtract-on-evict path's remove-at-exact-zero
/// canonical with a from-scratch fold.
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

impl PaneAlgebra for FreqPane {
    fn from_pane(value: &PaneValue) -> Option<Cow<'_, Self>> {
        match value {
            PaneValue::Freq(f) => Some(Cow::Borrowed(f)),
            _ => None,
        }
    }

    fn absorb(&mut self, next: &Self) {
        self.merge(next);
    }

    /// Item-wise subtraction. Under the exactness certificate every
    /// count is an exactly-summed integer: a count reaching exactly zero
    /// means no remaining pane contains the item, so the entry is
    /// removed — matching the map a from-scratch fold of the remaining
    /// panes would build.
    fn retract(&mut self, evicted: &Self) -> bool {
        for (&u, &c) in &evicted.counts {
            if let Some(e) = self.counts.get_mut(&u) {
                *e -= c;
                if *e == 0.0 {
                    self.counts.remove(&u);
                }
            }
        }
        self.total -= evicted.total;
        true
    }

    /// The weight bounds every partial sum this pane can contribute to
    /// (its total and its largest count); the pane is safe when all of
    /// those are non-negative integers small enough that window sums
    /// stay exact.
    fn exactness(&self) -> (f64, bool) {
        let mut weight = self.total.abs();
        let mut safe = self.total.is_finite() && self.total >= 0.0 && self.total.fract() == 0.0;
        for &c in self.counts.values() {
            weight = weight.max(c);
            safe = safe && c.is_finite() && c.fract() == 0.0;
        }
        (weight, safe && weight <= EXACT_VALUE_MAX)
    }

    fn answer(self, _merge: EpochMerge) -> PaneValue {
        PaneValue::Freq(Arc::new(self))
    }
}

/// A quantile pane: one epoch's merged quantile summary, as produced by
/// a `QuantileProtocol` riding the query set. Merging combines the
/// summaries (populations union, uncertainties add) — the same law the
/// tree protocol uses, lifted across epochs.
///
/// The two summary families split on eviction: q-digest combine is
/// node-wise count addition and therefore *invertible*, so `retract`
/// subtracts an evicted pane exactly (canonical with a from-scratch
/// fold, bit for bit); GK combine is not invertible, so GK panes report
/// themselves ineligible for the exactness certificate and every
/// eviction falls back to an O(len) refold — "canonicalized
/// merge/retract where the digest supports it, refold fallback
/// otherwise".
#[derive(Clone, Debug, PartialEq)]
pub enum QuantilePane {
    /// A Greenwald–Khanna summary pane (evictions refold).
    Gk(td_quantiles::GkSummary),
    /// A q-digest summary pane (evictions subtract exactly).
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

impl PaneAlgebra for QuantilePane {
    fn from_pane(value: &PaneValue) -> Option<Cow<'_, Self>> {
        match value {
            PaneValue::Quantile(q) => Some(Cow::Borrowed(q)),
            _ => None,
        }
    }

    fn absorb(&mut self, next: &Self) {
        self.merge(next);
    }

    /// q-digest retraction is node-wise and atomic (no change when the
    /// evictee is not contained); GK always declines.
    fn retract(&mut self, evicted: &Self) -> bool {
        match (self, evicted) {
            (QuantilePane::Digest(a), QuantilePane::Digest(b)) => match a.retract(b) {
                Some(r) => {
                    *a = r;
                    true
                }
                None => false,
            },
            _ => false,
        }
    }

    /// Population counts are exact `u64`s, so a digest pane is always
    /// eligible (the retraction itself re-checks node-wise containment);
    /// GK panes never are.
    fn exactness(&self) -> (f64, bool) {
        let weight = self.population() as f64;
        (
            weight,
            matches!(self, QuantilePane::Digest(_)) && weight <= EXACT_VALUE_MAX,
        )
    }

    fn answer(self, _merge: EpochMerge) -> PaneValue {
        PaneValue::Quantile(Arc::new(self))
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

/// Largest pane magnitude the exactness certificate accepts: 2⁵¹.
/// Integer values up to here are exactly representable with headroom.
const EXACT_VALUE_MAX: f64 = 2251799813685248.0;
/// Largest window magnitude budget (sum of pane weights) the
/// certificate accepts: 2⁵². With every pane weight ≤ 2⁵¹ the budget
/// arithmetic itself stays below 2⁵³ and therefore exact, and every
/// per-item/window partial sum is an exactly-representable integer.
const EXACT_BUDGET_MAX: f64 = 4503599627370496.0;

/// How a [`WindowAccum`] maintains its answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FoldMode {
    /// O(1)-amortized incremental accumulators (the default).
    #[default]
    Incremental,
    /// Re-fold every emission from the window's pane buffer — the old
    /// engine's O(len)-per-hop behavior, kept as the bit-for-bit
    /// reference the equality proptests and the hop-cost pin compare
    /// against. Landmark windows always run their running
    /// accumulator (a from-scratch landmark fold would be O(stream)
    /// and *is* the running fold).
    Refold,
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
/// session, the hop-cost pin) can account merges and certificate-failure
/// refolds without the accumulator owning global stats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccumCounters {
    /// Pane merge/fold operations performed.
    pub pane_merges: u64,
    /// Evictions that fell back to an O(len) refold because the
    /// exactness certificate did not hold.
    pub value_refolds: u64,
}

/// The two-stacks sliding-extremum structure (SLIDE/DABA family): a
/// *front* stack of suffix partials over the older segment and a
/// *back* running fold over the newer segment. Push and query are O(1);
/// evict is O(1) amortized — when the front empties, the whole back
/// segment is flipped into front suffix partials, touching each element
/// once per lifetime. `min`/`max` need no inverse, so this is the
/// non-invertible half of the incremental window machinery; one that
/// never evicts is a running extremum.
#[derive(Clone, Debug)]
pub struct TwoStacks {
    take_max: bool,
    /// `(value, partial)` with `partial` = fold of this value and every
    /// younger value in the front segment; the stack top (vector end)
    /// is the oldest element of the window.
    front: Vec<(f64, f64)>,
    back_partial: Option<f64>,
    back_len: usize,
}

impl TwoStacks {
    /// A sliding-minimum accumulator.
    pub fn min() -> Self {
        TwoStacks {
            take_max: false,
            front: Vec::new(),
            back_partial: None,
            back_len: 0,
        }
    }

    /// A sliding-maximum accumulator.
    pub fn max() -> Self {
        TwoStacks {
            take_max: true,
            ..TwoStacks::min()
        }
    }

    fn op(&self, a: f64, b: f64) -> f64 {
        if self.take_max {
            a.max(b)
        } else {
            a.min(b)
        }
    }

    /// Drop every value, keeping the front stack's capacity.
    pub(crate) fn clear(&mut self) {
        self.front.clear();
        self.back_partial = None;
        self.back_len = 0;
    }

    /// Append the newest value — O(1).
    pub fn push(&mut self, v: f64) {
        self.back_partial = Some(match self.back_partial {
            None => v,
            Some(acc) => self.op(acc, v),
        });
        self.back_len += 1;
    }

    /// Evict the oldest value — O(1) amortized. `newest_first` must
    /// yield the window's current values (the evictee included) from
    /// newest to oldest; it is only consumed when the front stack is
    /// empty and the back segment flips.
    pub fn evict(&mut self, newest_first: impl Iterator<Item = f64>) {
        if self.front.is_empty() {
            let mut partial: Option<f64> = None;
            for v in newest_first.take(self.back_len) {
                let p = match partial {
                    None => v,
                    Some(acc) => self.op(v, acc),
                };
                partial = Some(p);
                self.front.push((v, p));
            }
            self.back_partial = None;
            self.back_len = 0;
        }
        self.front.pop().expect("evict from an empty TwoStacks");
    }

    /// The current extremum — O(1).
    ///
    /// # Panics
    /// Panics when empty.
    pub fn query(&self) -> f64 {
        match (self.front.last(), self.back_partial) {
            (Some(&(_, f)), Some(b)) => self.op(f, b),
            (Some(&(_, f)), None) => f,
            (None, Some(b)) => b,
            (None, None) => panic!("query on an empty TwoStacks"),
        }
    }
}

/// `P`'s view of a pane value — the one place a [`PaneValue`] becomes a
/// [`PaneAlgebra`] element.
///
/// # Panics
/// Panics on a pane of another kind than the window was built for.
fn view<P: PaneAlgebra>(value: &PaneValue) -> Cow<'_, P> {
    P::from_pane(value).unwrap_or_else(|| {
        panic!(
            "pane kind mismatch: {} window fed {value:?}",
            std::any::type_name::<P>()
        )
    })
}

/// Fold `panes` in left-fold order — the from-scratch reference fold.
fn refold<'a, P: PaneAlgebra>(
    mut panes: impl Iterator<Item = &'a PaneInput>,
    counters: &mut AccumCounters,
) -> P {
    let first = panes.next().expect("a fold needs at least one pane");
    let mut acc = view::<P>(&first.value).into_owned();
    for p in panes {
        acc.absorb(&view(&p.value));
        counters.pane_merges += 1;
    }
    acc
}

/// Start `acc` from `value` or absorb `value` into it; `true` when that
/// took a merge.
fn fold_into<P: PaneAlgebra>(acc: &mut Option<P>, value: &PaneValue) -> bool {
    let pane = view::<P>(value);
    match acc {
        None => {
            *acc = Some(pane.into_owned());
            false
        }
        Some(a) => {
            a.absorb(&pane);
            true
        }
    }
}

/// The value half of a [`WindowAccum`] over panes of algebra `P`,
/// selected by window shape, merge law and [`FoldMode`].
#[derive(Clone, Debug)]
enum ValueAccum<P> {
    /// Running left fold (tumbling/landmark/`hop == len`).
    Running(Option<P>),
    /// Subtract-on-evict (`Add`/`Mean`, every set-valued kind):
    /// `budget` sums the in-window panes' certificate weights and
    /// `unsafe_panes` counts the ineligible ones; an eviction retracts
    /// while the certificate holds and refolds the buffer otherwise.
    Subtract {
        acc: Option<P>,
        budget: f64,
        unsafe_panes: u32,
    },
    /// Two-stacks sliding extremum over the panes' scalar face (scalar
    /// `Min`/`Max`).
    TwoStacks(TwoStacks),
    /// Fold the pane buffer at every emission ([`FoldMode::Refold`]).
    Refold,
}

impl<P: PaneAlgebra> ValueAccum<P> {
    fn boxed(spec: WindowSpec, merge: EpochMerge, mode: FoldMode) -> Box<dyn ValueFold> {
        Box::<Self>::new(match (spec, mode) {
            // Landmark's running fold IS the from-scratch fold.
            (WindowSpec::Landmark, _) => ValueAccum::Running(None),
            (_, FoldMode::Refold) => ValueAccum::Refold,
            _ if !spec.overlaps() => ValueAccum::Running(None),
            _ => match merge {
                EpochMerge::Add | EpochMerge::Mean => ValueAccum::Subtract {
                    acc: None,
                    budget: 0.0,
                    unsafe_panes: 0,
                },
                EpochMerge::Min => ValueAccum::TwoStacks(TwoStacks::min()),
                EpochMerge::Max => ValueAccum::TwoStacks(TwoStacks::max()),
            },
        })
    }
}

/// A [`ValueAccum`] with its pane algebra erased, so one [`WindowAccum`]
/// type serves every [`PaneKind`].
trait ValueFold: std::fmt::Debug + Send {
    /// Fold in the newest pane.
    fn push(&mut self, value: &PaneValue, counters: &mut AccumCounters);
    /// Drop the oldest pane of `buf` (still buffered, with at least one
    /// successor) from the value.
    fn evict(&mut self, buf: &VecDeque<PaneInput>, counters: &mut AccumCounters);
    /// The answer over the window's panes (`buf`, for the folds that
    /// keep one).
    fn answer(
        &self,
        buf: &VecDeque<PaneInput>,
        merge: EpochMerge,
        counters: &mut AccumCounters,
    ) -> PaneValue;
    /// Forget every pane (tumbling-like windows, after each emission).
    fn reset(&mut self);
    /// The two-stacks, for the steady-state capacity pin.
    #[cfg(test)]
    fn stacks(&self) -> Option<&TwoStacks>;
}

impl<P: PaneAlgebra> ValueFold for ValueAccum<P> {
    fn push(&mut self, value: &PaneValue, counters: &mut AccumCounters) {
        match self {
            ValueAccum::Running(acc) => counters.pane_merges += u64::from(fold_into(acc, value)),
            ValueAccum::Subtract {
                acc,
                budget,
                unsafe_panes,
            } => {
                // Appending to a left fold is the left fold of the
                // extended sequence — exact-extension needs no
                // certificate.
                let (weight, safe) = view::<P>(value).exactness();
                *budget += weight;
                *unsafe_panes += u32::from(!safe);
                fold_into(acc, value);
                counters.pane_merges += 1;
            }
            ValueAccum::TwoStacks(st) => {
                st.push(value.scalar());
                counters.pane_merges += 1;
            }
            ValueAccum::Refold => {}
        }
    }

    fn evict(&mut self, buf: &VecDeque<PaneInput>, counters: &mut AccumCounters) {
        match self {
            ValueAccum::Subtract {
                acc,
                budget,
                unsafe_panes,
            } => {
                let acc = acc.as_mut().expect("evict from an empty window");
                let evicted = view::<P>(&buf[0].value);
                if *unsafe_panes == 0 && *budget <= EXACT_BUDGET_MAX && acc.retract(&evicted) {
                    // Certificate holds: the retracted partial IS the
                    // refold of the remaining panes.
                    *budget -= evicted.exactness().0;
                } else {
                    counters.value_refolds += 1;
                    *acc = refold(buf.iter().skip(1), counters);
                    (*budget, *unsafe_panes) = buf.iter().skip(1).fold((0.0, 0), |(b, u), p| {
                        let (weight, safe) = view::<P>(&p.value).exactness();
                        (b + weight, u + u32::from(!safe))
                    });
                }
            }
            ValueAccum::TwoStacks(st) => st.evict(buf.iter().rev().map(|p| p.value.scalar())),
            ValueAccum::Refold => {}
            ValueAccum::Running(_) => unreachable!("running accumulators never evict"),
        }
    }

    fn answer(
        &self,
        buf: &VecDeque<PaneInput>,
        merge: EpochMerge,
        counters: &mut AccumCounters,
    ) -> PaneValue {
        match self {
            ValueAccum::Running(acc) | ValueAccum::Subtract { acc, .. } => acc
                .clone()
                .expect("window emitted with no panes")
                .answer(merge),
            ValueAccum::TwoStacks(st) => PaneValue::Scalar(st.query()),
            ValueAccum::Refold => refold::<P>(buf.iter(), counters).answer(merge),
        }
    }

    fn reset(&mut self) {
        // Only tumbling-like windows reset; they run `Running` or
        // `Refold`, whose buffer the window clears.
        if let ValueAccum::Running(acc) = self {
            *acc = None;
        }
    }

    #[cfg(test)]
    fn stacks(&self) -> Option<&TwoStacks> {
        match self {
            ValueAccum::TwoStacks(st) => Some(st),
            _ => None,
        }
    }
}

/// Per-window incremental state machine: absorbs one pane per measured
/// epoch, maintains the window answer and its instrumentation
/// aggregates in O(1) amortized per pane, and emits a [`WindowAnswer`]
/// whenever the window's schedule closes. See the module docs for the
/// accumulator selection and the bit-for-bit exactness discipline.
///
/// The buffer of in-window panes (sliding windows only) is the *only*
/// per-pane state retained; tumbling and landmark windows keep pure
/// running accumulators. Steady-state absorption allocates nothing:
/// the buffer and the two-stacks vectors reach their window-length
/// capacity once and are reused thereafter.
#[derive(Debug)]
pub struct WindowAccum {
    spec: WindowSpec,
    merge: EpochMerge,
    value: Box<dyn ValueFold>,
    /// In-window panes, oldest first (empty for running-only shapes).
    buf: VecDeque<PaneInput>,
    keeps_buf: bool,
    /// Tumbling-like: clear all state after each emission.
    resets: bool,
    /// Panes currently in the window (landmark: since stream start).
    panes: u64,
    start_epoch: u64,
    end_epoch: u64,
    coverage_sum: f64,
    /// Evictions since `coverage_sum` was last refolded exactly; a
    /// refresh every `len` evictions bounds floating-point drift of the
    /// running mean at amortized O(1).
    evictions_since_refresh: u32,
    /// Minimum pane coverage — where panes never leave the window, a
    /// two-stacks that never evicts is a running minimum.
    min_cov: TwoStacks,
    relabels: u32,
    /// Relabel flag of the newest pane — promoted into `relabels` only
    /// once a later pane arrives (a relabel after the newest pane is
    /// not *between* panes yet).
    last_relabeled: bool,
    joined: u64,
    left: u64,
    bytes: u64,
}

impl WindowAccum {
    /// Build the accumulator for one window.
    ///
    /// # Panics
    /// Panics on a window spec that breaks the [`WindowSpec::tumbling`]
    /// / [`WindowSpec::sliding`] invariants, and for set-valued panes
    /// with a merge other than [`EpochMerge::Add`] — multiset union is
    /// the only law a count map supports.
    pub fn new(spec: WindowSpec, merge: EpochMerge, kind: PaneKind, mode: FoldMode) -> Self {
        let spec = spec.checked();
        assert!(
            kind == PaneKind::Scalar || merge == EpochMerge::Add,
            "set-valued panes support EpochMerge::Add only, got {merge:?}"
        );
        let overlapping = spec.overlaps();
        let resets = !overlapping && spec != WindowSpec::Landmark;
        let value = match kind {
            PaneKind::Scalar => ValueAccum::<PanePartial>::boxed(spec, merge, mode),
            PaneKind::Freq => ValueAccum::<FreqPane>::boxed(spec, merge, mode),
            PaneKind::Quantile => ValueAccum::<QuantilePane>::boxed(spec, merge, mode),
        };
        let keeps_buf =
            overlapping || (mode == FoldMode::Refold && !matches!(spec, WindowSpec::Landmark));
        let cap = spec.full_span().unwrap_or(0) + 1;
        WindowAccum {
            spec,
            merge,
            value,
            buf: VecDeque::with_capacity(if keeps_buf { cap } else { 0 }),
            keeps_buf,
            resets,
            panes: 0,
            start_epoch: 0,
            end_epoch: 0,
            coverage_sum: 0.0,
            evictions_since_refresh: 0,
            // The min-coverage path depends on the window *shape* only —
            // never on the fold mode — so Incremental and Refold reports
            // stay bit-identical on every field.
            min_cov: TwoStacks::min(),
            relabels: 0,
            last_relabeled: false,
            joined: 0,
            left: 0,
            bytes: 0,
        }
    }

    /// Absorb pane `seq` (0-based sequence number in the measured-epoch
    /// pane series) and return the window answer if the window closes
    /// on it.
    pub fn absorb(
        &mut self,
        seq: u64,
        pane: &PaneInput,
        counters: &mut AccumCounters,
    ) -> Option<WindowAnswer> {
        // -- push ------------------------------------------------------
        if self.panes > 0 && self.last_relabeled {
            self.relabels += 1;
        }
        self.last_relabeled = pane.relabeled;
        if self.panes == 0 {
            self.start_epoch = pane.epoch;
        }
        self.end_epoch = pane.epoch;
        self.panes += 1;
        self.coverage_sum += pane.coverage;
        self.min_cov.push(pane.coverage);
        self.joined += pane.nodes_joined;
        self.left += pane.nodes_left;
        self.bytes += pane.bytes;
        self.value.push(&pane.value, counters);
        if self.keeps_buf {
            self.buf.push_back(pane.clone());
        }
        // -- evict -----------------------------------------------------
        if let Some(len) = self.spec.full_span() {
            while self.buf.len() > len {
                self.evict_oldest(len as u32, counters);
            }
        }
        // -- emit ------------------------------------------------------
        if !self.spec.emits_after(seq) {
            return None;
        }
        let answer = self.emit(counters);
        if self.resets {
            self.reset();
        }
        Some(answer)
    }

    /// Drop the oldest buffered pane from every aggregate. Runs only
    /// for windows that keep a buffer, with at least two panes present
    /// (`buf.len() > len ≥ 1`), so the evictee always has a successor.
    fn evict_oldest(&mut self, len: u32, counters: &mut AccumCounters) {
        let front = self.buf.front().expect("evict with an empty buffer");
        // The evictee is interior (it has a successor), so its relabel
        // flag was promoted at that successor's push — undo it, and the
        // exact integer aggregates, directly.
        self.relabels -= u32::from(front.relabeled);
        self.joined -= front.nodes_joined;
        self.left -= front.nodes_left;
        self.bytes -= front.bytes;
        self.value.evict(&self.buf, counters);
        self.min_cov
            .evict(self.buf.iter().rev().map(|p| p.coverage));
        let slot = self.buf.pop_front().expect("buffer emptied mid-evict");
        self.panes -= 1;
        self.coverage_sum -= slot.coverage;
        self.start_epoch = self
            .buf
            .front()
            .map(|p| p.epoch)
            .expect("eviction leaves at least one pane");
        // Bound the running coverage mean's floating-point drift: refold
        // it exactly every `len` evictions (amortized O(1) per pane).
        self.evictions_since_refresh += 1;
        if self.evictions_since_refresh >= len {
            self.coverage_sum = self.buf.iter().map(|p| p.coverage).sum();
            self.evictions_since_refresh = 0;
        }
    }

    fn emit(&mut self, counters: &mut AccumCounters) -> WindowAnswer {
        let answer = self.value.answer(&self.buf, self.merge, counters);
        let value = answer.scalar();
        let (freq, quantile) = match answer {
            PaneValue::Scalar(_) => (None, None),
            PaneValue::Freq(f) => (Some(f), None),
            PaneValue::Quantile(q) => (None, Some(q)),
        };
        WindowAnswer {
            start_epoch: self.start_epoch,
            end_epoch: self.end_epoch,
            panes: self.panes as usize,
            value,
            freq,
            quantile,
            coverage: self.coverage_sum / self.panes as f64,
            min_coverage: self.min_cov.query(),
            relabels: self.relabels,
            nodes_joined: self.joined,
            nodes_left: self.left,
            bytes: self.bytes,
        }
    }

    fn reset(&mut self) {
        self.panes = 0;
        self.coverage_sum = 0.0;
        self.evictions_since_refresh = 0;
        self.relabels = 0;
        self.joined = 0;
        self.left = 0;
        self.bytes = 0;
        self.buf.clear();
        self.min_cov.clear();
        self.value.reset();
        // `last_relabeled` survives the reset unpromoted: a relabel
        // after the previous window's final pane fell *between* windows
        // and is counted by neither.
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

    /// Feed `panes` through an `Incremental` and a `Refold` accumulator
    /// of the same window and pin every answer field bit for bit;
    /// returns both work counters.
    fn pin_incremental_to_refold(
        spec: WindowSpec,
        merge: EpochMerge,
        kind: PaneKind,
        panes: &[PaneInput],
    ) -> Result<(AccumCounters, AccumCounters), String> {
        let mut inc = WindowAccum::new(spec, merge, kind, FoldMode::Incremental);
        let mut rf = WindowAccum::new(spec, merge, kind, FoldMode::Refold);
        let (mut ci, mut cr) = (AccumCounters::default(), AccumCounters::default());
        for (seq, pane) in panes.iter().enumerate() {
            let a = inc.absorb(seq as u64, pane, &mut ci);
            let b = rf.absorb(seq as u64, pane, &mut cr);
            prop_assert_eq!(a.is_some(), b.is_some(), "schedule diverged at {}", seq);
            if let (Some(a), Some(b)) = (a, b) {
                prop_assert_eq!(
                    a.value.to_bits(),
                    b.value.to_bits(),
                    "{merge:?} value diverged at seq {}",
                    seq
                );
                prop_assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
                prop_assert_eq!(a.min_coverage.to_bits(), b.min_coverage.to_bits());
                prop_assert_eq!(
                    (a.start_epoch, a.end_epoch, a.panes),
                    (b.start_epoch, b.end_epoch, b.panes)
                );
                prop_assert_eq!(a.panes, span_at(spec, seq as u64));
                prop_assert_eq!(
                    (a.relabels, a.nodes_joined, a.nodes_left, a.bytes),
                    (b.relabels, b.nodes_joined, b.nodes_left, b.bytes)
                );
                prop_assert_eq!(freq_bits(&a.freq), freq_bits(&b.freq));
                prop_assert_eq!(a.quantile.as_deref(), b.quantile.as_deref());
            }
        }
        prop_assert_eq!(cr.value_refolds, 0);
        Ok((ci, cr))
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

    // On integer-valued panes the Add/Min/Max components coincide with
    // the corresponding `td_aggregates` tree-merge laws — the window
    // algebra *is* the aggregate merge law lifted across epochs.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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

        /// The two-stacks structure against a naive scan of the live
        /// window, bit-for-bit at every step, for min and max.
        #[test]
        fn two_stacks_matches_naive_scan(
            values in proptest::collection::vec(-100_000i64..100_000, 1..200),
            window in 1usize..24,
        ) {
            let mut st_min = TwoStacks::min();
            let mut st_max = TwoStacks::max();
            let mut buf: VecDeque<f64> = VecDeque::new();
            for &raw in &values {
                let v = raw as f64;
                buf.push_back(v);
                st_min.push(v);
                st_max.push(v);
                while buf.len() > window {
                    // Same call shape as WindowAccum: the evictee is
                    // still in the buffer when the back segment flips.
                    st_min.evict(buf.iter().rev().copied());
                    st_max.evict(buf.iter().rev().copied());
                    buf.pop_front();
                }
                prop_assert_eq!(st_min.front.len() + st_min.back_len, buf.len());
                let naive_min = buf.iter().copied().fold(f64::INFINITY, f64::min);
                let naive_max = buf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(st_min.query().to_bits(), naive_min.to_bits());
                prop_assert_eq!(st_max.query().to_bits(), naive_max.to_bits());
            }
        }

        /// The accumulator state machine against [`FoldMode::Refold`]
        /// on every answer field, for every merge law, over random
        /// sliding shapes — with integer panes (exercising the exact
        /// subtract path) and fractional panes (exercising the
        /// certificate-failure refold fallback).
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
                    let value = if fractional { v as f64 + 0.5 } else { v as f64 };
                    pane_input(seq, PaneValue::Scalar(value), v.unsigned_abs())
                })
                .collect();
            for merge in [
                EpochMerge::Add,
                EpochMerge::Mean,
                EpochMerge::Min,
                EpochMerge::Max,
            ] {
                let spec = WindowSpec::sliding(len, hop);
                let (ci, _) = pin_incremental_to_refold(spec, merge, PaneKind::Scalar, &panes)?;
                if !fractional && matches!(merge, EpochMerge::Add | EpochMerge::Mean) {
                    // Small integer panes: the certificate always
                    // holds, so every eviction stays on the O(1) path.
                    prop_assert_eq!(ci.value_refolds, 0);
                } else if fractional
                    && matches!(merge, EpochMerge::Add | EpochMerge::Mean)
                    && hop < len
                    && raw.len() as u32 > len
                {
                    // Overlapping window + fractional panes: evictions
                    // happen and every one fails the certificate — and
                    // the answers above still pinned bit-for-bit.
                    prop_assert!(ci.value_refolds > 0);
                }
            }
        }
    }

    /// Set-valued panes: retract after merges equals a from-scratch
    /// fold, with exact-zero counts canonicalized away.
    #[test]
    fn freq_pane_retract_matches_refold() {
        let panes: Vec<FreqPane> = (0..6u64)
            .map(|i| FreqPane::from_counts([(1, 10.0 + i as f64), (2 + i, 4.0)], 30.0 + i as f64))
            .collect();
        // Window [1..6): merge all, retract pane 0 — vs folding 1..6.
        let mut acc = panes[0].clone();
        for p in &panes[1..] {
            acc.merge(p);
        }
        assert!(acc.retract(&panes[0]));
        let mut expect = panes[1].clone();
        for p in &panes[2..] {
            expect.merge(p);
        }
        assert_eq!(acc.total().to_bits(), expect.total().to_bits());
        let got: Vec<(u64, u64)> = acc
            .counts()
            .iter()
            .map(|(&u, &c)| (u, c.to_bits()))
            .collect();
        let want: Vec<(u64, u64)> = expect
            .counts()
            .iter()
            .map(|(&u, &c)| (u, c.to_bits()))
            .collect();
        // Item 2 (only in pane 0) must have vanished, not linger at 0.
        assert!(!acc.counts().contains_key(&2));
        assert_eq!(got, want);
        // Construction canonicalizes non-positive counts away.
        let canon = FreqPane::from_counts([(7, 0.0), (8, -1.0), (9, 2.0)], 2.0);
        assert_eq!(canon.counts().len(), 1);
    }

    /// Quantile panes: digest retraction after merges equals a
    /// from-scratch fold bit-for-bit (node-wise exact inverse), and GK
    /// panes always decline the subtract path.
    #[test]
    fn quantile_pane_retract_matches_refold() {
        let panes: Vec<QuantilePane> = (0..6u64)
            .map(|i| {
                let vals: Vec<u64> = (0..40).map(|j| (i * 37 + j * 11) % 1024).collect();
                QuantilePane::Digest(td_quantiles::QDigest::exact(&vals, 10))
            })
            .collect();
        let mut acc = panes[0].clone();
        for p in &panes[1..] {
            acc.merge(p);
        }
        assert!(acc.retract(&panes[0]));
        let mut expect = panes[1].clone();
        for p in &panes[2..] {
            expect.merge(p);
        }
        assert_eq!(acc, expect);
        let mut gk = QuantilePane::Gk(td_quantiles::GkSummary::exact(&[1, 2, 3]));
        let gk_other = gk.clone();
        assert!(!gk.retract(&gk_other));
    }

    proptest! {
        /// Incremental quantile windows (digest subtract-on-evict, GK
        /// per-evict refold) match from-scratch refold bit-for-bit, and
        /// the counters confirm which path ran: digests never refold,
        /// GK refolds on every eviction.
        #[test]
        fn incremental_quantile_matches_refold(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u64..1024, 8..20), 6..30),
            len in 2u32..8,
            hop_raw in 1u32..8,
            digest in any::<bool>(),
        ) {
            let hop = 1 + hop_raw % len;
            let panes: Vec<PaneInput> = raw
                .iter()
                .enumerate()
                .map(|(seq, vals)| {
                    let pane = if digest {
                        QuantilePane::Digest(td_quantiles::QDigest::exact(vals, 10))
                    } else {
                        QuantilePane::Gk(td_quantiles::GkSummary::exact(vals))
                    };
                    pane_input(seq, PaneValue::Quantile(Arc::new(pane)), vals[0])
                })
                .collect();
            let spec = WindowSpec::sliding(len, hop);
            let (ci, _) = pin_incremental_to_refold(spec, EpochMerge::Add, PaneKind::Quantile, &panes)?;
            if digest {
                prop_assert_eq!(ci.value_refolds, 0);
            } else if hop < len && raw.len() as u32 > len {
                // Overlapping GK window: evictions happen and every one
                // refolds — and the answers above still pinned
                // bit-for-bit.
                prop_assert!(ci.value_refolds > 0);
            }
        }

        /// Incremental frequent-items windows match from-scratch refold
        /// bit-for-bit: integer counts (exact counters) stay on the O(1)
        /// subtract path, fractional ones (FM estimates) refold on every
        /// eviction.
        #[test]
        fn incremental_freq_matches_refold(
            raw in proptest::collection::vec(
                proptest::collection::btree_map(0u64..12, 1u64..50, 0..6), 6..40),
            len in 2u32..8,
            hop_raw in 1u32..8,
            fractional in any::<bool>(),
        ) {
            let hop = 1 + hop_raw % len;
            let bump = if fractional { 0.25 } else { 0.0 };
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
            let (ci, _) = pin_incremental_to_refold(spec, EpochMerge::Add, PaneKind::Freq, &panes)?;
            if !fractional {
                prop_assert_eq!(ci.value_refolds, 0);
            } else if hop < len && raw.len() as u32 > len {
                prop_assert!(ci.value_refolds > 0);
            }
        }
    }

    /// The steady-state pin (the stream-layer sibling of the runner's
    /// pool pins): after the window fills, 10 000 more hops grow
    /// neither the pane buffer nor either two-stacks front stack (value
    /// and min-coverage), and each hop costs a constant number of pane
    /// merges whatever the window length — the same at W = 4096 as at
    /// W = 64 — while the `Refold` reference fed the same panes pays at
    /// least W − 1 merges per emitted window. At W = 4096 that gap is
    /// the whole O(W) → O(1) claim, so an `Incremental` accumulator that
    /// silently refolds fails here. A landmark window over the same
    /// panes keeps no buffer at all. (A two-stacks flip is not counted
    /// as a merge; it touches each value once per lifetime.)
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
        /// Capacities of the pane buffer and both front stacks.
        fn capacities(acc: &WindowAccum) -> (usize, usize, usize) {
            let value_front = acc.value.stacks().map_or(0, |st| st.front.capacity());
            (
                acc.buf.capacity(),
                value_front,
                acc.min_cov.front.capacity(),
            )
        }
        for len in [64u32, 4096] {
            let warm = 2 * len as u64;
            // The reference: the same panes through `Refold` cost a whole
            // window per emission (the fold count is the same for every
            // merge law, so one law suffices).
            let mut reference = WindowAccum::new(
                WindowSpec::sliding(len, 1),
                EpochMerge::Add,
                PaneKind::Scalar,
                FoldMode::Refold,
            );
            let mut rc = AccumCounters::default();
            drive(&mut reference, &mut rc, 0, len as u64);
            let merges_before = rc.pane_merges;
            let emitted = drive(&mut reference, &mut rc, len as u64, len as u64 + 256);
            assert!(
                rc.pane_merges - merges_before >= emitted * (len as u64 - 1),
                "W={len}: the refold reference stopped refolding"
            );
            for merge in [
                EpochMerge::Add,
                EpochMerge::Mean,
                EpochMerge::Min,
                EpochMerge::Max,
            ] {
                let mut acc = WindowAccum::new(
                    WindowSpec::sliding(len, 1),
                    merge,
                    PaneKind::Scalar,
                    FoldMode::Incremental,
                );
                let mut c = AccumCounters::default();
                drive(&mut acc, &mut c, 0, warm);
                let caps = capacities(&acc);
                let merges_before = c.pane_merges;
                assert_eq!(drive(&mut acc, &mut c, warm, warm + HOPS), HOPS);
                assert_eq!(acc.buf.len(), len as usize);
                assert_eq!(
                    capacities(&acc),
                    caps,
                    "{merge:?} W={len}: buffer or front stack grew (buffer, value, coverage)"
                );
                let per_hop = (c.pane_merges - merges_before) as f64 / HOPS as f64;
                assert!(
                    per_hop <= 2.0,
                    "{merge:?} W={len}: {per_hop} pane merges per hop — not O(1)"
                );
                if matches!(merge, EpochMerge::Add | EpochMerge::Mean) {
                    assert_eq!(
                        c.value_refolds, 0,
                        "{merge:?} W={len}: integer panes must never leave the O(1) path"
                    );
                }
            }
        }
        let mut landmark = WindowAccum::new(
            WindowSpec::landmark(),
            EpochMerge::Mean,
            PaneKind::Scalar,
            FoldMode::Incremental,
        );
        let mut c = AccumCounters::default();
        assert_eq!(drive(&mut landmark, &mut c, 0, HOPS), HOPS);
        assert_eq!(capacities(&landmark), (0, 0, 0), "landmark kept pane state");
    }
}
