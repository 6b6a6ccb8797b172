//! Window shapes, the cross-epoch pane algebra, and the incremental
//! [`WindowAccum`] state machine.
//!
//! A *pane* is one measured epoch's contribution to a windowed query:
//! the epoch answer plus its instrumentation. Windows never re-traverse
//! history — they merge panes, and the merge must therefore be
//! associative and commutative so panes can combine in ring order, hop
//! order, or eviction order interchangeably. [`PanePartial`] is that
//! merge: the product of the scalar aggregates' tree-merge laws
//! (`Sum`/`Count` addition, `Min`/`Max` extrema, `Average`'s
//! `(sum, count)` pair) lifted to the `f64` answers epochs produce, and
//! [`EpochMerge`] selects which component a window evaluates. The
//! [`PaneAlgebra`] trait generalizes the fold beyond four scalars:
//! [`FreqPane`] carries *set-valued* per-item count estimates, so a
//! frequent-items query can be windowed like any scalar.
//!
//! ## Incremental maintenance: a hop costs O(1), not O(W)
//!
//! [`WindowAccum`] replaces the per-emission re-fold with a per-window
//! accumulator selected by merge law and window shape:
//!
//! * tumbling / landmark / `sliding(len, hop == len)` → a **running**
//!   left fold (reset at each emission for tumbling) — trivially the
//!   same fold as a from-scratch pass;
//! * sliding `hop < len`, `Add`/`Mean` → **subtract-on-evict** guarded
//!   by an exactness certificate (below);
//! * sliding `hop < len`, `Min`/`Max` → the **two-stacks** scheme
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
//! values) the eviction falls back to refolding from the window's own
//! pane buffer — O(len) for that hop, still bit-exact, counted in
//! [`AccumCounters::value_refolds`]. Pushes never need the certificate:
//! appending to a left fold *is* the left fold of the extended
//! sequence. `Min`/`Max` are selection operations (the answer is one of
//! the pane values), so [`TwoStacks`] matches the refold exactly up to
//! the IEEE `min(±0.0, ∓0.0)` tie, which pane values (sums of
//! readings) do not produce.

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
        /// Panes between emissions (≥ 1).
        hop: u32,
    },
    /// The landmark window: every answer covers all panes since the
    /// stream's first measured epoch, emitted every pane. Maintained as
    /// a running accumulator — O(1) state and merge work per epoch, no
    /// pane ring at all.
    Landmark,
}

impl WindowSpec {
    /// A tumbling window of `len` panes.
    ///
    /// # Panics
    /// Panics if `len` is zero.
    pub fn tumbling(len: u32) -> Self {
        assert!(len >= 1, "a window needs at least one pane");
        WindowSpec::Tumbling { len }
    }

    /// A sliding window of `len` panes emitted every `hop` panes.
    ///
    /// # Panics
    /// Panics if `len` or `hop` is zero, or if `hop > len` (that would
    /// silently drop panes from every window — use tumbling plus a
    /// longer length instead).
    pub fn sliding(len: u32, hop: u32) -> Self {
        assert!(len >= 1, "a window needs at least one pane");
        assert!(hop >= 1, "a hop advances by at least one pane");
        assert!(hop <= len, "hop {hop} > len {len} would drop panes");
        WindowSpec::Sliding { len, hop }
    }

    /// The landmark window.
    pub fn landmark() -> Self {
        WindowSpec::Landmark
    }

    /// Panes the shared ring must retain for this window (0 for the
    /// landmark window, which keeps a running accumulator instead).
    pub(crate) fn ring_need(&self) -> usize {
        match *self {
            WindowSpec::Tumbling { len } | WindowSpec::Sliding { len, .. } => len as usize,
            WindowSpec::Landmark => 0,
        }
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

    /// How many panes the window closing after pane `seq` merges
    /// (the schedule tests' oracle; the engine tracks spans in
    /// [`WindowAccum`] now).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn span_at(&self, seq: u64) -> usize {
        match *self {
            WindowSpec::Tumbling { len } => len as usize,
            WindowSpec::Sliding { len, .. } => (len as u64).min(seq + 1) as usize,
            WindowSpec::Landmark => (seq + 1) as usize,
        }
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

/// The cross-epoch fold interface: anything that can absorb the next
/// pane of its kind in stream order (a left fold). [`PanePartial`]
/// implements it for scalar panes, [`FreqPane`] for set-valued
/// frequent-items panes; [`WindowAccum`]'s running and refold paths are
/// written against this trait so both pane kinds share one fold.
pub trait PaneAlgebra: Clone {
    /// Absorb the next pane (left-fold order: `self` is the older
    /// partial, `next` the newer pane).
    fn absorb(&mut self, next: &Self);
}

impl PaneAlgebra for PanePartial {
    fn absorb(&mut self, next: &Self) {
        self.merge(next);
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
    counts: std::collections::BTreeMap<td_frequent::items::Item, f64>,
    total: f64,
}

impl FreqPane {
    /// Build from per-item estimates and an estimated total count.
    /// Non-positive and non-finite counts are dropped (see type docs).
    pub fn from_counts(
        counts: impl IntoIterator<Item = (td_frequent::items::Item, f64)>,
        total: f64,
    ) -> Self {
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
    pub fn counts(&self) -> &std::collections::BTreeMap<td_frequent::items::Item, f64> {
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

    /// Item-wise subtraction of an evicted pane. Only called under the
    /// exactness certificate, where every count is an exactly-summed
    /// integer: a count reaching exactly zero means no remaining pane
    /// contains the item, so the entry is removed — matching the map a
    /// from-scratch fold of the remaining panes would build.
    fn retract(&mut self, other: &FreqPane) {
        for (&u, &c) in &other.counts {
            if let Some(e) = self.counts.get_mut(&u) {
                *e -= c;
                if *e == 0.0 {
                    self.counts.remove(&u);
                }
            }
        }
        self.total -= other.total;
    }

    /// §7.4.3's reporting rule over the merged window: items whose
    /// estimated count exceeds `(support − eps)` of the window's
    /// estimated total N̂.
    pub fn report(&self, support: f64, eps: f64) -> Vec<td_frequent::items::Item> {
        let threshold = (support - eps) * self.total;
        self.counts
            .iter()
            .filter(|&(_, &c)| c > threshold)
            .map(|(&u, _)| u)
            .collect()
    }

    /// The pane's exactness-certificate weight and eligibility: weight
    /// bounds every partial sum this pane can contribute to (its total
    /// and its largest count), and the pane is `safe` when all of those
    /// are positive integers small enough that window sums stay exact.
    fn exactness(&self) -> (f64, bool) {
        let mut weight = self.total.abs();
        let mut safe = self.total.is_finite() && self.total >= 0.0 && self.total.fract() == 0.0;
        for &c in self.counts.values() {
            weight = weight.max(c);
            safe = safe && c.is_finite() && c.fract() == 0.0;
        }
        (weight, safe && weight <= EXACT_VALUE_MAX)
    }
}

impl PaneAlgebra for FreqPane {
    fn absorb(&mut self, next: &Self) {
        self.merge(next);
    }
}

/// A quantile pane: one epoch's merged quantile summary, as produced by
/// a `QuantileProtocol` riding a bundle slot. Merging combines the
/// summaries (populations union, uncertainties add) — the same law the
/// tree protocol uses, lifted across epochs.
///
/// The two summary families split on eviction: q-digest combine is
/// node-wise count addition and therefore *invertible*, so
/// `try_retract` subtracts an evicted pane exactly
/// (canonical with a from-scratch fold, bit for bit); GK combine is not
/// invertible, so GK panes report themselves ineligible for the
/// exactness certificate and every eviction falls back to an O(len)
/// refold — "canonicalized merge/retract where the digest supports it,
/// refold fallback otherwise".
#[derive(Clone, Debug, PartialEq)]
pub enum QuantilePane {
    /// A Greenwald–Khanna summary pane (evictions refold).
    Gk(td_quantiles::GkSummary),
    /// A q-digest summary pane (evictions subtract exactly).
    Digest(td_quantiles::QDigest),
}

impl QuantilePane {
    /// Merge another pane of the same family (union of populations).
    ///
    /// # Panics
    /// Panics on a family mismatch — one query produces one family.
    pub fn merge(&mut self, other: &QuantilePane) {
        match (&mut *self, other) {
            (QuantilePane::Gk(a), QuantilePane::Gk(b)) => *a = a.combine(b),
            (QuantilePane::Digest(a), QuantilePane::Digest(b)) => *a = a.combine(b),
            (a, b) => panic!("quantile pane family mismatch: {a:?} fed {b:?}"),
        }
    }

    /// Subtract a previously-merged pane exactly, if the family supports
    /// it: q-digest retraction is node-wise and atomic (no change on
    /// failure); GK always returns `false`.
    fn try_retract(&mut self, evicted: &QuantilePane) -> bool {
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

    /// Wire words of the merged summary (size accounting).
    pub fn wire_words(&self) -> usize {
        match self {
            QuantilePane::Gk(s) => s.wire_words(),
            QuantilePane::Digest(d) => d.wire_words(),
        }
    }

    /// The windowed median — the scalar face a [`WindowAnswer::value`]
    /// carries for quantile windows (0.0 for an empty pane, e.g. a
    /// window of fully-lossy epochs).
    pub fn median(&self) -> f64 {
        self.quantile(0.5).map_or(0.0, |v| v as f64)
    }

    /// Exactness-certificate weight and eligibility: population counts
    /// are exact `u64`s, so a digest pane is always eligible (the
    /// retraction itself re-checks node-wise containment atomically);
    /// GK panes are never eligible.
    fn exactness(&self) -> (f64, bool) {
        let weight = self.population() as f64;
        (
            weight,
            matches!(self, QuantilePane::Digest(_)) && weight <= EXACT_VALUE_MAX,
        )
    }
}

impl PaneAlgebra for QuantilePane {
    fn absorb(&mut self, next: &Self) {
        self.merge(next);
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
    Freq(std::sync::Arc<FreqPane>),
    /// A quantile-summary pane.
    Quantile(std::sync::Arc<QuantilePane>),
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

    /// Exactness-certificate weight and eligibility (see the module
    /// docs): the magnitude this pane adds to the window's budget, and
    /// whether its contribution is integer-valued and small enough for
    /// exact subtraction.
    fn exactness(&self) -> (f64, bool) {
        match self {
            PaneValue::Scalar(v) => (
                v.abs(),
                v.is_finite() && v.fract() == 0.0 && v.abs() <= EXACT_VALUE_MAX,
            ),
            PaneValue::Freq(f) => f.exactness(),
            PaneValue::Quantile(q) => q.exactness(),
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
    pub freq: Option<std::sync::Arc<FreqPane>>,
    /// The merged quantile summary, for quantile windows (p99s and
    /// arbitrary φ come from here; `value` carries the median).
    pub quantile: Option<std::sync::Arc<QuantilePane>>,
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
/// non-invertible half of the incremental window machinery.
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
            front: Vec::new(),
            back_partial: None,
            back_len: 0,
        }
    }

    fn op(&self, a: f64, b: f64) -> f64 {
        if self.take_max {
            a.max(b)
        } else {
            a.min(b)
        }
    }

    /// Values currently held.
    pub fn len(&self) -> usize {
        self.front.len() + self.back_len
    }

    /// Whether the structure holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

/// Fold `rest` into `first` in left-fold order — the from-scratch
/// reference fold both pane kinds share.
fn refold<A: PaneAlgebra>(
    mut first: A,
    rest: impl Iterator<Item = A>,
    counters: &mut AccumCounters,
) -> A {
    for next in rest {
        first.absorb(&next);
        counters.pane_merges += 1;
    }
    first
}

/// The value half of a [`WindowAccum`], selected by merge law, pane
/// kind, window shape, and [`FoldMode`].
#[derive(Clone, Debug)]
enum ValueAccum {
    /// Running left fold (tumbling/landmark/`hop == len`).
    Running(Option<PanePartial>),
    /// Running left fold over set-valued panes.
    FreqRunning(Option<FreqPane>),
    /// Subtract-on-evict with the exactness certificate (`Add`/`Mean`).
    Subtract {
        sum: f64,
        budget: f64,
        unsafe_panes: u32,
    },
    /// Two-stacks sliding extremum (`Min`/`Max`).
    Stacks(TwoStacks),
    /// Subtract-on-evict over set-valued panes.
    FreqSubtract {
        acc: FreqPane,
        budget: f64,
        unsafe_panes: u32,
    },
    /// Running left fold over quantile panes.
    QuantileRunning(Option<QuantilePane>),
    /// Subtract-on-evict over quantile panes: digest panes retract
    /// exactly, GK panes fail the certificate and refold per eviction.
    QuantileSubtract {
        acc: Option<QuantilePane>,
        budget: f64,
        unsafe_panes: u32,
    },
    /// Fold the pane buffer at every emission ([`FoldMode::Refold`]).
    Refold,
    /// [`FoldMode::Refold`] over set-valued panes.
    FreqRefold,
    /// [`FoldMode::Refold`] over quantile panes.
    QuantileRefold,
}

/// Minimum-coverage tracker: a running minimum where panes never leave
/// the window (tumbling/landmark), two stacks where they do.
#[derive(Clone, Debug)]
enum MinTrack {
    Running(f64),
    Stacks(TwoStacks),
}

/// One pane as retained in a sliding window's buffer.
#[derive(Clone, Debug)]
struct PaneSlot {
    epoch: u64,
    value: PaneValue,
    /// Exactness-certificate weight (magnitude bound).
    weight: f64,
    /// Exactness-certificate eligibility.
    safe: bool,
    coverage: f64,
    relabeled: bool,
    joined: u64,
    left: u64,
    bytes: u64,
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
#[derive(Clone, Debug)]
pub struct WindowAccum {
    spec: WindowSpec,
    merge: EpochMerge,
    value: ValueAccum,
    /// In-window panes, oldest first (empty for running-only shapes).
    buf: std::collections::VecDeque<PaneSlot>,
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
    min_cov: MinTrack,
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
    /// Panics for set-valued panes with a merge other than
    /// [`EpochMerge::Add`] — multiset union is the only law a count map
    /// supports.
    pub fn new(spec: WindowSpec, merge: EpochMerge, kind: PaneKind, mode: FoldMode) -> Self {
        assert!(
            kind == PaneKind::Scalar || merge == EpochMerge::Add,
            "set-valued panes support EpochMerge::Add only, got {merge:?}"
        );
        // `hop == len` never overlaps: it is tumbling by another name,
        // and runs the same running accumulator.
        let overlapping = matches!(spec, WindowSpec::Sliding { len, hop } if hop < len);
        let resets = match spec {
            WindowSpec::Tumbling { .. } => true,
            WindowSpec::Sliding { .. } => !overlapping,
            WindowSpec::Landmark => false,
        };
        let value = match (mode, spec, kind) {
            // Landmark's running fold IS the from-scratch fold.
            (_, WindowSpec::Landmark, PaneKind::Scalar) => ValueAccum::Running(None),
            (_, WindowSpec::Landmark, PaneKind::Freq) => ValueAccum::FreqRunning(None),
            (_, WindowSpec::Landmark, PaneKind::Quantile) => ValueAccum::QuantileRunning(None),
            (FoldMode::Refold, _, PaneKind::Scalar) => ValueAccum::Refold,
            (FoldMode::Refold, _, PaneKind::Freq) => ValueAccum::FreqRefold,
            (FoldMode::Refold, _, PaneKind::Quantile) => ValueAccum::QuantileRefold,
            _ if !overlapping => match kind {
                PaneKind::Scalar => ValueAccum::Running(None),
                PaneKind::Freq => ValueAccum::FreqRunning(None),
                PaneKind::Quantile => ValueAccum::QuantileRunning(None),
            },
            (_, _, PaneKind::Freq) => ValueAccum::FreqSubtract {
                acc: FreqPane::default(),
                budget: 0.0,
                unsafe_panes: 0,
            },
            (_, _, PaneKind::Quantile) => ValueAccum::QuantileSubtract {
                acc: None,
                budget: 0.0,
                unsafe_panes: 0,
            },
            _ => match merge {
                EpochMerge::Add | EpochMerge::Mean => ValueAccum::Subtract {
                    sum: 0.0,
                    budget: 0.0,
                    unsafe_panes: 0,
                },
                EpochMerge::Min => ValueAccum::Stacks(TwoStacks::min()),
                EpochMerge::Max => ValueAccum::Stacks(TwoStacks::max()),
            },
        };
        let keeps_buf =
            overlapping || (mode == FoldMode::Refold && !matches!(spec, WindowSpec::Landmark));
        // The min-coverage path depends on the window *shape* only —
        // never on the fold mode — so Incremental and Refold reports
        // stay bit-identical on every field.
        let min_cov = if overlapping {
            MinTrack::Stacks(TwoStacks::min())
        } else {
            MinTrack::Running(f64::INFINITY)
        };
        let cap = spec.full_span().unwrap_or(0) + 1;
        WindowAccum {
            spec,
            merge,
            value,
            buf: std::collections::VecDeque::with_capacity(if keeps_buf { cap } else { 0 }),
            keeps_buf,
            resets,
            panes: 0,
            start_epoch: 0,
            end_epoch: 0,
            coverage_sum: 0.0,
            evictions_since_refresh: 0,
            min_cov,
            relabels: 0,
            last_relabeled: false,
            joined: 0,
            left: 0,
            bytes: 0,
        }
    }

    /// The window shape.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Panes currently held in the window buffer (0 for running-only
    /// shapes — the allocation pin asserts this stays bounded).
    pub fn buffered_panes(&self) -> usize {
        self.buf.len()
    }

    /// Current capacity of the pane buffer, exposed so tests can pin
    /// that steady-state hops never grow it.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
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
        match &mut self.min_cov {
            MinTrack::Running(m) => *m = m.min(pane.coverage),
            MinTrack::Stacks(s) => s.push(pane.coverage),
        }
        self.joined += pane.nodes_joined;
        self.left += pane.nodes_left;
        self.bytes += pane.bytes;
        let (weight, safe) = pane.value.exactness();
        self.push_value(pane, weight, safe, counters);
        if self.keeps_buf {
            self.buf.push_back(PaneSlot {
                epoch: pane.epoch,
                value: pane.value.clone(),
                weight,
                safe,
                coverage: pane.coverage,
                relabeled: pane.relabeled,
                joined: pane.nodes_joined,
                left: pane.nodes_left,
                bytes: pane.bytes,
            });
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

    fn push_value(&mut self, pane: &PaneInput, weight: f64, safe: bool, c: &mut AccumCounters) {
        match (&mut self.value, &pane.value) {
            (ValueAccum::Running(acc), PaneValue::Scalar(v)) => match acc {
                None => *acc = Some(PanePartial::of(*v)),
                Some(a) => {
                    a.merge(&PanePartial::of(*v));
                    c.pane_merges += 1;
                }
            },
            (ValueAccum::FreqRunning(acc), PaneValue::Freq(f)) => match acc {
                None => *acc = Some(f.as_ref().clone()),
                Some(a) => {
                    a.merge(f);
                    c.pane_merges += 1;
                }
            },
            (
                ValueAccum::Subtract {
                    sum,
                    budget,
                    unsafe_panes,
                },
                PaneValue::Scalar(v),
            ) => {
                // Appending to a left fold is the left fold of the
                // extended sequence — exact-extension needs no
                // certificate.
                *sum += v;
                *budget += weight;
                *unsafe_panes += u32::from(!safe);
                c.pane_merges += 1;
            }
            (ValueAccum::Stacks(st), PaneValue::Scalar(v)) => {
                st.push(*v);
                c.pane_merges += 1;
            }
            (
                ValueAccum::FreqSubtract {
                    acc,
                    budget,
                    unsafe_panes,
                },
                PaneValue::Freq(f),
            ) => {
                acc.merge(f);
                *budget += weight;
                *unsafe_panes += u32::from(!safe);
                c.pane_merges += 1;
            }
            (ValueAccum::QuantileRunning(acc), PaneValue::Quantile(q)) => match acc {
                None => *acc = Some(q.as_ref().clone()),
                Some(a) => {
                    a.merge(q);
                    c.pane_merges += 1;
                }
            },
            (
                ValueAccum::QuantileSubtract {
                    acc,
                    budget,
                    unsafe_panes,
                },
                PaneValue::Quantile(q),
            ) => {
                match acc {
                    None => *acc = Some(q.as_ref().clone()),
                    Some(a) => a.merge(q),
                }
                *budget += weight;
                *unsafe_panes += u32::from(!safe);
                c.pane_merges += 1;
            }
            (ValueAccum::Refold | ValueAccum::FreqRefold | ValueAccum::QuantileRefold, _) => {}
            (accum, value) => panic!("pane kind mismatch: {accum:?} fed {value:?}"),
        }
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
        self.joined -= front.joined;
        self.left -= front.left;
        self.bytes -= front.bytes;
        match &mut self.value {
            ValueAccum::Subtract {
                sum,
                budget,
                unsafe_panes,
            } => {
                if *unsafe_panes == 0 && *budget <= EXACT_BUDGET_MAX {
                    // Certificate holds: both the running sum and the
                    // refolded sum equal the exact integer sum of the
                    // remaining panes, so subtraction IS the refold.
                    let PaneValue::Scalar(v) = front.value else {
                        unreachable!("scalar accumulator holds scalar panes")
                    };
                    *sum -= v;
                    *budget -= front.weight;
                } else {
                    counters.value_refolds += 1;
                    let (mut s, mut b, mut u) = (0.0, 0.0, 0u32);
                    for p in self.buf.iter().skip(1) {
                        let PaneValue::Scalar(v) = p.value else {
                            unreachable!("scalar accumulator holds scalar panes")
                        };
                        s += v;
                        b += p.weight;
                        u += u32::from(!p.safe);
                        counters.pane_merges += 1;
                    }
                    *sum = s;
                    *budget = b;
                    *unsafe_panes = u;
                }
            }
            ValueAccum::Stacks(st) => {
                st.evict(self.buf.iter().rev().map(|p| match p.value {
                    PaneValue::Scalar(v) => v,
                    _ => unreachable!("scalar accumulator holds scalar panes"),
                }));
            }
            ValueAccum::FreqSubtract {
                acc,
                budget,
                unsafe_panes,
            } => {
                let PaneValue::Freq(f) = &front.value else {
                    unreachable!("freq accumulator holds freq panes")
                };
                if *unsafe_panes == 0 && *budget <= EXACT_BUDGET_MAX {
                    acc.retract(f);
                    *budget -= front.weight;
                } else {
                    counters.value_refolds += 1;
                    let mut rest = self.buf.iter().skip(1).map(|p| match &p.value {
                        PaneValue::Freq(f) => f.as_ref().clone(),
                        _ => unreachable!("freq accumulator holds freq panes"),
                    });
                    let first = rest.next().expect("eviction leaves at least one pane");
                    *acc = refold(first, rest, counters);
                    let (mut b, mut u) = (0.0, 0u32);
                    for p in self.buf.iter().skip(1) {
                        b += p.weight;
                        u += u32::from(!p.safe);
                    }
                    *budget = b;
                    *unsafe_panes = u;
                }
            }
            ValueAccum::QuantileSubtract {
                acc,
                budget,
                unsafe_panes,
            } => {
                let PaneValue::Quantile(q) = &front.value else {
                    unreachable!("quantile accumulator holds quantile panes")
                };
                // The retraction itself re-verifies node-wise containment
                // and is atomic, so a digest pane that somehow fails just
                // drops to the refold below.
                let retracted = *unsafe_panes == 0
                    && *budget <= EXACT_BUDGET_MAX
                    && acc.as_mut().is_some_and(|a| a.try_retract(q));
                if retracted {
                    *budget -= front.weight;
                } else {
                    counters.value_refolds += 1;
                    let mut rest = self.buf.iter().skip(1).map(|p| match &p.value {
                        PaneValue::Quantile(q) => q.as_ref().clone(),
                        _ => unreachable!("quantile accumulator holds quantile panes"),
                    });
                    let first = rest.next().expect("eviction leaves at least one pane");
                    *acc = Some(refold(first, rest, counters));
                    let (mut b, mut u) = (0.0, 0u32);
                    for p in self.buf.iter().skip(1) {
                        b += p.weight;
                        u += u32::from(!p.safe);
                    }
                    *budget = b;
                    *unsafe_panes = u;
                }
            }
            ValueAccum::Refold | ValueAccum::FreqRefold | ValueAccum::QuantileRefold => {}
            ValueAccum::Running(_)
            | ValueAccum::FreqRunning(_)
            | ValueAccum::QuantileRunning(_) => {
                unreachable!("running accumulators never evict")
            }
        }
        if let MinTrack::Stacks(s) = &mut self.min_cov {
            s.evict(self.buf.iter().rev().map(|p| p.coverage));
        }
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
        let (value, freq, quantile) = match &self.value {
            ValueAccum::Running(acc) => (
                acc.as_ref()
                    .expect("window emitted with no panes")
                    .evaluate(self.merge),
                None,
                None,
            ),
            ValueAccum::FreqRunning(acc) => {
                let f = acc.clone().expect("window emitted with no panes");
                (f.total(), Some(std::sync::Arc::new(f)), None)
            }
            ValueAccum::QuantileRunning(acc) => {
                let q = acc.clone().expect("window emitted with no panes");
                (q.median(), None, Some(std::sync::Arc::new(q)))
            }
            ValueAccum::Subtract { sum, .. } => (
                match self.merge {
                    EpochMerge::Add => *sum,
                    // The same expression `PanePartial::evaluate` uses,
                    // over the same bit-exact sum.
                    EpochMerge::Mean => *sum / self.panes as f64,
                    _ => unreachable!("subtract accumulator built for Add/Mean only"),
                },
                None,
                None,
            ),
            ValueAccum::Stacks(st) => (st.query(), None, None),
            ValueAccum::FreqSubtract { acc, .. } => {
                (acc.total(), Some(std::sync::Arc::new(acc.clone())), None)
            }
            ValueAccum::QuantileSubtract { acc, .. } => {
                let q = acc.clone().expect("window emitted with no panes");
                (q.median(), None, Some(std::sync::Arc::new(q)))
            }
            ValueAccum::Refold => {
                let mut vals = self.buf.iter().map(|p| match p.value {
                    PaneValue::Scalar(v) => PanePartial::of(v),
                    _ => unreachable!("scalar accumulator holds scalar panes"),
                });
                let first = vals.next().expect("window emitted with no panes");
                (
                    refold(first, vals, counters).evaluate(self.merge),
                    None,
                    None,
                )
            }
            ValueAccum::FreqRefold => {
                let mut vals = self.buf.iter().map(|p| match &p.value {
                    PaneValue::Freq(f) => f.as_ref().clone(),
                    _ => unreachable!("freq accumulator holds freq panes"),
                });
                let first = vals.next().expect("window emitted with no panes");
                let f = refold(first, vals, counters);
                (f.total(), Some(std::sync::Arc::new(f)), None)
            }
            ValueAccum::QuantileRefold => {
                let mut vals = self.buf.iter().map(|p| match &p.value {
                    PaneValue::Quantile(q) => q.as_ref().clone(),
                    _ => unreachable!("quantile accumulator holds quantile panes"),
                });
                let first = vals.next().expect("window emitted with no panes");
                let q = refold(first, vals, counters);
                (q.median(), None, Some(std::sync::Arc::new(q)))
            }
        };
        WindowAnswer {
            start_epoch: self.start_epoch,
            end_epoch: self.end_epoch,
            panes: self.panes as usize,
            value,
            freq,
            quantile,
            coverage: self.coverage_sum / self.panes as f64,
            min_coverage: match &self.min_cov {
                MinTrack::Running(m) => *m,
                MinTrack::Stacks(s) => s.query(),
            },
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
        match &mut self.min_cov {
            MinTrack::Running(m) => *m = f64::INFINITY,
            MinTrack::Stacks(_) => unreachable!("resetting windows track a running minimum"),
        }
        match &mut self.value {
            ValueAccum::Running(acc) => *acc = None,
            ValueAccum::FreqRunning(acc) => *acc = None,
            ValueAccum::QuantileRunning(acc) => *acc = None,
            ValueAccum::Refold | ValueAccum::FreqRefold | ValueAccum::QuantileRefold => {}
            _ => unreachable!("resetting windows run running or refold accumulators"),
        }
        // `last_relabeled` survives the reset unpromoted: a relabel
        // after the previous window's final pane fell *between* windows
        // and is counted by neither.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use td_aggregates::laws::merge_all;
    use td_aggregates::minmax::{Max, Min};
    use td_aggregates::sum::Sum;
    use td_aggregates::traits::Aggregate;

    fn fold(values: &[f64]) -> PanePartial {
        let mut acc = PanePartial::of(values[0]);
        for &v in &values[1..] {
            acc.merge(&PanePartial::of(v));
        }
        acc
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
        assert_eq!(t.span_at(2), 3);

        let s = WindowSpec::sliding(4, 2);
        let emits: Vec<bool> = (0..6).map(|q| s.emits_after(q)).collect();
        assert_eq!(emits, [false, true, false, true, false, true]);
        // Partial prefix until 4 panes exist.
        assert_eq!(s.span_at(1), 2);
        assert_eq!(s.span_at(3), 4);
        assert_eq!(s.span_at(5), 4);

        let l = WindowSpec::landmark();
        assert!(l.emits_after(0) && l.emits_after(9));
        assert_eq!(l.span_at(9), 10);
        assert_eq!(l.ring_need(), 0);
    }

    #[test]
    #[should_panic(expected = "would drop panes")]
    fn sliding_hop_beyond_len_rejected() {
        let _ = WindowSpec::sliding(2, 3);
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
            let sum_partial = merge_all(&sum, &readings).expect("non-empty");
            prop_assert_eq!(acc.evaluate(EpochMerge::Add), sum.evaluate_tree(&sum_partial));
            let min_partial = merge_all(&Min, &readings).expect("non-empty");
            prop_assert_eq!(acc.evaluate(EpochMerge::Min), Min.evaluate_tree(&min_partial));
            let max_partial = merge_all(&Max, &readings).expect("non-empty");
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
            let mut buf: std::collections::VecDeque<f64> = std::collections::VecDeque::new();
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
                prop_assert_eq!(st_min.len(), buf.len());
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
            for merge in [
                EpochMerge::Add,
                EpochMerge::Mean,
                EpochMerge::Min,
                EpochMerge::Max,
            ] {
                let spec = WindowSpec::sliding(len, hop);
                let mut inc =
                    WindowAccum::new(spec, merge, PaneKind::Scalar, FoldMode::Incremental);
                let mut rf = WindowAccum::new(spec, merge, PaneKind::Scalar, FoldMode::Refold);
                let (mut ci, mut cr) = (AccumCounters::default(), AccumCounters::default());
                for (seq, &v) in raw.iter().enumerate() {
                    let tag = (v.unsigned_abs() % 3) as u32;
                    let value = if fractional { v as f64 + 0.5 } else { v as f64 };
                    let pane = PaneInput {
                        epoch: seq as u64,
                        value: PaneValue::Scalar(value),
                        coverage: [1.0, 0.9, 0.75][tag as usize],
                        relabeled: tag == 2,
                        nodes_joined: u64::from(tag == 1),
                        nodes_left: u64::from(tag == 2),
                        bytes: 100 + v.unsigned_abs(),
                    };
                    let a = inc.absorb(seq as u64, &pane, &mut ci);
                    let b = rf.absorb(seq as u64, &pane, &mut cr);
                    prop_assert_eq!(a.is_some(), b.is_some(), "schedule diverged at {}", seq);
                    if let (Some(a), Some(b)) = (a, b) {
                        prop_assert_eq!(a.value.to_bits(), b.value.to_bits(),
                            "{merge:?} value diverged at seq {}", seq);
                        prop_assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
                        prop_assert_eq!(a.min_coverage.to_bits(), b.min_coverage.to_bits());
                        prop_assert_eq!(
                            (a.start_epoch, a.end_epoch, a.panes),
                            (b.start_epoch, b.end_epoch, b.panes)
                        );
                        prop_assert_eq!(
                            (a.relabels, a.nodes_joined, a.nodes_left, a.bytes),
                            (b.relabels, b.nodes_joined, b.nodes_left, b.bytes)
                        );
                    }
                }
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
                prop_assert_eq!(cr.value_refolds, 0);
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
        acc.retract(&panes[0]);
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
        assert!(acc.try_retract(&panes[0]));
        let mut expect = panes[1].clone();
        for p in &panes[2..] {
            expect.merge(p);
        }
        assert_eq!(acc, expect);
        let mut gk = QuantilePane::Gk(td_quantiles::GkSummary::exact(&[1, 2, 3]));
        let gk_other = gk.clone();
        assert!(!gk.try_retract(&gk_other));
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
            let spec = WindowSpec::sliding(len, hop);
            let mut inc =
                WindowAccum::new(spec, EpochMerge::Add, PaneKind::Quantile, FoldMode::Incremental);
            let mut rf =
                WindowAccum::new(spec, EpochMerge::Add, PaneKind::Quantile, FoldMode::Refold);
            let (mut ci, mut cr) = (AccumCounters::default(), AccumCounters::default());
            for (seq, vals) in raw.iter().enumerate() {
                let pane = if digest {
                    QuantilePane::Digest(td_quantiles::QDigest::exact(vals, 10))
                } else {
                    QuantilePane::Gk(td_quantiles::GkSummary::exact(vals))
                };
                let input = PaneInput {
                    epoch: seq as u64,
                    value: PaneValue::Quantile(std::sync::Arc::new(pane)),
                    coverage: 1.0,
                    relabeled: false,
                    nodes_joined: 0,
                    nodes_left: 0,
                    bytes: 64,
                };
                let a = inc.absorb(seq as u64, &input, &mut ci);
                let b = rf.absorb(seq as u64, &input, &mut cr);
                prop_assert_eq!(a.is_some(), b.is_some(), "schedule diverged at {}", seq);
                if let (Some(a), Some(b)) = (a, b) {
                    prop_assert_eq!(a.value.to_bits(), b.value.to_bits(),
                        "median diverged at seq {}", seq);
                    prop_assert_eq!(a.quantile.as_deref(), b.quantile.as_deref());
                }
            }
            if digest {
                prop_assert_eq!(ci.value_refolds, 0);
            } else if hop < len && raw.len() as u32 > len {
                // Overlapping GK window: evictions happen and every one
                // refolds — and the answers above still pinned
                // bit-for-bit.
                prop_assert!(ci.value_refolds > 0);
            }
            prop_assert_eq!(cr.value_refolds, 0);
        }
    }

    /// The steady-state pin (the stream-layer sibling of the runner's
    /// pool pins): after the window fills, 10 000 more hops neither grow
    /// the pane buffer nor the two-stacks front stack, and each hop costs
    /// a constant number of pane merges whatever the window length — the
    /// same at W = 4096 as at W = 64 — while the `Refold` reference fed
    /// the same panes pays at least W − 1 merges per emitted window. At
    /// W = 4096 that gap is the whole O(W) → O(1) claim, so an
    /// `Incremental` accumulator that silently refolds fails here.
    /// (A two-stacks flip is not counted as a merge; it touches each
    /// value once per lifetime.)
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
                    coverage: 1.0,
                    relabeled: false,
                    nodes_joined: 0,
                    nodes_left: 0,
                    bytes: 64,
                };
                emitted += u64::from(acc.absorb(seq, &pane, c).is_some());
            }
            emitted
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
                let buf_cap = acc.buffer_capacity();
                let front_cap = match &acc.value {
                    ValueAccum::Stacks(st) => st.front.capacity(),
                    _ => 0,
                };
                let merges_before = c.pane_merges;
                assert_eq!(drive(&mut acc, &mut c, warm, warm + HOPS), HOPS);
                assert_eq!(acc.buffered_panes(), len as usize);
                assert_eq!(
                    acc.buffer_capacity(),
                    buf_cap,
                    "{merge:?} W={len}: pane buffer grew"
                );
                let front_cap_after = match &acc.value {
                    ValueAccum::Stacks(st) => st.front.capacity(),
                    _ => 0,
                };
                assert_eq!(
                    front_cap_after, front_cap,
                    "{merge:?} W={len}: front stack grew"
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
    }
}
