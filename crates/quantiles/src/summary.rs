//! The Greenwald–Khanna summary with combine/reduce operations.

/// One summary tuple: `value` occurs with minimum rank `rmin(i) = Σ_{j≤i}
/// g_j` and maximum rank `rmin(i) + delta`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tuple {
    /// The sample value.
    pub value: u64,
    /// Rank increment over the previous tuple.
    pub g: u64,
    /// Rank uncertainty of this tuple.
    pub delta: u64,
}

/// A Greenwald–Khanna ε-approximate quantile summary.
///
/// `E` (`uncertainty()`) is the summary's **absolute** rank uncertainty:
/// any rank query answered from the summary is within `E` of the true
/// rank. An exact summary has `E = 0`; `combine` adds uncertainties;
/// `reduce(E_target)` compresses, trading size for uncertainty.
/// ```
/// use td_quantiles::summary::GkSummary;
///
/// // Two sensors summarize locally, a parent combines and compresses.
/// let a = GkSummary::exact(&(0..500).collect::<Vec<_>>());
/// let b = GkSummary::exact(&(500..1000).collect::<Vec<_>>());
/// let mut merged = a.combine(&b);
/// merged.reduce(50); // rank error budget E = 50
/// let median = merged.quantile(0.5).unwrap();
/// // The query is within E in rank and the lookup adds up to E of
/// // slack, so on this dense 0..1000 domain the reported value is
/// // within 2·E of the true median — derived, not a magic constant.
/// let tol = 2 * merged.uncertainty() as i64;
/// assert!((median as i64 - 500).abs() <= tol, "median {median}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GkSummary {
    tuples: Vec<Tuple>,
    n: u64,
    uncertainty: u64,
}

impl GkSummary {
    /// An empty summary.
    pub fn empty() -> Self {
        GkSummary {
            tuples: Vec::new(),
            n: 0,
            uncertainty: 0,
        }
    }

    /// Exact summary of a collection: one tuple **per observation**
    /// (`g = 1`, `delta = 0`), duplicates included. Keeping copies as
    /// separate tuples (rather than collapsing into `g`) is what makes
    /// `combine` of exact summaries exact; `reduce` collapses them the
    /// moment a nonzero error budget is available.
    pub fn exact(values: &[u64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let tuples = sorted
            .into_iter()
            .map(|v| Tuple {
                value: v,
                g: 1,
                delta: 0,
            })
            .collect();
        GkSummary {
            tuples,
            n: values.len() as u64,
            uncertainty: 0,
        }
    }

    /// Number of items summarized.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Absolute rank uncertainty `E`.
    pub fn uncertainty(&self) -> u64 {
        self.uncertainty
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the summary holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The stored tuples, ascending by value.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Wire size in 32-bit words (3 words per tuple: value, g, delta —
    /// the unit Figure 8 plots for the Quantiles-based baseline).
    pub fn wire_words(&self) -> usize {
        self.tuples.len() * 3
    }

    /// Check the structural invariant: `Σ g = n` and per-tuple rank bounds
    /// consistent with the claimed uncertainty (`g + delta − 1 ≤ 2E` for
    /// interior tuples of a non-exact summary).
    pub fn check_invariant(&self) -> Result<(), String> {
        let total: u64 = self.tuples.iter().map(|t| t.g).sum();
        if total != self.n {
            return Err(format!("Σg = {total} != n = {}", self.n));
        }
        for (i, t) in self.tuples.iter().enumerate() {
            if t.g == 0 && i > 0 {
                return Err(format!("tuple {i} has g = 0"));
            }
            if t.delta > 2 * self.uncertainty {
                return Err(format!(
                    "tuple {i} delta {} exceeds 2E = {}",
                    t.delta,
                    2 * self.uncertainty
                ));
            }
        }
        Ok(())
    }

    /// Combine with another summary (the union of the two populations).
    /// Absolute uncertainties add: `E = E_a + E_b` (\[8\] §3; this is what
    /// makes the precision gradient's per-level error *differences* pay
    /// for compression).
    pub fn combine(&self, other: &Self) -> Self {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let a = &self.tuples;
        let b = &other.tuples;
        let mut out: Vec<Tuple> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            // Take the smaller next value; ties take from `a` first (any
            // deterministic rule works).
            let from_a = match (a.get(i), b.get(j)) {
                (Some(x), Some(y)) => x.value <= y.value,
                (Some(_), None) => true,
                _ => false,
            };
            let t = if from_a {
                let x = a[i];
                i += 1;
                // Uncertainty contributed by the *other* summary around
                // this value: the next-not-yet-consumed tuple of b.
                let extra = match b.get(j) {
                    Some(y) => y.g + y.delta - 1,
                    None => 0,
                };
                Tuple {
                    value: x.value,
                    g: x.g,
                    delta: x.delta + extra,
                }
            } else {
                let y = b[j];
                j += 1;
                let extra = match a.get(i) {
                    Some(x) => x.g + x.delta - 1,
                    None => 0,
                };
                Tuple {
                    value: y.value,
                    g: y.g,
                    delta: y.delta + extra,
                }
            };
            out.push(t);
        }
        GkSummary {
            tuples: out,
            n: self.n + other.n,
            uncertainty: self.uncertainty + other.uncertainty,
        }
    }

    /// Reduce (compress) the summary so that its size is bounded by
    /// `O(n / E_target)` tuples, raising the uncertainty to `E_target`.
    /// A no-op if `E_target <= E` or the summary is already tiny.
    pub fn reduce(&mut self, e_target: u64) {
        if e_target <= self.uncertainty || self.tuples.len() <= 2 {
            return;
        }
        let cap = 2 * e_target;
        let mut out: Vec<Tuple> = Vec::with_capacity(self.tuples.len() / 2 + 2);
        // Keep the first tuple verbatim: merging drops the *earlier*
        // value, and losing the first tuple would lose the minimum.
        let mut iter = self.tuples.iter();
        out.push(*iter.next().expect("non-empty"));
        let mut pending = match iter.next() {
            Some(&t) => t,
            None => {
                self.uncertainty = e_target;
                return;
            }
        };
        for &t in iter {
            // Merging `pending` into `t` discards pending's value; the
            // merged tuple covers both with g summed and t's delta.
            let merged_g = pending.g + t.g;
            if merged_g + t.delta <= cap {
                pending = Tuple {
                    value: t.value,
                    g: merged_g,
                    delta: t.delta,
                };
            } else {
                out.push(pending);
                pending = t;
            }
        }
        out.push(pending);
        self.tuples = out;
        self.uncertainty = e_target;
    }

    /// Estimate the rank of `value` (number of items ≤ value), with
    /// absolute error at most `E`.
    ///
    /// For `value` between stored tuples `i` and `i+1`, the true rank lies
    /// in `[rmin_i, rmax_{i+1} − 1]`: at least the elements up to the
    /// stored copy `i` are ≤ `value`, and everything from the stored copy
    /// `i+1` onward is > `value`. The estimate is the interval midpoint;
    /// the reduce invariant `g + Δ ≤ 2E` bounds the interval width by
    /// `2E − 1`.
    pub fn rank(&self, value: u64) -> u64 {
        if self.tuples.is_empty() {
            return 0;
        }
        let mut rmin_acc = 0u64;
        let mut next: Option<&Tuple> = None;
        for t in &self.tuples {
            if t.value > value {
                next = Some(t);
                break;
            }
            rmin_acc += t.g;
        }
        match next {
            // value >= max stored value: everything is ≤ value.
            None => self.n,
            Some(succ) => {
                let upper = rmin_acc + succ.g + succ.delta - 1;
                rmin_acc + (upper - rmin_acc) / 2
            }
        }
    }

    /// The φ-quantile (0 ≤ φ ≤ 1): a value whose rank is within `E` of
    /// `φ·n`. Returns `None` on an empty summary.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.tuples.is_empty() {
            return None;
        }
        let target = (phi.clamp(0.0, 1.0) * self.n as f64).ceil() as u64;
        let mut rmin_acc = 0u64;
        for (i, t) in self.tuples.iter().enumerate() {
            rmin_acc += t.g;
            let rmax = rmin_acc + t.delta;
            if rmax + self.uncertainty >= target {
                let _ = i;
                return Some(t.value);
            }
        }
        self.tuples.last().map(|t| t.value)
    }

    /// Estimated frequency of the exact value `u`: `rank(u) − rank(u−1)`,
    /// within `2E` of the true frequency. This is how the Quantiles-based
    /// frequent-items baseline extracts counts (§7.4.2 footnote 5).
    pub fn frequency(&self, u: u64) -> u64 {
        let hi = self.rank(u);
        let lo = if u == 0 { 0 } else { self.rank(u - 1) };
        hi.saturating_sub(lo)
    }

    /// Distinct values currently represented (candidates for frequent
    /// items — any value with true frequency > 2E must still be present).
    pub fn values(&self) -> impl Iterator<Item = u64> + '_ {
        self.tuples.iter().map(|t| t.value)
    }
}

/// The combine/reduce surface shared by the quantile summary families
/// ([`GkSummary`] and [`crate::qdigest::QDigest`]), written
/// prototype-style: constructors go through a template value carrying
/// the summary's configuration (domain bits for q-digest, nothing for
/// GK), so protocol and law-check code stays generic over the family.
///
/// Every implementation upholds the same contract `GkSummary` documents:
/// `uncertainty()` is an **absolute** rank error bound `E`, `combine`
/// adds uncertainties, `reduce(E)` compresses without ever exceeding the
/// budget, and `rank`/`quantile` answers are within `E` of the truth.
pub trait QuantileSummary: Clone + PartialEq + Send + Sync + std::fmt::Debug + 'static {
    /// An exact summary of `values` with this summary's configuration
    /// (an empty template works: `template.exact_from(&[])` is empty).
    fn exact_from(&self, values: &[u64]) -> Self;

    /// Union of the two populations; absolute uncertainties add.
    fn combine(&self, other: &Self) -> Self;

    /// `*self = self.combine(other)`, the representation `combine`
    /// would build; families that can add `other` in place (q-digest)
    /// do so instead of building a third summary.
    fn combine_into(&mut self, other: &Self) {
        *self = self.combine(other);
    }

    /// `self.combine_into(&self.exact_from(&[value]))`: add one exact
    /// reading. Families that can add it in place (q-digest, one leaf
    /// count) do so without building the one-reading summary.
    fn insert_exact(&mut self, value: u64) {
        let one = self.exact_from(std::slice::from_ref(&value));
        self.combine_into(&one);
    }

    /// Compress to rank-error budget `e_target` (no-op if the summary
    /// is already within budget).
    fn reduce(&mut self, e_target: u64);

    /// Number of items summarized.
    fn population(&self) -> u64;

    /// Absolute rank uncertainty `E`.
    fn uncertainty(&self) -> u64;

    /// Estimated rank of `value`, within `E` of the true rank.
    fn rank(&self, value: u64) -> u64;

    /// The φ-quantile; `None` on an empty summary.
    fn quantile(&self, phi: f64) -> Option<u64>;

    /// Estimated frequency of the exact value `u`, within `2E`.
    fn frequency(&self, u: u64) -> u64;

    /// Wire size in 32-bit words.
    fn wire_words(&self) -> usize;

    /// Check the family's structural invariant against the claimed `E`.
    fn check_invariant(&self) -> Result<(), String>;

    /// Short family name for labels and CSV cells ("gk", "qdigest").
    fn kind_name(&self) -> &'static str;
}

impl QuantileSummary for GkSummary {
    fn exact_from(&self, values: &[u64]) -> Self {
        GkSummary::exact(values)
    }

    fn combine(&self, other: &Self) -> Self {
        GkSummary::combine(self, other)
    }

    fn reduce(&mut self, e_target: u64) {
        GkSummary::reduce(self, e_target)
    }

    fn population(&self) -> u64 {
        GkSummary::population(self)
    }

    fn uncertainty(&self) -> u64 {
        GkSummary::uncertainty(self)
    }

    fn rank(&self, value: u64) -> u64 {
        GkSummary::rank(self, value)
    }

    fn quantile(&self, phi: f64) -> Option<u64> {
        GkSummary::quantile(self, phi)
    }

    fn frequency(&self, u: u64) -> u64 {
        GkSummary::frequency(self, u)
    }

    fn wire_words(&self) -> usize {
        GkSummary::wire_words(self)
    }

    fn check_invariant(&self) -> Result<(), String> {
        GkSummary::check_invariant(self)
    }

    fn kind_name(&self) -> &'static str {
        "gk"
    }
}

impl QuantileSummary for crate::qdigest::QDigest {
    fn exact_from(&self, values: &[u64]) -> Self {
        crate::qdigest::QDigest::exact(values, self.bits())
    }

    fn combine(&self, other: &Self) -> Self {
        crate::qdigest::QDigest::combine(self, other)
    }

    fn combine_into(&mut self, other: &Self) {
        crate::qdigest::QDigest::combine_into(self, other)
    }

    fn insert_exact(&mut self, value: u64) {
        crate::qdigest::QDigest::insert_exact(self, value)
    }

    fn reduce(&mut self, e_target: u64) {
        crate::qdigest::QDigest::reduce(self, e_target)
    }

    fn population(&self) -> u64 {
        crate::qdigest::QDigest::population(self)
    }

    fn uncertainty(&self) -> u64 {
        crate::qdigest::QDigest::uncertainty(self)
    }

    fn rank(&self, value: u64) -> u64 {
        crate::qdigest::QDigest::rank(self, value)
    }

    fn quantile(&self, phi: f64) -> Option<u64> {
        crate::qdigest::QDigest::quantile(self, phi)
    }

    fn frequency(&self, u: u64) -> u64 {
        crate::qdigest::QDigest::frequency(self, u)
    }

    fn wire_words(&self) -> usize {
        crate::qdigest::QDigest::wire_words(self)
    }

    fn check_invariant(&self) -> Result<(), String> {
        crate::qdigest::QDigest::check_invariant(self)
    }

    fn kind_name(&self) -> &'static str {
        "qdigest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    fn true_rank(values: &[u64], v: u64) -> u64 {
        values.iter().filter(|&&x| x <= v).count() as u64
    }

    #[test]
    fn exact_summary_ranks() {
        let vals = vec![5, 1, 9, 1, 7];
        let s = GkSummary::exact(&vals);
        s.check_invariant().unwrap();
        assert_eq!(s.population(), 5);
        assert_eq!(s.uncertainty(), 0);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.rank(1), 2);
        assert_eq!(s.rank(6), 3);
        assert_eq!(s.rank(100), 5);
        assert_eq!(s.frequency(1), 2);
        assert_eq!(s.frequency(9), 1);
        assert_eq!(s.frequency(4), 0);
    }

    #[test]
    fn empty_summary() {
        let s = GkSummary::empty();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.rank(10), 0);
        s.check_invariant().unwrap();
    }

    #[test]
    fn combine_exact_is_exact() {
        let a = GkSummary::exact(&[1, 3, 5]);
        let b = GkSummary::exact(&[2, 4, 6]);
        let c = a.combine(&b);
        c.check_invariant().unwrap();
        assert_eq!(c.population(), 6);
        assert_eq!(c.uncertainty(), 0);
        for v in 1..=6 {
            assert_eq!(c.rank(v), v);
        }
    }

    #[test]
    fn combine_uncertainties_add() {
        let mut a = GkSummary::exact(&(0..100).collect::<Vec<_>>());
        a.reduce(5);
        let mut b = GkSummary::exact(&(100..200).collect::<Vec<_>>());
        b.reduce(7);
        let c = a.combine(&b);
        assert_eq!(c.uncertainty(), 12);
        c.check_invariant().unwrap();
    }

    #[test]
    fn reduce_shrinks_and_stays_valid() {
        let vals: Vec<u64> = (0..1000).collect();
        let mut s = GkSummary::exact(&vals);
        s.reduce(50); // E = 50 -> ~ n/(2E) = 10 tuples
        s.check_invariant().unwrap();
        assert!(s.len() <= 22, "{} tuples after reduce", s.len());
        for &v in &[0u64, 100, 499, 900, 999] {
            let err = (s.rank(v) as i64 - true_rank(&vals, v) as i64).abs();
            assert!(err <= 50, "rank({v}) err {err}");
        }
    }

    #[test]
    fn reduce_preserves_extremes() {
        let vals: Vec<u64> = (0..500).map(|i| i * 2).collect();
        let mut s = GkSummary::exact(&vals);
        s.reduce(20);
        assert_eq!(s.quantile(0.0), Some(0));
        let max = s.quantile(1.0).unwrap();
        assert!(max >= 900, "max quantile {max}");
    }

    #[test]
    fn quantile_error_bounded() {
        let vals: Vec<u64> = (0..2000).collect();
        let mut s = GkSummary::exact(&vals);
        s.reduce(100);
        for &phi in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let q = s.quantile(phi).unwrap();
            let true_q = (phi * 2000.0) as u64;
            let rank_err = (q as i64 - true_q as i64).abs();
            assert!(rank_err <= 220, "phi {phi}: got {q} want ~{true_q}");
        }
    }

    #[test]
    fn tree_of_combines_matches_error_budget() {
        // 8 leaves, each 100 values, combined pairwise then reduced at
        // each level: uncertainty must track the reduce targets.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut all: Vec<u64> = (0..800).collect();
        all.shuffle(&mut rng);
        let mut level: Vec<GkSummary> = all.chunks(100).map(GkSummary::exact).collect();
        let mut e_target = 4u64;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let mut c = if pair.len() == 2 {
                    pair[0].combine(&pair[1])
                } else {
                    pair[0].clone()
                };
                c.reduce(e_target);
                c.check_invariant().unwrap();
                assert!(c.uncertainty() <= e_target);
                next.push(c);
            }
            level = next;
            e_target *= 2;
        }
        let root = &level[0];
        assert_eq!(root.population(), 800);
        // Final uncertainty 16; check a few ranks within 2x the budget.
        for &v in &[100u64, 400, 700] {
            let err = (root.rank(v) as i64 - (v as i64 + 1)).abs();
            assert!(
                err <= 2 * root.uncertainty() as i64 + 1,
                "rank({v}) err {err}"
            );
        }
    }

    #[test]
    fn frequency_of_heavy_hitter_survives_reduce() {
        // 500 copies of 42 among 1000 other items; E = 50 must keep the
        // estimate within 2E = 100.
        let mut vals: Vec<u64> = (0..1000).collect();
        vals.extend(std::iter::repeat_n(42, 500));
        let mut s = GkSummary::exact(&vals);
        s.reduce(50);
        let f = s.frequency(42);
        assert!(
            (f as i64 - 501).abs() <= 100,
            "frequency estimate {f} for true 501"
        );
    }

    proptest! {
        #[test]
        fn prop_rank_error_within_uncertainty(
            vals in proptest::collection::vec(0u64..10_000, 10..400),
            e in 1u64..50,
        ) {
            let mut s = GkSummary::exact(&vals);
            s.reduce(e);
            prop_assert!(s.check_invariant().is_ok());
            for &probe in vals.iter().take(20) {
                let err = (s.rank(probe) as i64 - true_rank(&vals, probe) as i64).abs();
                prop_assert!(err <= e as i64, "rank err {err} > E {e}");
            }
        }

        #[test]
        fn prop_combine_populations_add(
            a in proptest::collection::vec(0u64..1000, 0..100),
            b in proptest::collection::vec(0u64..1000, 0..100),
        ) {
            let sa = GkSummary::exact(&a);
            let sb = GkSummary::exact(&b);
            let c = sa.combine(&sb);
            prop_assert_eq!(c.population(), (a.len() + b.len()) as u64);
            prop_assert!(c.check_invariant().is_ok());
        }

        #[test]
        fn prop_combine_exact_ranks(
            a in proptest::collection::vec(0u64..200, 1..80),
            b in proptest::collection::vec(0u64..200, 1..80),
        ) {
            let c = GkSummary::exact(&a).combine(&GkSummary::exact(&b));
            let mut all = a.clone();
            all.extend(&b);
            for probe in (0..200).step_by(17) {
                prop_assert_eq!(c.rank(probe), true_rank(&all, probe));
            }
        }
    }
}
