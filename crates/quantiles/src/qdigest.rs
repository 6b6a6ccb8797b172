//! The q-digest summary ("Medians and Beyond" — Shrivastava, Buragohain,
//! Agrawal, Suri) with the same combine/reduce surface as
//! [`GkSummary`](crate::summary::GkSummary).
//!
//! A q-digest covers the integer domain `[0, 2^bits)` with a set of
//! dyadic ranges (nodes of the implicit complete binary tree over the
//! domain), each carrying a count. An exact digest stores only leaves
//! (width-1 ranges); `reduce` moves counts from children into parents,
//! trading rank precision for size. `combine` is node-wise count
//! addition — exact, associative, and commutative **on the
//! representation**, not just up to evaluation — which makes it the
//! natural *windowed* quantile summary here.

use std::collections::BTreeMap;

/// A q-digest ε-approximate quantile summary over `[0, 2^bits)`.
///
/// Like [`GkSummary`](crate::summary::GkSummary), the digest tracks its
/// own **absolute** rank uncertainty `E` (`uncertainty()`): any rank
/// query is within `E` of the true rank. An exact digest has `E = 0`;
/// `combine` adds uncertainties; `reduce(E_target)` compresses.
///
/// ```
/// use td_quantiles::qdigest::QDigest;
///
/// // Two sensors summarize locally, a parent combines and compresses.
/// let a = QDigest::exact(&(0..500).collect::<Vec<_>>(), 10);
/// let b = QDigest::exact(&(500..1000).collect::<Vec<_>>(), 10);
/// let mut merged = a.combine(&b);
/// merged.reduce(50); // rank error budget E = 50
/// let median = merged.quantile(0.5).unwrap();
/// // Rank error is at most E, and the reported value rounds up to a
/// // dyadic node boundary — within 2E in value on this dense domain.
/// let tol = 2 * merged.uncertainty() as i64;
/// assert!((median as i64 - 500).abs() <= tol, "median {median}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QDigest {
    /// Domain width exponent: values live in `[0, 2^bits)`.
    bits: u32,
    /// Dyadic node `(depth, prefix)` → count, where `prefix` is the
    /// value's top `depth` bits. Depth `bits` nodes are exact leaves;
    /// shallower nodes cover `2^(bits − depth)` values.
    nodes: BTreeMap<(u32, u64), u64>,
    n: u64,
    uncertainty: u64,
}

impl QDigest {
    /// An empty digest over `[0, 2^bits)`. `bits` must be in `1..=48`.
    pub fn empty(bits: u32) -> Self {
        assert!((1..=48).contains(&bits), "QDigest bits must be in 1..=48");
        QDigest {
            bits,
            nodes: BTreeMap::new(),
            n: 0,
            uncertainty: 0,
        }
    }

    /// Exact digest of a collection: one leaf per distinct value (counts
    /// absorb duplicates — node-wise addition keeps exactness, unlike
    /// GK where duplicate tuples must stay separate). Values at or above
    /// `2^bits` saturate to the domain maximum.
    pub fn exact(values: &[u64], bits: u32) -> Self {
        let mut d = QDigest::empty(bits);
        for &v in values {
            d.insert_exact(v);
        }
        d
    }

    /// Add one exact reading in place: its leaf's count goes up by one,
    /// saturating like [`exact`](Self::exact). The digest
    /// `combine_into(&QDigest::exact(&[value], bits))` builds, without
    /// building the one-leaf digest.
    pub(crate) fn insert_exact(&mut self, value: u64) {
        let max = (1u64 << self.bits) - 1;
        *self.nodes.entry((self.bits, value.min(max))).or_insert(0) += 1;
        self.n += 1;
    }

    /// Domain width exponent.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Number of items summarized.
    pub fn population(&self) -> u64 {
        self.n
    }

    /// Absolute rank uncertainty `E`.
    pub fn uncertainty(&self) -> u64 {
        self.uncertainty
    }

    /// Number of stored dyadic nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the digest holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Wire size in 32-bit words (2 words per node: packed node id and
    /// count — the same unit [`GkSummary`](crate::summary::GkSummary)
    /// reports at 3 words per tuple).
    pub fn wire_words(&self) -> usize {
        self.nodes.len() * 2
    }

    /// The value range `[lo, hi]` covered by node `(depth, prefix)`.
    fn span(&self, depth: u32, prefix: u64) -> (u64, u64) {
        let width = 1u64 << (self.bits - depth);
        let lo = prefix * width;
        (lo, lo + width - 1)
    }

    /// Check the structural invariant: counts sum to `n`, prefixes are
    /// in range, and the maximum root-to-node *path lift* — the total
    /// count parked on internal (non-leaf) nodes along any root path,
    /// which is exactly the rank slack a query can see — is at most the
    /// claimed uncertainty `E`.
    pub fn check_invariant(&self) -> Result<(), String> {
        let total: u64 = self.nodes.values().sum();
        if total != self.n {
            return Err(format!("Σcounts = {total} != n = {}", self.n));
        }
        for (&(depth, prefix), &c) in &self.nodes {
            if depth > self.bits {
                return Err(format!("node depth {depth} exceeds bits {}", self.bits));
            }
            if prefix >> depth != 0 {
                return Err(format!("prefix {prefix} out of range at depth {depth}"));
            }
            if c == 0 {
                return Err(format!("zero count stored at ({depth}, {prefix})"));
            }
        }
        for &(depth, prefix) in self.nodes.keys() {
            let mut lift = 0u64;
            for d in 0..=depth.min(self.bits - 1) {
                if let Some(&c) = self.nodes.get(&(d, prefix >> (depth - d))) {
                    lift += c;
                }
            }
            if lift > self.uncertainty {
                return Err(format!("path lift {lift} exceeds E = {}", self.uncertainty));
            }
        }
        Ok(())
    }

    /// Combine with another digest over the same domain (the union of
    /// the two populations): node-wise count addition. Absolute
    /// uncertainties add, exactly as for GK — so the precision
    /// gradient's per-level error *differences* pay for compression on
    /// either summary family.
    pub fn combine(&self, other: &Self) -> Self {
        // Copy the larger map, add the smaller one into it.
        let (big, small) = if self.nodes.len() >= other.nodes.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = big.clone();
        out.combine_into(small);
        out
    }

    /// [`combine`](Self::combine) in place: add `other`'s counts node by
    /// node into this digest. The same representation `combine` builds,
    /// without copying either map.
    pub fn combine_into(&mut self, other: &Self) {
        assert_eq!(
            self.bits, other.bits,
            "cannot combine q-digests over different domains"
        );
        for (&k, &c) in &other.nodes {
            *self.nodes.entry(k).or_insert(0) += c;
        }
        self.n += other.n;
        self.uncertainty += other.uncertainty;
    }

    /// Reduce (compress) the digest toward the budget: repeatedly merge
    /// the cheapest pair of span-adjacent nodes into their **least
    /// common dyadic ancestor** while the digest's exact worst-case
    /// path lift stays within `e_target`. A no-op if `e_target ≤ E` or
    /// no merge fits the budget.
    ///
    /// Merging straight into the LCA matters on sparse domains: sensor
    /// readings rarely occupy sibling leaves, so a level-by-level
    /// sibling merge would spend the whole budget lifting singletons
    /// through empty levels without ever removing a node. Jumping to
    /// the join point charges each merge once (the combined count lands
    /// on one interior node) and always removes a node. After every
    /// merge the uncertainty is re-derived as the *exact* maximum
    /// root-path interior mass — the quantity rank queries actually
    /// see — so small budgets buy real compression and the advertised
    /// `E` is tight rather than a telescoped upper bound.
    pub fn reduce(&mut self, e_target: u64) {
        if e_target <= self.uncertainty || self.nodes.len() <= 1 {
            return;
        }
        loop {
            // Nodes in value-span order (shallow container before its
            // descendants at equal `lo`): candidate merges are adjacent
            // pairs in this order.
            let entries: Vec<((u32, u64), u64)> = {
                let mut v: Vec<_> = self.nodes.iter().map(|(&k, &c)| (k, c)).collect();
                v.sort_unstable_by_key(|&((d, p), _)| (p << (self.bits - d), d));
                v
            };
            // Cheapest pair first (smallest combined count, then the
            // deepest join — prefer local merges), deterministically.
            let mut best: Option<(u64, std::cmp::Reverse<u32>, usize)> = None;
            for (i, w) in entries.windows(2).enumerate() {
                let (((d1, p1), c1), ((d2, p2), c2)) = (w[0], w[1]);
                let dm = d1.min(d2);
                let diff = (p1 >> (d1 - dm)) ^ (p2 >> (d2 - dm));
                let lca = dm - (u64::BITS - diff.leading_zeros());
                let key = (c1 + c2, std::cmp::Reverse(lca), i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
            let Some((_, std::cmp::Reverse(lca), i)) = best else {
                break;
            };
            let (((d1, p1), c1), ((d2, p2), c2)) = (entries[i], entries[i + 1]);
            let mut trial = self.nodes.clone();
            trial.remove(&(d1, p1));
            trial.remove(&(d2, p2));
            *trial.entry((lca, p1 >> (d1 - lca))).or_insert(0) += c1 + c2;
            let lift = Self::max_path_lift(&trial, self.bits);
            if lift > e_target {
                break;
            }
            self.nodes = trial;
            self.uncertainty = lift;
        }
    }

    /// The exact worst-case root-path interior mass of a node set: the
    /// largest total count parked on internal (non-leaf) nodes along
    /// any root path — precisely the rank slack a query can see.
    fn max_path_lift(nodes: &BTreeMap<(u32, u64), u64>, bits: u32) -> u64 {
        nodes
            .keys()
            .map(|&(depth, prefix)| {
                (0..=depth.min(bits - 1))
                    .filter_map(|d| nodes.get(&(d, prefix >> (depth - d))))
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// Estimate the rank of `value` (number of items ≤ value), with
    /// absolute error at most `E`: nodes entirely at or below `value`
    /// count in full, nodes straddling it count half — the straddlers
    /// all sit on one root path, so their total is bounded by the path
    /// lift, i.e. by `E`.
    pub fn rank(&self, value: u64) -> u64 {
        let mut full = 0u64;
        let mut straddle = 0u64;
        for (&(depth, prefix), &c) in &self.nodes {
            let (lo, hi) = self.span(depth, prefix);
            if hi <= value {
                full += c;
            } else if lo <= value {
                straddle += c;
            }
        }
        full + straddle / 2
    }

    /// The φ-quantile (0 ≤ φ ≤ 1): walk nodes in post-order (ascending
    /// range end, smaller ranges first) accumulating counts, and report
    /// the range end where the accumulation crosses `⌈φ·n⌉` — a value
    /// whose rank is within the digest's uncertainty of the target.
    /// Monotone in φ by construction. `None` on an empty digest.
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let target = (phi.clamp(0.0, 1.0) * self.n as f64).ceil() as u64;
        let mut order: Vec<(u64, u64, u64)> = self
            .nodes
            .iter()
            .map(|(&(d, p), &c)| {
                let (lo, hi) = self.span(d, p);
                (hi, hi - lo, c)
            })
            .collect();
        order.sort_unstable();
        let mut acc = 0u64;
        for &(hi, _, c) in &order {
            acc += c;
            if acc >= target {
                return Some(hi);
            }
        }
        order.last().map(|&(hi, _, _)| hi)
    }

    /// Estimated frequency of the exact value `u`: `rank(u) − rank(u−1)`,
    /// within `2E` of the true frequency (the same derivation as
    /// [`GkSummary::frequency`](crate::summary::GkSummary::frequency)).
    pub fn frequency(&self, u: u64) -> u64 {
        let hi = self.rank(u);
        let lo = if u == 0 { 0 } else { self.rank(u - 1) };
        hi.saturating_sub(lo)
    }

    /// The stored dyadic nodes `((depth, prefix), count)` — exposed for
    /// tests and diagnostics.
    pub fn nodes(&self) -> impl Iterator<Item = ((u32, u64), u64)> + '_ {
        self.nodes.iter().map(|(&k, &c)| (k, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn true_rank(values: &[u64], v: u64) -> u64 {
        values.iter().filter(|&&x| x <= v).count() as u64
    }

    #[test]
    fn exact_digest_ranks() {
        let vals = vec![5, 1, 9, 1, 7];
        let d = QDigest::exact(&vals, 4);
        d.check_invariant().unwrap();
        assert_eq!(d.population(), 5);
        assert_eq!(d.uncertainty(), 0);
        for v in 0..16 {
            assert_eq!(d.rank(v), true_rank(&vals, v), "rank({v})");
        }
        assert_eq!(d.frequency(1), 2);
        assert_eq!(d.frequency(9), 1);
        assert_eq!(d.frequency(4), 0);
    }

    #[test]
    fn empty_digest() {
        let d = QDigest::empty(8);
        assert!(d.is_empty());
        assert_eq!(d.quantile(0.5), None);
        assert_eq!(d.rank(10), 0);
        d.check_invariant().unwrap();
    }

    #[test]
    fn out_of_domain_values_saturate() {
        let d = QDigest::exact(&[1000, 3], 4);
        assert_eq!(d.population(), 2);
        assert_eq!(d.rank(15), 2);
        assert_eq!(d.rank(3), 1);
    }

    #[test]
    fn combine_is_exact_nodewise_addition() {
        let a = QDigest::exact(&[1, 3, 5], 4);
        let b = QDigest::exact(&[2, 4, 5], 4);
        let c = a.combine(&b);
        c.check_invariant().unwrap();
        assert_eq!(c.population(), 6);
        assert_eq!(c.uncertainty(), 0);
        assert_eq!(c, b.combine(&a), "representation-level commutativity");
        for v in 0..16 {
            assert_eq!(c.rank(v), true_rank(&[1, 3, 5, 2, 4, 5], v));
        }
    }

    #[test]
    fn reduce_shrinks_and_stays_valid() {
        let vals: Vec<u64> = (0..1000).collect();
        let mut d = QDigest::exact(&vals, 10);
        let before = d.len();
        d.reduce(50);
        d.check_invariant().unwrap();
        assert!(d.len() < before / 2, "{} nodes after reduce", d.len());
        assert!(d.uncertainty() <= 50);
        for &v in &[0u64, 100, 499, 900, 999] {
            let err = d.rank(v).abs_diff(true_rank(&vals, v));
            assert!(err <= d.uncertainty(), "rank({v}) err {err}");
        }
    }

    #[test]
    fn quantile_error_bounded() {
        let vals: Vec<u64> = (0..2000).collect();
        let mut d = QDigest::exact(&vals, 11);
        d.reduce(100);
        let e = d.uncertainty();
        for &phi in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let q = d.quantile(phi).unwrap();
            let target = (phi * 2000.0).ceil() as u64;
            // q is valid iff rank(q) reaches the target and rank just
            // below q does not overshoot it by more than the slack.
            assert!(
                true_rank(&vals, q) + e >= target,
                "phi {phi}: rank({q}) too low"
            );
            assert!(
                true_rank(&vals, q.saturating_sub(1)) <= target + 2 * e,
                "phi {phi}: rank below {q} too high"
            );
        }
    }

    #[test]
    fn quantile_monotone_in_phi() {
        let vals: Vec<u64> = (0..997).map(|i| (i * 31) % 2048).collect();
        let mut d = QDigest::exact(&vals, 11);
        d.reduce(60);
        let mut prev = 0u64;
        for i in 0..=20 {
            let q = d.quantile(i as f64 / 20.0).unwrap();
            assert!(q >= prev, "quantile not monotone at step {i}");
            prev = q;
        }
    }

    proptest! {
        #[test]
        fn prop_rank_error_within_uncertainty(
            vals in proptest::collection::vec(0u64..4096, 10..400),
            e in 1u64..80,
        ) {
            let mut d = QDigest::exact(&vals, 12);
            d.reduce(e);
            prop_assert!(d.check_invariant().is_ok());
            for &probe in vals.iter().take(20) {
                let err = d.rank(probe).abs_diff(true_rank(&vals, probe));
                prop_assert!(err <= d.uncertainty(), "rank err {err} > E {}", d.uncertainty());
            }
        }

        /// An in-place reading is the one-reading digest combined in,
        /// on the representation, for readings in and out of the domain.
        #[test]
        fn prop_insert_exact_is_combining_a_one_reading_digest(
            vals in proptest::collection::vec(0u64..2048, 0..60),
            e in 0u64..40,
            raw in any::<u64>(),
            shift in 0u32..64,
        ) {
            // Readings of every magnitude: about one in seven fits the
            // 9-bit domain, the rest saturate.
            let v = raw >> shift;
            let mut d = QDigest::exact(&vals, 9);
            d.reduce(e);
            let mut combined = d.clone();
            combined.combine_into(&QDigest::exact(&[v], 9));
            d.insert_exact(v);
            prop_assert!(d.check_invariant().is_ok());
            prop_assert_eq!(d, combined);
        }
    }
}
