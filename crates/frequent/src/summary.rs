//! ε-deficient summaries and Algorithm 1.
//!
//! A summary `S = ⟨N, ε, {(u, c̃(u))}⟩` (§6.1.1) over the readings of some
//! subtree satisfies, for every item `u`:
//!
//! ```text
//! max(0, c(u) − ε·N)  ≤  c̃(u)  ≤  c(u)
//! ```
//!
//! where `c(u)` is `u`'s true frequency in the subtree and `N` the
//! subtree's total occurrences. Items with small counts need not be
//! stored — that is the whole point: a node of height `k` decrements every
//! estimate by its *budget gain* `ε(k)·n − Σ_j ε_j·n_j` (Algorithm 1,
//! Step 3) and drops non-positive entries, so at most
//! `1/(ε(k)−ε(k−1))` estimates survive on its outgoing link.

use crate::items::{Item, ItemBag};
use td_sketches::keyed::union_into;

/// An ε-deficient frequent-items summary.
///
/// ```
/// use td_frequent::items::ItemBag;
/// use td_frequent::summary::FreqSummary;
///
/// // Algorithm 1 at a height-2 node: combine two children at ε(2) = 5%.
/// let a = FreqSummary::local(&ItemBag::from_counts([(7, 90), (1, 10)]));
/// let b = FreqSummary::local(&ItemBag::from_counts([(7, 80), (2, 20)]));
/// let s = FreqSummary::combine(&[a, b], &FreqSummary::empty(), 0.05);
/// // The heavy item survives with a deficient (never inflated) count…
/// assert!(s.count(7) <= 170 && s.count(7) >= 170 - 10);
/// // …and is reported at support 50%.
/// assert_eq!(s.report_frequent(0.5), vec![7]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FreqSummary {
    /// Total item occurrences `N` covered by this summary.
    pub n: u64,
    /// The summary's deficiency bound ε (each count may undershoot by up
    /// to `ε·N`).
    pub eps: f64,
    /// `(item, c̃)` sorted by item.
    counts: Vec<(Item, u64)>,
    /// The budget `Σ ε_j·n_j` the summary's inputs spent, summed in
    /// input order as [`combine`](Self::combine) sums it: `ε·N` once
    /// Step 3 has run, the running sum while [`accumulate`](Self::accumulate)
    /// collects inputs.
    spent: f64,
}

impl FreqSummary {
    /// An empty summary (no items, ε = 0).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Exact (ε = 0) summary of a local item collection — the `S0` input
    /// of Algorithm 1.
    pub fn local(bag: &ItemBag) -> Self {
        FreqSummary {
            n: bag.total(),
            eps: 0.0,
            counts: bag.iter().collect(),
            spent: 0.0,
        }
    }

    /// **Algorithm 1**: generate an ε(k)-summary from children summaries
    /// plus the node's own exact summary.
    ///
    /// Steps: (1) `n := Σ n_j + n_0`; (2) pointwise-sum the estimates;
    /// (3) decrement every estimate by `ε(k)·n − Σ_j ε_j·n_j` and drop
    /// non-positive entries.
    ///
    /// # Panics
    /// Panics if `eps_k` is smaller than any input's ε·n share would
    /// allow (a negative decrement means the precision gradient was not
    /// monotone — a caller bug).
    pub fn combine(children: &[FreqSummary], own: &FreqSummary, eps_k: f64) -> FreqSummary {
        // Step 1: total population.
        let n: u64 = children.iter().map(|s| s.n).sum::<u64>() + own.n;
        // Step 2: pointwise sums.
        let mut counts: Vec<(Item, u64)> = Vec::new();
        for s in children.iter().chain(std::iter::once(own)) {
            union_into(&mut counts, &s.counts, |c, d| *c += d, |&d| d, |&d| d);
        }
        // Step 3: uniform decrement by the budget gain.
        let spent: f64 =
            children.iter().map(|s| s.eps * s.n as f64).sum::<f64>() + own.eps * own.n as f64;
        let mut summary = FreqSummary {
            n,
            eps: 0.0,
            counts,
            spent,
        };
        summary.decrement(eps_k, spent);
        summary
    }

    /// Steps 1 and 2 of Algorithm 1 in place, without Step 3: add
    /// `other`'s population and estimates to this summary's. The budget
    /// the inputs have spent, `Σ ε_j·n_j`, is summed in input order (ε
    /// reads its weighted mean meanwhile), so a later
    /// [`finalize`](Self::finalize) charges only the gain. This is how
    /// the Tributary-Delta protocol accumulates a node's children before
    /// its one Step-3 decrement.
    pub fn accumulate(&mut self, other: &FreqSummary) {
        self.spent += other.eps * other.n as f64;
        union_into(
            &mut self.counts,
            &other.counts,
            |c, d| *c += d,
            |&d| d,
            |&d| d,
        );
        self.n += other.n;
        self.eps = if self.n == 0 {
            0.0
        } else {
            self.spent / self.n as f64
        };
    }

    /// Step 3 of Algorithm 1 in place: raise the summary to `eps_k`,
    /// decrementing every estimate by the budget gain `ε(k)·n − Σ ε_j·n_j`
    /// and dropping non-positive entries. A node's local summary with its
    /// children accumulated into it finalizes bit for bit to
    /// `combine(children, local, eps_k)`.
    ///
    /// # Panics
    /// Panics if `eps_k` is below the summary's ε (a non-monotone
    /// precision gradient).
    pub fn finalize(&mut self, eps_k: f64) {
        self.decrement(eps_k, self.spent);
    }

    /// Step 3 with the inputs' spent budget `spent = Σ ε_j·n_j`.
    fn decrement(&mut self, eps_k: f64, spent: f64) {
        let n = self.n;
        let decrement = eps_k * n as f64 - spent;
        assert!(
            decrement >= -1e-9,
            "non-monotone precision gradient: eps_k {eps_k} cannot cover inputs ({spent} over n={n})"
        );
        let dec = decrement.max(0.0);
        self.counts.retain_mut(|(_, c)| {
            let v = *c as f64 - dec;
            if v > 0.0 {
                *c = v.ceil() as u64;
                true
            } else {
                false
            }
        });
        self.eps = eps_k;
        self.spent = eps_k * n as f64;
    }

    /// The ε-deficient count of an item (0 if dropped).
    pub fn count(&self, u: Item) -> u64 {
        self.counts
            .binary_search_by_key(&u, |e| e.0)
            .map_or(0, |i| self.counts[i].1)
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no items are stored.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(item, c̃)` in item order.
    pub fn iter(&self) -> impl Iterator<Item = (Item, u64)> + '_ {
        self.counts.iter().copied()
    }

    /// Report items with `c̃(u) > (s − ε)·N` — all truly frequent items
    /// (frequency ≥ `s·N`) are included; false positives have frequency
    /// at least `(s − ε)·N` (§6 preliminaries).
    pub fn report_frequent(&self, s: f64) -> Vec<Item> {
        let threshold = (s - self.eps) * self.n as f64;
        self.counts
            .iter()
            .filter(|&&(_, c)| c as f64 > threshold)
            .map(|&(u, _)| u)
            .collect()
    }

    /// Wire size in 32-bit words: one word per item id + one per count,
    /// plus 2 header words (`n`, ε) — the unit Figure 8 plots.
    pub fn wire_words(&self) -> usize {
        2 + self.counts.len() * 2
    }

    /// Test helper: check the ε-deficiency invariant against ground truth.
    pub fn check_invariant(&self, truth: &ItemBag) -> Result<(), String> {
        if truth.total() != self.n {
            return Err(format!(
                "population mismatch: summary n={} truth N={}",
                self.n,
                truth.total()
            ));
        }
        let slack = self.eps * self.n as f64 + 1e-9;
        for (u, true_c) in truth.iter() {
            let est = self.count(u);
            if est > true_c {
                return Err(format!("item {u}: estimate {est} > true {true_c}"));
            }
            if (true_c as f64) - (est as f64) > slack {
                return Err(format!(
                    "item {u}: estimate {est} undershoots true {true_c} by more than ε·N = {slack}"
                ));
            }
        }
        // No phantom items.
        for (u, _) in self.iter() {
            if truth.count(u) == 0 {
                return Err(format!("item {u} not present in ground truth"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bag(pairs: &[(Item, u64)]) -> ItemBag {
        ItemBag::from_counts(pairs.iter().copied())
    }

    #[test]
    fn local_summary_is_exact() {
        let b = bag(&[(1, 5), (2, 3)]);
        let s = FreqSummary::local(&b);
        assert_eq!(s.n, 8);
        assert_eq!(s.eps, 0.0);
        assert_eq!(s.count(1), 5);
        s.check_invariant(&b).unwrap();
    }

    #[test]
    fn combine_sums_and_decrements() {
        // Two children with 100 items each, eps 0; own empty; eps_k = 0.05
        // -> decrement = 0.05 * 200 = 10.
        let a = FreqSummary::local(&bag(&[(1, 60), (2, 40)]));
        let b = FreqSummary::local(&bag(&[(1, 60), (3, 40)]));
        let own = FreqSummary::empty();
        let s = FreqSummary::combine(&[a, b], &own, 0.05);
        assert_eq!(s.n, 200);
        assert_eq!(s.count(1), 110); // 120 - 10
        assert_eq!(s.count(2), 30);
        assert_eq!(s.count(3), 30);
    }

    #[test]
    fn combine_drops_small_items() {
        let a = FreqSummary::local(&bag(&[(1, 95), (2, 5)]));
        let s = FreqSummary::combine(&[a], &FreqSummary::empty(), 0.10);
        // decrement = 0.1 * 100 = 10 -> item 2 (5) dropped.
        assert_eq!(s.count(2), 0);
        assert_eq!(s.count(1), 85);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn budget_gain_accounts_for_children_eps() {
        // Child already spent eps 0.04 on its 100 items; raising to 0.05
        // over the same population decrements only by 0.01*100 = 1.
        let child = {
            let local = FreqSummary::local(&bag(&[(1, 50), (2, 50)]));
            FreqSummary::combine(&[local], &FreqSummary::empty(), 0.04)
        };
        let before = child.count(1);
        let s = FreqSummary::combine(&[child], &FreqSummary::empty(), 0.05);
        assert_eq!(s.count(1), before - 1);
    }

    #[test]
    fn finalize_sums_the_spent_budget_as_combine_does() {
        // Min Max-load with ε = 1 % and h = 5: two height-2 children
        // (ε 0.4 %, 100 and 300 occurrences) reach a height-3 node
        // (ε 0.6 %) holding 200 of its own. The gain is 3.6 − 1.6 = 2;
        // a spent budget carried as a weighted-mean ε comes back as
        // 1.6000000000000003, which would leave item 1 (3 occurrences)
        // at 2 instead of 1.
        let (e2, e3) = (0.01 * 2.0 / 5.0, 0.01 * 3.0 / 5.0);
        let child = |pairs: &[(Item, u64)]| {
            FreqSummary::combine(
                &[FreqSummary::local(&bag(pairs))],
                &FreqSummary::empty(),
                e2,
            )
        };
        let children = [
            child(&[(1, 2), (2, 14), (3, 84)]),
            child(&[(1, 2), (2, 17), (4, 281)]),
        ];
        let local = FreqSummary::local(&bag(&[(9, 200)]));
        let mut acc = local.clone();
        for c in &children {
            acc.accumulate(c);
        }
        acc.finalize(e3);
        assert_eq!(acc.count(1), 1);
        assert_eq!(acc, FreqSummary::combine(&children, &local, e3));
    }

    #[test]
    #[should_panic(expected = "non-monotone precision gradient")]
    fn non_monotone_gradient_panics() {
        let child = {
            let local = FreqSummary::local(&bag(&[(1, 100)]));
            FreqSummary::combine(&[local], &FreqSummary::empty(), 0.10)
        };
        let _ = FreqSummary::combine(&[child], &FreqSummary::empty(), 0.05);
    }

    #[test]
    fn report_frequent_no_false_negatives() {
        // Item 1 has frequency 0.3 of N; with s = 0.2, eps = 0.05 it must
        // be reported even after deficiency.
        let a = FreqSummary::local(&bag(&[(1, 300), (2, 150), (3, 550)]));
        let s = FreqSummary::combine(&[a], &FreqSummary::empty(), 0.05);
        let reported = s.report_frequent(0.2);
        assert!(reported.contains(&1));
        assert!(reported.contains(&3));
    }

    #[test]
    fn size_bound_counters_per_link() {
        // Paper §6.1.1: at most 1/(ε(k) − ε(k−1)) items survive Step 3.
        // 1000 distinct items of count 1 each, eps step 0 -> 0.02: at
        // most 50 items (here: zero, since every count ≤ decrement).
        let many: Vec<(Item, u64)> = (0..1000).map(|i| (i, 1)).collect();
        let local = FreqSummary::local(&bag(&many));
        let s = FreqSummary::combine(&[local], &FreqSummary::empty(), 0.02);
        assert!(
            s.len() as f64 <= 1.0 / 0.02 + 1.0,
            "{} items survive",
            s.len()
        );
    }

    #[test]
    fn empty_inputs() {
        let s = FreqSummary::combine(&[], &FreqSummary::empty(), 0.1);
        assert_eq!(s.n, 0);
        assert!(s.is_empty());
        assert_eq!(s.report_frequent(0.01), Vec::<Item>::new());
    }

    #[test]
    fn wire_words_counts_pairs() {
        let s = FreqSummary::local(&bag(&[(1, 5), (2, 3), (9, 1)]));
        assert_eq!(s.wire_words(), 2 + 6);
    }

    proptest! {
        /// The ε-deficiency invariant holds through arbitrary two-level
        /// combines with any monotone pair of budgets.
        #[test]
        fn prop_invariant_through_combines(
            bags in proptest::collection::vec(
                proptest::collection::btree_map(0u64..20, 1u64..50, 1..10), 1..6),
            e1 in 0.0f64..0.1,
            e2_extra in 0.0f64..0.1,
        ) {
            let bags: Vec<ItemBag> = bags
                .into_iter()
                .map(ItemBag::from_counts)
                .collect();
            // Level 1: each bag summarized at eps e1.
            let level1: Vec<FreqSummary> = bags
                .iter()
                .map(|b| FreqSummary::combine(&[FreqSummary::local(b)], &FreqSummary::empty(), e1))
                .collect();
            // Level 2: combine all at eps e1 + e2_extra.
            let root = FreqSummary::combine(&level1, &FreqSummary::empty(), e1 + e2_extra);
            let mut truth = ItemBag::new();
            for b in &bags { truth.merge(b); }
            prop_assert!(root.check_invariant(&truth).is_ok(),
                         "{:?}", root.check_invariant(&truth));
        }

        /// The in-place tributary path is Algorithm 1's `combine`: a
        /// chain of `accumulate`s onto a node's local summary is the
        /// pointwise `BTreeMap` sum with the spent budget summed in
        /// input order (ε its weighted mean), and `finalize` is
        /// `combine` of the same children onto the same local summary —
        /// all to the bit.
        #[test]
        fn prop_accumulate_then_finalize_is_combine(
            bags in proptest::collection::vec(
                proptest::collection::btree_map(0u64..30, 1u64..60, 0..12), 1..6),
            own in proptest::collection::btree_map(0u64..30, 1u64..60, 0..12),
            child_eps in proptest::collection::vec(0.0f64..0.05, 6..7),
            extra in 0.0f64..0.05,
        ) {
            let children: Vec<FreqSummary> = bags
                .into_iter()
                .zip(&child_eps)
                .map(|(b, &e)| {
                    FreqSummary::combine(&[FreqSummary::local(&ItemBag::from_counts(b))], &FreqSummary::empty(), e)
                })
                .collect();
            let local = FreqSummary::local(&ItemBag::from_counts(own));
            let mut acc = local.clone();
            let (mut n, mut spent) = (acc.n, 0.0);
            let mut counts: std::collections::BTreeMap<Item, u64> = acc.iter().collect();
            for c in &children {
                acc.accumulate(c);
                spent += c.eps * c.n as f64;
                for (u, k) in c.iter() {
                    *counts.entry(u).or_insert(0) += k;
                }
                n += c.n;
                let eps = if n == 0 { 0.0 } else { spent / n as f64 };
                prop_assert_eq!(acc.eps.to_bits(), eps.to_bits());
            }
            prop_assert_eq!(acc.n, n);
            prop_assert_eq!(acc.iter().collect::<Vec<_>>(), counts.into_iter().collect::<Vec<_>>());
            let eps_k = child_eps.iter().cloned().fold(0.0, f64::max) + extra;
            let expect = FreqSummary::combine(&children, &local, eps_k);
            acc.finalize(eps_k);
            prop_assert_eq!(acc.eps.to_bits(), expect.eps.to_bits());
            prop_assert_eq!(acc, expect);
        }

        /// Step 3's counter bound: items surviving a combine with budget
        /// difference d are at most 1/d (+1 rounding).
        #[test]
        fn prop_size_bound(
            counts in proptest::collection::btree_map(0u64..1000, 1u64..20, 1..200),
            d in 0.01f64..0.2,
        ) {
            let b = ItemBag::from_counts(counts);
            let local = FreqSummary::local(&b);
            let s = FreqSummary::combine(&[local], &FreqSummary::empty(), d);
            prop_assert!(s.len() as f64 <= 1.0 / d + 1.0,
                         "{} items > 1/{d}", s.len());
        }
    }
}
