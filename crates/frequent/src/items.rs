//! Item collections and exact counting.
//!
//! Following [13, 14] and §6: each sensor node generates a collection of
//! items (e.g. discretized readings); the same item may appear many times
//! at one or more nodes. `c(u)` is an item's total frequency and
//! `N = Σ_u c(u)` the total number of occurrences.

use std::collections::BTreeMap;

/// An item identifier (e.g. a discretized sensor value).
pub type Item = u64;

/// A node's local collection of items, as `(item, count)` pairs.
///
/// ```
/// use td_frequent::items::ItemBag;
///
/// let mut bag = ItemBag::from_counts([(3, 2), (9, 1)]);
/// bag.add(3, 2);
/// assert_eq!(bag.count(3), 4);
/// assert_eq!(bag.total(), 5);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ItemBag {
    counts: BTreeMap<Item, u64>,
}

impl ItemBag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a stream of items.
    #[cfg(test)]
    pub fn from_stream(items: impl IntoIterator<Item = Item>) -> Self {
        let mut bag = ItemBag::new();
        for i in items {
            bag.add(i, 1);
        }
        bag
    }

    /// Build from `(item, count)` pairs.
    pub fn from_counts(pairs: impl IntoIterator<Item = (Item, u64)>) -> Self {
        let mut bag = ItemBag::new();
        for (i, c) in pairs {
            bag.add(i, c);
        }
        bag
    }

    /// Add `count` occurrences of `item`.
    pub fn add(&mut self, item: Item, count: u64) {
        if count > 0 {
            *self.counts.entry(item).or_insert(0) += count;
        }
    }

    /// Merge another bag into this one (multiset union).
    pub fn merge(&mut self, other: &ItemBag) {
        for (&i, &c) in &other.counts {
            self.add(i, c);
        }
    }

    /// Frequency of one item.
    pub fn count(&self, item: Item) -> u64 {
        self.counts.get(&item).copied().unwrap_or(0)
    }

    /// Total occurrences `N` in this bag.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of distinct items.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Whether the bag is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterate `(item, count)` in item order.
    pub fn iter(&self) -> impl Iterator<Item = (Item, u64)> + '_ {
        self.counts.iter().map(|(&i, &c)| (i, c))
    }

    /// The items with frequency strictly greater than `threshold`.
    pub fn items_above(&self, threshold: f64) -> Vec<Item> {
        self.counts
            .iter()
            .filter(|(_, &c)| c as f64 > threshold)
            .map(|(&i, _)| i)
            .collect()
    }

    /// Expand back into a stream of individual occurrences (for feeding
    /// value-based structures like GK summaries).
    pub fn expand(&self) -> Vec<Item> {
        let mut out = Vec::with_capacity(self.total() as usize);
        for (&i, &c) in &self.counts {
            out.extend(std::iter::repeat_n(i, c as usize));
        }
        out
    }
}

/// Exact global counts over per-node bags — the ground truth used to
/// measure false positives/negatives (Figure 9).
pub fn count_items(bags: &[ItemBag]) -> ItemBag {
    let mut all = ItemBag::new();
    for b in bags {
        all.merge(b);
    }
    all
}

/// The ground-truth frequent items: frequency > `s · N` where `N` is the
/// total over all bags.
pub fn true_frequent(bags: &[ItemBag], s: f64) -> Vec<Item> {
    let all = count_items(bags);
    let n = all.total() as f64;
    all.items_above(s * n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bag_basics() {
        let mut b = ItemBag::from_stream([1, 2, 2, 3, 3, 3]);
        assert_eq!(b.count(3), 3);
        assert_eq!(b.total(), 6);
        assert_eq!(b.distinct(), 3);
        b.add(1, 4);
        assert_eq!(b.count(1), 5);
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn zero_count_add_is_noop() {
        let mut b = ItemBag::new();
        b.add(7, 0);
        assert!(b.is_empty());
        assert_eq!(b.count(7), 0);
    }

    #[test]
    fn merge_is_multiset_union() {
        let mut a = ItemBag::from_counts([(1, 2), (2, 1)]);
        let b = ItemBag::from_counts([(2, 3), (4, 1)]);
        a.merge(&b);
        assert_eq!(a.count(1), 2);
        assert_eq!(a.count(2), 4);
        assert_eq!(a.count(4), 1);
    }

    #[test]
    fn global_counts_and_frequent() {
        let bags = vec![
            ItemBag::from_counts([(1, 50), (2, 5)]),
            ItemBag::from_counts([(1, 50), (3, 5)]),
        ];
        let all = count_items(&bags);
        assert_eq!(all.total(), 110);
        // s = 0.5: threshold 55 -> only item 1 (count 100).
        assert_eq!(true_frequent(&bags, 0.5), vec![1]);
        // s = 0.01: threshold 1.1 -> all three.
        assert_eq!(true_frequent(&bags, 0.01), vec![1, 2, 3]);
    }

    #[test]
    fn expand_roundtrip() {
        let b = ItemBag::from_counts([(5, 2), (9, 1)]);
        let e = b.expand();
        assert_eq!(e, vec![5, 5, 9]);
        assert_eq!(ItemBag::from_stream(e), b);
    }
}
