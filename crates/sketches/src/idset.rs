//! A dense bitset over node ids.
//!
//! The simulator carries an `IdSet` alongside partial results as
//! *instrumentation*: it records exactly which sensors contributed to a
//! partial result, giving ground truth for the "% of nodes contributing"
//! metric that drives adaptation (§4.1) and for communication-error
//! accounting. Union is idempotent, so the set is safe to carry through
//! multi-path aggregation.

/// A fixed-capacity bitset indexed by node id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IdSet {
    words: Vec<u64>,
    capacity: usize,
}

impl IdSet {
    /// Create an empty set that can hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IdSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Create a set holding a single id.
    pub fn singleton(capacity: usize, id: u32) -> Self {
        let mut s = IdSet::new(capacity);
        s.insert(id);
        s
    }

    /// Capacity (exclusive upper bound on ids).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert an id.
    ///
    /// # Panics
    /// Panics if `id >= capacity`.
    #[inline]
    pub fn insert(&mut self, id: u32) {
        assert!((id as usize) < self.capacity, "id {id} out of capacity");
        self.words[id as usize / 64] |= 1u64 << (id % 64);
    }

    /// Whether the set contains `id`.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        (id as usize) < self.capacity && self.words[id as usize / 64] & (1u64 << (id % 64)) != 0
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove every id, keeping the capacity and the allocation — what
    /// lets the runner's arena free-list recycle contributor sets
    /// instead of allocating a fresh bitset per envelope per epoch.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Union with another set (idempotent ⊕).
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union(&mut self, other: &Self) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Count of ids in `self` but not in `other` (e.g. expected
    /// contributors minus actual contributors).
    pub fn difference_count(&self, other: &Self) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Iterator over ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_len() {
        let mut s = IdSet::new(100);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.len(), 4);
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        assert!(!s.contains(100)); // out of range is just absent
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_range_panics() {
        let mut s = IdSet::new(10);
        s.insert(10);
    }

    #[test]
    fn union_and_difference() {
        let mut a = IdSet::new(200);
        a.insert(1);
        a.insert(2);
        let mut b = IdSet::new(200);
        b.insert(2);
        b.insert(150);
        let mut u = a.clone();
        u.union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(a.difference_count(&b), 1); // {1}
        assert_eq!(b.difference_count(&a), 1); // {150}
                                               // Idempotent union
        let mut uu = u.clone();
        uu.union(&u);
        assert_eq!(uu, u);
    }

    #[test]
    fn iter_ascending() {
        let mut s = IdSet::new(300);
        for id in [5u32, 64, 65, 250, 0] {
            s.insert(id);
        }
        let ids: Vec<u32> = s.iter().collect();
        assert_eq!(ids, vec![0, 5, 64, 65, 250]);
    }

    #[test]
    fn singleton() {
        let s = IdSet::singleton(50, 7);
        assert_eq!(s.len(), 1);
        assert!(s.contains(7));
    }

    #[test]
    fn clear_resets_to_fresh() {
        let mut s = IdSet::new(130);
        for id in [0u32, 64, 129] {
            s.insert(id);
        }
        s.clear();
        assert_eq!(s, IdSet::new(130));
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 130);
        // A cleared set behaves exactly like a fresh one.
        s.insert(99);
        assert_eq!(s, IdSet::singleton(130, 99));
    }

    proptest! {
        #[test]
        fn prop_union_matches_btreeset(xs in proptest::collection::vec(0u32..500, 0..100),
                                       ys in proptest::collection::vec(0u32..500, 0..100)) {
            let mut a = IdSet::new(500);
            let mut b = IdSet::new(500);
            let mut reference = std::collections::BTreeSet::new();
            for &x in &xs { a.insert(x); reference.insert(x); }
            for &y in &ys { b.insert(y); reference.insert(y); }
            a.union(&b);
            let got: Vec<u32> = a.iter().collect();
            let want: Vec<u32> = reference.into_iter().collect();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn prop_difference_count(xs in proptest::collection::vec(0u32..300, 0..80),
                                 ys in proptest::collection::vec(0u32..300, 0..80)) {
            let mut a = IdSet::new(300);
            let mut b = IdSet::new(300);
            let sa: std::collections::BTreeSet<u32> = xs.iter().copied().collect();
            let sb: std::collections::BTreeSet<u32> = ys.iter().copied().collect();
            for &x in &sa { a.insert(x); }
            for &y in &sb { b.insert(y); }
            prop_assert_eq!(a.difference_count(&b), sa.difference(&sb).count());
        }
    }
}
