//! Duplicate-insensitive counters — the ⊕ abstraction of §6.2.
//!
//! The multi-path frequent-items Algorithm 2 replaces ordinary addition
//! with a duplicate-insensitive sum ⊕ in its Steps 1 and 2. This module
//! defines the [`DiCounter`] trait those steps are generic over, plus
//! two implementations:
//!
//! * [`ExactCounter`] — `εc = 0`, unbounded size. A reference
//!   implementation for tests and ground truth (stores the contributing
//!   populations explicitly).
//! * [`FmCounter`] — the low-overhead best-effort estimator of \[7\] that
//!   the paper's experiments run (§7.4.3): small, ~`1.1/√K` relative
//!   error, not accuracy-preserving in the Definition 1 sense.
//!
//! Every occurrence population is identified by a `salt` (in the frequent
//! items algorithms: the hash of `(item, node)` or `(item, tree-root)`),
//! so re-delivery along multiple paths dedups exactly.
//!
//! An [`FmCounter`] runs on [`fm`]'s kernels, AVX-512 where the
//! CPU has it: a count of at most 16 occurrences is inserted as that many
//! distinct elements, eight hashes per vector; a larger one is drawn, up
//! to 64 streams per vector; an estimate sums `z` sixteen bitmaps per
//! vector. Two trait methods with defaults let a caller hand over many
//! counters at once: [`DiCounter::wire_words_sum`], which the FM counter
//! sizes sixteen counters at a time ([`crate::rle`]), and
//! [`DiCounter::retain_by_estimate`], which it runs with the kernel and
//! the estimate table looked up once. Either way every counter reads the
//! words and the estimate it reads alone.

use crate::fm;

/// A duplicate-insensitive counter: supports adding a population of
/// occurrences identified by a salt, ODI merging, and estimation.
/// (`Send` so synopsis sets built from counters can ride a query's
/// type-erased column to the worker thread that runs it; not `Sync`,
/// because a column is read by one thread at a time.)
pub trait DiCounter: Clone + Send + 'static {
    /// Add `count` occurrences belonging to the population `salt`.
    /// Re-adding the same `(salt, count)` population (possibly via a merged
    /// copy) must not change the estimate.
    fn add_occurrences(&mut self, salt: u64, count: u64);

    /// ⊕: merge another counter of the same configuration.
    fn merge(&mut self, other: &Self);

    /// Estimated total count.
    fn estimate(&self) -> f64;

    /// Wire size in 32-bit words.
    fn wire_words(&self) -> usize;

    /// `Σ wire_words` over `counters`, which is the default. A counter
    /// whose sizing runs faster over many at once sizes them together.
    fn wire_words_sum<'a>(counters: impl Iterator<Item = &'a Self>) -> usize
    where
        Self: 'a,
    {
        counters.map(Self::wire_words).sum()
    }

    /// Keep, in order, the entries whose counter's estimate `ĉ` passes
    /// `keep(ĉ)`: `entries.retain(|(_, c)| keep(c.estimate()))`, which is
    /// the default. A counter whose estimate reads shared state looks it
    /// up once per call rather than once per entry.
    fn retain_by_estimate<T>(entries: &mut Vec<(T, Self)>, mut keep: impl FnMut(f64) -> bool) {
        entries.retain(|(_, c)| keep(c.estimate()));
    }
}

/// A factory producing fresh counters of a fixed configuration; the
/// frequent-items algorithms carry one of these instead of hard-coding a
/// counter type.
pub trait CounterFactory: Clone + Sync {
    /// The counter type produced.
    type Counter: DiCounter;
    /// Create an empty counter.
    fn new_counter(&self) -> Self::Counter;
}

// ---------------------------------------------------------------------
// Exact counter
// ---------------------------------------------------------------------

/// Exact duplicate-insensitive counter: remembers each `(salt, count)`
/// population. Estimate is the exact sum over distinct salts. Size is
/// unbounded — use only for tests/ground truth.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExactCounter {
    populations: std::collections::BTreeMap<u64, u64>,
}

impl ExactCounter {
    /// Create an empty exact counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiCounter for ExactCounter {
    fn add_occurrences(&mut self, salt: u64, count: u64) {
        let entry = self.populations.entry(salt).or_insert(0);
        // The same population must always carry the same count; keep the
        // max so that a re-delivery can never shrink the estimate.
        *entry = (*entry).max(count);
    }

    fn merge(&mut self, other: &Self) {
        for (&salt, &count) in &other.populations {
            self.add_occurrences(salt, count);
        }
    }

    fn estimate(&self) -> f64 {
        self.populations.values().map(|&c| c as f64).sum()
    }

    fn wire_words(&self) -> usize {
        self.populations.len() * 4 // 64-bit salt + 64-bit count
    }
}

/// Factory for [`ExactCounter`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExactFactory;

impl CounterFactory for ExactFactory {
    type Counter = ExactCounter;
    fn new_counter(&self) -> ExactCounter {
        ExactCounter::new()
    }
}

// ---------------------------------------------------------------------
// FM counter
// ---------------------------------------------------------------------

/// Best-effort FM counter (\[7\], as used in the paper's experiments):
/// an FM sketch whose bitmaps live inside the counter when there are at
/// most 16 of them (the frequent-items default).
/// A synopsis carries one counter per item, so inline bitmaps make a
/// synopsis one contiguous allocation: cloning or fusing it costs O(1)
/// allocations rather than one per item. Wider counters keep their
/// bitmaps on the heap; the two layouts estimate, merge and size
/// identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FmCounter {
    bitmaps: Bitmaps,
}

/// Counters up to this many bitmaps store them inline.
const INLINE_BITMAPS: usize = 16;

#[derive(Clone, Debug)]
enum Bitmaps {
    /// `len ≤ INLINE_BITMAPS` bitmaps in the prefix; the rest stay zero.
    Inline {
        len: u8,
        words: [u32; INLINE_BITMAPS],
    },
    Heap(Box<[u32]>),
}

impl Bitmaps {
    fn as_slice(&self) -> &[u32] {
        match self {
            Bitmaps::Inline { len, words } => &words[..*len as usize],
            Bitmaps::Heap(words) => words,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u32] {
        match self {
            Bitmaps::Inline { len, words } => &mut words[..*len as usize],
            Bitmaps::Heap(words) => words,
        }
    }
}

impl PartialEq for Bitmaps {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bitmaps {}

impl FmCounter {
    /// Create an FM counter with `bitmaps` bitmaps.
    ///
    /// # Panics
    /// Panics if `bitmaps == 0`.
    pub fn new(bitmaps: usize) -> Self {
        assert!(bitmaps > 0, "an FM sketch needs at least one bitmap");
        let bitmaps = if bitmaps <= INLINE_BITMAPS {
            Bitmaps::Inline {
                len: bitmaps as u8,
                words: [0; INLINE_BITMAPS],
            }
        } else {
            Bitmaps::Heap(vec![0; bitmaps].into_boxed_slice())
        };
        FmCounter { bitmaps }
    }

    /// The raw bitmaps (the layout of an [`FmSketch`](crate::fm::FmSketch)'s).
    pub fn bitmaps(&self) -> &[u32] {
        self.bitmaps.as_slice()
    }
}

impl DiCounter for FmCounter {
    fn add_occurrences(&mut self, salt: u64, count: u64) {
        fm::insert_value_into(self.bitmaps.as_mut_slice(), salt, count);
    }

    fn merge(&mut self, other: &Self) {
        fm::merge_into(self.bitmaps.as_mut_slice(), other.bitmaps());
    }

    fn estimate(&self) -> f64 {
        fm::estimate_bitmaps(self.bitmaps())
    }

    fn wire_words(&self) -> usize {
        crate::rle::bitmaps_size_bytes(self.bitmaps()).div_ceil(4)
    }

    /// Sixteen counters at a time where the AVX-512 kernels run.
    fn wire_words_sum<'a>(counters: impl Iterator<Item = &'a Self>) -> usize {
        crate::rle::wire_words_sum(counters.map(FmCounter::bitmaps))
    }

    /// The kernel choice and the width's estimate table are looked up
    /// once, from the first entry's width; each entry still reads its own
    /// estimate, bit for bit [`DiCounter::estimate`]'s.
    fn retain_by_estimate<T>(entries: &mut Vec<(T, Self)>, mut keep: impl FnMut(f64) -> bool) {
        let Some((_, first)) = entries.first() else {
            return;
        };
        let estimator = fm::Estimator::new(first.bitmaps().len());
        entries.retain(|(_, c)| keep(estimator.estimate(c.bitmaps())));
    }
}

/// Factory for [`FmCounter`].
#[derive(Clone, Copy, Debug)]
pub struct FmFactory {
    /// Bitmaps per counter.
    pub bitmaps: usize,
}

impl Default for FmFactory {
    fn default() -> Self {
        // Small counters: per-item counts ride alongside many other items
        // in a synopsis, so we use fewer bitmaps than the headline Count
        // aggregate (trade accuracy for message size, as the paper does).
        FmFactory { bitmaps: 16 }
    }
}

impl CounterFactory for FmFactory {
    type Counter = FmCounter;
    fn new_counter(&self) -> FmCounter {
        FmCounter::new(self.bitmaps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn behaves_like_counter<F: CounterFactory>(factory: &F, tolerance: f64) {
        // Three populations summed, delivered redundantly along two paths.
        let mut a = factory.new_counter();
        a.add_occurrences(1, 1000);
        a.add_occurrences(2, 2000);
        let mut b = factory.new_counter();
        b.add_occurrences(2, 2000); // duplicate of population 2
        b.add_occurrences(3, 3000);
        let mut merged = a.clone();
        merged.merge(&b);
        let est = merged.estimate();
        let rel = (est - 6000.0).abs() / 6000.0;
        assert!(rel <= tolerance, "estimate {est} rel {rel}");

        // Idempotence of ⊕.
        let mut twice = merged.clone();
        twice.merge(&merged);
        assert!((twice.estimate() - est).abs() < 1e-9);
    }

    #[test]
    fn exact_counter_is_exact() {
        behaves_like_counter(&ExactFactory, 0.0);
    }

    #[test]
    fn fm_counter_within_tolerance() {
        behaves_like_counter(&FmFactory { bitmaps: 40 }, 0.45);
    }

    #[test]
    fn exact_counter_max_semantics() {
        let mut c = ExactCounter::new();
        c.add_occurrences(1, 10);
        c.add_occurrences(1, 10);
        assert_eq!(c.estimate(), 10.0);
    }

    #[test]
    fn wire_words_scale() {
        let mut exact = ExactCounter::new();
        let mut fm = FmCounter::new(16);
        for salt in 0..100u64 {
            exact.add_occurrences(salt, 5);
            fm.add_occurrences(salt, 5);
        }
        // Exact grows linearly; the sketch stays bounded.
        assert_eq!(exact.wire_words(), 400);
        assert!(fm.wire_words() <= 16 + 4);
    }

    /// Inline or on the heap, an FM counter is the FM sketch it stands
    /// for: same bits, same estimate, same wire size, same merge.
    #[test]
    fn fm_counter_is_an_fm_sketch_in_either_layout() {
        use crate::fm::FmSketch;
        for k in [1, 7, INLINE_BITMAPS, INLINE_BITMAPS + 1, 40] {
            let (mut c, mut s) = (FmCounter::new(k), FmSketch::new(k));
            let (mut c2, mut s2) = (FmCounter::new(k), FmSketch::new(k));
            for salt in 0..30u64 {
                c.add_occurrences(salt, salt * 7 % 50);
                s.insert_value(salt, salt * 7 % 50);
                c2.add_occurrences(salt + 100, 3);
                s2.insert_value(salt + 100, 3);
            }
            c.merge(&c2);
            s.merge(&s2);
            assert_eq!(c.bitmaps(), s.bitmaps(), "k {k}");
            assert_eq!(c.estimate().to_bits(), s.estimate().to_bits());
            assert_eq!(
                c.wire_words(),
                crate::rle::encoded_size_bytes(&s).div_ceil(4)
            );
        }
    }

    /// The FM counter's many-at-once methods read what one counter at a
    /// time reads: the same words in total, and the same entries kept,
    /// over counters of mixed widths (so some are sized as a batch and
    /// some alone) and mixed fills.
    #[test]
    fn fm_counters_together_read_as_one_at_a_time() {
        let counters: Vec<(u64, FmCounter)> = (0..45u64)
            .map(|i| {
                let width = if i % 9 == 4 { 40 } else { INLINE_BITMAPS };
                let mut c = FmCounter::new(width);
                for pop in 0..i % 13 {
                    c.add_occurrences(i * 100 + pop, 1 + (i * 7 + pop * 3) % 90);
                }
                (i, c)
            })
            .collect();
        for n in 0..=counters.len() {
            let group = &counters[..n];
            let one_by_one: usize = group.iter().map(|(_, c)| c.wire_words()).sum();
            assert_eq!(
                FmCounter::wire_words_sum(group.iter().map(|(_, c)| c)),
                one_by_one
            );
        }
        for threshold in [0.0, 3.0, 20.0, 200.0] {
            let mut kept = counters.clone();
            FmCounter::retain_by_estimate(&mut kept, |c| threshold < c);
            let mut expected = counters.clone();
            expected.retain(|(_, c)| threshold < c.estimate());
            assert_eq!(kept, expected, "threshold {threshold}");
        }
    }

    #[test]
    fn empty_counters_estimate_zero() {
        assert_eq!(ExactFactory.new_counter().estimate(), 0.0);
        assert_eq!(FmFactory::default().new_counter().estimate(), 0.0);
    }
}
