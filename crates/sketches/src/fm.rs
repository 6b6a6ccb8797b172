//! Flajolet–Martin (FM) probabilistic-counting sketches \[7\].
//!
//! An [`FmSketch`] holds `K` independent 32-bit bitmaps. Inserting a
//! distinct element sets, in each bitmap `k`, bit `ρ(h_k(e))` where `ρ` is
//! the position of the lowest set bit of a fresh hash of `e` — a geometric
//! level. Merging is bitwise OR, which makes the sketch fully ODI: the same
//! element inserted anywhere, any number of times, sets the same bits.
//!
//! **Estimation.** Each bitmap estimates `lg(φ·n)` via `z`, its lowest
//! *unset* bit position (`φ = 0.77351`, FM's magic constant). The sketch
//! estimate is `2^{mean(z)} / φ`; averaging `z` across `K = 40` bitmaps
//! gives a relative standard error of `≈ ln 2 · 1.12 / √K ≈ 12%` — the
//! approximation error the paper reports for the synopsis-diffusion Count
//! and Sum in §7.1 and Figure 2.
//!
//! **Sum insertion.** To add a *value* `v` (e.g. a sensor reading or a
//! converted subtree sum), the sketch behaves as if `v` distinct
//! sub-elements were inserted, as in \[5\]. For small `v` we insert them
//! literally; for large `v` we use the standard independent-bit
//! approximation (`P[bit j unset] = (1 − 2^{−(j+1)})^v`), with the bits
//! drawn deterministically from the insertion salt so the operation stays
//! duplicate-insensitive.

use crate::hash::{keyed, keyed_pair, SplitMix};
use std::sync::OnceLock;

/// Number of bitmaps in the paper's configuration (§7.1).
pub const DEFAULT_BITMAPS: usize = 40;

/// Bits per bitmap (§7.1 uses 32-bit synopses).
pub const BITMAP_BITS: u32 = 32;

/// FM's bias correction constant φ.
pub const PHI: f64 = 0.77351;

/// Threshold below which value insertion inserts literal sub-elements
/// (exact distribution) instead of the independent-bit approximation.
/// Kept small: the literal path costs `v × K` hashes, the approximate
/// path a constant ~`K × log v` draws, and the approximation's marginals
/// are exact (only inter-bit correlation is ignored).
const EXACT_INSERT_LIMIT: u64 = 16;

/// A Flajolet–Martin sketch with `K` independent 32-bit bitmaps.
///
/// ```
/// use td_sketches::fm::FmSketch;
///
/// // Count ~1000 distinct elements across two partial sketches that
/// // overlap — duplicates cannot inflate the estimate.
/// let mut a = FmSketch::default_config();
/// let mut b = FmSketch::default_config();
/// for i in 0..700u64 { a.insert_distinct(i); }
/// for i in 300..1000u64 { b.insert_distinct(i); }
/// a.merge(&b);
/// let est = a.estimate();
/// assert!((est - 1000.0).abs() / 1000.0 < 0.4, "estimate {est}");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FmSketch {
    bitmaps: Vec<u32>,
}

impl FmSketch {
    /// Create an empty sketch with `k` bitmaps.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "an FM sketch needs at least one bitmap");
        FmSketch {
            bitmaps: vec![0; k],
        }
    }

    /// Create an empty sketch with the paper's 40-bitmap configuration.
    pub fn default_config() -> Self {
        FmSketch::new(DEFAULT_BITMAPS)
    }

    /// Number of bitmaps.
    #[inline]
    pub fn num_bitmaps(&self) -> usize {
        self.bitmaps.len()
    }

    /// Raw bitmaps (for the wire encoder).
    #[inline]
    pub fn bitmaps(&self) -> &[u32] {
        &self.bitmaps
    }

    /// Rebuild a sketch from raw bitmaps (the wire decoder).
    pub fn from_bitmaps(bitmaps: Vec<u32>) -> Self {
        assert!(!bitmaps.is_empty());
        FmSketch { bitmaps }
    }

    /// Whether nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.bitmaps.iter().all(|&b| b == 0)
    }

    /// Reset to the empty sketch, keeping the bitmap allocation — the
    /// recycle half of pooled reuse.
    pub fn clear(&mut self) {
        self.bitmaps.fill(0);
    }

    /// Insert one distinct element. Re-inserting the same element is a
    /// no-op in effect (same bits), which is the ODI property.
    pub fn insert_distinct(&mut self, element: u64) {
        insert_distinct_into(&mut self.bitmaps, element);
    }

    /// Add a non-negative integer value `v` under an insertion salt.
    ///
    /// Semantically inserts `v` distinct sub-elements `(salt, 0..v)`; the
    /// same `(salt, v)` pair always produces the same bits, so converted
    /// partial results can safely travel multiple paths. Different salts
    /// (e.g. different tree roots) contribute independently.
    pub fn insert_value(&mut self, salt: u64, v: u64) {
        insert_value_into(&mut self.bitmaps, salt, v);
    }

    /// ⊕: bitwise OR of bitmaps. Commutative, associative, idempotent.
    ///
    /// # Panics
    /// Panics if the sketches have different bitmap counts.
    pub fn merge(&mut self, other: &Self) {
        merge_into(&mut self.bitmaps, &other.bitmaps);
    }

    /// Position of the lowest unset bit of a bitmap (FM's `z` statistic).
    #[inline]
    pub fn lowest_unset(bitmap: u32) -> u32 {
        (!bitmap).trailing_zeros()
    }

    /// Estimate the number of distinct elements (or total inserted value).
    ///
    /// `2^{mean(z)} / φ`, with an empty sketch estimating 0.
    pub fn estimate(&self) -> f64 {
        estimate_bitmaps(&self.bitmaps)
    }
}

/// [`FmSketch::insert_distinct`] over raw bitmaps (shared with the
/// inline-stored [`FmCounter`](crate::counter::FmCounter)).
pub(crate) fn insert_distinct_into(bitmaps: &mut [u32], element: u64) {
    for (k, bm) in bitmaps.iter_mut().enumerate() {
        let h = keyed(k as u64, element);
        let rho = h.trailing_zeros().min(BITMAP_BITS - 1);
        *bm |= 1 << rho;
    }
}

/// [`FmSketch::merge`] over raw bitmaps.
pub(crate) fn merge_into(bitmaps: &mut [u32], other: &[u32]) {
    assert_eq!(
        bitmaps.len(),
        other.len(),
        "cannot merge FM sketches of different widths"
    );
    for (a, b) in bitmaps.iter_mut().zip(other) {
        *a |= b;
    }
}

/// [`FmSketch::insert_value`] over raw bitmaps.
pub(crate) fn insert_value_into(bitmaps: &mut [u32], salt: u64, v: u64) {
    if v == 0 {
        return;
    }
    if v <= EXACT_INSERT_LIMIT {
        for i in 0..v {
            insert_distinct_into(bitmaps, keyed_pair(0x5EED_F00D, salt, i));
        }
        return;
    }
    // Independent-bit approximation (Considine et al. [5]): bit j is
    // set with probability 1 - (1 - 2^{-(j+1)})^v, sampled from a
    // deterministic stream per (salt, bitmap). The probability table
    // depends only on (j, v), so it is computed once and shared by
    // all bitmaps; bits far below lg v are certainly set and bits far
    // above certainly unset, so only the uncertain band is sampled.
    let vf = v as f64;
    let mut p_unset = [0.0f64; BITMAP_BITS as usize];
    let mut lo = BITMAP_BITS; // first uncertain bit
    let mut hi = 0; // one past the last uncertain bit
    for (j, p) in p_unset.iter_mut().enumerate() {
        *p = (1.0 - 2f64.powi(-(j as i32 + 1))).powf(vf);
        if *p >= 1e-12 && *p <= 1.0 - 1e-12 {
            lo = lo.min(j as u32);
            hi = hi.max(j as u32 + 1);
        }
    }
    // Prefix of certainly-set bits (everything below the band whose
    // p_unset vanished).
    let certain: u32 = if lo == BITMAP_BITS {
        // No uncertain band: v is so large every representable bit is
        // effectively set below the vanishing point.
        let set_below = p_unset.iter().take_while(|&&p| p < 1e-12).count() as u32;
        if set_below >= 32 {
            u32::MAX
        } else {
            (1u32 << set_below) - 1
        }
    } else if lo >= 32 {
        u32::MAX
    } else {
        (1u32 << lo) - 1
    };
    for (k, bm) in bitmaps.iter_mut().enumerate() {
        *bm |= certain;
        if lo >= hi {
            continue;
        }
        let mut stream = SplitMix::new(keyed_pair(0xC0DE_CAFE, salt, k as u64));
        for j in lo..hi {
            if stream.next_f64() >= p_unset[j as usize] {
                *bm |= 1 << j;
            }
        }
    }
}

/// [`FmSketch::estimate`] over raw bitmaps: `2^{Σz / K} / φ`, read from
/// [`estimate_table`] for the common widths.
pub(crate) fn estimate_bitmaps(bitmaps: &[u32]) -> f64 {
    let mut any = 0u32;
    let mut sum_z = 0u32;
    for &b in bitmaps {
        any |= b;
        sum_z += FmSketch::lowest_unset(b);
    }
    if any == 0 {
        return 0.0;
    }
    match estimate_table(bitmaps.len()) {
        Some(table) => table[sum_z as usize],
        None => estimate_direct(sum_z, bitmaps.len()),
    }
}

/// The estimate expression itself, for `Σz` over `k` bitmaps.
fn estimate_direct(sum_z: u32, k: usize) -> f64 {
    let mean_z = sum_z as f64 / k as f64;
    2f64.powf(mean_z) / PHI
}

/// Widest sketch whose estimates are tabulated; wider ones evaluate
/// [`estimate_direct`] per call.
const MAX_TABLE_BITMAPS: usize = 64;

/// The estimate of a `k`-bitmap sketch for every `Σz` in `0..=32·k`,
/// each entry [`estimate_direct`] evaluated once — so a lookup is bit for
/// bit the expression it replaces. Built on first use of each width (at
/// most 16 KB, for `k = 64`), never for a width nobody estimates.
fn estimate_table(k: usize) -> Option<&'static [f64]> {
    static TABLES: [OnceLock<Box<[f64]>>; MAX_TABLE_BITMAPS + 1] =
        [const { OnceLock::new() }; MAX_TABLE_BITMAPS + 1];
    if k == 0 || k > MAX_TABLE_BITMAPS {
        return None;
    }
    let table = TABLES[k].get_or_init(|| {
        (0..=BITMAP_BITS * k as u32)
            .map(|sum_z| estimate_direct(sum_z, k))
            .collect()
    });
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_estimates_zero() {
        let s = FmSketch::default_config();
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    /// Every entry of every table is the expression it stands for, to
    /// the bit: each width 1..=64 and each `Σz` a sketch of that width
    /// can reach.
    #[test]
    fn estimate_table_is_the_expression_bit_for_bit() {
        for k in 1..=MAX_TABLE_BITMAPS {
            let table = estimate_table(k).expect("tabulated width");
            assert_eq!(table.len(), 32 * k + 1, "width {k}");
            for (sum_z, &entry) in table.iter().enumerate() {
                let direct = 2f64.powf(sum_z as f64 / k as f64) / PHI;
                assert_eq!(entry.to_bits(), direct.to_bits(), "k {k} Σz {sum_z}");
            }
        }
        assert!(estimate_table(0).is_none());
        assert!(estimate_table(MAX_TABLE_BITMAPS + 1).is_none());
    }

    #[test]
    fn reinsertion_is_idempotent() {
        let mut a = FmSketch::new(16);
        a.insert_distinct(42);
        let snapshot = a.clone();
        a.insert_distinct(42);
        assert_eq!(a, snapshot);
    }

    #[test]
    fn merge_is_or() {
        let mut a = FmSketch::new(8);
        a.insert_distinct(1);
        let mut b = FmSketch::new(8);
        b.insert_distinct(2);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Idempotent
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(abb, ab);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_width_mismatch_panics() {
        let mut a = FmSketch::new(8);
        let b = FmSketch::new(16);
        a.merge(&b);
    }

    #[test]
    fn distinct_count_accuracy_at_600() {
        // The paper's Count query over 600 nodes: expect ~12% relative
        // standard error with 40 bitmaps. Use a generous 3-sigma band.
        let mut s = FmSketch::default_config();
        for i in 0..600u64 {
            s.insert_distinct(i);
        }
        let est = s.estimate();
        let rel = (est - 600.0).abs() / 600.0;
        assert!(rel < 0.36, "estimate {est} rel err {rel}");
    }

    #[test]
    fn distinct_count_unbiased_across_salts() {
        // Average estimate over many independent populations should be
        // within a few percent of the truth.
        let n = 500u64;
        let trials = 60;
        let mut total = 0.0;
        for t in 0..trials {
            let mut s = FmSketch::default_config();
            for i in 0..n {
                s.insert_distinct(crate::hash::keyed_pair(77, t, i));
            }
            total += s.estimate();
        }
        let mean = total / trials as f64;
        let rel = (mean - n as f64).abs() / n as f64;
        assert!(rel < 0.06, "mean {mean} rel {rel}");
    }

    #[test]
    fn value_insertion_matches_scale() {
        let mut s = FmSketch::default_config();
        s.insert_value(1, 10_000);
        let est = s.estimate();
        let rel = (est - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.4, "estimate {est}");
    }

    #[test]
    fn value_insertion_small_path_exact_count() {
        // v <= EXACT_INSERT_LIMIT inserts literal sub-elements; estimate
        // should be in a sane band even for tiny v.
        let mut s = FmSketch::default_config();
        s.insert_value(3, 1);
        assert!(s.estimate() >= 1.0);
        assert!(s.estimate() < 6.0);
    }

    #[test]
    fn value_insertion_deterministic_per_salt() {
        let mut a = FmSketch::default_config();
        a.insert_value(9, 5_000);
        let mut b = FmSketch::default_config();
        b.insert_value(9, 5_000);
        assert_eq!(a, b);
        // ODI: merging duplicates changes nothing.
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, a);
    }

    #[test]
    fn sum_of_values_adds_up() {
        // Insert 200 values of 50 under distinct salts: total 10_000.
        let mut s = FmSketch::default_config();
        for salt in 0..200u64 {
            s.insert_value(salt, 50);
        }
        let est = s.estimate();
        let rel = (est - 10_000.0).abs() / 10_000.0;
        assert!(rel < 0.35, "estimate {est} rel {rel}");
    }

    #[test]
    fn duplicate_paths_do_not_inflate_count() {
        // Simulate multi-path: the same local synopses merged along two
        // different paths, then combined. Estimate must equal the
        // single-path estimate exactly.
        let locals: Vec<FmSketch> = (0..50u64)
            .map(|i| {
                let mut s = FmSketch::new(16);
                s.insert_distinct(i);
                s
            })
            .collect();
        let mut path_a = FmSketch::new(16);
        for s in &locals[..30] {
            path_a.merge(s);
        }
        let mut path_b = FmSketch::new(16);
        for s in &locals[10..] {
            path_b.merge(s); // overlaps path_a on 10..30
        }
        let mut multi = path_a.clone();
        multi.merge(&path_b);
        let mut single = FmSketch::new(16);
        for s in &locals {
            single.merge(s);
        }
        assert_eq!(multi, single);
    }

    proptest! {
        #[test]
        fn prop_merge_commutative(xs in proptest::collection::vec(any::<u64>(), 0..50),
                                  ys in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut a = FmSketch::new(8);
            for &x in &xs { a.insert_distinct(x); }
            let mut b = FmSketch::new(8);
            for &y in &ys { b.insert_distinct(y); }
            let mut ab = a.clone(); ab.merge(&b);
            let mut ba = b.clone(); ba.merge(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn prop_merge_associative(xs in proptest::collection::vec(any::<u64>(), 0..30),
                                  ys in proptest::collection::vec(any::<u64>(), 0..30),
                                  zs in proptest::collection::vec(any::<u64>(), 0..30)) {
            let mk = |els: &[u64]| {
                let mut s = FmSketch::new(8);
                for &e in els { s.insert_distinct(e); }
                s
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));
            let mut left = a.clone(); left.merge(&b); left.merge(&c);
            let mut bc = b.clone(); bc.merge(&c);
            let mut right = a.clone(); right.merge(&bc);
            prop_assert_eq!(left, right);
        }

        #[test]
        fn prop_merge_idempotent(xs in proptest::collection::vec(any::<u64>(), 0..50)) {
            let mut a = FmSketch::new(8);
            for &x in &xs { a.insert_distinct(x); }
            let mut aa = a.clone();
            aa.merge(&a);
            prop_assert_eq!(aa, a);
        }

        #[test]
        fn prop_estimate_monotone_under_merge(xs in proptest::collection::vec(any::<u64>(), 1..50),
                                              ys in proptest::collection::vec(any::<u64>(), 1..50)) {
            let mut a = FmSketch::new(8);
            for &x in &xs { a.insert_distinct(x); }
            let mut b = FmSketch::new(8);
            for &y in &ys { b.insert_distinct(y); }
            let ea = a.estimate();
            a.merge(&b);
            prop_assert!(a.estimate() >= ea - 1e-9);
        }

        /// Tabulated or not, `estimate` is the mean-`z` expression of the
        /// sketch's own bitmaps, bit for bit (widths past the table
        /// included).
        #[test]
        fn prop_estimate_is_the_mean_z_expression(
            xs in proptest::collection::vec(any::<u64>(), 0..200),
            k in 1usize..80,
        ) {
            let mut s = FmSketch::new(k);
            for &x in &xs { s.insert_distinct(x); }
            let sum_z: u32 = s.bitmaps().iter().map(|&b| FmSketch::lowest_unset(b)).sum();
            let expected = if s.is_empty() {
                0.0
            } else {
                2f64.powf(sum_z as f64 / k as f64) / PHI
            };
            prop_assert_eq!(s.estimate().to_bits(), expected.to_bits());
        }

        #[test]
        fn prop_value_insert_salt_deterministic(salt in any::<u64>(), v in 1u64..100_000) {
            let mut a = FmSketch::new(8);
            a.insert_value(salt, v);
            let mut b = FmSketch::new(8);
            b.insert_value(salt, v);
            prop_assert_eq!(a, b);
        }
    }
}
