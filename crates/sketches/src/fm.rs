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
//! sub-elements were inserted, as in \[5\]. For `v ≤ 16` we insert them
//! literally; above that we use the standard independent-bit
//! approximation (`P[bit j unset] = (1 − 2^{−(j+1)})^v`), with the bits
//! drawn deterministically from the insertion salt so the operation stays
//! duplicate-insensitive: bitmap `k` reads its own SplitMix stream,
//! seeded by `(salt, k)`, one draw per uncertain bit.
//!
//! What the probabilities contribute is a pure function of `v`: the
//! prefix of certainly-set bits, the band of uncertain bits, and one
//! threshold per uncertain bit. One private function, `row(v)`, computes
//! it — the only place `powf` runs — and each thread keeps the rows it
//! computed in a direct-mapped memo of 128 slots keyed by `v`, because
//! readings and item counts recur from epoch to epoch. The thresholds are
//! integers: bit `j` is set when the draw's `next_f64()` is at least
//! `p_j = P[bit j unset]`, and since both sides of that comparison are
//! exact in `f64`, it is the same test as `next_u64() >> 11 ≥
//! ⌈p_j · 2^53⌉` (the argument is at `Row`), so the draw loop does no
//! floating point. The memo cannot reach a result: a slot is read only
//! for the `v` it was computed from and is overwritten whole, never
//! patched, so a hit returns exactly what `row(v)` would compute. Which
//! values happen to be cached — on which thread, after which evictions —
//! changes how long an insertion takes, never the bits it sets.

use crate::hash::{key_mix, keyed_mixed, mix64, pair_value, SplitMix};
use std::cell::RefCell;
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
/// path `K × (32 − lo)` draws, where `lo ≈ lg v − 5` is the lowest bit
/// whose unset probability reaches 1e-12. The band runs up to bit 31 for
/// every `v` from 17 to about 10^11, so readings of 20–130 cost 30–32
/// draws per bitmap. The approximation's marginals are exact (only
/// inter-bit correlation is ignored).
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
        // `keyed(k, element)`, its key half read from the table.
        let key = match BITMAP_KEYS.get(k) {
            Some(&key) => key,
            None => key_mix(k as u64),
        };
        let rho = keyed_mixed(key, element)
            .trailing_zeros()
            .min(BITMAP_BITS - 1);
        *bm |= 1 << rho;
    }
}

/// `key_mix(k)` for the first 64 bitmaps: the key half of bitmap `k`'s
/// hash `keyed(k, element)`, computed at compile time. Wider sketches mix
/// the rest per call.
const BITMAP_KEYS: [u64; 64] = {
    let mut keys = [0; 64];
    let mut k = 0;
    while k < keys.len() {
        keys[k] = key_mix(k as u64);
        k += 1;
    }
    keys
};

/// Key halves of the hashes value insertion draws from:
/// `keyed_pair(0x5EED_F00D, salt, i)` names sub-element `i` on the
/// literal path, `keyed_pair(0xC0DE_CAFE, salt, k)` seeds bitmap `k`'s
/// stream on the approximate one.
const SUB_ELEMENT_KEY: u64 = key_mix(0x5EED_F00D);
const STREAM_KEY: u64 = key_mix(0xC0DE_CAFE);

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
    // The salt half of every `keyed_pair(_, salt, _)` below.
    let mixed_salt = mix64(salt);
    if v <= EXACT_INSERT_LIMIT {
        for i in 0..v {
            let element = keyed_mixed(SUB_ELEMENT_KEY, pair_value(mixed_salt, i));
            insert_distinct_into(bitmaps, element);
        }
        return;
    }
    // Independent-bit approximation (Considine et al. [5]): bit j is
    // set with probability 1 - (1 - 2^{-(j+1)})^v, sampled from a
    // deterministic stream per (salt, bitmap) against the shared row.
    let row = memo_row(v);
    let (quads, tail) = bitmaps.as_chunks_mut::<4>();
    let tail_k = 4 * quads.len();
    for (q, quad) in quads.iter_mut().enumerate() {
        draw_row(quad, 4 * q, mixed_salt, &row);
    }
    for (i, bm) in tail.iter_mut().enumerate() {
        draw_row(std::array::from_mut(bm), tail_k + i, mixed_salt, &row);
    }
}

/// OR `row` into bitmaps `first_k..first_k + N`: the certain bits, then
/// each band bit drawn from that bitmap's own stream. The `N` streams
/// advance in lockstep so their draws overlap in the pipeline; each
/// stream still meets the band bits in order, so every bitmap gets the
/// bits it would get alone.
#[inline(always)]
fn draw_row<const N: usize>(bitmaps: &mut [u32; N], first_k: usize, mixed_salt: u64, row: &Row) {
    let mut streams: [SplitMix; N] = std::array::from_fn(|i| {
        let k = (first_k + i) as u64;
        SplitMix::new(keyed_mixed(STREAM_KEY, pair_value(mixed_salt, k)))
    });
    let mut drawn = [row.certain; N];
    let band = &row.thresholds[row.lo as usize..row.hi as usize];
    for (j, &threshold) in (row.lo..).zip(band) {
        for (bits, stream) in drawn.iter_mut().zip(&mut streams) {
            let set = stream.next_u64() >> 11 >= threshold;
            *bits |= (set as u32) << j;
        }
    }
    for (bm, bits) in bitmaps.iter_mut().zip(drawn) {
        *bm |= bits;
    }
}

/// What inserting a value `v > EXACT_INSERT_LIMIT` does to each bitmap
/// before its draws, shared by every bitmap and every salt.
///
/// Bits far below `lg v` are set for certain and bits far above would
/// stay unset, so only the band `lo..hi` whose unset probability `p_j`
/// lies in `[1e-12, 1 − 1e-12]` is drawn. Bit `j` of the band is set
/// when the bitmap's draw `u` has `next_f64() ≥ p_j`, which the kernel
/// tests as `u >> 11 ≥ thresholds[j]` with `thresholds[j] = ⌈p_j · 2^53⌉`.
/// The two tests agree on every draw: `next_f64()` is `m · 2^-53` for the
/// integer `m = u >> 11 < 2^53`, which is exact in `f64` (53 significant
/// bits, scaled by a power of two), and `p_j · 2^53` is exact too (`p_j`
/// scaled by a power of two, nowhere near overflow or underflow). So
/// `m · 2^-53 ≥ p_j` iff `m ≥ p_j · 2^53` iff `m ≥ ⌈p_j · 2^53⌉`, the
/// last because `m` is an integer; and `⌈p_j · 2^53⌉ ≤ 2^53` converts
/// to `u64` exactly.
#[derive(Clone, Copy)]
struct Row {
    /// The value this row was computed for; 0 marks an empty memo slot
    /// (inserting 0 does nothing and never consults the memo).
    v: u64,
    /// Bits set for certain.
    certain: u32,
    /// The drawn band, `lo..hi` (`lo == hi` when nothing is drawn).
    lo: u32,
    hi: u32,
    /// `⌈p_j · 2^53⌉` for `j` in the band; 0 elsewhere (never read).
    thresholds: [u64; BITMAP_BITS as usize],
}

impl Row {
    const EMPTY: Row = Row {
        v: 0,
        certain: 0,
        lo: 0,
        hi: 0,
        thresholds: [0; BITMAP_BITS as usize],
    };
}

/// The row of `v`: the only place value insertion evaluates `powf`.
fn row(v: u64) -> Row {
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
    // Prefix of certainly-set bits: everything below the band or, with
    // no band at all (v so large that no representable bit is
    // uncertain), everything below the first bit whose p_unset is not
    // vanishing.
    let set_below = if lo == BITMAP_BITS {
        p_unset.iter().take_while(|&&p| p < 1e-12).count() as u32
    } else {
        lo
    };
    let mut thresholds = [0u64; BITMAP_BITS as usize];
    for j in lo..hi {
        let j = j as usize;
        thresholds[j] = (p_unset[j] * (1u64 << 53) as f64).ceil() as u64;
    }
    Row {
        v,
        certain: u32::MAX.checked_shr(BITMAP_BITS - set_below).unwrap_or(0),
        lo: lo.min(hi),
        hi,
        thresholds,
    }
}

/// Rows each thread keeps: 128 × 280 B = 35 KB, allocated on the
/// thread's first approximate insertion.
const MEMO_ROWS: usize = 128;

/// The memo slot of `v`.
fn memo_slot(v: u64) -> usize {
    (v % MEMO_ROWS as u64) as usize
}

thread_local! {
    /// This thread's rows, direct-mapped: slot `memo_slot(v)` holds the
    /// row last computed for a value with that residue.
    static MEMO: RefCell<Box<[Row]>> =
        RefCell::new(vec![Row::EMPTY; MEMO_ROWS].into_boxed_slice());
}

/// `row(v)`, read from this thread's memo when its slot holds `v` and
/// computed into the slot otherwise.
fn memo_row(v: u64) -> Row {
    MEMO.try_with(|memo| {
        let mut memo = memo.borrow_mut();
        let slot = &mut memo[memo_slot(v)];
        if slot.v != v {
            *slot = row(v);
        }
        *slot
    })
    // A thread already tearing down its locals computes the row afresh.
    .unwrap_or_else(|_| row(v))
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

    /// The insertion kernel against its straightforward form: every bit
    /// the fast kernel sets, on every layout, memo state and thread, is
    /// the reference's.
    mod kernel_oracle {
        use super::super::*;
        use crate::counter::{DiCounter, FmCounter};
        use proptest::prelude::*;

        /// The kernel written directly — per-bitmap key mixing, `powf`
        /// per call, float comparisons — kept as the oracle.
        mod reference {
            use super::super::super::{BITMAP_BITS, EXACT_INSERT_LIMIT};
            use crate::hash::{keyed, keyed_pair, SplitMix};

            pub(super) fn insert_distinct_into(bitmaps: &mut [u32], element: u64) {
                for (k, bm) in bitmaps.iter_mut().enumerate() {
                    let h = keyed(k as u64, element);
                    let rho = h.trailing_zeros().min(BITMAP_BITS - 1);
                    *bm |= 1 << rho;
                }
            }

            pub(super) fn insert_value_into(bitmaps: &mut [u32], salt: u64, v: u64) {
                if v == 0 {
                    return;
                }
                if v <= EXACT_INSERT_LIMIT {
                    for i in 0..v {
                        insert_distinct_into(bitmaps, keyed_pair(0x5EED_F00D, salt, i));
                    }
                    return;
                }
                let vf = v as f64;
                let mut p_unset = [0.0f64; BITMAP_BITS as usize];
                let mut lo = BITMAP_BITS;
                let mut hi = 0;
                for (j, p) in p_unset.iter_mut().enumerate() {
                    *p = (1.0 - 2f64.powi(-(j as i32 + 1))).powf(vf);
                    if *p >= 1e-12 && *p <= 1.0 - 1e-12 {
                        lo = lo.min(j as u32);
                        hi = hi.max(j as u32 + 1);
                    }
                }
                let certain: u32 = if lo == BITMAP_BITS {
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
        }

        /// Values at the kernel's seams: the last literal insertion, the
        /// first approximate one, a band ending below bit 31, and no
        /// band at all.
        const EDGE_VALUES: [u64; 5] = [16, 17, 1 << 32, 1 << 40, u64::MAX];

        /// `(salt, v)` inserted into a fresh `k`-bitmap `FmSketch` and
        /// `FmCounter` (inline up to 16 bitmaps, on the heap beyond) sets
        /// the reference's bits.
        fn value_matches_reference(k: usize, salt: u64, v: u64) -> Result<(), String> {
            let mut expected = vec![0u32; k];
            reference::insert_value_into(&mut expected, salt, v);
            let mut sketch = FmSketch::new(k);
            sketch.insert_value(salt, v);
            let mut counter = FmCounter::new(k);
            counter.add_occurrences(salt, v);
            prop_assert_eq!(
                sketch.bitmaps(),
                &expected[..],
                "sketch k {k} v {v} salt {salt:#x}"
            );
            prop_assert_eq!(
                counter.bitmaps(),
                &expected[..],
                "counter k {k} v {v} salt {salt:#x}"
            );
            Ok(())
        }

        proptest! {
            /// Widths 1..=70 cover the inline and heap counters, widths
            /// that are not a multiple of 4, and bitmaps past the 64-entry
            /// key table.
            #[test]
            fn prop_value_insertion_matches_the_reference(
                salt in any::<u64>(),
                v in 0u64..(1 << 20) + 1,
                small in 0u64..200,
                k in 1usize..71,
            ) {
                for v in [v, small].into_iter().chain(EDGE_VALUES) {
                    value_matches_reference(k, salt, v)?;
                }
            }

            #[test]
            fn prop_distinct_insertion_matches_the_reference(
                elements in proptest::collection::vec(any::<u64>(), 1..8),
                k in 1usize..71,
            ) {
                let mut expected = vec![0u32; k];
                let mut sketch = FmSketch::new(k);
                for &e in &elements {
                    reference::insert_distinct_into(&mut expected, e);
                    sketch.insert_distinct(e);
                }
                prop_assert_eq!(sketch.bitmaps(), &expected[..]);
            }
        }

        /// Every stored threshold gives the float comparison's answer on
        /// both sides of the boundary, for every value up to 4 096 and
        /// the edge values.
        #[test]
        fn integer_thresholds_are_the_float_comparison() {
            let scale = 1.0 / (1u64 << 53) as f64;
            for v in (EXACT_INSERT_LIMIT + 1..=4096).chain(EDGE_VALUES) {
                let r = row(v);
                for j in r.lo..r.hi {
                    let p = (1.0 - 2f64.powi(-(j as i32 + 1))).powf(v as f64);
                    let t = r.thresholds[j as usize];
                    for m in [t - 1, t, t + 1] {
                        if m < 1 << 53 {
                            assert_eq!(m as f64 * scale >= p, m >= t, "v {v} bit {j} m {m}");
                        }
                    }
                }
            }
        }

        /// Two values sharing a memo slot, interleaved so each insertion
        /// evicts the other's row, run twice on this thread and once on a
        /// fresh one (an empty memo): the same bits as the reference
        /// every time.
        #[test]
        fn memo_state_cannot_reach_results() {
            let v = 40;
            let twin = v + MEMO_ROWS as u64;
            assert_eq!(memo_slot(v), memo_slot(twin));
            let run = move || -> Vec<Vec<u32>> {
                (0..64u64)
                    .map(|i| {
                        let value = if i % 2 == 0 { v } else { twin };
                        let mut s = FmSketch::new(1 + i as usize % 40);
                        s.insert_value(i, value);
                        s.bitmaps().to_vec()
                    })
                    .collect()
            };
            let expected: Vec<Vec<u32>> = (0..64u64)
                .map(|i| {
                    let value = if i % 2 == 0 { v } else { twin };
                    let mut bitmaps = vec![0; 1 + i as usize % 40];
                    reference::insert_value_into(&mut bitmaps, i, value);
                    bitmaps
                })
                .collect();
            assert_eq!(run(), expected);
            // The last insertion evicted `v`'s row: the slot holds the twin.
            MEMO.with(|memo| assert_eq!(memo.borrow()[memo_slot(v)].v, twin));
            assert_eq!(run(), expected);
            let fresh = std::thread::spawn(run).join().expect("insertion thread");
            assert_eq!(fresh, expected);
        }
    }
}
