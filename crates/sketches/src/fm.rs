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
//! it — the only place `powf` runs. Readings and item counts recur from
//! epoch to epoch, so the rows of `v ≤ 256` live in one process-wide
//! table, each entry `row(v)` computed once on first use by whichever
//! thread gets there first; rows of larger values, which rarely recur,
//! are computed on the stack per insertion. The thresholds are
//! integers: bit `j` is set when the draw's `next_f64()` is at least
//! `p_j = P[bit j unset]`, and since both sides of that comparison are
//! exact in `f64`, it is the same test as `next_u64() >> 11 ≥
//! ⌈p_j · 2^53⌉` (the argument is at `Row`), so the draw loop does no
//! floating point. The table cannot reach a result: an entry is written
//! once, whole, by `row(v)` for its own `v`, so whether a row came from
//! the table or the stack, and which thread filled it, changes how long
//! an insertion takes, never the bits it sets.
//!
//! **Kernels.** Three per-bitmap loops run on one of two kernels, picked
//! per call by `Kernel::chosen`: value insertion's draws, distinct
//! insertion (which also runs value insertion's literal path for
//! `v ≤ 16`, and so every small frequent-items count, Count's synopsis and
//! the envelope's count sketch), and the lowest-unset-bit sum behind every
//! estimate. The portable kernel runs them as scalar loops on any CPU —
//! the draws with four streams in lockstep. The AVX-512 kernel (the
//! crate's private `avx512` module) runs them in vectors: up to 64 draw
//! streams in lockstep, one per 64-bit lane; eight distinct-insertion
//! hashes per vector, each element's bits gathered in registers; the `z`
//! sum over sixteen bitmaps per vector. It is picked when the CPU reports
//! `avx512f` and `avx512dq` at run time (every AVX-512 kernel needs only
//! those two), and the portable one otherwise: no option or build flag
//! chooses. The lanes use the scalar code's seeds, stream order, hashes
//! and integer thresholds, so a sketch's bits, and everything estimated
//! from them, do not depend on the CPU. The tests hold each kernel the CPU
//! can run to a straightforward reference (`powf` per call, float
//! comparisons, per-bitmap key mixing, `trailing_zeros` per bitmap) at
//! every width from 1 to 70 and on the kernel's edge values, and check
//! that the dispatch picks AVX-512 exactly when both features are
//! detected.

use crate::hash::{key_mix, keyed_mixed, mix64, pair_value, SplitMix};
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
/// inline-stored [`FmCounter`](crate::counter::FmCounter)), by the fastest
/// kernel this CPU runs.
pub(crate) fn insert_distinct_into(bitmaps: &mut [u32], element: u64) {
    Kernel::chosen().insert_distinct(bitmaps, &[element]);
}

/// The portable distinct insertion: bitmap `k` sets bit `ρ(keyed(k, e))`,
/// capped at 31.
fn insert_one_distinct(bitmaps: &mut [u32], element: u64) {
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
pub(crate) const BITMAP_KEYS: [u64; 64] = {
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
pub(crate) const STREAM_KEY: u64 = key_mix(0xC0DE_CAFE);

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

/// [`FmSketch::insert_value`] over raw bitmaps, drawn by the fastest
/// kernel this CPU runs.
pub(crate) fn insert_value_into(bitmaps: &mut [u32], salt: u64, v: u64) {
    insert_value_with(Kernel::chosen(), bitmaps, salt, v);
}

/// [`insert_value_into`] with `kernel` inserting the literal sub-elements
/// or drawing the approximate path.
fn insert_value_with(kernel: Kernel, bitmaps: &mut [u32], salt: u64, v: u64) {
    if v == 0 {
        return;
    }
    // The salt half of every `keyed_pair(_, salt, _)` below.
    let mixed_salt = mix64(salt);
    if v <= EXACT_INSERT_LIMIT {
        let mut elements = [0; EXACT_INSERT_LIMIT as usize];
        let elements = &mut elements[..v as usize];
        for (i, element) in (0..).zip(elements.iter_mut()) {
            *element = keyed_mixed(SUB_ELEMENT_KEY, pair_value(mixed_salt, i));
        }
        kernel.insert_distinct(bitmaps, elements);
        return;
    }
    // Independent-bit approximation (Considine et al. [5]): bit j is
    // set with probability 1 - (1 - 2^{-(j+1)})^v, sampled from a
    // deterministic stream per (salt, bitmap) against the shared row.
    match tabulated_row(v) {
        Some(row) => kernel.draw(bitmaps, mixed_salt, row),
        None => kernel.draw(bitmaps, mixed_salt, &row(v)),
    }
}

/// Which code runs the per-bitmap loops of insertion, estimation and
/// sizing. Every kernel sets, sums and sizes exactly what the portable one
/// does; they differ only in speed and in the CPUs that can run them.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Kernel {
    /// Scalar loops: any CPU.
    Portable,
    /// [`crate::avx512`]'s vector loops: a CPU with `avx512f` and
    /// `avx512dq`, which the token proves.
    #[cfg(target_arch = "x86_64")]
    Avx512(crate::avx512::Detected),
}

impl Kernel {
    /// The kernel every insertion, estimate and batch of counter sizes
    /// runs: AVX-512 when this CPU reports both features it needs, the
    /// portable one otherwise.
    #[inline]
    pub(crate) fn chosen() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = crate::avx512::Detected::new() {
            return Kernel::Avx512(detected);
        }
        Kernel::Portable
    }

    /// Insert each of `elements` as one distinct element.
    fn insert_distinct(self, bitmaps: &mut [u32], elements: &[u64]) {
        match self {
            Kernel::Portable => {
                for &element in elements {
                    insert_one_distinct(bitmaps, element);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512(detected) => detected.insert_distinct(bitmaps, elements),
        }
    }

    /// `(Σ z, whether any bit is set)` over the bitmaps, `z` each one's
    /// lowest unset position.
    fn sum_z(self, bitmaps: &[u32]) -> (u32, bool) {
        match self {
            Kernel::Portable => {
                let mut any = 0u32;
                let mut sum_z = 0u32;
                for &b in bitmaps {
                    any |= b;
                    sum_z += FmSketch::lowest_unset(b);
                }
                (sum_z, any != 0)
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512(detected) => detected.sum_z(bitmaps),
        }
    }

    /// OR `row` into every bitmap, bitmap `k` drawing from stream `k`.
    fn draw(self, bitmaps: &mut [u32], mixed_salt: u64, row: &Row) {
        match self {
            Kernel::Portable => {
                let (quads, tail) = bitmaps.as_chunks_mut::<4>();
                let tail_k = 4 * quads.len();
                for (q, quad) in quads.iter_mut().enumerate() {
                    draw_row(quad, 4 * q, mixed_salt, row);
                }
                for (i, bm) in tail.iter_mut().enumerate() {
                    draw_row(std::array::from_mut(bm), tail_k + i, mixed_salt, row);
                }
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512(detected) => detected.draw(bitmaps, mixed_salt, row),
        }
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
#[derive(PartialEq, Eq, Debug)]
pub(crate) struct Row {
    /// Bits set for certain.
    pub(crate) certain: u32,
    /// The drawn band, `lo..hi` (`lo == hi` when nothing is drawn).
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    /// `⌈p_j · 2^53⌉` for `j` in the band; 0 elsewhere (never read).
    pub(crate) thresholds: [u64; BITMAP_BITS as usize],
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
        certain: u32::MAX.checked_shr(BITMAP_BITS - set_below).unwrap_or(0),
        lo: lo.min(hi),
        hi,
        thresholds,
    }
}

/// Largest value whose row is tabulated. Synthetic readings (20–130)
/// and most item counts are below it; larger values are mostly converted
/// subtree sums, which rarely recur, and each row costs 280 B of static
/// memory.
const ROW_TABLE_MAX: u64 = 256;

/// The row of `v` from the process-wide table, for `EXACT_INSERT_LIMIT <
/// v ≤ ROW_TABLE_MAX`, each entry [`row`] computed on first use; `None`
/// outside that range, where the caller computes the row itself.
fn tabulated_row(v: u64) -> Option<&'static Row> {
    const ROWS_LEN: usize = (ROW_TABLE_MAX - EXACT_INSERT_LIMIT) as usize;
    static ROWS: [OnceLock<Row>; ROWS_LEN] = [const { OnceLock::new() }; ROWS_LEN];
    (EXACT_INSERT_LIMIT < v && v <= ROW_TABLE_MAX)
        .then(|| ROWS[(v - EXACT_INSERT_LIMIT - 1) as usize].get_or_init(|| row(v)))
}

/// [`FmSketch::estimate`] over raw bitmaps: `2^{Σz / K} / φ`, read from
/// [`estimate_table`] for the common widths.
pub(crate) fn estimate_bitmaps(bitmaps: &[u32]) -> f64 {
    estimate_with(Kernel::chosen(), bitmaps)
}

/// [`estimate_bitmaps`] with `Σz` summed by `kernel`.
fn estimate_with(kernel: Kernel, bitmaps: &[u32]) -> f64 {
    let (sum_z, any) = kernel.sum_z(bitmaps);
    if !any {
        return 0.0;
    }
    match estimate_table(bitmaps.len()) {
        Some(table) => table[sum_z as usize],
        None => estimate_direct(sum_z, bitmaps.len()),
    }
}

/// The estimates of many bitmaps of one width in a row, with the kernel
/// and the width's table looked up once: [`Estimator::estimate`] is
/// [`estimate_bitmaps`], bit for bit.
pub(crate) struct Estimator {
    kernel: Kernel,
    width: usize,
    table: Option<&'static [f64]>,
}

impl Estimator {
    /// An estimator for `width`-bitmap sketches.
    pub(crate) fn new(width: usize) -> Estimator {
        Estimator {
            kernel: Kernel::chosen(),
            width,
            table: estimate_table(width),
        }
    }

    /// The estimate of `bitmaps`; a width other than the estimator's is
    /// estimated as [`estimate_bitmaps`] would.
    #[inline]
    pub(crate) fn estimate(&self, bitmaps: &[u32]) -> f64 {
        if bitmaps.len() != self.width {
            return estimate_with(self.kernel, bitmaps);
        }
        let (sum_z, any) = self.kernel.sum_z(bitmaps);
        if !any {
            return 0.0;
        }
        match self.table {
            Some(table) => table[sum_z as usize],
            None => estimate_direct(sum_z, self.width),
        }
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

/// Every kernel this CPU can run: the portable one, and the AVX-512 one
/// where both its features are detected.
#[cfg(test)]
pub(crate) fn runnable_kernels() -> Vec<Kernel> {
    #[allow(unused_mut)]
    let mut kernels = vec![Kernel::Portable];
    #[cfg(target_arch = "x86_64")]
    kernels.extend(crate::avx512::Detected::new().map(Kernel::Avx512));
    kernels
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
    /// the fast kernel sets, on every layout and thread, with its row from
    /// the table or the stack, is the reference's.
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

        /// `values`, inserted one after another under `salt` into `k`
        /// bitmaps by `kernel`, set the reference's bits after every
        /// insertion: into fresh bitmaps first, then into bitmaps the
        /// earlier values filled.
        fn kernel_matches_reference(
            kernel: Kernel,
            k: usize,
            salt: u64,
            values: impl IntoIterator<Item = u64>,
        ) -> Result<(), String> {
            let mut expected = vec![0u32; k];
            let mut got = vec![0u32; k];
            for v in values {
                reference::insert_value_into(&mut expected, salt, v);
                insert_value_with(kernel, &mut got, salt, v);
                prop_assert_eq!(&got, &expected, "{kernel:?} k {k} v {v} salt {salt:#x}");
            }
            Ok(())
        }

        /// The dispatch runs the AVX-512 kernels exactly when the CPU
        /// reports `avx512f` and `avx512dq`, so a fast path that stops
        /// being chosen fails here rather than going unnoticed. Value
        /// draws, distinct insertion, the `z` sum and `rle`'s counter
        /// sizing all take their kernel from `Kernel::chosen`, and none
        /// needs a feature beyond those two; each entry point is checked
        /// to give the chosen kernel's answer.
        #[test]
        fn the_dispatch_picks_avx512_exactly_when_both_features_are_detected() {
            #[cfg(target_arch = "x86_64")]
            {
                let both =
                    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
                assert_eq!(matches!(Kernel::chosen(), Kernel::Avx512(_)), both);
                assert_eq!(runnable_kernels().len(), 1 + both as usize);
            }
            #[cfg(not(target_arch = "x86_64"))]
            assert!(matches!(Kernel::chosen(), Kernel::Portable));
            let chosen = Kernel::chosen();
            let bitmaps: Vec<u32> = (0..40u32)
                .map(|k| ((1 << (k % 9)) - 1) | (1 << 20))
                .collect();
            let (mut by_entry, mut by_chosen) = (bitmaps.clone(), bitmaps.clone());
            insert_distinct_into(&mut by_entry, 7);
            chosen.insert_distinct(&mut by_chosen, &[7]);
            insert_value_into(&mut by_entry, 3, 12);
            insert_value_with(chosen, &mut by_chosen, 3, 12);
            insert_value_into(&mut by_entry, 3, 90);
            insert_value_with(chosen, &mut by_chosen, 3, 90);
            assert_eq!(by_entry, by_chosen);
            assert_eq!(
                estimate_bitmaps(&by_entry).to_bits(),
                estimate_with(chosen, &by_chosen).to_bits()
            );
            let counters = vec![[0x3F_u32; 16]; 20];
            assert_eq!(
                crate::rle::wire_words_sum(counters.iter().map(|c| &c[..])),
                crate::rle::wire_words_sum_with(chosen, counters.iter().map(|c| &c[..]))
            );
        }

        /// Each kernel at every width 1..=70 (one AVX-512 group of 64 and
        /// a ragged second group at the top, a part-filled last vector at
        /// most widths) against the reference, on the edge values, literal
        /// insertions (`v ≤ 16`) and values across the band's shapes.
        #[test]
        fn each_kernel_matches_the_reference_at_every_width() {
            let values = [1, 2, 5, 12, 17, 40, 130, 300, 1_000, 2_500, 40_000, 1 << 40];
            for kernel in runnable_kernels() {
                for k in 1..=70 {
                    for salt in [0, 1, 0xDEAD_BEEF, u64::MAX] {
                        let values = EDGE_VALUES.into_iter().chain(values);
                        kernel_matches_reference(kernel, k, salt, values).unwrap();
                    }
                }
            }
        }

        proptest! {
            /// Each kernel this CPU runs, called directly rather than
            /// through the dispatch, against the reference.
            #[test]
            fn prop_each_kernel_matches_the_reference(
                salt in any::<u64>(),
                v in 0u64..(1 << 20) + 1,
                small in 0u64..200,
                k in 1usize..71,
            ) {
                for kernel in runnable_kernels() {
                    let values = [v, small].into_iter().chain(EDGE_VALUES);
                    kernel_matches_reference(kernel, k, salt, values)?;
                }
            }

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

            /// Each kernel this CPU runs inserts a batch of elements as the
            /// reference inserts them one by one.
            #[test]
            fn prop_each_kernel_inserts_distinct_as_the_reference(
                start in any::<u64>(),
                elements in proptest::collection::vec(any::<u64>(), 0..18),
                k in 1usize..71,
            ) {
                for kernel in runnable_kernels() {
                    distinct_matches_reference(kernel, k, start, &elements)?;
                }
            }

            /// Each kernel this CPU runs sums `z` and estimates as the
            /// reference, on FM-shaped, saturated, empty and arbitrary
            /// bitmaps, and on sketches grown by insertion.
            #[test]
            fn prop_each_kernel_sums_z_as_the_reference(
                seed in any::<u64>(),
                k in 1usize..71,
                salt in any::<u64>(),
                values in proptest::collection::vec(0u64..5_000, 0..6),
            ) {
                let mut grown = vec![0u32; k];
                for v in values {
                    reference::insert_value_into(&mut grown, salt, v);
                }
                for kernel in runnable_kernels() {
                    sum_z_matches_reference(kernel, &shaped_bitmaps(k, seed))?;
                    sum_z_matches_reference(kernel, &grown)?;
                }
            }
        }

        /// `elements`, inserted by `kernel` as one batch into `k` bitmaps
        /// already holding `start`'s bits, set the reference's bits.
        fn distinct_matches_reference(
            kernel: Kernel,
            k: usize,
            start: u64,
            elements: &[u64],
        ) -> Result<(), String> {
            let mut expected = vec![0u32; k];
            reference::insert_distinct_into(&mut expected, start);
            let mut got = expected.clone();
            for &e in elements {
                reference::insert_distinct_into(&mut expected, e);
            }
            kernel.insert_distinct(&mut got, elements);
            prop_assert_eq!(&got, &expected, "{kernel:?} k {k} elements {elements:x?}");
            Ok(())
        }

        /// FM's `z` sum and estimate, written directly.
        fn reference_sum_z(bitmaps: &[u32]) -> (u32, bool) {
            let sum = bitmaps.iter().map(|&b| (!b).trailing_zeros()).sum();
            (sum, bitmaps.iter().any(|&b| b != 0))
        }

        /// `kernel`'s `z` sum and estimate of `bitmaps` are the reference's
        /// and the portable kernel's, and an `Estimator` of the same or
        /// another width reads the same estimate.
        fn sum_z_matches_reference(kernel: Kernel, bitmaps: &[u32]) -> Result<(), String> {
            let (sum_z, any) = reference_sum_z(bitmaps);
            let k = bitmaps.len();
            prop_assert_eq!(
                kernel.sum_z(bitmaps),
                (sum_z, any),
                "{kernel:?} {bitmaps:x?}"
            );
            prop_assert_eq!(kernel.sum_z(bitmaps), Kernel::Portable.sum_z(bitmaps));
            let expected = if any {
                2f64.powf(sum_z as f64 / k as f64) / PHI
            } else {
                0.0
            };
            let got = estimate_with(kernel, bitmaps);
            prop_assert_eq!(got.to_bits(), expected.to_bits(), "{kernel:?} {bitmaps:x?}");
            for width in [k, k + 1] {
                let estimator = Estimator {
                    kernel,
                    ..Estimator::new(width)
                };
                prop_assert_eq!(estimator.estimate(bitmaps).to_bits(), expected.to_bits());
            }
            Ok(())
        }

        /// Bitmaps of every shape the `z` sum meets, from `seed`: FM-like
        /// (ones below `z`, a few bits above), saturated, empty and
        /// arbitrary.
        fn shaped_bitmaps(k: usize, seed: u64) -> Vec<u32> {
            let mut stream = crate::hash::SplitMix::new(seed);
            (0..k)
                .map(|_| {
                    let r = stream.next_u64();
                    let z = (r >> 8) as u32 % 33;
                    let below = 1u32.checked_shl(z).map_or(u32::MAX, |b| b - 1);
                    match r % 4 {
                        0 => below | ((r >> 32) as u32 & 0xFF).checked_shl(z + 1).unwrap_or(0),
                        1 => u32::MAX,
                        2 => 0,
                        _ => (r >> 32) as u32,
                    }
                })
                .collect()
        }

        /// `mix64`'s inverse, each step undone in reverse order.
        fn unmix64(mut z: u64) -> u64 {
            use crate::hash::{GOLDEN, MIX_MUL};
            // `x ^ (x >> s)` undone by re-applying the shift until it
            // has covered all 64 bits.
            let unshift = |y: u64, s: u32| (1..64 / s + 1).fold(y, |x, _| y ^ (x >> s));
            // The inverse of an odd multiplier mod 2^64, by Newton steps.
            let inverse = |m: u64| {
                (0..6).fold(m, |i, _| {
                    i.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(i)))
                })
            };
            z = unshift(z, 31).wrapping_mul(inverse(MIX_MUL[1]));
            z = unshift(z, 27).wrapping_mul(inverse(MIX_MUL[0]));
            unshift(z, 30).wrapping_sub(GOLDEN)
        }

        /// An element whose hash for bitmap `k` is `hash`: what it takes
        /// to reach the cap of `ρ` at bit 31, which a random element hits
        /// once in 2^31.
        fn element_hashing_to(k: usize, hash: u64) -> u64 {
            use crate::hash::{key_mix, GOLDEN};
            let inverse_golden = (0..6).fold(GOLDEN, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(GOLDEN.wrapping_mul(i)))
            });
            unmix64(hash)
                .wrapping_sub(key_mix(k as u64))
                .wrapping_mul(inverse_golden)
        }

        /// Each kernel's distinct insertion at every width 1..=70 (the
        /// 64-entry key table and past it), in batches of 0 to 17
        /// elements, the literal value path's sizes included; and
        /// elements whose hash for one bitmap has 30, 31, 32 or 64
        /// trailing zeros, on both sides of the cap.
        #[test]
        fn each_kernel_inserts_distinct_elements_as_the_reference() {
            let capped: Vec<u64> = [0, 5, 15, 16, 40, 63, 64, 69]
                .into_iter()
                .flat_map(|k| {
                    [1 << 30, 3 << 31, 1 << 32, 1 << 63, 0].map(|h| element_hashing_to(k, h))
                })
                .collect();
            for (k, hash) in [(0, 1 << 31), (63, 0), (64, 1 << 40)] {
                assert_eq!(
                    crate::hash::keyed(k as u64, element_hashing_to(k, hash)),
                    hash
                );
            }
            for kernel in runnable_kernels() {
                for k in 1..=70 {
                    for n in [0, 1, 2, 7, 16, 17] {
                        let elements: Vec<u64> =
                            (0..n).map(|i| crate::hash::keyed(k as u64, i)).collect();
                        distinct_matches_reference(kernel, k, u64::MAX, &elements).unwrap();
                    }
                    for batch in capped.chunks(5) {
                        distinct_matches_reference(kernel, k, 0, batch).unwrap();
                    }
                }
            }
        }

        /// Each kernel's `z` sum and estimate at every width 1..=70, on
        /// all-zero, saturated and mixed bitmaps.
        #[test]
        fn each_kernel_sums_z_as_the_reference_at_every_width() {
            for kernel in runnable_kernels() {
                for k in 1..=70 {
                    sum_z_matches_reference(kernel, &vec![0; k]).unwrap();
                    sum_z_matches_reference(kernel, &vec![u32::MAX; k]).unwrap();
                    for seed in 0..8 {
                        sum_z_matches_reference(kernel, &shaped_bitmaps(k, seed)).unwrap();
                    }
                }
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

        /// Every table entry is a fresh `row(v)`, field for field, and
        /// insertions at the table's last value, the first value past it
        /// and 10^6 set the reference's bits under each kernel, on this
        /// thread and on a fresh one, which reads the rows this one
        /// filled.
        #[test]
        fn the_row_table_cannot_reach_results() {
            for v in EXACT_INSERT_LIMIT + 1..=ROW_TABLE_MAX {
                assert_eq!(tabulated_row(v), Some(&row(v)), "v {v}");
            }
            assert_eq!(tabulated_row(EXACT_INSERT_LIMIT), None);
            assert_eq!(tabulated_row(ROW_TABLE_MAX + 1), None);
            let run = || {
                for kernel in runnable_kernels() {
                    for k in [1, 16, 40, 70] {
                        for salt in [0, 1, 0xDEAD_BEEF, u64::MAX] {
                            let values = [ROW_TABLE_MAX, ROW_TABLE_MAX + 1, 1_000_000];
                            kernel_matches_reference(kernel, k, salt, values).unwrap();
                        }
                    }
                }
            };
            run();
            std::thread::spawn(run).join().expect("insertion thread");
        }
    }
}
