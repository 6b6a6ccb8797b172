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
//! Two kernels draw the band, and both set exactly the same bits. The
//! portable kernel steps four scalar streams in lockstep and runs on any
//! CPU. The AVX-512 kernel puts one stream in each 64-bit lane of a vector
//! and steps up to eight vectors, 64 bitmaps, in lockstep; it needs
//! `avx512dq`'s 64-bit multiply. Each insertion picks the AVX-512 kernel
//! when the CPU reports `avx512f` and `avx512dq` at run time, and the
//! portable one otherwise: no option or build flag chooses. The AVX-512
//! lanes use the scalar code's seeds, stream order and integer thresholds,
//! so a sketch's bits, and everything estimated from them, do not depend on
//! the CPU. The tests hold each kernel the CPU can run to a
//! straightforward reference (`powf` per call, float comparisons) at every
//! width from 1 to 70 and on the kernel's edge values, and check that the
//! dispatch picks AVX-512 exactly when both features are detected. Calling
//! the AVX-512 kernel is the crate's one `unsafe` block.

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

/// [`FmSketch::insert_value`] over raw bitmaps, drawn by the fastest
/// kernel this CPU runs.
pub(crate) fn insert_value_into(bitmaps: &mut [u32], salt: u64, v: u64) {
    insert_value_with(Kernel::chosen(), bitmaps, salt, v);
}

/// [`insert_value_into`] with the approximate path drawn by `kernel`.
fn insert_value_with(kernel: Kernel, bitmaps: &mut [u32], salt: u64, v: u64) {
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
    match tabulated_row(v) {
        Some(row) => kernel.draw(bitmaps, mixed_salt, row),
        None => kernel.draw(bitmaps, mixed_salt, &row(v)),
    }
}

/// A way to draw a row into bitmaps. Every kernel sets exactly the bits
/// [`draw_row`] sets; they differ only in speed and in the CPUs that can
/// run them.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    /// [`draw_row`], four bitmaps at a time: any CPU.
    Portable,
    /// [`avx512`], eight bitmaps per vector: a CPU with `avx512f` and
    /// `avx512dq`, which the token proves.
    #[cfg(target_arch = "x86_64")]
    Avx512(avx512::Detected),
}

impl Kernel {
    /// The kernel value insertion runs: AVX-512 when this CPU reports both
    /// features it needs, the portable one otherwise.
    #[inline]
    fn chosen() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if let Some(detected) = avx512::Detected::new() {
            return Kernel::Avx512(detected);
        }
        Kernel::Portable
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

/// [`draw_row`] with each SplitMix stream in one 64-bit lane of an AVX-512
/// vector. The x86-64 baseline has no 64-bit vector multiply, so eight
/// lanes gain nothing there; `avx512dq`'s `vpmullq` is one.
///
/// Bitmaps go in groups of up to 64 (eight vectors): a group is seeded,
/// then drawn band bit by band bit with its vectors in lockstep, as
/// `draw_row` does with four scalar streams. Each lane computes its
/// bitmap's seed, draws and comparisons with the scalar code's integer
/// operations, so it sets the same bits; lanes past the last bitmap are
/// drawn and dropped. The kernel calls only intrinsics that are safe where
/// their features are enabled, and reaches the bitmaps through the slice
/// alone: no pointer loads or stores.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Row, STREAM_KEY};
    use crate::hash::{GOLDEN, MIX_MUL, PAIR_MUL};
    use std::arch::x86_64::{
        __m512i, _mm256_extract_epi64, _mm512_add_epi64, _mm512_cmpge_epu64_mask,
        _mm512_cvtepi64_epi32, _mm512_mask_or_epi64, _mm512_mullo_epi64, _mm512_set1_epi64,
        _mm512_setr_epi64, _mm512_srli_epi64, _mm512_xor_si512,
    };

    /// Bitmaps per vector: one 64-bit stream per lane.
    const LANES: usize = 8;

    /// Vectors drawn in lockstep: a group of 64 bitmaps.
    const MAX_VECTORS: usize = 8;

    /// Proof that this CPU runs `avx512f` and `avx512dq`. Its field is
    /// private to this module, so [`Detected::new`] is the only way to
    /// make one.
    #[derive(Clone, Copy, Debug)]
    pub(super) struct Detected(());

    impl Detected {
        /// A token if the CPU reports both features, `None` otherwise.
        #[inline]
        pub(super) fn new() -> Option<Detected> {
            let detected =
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
            detected.then_some(Detected(()))
        }

        /// [`Kernel::draw`](super::Kernel::draw) on this CPU's vectors.
        pub(super) fn draw(self, bitmaps: &mut [u32], mixed_salt: u64, row: &Row) {
            #[allow(unsafe_code)]
            // SAFETY: `draw_groups` is compiled for `avx512f` and
            // `avx512dq`, so it may run only on a CPU that has both.
            // `self` exists only if `Detected::new` saw
            // `is_x86_feature_detected!("avx512f")` and
            // `is_x86_feature_detected!("avx512dq")` both true at run time.
            unsafe {
                draw_groups(bitmaps, mixed_salt, row)
            }
        }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    fn draw_groups(bitmaps: &mut [u32], mixed_salt: u64, row: &Row) {
        let group_len = LANES * MAX_VECTORS;
        for (g, group) in bitmaps.chunks_mut(group_len).enumerate() {
            let first_k = group_len * g;
            // One instance per vector count, so the streams stay in
            // registers.
            match group.len().div_ceil(LANES) {
                1 => draw_group::<1>(group, first_k, mixed_salt, row),
                2 => draw_group::<2>(group, first_k, mixed_salt, row),
                3 => draw_group::<3>(group, first_k, mixed_salt, row),
                4 => draw_group::<4>(group, first_k, mixed_salt, row),
                5 => draw_group::<5>(group, first_k, mixed_salt, row),
                6 => draw_group::<6>(group, first_k, mixed_salt, row),
                7 => draw_group::<7>(group, first_k, mixed_salt, row),
                _ => draw_group::<MAX_VECTORS>(group, first_k, mixed_salt, row),
            }
        }
    }

    /// `draw_row` over bitmaps `first_k..first_k + group.len()`, which
    /// fill `V` vectors, the last one possibly in part.
    #[target_feature(enable = "avx512f,avx512dq")]
    fn draw_group<const V: usize>(group: &mut [u32], first_k: usize, mixed_salt: u64, row: &Row) {
        let lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
        // Each stream's state is kept one `GOLDEN` ahead, as `mix64`
        // first adds it: `ahead = state + GOLDEN`.
        let mut ahead: [__m512i; V] = std::array::from_fn(|i| {
            // `SplitMix::new(keyed_mixed(STREAM_KEY, pair_value(mixed_salt, k)))`.
            let k = _mm512_add_epi64(splat((first_k + LANES * i) as u64), lane);
            let pair = _mm512_add_epi64(splat(mixed_salt), mul(k, PAIR_MUL));
            let seed = mix64(_mm512_add_epi64(splat(STREAM_KEY), mul(pair, GOLDEN)));
            _mm512_add_epi64(mix64(seed), splat(GOLDEN))
        });
        let mut drawn = [splat(row.certain as u64); V];
        let band = &row.thresholds[row.lo as usize..row.hi as usize];
        for (j, &threshold) in (row.lo..).zip(band) {
            // `u >> 11 >= t` is `u >= t << 11`, and `t < 2^53` because
            // the band's `p_j ≤ 1 − 1e-12`, so the shift cannot overflow.
            let threshold = splat(threshold << 11);
            let bit = splat(1 << j);
            for (ahead, bits) in ahead.iter_mut().zip(&mut drawn) {
                // `next_u64`: step the state, then mix it.
                *ahead = _mm512_add_epi64(*ahead, splat(GOLDEN));
                let set = _mm512_cmpge_epu64_mask(mix64_ahead(*ahead), threshold);
                *bits = _mm512_mask_or_epi64(*bits, set, *bits, bit);
            }
        }
        for (bitmaps, bits) in group.chunks_mut(LANES).zip(drawn) {
            for (bm, bits) in bitmaps.iter_mut().zip(low_halves(bits)) {
                *bm |= bits;
            }
        }
    }

    /// `x` in every lane.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: u64) -> __m512i {
        _mm512_set1_epi64(x as i64)
    }

    /// Lane-wise `wrapping_mul` by a constant.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mul(a: __m512i, by: u64) -> __m512i {
        _mm512_mullo_epi64(a, splat(by))
    }

    /// `hash::mix64`, lane by lane.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mix64(z: __m512i) -> __m512i {
        mix64_ahead(_mm512_add_epi64(z, splat(GOLDEN)))
    }

    /// `mix64(z)` given `z + GOLDEN`: the rest of the finalizer.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn mix64_ahead(z: __m512i) -> __m512i {
        let z = mul(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), MIX_MUL[0]);
        let z = mul(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), MIX_MUL[1]);
        _mm512_xor_si512(z, _mm512_srli_epi64::<31>(z))
    }

    /// The low 32 bits of each lane, lane 0 first.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn low_halves(v: __m512i) -> [u32; LANES] {
        let packed = _mm512_cvtepi64_epi32(v);
        let pairs = [
            _mm256_extract_epi64::<0>(packed),
            _mm256_extract_epi64::<1>(packed),
            _mm256_extract_epi64::<2>(packed),
            _mm256_extract_epi64::<3>(packed),
        ];
        let mut halves = [0; LANES];
        for (two, pair) in halves.chunks_exact_mut(2).zip(pairs) {
            two[0] = pair as u32;
            two[1] = (pair as u64 >> 32) as u32;
        }
        halves
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
struct Row {
    /// Bits set for certain.
    certain: u32,
    /// The drawn band, `lo..hi` (`lo == hi` when nothing is drawn).
    lo: u32,
    hi: u32,
    /// `⌈p_j · 2^53⌉` for `j` in the band; 0 elsewhere (never read).
    thresholds: [u64; BITMAP_BITS as usize],
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

        /// Every kernel this CPU can run: the portable one, and the
        /// AVX-512 one where both its features are detected.
        fn runnable_kernels() -> Vec<Kernel> {
            #[allow(unused_mut)]
            let mut kernels = vec![Kernel::Portable];
            #[cfg(target_arch = "x86_64")]
            kernels.extend(avx512::Detected::new().map(Kernel::Avx512));
            kernels
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

        /// The dispatch runs the AVX-512 kernel exactly when the CPU
        /// reports `avx512f` and `avx512dq`, so a fast path that stops
        /// being chosen fails here rather than going unnoticed.
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
        }

        /// Each kernel at every width 1..=70 (one AVX-512 group of 64 and
        /// a ragged second group at the top, a part-filled last vector at
        /// most widths) against the reference, on the edge values and
        /// values across the band's shapes.
        #[test]
        fn each_kernel_matches_the_reference_at_every_width() {
            let values = [17, 40, 130, 300, 1_000, 2_500, 40_000, 1 << 40];
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
