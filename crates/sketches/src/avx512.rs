//! The AVX-512 kernels of [`fm`](crate::fm) and [`rle`](crate::rle), and
//! the crate's one `unsafe` block.
//!
//! Four per-bitmap loops have a vector kernel here, each the twin of a
//! portable one in its own module and setting, summing or sizing exactly
//! what that one does:
//!
//! * **value draws** ([`Detected::draw`]): value insertion's band of
//!   uncertain bits, one SplitMix stream per 64-bit lane, up to 64 bitmaps
//!   in lockstep;
//! * **distinct insertion** ([`Detected::insert_distinct`]): each
//!   element's keyed hash for eight bitmaps per vector, and its lowest set
//!   bit (capped at bit 31) ORed in;
//! * **the `z` sum** ([`Detected::sum_z`]): FM's lowest-unset-bit
//!   statistic summed over sixteen bitmaps per vector, for the estimate;
//! * **counter sizing** ([`Detected::wire_words`]): the RLE size of
//!   sixteen frequent-items counters at once, one counter per 32-bit lane
//!   after a transpose, for `rle::wire_words_sum`.
//!
//! Every kernel needs `avx512f`; the hashing ones need `avx512dq`'s 64-bit
//! multiply. All four run behind one token, [`Detected`], which exists only
//! if the CPU reports both features at run time, so either every kernel
//! here runs or none does. Each public method of the token goes through
//! [`Detected::run`], the one place a function compiled for those features
//! is called from code compiled without them — the crate's one `unsafe`
//! block. The kernels call only intrinsics that are safe where their
//! features are enabled and reach memory through slices alone: vectors are
//! built from and read back into arrays, with no pointer loads or stores.

use crate::fm::{Row, BITMAP_KEYS, STREAM_KEY};
use crate::hash::{GOLDEN, KEY_SALT, MIX_MUL, PAIR_MUL};
use crate::rle::{tail_bits_walk, BATCH_WIDTH, HEADER_BITS, TAIL_BITS, TAIL_TABLE_BITS};
use std::arch::x86_64::*;

/// Bitmaps per vector of 64-bit lanes: one stream or hash per lane.
const LANES: usize = 8;

/// Bitmaps per vector of 32-bit lanes.
const WORDS: usize = 16;

/// Vectors of value draws in lockstep: a group of 64 bitmaps.
const MAX_VECTORS: usize = 8;

/// Proof that this CPU runs `avx512f` and `avx512dq`. Its field is private
/// to this module, so [`Detected::new`] is the only way to make one.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Detected(());

/// One kernel call, with its arguments: what [`Detected::run`] hands
/// across the feature boundary.
enum Job<'a> {
    Draw {
        bitmaps: &'a mut [u32],
        mixed_salt: u64,
        row: &'a Row,
    },
    Distinct {
        bitmaps: &'a mut [u32],
        elements: &'a [u64],
    },
    SumZ {
        bitmaps: &'a [u32],
        out: &'a mut (u32, bool),
    },
    WireWords {
        counters: &'a [[u32; BATCH_WIDTH]],
        out: &'a mut usize,
    },
}

impl Detected {
    /// A token if the CPU reports both features, `None` otherwise.
    #[inline]
    pub(crate) fn new() -> Option<Detected> {
        let detected = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
        detected.then_some(Detected(()))
    }

    /// `fm::Kernel::draw` on this CPU's vectors.
    pub(crate) fn draw(self, bitmaps: &mut [u32], mixed_salt: u64, row: &Row) {
        self.run(Job::Draw {
            bitmaps,
            mixed_salt,
            row,
        });
    }

    /// `fm::Kernel::insert_distinct` on this CPU's vectors.
    pub(crate) fn insert_distinct(self, bitmaps: &mut [u32], elements: &[u64]) {
        self.run(Job::Distinct { bitmaps, elements });
    }

    /// `fm::Kernel::sum_z` on this CPU's vectors.
    pub(crate) fn sum_z(self, bitmaps: &[u32]) -> (u32, bool) {
        let mut out = (0, false);
        self.run(Job::SumZ {
            bitmaps,
            out: &mut out,
        });
        out
    }

    /// `rle::wire_words_sum` of up to sixteen counters on this CPU's
    /// vectors.
    pub(crate) fn wire_words(self, counters: &[[u32; BATCH_WIDTH]]) -> usize {
        let mut out = 0;
        self.run(Job::WireWords {
            counters,
            out: &mut out,
        });
        out
    }

    /// Run `job` on the kernels compiled for this token's features.
    #[inline]
    fn run(self, job: Job<'_>) {
        #[allow(unsafe_code)]
        // SAFETY: `run_job` is compiled for `avx512f` and `avx512dq`, so it
        // may run only on a CPU that has both. `self` exists only if
        // `Detected::new` saw `is_x86_feature_detected!("avx512f")` and
        // `is_x86_feature_detected!("avx512dq")` both true at run time.
        unsafe {
            run_job(job)
        }
    }
}

#[target_feature(enable = "avx512f,avx512dq")]
fn run_job(job: Job<'_>) {
    match job {
        Job::Draw {
            bitmaps,
            mixed_salt,
            row,
        } => draw_groups(bitmaps, mixed_salt, row),
        Job::Distinct { bitmaps, elements } => insert_distinct(bitmaps, elements),
        Job::SumZ { bitmaps, out } => *out = sum_z(bitmaps),
        Job::WireWords { counters, out } => *out = wire_words(counters),
    }
}

// ---------------------------------------------------------------------
// Value draws
// ---------------------------------------------------------------------

/// `fm::draw_row` with each SplitMix stream in one 64-bit lane. The x86-64
/// baseline has no 64-bit vector multiply, so eight lanes gain nothing
/// there; `avx512dq`'s `vpmullq` is one.
///
/// Bitmaps go in groups of up to 64 (eight vectors): a group is seeded,
/// then drawn band bit by band bit with its vectors in lockstep, as
/// `draw_row` does with four scalar streams. Each lane computes its
/// bitmap's seed, draws and comparisons with the scalar code's integer
/// operations, so it sets the same bits; lanes past the last bitmap are
/// drawn and dropped.
#[inline(never)]
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

/// `draw_row` over bitmaps `first_k..first_k + group.len()`, which fill
/// `V` vectors, the last one possibly in part.
#[target_feature(enable = "avx512f,avx512dq")]
fn draw_group<const V: usize>(group: &mut [u32], first_k: usize, mixed_salt: u64, row: &Row) {
    // Each stream's state is kept one `GOLDEN` ahead, as `mix64` first
    // adds it: `ahead = state + GOLDEN`.
    let mut ahead: [__m512i; V] = std::array::from_fn(|i| {
        // `SplitMix::new(keyed_mixed(STREAM_KEY, pair_value(mixed_salt, k)))`.
        let k = lane_indices(first_k + LANES * i);
        let pair = _mm512_add_epi64(splat(mixed_salt), mul(k, PAIR_MUL));
        let seed = mix64(_mm512_add_epi64(splat(STREAM_KEY), mul(pair, GOLDEN)));
        _mm512_add_epi64(mix64(seed), splat(GOLDEN))
    });
    let mut drawn = [splat(row.certain as u64); V];
    let band = &row.thresholds[row.lo as usize..row.hi as usize];
    for (j, &threshold) in (row.lo..).zip(band) {
        // `u >> 11 >= t` is `u >= t << 11`, and `t < 2^53` because the
        // band's `p_j ≤ 1 − 1e-12`, so the shift cannot overflow.
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

// ---------------------------------------------------------------------
// Distinct insertion
// ---------------------------------------------------------------------

/// `fm::insert_distinct_into` for every element, sixteen bitmaps at a
/// time: bitmap `k` ORs in bit `min(ρ, 31)` of `keyed_mixed(key_k, e)`,
/// `ρ` its trailing zeros. That bit is the lowest set bit of the hash with
/// bit 31 forced on, which is `y & −y` for `y = h | 2^31` and below bit 32,
/// so no lane counts zeros. The bits of all elements are gathered in
/// registers and ORed into the bitmaps once.
#[inline(never)]
#[target_feature(enable = "avx512f,avx512dq")]
fn insert_distinct(bitmaps: &mut [u32], elements: &[u64]) {
    let cap = splat(1 << 31);
    for (c, chunk) in bitmaps.chunks_mut(WORDS).enumerate() {
        let first_k = WORDS * c;
        let keys = [bitmap_keys(first_k), bitmap_keys(first_k + LANES)];
        let mut bits = [_mm512_setzero_si512(); 2];
        for &element in elements {
            // `mix64(key + e·GOLDEN)`, whose first step adds `GOLDEN`.
            let ahead = splat(element.wrapping_mul(GOLDEN).wrapping_add(GOLDEN));
            for (bits, &key) in bits.iter_mut().zip(&keys) {
                let y = _mm512_or_si512(mix64_ahead(_mm512_add_epi64(key, ahead)), cap);
                let lowest = _mm512_and_si512(y, _mm512_sub_epi64(_mm512_setzero_si512(), y));
                *bits = _mm512_or_si512(*bits, lowest);
            }
        }
        let words = _mm512_or_si512(load_words(chunk), pack_low_halves(bits[0], bits[1]));
        store_words(chunk, words);
    }
}

/// `key_mix(k)` for bitmaps `first_k..first_k + 8`: read from
/// `BITMAP_KEYS` within its 64 entries, mixed lane by lane past them.
#[inline]
#[target_feature(enable = "avx512f,avx512dq")]
fn bitmap_keys(first_k: usize) -> __m512i {
    if let Some(&[k0, k1, k2, k3, k4, k5, k6, k7]) = BITMAP_KEYS.get(first_k..first_k + LANES) {
        let [k0, k1, k2, k3] = [k0 as i64, k1 as i64, k2 as i64, k3 as i64];
        let [k4, k5, k6, k7] = [k4 as i64, k5 as i64, k6 as i64, k7 as i64];
        return _mm512_setr_epi64(k0, k1, k2, k3, k4, k5, k6, k7);
    }
    // `key_mix(k) = mix64(k ^ KEY_SALT)`.
    mix64(_mm512_xor_si512(lane_indices(first_k), splat(KEY_SALT)))
}

// ---------------------------------------------------------------------
// The z statistic
// ---------------------------------------------------------------------

/// `(Σ z, any bit set)` over `bitmaps`, `z` each bitmap's lowest unset
/// position. Bitmaps past the end of the slice read as 0, whose `z` is 0.
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn sum_z(bitmaps: &[u32]) -> (u32, bool) {
    let mut sum = _mm512_setzero_si512();
    let mut any = _mm512_setzero_si512();
    for chunk in bitmaps.chunks(WORDS) {
        let b = load_words(chunk);
        any = _mm512_or_si512(any, b);
        sum = _mm512_add_epi32(sum, lowest_unset(b));
    }
    (
        _mm512_reduce_add_epi32(sum) as u32,
        _mm512_reduce_or_epi32(any) != 0,
    )
}

/// `FmSketch::lowest_unset` of each 32-bit lane. `(b + 1) & !b` is `2^z`
/// (0 for `z = 32`), and the float of a power of two carries its
/// exponent `127 + z` exactly in bits 23..31.
#[inline]
#[target_feature(enable = "avx512f")]
fn lowest_unset(b: __m512i) -> __m512i {
    let power = _mm512_andnot_si512(b, _mm512_add_epi32(b, splat32(1)));
    let biased = _mm512_srli_epi32::<23>(_mm512_castps_si512(_mm512_cvtepu32_ps(power)));
    let saturated = _mm512_cmpeq_epi32_mask(power, _mm512_setzero_si512());
    let biased = _mm512_mask_mov_epi32(biased, saturated, splat32(127 + 32));
    _mm512_add_epi32(biased, splat32(-127))
}

// ---------------------------------------------------------------------
// Counter sizing
// ---------------------------------------------------------------------

/// `TAIL_BITS` as 64 words of four entries, entry `i` in byte `i % 4` of
/// word `i / 4`: four vectors of sixteen words.
const TAIL_WORDS: [[u32; WORDS]; 4] = {
    let mut words = [[0; WORDS]; 4];
    let mut i = 0;
    while i < TAIL_BITS.len() {
        words[i / 64][i / 4 % WORDS] |= (TAIL_BITS[i] as u32) << (8 * (i % 4));
        i += 1;
    }
    words
};

/// `rle::wire_words_sum` of up to sixteen counters of sixteen bitmaps, one
/// counter per 32-bit lane, so that nothing is summed across lanes until
/// the counters' words are added up at the end.
///
/// The counters are transposed: row `k` holds one bitmap of every counter,
/// each lane a counter (rows and lanes come out in a shuffled order, which
/// changes no sum and no median). Each row adds its bitmaps' tails; a tail
/// whose 8 bits above `z` are all it has is read from `TAIL_BITS` (four
/// vectors of packed entries, two two-vector permutes and a byte shift), a
/// longer one is walked by the scalar code. Each lane's median `z`, the `z`
/// of rank 8 that `rle::header_median` picks, is the number of positions
/// `t` at which at most 8 of its bitmaps have `z ≤ t`, found bit by bit
/// from 32 down. The heads are `2⌊lg g⌋ + 1` bits for `g` one more than
/// the zig-zagged `z − median` (the gamma code's length), `⌊lg g⌋` read
/// from the exponent of `g`'s float. A lane past the last counter holds
/// empty bitmaps and is not added.
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn wire_words(counters: &[[u32; BATCH_WIDTH]]) -> usize {
    debug_assert!(counters.len() <= WORDS);
    let mut rows = [_mm512_setzero_si512(); BATCH_WIDTH];
    for (row, counter) in rows.iter_mut().zip(counters) {
        *row = from_words(*counter);
    }
    let rows = transpose(rows);
    let table = [
        from_words(TAIL_WORDS[0]),
        from_words(TAIL_WORDS[1]),
        from_words(TAIL_WORDS[2]),
        from_words(TAIL_WORDS[3]),
    ];
    let one = splat32(1);
    let mut bits = splat32(HEADER_BITS as i32);
    let mut walked = [0u32; WORDS];
    let mut zs = [_mm512_setzero_si512(); BATCH_WIDTH];
    for (z, &b) in zs.iter_mut().zip(&rows) {
        *z = lowest_unset(b);
        // `z + 1 ≤ 33`; a lane shift of 32 or more clears the lane.
        let above = _mm512_srlv_epi32(b, _mm512_add_epi32(*z, one));
        let tabled = _mm512_cmplt_epu32_mask(above, splat32(1 << TAIL_TABLE_BITS));
        let word_index = _mm512_srli_epi32::<2>(above);
        let low = _mm512_permutex2var_epi32(table[0], word_index, table[1]);
        let high = _mm512_permutex2var_epi32(table[2], word_index, table[3]);
        let upper = _mm512_test_epi32_mask(word_index, splat32(32));
        let word = _mm512_mask_blend_epi32(upper, low, high);
        let byte = _mm512_slli_epi32::<3>(_mm512_and_si512(above, splat32(3)));
        let tail = _mm512_and_si512(_mm512_srlv_epi32(word, byte), splat32(0xFF));
        bits = _mm512_mask_add_epi32(bits, tabled, bits, tail);
        if tabled != u16::MAX {
            let above = to_words(above);
            let mut long = !tabled;
            while long != 0 {
                let lane = long.trailing_zeros() as usize;
                walked[lane] += tail_bits_walk(above[lane]);
                long &= long - 1;
            }
        }
    }
    bits = _mm512_add_epi32(bits, from_words(walked));
    // The median: add each power of two, from 32 down, while at most
    // `rank` bitmaps have `z` at or below the position it would reach.
    let rank = splat32((BATCH_WIDTH / 2) as i32);
    let mut median = _mm512_setzero_si512();
    for step in [32, 16, 8, 4, 2, 1] {
        let probe = _mm512_add_epi32(median, splat32(step - 1));
        let mut at_or_below = _mm512_setzero_si512();
        for &z in &zs {
            let hit = _mm512_cmple_epu32_mask(z, probe);
            at_or_below = _mm512_mask_add_epi32(at_or_below, hit, at_or_below, one);
        }
        let fits = _mm512_cmple_epu32_mask(at_or_below, rank);
        median = _mm512_mask_add_epi32(median, fits, median, splat32(step));
    }
    // The header clamps the median to 31.
    let median = _mm512_min_epu32(median, splat32(31));
    for &z in &zs {
        let d = _mm512_sub_epi32(z, median);
        let zigzag = _mm512_xor_si512(_mm512_slli_epi32::<1>(d), _mm512_srai_epi32::<31>(d));
        let g = _mm512_add_epi32(zigzag, one);
        // `g ≤ 65`: its float is exact, with exponent `127 + ⌊lg g⌋`.
        let biased = _mm512_srli_epi32::<23>(_mm512_castps_si512(_mm512_cvtepi32_ps(g)));
        let head = _mm512_sub_epi32(_mm512_slli_epi32::<1>(biased), splat32(2 * 127 - 1));
        bits = _mm512_add_epi32(bits, head);
    }
    // Bytes rounded up, then words: `⌈bits / 32⌉`.
    let words = _mm512_srli_epi32::<5>(_mm512_add_epi32(bits, splat32(31)));
    let live = (1u32 << counters.len()).wrapping_sub(1) as u16;
    _mm512_mask_reduce_add_epi32(live, words) as u32 as usize
}

/// The sixteen rows of a 16 × 16 matrix of words turned so that each lane
/// of the result holds the words of one input row, in some order: the
/// unpack and 128-bit shuffle steps of a transpose, whose row and lane
/// order the callers do not depend on.
#[inline]
#[target_feature(enable = "avx512f")]
fn transpose(r: [__m512i; 16]) -> [__m512i; 16] {
    let mut t = [_mm512_setzero_si512(); 16];
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_epi32(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_epi32(r[2 * i], r[2 * i + 1]);
    }
    let mut u = [_mm512_setzero_si512(); 16];
    for i in 0..4 {
        u[4 * i] = _mm512_unpacklo_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 1] = _mm512_unpackhi_epi64(t[4 * i], t[4 * i + 2]);
        u[4 * i + 2] = _mm512_unpacklo_epi64(t[4 * i + 1], t[4 * i + 3]);
        u[4 * i + 3] = _mm512_unpackhi_epi64(t[4 * i + 1], t[4 * i + 3]);
    }
    for i in 0..2 {
        for m in 0..4 {
            t[8 * i + m] = _mm512_shuffle_i32x4::<0x88>(u[8 * i + m], u[8 * i + 4 + m]);
            t[8 * i + 4 + m] = _mm512_shuffle_i32x4::<0xDD>(u[8 * i + m], u[8 * i + 4 + m]);
        }
    }
    for m in 0..8 {
        u[m] = _mm512_shuffle_i32x4::<0x88>(t[m], t[8 + m]);
        u[8 + m] = _mm512_shuffle_i32x4::<0xDD>(t[m], t[8 + m]);
    }
    u
}

// ---------------------------------------------------------------------
// Lane helpers
// ---------------------------------------------------------------------

/// `x` in every 64-bit lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn splat(x: u64) -> __m512i {
    _mm512_set1_epi64(x as i64)
}

/// `x` in every 32-bit lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn splat32(x: i32) -> __m512i {
    _mm512_set1_epi32(x)
}

/// `first, first + 1, …, first + 7` in the 64-bit lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn lane_indices(first: usize) -> __m512i {
    let lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
    _mm512_add_epi64(splat(first as u64), lane)
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

/// The low 32 bits of each 64-bit lane, lane 0 first.
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

/// The low 32 bits of the 64-bit lanes of `a`, then of `b`, as sixteen
/// 32-bit lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn pack_low_halves(a: __m512i, b: __m512i) -> __m512i {
    use std::arch::x86_64::{_mm512_castsi256_si512, _mm512_inserti64x4};
    _mm512_inserti64x4::<1>(
        _mm512_castsi256_si512(_mm512_cvtepi64_epi32(a)),
        _mm512_cvtepi64_epi32(b),
    )
}

/// Sixteen words in the 32-bit lanes, word 0 first.
#[inline]
#[target_feature(enable = "avx512f")]
fn from_words(words: [u32; WORDS]) -> __m512i {
    let mut w = [0i32; WORDS];
    for (lane, word) in w.iter_mut().zip(words) {
        *lane = word as i32;
    }
    _mm512_setr_epi32(
        w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8], w[9], w[10], w[11], w[12], w[13],
        w[14], w[15],
    )
}

/// Up to sixteen words in the 32-bit lanes, word 0 first; lanes past the
/// slice read 0. Sixteen or eight words are one load; other lengths are
/// copied into a zeroed array first.
#[inline]
#[target_feature(enable = "avx512f")]
fn load_words(words: &[u32]) -> __m512i {
    if let Ok(all) = <&[u32; WORDS]>::try_from(words) {
        return from_words(*all);
    }
    if let Ok(half) = <&[u32; WORDS / 2]>::try_from(words) {
        let mut h = [0i32; WORDS / 2];
        for (lane, &word) in h.iter_mut().zip(half) {
            *lane = word as i32;
        }
        let low = _mm256_setr_epi32(h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        return _mm512_zextsi256_si512(low);
    }
    load_padded(words)
}

/// [`load_words`] of a slice of neither sixteen nor eight words.
#[inline(never)]
#[target_feature(enable = "avx512f")]
fn load_padded(words: &[u32]) -> __m512i {
    let mut w = [0; WORDS];
    w[..words.len()].copy_from_slice(words);
    from_words(w)
}

/// Write the first `words.len()` 32-bit lanes of `v` over `words`, the way
/// [`load_words`] reads them.
#[inline]
#[target_feature(enable = "avx512f")]
fn store_words(words: &mut [u32], v: __m512i) {
    let w = to_words(v);
    match <&mut [u32; WORDS]>::try_from(&mut *words) {
        Ok(all) => *all = w,
        Err(_) => words.copy_from_slice(&w[..words.len()]),
    }
}

/// The sixteen 32-bit lanes, lane 0 first.
#[inline]
#[target_feature(enable = "avx512f")]
fn to_words(v: __m512i) -> [u32; WORDS] {
    let quarters = [
        _mm512_extracti32x4_epi32::<0>(v),
        _mm512_extracti32x4_epi32::<1>(v),
        _mm512_extracti32x4_epi32::<2>(v),
        _mm512_extracti32x4_epi32::<3>(v),
    ];
    let mut words = [0; WORDS];
    for (four, q) in words.chunks_exact_mut(4).zip(quarters) {
        four[0] = _mm_extract_epi32::<0>(q) as u32;
        four[1] = _mm_extract_epi32::<1>(q) as u32;
        four[2] = _mm_extract_epi32::<2>(q) as u32;
        four[3] = _mm_extract_epi32::<3>(q) as u32;
    }
    words
}
