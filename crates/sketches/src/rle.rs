//! Wire encoding for FM sketches.
//!
//! A raw 40×32-bit sketch is 160 bytes — four TinyDB messages. But FM
//! bitmaps are extremely regular: a prefix of ones up to ≈ `lg(φn)`, a
//! couple of straggler bits just above, and zeros beyond. §7.1 notes that
//! run-length encoding (\[17\]) packs 40 sum synopses into a single 48-byte
//! message. This module implements a lossless encoding exploiting exactly
//! that structure:
//!
//! * a 6-bit header carries the *median* `z` (lowest-unset position) of all
//!   bitmaps;
//! * each bitmap stores its `z` as a zig-zag Elias-gamma delta from the
//!   median, an Elias-gamma count of set bits above `z`, and each such bit
//!   as a gamma-coded offset;
//! * bits below `z` are all ones by definition of `z` and are not stored.
//!
//! Typical encoded sizes are 25–40 bytes for the paper's configuration
//! (asserted in tests), and the encoding round-trips exactly.
//!
//! # Sizing without encoding
//!
//! The simulator prices every multi-path send by its encoded length,
//! so [`encoded_size_bytes`] computes that length without building the
//! code. A bitmap's code length splits into a *head*, the gamma code of
//! its `z` delta, which depends only on `z − median`, and a *tail*, the
//! count and the offsets of the set bits above `z`, which depend only on
//! those bits. Two tables built at compile time by a `const fn` from the
//! gamma length formula hold both: the head for every `z − median`
//! (65 entries), the tail for every pattern of the 8 bits just above `z`
//! (256 entries). One pass over the bitmaps adds up the tails and
//! counts each `z`; the median and the heads then come from those
//! counts. A bitmap with a set bit more than 8 places above its `z`
//! (rare: FM bitmaps thin out fast above `z`) has its tail walked gap by
//! gap instead. [`encode`] stays the definition of the format, and the
//! tests hold the size to `encode(..).len()` as its oracle.
//!
//! A frequent-items message carries one 16-bitmap counter per item, and
//! the runner prices it by the sum of the counters' sizes in words.
//! Where the AVX-512 kernels run (the crate's private `avx512` module,
//! picked as `fm`'s kernels are), such counters are sized sixteen at a
//! time, one per 32-bit lane after a transpose, so that no step sums
//! across lanes until the counters' words are added up: each lane's tails
//! from the same tables, its median `z` by a bitwise search over the
//! counts of `z ≤ t`, its heads from the gamma code's length formula. One
//! sketch alone, and a batch of fewer than ten counters, is sized by the
//! scalar pass above: a single sketch has too few bitmaps to repay the
//! horizontal steps a vector pass needs for its median. The tests hold
//! both kernels to the encoder, batch by batch.

use crate::fm::{FmSketch, Kernel, BITMAP_BITS};

/// Width of the header that carries the median `z`. It has room for
/// 32, but the median is clamped to 31 (see [`header_median`]).
pub(crate) const HEADER_BITS: u32 = 6;

/// Slots of a `z` histogram: a lowest-unset position runs `0..=32`.
const Z_SLOTS: usize = BITMAP_BITS as usize + 1;

/// A growable bit buffer written MSB-first within each byte.
#[derive(Clone, Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    used_bits: usize,
}

impl BitWriter {
    fn write_bit(&mut self, bit: bool) {
        let byte_idx = self.used_bits / 8;
        if byte_idx == self.bytes.len() {
            self.bytes.push(0);
        }
        if bit {
            self.bytes[byte_idx] |= 0x80 >> (self.used_bits % 8);
        }
        self.used_bits += 1;
    }

    fn bits(&mut self, value: u32, width: u32) {
        for i in (0..width).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    /// Elias-gamma code for `value >= 1`: (N-1) zeros, then the N-bit
    /// value.
    fn gamma(&mut self, value: u32) {
        debug_assert!(value >= 1);
        let n = 32 - value.leading_zeros();
        for _ in 0..n - 1 {
            self.write_bit(false);
        }
        self.bits(value, n);
    }

    fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reader over a bit buffer written by [`BitWriter`].
#[derive(Clone, Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte_idx = self.pos / 8;
        if byte_idx >= self.bytes.len() {
            return None;
        }
        let bit = self.bytes[byte_idx] & (0x80 >> (self.pos % 8)) != 0;
        self.pos += 1;
        Some(bit)
    }

    fn read_bits(&mut self, width: u32) -> Option<u32> {
        let mut v = 0;
        for _ in 0..width {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Some(v)
    }

    /// A gamma-coded value that fits a `u32`: 32 or more leading zeros
    /// cannot be one (a valid code here never needs more than 6).
    fn read_gamma(&mut self) -> Option<u32> {
        let mut zeros = 0;
        while !self.read_bit()? {
            zeros += 1;
            if zeros >= 32 {
                return None;
            }
        }
        if zeros == 0 {
            return Some(1);
        }
        let rest = self.read_bits(zeros)?;
        Some((1 << zeros) | rest)
    }
}

/// Zig-zag map signed deltas to unsigned: 0, -1, 1, -2, 2 → 0, 1, 2, 3, 4.
const fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Length in bits of the Elias-gamma code of `value >= 1`.
const fn gamma_bits(value: u32) -> u32 {
    2 * (32 - value.leading_zeros()) - 1
}

/// The median `z` the header carries: the upper median (the `z` of rank
/// `len / 2` in sorted order) of `len` bitmaps given as `(z, count)`
/// pairs in increasing `z`, clamped to 31.
fn header_median(counts: impl Iterator<Item = (usize, usize)>, len: usize) -> u32 {
    let mut rank = len / 2;
    for (z, count) in counts {
        if rank < count {
            return (z as u32).min(BITMAP_BITS - 1);
        }
        rank -= count;
    }
    0
}

/// Encode a sketch into its compact wire form.
pub fn encode(sketch: &FmSketch) -> Vec<u8> {
    let bitmaps = sketch.bitmaps();
    let mut histogram = [0usize; Z_SLOTS];
    for &bm in bitmaps {
        histogram[FmSketch::lowest_unset(bm) as usize] += 1;
    }
    let median = header_median(histogram.into_iter().enumerate(), bitmaps.len());
    let mut w = BitWriter::default();
    w.bits(median, HEADER_BITS); // z can be 32 when a bitmap saturates
    for &bm in bitmaps {
        let z = FmSketch::lowest_unset(bm);
        w.gamma(zigzag(z as i32 - median as i32) + 1);
        // Set bits strictly above z, shifted down so that position
        // z + 1 is bit 0 (none exist from z = 31 up).
        let mut above = bm.checked_shr(z + 1).unwrap_or(0);
        w.gamma(above.count_ones() + 1);
        while above != 0 {
            // Distance from the previous set bit (or from z); at most
            // 31, since `above` is at most 31 bits wide.
            let gap = above.trailing_zeros() + 1;
            w.gamma(gap);
            above >>= gap;
        }
    }
    w.finish()
}

/// Decode a wire form produced by [`encode`] into a sketch with
/// `num_bitmaps` bitmaps. Returns `None` on malformed input.
pub fn decode(bytes: &[u8], num_bitmaps: usize) -> Option<FmSketch> {
    if num_bitmaps == 0 {
        return None; // no sketch has zero bitmaps
    }
    let mut r = BitReader::new(bytes);
    let median = r.read_bits(HEADER_BITS)?;
    // Each bitmap costs at least two bits (two one-bit gamma codes), so
    // the input bounds how many there can be, whatever the caller asks.
    let room = bytes.len().saturating_mul(8) / 2;
    let mut bitmaps = Vec::with_capacity(num_bitmaps.min(room));
    for _ in 0..num_bitmaps {
        let dz = unzigzag(r.read_gamma()? - 1);
        let z = (median as i32).checked_add(dz)?.clamp(0, 32) as u32;
        // Bits below z are all ones.
        let mut bm: u32 = if z >= 32 { u32::MAX } else { (1u32 << z) - 1 };
        let above_count = r.read_gamma()? - 1;
        let mut prev = z;
        for _ in 0..above_count {
            let gap = r.read_gamma()?;
            let j = prev.checked_add(gap)?;
            if j >= 32 {
                return None;
            }
            bm |= 1 << j;
            prev = j;
        }
        bitmaps.push(bm);
    }
    Some(FmSketch::from_bitmaps(bitmaps))
}

/// Bits of the head code, indexed by `z − median + 32`: the gamma code
/// of the zig-zagged delta plus one. With `z` in `0..=32` and the median
/// in `0..=31` the index stays in `1..=64`.
static HEAD_BITS: [u8; 65] = head_table();

/// Set-bit patterns above `z` that [`TAIL_BITS`] covers: the 8 bits
/// just above `z`.
pub(crate) const TAIL_TABLE_BITS: u32 = 8;

/// Bits of the tail code, indexed by the bits above `z` (position
/// `z + 1` is bit 0): the gamma-coded count of set bits plus one, then
/// one gamma-coded gap per set bit.
pub(crate) static TAIL_BITS: [u8; 1 << TAIL_TABLE_BITS] = tail_table();

const fn head_table() -> [u8; 65] {
    let mut table = [0; 65];
    let mut i = 0;
    while i < table.len() {
        table[i] = gamma_bits(zigzag(i as i32 - 32) + 1) as u8;
        i += 1;
    }
    table
}

const fn tail_table() -> [u8; 1 << TAIL_TABLE_BITS] {
    let mut table = [0; 1 << TAIL_TABLE_BITS];
    let mut i = 0;
    while i < table.len() {
        table[i] = tail_bits_walk(i as u32) as u8;
        i += 1;
    }
    table
}

/// Tail length walked gap by gap, as [`encode`] writes it: the tables'
/// generator, and the sizing path for bitmaps with a set bit more than
/// 8 places above `z`. `above` is at most 31 bits wide, so no gap
/// shifts by 32.
#[cold]
#[inline(never)]
pub(crate) const fn tail_bits_walk(mut above: u32) -> u32 {
    let mut bits = gamma_bits(above.count_ones() + 1);
    while above != 0 {
        let gap = above.trailing_zeros() + 1;
        bits += gamma_bits(gap);
        above >>= gap;
    }
    bits
}

/// Tail bits of one bitmap whose lowest unset position is `z`.
#[inline(always)]
fn tail_bits(bm: u32, z: u32) -> usize {
    // z + 1 is at most 33: a 64-bit shift needs no overflow check.
    let above = (u64::from(bm) >> (z + 1)) as u32;
    if above < 1 << TAIL_TABLE_BITS {
        usize::from(TAIL_BITS[above as usize])
    } else {
        tail_bits_walk(above) as usize
    }
}

/// Independent `z` histograms the sizing pass alternates between, so
/// that a run of equal `z`s does not chain its increments through one
/// memory slot. Their counts are `usize`, so no width can overflow them.
const LANES: usize = 2;

/// Encoded size in bytes — what the simulator charges to the radio.
/// Exactly `encode(sketch).len()`, computed without building the bytes:
/// the runner prices every multi-path send with it.
pub fn encoded_size_bytes(sketch: &FmSketch) -> usize {
    bitmaps_size_bytes(sketch.bitmaps())
}

/// [`encoded_size_bytes`] of raw bitmaps (the inline-stored
/// [`FmCounter`](crate::counter::FmCounter) has no `FmSketch` to lend).
pub(crate) fn bitmaps_size_bytes(bitmaps: &[u32]) -> usize {
    let mut lanes = [[0usize; Z_SLOTS]; LANES];
    // Bit z is set once some bitmap has lowest unset position z: the
    // folds below visit only the positions that occur.
    let mut seen = 0u64;
    let mut bits = HEADER_BITS as usize;
    let mut tally = |lane: &mut [usize; Z_SLOTS], bm: u32| {
        let z = FmSketch::lowest_unset(bm);
        lane[z as usize] += 1;
        seen |= 1 << z;
        bits += tail_bits(bm, z);
    };
    let (pairs, rest) = bitmaps.as_chunks::<LANES>();
    for pair in pairs {
        for (lane, &bm) in lanes.iter_mut().zip(pair) {
            tally(lane, bm);
        }
    }
    for (lane, &bm) in lanes.iter_mut().zip(rest) {
        tally(lane, bm);
    }
    let count = |z: usize| lanes.iter().map(|lane| lane[z]).sum::<usize>();
    let zs = seen.trailing_zeros() as usize..(64 - seen.leading_zeros()) as usize;
    let median = header_median(zs.clone().map(|z| (z, count(z))), bitmaps.len()) as usize;
    for z in zs {
        bits += count(z) * usize::from(HEAD_BITS[z + 32 - median]);
    }
    bits.div_ceil(8)
}

/// Counters this wide are sized `BATCH` at a time by the vector kernel.
#[cfg(any(test, target_arch = "x86_64"))]
pub(crate) const BATCH_WIDTH: usize = 16;

/// Counters per vector batch: one per 32-bit lane.
#[cfg(target_arch = "x86_64")]
const BATCH: usize = 16;

/// Fewest counters sized as a vector batch; fewer left over at the end
/// are sized one by one.
#[cfg(target_arch = "x86_64")]
const MIN_BATCH: usize = 10;

/// `Σ bitmaps_size_bytes(c).div_ceil(4)` over `counters`: the wire words
/// of many counters, as a frequent-items message holds. Where the AVX-512
/// kernels run, counters of `BATCH_WIDTH` bitmaps (the frequent-items
/// default) are sized `BATCH` at a time, one counter per lane; others
/// one by one.
pub(crate) fn wire_words_sum<'a>(counters: impl Iterator<Item = &'a [u32]>) -> usize {
    wire_words_sum_with(Kernel::chosen(), counters)
}

/// [`wire_words_sum`] by `kernel`.
pub(crate) fn wire_words_sum_with<'a>(
    kernel: Kernel,
    counters: impl Iterator<Item = &'a [u32]>,
) -> usize {
    let words = |bitmaps: &[u32]| bitmaps_size_bytes(bitmaps).div_ceil(4);
    match kernel {
        Kernel::Portable => counters.map(words).sum(),
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512(detected) => {
            let mut batch = [[0u32; BATCH_WIDTH]; BATCH];
            let mut held = 0;
            let mut total = 0;
            for bitmaps in counters {
                match <&[u32; BATCH_WIDTH]>::try_from(bitmaps) {
                    Ok(&counter) => {
                        batch[held] = counter;
                        held += 1;
                        if held == BATCH {
                            total += detected.wire_words(&batch);
                            held = 0;
                        }
                    }
                    Err(_) => total += words(bitmaps),
                }
            }
            // A part batch costs the vector pass a full one does, which is
            // about what sizing ten counters one by one costs.
            if held >= MIN_BATCH {
                total += detected.wire_words(&batch[..held]);
            } else {
                total += batch[..held].iter().map(|c| words(c)).sum::<usize>();
            }
            total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_sketch_roundtrip_and_small() {
        let s = FmSketch::default_config();
        let bytes = encode(&s);
        assert!(
            bytes.len() <= 16,
            "empty sketch encoded to {} bytes",
            bytes.len()
        );
        let d = decode(&bytes, 40).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn loaded_sketch_roundtrip() {
        let mut s = FmSketch::default_config();
        for i in 0..600u64 {
            s.insert_distinct(i);
        }
        let bytes = encode(&s);
        let d = decode(&bytes, 40).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn paper_configuration_fits_one_tinydb_message() {
        // 600-node Count synopsis must fit in 48 bytes (§7.1).
        let mut s = FmSketch::default_config();
        for i in 0..600u64 {
            s.insert_distinct(i);
        }
        let n = encoded_size_bytes(&s);
        assert!(n <= 48, "encoded size {n} > 48 bytes");
    }

    #[test]
    fn large_sum_synopsis_fits_one_message() {
        // A Sum synopsis over values totalling ~5 million still fits: the
        // prefix grows only logarithmically and z-deltas stay small.
        let mut s = FmSketch::default_config();
        for salt in 0..600u64 {
            s.insert_value(salt, 8_000 + salt);
        }
        let n = encoded_size_bytes(&s);
        assert!(n <= 48, "encoded size {n} > 48 bytes");
    }

    #[test]
    fn saturated_bitmaps_roundtrip() {
        let s = FmSketch::from_bitmaps(vec![u32::MAX; 40]);
        let bytes = encode(&s);
        let d = decode(&bytes, 40).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn adversarial_fringe_roundtrip() {
        // High isolated bits far above z.
        let s = FmSketch::from_bitmaps(vec![
            0b1000_0000_0000_0000_0000_0000_0000_0001,
            0,
            u32::MAX >> 1,
            0b0101_0101,
        ]);
        let bytes = encode(&s);
        let d = decode(&bytes, 4).unwrap();
        assert_eq!(d, s);
    }

    #[test]
    fn truncated_input_returns_none() {
        let mut s = FmSketch::default_config();
        for i in 0..100u64 {
            s.insert_distinct(i);
        }
        let bytes = encode(&s);
        assert!(
            decode(&bytes[..bytes.len() / 2], 40).is_none() ||
                // Truncation may still parse if the cut lands on padding;
                // in that case the decode must NOT equal the original.
                decode(&bytes[..bytes.len() / 2], 40).unwrap() != s
        );
    }

    #[test]
    fn zero_bitmaps_returns_none() {
        assert!(decode(&[0], 0).is_none());
        assert!(decode(&[], 0).is_none());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in -100..100 {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn size_matches_encode_on_edge_bitmaps() {
        let cases: Vec<Vec<u32>> = vec![
            vec![u32::MAX; 40],             // every z = 32
            vec![u32::MAX, 0, u32::MAX, 0], // median clamps at 31
            vec![u32::MAX >> 1; 3],         // z = 31, nothing above
            vec![1 << 31; 16],              // one sparse high bit, z = 0
            vec![0x8000_0001, 0xA000_0000, 0x4000_0007, 0],
            vec![0],
        ];
        for bitmaps in cases {
            let s = FmSketch::from_bitmaps(bitmaps);
            assert_eq!(
                encoded_size_bytes(&s),
                encode(&s).len(),
                "{:x?}",
                s.bitmaps()
            );
        }
    }

    #[test]
    fn decode_rejects_a_gamma_code_of_32_leading_zeros() {
        // Header 000000, then 32 zeros, a one and 32 ones: a gamma code
        // whose value needs 33 bits.
        let mut w = BitWriter::default();
        w.bits(0, HEADER_BITS);
        w.bits(0, 32);
        w.bits(1, 1);
        w.bits(u32::MAX, 32);
        assert_eq!(w.used_bits, 71);
        assert!(decode(&w.finish(), 1).is_none());
    }

    #[test]
    fn decode_rejects_overflowing_deltas_and_gaps() {
        // A z delta of 2^31 − 1 from the median, and a gap that walks
        // past bit 31 by u32 overflow: both are malformed, not a panic.
        let mut w = BitWriter::default();
        w.bits(31, HEADER_BITS);
        w.gamma(zigzag(i32::MAX) + 1);
        assert!(decode(&w.finish(), 1).is_none());
        let mut w = BitWriter::default();
        w.bits(0, HEADER_BITS);
        w.gamma(zigzag(0) + 1);
        w.gamma(3);
        w.gamma(1);
        w.gamma(u32::MAX);
        assert!(decode(&w.finish(), 1).is_none());
    }

    #[test]
    fn decode_does_not_trust_the_width_for_its_allocation() {
        let s = FmSketch::from_bitmaps(vec![0b111; 3]);
        assert!(decode(&encode(&s), usize::MAX).is_none());
    }

    /// The table-driven size against the encoder it prices.
    mod size_oracle {
        use super::*;

        /// One bitmap of the shape `kind` picks, drawn from `seed`:
        /// anything, saturated (z = 32), ones below z with set bits at
        /// most 8 places above it (the table path), set bits further up
        /// (the walked path), or empty.
        fn bitmap(kind: u64, seed: u64) -> u32 {
            let z = (seed >> 8) as u32 % 33;
            let below = 1u32.checked_shl(z).map_or(u32::MAX, |b| b - 1);
            let near = ((seed >> 16) as u32 & 0xFF).checked_shl(z + 1).unwrap_or(0);
            let hi = (seed >> 32) as u32;
            match kind {
                0 => hi,
                1 => u32::MAX,
                2 => below | near,
                3 => below | near | (hi | 1).checked_shl(z + 9).unwrap_or(0),
                _ => 0,
            }
        }

        fn sketch(kind: u64, seeds: &[u64]) -> FmSketch {
            // Kind 5 mixes every shape in one sketch.
            FmSketch::from_bitmaps(
                seeds
                    .iter()
                    .map(|&seed| bitmap(if kind == 5 { seed % 5 } else { kind }, seed))
                    .collect(),
            )
        }

        /// `counters` sized together by `kernel` take the words their
        /// encodings take, one by one.
        fn kernel_sizes_as_the_encoder(
            kernel: Kernel,
            counters: &[FmSketch],
        ) -> Result<(), String> {
            let expected: usize = counters.iter().map(|s| encode(s).len().div_ceil(4)).sum();
            let got = wire_words_sum_with(kernel, counters.iter().map(|s| s.bitmaps()));
            prop_assert_eq!(
                got,
                expected,
                "{kernel:?} {:x?}",
                counters.iter().map(|s| s.bitmaps()).collect::<Vec<_>>()
            );
            Ok(())
        }

        /// Each kernel this CPU runs on every batch size 1..=40 (part
        /// batches, two full ones and more), counters of the batch width
        /// mixed with others, on each bitmap shape alone and mixed.
        #[test]
        fn each_kernel_sizes_every_batch_as_the_encoder() {
            for kernel in crate::fm::runnable_kernels() {
                for n in 1..=40u64 {
                    for kind in 0..6 {
                        let counters: Vec<FmSketch> = (0..n)
                            .map(|c| {
                                let width = if c % 7 == 3 {
                                    1 + c as usize % 40
                                } else {
                                    BATCH_WIDTH
                                };
                                let seeds: Vec<u64> = (0..width as u64)
                                    .map(|i| crate::hash::keyed(kind * 1000 + n * 40 + c, i))
                                    .collect();
                                sketch(kind, &seeds)
                            })
                            .collect();
                        kernel_sizes_as_the_encoder(kernel, &counters).unwrap();
                    }
                }
            }
        }

        proptest! {
            /// Each kernel this CPU runs, called directly rather than
            /// through the dispatch, sizes batches of counters as the
            /// encoder does one by one: the vectorised pass over sixteen
            /// counters at a time included.
            #[test]
            fn prop_each_kernel_sizes_counters_as_the_encoder(
                kinds in proptest::collection::vec(0u64..6, 1..40),
                seed in any::<u64>(),
            ) {
                let counters: Vec<FmSketch> = kinds
                    .iter()
                    .enumerate()
                    .map(|(c, &kind)| {
                        let seeds: Vec<u64> = (0..BATCH_WIDTH as u64)
                            .map(|i| crate::hash::keyed(seed ^ c as u64, i))
                            .collect();
                        sketch(kind, &seeds)
                    })
                    .collect();
                for kernel in crate::fm::runnable_kernels() {
                    kernel_sizes_as_the_encoder(kernel, &counters)?;
                }
            }

            #[test]
            fn prop_size_is_the_encoded_length(
                kind in 0u64..6,
                seeds in proptest::collection::vec(any::<u64>(), 1..301),
            ) {
                let s = sketch(kind, &seeds);
                prop_assert_eq!(encoded_size_bytes(&s), encode(&s).len(), "{:x?}", s.bitmaps());
            }
        }

        #[test]
        fn size_is_exact_for_wide_sketches() {
            // Far past the widths any workload uses, with an odd width
            // so that one bitmap falls outside the pairs of lanes.
            let seeds: Vec<u64> = (0..100_001u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3))
                .collect();
            for kind in 0..6 {
                let s = sketch(kind, &seeds);
                assert_eq!(encoded_size_bytes(&s), encode(&s).len(), "kind {kind}");
            }
        }

        /// Every entry of both tables is the length the encoder writes
        /// for the field it stands for.
        #[test]
        fn tables_hold_the_written_gamma_lengths() {
            for (i, &entry) in HEAD_BITS.iter().enumerate() {
                let mut w = BitWriter::default();
                w.gamma(zigzag(i as i32 - 32) + 1);
                assert_eq!(
                    usize::from(entry),
                    w.used_bits,
                    "head z - median = {}",
                    i as i32 - 32
                );
            }
            for (above, &entry) in TAIL_BITS.iter().enumerate() {
                let mut w = BitWriter::default();
                let mut rest = above as u32;
                w.gamma(rest.count_ones() + 1);
                while rest != 0 {
                    let gap = rest.trailing_zeros() + 1;
                    w.gamma(gap);
                    rest >>= gap;
                }
                assert_eq!(usize::from(entry), w.used_bits, "tail {above:#010b}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_size_matches_encode_random_bitmaps(bm in proptest::collection::vec(any::<u32>(), 1..64)) {
            let s = FmSketch::from_bitmaps(bm);
            prop_assert_eq!(encoded_size_bytes(&s), encode(&s).len());
        }

        #[test]
        fn prop_size_matches_encode_after_inserts(
            k in 1usize..64,
            distinct in 0u64..800,
            values in proptest::collection::vec(0u64..100_000, 0..8),
        ) {
            let mut s = FmSketch::new(k);
            for i in 0..distinct {
                s.insert_distinct(i.wrapping_mul(0x9E3779B97F4A7C15) ^ distinct);
            }
            for (salt, v) in values.into_iter().enumerate() {
                s.insert_value(salt as u64, v);
            }
            prop_assert_eq!(encoded_size_bytes(&s), encode(&s).len());
        }

        #[test]
        fn prop_roundtrip_random_bitmaps(bm in proptest::collection::vec(any::<u32>(), 1..64)) {
            let s = FmSketch::from_bitmaps(bm);
            let bytes = encode(&s);
            let d = decode(&bytes, s.num_bitmaps()).unwrap();
            prop_assert_eq!(d, s);
        }

        #[test]
        fn prop_decode_never_panics(
            symbols in proptest::collection::vec(0u16..768, 0..64),
            num_bitmaps in 0usize..301,
        ) {
            // Any byte, with runs of 0x00 and 0xFF made common: long
            // zero runs are what a hostile gamma code is made of.
            let bytes: Vec<u8> = symbols
                .iter()
                .map(|&v| match v {
                    0..=255 => v as u8,
                    256..=511 => 0x00,
                    _ => 0xFF,
                })
                .collect();
            if let Some(s) = decode(&bytes, num_bitmaps) {
                prop_assert_eq!(s.num_bitmaps(), num_bitmaps);
            }
        }

        #[test]
        fn prop_roundtrip_realistic(n in 1u64..5000, k in 1usize..48) {
            let mut s = FmSketch::new(k);
            for i in 0..n.min(800) {
                s.insert_distinct(i.wrapping_mul(0x9E3779B97F4A7C15) ^ n);
            }
            let bytes = encode(&s);
            let d = decode(&bytes, k).unwrap();
            prop_assert_eq!(d, s);
        }
    }
}
