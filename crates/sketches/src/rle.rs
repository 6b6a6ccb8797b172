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

use crate::fm::{FmSketch, BITMAP_BITS};

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

    fn read_gamma(&mut self) -> Option<u32> {
        let mut zeros = 0;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 32 {
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
fn zigzag(v: i32) -> u32 {
    ((v << 1) ^ (v >> 31)) as u32
}

fn unzigzag(v: u32) -> i32 {
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Where [`emit`] sends the code's fields: [`BitWriter`] materialises
/// the bytes, [`BitCounter`] only adds up their widths.
trait BitSink {
    fn bits(&mut self, value: u32, width: u32);
    /// Elias-gamma code for `value >= 1`: (N-1) zeros, then the N-bit
    /// value.
    fn gamma(&mut self, value: u32);
}

impl BitSink for BitWriter {
    fn bits(&mut self, value: u32, width: u32) {
        for i in (0..width).rev() {
            self.write_bit((value >> i) & 1 == 1);
        }
    }

    fn gamma(&mut self, value: u32) {
        debug_assert!(value >= 1);
        let n = 32 - value.leading_zeros();
        for _ in 0..n - 1 {
            self.write_bit(false);
        }
        self.bits(value, n);
    }
}

/// The length of the code in bits, without the code.
struct BitCounter(usize);

impl BitSink for BitCounter {
    fn bits(&mut self, _value: u32, width: u32) {
        self.0 += width as usize;
    }

    fn gamma(&mut self, value: u32) {
        debug_assert!(value >= 1);
        self.0 += 2 * (32 - value.leading_zeros()) as usize - 1;
    }
}

/// Walk a sketch's wire form field by field into `sink`. Allocation-free:
/// the median `z` comes from a histogram over the 33 possible positions
/// and the bits above `z` are peeled off the bitmap one gap at a time.
fn emit(bitmaps: &[u32], sink: &mut impl BitSink) {
    let mut histogram = [0usize; BITMAP_BITS as usize + 1];
    for &bm in bitmaps {
        histogram[FmSketch::lowest_unset(bm) as usize] += 1;
    }
    // The upper median: the z of rank `len / 2` in sorted order.
    let mut rank = bitmaps.len() / 2;
    let mut median = 0u32;
    for (z, &count) in histogram.iter().enumerate() {
        if rank < count {
            median = z as u32;
            break;
        }
        rank -= count;
    }
    let median = median.min(BITMAP_BITS - 1);
    sink.bits(median, 6); // z can be 32 when a bitmap saturates
    for &bm in bitmaps {
        let z = FmSketch::lowest_unset(bm);
        sink.gamma(zigzag(z as i32 - median as i32) + 1);
        // Set bits strictly above z, shifted down so that position
        // z + 1 is bit 0 (none exist from z = 31 up).
        let mut above = bm.checked_shr(z + 1).unwrap_or(0);
        sink.gamma(above.count_ones() + 1);
        while above != 0 {
            // Distance from the previous set bit (or from z); at most
            // 31, since `above` is at most 31 bits wide.
            let gap = above.trailing_zeros() + 1;
            sink.gamma(gap);
            above >>= gap;
        }
    }
}

/// Encode a sketch into its compact wire form.
pub fn encode(sketch: &FmSketch) -> Vec<u8> {
    let mut w = BitWriter::default();
    emit(sketch.bitmaps(), &mut w);
    w.finish()
}

/// Decode a wire form produced by [`encode`] into a sketch with
/// `num_bitmaps` bitmaps. Returns `None` on malformed input.
pub fn decode(bytes: &[u8], num_bitmaps: usize) -> Option<FmSketch> {
    if num_bitmaps == 0 {
        return None; // no sketch has zero bitmaps
    }
    let mut r = BitReader::new(bytes);
    let median = r.read_bits(6)?;
    let mut bitmaps = Vec::with_capacity(num_bitmaps);
    for _ in 0..num_bitmaps {
        let dz = unzigzag(r.read_gamma()? - 1);
        let z = (median as i32 + dz).clamp(0, 32) as u32;
        // Bits below z are all ones.
        let mut bm: u32 = if z >= 32 { u32::MAX } else { (1u32 << z) - 1 };
        let above_count = r.read_gamma()? - 1;
        let mut prev = z;
        for _ in 0..above_count {
            let gap = r.read_gamma()?;
            let j = prev + gap;
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

/// Encoded size in bytes — what the simulator charges to the radio.
/// Exactly `encode(sketch).len()`, computed without building the bytes:
/// the runner prices every multi-path send with it.
pub fn encoded_size_bytes(sketch: &FmSketch) -> usize {
    bitmaps_size_bytes(sketch.bitmaps())
}

/// [`encoded_size_bytes`] of raw bitmaps (the inline-stored
/// [`FmCounter`](crate::counter::FmCounter) has no `FmSketch` to lend).
pub(crate) fn bitmaps_size_bytes(bitmaps: &[u32]) -> usize {
    let mut bits = BitCounter(0);
    emit(bitmaps, &mut bits);
    bits.0.div_ceil(8)
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
