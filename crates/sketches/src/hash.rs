//! Deterministic 64-bit hashing.
//!
//! All sketches need hash values that are (a) statistically uniform,
//! (b) identical across runs and platforms — duplicate-insensitivity
//! requires that re-hashing the same element always produces the same
//! value — and (c) cheap. We use the SplitMix64 finalizer as a mixing
//! primitive and build keyed variants on top. `std`'s `DefaultHasher` is
//! not used because its output may change between Rust releases.

/// SplitMix64's increment, 2^64 / φ: the step of [`SplitMix`]'s state and
/// the multiplier [`keyed`] spreads its value with.
pub(crate) const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The two multipliers of [`mix64`], in order.
pub(crate) const MIX_MUL: [u64; 2] = [0xBF58_476D_1CE4_E5B9, 0x94D0_49BB_1331_11EB];

/// The multiplier [`keyed_pair`] spreads the pair's second value with.
pub(crate) const PAIR_MUL: u64 = 0xD6E8_FEB8_6659_FD93;

/// SplitMix64 finalizer. Bijective on `u64`, passes BigCrush as a mixer.
/// A `const fn`, so tables of mixed keys can be built at compile time.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(MIX_MUL[0]);
    z = (z ^ (z >> 27)).wrapping_mul(MIX_MUL[1]);
    z ^ (z >> 31)
}

/// Hash a value under a key (seed). Different keys give independent hash
/// functions of the same input — the "hash family" sketches draw from.
#[inline]
pub fn keyed(key: u64, value: u64) -> u64 {
    keyed_mixed(key_mix(key), value)
}

/// Hash a pair of values (e.g. `(node, occurrence-index)`) under a key.
#[inline]
pub fn keyed_pair(key: u64, a: u64, b: u64) -> u64 {
    keyed(key, pair_value(mix64(a), b))
}

/// What [`key_mix`] XORs a key with before mixing it.
pub(crate) const KEY_SALT: u64 = 0xA076_1D64_78BD_642F;

/// The key half of [`keyed`]: one mix so related keys (0, 1, 2, …)
/// decorrelate. Callers hashing many values under one key compute it
/// once.
#[inline]
pub(crate) const fn key_mix(key: u64) -> u64 {
    mix64(key ^ KEY_SALT)
}

/// [`keyed`] given its key half `key_mix(key)`: the combination is mixed
/// once more, for avalanche on both inputs.
#[inline]
pub(crate) fn keyed_mixed(key_mix: u64, value: u64) -> u64 {
    mix64(key_mix.wrapping_add(value.wrapping_mul(GOLDEN)))
}

/// The value [`keyed_pair`] hashes for `(a, b)`, given `mix64(a)`.
#[inline]
pub(crate) fn pair_value(mixed_a: u64, b: u64) -> u64 {
    mixed_a.wrapping_add(b.wrapping_mul(PAIR_MUL))
}

/// A tiny deterministic generator for sequences of pseudo-random u64s
/// derived from a seed — used where sketches need a reproducible stream
/// (e.g. sampling which FM bits a value of magnitude `v` sets) without the
/// cost of constructing a full `StdRng`.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// Create a stream seeded by `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix { state: mix64(seed) }
    }

    /// Next pseudo-random u64.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        mix64(self.state)
    }

    /// Next pseudo-random f64 in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> [0,1) with full double precision.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn mix64_is_injective_on_sample() {
        let mut seen = HashSet::new();
        for i in 0..100_000u64 {
            assert!(seen.insert(mix64(i)), "collision at {i}");
        }
    }

    #[test]
    fn keyed_hashes_differ_by_key() {
        assert_ne!(keyed(0, 42), keyed(1, 42));
        assert_ne!(keyed(0, 42), keyed(0, 43));
        assert_eq!(keyed(7, 42), keyed(7, 42));
    }

    #[test]
    fn keyed_uniformity_rough() {
        // Bucket 64k consecutive inputs into 16 buckets by top bits; each
        // bucket should be within 5% of uniform.
        let n = 65_536u64;
        let mut buckets = [0u32; 16];
        for i in 0..n {
            buckets[(keyed(3, i) >> 60) as usize] += 1;
        }
        let expect = n as f64 / 16.0;
        for (b, &c) in buckets.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.05,
                "bucket {b}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn keyed_pair_sensitive_to_both_elements() {
        assert_ne!(keyed_pair(0, 1, 2), keyed_pair(0, 2, 1));
        assert_ne!(keyed_pair(0, 1, 2), keyed_pair(0, 1, 3));
        assert_eq!(keyed_pair(5, 1, 2), keyed_pair(5, 1, 2));
    }

    #[test]
    fn splitmix_stream_reproducible_and_uniform() {
        let mut a = SplitMix::new(9);
        let mut b = SplitMix::new(9);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn trailing_zero_distribution_geometric() {
        // rho(h) = trailing_zeros is geometric(1/2): P(rho = 0) = 1/2.
        let n = 100_000u64;
        let mut zero = 0;
        let mut one = 0;
        for i in 0..n {
            match keyed(11, i).trailing_zeros() {
                0 => zero += 1,
                1 => one += 1,
                _ => {}
            }
        }
        assert!((zero as f64 / n as f64 - 0.5).abs() < 0.01);
        assert!((one as f64 / n as f64 - 0.25).abs() < 0.01);
    }
}
