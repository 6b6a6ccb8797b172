//! The Count aggregate: how many nodes contributed.
//!
//! The tree side counts exactly. The multi-path side uses the FM bit
//! vector of \[5,7\] — the `bv` of Figure 3 — with ≈12% approximation error
//! at the paper's 40-bitmap configuration. The conversion function takes a
//! subtree count `c` and generates a synopsis the multi-path scheme
//! equates with the value `c` (FM value-insertion salted by the tributary
//! root, §5's Count example).

use crate::traits::Aggregate;
use td_netsim::message::WireSize;
use td_sketches::fm::FmSketch;
use td_sketches::hash::keyed;
use td_sketches::rle;

/// Hash key separating Count's element population from other aggregates.
const COUNT_KEY: u64 = 0xC007;

/// Count of contributing nodes.
#[derive(Clone, Debug)]
pub struct Count {
    bitmaps: usize,
    salt: u64,
}

impl Default for Count {
    fn default() -> Self {
        Count {
            bitmaps: td_sketches::fm::DEFAULT_BITMAPS,
            salt: 0,
        }
    }
}

impl Count {
    /// Count with a custom number of FM bitmaps (accuracy/size knob).
    pub fn with_bitmaps(bitmaps: usize) -> Self {
        Count { bitmaps, salt: 0 }
    }

    /// Count with a per-query salt: different salts draw independent
    /// sketch randomness for the same node population, so repeated
    /// queries sample the estimator's error distribution instead of
    /// replaying one fixed draw (used when averaging across runs).
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }
}

impl Aggregate for Count {
    type TreePartial = u64;
    type Synopsis = FmSketch;

    fn name(&self) -> &'static str {
        "count"
    }

    fn local_tree(&self, _node: u32, _value: u64) -> u64 {
        1
    }

    fn merge_tree(&self, into: &mut u64, from: &u64) {
        *into += from;
    }

    fn local_synopsis(&self, node: u32, _value: u64) -> FmSketch {
        let mut s = FmSketch::new(self.bitmaps);
        s.insert_distinct(keyed(COUNT_KEY ^ self.salt, node as u64));
        s
    }

    fn fuse(&self, into: &mut FmSketch, from: &FmSketch) {
        into.merge(from);
    }

    fn convert(&self, root: u32, partial: &u64) -> FmSketch {
        let mut s = FmSketch::new(self.bitmaps);
        // Salt by the tributary root: each root owns a unique subtree
        // (§4.2 footnote 3), so populations from different roots are
        // disjoint, and re-conversion of the same partial is idempotent.
        s.insert_value(keyed(COUNT_KEY ^ 0x7EEE ^ self.salt, root as u64), *partial);
        s
    }

    fn evaluate_tree(&self, partial: &u64) -> f64 {
        *partial as f64
    }

    fn evaluate_synopsis(&self, synopsis: &FmSketch) -> f64 {
        synopsis.estimate()
    }

    fn tree_words(&self, _partial: &u64) -> usize {
        1
    }

    fn synopsis_wire(&self, synopsis: &FmSketch) -> WireSize {
        WireSize {
            bytes: rle::encoded_size_bytes(synopsis),
            words: synopsis.num_bitmaps(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{assert_conversion_sound, assert_fuse_laws, fuse_all, merge_all};

    fn readings(range: std::ops::Range<u32>) -> Vec<(u32, u64)> {
        range.map(|n| (n, 1)).collect()
    }

    #[test]
    fn tree_side_is_exact() {
        let agg = Count::default();
        let partial = merge_all(&agg, &readings(1..601)).unwrap();
        assert_eq!(agg.evaluate_tree(&partial), 600.0);
    }

    #[test]
    fn synopsis_side_within_approximation_error() {
        let agg = Count::default();
        let s = fuse_all(&agg, &readings(1..601)).unwrap();
        let est = agg.evaluate_synopsis(&s);
        let rel = (est - 600.0).abs() / 600.0;
        assert!(rel < 0.36, "count estimate {est} (rel {rel})");
    }

    #[test]
    fn fuse_laws() {
        let agg = Count::default();
        assert_fuse_laws(
            &agg,
            &readings(0..40),
            &readings(20..80),
            &readings(60..100),
        );
    }

    #[test]
    fn duplicates_do_not_double_count() {
        let agg = Count::default();
        let once = fuse_all(&agg, &readings(1..101)).unwrap();
        // Fuse the same 100 nodes twice over.
        let twice_readings: Vec<(u32, u64)> = readings(1..101)
            .into_iter()
            .chain(readings(1..101))
            .collect();
        let twice = fuse_all(&agg, &twice_readings).unwrap();
        assert_eq!(agg.evaluate_synopsis(&once), agg.evaluate_synopsis(&twice));
    }

    #[test]
    fn conversion_sound_figure3_scenario() {
        // Figure 3: M3 fuses two multi-path bit vectors with a converted
        // tree count of 3. Larger version: 300 tree nodes + 300 mp nodes.
        let agg = Count::default();
        assert_conversion_sound(
            &agg,
            7,
            &readings(1..301),
            &readings(301..601),
            0.4,
            Some(600.0),
        );
    }

    #[test]
    fn conversion_is_deterministic() {
        let agg = Count::default();
        let a = agg.convert(5, &42);
        let b = agg.convert(5, &42);
        assert_eq!(a, b);
        // Different roots give different (independent) populations.
        let c = agg.convert(6, &42);
        assert_ne!(a, c);
    }

    #[test]
    fn wire_sizes() {
        let agg = Count::default();
        assert_eq!(agg.tree_words(&5), 1);
        let s = fuse_all(&agg, &readings(1..601)).unwrap();
        let w = agg.synopsis_wire(&s);
        assert!(w.bytes <= 48, "count synopsis {} bytes", w.bytes);
        assert_eq!(w.words, 40);
    }
}
