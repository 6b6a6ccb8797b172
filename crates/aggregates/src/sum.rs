//! The Sum aggregate (the paper's workhorse in §7.3).
//!
//! Tree side: exact integer sums. Multi-path side: FM sketches with
//! Considine-style value insertion \[5\] — a node holding reading `v`
//! inserts `v` pseudo-elements salted by its id. Conversion inserts a
//! subtree's sum the same way, salted by the tributary root.

use crate::traits::Aggregate;
use td_netsim::message::WireSize;
use td_sketches::fm::FmSketch;
use td_sketches::hash::keyed;
use td_sketches::rle;

const SUM_KEY: u64 = 0x5033;

/// Sum of node readings.
#[derive(Clone, Debug)]
pub struct Sum {
    bitmaps: usize,
}

impl Default for Sum {
    fn default() -> Self {
        Sum {
            bitmaps: td_sketches::fm::DEFAULT_BITMAPS,
        }
    }
}

impl Sum {
    /// Sum with a custom number of FM bitmaps.
    pub fn with_bitmaps(bitmaps: usize) -> Self {
        Sum { bitmaps }
    }
}

impl Aggregate for Sum {
    type TreePartial = u64;
    type Synopsis = FmSketch;

    fn name(&self) -> &'static str {
        "sum"
    }

    fn local_tree(&self, _node: u32, value: u64) -> u64 {
        value
    }

    fn merge_tree(&self, into: &mut u64, from: &u64) {
        *into += from;
    }

    fn local_synopsis(&self, node: u32, value: u64) -> FmSketch {
        let mut s = FmSketch::new(self.bitmaps);
        s.insert_value(keyed(SUM_KEY, node as u64), value);
        s
    }

    fn fuse(&self, into: &mut FmSketch, from: &FmSketch) {
        into.merge(from);
    }

    fn convert(&self, root: u32, partial: &u64) -> FmSketch {
        let mut s = FmSketch::new(self.bitmaps);
        s.insert_value(keyed(SUM_KEY ^ 0x7EEE, root as u64), *partial);
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

    fn readings(n: u32, value: u64) -> Vec<(u32, u64)> {
        (1..=n).map(|i| (i, value + (i as u64 % 7))).collect()
    }

    #[test]
    fn tree_side_is_exact() {
        let agg = Sum::default();
        let rs = readings(100, 50);
        let expect: u64 = rs.iter().map(|&(_, v)| v).sum();
        let partial = merge_all(&agg, &rs).unwrap();
        assert_eq!(agg.evaluate_tree(&partial), expect as f64);
    }

    #[test]
    fn synopsis_estimates_total() {
        let agg = Sum::default();
        let rs = readings(200, 40);
        let expect: u64 = rs.iter().map(|&(_, v)| v).sum();
        let s = fuse_all(&agg, &rs).unwrap();
        let est = agg.evaluate_synopsis(&s);
        let rel = (est - expect as f64).abs() / expect as f64;
        assert!(rel < 0.36, "sum estimate {est} expect {expect} rel {rel}");
    }

    #[test]
    fn zero_values_contribute_nothing() {
        let agg = Sum::default();
        let s = fuse_all(&agg, &[(1, 0), (2, 0)]).unwrap();
        assert_eq!(agg.evaluate_synopsis(&s), 0.0);
    }

    #[test]
    fn fuse_laws() {
        let agg = Sum::with_bitmaps(16);
        assert_fuse_laws(&agg, &readings(30, 10), &readings(50, 5), &readings(20, 90));
    }

    #[test]
    fn duplicate_fusion_stable() {
        let agg = Sum::default();
        let rs = readings(80, 25);
        let once = fuse_all(&agg, &rs).unwrap();
        let mut twice = once.clone();
        agg.fuse(&mut twice, &once);
        assert_eq!(agg.evaluate_synopsis(&once), agg.evaluate_synopsis(&twice));
    }

    #[test]
    fn conversion_sound() {
        let agg = Sum::default();
        let truth: u64 = readings(150, 30)
            .iter()
            .chain(readings(150, 60).iter())
            .map(|&(_, v)| v)
            .sum();
        assert_conversion_sound(
            &agg,
            9,
            &readings(150, 30),
            &readings(150, 60),
            0.4,
            Some(truth as f64),
        );
    }

    #[test]
    fn large_subtree_sum_conversion() {
        // Converting a large subtree sum must land near the value.
        let agg = Sum::default();
        let s = agg.convert(3, &1_000_000);
        let est = agg.evaluate_synopsis(&s);
        let rel = (est - 1e6).abs() / 1e6;
        assert!(rel < 0.4, "est {est} rel {rel}");
    }

    #[test]
    fn synopsis_fits_single_message() {
        let agg = Sum::default();
        let s = fuse_all(&agg, &readings(600, 100)).unwrap();
        assert!(agg.synopsis_wire(&s).bytes <= 48);
    }
}
