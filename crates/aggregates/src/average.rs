//! Average = Sum / Count, composed from the two underlying aggregates.
//!
//! The tree partial is the exact `(sum, count)` pair; the synopsis is a
//! pair of FM sketches. The ratio of two ~12%-error estimates has ≈17%
//! error (errors are independent), which is the multi-path approximation
//! cost the paper's Table 1 alludes to for derived aggregates.

use crate::count::Count;
use crate::sum::Sum;
use crate::traits::Aggregate;
use td_netsim::message::WireSize;
use td_sketches::fm::FmSketch;

/// Average reading across contributing nodes.
#[derive(Clone, Debug, Default)]
pub struct Average {
    sum: Sum,
    count: Count,
}

impl Average {
    /// Average with custom bitmap counts for its two component sketches.
    pub fn with_bitmaps(bitmaps: usize) -> Self {
        Average {
            sum: Sum::with_bitmaps(bitmaps),
            count: Count::with_bitmaps(bitmaps),
        }
    }
}

/// Tree partial for Average: exact component sums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AvgPartial {
    /// Sum of readings in the subtree.
    pub sum: u64,
    /// Number of readings in the subtree.
    pub count: u64,
}

/// Synopsis for Average: a pair of FM sketches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AvgSynopsis {
    /// Sum sketch.
    pub sum: FmSketch,
    /// Count sketch.
    pub count: FmSketch,
}

impl Aggregate for Average {
    type TreePartial = AvgPartial;
    type Synopsis = AvgSynopsis;

    fn name(&self) -> &'static str {
        "average"
    }

    fn local_tree(&self, node: u32, value: u64) -> AvgPartial {
        AvgPartial {
            sum: self.sum.local_tree(node, value),
            count: self.count.local_tree(node, value),
        }
    }

    fn merge_tree(&self, into: &mut AvgPartial, from: &AvgPartial) {
        self.sum.merge_tree(&mut into.sum, &from.sum);
        self.count.merge_tree(&mut into.count, &from.count);
    }

    fn local_synopsis(&self, node: u32, value: u64) -> AvgSynopsis {
        AvgSynopsis {
            sum: self.sum.local_synopsis(node, value),
            count: self.count.local_synopsis(node, value),
        }
    }

    fn fuse(&self, into: &mut AvgSynopsis, from: &AvgSynopsis) {
        self.sum.fuse(&mut into.sum, &from.sum);
        self.count.fuse(&mut into.count, &from.count);
    }

    fn convert(&self, root: u32, partial: &AvgPartial) -> AvgSynopsis {
        AvgSynopsis {
            sum: self.sum.convert(root, &partial.sum),
            count: self.count.convert(root, &partial.count),
        }
    }

    fn evaluate_tree(&self, partial: &AvgPartial) -> f64 {
        if partial.count == 0 {
            0.0
        } else {
            partial.sum as f64 / partial.count as f64
        }
    }

    fn evaluate_synopsis(&self, synopsis: &AvgSynopsis) -> f64 {
        let c = self.count.evaluate_synopsis(&synopsis.count);
        if c <= 0.0 {
            0.0
        } else {
            self.sum.evaluate_synopsis(&synopsis.sum) / c
        }
    }

    fn tree_words(&self, _partial: &AvgPartial) -> usize {
        2
    }

    fn synopsis_wire(&self, synopsis: &AvgSynopsis) -> WireSize {
        let a = self.sum.synopsis_wire(&synopsis.sum);
        let b = self.count.synopsis_wire(&synopsis.count);
        WireSize {
            bytes: a.bytes + b.bytes,
            words: a.words + b.words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{assert_conversion_sound, assert_fuse_laws, fuse_all, merge_all};

    fn readings() -> Vec<(u32, u64)> {
        (1..=200u32).map(|i| (i, 40 + (i as u64 % 21))).collect()
    }

    #[test]
    fn tree_average_exact() {
        let agg = Average::default();
        let rs = readings();
        let expect = rs.iter().map(|&(_, v)| v as f64).sum::<f64>() / rs.len() as f64;
        let p = merge_all(&agg, &rs).unwrap();
        assert!((agg.evaluate_tree(&p) - expect).abs() < 1e-9);
    }

    #[test]
    fn synopsis_average_close() {
        let agg = Average::default();
        let rs = readings();
        let expect = rs.iter().map(|&(_, v)| v as f64).sum::<f64>() / rs.len() as f64;
        let s = fuse_all(&agg, &rs).unwrap();
        let est = agg.evaluate_synopsis(&s);
        let rel = (est - expect).abs() / expect;
        assert!(rel < 0.5, "avg estimate {est} expect {expect}");
    }

    #[test]
    fn empty_average_is_zero() {
        let agg = Average::default();
        let p = AvgPartial::default();
        assert_eq!(agg.evaluate_tree(&p), 0.0);
    }

    #[test]
    fn fuse_laws() {
        let agg = Average::with_bitmaps(16);
        let a: Vec<(u32, u64)> = (1..40).map(|i| (i, 10)).collect();
        let b: Vec<(u32, u64)> = (30..80).map(|i| (i, 20)).collect();
        let c: Vec<(u32, u64)> = (70..90).map(|i| (i, 30)).collect();
        assert_fuse_laws(&agg, &a, &b, &c);
    }

    #[test]
    fn conversion_sound() {
        // A 100-node tributary converted at root 4 and fused with 100
        // native synopses: both component sketches convert, so the ratio
        // stays near the true average.
        let agg = Average::default();
        let rs = readings();
        let truth = rs.iter().map(|&(_, v)| v as f64).sum::<f64>() / rs.len() as f64;
        let (tree, mp) = rs.split_at(100);
        assert_conversion_sound(&agg, 4, &tree.to_vec(), &mp.to_vec(), 0.4, Some(truth));
    }
}
