//! Min and Max: exact in both schemes.
//!
//! Min/Max are naturally duplicate-insensitive (idempotent), so the tree
//! partial and the synopsis are the same scalar and the conversion is the
//! identity — the "simple conversion functions" of §5.

use crate::traits::Aggregate;
use td_netsim::message::WireSize;

/// Minimum reading across contributing nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Min;

/// Maximum reading across contributing nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Max;

macro_rules! impl_extremum {
    ($ty:ident, $name:literal, $pick:expr) => {
        impl Aggregate for $ty {
            type TreePartial = u64;
            type Synopsis = u64;

            fn name(&self) -> &'static str {
                $name
            }

            fn local_tree(&self, _node: u32, value: u64) -> u64 {
                value
            }

            fn merge_tree(&self, into: &mut u64, from: &u64) {
                #[allow(clippy::redundant_closure_call)]
                {
                    *into = ($pick)(*into, *from);
                }
            }

            fn local_synopsis(&self, _node: u32, value: u64) -> u64 {
                value
            }

            fn fuse(&self, into: &mut u64, from: &u64) {
                #[allow(clippy::redundant_closure_call)]
                {
                    *into = ($pick)(*into, *from);
                }
            }

            fn convert(&self, _root: u32, partial: &u64) -> u64 {
                *partial
            }

            fn evaluate_tree(&self, partial: &u64) -> f64 {
                *partial as f64
            }

            fn evaluate_synopsis(&self, synopsis: &u64) -> f64 {
                *synopsis as f64
            }

            fn tree_words(&self, _partial: &u64) -> usize {
                1
            }

            fn synopsis_wire(&self, _synopsis: &u64) -> WireSize {
                WireSize::from_words(1)
            }
        }
    };
}

impl_extremum!(Min, "min", |a: u64, b: u64| a.min(b));
impl_extremum!(Max, "max", |a: u64, b: u64| a.max(b));

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{assert_conversion_sound, assert_fuse_laws, fuse_all};

    fn readings() -> Vec<(u32, u64)> {
        vec![(1, 30), (2, 7), (3, 99), (4, 7), (5, 55)]
    }

    #[test]
    fn min_and_max_answers() {
        let min_s = fuse_all(&Min, &readings()).unwrap();
        assert_eq!(Min.evaluate_synopsis(&min_s), 7.0);
        let max_s = fuse_all(&Max, &readings()).unwrap();
        assert_eq!(Max.evaluate_synopsis(&max_s), 99.0);
    }

    #[test]
    fn exact_conversion() {
        assert_conversion_sound(&Min, 1, &readings(), &vec![(9, 3), (10, 80)], 0.0, None);
        assert_conversion_sound(&Max, 1, &readings(), &vec![(9, 3), (10, 80)], 0.0, None);
    }

    #[test]
    fn fuse_laws() {
        let (a, b, c) = (readings(), vec![(6, 1), (7, 2)], vec![(8, 1000)]);
        assert_fuse_laws(&Min, &a, &b, &c);
        assert_fuse_laws(&Max, &a, &b, &c);
    }

    #[test]
    fn idempotent_under_redelivery() {
        let s = fuse_all(&Max, &readings()).unwrap();
        let mut twice = s;
        Max.fuse(&mut twice, &s);
        assert_eq!(twice, s);
    }
}
