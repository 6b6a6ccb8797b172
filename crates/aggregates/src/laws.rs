//! Generic law checks shared by aggregate tests.
//!
//! Every aggregate must satisfy:
//! * **⊕ laws** — `fuse` is commutative, associative, and idempotent (so
//!   multi-path re-delivery cannot corrupt answers);
//! * **conversion soundness** — converting a tree partial and fusing it
//!   yields (approximately) the same answer as generating synopses
//!   directly from the underlying readings;
//! * **tree exactness** — with no loss, the tree side reproduces the true
//!   answer for exact aggregates.

use crate::traits::Aggregate;

/// Readings used by the law checks: `(node, value)` pairs.
pub type Readings = Vec<(u32, u64)>;

/// Build the fused synopsis of all readings in the given order.
pub fn fuse_all<A: Aggregate>(agg: &A, readings: &[(u32, u64)]) -> Option<A::Synopsis> {
    let mut iter = readings.iter();
    let first = iter.next()?;
    let mut acc = agg.local_synopsis(first.0, first.1);
    for &(n, v) in iter {
        let s = agg.local_synopsis(n, v);
        agg.fuse(&mut acc, &s);
    }
    Some(acc)
}

/// Build the merged tree partial of all readings.
pub fn merge_all<A: Aggregate>(agg: &A, readings: &[(u32, u64)]) -> Option<A::TreePartial> {
    let mut iter = readings.iter();
    let first = iter.next()?;
    let mut acc = agg.local_tree(first.0, first.1);
    for &(n, v) in iter {
        let p = agg.local_tree(n, v);
        agg.merge_tree(&mut acc, &p);
    }
    Some(acc)
}

/// Assert the ⊕ laws on the synopsis side for the given readings.
///
/// `answers_equal` compares evaluated answers (exact equality for exact
/// synopses; use a tolerance-based closure for sketches whose internal
/// state is still deterministic — for those we compare the full evaluated
/// answer, which must be *bit-identical* because ⊕ implementations here
/// are deterministic structures).
pub fn assert_fuse_laws<A: Aggregate>(agg: &A, xs: &Readings, ys: &Readings, zs: &Readings) {
    let (Some(a), Some(b), Some(c)) = (fuse_all(agg, xs), fuse_all(agg, ys), fuse_all(agg, zs))
    else {
        return;
    };
    // Commutativity: a ⊕ b = b ⊕ a.
    let mut ab = a.clone();
    agg.fuse(&mut ab, &b);
    let mut ba = b.clone();
    agg.fuse(&mut ba, &a);
    assert_eq!(
        agg.evaluate_synopsis(&ab),
        agg.evaluate_synopsis(&ba),
        "fuse not commutative for {}",
        agg.name()
    );
    // Associativity: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c).
    let mut ab_c = ab.clone();
    agg.fuse(&mut ab_c, &c);
    let mut bc = b.clone();
    agg.fuse(&mut bc, &c);
    let mut a_bc = a.clone();
    agg.fuse(&mut a_bc, &bc);
    assert_eq!(
        agg.evaluate_synopsis(&ab_c),
        agg.evaluate_synopsis(&a_bc),
        "fuse not associative for {}",
        agg.name()
    );
    // Idempotence: a ⊕ a = a.
    let mut aa = a.clone();
    agg.fuse(&mut aa, &a);
    assert_eq!(
        agg.evaluate_synopsis(&aa),
        agg.evaluate_synopsis(&a),
        "fuse not idempotent for {}",
        agg.name()
    );
}

/// Assert the tree-merge law: `merge_tree` must be commutative and
/// associative (compared through `evaluate_tree`), so partial results
/// may combine in any delivery order — and so cross-epoch consumers
/// like the stream engine's window panes may fold per-epoch partials in
/// ring order, hop order, or eviction order interchangeably. Unlike
/// [`assert_fuse_laws`] there is no idempotence requirement: tree
/// merges are duplicate-sensitive by design.
pub fn assert_merge_laws<A: Aggregate>(agg: &A, xs: &Readings, ys: &Readings, zs: &Readings) {
    let (Some(a), Some(b), Some(c)) = (merge_all(agg, xs), merge_all(agg, ys), merge_all(agg, zs))
    else {
        return;
    };
    // Commutativity: a ⊎ b = b ⊎ a.
    let mut ab = a.clone();
    agg.merge_tree(&mut ab, &b);
    let mut ba = b.clone();
    agg.merge_tree(&mut ba, &a);
    assert_eq!(
        agg.evaluate_tree(&ab),
        agg.evaluate_tree(&ba),
        "merge_tree not commutative for {}",
        agg.name()
    );
    // Associativity: (a ⊎ b) ⊎ c = a ⊎ (b ⊎ c).
    let mut ab_c = ab.clone();
    agg.merge_tree(&mut ab_c, &c);
    let mut bc = b.clone();
    agg.merge_tree(&mut bc, &c);
    let mut a_bc = a.clone();
    agg.merge_tree(&mut a_bc, &bc);
    assert_eq!(
        agg.evaluate_tree(&ab_c),
        agg.evaluate_tree(&a_bc),
        "merge_tree not associative for {}",
        agg.name()
    );
}

/// Assert conversion soundness within `rel_tol` relative error: a tree
/// partial over `tree_readings`, converted at `root` and fused with the
/// direct synopses of `mp_readings`, must evaluate close to the reference
/// answer. The reference is `expected` when given (ground truth — the
/// right comparison for sketch-backed synopses, whose direct evaluation is
/// itself a noisy draw); otherwise the direct all-synopsis evaluation
/// (exact synopses must match it bit-for-bit with `rel_tol = 0`).
pub fn assert_conversion_sound<A: Aggregate>(
    agg: &A,
    root: u32,
    tree_readings: &Readings,
    mp_readings: &Readings,
    rel_tol: f64,
    expected: Option<f64>,
) {
    let tree_partial = merge_all(agg, tree_readings).expect("tree readings non-empty");
    let converted = agg.convert(root, &tree_partial);
    let mixed = match fuse_all(agg, mp_readings) {
        Some(mut mp) => {
            agg.fuse(&mut mp, &converted);
            mp
        }
        None => converted,
    };
    let mixed_answer = agg.evaluate_synopsis(&mixed);

    let reference = expected.unwrap_or_else(|| {
        let all: Readings = tree_readings
            .iter()
            .chain(mp_readings.iter())
            .copied()
            .collect();
        let direct = fuse_all(agg, &all).expect("non-empty");
        agg.evaluate_synopsis(&direct)
    });

    let denom = reference.abs().max(1.0);
    let rel = (mixed_answer - reference).abs() / denom;
    assert!(
        rel <= rel_tol,
        "{}: converted path answer {mixed_answer} vs reference {reference} (rel {rel} > {rel_tol})",
        agg.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count::Count;

    #[test]
    fn helpers_handle_empty_input() {
        let agg = Count::default();
        assert!(fuse_all(&agg, &[]).is_none());
        assert!(merge_all(&agg, &[]).is_none());
        assert_fuse_laws(&agg, &vec![], &vec![], &vec![]);
        assert_merge_laws(&agg, &vec![], &vec![], &vec![]);
    }

    #[test]
    fn merge_laws_hold_for_the_scalar_aggregates() {
        let xs: Readings = (1..30u32).map(|i| (i, 3 + i as u64 % 11)).collect();
        let ys: Readings = (30..55u32).map(|i| (i, 90 + i as u64 % 5)).collect();
        let zs: Readings = (55..70u32).map(|i| (i, i as u64)).collect();
        assert_merge_laws(&Count::default(), &xs, &ys, &zs);
        assert_merge_laws(&crate::sum::Sum::default(), &xs, &ys, &zs);
        assert_merge_laws(&crate::minmax::Min, &xs, &ys, &zs);
        assert_merge_laws(&crate::minmax::Max, &xs, &ys, &zs);
        assert_merge_laws(&crate::average::Average::default(), &xs, &ys, &zs);
    }
}
