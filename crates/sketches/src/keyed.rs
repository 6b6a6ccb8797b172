//! Keyed union over flat sorted storage.
//!
//! The delta's set-valued messages are keyed sets — a frequent-items
//! synopsis holds one counter per item, a quantile synopsis one part
//! per origin node — stored flat and sorted by key, and fusing two of
//! them is a keyed union: shared keys combine, new keys are copied in.
//! [`union_into`] is that union over `(key, value)` pairs, reading the
//! other set by reference and growing the receiver in place;
//! [`union_by`] is the same union over entries that carry their own key.

/// Union `from` into `into`, both sorted by strictly increasing key. A
/// key present in both gets `both(&mut into_value, &from_value)`; a key
/// only in `from` is added as `copy(&from_value)`, in key order.
///
/// Linear in `|into| + |from|` and in place: shared keys combine in one
/// forward walk; if `from` brings new keys, `into` grows at its tail by
/// one stand-in per new key (`spare(&from_value)`, a cheap value that is
/// overwritten before the call returns) and one backward walk moves each
/// old entry at most once and writes each new key straight into its
/// final slot. No allocation when `into` has the capacity for the new
/// keys, and `copy` runs exactly once per new key.
pub fn union_into<K: Ord + Copy, V>(
    into: &mut Vec<(K, V)>,
    from: &[(K, V)],
    mut both: impl FnMut(&mut V, &V),
    mut copy: impl FnMut(&V) -> V,
    mut spare: impl FnMut(&V) -> V,
) {
    union_by(
        into,
        from,
        |e| e.0,
        |x, y| both(&mut x.1, &y.1),
        |y| (y.0, copy(&y.1)),
        |y| (y.0, spare(&y.1)),
    );
}

/// [`union_into`] over entries that carry their own key, read by `key`:
/// `both`, `copy` and `spare` see whole entries, and a copied entry must
/// keep its key.
pub fn union_by<T, K: Ord + Copy>(
    into: &mut Vec<T>,
    from: &[T],
    key: impl Fn(&T) -> K,
    mut both: impl FnMut(&mut T, &T),
    mut copy: impl FnMut(&T) -> T,
    mut spare: impl FnMut(&T) -> T,
) {
    debug_assert!(
        into.windows(2).all(|w| key(&w[0]) < key(&w[1])),
        "into not sorted"
    );
    debug_assert!(
        from.windows(2).all(|w| key(&w[0]) < key(&w[1])),
        "from not sorted"
    );
    // Shared keys combine in place; count the new ones.
    let mut added = 0;
    let mut i = 0;
    for e in from {
        let k = key(e);
        while i < into.len() && key(&into[i]) < k {
            i += 1;
        }
        if i < into.len() && key(&into[i]) == k {
            both(&mut into[i], e);
            i += 1;
        } else {
            added += 1;
        }
    }
    if added == 0 {
        return;
    }
    // Old entries not yet placed are `into[..i]`, final slots are
    // `into[w..]`, and the `w - i` slots between hold stand-ins: one per
    // new key not yet written.
    let e0 = &from[0];
    into.extend((0..added).map(|_| spare(e0)));
    let mut i = into.len() - added;
    let mut w = into.len();
    for e in from.iter().rev() {
        if i == w {
            // No new key left: the rest is in place already.
            break;
        }
        let k = key(e);
        while i > 0 && key(&into[i - 1]) > k {
            i -= 1;
            w -= 1;
            into.swap(i, w);
        }
        w -= 1;
        if i > 0 && key(&into[i - 1]) == k {
            i -= 1;
            into.swap(i, w);
        } else {
            into[w] = copy(e);
        }
    }
    debug_assert_eq!(i, w, "every stand-in was overwritten");
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The union is the `BTreeMap` keyed union: shared keys combined
        /// (here: added), new keys copied, result sorted.
        #[test]
        fn prop_union_is_the_map_union(
            a in proptest::collection::btree_map(0u32..60, 0u64..1000, 0..30),
            b in proptest::collection::btree_map(0u32..60, 0u64..1000, 0..30),
        ) {
            let mut into: Vec<(u32, u64)> = a.iter().map(|(&k, &v)| (k, v)).collect();
            let from: Vec<(u32, u64)> = b.iter().map(|(&k, &v)| (k, v)).collect();
            union_into(&mut into, &from, |x, y| *x += y, |&y| y, |&y| y);
            let mut expect = a.clone();
            for (&k, &v) in &b {
                *expect.entry(k).or_insert(0) += v;
            }
            prop_assert_eq!(into, expect.into_iter().collect::<Vec<_>>());
        }
    }

    proptest! {
        /// Every new key is copied exactly once, straight into its slot,
        /// and a receiver with room for the new keys keeps its buffer.
        #[test]
        fn prop_union_copies_each_new_key_once_in_place(
            a in proptest::collection::btree_map(0u32..60, 0u64..1000, 0..30),
            b in proptest::collection::btree_map(0u32..60, 0u64..1000, 0..30),
        ) {
            let mut into: Vec<(u32, u64)> = Vec::with_capacity(a.len() + b.len());
            into.extend(a.iter().map(|(&k, &v)| (k, v)));
            let from: Vec<(u32, u64)> = b.iter().map(|(&k, &v)| (k, v)).collect();
            let buffer = into.as_ptr();
            let mut copies = 0;
            union_into(&mut into, &from, |x, y| *x += y, |&y| { copies += 1; y }, |_| 0);
            prop_assert_eq!(copies, b.keys().filter(|k| !a.contains_key(k)).count());
            prop_assert_eq!(into.as_ptr(), buffer);
        }
    }

    /// New keys below, between and above the old ones, one union.
    #[test]
    fn new_keys_interleave_with_old_ones() {
        let mut into = vec![(2u32, 20u64), (5, 50), (8, 80)];
        union_into(
            &mut into,
            &[(1, 1), (3, 3), (5, 5), (6, 6), (9, 9)],
            |x, y| *x += y,
            |&y| y,
            |_| u64::MAX,
        );
        assert_eq!(
            into,
            vec![(1, 1), (2, 20), (3, 3), (5, 55), (6, 6), (8, 80), (9, 9)]
        );
    }

    #[test]
    fn no_new_key_means_no_copy() {
        let mut into = vec![(1u32, 10u64), (4, 40), (9, 90)];
        union_into(
            &mut into,
            &[(4, 1), (9, 1)],
            |x, y| *x += y,
            |_| unreachable!("every key is shared"),
            |_| unreachable!("every key is shared"),
        );
        assert_eq!(into, vec![(1, 10), (4, 41), (9, 91)]);
    }

    #[test]
    fn unions_with_empty_sides() {
        let mut into: Vec<(u32, u64)> = Vec::new();
        union_into(&mut into, &[(2, 5), (3, 6)], |_, _| {}, |&v| v, |&v| v);
        assert_eq!(into, vec![(2, 5), (3, 6)]);
        union_into(&mut into, &[], |_, _| {}, |&v| v, |&v| v);
        assert_eq!(into, vec![(2, 5), (3, 6)]);
    }
}
