//! Keyed union over flat sorted storage.
//!
//! The delta's set-valued messages are keyed sets — a frequent-items
//! synopsis holds one counter per item, a quantile synopsis one summary
//! per origin node — stored as `Vec<(key, value)>` sorted by key, and
//! fusing two of them is a keyed union: shared keys combine, new keys
//! are copied in. [`union_into`] is that union, one two-pointer walk,
//! reading the other set by reference.

/// Union `from` into `into`, both sorted by strictly increasing key. A
/// key present in both gets `both(&mut into_value, &from_value)`; a key
/// only in `from` is added as `copy(&from_value)`, in key order. Linear
/// in `|into| + |from|`; in place when `from` brings no new key, one
/// allocation otherwise.
pub fn union_into<K: Ord + Copy, V>(
    into: &mut Vec<(K, V)>,
    from: &[(K, V)],
    mut both: impl FnMut(&mut V, &V),
    mut copy: impl FnMut(&V) -> V,
) {
    debug_assert!(into.windows(2).all(|w| w[0].0 < w[1].0), "into not sorted");
    debug_assert!(from.windows(2).all(|w| w[0].0 < w[1].0), "from not sorted");
    // Shared keys combine in place; count the new ones.
    let mut added = 0;
    let mut i = 0;
    for (k, v) in from {
        while i < into.len() && into[i].0 < *k {
            i += 1;
        }
        if i < into.len() && into[i].0 == *k {
            both(&mut into[i].1, v);
            i += 1;
        } else {
            added += 1;
        }
    }
    if added == 0 {
        return;
    }
    // Interleave the new keys into one fresh run.
    let capacity = into.len() + added;
    let mut old = std::mem::replace(into, Vec::with_capacity(capacity))
        .into_iter()
        .peekable();
    for (k, v) in from {
        while let Some(e) = old.next_if(|e| e.0 < *k) {
            into.push(e);
        }
        match old.next_if(|e| e.0 == *k) {
            Some(e) => into.push(e),
            None => into.push((*k, copy(v))),
        }
    }
    into.extend(old);
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
            union_into(&mut into, &from, |x, y| *x += y, |&y| y);
            let mut expect = a.clone();
            for (&k, &v) in &b {
                *expect.entry(k).or_insert(0) += v;
            }
            prop_assert_eq!(into, expect.into_iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn no_new_key_means_no_copy() {
        let mut into = vec![(1u32, 10u64), (4, 40), (9, 90)];
        union_into(
            &mut into,
            &[(4, 1), (9, 1)],
            |x, y| *x += y,
            |_| unreachable!("every key is shared"),
        );
        assert_eq!(into, vec![(1, 10), (4, 41), (9, 91)]);
    }

    #[test]
    fn unions_with_empty_sides() {
        let mut into: Vec<(u32, u64)> = Vec::new();
        union_into(&mut into, &[(2, 5), (3, 6)], |_, _| {}, |&v| v);
        assert_eq!(into, vec![(2, 5), (3, 6)]);
        union_into(&mut into, &[], |_, _| {}, |&v| v);
        assert_eq!(into, vec![(2, 5), (3, 6)]);
    }
}
