//! The paper's multi-path frequent-items algorithm (§6.2, Algorithm 2).
//!
//! Three ideas make Algorithm 1 duplicate-insensitive:
//!
//! 1. **⊕ everywhere** — Steps 1 and 2 replace addition with a
//!    duplicate-insensitive sum (any [`DiCounter`]); populations are
//!    salted by `(item, node)` so multi-path re-delivery dedups exactly.
//! 2. **Rising thresholds instead of subtraction** — no known
//!    duplicate-insensitive *subtraction* preserves small synopses, so
//!    instead of decrementing estimates, an item is dropped once
//!    `ε·ñ / log N ≥ η·c̃(u)`: the threshold rises with the (estimated)
//!    population ñ, and the slack factor `η > 1` absorbs ⊕'s estimation
//!    error so items are not dropped wrongly.
//! 3. **Classes** — a synopsis is in class `i` when it represents ≈ `2^i`
//!    items; only same-class synopses fuse, and a fusion whose ñ exceeds
//!    `2^{i+1}` promotes to class `i+1` and re-applies the drop rule.
//!    With at most `log N + 1` classes, each node transmits at most one
//!    synopsis per class.
//!
//! Synopsis generation prunes items with frequency ≤ `i·n0·ε / log N`
//! (`i = ⌊log n0⌋`), charging the thresholds a leaf "skipped" by starting
//! at class `i`. Synopsis evaluation ⊕-sums an item's counters across all
//! classes — safe because copies of the same population carry the same
//! salts and dedup.

use crate::items::{Item, ItemBag};
use std::collections::BTreeMap;
use td_netsim::node::NodeId;
use td_sketches::counter::{CounterFactory, DiCounter};
use td_sketches::hash::keyed_pair;
use td_sketches::keyed::union_into;

/// Hash key for item-occurrence populations.
const ITEM_POP_KEY: u64 = 0xF4E9;

/// Configuration of the multi-path algorithm.
#[derive(Clone, Debug)]
pub struct MultipathConfig<F> {
    /// Error tolerance ε (the multi-path share ε_b in a TD deployment).
    pub eps: f64,
    /// Threshold slack η > 1 (absorbs ⊕ estimation error).
    pub eta: f64,
    /// Upper bound on the total number of occurrences N (fixes the class
    /// count `log N + 1`).
    pub n_upper: u64,
    /// Factory for the duplicate-insensitive counters.
    pub factory: F,
}

impl<F> MultipathConfig<F> {
    /// Create a config.
    ///
    /// # Panics
    /// Panics unless `0 < eps < 1`, `eta > 1`, `n_upper ≥ 2`.
    pub fn new(eps: f64, eta: f64, n_upper: u64, factory: F) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps {eps} out of (0,1)");
        assert!(eta > 1.0, "the paper restricts η > 1, got {eta}");
        assert!(n_upper >= 2);
        MultipathConfig {
            eps,
            eta,
            n_upper,
            factory,
        }
    }

    /// `log₂ N` used by the thresholds (at least 1).
    pub fn log_n(&self) -> f64 {
        (self.n_upper as f64).log2().max(1.0)
    }
}

/// A class-`i` synopsis: a duplicate-insensitive count ñ of the items it
/// represents plus per-item duplicate-insensitive counters, stored flat —
/// `(item, counter)` pairs sorted by item — so two synopses fuse in one
/// two-pointer walk.
#[derive(Clone, Debug)]
pub struct ClassSynopsis<C> {
    /// The synopsis class `i` (ñ ≈ 2^i).
    pub class: u32,
    /// Duplicate-insensitive count of total represented occurrences ñ.
    pub total: C,
    items: Vec<(Item, C)>,
}

impl<C: DiCounter> ClassSynopsis<C> {
    /// Number of items carried.
    pub fn num_items(&self) -> usize {
        self.items.len()
    }

    /// Iterate `(item, estimated count)` in item order.
    pub fn estimates(&self) -> impl Iterator<Item = (Item, f64)> + '_ {
        self.items.iter().map(|(u, c)| (*u, c.estimate()))
    }

    /// Wire size in 32-bit words: per class 2 header words (class, item
    /// count) + the ñ counter + each item id with its counter.
    pub fn wire_words(&self) -> usize {
        self.view().wire_words()
    }

    /// This synopsis, read in place.
    fn view(&self) -> SynRef<'_, C> {
        SynRef {
            class: self.class,
            total: &self.total,
            items: &self.items,
        }
    }

    /// Steps 1 and 2 of Algorithm 2 against a borrowed synopsis: ñ ⊕ ñ'
    /// and per-item ⊕, copying only the counters of items `self` lacks.
    /// The item list grows in place; `factory` makes the stand-ins it
    /// grows by.
    fn absorb<F: CounterFactory<Counter = C>>(&mut self, other: SynRef<'_, C>, factory: &F) {
        self.total.merge(other.total);
        union_into(&mut self.items, other.items, C::merge, C::clone, |_| {
            factory.new_counter()
        });
    }

    /// Step 3: promote while ñ exceeds the class budget, then drop the
    /// items below the rising threshold (in place). The threshold
    /// `ε·ñ / log N` does not depend on the class, so a promotion of
    /// several steps drops once, and it is computed once per promotion.
    fn promote<F: CounterFactory<Counter = C>>(&mut self, cfg: &MultipathConfig<F>) {
        let n_est = self.total.estimate();
        let log_n = cfg.log_n();
        let from = self.class;
        while n_est > 2f64.powi(self.class as i32 + 1) && (self.class as f64) < log_n {
            self.class += 1;
        }
        if self.class > from {
            let threshold = cfg.eps * n_est / log_n;
            let eta = cfg.eta;
            C::retain_by_estimate(&mut self.items, |c| threshold < eta * c);
        }
    }
}

/// Synopsis generation (SG): build a class-`⌊log n0⌋` synopsis from
/// `(item, count)` pairs totalling `n0` occurrences, salted by
/// `source_salt` (the node id, or the tributary root for conversions).
/// Items with frequency ≤ `i·n0·ε / log N` are pruned; a repeated item
/// keeps its last count. Returns `None` for an empty collection.
pub fn generate<F: CounterFactory>(
    cfg: &MultipathConfig<F>,
    source_salt: u64,
    pairs: impl Iterator<Item = (Item, u64)>,
    n0: u64,
) -> Option<ClassSynopsis<F::Counter>> {
    generate_in(cfg, source_salt, pairs, n0, Vec::new())
}

/// SG writing its items into `items` (cleared first), whose capacity
/// it keeps.
fn generate_in<F: CounterFactory>(
    cfg: &MultipathConfig<F>,
    source_salt: u64,
    pairs: impl Iterator<Item = (Item, u64)>,
    n0: u64,
    mut items: Vec<(Item, F::Counter)>,
) -> Option<ClassSynopsis<F::Counter>> {
    if n0 == 0 {
        return None;
    }
    let class = (n0 as f64).log2().floor() as u32;
    let threshold = class as f64 * n0 as f64 * cfg.eps / cfg.log_n();
    items.clear();
    items.reserve(pairs.size_hint().0);
    for (u, c) in pairs {
        if (c as f64) > threshold {
            let mut counter = cfg.factory.new_counter();
            counter.add_occurrences(keyed_pair(ITEM_POP_KEY, u, source_salt), c);
            // Bags and summaries iterate in item order, so this is a push.
            match items.binary_search_by_key(&u, |e| e.0) {
                Ok(i) => items[i].1 = counter,
                Err(i) => items.insert(i, (u, counter)),
            }
        }
    }
    let mut total = cfg.factory.new_counter();
    total.add_occurrences(source_salt, n0);
    Some(ClassSynopsis {
        class,
        total,
        items,
    })
}

/// SG from a node's item bag.
pub fn generate_from_bag<F: CounterFactory>(
    cfg: &MultipathConfig<F>,
    node: NodeId,
    bag: &ItemBag,
) -> Option<ClassSynopsis<F::Counter>> {
    generate(cfg, node.0 as u64, bag.iter(), bag.total())
}

/// **Algorithm 2**: fuse two synopses of the same class. The result is of
/// class `i` or higher (promotion re-applies the rising-threshold drop).
pub fn fuse<F: CounterFactory>(
    cfg: &MultipathConfig<F>,
    mut a: ClassSynopsis<F::Counter>,
    b: ClassSynopsis<F::Counter>,
) -> ClassSynopsis<F::Counter> {
    assert_eq!(a.class, b.class, "only same-class synopses fuse");
    a.absorb(b.view(), &cfg.factory);
    a.promote(cfg);
    a
}

/// A class synopsis read in place: a [`ClassSynopsis`], or one of a
/// sealed set's, whose items sit in the set's one buffer.
#[derive(Clone, Copy)]
struct SynRef<'a, C> {
    class: u32,
    total: &'a C,
    items: &'a [(Item, C)],
}

impl<'a, C: DiCounter> SynRef<'a, C> {
    /// [`ClassSynopsis::wire_words`]'s header and item ids.
    fn header_words(&self) -> usize {
        2 + 2 * self.items.len()
    }

    /// The ñ counter, then each item's counter.
    fn counters(&self) -> impl Iterator<Item = &'a C> {
        std::iter::once(self.total).chain(self.items.iter().map(|(_, c)| c))
    }

    /// [`ClassSynopsis::wire_words`].
    fn wire_words(&self) -> usize {
        self.header_words() + C::wire_words_sum(self.counters())
    }
}

/// The collection of synopses a node holds/transmits: at most one per
/// class after [`SynopsisSet::compact`] or [`SynopsisSet::fuse`].
///
/// A set takes one of two forms, which fuse, evaluate, size and copy
/// alike. A set being built (a long-lived accumulator) keeps one item
/// list per synopsis, plus the item storage of the synopses it retired
/// ([`clear`](Self::clear), fusion, [`seal`](Self::seal)), and builds
/// new synopses in it. A sealed set (a message on the air) keeps every
/// synopsis's items in one exact-size buffer: two allocations, its
/// headers and its items, whatever its class count. Building on a sealed
/// set gives it back one list per synopsis first; a cloned set keeps no
/// retired storage.
#[derive(Debug)]
pub struct SynopsisSet<C> {
    /// Ascending by class; within a class, in arrival order (compaction
    /// fuses the newest two first). Empty in a sealed set.
    syns: Vec<ClassSynopsis<C>>,
    /// Emptied item lists of retired synopses, for reuse.
    spare: Vec<Vec<(Item, C)>>,
    /// A sealed set's synopses, in the same order, without their items.
    heads: Box<[Head<C>]>,
    /// A sealed set's items: synopsis `k`'s are
    /// `items[heads[k - 1].end..heads[k].end]`.
    items: Box<[(Item, C)]>,
}

/// A sealed synopsis: its class and ñ, and where its items end in the
/// set's buffer.
#[derive(Clone, Debug)]
struct Head<C> {
    class: u32,
    end: u32,
    total: C,
}

impl<C: DiCounter> Default for SynopsisSet<C> {
    fn default() -> Self {
        SynopsisSet {
            syns: Vec::new(),
            spare: Vec::new(),
            heads: Box::default(),
            items: Box::default(),
        }
    }
}

impl<C: DiCounter> Clone for SynopsisSet<C> {
    fn clone(&self) -> Self {
        SynopsisSet {
            syns: self.syns.clone(),
            spare: Vec::new(),
            heads: self.heads.clone(),
            items: self.items.clone(),
        }
    }

    /// Copies `source`'s synopses into this set's retired storage,
    /// leaving it a set being built.
    fn clone_from(&mut self, source: &Self) {
        self.clear();
        for s in source.iter() {
            let copy = copy_into(&mut self.spare, s);
            self.syns.push(copy);
        }
    }
}

/// Entries of [`SynopsisSet::fuse`]'s settling list: an index into the
/// receiver's synopses, or, with this bit set, into the lent set's.
const LENT: u32 = 1 << 31;

/// A fusion settles on a list of this many entries on the stack: two
/// compact sets over every class there is (0 to 64, as `N ≤ 2^64`).
/// Longer lists (non-compact inputs) spill to the heap.
const ON_STACK: usize = 130;

/// A copy of `s` whose item list reuses a spare one.
fn copy_into<C: DiCounter>(spare: &mut Vec<Vec<(Item, C)>>, s: SynRef<'_, C>) -> ClassSynopsis<C> {
    let mut items = spare.pop().unwrap_or_default();
    items.extend_from_slice(s.items);
    ClassSynopsis {
        class: s.class,
        total: s.total.clone(),
        items,
    }
}

/// `syns[a]` mutably and `syns[b]` shared, `a ≠ b`.
fn pair_mut<T>(syns: &mut [T], a: usize, b: usize) -> (&mut T, &T) {
    if a < b {
        let (lo, hi) = syns.split_at_mut(b);
        (&mut lo[a], &hi[0])
    } else {
        let (lo, hi) = syns.split_at_mut(a);
        (&mut hi[0], &lo[b])
    }
}

impl<C: DiCounter> SynopsisSet<C> {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the set holds no synopses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set holds at most one synopsis per class.
    pub fn is_compact(&self) -> bool {
        (1..self.len()).all(|k| self.class_of(k - 1) != self.class_of(k))
    }

    /// Number of synopses, in either form.
    fn len(&self) -> usize {
        self.syns.len() + self.heads.len()
    }

    /// Synopsis `k`'s class.
    fn class_of(&self, k: usize) -> u32 {
        match self.heads.get(k) {
            Some(h) => h.class,
            None => self.syns[k].class,
        }
    }

    /// Synopsis `k`, read in place.
    fn syn(&self, k: usize) -> SynRef<'_, C> {
        match self.heads.get(k) {
            Some(h) => {
                let start = k.checked_sub(1).map_or(0, |p| self.heads[p].end as usize);
                SynRef {
                    class: h.class,
                    total: &h.total,
                    items: &self.items[start..h.end as usize],
                }
            }
            None => self.syns[k].view(),
        }
    }

    /// Every synopsis in order, read in place.
    fn iter(&self) -> impl Iterator<Item = SynRef<'_, C>> {
        (0..self.len()).map(|k| self.syn(k))
    }

    /// Give a sealed set one item list per synopsis again, so it can be
    /// built on; its buffer joins the retired storage. A no-op on a set
    /// being built.
    fn unseal(&mut self) {
        if self.heads.is_empty() {
            return;
        }
        let mut buffer = std::mem::take(&mut self.items).into_vec();
        let mut items = buffer.drain(..);
        let mut start = 0;
        for h in std::mem::take(&mut self.heads).into_vec() {
            let mut list = self.spare.pop().unwrap_or_default();
            list.extend(items.by_ref().take(h.end as usize - start));
            start = h.end as usize;
            self.syns.push(ClassSynopsis {
                class: h.class,
                total: h.total,
                items: list,
            });
        }
        drop(items);
        self.spare.push(buffer);
    }

    /// Add one synopsis (the newest of its class).
    pub fn insert(&mut self, s: ClassSynopsis<C>) {
        self.unseal();
        let at = self.syns.partition_point(|x| x.class <= s.class);
        self.syns.insert(at, s);
    }

    /// Absorb all synopses of another set: with
    /// [`compact`](Self::compact), the definition of a fusion that the
    /// fusion tests hold [`fuse`](Self::fuse) to.
    #[cfg(test)]
    pub fn absorb(&mut self, mut other: SynopsisSet<C>) {
        other.unseal();
        for s in other.syns {
            self.insert(s);
        }
    }

    /// Drop every synopsis, keeping their storage for reuse.
    pub fn clear(&mut self) {
        self.unseal();
        let SynopsisSet { syns, spare, .. } = self;
        for s in syns.drain(..) {
            spare.push(retired(s));
        }
    }

    /// SG into this set: insert the synopsis of `(item, count)` pairs
    /// totalling `n0` occurrences salted by `source_salt` (see
    /// [`generate`]), built in retired storage. Returns whether there was
    /// one (`n0 > 0`).
    pub fn insert_generated<F: CounterFactory<Counter = C>>(
        &mut self,
        cfg: &MultipathConfig<F>,
        source_salt: u64,
        pairs: impl Iterator<Item = (Item, u64)>,
        n0: u64,
    ) -> bool {
        let items = self.spare.pop().unwrap_or_default();
        match generate_in(cfg, source_salt, pairs, n0, items) {
            Some(s) => {
                self.insert(s);
                true
            }
            None => false,
        }
    }

    /// Move the synopses out into a sealed set, every synopsis's items
    /// in one exact-size buffer, leaving this set empty with every item
    /// list kept for the next message it builds. Nothing is cloned.
    pub fn seal(&mut self) -> SynopsisSet<C> {
        self.unseal();
        let SynopsisSet { syns, spare, .. } = self;
        let mut heads = Vec::with_capacity(syns.len());
        let mut items = Vec::with_capacity(syns.iter().map(|s| s.items.len()).sum());
        for mut s in syns.drain(..) {
            items.append(&mut s.items);
            heads.push(Head {
                class: s.class,
                end: items.len() as u32,
                total: s.total,
            });
            spare.push(s.items);
        }
        SynopsisSet {
            heads: heads.into_boxed_slice(),
            items: items.into_boxed_slice(),
            ..SynopsisSet::default()
        }
    }

    /// Fuse down to at most one synopsis per class, beginning with the
    /// smallest class (§6.2 "Synopsis Fusion"): compaction is a fusion
    /// with nothing.
    pub fn compact<F: CounterFactory<Counter = C>>(&mut self, cfg: &MultipathConfig<F>) {
        self.fuse(cfg, &SynopsisSet::new());
    }

    /// ODI fusion of a borrowed set: the representation
    /// `self.absorb(from.clone()); self.compact(cfg)` produces, without
    /// the copy. It replays compaction's exact pairing order — the
    /// smallest class holding two or more synopses first, its newest two
    /// fused, `from`'s synopses newer than `self`'s — over a list of
    /// indices (on the stack for compact inputs), and copies only a
    /// synopsis of a class nothing of `self` fuses with (plus, inside a
    /// fusion, the counters of items the receiving synopsis lacks). Where
    /// compaction would fuse a borrowed synopsis into an owned one it
    /// fuses the other way round, which relies on ⊕ commuting on the
    /// counters' representation (it does for the exact and FM
    /// counters). A synopsis fused into another is retired and its item
    /// storage kept for reuse.
    pub fn fuse<F: CounterFactory<Counter = C>>(
        &mut self,
        cfg: &MultipathConfig<F>,
        from: &SynopsisSet<C>,
    ) {
        self.unseal();
        let n = self.syns.len() + from.len();
        let mut stack = [0u32; ON_STACK];
        let mut heap = Vec::new();
        let list = if n <= ON_STACK {
            &mut stack[..n]
        } else {
            heap.resize(n, 0);
            &mut heap[..]
        };
        self.settle(cfg, from, list);
    }

    /// [`fuse`](Self::fuse) over `list`, one entry per synopsis of either
    /// set.
    fn settle<F: CounterFactory<Counter = C>>(
        &mut self,
        cfg: &MultipathConfig<F>,
        from: &SynopsisSet<C>,
        list: &mut [u32],
    ) {
        // The list `absorb` would build: per class, own then lent.
        let mut len = 0;
        let mut lent = 0;
        for (i, s) in self.syns.iter().enumerate() {
            while lent < from.len() && from.class_of(lent) < s.class {
                list[len] = LENT | lent as u32;
                (len, lent) = (len + 1, lent + 1);
            }
            list[len] = i as u32;
            len += 1;
        }
        for j in lent..from.len() {
            list[len] = LENT | j as u32;
            len += 1;
        }
        let class = |syns: &[ClassSynopsis<C>], e: u32| {
            if e & LENT == 0 {
                syns[e as usize].class
            } else {
                from.class_of((e & !LENT) as usize)
            }
        };
        // The smallest class holding two or more synopses is the first
        // adjacent pair of equal classes.
        while let Some(first) = list[..len]
            .windows(2)
            .position(|w| class(&self.syns, w[0]) == class(&self.syns, w[1]))
        {
            let c = class(&self.syns, list[first]);
            let end = first + list[first..len].partition_point(|&e| class(&self.syns, e) == c);
            let (newest, older) = (list[end - 1], list[end - 2]);
            // Fuse into an own synopsis: the newest if own, else the
            // older if own, else a copy of the newest.
            let (mut into, other) = match (newest & LENT == 0, older & LENT == 0) {
                (true, _) => (newest as usize, older),
                (false, true) => (older as usize, newest),
                (false, false) => {
                    let copy = copy_into(&mut self.spare, from.syn((newest & !LENT) as usize));
                    self.syns.push(copy);
                    (self.syns.len() - 1, older)
                }
            };
            let retire = (newest & LENT == 0 && older & LENT == 0).then_some(older as usize);
            if other & LENT == 0 {
                let (a, b) = pair_mut(&mut self.syns, into, other as usize);
                a.absorb(b.view(), &cfg.factory);
            } else {
                self.syns[into].absorb(from.syn((other & !LENT) as usize), &cfg.factory);
            }
            self.syns[into].promote(cfg);
            list.copy_within(end..len, end - 2);
            len -= 2;
            if let Some(dead) = retire {
                // Keep the own indices dense: the last synopsis takes
                // the retired one's index.
                let last = (self.syns.len() - 1) as u32;
                let s = self.syns.swap_remove(dead);
                self.spare.push(retired(s));
                if let Some(e) = list[..len].iter_mut().find(|e| **e == last) {
                    *e = dead as u32;
                }
                if into == last as usize {
                    into = dead;
                }
            }
            let fused = self.syns[into].class;
            let at = list[..len].partition_point(|&e| class(&self.syns, e) <= fused);
            list.copy_within(at..len, at + 1);
            list[at] = into as u32;
            len += 1;
        }
        // Copy in the lent synopses left alone in their class, then put
        // the own ones in list order: every own index appears once, so
        // the list is a permutation of them.
        for e in &mut list[..len] {
            if *e & LENT != 0 {
                let copy = copy_into(&mut self.spare, from.syn((*e & !LENT) as usize));
                self.syns.push(copy);
                *e = (self.syns.len() - 1) as u32;
            }
        }
        debug_assert_eq!(len, self.syns.len());
        for p in 0..len {
            // Where the synopsis listed at `p` is now: positions before
            // `p` have already taken theirs, each by one swap.
            let mut at = list[p] as usize;
            while at < p {
                at = list[at] as usize;
            }
            self.syns.swap(p, at);
        }
    }

    /// Wire size in words across all synopses, every counter of the set
    /// sized in one call.
    pub fn wire_words(&self) -> usize {
        let headers: usize = self.iter().map(|s| s.header_words()).sum();
        headers + C::wire_words_sum(self.iter().flat_map(|s| s.counters()))
    }

    /// Synopsis evaluation (SE): ⊕-combine each item's counters across
    /// all classes and estimate; also estimate the total N̂.
    pub fn evaluate(&self) -> FreqEstimates {
        let mut total: Option<C> = None;
        for s in self.iter() {
            match &mut total {
                Some(t) => t.merge(s.total),
                None => total = Some(s.total.clone()),
            }
        }
        // ⊕ commutes, so each item's counters combine in any order.
        let mut per_item: Vec<(Item, &C)> = self
            .iter()
            .flat_map(|s| s.items.iter().map(|(u, c)| (*u, c)))
            .collect();
        per_item.sort_by_key(|&(u, _)| u);
        let counts = per_item
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| {
                let mut c = run[0].1.clone();
                for (_, other) in &run[1..] {
                    c.merge(other);
                }
                (run[0].0, c.estimate())
            })
            .collect();
        FreqEstimates {
            n_est: total.map_or(0.0, |t| t.estimate()),
            counts,
        }
    }
}

/// A retired synopsis's item list, emptied for reuse.
fn retired<C>(s: ClassSynopsis<C>) -> Vec<(Item, C)> {
    let mut items = s.items;
    items.clear();
    items
}

/// The output of synopsis evaluation.
#[derive(Clone, Debug, Default)]
pub struct FreqEstimates {
    /// Estimated total occurrences N̂.
    pub n_est: f64,
    /// Estimated per-item counts.
    pub counts: BTreeMap<Item, f64>,
}

impl FreqEstimates {
    /// Report items whose estimate exceeds `fraction · N̂` (callers pass
    /// `s − ε` per the paper's reporting rule).
    pub fn report(&self, fraction: f64) -> Vec<Item> {
        let threshold = fraction * self.n_est;
        self.counts
            .iter()
            .filter(|(_, &c)| c > threshold)
            .map(|(&u, _)| u)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{count_items, true_frequent};
    use td_netsim::network::Network;
    use td_netsim::node::Position;
    use td_netsim::rng::rng_from_seed;
    use td_netsim::stats::CommStats;
    use td_sketches::counter::{CounterFactory, DiCounter, ExactFactory, FmFactory};
    use td_topology::rings::Rings;

    fn cfg_exact(eps: f64, n_upper: u64) -> MultipathConfig<ExactFactory> {
        MultipathConfig::new(eps, 1.5, n_upper, ExactFactory)
    }

    #[test]
    fn sg_prunes_rare_items_and_sets_class() {
        let cfg = cfg_exact(0.1, 1 << 20);
        let bag = ItemBag::from_counts([(1, 900), (2, 80), (3, 20), (4, 1)]);
        // n0 = 1001, class = 9, threshold = 9 * 1001 * 0.1 / 20 ≈ 45.
        let s = generate_from_bag(&cfg, NodeId(5), &bag).unwrap();
        assert_eq!(s.class, 9);
        let items: Vec<Item> = s.estimates().map(|(u, _)| u).collect();
        assert_eq!(items, vec![1, 2]);
        assert!((s.total.estimate() - 1001.0).abs() < 1e-9);
    }

    #[test]
    fn empty_bag_generates_nothing() {
        let cfg = cfg_exact(0.1, 1024);
        assert!(generate_from_bag(&cfg, NodeId(1), &ItemBag::new()).is_none());
    }

    #[test]
    fn fuse_dedups_duplicate_populations() {
        let cfg = cfg_exact(0.01, 1 << 16);
        let bag = ItemBag::from_counts([(1, 500), (2, 300)]);
        let a = generate_from_bag(&cfg, NodeId(1), &bag).unwrap();
        let b = a.clone();
        let fused = fuse(&cfg, a, b.clone());
        // Fusing a synopsis with its own copy must not change estimates.
        assert!((fused.total.estimate() - 800.0).abs() < 1e-9);
        let est: BTreeMap<Item, f64> = fused.estimates().collect();
        assert!((est[&1] - 500.0).abs() < 1e-9);
    }

    #[test]
    fn fuse_promotes_class_and_drops() {
        let cfg = cfg_exact(0.2, 1 << 10);
        // Two nodes, each n0 = 612 (class 9): fused ñ = 1224 > 2^10 -> promote.
        let a =
            generate_from_bag(&cfg, NodeId(1), &ItemBag::from_counts([(1, 600), (2, 12)])).unwrap();
        let b =
            generate_from_bag(&cfg, NodeId(2), &ItemBag::from_counts([(1, 600), (3, 12)])).unwrap();
        assert_eq!(a.class, b.class);
        let fused = fuse(&cfg, a, b);
        assert!(fused.class >= 10, "class {}", fused.class);
        // Threshold at promotion: 0.2 * 1224 / 10 = 24.5; η = 1.5 ->
        // items with est < 16.3 drop: items 2 and 3 (12) go, item 1 stays.
        let items: Vec<Item> = fused.estimates().map(|(u, _)| u).collect();
        assert_eq!(items, vec![1]);
    }

    #[test]
    #[should_panic(expected = "same-class")]
    fn fuse_rejects_different_classes() {
        let cfg = cfg_exact(0.1, 1 << 10);
        let a = generate_from_bag(&cfg, NodeId(1), &ItemBag::from_counts([(1, 4)])).unwrap();
        let b = generate_from_bag(&cfg, NodeId(2), &ItemBag::from_counts([(1, 100)])).unwrap();
        let _ = fuse(&cfg, a, b);
    }

    #[test]
    fn compact_leaves_one_per_class() {
        let cfg = cfg_exact(0.05, 1 << 16);
        let mut set = SynopsisSet::new();
        for node in 1..=8u32 {
            let bag = ItemBag::from_counts([(1, 100), (node as u64 + 10, 40)]);
            set.insert(generate_from_bag(&cfg, NodeId(node), &bag).unwrap());
        }
        set.compact(&cfg);
        assert!(
            set.is_compact(),
            "classes {:?}",
            set.syns.iter().map(|s| s.class).collect::<Vec<_>>()
        );
        assert!(!set.is_empty());
    }

    fn rings_setup(seed: u64, nodes: usize) -> (Network, Rings) {
        let mut rng = rng_from_seed(seed);
        let net =
            Network::random_connected(nodes, 20.0, 20.0, Position::new(10.0, 10.0), 4.0, &mut rng);
        let rings = Rings::build(&net);
        (net, rings)
    }

    fn skewed_bags(net: &Network, per_node: usize, seed: u64) -> Vec<ItemBag> {
        use rand::Rng;
        let mut rng = rng_from_seed(seed);
        let mut bags = vec![ItemBag::new(); net.len()];
        for u in net.sensor_ids() {
            for _ in 0..per_node {
                if rng.gen_bool(0.4) {
                    bags[u.index()].add(rng.gen_range(1u64..4), 1);
                } else {
                    bags[u.index()].add(rng.gen_range(100u64..5000), 1);
                }
            }
        }
        bags
    }

    /// Algorithm 2 over lossless rings, checked without the epoch engine
    /// (which depends on this crate): level by level, outermost first,
    /// each node adds its own synopsis to the ones it heard, compacts and
    /// broadcasts to every receiver one ring closer; the base station
    /// evaluates what reaches it. Returns the estimates and each node's
    /// broadcast load.
    fn lossless_rings<F: CounterFactory>(
        net: &Network,
        rings: &Rings,
        cfg: &MultipathConfig<F>,
        bags: &[ItemBag],
    ) -> (FreqEstimates, CommStats) {
        let mut holding: Vec<SynopsisSet<F::Counter>> =
            (0..net.len()).map(|_| SynopsisSet::new()).collect();
        let mut stats = CommStats::new(net.len());
        for level in (0..=rings.max_level()).rev() {
            for u in rings
                .connected_nodes()
                .filter(|&u| rings.level(u) == Some(level))
            {
                let set = &mut holding[u.index()];
                if let Some(local) = generate_from_bag(cfg, u, &bags[u.index()]) {
                    set.insert(local);
                }
                set.compact(cfg);
                if level == 0 {
                    return (set.evaluate(), stats);
                }
                let words = set.wire_words();
                stats.record_send(u, words * 4, words, 1);
                let payload = std::mem::take(set);
                for r in rings.receivers(u) {
                    holding[r.index()].absorb(payload.clone());
                }
            }
        }
        unreachable!("the base station is the ring-0 node")
    }

    #[test]
    fn rings_lossless_exact_counters_find_frequent() {
        let (net, rings) = rings_setup(91, 60);
        let bags = skewed_bags(&net, 200, 92);
        let n: u64 = bags.iter().map(|b| b.total()).sum();
        let cfg = cfg_exact(0.002, n * 2);
        let (estimates, _) = lossless_rings(&net, &rings, &cfg, &bags);
        // Exact counters + no loss: N̂ = N exactly.
        assert!((estimates.n_est - n as f64).abs() < 1e-6);
        let s = 0.05;
        let reported = estimates.report(s - cfg.eps);
        for item in true_frequent(&bags, s) {
            assert!(reported.contains(&item), "missing {item}");
        }
        // All reported items are at least somewhat frequent (no junk).
        let truth = count_items(&bags);
        for item in &reported {
            assert!(
                truth.count(*item) as f64 > (s - cfg.eps) * n as f64 * 0.5,
                "false positive {item} with count {}",
                truth.count(*item)
            );
        }
    }

    #[test]
    fn rings_estimates_never_exceed_truth_with_exact_counters() {
        let (net, rings) = rings_setup(94, 50);
        let bags = skewed_bags(&net, 100, 95);
        let n: u64 = bags.iter().map(|b| b.total()).sum();
        let cfg = cfg_exact(0.01, n * 2);
        let (estimates, _) = lossless_rings(&net, &rings, &cfg, &bags);
        let truth = count_items(&bags);
        for (&u, &est) in &estimates.counts {
            assert!(
                est <= truth.count(u) as f64 + 1e-6,
                "item {u}: est {est} > truth {}",
                truth.count(u)
            );
        }
    }

    #[test]
    fn rings_with_fm_counters_reports_heavy_hitters() {
        let (net, rings) = rings_setup(101, 60);
        let bags = skewed_bags(&net, 200, 102);
        let n: u64 = bags.iter().map(|b| b.total()).sum();
        let cfg = MultipathConfig::new(0.005, 2.0, n * 2, FmFactory { bitmaps: 16 });
        let (estimates, _) = lossless_rings(&net, &rings, &cfg, &bags);
        // Items 1..3 each carry ~13% of N; report at s = 5%.
        let reported = estimates.report(0.05 - cfg.eps);
        for item in true_frequent(&bags, 0.05) {
            assert!(reported.contains(&item), "missing heavy hitter {item}");
        }
    }

    #[test]
    fn multipath_message_cost_exceeds_tree_cost() {
        // §7.4.3: a multi-path partial result spans ~3x the TinyDB
        // messages of a tree summary. Sanity-check the direction.
        let (net, rings) = rings_setup(104, 60);
        let bags = skewed_bags(&net, 150, 105);
        let n: u64 = bags.iter().map(|b| b.total()).sum();
        let cfg = MultipathConfig::new(0.01, 2.0, n * 2, FmFactory { bitmaps: 16 });
        let (_, stats) = lossless_rings(&net, &rings, &cfg, &bags);
        let avg_messages = stats.total_messages() as f64 / net.num_sensors() as f64;
        assert!(
            avg_messages > 1.0,
            "expected multi-message synopses, got {avg_messages}"
        );
    }

    /// The implementation before flat storage — `BTreeMap` items, a
    /// `BTreeMap` of per-class lists, `fuse` by value and `absorb` +
    /// `compact` — kept as the oracle the flat, by-reference paths must
    /// match on the representation.
    mod reference {
        use super::super::{MultipathConfig, SynRef, SynopsisSet};
        use crate::items::Item;
        use std::collections::BTreeMap;
        use td_sketches::counter::{CounterFactory, DiCounter};

        /// A set as `(class, ñ, items)` in class then arrival order.
        pub type Flat<C> = Vec<(u32, C, Vec<(Item, C)>)>;

        #[derive(Clone, Debug)]
        pub struct RefSynopsis<C> {
            pub class: u32,
            pub total: C,
            pub items: BTreeMap<Item, C>,
        }

        pub fn from_flat<C: DiCounter>(s: SynRef<'_, C>) -> RefSynopsis<C> {
            RefSynopsis {
                class: s.class,
                total: s.total.clone(),
                items: s.items.iter().cloned().collect(),
            }
        }

        pub fn fuse<F: CounterFactory>(
            cfg: &MultipathConfig<F>,
            mut a: RefSynopsis<F::Counter>,
            b: RefSynopsis<F::Counter>,
        ) -> RefSynopsis<F::Counter> {
            assert_eq!(a.class, b.class, "only same-class synopses fuse");
            a.total.merge(&b.total);
            for (u, c) in b.items {
                match a.items.entry(u) {
                    std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(&c),
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(c);
                    }
                }
            }
            let n_est = a.total.estimate();
            while n_est > 2f64.powi(a.class as i32 + 1) && (a.class as f64) < cfg.log_n() {
                a.class += 1;
                let log_n = cfg.log_n();
                let eps = cfg.eps;
                let eta = cfg.eta;
                a.items
                    .retain(|_, c| eps * n_est / log_n < eta * c.estimate());
            }
            a
        }

        #[derive(Clone, Debug, Default)]
        pub struct RefSet<C> {
            slots: BTreeMap<u32, Vec<RefSynopsis<C>>>,
        }

        impl<C: DiCounter> RefSet<C> {
            pub fn from_flat(set: &SynopsisSet<C>) -> Self {
                let mut r = RefSet {
                    slots: BTreeMap::new(),
                };
                for s in set.iter() {
                    r.insert(from_flat(s));
                }
                r
            }

            pub fn insert(&mut self, s: RefSynopsis<C>) {
                self.slots.entry(s.class).or_default().push(s);
            }

            pub fn absorb(&mut self, other: RefSet<C>) {
                for (_, list) in other.slots {
                    for s in list {
                        self.insert(s);
                    }
                }
            }

            pub fn compact<F: CounterFactory<Counter = C>>(&mut self, cfg: &MultipathConfig<F>) {
                while let Some((&class, _)) = self.slots.iter().find(|(_, v)| v.len() >= 2) {
                    let list = self.slots.get_mut(&class).expect("class exists");
                    let a = list.pop().expect("len >= 2");
                    let b = list.pop().expect("len >= 2");
                    if list.is_empty() {
                        self.slots.remove(&class);
                    }
                    let fused = fuse(cfg, a, b);
                    self.insert(fused);
                }
            }

            pub fn flatten(&self) -> Flat<C> {
                self.slots
                    .values()
                    .flatten()
                    .map(|s| {
                        let items = s.items.iter().map(|(&u, c)| (u, c.clone())).collect();
                        (s.class, s.total.clone(), items)
                    })
                    .collect()
            }
        }

        /// The flat set, in either form, in [`RefSet::flatten`]'s shape.
        pub fn flatten<C: DiCounter>(set: &SynopsisSet<C>) -> Flat<C> {
            set.iter()
                .map(|s| (s.class, s.total.clone(), s.items.to_vec()))
                .collect()
        }
    }

    /// The fusion before the on-stack settling list — a heap list of
    /// owned and lent synopses, rebuilt on every call — kept as the
    /// oracle the index list and its final permutation must match on
    /// the representation.
    fn heap_list_fuse<C: DiCounter, F: CounterFactory<Counter = C>>(
        set: &mut SynopsisSet<C>,
        cfg: &MultipathConfig<F>,
        from: &SynopsisSet<C>,
    ) {
        enum Held<'a, C> {
            Own(ClassSynopsis<C>),
            Lent(&'a ClassSynopsis<C>),
        }
        impl<C: DiCounter> Held<'_, C> {
            fn get(&self) -> &ClassSynopsis<C> {
                match self {
                    Held::Own(s) => s,
                    Held::Lent(s) => s,
                }
            }
        }
        let mut held = Vec::new();
        let mut lent = from.syns.iter().peekable();
        for s in set.syns.drain(..) {
            while let Some(f) = lent.next_if(|f| f.class < s.class) {
                held.push(Held::Lent(f));
            }
            held.push(Held::Own(s));
        }
        held.extend(lent.map(Held::Lent));
        while let Some(first) = held
            .windows(2)
            .position(|w| w[0].get().class == w[1].get().class)
        {
            let class = held[first].get().class;
            let end = first + held[first..].partition_point(|h| h.get().class == class);
            let newest = held.remove(end - 1);
            let older = held.remove(end - 2);
            let mut fused = match (newest, older) {
                (Held::Own(mut a), b) => {
                    a.absorb(b.get().view(), &cfg.factory);
                    a
                }
                (Held::Lent(a), Held::Own(mut b)) => {
                    b.absorb(a.view(), &cfg.factory);
                    b
                }
                (Held::Lent(a), Held::Lent(b)) => {
                    let mut a = a.clone();
                    a.absorb(b.view(), &cfg.factory);
                    a
                }
            };
            fused.promote(cfg);
            let at = held.partition_point(|h| h.get().class <= fused.class);
            held.insert(at, Held::Own(fused));
        }
        set.syns.extend(held.into_iter().map(|h| match h {
            Held::Own(s) => s,
            Held::Lent(s) => s.clone(),
        }));
    }

    /// The on-stack fusion against the heap-list oracle, for receivers
    /// compact or built by `insert`, fresh or recycled (cleared after
    /// holding another set, or a `clone_from` of one), and for a set
    /// fused with its own copy.
    fn check_fuse_matches_heap_list<F>(cfg: &MultipathConfig<F>, seed: u64, picks: &[u64])
    where
        F: CounterFactory,
        F::Counter: PartialEq + std::fmt::Debug,
    {
        let pool = synopsis_pool(cfg, seed);
        if pool.is_empty() {
            return;
        }
        let (a, b) = picks.split_at(picks.len() / 2);
        let flat = reference::flatten;
        for compact_into in [true, false] {
            let into = draw_set(cfg, &pool, a, compact_into);
            let from = draw_set(cfg, &pool, b, !compact_into);
            let mut oracle = into.clone();
            heap_list_fuse(&mut oracle, cfg, &from);
            // Fresh.
            let mut fresh = into.clone();
            fresh.fuse(cfg, &from);
            assert_eq!(flat(&fresh), flat(&oracle), "fresh receiver diverged");
            // Recycled: storage left by a different set.
            let mut recycled = from.clone();
            recycled.fuse(cfg, &into);
            recycled.clone_from(&into);
            recycled.fuse(cfg, &from);
            assert_eq!(flat(&recycled), flat(&oracle), "recycled receiver diverged");
            // Sealed, fused again into storage its fusions grew.
            let mut acc = from.clone();
            acc.fuse(cfg, &into);
            let sealed = acc.seal();
            assert!(acc.is_empty());
            for s in into.iter() {
                let copy = copy_into(&mut acc.spare, s);
                acc.insert(copy);
            }
            acc.fuse(cfg, &from);
            assert_eq!(flat(&acc), flat(&oracle), "reused accumulator diverged");
            let mut sealed_oracle = from.clone();
            heap_list_fuse(&mut sealed_oracle, cfg, &into);
            assert_eq!(
                flat(&sealed),
                flat(&sealed_oracle),
                "sealing moved the content"
            );
            // A set fused with its own copy.
            let mut twice = into.clone();
            twice.fuse(cfg, &into);
            let mut twice_oracle = into.clone();
            heap_list_fuse(&mut twice_oracle, cfg, &into);
            assert_eq!(flat(&twice), flat(&twice_oracle), "self-fusion diverged");
        }
    }

    proptest::proptest! {
        /// The on-stack settling list is the heap list, on the
        /// representation, for exact counters and both FM layouts.
        #[test]
        fn prop_fuse_matches_the_heap_list_oracle(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 2..14),
            eps_milli in 20u64..300,
            n_bits in 9u32..16,
        ) {
            let eps = eps_milli as f64 / 1000.0;
            check_fuse_matches_heap_list(&MultipathConfig::new(eps, 1.5, 1 << n_bits, ExactFactory), seed, &picks);
            check_fuse_matches_heap_list(&MultipathConfig::new(eps, 1.5, 1 << n_bits, FmFactory { bitmaps: 16 }), seed, &picks);
            check_fuse_matches_heap_list(&MultipathConfig::new(eps, 1.5, 1 << n_bits, FmFactory { bitmaps: 24 }), seed, &picks);
        }
    }

    /// A fusion that raises a class two steps drops items once, against
    /// the one threshold `ε·ñ / log N`.
    #[test]
    fn a_two_step_promotion_drops_against_one_threshold() {
        use td_sketches::counter::ExactCounter;
        let cfg = cfg_exact(0.2, 1 << 10);
        let syn = |salt: u64, n: u64, items: &[(Item, u64)]| {
            let mut total = ExactCounter::new();
            total.add_occurrences(salt, n);
            let items = items
                .iter()
                .map(|&(u, c)| {
                    let mut counter = ExactCounter::new();
                    counter.add_occurrences(keyed_pair(ITEM_POP_KEY, u, salt), c);
                    (u, counter)
                })
                .collect();
            ClassSynopsis {
                class: 4,
                total,
                items,
            }
        };
        // ñ = 110 > 2^6 lifts class 4 to 6; the threshold is
        // 0.2 · 110 / 10 = 2.2, so an item stays iff 1.5 · c > 2.2.
        let a = syn(1, 100, &[(1, 1), (2, 2), (3, 5)]);
        let b = syn(2, 10, &[(4, 1), (5, 3)]);
        let fused = fuse(&cfg, a, b);
        assert_eq!(fused.class, 6);
        let kept: Vec<Item> = fused.estimates().map(|(u, _)| u).collect();
        assert_eq!(kept, vec![2, 3, 5]);
    }

    /// A sealed message keeps every synopsis's items in one exact-size
    /// buffer, however much the accumulator it was built in grew: its
    /// headers and that buffer are all it allocates, and the accumulator
    /// keeps every item list for the next message.
    #[test]
    fn a_sealed_set_is_exact_size() {
        let cfg = MultipathConfig::new(0.01, 1.5, 1 << 16, FmFactory { bitmaps: 16 });
        let pool = synopsis_pool(&cfg, 7);
        let mut acc = SynopsisSet::new();
        for round in 0..3u64 {
            acc.clear();
            for (i, s) in pool.iter().enumerate() {
                let mut one = SynopsisSet::new();
                one.insert(s.clone());
                if i as u64 % 3 == round {
                    acc.fuse(&cfg, &one);
                }
            }
            let before = reference::flatten(&acc);
            let lists = acc.syns.len() + acc.spare.len();
            let sealed = acc.seal();
            assert!(!sealed.is_empty());
            assert_eq!(
                reference::flatten(&sealed),
                before,
                "sealing moved the content"
            );
            assert_eq!(sealed.heads.len(), before.len());
            assert_eq!(
                sealed.items.len(),
                before
                    .iter()
                    .map(|(_, _, items)| items.len())
                    .sum::<usize>()
            );
            assert_eq!(
                (sealed.syns.capacity(), sealed.spare.capacity()),
                (0, 0),
                "a sealed set holds more than its two buffers"
            );
            assert!(acc.is_empty());
            assert_eq!(acc.spare.len(), lists, "the accumulator lost an item list");
        }
    }

    /// Estimates with every float as its bits.
    fn estimate_bits(set: &SynopsisSet<impl DiCounter>) -> (u64, Vec<(Item, u64)>) {
        let e = set.evaluate();
        let counts = e.counts.iter().map(|(&u, c)| (u, c.to_bits())).collect();
        (e.n_est.to_bits(), counts)
    }

    /// A sealed set against the accumulator it was sealed from: the same
    /// synopses, wire words and estimates, and the same result fused
    /// into another set, fused into itself, copied by `clone_from`, or
    /// built on.
    fn check_sealed_matches_accumulator<F>(cfg: &MultipathConfig<F>, seed: u64, picks: &[u64])
    where
        F: CounterFactory,
        F::Counter: PartialEq + std::fmt::Debug,
    {
        let pool = synopsis_pool(cfg, seed);
        if pool.is_empty() {
            return;
        }
        let flat = reference::flatten;
        let (a, b) = picks.split_at(picks.len() / 2);
        let other = draw_set(cfg, &pool, b, true);
        for compact in [true, false] {
            let mut acc = draw_set(cfg, &pool, a, compact);
            acc.fuse(cfg, &draw_set(cfg, &pool, b, false));
            let kept = acc.clone();
            let sealed = acc.seal();
            assert_eq!(flat(&sealed), flat(&kept));
            assert_eq!(sealed.wire_words(), kept.wire_words());
            assert_eq!(sealed.is_compact(), kept.is_compact());
            assert_eq!(estimate_bits(&sealed), estimate_bits(&kept));
            // Fused into another set.
            let (mut x, mut y) = (other.clone(), other.clone());
            x.fuse(cfg, &sealed);
            y.fuse(cfg, &kept);
            assert_eq!(flat(&x), flat(&y), "a sealed sender fused differently");
            // Fused into, and built on.
            let (mut x, mut y) = (sealed.clone(), kept.clone());
            x.fuse(cfg, &other);
            y.fuse(cfg, &other);
            assert_eq!(flat(&x), flat(&y), "a sealed receiver fused differently");
            let (mut x, mut y) = (sealed.clone(), kept.clone());
            x.insert(pool[0].clone());
            y.insert(pool[0].clone());
            assert_eq!(flat(&x), flat(&y), "a sealed set built on differently");
            // Copied into a set's retired storage.
            let mut copy = other.clone();
            copy.clone_from(&sealed);
            assert!(copy.heads.is_empty(), "a copy is a set being built");
            assert_eq!(flat(&copy), flat(&kept));
        }
    }

    proptest::proptest! {
        /// The flat seal is the accumulator, on the representation and
        /// through every reader, for exact counters and both FM layouts.
        #[test]
        fn prop_a_sealed_set_reads_as_its_accumulator(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 2..14),
            eps_milli in 20u64..300,
            n_bits in 9u32..16,
        ) {
            let eps = eps_milli as f64 / 1000.0;
            check_sealed_matches_accumulator(&MultipathConfig::new(eps, 1.5, 1 << n_bits, ExactFactory), seed, &picks);
            check_sealed_matches_accumulator(&MultipathConfig::new(eps, 1.5, 1 << n_bits, FmFactory { bitmaps: 16 }), seed, &picks);
            check_sealed_matches_accumulator(&MultipathConfig::new(eps, 1.5, 1 << n_bits, FmFactory { bitmaps: 24 }), seed, &picks);
        }
    }

    /// A pool of synopses to build sets from: random bags over a small
    /// item universe (so item sets overlap), sizes spread over a few
    /// classes (so classes collide and fusions promote), and a few
    /// nodes generating twice (so the same population arrives again).
    fn synopsis_pool<F: CounterFactory>(
        cfg: &MultipathConfig<F>,
        seed: u64,
    ) -> Vec<ClassSynopsis<F::Counter>> {
        use rand::Rng;
        let mut rng = rng_from_seed(seed);
        (0..24)
            .filter_map(|_| {
                let node = NodeId(rng.gen_range(1u32..14));
                let n0 = rng.gen_range(4u64..200);
                let mut bag = ItemBag::new();
                let mut left = n0;
                while left > 0 {
                    let c = rng.gen_range(1..left.min(40) + 1);
                    bag.add(rng.gen_range(1u64..12), c);
                    left -= c;
                }
                generate_from_bag(cfg, node, &bag)
            })
            .collect()
    }

    /// A set of `len` synopses drawn from `pool`, compacted or not.
    fn draw_set<C: DiCounter, F: CounterFactory<Counter = C>>(
        cfg: &MultipathConfig<F>,
        pool: &[ClassSynopsis<C>],
        picks: &[u64],
        compact: bool,
    ) -> SynopsisSet<C> {
        let mut set = SynopsisSet::new();
        for &p in picks {
            set.insert(pool[p as usize % pool.len()].clone());
        }
        if compact {
            set.compact(cfg);
        }
        set
    }

    fn check_fuse_matches_reference<F>(cfg: &MultipathConfig<F>, seed: u64, picks: &[u64])
    where
        F: CounterFactory,
        F::Counter: PartialEq + std::fmt::Debug,
    {
        let pool = synopsis_pool(cfg, seed);
        if pool.is_empty() {
            return;
        }
        let (a, b) = picks.split_at(picks.len() / 2);
        for (compact_into, compact_from) in
            [(true, true), (false, true), (true, false), (false, false)]
        {
            let into = draw_set(cfg, &pool, a, compact_into);
            let from = draw_set(cfg, &pool, b, compact_from);
            let mut flat = into.clone();
            flat.fuse(cfg, &from);
            let mut oracle = reference::RefSet::from_flat(&into);
            oracle.absorb(reference::RefSet::from_flat(&from));
            oracle.compact(cfg);
            assert_eq!(
                reference::flatten(&flat),
                oracle.flatten(),
                "fuse diverged (compact into {compact_into}, from {compact_from})"
            );
            // Compaction alone, after a by-value absorb.
            let mut by_value = into.clone();
            by_value.absorb(from.clone());
            by_value.compact(cfg);
            assert_eq!(reference::flatten(&by_value), oracle.flatten());
            // The pairwise fuse on one class.
            let (x, y) = (
                &pool[a[0] as usize % pool.len()],
                &pool[b[0] as usize % pool.len()],
            );
            if x.class == y.class {
                let f = fuse(cfg, x.clone(), y.clone());
                let r = reference::fuse(
                    cfg,
                    reference::from_flat(x.view()),
                    reference::from_flat(y.view()),
                );
                assert_eq!(
                    (f.class, &f.total, f.items.clone()),
                    (r.class, &r.total, r.items.into_iter().collect::<Vec<_>>())
                );
            }
        }
    }

    proptest::proptest! {
        /// The flat, by-reference fusion is the pre-flat `absorb` +
        /// `compact` on the representation — class, ñ counter and every
        /// `(item, counter)` — for compact and non-compact inputs of
        /// both counter families, with promotions (tight ε, small N) and
        /// re-delivered populations.
        #[test]
        fn prop_fuse_is_absorb_then_compact(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 2..14),
            eps_milli in 20u64..300,
            eta_tenths in 11u64..30,
            n_bits in 9u32..16,
        ) {
            let eps = eps_milli as f64 / 1000.0;
            let eta = eta_tenths as f64 / 10.0;
            let exact = MultipathConfig::new(eps, eta, 1 << n_bits, ExactFactory);
            check_fuse_matches_reference(&exact, seed, &picks);
            let fm = MultipathConfig::new(eps, eta, 1 << n_bits, FmFactory { bitmaps: 16 });
            check_fuse_matches_reference(&fm, seed, &picks);
        }

        /// ROADMAP aim 3(a), the half of the laws that holds: N̂ is
        /// duplicate-insensitive (`fuse(x, x)` estimates x's N̂) and
        /// order-insensitive (`fuse(a, b)` and `fuse(b, a)` agree), bit
        /// for bit — ñ counters only ever ⊕, promotion never drops them.
        #[test]
        fn prop_fused_n_est_is_duplicate_and_order_insensitive(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 2..12),
        ) {
            let cfg = MultipathConfig::new(0.1, 1.5, 1 << 12, FmFactory { bitmaps: 16 });
            let pool = synopsis_pool(&cfg, seed);
            if !pool.is_empty() {
                let (pa, pb) = picks.split_at(picks.len() / 2);
                let a = draw_set(&cfg, &pool, pa, true);
                let b = draw_set(&cfg, &pool, pb, true);
                let n_est = |x: &SynopsisSet<_>, y: &SynopsisSet<_>| {
                    let mut xy = x.clone();
                    xy.fuse(&cfg, y);
                    xy.evaluate().n_est.to_bits()
                };
                proptest::prop_assert_eq!(n_est(&a, &a), a.evaluate().n_est.to_bits());
                proptest::prop_assert_eq!(n_est(&a, &b), n_est(&b, &a));
            }
        }

        /// Aim 3(a), duplicate delivery: a set fused with itself
        /// evaluates as the set. **Fails** — see
        /// `finding_duplicate_delivery_can_drop_an_item`.
        #[test]
        #[ignore = "finding: Algorithm 2 fusion is not idempotent (finding_duplicate_delivery_can_drop_an_item)"]
        fn prop_fuse_with_itself_evaluates_as_itself(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..10),
        ) {
            let cfg = MultipathConfig::new(0.1, 1.5, 1 << 12, FmFactory { bitmaps: 16 });
            let pool = synopsis_pool(&cfg, seed);
            if !pool.is_empty() {
                let x = draw_set(&cfg, &pool, &picks, true);
                let mut xx = x.clone();
                xx.fuse(&cfg, &x);
                proptest::prop_assert_eq!(x.evaluate().counts, xx.evaluate().counts);
            }
        }

        /// Aim 3(a), two-set commutativity at evaluation: `fuse(a, b)`
        /// and `fuse(b, a)` answer alike. **Fails** — see
        /// `finding_fusion_order_moves_the_answer`.
        #[test]
        #[ignore = "finding: Algorithm 2 fusion order moves the answer (finding_fusion_order_moves_the_answer)"]
        fn prop_fuse_commutes_at_evaluation(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u64>(), 2..12),
        ) {
            let cfg = MultipathConfig::new(0.1, 1.5, 1 << 12, FmFactory { bitmaps: 16 });
            let pool = synopsis_pool(&cfg, seed);
            if !pool.is_empty() {
                let (pa, pb) = picks.split_at(picks.len() / 2);
                let a = draw_set(&cfg, &pool, pa, true);
                let b = draw_set(&cfg, &pool, pb, true);
                let mut ab = a.clone();
                ab.fuse(&cfg, &b);
                let mut ba = b.clone();
                ba.fuse(&cfg, &a);
                proptest::prop_assert_eq!(ab.evaluate().counts, ba.evaluate().counts);
            }
        }
    }

    /// Finding (ROADMAP aim 3(a)): Algorithm 2's class fusion is not
    /// idempotent. SG files a synopsis under the class of its *true*
    /// size, but promotion tests the ⊕ *estimate* ñ, so an FM synopsis
    /// nobody has fused yet can sit in class `c` with ñ > 2^{c+1}. Here
    /// node 4's class-4 synopsis (28 occurrences, ñ ≈ 36.3 > 32) does.
    /// Fusing the set with its own copy fuses that synopsis with itself
    /// (a no-op on the counters), then promotes it; the carry meets the
    /// copies of every class above, each fusion promotes again, and at
    /// class 8 the rising threshold `ε·ñ/log N ≈ 2.2` drops item 4
    /// (ñ(4) ≈ 1.47 < 2.2 / η). The pre-flat code does the same (the
    /// reference oracle agrees with `fuse` on every input), so this is
    /// the algorithm, not the storage.
    #[test]
    fn finding_duplicate_delivery_can_drop_an_item() {
        let cfg = MultipathConfig::new(0.1, 1.5, 1 << 12, FmFactory { bitmaps: 16 });
        let bags: [(u32, &[(Item, u64)]); 4] = [
            (2, &[(1, 33), (2, 23), (3, 2), (7, 6), (8, 52), (10, 26)]),
            (4, &[(4, 1), (7, 2), (9, 24)]),
            (1, &[(5, 15), (6, 1), (7, 4), (10, 31), (11, 8)]),
            (8, &[(1, 29), (5, 41), (7, 9)]),
        ];
        let mut x = SynopsisSet::new();
        for (node, counts) in bags {
            let bag = ItemBag::from_counts(counts.iter().copied());
            x.insert(generate_from_bag(&cfg, NodeId(node), &bag).unwrap());
        }
        x.compact(&cfg);
        let unfused = &x.syns[0];
        assert_eq!(unfused.class, 4);
        assert!(unfused.total.estimate() > 32.0, "ñ within its class budget");
        let mut xx = x.clone();
        xx.fuse(&cfg, &x);
        let (once, twice) = (x.evaluate(), xx.evaluate());
        assert_eq!(once.n_est.to_bits(), twice.n_est.to_bits());
        assert!(once.counts.contains_key(&4));
        assert!(
            !twice.counts.contains_key(&4),
            "duplicate delivery kept item 4"
        );
        let mut rest = once.counts.clone();
        rest.remove(&4);
        assert_eq!(rest, twice.counts, "only item 4 moves");
    }

    /// Finding (ROADMAP aim 3(a)): the order two sets fuse in moves the
    /// answer. `a` and `b` each hold one class-4 and one class-5
    /// synopsis; the class-4 pair fuses and promotes into class 5, where
    /// it meets *two* synopses, and the newest of them fuses first —
    /// `b`'s in `fuse(a, b)`, `a`'s in `fuse(b, a)`. The two orders
    /// promote with different intermediate ñ and so apply different
    /// rising thresholds: one keeps item 3, the other drops it. N̂
    /// agrees.
    #[test]
    fn finding_fusion_order_moves_the_answer() {
        let cfg = MultipathConfig::new(0.3, 1.1, 1 << 12, FmFactory { bitmaps: 16 });
        let syn = |node: u32, counts: &[(Item, u64)]| {
            generate_from_bag(
                &cfg,
                NodeId(node),
                &ItemBag::from_counts(counts.iter().copied()),
            )
            .unwrap()
        };
        let mut a = SynopsisSet::new();
        a.insert(syn(77, &[(1, 20), (2, 2)]));
        a.insert(syn(103, &[(1, 40), (2, 3)]));
        let mut b = SynopsisSet::new();
        b.insert(syn(90, &[(1, 22), (3, 3)]));
        b.insert(syn(116, &[(1, 44), (3, 3)]));
        let classes = |s: &SynopsisSet<_>| s.syns.iter().map(|s| s.class).collect::<Vec<_>>();
        assert_eq!((classes(&a), classes(&b)), (vec![4, 5], vec![4, 5]));
        let mut ab = a.clone();
        ab.fuse(&cfg, &b);
        let mut ba = b.clone();
        ba.fuse(&cfg, &a);
        let (x, y) = (ab.evaluate(), ba.evaluate());
        assert_eq!(x.n_est.to_bits(), y.n_est.to_bits());
        assert!(x.counts.contains_key(&3));
        assert!(!y.counts.contains_key(&3), "fusion order no longer matters");
        assert_eq!(x.counts[&1].to_bits(), y.counts[&1].to_bits());
    }

    std::thread_local! {
        static CLONES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// An exact counter that counts its clones.
    #[derive(Debug, Default, PartialEq)]
    struct CountingCounter(td_sketches::counter::ExactCounter);

    impl Clone for CountingCounter {
        fn clone(&self) -> Self {
            CLONES.with(|c| c.set(c.get() + 1));
            CountingCounter(self.0.clone())
        }
    }

    impl DiCounter for CountingCounter {
        fn add_occurrences(&mut self, salt: u64, count: u64) {
            self.0.add_occurrences(salt, count);
        }
        fn merge(&mut self, other: &Self) {
            self.0.merge(&other.0);
        }
        fn estimate(&self) -> f64 {
            self.0.estimate()
        }
        fn wire_words(&self) -> usize {
            self.0.wire_words()
        }
    }

    #[derive(Clone, Copy, Debug)]
    struct CountingFactory;

    impl CounterFactory for CountingFactory {
        type Counter = CountingCounter;
        fn new_counter(&self) -> CountingCounter {
            CountingCounter::default()
        }
    }

    /// The by-reference fusion copies only what the receiver lacks: a
    /// class it has no synopsis of (ñ plus every item counter), and
    /// inside a fusion the counters of items it does not carry.
    #[test]
    fn fuse_clones_only_what_the_receiver_lacks() {
        let cfg = MultipathConfig::new(0.01, 1.5, 1 << 16, CountingFactory);
        let syn = |node: u32, counts: &[(Item, u64)]| {
            generate_from_bag(
                &cfg,
                NodeId(node),
                &ItemBag::from_counts(counts.iter().copied()),
            )
            .unwrap()
        };
        // Class 4 on both sides with the same items (fuses, stays class
        // 4: ñ = 32 is not above 2^5), class 6 only in the receiver,
        // class 5 only in the sender.
        let mut into = SynopsisSet::new();
        into.insert(syn(1, &[(1, 10), (2, 6)]));
        into.insert(syn(2, &[(1, 60), (3, 40)]));
        let mut from = SynopsisSet::new();
        from.insert(syn(3, &[(1, 10), (2, 6)]));
        from.insert(syn(4, &[(1, 30), (2, 10), (5, 2)]));
        assert_eq!(
            from.syns.iter().map(|s| s.class).collect::<Vec<_>>(),
            vec![4, 5]
        );
        let before = CLONES.with(|c| c.get());
        into.fuse(&cfg, &from);
        let clones = CLONES.with(|c| c.get()) - before;
        // The class-5 synopsis: ñ + three item counters.
        assert_eq!(clones, 4);
        assert_eq!(
            into.syns.iter().map(|s| s.class).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        // One more item in the sender's class 4: one more counter copied.
        let mut into2 = SynopsisSet::new();
        into2.insert(syn(1, &[(1, 10), (2, 6)]));
        let mut from2 = SynopsisSet::new();
        from2.insert(syn(3, &[(1, 10), (2, 3), (7, 3)]));
        let before = CLONES.with(|c| c.get());
        into2.fuse(&cfg, &from2);
        assert_eq!(CLONES.with(|c| c.get()) - before, 1);
    }
}
