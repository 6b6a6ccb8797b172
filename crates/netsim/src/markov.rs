//! Seeded two-state Markov processes with memoized random access.
//!
//! Both correlated-failure models in this crate — Gilbert–Elliott burst
//! loss ([`crate::loss::GilbertElliott`]) and node churn
//! ([`crate::churn::ChurnSchedule`]) — are per-entity two-state Markov
//! chains stepped once per epoch. [`BinaryMarkov`] is that shared core:
//! a family of independent chains, one per caller-chosen `key` (a node,
//! a directed link), whose entire trajectory is a pure function of
//! `(seed, key)`. Transition draws come from a counter-based hash of
//! `(seed, key, epoch)` — **never** from the simulation's shared RNG —
//! so a correlated model consumes exactly the same delivery-RNG stream
//! as the memoryless model it generalizes, and reduces to it bit for
//! bit when its two states behave identically.
//!
//! Random access (`state_at(key, epoch)`) is O(1) amortized for the
//! epoch-monotone access pattern simulations produce: each key caches
//! its last `(epoch, state)` pair and advances incrementally; a query
//! behind the cache replays from epoch 0 (the trajectory is
//! deterministic, so the memo is only ever a speedup, never state).
//!
//! The memo has two halves. **Dense keys** — below `DENSE_KEYS` (2^16),
//! which covers node ids, so the keys of churn and of per-sender burst
//! loss — each own one `AtomicU64` slot holding `(epoch + 1) << 1 | state`
//! (0: never computed). A query reads its slot and advances it with
//! `fetch_max`: no lock and no hashing, and two threads racing on one key
//! both write a point of the same trajectory, so the later epoch wins and
//! the slot never moves back. Slots come in chunks of `CHUNK_KEYS` (512,
//! 4 KiB), each allocated on its first query, behind a directory
//! allocated on the chain's first dense query: a chain over a few hundred
//! nodes holds one or two chunks, and a chain nobody queries holds none.
//! **Sparse keys** (per-link burst loss packs `from << 32 | to`) keep a
//! `Mutex<HashMap>`.
//!
//! ```
//! use td_netsim::markov::{BinaryMarkov, StartState};
//!
//! // P(0→1) = 0.1 per epoch, P(1→0) = 0.5, started in state 0.
//! let chain = BinaryMarkov::new(0.1, 0.5, StartState::Fixed(false), 42);
//! // Deterministic: the same (key, epoch) always answers the same.
//! assert_eq!(chain.state_at(7, 100), chain.state_at(7, 100));
//! // Independent keys evolve independently but reproducibly.
//! let trajectory: Vec<bool> = (0..50).map(|e| chain.state_at(3, e)).collect();
//! assert!(!trajectory[0], "fixed start state");
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::rng::splitmix64;

/// How a chain's state at epoch 0 is chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StartState {
    /// Every key starts in the given state (e.g. all nodes up).
    Fixed(bool),
    /// Every key draws its start from the chain's stationary
    /// distribution (so the process is rate-matched from epoch 0,
    /// with no burn-in transient). A chain that never transitions
    /// (`p01 + p10 == 0`) starts in state 0.
    Stationary,
}

/// Keys below this bound are memoized in lock-free slots; the rest in a
/// locked map.
const DENSE_KEYS: u64 = 1 << 16;

/// Slots per chunk of the dense memo (4 KiB of `AtomicU64`s).
const CHUNK_KEYS: usize = 512;

/// Chunks of the dense memo.
const CHUNKS: usize = DENSE_KEYS as usize / CHUNK_KEYS;

/// Dense slots hold epochs below this bound, so `(epoch + 1) << 1` cannot
/// overflow; later epochs go to the sparse map.
const DENSE_EPOCHS: u64 = 1 << 62;

/// One chunk of the dense memo, allocated on its first query.
type Chunk = OnceLock<Box<[AtomicU64; CHUNK_KEYS]>>;

/// A family of independent, seeded two-state Markov chains (one per
/// `key`), stepped once per epoch, with memoized O(1)-amortized random
/// access. State `false`/`true` is caller-defined (Good/Bad channel,
/// node up/down).
#[derive(Debug)]
pub struct BinaryMarkov {
    /// P(state 0 → state 1) per epoch step.
    p01: f64,
    /// P(state 1 → state 0) per epoch step.
    p10: f64,
    start: StartState,
    seed: u64,
    /// Memo of the last computed `(epoch, state)` of each dense key,
    /// packed `(epoch + 1) << 1 | state`, by chunk. The chunk directory
    /// too is allocated on the first dense query, so the memo adds one
    /// pointer to every chain's size, queried or not (a service tenant
    /// carries an optional churn schedule inline).
    dense: OnceLock<Box<[Chunk; CHUNKS]>>,
    /// Memo of the last computed `(epoch, state)` of every other key.
    sparse: Mutex<HashMap<u64, (u64, bool)>>,
}

impl Clone for BinaryMarkov {
    /// Clones the chain *definition*; the memo starts empty (it is a
    /// pure cache — trajectories are identical).
    fn clone(&self) -> Self {
        BinaryMarkov::new(self.p01, self.p10, self.start, self.seed)
    }
}

/// Map a 64-bit hash to a uniform draw in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl BinaryMarkov {
    /// Create a chain family with the given per-epoch transition
    /// probabilities and start rule.
    ///
    /// # Panics
    /// Panics unless both probabilities are in `[0, 1]`.
    pub fn new(p01: f64, p10: f64, start: StartState, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p01), "p01 {p01} out of [0,1]");
        assert!((0.0..=1.0).contains(&p10), "p10 {p10} out of [0,1]");
        BinaryMarkov {
            p01,
            p10,
            start,
            seed,
            dense: OnceLock::new(),
            sparse: Mutex::new(HashMap::new()),
        }
    }

    /// The stationary probability of being in state 1
    /// (`p01 / (p01 + p10)`; 0 for a chain that never transitions).
    pub fn stationary_p1(&self) -> f64 {
        let denom = self.p01 + self.p10;
        if denom == 0.0 {
            0.0
        } else {
            self.p01 / denom
        }
    }

    /// The per-epoch transition probabilities `(p01, p10)`.
    #[cfg(test)]
    pub fn rates(&self) -> (f64, f64) {
        (self.p01, self.p10)
    }

    /// The uniform draw deciding key `k`'s transition *into* `epoch`
    /// (epoch 0 uses a distinct initialization label), given the key's
    /// stream `key_stream(key)`.
    #[inline]
    fn draw(key_stream: u64, epoch: u64) -> f64 {
        unit(splitmix64(key_stream ^ epoch.wrapping_add(1)))
    }

    /// The part of every draw of `key` that does not depend on the epoch.
    #[inline]
    fn key_stream(&self, key: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(key))
    }

    /// Key `k`'s state at epoch 0 per the start rule.
    fn initial(&self, key_stream: u64) -> bool {
        match self.start {
            StartState::Fixed(s) => s,
            StartState::Stationary => Self::draw(key_stream, 0) < self.stationary_p1(),
        }
    }

    /// Advance `state` by one epoch step using `epoch`'s draw.
    #[inline]
    fn step(&self, key_stream: u64, epoch: u64, state: bool) -> bool {
        let u = Self::draw(key_stream, epoch);
        if state {
            u >= self.p10
        } else {
            u < self.p01
        }
    }

    /// The state at `epoch`, stepped from the memo's `(epoch, state)` when
    /// it is not past `epoch`, and from epoch 0 otherwise.
    fn advance(&self, key: u64, cached: Option<(u64, bool)>, epoch: u64) -> (u64, bool) {
        if let Some((e, s)) = cached.filter(|&(e, _)| e == epoch) {
            return (e, s);
        }
        let key_stream = self.key_stream(key);
        let (mut e, mut s) = match cached {
            Some((e, s)) if e <= epoch => (e, s),
            _ => (0, self.initial(key_stream)),
        };
        while e < epoch {
            e += 1;
            s = self.step(key_stream, e, s);
        }
        (e, s)
    }

    /// The chain state of `key` at `epoch` — a pure function of
    /// `(seed, key, epoch)`, memoized per key for epoch-monotone
    /// access.
    pub fn state_at(&self, key: u64, epoch: u64) -> bool {
        match self.dense_slot(key, epoch) {
            Some(slot) => {
                let packed = slot.load(Ordering::Relaxed);
                let cached = (packed != 0).then(|| ((packed >> 1) - 1, packed & 1 == 1));
                let (e, s) = self.advance(key, cached, epoch);
                let advanced = ((e + 1) << 1) | u64::from(s);
                // Only ever advance the memo (see the sparse arm); a
                // racing thread writes a point of the same trajectory,
                // and the later one wins.
                if advanced > packed {
                    slot.fetch_max(advanced, Ordering::Relaxed);
                }
                s
            }
            None => {
                let mut cache = self.sparse.lock().expect("markov memo poisoned");
                let cached = cache.get(&key).copied();
                let (e, s) = self.advance(key, cached, epoch);
                // Only ever advance the memo: a behind-the-cache query (a
                // replay from 0) must not regress it, or alternating
                // `epoch, epoch − 1` access would replay from 0 every time.
                if cached.is_none_or(|(e0, _)| e0 < e) {
                    cache.insert(key, (e, s));
                }
                s
            }
        }
    }

    /// The dense memo slot of `key`, its chunk allocated on first use;
    /// `None` for a sparse key, or an epoch too late to pack.
    #[inline]
    fn dense_slot(&self, key: u64, epoch: u64) -> Option<&AtomicU64> {
        if key >= DENSE_KEYS || epoch >= DENSE_EPOCHS {
            return None;
        }
        let key = key as usize;
        let chunks = self
            .dense
            .get_or_init(|| Box::new([const { OnceLock::new() }; CHUNKS]));
        let chunk = chunks[key / CHUNK_KEYS]
            .get_or_init(|| Box::new([const { AtomicU64::new(0) }; CHUNK_KEYS]));
        Some(&chunk[key % CHUNK_KEYS])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_start_and_determinism() {
        let m = BinaryMarkov::new(0.2, 0.4, StartState::Fixed(false), 9);
        assert!(!m.state_at(0, 0));
        assert!(!m.state_at(123, 0));
        let a: Vec<bool> = (0..200).map(|e| m.state_at(5, e)).collect();
        let fresh = m.clone();
        let b: Vec<bool> = (0..200).map(|e| fresh.state_at(5, e)).collect();
        assert_eq!(a, b, "clone with empty memo replays the trajectory");
    }

    #[test]
    fn backwards_queries_replay_from_zero() {
        let m = BinaryMarkov::new(0.3, 0.3, StartState::Fixed(false), 4);
        let forward: Vec<bool> = (0..64).map(|e| m.state_at(1, e)).collect();
        // Query out of order: answers must match the forward pass.
        for e in (0..64).rev() {
            assert_eq!(m.state_at(1, e), forward[e as usize], "epoch {e}");
        }
    }

    #[test]
    fn stationary_fraction_matches_theory() {
        let m = BinaryMarkov::new(0.05, 0.2, StartState::Stationary, 77);
        let pi = m.stationary_p1();
        assert!((pi - 0.2).abs() < 1e-12);
        // Empirical occupancy over many keys and epochs.
        let mut ones = 0usize;
        let mut total = 0usize;
        for key in 0..200 {
            for epoch in 0..100 {
                if m.state_at(key, epoch) {
                    ones += 1;
                }
                total += 1;
            }
        }
        let frac = ones as f64 / total as f64;
        assert!((frac - pi).abs() < 0.02, "occupancy {frac} vs {pi}");
    }

    #[test]
    fn sojourn_times_follow_exit_rate() {
        // Mean sojourn in state 1 should be ~1/p10 epochs.
        let m = BinaryMarkov::new(0.1, 0.25, StartState::Fixed(false), 31);
        let mut runs = Vec::new();
        for key in 0..80 {
            let mut len = 0u32;
            for epoch in 0..400 {
                if m.state_at(key, epoch) {
                    len += 1;
                } else if len > 0 {
                    runs.push(len);
                    len = 0;
                }
            }
        }
        let mean = runs.iter().map(|&l| l as f64).sum::<f64>() / runs.len() as f64;
        assert!((mean - 4.0).abs() < 0.8, "mean sojourn {mean} vs 4.0");
    }

    #[test]
    fn keys_are_independent_streams() {
        let m = BinaryMarkov::new(0.5, 0.5, StartState::Stationary, 3);
        let a: Vec<bool> = (0..64).map(|e| m.state_at(10, e)).collect();
        let b: Vec<bool> = (0..64).map(|e| m.state_at(11, e)).collect();
        assert_ne!(a, b, "adjacent keys share a trajectory");
    }

    /// The chain stepped from epoch 0 with no memo, its draws written out
    /// from `(seed, key, epoch)`.
    fn replay(chain: &BinaryMarkov, key: u64, epoch: u64) -> bool {
        let stream = splitmix64(chain.seed ^ splitmix64(key));
        let draw = |e: u64| {
            let h = splitmix64(stream ^ e.wrapping_add(1));
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut state = match chain.start {
            StartState::Fixed(s) => s,
            StartState::Stationary => draw(0) < chain.stationary_p1(),
        };
        for e in 1..=epoch {
            state = if state {
                draw(e) >= chain.p10
            } else {
                draw(e) < chain.p01
            };
        }
        state
    }

    /// A key of the kind `kind` picks from `raw`: a node id, one at the
    /// edge of the dense memo, or a per-link key `from << 32 | to`.
    fn key_of(kind: u8, raw: u64) -> u64 {
        match kind % 3 {
            0 => raw % 600,
            1 => DENSE_KEYS - 2 + raw % 4,
            _ => ((1 + raw % 600) << 32) | ((raw >> 16) % 600),
        }
    }

    proptest::proptest! {
        /// `state_at` is the memo-free replay, for dense keys, keys at the
        /// dense memo's edge and per-link keys, queried in any order (so
        /// behind the memo as often as ahead of it), and from two threads
        /// at once querying the same keys in opposite orders.
        #[test]
        fn prop_state_at_is_the_replay(
            p01_permille in 0u32..1001,
            p10_permille in 0u32..1001,
            seed in proptest::prelude::any::<u64>(),
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..60),
        ) {
            let start = match seed % 3 {
                0 => StartState::Stationary,
                s => StartState::Fixed(s == 1),
            };
            let (p01, p10) = (p01_permille as f64 / 1000.0, p10_permille as f64 / 1000.0);
            let chain = BinaryMarkov::new(p01, p10, start, seed);
            // Epochs below 200, so most queries land behind or ahead of
            // the memo rather than on it.
            let queries: Vec<(u64, u64)> = raw
                .iter()
                .map(|&r| (key_of(r as u8, r >> 8), (r >> 40) % 200))
                .collect();
            let expected: Vec<bool> =
                queries.iter().map(|&(key, epoch)| replay(&chain, key, epoch)).collect();
            for (&(key, epoch), &want) in queries.iter().zip(&expected) {
                proptest::prop_assert_eq!(chain.state_at(key, epoch), want, "key {key:#x} epoch {epoch}");
            }
            let shared = chain.clone();
            let run = |order: Vec<usize>| {
                order
                    .into_iter()
                    .all(|i| shared.state_at(queries[i].0, queries[i].1) == expected[i])
            };
            let (forward, backward) = std::thread::scope(|scope| {
                let forward = scope.spawn(|| run((0..queries.len()).collect()));
                let backward = scope.spawn(|| run((0..queries.len()).rev().collect()));
                (forward.join().expect("query thread"), backward.join().expect("query thread"))
            });
            proptest::prop_assert!(forward && backward, "a thread read off the replay");
        }
    }

    #[test]
    fn degenerate_chain_never_moves() {
        let m = BinaryMarkov::new(0.0, 0.0, StartState::Stationary, 8);
        assert_eq!(m.stationary_p1(), 0.0);
        for e in 0..50 {
            assert!(!m.state_at(2, e));
        }
    }
}
