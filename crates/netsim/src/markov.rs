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
use std::sync::Mutex;

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
    /// Per-key memo of the last computed `(epoch, state)`.
    cache: Mutex<HashMap<u64, (u64, bool)>>,
}

impl Clone for BinaryMarkov {
    /// Clones the chain *definition*; the memo starts empty (it is a
    /// pure cache — trajectories are identical).
    fn clone(&self) -> Self {
        BinaryMarkov {
            p01: self.p01,
            p10: self.p10,
            start: self.start,
            seed: self.seed,
            cache: Mutex::new(HashMap::new()),
        }
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
            cache: Mutex::new(HashMap::new()),
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
    /// (epoch 0 uses a distinct initialization label).
    #[inline]
    fn draw(&self, key: u64, epoch: u64) -> f64 {
        unit(splitmix64(
            splitmix64(self.seed ^ splitmix64(key)) ^ epoch.wrapping_add(1),
        ))
    }

    /// Key `k`'s state at epoch 0 per the start rule.
    fn initial(&self, key: u64) -> bool {
        match self.start {
            StartState::Fixed(s) => s,
            StartState::Stationary => self.draw(key, 0) < self.stationary_p1(),
        }
    }

    /// Advance `state` by one epoch step using `epoch`'s draw.
    #[inline]
    fn step(&self, key: u64, epoch: u64, state: bool) -> bool {
        let u = self.draw(key, epoch);
        if state {
            u >= self.p10
        } else {
            u < self.p01
        }
    }

    /// The chain state of `key` at `epoch` — a pure function of
    /// `(seed, key, epoch)`, memoized per key for epoch-monotone
    /// access.
    pub fn state_at(&self, key: u64, epoch: u64) -> bool {
        let mut cache = self.cache.lock().expect("markov memo poisoned");
        let cached = cache.get(&key).copied();
        let (mut e, mut s) = match cached {
            Some((e, s)) if e <= epoch => (e, s),
            _ => (0, self.initial(key)),
        };
        while e < epoch {
            e += 1;
            s = self.step(key, e, s);
        }
        // Only ever advance the memo: a behind-the-cache query (a
        // replay from 0) must not regress it, or alternating
        // `epoch, epoch − 1` access would replay from 0 every time.
        if cached.is_none_or(|(e0, _)| e0 < e) {
            cache.insert(key, (e, s));
        }
        s
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

    #[test]
    fn degenerate_chain_never_moves() {
        let m = BinaryMarkov::new(0.0, 0.0, StartState::Stationary, 8);
        assert_eq!(m.stationary_p1(), 0.0);
        for e in 0..50 {
            assert!(!m.state_at(2, e));
        }
    }
}
