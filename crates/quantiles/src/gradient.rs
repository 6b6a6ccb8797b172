//! Precision gradients (§6.1): how the error budget ε is spread across
//! tree heights.
//!
//! A node of height `k` compresses its outgoing partial result to error
//! `ε(k)`; correctness needs `ε(1) ≤ ε(2) ≤ … ≤ ε(h) ≤ ε`, and the
//! communication cost of height-`k` nodes is governed by the *difference*
//! `ε(k) − ε(k−1)` (at most `1/(ε(k)−ε(k−1))` counters cross each link —
//! Algorithm 1 Step 3, and the same for GK summaries via `reduce`). The
//! gradients here are shared by the frequent-items algorithms and the
//! §6.1.4 quantiles extension:
//!
//! * [`MinTotalLoad`] — the paper's new gradient (Lemma 3):
//!   `ε(i) = ε·(1−t)(1+t+…+t^{i−1}) = ε·(1−t^i)` with `t = 1/√d` for a
//!   d-dominating tree; total communication ≤ `(1 + 2/(√d−1))·m/ε`.
//! * [`MinMaxLoad`] — the prior art \[13\]: `ε(i) = ε·i/h` for a tree of
//!   height `h`, minimizing the *maximum* load (≤ `h/ε` per link).
//! * [`Hybrid`] — §6.1.4: the average of the two, within a factor 2 of
//!   both optima simultaneously (each per-level difference is at least
//!   half of each component's difference).
//! * [`Uniform`] — naive baseline: the whole budget at every level
//!   (pruning only with the leaf threshold; maximal communication).

/// A precision gradient: ε as a function of node height (leaves = 1).
pub trait PrecisionGradient: Sync {
    /// The error budget for partial results sent by height-`i` nodes.
    fn eps_at(&self, height: u32) -> f64;

    /// The user-facing error tolerance ε (an upper bound on every
    /// `eps_at`).
    fn final_eps(&self) -> f64;

    /// The per-level budget difference `ε(i) − ε(i−1)` (with
    /// `ε(0) = 0`), which bounds communication at height `i`.
    fn diff_at(&self, height: u32) -> f64 {
        if height <= 1 {
            self.eps_at(1)
        } else {
            self.eps_at(height) - self.eps_at(height - 1)
        }
    }
}

/// The paper's Min Total-load gradient (Lemma 3).
#[derive(Clone, Copy, Debug)]
pub struct MinTotalLoad {
    eps: f64,
    /// `t = 1/√d` where `d` is the tree's domination factor.
    t: f64,
}

impl MinTotalLoad {
    /// Gradient for error `eps` on a `d`-dominating tree.
    ///
    /// # Panics
    /// Panics unless `eps > 0` and `d > 1` (Lemma 3 requires `d > 1`).
    pub fn new(eps: f64, d: f64) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        assert!(d > 1.0, "Min Total-load requires a domination factor > 1");
        MinTotalLoad {
            eps,
            t: 1.0 / d.sqrt(),
        }
    }

    /// Lemma 3's bound on total communication for `m` nodes:
    /// `(1 + 2/(√d−1)) · m/ε` words.
    #[cfg(test)]
    pub fn total_load_bound(&self, m: usize) -> f64 {
        let sqrt_d = 1.0 / self.t;
        (1.0 + 2.0 / (sqrt_d - 1.0)) * m as f64 / self.eps
    }
}

impl PrecisionGradient for MinTotalLoad {
    fn eps_at(&self, height: u32) -> f64 {
        // ε·(1−t)(1 + t + … + t^{i−1}) = ε·(1 − t^i)
        self.eps * (1.0 - self.t.powi(height as i32))
    }

    fn final_eps(&self) -> f64 {
        self.eps
    }
}

/// The Min Max-load gradient of \[13\]: linear in height.
#[derive(Clone, Copy, Debug)]
pub struct MinMaxLoad {
    eps: f64,
    tree_height: u32,
}

impl MinMaxLoad {
    /// Gradient for error `eps` on a tree of height `tree_height`.
    ///
    /// # Panics
    /// Panics unless `eps > 0` and `tree_height >= 1`.
    pub fn new(eps: f64, tree_height: u32) -> Self {
        assert!(eps > 0.0);
        assert!(tree_height >= 1);
        MinMaxLoad { eps, tree_height }
    }

    /// The per-link load bound `h/ε` counters.
    #[cfg(test)]
    pub fn max_load_bound(&self) -> f64 {
        self.tree_height as f64 / self.eps
    }
}

impl PrecisionGradient for MinMaxLoad {
    fn eps_at(&self, height: u32) -> f64 {
        self.eps * height.min(self.tree_height) as f64 / self.tree_height as f64
    }

    fn final_eps(&self) -> f64 {
        self.eps
    }
}

/// §6.1.4's Hybrid gradient: the average of [`MinTotalLoad`] and
/// [`MinMaxLoad`], simultaneously within 2× of both optima.
#[derive(Clone, Copy, Debug)]
pub struct Hybrid {
    total: MinTotalLoad,
    max: MinMaxLoad,
}

impl Hybrid {
    /// Hybrid gradient for error `eps` on a `d`-dominating tree of height
    /// `tree_height`.
    pub fn new(eps: f64, d: f64, tree_height: u32) -> Self {
        Hybrid {
            total: MinTotalLoad::new(eps, d),
            max: MinMaxLoad::new(eps, tree_height),
        }
    }
}

impl PrecisionGradient for Hybrid {
    fn eps_at(&self, height: u32) -> f64 {
        0.5 * (self.total.eps_at(height) + self.max.eps_at(height))
    }

    fn final_eps(&self) -> f64 {
        self.total.final_eps()
    }
}

/// Naive gradient: full budget at every height. Minimal answer error but
/// no compression paid for along the way — communication-maximal among
/// correct settings; useful as an ablation baseline.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    eps: f64,
}

impl Uniform {
    /// Uniform gradient with error `eps`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0);
        Uniform { eps }
    }
}

impl PrecisionGradient for Uniform {
    fn eps_at(&self, _height: u32) -> f64 {
        self.eps
    }

    fn final_eps(&self) -> f64 {
        self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_monotone_and_bounded<G: PrecisionGradient>(g: &G, h_max: u32) {
        let mut prev = 0.0;
        for h in 1..=h_max {
            let e = g.eps_at(h);
            assert!(e >= prev - 1e-12, "not monotone at height {h}");
            assert!(
                e <= g.final_eps() + 1e-12,
                "eps({h}) = {e} exceeds final {}",
                g.final_eps()
            );
            assert!(g.diff_at(h) >= -1e-12);
            prev = e;
        }
    }

    #[test]
    fn min_total_load_shape() {
        let g = MinTotalLoad::new(0.1, 4.0); // t = 1/2
        check_monotone_and_bounded(&g, 20);
        // ε(1) = ε(1−t) = 0.05; ε(2) = ε(1−t²) = 0.075 …
        assert!((g.eps_at(1) - 0.05).abs() < 1e-12);
        assert!((g.eps_at(2) - 0.075).abs() < 1e-12);
        // Differences decay geometrically by t.
        let r = g.diff_at(3) / g.diff_at(2);
        assert!((r - 0.5).abs() < 1e-9);
    }

    #[test]
    fn min_total_load_bound_formula() {
        let g = MinTotalLoad::new(0.01, 4.0);
        // (1 + 2/(2-1)) * m/ε = 3 * 100 * 100 = 30_000 for m = 100
        assert!((g.total_load_bound(100) - 30_000.0).abs() < 1e-6);
    }

    #[test]
    fn min_max_load_linear() {
        let g = MinMaxLoad::new(0.1, 5);
        check_monotone_and_bounded(&g, 10);
        assert!((g.eps_at(1) - 0.02).abs() < 1e-12);
        assert!((g.eps_at(5) - 0.1).abs() < 1e-12);
        // Heights past the tree height clamp at ε.
        assert!((g.eps_at(9) - 0.1).abs() < 1e-12);
        assert!((g.max_load_bound() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn hybrid_dominates_half_of_each() {
        let eps = 0.05;
        let d = 2.25;
        let h = 8;
        let total = MinTotalLoad::new(eps, d);
        let max = MinMaxLoad::new(eps, h);
        let hybrid = Hybrid::new(eps, d, h);
        check_monotone_and_bounded(&hybrid, 12);
        for i in 1..=h {
            assert!(hybrid.diff_at(i) >= 0.5 * total.diff_at(i) - 1e-12);
            assert!(hybrid.diff_at(i) >= 0.5 * max.diff_at(i) - 1e-12);
        }
    }

    #[test]
    fn uniform_constant() {
        let g = Uniform::new(0.2);
        check_monotone_and_bounded(&g, 6);
        assert_eq!(g.eps_at(1), 0.2);
        assert_eq!(g.eps_at(6), 0.2);
        assert_eq!(g.diff_at(3), 0.0);
    }

    #[test]
    #[should_panic(expected = "domination factor > 1")]
    fn min_total_load_rejects_d_1() {
        let _ = MinTotalLoad::new(0.1, 1.0);
    }
}
