//! Hamming-ball blow-up on the hypercube and Schechtman's bound.
//!
//! Lemma 2.1's engine is an isoperimetric inequality (Schechtman 1981,
//! a Lévy-type inequality for product spaces): for `A ⊆ Xⁿ` with
//! `Pr(A) = α` and `l ≥ l₀ = 2·√(n·ln(1/α))`,
//!
//! ```text
//! Pr(B(A, l)) ≥ 1 − e^{−(l−l₀)²/4n}
//! ```
//!
//! where `B(A, l)` is everything within `l` coordinate changes of `A`.
//! This module provides the closed-form bound at any scale, and an **exact**
//! blow-up computation on the Boolean hypercube for small `n` so the
//! inequality itself can be verified empirically (experiment E2).

use synran_sim::SimRng;

/// Largest supported dimension for exact hypercube sets (2²⁶ bits = 8 MiB).
pub const MAX_DIMENSION: u32 = 26;

/// A subset of the Boolean hypercube `{0,1}^n`, stored as a bitset over all
/// `2^n` points.
///
/// # Examples
///
/// ```
/// use synran_coin::HypercubeSet;
///
/// let mut a = HypercubeSet::empty(4);
/// a.insert(0b0000);
/// let ball = a.blow_up(1); // Hamming ball of radius 1 around 0000
/// assert_eq!(ball.count(), 5); // center + 4 neighbours
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypercubeSet {
    n: u32,
    words: Vec<u64>,
}

impl HypercubeSet {
    /// The empty subset of `{0,1}^n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds [`MAX_DIMENSION`].
    #[must_use]
    pub fn empty(n: u32) -> HypercubeSet {
        assert!(
            (1..=MAX_DIMENSION).contains(&n),
            "dimension must be in 1..={MAX_DIMENSION}"
        );
        let bits = 1usize << n;
        HypercubeSet {
            n,
            words: vec![0; bits.div_ceil(64)],
        }
    }

    /// The full cube `{0,1}^n`.
    #[must_use]
    pub fn full(n: u32) -> HypercubeSet {
        let mut s = HypercubeSet::empty(n);
        let bits = 1usize << n;
        for (i, w) in s.words.iter_mut().enumerate() {
            let remaining = bits - i * 64;
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
        s
    }

    /// The set containing exactly `point`.
    #[must_use]
    pub fn singleton(n: u32, point: u32) -> HypercubeSet {
        let mut s = HypercubeSet::empty(n);
        s.insert(point);
        s
    }

    /// A random set including each point independently with probability `p`.
    #[must_use]
    pub fn random(n: u32, p: f64, rng: &mut SimRng) -> HypercubeSet {
        let mut s = HypercubeSet::empty(n);
        for point in 0..(1u32 << n) {
            if rng.chance(p) {
                s.insert(point);
            }
        }
        s
    }

    /// The dimension `n`.
    #[must_use]
    pub fn dimension(&self) -> u32 {
        self.n
    }

    /// Adds `point` to the set.
    ///
    /// # Panics
    ///
    /// Panics if `point` has bits above the dimension.
    pub fn insert(&mut self, point: u32) {
        assert!(point < (1u32 << self.n), "point outside the cube");
        self.words[(point / 64) as usize] |= 1u64 << (point % 64);
    }

    /// Tests membership.
    #[must_use]
    pub fn contains(&self, point: u32) -> bool {
        if point >= (1u32 << self.n) {
            return false;
        }
        self.words[(point / 64) as usize] >> (point % 64) & 1 == 1
    }

    /// Number of points in the set.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// The set's measure under the uniform distribution: `|A| / 2^n`.
    #[must_use]
    pub fn measure(&self) -> f64 {
        self.count() as f64 / (1u64 << self.n) as f64
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the points of the set in ascending order.
    pub fn points(&self) -> impl Iterator<Item = u32> + '_ {
        let n = self.n;
        (0..(1u32 << n)).filter(move |&p| self.contains(p))
    }

    /// Everything within Hamming distance 1 of the set (including the set).
    #[must_use]
    pub fn expand_once(&self) -> HypercubeSet {
        let mut out = self.clone();
        for p in self.points() {
            for bit in 0..self.n {
                out.insert(p ^ (1 << bit));
            }
        }
        out
    }

    /// The paper's `B(A, l)`: everything within Hamming distance `l`.
    ///
    /// `blow_up(0)` is the set itself.
    #[must_use]
    pub fn blow_up(&self, l: u32) -> HypercubeSet {
        let mut cur = self.clone();
        for _ in 0..l {
            let next = cur.expand_once();
            if next == cur {
                break; // saturated (either empty or the full cube region)
            }
            cur = next;
        }
        cur
    }

    /// The Hamming ball of radius `r` around `center`.
    #[must_use]
    pub fn ball(n: u32, center: u32, r: u32) -> HypercubeSet {
        HypercubeSet::singleton(n, center).blow_up(r)
    }
}

/// Schechtman's critical radius `l₀ = 2·√(n·ln(1/α))` for a set of
/// measure `alpha`.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]`.
#[must_use]
pub fn schechtman_l0(n: usize, alpha: f64) -> f64 {
    assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
    2.0 * ((n as f64) * (1.0 / alpha).ln()).sqrt()
}

/// Schechtman's lower bound on `Pr(B(A, l))` for `Pr(A) = alpha`:
/// `1 − e^{−(l−l₀)²/4n}` when `l ≥ l₀`, and 0 (trivial) otherwise.
///
/// The returned value is always a valid probability lower bound — the
/// theorem's content is that it approaches 1 once `l` passes `l₀` by a few
/// `√n`.
///
/// # Panics
///
/// Panics if `alpha` is not in `(0, 1]`.
///
/// # Examples
///
/// ```
/// use synran_coin::{schechtman_bound, schechtman_l0};
///
/// let n = 10_000;
/// let alpha = 0.01;
/// let l0 = schechtman_l0(n, alpha);
/// // Well past l0 the blow-up has nearly full measure.
/// assert!(schechtman_bound(n, alpha, (l0 + 400.0) as u32) > 0.98);
/// ```
#[must_use]
pub fn schechtman_bound(n: usize, alpha: f64, l: u32) -> f64 {
    let l0 = schechtman_l0(n, alpha);
    let lf = f64::from(l);
    if lf <= l0 {
        return 0.0;
    }
    1.0 - (-(lf - l0).powi(2) / (4.0 * n as f64)).exp()
}

/// The bound specialised as Lemma 2.1 uses it: `α = 1/n`,
/// `l = h = 4√(n·ln n)`, giving `Pr(B(U^v, h)) ≥ 1 − 1/n`.
#[must_use]
pub fn lemma_2_1_blowup_bound(n: usize) -> f64 {
    // (4√(n ln n) − 2√(n ln n))² / 4n = (2√(n ln n))²/4n = ln n,
    // so the bound is exactly 1 − e^{−ln n} = 1 − 1/n.
    schechtman_bound(
        n,
        1.0 / n as f64,
        crate::control::bias_radius(n).ceil() as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = HypercubeSet::empty(5);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        assert_eq!(e.measure(), 0.0);
        let f = HypercubeSet::full(5);
        assert_eq!(f.count(), 32);
        assert_eq!(f.measure(), 1.0);
        // Full sets above one word, with a partial tail word.
        let f7 = HypercubeSet::full(7);
        assert_eq!(f7.count(), 128);
        let f5 = HypercubeSet::full(5);
        assert_eq!(f5.count(), 32);
    }

    #[test]
    fn insert_contains_roundtrip() {
        let mut s = HypercubeSet::empty(6);
        for p in [0u32, 5, 17, 63] {
            assert!(!s.contains(p));
            s.insert(p);
            assert!(s.contains(p));
        }
        assert_eq!(s.count(), 4);
        assert_eq!(s.points().collect::<Vec<_>>(), vec![0, 5, 17, 63]);
    }

    #[test]
    #[should_panic(expected = "outside the cube")]
    fn insert_out_of_range_panics() {
        HypercubeSet::empty(3).insert(8);
    }

    #[test]
    fn ball_sizes_match_binomials() {
        // |B(point, r)| = Σ_{i≤r} C(n, i).
        let n = 8u32;
        let binom = |k: u32| -> u64 {
            (0..k).fold(1u64, |acc, i| acc * u64::from(n - i) / u64::from(i + 1))
        };
        for r in 0..=3u32 {
            let expect: u64 = (0..=r).map(binom).sum();
            assert_eq!(HypercubeSet::ball(n, 0b1010_1010 & 0xff, r).count(), expect);
        }
    }

    #[test]
    fn blow_up_is_monotone_and_saturates() {
        let mut rng = SimRng::new(9);
        let a = HypercubeSet::random(8, 0.05, &mut rng);
        let mut prev = a.count();
        for l in 1..=8 {
            let b = a.blow_up(l);
            assert!(b.count() >= prev, "blow-up must be monotone");
            prev = b.count();
        }
        if !a.is_empty() {
            assert_eq!(a.blow_up(8).count(), 256, "radius n covers the cube");
        }
    }

    #[test]
    fn blow_up_zero_is_identity() {
        let mut rng = SimRng::new(10);
        let a = HypercubeSet::random(7, 0.2, &mut rng);
        assert_eq!(a.blow_up(0), a);
    }

    #[test]
    fn expand_composes() {
        let mut rng = SimRng::new(11);
        let a = HypercubeSet::random(6, 0.1, &mut rng);
        assert_eq!(a.expand_once().expand_once(), a.blow_up(2));
    }

    #[test]
    fn schechtman_l0_decreasing_in_alpha() {
        let n = 100;
        assert!(schechtman_l0(n, 0.01) > schechtman_l0(n, 0.5));
        assert_eq!(schechtman_l0(n, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn schechtman_rejects_zero_alpha() {
        let _ = schechtman_l0(10, 0.0);
    }

    #[test]
    fn bound_is_a_probability_and_monotone_in_l() {
        let n = 200;
        let alpha = 0.1;
        let mut prev = -1.0;
        for l in 0..200u32 {
            let b = schechtman_bound(n, alpha, l);
            assert!((0.0..=1.0).contains(&b));
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn bound_holds_exactly_on_small_cubes() {
        // The actual content of E2, in miniature: for random sets on
        // {0,1}^10, the exact blow-up measure dominates the bound.
        let n = 10u32;
        let mut rng = SimRng::new(12);
        for density in [0.01, 0.05, 0.2, 0.5] {
            let a = HypercubeSet::random(n, density, &mut rng);
            if a.is_empty() {
                continue;
            }
            let alpha = a.measure();
            for l in 0..=n {
                let exact = a.blow_up(l).measure();
                let bound = schechtman_bound(n as usize, alpha, l);
                assert!(
                    exact + 1e-12 >= bound,
                    "n={n} α={alpha} l={l}: exact {exact} < bound {bound}"
                );
            }
        }
    }

    #[test]
    fn lemma_2_1_instantiation_matches_closed_form() {
        // Pr(B(U^v, h)) ≥ 1 − 1/n exactly, by the algebra in the lemma.
        for n in [16usize, 64, 256, 1024] {
            let b = lemma_2_1_blowup_bound(n);
            let target = 1.0 - 1.0 / n as f64;
            assert!(b >= target - 0.02, "n={n}: bound {b} should be ≈ {target}");
        }
    }
}
