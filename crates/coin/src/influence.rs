//! Ben-Or–Linial influences: the classical robustness measure the paper's
//! §2 quietly upends.
//!
//! The **influence** of player `i` on a game is the probability (over the
//! other inputs) that flipping `i`'s input flips the outcome. The
//! collective-coin-flipping literature the paper cites ([BOL89]) designs
//! games minimising the *maximum individual influence* — recursive
//! majority gets it down to `O(n^{−0.63})` — on the theory that
//! low-influence players cannot bias the coin.
//!
//! A **fail-stop** adversary plays a different game: it does not flip
//! inputs, it *hides* them after seeing everything, and it buys many hides
//! at once. E1's influence section shows the punchline: recursive majority
//! has a fraction of flat majority's per-player influence, yet both are
//! forced to 0 by the same `~√n` hides. Influence measures resilience to
//! corruptions, not to adaptive crashes.

use synran_sim::SimRng;

use crate::game::{all_visible, sample_inputs, CoinGame, Tracker, Value, Visible};

/// Per-player influences of a binary-input game.
#[derive(Debug, Clone, PartialEq)]
pub struct InfluenceProfile {
    influences: Vec<f64>,
}

impl InfluenceProfile {
    /// The influence of player `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn of(&self, i: usize) -> f64 {
        self.influences[i]
    }

    /// All influences, in player order.
    #[must_use]
    pub fn all(&self) -> &[f64] {
        &self.influences
    }

    /// The largest individual influence — \[BOL89\]'s design target.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.influences.iter().copied().fold(0.0, f64::max)
    }

    /// The total influence (the average sensitivity / edge boundary).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.influences.iter().sum()
    }
}

/// Computes exact influences by enumerating all `2^n` fair-coin inputs.
///
/// # Panics
///
/// Panics if the game has more than 22 players (enumeration would exceed
/// ~4M × n evaluations) or non-binary outcomes.
#[must_use]
pub fn exact_influences<G: CoinGame + ?Sized>(game: &G) -> InfluenceProfile {
    let n = game.players();
    assert!(n <= 22, "exact influences need n ≤ 22 (got {n})");
    assert_eq!(
        game.outcomes(),
        2,
        "influences are defined for binary games"
    );
    let mut flips = vec![0u64; n];
    let total = 1u64 << n;
    let mut bits = vec![0; n];
    let mut tracker = game.tracker(&all_visible(&bits));
    for point in 0..total {
        for (i, bit) in bits.iter_mut().enumerate() {
            *bit = ((point >> i) & 1) as u32;
            tracker.set(i, Visible::Value(*bit));
        }
        count_flips(tracker.as_mut(), &bits, &mut flips);
    }
    InfluenceProfile {
        influences: flips.iter().map(|&f| f as f64 / total as f64).collect(),
    }
}

/// Estimates influences by sampling `samples` input vectors.
///
/// # Panics
///
/// Panics if `samples` is zero or the game is not binary-outcome.
#[must_use]
pub fn estimate_influences<G: CoinGame + ?Sized>(
    game: &G,
    samples: usize,
    rng: &mut SimRng,
) -> InfluenceProfile {
    assert!(samples > 0, "need at least one sample");
    assert_eq!(
        game.outcomes(),
        2,
        "influences are defined for binary games"
    );
    let n = game.players();
    let mut flips = vec![0u64; n];
    for _ in 0..samples {
        let values = sample_inputs(game, rng);
        count_flips(
            game.tracker(&all_visible(&values)).as_mut(),
            &values,
            &mut flips,
        );
    }
    InfluenceProfile {
        influences: flips.iter().map(|&f| f as f64 / samples as f64).collect(),
    }
}

/// Adds one to `flips[i]` for every player `i` whose flipped input changes
/// the outcome of `tracker`, which holds `values`: set the coordinate,
/// compare, set it back.
fn count_flips(tracker: &mut dyn Tracker, values: &[Value], flips: &mut [u64]) {
    let base = tracker.outcome();
    for (i, &v) in values.iter().enumerate() {
        tracker.set(i, Visible::Value(v ^ 1));
        if tracker.outcome() != base {
            flips[i] += 1;
        }
        tracker.set(i, Visible::Value(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::games::{DictatorGame, MajorityGame, ParityGame, RecursiveMajorityGame, TribesGame};

    #[test]
    fn dictator_concentrates_all_influence() {
        let p = exact_influences(&DictatorGame::new(5));
        assert_eq!(p.of(0), 1.0);
        for i in 1..5 {
            assert_eq!(p.of(i), 0.0);
        }
        assert_eq!(p.max(), 1.0);
        assert_eq!(p.total(), 1.0);
    }

    #[test]
    fn parity_gives_everyone_full_influence() {
        let p = exact_influences(&ParityGame::new(6));
        for i in 0..6 {
            assert_eq!(p.of(i), 1.0);
        }
        assert_eq!(p.total(), 6.0);
    }

    #[test]
    fn majority_influence_matches_central_binomial() {
        // For odd n, a player is pivotal iff the others split (n−1)/2 each:
        // influence = C(n−1, (n−1)/2) / 2^{n−1}.
        let n = 9usize;
        let p = exact_influences(&MajorityGame::new(n));
        let expected = 70.0 / 256.0; // C(8,4)/2^8
        for i in 0..n {
            assert!(
                (p.of(i) - expected).abs() < 1e-12,
                "player {i}: {}",
                p.of(i)
            );
        }
    }

    #[test]
    fn recursive_majority_has_lower_influence_than_flat() {
        // The [BOL89] point: same n, much smaller per-player influence...
        let flat = exact_influences(&MajorityGame::new(9));
        let tree = exact_influences(&RecursiveMajorityGame::new(2));
        assert!(
            tree.max() < flat.max(),
            "tree {} should be below flat {}",
            tree.max(),
            flat.max()
        );
        // Depth-2 tree: pivotal iff pivotal in your gate (1/2) and your
        // gate pivotal at the root (1/2): influence = 1/4.
        assert!((tree.max() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn tribes_influence_is_asymmetric_in_structure_only() {
        // All players symmetric within the tribes layout.
        let p = exact_influences(&TribesGame::new(2, 3));
        let first = p.of(0);
        for i in 1..6 {
            assert!((p.of(i) - first).abs() < 1e-12);
        }
        assert!(first > 0.0);
    }

    #[test]
    fn estimates_converge_to_exact() {
        let game = MajorityGame::new(7);
        let exact = exact_influences(&game);
        let mut rng = SimRng::new(5);
        let est = estimate_influences(&game, 20_000, &mut rng);
        for i in 0..7 {
            assert!(
                (est.of(i) - exact.of(i)).abs() < 0.02,
                "player {i}: est {} vs exact {}",
                est.of(i),
                exact.of(i)
            );
        }
    }

    #[test]
    #[should_panic(expected = "n ≤ 22")]
    fn exact_guard_fires() {
        let _ = exact_influences(&MajorityGame::new(23));
    }

    #[test]
    #[should_panic(expected = "binary games")]
    fn non_binary_rejected() {
        let _ = exact_influences(&crate::games::ModKGame::new(4, 3));
    }
}
