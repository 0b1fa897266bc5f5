//! A k-outcome game: sum of visible values modulo k.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};
use crate::games::Tally;
use synran_sim::SimRng;

/// Sum-mod-k: each player draws uniformly from `0..k`; the outcome is the
/// sum of visible values mod k (hidden counts as 0).
///
/// The workspace's `k > 2` game for exercising Lemma 2.1's general form
/// (`k < √n` outcomes, threshold `k·4·√(n·log n)`). Hiding a player
/// holding `v` shifts the outcome by `−v (mod k)`, so with a modest
/// diversity of visible values the adversary can steer precisely.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, ModKGame, all_visible};
///
/// let game = ModKGame::new(4, 3);
/// assert_eq!(game.outcomes(), 3);
/// assert_eq!(game.outcome(&all_visible(&[2, 2, 1, 0])).0, 2); // 5 mod 3
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModKGame {
    n: usize,
    k: usize,
}

impl ModKGame {
    /// Creates a sum-mod-`k` game over `n` players.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `k < 2`.
    #[must_use]
    pub fn new(n: usize, k: usize) -> ModKGame {
        assert!(n > 0, "mod-k game needs at least one player");
        assert!(k >= 2, "mod-k game needs at least two outcomes");
        ModKGame { n, k }
    }
}

impl CoinGame for ModKGame {
    fn players(&self) -> usize {
        self.n
    }

    fn outcomes(&self) -> usize {
        self.k
    }

    fn sample_input(&self, _player: usize, rng: &mut SimRng) -> Value {
        rng.below(self.k as u64) as Value
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.n, "input length must equal n");
        let sum: u64 = inputs.iter().filter_map(|v| v.value()).map(u64::from).sum();
        Outcome((sum % self.k as u64) as usize)
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.n, "input length must equal n");
        let k = self.k as u64;
        let value = |v: Visible| v.value().map_or(0, u64::from);
        Box::new(Tally::new(seq, value, move |sum| {
            Outcome((sum % k) as usize)
        }))
    }

    fn hide_preference(&self, value: Value, _target: Outcome) -> i32 {
        // Hiding zeros never moves the sum.
        if value == 0 {
            -1
        } else {
            1
        }
    }

    fn name(&self) -> &str {
        "sum-mod-k"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, sample_inputs, with_hidden};

    #[test]
    fn sum_mod_k_semantics() {
        let g = ModKGame::new(3, 5);
        assert_eq!(g.outcome(&all_visible(&[4, 4, 4])).0, 2); // 12 mod 5
        assert_eq!(g.outcome(&all_visible(&[0, 0, 0])).0, 0);
    }

    #[test]
    fn hiding_subtracts_the_value() {
        let g = ModKGame::new(3, 5);
        let values = [4, 3, 2];
        assert_eq!(g.outcome(&all_visible(&values)).0, 4);
        assert_eq!(g.outcome(&with_hidden(&values, &[1])).0, 1); // 6 mod 5
    }

    #[test]
    fn inputs_sampled_in_domain() {
        let g = ModKGame::new(100, 7);
        let mut rng = SimRng::new(3);
        let inputs = sample_inputs(&g, &mut rng);
        assert!(inputs.iter().all(|&v| v < 7));
        // All residues should appear in 100 draws with overwhelming prob.
        for r in 0..7u32 {
            assert!(inputs.contains(&r), "residue {r} never drawn");
        }
    }
}
