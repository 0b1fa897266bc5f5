//! The XOR game.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};
use crate::games::{one, visible_ones, Tally};

/// Parity: outcome is the XOR of the visible inputs (hidden counts as 0).
///
/// The classic *maximally fragile* game: a single hide of a 1-holder flips
/// the outcome, so a 1-adversary controls the game whenever at least one
/// player drew a 1 — probability `1 − 2^{−n}`.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, ParityGame, all_visible, with_hidden};
///
/// let game = ParityGame::new(4);
/// let values = [1, 1, 1, 0];
/// assert_eq!(game.outcome(&all_visible(&values)).0, 1);
/// assert_eq!(game.outcome(&with_hidden(&values, &[0])).0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityGame {
    n: usize,
}

impl ParityGame {
    /// Creates a parity game over `n` players.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> ParityGame {
        assert!(n > 0, "parity game needs at least one player");
        ParityGame { n }
    }
}

impl CoinGame for ParityGame {
    fn players(&self) -> usize {
        self.n
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.n, "input length must equal n");
        Outcome(visible_ones(inputs) % 2)
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.n, "input length must equal n");
        Box::new(Tally::new(seq, one, |ones| Outcome((ones % 2) as usize)))
    }

    fn hide_preference(&self, value: Value, _target: Outcome) -> i32 {
        // Only hiding a 1 changes the parity, regardless of direction.
        if value == 1 {
            1
        } else {
            -1
        }
    }

    fn name(&self) -> &str {
        "parity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn xor_semantics() {
        let g = ParityGame::new(3);
        assert_eq!(g.outcome(&all_visible(&[0, 0, 0])).0, 0);
        assert_eq!(g.outcome(&all_visible(&[1, 0, 0])).0, 1);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 0])).0, 0);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 1])).0, 1);
    }

    #[test]
    fn hiding_a_one_flips_hiding_a_zero_does_not() {
        let g = ParityGame::new(3);
        let values = [1, 0, 1];
        let base = g.outcome(&all_visible(&values)).0;
        assert_eq!(g.outcome(&with_hidden(&values, &[0])).0, 1 - base);
        assert_eq!(g.outcome(&with_hidden(&values, &[1])).0, base);
    }

    #[test]
    fn all_zeros_is_a_fixed_point() {
        // With no 1s anywhere, no hide-set can make the outcome 1.
        let g = ParityGame::new(4);
        let values = [0, 0, 0, 0];
        for mask in 0u32..16 {
            let hide: Vec<usize> = (0..4).filter(|i| (mask >> i) & 1 == 1).collect();
            assert_eq!(g.outcome(&with_hidden(&values, &hide)).0, 0);
        }
    }
}
