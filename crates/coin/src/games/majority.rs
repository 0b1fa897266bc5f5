//! 0-default majority voting.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};
use crate::games::{one, visible_ones, Tally};

/// 0-1 majority voting where any missing value is counted as 0 — the
/// paper's running example of a game that is biasable only *one* way.
///
/// Outcome is 1 iff a strict majority of the `n` slots holds a visible 1.
/// Hiding a player can only lower the count of 1s, so a fail-stop
/// adversary can force 0 (by hiding 1s) but can never force 1.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, MajorityGame, with_hidden, all_visible};
///
/// let game = MajorityGame::new(5);
/// let values = [1, 1, 1, 0, 0];
/// assert_eq!(game.outcome(&all_visible(&values)).0, 1);
/// // Hiding one 1 destroys the majority.
/// assert_eq!(game.outcome(&with_hidden(&values, &[0])).0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityGame {
    n: usize,
}

impl MajorityGame {
    /// Creates a majority game over `n` players.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> MajorityGame {
        assert!(n > 0, "majority game needs at least one player");
        MajorityGame { n }
    }
}

impl CoinGame for MajorityGame {
    fn players(&self) -> usize {
        self.n
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.n, "input length must equal n");
        Outcome(usize::from(visible_ones(inputs) * 2 > self.n))
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.n, "input length must equal n");
        let n = self.n as u64;
        Box::new(Tally::new(seq, one, move |ones| {
            Outcome(usize::from(ones * 2 > n))
        }))
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        match (target.0, value) {
            // Forcing 0: hide 1s. Hiding 0s is pointless (they already
            // count as 0), and nothing helps force 1.
            (0, 1) => 1,
            _ => -1,
        }
    }

    fn name(&self) -> &str {
        "majority-0"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn strict_majority_required() {
        let g = MajorityGame::new(4);
        // 2 of 4 ones is not a strict majority.
        assert_eq!(g.outcome(&all_visible(&[1, 1, 0, 0])).0, 0);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 1, 0])).0, 1);
    }

    #[test]
    fn hidden_counts_as_zero() {
        let g = MajorityGame::new(3);
        let values = [1, 1, 0];
        assert_eq!(g.outcome(&all_visible(&values)).0, 1);
        assert_eq!(g.outcome(&with_hidden(&values, &[1])).0, 0);
    }

    #[test]
    fn hiding_never_creates_a_one_outcome() {
        // Exhaustively: over all 2^5 inputs and all single hides, the
        // outcome never flips 0 → 1.
        let g = MajorityGame::new(5);
        for bits in 0u32..32 {
            let values: Vec<u32> = (0..5).map(|i| (bits >> i) & 1).collect();
            let base = g.outcome(&all_visible(&values));
            if base.0 == 0 {
                for h in 0..5 {
                    assert_eq!(g.outcome(&with_hidden(&values, &[h])).0, 0);
                }
            }
        }
    }

    #[test]
    fn preferences_favour_hiding_ones_for_zero() {
        let g = MajorityGame::new(3);
        assert!(g.hide_preference(1, Outcome(0)) > 0);
        assert!(g.hide_preference(0, Outcome(0)) < 0);
        assert!(g.hide_preference(1, Outcome(1)) < 0);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        let _ = MajorityGame::new(0);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn wrong_arity_rejected() {
        let g = MajorityGame::new(3);
        let _ = g.outcome(&all_visible(&[1, 0]));
    }
}
