//! The one-side-biased coin of the SynRan protocol.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};
use crate::games::{visible_zeros, zero, Tally};

/// The "no zero seen → 1" game: outcome 1 iff **no** visible input is 0.
///
/// This is the shape of the coin rule SynRan adds to Ben-Or's protocol
/// (`ELSE IF Z_i^r = 0 THEN b_i = 1`): the adversary can push the outcome
/// *toward 1* by hiding 0-holders, but can never manufacture a 0. The
/// protocol exploits exactly this asymmetry — the adversary's only way to
/// keep processes from converging is to spend failures.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, OneSidedGame, all_visible, with_hidden};
///
/// let game = OneSidedGame::new(3);
/// let values = [1, 0, 1];
/// assert_eq!(game.outcome(&all_visible(&values)).0, 0);   // a 0 is visible
/// assert_eq!(game.outcome(&with_hidden(&values, &[1])).0, 1); // hide it
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneSidedGame {
    n: usize,
}

impl OneSidedGame {
    /// Creates a one-sided game over `n` players.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> OneSidedGame {
        assert!(n > 0, "one-sided game needs at least one player");
        OneSidedGame { n }
    }
}

impl CoinGame for OneSidedGame {
    fn players(&self) -> usize {
        self.n
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.n, "input length must equal n");
        Outcome(usize::from(visible_zeros(inputs) == 0))
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.n, "input length must equal n");
        Box::new(Tally::new(seq, zero, |zeros| {
            Outcome(usize::from(zeros == 0))
        }))
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        match (target.0, value) {
            // Forcing 1 means erasing every 0.
            (1, 0) => 1,
            _ => -1,
        }
    }

    fn name(&self) -> &str {
        "one-sided"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn any_zero_forces_zero() {
        let g = OneSidedGame::new(4);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 0, 1])).0, 0);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 1, 1])).0, 1);
    }

    #[test]
    fn all_hidden_is_one() {
        // With everything hidden there is no visible 0, so outcome is 1 —
        // the degenerate end of the "bias toward 1" direction.
        let g = OneSidedGame::new(3);
        let values = [0, 0, 0];
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 1, 2])).0, 1);
    }

    #[test]
    fn cannot_force_zero_from_all_ones() {
        let g = OneSidedGame::new(4);
        let values = [1, 1, 1, 1];
        for mask in 0u32..16 {
            let hide: Vec<usize> = (0..4).filter(|i| (mask >> i) & 1 == 1).collect();
            assert_eq!(g.outcome(&with_hidden(&values, &hide)).0, 1);
        }
    }

    #[test]
    fn forcing_one_needs_exactly_the_zero_holders() {
        let g = OneSidedGame::new(5);
        let values = [0, 1, 0, 1, 0];
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 2])).0, 0);
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 2, 4])).0, 1);
    }
}
