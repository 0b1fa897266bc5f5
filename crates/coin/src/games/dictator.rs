//! The dictator game.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};

/// Player 0's value decides the game; a hidden dictator counts as 0.
///
/// The extreme of concentrated influence: the adversary controls the
/// outcome toward 0 with a *single* hide, but can force 1 only when the
/// dictator already drew 1. A useful degenerate case for the control
/// estimators.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, DictatorGame, all_visible, with_hidden};
///
/// let game = DictatorGame::new(4);
/// let values = [1, 0, 0, 0];
/// assert_eq!(game.outcome(&all_visible(&values)).0, 1);
/// assert_eq!(game.outcome(&with_hidden(&values, &[0])).0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DictatorGame {
    n: usize,
}

impl DictatorGame {
    /// Creates a dictator game over `n` players (player 0 dictates).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize) -> DictatorGame {
        assert!(n > 0, "dictator game needs at least one player");
        DictatorGame { n }
    }
}

impl CoinGame for DictatorGame {
    fn players(&self) -> usize {
        self.n
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.n, "input length must equal n");
        match inputs[0] {
            Visible::Value(v) => Outcome(usize::from(v == 1)),
            Visible::Hidden => Outcome(0),
        }
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.n, "input length must equal n");
        Box::new(Dictator(seq[0] == Visible::Value(1)))
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        // Value-based preference cannot single out player 0; hiding
        // 1-holders first at least reaches the dictator when it holds a 1.
        match (target.0, value) {
            (0, 1) => 1,
            _ => -1,
        }
    }

    fn name(&self) -> &str {
        "dictator"
    }
}

/// [`DictatorGame`]'s tracker: whether player 0 holds a visible 1. Edits
/// to anyone else are no-ops.
struct Dictator(bool);

impl Tracker for Dictator {
    fn outcome(&self) -> Outcome {
        Outcome(usize::from(self.0))
    }

    fn set(&mut self, i: usize, v: Visible) {
        if i == 0 {
            self.0 = v == Visible::Value(1);
        }
    }

    fn key(&self) -> Option<u64> {
        Some(u64::from(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn only_player_zero_matters() {
        let g = DictatorGame::new(3);
        assert_eq!(g.outcome(&all_visible(&[1, 0, 0])).0, 1);
        assert_eq!(g.outcome(&all_visible(&[0, 1, 1])).0, 0);
    }

    #[test]
    fn hiding_dictator_forces_zero() {
        let g = DictatorGame::new(3);
        assert_eq!(g.outcome(&with_hidden(&[1, 1, 1], &[0])).0, 0);
    }

    #[test]
    fn hiding_others_changes_nothing() {
        let g = DictatorGame::new(3);
        assert_eq!(g.outcome(&with_hidden(&[1, 0, 1], &[1, 2])).0, 1);
    }
}
