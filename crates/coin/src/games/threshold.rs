//! Generalised quota voting.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};
use crate::games::{one, visible_ones, Tally};

/// Quota voting: outcome 1 iff at least `quota` visible 1s.
///
/// [`MajorityGame`](crate::MajorityGame) is the special case
/// `quota = ⌊n/2⌋ + 1`. Lower quotas make the 1-outcome harder for the
/// adversary to destroy (more 1s must be hidden); quota 1 gives the OR
/// game, where forcing 0 requires hiding *every* 1.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, ThresholdGame, all_visible};
///
/// let or_game = ThresholdGame::new(4, 1);
/// assert_eq!(or_game.outcome(&all_visible(&[0, 0, 1, 0])).0, 1);
/// assert_eq!(or_game.outcome(&all_visible(&[0, 0, 0, 0])).0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThresholdGame {
    n: usize,
    quota: usize,
}

impl ThresholdGame {
    /// Creates a quota game over `n` players that outputs 1 iff at least
    /// `quota` ones are visible.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `quota` is zero or exceeds `n` (a quota of
    /// zero would make the game constant).
    #[must_use]
    pub fn new(n: usize, quota: usize) -> ThresholdGame {
        assert!(n > 0, "threshold game needs at least one player");
        assert!(
            (1..=n).contains(&quota),
            "quota must be in 1..=n to keep the game non-constant"
        );
        ThresholdGame { n, quota }
    }

    /// The quota.
    #[must_use]
    pub fn quota(&self) -> usize {
        self.quota
    }
}

impl CoinGame for ThresholdGame {
    fn players(&self) -> usize {
        self.n
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.n, "input length must equal n");
        Outcome(usize::from(visible_ones(inputs) >= self.quota))
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.n, "input length must equal n");
        let quota = self.quota as u64;
        Box::new(Tally::new(seq, one, move |ones| {
            Outcome(usize::from(ones >= quota))
        }))
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        match (target.0, value) {
            (0, 1) => 1,
            _ => -1,
        }
    }

    fn name(&self) -> &str {
        "threshold"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn quota_boundary_is_inclusive() {
        let g = ThresholdGame::new(5, 3);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 1, 0, 0])).0, 1);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 0, 0, 0])).0, 0);
    }

    #[test]
    fn or_game_needs_every_one_hidden() {
        let g = ThresholdGame::new(4, 1);
        let values = [1, 0, 1, 0];
        assert_eq!(g.outcome(&with_hidden(&values, &[0])).0, 1);
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 2])).0, 0);
    }

    #[test]
    fn and_game_single_hide_kills() {
        let g = ThresholdGame::new(4, 4);
        let values = [1, 1, 1, 1];
        assert_eq!(g.outcome(&all_visible(&values)).0, 1);
        assert_eq!(g.outcome(&with_hidden(&values, &[3])).0, 0);
    }

    #[test]
    #[should_panic(expected = "quota must be in")]
    fn zero_quota_rejected() {
        let _ = ThresholdGame::new(3, 0);
    }

    #[test]
    #[should_panic(expected = "quota must be in")]
    fn oversized_quota_rejected() {
        let _ = ThresholdGame::new(3, 4);
    }
}
