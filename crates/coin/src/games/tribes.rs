//! The tribes (AND-of-ORs dual: OR-of-ANDs) game.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};
use crate::games::one;

/// Tribes: players are split into blocks of equal width; outcome 1 iff some
/// block consists entirely of visible 1s.
///
/// A structured game where the adversary's cheapest 0-forcing set is *one
/// player per unanimous block* — forcing cost grows with the number of live
/// tribes, not with n. Forcing 1 by hiding is impossible (a hidden member
/// breaks its block).
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, TribesGame, all_visible};
///
/// let game = TribesGame::new(2, 3); // 2 tribes of 3, n = 6
/// assert_eq!(game.players(), 6);
/// assert_eq!(game.outcome(&all_visible(&[1, 1, 1, 0, 0, 0])).0, 1);
/// assert_eq!(game.outcome(&all_visible(&[1, 1, 0, 1, 1, 0])).0, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TribesGame {
    tribes: usize,
    width: usize,
}

impl TribesGame {
    /// Creates a game with `tribes` blocks of `width` players each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(tribes: usize, width: usize) -> TribesGame {
        assert!(tribes > 0 && width > 0, "tribes and width must be positive");
        TribesGame { tribes, width }
    }

    /// Number of tribes.
    #[must_use]
    pub fn tribes(&self) -> usize {
        self.tribes
    }

    /// Players per tribe.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }
}

impl CoinGame for TribesGame {
    fn players(&self) -> usize {
        self.tribes * self.width
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.players(), "input length must equal n");
        let unanimous = inputs
            .chunks(self.width)
            .any(|block| block.iter().all(|v| matches!(v, Visible::Value(1))));
        Outcome(usize::from(unanimous))
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.players(), "input length must equal n");
        let ones: Vec<usize> = seq
            .chunks(self.width)
            .map(|block| block.iter().map(|&v| one(v) as usize).sum())
            .collect();
        Box::new(Tribes {
            width: self.width,
            seq: seq.to_vec(),
            full: ones.iter().filter(|&&c| c == self.width).count(),
            ones,
        })
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        match (target.0, value) {
            (0, 1) => 1,
            _ => -1,
        }
    }

    fn name(&self) -> &str {
        "tribes"
    }
}

/// [`TribesGame`]'s tracker: the visible 1s in each tribe and the number
/// of full (unanimous) tribes, both O(1) per edit.
struct Tribes {
    width: usize,
    seq: Vec<Visible>,
    ones: Vec<usize>,
    full: usize,
}

impl Tracker for Tribes {
    fn outcome(&self) -> Outcome {
        Outcome(usize::from(self.full > 0))
    }

    fn set(&mut self, i: usize, v: Visible) {
        let (was, is) = (one(self.seq[i]), one(v));
        self.seq[i] = v;
        let count = &mut self.ones[i / self.width];
        if was > is {
            self.full -= usize::from(*count == self.width);
            *count -= 1;
        } else if is > was {
            *count += 1;
            self.full += usize::from(*count == self.width);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn one_unanimous_tribe_suffices() {
        let g = TribesGame::new(3, 2);
        assert_eq!(g.outcome(&all_visible(&[0, 0, 1, 1, 0, 0])).0, 1);
        assert_eq!(g.outcome(&all_visible(&[0, 1, 1, 0, 0, 1])).0, 0);
    }

    #[test]
    fn hiding_one_member_kills_a_tribe() {
        let g = TribesGame::new(2, 2);
        let values = [1, 1, 1, 1];
        assert_eq!(g.outcome(&all_visible(&values)).0, 1);
        // One hide per tribe forces 0.
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 2])).0, 0);
        // One hide in only one tribe leaves the other unanimous.
        assert_eq!(g.outcome(&with_hidden(&values, &[0])).0, 1);
    }

    #[test]
    fn hiding_cannot_force_one() {
        let g = TribesGame::new(2, 2);
        let values = [1, 0, 0, 1];
        for mask in 0u32..16 {
            let hide: Vec<usize> = (0..4).filter(|i| (mask >> i) & 1 == 1).collect();
            assert_eq!(g.outcome(&with_hidden(&values, &hide)).0, 0);
        }
    }
}
