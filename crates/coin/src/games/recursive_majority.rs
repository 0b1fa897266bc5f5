//! Recursive majority-of-three — the classic low-influence game.

use crate::game::{CoinGame, Outcome, Tracker, Value, Visible};

/// Majority-of-three iterated `depth` times over `n = 3^depth` players,
/// with hidden leaves counting as 0.
///
/// The recursive-majority tree is the textbook example (Ben-Or & Linial's
/// collective-coin-flipping survey, which the paper cites for the coin-flipping background) of a
/// function where every *individual* player has influence `O(n^{−0.37})` —
/// yet a fail-stop adversary still controls it toward 0 cheaply: one
/// hidden leaf per level-1 gate along a root path flips whole subtrees.
/// Like plain majority, it can never be forced *to 1* by hiding.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, RecursiveMajorityGame, all_visible};
///
/// let game = RecursiveMajorityGame::new(2); // 9 players
/// assert_eq!(game.players(), 9);
/// let values = [1, 1, 0, 0, 0, 0, 1, 1, 1];
/// // gates: maj(1,1,0)=1, maj(0,0,0)=0, maj(1,1,1)=1 → maj(1,0,1)=1
/// assert_eq!(game.outcome(&all_visible(&values)).0, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecursiveMajorityGame {
    depth: u32,
}

impl RecursiveMajorityGame {
    /// Creates a depth-`depth` tree over `3^depth` players.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or the tree would exceed `3^12` players.
    #[must_use]
    pub fn new(depth: u32) -> RecursiveMajorityGame {
        assert!(
            (1..=12).contains(&depth),
            "depth must be in 1..=12 (n = 3^depth)"
        );
        RecursiveMajorityGame { depth }
    }

    /// The tree depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth
    }

    fn reduce(bits: &[u8]) -> u8 {
        if bits.len() == 1 {
            return bits[0];
        }
        let next: Vec<u8> = bits
            .chunks(3)
            .map(|g| u8::from(g.iter().map(|&b| usize::from(b)).sum::<usize>() >= 2))
            .collect();
        RecursiveMajorityGame::reduce(&next)
    }
}

impl CoinGame for RecursiveMajorityGame {
    fn players(&self) -> usize {
        3usize.pow(self.depth)
    }

    fn outcomes(&self) -> usize {
        2
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        assert_eq!(inputs.len(), self.players(), "input length must equal n");
        let leaves: Vec<u8> = inputs
            .iter()
            .map(|v| match v {
                Visible::Value(1) => 1,
                // Hidden counts as 0 — the fail-stop default.
                _ => 0,
            })
            .collect();
        Outcome(usize::from(RecursiveMajorityGame::reduce(&leaves)))
    }

    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        assert_eq!(seq.len(), self.players(), "input length must equal n");
        let leaves: Vec<bool> = seq.iter().map(|&v| v == Visible::Value(1)).collect();
        let mut gates: Vec<Vec<u8>> = Vec::with_capacity(self.depth as usize);
        let mut below: Vec<bool> = leaves.clone();
        while below.len() > 1 {
            let counts: Vec<u8> = below
                .chunks(3)
                .map(|g| g.iter().map(|&b| u8::from(b)).sum())
                .collect();
            below = counts.iter().map(|&c| c >= 2).collect();
            gates.push(counts);
        }
        Box::new(RecursiveMajority { leaves, gates })
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        match (target.0, value) {
            (0, 1) => 1,
            _ => -1,
        }
    }

    fn name(&self) -> &str {
        "recursive-majority"
    }
}

/// [`RecursiveMajorityGame`]'s tracker: the leaf bits and, per level, each
/// gate's count of 1-children. An edit walks up from its leaf only while
/// the gate it reaches flips, so it costs O(depth) at most.
struct RecursiveMajority {
    leaves: Vec<bool>,
    /// `gates[l][g]`: the 1-children of gate `g` on level `l + 1`; the last
    /// level is the root.
    gates: Vec<Vec<u8>>,
}

impl Tracker for RecursiveMajority {
    fn outcome(&self) -> Outcome {
        Outcome(usize::from(self.gates[self.gates.len() - 1][0] >= 2))
    }

    fn set(&mut self, i: usize, v: Visible) {
        let bit = v == Visible::Value(1);
        if std::mem::replace(&mut self.leaves[i], bit) == bit {
            return;
        }
        // A gate's output moves the way its child did, so `bit` is the
        // direction all the way up.
        let mut child = i;
        for counts in &mut self.gates {
            child /= 3;
            let count = &mut counts[child];
            let before = *count >= 2;
            if bit {
                *count += 1;
            } else {
                *count -= 1;
            }
            if (*count >= 2) == before {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{ExhaustiveHider, GreedyHider, HideSearch, SearchOutcome};
    use crate::game::{all_visible, with_hidden};

    #[test]
    fn depth_one_is_plain_majority_of_three() {
        let g = RecursiveMajorityGame::new(1);
        assert_eq!(g.players(), 3);
        assert_eq!(g.outcome(&all_visible(&[1, 1, 0])).0, 1);
        assert_eq!(g.outcome(&all_visible(&[1, 0, 0])).0, 0);
    }

    #[test]
    fn hidden_leaves_count_as_zero() {
        let g = RecursiveMajorityGame::new(1);
        let values = [1, 1, 0];
        assert_eq!(g.outcome(&with_hidden(&values, &[0])).0, 0);
    }

    #[test]
    fn two_hides_flip_a_depth_two_tree() {
        // All-ones tree: hiding one leaf in each of two level-1 gates
        // flips those gates, flipping the root.
        let g = RecursiveMajorityGame::new(2);
        let values = [1u32; 9];
        assert_eq!(g.outcome(&all_visible(&values)).0, 1);
        // One hide per gate is not enough (gates still have 2 ones)...
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 3])).0, 1);
        // ...two hides in each of two gates kill both gates.
        assert_eq!(g.outcome(&with_hidden(&values, &[0, 1, 3, 4])).0, 0);
    }

    #[test]
    fn never_forcible_to_one() {
        let g = RecursiveMajorityGame::new(2);
        let values = [0, 1, 0, 1, 0, 0, 1, 0, 1]; // root = 0
        let r = ExhaustiveHider::default().force(&g, &values, 9, crate::Outcome(1));
        assert_eq!(r, SearchOutcome::Impossible);
    }

    #[test]
    fn greedy_forces_zero_with_modest_budget() {
        let g = RecursiveMajorityGame::new(2);
        let values = [1, 1, 0, 1, 0, 1, 0, 1, 1]; // root = 1
        match GreedyHider.force(&g, &values, 6, crate::Outcome(0)) {
            SearchOutcome::Forced(set) => {
                assert_eq!(g.outcome(&with_hidden(&values, &set)).0, 0);
            }
            other => panic!("expected forced, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "depth must be in")]
    fn zero_depth_rejected() {
        let _ = RecursiveMajorityGame::new(0);
    }
}
