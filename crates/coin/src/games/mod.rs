//! Concrete one-round coin-flipping games.
//!
//! Each game illustrates a different point on the controllability spectrum
//! the paper draws:
//!
//! | game | forcible to 0 | forcible to 1 | role |
//! |---|---|---|---|
//! | [`MajorityGame`] | with ~√n hides | **never** (hides only lower the count) | the paper's example of one-sided bias (§1.1, §2.1) |
//! | [`ThresholdGame`] | with (ones − q + 1) hides | never | generalised quota voting |
//! | [`ParityGame`] | one hide (of a 1) | one hide | maximally fragile game |
//! | [`OneSidedGame`] | never (hides cannot create a 0) | by hiding every 0 | the shape of SynRan's `Z = 0 → 1` coin rule |
//! | [`DictatorGame`] | hide player 0 | never | degenerate single-point game |
//! | [`TribesGame`] | one hide per live tribe | never | AND-of-ORs, small forcing sets |
//! | [`RecursiveMajorityGame`] | two hides per gate on a root path | never | low individual influence, still one-side controllable |
//! | [`ModKGame`] | — | — | `k > 2` outcomes for Lemma 2.1 |

mod dictator;
mod majority;
mod modk;
mod one_sided;
mod parity;
mod recursive_majority;
mod threshold;
mod tribes;

pub use dictator::DictatorGame;
pub use majority::MajorityGame;
pub use modk::ModKGame;
pub use one_sided::OneSidedGame;
pub use parity::ParityGame;
pub use recursive_majority::RecursiveMajorityGame;
pub use threshold::ThresholdGame;
pub use tribes::TribesGame;

use crate::game::{Outcome, Tracker, Visible};

/// Counts visible inputs equal to `1` — hidden inputs count as 0, the
/// paper's "any missing value is counted as 0" convention.
pub(crate) fn visible_ones(inputs: &[Visible]) -> usize {
    inputs
        .iter()
        .filter(|v| matches!(v, Visible::Value(1)))
        .count()
}

/// Counts visible inputs equal to `0` (hidden inputs are *not* zeros here;
/// they are absent).
pub(crate) fn visible_zeros(inputs: &[Visible]) -> usize {
    inputs
        .iter()
        .filter(|v| matches!(v, Visible::Value(0)))
        .count()
}

/// Tally weight of a visible `1`.
pub(crate) fn one(v: Visible) -> u64 {
    u64::from(v == Visible::Value(1))
}

/// Tally weight of a visible `0`.
pub(crate) fn zero(v: Visible) -> u64 {
    u64::from(v == Visible::Value(0))
}

/// The [`Tracker`] of a game whose outcome is a function `decide` of one
/// tally `Σ_i weight(seq[i])`. An edit moves the tally by the difference of
/// two weights, O(1), and the tally is the key: once the coordinates still
/// to be edited agree, the outcome after further edits depends on nothing
/// else.
pub(crate) struct Tally<W, D> {
    seq: Vec<Visible>,
    tally: u64,
    weight: W,
    decide: D,
}

impl<W: Fn(Visible) -> u64, D: Fn(u64) -> Outcome> Tally<W, D> {
    pub(crate) fn new(seq: &[Visible], weight: W, decide: D) -> Tally<W, D> {
        Tally {
            seq: seq.to_vec(),
            tally: seq.iter().map(|&v| weight(v)).sum(),
            weight,
            decide,
        }
    }
}

impl<W: Fn(Visible) -> u64, D: Fn(u64) -> Outcome> Tracker for Tally<W, D> {
    fn outcome(&self) -> Outcome {
        (self.decide)(self.tally)
    }

    fn set(&mut self, i: usize, v: Visible) {
        self.tally = self.tally + (self.weight)(v) - (self.weight)(self.seq[i]);
        self.seq[i] = v;
    }

    fn key(&self) -> Option<u64> {
        Some(self.tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::Visible;

    #[test]
    fn counting_helpers_ignore_hidden() {
        let seq = vec![
            Visible::Value(1),
            Visible::Hidden,
            Visible::Value(0),
            Visible::Value(1),
            Visible::Hidden,
        ];
        assert_eq!(visible_ones(&seq), 2);
        assert_eq!(visible_zeros(&seq), 1);
    }
}
