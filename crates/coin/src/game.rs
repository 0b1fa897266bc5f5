//! The one-round collective coin-flipping game abstraction.
//!
//! A game (paper §2) has `n` participants, each drawing one input from its
//! own distribution. After seeing **all** inputs, an adaptive `t`-adversary
//! may hide up to `t` of them — replacing their value with the default `—`
//! — and the outcome function `f` is applied to the resulting sequence.

use std::fmt;

use synran_sim::SimRng;

/// A player's input value. Games interpret values freely; binary games use
/// `0` and `1`.
pub type Value = u32;

/// The index of a game outcome, in `0..k`.
///
/// Binary games use outcome `0` and `1`; the consensus reduction in §3.3
/// uses three outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Outcome(pub usize);

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "outcome {}", self.0)
    }
}

/// A player's input as the outcome function sees it: the drawn value, or
/// the paper's default value `—` if the adversary hid it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visible {
    /// The original input survived.
    Value(Value),
    /// The adversary hid this input (the paper's `—`).
    Hidden,
}

impl Visible {
    /// The value, if it is visible.
    #[must_use]
    pub fn value(self) -> Option<Value> {
        match self {
            Visible::Value(v) => Some(v),
            Visible::Hidden => None,
        }
    }

    /// `true` if the adversary hid this input.
    #[must_use]
    pub fn is_hidden(self) -> bool {
        matches!(self, Visible::Hidden)
    }
}

impl From<Value> for Visible {
    fn from(v: Value) -> Visible {
        Visible::Value(v)
    }
}

impl fmt::Display for Visible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Visible::Value(v) => write!(f, "{v}"),
            Visible::Hidden => write!(f, "—"),
        }
    }
}

/// An incremental evaluator of one game's outcome function: a visible
/// sequence held in a summary that single-coordinate edits update in place.
///
/// The hide-set searchers, the exact `Pr(U^v)` pass and the influence
/// computations edit one coordinate at a time, so each re-evaluation costs
/// what the game's tracker charges per edit instead of a full pass over
/// the sequence.
///
/// # Contract
///
/// * After any sequence of [`set`](Tracker::set) calls, [`outcome`](Tracker::outcome)
///   equals [`CoinGame::outcome`] of the edited sequence.
/// * [`key`](Tracker::key), when `Some`, summarises the state: two trackers
///   of one game with equal keys, whose sequences agree on every
///   coordinate still to be edited, report equal outcomes after the same
///   further edits.
///
/// # Examples
///
/// ```
/// use synran_coin::{all_visible, CoinGame, MajorityGame, Visible};
///
/// let game = MajorityGame::new(3);
/// let mut tracker = game.tracker(&all_visible(&[1, 1, 0]));
/// assert_eq!(tracker.outcome().0, 1);
/// tracker.set(0, Visible::Hidden);
/// assert_eq!(tracker.outcome().0, 0);
/// ```
pub trait Tracker {
    /// The outcome of the current sequence.
    fn outcome(&self) -> Outcome;

    /// Replaces coordinate `i` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a player of the game.
    fn set(&mut self, i: usize, v: Visible);

    /// A summary of the state (see the contract above), or `None` if the
    /// game has no compact one. The default is `None`.
    fn key(&self) -> Option<u64> {
        None
    }
}

/// The default [`Tracker`]: a copy of the sequence, re-evaluated in full
/// by [`CoinGame::outcome`] on every query.
struct Rescan<'a, G: ?Sized> {
    game: &'a G,
    seq: Vec<Visible>,
}

impl<G: CoinGame + ?Sized> Tracker for Rescan<'_, G> {
    fn outcome(&self) -> Outcome {
        self.game.outcome(&self.seq)
    }

    fn set(&mut self, i: usize, v: Visible) {
        self.seq[i] = v;
    }
}

/// A one-round collective coin-flipping game: input distributions plus the
/// outcome function `f`.
///
/// Implementations must be pure: [`CoinGame::outcome`] may not depend on
/// anything but the visible sequence, and the game's
/// [`tracker`](CoinGame::tracker) must agree with `outcome` after every
/// edit. The adversary machinery (the [`HideSearch`](crate::HideSearch)
/// searchers, [`estimate_control`](crate::estimate_control) and
/// [`exact_uncontrollable`](crate::exact_uncontrollable)) evaluates `f`
/// under candidate hide-sets through the tracker.
///
/// # Examples
///
/// ```
/// use synran_coin::{CoinGame, MajorityGame, Visible};
///
/// let game = MajorityGame::new(5);
/// assert_eq!(game.players(), 5);
/// assert_eq!(game.outcomes(), 2);
/// let inputs: Vec<Visible> = [1, 1, 1, 0, 0].map(Visible::Value).to_vec();
/// assert_eq!(game.outcome(&inputs).0, 1);
/// ```
pub trait CoinGame {
    /// Number of participants `n`.
    fn players(&self) -> usize;

    /// Number of possible outcomes `k`.
    fn outcomes(&self) -> usize;

    /// Draws player `player`'s input from its distribution.
    ///
    /// The default distribution is a fair coin (`0` or `1`), which is the
    /// extremal case the paper analyses; games over richer domains
    /// override this.
    fn sample_input(&self, player: usize, rng: &mut SimRng) -> Value {
        let _ = player;
        rng.bit().as_u8().into()
    }

    /// The outcome function `f` applied to a visible sequence.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `inputs.len() != self.players()`.
    fn outcome(&self, inputs: &[Visible]) -> Outcome;

    /// An incremental evaluator of [`outcome`](CoinGame::outcome), started
    /// at `seq`.
    ///
    /// The default re-evaluates `outcome` on a copy of the sequence, which
    /// costs O(n) per query; games override it with an O(1) or O(depth)
    /// per-edit summary.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `seq.len() != self.players()`.
    fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
        Box::new(Rescan {
            game: self,
            seq: seq.to_vec(),
        })
    }

    /// How much the adversary should prefer hiding a player holding
    /// `value` when trying to force `target`. Larger is hidden first; a
    /// negative preference means never hide.
    ///
    /// This steers the scalable greedy adversary in
    /// [`crate::adversary::GreedyHider`]. It must be a pure function of
    /// `(value, target)`: a search asks it once per distinct value in the
    /// input vector, not once per player, and ranks every player holding
    /// that value by the one answer. Games where hiding priority is not a
    /// function of the value alone can leave the default (no preference),
    /// at the cost of a weaker greedy adversary.
    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        let _ = (value, target);
        0
    }

    /// Short name used in experiment tables.
    fn name(&self) -> &str;
}

/// Draws a full input vector for `game`.
///
/// # Examples
///
/// ```
/// use synran_coin::{sample_inputs, MajorityGame};
/// use synran_sim::SimRng;
///
/// let game = MajorityGame::new(9);
/// let inputs = sample_inputs(&game, &mut SimRng::new(1));
/// assert_eq!(inputs.len(), 9);
/// ```
#[must_use]
pub fn sample_inputs<G: CoinGame + ?Sized>(game: &G, rng: &mut SimRng) -> Vec<Value> {
    (0..game.players())
        .map(|p| game.sample_input(p, rng))
        .collect()
}

/// Converts raw values to a fully-visible sequence.
#[must_use]
pub fn all_visible(values: &[Value]) -> Vec<Visible> {
    values.iter().copied().map(Visible::Value).collect()
}

/// Applies a hide-set: the paper's `y_s̄`, replacing the inputs at the
/// coordinates in `hide` with `—`.
///
/// # Panics
///
/// Panics if any index in `hide` is out of range.
#[must_use]
pub fn with_hidden(values: &[Value], hide: &[usize]) -> Vec<Visible> {
    let mut seq = all_visible(values);
    for &i in hide {
        seq[i] = Visible::Hidden;
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visible_accessors() {
        assert_eq!(Visible::Value(3).value(), Some(3));
        assert_eq!(Visible::Hidden.value(), None);
        assert!(Visible::Hidden.is_hidden());
        assert!(!Visible::Value(0).is_hidden());
        assert_eq!(Visible::from(7u32), Visible::Value(7));
    }

    #[test]
    fn display_uses_em_dash_for_hidden() {
        assert_eq!(Visible::Hidden.to_string(), "—");
        assert_eq!(Visible::Value(4).to_string(), "4");
        assert_eq!(Outcome(2).to_string(), "outcome 2");
    }

    #[test]
    fn with_hidden_masks_exactly_requested() {
        let values = [0, 1, 1, 0, 1];
        let seq = with_hidden(&values, &[1, 3]);
        assert_eq!(seq[0], Visible::Value(0));
        assert!(seq[1].is_hidden());
        assert_eq!(seq[2], Visible::Value(1));
        assert!(seq[3].is_hidden());
        assert_eq!(seq[4], Visible::Value(1));
    }

    #[test]
    fn with_hidden_empty_hides_nothing() {
        let values = [1, 0];
        assert_eq!(with_hidden(&values, &[]), all_visible(&values));
    }
}
