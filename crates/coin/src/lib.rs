//! # synran-coin — one-round collective coin-flipping games (§2)
//!
//! Part of the [`synran`](https://github.com/synran/synran) reproduction of
//! *Bar-Joseph & Ben-Or, "A Tight Lower Bound for Randomized Synchronous
//! Consensus" (PODC 1998)*.
//!
//! A **one-round collective coin-flipping game** combines `n` independent
//! local random inputs into a global outcome via a function `f`. The
//! adversary studied here is adaptive and fail-stop: it sees *all* drawn
//! inputs, then hides up to `t` of them (the paper's `—` default value)
//! before `f` is applied.
//!
//! The paper's §2 proves (Lemma 2.1 / Corollary 2.2) that for any game
//! with `k < √n` outcomes, an adversary with `t > k·4·√(n·log n)` hides can
//! force **some** particular outcome with probability `> 1 − 1/n` — but not
//! necessarily *every* outcome: 0-default majority can be forced to 0 and
//! never to 1. That asymmetry is exactly what the SynRan protocol's
//! one-side-biased coin rule exploits.
//!
//! ## Quick start
//!
//! ```
//! use synran_coin::{
//!     estimate_control, bias_radius, CombinedHider, MajorityGame, Outcome,
//! };
//! use synran_sim::SimRng;
//!
//! let n = 25;
//! let game = MajorityGame::new(n);
//! let t = bias_radius(n).ceil() as usize; // the paper's h = 4√(n log n)
//! let est = estimate_control(&game, &CombinedHider::default(), t.min(n), 200,
//!                            &mut SimRng::new(7));
//! // Majority-with-default-0 is controlled toward 0 ...
//! assert_eq!(est.best_outcome().0, Outcome(0));
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`CoinGame`], [`Visible`], [`Outcome`] | the game abstraction |
//! | [`Tracker`] | a game's incremental evaluator: O(1) or O(depth) per edit, behind every search |
//! | [`MajorityGame`], [`ParityGame`], [`OneSidedGame`], [`DictatorGame`], [`TribesGame`], [`ThresholdGame`], [`ModKGame`] | concrete games |
//! | [`ExhaustiveHider`], [`GreedyHider`], [`CombinedHider`] | hide-set searchers |
//! | [`exact_influences`], [`estimate_influences`] | Ben-Or–Linial influences (\[BOL89\]'s measure, which fail-stop hiding sidesteps) |
//! | [`estimate_control`], [`bias_radius`], [`control_threshold`] | Lemma 2.1 / Corollary 2.2 machinery |
//! | [`HypercubeSet`], [`schechtman_bound`] | isoperimetric blow-up, exact and closed-form |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod adversary;
mod blowup;
mod control;
mod game;
mod games;
mod influence;

pub use adversary::{CombinedHider, ExhaustiveHider, GreedyHider, HideSearch, SearchOutcome};
pub use blowup::{
    lemma_2_1_blowup_bound, schechtman_bound, schechtman_l0, HypercubeSet, MAX_DIMENSION,
};
pub use control::{
    bias_radius, control_threshold, estimate_control, exact_uncontrollable, ControlEstimate,
};
pub use game::{
    all_visible, sample_inputs, with_hidden, CoinGame, Outcome, Tracker, Value, Visible,
};
pub use games::{
    DictatorGame, MajorityGame, ModKGame, OneSidedGame, ParityGame, RecursiveMajorityGame,
    ThresholdGame, TribesGame,
};
pub use influence::{estimate_influences, exact_influences, InfluenceProfile};
