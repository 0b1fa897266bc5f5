//! Adversaries for one-round games: hide-set searchers.
//!
//! An adaptive fail-stop adversary sees the drawn inputs and picks a set
//! `s` of at most `t` coordinates to hide, aiming for `f(y_s̄) = v`. This
//! module provides three searchers:
//!
//! * [`ExhaustiveHider`] — exact: enumerates hide-sets of size ≤ t
//!   depth-first in lexicographic order, so it either finds a forcing set,
//!   **proves** none exists, or gives up at its evaluation cap. A returned
//!   set is verified and has size ≤ t, but is not necessarily minimum.
//! * [`GreedyHider`] — scalable: hides players in the order the game's
//!   [`hide_preference`](crate::CoinGame::hide_preference) suggests,
//!   checking the outcome after each hide. Sound (never claims a forcing
//!   set that doesn't work) but incomplete.
//! * [`CombinedHider`] — greedy first, falling back to exhaustive within a
//!   budget: the default for the control experiments.

use crate::game::{all_visible, CoinGame, Outcome, Value, Visible};

/// The verdict of a hide-set search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A hide-set of size ≤ t forcing the target; the set is returned.
    Forced(Vec<usize>),
    /// Proven: **no** hide-set of size ≤ t forces the target.
    Impossible,
    /// The search gave up without a proof either way.
    Unknown,
}

impl SearchOutcome {
    /// `true` if a forcing set was found.
    #[must_use]
    pub fn is_forced(&self) -> bool {
        matches!(self, SearchOutcome::Forced(_))
    }

    /// The forcing set, if one was found.
    #[must_use]
    pub fn forcing_set(&self) -> Option<&[usize]> {
        match self {
            SearchOutcome::Forced(s) => Some(s),
            _ => None,
        }
    }
}

/// A strategy for finding hide-sets that force an outcome.
pub trait HideSearch {
    /// Searches for `s`, `|s| ≤ t`, with `f(values_s̄) = target`.
    ///
    /// Implementations must verify a found set before returning it;
    /// [`SearchOutcome::Forced`] is a guarantee, not a guess.
    fn force<G: CoinGame + ?Sized>(
        &self,
        game: &G,
        values: &[Value],
        t: usize,
        target: Outcome,
    ) -> SearchOutcome;
}

/// Exact search over all hide-sets of size at most `t`, depth-first in
/// lexicographic order (the empty set first).
///
/// A returned set is verified and has size ≤ `t`, but is not necessarily
/// minimum: the first forcing set the depth-first order reaches wins.
///
/// # Examples
///
/// ```
/// use synran_coin::{ExhaustiveHider, HideSearch, MajorityGame, Outcome, SearchOutcome};
///
/// let game = MajorityGame::new(5);
/// let searcher = ExhaustiveHider::default();
/// // 3-2 majority for 1; hiding one 1 forces 0...
/// assert!(searcher.force(&game, &[1, 1, 1, 0, 0], 1, Outcome(0)).is_forced());
/// // ...but no hide-set can force 1 from a 2-3 minority.
/// assert_eq!(
///     searcher.force(&game, &[1, 1, 0, 0, 0], 5, Outcome(1)),
///     SearchOutcome::Impossible
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExhaustiveHider {
    max_evals: u64,
}

impl ExhaustiveHider {
    /// Creates a searcher that evaluates at most `max_evals` hide-sets
    /// before giving up with [`SearchOutcome::Unknown`].
    #[must_use]
    pub fn with_budget(max_evals: u64) -> ExhaustiveHider {
        ExhaustiveHider { max_evals }
    }
}

impl Default for ExhaustiveHider {
    /// A budget of 2²⁰ evaluations — instant for the small-n exact
    /// experiments, far beyond what interactive tests need.
    fn default() -> ExhaustiveHider {
        ExhaustiveHider::with_budget(1 << 20)
    }
}

impl HideSearch for ExhaustiveHider {
    fn force<G: CoinGame + ?Sized>(
        &self,
        game: &G,
        values: &[Value],
        t: usize,
        target: Outcome,
    ) -> SearchOutcome {
        let n = values.len();
        let t = t.min(n);
        let mut seq = all_visible(values);
        let mut evals: u64 = 0;

        // Depth-first over subsets in lexicographic order, bounded depth;
        // the empty set is checked first so "already forced" is free.
        #[allow(clippy::too_many_arguments)]
        fn dfs<G: CoinGame + ?Sized>(
            game: &G,
            seq: &mut Vec<Visible>,
            values: &[Value],
            start: usize,
            depth_left: usize,
            target: Outcome,
            evals: &mut u64,
            cap: u64,
        ) -> Option<Option<Vec<usize>>> {
            // Returns Some(Some(set)) on success, Some(None) if this branch
            // is exhausted, None if the eval budget ran out.
            *evals += 1;
            if *evals > cap {
                return None;
            }
            if game.outcome(seq) == target {
                let set = seq
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.is_hidden().then_some(i))
                    .collect();
                return Some(Some(set));
            }
            if depth_left == 0 {
                return Some(None);
            }
            for i in start..values.len() {
                seq[i] = Visible::Hidden;
                let r = dfs(game, seq, values, i + 1, depth_left - 1, target, evals, cap);
                seq[i] = Visible::Value(values[i]);
                match r {
                    Some(Some(set)) => return Some(Some(set)),
                    Some(None) => {}
                    None => return None,
                }
            }
            Some(None)
        }

        match dfs(
            game,
            &mut seq,
            values,
            0,
            t,
            target,
            &mut evals,
            self.max_evals,
        ) {
            Some(Some(set)) => {
                debug_assert_eq!(
                    game.outcome(&crate::game::with_hidden(values, &set)),
                    target
                );
                SearchOutcome::Forced(set)
            }
            Some(None) => SearchOutcome::Impossible,
            None => SearchOutcome::Unknown,
        }
    }
}

/// Greedy hill-climbing guided by the game's hide preferences.
///
/// Hides candidates in descending preference (ties broken by index),
/// skipping players the game marks as useless (negative preference), and
/// stops as soon as the target outcome appears. Linear in `n` evaluations.
///
/// # Examples
///
/// ```
/// use synran_coin::{GreedyHider, HideSearch, OneSidedGame, Outcome};
///
/// let game = OneSidedGame::new(6);
/// // Force 1 by hiding both zeros.
/// let result = GreedyHider.force(&game, &[1, 0, 1, 1, 0, 1], 2, Outcome(1));
/// assert_eq!(result.forcing_set(), Some(&[1, 4][..]));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GreedyHider;

impl HideSearch for GreedyHider {
    fn force<G: CoinGame + ?Sized>(
        &self,
        game: &G,
        values: &[Value],
        t: usize,
        target: Outcome,
    ) -> SearchOutcome {
        let mut seq = all_visible(values);
        if game.outcome(&seq) == target {
            return SearchOutcome::Forced(Vec::new());
        }
        let mut candidates: Vec<(i32, usize)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (game.hide_preference(v, target), i))
            .filter(|&(pref, _)| pref >= 0)
            .collect();
        // Highest preference first; stable on index for determinism.
        candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut hide = Vec::new();
        for (_, i) in candidates {
            if hide.len() >= t {
                break;
            }
            seq[i] = Visible::Hidden;
            hide.push(i);
            if game.outcome(&seq) == target {
                return SearchOutcome::Forced(hide);
            }
        }
        SearchOutcome::Unknown
    }
}

/// Greedy first, then exhaustive within an evaluation budget.
///
/// This is the searcher the control experiments (E1) use: cheap on the
/// cases preference-guided hiding solves, exact on the rest up to the
/// budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CombinedHider {
    exhaustive: ExhaustiveHider,
}

impl CombinedHider {
    /// Creates a combined searcher whose exhaustive fallback evaluates at
    /// most `max_evals` hide-sets.
    #[must_use]
    pub fn with_budget(max_evals: u64) -> CombinedHider {
        CombinedHider {
            exhaustive: ExhaustiveHider::with_budget(max_evals),
        }
    }
}

impl HideSearch for CombinedHider {
    fn force<G: CoinGame + ?Sized>(
        &self,
        game: &G,
        values: &[Value],
        t: usize,
        target: Outcome,
    ) -> SearchOutcome {
        match GreedyHider.force(game, values, t, target) {
            SearchOutcome::Forced(set) => SearchOutcome::Forced(set),
            _ => self.exhaustive.force(game, values, t, target),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::with_hidden;
    use crate::games::{
        DictatorGame, MajorityGame, ModKGame, OneSidedGame, ParityGame, TribesGame,
    };
    use synran_sim::SimRng;

    #[test]
    fn exhaustive_finds_verified_sets_within_budget() {
        let g = MajorityGame::new(7);
        // 5 ones leading: the first set depth-first order reaches is {0, 1},
        // which happens to be minimum.
        let values = [1, 1, 1, 1, 1, 0, 0];
        match ExhaustiveHider::default().force(&g, &values, 7, Outcome(0)) {
            SearchOutcome::Forced(set) => assert_eq!(set.len(), 2),
            other => panic!("expected forced, got {other:?}"),
        }
        // 0s leading: depth-first order hides them before reaching a 1, so
        // it returns {0, 1, 2, 3} although {2, 3} suffices. The set still
        // forces 0 and fits the budget; minimality is not promised.
        let values = [0, 0, 1, 1, 1, 1, 1];
        match ExhaustiveHider::default().force(&g, &values, 7, Outcome(0)) {
            SearchOutcome::Forced(set) => {
                assert!(set.len() <= 7);
                assert_eq!(g.outcome(&with_hidden(&values, &set)), Outcome(0));
            }
            other => panic!("expected forced, got {other:?}"),
        }
    }

    #[test]
    fn exhaustive_proves_impossibility() {
        let g = MajorityGame::new(5);
        let r = ExhaustiveHider::default().force(&g, &[0, 0, 0, 1, 1], 5, Outcome(1));
        assert_eq!(r, SearchOutcome::Impossible);
    }

    #[test]
    fn exhaustive_respects_budget() {
        let g = MajorityGame::new(20);
        let values = [0u32; 20];
        // A 2-evaluation budget cannot even finish size-1 subsets.
        let r = ExhaustiveHider::with_budget(2).force(&g, &values, 20, Outcome(1));
        assert_eq!(r, SearchOutcome::Unknown);
    }

    #[test]
    fn empty_hide_set_when_already_forced() {
        let g = MajorityGame::new(3);
        let r = ExhaustiveHider::default().force(&g, &[1, 1, 1], 0, Outcome(1));
        assert_eq!(r, SearchOutcome::Forced(vec![]));
        let r = GreedyHider.force(&g, &[1, 1, 1], 0, Outcome(1));
        assert_eq!(r, SearchOutcome::Forced(vec![]));
    }

    #[test]
    fn greedy_forces_majority_to_zero() {
        let g = MajorityGame::new(9);
        let values = [1, 1, 1, 1, 1, 1, 0, 0, 0];
        match GreedyHider.force(&g, &values, 3, Outcome(0)) {
            SearchOutcome::Forced(set) => {
                assert!(set.len() <= 3);
                assert_eq!(g.outcome(&with_hidden(&values, &set)), Outcome(0));
            }
            other => panic!("expected forced, got {other:?}"),
        }
    }

    #[test]
    fn greedy_never_forces_majority_to_one() {
        let g = MajorityGame::new(5);
        let r = GreedyHider.force(&g, &[0, 0, 0, 1, 1], 5, Outcome(1));
        assert_eq!(r, SearchOutcome::Unknown);
    }

    #[test]
    fn greedy_flips_parity_with_one_hide() {
        let g = ParityGame::new(6);
        let values = [1, 0, 1, 1, 0, 0];
        let base = g.outcome(&crate::game::all_visible(&values));
        let target = Outcome(1 - base.0);
        match GreedyHider.force(&g, &values, 1, target) {
            SearchOutcome::Forced(set) => assert_eq!(set.len(), 1),
            other => panic!("expected forced, got {other:?}"),
        }
    }

    #[test]
    fn greedy_handles_dictator() {
        let g = DictatorGame::new(4);
        let r = GreedyHider.force(&g, &[1, 1, 0, 0], 1, Outcome(0));
        assert_eq!(r, SearchOutcome::Forced(vec![0]));
    }

    #[test]
    fn greedy_handles_tribes_with_slack_budget() {
        // Greedy hides 1s in index order, wasting budget inside one tribe:
        // with the optimal budget of 2 it fails (expected incompleteness)...
        let g = TribesGame::new(2, 3);
        let values = [1, 1, 1, 1, 1, 1];
        assert_eq!(
            GreedyHider.force(&g, &values, 2, Outcome(0)),
            SearchOutcome::Unknown
        );
        // ...with slack it succeeds,
        match GreedyHider.force(&g, &values, 4, Outcome(0)) {
            SearchOutcome::Forced(set) => {
                assert_eq!(g.outcome(&with_hidden(&values, &set)), Outcome(0));
            }
            other => panic!("expected forced, got {other:?}"),
        }
        // ...and the exhaustive fallback finds the optimal 2-hide set.
        match CombinedHider::default().force(&g, &values, 2, Outcome(0)) {
            SearchOutcome::Forced(set) => assert_eq!(set.len(), 2),
            other => panic!("expected forced, got {other:?}"),
        }
    }

    #[test]
    fn combined_falls_back_to_exhaustive() {
        // Mod-k steering needs the exact searcher when greedy's value
        // ordering misses the residue.
        let g = ModKGame::new(6, 4);
        let values = [3, 3, 2, 1, 0, 0]; // sum 9 ≡ 1 (mod 4)
        let searcher = CombinedHider::default();
        for target in 0..4 {
            let r = searcher.force(&g, &values, 3, Outcome(target));
            match r {
                SearchOutcome::Forced(set) => {
                    assert_eq!(g.outcome(&with_hidden(&values, &set)), Outcome(target));
                }
                other => panic!("target {target} should be forcible, got {other:?}"),
            }
        }
    }

    #[test]
    fn searchers_agree_on_random_small_instances() {
        // Greedy claiming Forced must always be confirmed by exhaustive.
        let mut rng = SimRng::new(77);
        let g = MajorityGame::new(9);
        for _ in 0..200 {
            let values: Vec<u32> = (0..9).map(|_| rng.bit().as_u8().into()).collect();
            for target in 0..2 {
                let greedy = GreedyHider.force(&g, &values, 2, Outcome(target));
                let exact = ExhaustiveHider::default().force(&g, &values, 2, Outcome(target));
                if greedy.is_forced() {
                    assert!(exact.is_forced(), "greedy found a set exhaustive missed?!");
                }
                if exact == SearchOutcome::Impossible {
                    assert!(!greedy.is_forced());
                }
            }
        }
    }

    #[test]
    fn one_sided_game_asymmetry_is_visible_to_searchers() {
        let g = OneSidedGame::new(8);
        let values = [1, 1, 1, 1, 1, 1, 1, 1];
        // Force 0 from all-ones: impossible, and exhaustive proves it.
        let r = ExhaustiveHider::default().force(&g, &values, 8, Outcome(0));
        assert_eq!(r, SearchOutcome::Impossible);
    }
}
