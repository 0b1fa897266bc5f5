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
//!
//! Both searchers edit one coordinate at a time through the game's
//! [`Tracker`](crate::Tracker), so a hide costs the tracker's per-edit
//! price, not a re-evaluation of `f` over all `n` inputs.

use crate::game::{all_visible, CoinGame, Outcome, Tracker, Value, Visible};

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
        let t = t.min(values.len());
        let mut tracker = game.tracker(&all_visible(values));
        let mut hidden = Vec::with_capacity(t);
        let mut evals: u64 = 0;

        // Depth-first over subsets in lexicographic order, bounded depth;
        // the empty set is checked first so "already forced" is free.
        // `hidden` is the current set, in increasing order.
        #[allow(clippy::too_many_arguments)]
        fn dfs(
            tracker: &mut dyn Tracker,
            hidden: &mut Vec<usize>,
            values: &[Value],
            start: usize,
            depth_left: usize,
            target: Outcome,
            evals: &mut u64,
            cap: u64,
        ) -> Option<bool> {
            // Returns Some(true) on success (with the set left in
            // `hidden`), Some(false) if this branch is exhausted, None if
            // the eval budget ran out.
            *evals += 1;
            if *evals > cap {
                return None;
            }
            if tracker.outcome() == target {
                return Some(true);
            }
            if depth_left == 0 {
                return Some(false);
            }
            for i in start..values.len() {
                tracker.set(i, Visible::Hidden);
                hidden.push(i);
                let r = dfs(
                    tracker,
                    hidden,
                    values,
                    i + 1,
                    depth_left - 1,
                    target,
                    evals,
                    cap,
                );
                if r != Some(false) {
                    return r;
                }
                hidden.pop();
                tracker.set(i, Visible::Value(values[i]));
            }
            Some(false)
        }

        match dfs(
            tracker.as_mut(),
            &mut hidden,
            values,
            0,
            t,
            target,
            &mut evals,
            self.max_evals,
        ) {
            Some(true) => {
                debug_assert_eq!(
                    game.outcome(&crate::game::with_hidden(values, &hidden)),
                    target
                );
                SearchOutcome::Forced(hidden)
            }
            Some(false) => SearchOutcome::Impossible,
            None => SearchOutcome::Unknown,
        }
    }
}

/// Greedy hill-climbing guided by the game's hide preferences.
///
/// Hides candidates in descending preference (ties broken by index),
/// skipping players the game marks as useless (negative preference), and
/// stops as soon as the target outcome appears or the budget is spent.
///
/// A preference depends on the value alone, so the search asks the game
/// once per distinct value and then walks the players one preference
/// level at a time, highest first, in index order. No candidate list is
/// built or sorted: past one O(n) ranking pass it touches only the
/// players up to its last hide, and makes one tracker edit per hide
/// (O(1) for the tally games, O(depth) for recursive majority).
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
        let mut tracker = game.tracker(&all_visible(values));
        if tracker.outcome() == target {
            return SearchOutcome::Forced(Vec::new());
        }
        if t == 0 {
            return SearchOutcome::Unknown;
        }
        let ranks = Ranks::new(game, values, target);
        let mut hide = Vec::new();
        for level in ranks.levels() {
            for (i, &v) in values.iter().enumerate() {
                if ranks.of(v) != Some(level) {
                    continue;
                }
                if hide.len() >= t {
                    return SearchOutcome::Unknown;
                }
                tracker.set(i, Visible::Hidden);
                hide.push(i);
                if tracker.outcome() == target {
                    return SearchOutcome::Forced(hide);
                }
            }
        }
        SearchOutcome::Unknown
    }
}

/// Values below this bound keep their preference in a fixed table; the
/// rest go to a sorted list.
const SMALL_VALUES: usize = 16;

/// The hide preference of each distinct value in one input vector, asked
/// of the game once per value.
struct Ranks {
    /// The preference of each small value present, indexed by value.
    small: [Option<i32>; SMALL_VALUES],
    /// `(value, preference)` for the larger values present, sorted by value.
    large: Vec<(Value, i32)>,
}

impl Ranks {
    fn new<G: CoinGame + ?Sized>(game: &G, values: &[Value], target: Outcome) -> Ranks {
        let mut small = [None; SMALL_VALUES];
        let mut large = Vec::new();
        for &v in values {
            match small.get_mut(v as usize) {
                Some(slot) => {
                    slot.get_or_insert_with(|| game.hide_preference(v, target));
                }
                None => large.push(v),
            }
        }
        large.sort_unstable();
        large.dedup();
        let large = large
            .into_iter()
            .map(|v| (v, game.hide_preference(v, target)))
            .collect();
        Ranks { small, large }
    }

    /// The preference of `v`, or `None` if no player holds it.
    fn of(&self, v: Value) -> Option<i32> {
        match self.small.get(v as usize) {
            Some(&pref) => pref,
            None => self
                .large
                .binary_search_by_key(&v, |&(w, _)| w)
                .ok()
                .map(|at| self.large[at].1),
        }
    }

    /// The distinct non-negative preferences present, highest first.
    fn levels(&self) -> Vec<i32> {
        let mut levels: Vec<i32> = self
            .small
            .iter()
            .flatten()
            .copied()
            .chain(self.large.iter().map(|&(_, pref)| pref))
            .filter(|&pref| pref >= 0)
            .collect();
        levels.sort_unstable_by(|a, b| b.cmp(a));
        levels.dedup();
        levels
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
        DictatorGame, MajorityGame, ModKGame, OneSidedGame, ParityGame, RecursiveMajorityGame,
        ThresholdGame, TribesGame,
    };
    use crate::{estimate_control, sample_inputs};
    use std::cell::Cell;
    use synran_sim::SimRng;

    /// The greedy search as it was before the level walk: one preference
    /// call per player, and a sort of every candidate by (preference
    /// descending, index). The level walk must return exactly its verdict.
    struct SortedReference;

    impl HideSearch for SortedReference {
        fn force<G: CoinGame + ?Sized>(
            &self,
            game: &G,
            values: &[Value],
            t: usize,
            target: Outcome,
        ) -> SearchOutcome {
            let mut tracker = game.tracker(&all_visible(values));
            if tracker.outcome() == target {
                return SearchOutcome::Forced(Vec::new());
            }
            let mut candidates: Vec<(i32, usize)> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| (game.hide_preference(v, target), i))
                .filter(|&(pref, _)| pref >= 0)
                .collect();
            candidates.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let mut hide = Vec::new();
            for (_, i) in candidates {
                if hide.len() >= t {
                    break;
                }
                tracker.set(i, Visible::Hidden);
                hide.push(i);
                if tracker.outcome() == target {
                    return SearchOutcome::Forced(hide);
                }
            }
            SearchOutcome::Unknown
        }
    }

    /// Values spanning both lookup paths: the small table (< 16) and the
    /// sorted list, up to and past 2²⁰.
    const LEVEL_VALUES: [Value; 12] = [
        0,
        1,
        2,
        3,
        4,
        9,
        15,
        16,
        23,
        1 << 20,
        (1 << 20) + 7,
        u32::MAX,
    ];

    /// A test game with four preference levels (−1, 0, 1, 2), ties between
    /// different values, and a preference that depends on the target.
    /// The outcome falls from 2 to 0 as players are hidden, so forcing 1
    /// or 0 takes about a third or two thirds of the players: more than
    /// the top level holds.
    struct LevelsGame(usize);

    impl CoinGame for LevelsGame {
        fn players(&self) -> usize {
            self.0
        }

        fn outcomes(&self) -> usize {
            3
        }

        fn sample_input(&self, _player: usize, rng: &mut SimRng) -> Value {
            LEVEL_VALUES[rng.index(LEVEL_VALUES.len())]
        }

        fn outcome(&self, inputs: &[Visible]) -> Outcome {
            let visible = inputs.iter().filter(|v| !v.is_hidden()).count();
            Outcome(visible * 3 / (self.0 + 1))
        }

        fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
            ((value % 5) as i32 + target.0 as i32) % 4 - 1
        }

        fn name(&self) -> &str {
            "levels"
        }
    }

    /// Every committed game at size about `n` (recursive majority at the
    /// power of three nearest it), plus the test-only levels game.
    fn games_near(n: usize) -> Vec<Box<dyn CoinGame>> {
        let width = (1..=n)
            .rev()
            .find(|&w| n.is_multiple_of(w) && w * w <= n)
            .unwrap_or(1);
        let depth = ((n as f64).ln() / 3f64.ln()).round().clamp(1.0, 6.0) as u32;
        vec![
            Box::new(MajorityGame::new(n)),
            Box::new(ThresholdGame::new(n, 1)),
            Box::new(ThresholdGame::new(n, n.div_ceil(2))),
            Box::new(ThresholdGame::new(n, n)),
            Box::new(ParityGame::new(n)),
            Box::new(OneSidedGame::new(n)),
            Box::new(DictatorGame::new(n)),
            Box::new(TribesGame::new(n / width, width)),
            Box::new(RecursiveMajorityGame::new(depth)),
            Box::new(ModKGame::new(n, 3)),
            Box::new(ModKGame::new(n, 20)),
            Box::new(LevelsGame(n)),
        ]
    }

    #[test]
    fn level_walk_matches_the_sorted_reference() {
        let mut rng = SimRng::new(29);
        let mut forced_through_level_zero = 0;
        for n in [1, 2, 63, 64, 65, 257] {
            for game in games_near(n) {
                let game = game.as_ref();
                let n = game.players();
                for _ in 0..4 {
                    let values = sample_inputs(game, &mut rng);
                    for t in [0, 1, n / 2, n, n + 1] {
                        for target in (0..game.outcomes()).map(Outcome) {
                            let walk = GreedyHider.force(game, &values, t, target);
                            let sorted = SortedReference.force(game, &values, t, target);
                            assert_eq!(
                                walk,
                                sorted,
                                "{} n={n} t={t} {target} values={values:?}",
                                game.name()
                            );
                            if let SearchOutcome::Forced(set) = &walk {
                                if set
                                    .iter()
                                    .any(|&i| game.hide_preference(values[i], target) == 0)
                                {
                                    forced_through_level_zero += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        // The walk must have gone down through every level, not only
        // hidden within the top one.
        assert!(forced_through_level_zero > 0);
    }

    /// Counts what a search asks of the game: preference calls and
    /// tracker edits.
    struct Counted<'a> {
        game: &'a dyn CoinGame,
        preferences: Cell<u64>,
        edits: Cell<u64>,
    }

    impl<'a> Counted<'a> {
        fn new(game: &'a dyn CoinGame) -> Counted<'a> {
            Counted {
                game,
                preferences: Cell::new(0),
                edits: Cell::new(0),
            }
        }

        /// `(preference calls, tracker edits)` so far.
        fn counts(&self) -> (u64, u64) {
            (self.preferences.get(), self.edits.get())
        }
    }

    struct CountedTracker<'a> {
        inner: Box<dyn Tracker + 'a>,
        edits: &'a Cell<u64>,
    }

    impl Tracker for CountedTracker<'_> {
        fn outcome(&self) -> Outcome {
            self.inner.outcome()
        }

        fn set(&mut self, i: usize, v: Visible) {
            self.edits.set(self.edits.get() + 1);
            self.inner.set(i, v);
        }
    }

    impl CoinGame for Counted<'_> {
        fn players(&self) -> usize {
            self.game.players()
        }

        fn outcomes(&self) -> usize {
            self.game.outcomes()
        }

        fn sample_input(&self, player: usize, rng: &mut SimRng) -> Value {
            self.game.sample_input(player, rng)
        }

        fn outcome(&self, inputs: &[Visible]) -> Outcome {
            self.game.outcome(inputs)
        }

        fn tracker(&self, seq: &[Visible]) -> Box<dyn Tracker + '_> {
            Box::new(CountedTracker {
                inner: self.game.tracker(seq),
                edits: &self.edits,
            })
        }

        fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
            self.preferences.set(self.preferences.get() + 1);
            self.game.hide_preference(value, target)
        }

        fn name(&self) -> &str {
            self.game.name()
        }
    }

    #[test]
    fn greedy_asks_once_per_distinct_value_and_edits_once_per_hide() {
        let mut rng = SimRng::new(31);
        for n in [1, 2, 63, 64, 65, 257] {
            for game in games_near(n) {
                let n = game.players();
                let values = sample_inputs(game.as_ref(), &mut rng);
                let mut distinct = values.clone();
                distinct.sort_unstable();
                distinct.dedup();
                for t in [0, 1, n / 2, n, n + 1] {
                    for target in (0..game.outcomes()).map(Outcome) {
                        let candidates = values
                            .iter()
                            .filter(|&&v| game.hide_preference(v, target) >= 0)
                            .count();
                        let counted = Counted::new(game.as_ref());
                        GreedyHider.force(&counted, &values, t, target);
                        let (preferences, edits) = counted.counts();
                        let name = game.name();
                        assert!(
                            preferences <= distinct.len() as u64,
                            "{name} n={n} t={t} {target}: {preferences} preference calls"
                        );
                        assert!(
                            edits <= t.min(candidates) as u64,
                            "{name} n={n} t={t} {target}: {edits} edits"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_e1_row_costs_a_fixed_count_of_calls() {
        // One row of E1's binary table: majority at n = 4096, 300 samples,
        // the budget t = h = 4√(n·ln n). Of the 600 searches, the 300 whose
        // target already holds ask nothing; the other 300 ask about the
        // values 0 and 1 once each (a per-player ranking asks 4096 times
        // per search: 1,228,800 calls). The edits are the hides themselves.
        let game = MajorityGame::new(4096);
        let counted = Counted::new(&game);
        let t = crate::bias_radius(4096).round() as usize;
        let mut rng = SimRng::new(1).derive(t as u64);
        let est = estimate_control(&counted, &GreedyHider, t, 300, &mut rng);
        assert_eq!(counted.counts(), (600, 4396));
        // 172 samples open at 1: forcing 0 takes hides, 1 holds already.
        assert_eq!(est.forcible_fractions(), [1.0, 172.0 / 300.0]);
    }

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
