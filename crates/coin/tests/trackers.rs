//! Differential tests of the incremental game trackers against full
//! re-evaluation of the outcome function.
//!
//! Every case is drawn from a fixed-seed `SimRng`, so each run checks the
//! same edits and a failure names its game and step.
//!
//! * Each game's tracker agrees with `CoinGame::outcome` after every edit
//!   of a random sequence of values, hides and unhides.
//! * The searchers and the exact `Pr(U^v)` pass return the same answer for
//!   each game and for [`Rescan`], a wrapper that keeps the default tracker
//!   and so evaluates `outcome` in full on every query.
//! * Two edit histories that reach the same key agree under the same
//!   further edits.

use std::ops::Range;
use synran_coin::{
    all_visible, exact_uncontrollable, sample_inputs, CoinGame, DictatorGame, ExhaustiveHider,
    GreedyHider, HideSearch, MajorityGame, ModKGame, OneSidedGame, Outcome, ParityGame,
    RecursiveMajorityGame, ThresholdGame, TribesGame, Value, Visible,
};
use synran_sim::SimRng;

/// Forwards everything but `tracker`: the default tracker re-runs
/// `outcome` on every query, which makes this the oracle.
struct Rescan<'a>(&'a dyn CoinGame);

impl CoinGame for Rescan<'_> {
    fn players(&self) -> usize {
        self.0.players()
    }

    fn outcomes(&self) -> usize {
        self.0.outcomes()
    }

    fn sample_input(&self, player: usize, rng: &mut SimRng) -> Value {
        self.0.sample_input(player, rng)
    }

    fn outcome(&self, inputs: &[Visible]) -> Outcome {
        self.0.outcome(inputs)
    }

    fn hide_preference(&self, value: Value, target: Outcome) -> i32 {
        self.0.hide_preference(value, target)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

/// All eight games, with the edge cases of each: recursive majority at
/// depth 1, tribes of width 1, threshold quotas 1 and n, mod-k at k = 3.
fn games() -> Vec<Box<dyn CoinGame>> {
    vec![
        Box::new(MajorityGame::new(1)),
        Box::new(MajorityGame::new(7)),
        Box::new(MajorityGame::new(8)),
        Box::new(ParityGame::new(7)),
        Box::new(OneSidedGame::new(7)),
        Box::new(DictatorGame::new(1)),
        Box::new(DictatorGame::new(6)),
        Box::new(TribesGame::new(3, 3)),
        Box::new(TribesGame::new(7, 1)),
        Box::new(TribesGame::new(1, 6)),
        Box::new(ThresholdGame::new(8, 1)),
        Box::new(ThresholdGame::new(8, 3)),
        Box::new(ThresholdGame::new(8, 8)),
        Box::new(ModKGame::new(7, 3)),
        Box::new(ModKGame::new(6, 4)),
        Box::new(RecursiveMajorityGame::new(1)),
        Box::new(RecursiveMajorityGame::new(2)),
    ]
}

fn describe(game: &dyn CoinGame) -> String {
    format!("{} n={}", game.name(), game.players())
}

/// `true` if the game's inputs are fair bits (the exact pass needs them).
fn binary(game: &dyn CoinGame) -> bool {
    game.name() != "sum-mod-k"
}

/// A random edit of a coordinate in `coords`: a fresh draw, a hide, or an
/// unhide back to the original input, about a third each.
fn random_edit(
    game: &dyn CoinGame,
    values: &[Value],
    coords: Range<usize>,
    rng: &mut SimRng,
) -> (usize, Visible) {
    let i = coords.start + rng.index(coords.len());
    let v = match rng.below(3) {
        0 => Visible::Value(game.sample_input(i, rng)),
        1 => Visible::Hidden,
        _ => Visible::Value(values[i]),
    };
    (i, v)
}

#[test]
fn trackers_agree_with_outcome_after_every_edit() {
    let mut rng = SimRng::new(0x7ac4);
    for game in games() {
        let game = game.as_ref();
        for _ in 0..20 {
            let values = sample_inputs(game, &mut rng);
            let mut seq = all_visible(&values);
            let mut tracker = game.tracker(&seq);
            assert_eq!(tracker.outcome(), game.outcome(&seq), "{}", describe(game));
            for step in 0..60 {
                let (i, v) = random_edit(game, &values, 0..values.len(), &mut rng);
                seq[i] = v;
                tracker.set(i, v);
                assert_eq!(
                    tracker.outcome(),
                    game.outcome(&seq),
                    "{} step {step}: set({i}, {v}) on {seq:?}",
                    describe(game)
                );
            }
        }
    }
}

#[test]
fn trackers_on_large_games_agree_with_outcome() {
    // The sizes E1 runs, where an O(depth) walk or a tribe count could
    // only go wrong across many levels or many tribes.
    let mut rng = SimRng::new(0x1a2e);
    let large: [Box<dyn CoinGame>; 4] = [
        Box::new(RecursiveMajorityGame::new(7)),
        Box::new(TribesGame::new(170, 6)),
        Box::new(MajorityGame::new(1024)),
        Box::new(ModKGame::new(1000, 3)),
    ];
    for game in &large {
        let game = game.as_ref();
        let values = sample_inputs(game, &mut rng);
        let mut seq = all_visible(&values);
        let mut tracker = game.tracker(&seq);
        for step in 0..3000 {
            let (i, v) = random_edit(game, &values, 0..values.len(), &mut rng);
            seq[i] = v;
            tracker.set(i, v);
            if step % 50 == 0 {
                assert_eq!(tracker.outcome(), game.outcome(&seq), "{}", describe(game));
            }
        }
    }
}

#[test]
fn searchers_match_the_rescan_oracle() {
    let mut rng = SimRng::new(0x5ea7);
    for game in games() {
        let game = game.as_ref();
        let oracle = Rescan(game);
        let n = game.players();
        for _ in 0..15 {
            let values = sample_inputs(game, &mut rng);
            for v in 0..game.outcomes() {
                let target = Outcome(v);
                for t in [0, 1, n / 2, n] {
                    assert_eq!(
                        GreedyHider.force(game, &values, t, target),
                        GreedyHider.force(&oracle, &values, t, target),
                        "greedy {} t={t} v={v} on {values:?}",
                        describe(game)
                    );
                    // Budgets of 1..3 evaluations give up mid-search: the
                    // `Unknown` edge must land on the same evaluation.
                    for budget in [1, 2, 3, 1 << 20] {
                        let searcher = ExhaustiveHider::with_budget(budget);
                        assert_eq!(
                            searcher.force(game, &values, t, target),
                            searcher.force(&oracle, &values, t, target),
                            "exhaustive({budget}) {} t={t} v={v} on {values:?}",
                            describe(game)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exact_pass_matches_the_rescan_oracle_bit_for_bit() {
    for game in games() {
        let game = game.as_ref();
        if !binary(game) {
            continue;
        }
        let n = game.players();
        for t in 0..=n + 1 {
            for v in 0..2 {
                let fast = exact_uncontrollable(game, t, Outcome(v));
                let oracle = exact_uncontrollable(&Rescan(game), t, Outcome(v));
                assert_eq!(
                    fast.to_bits(),
                    oracle.to_bits(),
                    "{} t={t} v={v}: {fast} vs {oracle}",
                    describe(game)
                );
            }
        }
    }
}

#[test]
fn equal_keys_agree_under_equal_further_edits() {
    // Two histories edit only the first `m` coordinates of one starting
    // sequence, so the rest still agree; whenever they reach the same key,
    // the same edits to those remaining coordinates must give the same
    // outcomes.
    let mut rng = SimRng::new(0x4e75);
    for game in games() {
        let game = game.as_ref();
        let n = game.players();
        if n < 2 {
            continue;
        }
        let mut compared = 0;
        for _ in 0..200 {
            let values = sample_inputs(game, &mut rng);
            let start = all_visible(&values);
            let m = 1 + rng.index(n - 1);
            let mut a = game.tracker(&start);
            let mut b = game.tracker(&start);
            for tracker in [&mut a, &mut b] {
                for _ in 0..2 * m {
                    let (i, v) = random_edit(game, &values, 0..m, &mut rng);
                    tracker.set(i, v);
                }
            }
            match (a.key(), b.key()) {
                (Some(ka), Some(kb)) if ka == kb => {}
                _ => continue,
            }
            compared += 1;
            assert_eq!(a.outcome(), b.outcome(), "{} equal keys", describe(game));
            for _ in 0..2 * (n - m) {
                let (i, v) = random_edit(game, &values, m..n, &mut rng);
                a.set(i, v);
                b.set(i, v);
                assert_eq!(
                    a.outcome(),
                    b.outcome(),
                    "{} after set({i}, {v})",
                    describe(game)
                );
            }
        }
        let keyed = game
            .tracker(&all_visible(&sample_inputs(game, &mut rng)))
            .key()
            .is_some();
        assert_eq!(
            compared > 0,
            keyed,
            "{}: {compared} equal-key pairs",
            describe(game)
        );
    }
}
