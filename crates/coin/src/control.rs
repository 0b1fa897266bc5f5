//! Control over one-round games: the machinery of Lemma 2.1 / Corollary 2.2.
//!
//! The paper defines `U^v` as the set of input vectors from which no
//! `t`-adversary can force outcome `v`, and proves that for
//! `t > k·4·√(n·log n)` **some** outcome `v` has `Pr(U^v) < 1/n` — i.e. the
//! adversary *controls* the game toward `v` (Corollary 2.2). This module
//! estimates `Pr(U^v)` empirically: sample input vectors, run a hide-set
//! search per outcome, and tally.

use crate::adversary::{HideSearch, SearchOutcome};
use crate::game::{sample_inputs, CoinGame, Outcome, Visible};
use synran_sim::SimRng;

/// The paper's `h = 4·√(n·log n)` — the per-outcome bias radius of
/// Lemma 2.1 (natural log; the paper's constant is asymptotic, so the
/// base only shifts it).
///
/// # Examples
///
/// ```
/// let h = synran_coin::bias_radius(100);
/// assert!((h - 4.0 * (100.0f64 * 100.0f64.ln()).sqrt()).abs() < 1e-9);
/// ```
#[must_use]
pub fn bias_radius(n: usize) -> f64 {
    let nf = n as f64;
    4.0 * (nf * nf.max(2.0).ln()).sqrt()
}

/// The failure budget above which Lemma 2.1 guarantees control of a
/// `k`-outcome game: `k · 4·√(n·log n)`.
#[must_use]
pub fn control_threshold(n: usize, k: usize) -> f64 {
    k as f64 * bias_radius(n)
}

/// Empirical estimate of per-outcome forcibility for one `(game, t)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlEstimate {
    samples: usize,
    forced: Vec<usize>,
    proven_impossible: Vec<usize>,
}

impl ControlEstimate {
    /// Number of sampled input vectors.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Fraction of samples where the searcher forced outcome `v` — an
    /// empirical lower bound on `1 − Pr(U^v)` (exact when the searcher is
    /// exhaustive and within budget).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an outcome of the game.
    #[must_use]
    pub fn forcible_fraction(&self, v: Outcome) -> f64 {
        self.forced[v.0] as f64 / self.samples as f64
    }

    /// Fraction of samples where forcing `v` was *proven* impossible — an
    /// empirical lower bound on `Pr(U^v)`.
    #[must_use]
    pub fn impossible_fraction(&self, v: Outcome) -> f64 {
        self.proven_impossible[v.0] as f64 / self.samples as f64
    }

    /// The outcome with the highest forcible fraction, with its fraction.
    #[must_use]
    pub fn best_outcome(&self) -> (Outcome, f64) {
        let (v, &count) = self
            .forced
            .iter()
            .enumerate()
            .max_by_key(|&(_, c)| *c)
            .expect("games have at least one outcome");
        (Outcome(v), count as f64 / self.samples as f64)
    }

    /// Corollary 2.2's verdict: the controlled outcome, if some outcome is
    /// forcible in at least `threshold` of the samples.
    ///
    /// For the paper's statement use `threshold = 1 − 1/n`.
    #[must_use]
    pub fn controlled_outcome(&self, threshold: f64) -> Option<Outcome> {
        let (v, frac) = self.best_outcome();
        (frac >= threshold).then_some(v)
    }

    /// Per-outcome forcible fractions in outcome order.
    #[must_use]
    pub fn forcible_fractions(&self) -> Vec<f64> {
        (0..self.forced.len())
            .map(|v| self.forcible_fraction(Outcome(v)))
            .collect()
    }
}

/// Samples `samples` input vectors for `game` and, for every outcome,
/// searches for a hide-set of size ≤ `t` forcing it.
///
/// # Panics
///
/// Panics if `samples` is zero.
///
/// # Examples
///
/// ```
/// use synran_coin::{estimate_control, CombinedHider, MajorityGame, Outcome};
/// use synran_sim::SimRng;
///
/// let game = MajorityGame::new(25);
/// let est = estimate_control(&game, &CombinedHider::default(), 13, 50, &mut SimRng::new(1));
/// // With t = n/2 hides, majority-0 is forcible to 0 from any input.
/// assert_eq!(est.forcible_fraction(Outcome(0)), 1.0);
/// ```
#[must_use]
pub fn estimate_control<G: CoinGame + ?Sized, S: HideSearch>(
    game: &G,
    searcher: &S,
    t: usize,
    samples: usize,
    rng: &mut SimRng,
) -> ControlEstimate {
    assert!(samples > 0, "need at least one sample");
    let k = game.outcomes();
    let mut forced = vec![0usize; k];
    let mut proven_impossible = vec![0usize; k];
    for _ in 0..samples {
        let values = sample_inputs(game, rng);
        for v in 0..k {
            match searcher.force(game, &values, t, Outcome(v)) {
                SearchOutcome::Forced(_) => forced[v] += 1,
                SearchOutcome::Impossible => proven_impossible[v] += 1,
                SearchOutcome::Unknown => {}
            }
        }
    }
    ControlEstimate {
        samples,
        forced,
        proven_impossible,
    }
}

/// Computes `Pr(U^v)` **exactly** for a binary-fair-input game — the
/// paper's `U^v` with no sampling error.
///
/// `U^v` is the set of input vectors from which *no* hide-set of size ≤ t
/// forces outcome `v`; Lemma 2.1 asserts some `v` has `Pr(U^v) < 1/n` once
/// `t > k·4√(n·log n)`.
///
/// One depth-first pass over the coordinates fixes each to `0`, `1` or
/// hidden (`—`), stopping at hidden once `t` hides are spent. Each node
/// returns, for every assignment of the coordinates still open, the
/// fewest further hides that make `f = v` (saturated at `t + 1`); a node
/// combines its children as `min(child_c, 1 + child_—)`, and each leaf
/// evaluates `f` once. An input is in `U^v` iff its entry at the root
/// exceeds `t`. That is `Σ_{h ≤ t} C(n, h)·2^{n−h}` evaluations of `f`
/// (`3^n` once `t ≥ n`) and `2^{n+1}` bytes of buffers, whatever `v` is.
///
/// # Panics
///
/// Panics if `n > 20` (enumeration cost) or the game's input distribution
/// is not the fair coin (checked by sampling: any sampled input outside
/// `{0, 1}` trips the assertion — games with richer domains need the
/// Monte-Carlo estimator instead).
///
/// # Examples
///
/// ```
/// use synran_coin::{exact_uncontrollable, MajorityGame, Outcome};
///
/// // Hiding a player counts it as 0, so hides can only lower the tally of
/// // 1s: outcome 1 is forcible exactly from the inputs that already have a
/// // 1-majority. The other half of the cube (16 of the 32 vectors) is U^1.
/// let p = exact_uncontrollable(&MajorityGame::new(5), 2, Outcome(1));
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
#[must_use]
pub fn exact_uncontrollable<G: CoinGame + ?Sized>(game: &G, t: usize, v: Outcome) -> f64 {
    let n = game.players();
    assert!(n <= 20, "exact enumeration needs n ≤ 20 (got {n})");
    {
        // Fair-coin check: sample a few inputs and insist they are bits.
        let mut rng = SimRng::new(0x0b17);
        for _ in 0..64 {
            for p in 0..n {
                assert!(
                    game.sample_input(p, &mut rng) <= 1,
                    "exact_uncontrollable requires binary inputs"
                );
            }
        }
    }
    let t = t.min(n);
    let mut seq = vec![Visible::Hidden; n];
    let mut buf = vec![0u8; 2 << n];
    let (hides, scratch) = buf.split_at_mut(1 << n);
    let cap = t as u8 + 1; // t ≤ n ≤ 20
    min_hides(game, &mut seq, 0, t, v, cap, hides, scratch);
    let uncontrollable = hides.iter().filter(|&&h| usize::from(h) > t).count() as u64;
    uncontrollable as f64 / (1u64 << n) as f64
}

/// One node of [`exact_uncontrollable`]'s pass: `seq[..d]` is fixed and
/// `budget` hides are left. Fills `out[c·half + r]` — coordinate `d` set to
/// `c`, the rest of `d+1..n` to the bits of `r` — with the fewest further
/// hides forcing `target`. Entries `≤ budget` are exact; larger ones only
/// say "not within budget" and never exceed `cap`. `scratch` must hold
/// `out.len() − 1` bytes for the hidden children below.
#[allow(clippy::too_many_arguments)]
fn min_hides<G: CoinGame + ?Sized>(
    game: &G,
    seq: &mut [Visible],
    d: usize,
    budget: usize,
    target: Outcome,
    cap: u8,
    out: &mut [u8],
    scratch: &mut [u8],
) {
    if d == seq.len() {
        out[0] = if game.outcome(seq) == target { 0 } else { cap };
        return;
    }
    let half = out.len() / 2;
    let (zero, one) = out.split_at_mut(half);
    seq[d] = Visible::Value(0);
    min_hides(game, seq, d + 1, budget, target, cap, zero, scratch);
    seq[d] = Visible::Value(1);
    min_hides(game, seq, d + 1, budget, target, cap, one, scratch);
    if budget == 0 {
        return;
    }
    let (hidden, rest) = scratch.split_at_mut(half);
    seq[d] = Visible::Hidden;
    min_hides(game, seq, d + 1, budget - 1, target, cap, hidden, rest);
    for side in out.chunks_exact_mut(half) {
        for (slot, &h) in side.iter_mut().zip(hidden.iter()) {
            *slot = (*slot).min(h + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{CombinedHider, ExhaustiveHider, GreedyHider};
    use crate::games::{MajorityGame, OneSidedGame, ParityGame};

    #[test]
    fn bias_radius_monotone_in_n() {
        let mut prev = 0.0;
        for n in [4usize, 16, 64, 256, 1024] {
            let h = bias_radius(n);
            assert!(h > prev, "h({n}) = {h} not increasing");
            prev = h;
        }
    }

    #[test]
    fn control_threshold_scales_with_k() {
        let n = 100;
        assert!((control_threshold(n, 3) - 3.0 * bias_radius(n)).abs() < 1e-9);
    }

    #[test]
    fn parity_is_controlled_both_ways_with_one_hide() {
        let g = ParityGame::new(11);
        let mut rng = SimRng::new(5);
        let est = estimate_control(&g, &GreedyHider, 1, 300, &mut rng);
        // Either outcome is forcible unless all coins landed 0 (2^-11).
        assert!(est.forcible_fraction(Outcome(0)) > 0.95);
        assert!(est.forcible_fraction(Outcome(1)) > 0.95);
        assert!(est.controlled_outcome(1.0 - 1.0 / 11.0).is_some());
    }

    #[test]
    fn majority_controlled_to_zero_only() {
        let g = MajorityGame::new(15);
        let mut rng = SimRng::new(6);
        let est = estimate_control(&g, &ExhaustiveHider::default(), 4, 100, &mut rng);
        // Hiding up to 4 of 15 can almost always erase a majority of 1s...
        assert!(est.forcible_fraction(Outcome(0)) > 0.9);
        // ...but 1 is forcible only when already true (≈ half the time).
        assert!(est.forcible_fraction(Outcome(1)) < 0.8);
        assert!(est.impossible_fraction(Outcome(1)) > 0.2);
        assert_eq!(est.best_outcome().0, Outcome(0));
    }

    #[test]
    fn one_sided_controlled_to_zero() {
        // With no hides allowed, outcome 0 already holds w.p. 1 − 2^-n.
        let g = OneSidedGame::new(12);
        let mut rng = SimRng::new(7);
        let est = estimate_control(&g, &GreedyHider, 0, 200, &mut rng);
        assert!(est.forcible_fraction(Outcome(0)) > 0.99);
        assert_eq!(est.controlled_outcome(1.0 - 1.0 / 12.0), Some(Outcome(0)));
    }

    #[test]
    fn fractions_sum_constraints() {
        let g = MajorityGame::new(9);
        let mut rng = SimRng::new(8);
        let est = estimate_control(&g, &CombinedHider::default(), 2, 50, &mut rng);
        for v in 0..2 {
            let f = est.forcible_fraction(Outcome(v));
            let i = est.impossible_fraction(Outcome(v));
            assert!((0.0..=1.0).contains(&f));
            assert!((0.0..=1.0).contains(&i));
            // Exhaustive-backed searches decide every sample.
            assert!((f + i - 1.0).abs() < 1e-9, "f = {f}, i = {i}");
        }
        assert_eq!(est.samples(), 50);
        assert_eq!(est.forcible_fractions().len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_rejected() {
        let g = MajorityGame::new(3);
        let mut rng = SimRng::new(0);
        let _ = estimate_control(&g, &GreedyHider, 1, 0, &mut rng);
    }

    #[test]
    fn exact_uncontrollable_known_values() {
        // Parity with t ≥ 1: only the all-zeros input resists forcing
        // either outcome (no 1 to hide): Pr(U^v) = 2^-n for the opposite
        // of what all-zeros yields, 0 for outcome 0 itself.
        let g = ParityGame::new(6);
        let p1 = exact_uncontrollable(&g, 1, Outcome(1));
        assert!((p1 - 1.0 / 64.0).abs() < 1e-12, "p1 = {p1}");
        let p0 = exact_uncontrollable(&g, 1, Outcome(0));
        assert_eq!(p0, 0.0, "all-zeros already evaluates to 0");

        // Majority of 5, unlimited hides: U^0 is empty (hide every 1),
        // U^1 is exactly the inputs with a 0-majority.
        let g = MajorityGame::new(5);
        assert_eq!(exact_uncontrollable(&g, 5, Outcome(0)), 0.0);
        assert!((exact_uncontrollable(&g, 5, Outcome(1)) - 0.5).abs() < 1e-12);

        // One-sided: U^1 = nothing (hide all zeros), U^0 = the all-ones
        // point only.
        let g = OneSidedGame::new(5);
        assert_eq!(exact_uncontrollable(&g, 5, Outcome(1)), 0.0);
        assert!((exact_uncontrollable(&g, 5, Outcome(0)) - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn exact_uncontrollable_decreases_with_budget() {
        let g = MajorityGame::new(7);
        let mut prev = 1.0;
        for t in 0..=7 {
            let p = exact_uncontrollable(&g, t, Outcome(0));
            assert!(p <= prev + 1e-12, "t={t}: {p} > {prev}");
            prev = p;
        }
        assert_eq!(prev, 0.0, "unlimited hides force 0 from anywhere");
    }

    #[test]
    fn monte_carlo_matches_exact_enumeration() {
        // The estimator's impossible_fraction is the sampled version of
        // exact_uncontrollable; they must agree within sampling noise.
        let g = MajorityGame::new(9);
        let t = 2;
        let exact = exact_uncontrollable(&g, t, Outcome(1));
        let mut rng = SimRng::new(21);
        let est = estimate_control(&g, &ExhaustiveHider::default(), t, 2_000, &mut rng);
        let sampled = est.impossible_fraction(Outcome(1));
        assert!(
            (sampled - exact).abs() < 0.04,
            "sampled {sampled} vs exact {exact}"
        );
    }

    /// The per-input definition of `Pr(U^v)`: run the exact subset search
    /// from each of the `2^n` inputs and count the proven impossibilities.
    fn per_input_oracle<G: CoinGame + ?Sized>(game: &G, t: usize, v: Outcome) -> f64 {
        let n = game.players();
        let searcher = ExhaustiveHider::with_budget(u64::MAX);
        let mut impossible = 0u64;
        for point in 0..1u64 << n {
            let values: Vec<u32> = (0..n).map(|i| ((point >> i) & 1) as u32).collect();
            match searcher.force(game, &values, t, v) {
                SearchOutcome::Forced(_) => {}
                SearchOutcome::Impossible => impossible += 1,
                SearchOutcome::Unknown => unreachable!("unbounded search cannot give up"),
            }
        }
        impossible as f64 / (1u64 << n) as f64
    }

    fn assert_matches_oracle<G: CoinGame + ?Sized>(game: &G, name: &str) {
        let n = game.players();
        for t in 0..=n + 1 {
            for v in 0..2 {
                let pass = exact_uncontrollable(game, t, Outcome(v));
                let oracle = per_input_oracle(game, t, Outcome(v));
                assert_eq!(
                    pass.to_bits(),
                    oracle.to_bits(),
                    "{name} n={n} t={t} v={v}: pass {pass} vs oracle {oracle}"
                );
            }
        }
    }

    #[test]
    fn exact_uncontrollable_matches_per_input_search() {
        use crate::games::{DictatorGame, RecursiveMajorityGame, ThresholdGame, TribesGame};
        assert_matches_oracle(&MajorityGame::new(7), "majority");
        assert_matches_oracle(&MajorityGame::new(8), "majority");
        assert_matches_oracle(&ParityGame::new(7), "parity");
        assert_matches_oracle(&OneSidedGame::new(7), "one-sided");
        assert_matches_oracle(&DictatorGame::new(6), "dictator");
        assert_matches_oracle(&TribesGame::new(3, 3), "tribes");
        assert_matches_oracle(&ThresholdGame::new(8, 3), "threshold");
        assert_matches_oracle(&RecursiveMajorityGame::new(2), "recursive-majority");
    }

    #[test]
    fn exact_uncontrollable_single_player() {
        // n = 1: f is the lone input. Hiding it turns it into a 0, so 0 is
        // forcible from input 1 once t ≥ 1, while 1 is never forcible from 0.
        let g = MajorityGame::new(1);
        assert_matches_oracle(&g, "majority");
        assert_eq!(exact_uncontrollable(&g, 0, Outcome(0)), 0.5);
        assert_eq!(exact_uncontrollable(&g, 1, Outcome(0)), 0.0);
        assert_eq!(exact_uncontrollable(&g, 1, Outcome(1)), 0.5);
    }

    #[test]
    #[should_panic(expected = "binary inputs")]
    fn exact_uncontrollable_rejects_rich_domains() {
        let g = crate::games::ModKGame::new(4, 3);
        let _ = exact_uncontrollable(&g, 1, Outcome(0));
    }
}
