//! The stalling attack on SynRan: keep the vote in the coin band.
//!
//! This adversary realises the cost accounting of the paper's Lemma 4.6 /
//! Theorem 2 from the attacker's side. SynRan processes propose by
//! comparing the count of 1-messages `O^r` against the *previous* round's
//! message count `N^{r−1}`:
//!
//! * `O > 6·N/10` — everyone drifts to 1;
//! * `O < 5·N/10` — everyone drifts to 0;
//! * in between (the **coin band**) — everyone flips a fair coin, and the
//!   execution stays undecided.
//!
//! Being fail-stop, the adversary can only *remove* 1-votes (kill their
//! senders before delivery). So each round it:
//!
//! 1. **Trims**: if `O` is above the band, kills just enough 1-preferrers
//!    to land inside — typical cost `Θ(√p)` per round, the binomial
//!    fluctuation of `p` coin flips;
//! 2. **Splits**: if `O` fell *below* the band (a 0-heavy coin round), the
//!    only rescue is to kill **every** 0-preferrer and deliver their dying
//!    messages to only half the survivors: that half still sees zeros and
//!    proposes 0, the other half sees none and proposes 1 (the one-sided
//!    rule `Z = 0 → 1`), restoring the split — cost `≈ p/2`, the expensive
//!    branch Lemma 4.6 charges;
//! 3. gives up (lets the protocol converge) when the budget or the
//!    per-round cap cannot pay.
//!
//! Against the **symmetric** variant the split move is worthless (with no
//! `Z = 0 → 1` rule the starved half proposes 0 anyway); the adversary
//! detects the variant — it has full information — and saves its budget.

use synran_core::{CoinRule, StageKind, SynRanProcess};
use synran_sim::{Adversary, Bit, BitPlane, Intervention, ProcessId, World};

/// The coin-band stalling adversary for SynRan-family protocols.
///
/// # Examples
///
/// ```
/// use synran_adversary::Balancer;
/// use synran_core::{check_consensus, SynRan};
/// use synran_sim::{Bit, SimConfig};
///
/// let n = 20;
/// let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
/// let verdict = check_consensus(
///     &SynRan::new(),
///     &inputs,
///     SimConfig::new(n).faults(n / 2).seed(3).max_rounds(10_000),
///     &mut Balancer::unbounded(),
/// )?;
/// // Safety survives the strongest stalling attack; only latency suffers.
/// assert!(verdict.is_correct());
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Balancer {
    per_round_cap: Option<usize>,
}

impl Balancer {
    /// A balancer limited to `cap` kills per round (the paper's lower
    /// bound budgets `4√(n·log n) + 1`).
    #[must_use]
    pub fn with_cap(cap: usize) -> Balancer {
        Balancer {
            per_round_cap: Some(cap),
        }
    }

    /// A balancer limited only by the engine-enforced total budget.
    #[must_use]
    pub fn unbounded() -> Balancer {
        Balancer {
            per_round_cap: None,
        }
    }

    fn cap(&self, world: &World<SynRanProcess>) -> usize {
        let hard = world
            .budget()
            .remaining()
            .min(world.alive_count().saturating_sub(1));
        match self.per_round_cap {
            Some(c) => c.min(hard),
            None => hard,
        }
    }
}

/// A snapshot of the probabilistic-stage vote, as the adversary sees it
/// between phases. Preferences are kept as bit-plane masks over process
/// indices so the kill moves below are mask algebra plus set-bit walks
/// rather than `Vec` scans.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VoteView {
    ones: BitPlane,
    zeros: BitPlane,
    /// The coin band `[lo, hi]` of admissible 1-counts, intersected over
    /// all alive receivers' bases `N^{r−1}`.
    lo: usize,
    hi: usize,
    rule: CoinRule,
}

fn observe(world: &World<SynRanProcess>) -> Option<VoteView> {
    let n = world.config().n();
    let mut ones = BitPlane::new(n);
    let mut zeros = BitPlane::new(n);
    let mut lo = 0usize;
    let mut hi = usize::MAX;
    let mut rule = None;
    for pid in world.alive_ids() {
        let p = world.process(pid);
        rule.get_or_insert(p.rule());
        match p.stage() {
            StageKind::Probabilistic | StageKind::Delay => match p.preference() {
                Bit::One => ones.set(pid.index()),
                Bit::Zero => zeros.set(pid.index()),
            },
            // A process already flooding is out of the adversary's game.
            StageKind::Deterministic => return None,
        }
        // Receiver pid keeps coin-flipping iff 5·base ≤ 10·O' ≤ 6·base.
        let base = p.last_n();
        lo = lo.max(base.div_ceil(2));
        hi = hi.min(base * 6 / 10);
    }
    if ones.is_empty() && zeros.is_empty() {
        return None;
    }
    Some(VoteView {
        ones,
        zeros,
        lo,
        hi,
        rule: rule.expect("some process observed"),
    })
}

impl Adversary<SynRanProcess> for Balancer {
    fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
        let Some(view) = observe(world) else {
            return Intervention::none();
        };
        let cap = self.cap(world);
        if cap == 0 || view.lo > view.hi {
            return Intervention::none();
        }
        let o = view.ones.count_ones();

        if o > view.hi {
            // Trim: remove 1-votes down into the band. Useless against the
            // one-sided rule when no zero remains visible (Z = 0 proposes 1
            // regardless), so don't waste budget there.
            if view.rule == CoinRule::OneSided && view.zeros.is_empty() {
                return Intervention::none();
            }
            let excess = o - view.hi;
            if excess > cap {
                // Partial trimming cannot reach the band, and overshooting
                // is impossible (we only remove). Spend nothing.
                return Intervention::none();
            }
            return Intervention::kill_all_silent(view.ones.ids().take(excess));
        }

        if o < view.lo {
            // 0-heavy round. Only the split move stalls the one-sided
            // protocol: kill every 0-preferrer, deliver their last
            // messages to half the survivors only.
            if view.rule != CoinRule::OneSided {
                return Intervention::none();
            }
            let z = view.zeros.count_ones();
            if z == 0 || z > cap {
                return Intervention::none();
            }
            // Survivors = alive ∧ ¬zeros, one and-not over the planes.
            let mut survivors = world.alive_mask().clone();
            survivors.subtract(&view.zeros);
            if survivors.count_ones() < 2 {
                return Intervention::none();
            }
            // Group B (every other survivor) keeps seeing the zeros: one
            // receiver set shared by every victim.
            let group_b: Vec<ProcessId> = survivors.ids().step_by(2).collect();
            return Intervention::kill_all_to(view.zeros.ids(), group_b);
        }

        // Already in the band: every receiver coin-flips for free.
        Intervention::none()
    }

    fn name(&self) -> &str {
        "balancer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_core::{check_consensus, run_batch, InputAssignment, SynRan};
    use synran_sim::{Passive, SimConfig};

    #[test]
    fn stalls_longer_than_passive() {
        let n = 32;
        let cfg = SimConfig::new(n).faults(n - 1).max_rounds(50_000);
        let passive = run_batch(
            &SynRan::new(),
            InputAssignment::even_split(n),
            &cfg,
            15,
            1,
            |_| Passive,
        )
        .unwrap();
        let attacked = run_batch(
            &SynRan::new(),
            InputAssignment::even_split(n),
            &cfg,
            15,
            1,
            |_| Balancer::unbounded(),
        )
        .unwrap();
        assert!(passive.all_correct());
        assert!(attacked.all_correct(), "{:?}", attacked.incorrect());
        assert!(
            attacked.mean_rounds() > passive.mean_rounds(),
            "balancer ({}) should beat passive ({})",
            attacked.mean_rounds(),
            passive.mean_rounds()
        );
    }

    #[test]
    fn safety_holds_under_attack() {
        for seed in 0..15 {
            let n = 24;
            let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
            let verdict = check_consensus(
                &SynRan::new(),
                &inputs,
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                &mut Balancer::unbounded(),
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "seed {seed}: {:?}",
                verdict.violations()
            );
        }
    }

    #[test]
    fn capped_balancer_respects_cap() {
        let n = 24;
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
        let verdict = check_consensus(
            &SynRan::new(),
            &inputs,
            SimConfig::new(n).faults(n - 1).seed(9).max_rounds(50_000),
            &mut Balancer::with_cap(3),
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert!(verdict
            .report()
            .kills_per_round()
            .iter()
            .all(|&(_, k)| k <= 3));
    }

    #[test]
    fn saves_budget_against_symmetric_variant_zero_heavy_rounds() {
        // The split move must never fire against the symmetric variant —
        // verify by checking safety and that runs still complete.
        let n = 24;
        let outcome = run_batch(
            &SynRan::symmetric(),
            InputAssignment::even_split(n),
            &SimConfig::new(n).faults(n - 1).max_rounds(50_000),
            10,
            4,
            |_| Balancer::unbounded(),
        )
        .unwrap();
        assert!(outcome.all_correct(), "{:?}", outcome.incorrect());
    }

    #[test]
    fn symmetric_variant_loses_validity_one_sided_does_not() {
        // The paper's reason for the `Z = 0 → 1` rule, demonstrated: with
        // all inputs 1 and a large budget, trimming 1-senders drops the
        // survivors' counts into the coin band. The symmetric variant then
        // coin-flips and sometimes decides 0 — a Validity violation. The
        // one-sided variant proposes 1 whenever no 0 is visible and is
        // immune.
        let n = 32;
        let runs = 20;
        let sym = run_batch(
            &SynRan::symmetric(),
            InputAssignment::Unanimous(Bit::One),
            &SimConfig::new(n).faults(n - 1).max_rounds(50_000),
            runs,
            77,
            |_| Balancer::unbounded(),
        )
        .unwrap();
        assert!(
            !sym.incorrect().is_empty(),
            "expected validity violations from the symmetric variant"
        );
        assert!(sym
            .incorrect()
            .iter()
            .all(|(_, v)| v.iter().any(|m| m.contains("validity"))));

        let one_sided = run_batch(
            &SynRan::new(),
            InputAssignment::Unanimous(Bit::One),
            &SimConfig::new(n).faults(n - 1).max_rounds(50_000),
            runs,
            77,
            |_| Balancer::unbounded(),
        )
        .unwrap();
        assert!(
            one_sided.all_correct(),
            "one-sided variant must keep validity: {:?}",
            one_sided.incorrect()
        );
    }

    #[test]
    fn unanimous_population_is_absorbing_under_balancer() {
        // Lemma 4.1 from the attack side: once everyone prefers 1, the
        // one-sided rule makes trimming pointless and the balancer stops
        // spending; the run ends quickly.
        let n = 16;
        let verdict = check_consensus(
            &SynRan::new(),
            &vec![Bit::One; n],
            SimConfig::new(n).faults(n - 1).seed(2).max_rounds(1_000),
            &mut Balancer::unbounded(),
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert_eq!(verdict.report().unanimous_decision(), Some(Bit::One));
        assert_eq!(verdict.report().failed_count(), 0);
    }
}
