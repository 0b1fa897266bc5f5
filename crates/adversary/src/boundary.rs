//! The boundary attack: Lemma 4.2's arithmetic, weaponised.
//!
//! Lemma 4.2 proves Agreement from a numeric margin: a process stops with
//! `v` only after seeing evidence past the decide line **and** observing
//! that at most `stability·N/20` processes died recently — which forces
//! every other process's view past the propose line for `v`. The attack
//! below constructs exactly the execution the proof excludes, on either
//! side:
//!
//! 1. **Round 1** — engineer a *witness* whose view crosses the decide
//!    line while everyone else's view stays in the coin band, using a few
//!    mid-send kills with witness-only (or everyone-but-witness) delivery;
//! 2. **Round 2** — do nothing: if the round-1 kills fit inside the
//!    stability margin, the witness **stops**;
//! 3. **Round 3** — silently erase the witness's side of the vote; the
//!    survivors converge to the other value — Agreement is violated.
//!
//! With the paper's constants the plan is **infeasible** on both sides:
//! step 1 needs `≥ (decide − propose)·n/20` kills while step 2 tolerates
//! only `stability·n/20`, and the gaps equal the margin exactly. Narrow
//! either gap below the margin
//! ([`Thresholds::respects_lemma_4_2`] false) and the attack succeeds.
//! Experiment E10 reports both columns.

use synran_core::{StageKind, SynRanProcess, Thresholds};
use synran_sim::{Adversary, Bit, Intervention, ProcessId, World};

/// The Lemma 4.2 boundary attack for SynRan-family protocols.
///
/// For the attack's preconditions, start the system with
/// [`BoundaryAttack::ideal_ones`] processes holding input 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryAttack {
    target: Bit,
}

impl BoundaryAttack {
    /// The attack on the decide-**1** margin (`decide_one − propose_one`).
    #[must_use]
    pub fn new() -> BoundaryAttack {
        BoundaryAttack { target: Bit::One }
    }

    /// The attack on the chosen side's margin: the witness is made to
    /// decide `target` early while the survivors are steered to the
    /// opposite value.
    #[must_use]
    pub fn targeting(target: Bit) -> BoundaryAttack {
        BoundaryAttack { target }
    }

    /// The number of 1-inputs that sets up this attack:
    ///
    /// * targeting 1 — just above the decide-1 line
    ///   (`⌊decide_one·n/20⌋ + 1`), so the witness can decide while a few
    ///   kills push everyone else into the coin band;
    /// * targeting 0 — inside the coin band, so a few *hidden* 1-votes
    ///   drop the witness's view below the decide-0 line while everyone
    ///   else keeps coin-flipping.
    #[must_use]
    pub fn ideal_ones(n: usize, thresholds: Thresholds, target: Bit) -> usize {
        match target {
            Bit::One => (thresholds.decide_one() as usize * n / 20 + 1).min(n),
            Bit::Zero => {
                // The bottom of the coin band: the fewest 1-votes the
                // witness must lose, so the round-1 kills still fit the
                // stability margin.
                thresholds.propose_zero() as usize * n / 20
            }
        }
    }

    fn round_one(&self, world: &World<SynRanProcess>, ones: &[ProcessId]) -> Intervention {
        let n = world.n();
        let budget = world.budget().remaining();
        let Some(&sample) = world.alive_ids().collect::<Vec<_>>().first() else {
            return Intervention::none();
        };
        let th = world.process(sample).thresholds();
        match self.target {
            Bit::One => {
                // Witness sees everything; others lose k1 one-votes.
                let Some(&witness) = ones.first() else {
                    return Intervention::none();
                };
                let coin_band_top = th.propose_one() as usize * n / 20;
                let k1 = ones.len().saturating_sub(coin_band_top);
                if k1 == 0 || k1 > budget || k1 + 1 >= ones.len() {
                    return Intervention::none();
                }
                Intervention::kill_all_to(ones.iter().rev().take(k1).copied(), vec![witness])
            }
            Bit::Zero => {
                // Witness loses k1 one-votes; everyone else sees them.
                let witness = match world
                    .alive_ids()
                    .find(|&pid| world.process(pid).preference() == Bit::Zero)
                {
                    Some(w) => w,
                    None => return Intervention::none(),
                };
                // Largest witness view still below the decide-0 line:
                // 20·o < decide_zero·n.
                let max_witness_ones = (th.decide_zero() as usize * n).saturating_sub(1) / 20;
                let k1 = ones.len().saturating_sub(max_witness_ones);
                if k1 == 0 || k1 > budget || k1 >= ones.len() {
                    return Intervention::none();
                }
                let everyone_else: Vec<ProcessId> =
                    world.alive_ids().filter(|&p| p != witness).collect();
                let victims = ones.iter().rev().take(k1).copied();
                Intervention::kill_all_to(victims.filter(|&v| v != witness), everyone_else)
            }
        }
    }
}

impl Default for BoundaryAttack {
    fn default() -> BoundaryAttack {
        BoundaryAttack::new()
    }
}

impl Adversary<SynRanProcess> for BoundaryAttack {
    fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
        let budget = world.budget().remaining();
        if budget == 0 || world.alive_count() <= 1 {
            return Intervention::none();
        }
        let ones: Vec<ProcessId> = world
            .alive_ids()
            .filter(|&pid| {
                let p = world.process(pid);
                p.stage() == StageKind::Probabilistic && p.preference() == Bit::One
            })
            .collect();

        match world.round().index() {
            1 => self.round_one(world, &ones),
            2 => Intervention::none(), // quiet: let the witness's stability check pass
            3 => {
                // Erase the witness's side; survivors drift the other way.
                let side: Vec<ProcessId> = match self.target {
                    Bit::One => ones,
                    Bit::Zero => world
                        .alive_ids()
                        .filter(|&pid| {
                            let p = world.process(pid);
                            p.stage() == StageKind::Probabilistic && p.preference() == Bit::Zero
                        })
                        .collect(),
                };
                let spare_alive = world.alive_count().saturating_sub(1);
                let k = side.len().min(budget).min(spare_alive);
                if k == 0 {
                    return Intervention::none();
                }
                Intervention::kill_all_silent(side[..k].iter().copied())
            }
            _ => Intervention::none(),
        }
    }

    fn name(&self) -> &str {
        match self.target {
            Bit::One => "boundary-1",
            Bit::Zero => "boundary-0",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_core::{check_consensus, SynRan};
    use synran_sim::{SimConfig, SimRng};

    fn attack_runs(
        thresholds: Thresholds,
        target: Bit,
        n: usize,
        runs: u64,
        base_seed: u64,
    ) -> usize {
        let protocol = SynRan::with_thresholds(thresholds);
        let ones = BoundaryAttack::ideal_ones(n, thresholds, target);
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < ones)).collect();
        let mut violations = 0;
        for r in 0..runs {
            let seed = SimRng::new(base_seed).derive(r).next_u64();
            let verdict = check_consensus(
                &protocol,
                &inputs,
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                &mut BoundaryAttack::targeting(target),
            )
            .unwrap();
            if !verdict.is_correct() {
                assert!(
                    verdict.violations().iter().any(|v| v.contains("agreement")),
                    "expected an agreement violation, got {:?}",
                    verdict.violations()
                );
                violations += 1;
            }
        }
        violations
    }

    #[test]
    fn paper_thresholds_resist_both_sides() {
        assert!(Thresholds::paper().respects_lemma_4_2());
        for target in Bit::BOTH {
            let violations = attack_runs(Thresholds::paper(), target, 40, 30, 1);
            assert_eq!(
                violations, 0,
                "Lemma 4.2's margin must make the {target}-side attack infeasible"
            );
        }
    }

    #[test]
    fn narrowed_one_gap_breaks_agreement() {
        // decide_one − propose_one = 1 < stability = 2.
        let narrowed = Thresholds::new(13, 12, 10, 8, 2);
        assert!(!narrowed.respects_lemma_4_2());
        let violations = attack_runs(narrowed, Bit::One, 40, 30, 2);
        assert!(violations > 0, "the 1-side boundary attack should succeed");
    }

    #[test]
    fn narrowed_zero_gap_breaks_agreement() {
        // propose_zero − decide_zero = 1 < stability = 2.
        let narrowed = Thresholds::new(14, 12, 10, 9, 2);
        assert!(!narrowed.respects_lemma_4_2());
        let violations = attack_runs(narrowed, Bit::Zero, 40, 30, 3);
        assert!(violations > 0, "the 0-side boundary attack should succeed");
    }

    #[test]
    fn ideal_ones_sits_just_above_the_decide_line() {
        let th = Thresholds::paper();
        let n = 40;
        let ones = BoundaryAttack::ideal_ones(n, th, Bit::One);
        assert_eq!(ones, 29); // ⌊14·40/20⌋ + 1
        assert!(20 * ones > th.decide_one() as usize * n);
        assert!(20 * (ones - 1) <= th.decide_one() as usize * n);
        // The 0-side setup sits mid coin band.
        let zeros_setup = BoundaryAttack::ideal_ones(n, th, Bit::Zero);
        assert_eq!(zeros_setup, 20); // 10·40/20: the coin band bottom
    }
}
