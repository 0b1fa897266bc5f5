//! The non-adaptive (static) adversary of the paper's §1.2.
//!
//! Theorem 1 needs *adaptivity*: Chor, Merritt & Shmoys [CMS89] reach
//! consensus in `O(1)` expected rounds when the adversary must commit to
//! its failure pattern **before** the execution starts. [`Oblivious`]
//! models exactly that commitment: its entire kill schedule — which
//! process dies in which round, and which of its last messages are
//! delivered — is a pure function of the seed, computed at construction.
//! The `intervene` implementation never reads anything from the world
//! except the round number (and liveness/budget, to stay legal).

use std::sync::Arc;

use synran_sim::{Adversary, DeliveryFilter, Intervention, Process, ProcessId, SimRng, World};

/// One pre-committed kill.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PlannedKill {
    round: u32,
    victim: ProcessId,
    delivered: DeliveryFilter,
}

/// A fail-stop adversary whose complete failure schedule is fixed before
/// the execution begins.
///
/// # Examples
///
/// ```
/// use synran_adversary::Oblivious;
/// use synran_core::{check_consensus, LeaderConsensus};
/// use synran_sim::{Bit, SimConfig};
///
/// let n = 16;
/// let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
/// // Commits to ~2 kills/round over the first 30 rounds, before seeing anything.
/// let mut adversary = Oblivious::new(n, 2, 30, 7);
/// let verdict = check_consensus(
///     &LeaderConsensus::for_faults(7),
///     &inputs,
///     SimConfig::new(n).faults(7).seed(7),
///     &mut adversary,
/// )?;
/// assert!(verdict.is_correct());
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Oblivious {
    schedule: Vec<PlannedKill>,
}

impl Oblivious {
    /// Pre-commits a schedule for a system of `n` processes: up to
    /// `per_round` distinct victims in each of the first `rounds` rounds,
    /// chosen uniformly (with uniformly random all-or-half-or-nothing
    /// delivery of their final messages), derived entirely from `seed`.
    #[must_use]
    pub fn new(n: usize, per_round: usize, rounds: u32, seed: u64) -> Oblivious {
        let mut rng = SimRng::new(seed).derive(0x0B11);
        let mut schedule = Vec::new();
        for round in 1..=rounds {
            let k = per_round.min(n);
            for idx in rng.sample_indices(n, k) {
                let delivered = match rng.below(3) {
                    0 => DeliveryFilter::All,
                    1 => DeliveryFilter::None,
                    _ => {
                        // Half the address space, fixed in advance.
                        let half: Arc<[ProcessId]> = (0..n)
                            .filter(|_| rng.bit().is_one())
                            .map(ProcessId::new)
                            .collect();
                        DeliveryFilter::To(half)
                    }
                };
                schedule.push(PlannedKill {
                    round,
                    victim: ProcessId::new(idx),
                    delivered,
                });
            }
        }
        Oblivious { schedule }
    }

    /// Number of pre-committed kills (before liveness/budget clamping).
    #[must_use]
    pub fn planned_kills(&self) -> usize {
        self.schedule.len()
    }
}

impl<P: Process> Adversary<P> for Oblivious {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        let round = world.round().index();
        let mut iv = Intervention::new();
        let mut planned = 0usize;
        for kill in self.schedule.iter().filter(|k| k.round == round) {
            // The schedule is blind; the engine's rules are not. Skip
            // already-dead victims, keep one process alive, respect the
            // budget — all checks that do not leak execution state into
            // the *choice* of victims.
            if planned + 1 > world.budget().remaining() {
                break;
            }
            if world.alive_count() <= planned + 1 {
                break;
            }
            if !world.status(kill.victim).is_alive() {
                continue;
            }
            if iv.kills().iter().any(|k| k.victim == kill.victim) {
                continue;
            }
            iv = iv.kill(kill.victim, kill.delivered.clone());
            planned += 1;
        }
        iv
    }

    fn name(&self) -> &str {
        "oblivious"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_core::{check_consensus, LeaderConsensus, SynRan};
    use synran_sim::{Bit, SimConfig};

    fn split_inputs(n: usize) -> Vec<Bit> {
        (0..n).map(|i| Bit::from(i % 2 == 0)).collect()
    }

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = Oblivious::new(16, 2, 10, 5);
        let b = Oblivious::new(16, 2, 10, 5);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.planned_kills(), 20);
        let c = Oblivious::new(16, 2, 10, 6);
        assert_ne!(a.schedule, c.schedule);
    }

    #[test]
    fn protocols_stay_correct_under_static_schedules() {
        for seed in 0..10u64 {
            let n = 18;
            let mut adversary = Oblivious::new(n, 2, 40, seed);
            let verdict = check_consensus(
                &SynRan::new(),
                &split_inputs(n),
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                &mut adversary,
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "seed {seed}: {:?}",
                verdict.violations()
            );

            let mut adversary = Oblivious::new(n, 1, 40, seed);
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(n / 2 - 1),
                &split_inputs(n),
                SimConfig::new(n)
                    .faults(n / 2 - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                &mut adversary,
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
    fn leader_protocol_is_fast_against_static_adversaries() {
        // The CMS effect: a pre-committed schedule cannot target the
        // random leader, so LeaderConsensus converges in O(1) expected phases.
        let n = 25;
        let t = 12;
        let mut total = 0u32;
        let runs = 15;
        for seed in 0..runs {
            let mut adversary = Oblivious::new(n, 1, 40, seed);
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(t),
                &split_inputs(n),
                SimConfig::new(n).faults(t).seed(seed).max_rounds(50_000),
                &mut adversary,
            )
            .unwrap();
            assert!(verdict.is_correct());
            total += verdict.rounds();
        }
        let mean = f64::from(total) / f64::from(runs as u32);
        assert!(
            mean < 12.0,
            "LeaderConsensus vs static should be near-constant rounds, got {mean}"
        );
    }

    #[test]
    fn budget_and_liveness_clamps_hold() {
        let n = 6;
        let mut adversary = Oblivious::new(n, 6, 40, 1);
        let verdict = check_consensus(
            &SynRan::new(),
            &split_inputs(n),
            SimConfig::new(n).faults(3).seed(1).max_rounds(50_000),
            &mut adversary,
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert!(verdict.report().failed_count() <= 3);
        assert!(verdict.report().non_faulty().count() >= 1);
    }
}
