//! Protocol-agnostic baseline adversaries.

use synran_sim::{Adversary, Intervention, Process, ProcessId, SimRng, World};

/// Kills up to `per_round` uniformly random alive processes each round
/// until the budget runs out. Messages of victims are fully suppressed.
///
/// The "dumb but busy" baseline: it spends the same budget as smarter
/// adversaries without adaptivity, which is exactly what experiments E4/E5
/// contrast against.
///
/// # Examples
///
/// ```
/// use synran_adversary::RandomKiller;
/// use synran_core::{check_consensus, SynRan};
/// use synran_sim::{Bit, SimConfig};
///
/// let mut adversary = RandomKiller::new(2, 9);
/// let verdict = check_consensus(
///     &SynRan::new(),
///     &[Bit::One; 12],
///     SimConfig::new(12).faults(6).seed(1),
///     &mut adversary,
/// )?;
/// assert!(verdict.is_correct());
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RandomKiller {
    per_round: usize,
    rng: SimRng,
}

impl RandomKiller {
    /// Creates a killer taking up to `per_round` victims per round, with
    /// its own deterministic randomness stream.
    #[must_use]
    pub fn new(per_round: usize, seed: u64) -> RandomKiller {
        RandomKiller {
            per_round,
            rng: SimRng::new(seed).derive(0x4B11),
        }
    }
}

impl<P: Process> Adversary<P> for RandomKiller {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        let alive: Vec<ProcessId> = world.alive_ids().collect();
        let k = self
            .per_round
            .min(world.budget().remaining())
            .min(alive.len());
        if k == 0 {
            return Intervention::none();
        }
        let victims = self
            .rng
            .sample_indices(alive.len(), k)
            .into_iter()
            .map(|i| alive[i]);
        Intervention::kill_all_silent(victims)
    }

    fn name(&self) -> &str {
        "random-killer"
    }
}

/// Spends the entire fault budget in the very first round.
///
/// The front-loaded extreme: tests protocols' handling of a sudden
/// population collapse (SynRan's deterministic-stage handover in
/// particular).
#[derive(Debug, Clone)]
pub struct Storm {
    rng: SimRng,
}

impl Storm {
    /// Creates a storm adversary with its own randomness stream.
    #[must_use]
    pub fn new(seed: u64) -> Storm {
        Storm {
            rng: SimRng::new(seed).derive(0x5702),
        }
    }
}

impl<P: Process> Adversary<P> for Storm {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        if world.round().index() != 1 {
            return Intervention::none();
        }
        let alive: Vec<ProcessId> = world.alive_ids().collect();
        // Never kill everyone: leave at least one process so the execution
        // has a survivor to decide.
        let k = world
            .budget()
            .remaining()
            .min(alive.len().saturating_sub(1));
        if k == 0 {
            return Intervention::none();
        }
        let victims = self
            .rng
            .sample_indices(alive.len(), k)
            .into_iter()
            .map(|i| alive[i]);
        Intervention::kill_all_silent(victims)
    }

    fn name(&self) -> &str {
        "storm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_core::{check_consensus, ConsensusProtocol, FloodingConsensus, SynRan};
    use synran_sim::{Bit, SimConfig};

    #[test]
    fn random_killer_respects_rate_and_budget() {
        let n = 20;
        let t = 7;
        let protocol = FloodingConsensus::for_faults(t);
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
        let verdict = check_consensus(
            &protocol,
            &inputs,
            SimConfig::new(n).faults(t).seed(3),
            &mut RandomKiller::new(3, 3),
        )
        .unwrap();
        assert!(verdict.is_correct(), "{:?}", verdict.violations());
        let report = verdict.report();
        assert!(report.failed_count() <= t);
        assert!(report.kills_per_round().iter().all(|&(_, k)| k <= 3));
    }

    #[test]
    fn storm_strikes_once() {
        let n = 16;
        let t = 14;
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < 8)).collect();
        let verdict = check_consensus(
            &SynRan::new(),
            &inputs,
            SimConfig::new(n).faults(t).seed(4),
            &mut Storm::new(4),
        )
        .unwrap();
        assert!(verdict.is_correct(), "{:?}", verdict.violations());
        let kills = verdict.report().kills_per_round();
        assert_eq!(kills.len(), 1, "storm kills only in round 1");
        assert_eq!(kills[0].0, synran_sim::Round::FIRST);
        assert_eq!(kills[0].1, 14);
    }

    #[test]
    fn storm_leaves_a_survivor() {
        // Even with budget == n, at least one process survives.
        let n = 6;
        let inputs = vec![Bit::One; n];
        let verdict = check_consensus(
            &SynRan::new(),
            &inputs,
            SimConfig::new(n).faults(n).seed(5),
            &mut Storm::new(5),
        )
        .unwrap();
        assert!(verdict.report().non_faulty().count() >= 1);
        assert!(verdict.is_correct(), "{:?}", verdict.violations());
    }

    #[test]
    fn adversaries_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let n = 14;
            let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
            let protocol = SynRan::new();
            let _ = protocol.name();
            check_consensus(
                &protocol,
                &inputs,
                SimConfig::new(n).faults(7).seed(seed),
                &mut RandomKiller::new(2, seed),
            )
            .unwrap()
            .rounds()
        };
        assert_eq!(run(11), run(11));
    }
}
