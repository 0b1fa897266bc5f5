//! Property-based tests: the consensus conditions hold for *arbitrary*
//! system sizes, fault budgets, input vectors, seeds, and adversary
//! schedules.
//!
//! Cases are drawn from fixed-seed [`SimRng`] generators rather than a
//! property-testing framework, so every CI run checks the same inputs and
//! failures reproduce by case index.

use synran::core::SynRanProcess;
use synran::prelude::*;

/// The adversaries a property case may draw.
#[derive(Debug, Clone)]
enum AdversaryChoice {
    Passive,
    Random { per_round: usize },
    Storm,
    KillOnes { per_round: usize },
    KillZeros { per_round: usize },
    Balancer,
    BalancerCapped { cap: usize },
}

impl AdversaryChoice {
    fn build(&self, seed: u64) -> Box<dyn Adversary<SynRanProcess> + Send> {
        match *self {
            AdversaryChoice::Passive => Box::new(Passive),
            AdversaryChoice::Random { per_round } => Box::new(RandomKiller::new(per_round, seed)),
            AdversaryChoice::Storm => Box::new(Storm::new(seed)),
            AdversaryChoice::KillOnes { per_round } => {
                Box::new(PreferenceKiller::new(Bit::One, per_round))
            }
            AdversaryChoice::KillZeros { per_round } => {
                Box::new(PreferenceKiller::new(Bit::Zero, per_round))
            }
            AdversaryChoice::Balancer => Box::new(Balancer::unbounded()),
            AdversaryChoice::BalancerCapped { cap } => Box::new(Balancer::with_cap(cap)),
        }
    }
}

/// Draws an adversary, covering every variant with the same parameter
/// ranges the former proptest strategy used.
fn random_adversary(rng: &mut SimRng) -> AdversaryChoice {
    match rng.index(7) {
        0 => AdversaryChoice::Passive,
        1 => AdversaryChoice::Random {
            per_round: 1 + rng.index(4),
        },
        2 => AdversaryChoice::Storm,
        3 => AdversaryChoice::KillOnes {
            per_round: 1 + rng.index(4),
        },
        4 => AdversaryChoice::KillZeros {
            per_round: 1 + rng.index(4),
        },
        5 => AdversaryChoice::Balancer,
        _ => AdversaryChoice::BalancerCapped {
            cap: 1 + rng.index(7),
        },
    }
}

/// A uniform fraction in `[0, 1)`.
fn unit_fraction(rng: &mut SimRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Agreement + termination for arbitrary inputs, budgets, seeds, and
/// adversaries. (Validity is checked by the checker too whenever the
/// drawn inputs happen to be unanimous.)
#[test]
fn synran_is_correct() {
    let mut gen = SimRng::new(0xC0221);
    for _case in 0..48 {
        let n = 2 + gen.index(22);
        let t = ((n as f64) * unit_fraction(&mut gen)) as usize;
        let inputs: Vec<Bit> = (0..n).map(|_| gen.bit()).collect();
        let seed = gen.next_u64();
        let choice = random_adversary(&mut gen);
        let mut adversary = choice.build(seed);
        let verdict = check_consensus(
            &SynRan::new(),
            &inputs,
            SimConfig::new(n)
                .faults(t.min(n))
                .seed(seed)
                .max_rounds(50_000),
            &mut adversary,
        )
        .unwrap();
        assert!(
            verdict.is_correct(),
            "n={n} t={t} {choice:?}: {:?}",
            verdict.violations()
        );
    }
}

/// Flooding is correct and takes exactly t+1 rounds under generic
/// adversaries.
#[test]
fn flooding_is_correct_and_exact() {
    let mut gen = SimRng::new(0xF100D);
    for _case in 0..48 {
        let n = 2 + gen.index(14);
        let t = (((n - 1) as f64) * unit_fraction(&mut gen)) as usize;
        let inputs: Vec<Bit> = (0..n).map(|_| gen.bit()).collect();
        let seed = gen.next_u64();
        let per_round = 1 + gen.index(3);
        let verdict = check_consensus(
            &FloodingConsensus::for_faults(t),
            &inputs,
            SimConfig::new(n).faults(t).seed(seed),
            &mut RandomKiller::new(per_round, seed),
        )
        .unwrap();
        assert!(verdict.is_correct(), "{:?}", verdict.violations());
        assert_eq!(verdict.rounds(), t as u32 + 1);
    }
}

/// The engine never lets any adversary overspend its budget, and the
/// report's failed processes match the kills the engine's telemetry
/// counted as each intervention was applied.
#[test]
fn fault_accounting_is_exact() {
    let mut gen = SimRng::new(0xFA017);
    for _case in 0..48 {
        let n = 2 + gen.index(18);
        let t = gen.index(20).min(n);
        let seed = gen.next_u64();
        let choice = random_adversary(&mut gen);
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
        let mut adversary = choice.build(seed);
        let telemetry = Telemetry::new(TelemetryMode::Counters);
        let verdict = check_consensus_with(
            &SynRan::new(),
            &inputs,
            SimConfig::new(n).faults(t).seed(seed).max_rounds(50_000),
            &mut adversary,
            &telemetry,
        )
        .unwrap();
        let kills = verdict.report().failed_count();
        assert!(kills <= t, "kills {kills} > budget {t}");
        let counted = telemetry.snapshot().counter("sim.kills").unwrap_or(0);
        assert_eq!(kills as u64, counted);
        let per_round: usize = verdict.report().kills_per_round().iter().map(|k| k.1).sum();
        assert_eq!(per_round, kills);
    }
}

/// Replay determinism across the full stack: identical seeds give
/// identical executions.
#[test]
fn replay_is_deterministic() {
    let mut gen = SimRng::new(0x2E71A);
    for _case in 0..48 {
        let n = 2 + gen.index(14);
        let seed = gen.next_u64();
        let choice = random_adversary(&mut gen);
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 3 == 0)).collect();
        let run = || {
            let mut adversary = choice.build(seed);
            let verdict = check_consensus(
                &SynRan::new(),
                &inputs,
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                &mut adversary,
            )
            .unwrap();
            (verdict.rounds(), verdict.report().decisions().to_vec())
        };
        assert_eq!(run(), run());
    }
}

/// Unanimous inputs always decide that exact value (Validity), even
/// under the strongest stalling attack.
#[test]
fn validity_under_balancer() {
    let mut gen = SimRng::new(0x7A11D);
    for _case in 0..48 {
        let n = 2 + gen.index(18);
        let v = gen.bit();
        let seed = gen.next_u64();
        let verdict = check_consensus(
            &SynRan::new(),
            &vec![v; n],
            SimConfig::new(n)
                .faults(n - 1)
                .seed(seed)
                .max_rounds(50_000),
            &mut Balancer::unbounded(),
        )
        .unwrap();
        assert!(verdict.is_correct(), "{:?}", verdict.violations());
        assert_eq!(verdict.report().unanimous_decision(), Some(v));
    }
}
