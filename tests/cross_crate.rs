//! Cross-crate integration: full protocol executions spanning the whole
//! workspace — simulator + protocols + adversaries + checkers.

use synran::adversary::{estimate_valency, ProbeSet};
use synran::core::{ConsensusProtocol, SynRanProcess};
use synran::prelude::*;

fn split_inputs(n: usize) -> Vec<Bit> {
    (0..n).map(|i| Bit::from(i % 2 == 0)).collect()
}

#[test]
fn synran_correct_under_every_adversary_in_the_suite() {
    let n = 20;
    let t = n - 1;
    let rate = 4;
    type Mk = Box<dyn Fn(u64) -> Box<dyn Adversary<SynRanProcess>>>;
    let suite: Vec<(&str, Mk)> = vec![
        ("passive", Box::new(|_| Box::new(Passive))),
        (
            "random",
            Box::new(move |s| Box::new(RandomKiller::new(rate, s))),
        ),
        ("storm", Box::new(|s| Box::new(Storm::new(s)))),
        (
            "kill-ones",
            Box::new(move |_| Box::new(PreferenceKiller::new(Bit::One, rate))),
        ),
        (
            "kill-zeros",
            Box::new(move |_| Box::new(PreferenceKiller::new(Bit::Zero, rate))),
        ),
        ("balancer", Box::new(|_| Box::new(Balancer::unbounded()))),
        (
            "lower-bound",
            Box::new(|s| Box::new(LowerBoundAdversary::with_params(6, 2, 30, s))),
        ),
    ];
    for (name, factory) in &suite {
        for seed in 0..4u64 {
            let mut adversary = factory(seed);
            let verdict = check_consensus(
                &SynRan::new(),
                &split_inputs(n),
                SimConfig::new(n).faults(t).seed(seed).max_rounds(100_000),
                &mut adversary,
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "{name} seed {seed}: {:?}",
                verdict.violations()
            );
        }
    }
}

#[test]
fn flooding_correct_under_generic_adversaries() {
    let n = 12;
    for t in [0usize, 3, 6, 11] {
        for seed in 0..4u64 {
            let verdict = check_consensus(
                &FloodingConsensus::for_faults(t),
                &split_inputs(n),
                SimConfig::new(n).faults(t).seed(seed),
                &mut RandomKiller::new(2, seed),
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "t={t} seed {seed}: {:?}",
                verdict.violations()
            );
            assert_eq!(
                verdict.rounds(),
                t as u32 + 1,
                "flooding is exactly t+1 rounds"
            );
        }
    }
}

#[test]
fn storm_triggers_deterministic_stage_handover() {
    // Wipe out all but 2 of 36 in round 1: survivors must hand over to the
    // deterministic stage and still agree.
    let n = 36;
    let verdict = check_consensus(
        &SynRan::new(),
        &split_inputs(n),
        SimConfig::new(n).faults(n - 2).seed(3).max_rounds(10_000),
        &mut Storm::new(3),
    )
    .unwrap();
    assert!(verdict.is_correct(), "{:?}", verdict.violations());
    assert_eq!(verdict.report().failed_count(), n - 2);
    // The run must have outlived the handover (delay + flooding rounds).
    assert!(verdict.rounds() >= 3, "rounds = {}", verdict.rounds());
}

#[test]
fn unanimous_inputs_decide_that_value_under_attack() {
    for v in [Bit::Zero, Bit::One] {
        for seed in 0..5u64 {
            let n = 16;
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
            assert!(verdict.is_correct());
            assert_eq!(
                verdict.report().unanimous_decision(),
                Some(v),
                "validity under attack, v = {v}, seed {seed}"
            );
        }
    }
}

#[test]
fn valency_estimates_agree_with_outcomes() {
    // A state the probes classify as 1-valent must, in fact, decide 1
    // under passive continuation.
    let n = 12;
    let protocol = SynRan::new();
    let mut world = World::new(
        SimConfig::new(n).faults(4).seed(9).max_rounds(10_000),
        |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
    )
    .unwrap();
    let probes = ProbeSet::synran(4);
    let mut steps = 0;
    while !world.finished() && steps < 50 {
        world.phase_a().unwrap();
        let est = estimate_valency(&world, &probes, 8, 50, steps).unwrap();
        if est.min_p1() > 0.9 {
            // Claimed 1-valent: finish passively and check.
            let mut fork = world.fork(12345);
            let report = fork.run(&mut Passive).unwrap();
            assert_eq!(report.unanimous_decision(), Some(Bit::One));
            return;
        }
        if est.max_p1() < 0.1 {
            let mut fork = world.fork(12345);
            let report = fork.run(&mut Passive).unwrap();
            assert_eq!(report.unanimous_decision(), Some(Bit::Zero));
            return;
        }
        world.deliver(Intervention::none()).unwrap();
        steps += 1;
    }
    // The run decided before ever becoming confidently univalent — also
    // fine; just make sure it really finished.
    assert!(world.finished(), "run neither decided nor classified");
}

#[test]
fn handover_skew_cannot_break_agreement() {
    // The Lemma 4.3 corner: partial-delivery kills right at the
    // deterministic-stage threshold make one process observe
    // N < √(n/log n) a full round before the others, so the survivors
    // enter the flooding stage skewed by one round. The delay-round
    // union + the two slack flooding rounds (DESIGN.md hardening) must
    // absorb it.
    use synran::sim::{DeliveryFilter, Process};

    struct SkewAtThreshold;
    impl Adversary<synran::core::SynRanProcess> for SkewAtThreshold {
        fn intervene(&mut self, world: &World<synran::core::SynRanProcess>) -> Intervention {
            match world.round().index() {
                // Crash down to 5 survivors immediately.
                1 => Intervention::kill_all_silent(world.alive_ids().skip(5).collect::<Vec<_>>()),
                // Kill 2 of the 5, delivering their last messages ONLY to
                // the lowest-id survivor: it sees 3 messages (below the
                // threshold for n = 36), the rest see 3 as well... make it
                // asymmetric: deliver to the lowest two survivors so views
                // split 5 vs 3.
                2 => {
                    let alive: Vec<ProcessId> = world.alive_ids().collect();
                    if alive.len() < 5 || world.budget().remaining() < 2 {
                        return Intervention::none();
                    }
                    let witnesses = vec![alive[0], alive[1]];
                    Intervention::new()
                        .kill(alive[3], DeliveryFilter::To(witnesses.clone().into()))
                        .kill(alive[4], DeliveryFilter::To(witnesses.into()))
                }
                _ => Intervention::none(),
            }
            .pipe_check(world)
        }
    }
    // Small helper so an over-budget plan degrades instead of erroring.
    trait PipeCheck {
        fn pipe_check<P: Process>(self, world: &World<P>) -> Intervention;
    }
    impl PipeCheck for Intervention {
        fn pipe_check<P: Process>(self, world: &World<P>) -> Intervention {
            if self.kills().len() <= world.budget().remaining() {
                self
            } else {
                Intervention::none()
            }
        }
    }

    for seed in 0..10u64 {
        for inputs in [
            vec![Bit::One; 36],
            (0..36).map(|i| Bit::from(i % 2 == 0)).collect::<Vec<_>>(),
        ] {
            let verdict = synran::core::check_consensus(
                &SynRan::new(),
                &inputs,
                SimConfig::new(36).faults(35).seed(seed).max_rounds(10_000),
                &mut SkewAtThreshold,
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "seed {seed}: handover skew broke consensus: {:?}",
                verdict.violations()
            );
        }
    }
}

#[test]
fn deterministic_replay_across_the_whole_stack() {
    let run = |seed: u64| {
        let n = 18;
        let mut adversary = Balancer::unbounded();
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
        (
            verdict.rounds(),
            verdict.report().unanimous_decision(),
            verdict.report().failed_count(),
        )
    };
    assert_eq!(run(42), run(42), "same seed must replay identically");
}

#[test]
fn budget_is_never_exceeded_by_any_adversary() {
    let n = 24;
    for t in [1usize, 5, 12, 23] {
        let verdict = check_consensus(
            &SynRan::new(),
            &split_inputs(n),
            SimConfig::new(n).faults(t).seed(7).max_rounds(100_000),
            &mut Balancer::unbounded(),
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert!(
            verdict.report().failed_count() <= t,
            "t = {t}: kills = {}",
            verdict.report().failed_count()
        );
    }
}
