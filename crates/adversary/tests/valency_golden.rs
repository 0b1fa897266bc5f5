//! Golden valency estimates: fixed worlds and seeds must reproduce these
//! exact `f64` bits at every worker-thread count and under every
//! telemetry mode.
//!
//! The bits were recorded from [`estimate_valency`] and are the contract
//! any change to the estimator (fork evaluation, seed derivation, the
//! unit-order fold) must keep. A mismatch means estimates, and with them
//! every lower-bound adversary decision, have moved.

use synran_adversary::{estimate_valency, ProbeSet, ValencyEstimate};
use synran_core::{ConsensusProtocol, SynRan, SynRanProcess};
use synran_sim::telemetry::{Telemetry, TelemetryMode};
use synran_sim::{Bit, SimConfig, World};

/// A SynRan world with `ones` leading 1-inputs, `t` fault budget, and a
/// configurable worker-thread count.
fn world_with(
    n: usize,
    t: usize,
    ones: usize,
    seed: u64,
    threads: usize,
    max_rounds: u32,
) -> World<SynRanProcess> {
    World::new(
        SimConfig::new(n)
            .faults(t)
            .seed(seed)
            .max_rounds(max_rounds)
            .threads(threads),
        |pid| SynRan::new().spawn(pid, n, Bit::from(pid.index() < ones)),
    )
    .expect("valid config")
}

/// An estimate reduced to its exact bits.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    min_p1: u64,
    max_p1: u64,
    per_probe: [u64; 4],
    undecided: usize,
}

impl Golden {
    fn of(est: &ValencyEstimate) -> Golden {
        let bits: Vec<u64> = est.per_probe().iter().map(|&(_, p)| p.to_bits()).collect();
        Golden {
            min_p1: est.min_p1().to_bits(),
            max_p1: est.max_p1().to_bits(),
            per_probe: bits.try_into().expect("four probes"),
            undecided: est.undecided(),
        }
    }
}

const ZERO: u64 = 0x0000_0000_0000_0000; // 0.0
const FIFTH: u64 = 0x3fc9_9999_9999_999a; // 0.2
const HALF: u64 = 0x3fe0_0000_0000_0000; // 0.5
const ONE: u64 = 0x3ff0_0000_0000_0000; // 1.0

/// Every telemetry mode an estimate may run under.
const MODES: [TelemetryMode; 3] = [
    TelemetryMode::Off,
    TelemetryMode::Counters,
    TelemetryMode::Spans,
];

/// Runs `estimate` on the world built by `build(threads)` at threads
/// {1, 2, 8} × every telemetry mode and asserts the golden bits.
fn assert_golden(
    label: &str,
    build: impl Fn(usize) -> World<SynRanProcess>,
    estimate: impl Fn(&World<SynRanProcess>) -> ValencyEstimate,
    golden: &Golden,
) {
    for threads in [1usize, 2, 8] {
        for mode in MODES {
            let mut world = build(threads);
            world.set_telemetry(Telemetry::new(mode));
            let got = Golden::of(&estimate(&world));
            assert_eq!(
                &got, golden,
                "{label}: threads = {threads}, telemetry {mode}"
            );
        }
    }
}

/// The split (8 of 16), mostly-ones (14) and unanimous (16) fixtures,
/// probed with `ProbeSet::synran(3)`, 5 samples, horizon 60, seed 9.
fn starting_state(ones: usize, world_seed: u64, threads: usize) -> World<SynRanProcess> {
    world_with(16, 8, ones, world_seed, threads, 5_000)
}

fn estimate_starting_state(world: &World<SynRanProcess>, seed: u64) -> ValencyEstimate {
    estimate_valency(world, &ProbeSet::synran(3), 5, 60, seed).unwrap()
}

const SPLIT: Golden = Golden {
    min_p1: ZERO,
    max_p1: FIFTH,
    per_probe: [ZERO, ZERO, FIFTH, ZERO],
    undecided: 0,
};

const DECIDES_ONE: Golden = Golden {
    min_p1: ONE,
    max_p1: ONE,
    per_probe: [ONE; 4],
    undecided: 0,
};

#[test]
fn starting_states_match_golden_bits() {
    for (ones, world_seed, golden) in [
        (8, 7u64, &SPLIT),
        (14, 21, &DECIDES_ONE),
        (16, 3, &DECIDES_ONE),
    ] {
        assert_golden(
            &format!("ones = {ones}"),
            |threads| starting_state(ones, world_seed, threads),
            |world| estimate_starting_state(world, 9),
            golden,
        );
    }
}

#[test]
fn wrong_seed_does_not_match_golden_bits() {
    // Negative control: the split fixture with its estimator seed bumped
    // by one must miss the golden bits, so a match above is evidence, not
    // a constant. (The world's own seed would not do: forks rebase all
    // future randomness on their fork seed.)
    let est = estimate_starting_state(&starting_state(8, 7, 1), 10);
    assert_ne!(Golden::of(&est), SPLIT, "{est:?}");
}

/// Both capped fixtures leave 14 of 16 forks undecided and every probe
/// at exactly ½.
const MOSTLY_UNDECIDED: Golden = Golden {
    min_p1: HALF,
    max_p1: HALF,
    per_probe: [HALF; 4],
    undecided: 14,
};

#[test]
fn horizon_hit_forks_match_golden_bits() {
    // A 2-round look-ahead is far too short for SynRan to decide from a
    // split state: most forks hit the horizon and score ½ each.
    let probes = ProbeSet::synran(2);
    assert_golden(
        "horizon 2",
        |threads| world_with(12, 6, 6, 5, threads, 5_000),
        |world| estimate_valency(world, &probes, 4, 2, 17).unwrap(),
        &MOSTLY_UNDECIDED,
    );
    let est = estimate_valency(&world_with(12, 6, 6, 5, 1, 5_000), &probes, 4, 2, 17).unwrap();
    assert!(
        est.undecided() * 2 > probes.len() * 4,
        "most forks should hit the 2-round horizon, got {} of {}",
        est.undecided(),
        probes.len() * 4
    );
}

#[test]
fn config_max_rounds_cap_matches_golden_bits() {
    // The world's own `max_rounds` is tighter than the probe horizon:
    // forks stop at it and score ½ when they run past it.
    let probes = ProbeSet::synran(2);
    assert_golden(
        "max_rounds 3",
        |threads| world_with(12, 6, 6, 5, threads, 3),
        |world| estimate_valency(world, &probes, 4, 60, 17).unwrap(),
        &MOSTLY_UNDECIDED,
    );
    let est = estimate_valency(&world_with(12, 6, 6, 5, 1, 3), &probes, 4, 60, 17).unwrap();
    assert!(est.undecided() > 0, "the 3-round cap must bite");
}

#[test]
#[should_panic(expected = "at least one probe")]
fn rejects_empty_probe_set() {
    let world = world_with(8, 4, 4, 1, 1, 5_000);
    let probes: ProbeSet<SynRanProcess> = ProbeSet::new();
    let _ = estimate_valency(&world, &probes, 4, 30, 1);
}

#[test]
#[should_panic(expected = "at least one sample")]
fn rejects_zero_samples() {
    let world = world_with(8, 4, 4, 1, 1, 5_000);
    let probes = ProbeSet::synran(2);
    let _ = estimate_valency(&world, &probes, 0, 30, 1);
}
