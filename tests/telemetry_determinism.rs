//! The telemetry layer's contract: it is **observe-only**. For every
//! telemetry mode (off, counters, spans) and every thread count, the
//! simulation results — verdicts, reports, valency estimates, batch
//! outcomes — are byte-identical to the uninstrumented serial run.
//!
//! This is the determinism guarantee PR 1's parallel layer established,
//! extended across the instrumentation: attaching a hub must never change
//! what the simulator computes, only what it records on the side.

use synran::adversary::{estimate_valency, ProbeSet, RandomKiller};
use synran::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
const MODES: [TelemetryMode; 3] = [
    TelemetryMode::Off,
    TelemetryMode::Counters,
    TelemetryMode::Spans,
];

/// A single consensus run produces a byte-identical report whatever
/// telemetry mode is attached.
#[test]
fn check_consensus_is_telemetry_invariant() {
    let n = 12;
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
    let cfg = SimConfig::new(n).faults(n - 1).seed(33).max_rounds(50_000);
    let golden = check_consensus(
        &SynRan::new(),
        &inputs,
        cfg.clone(),
        &mut RandomKiller::new(2, 33),
    )
    .expect("run");
    for mode in MODES {
        let telemetry = Telemetry::new(mode);
        let got = check_consensus_with(
            &SynRan::new(),
            &inputs,
            cfg.clone(),
            &mut RandomKiller::new(2, 33),
            &telemetry,
        )
        .expect("run");
        assert_eq!(
            format!("{got:?}"),
            format!("{golden:?}"),
            "mode={mode}: verdict and report must match byte-for-byte"
        );
    }
}

/// Valency estimates are invariant across telemetry modes × thread
/// counts: all nine configurations reproduce the uninstrumented serial
/// golden value exactly (f64 bit pattern included).
#[test]
fn valency_estimate_is_telemetry_invariant() {
    let n = 12;
    let build = |threads: usize, telemetry: &Telemetry| {
        let protocol = SynRan::new();
        let mut world = World::new(
            SimConfig::new(n)
                .faults(n / 2)
                .seed(21)
                .max_rounds(5_000)
                .threads(threads),
            |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
        )
        .expect("valid config");
        world.set_telemetry(telemetry.clone());
        world.phase_a().expect("phase A");
        world
    };
    let probes = ProbeSet::synran(n / 2);
    let golden =
        estimate_valency(&build(1, &Telemetry::off()), &probes, 3, 30, 17).expect("estimate");
    for mode in MODES {
        for threads in THREAD_COUNTS {
            let telemetry = Telemetry::new(mode);
            let est = estimate_valency(&build(threads, &telemetry), &probes, 3, 30, 17)
                .expect("estimate");
            assert_eq!(
                format!("{est:?}"),
                format!("{golden:?}"),
                "mode={mode} threads={threads}: debug repr must match bit-for-bit"
            );
        }
    }
}

/// Seed batches are invariant across telemetry modes × thread counts,
/// including the per-run seed sequence and every verdict.
#[test]
fn run_batch_is_telemetry_invariant() {
    let n = 8;
    let protocol = SynRan::new();
    let cfg = |threads: usize| {
        SimConfig::new(n)
            .faults(n - 1)
            .max_rounds(50_000)
            .threads(threads)
    };
    let golden = run_batch(
        &protocol,
        InputAssignment::Random,
        &cfg(1),
        16,
        0xBA7C4,
        |seed| RandomKiller::new(2, seed),
    )
    .expect("batch");
    for mode in MODES {
        for threads in THREAD_COUNTS {
            let telemetry = Telemetry::new(mode);
            let out = run_batch_with(
                &protocol,
                InputAssignment::Random,
                &cfg(threads),
                16,
                0xBA7C4,
                &telemetry,
                |seed| RandomKiller::new(2, seed),
            )
            .expect("batch");
            assert_eq!(
                format!("{out:?}"),
                format!("{golden:?}"),
                "mode={mode} threads={threads}"
            );
        }
    }
}

/// The counters a run records are themselves deterministic: two identical
/// instrumented runs produce identical counter snapshots, and the
/// simulator-level counters agree with the report.
#[test]
fn recorded_counters_are_deterministic_and_consistent() {
    let n = 10;
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
    let cfg = SimConfig::new(n).faults(n - 1).seed(7).max_rounds(50_000);
    let go = || {
        let telemetry = Telemetry::new(TelemetryMode::Counters);
        let verdict = check_consensus_with(
            &SynRan::new(),
            &inputs,
            cfg.clone(),
            &mut RandomKiller::new(2, 7),
            &telemetry,
        )
        .expect("run");
        (telemetry.snapshot(), verdict)
    };
    let (snap_a, verdict) = go();
    let (snap_b, _) = go();
    assert_eq!(
        snap_a.counters, snap_b.counters,
        "counters are reproducible"
    );
    let report = verdict.report();
    assert_eq!(
        snap_a.counter("sim.rounds"),
        Some(u64::from(report.rounds())),
        "sim.rounds matches the report"
    );
    assert_eq!(
        snap_a.counter("sim.kills"),
        Some(report.failed_count() as u64),
        "sim.kills matches the report"
    );
    let decided: Vec<u64> = ProcessId::all(n)
        .filter_map(|pid| report.decided_at(pid))
        .map(|(round, _)| u64::from(round.index()))
        .collect();
    let histogram = snap_a.histogram("decision.round").expect("decisions");
    assert_eq!(
        (histogram.count, histogram.sum),
        (decided.len() as u64, decided.iter().sum()),
        "decision.round records each process's first decision round"
    );
}
