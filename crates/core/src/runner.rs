//! Batch execution: many seeded runs of a protocol under an adversary.
//!
//! The experiment harnesses measure *expected* round counts, so they need
//! many independent executions per configuration. [`run_batch`] drives
//! them, checks every run for consensus violations, and returns the raw
//! per-run observations for `synran-analysis` to summarise.

use synran_sim::{parallel, Adversary, Bit, SimConfig, SimError, SimRng, Telemetry};

use crate::checker::check_consensus_with;
use crate::ConsensusProtocol;

/// How inputs are assigned across processes in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputAssignment {
    /// Every process gets the same bit.
    Unanimous(Bit),
    /// The first `ones` processes get 1, the rest 0.
    Split {
        /// Number of processes with input 1.
        ones: usize,
    },
    /// Every process draws an independent fair coin (per-run).
    Random,
}

impl InputAssignment {
    /// Materialises the input vector for a system of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if a [`InputAssignment::Split`] requests more ones than `n`.
    #[must_use]
    pub fn materialize(&self, n: usize, rng: &mut SimRng) -> Vec<Bit> {
        match *self {
            InputAssignment::Unanimous(v) => vec![v; n],
            InputAssignment::Split { ones } => {
                assert!(ones <= n, "cannot assign {ones} ones to {n} processes");
                (0..n).map(|i| Bit::from(i < ones)).collect()
            }
            InputAssignment::Random => (0..n).map(|_| rng.bit()).collect(),
        }
    }

    /// An even split (⌊n/2⌋ ones) — the adversary's favourite starting
    /// point.
    #[must_use]
    pub fn even_split(n: usize) -> InputAssignment {
        InputAssignment::Split { ones: n / 2 }
    }
}

/// The aggregated observations of one batch.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    rounds: Vec<u32>,
    kills: Vec<usize>,
    incorrect: Vec<(u64, Vec<String>)>,
    timeouts: usize,
}

impl BatchOutcome {
    /// Round counts of the completed runs, in seed order.
    #[must_use]
    pub fn rounds(&self) -> &[u32] {
        &self.rounds
    }

    /// Adversary kills per completed run, in seed order.
    #[must_use]
    pub fn kills(&self) -> &[usize] {
        &self.kills
    }

    /// `(seed, violations)` for every run that violated a consensus
    /// condition. Empty on a healthy protocol.
    #[must_use]
    pub fn incorrect(&self) -> &[(u64, Vec<String>)] {
        &self.incorrect
    }

    /// Runs aborted by the round limit (counted as non-terminating, not as
    /// errors).
    #[must_use]
    pub fn timeouts(&self) -> usize {
        self.timeouts
    }

    /// Mean rounds across completed runs.
    ///
    /// # Panics
    ///
    /// Panics if no run completed.
    #[must_use]
    pub fn mean_rounds(&self) -> f64 {
        assert!(!self.rounds.is_empty(), "no completed runs");
        self.rounds.iter().map(|&r| f64::from(r)).sum::<f64>() / self.rounds.len() as f64
    }

    /// Largest observed round count.
    #[must_use]
    pub fn max_rounds(&self) -> Option<u32> {
        self.rounds.iter().copied().max()
    }

    /// `true` when every run completed and satisfied all three consensus
    /// conditions.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.incorrect.is_empty() && self.timeouts == 0
    }
}

/// Runs `runs` seeded executions of `protocol` under fresh adversaries and
/// collects round counts, kill counts, and any consensus violations.
///
/// `make_adversary` is called once per run with the run's seed so stateful
/// adversaries start fresh; `base_cfg`'s seed is re-derived per run.
///
/// Runs execute on [`base_cfg.threads()`](SimConfig::threads) workers
/// from the persistent pool behind [`synran_sim::parallel`] (spawned once
/// per process, re-used across batches — repeated batches pay no thread
/// spawn cost). Every run's seed is a pure function of
/// `(base_seed, run_index)` and the outcome is folded in run order, so
/// the batch is **bit-for-bit identical for every thread count**.
///
/// # Errors
///
/// Propagates engine errors other than round-limit overruns, which are
/// tallied as [`BatchOutcome::timeouts`]; with several failing runs, the
/// error of the lowest run index is returned regardless of thread count.
pub fn run_batch<P, A>(
    protocol: &P,
    assignment: InputAssignment,
    base_cfg: &SimConfig,
    runs: usize,
    base_seed: u64,
    make_adversary: impl Fn(u64) -> A + Sync,
) -> Result<BatchOutcome, SimError>
where
    P: ConsensusProtocol + Sync,
    A: Adversary<P::Proc>,
{
    run_batch_with(
        protocol,
        assignment,
        base_cfg,
        runs,
        base_seed,
        &Telemetry::off(),
        make_adversary,
    )
}

/// [`run_batch`] with a telemetry handle: every run's world records into
/// it, the fan-out gets per-worker spans, and the in-order fold
/// ([`BatchOutcome::fold`]) contributes a `batch.run_batch` span,
/// `batch.runs` / `batch.timeouts` / `batch.violations` counters, and
/// `batch.rounds` / `batch.kills` histograms.
///
/// This is [`run_step`] mapped over `0..runs` on the worker pool, then
/// folded: callers that schedule runs of several batches in one dispatch
/// (the campaign engine) use the same two pieces.
///
/// Telemetry is observe-only: the outcome is byte-identical to
/// [`run_batch`] for every handle and thread count.
///
/// # Errors
///
/// Propagates engine errors exactly as [`run_batch`] does.
pub fn run_batch_with<P, A>(
    protocol: &P,
    assignment: InputAssignment,
    base_cfg: &SimConfig,
    runs: usize,
    base_seed: u64,
    telemetry: &Telemetry,
    make_adversary: impl Fn(u64) -> A + Sync,
) -> Result<BatchOutcome, SimError>
where
    P: ConsensusProtocol + Sync,
    A: Adversary<P::Proc>,
{
    let results = parallel::try_par_map_in(telemetry, base_cfg.threads_value(), runs, |i| {
        run_step(
            protocol,
            assignment,
            base_cfg,
            base_seed,
            i,
            telemetry,
            &make_adversary,
        )
    })?;
    Ok(BatchOutcome::fold(results, telemetry))
}

/// What one run of a batch observed: just the fields the fold keeps, so a
/// scheduler can hold many runs' worth between dispatch and fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    seed: u64,
    rounds: u32,
    kills: usize,
    violations: Vec<String>,
}

/// Run `index` of a batch: derives the run's seed from
/// `(base_seed, index)`, materialises its inputs, and checks one execution
/// under a fresh adversary from `make_adversary(seed)`.
///
/// Returns `Ok(None)` for a run aborted by the round limit (a timeout, not
/// an error). A pure function of its arguments, so runs can execute in any
/// order on any thread.
///
/// # Errors
///
/// Propagates engine errors other than [`SimError::MaxRoundsExceeded`].
pub fn run_step<P, A>(
    protocol: &P,
    assignment: InputAssignment,
    base_cfg: &SimConfig,
    base_seed: u64,
    index: usize,
    telemetry: &Telemetry,
    make_adversary: impl Fn(u64) -> A,
) -> Result<Option<RunRecord>, SimError>
where
    P: ConsensusProtocol,
    A: Adversary<P::Proc>,
{
    let seed = SimRng::new(base_seed).derive(index as u64).next_u64();
    let mut input_rng = SimRng::new(seed).derive(0xD1CE);
    let inputs = assignment.materialize(base_cfg.n(), &mut input_rng);
    let cfg = base_cfg.clone().seed(seed);
    let mut adversary = make_adversary(seed);
    match check_consensus_with(protocol, &inputs, cfg, &mut adversary, telemetry) {
        Ok(verdict) => Ok(Some(RunRecord {
            seed,
            rounds: verdict.rounds(),
            kills: verdict.report().metrics().total_kills(),
            violations: verdict.violations().to_vec(),
        })),
        Err(SimError::MaxRoundsExceeded { .. }) => Ok(None),
        Err(other) => Err(other),
    }
}

impl BatchOutcome {
    /// Folds per-run results, given **in run order** (`None` = timeout),
    /// into a batch outcome, recording the `batch.run_batch` span, the
    /// `batch.*` counters and the `batch.rounds` / `batch.kills`
    /// histograms as it goes. Folding in run order rather than completion
    /// order keeps seed-order outputs and deterministic histograms.
    #[must_use]
    pub fn fold(
        results: impl IntoIterator<Item = Option<RunRecord>>,
        telemetry: &Telemetry,
    ) -> BatchOutcome {
        let _span = telemetry.span("batch.run_batch");
        let results = results.into_iter();
        let mut outcome = BatchOutcome {
            rounds: Vec::with_capacity(results.size_hint().0),
            kills: Vec::with_capacity(results.size_hint().0),
            incorrect: Vec::new(),
            timeouts: 0,
        };
        let mut runs = 0u64;
        for result in results {
            runs += 1;
            let Some(run) = result else {
                outcome.timeouts += 1;
                continue;
            };
            telemetry.observe("batch.rounds", u64::from(run.rounds));
            telemetry.observe("batch.kills", run.kills as u64);
            outcome.rounds.push(run.rounds);
            outcome.kills.push(run.kills);
            if !run.violations.is_empty() {
                outcome.incorrect.push((run.seed, run.violations));
            }
        }
        telemetry.incr("batch.runs", runs);
        telemetry.incr("batch.timeouts", outcome.timeouts as u64);
        telemetry.incr("batch.violations", outcome.incorrect.len() as u64);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FloodingConsensus, SynRan};
    use synran_sim::Passive;

    #[test]
    fn input_assignment_shapes() {
        let mut rng = SimRng::new(1);
        let u = InputAssignment::Unanimous(Bit::One).materialize(4, &mut rng);
        assert_eq!(u, vec![Bit::One; 4]);
        let s = InputAssignment::Split { ones: 2 }.materialize(5, &mut rng);
        assert_eq!(s, vec![Bit::One, Bit::One, Bit::Zero, Bit::Zero, Bit::Zero]);
        let r = InputAssignment::Random.materialize(64, &mut rng);
        let ones = r.iter().filter(|b| b.is_one()).count();
        assert!(ones > 10 && ones < 54, "implausibly skewed: {ones}");
        assert_eq!(
            InputAssignment::even_split(9),
            InputAssignment::Split { ones: 4 }
        );
    }

    #[test]
    #[should_panic(expected = "cannot assign")]
    fn oversized_split_rejected() {
        let mut rng = SimRng::new(0);
        let _ = InputAssignment::Split { ones: 6 }.materialize(5, &mut rng);
    }

    #[test]
    fn batch_of_flooding_is_deterministic_rounds() {
        let outcome = run_batch(
            &FloodingConsensus::for_faults(3),
            InputAssignment::Random,
            &SimConfig::new(8).faults(3),
            10,
            99,
            |_| Passive,
        )
        .unwrap();
        assert!(outcome.all_correct());
        assert!(outcome.rounds().iter().all(|&r| r == 4));
        assert_eq!(outcome.mean_rounds(), 4.0);
        assert_eq!(outcome.max_rounds(), Some(4));
        assert!(outcome.kills().iter().all(|&k| k == 0));
    }

    #[test]
    fn batch_of_synran_all_correct() {
        let outcome = run_batch(
            &SynRan::new(),
            InputAssignment::even_split(12),
            &SimConfig::new(12),
            25,
            7,
            |_| Passive,
        )
        .unwrap();
        assert!(
            outcome.all_correct(),
            "violations: {:?}",
            outcome.incorrect()
        );
        assert_eq!(outcome.rounds().len(), 25);
        // Fault-free SynRan converges fast.
        assert!(outcome.mean_rounds() < 20.0);
    }

    #[test]
    fn seeds_differ_across_runs() {
        // Two batches with different base seeds produce different
        // executions; the same base seed reproduces exactly.
        let run = |base: u64| {
            run_batch(
                &SynRan::new(),
                InputAssignment::Random,
                &SimConfig::new(10),
                8,
                base,
                |_| Passive,
            )
            .unwrap()
            .rounds()
            .to_vec()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
