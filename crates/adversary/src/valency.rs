//! Probabilistic valency: the classification engine of the lower bound.
//!
//! §3.2 of the paper classifies an execution state `α_k` by the range of
//! probabilities `r(α_k) = { Pr[decide 1 | α_k, b] : b ∈ B }` over the
//! adversary family `B` (those failing at most `4√(n·log n)+1` processes
//! per round):
//!
//! | class | `min r(α_k)` | `max r(α_k)` |
//! |---|---|---|
//! | bivalent    | `< 1/√n − k/n` | `> 1 − 1/√n + k/n` |
//! | 0-valent    | `< 1/√n − k/n` | `≤ 1 − 1/√n + k/n` |
//! | 1-valent    | `≥ 1/√n − k/n` | `> 1 − 1/√n + k/n` |
//! | null-valent | `≥ 1/√n − k/n` | `≤ 1 − 1/√n + k/n` |
//!
//! The paper's adversary is computationally unbounded and knows these
//! quantities exactly. Operationally we *estimate* them: fork the paused
//! world many times, resume each fork under a small family of reference
//! adversaries (probes), and read off the empirical min/max of
//! `Pr[decide 1]`. The estimator is exactly as strong as its probe family —
//! see DESIGN.md's substitution table.

use std::fmt;
use std::sync::Arc;

use synran_core::SynRanProcess;
use synran_sim::{parallel, Adversary, Bit, Passive, Process, SimError, SimRng, Telemetry, World};

use crate::{Balancer, PreferenceKiller, RandomKiller};

/// A boxed, dynamically-dispatched adversary.
///
/// `Send` so that probe adversaries can be built and driven on the worker
/// threads of the parallel fork-evaluation engine.
pub type BoxedAdversary<P> = Box<dyn Adversary<P> + Send>;

/// A named factory producing fresh probe adversaries per fork seed.
///
/// `Send + Sync` because the factories are shared by reference across the
/// estimator's worker threads. Names are interned `Arc<str>`: estimates
/// carry a refcount bump per probe instead of cloning a `String` on the
/// hottest path.
type ProbeFactory<P> = (
    Arc<str>,
    Box<dyn Fn(u64) -> BoxedAdversary<P> + Send + Sync>,
);

/// A family of reference adversaries used as probes for `min`/`max`
/// `Pr[decide 1]`.
///
/// Each probe is a named factory taking a seed, so stateful adversaries
/// start fresh per fork.
pub struct ProbeSet<P: Process> {
    factories: Vec<ProbeFactory<P>>,
}

impl<P: Process> fmt::Debug for ProbeSet<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProbeSet")
            .field(
                "probes",
                &self
                    .factories
                    .iter()
                    .map(|(name, _)| &**name)
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<P: Process> ProbeSet<P> {
    /// An empty probe set to build on.
    #[must_use]
    pub fn new() -> ProbeSet<P> {
        ProbeSet {
            factories: Vec::new(),
        }
    }

    /// Adds a named probe. The name is interned once (`Arc<str>`); every
    /// estimate built from this set shares it by refcount.
    #[must_use]
    pub fn with_probe(
        mut self,
        name: impl Into<Arc<str>>,
        factory: impl Fn(u64) -> BoxedAdversary<P> + Send + Sync + 'static,
    ) -> ProbeSet<P> {
        self.factories.push((name.into(), Box::new(factory)));
        self
    }

    /// Number of probes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// `true` if no probe was added.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Protocol-agnostic probes: passive continuation plus a random killer
    /// spending `per_round` kills per round.
    #[must_use]
    pub fn generic(per_round: usize) -> ProbeSet<P> {
        ProbeSet::new()
            .with_probe("passive", |_| Box::new(Passive))
            .with_probe("random", move |seed| {
                Box::new(RandomKiller::new(per_round, seed))
            })
    }
}

impl<P: Process> Default for ProbeSet<P> {
    fn default() -> ProbeSet<P> {
        ProbeSet::new()
    }
}

impl ProbeSet<SynRanProcess> {
    /// The standard probe family for SynRan-family protocols: passive,
    /// kill-the-ones (drives `min Pr[1]`), kill-the-zeros (drives
    /// `max Pr[1]`), and the coin-band balancer (keeps both open).
    #[must_use]
    pub fn synran(per_round: usize) -> ProbeSet<SynRanProcess> {
        ProbeSet::new()
            .with_probe("passive", |_| Box::new(Passive))
            .with_probe("kill-ones", move |_| {
                Box::new(PreferenceKiller::new(Bit::One, per_round))
            })
            .with_probe("kill-zeros", move |_| {
                Box::new(PreferenceKiller::new(Bit::Zero, per_round))
            })
            .with_probe("balancer", move |_| Box::new(Balancer::with_cap(per_round)))
    }
}

/// The empirical estimate of `min`/`max Pr[decide 1]` from a state.
#[derive(Debug, Clone, PartialEq)]
pub struct ValencyEstimate {
    min_p1: f64,
    max_p1: f64,
    per_probe: Vec<(Arc<str>, f64)>,
    samples_per_probe: usize,
    undecided: usize,
}

impl ValencyEstimate {
    /// The smallest `Pr[decide 1]` over the probe family — the estimate of
    /// `min r(α)`.
    #[must_use]
    pub fn min_p1(&self) -> f64 {
        self.min_p1
    }

    /// The largest `Pr[decide 1]` over the probe family — the estimate of
    /// `max r(α)`.
    #[must_use]
    pub fn max_p1(&self) -> f64 {
        self.max_p1
    }

    /// Per-probe `Pr[decide 1]`, in probe order. Names are shared with
    /// the [`ProbeSet`] the estimate was built from (interned `Arc<str>`).
    #[must_use]
    pub fn per_probe(&self) -> &[(Arc<str>, f64)] {
        &self.per_probe
    }

    /// Forks per probe.
    #[must_use]
    pub fn samples_per_probe(&self) -> usize {
        self.samples_per_probe
    }

    /// Forks that did not decide within the horizon (scored as ½).
    #[must_use]
    pub fn undecided(&self) -> usize {
        self.undecided
    }

    /// How far the state is from univalence: `min(1 − min_p1, max_p1)`.
    ///
    /// Near 1 for bivalent states (either decision still reachable), near
    /// 0 for univalent ones. The lower-bound adversary maximises this.
    #[must_use]
    pub fn uncertainty(&self) -> f64 {
        (1.0 - self.min_p1).min(self.max_p1)
    }
}

/// The paper's four-way state classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Valence {
    /// Both decisions reachable with substantial probability.
    Bivalent,
    /// Only 0 remains substantially reachable.
    ZeroValent,
    /// Only 1 remains substantially reachable.
    OneValent,
    /// Neither decision can be forced nor excluded.
    NullValent,
}

impl Valence {
    /// `true` for 0-valent or 1-valent.
    #[must_use]
    pub fn is_univalent(self) -> bool {
        matches!(self, Valence::ZeroValent | Valence::OneValent)
    }
}

impl fmt::Display for Valence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Valence::Bivalent => "bivalent",
            Valence::ZeroValent => "0-valent",
            Valence::OneValent => "1-valent",
            Valence::NullValent => "null-valent",
        };
        f.write_str(s)
    }
}

/// Classifies an estimate with the paper's §3.2 thresholds for system size
/// `n` at round `k`: `lo = 1/√n − k/n`, `hi = 1 − 1/√n + k/n`.
#[must_use]
pub fn classify(estimate: &ValencyEstimate, n: usize, k: u32) -> Valence {
    let nf = n as f64;
    let lo = 1.0 / nf.sqrt() - f64::from(k) / nf;
    let hi = 1.0 - 1.0 / nf.sqrt() + f64::from(k) / nf;
    classify_with(estimate, lo, hi)
}

/// Classifies with explicit thresholds (exposed for experiments that study
/// the thresholds themselves).
#[must_use]
pub fn classify_with(estimate: &ValencyEstimate, lo: f64, hi: f64) -> Valence {
    match (estimate.min_p1 < lo, estimate.max_p1 > hi) {
        (true, true) => Valence::Bivalent,
        (true, false) => Valence::ZeroValent,
        (false, true) => Valence::OneValent,
        (false, false) => Valence::NullValent,
    }
}

/// Estimates `min`/`max Pr[decide 1]` from the current state of `world` by
/// forking it `samples` times per probe and resuming each fork (bounded to
/// `horizon` further rounds) under that probe.
///
/// Forks that exceed the horizon count as undecided and contribute ½ —
/// they genuinely are "still open" states.
///
/// The `(probe, sample)` grid is evaluated on
/// [`world.config().threads_value()`](synran_sim::SimConfig::threads)
/// worker threads in one dispatch: one shared snapshot, and each fork
/// driven to completion by [`World::drive`](synran_sim::World::drive).
/// Fork seeds are derived from the `(probe, sample)` index, never from
/// execution order, so the estimate is **bit-for-bit identical for every
/// thread count** (including the serial `threads = 1` path). Committed
/// golden estimates (`crates/adversary/tests/valency_golden.rs`) pin the
/// exact bits.
///
/// # Errors
///
/// Propagates engine errors other than the horizon being reached; with
/// several failing forks, the error of the lowest `(probe, sample)` index
/// is returned regardless of thread count.
///
/// # Panics
///
/// Panics if `probes` is empty or `samples` is zero.
pub fn estimate_valency<P>(
    world: &World<P>,
    probes: &ProbeSet<P>,
    samples: usize,
    horizon: u32,
    seed: u64,
) -> Result<ValencyEstimate, SimError>
where
    P: Process + Clone + Send + Sync,
    P::Msg: Send + Sync,
{
    let estimate = estimate_valency_above(world, probes, samples, horizon, seed, None)?;
    Ok(estimate.expect("no floor, no cutoff"))
}

/// [`estimate_valency`] that gives up as soon as the estimate provably
/// cannot reach an [`uncertainty`](ValencyEstimate::uncertainty) above
/// `floor`, returning `Ok(None)`.
///
/// With a floor, the grid is swept **sample-major**: sweep `s` evaluates
/// sample `s` of every probe, and after each sweep
/// [`uncertainty_bound`] of the partial per-probe sums is compared with
/// the floor. The bound is exact arithmetic (scores are multiples of ½),
/// so a cut estimate is one whose full score would have been `≤ floor`,
/// and an estimate that completes is bit-identical to [`estimate_valency`]
/// — same seeds, same fork outcomes, same [`reduce_outcomes`] fold. Without
/// a floor the whole grid is one dispatch and nothing is cut.
///
/// # Errors
///
/// As [`estimate_valency`], over the forks actually evaluated: a fork the
/// cutoff skipped never reports its error.
///
/// # Panics
///
/// Panics if `probes` is empty or `samples` is zero.
pub(crate) fn estimate_valency_above<P>(
    world: &World<P>,
    probes: &ProbeSet<P>,
    samples: usize,
    horizon: u32,
    seed: u64,
    floor: Option<f64>,
) -> Result<Option<ValencyEstimate>, SimError>
where
    P: Process + Clone + Send + Sync,
    P::Msg: Send + Sync,
{
    assert!(!probes.is_empty(), "need at least one probe");
    assert!(samples > 0, "need at least one sample per probe");
    // Telemetry is observe-only: the span and counters below never touch
    // the fork seeds or the fold, so the estimate is identical with any
    // handle (or none) attached to `world`.
    let telemetry = world.telemetry();
    let _span = telemetry.span("valency.estimate");
    // One work unit per (probe, sample) pair, indexed probe-major as in
    // the serial nested loop. Seeds depend only on the pair's indices.
    let fork_seeds = derive_seed_grid(seed, probes.len(), samples);
    let snapshot = world.snapshot_bounded(horizon);
    let eval = |unit: usize| -> Result<(f64, bool), SimError> {
        let mut fork = snapshot.fork(fork_seeds[unit]);
        let factory = &probes.factories[unit / samples].1;
        let mut adversary = factory(fork_seeds[unit]);
        match fork.drive(&mut adversary) {
            Ok(()) => {
                let report = fork.into_report();
                Ok(match first_decision(&report) {
                    Some(Bit::One) => (1.0, false),
                    Some(Bit::Zero) => (0.0, false),
                    None => (0.5, true),
                })
            }
            Err(SimError::MaxRoundsExceeded { .. }) => {
                // Horizon hit: the fork is abandoned, but its warmed
                // scratch goes back to the snapshot pool for the next
                // sample to re-use.
                fork.retire();
                Ok((0.5, true))
            }
            Err(other) => Err(other),
        }
    };
    // Sweeps of `width` samples across every probe: one sweep of the whole
    // grid without a floor, one sample per sweep with one.
    let width = if floor.is_some() { 1 } else { samples };
    let mut outcomes = vec![(0.0, false); probes.len() * samples];
    let mut sums = vec![0.0; probes.len()];
    for first in (0..samples).step_by(width) {
        let unit = |q: usize| (q / width) * samples + first + q % width;
        let sweep = parallel::try_par_map_in(
            telemetry,
            world.config().threads_value(),
            probes.len() * width,
            |q| eval(unit(q)),
        )?;
        for (q, outcome) in sweep.into_iter().enumerate() {
            outcomes[unit(q)] = outcome;
            sums[q / width] += outcome.0;
        }
        if floor.is_some_and(|floor| uncertainty_bound(&sums, first + width, samples) <= floor) {
            return Ok(None);
        }
    }
    Ok(Some(reduce_outcomes(probes, samples, &outcomes, telemetry)))
}

/// The largest [`uncertainty`](ValencyEstimate::uncertainty) an estimate
/// can still reach once `evaluated` of its `samples` forks per probe are
/// in, given each probe's partial score sum `sums[p]`:
/// `min(1 − min_p S_p/m, max_p (S_p + m − k)/m)`. Each probe's final
/// `Pr[decide 1]` lies in `[S_p/m, (S_p + m − k)/m]`, and uncertainty is
/// monotone in both of its terms. At `evaluated = samples` it equals the
/// final uncertainty bit for bit: the sums are exact in `f64` (multiples
/// of ½), and the arithmetic matches [`reduce_outcomes`].
fn uncertainty_bound(sums: &[f64], evaluated: usize, samples: usize) -> f64 {
    let m = samples as f64;
    let open = (samples - evaluated) as f64;
    let low = sums.iter().map(|&s| s / m).fold(f64::INFINITY, f64::min);
    let high = sums
        .iter()
        .map(|&s| (s + open) / m)
        .fold(f64::NEG_INFINITY, f64::max);
    (1.0 - low).min(high)
}

/// Derives the fork-seed grid for `groups × per_group` work units.
///
/// Byte-identical to deriving
/// `SimRng::new(seed).derive(unit / per_group).derive(unit % per_group).next_u64()`
/// per unit, but each group's substream is derived once and swept,
/// instead of re-deriving the full chain for every unit.
fn derive_seed_grid(seed: u64, groups: usize, per_group: usize) -> Vec<u64> {
    let seeder = SimRng::new(seed);
    let mut out = Vec::with_capacity(groups * per_group);
    for g in 0..groups {
        let group_stream = seeder.derive(g as u64);
        for s in 0..per_group {
            out.push(group_stream.derive(s as u64).next_u64());
        }
    }
    out
}

/// Folds per-unit `(score, undecided)` outcomes into a [`ValencyEstimate`].
///
/// Reduces in unit order: float addition is not associative, so the fold
/// must not depend on completion order. Probe-outcome counters are also
/// tallied here (not in the workers) so they accumulate deterministically.
fn reduce_outcomes<P: Process>(
    probes: &ProbeSet<P>,
    samples: usize,
    outcomes: &[(f64, bool)],
    telemetry: &Telemetry,
) -> ValencyEstimate {
    let mut per_probe = Vec::with_capacity(probes.len());
    let mut undecided_total = 0usize;
    let (mut ones, mut zeros) = (0u64, 0u64);
    for (idx, (name, _)) in probes.factories.iter().enumerate() {
        let mut sum = 0.0;
        for &(score, undecided) in &outcomes[idx * samples..(idx + 1) * samples] {
            sum += score;
            undecided_total += usize::from(undecided);
            if !undecided {
                if score == 1.0 {
                    ones += 1;
                } else {
                    zeros += 1;
                }
            }
        }
        per_probe.push((Arc::clone(name), sum / samples as f64));
    }
    telemetry.incr("valency.estimates", 1);
    telemetry.incr("valency.probe.decided_one", ones);
    telemetry.incr("valency.probe.decided_zero", zeros);
    telemetry.incr("valency.probe.undecided", undecided_total as u64);
    let min_p1 = per_probe
        .iter()
        .map(|&(_, p)| p)
        .fold(f64::INFINITY, f64::min);
    let max_p1 = per_probe
        .iter()
        .map(|&(_, p)| p)
        .fold(f64::NEG_INFINITY, f64::max);
    ValencyEstimate {
        min_p1,
        max_p1,
        per_probe,
        samples_per_probe: samples,
        undecided: undecided_total,
    }
}

fn first_decision(report: &synran_sim::RunReport) -> Option<Bit> {
    report.non_faulty().find_map(|pid| report.decision_of(pid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_core::{ConsensusProtocol, SynRan};
    use synran_sim::{Bit, Intervention, ProcessId, SimConfig};

    fn world_with_inputs(n: usize, t: usize, ones: usize, seed: u64) -> World<SynRanProcess> {
        let protocol = SynRan::new();
        World::new(
            SimConfig::new(n).faults(t).seed(seed).max_rounds(5_000),
            |pid| protocol.spawn(pid, n, Bit::from(pid.index() < ones)),
        )
        .unwrap()
    }

    #[test]
    fn unanimous_one_state_estimates_one_valent() {
        let world = world_with_inputs(12, 4, 12, 1);
        let probes = ProbeSet::synran(3);
        let est = estimate_valency(&world, &probes, 6, 50, 42).unwrap();
        // Validity pins the decision to 1 whatever the (fail-stop) probe.
        assert_eq!(est.min_p1(), 1.0, "{est:?}");
        assert_eq!(est.max_p1(), 1.0);
        assert!(est.uncertainty() < 0.01);
        assert_eq!(classify_with(&est, 0.2, 0.8), Valence::OneValent);
    }

    #[test]
    fn unanimous_zero_state_estimates_zero_valent() {
        let world = world_with_inputs(12, 4, 0, 2);
        let probes = ProbeSet::synran(3);
        let est = estimate_valency(&world, &probes, 6, 50, 43).unwrap();
        assert_eq!(est.max_p1(), 0.0, "{est:?}");
        assert_eq!(classify_with(&est, 0.2, 0.8), Valence::ZeroValent);
    }

    #[test]
    fn split_state_is_open() {
        // Probes strong enough to clear one whole side per round (cap = 8)
        // make both outcomes reachable from an even 8/8 split.
        let world = world_with_inputs(16, 8, 8, 3);
        let probes = ProbeSet::synran(8);
        let est = estimate_valency(&world, &probes, 10, 100, 44).unwrap();
        // With kill-ones and kill-zeros probes available, both outcomes
        // must be reachable from an even split.
        assert!(est.min_p1() < 0.5, "min {}", est.min_p1());
        assert!(est.max_p1() > 0.5, "max {}", est.max_p1());
        assert!(est.uncertainty() > 0.3, "{est:?}");
        assert_eq!(classify_with(&est, 0.45, 0.55), Valence::Bivalent);
    }

    #[test]
    fn classification_table_is_exhaustive() {
        let mk = |min_p1: f64, max_p1: f64| ValencyEstimate {
            min_p1,
            max_p1,
            per_probe: vec![],
            samples_per_probe: 1,
            undecided: 0,
        };
        assert_eq!(classify_with(&mk(0.0, 1.0), 0.1, 0.9), Valence::Bivalent);
        assert_eq!(classify_with(&mk(0.0, 0.5), 0.1, 0.9), Valence::ZeroValent);
        assert_eq!(classify_with(&mk(0.5, 1.0), 0.1, 0.9), Valence::OneValent);
        assert_eq!(classify_with(&mk(0.5, 0.5), 0.1, 0.9), Valence::NullValent);
        assert!(Valence::ZeroValent.is_univalent());
        assert!(Valence::OneValent.is_univalent());
        assert!(!Valence::Bivalent.is_univalent());
        assert!(!Valence::NullValent.is_univalent());
    }

    #[test]
    fn paper_thresholds_shrink_with_round() {
        let mk = |min_p1: f64, max_p1: f64| ValencyEstimate {
            min_p1,
            max_p1,
            per_probe: vec![],
            samples_per_probe: 1,
            undecided: 0,
        };
        // At round k = 0 with n = 100: lo = 0.1; a min of 0.05 is "0 still
        // reachable". By round k = 10, lo = 0.1 − 0.1 = 0 and nothing is
        // below it: the classification tightens exactly as in §3.2.
        let est = mk(0.05, 0.5);
        assert_eq!(classify(&est, 100, 0), Valence::ZeroValent);
        assert_eq!(classify(&est, 100, 10), Valence::NullValent);
    }

    #[test]
    fn estimator_is_deterministic_per_seed() {
        let world = world_with_inputs(10, 5, 5, 7);
        let probes = ProbeSet::synran(2);
        let a = estimate_valency(&world, &probes, 5, 60, 9).unwrap();
        let b = estimate_valency(&world, &probes, 5, 60, 9).unwrap();
        assert_eq!(a, b);
        // The estimate is also invariant under the worker-thread count:
        // the same world evaluated with 1, 2, and 8 threads must agree
        // bit for bit (f64 equality via PartialEq).
        for threads in [1usize, 2, 8] {
            let threaded = World::new(
                SimConfig::new(10)
                    .faults(5)
                    .seed(7)
                    .max_rounds(5_000)
                    .threads(threads),
                |pid| SynRan::new().spawn(pid, 10, Bit::from(pid.index() < 5)),
            )
            .unwrap();
            let est = estimate_valency(&threaded, &probes, 5, 60, 9).unwrap();
            assert_eq!(est, a, "threads = {threads}");
        }
    }

    #[test]
    fn estimate_shares_interned_probe_names() {
        // Probe names are interned as `Arc<str>`: the estimate's per-probe
        // rows must point at the same allocations as the `ProbeSet`, not
        // fresh string copies (the old hot-path `String` clone).
        let world = world_with_inputs(6, 2, 3, 11);
        let probes = ProbeSet::synran(2);
        let est = estimate_valency(&world, &probes, 2, 40, 3).unwrap();
        assert_eq!(est.per_probe().len(), probes.len());
        for ((est_name, _), (set_name, _)) in est.per_probe().iter().zip(&probes.factories) {
            assert!(
                Arc::ptr_eq(est_name, set_name),
                "per_probe name {est_name:?} should share the ProbeSet allocation"
            );
        }
    }

    #[test]
    fn seed_grid_matches_per_unit_chain() {
        let seeder = SimRng::new(0xABCD);
        let per_unit: Vec<u64> = (0..4 * 7)
            .map(|unit| {
                seeder
                    .derive((unit / 7) as u64)
                    .derive((unit % 7) as u64)
                    .next_u64()
            })
            .collect();
        assert_eq!(derive_seed_grid(0xABCD, 4, 7), per_unit);
    }

    #[test]
    fn cutoff_bound_never_undercuts_the_final_uncertainty() {
        // Fixed-seed property: for random outcome grids (probe counts 1–5,
        // 1–9 samples, per-probe biases from always-0 to always-1, with
        // undecided ½ scores mixed in), the bound after every sweep prefix
        // is ≥ the final uncertainty, and after the last sweep it *is* the
        // final uncertainty, bit for bit.
        let mut rng = SimRng::new(0xB0D);
        for _ in 0..5_000 {
            let groups = 1 + rng.index(5);
            let samples = 1 + rng.index(9);
            let mut probes: ProbeSet<SynRanProcess> = ProbeSet::new();
            for g in 0..groups {
                probes = probes.with_probe(format!("p{g}"), |_| Box::new(Passive));
            }
            let mut outcomes = Vec::with_capacity(groups * samples);
            for _ in 0..groups {
                let bias = rng.index(5) as f64 / 4.0;
                for _ in 0..samples {
                    outcomes.push(if rng.chance(0.2) {
                        (0.5, true)
                    } else {
                        (if rng.chance(bias) { 1.0 } else { 0.0 }, false)
                    });
                }
            }
            let exact =
                reduce_outcomes(&probes, samples, &outcomes, &Telemetry::off()).uncertainty();
            for evaluated in 0..=samples {
                let sums: Vec<f64> = (0..groups)
                    .map(|g| {
                        outcomes[g * samples..g * samples + evaluated]
                            .iter()
                            .map(|&(score, _)| score)
                            .sum()
                    })
                    .collect();
                let bound = uncertainty_bound(&sums, evaluated, samples);
                assert!(
                    bound >= exact,
                    "bound {bound} < final {exact} after {evaluated}/{samples}: {outcomes:?}"
                );
                if evaluated == samples {
                    assert_eq!(bound.to_bits(), exact.to_bits());
                }
            }
        }
    }

    #[test]
    fn cutoff_is_exact_on_random_candidates() {
        // Random lower-bound-style candidates — a paused world, a random
        // kill set delivered on a fork — scored fully and with floors
        // around the full score: the cutoff fires exactly when the full
        // score is ≤ the floor, and an estimate that completes is the full
        // estimate, bit for bit.
        let protocol = SynRan::new();
        let probes = ProbeSet::synran(3);
        let mut rng = SimRng::new(0xCA7);
        let mut cut = 0;
        for trial in 0..24u64 {
            let n = 8 + rng.index(13);
            let mut world = World::new(
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(trial)
                    .max_rounds(5_000),
                |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
            )
            .unwrap();
            world.phase_a().unwrap();
            let alive: Vec<ProcessId> = world.alive_ids().collect();
            let kills = rng.index(alive.len().min(5) + 1);
            let candidate = Intervention::kill_all_silent(
                rng.sample_indices(alive.len(), kills)
                    .into_iter()
                    .map(|i| alive[i]),
            );
            let mut fork = world.fork_bounded(trial, 30);
            fork.deliver(candidate).unwrap();
            let samples = 1 + rng.index(5);
            let full = estimate_valency(&fork, &probes, samples, 30, trial).unwrap();
            let score = full.uncertainty();
            for floor in [
                score - 0.5,
                score - 0.125,
                score - 1e-9,
                score,
                score + 0.125,
            ] {
                let above = estimate_valency_above(&fork, &probes, samples, 30, trial, Some(floor))
                    .unwrap();
                match above {
                    None => {
                        assert!(score <= floor, "cut at floor {floor}, full score {score}");
                        cut += 1;
                    }
                    Some(est) => {
                        assert!(score > floor, "floor {floor} not cut, full score {score}");
                        assert_eq!(est, full);
                    }
                }
            }
        }
        assert!(cut > 0, "no floor ever cut");
    }

    #[test]
    fn probe_set_builders() {
        let generic: ProbeSet<SynRanProcess> = ProbeSet::generic(2);
        assert_eq!(generic.len(), 2);
        let syn = ProbeSet::synran(2);
        assert_eq!(syn.len(), 4);
        assert!(!syn.is_empty());
        assert!(ProbeSet::<SynRanProcess>::new().is_empty());
        let dbg = format!("{syn:?}");
        assert!(
            dbg.contains("kill-ones") && dbg.contains("balancer"),
            "{dbg}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn empty_probe_set_rejected() {
        let world = world_with_inputs(4, 0, 2, 0);
        let _ = estimate_valency(&world, &ProbeSet::new(), 1, 10, 0);
    }
}
