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
//!
//! A fork is scored by its lowest-pid process that has not failed, and it
//! stops as soon as that process decides. Randomness is the only thing
//! that moves a valency: a fork that flips no coin, under a probe that
//! reads no seed, is one outcome, not a sample, so it runs once and
//! stands for every sample of its probe. Replication changes no estimate;
//! the early stop changes only a fork that decided inside the horizon but
//! would have finished outside it (see [`estimate_valency`]).

use std::fmt;
use std::sync::Arc;

use synran_core::SynRanProcess;
use synran_sim::{
    Adversary, Bit, Intervention, Passive, Process, ProcessId, SimError, SimRng, Telemetry, World,
};

use crate::{Balancer, PreferenceKiller};

/// A boxed, dynamically-dispatched adversary.
///
/// `Send` so that an adversary holding probes can run on any worker
/// thread of a batch.
pub type BoxedAdversary<P> = Box<dyn Adversary<P> + Send>;

/// A named factory producing a fresh probe adversary per fork.
///
/// `Send + Sync` so that the adversary holding them is too. Names are
/// interned `Arc<str>`: estimates
/// carry a refcount bump per probe instead of cloning a `String` on the
/// hottest path.
type ProbeFactory<P> = (Arc<str>, Box<dyn Fn() -> BoxedAdversary<P> + Send + Sync>);

/// A family of reference adversaries used as probes for `min`/`max`
/// `Pr[decide 1]`.
///
/// Each probe is a named factory, so stateful adversaries start fresh per
/// fork. A factory takes no seed, and a probe must not read
/// [`World::seed`]: its play depends only on the world it sees. That is
/// what lets the estimator run a fork that draws no coin once for all of
/// its probe's samples (see [`estimate_valency`]).
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
        factory: impl Fn() -> BoxedAdversary<P> + Send + Sync + 'static,
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
            .with_probe("passive", || Box::new(Passive))
            .with_probe("kill-ones", move || {
                Box::new(PreferenceKiller::new(Bit::One, per_round))
            })
            .with_probe("kill-zeros", move || {
                Box::new(PreferenceKiller::new(Bit::Zero, per_round))
            })
            .with_probe("balancer", move || Box::new(Balancer::with_cap(per_round)))
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
    forks_driven: usize,
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

    /// Samples whose fork had no decision to score within the horizon
    /// (scored as ½).
    #[must_use]
    pub fn undecided(&self) -> usize {
        self.undecided
    }

    /// Forks actually built and driven: at most probes × samples, less
    /// wherever a probe's fork drew no coin and stood for every one of
    /// its samples. A work count, not telemetry: it is the same whatever
    /// telemetry handle is attached.
    #[must_use]
    pub fn forks_driven(&self) -> usize {
        self.forks_driven
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
/// **Scoring.** A fork is scored by the decision of its lowest-pid
/// process that has not failed, and it stops as soon as that process
/// holds one: 1 for a decided 1, 0 for a decided 0. Decisions are
/// irrevocable, so the score cannot change after that point. A fork
/// whose scoring process has not decided within the horizon (or whose
/// every process failed) counts as undecided and contributes ½ — it
/// genuinely is a "still open" state. A fork that decided inside the
/// horizon but would have finished only after it therefore scores its
/// value, not ½.
///
/// **Replication.** A probe's sample-0 fork that drew no coin
/// ([`World::coins`] is zero) played out without reading its seed, and probes
/// do not read seeds either (see [`ProbeSet`]). So every other sample of
/// that probe would replay it bit for bit: its outcome fills them all and
/// their forks are never built ([`ValencyEstimate::forks_driven`]). The
/// estimate is the one running every fork would give.
///
/// The `(probe, sample)` grid is evaluated serially on the calling thread
/// (parallelism lives one level up, across runs): each unit is a fork of
/// `world` driven by [`World::drive_until`] until its scoring process
/// decides or its round passes `world.round() + horizon`; the world's own
/// round limit bounds it too. Fork seeds are derived from the
/// `(probe, sample)` index, so the estimate is **bit-for-bit identical
/// whatever thread count `world` is configured with**. Committed golden
/// estimates (`crates/adversary/tests/valency_golden.rs`) pin the exact
/// bits.
///
/// # Errors
///
/// Propagates engine errors other than the horizon being reached: the
/// error of the lowest `(probe, sample)` index.
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
    let last = world.round().index().saturating_add(horizon);
    let (estimate, _) = sweep_probes(world, probes, samples, last, seed, None)?;
    Ok(estimate.expect("no floor, no cutoff"))
}

/// Scores a candidate: the valency estimate of the state `intervention`
/// leaves `world` in, or `None` once it provably cannot reach an
/// [`uncertainty`](ValencyEstimate::uncertainty) above `floor`, with the
/// forks driven either way.
///
/// `world` is forked once with `seed` and the intervention delivered on
/// that fork, which records no telemetry (forks are detached); the probe
/// sweep forks it again from the seed `seed ^ 0x5EED`. Rollouts stop once
/// their round passes `world.round() + horizon`.
///
/// With a floor the grid is swept **sample-major**: after sweep `s`
/// (sample `s` of every probe not yet fully known; a replicated probe is
/// known after sweep 0), [`uncertainty_bound`] of the known per-probe sums
/// is compared with the floor. The bound is exact (scores are multiples of
/// ½), so a cut estimate's full score is `≤ floor`, and an estimate that
/// completes is bit-identical to the one without a floor.
///
/// # Errors
///
/// The delivery's error, or as [`estimate_valency`] over the forks
/// actually driven.
///
/// # Panics
///
/// As [`estimate_valency`].
pub(crate) fn estimate_after<P: Process + Clone>(
    world: &World<P>,
    intervention: &Intervention,
    probes: &ProbeSet<P>,
    samples: usize,
    horizon: u32,
    seed: u64,
    floor: Option<f64>,
) -> Result<(Option<ValencyEstimate>, usize), SimError> {
    let mut base = world.fork(seed);
    base.deliver(intervention.clone())?;
    let last = world.round().index().saturating_add(horizon);
    let scored = sweep_probes(&base, probes, samples, last, seed ^ 0x5EED, floor);
    base.retire();
    scored
}

/// The probe sweep behind [`estimate_valency`] and [`estimate_after`], on
/// forks of `base` that stop once their round passes `last`; it records
/// into `base`'s telemetry handle.
fn sweep_probes<P: Process + Clone>(
    base: &World<P>,
    probes: &ProbeSet<P>,
    samples: usize,
    last: u32,
    seed: u64,
    floor: Option<f64>,
) -> Result<(Option<ValencyEstimate>, usize), SimError> {
    assert!(!probes.is_empty(), "need at least one probe");
    assert!(samples > 0, "need at least one sample per probe");
    // Telemetry is observe-only: the span and counters below never touch
    // the fork seeds or the fold, so the estimate is identical with any
    // handle (or none) attached to `base`.
    let telemetry = base.telemetry();
    let _span = telemetry.span("valency.estimate");
    // One work unit per (probe, sample) pair, indexed probe-major as in
    // the serial nested loop. Seeds depend only on the pair's indices.
    let fork_seeds = derive_seed_grid(seed, probes.len(), samples);
    // A unit's `(score, undecided)` outcome, and the coins its fork drew.
    let eval = |unit: usize| -> Result<((f64, bool), u64), SimError> {
        let mut fork = base.fork(fork_seeds[unit]);
        let mut adversary = (probes.factories[unit / samples].1)();
        let stop = |w: &World<P>| w.round().index() > last || scoring_decision(w).is_some();
        let outcome = match fork.drive_until(&mut adversary, stop) {
            Ok(()) => match scoring_decision(&fork) {
                Some(Bit::One) => (1.0, false),
                Some(Bit::Zero) => (0.0, false),
                None => (0.5, true),
            },
            // Past the world's own round limit: undecided, as past `last`.
            Err(SimError::MaxRoundsExceeded { .. }) => (0.5, true),
            Err(other) => return Err(other),
        };
        let coins = fork.coins();
        // The fork's warmed scratch goes back to the shared pool for the
        // next sample to re-use.
        fork.retire();
        Ok((outcome, coins))
    };
    // Sweeps of `width` samples across every probe, probe-major: one sweep
    // of the whole grid without a floor, one sample per sweep with one.
    // `known[p]` counts probe `p`'s samples whose outcome is in.
    let width = if floor.is_some() { 1 } else { samples };
    let mut outcomes = vec![(0.0, false); probes.len() * samples];
    let mut sums = vec![0.0; probes.len()];
    let mut known = vec![0; probes.len()];
    let mut forks_driven = 0;
    for first in (0..samples).step_by(width) {
        for q in 0..probes.len() * width {
            let (probe, sample) = (q / width, first + q % width);
            if sample < known[probe] {
                continue;
            }
            let (outcome, coins) = eval(probe * samples + sample)?;
            forks_driven += 1;
            // A fork that drew no coin stands for every sample of its
            // probe still to come: each would replay it bit for bit.
            let last = if coins == 0 { samples } else { sample + 1 };
            for slot in &mut outcomes[probe * samples + sample..probe * samples + last] {
                *slot = outcome;
                sums[probe] += outcome.0;
            }
            known[probe] = last;
        }
        if floor.is_some_and(|floor| uncertainty_bound(&sums, &known, samples) <= floor) {
            return Ok((None, forks_driven));
        }
    }
    let estimate = reduce_outcomes(probes, samples, &outcomes, forks_driven, telemetry);
    Ok((Some(estimate), forks_driven))
}

/// The value a valency fork is scored by: the decision of its lowest-pid
/// process that has not failed, once it holds one. `None` while that
/// process is undecided, or when every process failed.
fn scoring_decision<P: Process>(world: &World<P>) -> Option<Bit> {
    (0..world.n())
        .map(ProcessId::new)
        .find(|&pid| !world.status(pid).is_failed())
        .and_then(|pid| world.process(pid).decision())
}

/// The largest [`uncertainty`](ValencyEstimate::uncertainty) an estimate
/// can still reach once `known[p]` of probe `p`'s `samples` outcomes are
/// in, given each probe's partial score sum `sums[p]`:
/// `min(1 − min_p S_p/m, max_p (S_p + m − k_p)/m)`. Each probe's final
/// `Pr[decide 1]` lies in `[S_p/m, (S_p + m − k_p)/m]`, and uncertainty
/// is monotone in both of its terms. Once every `k_p = samples` it equals
/// the final uncertainty bit for bit: the sums are exact in `f64`
/// (multiples of ½), and the arithmetic matches [`reduce_outcomes`].
fn uncertainty_bound(sums: &[f64], known: &[usize], samples: usize) -> f64 {
    let m = samples as f64;
    let low = sums.iter().map(|&s| s / m).fold(f64::INFINITY, f64::min);
    let high = sums
        .iter()
        .zip(known)
        .map(|(&s, &k)| (s + (samples - k) as f64) / m)
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

/// Folds per-unit `(score, undecided)` outcomes, `forks_driven` of which
/// were driven, into a [`ValencyEstimate`].
///
/// Reduces in unit order: float addition is not associative, so the fold
/// must follow one fixed order. Probe-outcome counters are also tallied
/// here, once per estimate.
fn reduce_outcomes<P: Process>(
    probes: &ProbeSet<P>,
    samples: usize,
    outcomes: &[(f64, bool)],
    forks_driven: usize,
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
        forks_driven,
    }
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
            forks_driven: 0,
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
            forks_driven: 0,
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
        // undecided ½ scores mixed in, and some probes replicated — one
        // outcome in every sample, all known after sweep 0), the bound
        // after every sweep prefix is ≥ the final uncertainty, and after
        // the last sweep it *is* the final uncertainty, bit for bit.
        let mut rng = SimRng::new(0xB0D);
        for _ in 0..5_000 {
            let groups = 1 + rng.index(5);
            let samples = 1 + rng.index(9);
            let mut probes: ProbeSet<SynRanProcess> = ProbeSet::new();
            for g in 0..groups {
                probes = probes.with_probe(format!("p{g}"), || Box::new(Passive));
            }
            let replicated: Vec<bool> = (0..groups).map(|_| rng.chance(0.4)).collect();
            let mut outcomes = Vec::with_capacity(groups * samples);
            for &copies in &replicated {
                let bias = rng.index(5) as f64 / 4.0;
                for s in 0..samples {
                    outcomes.push(if copies && s > 0 {
                        outcomes[outcomes.len() - 1]
                    } else if rng.chance(0.2) {
                        (0.5, true)
                    } else {
                        (if rng.chance(bias) { 1.0 } else { 0.0 }, false)
                    });
                }
            }
            let exact =
                reduce_outcomes(&probes, samples, &outcomes, 0, &Telemetry::off()).uncertainty();
            for evaluated in 0..=samples {
                let known: Vec<usize> = replicated
                    .iter()
                    .map(|&copies| {
                        if copies && evaluated > 0 {
                            samples
                        } else {
                            evaluated
                        }
                    })
                    .collect();
                let sums: Vec<f64> = (0..groups)
                    .map(|g| {
                        outcomes[g * samples..g * samples + known[g]]
                            .iter()
                            .map(|&(score, _)| score)
                            .sum()
                    })
                    .collect();
                let bound = uncertainty_bound(&sums, &known, samples);
                assert!(
                    bound >= exact,
                    "bound {bound} < final {exact} at {known:?}/{samples}: {outcomes:?}"
                );
                if evaluated == samples {
                    assert_eq!(bound.to_bits(), exact.to_bits());
                }
            }
        }
    }

    #[test]
    fn cutoff_is_exact_on_random_candidates() {
        // Random lower-bound-style candidates — a paused world and a random
        // kill set — scored fully and with floors around the full score:
        // the cutoff fires exactly when the full score is ≤ the floor, a
        // cut estimate drove no more forks than the full one, and an
        // estimate that completes is the full estimate, bit for bit.
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
            let samples = 1 + rng.index(5);
            let score_above = |floor| {
                estimate_after(&world, &candidate, &probes, samples, 30, trial, floor).unwrap()
            };
            let (full, full_forks) = score_above(None);
            let full = full.unwrap();
            assert_eq!(full_forks, full.forks_driven());
            let score = full.uncertainty();
            for floor in [
                score - 0.5,
                score - 0.125,
                score - 1e-9,
                score,
                score + 0.125,
            ] {
                match score_above(Some(floor)) {
                    (None, forks) => {
                        assert!(score <= floor, "cut at floor {floor}, full score {score}");
                        assert!(forks <= full_forks, "{forks} > {full_forks}");
                        cut += 1;
                    }
                    (Some(est), forks) => {
                        assert!(score > floor, "floor {floor} not cut, full score {score}");
                        assert_eq!((est, forks), (full.clone(), full_forks));
                    }
                }
            }
        }
        assert!(cut > 0, "no floor ever cut");
    }

    /// Every `(probe, sample)` fork driven until it decides or its round
    /// passes `last`, and folded, none replicated: the estimate the
    /// estimator must equal bit for bit.
    fn reference_estimate<P>(
        world: &World<P>,
        probes: &ProbeSet<P>,
        samples: usize,
        last: u32,
        seed: u64,
    ) -> ValencyEstimate
    where
        P: Process + Clone,
    {
        let fork_seeds = derive_seed_grid(seed, probes.len(), samples);
        let outcomes: Vec<(f64, bool)> = (0..probes.len() * samples)
            .map(|unit| {
                let mut fork = world.fork(fork_seeds[unit]);
                let mut adversary = (probes.factories[unit / samples].1)();
                fork.drive_until(&mut adversary, |w| {
                    w.round().index() > last || scoring_decision(w).is_some()
                })
                .expect("reference fork failed");
                match scoring_decision(&fork) {
                    Some(bit) => (f64::from(u8::from(bit.is_one())), false),
                    None => (0.5, true),
                }
            })
            .collect();
        reduce_outcomes(
            probes,
            samples,
            &outcomes,
            outcomes.len(),
            &Telemetry::off(),
        )
    }

    #[test]
    fn replication_matches_running_every_fork() {
        // Random mid-run worlds: near-even inputs, up to one passive round,
        // then a random candidate kill set on a fork, probed at caps from
        // n/4 to 3n/4. The estimate equals the every-fork reference bit
        // for bit, and with floors around its score the cutoff fires
        // exactly when the score is ≤ the floor.
        let protocol = SynRan::new();
        let mut rng = SimRng::new(0x5EED);
        let (mut replicated, mut sampled, mut cut) = (0, 0, 0);
        for trial in 0..32u64 {
            let n = 8 + rng.index(25);
            let ones = n / 2 + rng.index(3);
            let cap = n / 4 + rng.index(n / 2);
            let mut world = World::new(
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(trial)
                    .max_rounds(5_000),
                |pid| protocol.spawn(pid, n, Bit::from(pid.index() < ones)),
            )
            .unwrap();
            for _ in 0..rng.index(2) {
                world.phase_a().unwrap();
                world.deliver(Intervention::none()).unwrap();
            }
            world.phase_a().unwrap();
            let alive: Vec<ProcessId> = world.alive_ids().collect();
            let kills = rng.index(3);
            let candidate = Intervention::kill_all_silent(
                rng.sample_indices(alive.len(), kills)
                    .into_iter()
                    .map(|i| alive[i]),
            );
            let probes = ProbeSet::synran(cap);
            let samples = 2 + rng.index(6);
            let score_above = |floor| {
                estimate_after(&world, &candidate, &probes, samples, 30, trial, floor).unwrap()
            };
            let est = score_above(None).0.unwrap();
            // The reference delivers the candidate on its own fork, one
            // round past the world: rollouts stop after the same round.
            let mut fork = world.fork(trial);
            fork.deliver(candidate.clone()).unwrap();
            let last = world.round().index() + 30;
            let reference = reference_estimate(&fork, &probes, samples, last, trial ^ 0x5EED);
            assert_eq!(reference.forks_driven(), probes.len() * samples);
            assert_eq!(
                ValencyEstimate {
                    forks_driven: reference.forks_driven(),
                    ..est.clone()
                },
                reference,
                "trial {trial}"
            );
            // forks = r + (probes − r)·samples for r replicated probes.
            let r = (probes.len() * samples - est.forks_driven()) / (samples - 1);
            replicated += r;
            sampled += probes.len() - r;
            let score = reference.uncertainty();
            for floor in [score - 0.5, score - 1e-9, score, score + 0.125] {
                match score_above(Some(floor)).0 {
                    None => {
                        assert!(score <= floor, "cut at floor {floor}, full score {score}");
                        cut += 1;
                    }
                    Some(above) => {
                        assert!(score > floor, "floor {floor} not cut, full score {score}");
                        assert_eq!(above, est);
                    }
                }
            }
        }
        assert!(replicated > 0, "no probe ran coin-free");
        assert!(sampled > 0, "no probe drew a coin");
        assert!(cut > 0, "no floor ever cut");
    }

    /// Broadcasts its input; decides it after `decide` rounds and halts
    /// after `halt`. Once a message has gone missing it asks for its coin
    /// stream in every `send`, and ignores what it gets.
    #[derive(Debug, Clone)]
    struct Steady {
        input: Bit,
        decide: u32,
        halt: u32,
        elapsed: u32,
        lost: bool,
    }

    impl Steady {
        fn world(n: usize, decide: u32, halt: u32) -> World<Steady> {
            World::new(SimConfig::new(n).faults(n - 1).seed(1), |_| Steady {
                input: Bit::One,
                decide,
                halt,
                elapsed: 0,
                lost: false,
            })
            .unwrap()
        }
    }

    impl Process for Steady {
        type Msg = Bit;

        fn send(&mut self, ctx: &mut synran_sim::Context<'_>) -> synran_sim::SendPattern<Bit> {
            if self.lost {
                let _ = ctx.rng();
            }
            synran_sim::SendPattern::Broadcast(self.input)
        }

        fn receive(&mut self, ctx: &mut synran_sim::Context<'_>, inbox: &synran_sim::Inbox<Bit>) {
            self.elapsed += 1;
            self.lost |= inbox.len() < ctx.n();
        }

        fn decision(&self) -> Option<Bit> {
            (self.elapsed >= self.decide).then_some(self.input)
        }

        fn halted(&self) -> bool {
            self.elapsed >= self.halt
        }
    }

    #[test]
    fn asking_for_the_rng_clears_replication_for_that_probe() {
        // Passive play loses no message, so no `Steady` asks for its
        // stream: one fork stands for all five samples. Under the killer a
        // message goes missing in round 1 and every process asks (and
        // ignores the answer) from round 2 on: all five forks run, though
        // they play out the same.
        let probes: ProbeSet<Steady> = ProbeSet::new()
            .with_probe("passive", || Box::new(Passive))
            .with_probe("killer", || Box::new(crate::RandomKiller::new(1, 0)));
        let est = estimate_valency(&Steady::world(6, 3, 3), &probes, 5, 20, 7).unwrap();
        assert_eq!(est.forks_driven(), 1 + 5);
        assert_eq!((est.min_p1(), est.max_p1(), est.undecided()), (1.0, 1.0, 0));
        // The control: decided before the killer's loss is noticed, every
        // fork stops coin-free.
        let est = estimate_valency(&Steady::world(6, 1, 3), &probes, 5, 20, 7).unwrap();
        assert_eq!(est.forks_driven(), 2);
    }

    #[test]
    fn a_fork_decided_inside_the_horizon_scores_its_value() {
        // Every process decides 1 after one round but runs for 50: the
        // fork stops at its decision, so a horizon of 5 scores 1, where a
        // fork driven to completion would have hit the horizon and scored
        // ½. Deciding after 10 rounds is past the horizon: ½, undecided.
        let probes: ProbeSet<Steady> = ProbeSet::new().with_probe("passive", || Box::new(Passive));
        let est = estimate_valency(&Steady::world(4, 1, 50), &probes, 3, 5, 2).unwrap();
        assert_eq!((est.min_p1(), est.max_p1(), est.undecided()), (1.0, 1.0, 0));
        let est = estimate_valency(&Steady::world(4, 10, 50), &probes, 3, 5, 2).unwrap();
        assert_eq!((est.min_p1(), est.max_p1(), est.undecided()), (0.5, 0.5, 3));
    }

    #[test]
    fn candidate_rollouts_run_through_the_candidates_round_plus_the_horizon() {
        // Every process decides 1 after six rounds. The candidate completes
        // the paused world's round 1, and its rollouts may run through
        // round 1 + horizon: a horizon of 5 reaches the decision, 4 stops
        // one round short and scores ½, as estimating the paused world
        // itself does. A candidate that cannot be delivered is an error.
        let probes: ProbeSet<Steady> = ProbeSet::new().with_probe("passive", || Box::new(Passive));
        let mut world = Steady::world(4, 6, 50);
        world.phase_a().unwrap();
        let none = Intervention::none();
        for (horizon, p1, undecided) in [(5, 1.0, 0), (4, 0.5, 3)] {
            let (est, forks) = estimate_after(&world, &none, &probes, 3, horizon, 2, None).unwrap();
            let est = est.unwrap();
            assert_eq!((est.min_p1(), est.undecided(), forks), (p1, undecided, 1));
            let paused = estimate_valency(&world, &probes, 3, horizon, 2).unwrap();
            assert_eq!(paused.min_p1(), p1, "horizon {horizon}");
        }
        let everyone = Intervention::kill_all_silent(world.alive_ids().collect::<Vec<_>>());
        assert!(estimate_after(&world, &everyone, &probes, 3, 5, 2, None).is_err());
    }

    #[test]
    fn e3_fixture_fork_count_is_pinned() {
        // E3's shape at n = 32: split inputs, the paper cap, E3's probe
        // horizon, 8 samples, scored from the paused round-1 world.
        // Running every fork drives probes × samples = 32, as the
        // estimator did before coin-free forks were replicated; here
        // passive and kill-ones run coin-free (one fork each), kill-zeros
        // and the balancer draw coins (eight each).
        let n = 32;
        let (cap, horizon) = (crate::paper_cap(n), crate::probe_horizon(n));
        let mut world = world_with_inputs(n, n - 1, n / 2, 3);
        world.phase_a().unwrap();
        let probes = ProbeSet::synran(cap);
        let est = estimate_valency(&world, &probes, 8, horizon, 3).unwrap();
        assert!(est.forks_driven() < probes.len() * 8);
        assert_eq!(est.forks_driven(), 18, "{est:?}");
        // A work count, not telemetry: the same with telemetry attached.
        world.set_telemetry(Telemetry::new(synran_sim::TelemetryMode::Counters));
        let counted = estimate_valency(&world, &probes, 8, horizon, 3).unwrap();
        assert_eq!(counted, est);
    }

    #[test]
    fn probe_set_builders() {
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
