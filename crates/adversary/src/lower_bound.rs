//! The §3 lower-bound adversary: keep the execution bi- or null-valent.
//!
//! The paper's Theorem 1 adversary works round by round: from a bivalent
//! or null-valent state, it finds an intervention of at most
//! `4√(n·log n) + 1` kills after which the state is *still* bivalent or
//! null-valent (Lemma 3.1 for null-valent states via the coin-game bias of
//! §2; the step-by-step message-failing walk of §3.4 for bivalent ones),
//! so with high probability the protocol cannot decide until the fault
//! budget is exhausted — `Ω(t/√(n·log n))` rounds.
//!
//! The unbounded adversary *knows* each candidate's resulting valency.
//! This implementation estimates it: per round it proposes a small set of
//! candidate interventions (do nothing; trim the vote into the coin band;
//! mass-target either preference; the delivery-splitting rescue), scores
//! each by forking the world and measuring
//! [`uncertainty`](crate::ValencyEstimate::uncertainty) under the probe
//! family, and plays the candidate that keeps the future most open. See
//! DESIGN.md's substitution table for why this preserves the forced-rounds
//! shape.

use synran_core::{per_round_kill_budget, StageKind, SynRan, SynRanProcess};
use synran_sim::{
    Adversary, Bit, BitPlane, Intervention, Passive, SimConfig, SimError, SimRng, World,
};

use crate::valency::estimate_after;
use crate::{Balancer, ProbeSet};

/// The paper's per-round kill cap for `n` processes: `⌈4√(n·ln n)⌉ + 1`.
#[must_use]
pub fn paper_cap(n: usize) -> usize {
    per_round_kill_budget(n).ceil() as usize + 1
}

/// The look-ahead the paper-parameterised adversary probes with, in
/// rounds: `⌊3√n⌋ + 20`.
#[must_use]
pub fn probe_horizon(n: usize) -> u32 {
    3 * (n as f64).sqrt() as u32 + 20
}

/// The valency-guided lower-bound adversary for SynRan-family protocols.
///
/// # Examples
///
/// ```no_run
/// use synran_adversary::LowerBoundAdversary;
/// use synran_core::{check_consensus, SynRan};
/// use synran_sim::{Bit, SimConfig};
///
/// let n = 32;
/// let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
/// let verdict = check_consensus(
///     &SynRan::new(),
///     &inputs,
///     SimConfig::new(n).faults(n - 1).seed(1).max_rounds(100_000),
///     &mut LowerBoundAdversary::for_system(n, 1),
/// )?;
/// assert!(verdict.is_correct()); // safety holds; rounds are forced up
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct LowerBoundAdversary {
    per_round_cap: usize,
    samples: usize,
    horizon: u32,
    probes: ProbeSet<SynRanProcess>,
    seeder: SimRng,
    forks_driven: usize,
}

impl LowerBoundAdversary {
    /// The paper's parameterisation for a system of `n` processes:
    /// per-round cap [`paper_cap`], over a [`probe_horizon`] look-ahead,
    /// with probe costs tuned for experiment-scale runs.
    #[must_use]
    pub fn for_system(n: usize, seed: u64) -> LowerBoundAdversary {
        LowerBoundAdversary::with_params(paper_cap(n), 4, probe_horizon(n), seed)
    }

    /// Full control over the estimator: per-round kill cap, forks per
    /// probe, and the look-ahead horizon in rounds.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    pub fn with_params(
        per_round_cap: usize,
        samples: usize,
        horizon: u32,
        seed: u64,
    ) -> LowerBoundAdversary {
        assert!(samples > 0, "need at least one sample per probe");
        LowerBoundAdversary {
            per_round_cap,
            samples,
            horizon,
            probes: ProbeSet::synran(per_round_cap),
            seeder: SimRng::new(seed).derive(0x10E7),
            forks_driven: 0,
        }
    }

    /// The per-round kill cap.
    #[must_use]
    pub fn per_round_cap(&self) -> usize {
        self.per_round_cap
    }

    /// Valency forks driven so far, over every candidate this adversary
    /// scored, the ones the cutoff gave up on included. A work count, not
    /// telemetry: the same whatever handle the world carries.
    #[must_use]
    pub fn forks_driven(&self) -> usize {
        self.forks_driven
    }

    /// Candidate interventions in *preference order*: the structural
    /// stalling move first, doing nothing last. Scoring must beat an
    /// earlier candidate by a clear margin to displace it, so estimator
    /// noise degrades toward the structurally sound play rather than
    /// toward inaction.
    fn candidates(&self, world: &World<SynRanProcess>) -> Vec<Intervention> {
        let cap = self
            .per_round_cap
            .min(world.budget().remaining())
            .min(world.alive_count().saturating_sub(1));
        if cap == 0 {
            return vec![Intervention::none()];
        }

        let n = world.config().n();
        let mut ones = BitPlane::new(n);
        let mut zeros = BitPlane::new(n);
        for pid in world.alive_ids() {
            let p = world.process(pid);
            if matches!(p.stage(), StageKind::Probabilistic | StageKind::Delay) {
                match p.preference() {
                    Bit::One => ones.set(pid.index()),
                    Bit::Zero => zeros.set(pid.index()),
                }
            }
        }

        // The domain-smart move first: whatever the coin-band balancer
        // would do with the same cap.
        let mut out = vec![Balancer::with_cap(cap).intervene(world)];

        // Mass-target each preference, at two intensities: the lowest `k`
        // set bits of each preference plane.
        for group in [&ones, &zeros] {
            for k in [cap / 2, cap] {
                let k = k.min(group.count_ones());
                if k == 0 {
                    continue;
                }
                let iv = Intervention::kill_all_silent(group.ids().take(k));
                if !out.contains(&iv) {
                    out.push(iv);
                }
            }
        }
        if !out.contains(&Intervention::none()) {
            out.push(Intervention::none());
        }
        out
    }
}

impl Adversary<SynRanProcess> for LowerBoundAdversary {
    fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
        let candidates = self.candidates(world);
        if candidates.len() == 1 {
            return candidates.into_iter().next().expect("none candidate");
        }
        let mut best: Option<(f64, Intervention)> = None;
        for (i, candidate) in candidates.into_iter().enumerate() {
            let seed = self
                .seeder
                .derive(world.round().index().into())
                .derive(i as u64)
                .next_u64();
            // A later candidate must beat the incumbent by a clear margin:
            // with few samples the estimates are noisy, and on a near-tie
            // the earlier (structurally stronger) move should stand. The
            // margin is also the cutoff: sampling stops as soon as the
            // candidate provably cannot clear it (exact, so the chosen
            // intervention is the one full scoring would choose).
            let floor = best.as_ref().map(|(bs, _)| bs + 0.125);
            let scored = estimate_after(
                world,
                &candidate,
                &self.probes,
                self.samples,
                self.horizon,
                seed,
                floor,
            );
            // A candidate that fails to deliver (e.g. a stale one that
            // exceeds the budget) is skipped.
            let Ok((est, forks)) = scored else { continue };
            self.forks_driven += forks;
            let Some(est) = est else {
                world.telemetry().incr("adversary.candidates_cut", 1);
                continue;
            };
            let score = est.uncertainty();
            if floor.is_none_or(|floor| score > floor) {
                best = Some((score, candidate));
            }
            // Uncertainty is capped at 1.0, so once the incumbent scores
            // ≥ 0.875 no later candidate can clear the +0.125 margin —
            // skip the remaining candidates outright. Sound because no
            // later decision reads what scoring leaves behind
            // (`seeder.derive` is non-mutating; only the work count grows).
            if matches!(&best, Some((bs, _)) if *bs >= 1.0 - 0.125) {
                break;
            }
        }
        best.map(|(_, iv)| iv).unwrap_or_else(Intervention::none)
    }

    fn name(&self) -> &str {
        "lower-bound"
    }
}

/// Lemma 3.5 operationally: find an input vector whose initial state is
/// *not* univalent, by binary-searching the chain of split inputs
/// `0^n, 10^{n−1}, …, 1^n` for the flip point of the passive-play outcome.
///
/// Adjacent inputs in the chain differ in a single process's input —
/// exactly the chain the paper's proof walks.
///
/// # Errors
///
/// Propagates engine errors from the probing runs.
pub fn find_adversarial_input(
    protocol: &SynRan,
    cfg: &SimConfig,
    samples: usize,
    seed: u64,
) -> Result<Vec<Bit>, SimError> {
    use synran_core::ConsensusProtocol;
    let n = cfg.n();
    let p1_of = |ones: usize, salt: u64| -> Result<f64, SimError> {
        let mut sum = 0.0;
        for s in 0..samples {
            let run_seed = SimRng::new(seed).derive(salt).derive(s as u64).next_u64();
            let mut world = World::new(cfg.clone().seed(run_seed), |pid| {
                protocol.spawn(pid, n, Bit::from(pid.index() < ones))
            })?;
            let report = world.run(&mut Passive)?;
            let first = report.non_faulty().find_map(|pid| report.decision_of(pid));
            if first == Some(Bit::One) {
                sum += 1.0;
            }
        }
        Ok(sum / samples as f64)
    };

    // Validity pins the endpoints: ones = 0 decides 0, ones = n decides 1.
    // Binary-search the smallest `ones` whose passive outcome tips past ½.
    let mut lo = 0usize; // p1 ≈ 0 here
    let mut hi = n; // p1 ≈ 1 here
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if p1_of(mid, mid as u64)? >= 0.5 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok((0..n).map(|i| Bit::from(i < hi)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_valency;
    use synran_core::{check_consensus, ConsensusProtocol};
    use synran_sim::{Telemetry, TelemetryMode};

    #[test]
    fn forces_more_rounds_than_passive() {
        let n = 16;
        let protocol = SynRan::new();
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i < n / 2)).collect();
        let mut passive_rounds = 0u32;
        let mut forced_rounds = 0u32;
        for seed in 0..4 {
            let cfg = SimConfig::new(n)
                .faults(n - 1)
                .seed(seed)
                .max_rounds(50_000);
            let v1 = check_consensus(&protocol, &inputs, cfg.clone(), &mut Passive).unwrap();
            assert!(v1.is_correct());
            passive_rounds += v1.rounds();
            let mut lb = LowerBoundAdversary::with_params(6, 2, 40, seed);
            let v2 = check_consensus(&protocol, &inputs, cfg, &mut lb).unwrap();
            assert!(v2.is_correct(), "seed {seed}: {:?}", v2.violations());
            forced_rounds += v2.rounds();
        }
        assert!(
            forced_rounds > passive_rounds,
            "lower-bound adversary ({forced_rounds}) should outlast passive ({passive_rounds})"
        );
    }

    #[test]
    fn respects_per_round_cap() {
        let n = 12;
        let protocol = SynRan::new();
        let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
        let mut lb = LowerBoundAdversary::with_params(2, 2, 30, 5);
        assert_eq!(lb.per_round_cap(), 2);
        let verdict = check_consensus(
            &protocol,
            &inputs,
            SimConfig::new(n).faults(n - 1).seed(5).max_rounds(50_000),
            &mut lb,
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert!(verdict
            .report()
            .kills_per_round()
            .iter()
            .all(|&(_, k)| k <= 2));
    }

    #[test]
    fn for_system_uses_paper_cap() {
        let lb = LowerBoundAdversary::for_system(100, 0);
        assert_eq!(
            lb.per_round_cap(),
            per_round_kill_budget(100).ceil() as usize + 1
        );
        assert_eq!(lb.per_round_cap(), paper_cap(100));
        assert_eq!(lb.horizon, probe_horizon(100));
        assert_eq!(probe_horizon(100), 50);
    }

    #[test]
    fn adversarial_input_is_near_the_flip_point() {
        let protocol = SynRan::new();
        let cfg = SimConfig::new(10).max_rounds(5_000);
        let inputs = find_adversarial_input(&protocol, &cfg, 3, 7).unwrap();
        assert_eq!(inputs.len(), 10);
        let ones = inputs.iter().filter(|b| b.is_one()).count();
        // Fault-free SynRan's passive flip point sits near the middle band.
        assert!((2..=8).contains(&ones), "flip at {ones}");
        // The chain property: the returned input is a prefix-split.
        for w in inputs.windows(2) {
            assert!(w[0] >= w[1], "must be ones-then-zeros");
        }
    }

    /// Scores every candidate fully, with no short-circuit — the
    /// exhaustive loop `intervene` ran before the ≥ 0.875 early break and
    /// the losing-candidate cutoff landed. Both shortcuts are exact
    /// (uncertainty is capped at 1.0, the margin is +0.125, and the cutoff
    /// bound is exact arithmetic), so the two must pick identical
    /// interventions.
    fn intervene_exhaustive(
        lb: &LowerBoundAdversary,
        world: &World<SynRanProcess>,
    ) -> Intervention {
        let candidates = lb.candidates(world);
        if candidates.len() == 1 {
            return candidates.into_iter().next().expect("none candidate");
        }
        let mut best: Option<(f64, Intervention)> = None;
        for (i, candidate) in candidates.into_iter().enumerate() {
            let seed = lb
                .seeder
                .derive(world.round().index().into())
                .derive(i as u64)
                .next_u64();
            let mut fork = world.fork(seed);
            if fork.deliver(candidate.clone()).is_err() {
                continue;
            }
            // The fork is a round past `world`: one round less of horizon
            // stops its rollouts after the same round.
            let Ok(est) =
                estimate_valency(&fork, &lb.probes, lb.samples, lb.horizon - 1, seed ^ 0x5EED)
            else {
                continue;
            };
            let score = est.uncertainty();
            let better = match &best {
                None => true,
                Some((bs, _)) => score > bs + 0.125,
            };
            if better {
                best = Some((score, candidate));
            }
        }
        best.map(|(_, iv)| iv).unwrap_or_else(Intervention::none)
    }

    #[test]
    fn short_circuit_preserves_chosen_interventions() {
        // Regression for the ≥ 0.875 early break and the losing-candidate
        // cutoff: on E3-fixture-style worlds (even-split inputs; E3's probe
        // horizon with the paper cap and E3's starved pinch cap, plus the
        // original small-cap fixture), the chosen intervention must match
        // exhaustive scoring round after round — eight rounds, or until
        // the protocol decides. Paper-cap worlds stall, so they must be
        // compared at least six rounds deep; the others may decide sooner
        // (Lemma 4.6's pinch).
        let protocol = SynRan::new();
        let telemetry = Telemetry::new(TelemetryMode::Counters);
        // (n, cap, samples, horizon, seed, minimum depth)
        let mut fixtures = vec![
            (16, 6, 2, 40, 0, 0),
            (16, 6, 2, 40, 1, 0),
            (16, 6, 2, 40, 2, 0),
            (16, 6, 2, 40, 3, 0),
        ];
        for n in [16usize, 32] {
            let starved_cap = ((per_round_kill_budget(n) / 16.0).ceil() as usize).max(1);
            let horizon = probe_horizon(n);
            fixtures.extend([
                (n, paper_cap(n), 3, horizon, 0u64, 6),
                (n, paper_cap(n), 3, horizon, 1, 6),
                (n, starved_cap, 3, horizon, 2, 0),
                (n, starved_cap, 3, horizon, 5, 0),
            ]);
        }
        for (n, cap, samples, horizon, seed, min_depth) in fixtures {
            let mut world = World::new(
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
            )
            .unwrap();
            world.set_telemetry(telemetry.clone());
            let mut lb = LowerBoundAdversary::with_params(cap, samples, horizon, seed);
            let mut depth = 0;
            while depth < 8 && !world.finished() {
                world.phase_a().unwrap();
                let exhaustive = intervene_exhaustive(&lb, &world);
                let chosen = lb.intervene(&world);
                assert_eq!(
                    chosen,
                    exhaustive,
                    "n {n}, cap {cap}, seed {seed}, round {:?}",
                    world.round()
                );
                world.deliver(chosen).unwrap();
                depth += 1;
            }
            assert!(
                depth >= min_depth,
                "n {n}, cap {cap}, seed {seed}: decided after {depth} rounds"
            );
        }
        // The cutoff actually fired: the comparison above is not vacuous.
        let cut = telemetry.snapshot().counter("adversary.candidates_cut");
        assert!(cut.is_some_and(|c| c > 0), "cutoff never fired: {cut:?}");
    }

    #[test]
    fn forks_driven_counts_cut_estimates() {
        // E3's shape at n = 32: split inputs, the paper cap and probe
        // horizon, 3 samples, seed 3, six decisions. Most candidates after
        // the first are cut, and their forks count in the total too. A
        // work count, not telemetry: the same with no handle attached.
        let n = 32;
        let protocol = SynRan::new();
        let run = |telemetry: Telemetry| {
            let mut world = World::new(
                SimConfig::new(n).faults(n - 1).seed(3).max_rounds(100_000),
                |pid| protocol.spawn(pid, n, Bit::from(pid.index() < n / 2)),
            )
            .unwrap();
            world.set_telemetry(telemetry);
            let mut lb = LowerBoundAdversary::with_params(paper_cap(n), 3, probe_horizon(n), 3);
            for _ in 0..6 {
                assert!(!world.finished(), "decided at {:?}", world.round());
                world.phase_a().unwrap();
                let chosen = lb.intervene(&world);
                world.deliver(chosen).unwrap();
            }
            lb.forks_driven()
        };
        let telemetry = Telemetry::new(TelemetryMode::Counters);
        let forks = run(telemetry.clone());
        let cut = telemetry.snapshot().counter("adversary.candidates_cut");
        assert!(cut.is_some_and(|c| c > 0), "no estimate was cut: {cut:?}");
        assert_eq!(forks, 38, "forks driven over six decisions");
        assert_eq!(run(Telemetry::off()), forks);
    }

    #[test]
    fn candidate_list_contains_none_and_respects_dedup() {
        let n = 8;
        let protocol = SynRan::new();
        let mut world = World::new(SimConfig::new(n).faults(4).seed(1), |pid| {
            protocol.spawn(pid, n, Bit::from(pid.index() < 4))
        })
        .unwrap();
        world.phase_a().unwrap();
        let lb = LowerBoundAdversary::with_params(4, 1, 10, 1);
        let cands = lb.candidates(&world);
        assert!(cands.contains(&Intervention::none()));
        // All candidates within cap and unique.
        for (i, c) in cands.iter().enumerate() {
            assert!(c.kills().len() <= 4);
            assert!(!cands[..i].contains(c), "duplicate candidate");
        }
    }
}
