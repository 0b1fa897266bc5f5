//! The §3.4 message-walk: the paper's bivalent-state strategy, step by
//! step.
//!
//! In a bivalent state the paper's adversary first checks whether passing
//! **all** messages keeps the execution bivalent or null-valent — if so it
//! does nothing. Otherwise the round would become univalent (say
//! 1-valent), and the adversary walks the minimising strategy one step at
//! a time: fail a process *but send all its messages*, then cut its
//! messages **one receiver at a time**, inspecting the state after every
//! step (the paper's cases 1–3 in §3.4):
//!
//! 1. reaching a bivalent/null-valent state → stop failing, stay there;
//! 2. if failing the next process would flip 1-valent → 0-valent, don't —
//!    the flip itself witnesses bivalence;
//! 3. if cutting the next *message* flips the valence, keep the cut and
//!    stop — the receiver-failure argument shows the state is not
//!    univalent.
//!
//! This adversary is the finest-grained (and most expensive) realisation
//! of the lower bound in the workspace: every step of the walk costs one
//! valency estimate of the state after it — a fork of the world with the
//! step delivered, forked again per `(probe, sample)` pair. Use
//! [`LowerBoundAdversary`](crate::LowerBoundAdversary)
//! for experiments at scale; use this to *watch the proof work* at small
//! `n` (see `examples/message_walk.rs`).

use synran_core::{StageKind, SynRanProcess};
use synran_sim::{
    Adversary, Bit, DeliveryFilter, Intervention, ProcessId, SimError, SimRng, World,
};

use crate::valency::estimate_after;
use crate::{ProbeSet, ValencyEstimate};

/// States with uncertainty at or above this are "still open" — the walk
/// stops there.
const OPEN_THRESHOLD: f64 = 0.35;

/// The step-by-step §3.4 adversary for SynRan-family protocols.
#[derive(Debug)]
pub struct MessageWalker {
    per_round_cap: usize,
    samples: usize,
    horizon: u32,
    probes: ProbeSet<SynRanProcess>,
    seeder: SimRng,
}

impl MessageWalker {
    /// Creates a walker failing at most `per_round_cap` processes per
    /// round, probing with `samples` forks over a `horizon`-round
    /// look-ahead.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    #[must_use]
    pub fn new(per_round_cap: usize, samples: usize, horizon: u32, seed: u64) -> MessageWalker {
        assert!(samples > 0, "need at least one sample per probe");
        MessageWalker {
            per_round_cap,
            samples,
            horizon,
            probes: ProbeSet::synran(per_round_cap),
            seeder: SimRng::new(seed).derive(0x3A1C),
        }
    }

    /// The valency estimate of the state `step` leaves `world` in.
    fn score(
        &mut self,
        world: &World<SynRanProcess>,
        step: &Intervention,
    ) -> Result<ValencyEstimate, SimError> {
        let seed = self.seeder.next_u64();
        let (estimate, _) = estimate_after(
            world,
            step,
            &self.probes,
            self.samples,
            self.horizon,
            seed,
            None,
        )?;
        Ok(estimate.expect("no floor, no cutoff"))
    }

    /// The walk's victim order: processes preferring the value the state
    /// is collapsing toward (killing their messages pulls back).
    fn victim_order(world: &World<SynRanProcess>, toward: Bit) -> Vec<ProcessId> {
        world
            .alive_ids()
            .filter(|&pid| {
                let p = world.process(pid);
                matches!(p.stage(), StageKind::Probabilistic | StageKind::Delay)
                    && p.preference() == toward
            })
            .collect()
    }
}

impl Adversary<SynRanProcess> for MessageWalker {
    fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
        let cap = self
            .per_round_cap
            .min(world.budget().remaining())
            .min(world.alive_count().saturating_sub(1));
        if cap == 0 {
            return Intervention::none();
        }

        // Step 0: would passing every message keep the state open?
        let Ok(baseline) = self.score(world, &Intervention::none()) else {
            return Intervention::none();
        };
        if baseline.uncertainty() >= OPEN_THRESHOLD {
            return Intervention::none();
        }
        // The state is collapsing; which way?
        let toward = if baseline.min_p1() > 0.5 {
            Bit::One
        } else {
            Bit::Zero
        };
        let receivers: Vec<ProcessId> = world.alive_ids().collect();
        let victims = Self::victim_order(world, toward);

        // Walk: fail victims one at a time; for each victim cut messages
        // receiver by receiver, checking the estimated state after every
        // step and keeping the first intervention that re-opens it.
        let mut committed = Intervention::none();
        for (v_idx, &victim) in victims.iter().enumerate().take(cap) {
            // Case 2 first: fail the victim but send all its messages.
            let mut step = committed.clone().kill(victim, DeliveryFilter::All);
            if self
                .score(world, &step)
                .is_ok_and(|est| est.uncertainty() >= OPEN_THRESHOLD)
            {
                return step;
            }
            // Case 3: cut the victim's messages one receiver at a time
            // (coarsened to halving steps to bound the estimate count).
            let mut cut = 0usize;
            while cut < receivers.len() {
                cut = (cut + receivers.len().div_ceil(4)).min(receivers.len());
                let keep: Vec<ProcessId> = receivers[cut..].to_vec();
                step = committed.clone().kill(
                    victim,
                    if keep.is_empty() {
                        DeliveryFilter::None
                    } else {
                        DeliveryFilter::To(keep.into())
                    },
                );
                match self.score(world, &step) {
                    Ok(est) if est.uncertainty() >= OPEN_THRESHOLD => return step,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            // Fully silenced and still univalent: commit this kill and
            // walk the next victim (the paper continues its strategy).
            committed = committed.kill(victim, DeliveryFilter::None);
            if v_idx + 1 >= cap {
                break;
            }
        }
        // No step re-opened the state; play the best committed prefix
        // (the paper's §3.5: ride the univalent state, still minimising).
        committed
    }

    fn name(&self) -> &str {
        "message-walker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_core::{check_consensus, SynRan};
    use synran_sim::{Passive, SimConfig};

    fn split_inputs(n: usize) -> Vec<Bit> {
        (0..n).map(|i| Bit::from(i % 2 == 0)).collect()
    }

    #[test]
    fn safety_holds_under_the_walk() {
        for seed in 0..4u64 {
            let n = 10;
            let verdict = check_consensus(
                &SynRan::new(),
                &split_inputs(n),
                SimConfig::new(n)
                    .faults(n - 1)
                    .seed(seed)
                    .max_rounds(50_000),
                &mut MessageWalker::new(3, 2, 25, seed),
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
    fn walker_outlasts_passive_play() {
        let n = 12;
        let mut passive_total = 0u32;
        let mut walked_total = 0u32;
        for seed in 0..5u64 {
            let cfg = SimConfig::new(n)
                .faults(n - 1)
                .seed(seed)
                .max_rounds(50_000);
            let v1 = check_consensus(&SynRan::new(), &split_inputs(n), cfg.clone(), &mut Passive)
                .unwrap();
            passive_total += v1.rounds();
            let v2 = check_consensus(
                &SynRan::new(),
                &split_inputs(n),
                cfg,
                &mut MessageWalker::new(4, 3, 30, seed),
            )
            .unwrap();
            assert!(v2.is_correct());
            walked_total += v2.rounds();
        }
        assert!(
            walked_total > passive_total,
            "walker ({walked_total}) should outlast passive ({passive_total})"
        );
    }

    #[test]
    fn respects_cap_and_budget() {
        let n = 10;
        let verdict = check_consensus(
            &SynRan::new(),
            &split_inputs(n),
            SimConfig::new(n).faults(4).seed(7).max_rounds(50_000),
            &mut MessageWalker::new(2, 2, 20, 7),
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert!(verdict.report().failed_count() <= 4);
        assert!(verdict
            .report()
            .kills_per_round()
            .iter()
            .all(|&(_, k)| k <= 2));
    }
}
