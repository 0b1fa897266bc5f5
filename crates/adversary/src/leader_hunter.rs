//! The adaptive attack on leader-based consensus: shoot the leader.
//!
//! [`LeaderConsensus`](synran_core::LeaderConsensus) converges in `O(1)`
//! expected phases against a *non-adaptive* adversary (experiment E9 —
//! the CMS89 effect the paper cites in §1.2). The full-information
//! adaptive adversary, however, sees every fresh leader priority in
//! Phase A, *before delivery*. This hunter exploits that, per round:
//!
//! * **announcement rounds** — kill every `Decide` announcer mid-send
//!   (zero delivery), cutting the decision chain;
//! * **estimate rounds (R1)** — if either value is held by a strict
//!   majority, kill just enough of its holders that no receiver can count
//!   past `n/2`: no candidate can lock;
//! * **candidate rounds (R2)** — with all-⊥ candidates every process will
//!   adopt the *random leader's* estimate. Kill the handful of processes
//!   whose priorities outrank the other side's best, delivering their
//!   dying messages to only half the survivors: that half adopts one
//!   value, the other half adopts the other — the estimates stay split at
//!   an expected ~2 kills per phase (the geometric number of leaders
//!   above the opposing side's maximum).
//!
//! The result is a `Θ(t)`-round stall from `O(1)`-per-round spending —
//! leader protocols are *cheaper to stall than SynRan*, which costs the
//! adversary `~√(p·log p)` per round (Lemma 4.6). That contrast is the
//! paper's §1.2 landscape, measured.

use synran_core::{LeaderMsg, LeaderProcess};
use synran_sim::{Adversary, Bit, BitPlane, Intervention, ProcessId, SendPattern, World};

/// One sender's visible Phase-A state in an R2 round.
#[derive(Debug, Clone, Copy)]
struct Voter {
    pid: ProcessId,
    fallback: Bit,
    priority: u64,
}

/// The adaptive leader-killing adversary for
/// [`LeaderConsensus`](synran_core::LeaderConsensus).
///
/// # Examples
///
/// ```
/// use synran_adversary::LeaderHunter;
/// use synran_core::{check_consensus, LeaderConsensus};
/// use synran_sim::{Bit, SimConfig};
///
/// let n = 17;
/// let t = 8;
/// let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
/// let verdict = check_consensus(
///     &LeaderConsensus::for_faults(t),
///     &inputs,
///     SimConfig::new(n).faults(t).seed(1).max_rounds(100_000),
///     &mut LeaderHunter::new(),
/// )?;
/// assert!(verdict.is_correct()); // safety survives; latency does not
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaderHunter;

impl LeaderHunter {
    /// Creates the hunter.
    #[must_use]
    pub fn new() -> LeaderHunter {
        LeaderHunter
    }

    fn cut_announcers(world: &World<LeaderProcess>, cap: usize) -> Option<Intervention> {
        let announcers: Vec<ProcessId> = world
            .alive_ids()
            .filter(|&pid| {
                matches!(
                    world.outbox(pid),
                    Some(SendPattern::Broadcast(LeaderMsg::Decide(_)))
                )
            })
            .collect();
        if announcers.is_empty() {
            return None;
        }
        if announcers.len() > cap || announcers.len() >= world.alive_count() {
            // Cannot silence them all; cutting some only delays by a
            // round while the chain grows — save the budget.
            return Some(Intervention::none());
        }
        Some(Intervention::kill_all_silent(announcers))
    }

    fn block_locks(world: &World<LeaderProcess>, cap: usize) -> Intervention {
        let n = world.n();
        let mut holders: [Vec<ProcessId>; 2] = [Vec::new(), Vec::new()];
        for pid in world.alive_ids() {
            if let Some(SendPattern::Broadcast(LeaderMsg::Est { value, .. })) = world.outbox(pid) {
                holders[usize::from(*value)].push(pid);
            }
        }
        let mut victims: Vec<ProcessId> = Vec::new();
        for side in &holders {
            if 2 * side.len() > n {
                // Reduce the side's sender count to ⌊n/2⌋ so no receiver
                // can observe a strict majority.
                victims.extend(&side[..side.len() - n / 2]);
            }
        }
        if victims.is_empty() || victims.len() > cap || victims.len() >= world.alive_count() {
            return Intervention::none();
        }
        Intervention::kill_all_silent(victims)
    }

    fn split_leaders(world: &World<LeaderProcess>, cap: usize) -> Intervention {
        let n = world.n();
        let mut voters: Vec<Voter> = Vec::new();
        let mut locked: [Vec<ProcessId>; 2] = [Vec::new(), Vec::new()];
        for pid in world.alive_ids() {
            if let Some(SendPattern::Broadcast(LeaderMsg::Cand {
                candidate,
                fallback,
                priority,
            })) = world.outbox(pid)
            {
                if let Some(v) = candidate {
                    locked[usize::from(*v)].push(pid);
                }
                voters.push(Voter {
                    pid,
                    fallback: *fallback,
                    priority: *priority,
                });
            }
        }
        // A lock escaped R1 blocking: keep the decide threshold n − t out
        // of reach if affordable (the protocol's t is unknown to us only
        // nominally — the engine budget IS t).
        for side in &locked {
            if side.is_empty() {
                continue;
            }
            let t = world.budget().total();
            let deny = side.len().saturating_sub((n - t).saturating_sub(1));
            if deny > 0 && deny <= cap && deny < world.alive_count() {
                return Intervention::kill_all_silent(side[..deny].iter().copied());
            }
            return Intervention::none();
        }
        // All-⊥ round: split the leader view.
        let top = |b: Bit| {
            voters
                .iter()
                .filter(|v| v.fallback == b)
                .map(|v| v.priority)
                .max()
        };
        let (Some(top1), Some(top0)) = (top(Bit::One), top(Bit::Zero)) else {
            return Intervention::none(); // unanimity: nothing to split
        };
        let losing_top = top1.min(top0);
        let mut victims = BitPlane::new(n);
        for voter in voters.iter().filter(|v| v.priority > losing_top) {
            victims.set(voter.pid.index());
        }
        let victim_count = victims.count_ones();
        if victim_count == 0 || victim_count > cap {
            return Intervention::none();
        }
        // Survivors = alive ∧ ¬victims, one and-not over the planes.
        let mut survivors = world.alive_mask().clone();
        survivors.subtract(&victims);
        if survivors.count_ones() < 2 {
            return Intervention::none();
        }
        let group_a: Vec<ProcessId> = survivors.ids().step_by(2).collect();
        Intervention::kill_all_to(victims.ids(), group_a)
    }
}

impl Adversary<LeaderProcess> for LeaderHunter {
    fn intervene(&mut self, world: &World<LeaderProcess>) -> Intervention {
        let cap = world
            .budget()
            .remaining()
            .min(world.alive_count().saturating_sub(1));
        if cap == 0 {
            return Intervention::none();
        }
        if let Some(iv) = Self::cut_announcers(world, cap) {
            return iv;
        }
        // Peek one outbox to see which phase round this is.
        let kind = world.alive_ids().find_map(|pid| match world.outbox(pid) {
            Some(SendPattern::Broadcast(LeaderMsg::Est { .. })) => Some(true),
            Some(SendPattern::Broadcast(LeaderMsg::Cand { .. })) => Some(false),
            _ => None,
        });
        match kind {
            Some(true) => Self::block_locks(world, cap),
            Some(false) => Self::split_leaders(world, cap),
            None => Intervention::none(),
        }
    }

    fn name(&self) -> &str {
        "leader-hunter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oblivious;
    use synran_core::{check_consensus, LeaderConsensus};
    use synran_sim::SimConfig;

    fn split_inputs(n: usize) -> Vec<Bit> {
        (0..n).map(|i| Bit::from(i % 2 == 0)).collect()
    }

    #[test]
    fn safety_holds_under_the_hunt() {
        for seed in 0..10u64 {
            let n = 21;
            let t = 10;
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(t),
                &split_inputs(n),
                SimConfig::new(n).faults(t).seed(seed).max_rounds(100_000),
                &mut LeaderHunter::new(),
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
    fn adaptive_hunting_beats_static_schedules_badly() {
        // The E9 headline in test form: the protocol that shrugs off
        // pre-committed kills stalls for far longer when the killer can
        // see the leader coins before delivery.
        let n = 25;
        let t = 12;
        let runs = 10u64;
        let mut static_total = 0u32;
        let mut adaptive_total = 0u32;
        for seed in 0..runs {
            let cfg = SimConfig::new(n).faults(t).seed(seed).max_rounds(100_000);
            let mut oblivious = Oblivious::new(n, 1, 60, seed);
            let v1 = check_consensus(
                &LeaderConsensus::for_faults(t),
                &split_inputs(n),
                cfg.clone(),
                &mut oblivious,
            )
            .unwrap();
            assert!(v1.is_correct());
            static_total += v1.rounds();
            let v2 = check_consensus(
                &LeaderConsensus::for_faults(t),
                &split_inputs(n),
                cfg,
                &mut LeaderHunter::new(),
            )
            .unwrap();
            assert!(v2.is_correct(), "seed {seed}: {:?}", v2.violations());
            adaptive_total += v2.rounds();
        }
        assert!(
            adaptive_total > static_total * 2,
            "hunter ({adaptive_total}) should far outlast static ({static_total})"
        );
    }

    #[test]
    fn hunter_spends_little_per_stalled_round() {
        let n = 33;
        let t = 16;
        let verdict = check_consensus(
            &LeaderConsensus::for_faults(t),
            &split_inputs(n),
            SimConfig::new(n).faults(t).seed(3).max_rounds(100_000),
            &mut LeaderHunter::new(),
        )
        .unwrap();
        assert!(verdict.is_correct());
        let kills = verdict.report().failed_count() as f64;
        let rounds = f64::from(verdict.rounds());
        assert!(
            rounds > 10.0,
            "the hunt should stall well past passive play: {rounds}"
        );
        assert!(
            kills / rounds < 4.0,
            "hunting should be cheap: {kills} kills over {rounds} rounds"
        );
    }

    #[test]
    fn gives_up_on_unanimity() {
        let n = 13;
        let verdict = check_consensus(
            &LeaderConsensus::for_faults(6),
            &vec![Bit::One; n],
            SimConfig::new(n).faults(6).seed(4).max_rounds(10_000),
            &mut LeaderHunter::new(),
        )
        .unwrap();
        assert!(verdict.is_correct());
        assert_eq!(verdict.report().unanimous_decision(), Some(Bit::One));
    }
}
