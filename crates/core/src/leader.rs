//! `LeaderConsensus` — a CMS-style random-leader protocol (§1.2 context).
//!
//! The paper's §1.2 notes that Chor, Merritt & Shmoys [CMS89] reach
//! consensus in `O(1)` expected rounds against **non-adaptive** fail-stop
//! adversaries — so Theorem 1's `Ω(t/√(n·log n))` genuinely needs
//! adaptivity. This protocol makes that landscape measurable. It requires
//! `t < n/2` (like the protocols of that line of work) and proceeds in
//! two-round phases:
//!
//! * **R1 (estimate)** — broadcast the current estimate with a fresh
//!   random priority. A value held by a strict majority of *all* `n`
//!   processes becomes the phase's **candidate** (at most one value can
//!   ever qualify, so two processes never lock conflicting candidates).
//! * **R2 (candidate)** — broadcast the candidate (or ⊥) plus the
//!   estimate and another fresh priority. Seeing any candidate `v`
//!   adopts `est := v`; seeing **`≥ n − t`** candidate-`v` messages
//!   decides `v`. With all-⊥ candidates, adopt the estimate of the
//!   highest-priority message — the **random leader**.
//! * **Announcement** — a decided process broadcasts `Decide(v)` once and
//!   halts; any process hearing it decides and re-announces, so a single
//!   surviving announcement finishes everyone.
//!
//! Correctness for any fail-stop adversary with `t < n/2` (sketch, each
//! step matching an assertion in the test suite):
//!
//! 1. *One candidate per phase*: candidate `v` needs a strict majority of
//!    all `n` processes to **hold** `v` (a sender's value is fixed before
//!    delivery filtering), so candidates `v ≠ w` cannot coexist.
//! 2. *Deciding infects everyone*: a decider saw `≥ n − t` candidate-`v`
//!    senders; at most `t` processes ever fail, so every other process
//!    received `≥ n − 2t ≥ 1` of those messages in the same round and
//!    adopted `est = v`. From then on only `v` can be locked or decided.
//! 3. *Decisions stay reachable amid crashes*: senders alive at a round's
//!    start number `≥ n − (budget spent)`, and spent + dying ≤ t, so a
//!    unanimous population always delivers `≥ n − t` candidate messages —
//!    the protocol decides **while failures continue** (no quiescence
//!    wait; this is exactly what a SynRan-style stability rule cannot do,
//!    and why this protocol — unlike SynRan — is limited to `t < n/2`).
//! 4. *O(1) expected phases vs a static adversary*: the leader is the
//!    maximum of fresh random priorities, unknowable when the failure
//!    schedule was fixed; unless the schedule happens to kill that exact
//!    process mid-broadcast (probability ≤ kills/alive), every process
//!    adopts the same estimate and the next phase decides.
//! 5. *Θ(t) rounds vs the adaptive adversary*: priorities are Phase-A
//!    coins, visible to the full-information adversary **before
//!    delivery**; killing the few top-priority processes mid-send and
//!    splitting their last messages keeps the estimates divided at ~2
//!    kills per phase (see `synran_adversary::LeaderHunter` and E9).

use synran_sim::{Bit, Context, Inbox, PlaneMsg, Process, ProcessId, SendPattern};

use crate::ConsensusProtocol;

/// The protocol configuration: the fault bound `t` it is sized for.
///
/// # Examples
///
/// ```
/// use synran_core::{check_consensus, LeaderConsensus};
/// use synran_sim::{Bit, Passive, SimConfig};
///
/// let n = 12;
/// let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
/// let verdict = check_consensus(
///     &LeaderConsensus::for_faults(5),
///     &inputs,
///     SimConfig::new(n).faults(5).seed(3),
///     &mut Passive,
/// )?;
/// assert!(verdict.is_correct());
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderConsensus {
    t: usize,
}

impl LeaderConsensus {
    /// Creates the protocol sized for up to `t` failures.
    #[must_use]
    pub fn for_faults(t: usize) -> LeaderConsensus {
        LeaderConsensus { t }
    }

    /// The fault bound the decide threshold `n − t` uses.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }
}

impl ConsensusProtocol for LeaderConsensus {
    type Proc = LeaderProcess;

    fn spawn(&self, _pid: ProcessId, n: usize, input: Bit) -> LeaderProcess {
        assert!(
            2 * self.t < n,
            "LeaderConsensus requires t < n/2 (t = {}, n = {n})",
            self.t
        );
        LeaderProcess::new(n, self.t, input)
    }

    fn name(&self) -> &str {
        "leader"
    }
}

/// Messages LeaderConsensus exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderMsg {
    /// R1: the sender's estimate and a fresh leader priority.
    Est {
        /// The sender's current estimate.
        value: Bit,
        /// Fresh random priority (a Phase-A coin).
        priority: u64,
    },
    /// R2: the sender's phase candidate (`None` is the paper-style ⊥),
    /// its estimate as the leader-adoption fallback, and a fresh priority.
    Cand {
        /// The locked candidate, if R1 showed a strict majority.
        candidate: Option<Bit>,
        /// The sender's estimate — what leader adoption adopts.
        fallback: Bit,
        /// Fresh random priority.
        priority: u64,
    },
    /// A decided process's final broadcast.
    Decide(Bit),
}

/// Leader-election messages carry a 64-bit priority alongside the value,
/// so none of them packs to a single bit: no leader round has a tally,
/// and every one counts as `round.deliver.scalar`.
impl PlaneMsg for LeaderMsg {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundKind {
    Est,
    Cand,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Announce {
    /// Not decided yet.
    No,
    /// Decided; the `Decide` broadcast goes out next round.
    Pending,
    /// The announcement was sent; halt after this round.
    Sent,
}

/// One participant in LeaderConsensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderProcess {
    n: usize,
    t: usize,
    est: Bit,
    candidate: Option<Bit>,
    round_kind: RoundKind,
    decision: Option<Bit>,
    announce: Announce,
}

impl LeaderProcess {
    /// Creates a process with the given input.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `t ≥ n/2`.
    #[must_use]
    pub fn new(n: usize, t: usize, input: Bit) -> LeaderProcess {
        assert!(n > 0, "LeaderConsensus needs at least one process");
        assert!(2 * t < n, "LeaderConsensus requires t < n/2");
        LeaderProcess {
            n,
            t,
            est: input,
            candidate: None,
            round_kind: RoundKind::Est,
            decision: None,
            announce: Announce::No,
        }
    }

    /// The current estimate.
    #[must_use]
    pub fn estimate(&self) -> Bit {
        self.est
    }

    /// Whether the next round is an estimate (R1) round.
    #[must_use]
    pub fn in_estimate_round(&self) -> bool {
        self.round_kind == RoundKind::Est
    }

    fn on_decide(&mut self, value: Bit) {
        if self.decision.is_none() {
            self.decision = Some(value);
            self.announce = Announce::Pending;
        }
        self.est = value;
    }
}

impl Process for LeaderProcess {
    type Msg = LeaderMsg;

    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<LeaderMsg> {
        match self.announce {
            Announce::Pending => {
                self.announce = Announce::Sent;
                return SendPattern::Broadcast(LeaderMsg::Decide(
                    self.decision.expect("pending announce implies decision"),
                ));
            }
            Announce::Sent => return SendPattern::Silent,
            Announce::No => {}
        }
        let priority = ctx.rng().next_u64();
        SendPattern::Broadcast(match self.round_kind {
            RoundKind::Est => LeaderMsg::Est {
                value: self.est,
                priority,
            },
            RoundKind::Cand => LeaderMsg::Cand {
                candidate: self.candidate,
                fallback: self.est,
                priority,
            },
        })
    }

    fn receive(&mut self, _ctx: &mut Context<'_>, inbox: &Inbox<LeaderMsg>) {
        if self.announce == Announce::Sent {
            return; // halting after the announcement round
        }
        // A surviving announcement ends the game for its hearers.
        if let Some(LeaderMsg::Decide(v)) =
            inbox.messages().find(|m| matches!(m, LeaderMsg::Decide(_)))
        {
            self.on_decide(v);
            return;
        }
        if self.announce == Announce::Pending {
            return; // already decided; just waiting to announce
        }
        match self.round_kind {
            RoundKind::Est => {
                let mut counts = [0usize; 2];
                for msg in inbox.messages() {
                    if let LeaderMsg::Est { value, .. } = msg {
                        counts[usize::from(value)] += 1;
                    }
                }
                // A strict majority of all n processes: at most one value
                // can ever satisfy this, whatever each receiver saw.
                self.candidate = if 2 * counts[1] > self.n {
                    Some(Bit::One)
                } else if 2 * counts[0] > self.n {
                    Some(Bit::Zero)
                } else {
                    None
                };
                self.round_kind = RoundKind::Cand;
            }
            RoundKind::Cand => {
                let mut counts = [0usize; 2];
                let mut leader: Option<(u64, ProcessId, Bit)> = None;
                for (sender, msg) in inbox.iter() {
                    if let LeaderMsg::Cand {
                        candidate,
                        fallback,
                        priority,
                    } = msg
                    {
                        if let Some(v) = candidate {
                            counts[usize::from(v)] += 1;
                        }
                        if leader.is_none_or(|l| (l.0, l.1) < (priority, sender)) {
                            leader = Some((priority, sender, fallback));
                        }
                    }
                }
                // Step 1 of the proof says both cannot be positive; stay
                // deterministic even if an impossible state ever arose.
                let locked = if counts[1] >= counts[0] && counts[1] > 0 {
                    Some((Bit::One, counts[1]))
                } else if counts[0] > 0 {
                    Some((Bit::Zero, counts[0]))
                } else {
                    None
                };
                match locked {
                    Some((v, count)) => {
                        self.est = v;
                        if count >= self.n - self.t {
                            self.on_decide(v);
                        }
                    }
                    None => {
                        // All-⊥: adopt the random leader's estimate.
                        if let Some((_, _, fallback)) = leader {
                            self.est = fallback;
                        }
                    }
                }
                self.candidate = None;
                self.round_kind = RoundKind::Est;
            }
        }
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.announce == Announce::Sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_consensus;
    use synran_sim::{Adversary, DeliveryFilter, Intervention, Passive, SimConfig, World};

    fn split_inputs(n: usize) -> Vec<Bit> {
        (0..n).map(|i| Bit::from(i % 2 == 0)).collect()
    }

    #[test]
    fn unanimous_inputs_decide_in_one_phase() {
        for v in [Bit::Zero, Bit::One] {
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(4),
                &[v; 9],
                SimConfig::new(9).faults(4).seed(1),
                &mut Passive,
            )
            .unwrap();
            assert!(verdict.is_correct(), "{:?}", verdict.violations());
            assert_eq!(verdict.report().unanimous_decision(), Some(v));
            // R1 + R2 + announcement round.
            assert_eq!(verdict.rounds(), 3);
        }
    }

    #[test]
    fn split_inputs_converge_in_constant_phases() {
        for seed in 0..20 {
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(9),
                &split_inputs(20),
                SimConfig::new(20).faults(9).seed(seed),
                &mut Passive,
            )
            .unwrap();
            assert!(verdict.is_correct(), "seed {seed}");
            assert!(
                verdict.rounds() <= 7,
                "seed {seed}: leader adoption converges in O(1) phases, took {}",
                verdict.rounds()
            );
        }
    }

    #[test]
    fn decides_amid_ongoing_crashes() {
        // The property SynRan's stability rule cannot offer: steady kills
        // every round do NOT postpone the decision.
        struct Steady;
        impl Adversary<LeaderProcess> for Steady {
            fn intervene(&mut self, world: &World<LeaderProcess>) -> Intervention {
                if world.budget().remaining() > 0 && world.alive_count() > 1 {
                    Intervention::kill_all_silent([world.alive_ids().next().expect("alive")])
                } else {
                    Intervention::none()
                }
            }
        }
        for seed in 0..10 {
            let n = 21;
            let t = 10;
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(t),
                &split_inputs(n),
                SimConfig::new(n).faults(t).seed(seed).max_rounds(10_000),
                &mut Steady,
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "seed {seed}: {:?}",
                verdict.violations()
            );
            assert!(
                verdict.rounds() <= 12,
                "seed {seed}: decisions must not wait for quiescence, took {}",
                verdict.rounds()
            );
        }
    }

    #[test]
    fn announcement_chain_survives_announcer_kills() {
        // Kill every announcer mid-send, delivering to a single process:
        // the chain must still percolate and end the run.
        struct AnnounceCutter;
        impl Adversary<LeaderProcess> for AnnounceCutter {
            fn intervene(&mut self, world: &World<LeaderProcess>) -> Intervention {
                let mut iv = Intervention::new();
                let mut budget = world.budget().remaining();
                let confidant = world.alive_ids().last();
                for pid in world.alive_ids() {
                    if budget == 0 || world.alive_count() <= iv.kills().len() + 1 {
                        break;
                    }
                    if let Some(SendPattern::Broadcast(LeaderMsg::Decide(_))) = world.outbox(pid) {
                        if Some(pid) != confidant {
                            iv = iv.kill(pid, DeliveryFilter::To(confidant.into_iter().collect()));
                            budget -= 1;
                        }
                    }
                }
                iv
            }
        }
        for seed in 0..8 {
            let n = 15;
            let t = 7;
            let verdict = check_consensus(
                &LeaderConsensus::for_faults(t),
                &split_inputs(n),
                SimConfig::new(n).faults(t).seed(seed).max_rounds(10_000),
                &mut AnnounceCutter,
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
    fn validity_under_partial_delivery_attacks() {
        struct HalfCutter;
        impl Adversary<LeaderProcess> for HalfCutter {
            fn intervene(&mut self, world: &World<LeaderProcess>) -> Intervention {
                if world.round().index() > 3 || world.budget().remaining() == 0 {
                    return Intervention::none();
                }
                let half: Vec<_> = world.alive_ids().step_by(2).collect();
                match world.alive_ids().last() {
                    Some(victim) if world.alive_count() > 1 => {
                        Intervention::new().kill(victim, DeliveryFilter::To(half.into()))
                    }
                    _ => Intervention::none(),
                }
            }
        }
        for v in [Bit::Zero, Bit::One] {
            for seed in 0..5 {
                let n = 13;
                let verdict = check_consensus(
                    &LeaderConsensus::for_faults(6),
                    &vec![v; n],
                    SimConfig::new(n).faults(6).seed(seed).max_rounds(10_000),
                    &mut HalfCutter,
                )
                .unwrap();
                assert!(verdict.is_correct(), "{:?}", verdict.violations());
                assert_eq!(verdict.report().unanimous_decision(), Some(v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "t < n/2")]
    fn oversized_fault_bound_rejected() {
        let _ = LeaderConsensus::for_faults(5).spawn(ProcessId::new(0), 10, Bit::One);
    }

    #[test]
    fn accessors() {
        let p = LeaderProcess::new(7, 3, Bit::One);
        assert_eq!(p.estimate(), Bit::One);
        assert!(p.in_estimate_round());
        assert_eq!(p.decision(), None);
        assert!(!p.halted());
        let protocol = LeaderConsensus::for_faults(3);
        assert_eq!(protocol.name(), "leader");
        assert_eq!(protocol.t(), 3);
    }
}
