//! Deterministic flooding-set consensus.
//!
//! The textbook fail-stop consensus protocol ([Lyn96] §6.2): every round,
//! broadcast the set of values you have seen and union in everything you
//! receive; after `R` rounds decide the minimum known value. With at most
//! `f` crashes, `R = f + 1` rounds guarantee a *clean* round (one with no
//! crash), after which all alive processes hold identical sets forever.
//!
//! This protocol plays two roles in the workspace:
//!
//! 1. the **deterministic baseline** of the paper's introduction — the
//!    `t + 1`-round protocol any randomized protocol is racing against;
//! 2. the **deterministic stage** of SynRan (§4), run once fewer than
//!    `√(n/log n)` processes survive — [`FloodingCore`] is the shared
//!    engine.

use synran_sim::{Bit, Context, Inbox, Process, ProcessId, SendPattern};

use crate::{ConsensusProtocol, ValueSet};

/// The round-by-round state of a flooding execution: the known-value set
/// and the remaining round count.
///
/// # Examples
///
/// ```
/// use synran_core::{FloodingCore, ValueSet};
/// use synran_sim::Bit;
///
/// let mut core = FloodingCore::new(ValueSet::single(Bit::One), 2);
/// core.absorb([ValueSet::single(Bit::Zero)]);
/// core.absorb([]);
/// assert!(core.done());
/// assert_eq!(core.decide(), Some(Bit::Zero)); // min rule
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodingCore {
    known: ValueSet,
    rounds_left: u32,
}

impl FloodingCore {
    /// Starts flooding from `initial` for `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty — flooding must start from at least the
    /// process's own value, or validity is unprovable.
    #[must_use]
    pub fn new(initial: ValueSet, rounds: u32) -> FloodingCore {
        assert!(!initial.is_empty(), "flooding must start with a value");
        FloodingCore {
            known: initial,
            rounds_left: rounds,
        }
    }

    /// The set to broadcast this round.
    #[must_use]
    pub fn outgoing(&self) -> ValueSet {
        self.known
    }

    /// Consumes one round's received sets and advances the round counter.
    pub fn absorb<I: IntoIterator<Item = ValueSet>>(&mut self, received: I) {
        for s in received {
            self.known.union_with(s);
        }
        self.rounds_left = self.rounds_left.saturating_sub(1);
    }

    /// `true` once all rounds have run.
    #[must_use]
    pub fn done(&self) -> bool {
        self.rounds_left == 0
    }

    /// The decision — the minimum known value — once [`done`](Self::done).
    /// Returns `None` while rounds remain.
    #[must_use]
    pub fn decide(&self) -> Option<Bit> {
        self.done().then(|| {
            self.known
                .min()
                .expect("known set is never empty by construction")
        })
    }

    /// The values known so far.
    #[must_use]
    pub fn known(&self) -> ValueSet {
        self.known
    }
}

/// The flooding-set consensus protocol, fixed to a round count.
///
/// For a system that must tolerate `t` crashes, use
/// [`FloodingConsensus::for_faults`] (`t + 1` rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodingConsensus {
    rounds: u32,
}

impl FloodingConsensus {
    /// A flooding protocol that runs exactly `rounds` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    #[must_use]
    pub fn with_rounds(rounds: u32) -> FloodingConsensus {
        assert!(rounds > 0, "flooding needs at least one round");
        FloodingConsensus { rounds }
    }

    /// The classic `t + 1`-round instantiation tolerating `t` crashes.
    #[must_use]
    pub fn for_faults(t: usize) -> FloodingConsensus {
        FloodingConsensus {
            rounds: t as u32 + 1,
        }
    }

    /// The configured round count.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

impl ConsensusProtocol for FloodingConsensus {
    type Proc = FloodingProcess;

    fn spawn(&self, _pid: ProcessId, _n: usize, input: Bit) -> FloodingProcess {
        FloodingProcess {
            core: FloodingCore::new(ValueSet::single(input), self.rounds),
            decision: None,
        }
    }

    fn name(&self) -> &str {
        "flooding"
    }
}

/// One participant in flooding-set consensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodingProcess {
    core: FloodingCore,
    decision: Option<Bit>,
}

impl FloodingProcess {
    /// The values this process currently knows.
    #[must_use]
    pub fn known(&self) -> ValueSet {
        self.core.known()
    }
}

impl Process for FloodingProcess {
    type Msg = ValueSet;

    fn send(&mut self, _ctx: &mut Context<'_>) -> SendPattern<ValueSet> {
        SendPattern::Broadcast(self.core.outgoing())
    }

    fn receive(&mut self, _ctx: &mut Context<'_>, inbox: &Inbox<ValueSet>) {
        self.core.absorb(inbox.messages());
        if self.core.done() {
            self.decision = self.core.decide();
        }
    }

    fn decision(&self) -> Option<Bit> {
        self.decision
    }

    fn halted(&self) -> bool {
        self.decision.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_sim::{Adversary, DeliveryFilter, Intervention, Passive, SimConfig, World};

    fn run_flooding(
        n: usize,
        t: usize,
        inputs: &[Bit],
        adversary: &mut impl Adversary<FloodingProcess>,
        seed: u64,
    ) -> synran_sim::RunReport {
        let protocol = FloodingConsensus::for_faults(t);
        let mut world = World::new(SimConfig::new(n).faults(t).seed(seed), |pid| {
            protocol.spawn(pid, n, inputs[pid.index()])
        })
        .unwrap();
        world.run(adversary).unwrap()
    }

    #[test]
    fn core_counts_rounds_and_unions() {
        let mut core = FloodingCore::new(ValueSet::single(Bit::One), 3);
        assert!(!core.done());
        assert_eq!(core.decide(), None);
        core.absorb([ValueSet::single(Bit::One)]);
        core.absorb([ValueSet::single(Bit::Zero), ValueSet::single(Bit::One)]);
        core.absorb([]);
        assert!(core.done());
        assert_eq!(core.known(), ValueSet::both());
        assert_eq!(core.decide(), Some(Bit::Zero));
    }

    #[test]
    #[should_panic(expected = "start with a value")]
    fn core_rejects_empty_start() {
        let _ = FloodingCore::new(ValueSet::empty(), 1);
    }

    #[test]
    fn fault_free_agreement_on_min() {
        let inputs = [Bit::One, Bit::Zero, Bit::One, Bit::One];
        let report = run_flooding(4, 0, &inputs, &mut Passive, 1);
        assert_eq!(report.rounds(), 1); // t = 0 ⇒ one round
        assert_eq!(report.unanimous_decision(), Some(Bit::Zero));
    }

    #[test]
    fn validity_unanimous_inputs() {
        for v in [Bit::Zero, Bit::One] {
            let inputs = [v; 5];
            let report = run_flooding(5, 2, &inputs, &mut Passive, 2);
            assert_eq!(report.unanimous_decision(), Some(v));
        }
    }

    #[test]
    fn agreement_survives_worst_case_partial_crash_chain() {
        // The classic bad schedule for flooding: the only holder of value 0
        // crashes each round after whispering to exactly one process. With
        // t + 1 rounds the chain runs out of crashes and a clean round
        // equalises the sets.
        struct Whisper {
            next_victim: usize,
        }
        impl Adversary<FloodingProcess> for Whisper {
            fn intervene(&mut self, world: &World<FloodingProcess>) -> Intervention {
                // Find an alive process that knows 0 and kill it, letting
                // only the next process in line hear it.
                let holder = world
                    .alive_ids()
                    .find(|&pid| world.process(pid).known().contains(Bit::Zero));
                let Some(victim) = holder else {
                    return Intervention::none();
                };
                if world.budget().remaining() == 0 {
                    return Intervention::none();
                }
                self.next_victim += 1;
                let confidant = world
                    .alive_ids()
                    .filter(|&p| p != victim)
                    .nth(self.next_victim % world.alive_count().saturating_sub(1).max(1));
                match confidant {
                    Some(c) => Intervention::new().kill(victim, DeliveryFilter::To(vec![c].into())),
                    None => Intervention::none(),
                }
            }
        }

        let n = 6;
        let t = 3;
        let mut inputs = [Bit::One; 6];
        inputs[0] = Bit::Zero;
        let report = run_flooding(n, t, &inputs, &mut Whisper { next_victim: 0 }, 3);
        // Whatever the survivors decide, they must agree.
        assert!(report.unanimous_decision().is_some(), "agreement violated");
        assert_eq!(report.rounds(), t as u32 + 1);
    }

    #[test]
    fn runs_exactly_t_plus_one_rounds() {
        for t in [0usize, 1, 4, 7] {
            let inputs = vec![Bit::One; 8];
            let report = run_flooding(8, t, &inputs, &mut Passive, 4);
            assert_eq!(report.rounds(), t as u32 + 1);
        }
    }

    #[test]
    fn protocol_metadata() {
        let p = FloodingConsensus::for_faults(5);
        assert_eq!(p.rounds(), 6);
        assert_eq!(p.name(), "flooding");
        assert_eq!(FloodingConsensus::with_rounds(3).rounds(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let _ = FloodingConsensus::with_rounds(0);
    }
}
