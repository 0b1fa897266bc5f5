//! The process abstraction: what runs inside the simulator.

use crate::{Bit, Inbox, ProcessId, Round, SendPattern, SimRng};

/// A deterministic-except-for-coins state machine participating in a
/// synchronous computation.
///
/// The engine drives each round in the paper's two phases (§3.1):
///
/// 1. **Phase A** — [`Process::send`] is called on every alive process:
///    flip local coins, do local computation, and emit this round's
///    messages. The adversary then inspects *everything* (full
///    information) and chooses interventions.
/// 2. **Phase B** — surviving messages are delivered and
///    [`Process::receive`] is called with the round's inbox; the process
///    updates its state and may decide or halt.
///
/// Implementations must be deterministic given the [`SimRng`] draws they
/// make — all nondeterminism flows through the provided generator so that
/// executions replay exactly.
///
/// # Examples
///
/// A process that broadcasts its input once and decides it immediately:
///
/// ```
/// use synran_sim::{Bit, Context, Inbox, Process, Round, SendPattern};
///
/// #[derive(Debug, Clone)]
/// struct OneShot { input: Bit, decided: bool }
///
/// impl Process for OneShot {
///     type Msg = Bit;
///
///     fn send(&mut self, _ctx: &mut Context<'_>) -> SendPattern<Bit> {
///         SendPattern::Broadcast(self.input)
///     }
///
///     fn receive(&mut self, _ctx: &mut Context<'_>, _inbox: &Inbox<Bit>) {
///         self.decided = true;
///     }
///
///     fn decision(&self) -> Option<Bit> {
///         self.decided.then_some(self.input)
///     }
///
///     fn halted(&self) -> bool {
///         self.decided
///     }
/// }
/// ```
pub trait Process: std::fmt::Debug {
    /// The message type this process exchanges.
    ///
    /// The [`PlaneMsg`](crate::PlaneMsg) bound is what lets an inbox
    /// tally the messages that pack to a bit once, when it is built.
    /// Types with no natural bit packing just take the trait's default
    /// (`impl PlaneMsg for MyMsg {}`): their messages count toward an
    /// inbox's length and toward neither side of its tally.
    type Msg: Clone + std::fmt::Debug + crate::PlaneMsg;

    /// Phase A of a round: flip coins, compute, and emit messages.
    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<Self::Msg>;

    /// End of Phase B: consume the messages delivered this round.
    fn receive(&mut self, ctx: &mut Context<'_>, inbox: &Inbox<Self::Msg>);

    /// The value this process has irrevocably decided, if any.
    ///
    /// Once `Some`, the decision must never change — the engine's checkers
    /// treat a change as a protocol bug.
    fn decision(&self) -> Option<Bit>;

    /// Whether this process has stopped participating (sent its last
    /// message and will ignore all future rounds).
    ///
    /// Halting is voluntary termination, distinct from being failed by the
    /// adversary. A halted process must already have decided.
    fn halted(&self) -> bool;
}

/// Per-call context handed to [`Process::send`] and [`Process::receive`].
///
/// Carries the process's identity, the system size, the current round, and
/// the round's private coin-flip stream.
#[derive(Debug)]
pub struct Context<'a> {
    pid: ProcessId,
    n: usize,
    round: Round,
    rng: &'a mut SimRng,
    coins: u64,
}

impl<'a> Context<'a> {
    /// Creates a context. Used by the engine and by unit tests that drive a
    /// process by hand.
    #[must_use]
    pub fn new(pid: ProcessId, n: usize, round: Round, rng: &'a mut SimRng) -> Context<'a> {
        Context {
            pid,
            n,
            round,
            rng,
            coins: 0,
        }
    }

    /// This process's identity.
    #[must_use]
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Total number of processes in the system (the paper's `n`).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The current round.
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// The round's private random stream for this process.
    ///
    /// Draws are reproducible across replays and independent across
    /// `(process, round, phase)` triples. Each call counts as one coin,
    /// whatever is drawn from the stream: see [`coins`](Context::coins).
    pub fn rng(&mut self) -> &mut SimRng {
        self.coins += 1;
        self.rng
    }

    /// How many times [`rng`](Context::rng) was called on this context. A
    /// call that drew no coin behaved the same under every seed.
    #[must_use]
    pub fn coins(&self) -> u64 {
        self.coins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StreamPhase;

    #[test]
    fn context_exposes_coordinates() {
        let mut rng = SimRng::stream(1, ProcessId::new(2), Round::new(3), StreamPhase::Send);
        let mut ctx = Context::new(ProcessId::new(2), 10, Round::new(3), &mut rng);
        assert_eq!(ctx.pid(), ProcessId::new(2));
        assert_eq!(ctx.n(), 10);
        assert_eq!(ctx.round(), Round::new(3));
        assert_eq!(ctx.coins(), 0);
        // The rng is usable through the context, and every call asking
        // for it is counted.
        let _ = ctx.rng().bit();
        assert_eq!(ctx.coins(), 1);
        let _ = ctx.rng();
        assert_eq!(ctx.coins(), 2);
    }

    /// The doc-example process, reused as a smoke test of the trait.
    #[derive(Debug, Clone)]
    struct OneShot {
        input: Bit,
        decided: bool,
    }

    impl Process for OneShot {
        type Msg = Bit;

        fn send(&mut self, _ctx: &mut Context<'_>) -> SendPattern<Bit> {
            SendPattern::Broadcast(self.input)
        }

        fn receive(&mut self, _ctx: &mut Context<'_>, _inbox: &Inbox<Bit>) {
            self.decided = true;
        }

        fn decision(&self) -> Option<Bit> {
            self.decided.then_some(self.input)
        }

        fn halted(&self) -> bool {
            self.decided
        }
    }

    #[test]
    fn one_shot_lifecycle() {
        let mut p = OneShot {
            input: Bit::One,
            decided: false,
        };
        assert_eq!(p.decision(), None);
        assert!(!p.halted());

        let mut rng = SimRng::new(0);
        let mut ctx = Context::new(ProcessId::new(0), 1, Round::FIRST, &mut rng);
        let out = p.send(&mut ctx);
        assert_eq!(out, SendPattern::Broadcast(Bit::One));
        p.receive(&mut ctx, &Inbox::from_messages(Vec::new()));
        assert_eq!(p.decision(), Some(Bit::One));
        assert!(p.halted());
    }
}
