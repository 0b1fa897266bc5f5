//! Tiny processes for tests, docs, and downstream crates' test suites.
//!
//! These are deliberately trivial protocols — they exist so that engine
//! behaviour (phases, kills, delivery filters, budgets) can be tested
//! without dragging in a real consensus protocol.

use crate::{Bit, Context, Inbox, PlaneMsg, Process, SendPattern};

/// Broadcasts its input once, then decides it and halts.
///
/// The simplest possible protocol: **not** a consensus protocol (no
/// agreement), but enough to exercise one full engine round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Echo {
    input: Bit,
    decided: bool,
}

impl Echo {
    /// Creates an echo process with the given input.
    #[must_use]
    pub fn new(input: Bit) -> Echo {
        Echo {
            input,
            decided: false,
        }
    }
}

impl Process for Echo {
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

/// Broadcasts a fixed bit for a fixed number of rounds, then decides it and
/// halts. Records how many messages it saw in the last round, which lets
/// engine tests observe delivery filtering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountDown {
    remaining: u32,
    value: Bit,
    last_inbox_len: usize,
}

impl CountDown {
    /// Creates a process that runs for `rounds` rounds broadcasting `value`.
    #[must_use]
    pub fn new(rounds: u32, value: Bit) -> CountDown {
        CountDown {
            remaining: rounds,
            value,
            last_inbox_len: 0,
        }
    }

    /// Messages received in the most recent round.
    #[must_use]
    pub fn last_inbox_len(&self) -> usize {
        self.last_inbox_len
    }
}

impl Process for CountDown {
    type Msg = Bit;

    fn send(&mut self, _ctx: &mut Context<'_>) -> SendPattern<Bit> {
        SendPattern::Broadcast(self.value)
    }

    fn receive(&mut self, _ctx: &mut Context<'_>, inbox: &Inbox<Bit>) {
        self.last_inbox_len = inbox.len();
        self.remaining = self.remaining.saturating_sub(1);
    }

    fn decision(&self) -> Option<Bit> {
        (self.remaining == 0).then_some(self.value)
    }

    fn halted(&self) -> bool {
        self.remaining == 0
    }
}

/// Flips a fair coin every round and broadcasts it; decides the first coin
/// it ever flips, halting after `rounds` rounds. Used to exercise the
/// deterministic per-(process, round) randomness streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoinCaller {
    rounds: u32,
    elapsed: u32,
    first: Option<Bit>,
    history: Vec<Bit>,
}

impl CoinCaller {
    /// Creates a coin caller that participates for `rounds` rounds.
    #[must_use]
    pub fn new(rounds: u32) -> CoinCaller {
        CoinCaller {
            rounds,
            elapsed: 0,
            first: None,
            history: Vec::new(),
        }
    }

    /// Every coin flipped so far, in round order.
    #[must_use]
    pub fn history(&self) -> &[Bit] {
        &self.history
    }
}

impl Process for CoinCaller {
    type Msg = Bit;

    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<Bit> {
        let coin = ctx.rng().bit();
        self.history.push(coin);
        if self.first.is_none() {
            self.first = Some(coin);
        }
        SendPattern::Broadcast(coin)
    }

    fn receive(&mut self, _ctx: &mut Context<'_>, _inbox: &Inbox<Bit>) {
        self.elapsed += 1;
    }

    fn decision(&self) -> Option<Bit> {
        self.first
    }

    fn halted(&self) -> bool {
        self.elapsed >= self.rounds
    }
}

/// A message wrapper that hides its payload's bit packing.
///
/// `Opaque<M>` carries `M` but its [`PlaneMsg`] impl never packs, so every
/// `Opaque` payload is a non-packing payload even when `M` itself packs.
/// Differential tests wrap a protocol in [`Scalarized`] to re-run it with
/// non-packing payloads and compare it with the plain run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Opaque<M>(pub M);

impl<M> PlaneMsg for Opaque<M> {}

/// Runs any process with non-packing payloads by wrapping its messages in
/// [`Opaque`].
///
/// `Scalarized<P>` is observationally identical to `P` — same sends (modulo
/// the wrapper), same receives, same decisions, same coins — but its
/// message type never packs, so the engine counts its rounds as
/// `round.deliver.scalar` and its inboxes count their zeros through the
/// packed plane instead of the sent mask. Running a protocol plain and
/// scalarized from the same seed and comparing their reports, inboxes and
/// message counters checks that packing changes nothing a process can
/// observe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scalarized<P>(pub P);

impl<P: Process> Process for Scalarized<P> {
    type Msg = Opaque<P::Msg>;

    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<Opaque<P::Msg>> {
        match self.0.send(ctx) {
            SendPattern::Broadcast(m) => SendPattern::Broadcast(Opaque(m)),
            SendPattern::Silent => SendPattern::Silent,
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, inbox: &Inbox<Opaque<P::Msg>>) {
        let unwrapped: Inbox<P::Msg> = inbox
            .iter()
            .map(|(sender, Opaque(m))| (sender, m))
            .collect();
        self.0.receive(ctx, &unwrapped);
    }

    fn decision(&self) -> Option<Bit> {
        self.0.decision()
    }

    fn halted(&self) -> bool {
        self.0.halted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Passive, ProcessId, SimConfig, World};

    #[test]
    fn echo_decides_input() {
        let mut w = World::new(SimConfig::new(3).seed(0), |pid| {
            Echo::new(Bit::from(pid.index() == 0))
        })
        .unwrap();
        let report = w.run(&mut Passive).unwrap();
        assert_eq!(report.decision_of(crate::ProcessId::new(0)), Some(Bit::One));
        assert_eq!(
            report.decision_of(crate::ProcessId::new(1)),
            Some(Bit::Zero)
        );
    }

    #[test]
    fn countdown_runs_for_exactly_n_rounds() {
        let mut w = World::new(SimConfig::new(2).seed(0), |_| CountDown::new(7, Bit::One)).unwrap();
        let report = w.run(&mut Passive).unwrap();
        assert_eq!(report.rounds(), 7);
    }

    #[test]
    fn scalarized_echo_matches_plain_echo_but_takes_the_scalar_path() {
        use crate::telemetry::{Telemetry, TelemetryMode};
        let factory = |pid: ProcessId| Echo::new(Bit::from(pid.index().is_multiple_of(2)));
        let plain = {
            let hub = Telemetry::new(TelemetryMode::Counters);
            let mut w = World::new(SimConfig::new(5).seed(9), factory).unwrap();
            w.set_telemetry(hub.clone());
            let report = w.run(&mut Passive).unwrap();
            assert_eq!(hub.snapshot().counter("round.deliver.plane"), Some(1));
            assert_eq!(hub.snapshot().counter("round.deliver.scalar"), None);
            report
        };
        let hub = Telemetry::new(TelemetryMode::Counters);
        let scalar = {
            let mut w =
                World::new(SimConfig::new(5).seed(9), |pid| Scalarized(factory(pid))).unwrap();
            w.set_telemetry(hub.clone());
            w.run(&mut Passive).unwrap()
        };
        assert_eq!(hub.snapshot().counter("round.deliver.scalar"), Some(1));
        assert_eq!(hub.snapshot().counter("round.deliver.plane"), None);
        // Same decisions, decision rounds, statuses and rounds — byte for
        // byte.
        assert_eq!(format!("{plain:?}"), format!("{scalar:?}"));
    }

    #[test]
    fn coin_caller_coins_are_reproducible_per_seed() {
        let run = |seed| {
            let mut w = World::new(SimConfig::new(4).seed(seed), |_| CoinCaller::new(6)).unwrap();
            w.run(&mut Passive).unwrap();
            w.processes()
                .map(|(_, p, _)| p.history().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn coin_caller_processes_flip_independently() {
        let mut w = World::new(SimConfig::new(8).seed(123), |_| CoinCaller::new(16)).unwrap();
        w.run(&mut Passive).unwrap();
        let histories: Vec<_> = w
            .processes()
            .map(|(_, p, _)| p.history().to_vec())
            .collect();
        // With 8 processes × 16 fair coins, identical histories are
        // overwhelmingly unlikely; equality would indicate stream reuse.
        for i in 0..histories.len() {
            for j in (i + 1)..histories.len() {
                assert_ne!(
                    histories[i], histories[j],
                    "processes {i} and {j} share coins"
                );
            }
        }
    }
}
