//! Property tests on the engine itself: whatever (legal) interventions an
//! adversary throws, the simulator's structural invariants hold.

use synran::prelude::*;
use synran::sim::{Context, DeliveryFilter, Inbox, Process, ProcessStatus, SendPattern};

/// A probe process that records everything it observes, so the tests can
/// audit delivery behaviour from the receiving side.
#[derive(Debug, Clone, Default)]
struct Auditor {
    /// Per round: the sender ids observed.
    inbox_log: Vec<Vec<usize>>,
    rounds_seen: u32,
    lifetime: u32,
}

impl Auditor {
    fn new(lifetime: u32) -> Auditor {
        Auditor {
            lifetime,
            ..Auditor::default()
        }
    }
}

impl Process for Auditor {
    type Msg = u32;

    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<u32> {
        SendPattern::Broadcast(ctx.pid().index() as u32)
    }

    fn receive(&mut self, _ctx: &mut Context<'_>, inbox: &Inbox<u32>) {
        self.inbox_log
            .push(inbox.senders().map(ProcessId::index).collect());
        self.rounds_seen += 1;
    }

    fn decision(&self) -> Option<Bit> {
        (self.rounds_seen >= self.lifetime).then_some(Bit::Zero)
    }

    fn halted(&self) -> bool {
        self.rounds_seen >= self.lifetime
    }
}

/// A scripted adversary applying arbitrary-but-legal interventions.
#[derive(Debug, Clone)]
struct Scripted {
    script: Vec<Vec<(usize, u8, usize)>>, // per round: (victim, filter kind, param)
    /// `(round, victims submitted)` for every round it killed in: an
    /// account of the kills kept apart from the engine's.
    submitted: Vec<(Round, usize)>,
}

impl<P: Process> Adversary<P> for Scripted {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        let round = world.round().index() as usize - 1;
        let Some(kills) = self.script.get(round) else {
            return Intervention::none();
        };
        let mut iv = Intervention::new();
        let mut used = 0usize;
        for &(victim, kind, param) in kills {
            let victim = ProcessId::new(victim % world.n());
            if !world.status(victim).is_alive()
                || iv.kills().iter().any(|k| k.victim == victim)
                || used + 1 > world.budget().remaining()
                || world.alive_count() <= iv.kills().len() + 1
            {
                continue;
            }
            let filter = match kind % 4 {
                0 => DeliveryFilter::All,
                1 => DeliveryFilter::None,
                2 => DeliveryFilter::Prefix(param % (world.n() + 1)),
                _ => DeliveryFilter::To(
                    (0..world.n())
                        .filter(|i| (param >> (i % 8)) & 1 == 1)
                        .map(ProcessId::new)
                        .collect(),
                ),
            };
            iv = iv.kill(victim, filter);
            used += 1;
        }
        if used > 0 {
            self.submitted.push((world.round(), used));
        }
        iv
    }
}

/// Draws an arbitrary intervention script from a deterministic generator:
/// up to 5 rounds, each with up to 3 `(victim, filter kind, param)` kills.
fn random_script(rng: &mut SimRng) -> Vec<Vec<(usize, u8, usize)>> {
    let rounds = rng.index(6);
    (0..rounds)
        .map(|_| {
            let kills = rng.index(4);
            (0..kills)
                .map(|_| (rng.index(32), (rng.next_u64() & 0xFF) as u8, rng.index(256)))
                .collect()
        })
        .collect()
}

/// Structural invariants across arbitrary legal intervention scripts:
/// inboxes are sorted and duplicate-free, alive processes always hear
/// themselves, per-receiver message counts never exceed the living
/// sender count, and statuses change monotonically.
///
/// Deterministic replacement for the former proptest: 64 cases drawn from
/// a fixed-seed [`SimRng`], so every CI run checks the same executions.
#[test]
fn engine_invariants_hold() {
    let mut gen = SimRng::new(0xE16_1E5);
    let mut kills_checked = 0;
    for case in 0..64 {
        let n = 2 + gen.index(14);
        let t = gen.index(16).min(n);
        let lifetime = 1 + gen.index(7) as u32;
        let seed = gen.next_u64();
        let script = random_script(&mut gen);
        let mut world = World::new(
            SimConfig::new(n).faults(t).seed(seed).max_rounds(100),
            |_| Auditor::new(lifetime),
        )
        .unwrap();
        let mut adversary = Scripted {
            script,
            submitted: Vec::new(),
        };
        let report = world.run(&mut adversary).unwrap();

        // Budget and status accounting: the report's kills per round are
        // exactly the victims the adversary submitted.
        assert!(report.failed_count() <= t, "case {case}");
        assert_eq!(report.kills_per_round(), adversary.submitted, "case {case}");
        kills_checked += report.failed_count();

        let mut alive_per_round: Vec<usize> = Vec::new();
        let mut kills_by_round = vec![0usize; report.rounds() as usize + 1];
        for (round, k) in report.kills_per_round() {
            kills_by_round[round.index() as usize - 1] = k;
        }
        let mut alive = n;
        #[allow(clippy::needless_range_loop)]
        for r in 0..report.rounds() as usize {
            alive_per_round.push(alive);
            alive -= kills_by_round[r].min(alive);
        }

        for (pid, p, status) in world.processes() {
            // A process that was never failed must have fully lived out
            // its scripted lifetime (or still be alive at the cap).
            match status {
                ProcessStatus::Failed(round) => {
                    // It stopped receiving the round it died.
                    assert!(p.rounds_seen <= round.index(), "case {case}");
                }
                ProcessStatus::Halted(_) => {
                    assert_eq!(p.rounds_seen, lifetime, "case {case}");
                }
                ProcessStatus::Alive => panic!("case {case}: run finished with {pid} alive"),
            }
            for (r, senders) in p.inbox_log.iter().enumerate() {
                // Sorted, duplicate-free senders.
                assert!(senders.windows(2).all(|w| w[0] < w[1]), "case {case}");
                // An alive receiver always hears itself (self-delivery can
                // only be cut by the receiver's own death, in which case
                // receive is never called).
                assert!(
                    senders.contains(&pid.index()),
                    "case {case}: {pid} missed its own message in round {}",
                    r + 1
                );
                // No more messages than processes alive at round start.
                assert!(senders.len() <= alive_per_round[r], "case {case}");
            }
        }
    }
    assert!(kills_checked > 20, "the scripts kill: {kills_checked}");
}
