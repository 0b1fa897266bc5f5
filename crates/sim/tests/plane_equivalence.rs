//! Delivery against a reference, and packing against non-packing payloads.
//!
//! The engine has one delivery path: every sender broadcasts, so each
//! inbox is a sender mask over the round's shared payload table. These
//! tests pin it two ways. A test-only reference builds each recipient's
//! `(sender, message)` list straight from the queued outboxes and the
//! intervention, and every inbox accessor must agree with it, at the
//! awkward widths (`n < 64`, `n` not a multiple of 64, word boundaries)
//! and with payloads that pack and payloads that do not in one round.
//! Whole-world runs then compare a protocol against its [`Scalarized`]
//! twin, whose payloads never pack: reports, inboxes, coins and the
//! engine's message counters must match byte for byte.

use std::sync::Arc;

use synran_sim::testing::{CoinCaller, CountDown, Scalarized};
use synran_sim::{
    Adversary, Bit, Context, DeliveryFilter, Inbox, Intervention, Passive, PlaneMsg, Process,
    ProcessId, SendPattern, SimConfig, SimRng, Telemetry, TelemetryMode, World,
};

/// The engine's message totals in `hub`: `(delivered, suppressed)`.
fn message_counts(hub: &Telemetry) -> (Option<u64>, Option<u64>) {
    let snap = hub.snapshot();
    (
        snap.counter("sim.messages_delivered"),
        snap.counter("sim.messages_suppressed"),
    )
}

/// Widths that exercise every word-edge case: sub-word, word boundary,
/// one-past, and multi-word with a ragged tail.
const WIDTHS: [usize; 7] = [1, 5, 63, 64, 65, 100, 130];

/// A payload that packs as a preference and does not as a set.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mixed {
    Pref(Bit),
    Set(u32),
}

impl PlaneMsg for Mixed {
    fn pack(&self) -> Option<Bit> {
        match self {
            Mixed::Pref(b) => Some(*b),
            Mixed::Set(_) => None,
        }
    }
}

/// What one inbox answered, accessor by accessor.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Seen {
    iter: Vec<(usize, Mixed)>,
    len: usize,
    tally: (usize, usize),
    unpackable: Vec<(usize, Mixed)>,
    /// `from(s)` for every sender `s` and one past the last.
    from: Vec<Option<Mixed>>,
}

impl Seen {
    fn of(inbox: &Inbox<Mixed>, n: usize) -> Seen {
        Seen {
            iter: inbox.iter().map(|(s, m)| (s.index(), m)).collect(),
            len: inbox.len(),
            tally: inbox.tally(),
            unpackable: inbox
                .unpackable()
                .map(|(s, m)| (s.index(), m.clone()))
                .collect(),
            from: (0..=n).map(|s| inbox.from(ProcessId::new(s))).collect(),
        }
    }

    /// What an inbox holding exactly `msgs` (ascending senders) answers.
    fn expected(msgs: Vec<(usize, Mixed)>, n: usize) -> Seen {
        let count = |bit| msgs.iter().filter(|(_, m)| m.pack() == Some(bit)).count();
        let mut from = vec![None; n + 1];
        for (s, m) in &msgs {
            from[*s] = Some(m.clone());
        }
        Seen {
            len: msgs.len(),
            tally: (count(Bit::Zero), count(Bit::One)),
            unpackable: msgs
                .iter()
                .filter(|(_, m)| m.pack().is_none())
                .cloned()
                .collect(),
            from,
            iter: msgs,
        }
    }
}

/// Sends a packing preference, a non-packing set or nothing, at random,
/// in proportions that change with the round — round 1 mod 3 packs
/// everything — and records what each inbox answered.
#[derive(Debug, Clone)]
struct Recorder {
    seen: Vec<Seen>,
}

impl Process for Recorder {
    type Msg = Mixed;

    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<Mixed> {
        let sets = ctx.round().index() % 3;
        let rng = ctx.rng();
        if rng.index(10) == 0 {
            SendPattern::Silent
        } else if rng.index(3) < sets as usize {
            SendPattern::Broadcast(Mixed::Set(rng.index(1000) as u32))
        } else {
            SendPattern::Broadcast(Mixed::Pref(rng.bit()))
        }
    }

    fn receive(&mut self, ctx: &mut Context<'_>, inbox: &Inbox<Mixed>) {
        self.seen.push(Seen::of(inbox, ctx.n()));
    }

    fn decision(&self) -> Option<Bit> {
        None
    }

    fn halted(&self) -> bool {
        false
    }
}

/// The reference: each recipient's `(sender, message)` list, built from
/// the queued outboxes and the intervention alone. A sender's broadcast
/// reaches `r` unless the sender is a victim whose filter does not allow
/// `r`; a silent sender reaches no one.
fn reference(world: &World<Recorder>, iv: &Intervention) -> Vec<Vec<(usize, Mixed)>> {
    let n = world.n();
    let filter_of = |s: usize| {
        iv.kills()
            .iter()
            .find(|k| k.victim.index() == s)
            .map(|k| &k.delivered)
    };
    (0..n)
        .map(|r| {
            (0..n)
                .filter_map(|s| match world.outbox(ProcessId::new(s)) {
                    Some(SendPattern::Broadcast(m)) => Some((s, m.clone())),
                    _ => None,
                })
                .filter(|&(s, _)| filter_of(s).is_none_or(|f| f.allows(ProcessId::new(r))))
                .collect()
        })
        .collect()
}

/// A random intervention over the alive set: about one victim in four,
/// each with an `All`, `None`, private `To`, shared `To` or `Prefix`
/// filter. Two receiver sets are shared, each by every victim that draws
/// it, so several victims name one `Arc`.
fn random_kills(world: &World<Recorder>, rng: &mut SimRng) -> Intervention {
    let n = world.n();
    let random_set = |rng: &mut SimRng| -> Arc<[ProcessId]> {
        (0..n)
            .filter(|_| rng.index(2) == 0)
            .map(ProcessId::new)
            .collect()
    };
    let shared = [random_set(rng), random_set(rng)];
    let mut iv = Intervention::new();
    for victim in world.alive_ids() {
        if rng.index(4) != 0 {
            continue;
        }
        let filter = match rng.index(6) {
            0 => DeliveryFilter::All,
            1 => DeliveryFilter::None,
            2 => DeliveryFilter::To(random_set(rng)),
            3 => DeliveryFilter::Prefix(rng.index(n + 2)),
            k => DeliveryFilter::To(Arc::clone(&shared[k - 4])),
        };
        iv = iv.kill(victim, filter);
    }
    iv
}

#[test]
fn every_inbox_accessor_matches_the_reference_delivery() {
    let mut rng = SimRng::new(0x9_1A4E);
    let (mut shared_rounds, mut mixed_rounds) = (0, 0);
    for n in WIDTHS {
        for seed in 0..3 {
            let cfg = SimConfig::new(n).faults(n).seed(seed);
            let mut world = World::new(cfg, |_| Recorder { seen: Vec::new() }).unwrap();
            for round in 1..=6 {
                if world.finished() {
                    break;
                }
                world.phase_a().unwrap();
                let iv = random_kills(&world, &mut rng);
                let expected = reference(&world, &iv);
                let mut sharers = std::collections::HashMap::new();
                for kill in iv.kills() {
                    if let DeliveryFilter::To(set) = &kill.delivered {
                        *sharers.entry(Arc::as_ptr(set)).or_insert(0) += 1;
                    }
                }
                shared_rounds += usize::from(sharers.values().any(|&k| k > 1));
                world.deliver(iv).unwrap();
                for (pid, p, status) in world.processes() {
                    if !status.is_alive() {
                        continue;
                    }
                    let want = Seen::expected(expected[pid.index()].clone(), n);
                    mixed_rounds += usize::from(want.tally.0 + want.tally.1 < want.len);
                    assert_eq!(
                        p.seen.last(),
                        Some(&want),
                        "n={n} seed={seed} round={round} recipient={pid}"
                    );
                }
            }
        }
    }
    assert!(shared_rounds > 10, "victims share receiver sets");
    assert!(mixed_rounds > 100, "inboxes hold unpackable payloads");
}

/// A deterministic scripted adversary: at round `r` (1-based), kill the
/// listed victims with the listed filters. Generic over the process type
/// so the same script drives a plain world and its scalarized twin.
struct Scripted {
    script: Vec<(u32, Vec<(usize, DeliveryFilter)>)>,
}

impl<P: Process> Adversary<P> for Scripted {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        let round = world.round().index();
        let mut iv = Intervention::new();
        for (r, kills) in &self.script {
            if *r == round {
                for (victim, filter) in kills {
                    iv = iv.kill(ProcessId::new(*victim), filter.clone());
                }
            }
        }
        iv
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

fn kill_script() -> Scripted {
    Scripted {
        script: vec![
            // One broadcast-surviving kill, one fully silent, one partial
            // (list), one prefix — every delivery-filter arm.
            (1, vec![(3, DeliveryFilter::All)]),
            (2, vec![(5, DeliveryFilter::None)]),
            (
                3,
                vec![(
                    1,
                    DeliveryFilter::To(
                        vec![ProcessId::new(0), ProcessId::new(2), ProcessId::new(6)].into(),
                    ),
                )],
            ),
            (
                4,
                vec![
                    (7, DeliveryFilter::Prefix(4)),
                    (2, DeliveryFilter::Prefix(0)),
                ],
            ),
        ],
    }
}

#[test]
fn world_runs_identically_on_plane_and_scalar_paths_under_every_filter_kind() {
    // Delivery must not care about the worker budget either.
    for threads in [1, 2, 8] {
        for n in [9, 40, 70] {
            let cfg = SimConfig::new(n).seed(0xD1FF).faults(6).threads(threads);
            let plane_hub = Telemetry::new(TelemetryMode::Counters);
            let plain = {
                let mut w = World::new(cfg.clone(), |_| CountDown::new(8, Bit::One)).unwrap();
                w.set_telemetry(plane_hub.clone());
                w.run(&mut kill_script()).unwrap()
            };
            let scalar_hub = Telemetry::new(TelemetryMode::Counters);
            let scalar = {
                let mut w = World::new(cfg, |_| Scalarized(CountDown::new(8, Bit::One))).unwrap();
                w.set_telemetry(scalar_hub.clone());
                w.run(&mut kill_script()).unwrap()
            };
            assert_eq!(
                format!("{plain:?}"),
                format!("{scalar:?}"),
                "threads={threads} n={n}: packing vs non-packing report bytes diverge"
            );
            // Every filter kind's delivered and cut counts, summed: a
            // packing-dependent miscount in any arm shows here.
            let counts = message_counts(&plane_hub);
            assert_eq!(
                counts,
                message_counts(&scalar_hub),
                "threads={threads} n={n}: packing vs non-packing message counts diverge"
            );
            assert!(counts.1 > Some(0), "threads={threads} n={n}: {counts:?}");
            // Every payload of the plain run packs, so every round counts as
            // a plane round, whatever its kills' delivery filters.
            let snap = plane_hub.snapshot();
            assert_eq!(
                snap.counter("round.deliver.scalar"),
                None,
                "threads={threads} n={n}"
            );
            assert!(
                snap.counter("round.deliver.plane").unwrap_or(0) >= 8,
                "threads={threads} n={n}"
            );
        }
    }
}

#[test]
fn coin_streams_are_unperturbed_by_the_delivery_representation() {
    // CoinCaller draws one RNG bit per round in Phase A; if packing
    // consumed or reordered randomness, histories would diverge.
    for n in [7, 64, 96] {
        let run_plain = {
            let mut w = World::new(SimConfig::new(n).seed(0xC01), |_| CoinCaller::new(12)).unwrap();
            w.run(&mut Passive).unwrap();
            w.processes()
                .map(|(_, p, _)| p.history().to_vec())
                .collect::<Vec<_>>()
        };
        let run_scalar = {
            let mut w = World::new(SimConfig::new(n).seed(0xC01), |_| {
                Scalarized(CoinCaller::new(12))
            })
            .unwrap();
            w.run(&mut Passive).unwrap();
            w.processes()
                .map(|(_, p, _)| p.0.history().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(run_plain, run_scalar, "n={n}");
    }
}

/// Flips a coin in each phase of every round, broadcasts the send-phase
/// coin, and records every inbox as `(sender, bit)` pairs: its state pins
/// exactly who heard whom, and every coin either phase drew.
#[derive(Debug, Clone)]
struct Listener {
    rounds: usize,
    heard: Vec<Vec<(usize, Bit)>>,
    coins: Vec<Bit>,
}

impl Listener {
    fn new(rounds: usize) -> Listener {
        Listener {
            rounds,
            heard: Vec::new(),
            coins: Vec::new(),
        }
    }
}

impl Process for Listener {
    type Msg = Bit;

    fn send(&mut self, ctx: &mut Context<'_>) -> SendPattern<Bit> {
        let coin = ctx.rng().bit();
        self.coins.push(coin);
        SendPattern::Broadcast(coin)
    }

    fn receive(&mut self, ctx: &mut Context<'_>, inbox: &Inbox<Bit>) {
        self.heard
            .push(inbox.iter().map(|(s, b)| (s.index(), b)).collect());
        self.coins.push(ctx.rng().bit());
    }

    fn decision(&self) -> Option<Bit> {
        self.halted().then(|| self.coins[0])
    }

    fn halted(&self) -> bool {
        self.heard.len() >= self.rounds
    }
}

/// The round the mixed kills land in.
const MIXED_ROUND: u32 = 2;
/// The width of the mixed round: two words with a ragged tail.
const MIXED_N: usize = 70;

/// A receiver no kill of [`mixed_kills`] reaches: outside the shared set
/// (ids ≡ 0 mod 4), the distinct list, and the prefix.
const OUTSIDE: usize = 39;

/// One round mixing every way kills can share a receiver set:
/// * many victims (ids ≡ 1 mod 3) share one `Arc` — the ids ≡ 0 mod 4 —
///   and are split around the others in the kill list;
/// * one victim has a distinct list;
/// * one has a list equal in content to the shared one, in its own `Arc`;
/// * one died 37 sends into its ordered broadcast.
fn mixed_kills() -> Vec<(usize, DeliveryFilter)> {
    let shared: Arc<[ProcessId]> = (0..MIXED_N)
        .filter(|i| i % 4 == 0)
        .map(ProcessId::new)
        .collect();
    let distinct: Arc<[ProcessId]> = [6, 9, 11, 13, 50, 69].map(ProcessId::new).into();
    let equal_copy: Arc<[ProcessId]> = shared.to_vec().into();
    let sharers: Vec<usize> = (1..MIXED_N).step_by(3).filter(|&v| v != OUTSIDE).collect();
    let (early, late) = sharers.split_at(sharers.len() / 2);
    let mut kills: Vec<(usize, DeliveryFilter)> = early
        .iter()
        .map(|&v| (v, DeliveryFilter::To(Arc::clone(&shared))))
        .collect();
    kills.push((2, DeliveryFilter::To(distinct)));
    kills.push((5, DeliveryFilter::To(equal_copy)));
    kills.push((8, DeliveryFilter::Prefix(37)));
    kills.extend(
        late.iter()
            .map(|&v| (v, DeliveryFilter::To(Arc::clone(&shared)))),
    );
    kills
}

/// `kills` with every `To` list copied into an `Arc` of its own, the shape
/// the adversaries built before receiver sets were shared.
fn private_copies(kills: &[(usize, DeliveryFilter)]) -> Vec<(usize, DeliveryFilter)> {
    kills
        .iter()
        .map(|(v, filter)| match filter {
            DeliveryFilter::To(set) => (*v, DeliveryFilter::To(set.to_vec().into())),
            other => (*v, other.clone()),
        })
        .collect()
}

fn mixed_script(kills: Vec<(usize, DeliveryFilter)>) -> Scripted {
    Scripted {
        script: vec![(MIXED_ROUND, kills)],
    }
}

fn mixed_cfg() -> SimConfig {
    SimConfig::new(MIXED_N).seed(0x5E75).faults(40)
}

/// Every observable of a finished world: its report (decisions, decision
/// rounds, statuses), each process's inboxes and coins, and the message
/// totals its telemetry `hub` counted.
fn observe<P: Process>(
    world: &World<P>,
    hub: &Telemetry,
    listener: impl Fn(&P) -> &Listener,
) -> String {
    let states: Vec<_> = world
        .processes()
        .map(|(_, p, _)| (&listener(p).heard, &listener(p).coins))
        .collect();
    format!(
        "{:?}\n{states:?}\n{:?}",
        world.report(),
        message_counts(hub)
    )
}

fn run_plain(kills: Vec<(usize, DeliveryFilter)>) -> String {
    let hub = Telemetry::new(TelemetryMode::Counters);
    let mut w = World::new(mixed_cfg(), |_| Listener::new(4)).unwrap();
    w.set_telemetry(hub.clone());
    w.run(&mut mixed_script(kills)).unwrap();
    observe(&w, &hub, |p| p)
}

fn run_scalar(kills: Vec<(usize, DeliveryFilter)>) -> String {
    let hub = Telemetry::new(TelemetryMode::Counters);
    let mut w = World::new(mixed_cfg(), |_| Scalarized(Listener::new(4))).unwrap();
    w.set_telemetry(hub.clone());
    w.run(&mut mixed_script(kills)).unwrap();
    observe(&w, &hub, |p| &p.0)
}

#[test]
fn shared_receiver_sets_deliver_exactly_what_each_filter_allows() {
    let kills = mixed_kills();
    assert!(kills.len() > 20, "many victims share the one set");
    assert!(kills
        .iter()
        .all(|(v, f)| *v != OUTSIDE && !f.allows(ProcessId::new(OUTSIDE))));

    // The reference: step the mixed round by hand and check every
    // receiver's inbox against `DeliveryFilter::allows` on the queued
    // broadcasts — list membership, independent of the engine's masks.
    let mut w = World::new(mixed_cfg(), |_| Listener::new(4)).unwrap();
    for _ in 1..MIXED_ROUND {
        w.phase_a().unwrap();
        w.deliver(Intervention::none()).unwrap();
    }
    w.phase_a().unwrap();
    let filter_of = |s: usize| kills.iter().find(|(v, _)| *v == s).map(|(_, f)| f);
    let expected: Vec<Vec<(usize, Bit)>> = (0..MIXED_N)
        .map(|r| {
            (0..MIXED_N)
                .filter_map(|s| match w.outbox(ProcessId::new(s)) {
                    Some(SendPattern::Broadcast(b)) => Some((s, *b)),
                    _ => None,
                })
                .filter(|&(s, _)| filter_of(s).is_none_or(|f| f.allows(ProcessId::new(r))))
                .collect()
        })
        .collect();
    let mut iv = Intervention::new();
    for (victim, filter) in &kills {
        iv = iv.kill(ProcessId::new(*victim), filter.clone());
    }
    w.deliver(iv).unwrap();
    let mut adjusted = 0;
    for (pid, p, status) in w.processes() {
        let r = pid.index();
        if filter_of(r).is_some() {
            assert!(status.is_failed(), "victim {r}");
            continue;
        }
        assert_eq!(p.heard.last(), Some(&expected[r]), "receiver {r}");
        if expected[r].len() > expected[OUTSIDE].len() {
            adjusted += 1;
        }
    }
    assert!(adjusted > 10, "the sets reach many receivers");
    // The receiver outside every set was checked above and heard no victim.
    assert!(w.status(ProcessId::new(OUTSIDE)).is_alive());
    assert!(expected[OUTSIDE]
        .iter()
        .all(|&(s, _)| filter_of(s).is_none()));
}

#[test]
fn shared_receiver_sets_run_identically_on_both_paths_and_as_private_copies() {
    let kills = mixed_kills();
    let plain = run_plain(kills.clone());
    assert_eq!(
        plain,
        run_scalar(kills.clone()),
        "packing vs non-packing payloads diverge"
    );
    assert_eq!(
        plain,
        run_plain(private_copies(&kills)),
        "shared sets vs per-victim copies diverge with packing payloads"
    );
    assert_eq!(
        plain,
        run_scalar(private_copies(&kills)),
        "shared sets vs per-victim copies diverge with non-packing payloads"
    );
}
