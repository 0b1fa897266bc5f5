//! Differential tests pinning the bit-plane fast path to the scalar path.
//!
//! The engine promises that routing broadcast rounds through word-packed
//! planes is *observationally invisible*: inbox contents, process
//! decisions, traces, metrics, and reports are bit-for-bit what the
//! scalar pair representation produces. These tests enforce that promise
//! with fixed-seed randomized cases over the awkward widths (`n < 64`,
//! `n` not a multiple of 64, word boundaries) and with whole-world
//! differential runs against [`Scalarized`] oracles.

use synran_sim::testing::{CoinCaller, CountDown, Scalarized};
use synran_sim::{
    Adversary, Bit, BitPlane, DeliveryFilter, Inbox, Intervention, Passive, Process, ProcessId,
    SimConfig, SimRng, World,
};

/// Widths that exercise every word-edge case: sub-word, word boundary,
/// one-past, and multi-word with a ragged tail.
const WIDTHS: [usize; 7] = [1, 5, 63, 64, 65, 100, 130];

/// Builds the pair-backed and plane-backed views of the same delivery
/// (senders ⊆ 0..n with per-sender bits) and returns both.
fn twin_inboxes(n: usize, rng: &mut SimRng) -> (Inbox<Bit>, Inbox<Bit>) {
    let mut sent = BitPlane::new(n);
    let mut ones = BitPlane::new(n);
    let mut pairs = Vec::new();
    for i in 0..n {
        if rng.index(3) == 0 {
            continue; // this sender stays silent
        }
        let bit = Bit::from(rng.index(2) == 1);
        sent.set(i);
        if bit.is_one() {
            ones.set(i);
        }
        pairs.push((ProcessId::new(i), bit));
    }
    (Inbox::from_messages(pairs), Inbox::from_plane(sent, ones))
}

#[test]
fn plane_and_pair_inboxes_are_observationally_equal_at_every_edge_width() {
    let mut rng = SimRng::new(0x9_1A4E);
    for n in WIDTHS {
        for case in 0..16 {
            let (pairs, plane) = twin_inboxes(n, &mut rng);
            assert_eq!(pairs, plane, "n={n} case={case}");
            assert_eq!(pairs.len(), plane.len(), "n={n} case={case}");
            assert_eq!(pairs.tally(), plane.tally(), "n={n} case={case}");
            assert!(
                pairs.iter().eq(plane.iter()),
                "n={n} case={case}: iteration order diverges"
            );
            // Per-sender lookups agree, in and out of range.
            for i in 0..n {
                assert_eq!(
                    pairs.from(ProcessId::new(i)),
                    plane.from(ProcessId::new(i)),
                    "n={n} case={case} sender={i}"
                );
            }
            assert_eq!(plane.from(ProcessId::new(n + 7)), None);
            assert_eq!(
                pairs.count_where(|m| m.is_one()),
                plane.count_where(|m| m.is_one()),
            );
        }
    }
}

#[test]
fn all_dead_round_yields_an_empty_inbox_on_both_reprs() {
    for n in WIDTHS {
        let pairs: Inbox<Bit> = Inbox::from_messages(Vec::new());
        let plane: Inbox<Bit> = Inbox::from_plane(BitPlane::new(n), BitPlane::new(n));
        assert_eq!(pairs, plane, "n={n}");
        assert!(plane.is_empty());
        assert_eq!(plane.tally(), (0, 0));
        assert_eq!(plane.iter().count(), 0);
    }
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
                    DeliveryFilter::To(vec![
                        ProcessId::new(0),
                        ProcessId::new(2),
                        ProcessId::new(6),
                    ]),
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
    use synran_sim::telemetry::{Telemetry, TelemetryMode};
    // The plane path must not care about the worker budget either.
    for threads in [1, 2, 8] {
        for n in [9, 40, 70] {
            let cfg = SimConfig::new(n)
                .seed(0xD1FF)
                .faults(6)
                .trace(true)
                .threads(threads);
            let plane_hub = Telemetry::new(TelemetryMode::Counters);
            let plain = {
                let mut w = World::new(cfg.clone(), |_| CountDown::new(8, Bit::One)).unwrap();
                w.set_telemetry(plane_hub.clone());
                w.run(&mut kill_script()).unwrap()
            };
            let scalar = {
                let mut w = World::new(cfg, |_| Scalarized(CountDown::new(8, Bit::One))).unwrap();
                w.run(&mut kill_script()).unwrap()
            };
            assert_eq!(
                format!("{plain:?}"),
                format!("{scalar:?}"),
                "threads={threads} n={n}: plane vs scalar report bytes diverge"
            );
            // Rounds with only All/None/Prefix/To-free broadcasts stay on the
            // fast path; the To/Prefix kills above don't evict it (they are
            // delivery filters, not send patterns).
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
    // CoinCaller draws one RNG bit per round in Phase A; if the plane path
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
