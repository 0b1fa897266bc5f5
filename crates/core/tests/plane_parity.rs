//! SynRan's preferences and flooding's singletons pack into single bits,
//! so their inboxes tally them through the value mask; these tests pin
//! the protocols' observable behaviour — threshold proposals, decisions,
//! round counts, whole reports — to [`Scalarized`] twins whose payloads
//! never pack.

use synran_core::{ConsensusProtocol, FloodingConsensus, SynRan};
use synran_sim::testing::Scalarized;
use synran_sim::{Bit, Passive, SimConfig, World};

/// Runs `protocol` plain and scalarized from identical seeds and asserts
/// the full run reports match byte for byte.
fn assert_plane_scalar_parity<P: ConsensusProtocol>(protocol: &P, n: usize, seed: u64) {
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 3 == 0)).collect();
    let cfg = SimConfig::new(n).seed(seed).max_rounds(10_000);
    let plain = {
        let mut w = World::new(cfg.clone(), |pid| {
            protocol.spawn(pid, n, inputs[pid.index()])
        })
        .unwrap();
        w.run(&mut Passive).unwrap()
    };
    let scalar = {
        let mut w = World::new(cfg, |pid| {
            Scalarized(protocol.spawn(pid, n, inputs[pid.index()]))
        })
        .unwrap();
        w.run(&mut Passive).unwrap()
    };
    assert_eq!(
        format!("{plain:?}"),
        format!("{scalar:?}"),
        "n={n} seed={seed}: plane vs scalar run reports diverge"
    );
}

#[test]
fn synran_threshold_decisions_match_the_scalar_oracle() {
    // The probabilistic stage's O-vs-N threshold comparisons read tallies
    // taken from the value mask plainly and from the unwrapped inbox
    // scalarized; any off-by-one in them would flip a proposal and change
    // the whole run.
    for n in [10, 63, 64, 70] {
        for seed in [1, 7, 1234] {
            assert_plane_scalar_parity(&SynRan::new(), n, seed);
            assert_plane_scalar_parity(&SynRan::symmetric(), n, seed);
        }
    }
}

#[test]
fn flooding_matches_the_scalar_oracle() {
    // Flooding's singleton rounds pack and rounds carrying {0,1} do not;
    // both must agree with the never-packing twin.
    for n in [9, 65] {
        for seed in [3, 99] {
            assert_plane_scalar_parity(&FloodingConsensus::for_faults(2), n, seed);
        }
    }
}
