//! Watching the §3.4 proof work: the message-walking adversary live.
//!
//! ```text
//! cargo run --release --example message_walk
//! ```
//!
//! Runs SynRan at small n under the [`MessageWalker`] — the finest-grained
//! realisation of the paper's lower-bound strategy, which fails one
//! process at a time and cuts its final messages receiver by receiver,
//! checking the estimated valency after every step — and prints the kill
//! pattern it discovers each round.

use synran::adversary::MessageWalker;
use synran::core::SynRanProcess;
use synran::prelude::*;
use synran::sim::DeliveryFilter;

/// Passes the walker's interventions through unchanged, printing each
/// kill and how many receivers its final broadcast still reaches.
struct Narrated(MessageWalker);

impl Adversary<SynRanProcess> for Narrated {
    fn intervene(&mut self, world: &World<SynRanProcess>) -> Intervention {
        let intervention = self.0.intervene(world);
        let n = world.n();
        let mut kills: Vec<_> = intervention.kills().iter().collect();
        kills.sort_by_key(|kill| kill.victim);
        for kill in kills {
            let kept = match &kill.delivered {
                DeliveryFilter::All => n,
                DeliveryFilter::None => 0,
                DeliveryFilter::To(list) => list.len(),
                DeliveryFilter::Prefix(k) => (*k).min(n),
            };
            println!(
                "  {}: walked {} — kept {kept} of its messages, cut {}",
                world.round(),
                kill.victim,
                n - kept
            );
        }
        intervention
    }
}

fn main() -> Result<(), SimError> {
    let n = 12;
    let t = n - 1;
    let seed = 11;
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();

    println!("n = {n}, t = {t}, even-split inputs, §3.4 message-walking adversary\n");
    println!("the walk, as the adversary chose it:");
    let verdict = synran::core::check_consensus(
        &SynRan::new(),
        &inputs,
        SimConfig::new(n).faults(t).seed(seed).max_rounds(50_000),
        &mut Narrated(MessageWalker::new(4, 3, 30, seed)),
    )?;
    let report = verdict.report();
    let first = (0..n)
        .map(ProcessId::new)
        .filter_map(|pid| {
            report
                .decided_at(pid)
                .map(|(round, value)| (round, pid, value))
        })
        .min();
    if let Some((round, pid, value)) = first {
        println!("  {round}: {pid} decided {value}");
    }
    println!(
        "\noutcome: {} rounds, {} kills, decision {:?} — all consensus conditions: {}",
        verdict.rounds(),
        report.failed_count(),
        report.unanimous_decision(),
        if verdict.is_correct() {
            "hold"
        } else {
            "VIOLATED"
        },
    );
    println!("\nreading: partial message deliveries (kept > 0, cut > 0) are the paper's");
    println!("case-3 steps — the walk found the exact message whose loss flips the");
    println!("round's valency, and stopped there.");
    assert!(verdict.is_correct());
    Ok(())
}
