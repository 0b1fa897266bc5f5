//! Quickstart: run SynRan to agreement under a live adversary.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Spins up 32 processes with split inputs, lets a random fail-stop
//! adversary kill up to half of them, and verifies the three consensus
//! conditions on the resulting execution.

use synran::prelude::*;

fn main() -> Result<(), SimError> {
    let n = 32;
    let t = n / 2;
    let seed = 2024;

    // Half the processes start with 1, half with 0 — the contested case.
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();

    // The paper's protocol...
    let protocol = SynRan::new();
    // ...against an adversary that kills √n random processes per round.
    let mut adversary = RandomKiller::new((n as f64).sqrt() as usize, seed);

    let cfg = SimConfig::new(n).faults(t).seed(seed);
    let verdict = check_consensus(&protocol, &inputs, cfg, &mut adversary)?;

    println!("protocol   : {}", protocol.name());
    println!("system     : n = {n}, fault budget t = {t}");
    println!("rounds     : {}", verdict.rounds());
    println!("kills used : {}", verdict.report().failed_count());
    println!("decision   : {:?}", verdict.report().unanimous_decision());
    println!("agreement  : {}", verdict.agreement());
    println!("validity   : {}", verdict.validity());
    println!("termination: {}", verdict.termination());

    println!("\nkills per round:");
    for (round, kills) in verdict.report().kills_per_round() {
        println!("  {round}: {kills} killed");
    }

    assert!(verdict.is_correct(), "{:?}", verdict.violations());
    println!("\nconsensus reached — all three conditions hold.");
    Ok(())
}
