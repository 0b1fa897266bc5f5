//! E9 — §1.2: the lower bound *needs* adaptivity.
//!
//! The paper (citing Chor–Merritt–Shmoys) notes that `O(1)` expected
//! rounds are achievable against **non-adaptive** fail-stop adversaries,
//! so Theorem 1's `Ω(t/√(n·log n))` is specifically about *adaptive*
//! ones. This harness measures the full landscape with both protocols and
//! both adversary kinds:
//!
//! * `LeaderConsensus` (CMS-style random leader, `t < n/2`): `O(1)`
//!   expected rounds against any pre-committed schedule, but `Θ(t)` rounds
//!   against the adaptive leader hunter — adaptivity costs it everything;
//! * `SynRan` (the paper's protocol, any `t < n`): `Θ(t/√(n·log n))`
//!   against its best adaptive attack — slower than CMS against statics,
//!   but *immune to adaptivity* in exactly the sense the paper's tight
//!   bound promises.

use std::io::Write;
use std::process::ExitCode;

use synran_adversary::{Balancer, LeaderHunter, Oblivious};
use synran_analysis::{fmt_f64, Summary, Table};
use synran_bench::{count, Error};
use synran_core::{check_consensus, ConsensusProtocol, LeaderConsensus, SynRan};
use synran_lab::cli::Options;
use synran_lab::presets::{banner, section};
use synran_sim::{Adversary, Bit, Passive, Process, SimConfig, SimError, SimRng};

fn measure<P, A>(
    protocol: &P,
    n: usize,
    t: usize,
    runs: usize,
    seed: u64,
    mut make: impl FnMut(u64) -> A,
) -> Result<(f64, f64, f64), SimError>
where
    P: ConsensusProtocol,
    A: Adversary<P::Proc>,
    P::Proc: Process,
{
    let inputs: Vec<Bit> = (0..n).map(|i| Bit::from(i % 2 == 0)).collect();
    let mut rounds = Vec::new();
    let mut kills = Vec::new();
    for r in 0..runs {
        let run_seed = SimRng::new(seed).derive(r as u64).next_u64();
        let verdict = check_consensus(
            protocol,
            &inputs,
            SimConfig::new(n)
                .faults(t)
                .seed(run_seed)
                .max_rounds(200_000),
            &mut make(run_seed),
        )?;
        assert!(
            verdict.is_correct(),
            "violation at n={n} t={t}: {:?}",
            verdict.violations()
        );
        rounds.push(verdict.rounds());
        kills.push(verdict.report().failed_count() as u32);
    }
    let s = Summary::of_u32(&rounds);
    Ok((s.mean(), s.ci95_halfwidth(), Summary::of_u32(&kills).mean()))
}

fn main() -> ExitCode {
    synran_bench::main(&["runs", "seed"], &["fast"], run)
}

fn run(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let runs = count(opts, "runs", 25)?;
    let seed = opts.number("seed")?.unwrap_or(9);
    let sizes: Vec<usize> = if opts.flag("fast") {
        vec![33]
    } else {
        vec![33, 65, 129]
    };

    banner(
        out,
        "E9 adaptivity is necessary (§1.2 / [CMS89])",
        "non-adaptive adversaries allow O(1) expected rounds; Theorem 1 needs adaptivity",
    )?;
    writeln!(out, "even-split inputs, {runs} runs/cell; LeaderConsensus uses t = (n−1)/2 (its bound), SynRan t = n−1")?;

    section(out, "LeaderConsensus (CMS-style): static vs adaptive")?;
    let mut table = Table::new([
        "n",
        "t",
        "adversary",
        "mean rounds",
        "±95%",
        "kills",
        "rounds/t",
    ]);
    for &n in &sizes {
        let t = (n - 1) / 2;
        let protocol = LeaderConsensus::for_faults(t);
        let (m, ci, k) = measure(&protocol, n, t, runs, seed, |_| Passive)?;
        table.row([
            n.to_string(),
            t.to_string(),
            "passive".into(),
            fmt_f64(m, 1),
            fmt_f64(ci, 1),
            fmt_f64(k, 1),
            fmt_f64(m / t as f64, 2),
        ]);
        let (m, ci, k) = measure(&protocol, n, t, runs, seed ^ 1, |s| {
            Oblivious::new(n, 1, 200, s)
        })?;
        table.row([
            n.to_string(),
            t.to_string(),
            "oblivious(1/rd)".into(),
            fmt_f64(m, 1),
            fmt_f64(ci, 1),
            fmt_f64(k, 1),
            fmt_f64(m / t as f64, 2),
        ]);
        let (m, ci, k) = measure(&protocol, n, t, runs, seed ^ 2, |_| LeaderHunter::new())?;
        table.row([
            n.to_string(),
            t.to_string(),
            "leader-hunter".into(),
            fmt_f64(m, 1),
            fmt_f64(ci, 1),
            fmt_f64(k, 1),
            fmt_f64(m / t as f64, 2),
        ]);
    }
    write!(out, "{table}")?;
    writeln!(
        out,
        "\nexpected: passive and oblivious rows are flat (O(1), the CMS effect);\
         \nthe hunter row grows ∝ t (rounds/t roughly constant) at ~2 kills/round."
    )?;

    section(out, "SynRan for contrast: adaptivity changes little")?;
    let mut syn_table = Table::new(["n", "t", "adversary", "mean rounds", "±95%", "kills"]);
    for &n in &sizes {
        let t = n - 1;
        let protocol = SynRan::new();
        for (name, oblivious) in [("oblivious(√n/rd)", true), ("balancer (adaptive)", false)] {
            let rate = (n as f64).sqrt().ceil() as usize;
            let (m, ci, k) = if oblivious {
                measure(&protocol, n, t, runs, seed ^ 3, |s| {
                    Box::new(Oblivious::new(n, rate, 200, s))
                        as Box<dyn Adversary<synran_core::SynRanProcess> + Send>
                })
            } else {
                measure(&protocol, n, t, runs, seed ^ 4, |_| {
                    Box::new(Balancer::unbounded())
                        as Box<dyn Adversary<synran_core::SynRanProcess> + Send>
                })
            }?;
            syn_table.row([
                n.to_string(),
                t.to_string(),
                name.into(),
                fmt_f64(m, 1),
                fmt_f64(ci, 1),
                fmt_f64(k, 1),
            ]);
        }
    }
    write!(out, "{syn_table}")?;
    writeln!(
        out,
        "\nreading: SynRan pays a bounded factor either way — its Θ(t/√(n·log n))\
         \nguarantee holds against adaptive adversaries, where leader protocols fall to Θ(t).\
         \nBoth facts together are the paper's §1.2 landscape."
    )?;
    Ok(())
}
