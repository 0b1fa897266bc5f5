//! The name registry: the one table of protocol and adversary names, and
//! how a [`Cell`]'s names become an executable batch.
//!
//! [`PROTOCOLS`] and [`ADVERSARIES`] are the whole vocabulary — of
//! campaign specs, presets, and the `synran` CLI, whose `synran list`
//! prints them. The compatibility matrix is data: each adversary attacks
//! either every protocol or the ones it lists (the SynRan-specific attacks
//! only the SynRan family, `hunter` only `leader`), and the private
//! `resolve` is the only place a name becomes a constructor.
//!
//! Execution goes through [`synran_core::run_verdict`] and
//! [`BatchOutcome::fold`] — the two halves of
//! [`synran_core::run_batch_with`] — with the cell's base seed, so a cell
//! reproduces exactly what a hand-rolled experiment loop with the same
//! seed derivation produces. That equivalence is what lets the E3/E4/E6/E7
//! binaries delegate to the engine, the E5 and E8 binaries run their
//! batches as cells, and [`write_run_artifact`](crate::write_run_artifact)
//! replay a cell's run 0 as an experiment's representative run, all
//! byte-for-byte.

use synran_adversary::{
    Balancer, LeaderHunter, LowerBoundAdversary, MessageWalker, Oblivious, PreferenceKiller,
    RandomKiller, Storm,
};
use synran_core::{
    run_verdict, BatchOutcome, ConsensusProtocol, ConsensusVerdict, FloodingConsensus,
    InputAssignment, LeaderConsensus, LeaderProcess, RunRecord, SynRan, SynRanProcess,
};
use synran_sim::{parallel, Adversary, Bit, Passive, Process, SimConfig, SimError, Telemetry};

use crate::cell::{Cell, CellResult};
use crate::LabError;

/// One protocol of the name table.
#[derive(Debug)]
pub struct ProtocolName {
    /// The name cells, specs and `--protocol` use.
    pub name: &'static str,
    /// One line for `synran list`.
    pub about: &'static str,
}

/// One adversary of the name table.
#[derive(Debug)]
pub struct AdversaryName {
    /// The name cells, specs and `--adversary` use.
    pub name: &'static str,
    /// The protocols it can attack; empty when it attacks every protocol.
    pub attacks: &'static [&'static str],
    /// One line for `synran list`.
    pub about: &'static str,
}

/// The SynRan family: the protocols whose processes SynRan-specific
/// adversaries inspect.
const SYNRAN_FAMILY: &[&str] = &["synran", "symmetric"];

/// Every protocol name, in `synran list` order.
#[rustfmt::skip]
pub const PROTOCOLS: &[ProtocolName] = &[
    ProtocolName { name: "synran", about: "the paper's §4 protocol, any t < n" },
    ProtocolName { name: "symmetric", about: "SynRan minus the one-sided coin rule — E5's ablation" },
    ProtocolName { name: "flooding", about: "deterministic t+1-round baseline" },
    ProtocolName { name: "leader", about: "CMS-style random leader, t < n/2 — E9" },
];

/// Every adversary name, in `synran list` order.
#[rustfmt::skip]
pub const ADVERSARIES: &[AdversaryName] = &[
    AdversaryName { name: "passive", attacks: &[], about: "kills no one" },
    AdversaryName { name: "random", attacks: &[], about: "kills `rate` random processes a round" },
    AdversaryName { name: "storm", attacks: &[], about: "kills in seeded bursts" },
    AdversaryName { name: "oblivious", attacks: &[], about: "a pre-committed kill schedule" },
    AdversaryName { name: "kill-ones", attacks: SYNRAN_FAMILY, about: "kills processes that prefer 1" },
    AdversaryName { name: "kill-zeros", attacks: SYNRAN_FAMILY, about: "kills processes that prefer 0" },
    AdversaryName { name: "balancer", attacks: SYNRAN_FAMILY, about: "Lemma 4.6 stalling" },
    AdversaryName { name: "lower-bound", attacks: SYNRAN_FAMILY, about: "Theorem 1, valency-guided" },
    AdversaryName { name: "walker", attacks: SYNRAN_FAMILY, about: "§3.4 message walk" },
    AdversaryName { name: "hunter", attacks: &["leader"], about: "kills each round's leader — E9" },
];

impl AdversaryName {
    /// `true` when this adversary can attack protocol `name`.
    #[must_use]
    pub fn can_attack(&self, name: &str) -> bool {
        self.attacks.is_empty() || self.attacks.contains(&name)
    }

    /// The protocols it attacks, as `synran list` prints them.
    #[must_use]
    pub fn targets(&self) -> String {
        if self.attacks.is_empty() {
            "any protocol".into()
        } else {
            self.attacks.join(", ")
        }
    }
}

/// A per-run adversary factory (the batch runner calls it once per seed).
type Factory<P> = Box<dyn Fn(u64) -> Box<dyn Adversary<P> + Send> + Sync>;

/// The kill rate for rate-based adversaries: `cell.rate`, or `⌈√n⌉`.
fn kill_rate(cell: &Cell) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let sqrt_n = (cell.n as f64).sqrt().ceil() as usize;
    match cell.rate {
        0 => sqrt_n,
        rate => rate,
    }
}

fn unknown(kind: &str, name: &str) -> LabError {
    LabError::Unknown(format!("unknown {kind} {name:?} (see `synran list`)"))
}

/// Adversaries that understand any process type.
fn generic_factory<P: Process>(cell: &Cell) -> Result<Factory<P>, LabError> {
    let (n, rate) = (cell.n, kill_rate(cell));
    Ok(match cell.adversary.as_str() {
        "passive" => Box::new(|_| Box::new(Passive)),
        "random" => Box::new(move |s| Box::new(RandomKiller::new(rate, s))),
        "storm" => Box::new(|s| Box::new(Storm::new(s))),
        "oblivious" => Box::new(move |s| Box::new(Oblivious::new(n, rate, 500, s))),
        other => return Err(unknown("adversary", other)),
    })
}

/// Adversaries attacking the SynRan family, plus all generic ones.
fn synran_factory(cell: &Cell) -> Result<Factory<SynRanProcess>, LabError> {
    let (n, rate) = (cell.n, kill_rate(cell));
    let (cap, samples, horizon) = (cell.cap, cell.samples, cell.horizon);
    Ok(match cell.adversary.as_str() {
        "kill-ones" => Box::new(move |_| Box::new(PreferenceKiller::new(Bit::One, rate))),
        "kill-zeros" => Box::new(move |_| Box::new(PreferenceKiller::new(Bit::Zero, rate))),
        "balancer" => {
            if cap == 0 {
                Box::new(|_| Box::new(Balancer::unbounded()))
            } else {
                Box::new(move |_| Box::new(Balancer::with_cap(cap)))
            }
        }
        // `validate_cell` admits all three knobs or none.
        "lower-bound" => {
            if cap == 0 {
                Box::new(move |s| Box::new(LowerBoundAdversary::for_system(n, s)))
            } else {
                Box::new(move |s| {
                    Box::new(LowerBoundAdversary::with_params(cap, samples, horizon, s))
                })
            }
        }
        // A knob of 0 takes the walker's default; any other value is used
        // as given.
        "walker" => {
            let walker_cap = if cap == 0 { rate } else { cap };
            let walker_samples = if samples == 0 { 3 } else { samples };
            let walker_horizon = if horizon == 0 { 30 } else { horizon };
            Box::new(move |s| {
                Box::new(MessageWalker::new(
                    walker_cap,
                    walker_samples,
                    walker_horizon,
                    s,
                ))
            })
        }
        _ => generic_factory(cell)?,
    })
}

/// Adversaries attacking the leader protocol, plus all generic ones.
fn leader_factory(cell: &Cell) -> Result<Factory<LeaderProcess>, LabError> {
    if cell.adversary == "hunter" {
        return Ok(Box::new(|_| Box::new(LeaderHunter::new())));
    }
    generic_factory(cell)
}

/// One run of a resolved cell: `(config, run index, telemetry) → (seed,
/// verdict)`, exactly [`run_verdict`] with the cell's names resolved.
type RunFn<'a> = Box<
    dyn Fn(&SimConfig, usize, &Telemetry) -> Result<(u64, ConsensusVerdict), SimError> + Sync + 'a,
>;

/// A resolved cell: the protocol's own [`ConsensusProtocol::name`] (what
/// reports print, `synran-sym` for `symmetric`) and its per-run step.
type Plan<'a> = (String, RunFn<'a>);

fn plan<'a, P>(protocol: P, cell: &'a Cell, factory: Factory<P::Proc>) -> Plan<'a>
where
    P: ConsensusProtocol + Sync + 'a,
{
    let assignment = InputAssignment::Split { ones: cell.ones };
    let name = protocol.name().to_string();
    let step: RunFn<'a> = Box::new(move |cfg, index, telemetry| {
        run_verdict(
            &protocol, assignment, cfg, cell.seed, index, telemetry, &factory,
        )
    });
    (name, step)
}

/// Validates `cell` and resolves its names into a [`Plan`] — the one place
/// a name becomes a constructor.
fn resolve(cell: &Cell) -> Result<Plan<'_>, LabError> {
    validate_cell(cell)?;
    Ok(match cell.protocol.as_str() {
        "synran" => plan(SynRan::new(), cell, synran_factory(cell)?),
        "symmetric" => plan(SynRan::symmetric(), cell, synran_factory(cell)?),
        "flooding" => plan(
            FloodingConsensus::for_faults(cell.t),
            cell,
            generic_factory(cell)?,
        ),
        "leader" => plan(
            LeaderConsensus::for_faults(cell.t),
            cell,
            leader_factory(cell)?,
        ),
        other => return Err(unknown("protocol", other)),
    })
}

/// A cell's execution parameters: one thread per run, since the engine
/// parallelises across runs.
fn base_config(cell: &Cell) -> SimConfig {
    SimConfig::new(cell.n)
        .faults(cell.t)
        .max_rounds(cell.max_rounds)
        .threads(1)
}

impl From<&BatchOutcome> for CellResult {
    fn from(outcome: &BatchOutcome) -> CellResult {
        CellResult {
            rounds: outcome.rounds().to_vec(),
            kills: outcome.kills().iter().map(|&k| k as u64).collect(),
            timeouts: u32::try_from(outcome.timeouts()).unwrap_or(u32::MAX),
            violations: u32::try_from(outcome.incorrect().len()).unwrap_or(u32::MAX),
        }
    }
}

/// Executes `cells` with their runs spread over `threads` workers in
/// **one** call over the flat `(cell, run)` index space, starting no run
/// more than `window_cells` cells' worth of runs (of the widest cell)
/// ahead of the fold. Each cell's runs are folded in run order, and `sink`
/// receives each cell's outcome in cell order as its last run lands, so
/// what it sees is identical to executing the cells one by one, serially,
/// at every thread count.
///
/// # Errors
///
/// Returns the error of the lowest failing cell (by position in `cells`),
/// within it the lowest failing run's, or `sink`'s; no later cell reaches
/// `sink`.
pub(crate) fn run_cells_in_order(
    cells: &[&Cell],
    threads: usize,
    window_cells: usize,
    telemetry: &Telemetry,
    mut sink: impl FnMut(BatchOutcome) -> Result<(), LabError>,
) -> Result<(), LabError> {
    // `starts[c]` is cell c's first flat index; the last entry is the
    // total. A cell with no runs is invalid, and its one index reports so.
    let mut starts = Vec::with_capacity(cells.len() + 1);
    starts.push(0usize);
    for cell in cells {
        starts.push(starts[starts.len() - 1] + cell.runs.max(1));
    }
    let widest = cells.iter().map(|cell| cell.runs).max().unwrap_or(1);
    let (mut next, mut records) = (0, Vec::new());
    parallel::par_each_in_order(
        telemetry,
        threads,
        starts[cells.len()],
        window_cells.saturating_mul(widest),
        |k| -> Result<_, LabError> {
            let c = starts.partition_point(|&s| s <= k) - 1;
            // Resolved per run, so that no per-cell state outlives its runs.
            let (_, step) = resolve(cells[c])?;
            Ok(RunRecord::classify(step(
                &base_config(cells[c]),
                k - starts[c],
                telemetry,
            ))?)
        },
        |record| {
            records.push(record?);
            if records.len() == cells[next].runs {
                sink(BatchOutcome::fold(std::mem::take(&mut records), telemetry))?;
                next += 1;
            }
            Ok(())
        },
    )
}

/// Executes one cell's batch on `threads` workers.
fn run_one(cell: &Cell, threads: usize, telemetry: &Telemetry) -> Result<BatchOutcome, LabError> {
    let mut outcome = None;
    run_cells_in_order(&[cell], threads, 1, telemetry, |batch| {
        outcome = Some(batch);
        Ok(())
    })?;
    Ok(outcome.expect("one outcome per cell"))
}

/// Validates a cell without executing anything — `status` and spec
/// linting use this.
///
/// # Errors
///
/// Returns [`LabError::Unknown`] for a name missing from [`PROTOCOLS`] or
/// [`ADVERSARIES`], or an incompatible pairing; [`LabError::Spec`] for a
/// degenerate geometry (`n = 0`, `ones > n`, `runs = 0`; `t ≥ n` is
/// allowed by the simulator and therefore allowed here), or a
/// `lower-bound` cell that sets some but not all of `cap`, `samples` and
/// `horizon` (it would silently play its defaults).
pub fn validate_cell(cell: &Cell) -> Result<(), LabError> {
    if cell.n == 0 {
        return Err(LabError::Spec("n must be at least 1".into()));
    }
    if cell.ones > cell.n {
        return Err(LabError::Spec(format!(
            "ones = {} exceeds n = {}",
            cell.ones, cell.n
        )));
    }
    if cell.runs == 0 {
        return Err(LabError::Spec("runs must be at least 1".into()));
    }
    if !PROTOCOLS.iter().any(|p| p.name == cell.protocol) {
        return Err(unknown("protocol", &cell.protocol));
    }
    let a = ADVERSARIES
        .iter()
        .find(|a| a.name == cell.adversary)
        .ok_or_else(|| unknown("adversary", &cell.adversary))?;
    if !a.can_attack(&cell.protocol) {
        return Err(LabError::Unknown(format!(
            "adversary {:?} cannot attack protocol {:?}: it attacks {} (see `synran list`)",
            a.name,
            cell.protocol,
            a.targets()
        )));
    }
    let knobs = [
        ("cap", cell.cap == 0),
        ("samples", cell.samples == 0),
        ("horizon", cell.horizon == 0),
    ];
    let unset = knobs.iter().filter(|k| k.1).count();
    if a.name == "lower-bound" && unset > 0 && unset < knobs.len() {
        let unset: Vec<&str> = knobs.iter().filter(|k| k.1).map(|k| k.0).collect();
        return Err(LabError::Spec(format!(
            "lower-bound takes cap, samples and horizon together or not at all; unset: {}",
            unset.join(", ")
        )));
    }
    Ok(())
}

/// Executes one cell: a seeded batch of `cell.runs` runs, aggregated in
/// seed order. Pure in the cell — the result is a function of the cell's
/// fields only, never of thread count or telemetry mode.
///
/// # Errors
///
/// Returns [`LabError::Unknown`] for unresolvable names, [`LabError::Sim`]
/// for engine errors other than round-limit overruns (tallied as
/// [`CellResult::timeouts`]).
pub fn run_cell(cell: &Cell, telemetry: &Telemetry) -> Result<CellResult, LabError> {
    Ok(CellResult::from(&run_one(cell, 1, telemetry)?))
}

/// [`run_cell`] on `threads` workers, returning the protocol's own
/// name and the folded batch itself, which also names each violating
/// run's seed.
///
/// # Errors
///
/// As [`run_cell`].
pub fn run_cell_batch(
    cell: &Cell,
    threads: usize,
    telemetry: &Telemetry,
) -> Result<(String, BatchOutcome), LabError> {
    let (name, _) = resolve(cell)?;
    Ok((name, run_one(cell, threads, telemetry)?))
}

/// Executes run `index` of `cell` alone — the execution its batch counts
/// at that index — on the calling thread, and returns the protocol's own
/// name and the run's verdict.
///
/// # Errors
///
/// Returns [`validate_cell`]'s errors, and [`LabError::Sim`] for every
/// engine error, a round-limit overrun included.
pub fn run_cell_once(
    cell: &Cell,
    index: usize,
    telemetry: &Telemetry,
) -> Result<(String, ConsensusVerdict), LabError> {
    let (name, step) = resolve(cell)?;
    let (_, verdict) = step(&base_config(cell), index, telemetry)?;
    Ok((name, verdict))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_synran_cell_runs() {
        let mut cell = Cell::new("synran", "passive", 8);
        cell.runs = 5;
        cell.seed = 3;
        let result = run_cell(&cell, &Telemetry::off()).unwrap();
        assert_eq!(result.rounds.len(), 5);
        assert!(result.all_correct());
        assert!(result.kills.iter().all(|&k| k == 0));
    }

    #[test]
    fn cell_reproduces_a_hand_rolled_run_batch() {
        // The equivalence the presets rely on: a cell with base seed S is
        // exactly `run_batch(..., S, ...)`.
        let mut cell = Cell::new("synran", "balancer", 10);
        cell.runs = 4;
        cell.seed = 77;
        cell.max_rounds = 100_000;
        let via_cell = run_cell(&cell, &Telemetry::off()).unwrap();
        let direct = synran_core::run_batch(
            &SynRan::new(),
            InputAssignment::Split { ones: 5 },
            &SimConfig::new(10).faults(9).max_rounds(100_000),
            4,
            77,
            |_| Balancer::unbounded(),
        )
        .unwrap();
        assert_eq!(via_cell.rounds, direct.rounds());
        assert_eq!(
            via_cell.kills,
            direct
                .kills()
                .iter()
                .map(|&k| k as u64)
                .collect::<Vec<u64>>()
        );
    }

    #[test]
    fn every_protocol_name_resolves() {
        for (protocol, adversary) in [
            ("synran", "storm"),
            ("symmetric", "passive"),
            ("flooding", "random"),
            ("leader", "hunter"),
        ] {
            let mut cell = Cell::new(protocol, adversary, 9);
            cell.runs = 2;
            if protocol == "leader" {
                cell.t = 4;
            }
            let result = run_cell(&cell, &Telemetry::off())
                .unwrap_or_else(|e| panic!("{protocol}/{adversary}: {e}"));
            assert_eq!(result.rounds.len() + result.timeouts as usize, 2);
        }
    }

    #[test]
    fn compatibility_matrix_is_enforced() {
        for (protocol, adversary) in [
            ("flooding", "balancer"),
            ("synran", "hunter"),
            ("leader", "walker"),
            ("quantum", "passive"),
            ("synran", "quantum"),
        ] {
            assert!(
                matches!(
                    validate_cell(&Cell::new(protocol, adversary, 8)),
                    Err(LabError::Unknown(_))
                ),
                "{protocol}/{adversary}"
            );
        }
        for (protocol, adversary) in [
            ("synran", "lower-bound"),
            ("synran", "balancer"),
            ("leader", "hunter"),
        ] {
            assert!(validate_cell(&Cell::new(protocol, adversary, 8)).is_ok());
        }
    }

    #[test]
    fn name_table_matches_the_constructors() {
        let mut compatible = 0;
        for p in PROTOCOLS {
            for a in ADVERSARIES {
                let cell = Cell::new(p.name, a.name, 8);
                assert_eq!(
                    validate_cell(&cell).is_ok(),
                    a.can_attack(p.name),
                    "{}/{}",
                    p.name,
                    a.name
                );
                if a.can_attack(p.name) {
                    compatible += 1;
                    assert!(resolve(&cell).is_ok(), "{}/{}", p.name, a.name);
                }
            }
        }
        assert_eq!(compatible, 27);
    }

    #[test]
    fn lower_bound_knobs_are_all_or_nothing() {
        let mut cell = Cell::new("synran", "lower-bound", 8);
        cell.samples = 3;
        let Err(LabError::Spec(err)) = validate_cell(&cell) else {
            panic!("samples alone must be rejected");
        };
        assert!(err.contains("unset: cap, horizon"), "{err}");
        cell.cap = 4;
        let Err(LabError::Spec(err)) = validate_cell(&cell) else {
            panic!("cap and samples without horizon must be rejected");
        };
        assert!(err.contains("unset: horizon"), "{err}");
        cell.horizon = 10;
        assert!(validate_cell(&cell).is_ok());
        // Other adversaries take their knobs one at a time.
        let mut balancer = Cell::new("synran", "balancer", 8);
        balancer.cap = 2;
        assert!(validate_cell(&balancer).is_ok());
    }

    #[test]
    fn a_single_run_is_the_batch_run_at_its_index() {
        let mut cell = Cell::new("synran", "walker", 12);
        cell.runs = 3;
        cell.seed = 9;
        let batch = run_cell(&cell, &Telemetry::off()).unwrap();
        for index in 0..3 {
            let (name, verdict) = run_cell_once(&cell, index, &Telemetry::off()).unwrap();
            assert_eq!(name, "synran");
            assert_eq!(verdict.rounds(), batch.rounds[index]);
            let kills = verdict.report().failed_count() as u64;
            assert_eq!(kills, batch.kills[index]);
        }
    }

    #[test]
    fn runs_see_the_cells_inputs_and_protocol_name() {
        // Unanimous inputs force the decision (validity), so `ones`
        // reaches every run's input assignment.
        for (protocol, ones, decision) in [
            ("synran", 0, Bit::Zero),
            ("symmetric", 7, Bit::One),
            ("leader", 7, Bit::One),
        ] {
            let mut cell = Cell::new(protocol, "passive", 7);
            (cell.ones, cell.t) = (ones, 3);
            let (name, verdict) = run_cell_once(&cell, 0, &Telemetry::off()).unwrap();
            assert_eq!(verdict.report().unanimous_decision(), Some(decision));
            let (batch_name, outcome) = run_cell_batch(&cell, 1, &Telemetry::off()).unwrap();
            assert_eq!(name, batch_name);
            assert_eq!(outcome.rounds().len(), cell.runs);
        }
        let names = PROTOCOLS.iter().map(|p| {
            let mut cell = Cell::new(p.name, "passive", 4);
            cell.t = 1;
            run_cell_once(&cell, 0, &Telemetry::off()).unwrap().0
        });
        let names: Vec<String> = names.collect();
        assert_eq!(names, ["synran", "synran-sym", "flooding", "leader"]);
    }

    #[test]
    fn walker_knobs_are_used_as_given() {
        let walker = |samples: usize, rate: usize| {
            let mut cell = Cell::new("synran", "walker", 12);
            (cell.runs, cell.seed, cell.samples, cell.rate) = (4, 0, samples, rate);
            let result = run_cell(&cell, &Telemetry::off()).unwrap();
            (result.rounds, result.kills)
        };
        assert_ne!(walker(1, 0), walker(3, 0), "samples 1 vs 3");
        assert_ne!(walker(0, 1), walker(0, 2), "rate 1 vs 2");
        // 0 keeps meaning the defaults: 3 samples, a cap of ⌈√12⌉ = 4.
        assert_eq!(walker(0, 0), walker(3, 4));
    }

    #[test]
    fn degenerate_geometry_is_rejected() {
        let mut zero_runs = Cell::new("synran", "passive", 4);
        zero_runs.runs = 0;
        assert!(matches!(validate_cell(&zero_runs), Err(LabError::Spec(_))));
        let mut lopsided = Cell::new("synran", "passive", 4);
        lopsided.ones = 5;
        assert!(matches!(validate_cell(&lopsided), Err(LabError::Spec(_))));
    }
}
