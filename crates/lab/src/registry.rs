//! The name registry: how a [`Cell`]'s protocol and adversary strings
//! become an executable batch.
//!
//! The vocabulary mirrors the `synran` CLI (`synran list`): protocols
//! `synran | symmetric | flooding | leader`, adversaries `passive |
//! random | storm | oblivious | kill-ones | kill-zeros | balancer |
//! lower-bound | walker | hunter`, with the same compatibility matrix —
//! the SynRan-specific attacks only target the SynRan family, `hunter`
//! only targets `leader`.
//!
//! Execution goes through [`synran_core::run_step`] and
//! [`BatchOutcome::fold`] — the two halves of
//! [`synran_core::run_batch_with`] — with the cell's base seed, so a cell
//! reproduces exactly what a hand-rolled experiment loop with the same
//! seed derivation produces. That equivalence is what lets the E3/E4/E7
//! binaries delegate to the engine byte-for-byte.

use synran_adversary::{
    Balancer, LeaderHunter, LowerBoundAdversary, MessageWalker, Oblivious, PreferenceKiller,
    RandomKiller, Storm,
};
use synran_core::{
    run_step, BatchOutcome, ConsensusProtocol, FloodingConsensus, InputAssignment, LeaderConsensus,
    LeaderProcess, RunRecord, SynRan, SynRanProcess,
};
use synran_sim::{parallel, Adversary, Bit, Passive, Process, SimConfig, SimError, Telemetry};

use crate::cell::{Cell, CellResult};
use crate::LabError;

/// A per-run adversary factory (the batch runner calls it once per seed).
type Factory<P> = Box<dyn Fn(u64) -> Box<dyn Adversary<P> + Send> + Sync>;

/// `⌈√n⌉` — the default kill rate for rate-based adversaries, matching
/// the CLI.
fn default_rate(n: usize) -> usize {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let r = (n as f64).sqrt().ceil() as usize;
    r
}

fn unknown(adversary: &str, protocol: &str) -> LabError {
    LabError::Unknown(format!(
        "adversary {adversary:?} cannot attack protocol {protocol:?}"
    ))
}

/// Adversaries that understand any process type.
fn generic_factory<P: Process>(cell: &Cell) -> Result<Factory<P>, LabError> {
    let n = cell.n;
    let rate = if cell.rate == 0 {
        default_rate(n)
    } else {
        cell.rate
    };
    Ok(match cell.adversary.as_str() {
        "passive" => Box::new(|_| Box::new(Passive)),
        "random" => Box::new(move |s| Box::new(RandomKiller::new(rate, s))),
        "storm" => Box::new(|s| Box::new(Storm::new(s))),
        "oblivious" => Box::new(move |s| Box::new(Oblivious::new(n, rate, 500, s))),
        _ => return Err(unknown(&cell.adversary, &cell.protocol)),
    })
}

/// Adversaries attacking the SynRan family, plus all generic ones.
fn synran_factory(cell: &Cell) -> Result<Factory<SynRanProcess>, LabError> {
    let n = cell.n;
    let rate = if cell.rate == 0 {
        default_rate(n)
    } else {
        cell.rate
    };
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
        "lower-bound" => {
            if cap == 0 && samples == 0 && horizon == 0 {
                Box::new(move |s| Box::new(LowerBoundAdversary::for_system(n, s)))
            } else {
                let samples = samples.max(1);
                let horizon = horizon.max(1);
                Box::new(move |s| {
                    Box::new(LowerBoundAdversary::with_params(cap, samples, horizon, s))
                })
            }
        }
        "walker" => {
            let walker_cap = if cap == 0 { rate.max(2) } else { cap };
            let walker_samples = samples.max(3);
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

/// One run of a resolved cell: `(run index, telemetry) → record`, or
/// `None` for a round-limit timeout.
type RunFn<'a> = Box<dyn Fn(usize, &Telemetry) -> Result<Option<RunRecord>, SimError> + Sync + 'a>;

/// A cell whose protocol and adversary factory are resolved once, so its
/// runs can be scheduled individually across the pool.
struct CellPlan<'a> {
    runs: usize,
    step: RunFn<'a>,
}

impl<'a> CellPlan<'a> {
    /// Resolves `cell`'s names into a per-run step, or returns the
    /// [`validate_cell`] error for an invalid cell.
    fn new(cell: &'a Cell) -> Result<CellPlan<'a>, LabError> {
        validate_cell(cell)?;
        let step = match cell.protocol.as_str() {
            "synran" => plan_step(SynRan::new(), cell, synran_factory(cell)?),
            "symmetric" => plan_step(SynRan::symmetric(), cell, synran_factory(cell)?),
            "flooding" => plan_step(
                FloodingConsensus::for_faults(cell.t),
                cell,
                generic_factory(cell)?,
            ),
            "leader" => plan_step(
                LeaderConsensus::for_faults(cell.t),
                cell,
                leader_factory(cell)?,
            ),
            other => {
                return Err(LabError::Unknown(format!(
                    "unknown protocol {other:?} (see `synran list`)"
                )))
            }
        };
        Ok(CellPlan {
            runs: cell.runs,
            step,
        })
    }
}

fn plan_step<'a, P>(protocol: P, cell: &'a Cell, factory: Factory<P::Proc>) -> RunFn<'a>
where
    P: ConsensusProtocol + Sync + 'a,
{
    // The engine parallelises across runs, so each run's own fan-outs
    // (valency estimation) stay on its thread.
    let cfg = SimConfig::new(cell.n)
        .faults(cell.t)
        .max_rounds(cell.max_rounds)
        .threads(1);
    let assignment = InputAssignment::Split { ones: cell.ones };
    Box::new(move |index, telemetry| {
        run_step(
            &protocol, assignment, &cfg, cell.seed, index, telemetry, &factory,
        )
    })
}

/// Executes `cells` with their runs spread over `threads` pool workers in
/// **one** dispatch over the flat `(cell, run)` index space, then folds
/// each cell's runs in run order. Results are identical to executing the
/// cells one by one, serially, at every thread count.
///
/// # Errors
///
/// Returns the error of the lowest failing cell (by position in `cells`);
/// within it, the lowest failing run's.
pub(crate) fn run_cells_flat(
    cells: &[&Cell],
    threads: usize,
    telemetry: &Telemetry,
) -> Result<Vec<CellResult>, LabError> {
    let mut plans = Vec::with_capacity(cells.len());
    let mut invalid = None;
    for cell in cells {
        match CellPlan::new(cell) {
            Ok(plan) => plans.push(plan),
            // Cells after an invalid one cannot change which error wins.
            Err(e) => {
                invalid = Some(e);
                break;
            }
        }
    }
    // `starts[c]` is cell c's first flat index; the last entry is the total.
    let mut starts = Vec::with_capacity(plans.len() + 1);
    starts.push(0usize);
    for plan in &plans {
        starts.push(starts[starts.len() - 1] + plan.runs);
    }
    let total = starts[plans.len()];
    let records = parallel::par_map_in(telemetry, threads, total, |k| {
        let c = starts.partition_point(|&s| s <= k) - 1;
        (plans[c].step)(k - starts[c], telemetry)
    });
    // Fold each cell's runs in run order straight into its result.
    let mut records = records.into_iter();
    let mut results = Vec::with_capacity(plans.len());
    for plan in &plans {
        let cell_records = records
            .by_ref()
            .take(plan.runs)
            .collect::<Result<Vec<_>, SimError>>()?;
        let outcome = BatchOutcome::fold(cell_records, telemetry);
        results.push(CellResult {
            rounds: outcome.rounds().to_vec(),
            kills: outcome.kills().iter().map(|&k| k as u64).collect(),
            timeouts: u32::try_from(outcome.timeouts()).unwrap_or(u32::MAX),
            violations: u32::try_from(outcome.incorrect().len()).unwrap_or(u32::MAX),
        });
    }
    match invalid {
        Some(e) => Err(e),
        None => Ok(results),
    }
}

/// Validates a cell's names without executing anything — `status` and
/// spec linting use this.
///
/// # Errors
///
/// Returns [`LabError::Unknown`] for an unknown protocol, an unknown
/// adversary, or an incompatible pairing; [`LabError::Spec`] for a
/// degenerate geometry (`n = 0`, `ones > n`, `t ≥ n` is allowed by the
/// simulator and therefore allowed here).
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
    match cell.protocol.as_str() {
        "synran" | "symmetric" => synran_factory(cell).map(|_| ()),
        "flooding" => generic_factory::<synran_core::FloodingProcess>(cell).map(|_| ()),
        "leader" => leader_factory(cell).map(|_| ()),
        other => Err(LabError::Unknown(format!(
            "unknown protocol {other:?} (see `synran list`)"
        ))),
    }
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
    let mut results = run_cells_flat(&[cell], 1, telemetry)?;
    Ok(results.pop().expect("one result per cell"))
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
        assert!(matches!(
            validate_cell(&Cell::new("flooding", "balancer", 8)),
            Err(LabError::Unknown(_))
        ));
        assert!(matches!(
            validate_cell(&Cell::new("synran", "hunter", 8)),
            Err(LabError::Unknown(_))
        ));
        assert!(matches!(
            validate_cell(&Cell::new("quantum", "passive", 8)),
            Err(LabError::Unknown(_))
        ));
        assert!(validate_cell(&Cell::new("synran", "lower-bound", 8)).is_ok());
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
