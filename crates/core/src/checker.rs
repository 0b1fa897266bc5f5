//! Correctness checking: Agreement, Validity, Termination.
//!
//! A `t`-resilient consensus protocol must satisfy (paper §3.1):
//!
//! * **Agreement** — all non-faulty processes decide the same value;
//! * **Validity** — if all inputs are `v`, the only possible decision is `v`;
//! * **Termination** — all non-faulty processes decide.
//!
//! The checker runs a protocol under an adversary and evaluates all three
//! on the observed execution, returning diagnostics instead of panicking so
//! experiment harnesses and property tests can aggregate.

use synran_sim::{Adversary, Bit, RunReport, SimConfig, SimError, Telemetry, World};

use crate::ConsensusProtocol;

/// The outcome of checking one execution.
#[derive(Debug, Clone)]
pub struct ConsensusVerdict {
    agreement: bool,
    validity: bool,
    termination: bool,
    violations: Vec<String>,
    report: RunReport,
}

impl ConsensusVerdict {
    /// Did all non-faulty deciders agree?
    #[must_use]
    pub fn agreement(&self) -> bool {
        self.agreement
    }

    /// Were unanimous inputs decided as that input?
    /// (Vacuously `true` when inputs were mixed.)
    #[must_use]
    pub fn validity(&self) -> bool {
        self.validity
    }

    /// Did every non-faulty process decide before the run ended?
    #[must_use]
    pub fn termination(&self) -> bool {
        self.termination
    }

    /// All three conditions at once.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.agreement && self.validity && self.termination
    }

    /// Human-readable descriptions of each violation found.
    #[must_use]
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// The underlying execution report.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// Rounds the execution took.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.report.rounds()
    }
}

/// Runs `protocol` on `inputs` under `adversary` and checks the three
/// consensus conditions on the resulting execution.
///
/// # Errors
///
/// Propagates engine errors ([`SimError`]), including
/// [`SimError::MaxRoundsExceeded`] when the run outlives `cfg`'s limit —
/// callers that treat a round-limit overrun as a termination *violation*
/// rather than an error can map it explicitly.
///
/// # Panics
///
/// Panics if `inputs.len() != cfg.n()`.
///
/// # Examples
///
/// ```
/// use synran_core::{check_consensus, SynRan};
/// use synran_sim::{Bit, Passive, SimConfig};
///
/// let verdict = check_consensus(
///     &SynRan::new(),
///     &[Bit::One; 8],
///     SimConfig::new(8).seed(5),
///     &mut Passive,
/// )?;
/// assert!(verdict.is_correct());
/// # Ok::<(), synran_sim::SimError>(())
/// ```
pub fn check_consensus<P, A>(
    protocol: &P,
    inputs: &[Bit],
    cfg: SimConfig,
    adversary: &mut A,
) -> Result<ConsensusVerdict, SimError>
where
    P: ConsensusProtocol,
    A: Adversary<P::Proc>,
{
    check_consensus_with(protocol, inputs, cfg, adversary, &Telemetry::off())
}

/// [`check_consensus`] with a telemetry handle attached to the world, so
/// the run records engine counters (and phase spans in span mode).
///
/// Telemetry is observe-only: the verdict and its report are byte-identical
/// to [`check_consensus`] for every handle.
///
/// # Errors
///
/// Propagates engine errors exactly as [`check_consensus`] does.
///
/// # Panics
///
/// Panics if `inputs.len() != cfg.n()`.
pub fn check_consensus_with<P, A>(
    protocol: &P,
    inputs: &[Bit],
    cfg: SimConfig,
    adversary: &mut A,
    telemetry: &Telemetry,
) -> Result<ConsensusVerdict, SimError>
where
    P: ConsensusProtocol,
    A: Adversary<P::Proc>,
{
    assert_eq!(inputs.len(), cfg.n(), "one input per process");
    let n = cfg.n();
    let mut world = World::new(cfg, |pid| protocol.spawn(pid, n, inputs[pid.index()]))?;
    world.set_telemetry(telemetry.clone());
    // The world is discarded here, so consume it into the report, which
    // returns its scratch to the pool.
    world.drive(adversary)?;
    Ok(evaluate(inputs, world.into_report()))
}

/// Evaluates the consensus conditions on an existing report.
#[must_use]
pub fn evaluate(inputs: &[Bit], report: RunReport) -> ConsensusVerdict {
    let mut violations = Vec::new();

    // Termination: every non-faulty process decided.
    let undecided: Vec<_> = report
        .non_faulty()
        .filter(|&pid| report.decision_of(pid).is_none())
        .collect();
    let termination = undecided.is_empty();
    if !termination {
        violations.push(format!(
            "termination: {} non-faulty process(es) never decided (first: {})",
            undecided.len(),
            undecided[0]
        ));
    }

    // Agreement: all non-faulty deciders agree.
    let decided_values: Vec<_> = report
        .non_faulty()
        .filter_map(|pid| report.decision_of(pid).map(|v| (pid, v)))
        .collect();
    let mut decided_values = decided_values.into_iter();
    let agreement = match decided_values.next() {
        None => true, // nobody decided (vacuous; termination already flags it)
        Some((first_pid, first)) => {
            let mut ok = true;
            for (pid, v) in decided_values {
                if v != first {
                    violations.push(format!(
                        "agreement: {first_pid} decided {first} but {pid} decided {v}"
                    ));
                    ok = false;
                    break;
                }
            }
            ok
        }
    };

    // Validity: unanimous input v ⇒ every decision is v.
    let unanimous_input = inputs
        .split_first()
        .and_then(|(first, rest)| rest.iter().all(|b| b == first).then_some(*first));
    let validity = match unanimous_input {
        None => true,
        Some(v) => {
            let mut ok = true;
            for pid in report.non_faulty() {
                if let Some(d) = report.decision_of(pid) {
                    if d != v {
                        violations.push(format!(
                            "validity: all inputs were {v} but {pid} decided {d}"
                        ));
                        ok = false;
                        break;
                    }
                }
            }
            ok
        }
    };

    ConsensusVerdict {
        agreement,
        validity,
        termination,
        violations,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FloodingConsensus, SynRan};
    use synran_sim::{Intervention, Passive, Process, ProcessId, World};

    #[test]
    fn correct_run_passes_all_conditions() {
        let inputs = [Bit::One, Bit::Zero, Bit::One, Bit::Zero, Bit::One];
        let verdict = check_consensus(
            &FloodingConsensus::for_faults(2),
            &inputs,
            SimConfig::new(5).faults(2).seed(1),
            &mut Passive,
        )
        .unwrap();
        assert!(
            verdict.is_correct(),
            "violations: {:?}",
            verdict.violations()
        );
        assert!(verdict.rounds() >= 1);
    }

    #[test]
    fn synran_checked_under_killing_adversary() {
        struct SteadyKiller;
        impl<P: Process> synran_sim::Adversary<P> for SteadyKiller {
            fn intervene(&mut self, world: &World<P>) -> Intervention {
                if world.budget().remaining() > 0 && world.alive_count() > 1 {
                    Intervention::kill_all_silent([world
                        .alive_ids()
                        .next()
                        .expect("alive_count > 1")])
                } else {
                    Intervention::none()
                }
            }
        }
        for seed in 0..10 {
            let inputs: Vec<Bit> = (0..16).map(|i| Bit::from(i % 2 == 0)).collect();
            let verdict = check_consensus(
                &SynRan::new(),
                &inputs,
                SimConfig::new(16).faults(8).seed(seed),
                &mut SteadyKiller,
            )
            .unwrap();
            assert!(
                verdict.is_correct(),
                "seed {seed}: {:?}",
                verdict.violations()
            );
        }
    }

    #[test]
    fn evaluate_flags_disagreement() {
        // Fabricate a report via a protocol that decides its own input.
        #[derive(Debug)]
        struct Selfish;
        impl ConsensusProtocol for Selfish {
            type Proc = synran_sim::testing::Echo;
            fn spawn(&self, _pid: ProcessId, _n: usize, input: Bit) -> Self::Proc {
                synran_sim::testing::Echo::new(input)
            }
            fn name(&self) -> &str {
                "selfish"
            }
        }
        let inputs = [Bit::Zero, Bit::One];
        let verdict =
            check_consensus(&Selfish, &inputs, SimConfig::new(2).seed(0), &mut Passive).unwrap();
        assert!(!verdict.agreement());
        assert!(verdict.termination());
        assert!(verdict.validity(), "inputs were mixed; validity is vacuous");
        assert!(!verdict.is_correct());
        assert!(verdict.violations()[0].contains("agreement"));
    }

    #[test]
    fn evaluate_flags_validity_violation() {
        // "Decide the opposite of your input" violates validity on
        // unanimous inputs.
        #[derive(Debug, Clone)]
        struct Contrarian(Bit, bool);
        impl Process for Contrarian {
            type Msg = Bit;
            fn send(&mut self, _: &mut synran_sim::Context<'_>) -> synran_sim::SendPattern<Bit> {
                synran_sim::SendPattern::Silent
            }
            fn receive(&mut self, _: &mut synran_sim::Context<'_>, _: &synran_sim::Inbox<Bit>) {
                self.1 = true;
            }
            fn decision(&self) -> Option<Bit> {
                self.1.then(|| self.0.flip())
            }
            fn halted(&self) -> bool {
                self.1
            }
        }
        #[derive(Debug)]
        struct ContrarianProtocol;
        impl ConsensusProtocol for ContrarianProtocol {
            type Proc = Contrarian;
            fn spawn(&self, _pid: ProcessId, _n: usize, input: Bit) -> Contrarian {
                Contrarian(input, false)
            }
            fn name(&self) -> &str {
                "contrarian"
            }
        }
        let verdict = check_consensus(
            &ContrarianProtocol,
            &[Bit::One; 3],
            SimConfig::new(3).seed(0),
            &mut Passive,
        )
        .unwrap();
        assert!(!verdict.validity());
        assert!(verdict.agreement(), "they all decided 0 together");
        assert!(verdict.violations().iter().any(|v| v.contains("validity")));
    }

    #[test]
    #[should_panic(expected = "one input per process")]
    fn input_arity_checked() {
        let _ = check_consensus(
            &SynRan::new(),
            &[Bit::One; 3],
            SimConfig::new(4).seed(0),
            &mut Passive,
        );
    }
}
