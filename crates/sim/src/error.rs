//! Error types for the simulator.

use std::error::Error;
use std::fmt;

use crate::{ProcessId, Round};

/// Errors surfaced by the simulation engine.
///
/// Every violation of the model's rules — an adversary over-spending its
/// fault budget, killing a dead process, a run exceeding its round limit —
/// is reported as a `SimError` rather than a panic, so experiment harnesses
/// can record and continue.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The adversary tried to fail more processes than its remaining budget.
    BudgetExceeded {
        /// Round in which the violation happened.
        round: Round,
        /// Kills requested this round.
        requested: usize,
        /// Kills remaining in the budget before the request.
        remaining: usize,
    },
    /// The adversary named a process that does not exist.
    UnknownProcess {
        /// The offending id.
        pid: ProcessId,
        /// System size.
        n: usize,
    },
    /// The adversary tried to kill a process that is not alive
    /// (already failed, or halted).
    NotAlive {
        /// The offending id.
        pid: ProcessId,
        /// Round of the attempt.
        round: Round,
    },
    /// The adversary listed the same victim twice in one intervention.
    DuplicateVictim {
        /// The repeated id.
        pid: ProcessId,
    },
    /// The run did not terminate within the configured round limit.
    MaxRoundsExceeded {
        /// The configured limit.
        limit: u32,
    },
    /// A world-stepping method was called in the wrong phase.
    PhaseViolation {
        /// What was attempted.
        operation: &'static str,
        /// The phase the world was actually in.
        phase: &'static str,
    },
    /// The configuration is inconsistent (e.g. `t > n`, or `n == 0`).
    InvalidConfig {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BudgetExceeded {
                round,
                requested,
                remaining,
            } => write!(
                f,
                "fault budget exceeded in {round}: requested {requested} kills with {remaining} remaining"
            ),
            SimError::UnknownProcess { pid, n } => {
                write!(f, "unknown process {pid} in a system of {n} processes")
            }
            SimError::NotAlive { pid, round } => {
                write!(f, "process {pid} is not alive in {round}")
            }
            SimError::DuplicateVictim { pid } => {
                write!(f, "process {pid} named twice in one intervention")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "execution exceeded the round limit of {limit}")
            }
            SimError::PhaseViolation { operation, phase } => {
                write!(f, "cannot {operation} while the world is in phase {phase}")
            }
            SimError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl Error for SimError {}

/// Error returned when converting a non-binary byte into a [`Bit`](crate::Bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseBitError {
    /// The rejected value.
    pub(crate) value: u8,
}

impl ParseBitError {
    /// The value that failed to convert.
    #[must_use]
    pub fn value(&self) -> u8 {
        self.value
    }
}

impl fmt::Display for ParseBitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "value {} is not a bit (expected 0 or 1)", self.value)
    }
}

impl Error for ParseBitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_key_facts() {
        let e = SimError::BudgetExceeded {
            round: Round::new(4),
            requested: 9,
            remaining: 2,
        };
        let s = e.to_string();
        assert!(
            s.contains("round 4") && s.contains('9') && s.contains('2'),
            "{s}"
        );

        let e = SimError::MaxRoundsExceeded { limit: 100 };
        assert!(e.to_string().contains("100"));

        let e = SimError::PhaseViolation {
            operation: "deliver",
            phase: "BeforeSend",
        };
        assert!(e.to_string().contains("deliver") && e.to_string().contains("BeforeSend"));
    }

    #[test]
    fn errors_are_send_sync_error() {
        fn assert_traits<T: Error + Send + Sync + 'static>() {}
        assert_traits::<SimError>();
        assert_traits::<ParseBitError>();
    }

    #[test]
    fn parse_bit_error_reports_value() {
        let err = ParseBitError { value: 7 };
        assert_eq!(err.value(), 7);
        assert!(err.to_string().contains('7'));
    }
}
