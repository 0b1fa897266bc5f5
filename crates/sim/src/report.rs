//! Execution summaries.

use crate::{Bit, ProcessId, ProcessStatus, Round};

/// The outcome of a completed (or interrupted) execution: the one record
/// of a run.
///
/// It holds what the paper measures an execution by — each process's
/// final status (so which processes the adversary failed, and in which
/// round) and the round in which each process first decided — plus the
/// rounds run. Kills per round and decision times are views of it.
///
/// Produced by [`World::run`](crate::World::run) and
/// [`World::report`](crate::World::report). The report owns its data — it
/// stays valid after the world is dropped or reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    decisions: Vec<Option<Bit>>,
    decided_in: Vec<Option<Round>>,
    statuses: Vec<ProcessStatus>,
    rounds: u32,
}

impl RunReport {
    pub(crate) fn new(
        decisions: Vec<Option<Bit>>,
        decided_in: Vec<Option<Round>>,
        statuses: Vec<ProcessStatus>,
        rounds: u32,
    ) -> RunReport {
        RunReport {
            decisions,
            decided_in,
            statuses,
            rounds,
        }
    }

    /// Rounds fully executed.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Final decisions, indexed by process.
    #[must_use]
    pub fn decisions(&self) -> &[Option<Bit>] {
        &self.decisions
    }

    /// The decision of one process, if it decided.
    #[must_use]
    pub fn decision_of(&self, pid: ProcessId) -> Option<Bit> {
        self.decisions.get(pid.index()).copied().flatten()
    }

    /// The round in which `pid` first reported a decision, and its final
    /// decision, if it decided.
    #[must_use]
    pub fn decided_at(&self, pid: ProcessId) -> Option<(Round, Bit)> {
        let round = self.decided_in.get(pid.index()).copied().flatten()?;
        Some((round, self.decision_of(pid)?))
    }

    /// Final lifecycle status of every process.
    #[must_use]
    pub fn statuses(&self) -> &[ProcessStatus] {
        &self.statuses
    }

    /// Processes the adversary failed.
    #[must_use]
    pub fn failed_count(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_failed()).count()
    }

    /// `(round, kills)` for every round in which the adversary failed at
    /// least one process: sorted by round, one entry per round.
    #[must_use]
    pub fn kills_per_round(&self) -> Vec<(Round, usize)> {
        let mut rounds: Vec<Round> = self
            .statuses
            .iter()
            .filter_map(|s| match s {
                ProcessStatus::Failed(round) => Some(*round),
                _ => None,
            })
            .collect();
        rounds.sort_unstable();
        rounds
            .chunk_by(|a, b| a == b)
            .map(|same| (same[0], same.len()))
            .collect()
    }

    /// Ids of processes that were **not** failed by the adversary — the
    /// "non-faulty" processes of the consensus conditions. Includes halted
    /// processes and processes still alive when the run stopped.
    pub fn non_faulty(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.statuses
            .iter()
            .enumerate()
            .filter(|&(_i, s)| !s.is_failed())
            .map(|(i, _s)| ProcessId::new(i))
    }

    /// If every non-faulty process decided the same value, returns it.
    ///
    /// Returns `None` if any non-faulty process is undecided or two
    /// non-faulty processes disagree — i.e. exactly when the Agreement
    /// condition (as observed in this run) fails. If *every* process was
    /// failed, agreement holds vacuously and this returns `None` as well
    /// (there is no value to report).
    #[must_use]
    pub fn unanimous_decision(&self) -> Option<Bit> {
        let mut value: Option<Bit> = None;
        for pid in self.non_faulty() {
            match self.decision_of(pid) {
                None => return None,
                Some(v) => match value {
                    None => value = Some(v),
                    Some(prev) if prev != v => return None,
                    Some(_) => {}
                },
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(decisions: Vec<Option<Bit>>, statuses: Vec<ProcessStatus>) -> RunReport {
        let n = decisions.len();
        RunReport::new(decisions, vec![None; n], statuses, 0)
    }

    #[test]
    fn unanimous_when_all_agree() {
        let r = report(
            vec![Some(Bit::One), Some(Bit::One), Some(Bit::One)],
            vec![ProcessStatus::Halted(Round::new(2)); 3],
        );
        assert_eq!(r.unanimous_decision(), Some(Bit::One));
    }

    #[test]
    fn disagreement_detected() {
        let r = report(
            vec![Some(Bit::One), Some(Bit::Zero)],
            vec![ProcessStatus::Halted(Round::new(1)); 2],
        );
        assert_eq!(r.unanimous_decision(), None);
    }

    #[test]
    fn failed_processes_do_not_block_agreement() {
        let r = report(
            vec![Some(Bit::Zero), None, Some(Bit::Zero)],
            vec![
                ProcessStatus::Halted(Round::new(3)),
                ProcessStatus::Failed(Round::new(1)),
                ProcessStatus::Halted(Round::new(3)),
            ],
        );
        assert_eq!(r.unanimous_decision(), Some(Bit::Zero));
        assert_eq!(r.failed_count(), 1);
        assert_eq!(r.non_faulty().count(), 2);
    }

    #[test]
    fn undecided_non_faulty_blocks_agreement() {
        let r = report(
            vec![Some(Bit::Zero), None],
            vec![ProcessStatus::Halted(Round::new(1)), ProcessStatus::Alive],
        );
        assert_eq!(r.unanimous_decision(), None);
    }

    #[test]
    fn all_failed_is_vacuous() {
        let r = report(
            vec![None, None],
            vec![ProcessStatus::Failed(Round::new(1)); 2],
        );
        assert_eq!(r.unanimous_decision(), None);
        assert_eq!(r.non_faulty().count(), 0);
    }

    #[test]
    fn decision_lookup() {
        let r = report(
            vec![Some(Bit::One), None],
            vec![ProcessStatus::Alive, ProcessStatus::Alive],
        );
        assert_eq!(r.decision_of(ProcessId::new(0)), Some(Bit::One));
        assert_eq!(r.decision_of(ProcessId::new(1)), None);
        // Out-of-range lookups are None, not panics.
        assert_eq!(r.decision_of(ProcessId::new(9)), None);
    }

    #[test]
    fn kills_per_round_is_sorted_and_merged() {
        // Failures listed out of round order, with a gap at round 2 and
        // survivors in between, count to one sorted entry per round.
        let failed = |r| ProcessStatus::Failed(Round::new(r));
        let statuses = vec![
            failed(3),
            failed(1),
            ProcessStatus::Halted(Round::new(4)),
            failed(3),
            failed(4),
            failed(1),
            ProcessStatus::Alive,
            failed(3),
        ];
        let r = report(vec![None; 8], statuses);
        assert_eq!(
            r.kills_per_round(),
            [(Round::new(1), 2), (Round::new(3), 3), (Round::new(4), 1)]
        );
        let total: usize = r.kills_per_round().iter().map(|&(_, k)| k).sum();
        assert_eq!(total, r.failed_count());
        assert!(report(vec![None; 2], vec![ProcessStatus::Alive; 2])
            .kills_per_round()
            .is_empty());
    }

    #[test]
    fn decided_at_pairs_the_round_with_the_decision() {
        let r = RunReport::new(
            vec![Some(Bit::One), None, Some(Bit::Zero)],
            vec![Some(Round::new(3)), None, Some(Round::new(1))],
            vec![ProcessStatus::Halted(Round::new(3)); 3],
            3,
        );
        assert_eq!(
            r.decided_at(ProcessId::new(0)),
            Some((Round::new(3), Bit::One))
        );
        assert_eq!(r.decided_at(ProcessId::new(1)), None);
        assert_eq!(
            r.decided_at(ProcessId::new(2)),
            Some((Round::new(1), Bit::Zero))
        );
        assert_eq!(r.decided_at(ProcessId::new(9)), None);
        assert_eq!(r.rounds(), 3);
    }
}
