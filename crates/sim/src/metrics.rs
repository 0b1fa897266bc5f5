//! Aggregate execution metrics.

use crate::{ProcessId, Round};

/// Counters accumulated over one execution.
///
/// Metrics are always on (they are a handful of integers per round); the
/// experiment harnesses in `synran-bench` read them to produce the
/// budget-accounting tables (experiment E8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    rounds_completed: u32,
    kills_per_round: Vec<(Round, usize)>,
    messages_delivered: u64,
    messages_suppressed: u64,
    decided_at: Vec<Option<(Round, crate::Bit)>>,
}

impl Metrics {
    /// Creates metrics for a system of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Metrics {
        Metrics {
            rounds_completed: 0,
            kills_per_round: Vec::new(),
            messages_delivered: 0,
            messages_suppressed: 0,
            decided_at: vec![None; n],
        }
    }

    /// Rounds fully executed so far.
    #[must_use]
    pub fn rounds_completed(&self) -> u32 {
        self.rounds_completed
    }

    /// Total messages delivered across all rounds.
    #[must_use]
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Total messages the adversary suppressed.
    #[must_use]
    pub fn messages_suppressed(&self) -> u64 {
        self.messages_suppressed
    }

    /// `(round, kills)` pairs for every round in which the adversary failed
    /// at least one process.
    ///
    /// Invariant: sorted by round, with exactly one entry per round —
    /// repeated recordings for the same round merge into a single entry
    /// (the engine's kill recording guarantees this), so consumers can
    /// binary-search and reconstruct dense per-round arrays without
    /// de-duplicating.
    #[must_use]
    pub fn kills_per_round(&self) -> &[(Round, usize)] {
        &self.kills_per_round
    }

    /// Total processes failed.
    #[must_use]
    pub fn total_kills(&self) -> usize {
        self.kills_per_round.iter().map(|(_, k)| k).sum()
    }

    /// The round in which `pid` decided, and the value, if it decided.
    #[must_use]
    pub fn decided_at(&self, pid: ProcessId) -> Option<(Round, crate::Bit)> {
        self.decided_at.get(pid.index()).copied().flatten()
    }

    /// The latest round in which any process decided, if any process did.
    #[must_use]
    pub fn last_decision_round(&self) -> Option<Round> {
        self.decided_at
            .iter()
            .filter_map(|d| d.map(|(r, _)| r))
            .max()
    }

    pub(crate) fn on_round_completed(&mut self) {
        self.rounds_completed += 1;
    }

    pub(crate) fn on_kills(&mut self, round: Round, count: usize) {
        if count == 0 {
            return;
        }
        // Keep the sorted/one-entry-per-round invariant whatever order
        // rounds are reported in: merge duplicates, insert out-of-order
        // rounds at their sorted position (the engine reports rounds in
        // order, making this an O(1) append in practice).
        match self
            .kills_per_round
            .binary_search_by_key(&round, |&(r, _)| r)
        {
            Ok(i) => self.kills_per_round[i].1 += count,
            Err(i) => self.kills_per_round.insert(i, (round, count)),
        }
    }

    pub(crate) fn on_delivered(&mut self, count: u64) {
        self.messages_delivered += count;
    }

    pub(crate) fn on_suppressed(&mut self, count: u64) {
        self.messages_suppressed += count;
    }

    pub(crate) fn on_decided(&mut self, pid: ProcessId, round: Round, value: crate::Bit) {
        let slot = &mut self.decided_at[pid.index()];
        if slot.is_none() {
            *slot = Some((round, value));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bit;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new(3);
        m.on_round_completed();
        m.on_round_completed();
        m.on_kills(Round::new(1), 2);
        m.on_kills(Round::new(2), 0); // zero-kill rounds are not recorded
        m.on_kills(Round::new(2), 1);
        m.on_delivered(10);
        m.on_suppressed(4);
        assert_eq!(m.rounds_completed(), 2);
        assert_eq!(m.total_kills(), 3);
        assert_eq!(m.kills_per_round().len(), 2);
        assert_eq!(m.messages_delivered(), 10);
        assert_eq!(m.messages_suppressed(), 4);
    }

    #[test]
    fn kills_per_round_is_sorted_and_merged() {
        let mut m = Metrics::new(8);
        // Duplicate and out-of-order recordings must still produce a
        // sorted, one-entry-per-round list.
        m.on_kills(Round::new(3), 1);
        m.on_kills(Round::new(1), 2);
        m.on_kills(Round::new(3), 4);
        m.on_kills(Round::new(2), 0); // ignored
        m.on_kills(Round::new(2), 3);
        m.on_kills(Round::new(1), 1);
        assert_eq!(
            m.kills_per_round(),
            &[(Round::new(1), 3), (Round::new(2), 3), (Round::new(3), 5)]
        );
        assert!(
            m.kills_per_round().windows(2).all(|w| w[0].0 < w[1].0),
            "strictly increasing rounds"
        );
        assert_eq!(m.total_kills(), 11);
    }

    #[test]
    fn first_decision_wins() {
        let mut m = Metrics::new(2);
        let p = ProcessId::new(1);
        m.on_decided(p, Round::new(3), Bit::One);
        // A later (buggy) re-decision must not overwrite the first record.
        m.on_decided(p, Round::new(5), Bit::Zero);
        assert_eq!(m.decided_at(p), Some((Round::new(3), Bit::One)));
        assert_eq!(m.decided_at(ProcessId::new(0)), None);
        assert_eq!(m.last_decision_round(), Some(Round::new(3)));
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::new(4);
        assert_eq!(m.rounds_completed(), 0);
        assert_eq!(m.total_kills(), 0);
        assert_eq!(m.last_decision_round(), None);
    }
}
