//! Structured execution traces.

use std::fmt;

use crate::{Bit, ProcessId, Round};

/// One observable event in an execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Event {
    /// A round began (Phase A is about to run).
    RoundStarted(Round),
    /// The adversary failed a process this round.
    Killed {
        /// Who died.
        victim: ProcessId,
        /// When.
        round: Round,
        /// How many of its queued messages were still delivered.
        delivered: usize,
        /// How many of its queued messages were suppressed.
        suppressed: usize,
    },
    /// A process fixed its decision value.
    Decided {
        /// Who decided.
        pid: ProcessId,
        /// When.
        round: Round,
        /// The decision.
        value: Bit,
    },
    /// A process voluntarily stopped participating.
    Halted {
        /// Who halted.
        pid: ProcessId,
        /// When.
        round: Round,
    },
    /// A round finished (Phase B delivered and receives ran).
    RoundCompleted {
        /// Which round.
        round: Round,
        /// Messages delivered during the round.
        messages_delivered: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::RoundStarted(r) => write!(f, "{r}: started"),
            Event::Killed {
                victim,
                round,
                delivered,
                suppressed,
            } => write!(
                f,
                "{round}: {victim} killed ({delivered} messages delivered, {suppressed} suppressed)"
            ),
            Event::Decided { pid, round, value } => {
                write!(f, "{round}: {pid} decided {value}")
            }
            Event::Halted { pid, round } => write!(f, "{round}: {pid} halted"),
            Event::RoundCompleted {
                round,
                messages_delivered,
            } => write!(f, "{round}: completed ({messages_delivered} messages)"),
        }
    }
}

/// An append-only event log, recorded only when tracing is enabled.
///
/// # Examples
///
/// ```
/// use synran_sim::{Event, Round, Trace};
///
/// let mut trace = Trace::enabled();
/// trace.record(|| Event::RoundStarted(Round::FIRST));
/// assert_eq!(trace.events().len(), 1);
///
/// let mut off = Trace::disabled();
/// off.record(|| Event::RoundStarted(Round::FIRST));
/// assert!(off.events().is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    enabled: bool,
    events: Vec<Event>,
}

impl Trace {
    /// A trace that records events.
    #[must_use]
    pub fn enabled() -> Trace {
        Trace {
            enabled: true,
            events: Vec::new(),
        }
    }

    /// A trace that drops events (zero-cost in the hot path: the closure is
    /// never evaluated).
    #[must_use]
    pub fn disabled() -> Trace {
        Trace {
            enabled: false,
            events: Vec::new(),
        }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records the event produced by `make` if tracing is enabled.
    ///
    /// Taking a closure keeps event construction out of traced-off runs.
    pub fn record(&mut self, make: impl FnOnce() -> Event) {
        if self.enabled {
            self.events.push(make());
        }
    }

    /// The recorded events, in order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Iterates over events of one round.
    pub fn in_round(&self, round: Round) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| match e {
            Event::RoundStarted(r) => *r == round,
            Event::Killed { round: r, .. }
            | Event::Decided { round: r, .. }
            | Event::Halted { round: r, .. }
            | Event::RoundCompleted { round: r, .. } => *r == round,
        })
    }

    /// All kill events, in order.
    pub fn kills(&self) -> impl Iterator<Item = &Event> {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Killed { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::RoundStarted(Round::new(1)),
            Event::Killed {
                victim: ProcessId::new(2),
                round: Round::new(1),
                delivered: 3,
                suppressed: 5,
            },
            Event::RoundCompleted {
                round: Round::new(1),
                messages_delivered: 40,
            },
            Event::RoundStarted(Round::new(2)),
            Event::Decided {
                pid: ProcessId::new(0),
                round: Round::new(2),
                value: Bit::One,
            },
            Event::Halted {
                pid: ProcessId::new(0),
                round: Round::new(2),
            },
        ]
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        for e in sample_events() {
            t.record(|| e.clone());
        }
        assert_eq!(t.events().len(), 6);
        assert_eq!(t.events()[0], Event::RoundStarted(Round::new(1)));
    }

    #[test]
    fn disabled_trace_never_evaluates_closure() {
        let mut t = Trace::disabled();
        let mut evaluated = false;
        t.record(|| {
            evaluated = true;
            Event::RoundStarted(Round::FIRST)
        });
        assert!(!evaluated);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn round_filter_selects_correctly() {
        let mut t = Trace::enabled();
        for e in sample_events() {
            t.record(|| e.clone());
        }
        assert_eq!(t.in_round(Round::new(1)).count(), 3);
        assert_eq!(t.in_round(Round::new(2)).count(), 3);
        assert_eq!(t.in_round(Round::new(3)).count(), 0);
        assert_eq!(t.kills().count(), 1);
    }

    #[test]
    fn events_display_readably() {
        for e in sample_events() {
            let s = e.to_string();
            assert!(s.contains("round"), "{s}");
        }
        let killed = Event::Killed {
            victim: ProcessId::new(2),
            round: Round::new(1),
            delivered: 3,
            suppressed: 5,
        };
        assert_eq!(
            killed.to_string(),
            "round 1: P2 killed (3 messages delivered, 5 suppressed)"
        );
    }
}
