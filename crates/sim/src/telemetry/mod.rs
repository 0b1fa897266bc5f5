//! Zero-dependency telemetry: phase spans, a counter/histogram registry,
//! and one in-memory record of both.
//!
//! The experiment harnesses certify *shapes* — round counts scaling as
//! `Θ(t/√(n·log n))`, kill budgets of `4√(n·log n)+1` per round — so every
//! run must emit its measurements in a machine-readable, attributable form.
//! This module is the one place that happens:
//!
//! * **Spans** ([`Telemetry::span`]) are RAII guards recording monotonic
//!   nanosecond timings (`round.phase_a`, `parallel.worker`, …) into a
//!   thread-safe registry, with per-worker attribution inside the parallel
//!   fan-out engine: while a [`worker_span`](Telemetry::worker_span) guard
//!   is live on a thread, every span opened on that thread carries its
//!   worker index (its *lane*);
//! * the **registry** holds named [counters](Telemetry::incr) and
//!   [histograms](Telemetry::observe) (messages/round, kills/round against
//!   the paper's per-round cap, valency-probe outcomes, decision rounds);
//! * the **record** ([`TelemetryStream`]) is what [`Telemetry::snapshot`]
//!   returns and what the JSONL reader builds: it yields its
//!   [`TelemetryEvent`]s in file order and
//!   [writes](TelemetryStream::write_jsonl) them one per line with a
//!   stable field order; [`MemorySink`] collects the events for tests.
//!
//! # Determinism contract
//!
//! Telemetry is **observe-only**: attaching a hub at any
//! [`TelemetryMode`], at any worker-thread count, never changes a
//! simulation result. Wall-clock quantities exist only in the exported
//! record, never in [`RunReport`](crate::RunReport); all registry *values*
//! that feed assertions are integers whose accumulation commutes, so
//! counter totals are identical however worker threads interleave. The
//! contract is enforced by `tests/telemetry_determinism.rs` at the
//! workspace root.
//!
//! # Example
//!
//! ```
//! use synran_sim::telemetry::{MemorySink, Telemetry, TelemetryMode};
//!
//! let telemetry = Telemetry::new(TelemetryMode::Spans);
//! {
//!     let _span = telemetry.span("round.phase_a");
//!     telemetry.incr("sim.rounds", 1);
//!     telemetry.observe("round.messages", 42);
//! }
//! let mut sink = MemorySink::new();
//! telemetry.export(&mut sink);
//! assert_eq!(sink.events().len(), 3); // one counter, one histogram, one span
//! ```

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{Escaped, FlatObject};

pub mod aggregate;

use aggregate::{OwnedSpan, TelemetryStream};

thread_local! {
    /// The worker lane of the outermost live worker span on this thread.
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// How much the telemetry layer records.
///
/// Parsed from the CLI's `--telemetry off|counters|spans` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record nothing; every instrumentation point is a no-op.
    #[default]
    Off,
    /// Record counters and histograms, skip span timings.
    Counters,
    /// Record counters, histograms, and span timings.
    Spans,
}

impl TelemetryMode {
    /// The mode's CLI spelling.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Counters => "counters",
            TelemetryMode::Spans => "spans",
        }
    }
}

impl std::fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for TelemetryMode {
    type Err = String;

    fn from_str(s: &str) -> Result<TelemetryMode, String> {
        match s {
            "off" => Ok(TelemetryMode::Off),
            "counters" => Ok(TelemetryMode::Counters),
            "spans" => Ok(TelemetryMode::Spans),
            other => Err(format!(
                "unknown telemetry mode {other:?} (expected off|counters|spans)"
            )),
        }
    }
}

/// The paper's per-round kill cap for a system of `n` processes:
/// `⌈4√(n·ln n)⌉ + 1` (the budget granted to the Theorem 1 adversary).
///
/// Rounds in which the adversary spends more than this are tallied under
/// the `sim.rounds_over_kill_cap` counter.
#[must_use]
pub fn per_round_kill_cap(n: usize) -> u64 {
    let nf = n as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cap = (4.0 * (nf * nf.ln().max(1.0)).sqrt()).ceil() as u64;
    cap + 1
}

/// One completed span as the hub holds it: a `&'static` name, so dropping
/// a span guard allocates nothing ([`OwnedSpan`] is its snapshot form).
#[derive(Debug)]
struct SpanRecord {
    name: &'static str,
    worker: Option<u32>,
    /// Nanoseconds since the hub was created.
    start_ns: u64,
    elapsed_ns: u64,
}

/// Integer-valued histogram summary: count, sum, min, max.
///
/// Values are `u64` so accumulation commutes — concurrent recording from
/// worker threads yields the same summary regardless of interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Smallest observation.
    pub min: u64,
    /// Largest observation.
    pub max: u64,
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn new(value: u64) -> Histogram {
        Histogram {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }

    /// Mean observation (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    spans: Vec<SpanRecord>,
}

#[derive(Debug)]
struct Hub {
    mode: TelemetryMode,
    epoch: Instant,
    state: Mutex<State>,
}

/// A shared, thread-safe telemetry handle.
///
/// Cloning is cheap (an [`Arc`] bump); all clones feed one registry. A
/// handle built with [`TelemetryMode::Off`] (or [`Telemetry::off`]) carries
/// no hub at all, so disabled instrumentation points cost one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    hub: Option<Arc<Hub>>,
}

impl Telemetry {
    /// A hub recording at `mode` ([`TelemetryMode::Off`] allocates
    /// nothing).
    #[must_use]
    pub fn new(mode: TelemetryMode) -> Telemetry {
        match mode {
            TelemetryMode::Off => Telemetry { hub: None },
            mode => Telemetry {
                hub: Some(Arc::new(Hub {
                    mode,
                    epoch: Instant::now(),
                    state: Mutex::new(State::default()),
                })),
            },
        }
    }

    /// The disabled handle — every recording call is a no-op.
    #[must_use]
    pub fn off() -> Telemetry {
        Telemetry { hub: None }
    }

    /// The mode this handle records at.
    #[must_use]
    pub fn mode(&self) -> TelemetryMode {
        self.hub.as_ref().map_or(TelemetryMode::Off, |h| h.mode)
    }

    /// `true` unless the handle is [off](TelemetryMode::Off).
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// `true` when span timings are being recorded.
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.mode() == TelemetryMode::Spans
    }

    /// Starts a span; the returned guard records its wall-clock duration
    /// into the registry when dropped. A no-op (no clock read) unless the
    /// mode is [`TelemetryMode::Spans`]. Opened while a
    /// [`worker_span`](Telemetry::worker_span) guard is live on this
    /// thread, the span inherits that guard's worker index.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_inner(name, LANE.get(), false)
    }

    /// Like [`span`](Telemetry::span), attributed to worker `worker` — used
    /// by the parallel fan-out engine, one per participant. Until the guard
    /// drops, spans opened on this thread inherit `worker` as their lane.
    /// Opened inside another worker span (a parallel call made from inside
    /// a participant), it inherits the outer lane instead: the thread is
    /// still that participant.
    ///
    /// The guard must be dropped on the thread that opened it.
    #[must_use]
    pub fn worker_span(&self, name: &'static str, worker: u32) -> Span {
        match LANE.get() {
            Some(outer) => self.span_inner(name, Some(outer), false),
            None => {
                LANE.set(Some(worker));
                self.span_inner(name, Some(worker), true)
            }
        }
    }

    fn span_inner(&self, name: &'static str, worker: Option<u32>, owns_lane: bool) -> Span {
        let hub = self
            .hub
            .as_ref()
            .filter(|h| h.mode == TelemetryMode::Spans)
            .map(Arc::clone);
        Span {
            start: hub.as_ref().map(|_| Instant::now()),
            hub,
            name,
            worker,
            owns_lane,
        }
    }

    /// Adds `by` to the counter `name`.
    pub fn incr(&self, name: &'static str, by: u64) {
        if let Some(hub) = &self.hub {
            *hub.state
                .lock()
                .expect("telemetry lock")
                .counters
                .entry(name)
                .or_insert(0) += by;
        }
    }

    /// Sets the counter `name` to `value` (a gauge: last write wins).
    pub fn set(&self, name: &'static str, value: u64) {
        if let Some(hub) = &self.hub {
            hub.state
                .lock()
                .expect("telemetry lock")
                .counters
                .insert(name, value);
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(hub) = &self.hub {
            Self::observe_locked(&mut hub.state.lock().expect("telemetry lock"), name, value);
        }
    }

    fn observe_locked(state: &mut State, name: &'static str, value: u64) {
        match state.histograms.entry(name) {
            std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().observe(value),
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Histogram::new(value));
            }
        }
    }

    /// Records one simulated round's worth of engine counters under a
    /// single registry lock (the hot path out of
    /// [`World::deliver`](crate::World::deliver)).
    pub fn record_round(&self, kills: u64, delivered: u64, suppressed: u64, over_cap: bool) {
        let Some(hub) = &self.hub else { return };
        let mut state = hub.state.lock().expect("telemetry lock");
        for (name, by) in [
            ("sim.rounds", 1),
            ("sim.kills", kills),
            ("sim.messages_delivered", delivered),
            ("sim.messages_suppressed", suppressed),
        ] {
            *state.counters.entry(name).or_insert(0) += by;
        }
        if over_cap {
            *state
                .counters
                .entry("sim.rounds_over_kill_cap")
                .or_insert(0) += 1;
        }
        Self::observe_locked(&mut state, "round.messages", delivered);
        if kills > 0 {
            Self::observe_locked(&mut state, "round.kills", kills);
        }
    }

    /// Records the round in which a process fixed its decision.
    pub fn record_decision(&self, round_index: u32) {
        self.observe("decision.round", u64::from(round_index));
    }

    /// A point-in-time copy of the registry: counters and histograms by
    /// name, spans in the order they finished; no `meta` or `round_kills`
    /// entries and zero line accounting.
    #[must_use]
    pub fn snapshot(&self) -> TelemetryStream {
        let Some(hub) = &self.hub else {
            return TelemetryStream::default();
        };
        let state = hub.state.lock().expect("telemetry lock");
        TelemetryStream {
            counters: state
                .counters
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(&k, &v)| (k.to_string(), v))
                .collect(),
            spans: state
                .spans
                .iter()
                .map(|s| OwnedSpan {
                    name: s.name.to_string(),
                    worker: s.worker,
                    start_ns: s.start_ns,
                    elapsed_ns: s.elapsed_ns,
                })
                .collect(),
            ..TelemetryStream::default()
        }
    }

    /// Appends the registry's events to `sink` in file order (see
    /// [`TelemetryStream::events`]).
    pub fn export(&self, sink: &mut MemorySink) {
        sink.events.extend(self.snapshot().events());
    }
}

/// An RAII span guard; records its duration into the registry on drop.
///
/// Obtained from [`Telemetry::span`] / [`Telemetry::worker_span`]. Owns a
/// hub handle, so it can outlive the `Telemetry` it came from and be held
/// across mutations of the instrumented object.
#[derive(Debug)]
pub struct Span {
    hub: Option<Arc<Hub>>,
    name: &'static str,
    worker: Option<u32>,
    start: Option<Instant>,
    /// This guard set the thread's lane and clears it on drop.
    owns_lane: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.owns_lane {
            LANE.set(None);
        }
        let (Some(hub), Some(start)) = (&self.hub, self.start) else {
            return;
        };
        #[allow(clippy::cast_possible_truncation)]
        let record = SpanRecord {
            name: self.name,
            worker: self.worker,
            start_ns: start.duration_since(hub.epoch).as_nanos() as u64,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        };
        hub.state.lock().expect("telemetry lock").spans.push(record);
    }
}

/// One telemetry datum: one line of a JSONL stream.
///
/// The JSONL encoding ([`TelemetryEvent::to_jsonl`]) has a **stable field
/// order** — `"type"` first, then the fields in declaration order — pinned
/// by the fixture tests in `crates/sim/tests/telemetry_sink.rs`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TelemetryEvent {
    /// Free-form run attribution (experiment name, `n`, seed, …).
    Meta {
        /// Attribute key.
        key: String,
        /// Attribute value.
        value: String,
    },
    /// A counter snapshot.
    Counter {
        /// Counter name.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// A histogram snapshot.
    Histogram {
        /// Histogram name.
        name: String,
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Smallest observation.
        min: u64,
        /// Largest observation.
        max: u64,
    },
    /// One completed span.
    Span {
        /// Span name.
        name: String,
        /// Worker attribution, if recorded inside the parallel engine.
        worker: Option<u32>,
        /// Start, nanoseconds since the hub epoch.
        start_ns: u64,
        /// Duration, nanoseconds.
        elapsed_ns: u64,
    },
    /// Per-round kill-budget accounting: the adversary's spend in one
    /// round against the paper's `4√(n·ln n)+1` cap.
    RoundKills {
        /// The round.
        round: u32,
        /// Processes failed in it.
        kills: u64,
        /// The per-round cap ([`per_round_kill_cap`]).
        cap: u64,
        /// Whether the spend exceeded the cap.
        over_cap: bool,
    },
}

impl TelemetryEvent {
    /// Encodes the event as one JSON line (no trailing newline), with the
    /// stable field order the schema tests pin.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        match self {
            TelemetryEvent::Meta { key, value } => format!(
                "{{\"type\":\"meta\",\"key\":\"{}\",\"value\":\"{}\"}}",
                Escaped(key),
                Escaped(value)
            ),
            TelemetryEvent::Counter { name, value } => format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{value}}}",
                Escaped(name)
            ),
            TelemetryEvent::Histogram {
                name,
                count,
                sum,
                min,
                max,
            } => format!(
                "{{\"type\":\"histogram\",\"name\":\"{}\",\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max}}}",
                Escaped(name)
            ),
            TelemetryEvent::Span {
                name,
                worker,
                start_ns,
                elapsed_ns,
            } => {
                let worker = worker.map_or_else(|| "null".to_string(), |w| w.to_string());
                format!(
                    "{{\"type\":\"span\",\"name\":\"{}\",\"worker\":{worker},\"start_ns\":{start_ns},\"elapsed_ns\":{elapsed_ns}}}",
                    Escaped(name)
                )
            }
            TelemetryEvent::RoundKills {
                round,
                kills,
                cap,
                over_cap,
            } => format!(
                "{{\"type\":\"round_kills\",\"round\":{round},\"kills\":{kills},\"cap\":{cap},\"over_cap\":{over_cap}}}"
            ),
        }
    }

    /// Decodes one JSONL line produced by [`TelemetryEvent::to_jsonl`].
    ///
    /// Returns `None` for malformed or truncated lines **and** for
    /// well-formed objects of an unknown `"type"` — the same
    /// forward-compatibility contract as the journal loader: readers skip
    /// what they don't understand. Use [`aggregate::classify_line`] when
    /// the distinction between *malformed* and *unknown-but-well-formed*
    /// matters (it does for `synran report --check`).
    #[must_use]
    pub fn from_jsonl(line: &str) -> Option<TelemetryEvent> {
        TelemetryEvent::from_object(&FlatObject::parse(line)?)
    }

    /// Decodes an already-parsed line; `None` for an unknown `"type"` or
    /// a missing or mistyped field.
    pub(crate) fn from_object(obj: &FlatObject<'_>) -> Option<TelemetryEvent> {
        let name = || obj.str("name").map(str::to_string);
        match obj.str("type")? {
            "meta" => Some(TelemetryEvent::Meta {
                key: obj.str("key")?.to_string(),
                value: obj.str("value")?.to_string(),
            }),
            "counter" => Some(TelemetryEvent::Counter {
                name: name()?,
                value: obj.u64("value")?,
            }),
            "histogram" => Some(TelemetryEvent::Histogram {
                name: name()?,
                count: obj.u64("count")?,
                sum: obj.u64("sum")?,
                min: obj.u64("min")?,
                max: obj.u64("max")?,
            }),
            "span" => Some(TelemetryEvent::Span {
                name: name()?,
                worker: match obj.u64_or_null("worker")? {
                    None => None,
                    Some(w) => Some(u32::try_from(w).ok()?),
                },
                start_ns: obj.u64("start_ns")?,
                elapsed_ns: obj.u64("elapsed_ns")?,
            }),
            "round_kills" => Some(TelemetryEvent::RoundKills {
                round: u32::try_from(obj.u64("round")?).ok()?,
                kills: obj.u64("kills")?,
                cap: obj.u64("cap")?,
                over_cap: obj.bool("over_cap")?,
            }),
            _ => None,
        }
    }
}

/// Telemetry events collected in memory ([`Telemetry::export`]), for
/// tests and benchmarks.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Vec<TelemetryEvent>,
}

impl MemorySink {
    /// An empty sink.
    #[must_use]
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// The collected events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing_round_trips() {
        for mode in [
            TelemetryMode::Off,
            TelemetryMode::Counters,
            TelemetryMode::Spans,
        ] {
            assert_eq!(mode.as_str().parse::<TelemetryMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), mode.as_str());
        }
        assert!("verbose".parse::<TelemetryMode>().is_err());
    }

    #[test]
    fn off_handle_records_nothing() {
        let t = Telemetry::off();
        assert!(!t.is_enabled());
        assert_eq!(t.mode(), TelemetryMode::Off);
        t.incr("x", 1);
        t.observe("y", 2);
        t.record_round(1, 2, 3, true);
        drop(t.span("z"));
        let snap = t.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty() && snap.spans.is_empty());
    }

    #[test]
    fn counters_mode_skips_spans() {
        let t = Telemetry::new(TelemetryMode::Counters);
        assert!(t.is_enabled());
        assert!(!t.spans_enabled());
        t.incr("a", 2);
        t.incr("a", 3);
        t.observe("h", 7);
        drop(t.span("skipped"));
        let snap = t.snapshot();
        assert_eq!(snap.counter("a"), Some(5));
        assert_eq!(snap.histogram("h").unwrap().sum, 7);
        assert!(snap.spans.is_empty(), "spans must be skipped in Counters");
    }

    #[test]
    fn spans_record_name_worker_and_duration() {
        let t = Telemetry::new(TelemetryMode::Spans);
        {
            let _a = t.span("outer");
            let _b = t.worker_span("inner", 3);
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 2);
        // Inner guard drops first.
        assert_eq!(snap.spans[0].name, "inner");
        assert_eq!(snap.spans[0].worker, Some(3));
        assert_eq!(snap.spans[1].name, "outer");
        assert_eq!(snap.spans[1].worker, None);
    }

    #[test]
    fn spans_inherit_the_live_worker_lane() {
        let t = Telemetry::new(TelemetryMode::Spans);
        {
            let _worker = t.worker_span("parallel.worker", 2);
            drop(t.span("work"));
            // A nested worker span (an inline dispatch) keeps the lane.
            let _nested = t.worker_span("parallel.worker", 0);
            drop(t.span("nested"));
        }
        // The lane ends with the guard that opened it.
        drop(t.span("after"));
        std::thread::scope(|scope| {
            scope.spawn(|| drop(t.span("other-thread")));
            let _worker = t.worker_span("parallel.worker", 5);
        });
        let snap = t.snapshot();
        let lane = |name: &str| snap.spans.iter().find(|s| s.name == name).unwrap().worker;
        assert_eq!(lane("work"), Some(2));
        assert_eq!(lane("nested"), Some(2));
        assert_eq!(lane("after"), None);
        assert_eq!(lane("other-thread"), None, "lanes are per thread");
        let mut workers: Vec<Option<u32>> = snap
            .spans
            .iter()
            .filter(|s| s.name == "parallel.worker")
            .map(|s| s.worker)
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![Some(2), Some(2), Some(5)]);
    }

    #[test]
    fn clones_share_one_registry() {
        let t = Telemetry::new(TelemetryMode::Counters);
        let clone = t.clone();
        t.incr("shared", 1);
        clone.incr("shared", 2);
        assert_eq!(t.snapshot().counter("shared"), Some(3));
    }

    #[test]
    fn record_round_fills_engine_counters() {
        let t = Telemetry::new(TelemetryMode::Counters);
        t.record_round(2, 30, 4, false);
        t.record_round(0, 28, 0, false);
        t.record_round(9, 10, 20, true);
        let snap = t.snapshot();
        assert_eq!(snap.counter("sim.rounds"), Some(3));
        assert_eq!(snap.counter("sim.kills"), Some(11));
        assert_eq!(snap.counter("sim.messages_delivered"), Some(68));
        assert_eq!(snap.counter("sim.messages_suppressed"), Some(24));
        assert_eq!(snap.counter("sim.rounds_over_kill_cap"), Some(1));
        let kills = snap.histogram("round.kills").unwrap();
        assert_eq!((kills.count, kills.min, kills.max), (2, 2, 9));
        assert_eq!(snap.histogram("round.messages").unwrap().count, 3);
    }

    #[test]
    fn concurrent_counting_is_exact() {
        let t = Telemetry::new(TelemetryMode::Spans);
        std::thread::scope(|scope| {
            for w in 0..8u32 {
                let t = &t;
                scope.spawn(move || {
                    let _s = t.worker_span("parallel.worker", w);
                    for _ in 0..1000 {
                        t.incr("hits", 1);
                    }
                });
            }
        });
        let snap = t.snapshot();
        assert_eq!(snap.counter("hits"), Some(8000));
        assert_eq!(snap.spans.len(), 8);
    }

    #[test]
    fn kill_cap_matches_the_paper_formula() {
        for n in [2usize, 16, 64, 1024] {
            let nf = n as f64;
            let expect = (4.0 * (nf * nf.ln().max(1.0)).sqrt()).ceil() as u64 + 1;
            assert_eq!(per_round_kill_cap(n), expect);
        }
        assert!(
            per_round_kill_cap(1) >= 2,
            "clamped ln keeps the cap positive"
        );
    }

    #[test]
    fn histogram_mean() {
        let t = Telemetry::new(TelemetryMode::Counters);
        t.observe("h", 2);
        t.observe("h", 4);
        let h = t.snapshot().histogram("h").unwrap();
        assert!((h.mean() - 3.0).abs() < 1e-12);
        let empty = Histogram {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        };
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn json_escaping_is_safe() {
        let e = TelemetryEvent::Meta {
            key: "we\"ird".into(),
            value: "line\nbreak\\and\ttab\u{1}".into(),
        };
        assert_eq!(
            e.to_jsonl(),
            "{\"type\":\"meta\",\"key\":\"we\\\"ird\",\"value\":\"line\\nbreak\\\\and\\ttab\\u0001\"}"
        );
    }
}
