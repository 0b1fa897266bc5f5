//! Pins the telemetry JSONL wire format: exact field order, exact bytes.
//!
//! Downstream tooling (the tier-1 smoke test, notebook loaders) parses
//! these lines with nothing but a JSON decoder and string matching, so
//! the schema — field names, field *order*, one event per line — is a
//! contract. These fixtures fail if serialization drifts.

use synran_sim::telemetry::Histogram;
use synran_sim::{MemorySink, Telemetry, TelemetryEvent, TelemetryMode};

/// Every event variant's exact line, field order included.
#[test]
fn event_lines_are_pinned() {
    let cases: Vec<(TelemetryEvent, &str)> = vec![
        (
            TelemetryEvent::Meta {
                key: "experiment".to_string(),
                value: "e3_lower_bound".to_string(),
            },
            r#"{"type":"meta","key":"experiment","value":"e3_lower_bound"}"#,
        ),
        (
            TelemetryEvent::Counter {
                name: "sim.kills".to_string(),
                value: 42,
            },
            r#"{"type":"counter","name":"sim.kills","value":42}"#,
        ),
        (
            TelemetryEvent::Histogram {
                name: "round.messages".to_string(),
                count: 3,
                sum: 12,
                min: 2,
                max: 6,
            },
            r#"{"type":"histogram","name":"round.messages","count":3,"sum":12,"min":2,"max":6}"#,
        ),
        (
            TelemetryEvent::Span {
                name: "world.drive".to_string(),
                worker: None,
                start_ns: 10,
                elapsed_ns: 250,
            },
            r#"{"type":"span","name":"world.drive","worker":null,"start_ns":10,"elapsed_ns":250}"#,
        ),
        (
            TelemetryEvent::Span {
                name: "parallel.worker".to_string(),
                worker: Some(3),
                start_ns: 0,
                elapsed_ns: 7,
            },
            r#"{"type":"span","name":"parallel.worker","worker":3,"start_ns":0,"elapsed_ns":7}"#,
        ),
        (
            TelemetryEvent::RoundKills {
                round: 5,
                kills: 9,
                cap: 8,
                over_cap: true,
            },
            r#"{"type":"round_kills","round":5,"kills":9,"cap":8,"over_cap":true}"#,
        ),
    ];
    for (event, expected) in cases {
        assert_eq!(event.to_jsonl(), expected);
    }
}

/// A snapshot written as JSONL produces exactly the expected bytes:
/// counters first, then histograms, both in name order, one event per
/// `\n`-terminated line.
#[test]
fn registry_export_fixture() {
    let telemetry = Telemetry::new(TelemetryMode::Counters);
    telemetry.incr("batch.runs", 2);
    telemetry.incr("alpha", 1);
    telemetry.incr("alpha", 4);
    telemetry.observe("round.kills", 5);
    telemetry.observe("round.kills", 7);
    let mut bytes = Vec::new();
    telemetry
        .snapshot()
        .write_jsonl(&mut bytes)
        .expect("in-memory write");
    let text = String::from_utf8(bytes).expect("utf8");
    assert_eq!(
        text,
        concat!(
            r#"{"type":"counter","name":"alpha","value":5}"#,
            "\n",
            r#"{"type":"counter","name":"batch.runs","value":2}"#,
            "\n",
            r#"{"type":"histogram","name":"round.kills","count":2,"sum":12,"min":5,"max":7}"#,
            "\n",
        )
    );
}

/// Spans export after counters and histograms, in recording order, and
/// their wall-clock fields are the only non-reproducible values — pin the
/// structure, not the timings.
#[test]
fn spans_export_last_in_recording_order() {
    let telemetry = Telemetry::new(TelemetryMode::Spans);
    telemetry.incr("c", 1);
    {
        let _outer = telemetry.span("outer");
        let _inner = telemetry.worker_span("inner", 2);
        // inner drops first, so it is recorded first.
    }
    let mut sink = MemorySink::new();
    telemetry.export(&mut sink);
    let kinds: Vec<&str> = sink
        .events()
        .iter()
        .map(|e| match e {
            TelemetryEvent::Counter { .. } => "counter",
            TelemetryEvent::Histogram { .. } => "histogram",
            TelemetryEvent::Span { .. } => "span",
            _ => "other",
        })
        .collect();
    assert_eq!(kinds, ["counter", "span", "span"]);
    match &sink.events()[1] {
        TelemetryEvent::Span { name, worker, .. } => {
            assert_eq!(name, "inner");
            assert_eq!(*worker, Some(2));
        }
        other => panic!("expected span, got {other:?}"),
    }
    match &sink.events()[2] {
        TelemetryEvent::Span { name, worker, .. } => {
            assert_eq!(name, "outer");
            assert_eq!(*worker, None);
        }
        other => panic!("expected span, got {other:?}"),
    }
    // Every event still serializes to a single line.
    for event in sink.events() {
        let line = event.to_jsonl();
        assert!(!line.contains('\n'), "one event per line: {line}");
        assert!(
            line.starts_with("{\"type\":\""),
            "type field leads the line: {line}"
        );
    }
}

/// `Histogram` accessors used by consumers of a snapshot.
#[test]
fn histogram_summary_is_exact() {
    let telemetry = Telemetry::new(TelemetryMode::Counters);
    for v in [4u64, 10, 1] {
        telemetry.observe("h", v);
    }
    let snap = telemetry.snapshot();
    let h: Histogram = snap.histogram("h").expect("recorded");
    assert_eq!((h.count, h.sum, h.min, h.max), (3, 15, 1, 10));
    assert!((h.mean() - 5.0).abs() < 1e-12);
}
