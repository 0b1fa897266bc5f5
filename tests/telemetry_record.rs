//! `TelemetryStream` is the one in-memory telemetry record: writing it as
//! JSONL and reading the file back gives an equal record, in the file
//! order meta → counters → histograms → spans → round_kills, and every
//! committed `results/*.telemetry.jsonl` artifact is already in that
//! canonical form, so reading one and writing it back gives its bytes.

use synran::sim::json::FlatObject;
use synran::sim::telemetry::Histogram;
use synran::sim::{OwnedSpan, RoundKillRow, TelemetryStream};

/// The committed telemetry artifacts, one per experiment that writes one.
const ARTIFACTS: [&str; 6] = [
    "e3_lower_bound",
    "e4_synran_upper",
    "e5_protocol_comparison",
    "e6_large_deviation",
    "e7_t_sweep",
    "e8_budget_ablation",
];

fn write(record: &TelemetryStream) -> String {
    let mut bytes = Vec::new();
    record.write_jsonl(&mut bytes).expect("in-memory write");
    String::from_utf8(bytes).expect("utf8")
}

#[test]
fn committed_artifacts_read_and_write_back_byte_for_byte() {
    for name in ARTIFACTS {
        let path = format!(
            "{}/results/{name}.telemetry.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).expect(&path);
        let record = TelemetryStream::parse(&text);
        assert_eq!((record.unknown, record.malformed), (0, 0), "{path}");
        assert_eq!(record.lines, text.lines().count(), "{path}");
        assert!(
            write(&record) == text,
            "{path} did not write back its bytes"
        );
    }
}

/// A record with every event kind and every string field stressed:
/// quotes, backslashes, newlines and non-ASCII characters in meta,
/// counter, histogram and span names, an unattributed and a lane span,
/// and an over-cap `round_kills` row.
fn fixture() -> TelemetryStream {
    let span = |name: &str, worker, start_ns, elapsed_ns| OwnedSpan {
        name: name.to_string(),
        worker,
        start_ns,
        elapsed_ns,
    };
    let histogram = |count, sum, min, max| Histogram {
        count,
        sum,
        min,
        max,
    };
    TelemetryStream {
        meta: vec![
            ("experiment".into(), "ké\"y\\ \u{1}".into()),
            ("line\nbreak".into(), "v€\\\n😀".into()),
        ],
        counters: [("a\"b\\c".to_string(), 3), ("sim.rounds€".to_string(), 9)].into(),
        histograms: [
            ("round.kills".to_string(), histogram(2, 7, 3, 4)),
            ("round.messages\n".to_string(), histogram(1, 5, 5, 5)),
        ]
        .into(),
        spans: vec![
            span("parallel.worker", Some(3), 5, 40),
            span("odd\"phase\\\n✓", None, 0, 50),
        ],
        round_kills: vec![
            RoundKillRow {
                round: 1,
                kills: 4,
                cap: 12,
                over_cap: false,
            },
            RoundKillRow {
                round: 2,
                kills: 13,
                cap: 12,
                over_cap: true,
            },
        ],
        ..TelemetryStream::default()
    }
}

#[test]
fn a_fixture_record_round_trips_through_jsonl_in_file_order() {
    let record = fixture();
    let text = write(&record);
    let types: Vec<String> = text
        .lines()
        .map(|line| {
            FlatObject::parse(line)
                .unwrap()
                .str("type")
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(
        types,
        [
            "meta",
            "meta",
            "counter",
            "counter",
            "histogram",
            "histogram",
            "span",
            "span",
            "round_kills",
            "round_kills",
        ],
        "{text}"
    );

    let mut back = TelemetryStream::parse(&text);
    assert_eq!((back.lines, back.unknown, back.malformed), (10, 0, 0));
    back.lines = 0;
    assert_eq!(back, record);
    assert_eq!(write(&back), text);
    assert_eq!(back.counter("a\"b\\c"), Some(3));
    assert_eq!(back.histogram("round.kills").map(|h| h.sum), Some(7));
    assert_eq!(back.meta_value("line\nbreak"), Some("v€\\\n😀"));
}
