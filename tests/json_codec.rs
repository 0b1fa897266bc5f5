//! The JSONL codec end to end: arbitrary strings survive every writer and
//! reader that carries strings (telemetry, journal headers and cells, the
//! codec itself), and no prefix of a line of any format decodes to a
//! value. Strings come from a fixed-seed `SimRng`, so a failure replays.

use synran::lab::cell::{from_jsonl, to_jsonl};
use synran::lab::{scan_journal, Cell, CellResult, Journal};
use synran::sim::json::{Escaped, FlatObject};
use synran::sim::telemetry::aggregate::{classify_line, LineKind};
use synran::sim::{SimRng, TelemetryEvent};

/// Pieces that stress an escaper and a reader: JSON syntax, escape
/// look-alikes written literally, and multi-byte UTF-8.
const PIECES: &[&str] = &[
    "\"", "\\", "\\\"", "\\u0041", "\\u00e9", "\\n", "u00", "/", "{", "}", "[", "]", ",", ":", "é",
    "€", "😀", "a", " ", "null", "\u{7f}", "\u{2028}",
];

/// The fixed samples (the empty string, and every control character
/// below 0x20) followed by `count` generated strings.
fn samples(count: usize) -> Vec<String> {
    let mut rng = SimRng::new(0x15_0c0d);
    let mut out = vec![String::new(), (0u8..0x20).map(char::from).collect()];
    for _ in 0..count {
        let mut s = String::new();
        for _ in 0..rng.below(12) {
            if rng.below(3) == 0 {
                s.push(char::from(u8::try_from(rng.below(0x20)).unwrap()));
            } else {
                s.push_str(PIECES[rng.index(PIECES.len())]);
            }
        }
        out.push(s);
    }
    out
}

fn cell(protocol: &str, adversary: &str) -> (Cell, CellResult) {
    let result = CellResult {
        rounds: vec![3, 4],
        kills: vec![1, 0],
        timeouts: 0,
        violations: 0,
    };
    (Cell::new(protocol, adversary, 8), result)
}

#[test]
fn arbitrary_strings_round_trip_through_every_string_field() {
    let dir = std::env::temp_dir().join(format!("synran-json-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("codec.journal.jsonl");
    for s in samples(300) {
        let line = format!(
            "{{\"k\":\"{}\",\"{}\":7,\"xs\":[]}}",
            Escaped(&s),
            Escaped(&s)
        );
        let obj = FlatObject::parse(&line).unwrap_or_else(|| panic!("{line}"));
        assert_eq!(obj.str("k"), Some(s.as_str()), "{line}");
        assert_eq!(obj.u64(&s), Some(7), "{line}");

        for event in [
            TelemetryEvent::Meta {
                key: s.clone(),
                value: s.clone(),
            },
            TelemetryEvent::Counter {
                name: s.clone(),
                value: 9,
            },
            TelemetryEvent::Span {
                name: s.clone(),
                worker: Some(2),
                start_ns: 1,
                elapsed_ns: 5,
            },
        ] {
            let line = event.to_jsonl();
            assert_eq!(TelemetryEvent::from_jsonl(&line), Some(event.clone()));
            assert_eq!(classify_line(&line), LineKind::Event(event));
        }

        let (cell, result) = cell(&s, &format!("{s}!"));
        assert_eq!(
            from_jsonl(&to_jsonl(&cell, &result)),
            Some((cell.content_hash(), cell.clone(), result.clone()))
        );
        let mut journal = Journal::create_fresh(&path).unwrap();
        journal.append_header(&s, 1, &s).unwrap();
        journal.append(&cell, &result).unwrap();
        drop(journal);
        let scan = scan_journal(&path).unwrap();
        let header = scan.header.expect("header parses");
        assert_eq!(
            (header.name.as_str(), header.spec_hash.as_str()),
            (&*s, &*s)
        );
        assert_eq!((scan.entries, scan.skipped), (1, 0));
        assert_eq!(scan.rows, vec![(cell, result)]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_cut_of_a_line_decodes_to_nothing() {
    let telemetry = TelemetryEvent::Meta {
        key: "ké\"y".into(),
        value: "v€\\\n😀".into(),
    }
    .to_jsonl();
    let (cell, result) = cell("syn\"ran€", "lower-bound");
    let journal = to_jsonl(&cell, &result);
    assert!(matches!(classify_line(&telemetry), LineKind::Event(_)));
    assert!(from_jsonl(&journal).is_some());

    for line in [&telemetry, &journal] {
        let bytes = line.as_bytes();
        for k in 0..bytes.len() {
            // A cut inside a multi-byte character reads back with U+FFFD,
            // as a lossy line reader would hand it over.
            let cut = String::from_utf8_lossy(&bytes[..k]);
            assert_eq!(FlatObject::parse(&cut), None, "{cut}");
            assert_eq!(TelemetryEvent::from_jsonl(&cut), None, "{cut}");
            assert_eq!(from_jsonl(&cut), None, "{cut}");
            let expected = if k == 0 {
                LineKind::Blank
            } else {
                LineKind::Malformed
            };
            assert_eq!(classify_line(&cut), expected, "{cut}");
        }
    }
}
