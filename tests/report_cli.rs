//! End-to-end contract of `synran report`: rendering is a pure function
//! of the input file bytes (byte-identical across repeated invocations
//! and any `--threads` value), the folded output is a valid flamegraph
//! stack file, the table carries the self/child-time and
//! kill-budget-vs-cap columns, `--check` tells healthy artifacts from
//! malformed or truncated ones with its exit code, and every format
//! renders the committed artifacts to the committed golden bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("synran-report-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn synran(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synran"))
        .args(args)
        .output()
        .expect("spawn synran")
}

/// A healthy telemetry artifact: meta, counters, a histogram, a small
/// span tree (`world.drive` containing two `round.deliver`s and one
/// `round.flip`), and per-round kill accounting with one over-cap round.
fn healthy_fixture(dir: &Path) -> String {
    let path = dir.join("healthy.telemetry.jsonl");
    let lines = [
        r#"{"type":"meta","key":"experiment","value":"report-cli-fixture"}"#,
        r#"{"type":"meta","key":"n","value":"64"}"#,
        r#"{"type":"counter","name":"lab.cells.total","value":8}"#,
        r#"{"type":"counter","name":"lab.cells.executed","value":6}"#,
        r#"{"type":"counter","name":"lab.cells.cached","value":2}"#,
        r#"{"type":"counter","name":"lab.elapsed_ns","value":2000000000}"#,
        r#"{"type":"counter","name":"pool.spawned","value":4}"#,
        r#"{"type":"counter","name":"pool.reused","value":12}"#,
        r#"{"type":"histogram","name":"pool.utilization","count":4,"sum":320,"min":60,"max":95}"#,
        r#"{"type":"span","name":"world.drive","worker":null,"start_ns":0,"elapsed_ns":1000}"#,
        r#"{"type":"span","name":"round.deliver","worker":null,"start_ns":100,"elapsed_ns":200}"#,
        r#"{"type":"span","name":"round.deliver","worker":null,"start_ns":400,"elapsed_ns":200}"#,
        r#"{"type":"span","name":"round.flip","worker":null,"start_ns":700,"elapsed_ns":100}"#,
        r#"{"type":"round_kills","round":1,"kills":10,"cap":42,"over_cap":false}"#,
        r#"{"type":"round_kills","round":2,"kills":43,"cap":42,"over_cap":true}"#,
    ];
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path.to_string_lossy().into_owned()
}

/// A truncated artifact: the final line was cut mid-write.
fn truncated_fixture(dir: &Path) -> String {
    let path = dir.join("truncated.telemetry.jsonl");
    let lines = [
        r#"{"type":"counter","name":"lab.cells.total","value":3}"#,
        r#"{"type":"span","name":"world.drive","worker":null,"start_ns":0,"elapsed"#,
    ];
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn folded_output_is_a_valid_stack_file_and_reproducible() {
    let dir = tmpdir("folded");
    let fixture = healthy_fixture(&dir);
    let first = synran(&["report", "--format", "folded", &fixture]);
    assert!(first.status.success(), "{first:?}");
    let folded = String::from_utf8(first.stdout).unwrap();
    assert!(!folded.trim().is_empty());
    for line in folded.lines() {
        let (stack, value) = line.rsplit_once(' ').expect("stack<space>self_ns");
        assert!(!stack.is_empty());
        value.parse::<u64>().expect("numeric self-ns");
    }
    assert!(
        folded.contains("world.drive;round.deliver 400"),
        "nested self time folded under the parent stack:\n{folded}"
    );
    assert!(
        folded.contains("world.drive 500"),
        "parent keeps only its self time (1000 - 400 - 100):\n{folded}"
    );

    // Pure function of the input bytes: repeated invocations and any
    // --threads value produce byte-identical output.
    for extra in [
        &["--threads", "1"][..],
        &["--threads", "2"],
        &["--threads", "8"],
        &[],
    ] {
        let mut args = vec!["report", "--format", "folded", fixture.as_str()];
        args.extend_from_slice(extra);
        let again = synran(&args);
        assert!(again.status.success());
        assert_eq!(
            String::from_utf8(again.stdout).unwrap(),
            folded,
            "args: {extra:?}"
        );
    }
}

#[test]
fn table_carries_phase_and_kill_budget_columns() {
    let dir = tmpdir("table");
    let fixture = healthy_fixture(&dir);
    let out = synran(&["report", &fixture]);
    assert!(out.status.success(), "{out:?}");
    let table = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "## Phases",
        "self_ns",
        "child_ns",
        "## Kill budget vs cap",
        "over_cap",
        "world.drive",
        "round.deliver",
        "cap for n = 64",
    ] {
        assert!(table.contains(needle), "missing {needle:?} in:\n{table}");
    }

    let json = synran(&["report", "--format", "json", &fixture]);
    assert!(json.status.success());
    let json = String::from_utf8(json.stdout).unwrap();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"phases\"") && json.contains("\"round_kills\""));
}

#[test]
fn check_accepts_healthy_and_rejects_broken_artifacts() {
    let dir = tmpdir("check");
    let healthy = healthy_fixture(&dir);
    let ok = synran(&["report", "--check", &healthy]);
    assert!(ok.status.success(), "{ok:?}");
    assert!(String::from_utf8(ok.stdout).unwrap().contains("check: ok"));

    let truncated = truncated_fixture(&dir);
    let bad = synran(&["report", "--check", &truncated]);
    assert!(
        !bad.status.success(),
        "truncated artifact must fail --check"
    );

    // A journal whose tail was cut mid-entry is flagged too.
    let journal = dir.join("cut.journal.jsonl");
    std::fs::write(&journal, "{\"cell\":{\"protocol\":\"syn").unwrap();
    let bad = synran(&["report", "--check", journal.to_string_lossy().as_ref()]);
    assert!(!bad.status.success(), "cut journal must fail --check");
}

#[test]
fn json_escapes_paths_phases_counters_and_cell_names() {
    use synran::lab::cell::to_jsonl;
    use synran::lab::{Cell, CellResult};
    use synran::sim::json::FlatObject;
    use synran::sim::TelemetryEvent;

    let dir = tmpdir("escapes").join("we\"ird\\dir");
    std::fs::create_dir_all(&dir).unwrap();
    let telemetry = dir.join("names.telemetry.jsonl");
    let events = [
        TelemetryEvent::Counter {
            name: "a\"b\\c".into(),
            value: 3,
        },
        TelemetryEvent::Span {
            name: "odd\"phase".into(),
            worker: None,
            start_ns: 0,
            elapsed_ns: 5,
        },
    ];
    let lines: Vec<String> = events.iter().map(TelemetryEvent::to_jsonl).collect();
    std::fs::write(&telemetry, lines.join("\n") + "\n").unwrap();
    let journal = dir.join("names.journal.jsonl");
    let cell = Cell::new("syn\"ran", "line\nbreak", 4);
    let result = CellResult {
        rounds: vec![2],
        kills: vec![0],
        timeouts: 0,
        violations: 0,
    };
    std::fs::write(&journal, to_jsonl(&cell, &result) + "\n").unwrap();
    let (telemetry, journal) = (
        telemetry.to_string_lossy().into_owned(),
        journal.to_string_lossy().into_owned(),
    );

    let out = synran(&["report", "--format", "json", &telemetry, &journal]);
    assert!(out.status.success(), "{out:?}");
    let json = String::from_utf8(out.stdout).unwrap();
    for needle in [
        r#""a\"b\\c":3"#,
        r#"{"phase":"odd\"phase","#,
        r#"{"protocol":"syn\"ran","adversary":"line\nbreak","#,
        r#"we\"ird\\dir/names.journal.jsonl","cells":1,"dropped":0,"#,
    ] {
        assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
    }
    assert!(FlatObject::parse(&json).is_some(), "invalid JSON:\n{json}");

    let out = synran(&["report", &telemetry, &journal]);
    assert!(out.status.success(), "{out:?}");
    let table = String::from_utf8(out.stdout).unwrap();
    assert!(table.contains("syn\"ran"), "{table}");
    let check = synran(&["report", "--check", &telemetry, &journal]);
    assert!(check.status.success(), "{check:?}");
}

/// `synran report --format <format> results/*.jsonl` (in byte order of
/// the file names). Re-capture them with that command, from the repo root,
/// whenever a committed artifact is regenerated.
const GOLDENS: [(&str, &str); 3] = [
    ("table", include_str!("golden/report_table.txt")),
    ("json", include_str!("golden/report_json.txt")),
    ("folded", include_str!("golden/report_folded.txt")),
];

#[test]
fn committed_artifacts_render_to_the_golden_bytes() {
    let root = env!("CARGO_MANIFEST_DIR");
    let mut inputs: Vec<String> = std::fs::read_dir(Path::new(root).join("results"))
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".jsonl"))
        .map(|name| format!("results/{name}"))
        .collect();
    inputs.sort_unstable();
    assert_eq!(inputs.len(), 10, "{inputs:?}");
    for (format, golden) in GOLDENS {
        let out = Command::new(env!("CARGO_BIN_EXE_synran"))
            .current_dir(root)
            .args(["report", "--format", format])
            .args(&inputs)
            .output()
            .expect("spawn synran");
        assert!(out.status.success(), "{out:?}");
        let rendered = String::from_utf8(out.stdout).unwrap();
        for (got, want) in rendered.lines().zip(golden.lines()) {
            assert_eq!(got, want, "--format {format} diverged from the golden");
        }
        assert_eq!(rendered, golden, "--format {format}");
    }
}

#[test]
fn report_without_inputs_is_an_error() {
    let out = synran(&["report"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("report"), "usage hint expected, got:\n{err}");
}
