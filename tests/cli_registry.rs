//! `synran run` and `synran batch` resolve names through the registry
//! (`synran::lab::registry`): `batch` prints what it printed when the CLI
//! kept its own name table (a committed golden transcript), `run --seed S`
//! is the first execution `batch --seed S` counts, `run --trace` lists
//! that execution's kills, decisions and halts round by round, `run` takes
//! no `--threads`, bad cells,
//! unknown options and stray
//! words fail with an `error:` line instead of a panic, so does a failed
//! write to stdout, a bare flag never takes the next word as its value,
//! and `synran list` is generated from the table.

use std::process::{Command, Output};

use synran::lab::registry::{ADVERSARIES, PROTOCOLS};

/// `synran batch` at default flags for every compatible pair, in table
/// order, captured from the binary that still had its own name table.
const GOLDEN: &str = include_str!("golden/cli_batch.txt");

fn synran(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synran"))
        .args(args)
        .output()
        .expect("spawn synran")
}

fn stdout(args: &[&str]) -> String {
    let out = synran(args);
    assert!(out.status.success(), "synran {args:?}: {out:?}");
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn batch_matches_the_golden_transcript_for_every_compatible_pair() {
    let mut transcript = String::new();
    let mut pairs = 0;
    for p in PROTOCOLS {
        for a in ADVERSARIES.iter().filter(|a| a.can_attack(p.name)) {
            let args = ["batch", "--protocol", p.name, "--adversary", a.name];
            transcript += &format!("$ synran {}\n", args.join(" "));
            transcript += &stdout(&args);
            pairs += 1;
        }
    }
    assert_eq!(pairs, 27);
    for (got, want) in transcript.split("$ ").zip(GOLDEN.split("$ ")) {
        assert_eq!(got, want, "batch output diverged from the golden");
    }
    assert_eq!(transcript, GOLDEN);
    assert!(GOLDEN.contains("correct   : 19/20 runs\n  seed 239346566742703674: [\"agreement: "));
}

/// The value after `label` on the line that starts with it.
fn field<'a>(text: &'a str, label: &str) -> &'a str {
    text.lines()
        .find_map(|line| line.strip_prefix(label))
        .unwrap_or_else(|| panic!("no {label:?} line in {text}"))
        .trim_start_matches([' ', ':'])
}

#[test]
fn run_seed_is_the_first_run_of_batch_seed() {
    for (protocol, adversary, seed) in [
        ("synran", "balancer", "3"),
        ("symmetric", "walker", "7"),
        ("leader", "hunter", "5"),
        ("flooding", "random", "11"),
    ] {
        let common = [
            "--protocol",
            protocol,
            "--adversary",
            adversary,
            "--seed",
            seed,
        ];
        let run = stdout(&[&["run"][..], &common].concat());
        let batch = stdout(&[&["batch", "--runs", "1"][..], &common].concat());
        let (rounds, kills) = (field(&run, "rounds"), field(&run, "kills"));
        assert_eq!(
            field(&batch, "rounds"),
            format!("mean {rounds}.0, max Some({rounds})"),
            "{protocol}/{adversary} seed {seed}"
        );
        assert_eq!(field(&batch, "kills"), format!("mean {kills}.0"));
    }
}

#[test]
fn run_trace_prints_the_runs_event_trace() {
    let args = ["run", "--protocol", "symmetric", "--n", "6", "--seed", "4"];
    let plain = stdout(&args);
    let traced = stdout(&[&args[..], &["--trace"]].concat());
    assert!(!plain.contains("trace:"), "{plain}");
    assert!(plain.starts_with("protocol    : synran-sym\n"), "{plain}");
    // Tracing is observe-only: the verdict lines are unchanged.
    let trace = traced.strip_prefix(plain.as_str()).expect("{traced}");
    assert!(
        trace.starts_with("\ntrace:\n  round 1: started\n"),
        "{trace}"
    );

    // The whole listing of one attacked run: every round starts, then its
    // kills, decisions and halts, each in process-id order.
    let args = ["run", "--adversary", "random", "--n", "8", "--seed", "3"];
    let plain = stdout(&args);
    let traced = stdout(&[&args[..], &["--trace"]].concat());
    let trace = traced.strip_prefix(plain.as_str()).expect("{traced}");
    let mut want = String::from("\ntrace:\n");
    for round in 1..=8 {
        want += &format!("  round {round}: started\n");
        let killed: &[u32] = match round {
            1 => &[2, 3, 5],
            2 => &[0, 1, 7],
            3 => &[4],
            _ => &[],
        };
        for pid in killed {
            want += &format!("  round {round}: P{pid} killed\n");
        }
    }
    want += "  round 8: P6 decided 0\n  round 8: P6 halted\n";
    assert_eq!(trace, want);
    assert_eq!(field(&plain, "rounds"), "8");
    let killed = trace.lines().filter(|l| l.ends_with(" killed")).count();
    assert_eq!(killed.to_string(), field(&plain, "kills"));
}

#[test]
fn bad_cells_and_unknown_options_are_errors_not_panics() {
    for (args, needle) in [
        (
            &["batch", "--n", "4", "--ones", "9"][..],
            "ones = 9 exceeds n = 4",
        ),
        (&["batch", "--runs", "0"], "runs must be at least 1"),
        (&["run", "--n", "0"], "n must be at least 1"),
        (
            &["batch", "--protocol", "leader", "--adversary", "walker"],
            "cannot attack",
        ),
        (&["run", "--protocol", "quantum"], "unknown protocol"),
        (&["batch", "--run", "5"], "unknown option --run for `batch`"),
        (&["batch", "--trace"], "unknown option --trace for `batch`"),
        (
            &["run", "--thread", "2"],
            "unknown option --thread for `run`",
        ),
        (&["run", "--runs", "2"], "unknown option --runs for `run`"),
        (
            &["report", "--bogus", "x.jsonl"],
            "unknown option --bogus for `report`",
        ),
        (&["list", "--all"], "unknown option --all for `list`"),
    ] {
        let out = synran(args);
        assert_eq!(out.status.code(), Some(1), "synran {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "synran {args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "synran {args:?} printed");
    }
}

/// Output goes out in one buffered write once a command succeeds, so a
/// full disk behind stdout is an `error:` line and exit 1, not a panic.
#[cfg(target_os = "linux")]
#[test]
fn a_failed_stdout_write_is_an_error_line() {
    for args in [&["list"][..], &["--help"], &["run", "--n", "4"]] {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("open /dev/full");
        let out = Command::new(env!("CARGO_BIN_EXE_synran"))
            .args(args)
            .stdout(full)
            .output()
            .expect("spawn synran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "synran {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "synran {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "synran {args:?}: {stderr}");
    }
}

/// A single run is serial, so `run` takes no thread count; `batch` does.
#[test]
fn run_takes_no_threads_option() {
    let out = synran(&["run", "--threads", "2"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: unknown option --threads for `run`"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "{out:?}");
    stdout(&["batch", "--runs", "2", "--threads", "2"]);
}

/// `--trace` and `--check` never take a value, so the next word is a
/// positional: `run` and `list` reject it by name, and `report` reads it
/// as its first file.
#[test]
fn bare_flags_never_swallow_the_next_word() {
    let traced = stdout(&["run", "--n", "4", "--trace"]);
    assert_eq!(stdout(&["run", "--trace", "--n", "4"]), traced);
    assert!(traced.contains("\ntrace:\n"), "{traced}");
    for (args, word) in [
        (&["run", "--n", "4", "--trace", "1"][..], "1"),
        (&["run", "--n", "4", "stray"], "stray"),
        (&["batch", "--n", "4", "stray"], "stray"),
        (&["list", "stray"], "stray"),
    ] {
        let out = synran(args);
        assert_eq!(out.status.code(), Some(1), "synran {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let needle = format!("unexpected argument \"{word}\" for `{}`", args[0]);
        assert!(
            stderr.starts_with("error: ") && stderr.contains(&needle),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "synran {args:?} printed");
    }
    let journals = [
        concat!(env!("CARGO_MANIFEST_DIR"), "/results/e3.journal.jsonl"),
        concat!(env!("CARGO_MANIFEST_DIR"), "/results/e4.journal.jsonl"),
    ];
    let check = stdout(&["report", "--check", journals[0], journals[1]]);
    assert_eq!(
        stdout(&["report", journals[0], "--check", journals[1]]),
        check
    );
    assert!(check.ends_with("check: ok\n"), "{check}");
}

#[test]
fn list_is_generated_from_the_registry() {
    let list = stdout(&["list"]);
    for p in PROTOCOLS {
        assert!(
            list.contains(&format!("  {:<12} {}", p.name, p.about)),
            "{list}"
        );
    }
    for a in ADVERSARIES {
        assert!(list.contains(&format!("  {:<12} {:<18} {}", a.name, a.targets(), a.about)));
    }
    assert!(list.contains("E6"), "{list}");
}
