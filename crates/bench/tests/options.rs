//! Every experiment binary rejects a bad option the same way: exit 1, an
//! `error:` line on stderr, and nothing on stdout. The kinds are an
//! option the binary does not take, a malformed integer, a zero count the
//! experiment cannot run with, and a size past what it can run.

use std::path::PathBuf;
use std::process::Command;

/// Each binary with its bad invocations.
const CASES: [(&str, &str, &[&[&str]]); 10] = [
    (
        "e1_coin_control",
        env!("CARGO_BIN_EXE_e1_coin_control"),
        &[
            &["--bogus", "1"],
            &["--samples", "abc"],
            &["--samples", "0"],
        ],
    ),
    (
        "e2_blowup",
        env!("CARGO_BIN_EXE_e2_blowup"),
        &[
            &["--bogus", "1"],
            &["--max-dim", "abc"],
            &["--max-dim", "24"],
        ],
    ),
    (
        "e3_lower_bound",
        env!("CARGO_BIN_EXE_e3_lower_bound"),
        &[
            &["--bogus", "1"],
            &["--runs", "abc"],
            &["--runs", "0"],
            &["--samples", "0"],
        ],
    ),
    (
        "e4_synran_upper",
        env!("CARGO_BIN_EXE_e4_synran_upper"),
        &[&["--bogus", "1"], &["--runs", "abc"], &["--runs", "0"]],
    ),
    (
        "e5_protocol_comparison",
        env!("CARGO_BIN_EXE_e5_protocol_comparison"),
        &[&["--bogus", "1"], &["--runs", "abc"], &["--runs", "0"]],
    ),
    (
        "e6_large_deviation",
        env!("CARGO_BIN_EXE_e6_large_deviation"),
        &[&["--bogus", "1"], &["--trials", "abc"], &["--trials", "0"]],
    ),
    (
        "e7_t_sweep",
        env!("CARGO_BIN_EXE_e7_t_sweep"),
        &[&["--bogus", "1"], &["--runs", "abc"], &["--runs", "0"]],
    ),
    (
        "e8_budget_ablation",
        env!("CARGO_BIN_EXE_e8_budget_ablation"),
        &[&["--bogus", "1"], &["--runs", "abc"], &["--runs", "0"]],
    ),
    (
        "e9_adaptivity",
        env!("CARGO_BIN_EXE_e9_adaptivity"),
        &[&["--bogus", "1"], &["--runs", "abc"], &["--runs", "0"]],
    ),
    (
        "e10_threshold_ablation",
        env!("CARGO_BIN_EXE_e10_threshold_ablation"),
        &[&["--bogus", "1"], &["--runs", "abc"], &["--runs", "0"]],
    ),
];

/// A fresh scratch dir for one test (tests run in parallel threads).
fn tmpdir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "synran-bench-options-{test}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn bad_options_fail_cleanly_in_every_binary() {
    let dir = tmpdir("bad");
    for (name, exe, bad) in CASES {
        for args in bad {
            let out = Command::new(exe)
                .args(*args)
                .current_dir(&dir)
                .output()
                .expect("spawn experiment binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} {args:?} printed to stdout");
            assert!(stderr.starts_with("error:"), "{name} {args:?}: {stderr}");
        }
    }
    // A failed run writes no artifact either.
    assert!(
        !dir.join("results").exists(),
        "a rejected run wrote results/"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn range_errors_name_the_option() {
    let dir = tmpdir("range");
    for (exe, args, message) in [
        (
            env!("CARGO_BIN_EXE_e2_blowup"),
            ["--max-dim", "24"],
            "error: --max-dim must be at most 20",
        ),
        (
            env!("CARGO_BIN_EXE_e3_lower_bound"),
            ["--samples", "0"],
            "error: --samples must be at least 1",
        ),
        (
            env!("CARGO_BIN_EXE_e3_lower_bound"),
            ["--runs", "0"],
            "error: --runs must be at least 1",
        ),
    ] {
        let out = Command::new(exe)
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn experiment binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
