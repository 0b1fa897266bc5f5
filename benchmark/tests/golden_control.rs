//! The golden check can fail: a corrupted digest makes `run` exit nonzero
//! and fail every operation, while the committed digest passes.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory of this test's own, emptied first.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the smoke `lower_bound` workload against the golden files in
/// `golden`, from `cwd`. Returns the exit code and standard output.
fn smoke_run(golden: &Path, cwd: &Path) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args([
            "run",
            "--smoke",
            "--workload",
            "lower_bound",
            "--golden-dir",
        ])
        .arg(golden)
        .current_dir(cwd)
        .output()
        .unwrap();
    (
        out.status.code().unwrap(),
        String::from_utf8(out.stdout).unwrap(),
    )
}

#[test]
fn corrupted_golden_fails_every_operation() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let cwd = scratch("golden-control");

    let (code, stdout) = smoke_run(&committed, &cwd);
    assert_eq!(code, 0, "committed golden must pass:\n{stdout}");
    assert!(stdout.contains("golden=match"), "{stdout}");
    assert!(stdout.contains("\nfail_frac 0 ratio\n"), "{stdout}");

    // Flip the last hex digit of the smoke digest.
    let text = std::fs::read_to_string(committed.join("lower_bound.txt")).unwrap();
    let corrupted: String = text
        .lines()
        .map(|line| {
            if line.starts_with("smoke 3 ") {
                let (head, last) = line.split_at(line.len() - 1);
                let flipped = if last == "0" { "1" } else { "0" };
                format!("{head}{flipped}\n")
            } else {
                format!("{line}\n")
            }
        })
        .collect();
    assert_ne!(corrupted, text, "the smoke line must exist");
    let bad = scratch("golden-corrupt");
    std::fs::write(bad.join("lower_bound.txt"), corrupted).unwrap();

    let (code, stdout) = smoke_run(&bad, &cwd);
    assert_eq!(code, 1, "corrupted golden must fail:\n{stdout}");
    assert!(stdout.contains("golden=MISMATCH"), "{stdout}");
    assert!(stdout.contains("\nfail_frac 1 ratio\n"), "{stdout}");
    let json = stdout.lines().last().unwrap();
    assert!(
        json.starts_with("{\"correct\": false, \"attempted\": 20, \"failed\": 20,"),
        "{json}"
    );

    std::fs::remove_dir_all(&cwd).unwrap();
    std::fs::remove_dir_all(&bad).unwrap();
}
