//! End-to-end contract of `synran campaign`: stdout and the journal are
//! byte-identical at every `--threads` value, a campaign whose journal
//! was cut mid-append resumes to the serial run's output, a cell listed
//! twice runs once and renders twice, and an option a subcommand does not
//! accept, a word after the spec path, or a `lower-bound` grid setting
//! only some of its knobs fails the command instead of being silently
//! dropped.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("synran-campaign-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

const SPEC: &str = "\
campaign  = cli
adversary = balancer
runs      = 3
seed      = 5
sweep n   = 8,10,12
sweep t   = half,max
";

fn write_spec(dir: &Path) -> PathBuf {
    let path = dir.join("cli.campaign");
    std::fs::write(&path, SPEC).unwrap();
    path
}

/// Runs `synran campaign <sub> <spec> --results-dir <results> [extra]`.
fn campaign(sub: &str, spec: &Path, results: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_synran"))
        .arg("campaign")
        .arg(sub)
        .arg(spec)
        .arg("--results-dir")
        .arg(results)
        .args(extra)
        .output()
        .expect("spawn synran")
}

fn journal_path(results: &Path) -> PathBuf {
    results.join("cli.journal.jsonl")
}

#[test]
fn threads_1_2_4_are_byte_identical() {
    let dir = tmpdir("threads");
    let spec = write_spec(&dir);
    let serial_results = dir.join("t1");
    let serial = campaign("run", &spec, &serial_results, &["--threads", "1"]);
    assert!(serial.status.success(), "{serial:?}");
    assert!(!serial.stdout.is_empty(), "campaign prints tables");
    let serial_journal = std::fs::read(journal_path(&serial_results)).unwrap();

    for threads in ["2", "4"] {
        let results = dir.join(format!("t{threads}"));
        let out = campaign("run", &spec, &results, &["--threads", threads]);
        assert!(out.status.success(), "--threads {threads}: {out:?}");
        assert_eq!(out.stdout, serial.stdout, "--threads {threads} stdout");
        assert_eq!(
            std::fs::read(journal_path(&results)).unwrap(),
            serial_journal,
            "--threads {threads} journal"
        );
    }
}

/// A 20-cell grid whose last seed repeats the first: at `--threads 1`
/// (waves of four cells) each size's copy of seed 5 sits two waves after
/// its original.
const DUPLICATE_SPEC: &str = "\
campaign  = dups
protocol  = synran
adversary = balancer
runs      = 2
sweep n   = 16,32
sweep seed = 5,6,7,8,9,10,11,12,13,5
";

#[test]
fn duplicate_cells_run_once_and_render_like_their_original() {
    let dir = tmpdir("duplicates");
    let spec = dir.join("dups.campaign");
    std::fs::write(&spec, DUPLICATE_SPEC).unwrap();
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4"] {
        let results = dir.join(format!("t{threads}"));
        let out = campaign("run", &spec, &results, &["--threads", threads]);
        assert!(out.status.success(), "--threads {threads}: {out:?}");
        let journal = std::fs::read_to_string(results.join("dups.journal.jsonl")).unwrap();
        let cell_lines = journal
            .lines()
            .filter(|line| line.contains("\"type\":\"cell\""))
            .count();
        assert_eq!(
            cell_lines, 18,
            "--threads {threads}: one line per distinct cell"
        );
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[1], outputs[0], "--threads 2 stdout");
    assert_eq!(outputs[2], outputs[0], "--threads 4 stdout");

    // The table's rows follow the cell list: n = 16 then n = 32, ten
    // seeds each, the tenth repeating the first.
    let stdout = String::from_utf8(outputs.swap_remove(0)).unwrap();
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("synran "))
        .collect();
    assert_eq!(rows.len(), 20, "{stdout}");
    assert_eq!(rows[9], rows[0], "n = 16 duplicate row");
    assert_eq!(rows[19], rows[10], "n = 32 duplicate row");
}

#[test]
fn truncated_journal_resumes_to_identical_output() {
    let dir = tmpdir("resume");
    let spec = write_spec(&dir);
    let serial_results = dir.join("serial");
    let serial = campaign("run", &spec, &serial_results, &["--threads", "1"]);
    assert!(serial.status.success());

    // Simulate a crash: keep the header and two cell lines, cutting the
    // last kept line in half (a kill mid-append).
    let results = dir.join("crash");
    assert!(campaign("run", &spec, &results, &["--threads", "2"])
        .status
        .success());
    let path = journal_path(&results);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut cut = text.lines().take(3).collect::<Vec<_>>().join("\n");
    cut.truncate(cut.len() - 40);
    std::fs::write(&path, cut).unwrap();

    let resumed = campaign("resume", &spec, &results, &["--threads", "2"]);
    assert!(resumed.status.success(), "{resumed:?}");
    assert_eq!(resumed.stdout, serial.stdout, "resumed stdout diverged");

    // The resumed journal holds a second header and re-appends what the
    // truncation destroyed; parsed through the real loader, its cache
    // must equal the serial journal's exactly.
    let resumed_scan = synran::lab::scan_journal(&path).unwrap();
    let serial_scan = synran::lab::scan_journal(&journal_path(&serial_results)).unwrap();
    assert_eq!(resumed_scan.cache, serial_scan.cache);
    assert_eq!(resumed_scan.rows.len(), serial_scan.rows.len());
}

#[test]
fn unknown_options_are_rejected() {
    let dir = tmpdir("options");
    let spec = write_spec(&dir);
    let results = dir.join("results");
    for (sub, extra, bad) in [
        ("run", &["--procs", "2"][..], "--procs"),
        ("run", &["--thread", "1"][..], "--thread"),
        ("resume", &["--fresh-start"][..], "--fresh-start"),
        ("status", &["--threads", "2"][..], "--threads"),
        ("list", &["--bogus"][..], "--bogus"),
    ] {
        let out = campaign(sub, &spec, &results, extra);
        assert!(!out.status.success(), "campaign {sub} {extra:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown option {bad} ")),
            "campaign {sub} {extra:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "campaign {sub} {extra:?} printed");
    }
    assert!(
        !journal_path(&results).exists(),
        "a rejected run must not start the campaign"
    );

    // The accepted options still work.
    let ok = campaign("run", &spec, &results, &["--threads", "1", "--fresh"]);
    assert!(ok.status.success(), "{ok:?}");
    let status = campaign("status", &spec, &results, &[]);
    assert!(status.status.success(), "{status:?}");
    assert!(String::from_utf8_lossy(&status.stdout).contains("0 pending"));
}

/// A word after the spec path (or any word after `list`) fails the
/// subcommand with an `error:` line instead of being ignored.
#[test]
fn stray_words_are_rejected() {
    let dir = tmpdir("stray");
    let spec = write_spec(&dir);
    let results = dir.join("results");
    for sub in ["run", "resume", "status"] {
        let out = campaign(sub, &spec, &results, &["extra"]);
        assert!(!out.status.success(), "campaign {sub}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "unexpected argument \"extra\" for `campaign {sub}`"
            )),
            "campaign {sub}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "campaign {sub} rendered: {out:?}");
    }
    assert!(
        !journal_path(&results).exists(),
        "a rejected run wrote a journal"
    );
    let list = Command::new(env!("CARGO_BIN_EXE_synran"))
        .args(["campaign", "list", "stray", "--dir"])
        .arg(&dir)
        .output()
        .expect("spawn synran");
    assert!(!list.status.success(), "{list:?}");
    assert!(String::from_utf8_lossy(&list.stderr)
        .contains("unexpected argument \"stray\" for `campaign list`"));
}

/// `--fresh` never takes a value: given before the spec path, the path is
/// still the spec, and the run truncates and re-executes every cell.
#[test]
fn fresh_before_the_spec_path_leaves_it_the_spec() {
    let dir = tmpdir("fresh");
    let spec = write_spec(&dir);
    let results = dir.join("results");
    let first = campaign("run", &spec, &results, &["--threads", "1"]);
    assert!(first.status.success(), "{first:?}");
    let journal = std::fs::read(journal_path(&results)).unwrap();
    let fresh = Command::new(env!("CARGO_BIN_EXE_synran"))
        .args(["campaign", "run", "--fresh"])
        .arg(&spec)
        .arg("--results-dir")
        .arg(&results)
        .args(["--threads", "1"])
        .output()
        .expect("spawn synran");
    assert!(fresh.status.success(), "{fresh:?}");
    assert_eq!(fresh.stdout, first.stdout);
    assert_eq!(std::fs::read(journal_path(&results)).unwrap(), journal);
    let stderr = String::from_utf8_lossy(&fresh.stderr);
    assert!(
        !stderr.contains("resuming"),
        "--fresh re-ran cached cells: {stderr}"
    );
}

/// A `lower-bound` grid that sets only `samples` used to run with cap 0
/// and silently play its defaults; now the spec fails, naming the unset
/// knobs.
#[test]
fn partial_lower_bound_knobs_are_rejected() {
    let dir = tmpdir("knobs");
    let spec = dir.join("knobs.campaign");
    std::fs::write(
        &spec,
        "campaign = knobs\nadversary = lower-bound\nruns = 1\nsamples = 3\nsweep n = 8,10\n",
    )
    .unwrap();
    let out = campaign("run", &spec, &dir.join("results"), &[]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unset: cap, horizon"), "{stderr}");
    assert!(out.stdout.is_empty(), "a rejected grid must not render");

    std::fs::write(
        &spec,
        "campaign = knobs\nadversary = lower-bound\nruns = 1\ncap = 2\nsamples = 2\n\
         horizon = 8\nsweep n = 8,10\n",
    )
    .unwrap();
    let out = campaign("run", &spec, &dir.join("results"), &["--fresh"]);
    assert!(out.status.success(), "all three knobs set: {out:?}");
}
