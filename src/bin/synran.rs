//! The `synran` command-line tool: run protocols against adversaries
//! without writing code.
//!
//! ```text
//! synran run   --protocol synran --adversary balancer --n 64 --t 63 --seed 7
//! synran batch --protocol leader --adversary oblivious --n 65 --t 32 --runs 25
//! synran campaign run campaigns/e3.campaign
//! synran list
//! ```
//!
//! `run` and `batch` turn their flags into one campaign [`Cell`] and
//! execute it through the name registry (`synran::lab::registry`), the
//! same path campaigns take.

use std::error::Error;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use synran::lab::cli::{run_buffered, Options};
use synran::lab::registry::{ADVERSARIES, PROTOCOLS};
use synran::lab::{
    load_cache, presets, run_cell_batch, run_cell_once, scan_journal, write_telemetry_jsonl,
    CampaignSpec, Cell, CellCache, CellResult, Engine, Journal, Report, ReportFormat,
    StderrProgress,
};
use synran::sim::{ProcessId, ProcessStatus, Round, RunReport, Telemetry, TelemetryMode};

const USAGE: &str = "\
synran — randomized synchronous consensus vs adaptive fail-stop adversaries
(Bar-Joseph & Ben-Or, PODC 1998)

USAGE:
  synran run   [OPTIONS]    run one execution and print its verdict
  synran batch [OPTIONS]    run many seeded executions and print statistics
  synran campaign run <spec>     run a declarative campaign (journalled,
                 resumable; cached cells are skipped automatically)
  synran campaign resume <spec>  alias of run — resuming is the default
  synran campaign status <spec>  show percent-complete and journal health,
                 no execution
  synran campaign list           list the specs under campaigns/
  synran report [OPTIONS] <file>...  render telemetry/journal JSONL artifacts
                 as deterministic tables, JSON, or folded stacks
  synran list               list protocols, adversaries, and experiments

CAMPAIGN OPTIONS:
  --threads <int>      worker threads (0 = all cores; results identical
                       for every value)                      (default 0)
  --results-dir <dir>  journal directory                     (default results)
  --fresh              truncate the journal first (campaign run only)
  --import <path>      merge another campaign's journal as a read-only
                       result cache (cross-campaign dedup)
  --progress <int>     heartbeat to stderr every N completed cells
                       (observe-only; results identical with it on or off)
  --dir <dir>          directory scanned by campaign list    (default campaigns)
  status takes only --results-dir; list takes --dir and --results-dir.
  Each cell is journalled as soon as its last run lands, and at most one
  window of threads × 4 cells is in flight, so even a kill -9 loses at
  most that window.

REPORT OPTIONS:
  --format table | json | folded   rendering                 (default table)
                 folded emits `a;b;c self_ns` stack lines for flamegraph
                 tooling (spans-mode telemetry only)
  --check        verify stream integrity instead of rendering: exit nonzero
                 on malformed or truncated lines
  --threads <int> accepted and ignored: rendering is single-threaded
  Files ending in .journal.jsonl parse as campaign journals; everything
  else parses as telemetry JSONL. Output is a pure function of the input
  bytes — byte-identical on every re-run at any thread count.

OPTIONS (run and batch):
  --protocol  <name>  protocol                              (default synran)
  --adversary <name>  adversary; `synran list` shows the names and which
                 protocols each adversary attacks           (default passive)
  --n    <int>   system size                                (default 32)
  --t    <int>   fault budget                               (default n-1; leader: (n-1)/2)
  --ones <int>   processes with input 1                     (default n/2)
  --seed <int>   master seed; `run --seed S` executes the first run that
                 `batch --seed S` counts                    (default 1)
  --runs <int>   batch size (batch only)                    (default 20)
  --threads <int> worker threads (batch only; 0 = all cores, 1 = serial;
                 results are identical for every value)     (default 0)
  --trace        print each round's kills, decisions and halts (run only)
  --telemetry off | counters | spans                        (default off;
                 counters if --telemetry-out is given)
  --telemetry-out <path>  write the run's telemetry as JSONL (one event per
                 line). Telemetry is observe-only: results are identical
                 with it on or off.

Every command rejects an option it does not take.";

/// Parses `args` for `command` (see [`Options::parse`]); an error names
/// the command.
fn options(
    command: &str,
    args: &[String],
    values: &[&str],
    flags: &[&str],
    words: usize,
) -> Result<Options, String> {
    Options::parse(args.iter().cloned(), values, flags, words)
        .map_err(|e| format!("{e} for `{command}`"))
}

/// The options of `run` (the cell's, plus `--trace`) or `batch` (the
/// cell's, plus `--runs` and `--threads`).
fn cell_options(cmd: &str, args: &[String]) -> Result<Options, String> {
    let mut values = vec![
        "protocol",
        "adversary",
        "n",
        "t",
        "ones",
        "seed",
        "telemetry",
        "telemetry-out",
    ];
    if cmd == "run" {
        return options(cmd, args, &values, &["trace"], 0);
    }
    values.extend(["runs", "threads"]);
    options(cmd, args, &values, &[], 0)
}

/// The one cell `run` and `batch` execute: their flags over the CLI's
/// defaults (n = 32, t = n − 1, ones = n/2, seed 1, 20 runs, 500 000
/// rounds, adversary knobs at their defaults).
fn cli_cell(opts: &Options) -> Result<Cell, String> {
    let protocol = opts.get("protocol").unwrap_or("synran");
    let adversary = opts.get("adversary").unwrap_or("passive");
    let mut cell = Cell::new(protocol, adversary, opts.number("n")?.unwrap_or(32));
    if protocol == "leader" {
        cell.t /= 2; // the leader protocol tolerates only t < n/2
    }
    cell.t = opts.number("t")?.unwrap_or(cell.t);
    cell.ones = opts.number("ones")?.unwrap_or(cell.ones);
    cell.runs = opts.number("runs")?.unwrap_or(20);
    cell.seed = opts.number("seed")?.unwrap_or(1);
    cell.max_rounds = 500_000;
    Ok(cell)
}

/// `--telemetry` and `--telemetry-out`; an output path without an
/// explicit mode means "record counters".
fn telemetry_options(opts: &Options) -> Result<(TelemetryMode, Option<&str>), String> {
    let out = opts.get("telemetry-out");
    let mode = match opts.get("telemetry") {
        Some(v) => v.parse().map_err(|e| format!("--telemetry: {e}"))?,
        None if out.is_some() => TelemetryMode::Counters,
        None => TelemetryMode::Off,
    };
    Ok((mode, out))
}

/// `run --trace`: the report round by round. Each round starts, then
/// lists the processes killed in it, then those that first decided or
/// halted in it, each in id order.
fn write_trace(report: &RunReport, out: &mut dyn Write) -> std::io::Result<()> {
    let statuses = report.statuses();
    for round in (1..=report.rounds()).map(Round::new) {
        writeln!(out, "  {round}: started")?;
        for pid in ProcessId::all(statuses.len()) {
            if statuses[pid.index()] == ProcessStatus::Failed(round) {
                writeln!(out, "  {round}: {pid} killed")?;
            }
        }
        for pid in ProcessId::all(statuses.len()) {
            if let Some((decided, value)) = report.decided_at(pid) {
                if decided == round {
                    writeln!(out, "  {round}: {pid} decided {value}")?;
                }
            }
            if statuses[pid.index()] == ProcessStatus::Halted(round) {
                writeln!(out, "  {round}: {pid} halted")?;
            }
        }
    }
    Ok(())
}

/// `synran run` (run 0 of the cell, the first execution its batch counts)
/// and `synran batch` (the cell's whole batch, unjournalled, on the
/// campaign engine's path).
fn cell_cmd(cmd: &str, args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let opts = cell_options(cmd, args)?;
    let cell = cli_cell(&opts)?;
    let (mode, telemetry_out) = telemetry_options(&opts)?;
    let telemetry = Telemetry::new(mode);
    if cmd == "run" {
        let (name, verdict) = run_cell_once(&cell, 0, &telemetry)?;
        writeln!(out, "protocol    : {name}")?;
        writeln!(out, "adversary   : {}", cell.adversary)?;
        writeln!(out, "n / t / ones: {} / {} / {}", cell.n, cell.t, cell.ones)?;
        writeln!(out, "rounds      : {}", verdict.rounds())?;
        writeln!(out, "kills       : {}", verdict.report().failed_count())?;
        writeln!(
            out,
            "decision    : {:?}",
            verdict.report().unanimous_decision()
        )?;
        writeln!(
            out,
            "correct     : {} (agreement {}, validity {}, termination {})",
            verdict.is_correct(),
            verdict.agreement(),
            verdict.validity(),
            verdict.termination()
        )?;
        for v in verdict.violations() {
            writeln!(out, "violation   : {v}")?;
        }
        if opts.flag("trace") {
            writeln!(out, "\ntrace:")?;
            write_trace(verdict.report(), out)?;
        }
    } else {
        let threads = opts.number("threads")?.unwrap_or(0);
        let (name, outcome) = run_cell_batch(&cell, threads, &telemetry)?;
        let summary = CellResult::from(&outcome);
        writeln!(out, "protocol  : {name}")?;
        writeln!(out, "adversary : {}", cell.adversary)?;
        writeln!(out, "n / t     : {} / {}", cell.n, cell.t)?;
        writeln!(out, "runs      : {}", cell.runs)?;
        writeln!(
            out,
            "rounds    : mean {:.1}, max {:?}",
            summary.mean_rounds(),
            summary.max_rounds()
        )?;
        writeln!(out, "kills     : mean {:.1}", summary.mean_kills())?;
        let correct = cell.runs - outcome.incorrect().len() - outcome.timeouts();
        writeln!(out, "correct   : {correct}/{} runs", cell.runs)?;
        for (seed, violations) in outcome.incorrect() {
            writeln!(out, "  seed {seed}: {violations:?}")?;
        }
    }
    if let Some(path) = telemetry_out {
        let meta = [
            ("command", cmd.to_string()),
            ("protocol", cell.protocol.clone()),
            ("adversary", cell.adversary.clone()),
            ("n", cell.n.to_string()),
            ("t", cell.t.to_string()),
            ("seed", cell.seed.to_string()),
            ("mode", mode.to_string()),
        ];
        write_telemetry_jsonl(Path::new(path), &meta, &telemetry, &[], cell.n)
            .map_err(|e| format!("--telemetry-out {path}: {e}"))?;
        writeln!(out, "telemetry   : {path} ({mode})")?;
    }
    Ok(())
}

/// `synran campaign <run|resume|status|list>` — the declarative campaign
/// engine (`synran::lab`). Rendered tables go to stdout; engine
/// bookkeeping (cache hits, journal paths) goes to stderr so campaign
/// output stays byte-identical to the experiment binaries'.
fn campaign_cmd(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let (sub, opts) = campaign_options(args)?;
    let spec_path = opts.words().first().map(String::as_str);
    match sub {
        "status" => campaign_status(spec_path, &opts, out),
        "list" => campaign_list(&opts, out),
        _ => campaign_run(spec_path, &opts, sub == "run", out),
    }
}

/// The campaign command and its options: `run`, `resume` and `status`
/// take a spec path, `list` no word.
fn campaign_options(args: &[String]) -> Result<(&str, Options), String> {
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or("campaign expects a command: run, resume, status, or list")?;
    let (values, flags, words): (&[&str], &[&str], usize) = match sub {
        "run" | "resume" => (
            &["threads", "results-dir", "import", "progress"],
            &["fresh"],
            1,
        ),
        "status" => (&["results-dir"], &[], 1),
        "list" => (&["dir", "results-dir"], &[], 0),
        other => {
            return Err(format!(
                "unknown campaign command {other:?} (run, resume, status, list)"
            ))
        }
    };
    let opts = options(&format!("campaign {sub}"), &args[1..], values, flags, words)?;
    Ok((sub, opts))
}

fn journal_path(opts: &Options, campaign: &str) -> std::path::PathBuf {
    let dir = opts.get("results-dir").unwrap_or("results");
    Path::new(dir).join(format!("{campaign}.journal.jsonl"))
}

fn campaign_run(
    spec_path: Option<&str>,
    opts: &Options,
    allow_fresh: bool,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    // The numbers first: `--progress` takes the next word even when it is
    // the spec path, which must then fail as a non-integer, not as a
    // missing spec.
    let threads = opts.number("threads")?.unwrap_or(0);
    let progress_every: Option<usize> = opts.number("progress")?;
    let path = spec_path.ok_or("campaign run expects a spec path (e.g. campaigns/e3.campaign)")?;
    let spec = CampaignSpec::parse_file(Path::new(path))?;
    let cells = presets::campaign_cells(&spec)?;
    let journal_path = journal_path(opts, spec.name());
    let fresh = opts.flag("fresh");
    if fresh && !allow_fresh {
        return Err("--fresh discards the journal; use `campaign run --fresh`".into());
    }
    let (mut journal, cache) = if fresh {
        let journal = Journal::create_fresh(&journal_path)?;
        (journal, CellCache::new())
    } else {
        Journal::open(&journal_path)?
    };
    journal.append_header(spec.name(), cells.len(), &spec.content_hash())?;
    let telemetry = Telemetry::new(spec.telemetry_mode()?);
    let warm = cache.len();
    let mut engine = Engine::new(threads, telemetry).with_journal(journal, cache);
    // Opt-in heartbeats to stderr every `--progress N` cells.
    // Observe-only: stdout and the journal are byte-identical with this on
    // or off.
    if let Some(every) = progress_every {
        engine = engine.with_progress(every, Box::new(StderrProgress));
    }
    if let Some(import) = opts.get("import") {
        let merged = engine.import_cache(Path::new(import))?;
        eprintln!("imported {merged} cached cells from {import}");
    }
    if warm > 0 {
        eprintln!(
            "resuming campaign {}: {warm} journalled cells already cached",
            spec.name()
        );
    }
    presets::run_campaign(&spec, &mut engine, out)?;
    eprintln!(
        "campaign {}: {} cells executed, {} cache hits → {}",
        spec.name(),
        engine.executed(),
        engine.cache_hits(),
        journal_path.display()
    );
    Ok(())
}

fn campaign_status(
    spec_path: Option<&str>,
    opts: &Options,
    out: &mut dyn Write,
) -> Result<(), Box<dyn Error>> {
    let path = spec_path.ok_or("campaign status expects a spec path")?;
    let spec = CampaignSpec::parse_file(Path::new(path))?;
    let cells = presets::campaign_cells(&spec)?;
    let journal_path = journal_path(opts, spec.name());
    let scan = scan_journal(&journal_path)?;
    // A cell counts as completed only if its journalled result is
    // *complete* (the cell-schema invariant), so half-written lines
    // dropped by truncation recovery — or a corrupt-but-parseable result
    // — never inflate the percentage.
    let completed = cells
        .iter()
        .filter(|c| {
            scan.cache.get(&c.content_hash()).is_some_and(|r| {
                r.rounds.len() + r.timeouts as usize == c.runs && r.kills.len() == r.rounds.len()
            })
        })
        .count();
    #[allow(clippy::cast_precision_loss)]
    let percent = if cells.is_empty() {
        100.0
    } else {
        completed as f64 * 100.0 / cells.len() as f64
    };
    writeln!(out, "campaign   : {}", spec.name())?;
    writeln!(out, "experiment : {}", spec.experiment())?;
    writeln!(out, "spec hash  : {}", spec.content_hash())?;
    writeln!(
        out,
        "progress   : {percent:.1}% complete ({completed}/{} cells, {} pending)",
        cells.len(),
        cells.len() - completed
    )?;
    let dropped = if scan.skipped > 0 {
        format!(", {} lines dropped by truncation recovery", scan.skipped)
    } else {
        String::new()
    };
    writeln!(
        out,
        "journal    : {} ({} entries{dropped})",
        journal_path.display(),
        scan.entries
    )?;
    writeln!(out, "last write : {}", last_write_age(&journal_path))?;
    Ok(())
}

/// Age of the journal's last durable write (its mtime) — the campaign's
/// "last heartbeat" from the outside.
fn last_write_age(path: &Path) -> String {
    let Ok(modified) = std::fs::metadata(path).and_then(|m| m.modified()) else {
        return "never (no journal yet)".to_string();
    };
    match modified.elapsed() {
        Ok(age) => {
            let secs = age.as_secs();
            if secs >= 3600 {
                format!("{}h {}m ago", secs / 3600, (secs % 3600) / 60)
            } else if secs >= 60 {
                format!("{}m {}s ago", secs / 60, secs % 60)
            } else {
                format!("{secs}s ago")
            }
        }
        Err(_) => "in the future (clock skew)".to_string(),
    }
}

/// `synran report` — deterministic renderings of telemetry and journal
/// artifacts (`synran::lab::Report`).
fn report_cmd(args: &[String], out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let opts = options(
        "report",
        args,
        &["format", "threads"],
        &["check"],
        usize::MAX,
    )?;
    let paths = opts.words();
    if paths.is_empty() {
        return Err(
            "report expects at least one JSONL artifact (results/*.telemetry.jsonl or \
             results/*.journal.jsonl)"
                .into(),
        );
    }
    let mut report = Report::new();
    for path in paths {
        report
            .load(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.flag("check") {
        return match report.check() {
            Ok(text) => {
                write!(out, "{text}")?;
                writeln!(out, "check: ok")?;
                Ok(())
            }
            Err(text) => Err(format!("stream integrity check failed\n{text}").into()),
        };
    }
    let format = opts
        .get("format")
        .map_or(Ok(ReportFormat::Table), ReportFormat::parse)?;
    write!(out, "{}", report.render(format))?;
    Ok(())
}

fn campaign_list(opts: &Options, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let dir = opts.get("dir").unwrap_or("campaigns");
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            writeln!(out, "no campaign directory at {dir}/")?;
            return Ok(());
        }
        Err(e) => return Err(format!("{dir}: {e}").into()),
    };
    let mut specs: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        writeln!(out, "no .campaign specs under {dir}/")?;
        return Ok(());
    }
    for path in specs {
        match CampaignSpec::parse_file(&path)
            .and_then(|spec| Ok((presets::campaign_cells(&spec)?, spec)))
        {
            Ok((cells, spec)) => {
                let cache = load_cache(&journal_path(opts, spec.name()))?;
                let cached = cells
                    .iter()
                    .filter(|c| cache.contains_key(&c.content_hash()))
                    .count();
                writeln!(
                    out,
                    "{:<16} {:<6} {:>4} cells ({cached} cached)  {}",
                    spec.name(),
                    spec.experiment(),
                    cells.len(),
                    path.display()
                )?;
            }
            Err(e) => writeln!(out, "{:<16} INVALID: {e}", path.display())?,
        }
    }
    Ok(())
}

/// `synran list`: the registry's name table, then the experiments.
fn list(out: &mut dyn Write) -> std::io::Result<()> {
    writeln!(out, "protocols:")?;
    for p in PROTOCOLS {
        writeln!(out, "  {:<12} {}", p.name, p.about)?;
    }
    writeln!(out)?;
    writeln!(out, "adversaries:   attacks")?;
    for a in ADVERSARIES {
        writeln!(out, "  {:<12} {:<18} {}", a.name, a.targets(), a.about)?;
    }
    write!(
        out,
        "
experiments (in crates/bench): e1_coin_control e2_blowup e3_lower_bound
            e4_synran_upper e5_protocol_comparison e6_large_deviation
            e7_t_sweep e8_budget_ablation e9_adaptivity e10_threshold_ablation
            → cargo run --release -p synran-bench --bin <name>

campaigns : declarative sweeps under campaigns/ (E3, E4, E6, E7 shipped)
            → synran campaign run campaigns/e3.campaign
"
    )
}

/// Every command writes through [`run_buffered`]: its output reaches
/// stdout only once it succeeds, and a failure — of the command or of the
/// write to stdout — is an `error:` line and exit 1.
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first().filter(|(cmd, _)| *cmd != "--help") else {
        return run_buffered(|out| Ok(writeln!(out, "{USAGE}")?));
    };
    run_buffered(|out| match cmd.as_str() {
        "list" => {
            options(cmd, rest, &[], &[], 0)?;
            Ok(list(out)?)
        }
        "campaign" => campaign_cmd(rest, out),
        "report" => report_cmd(rest, out),
        "run" | "batch" => cell_cmd(cmd, rest, out),
        _ => Err(format!("unknown command {cmd:?}\n\n{USAGE}").into()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn cell_from(args: &[&str]) -> Result<Cell, String> {
        cli_cell(&cell_options("batch", &owned(args))?)
    }

    #[test]
    fn parse_splits_command_values_and_flags() {
        let opts = cell_options("run", &owned(&["--n", "16", "--trace", "--seed", "9"])).unwrap();
        assert_eq!(opts.get("n"), Some("16"));
        assert_eq!(opts.get("seed"), Some("9"));
        assert!(opts.flag("trace"));
        let err = cell_options("run", &owned(&["--runs", "2"])).unwrap_err();
        assert_eq!(err, "unknown option --runs for `run`");
        let err = cell_options("batch", &owned(&["--trace"])).unwrap_err();
        assert_eq!(err, "unknown option --trace for `batch`");
    }

    #[test]
    fn parse_keeps_every_positional_in_order() {
        let args = owned(&["run", "campaigns/e3.campaign", "--threads", "2"]);
        let (sub, opts) = campaign_options(&args).unwrap();
        assert_eq!(sub, "run");
        assert_eq!(opts.words(), ["campaigns/e3.campaign"]);
        assert_eq!(opts.get("threads"), Some("2"));
        let err = campaign_options(&owned(&["status", "spec", "extra"])).unwrap_err();
        assert_eq!(err, "unexpected argument \"extra\" for `campaign status`");
    }

    /// `campaign run` declares `--fresh` a bare flag, so the spec path
    /// after it stays a positional, and `--progress` a value option.
    #[test]
    fn bare_flags_never_take_a_value() {
        let args = owned(&["run", "--fresh", "e4.campaign", "--progress", "5"]);
        let (_, opts) = campaign_options(&args).unwrap();
        assert_eq!(opts.words(), ["e4.campaign"]);
        assert!(opts.flag("fresh"));
        assert_eq!(opts.get("progress"), Some("5"));
    }

    #[test]
    fn progress_always_takes_a_value() {
        let args = owned(&["run", "--progress", "campaigns/e3.campaign"]);
        let (_, opts) = campaign_options(&args).unwrap();
        assert!(opts.words().is_empty());
        let err = campaign_run(None, &opts, true, &mut Vec::new())
            .unwrap_err()
            .to_string();
        assert_eq!(err, "--progress: not an integer: \"campaigns/e3.campaign\"");
        let err = campaign_options(&owned(&["run", "spec", "--progress"])).unwrap_err();
        assert_eq!(err, "--progress expects a value for `campaign run`");
    }

    #[test]
    fn defaults_depend_on_protocol() {
        let c = cell_from(&["--n", "32"]).unwrap();
        assert_eq!(
            (c.protocol.as_str(), c.adversary.as_str()),
            ("synran", "passive")
        );
        assert_eq!(c.t, 31, "default t = n − 1");
        assert_eq!((c.ones, c.seed, c.runs, c.max_rounds), (16, 1, 20, 500_000));
        assert_eq!((c.cap, c.samples, c.horizon, c.rate), (0, 0, 0, 0));
        let c = cell_from(&["--protocol", "leader", "--n", "33"]).unwrap();
        assert_eq!(c.t, 16, "leader defaults to t = (n−1)/2");
    }

    #[test]
    fn bad_numbers_are_reported() {
        let err = cell_from(&["--n", "many"]).unwrap_err();
        assert!(err.contains("--n"), "{err}");
        let err = cell_from(&["--seed", "x"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
    }

    #[test]
    fn inputs_and_config_reflect_options() {
        let c = cell_from(&["--n", "6", "--ones", "2", "--t", "3", "--runs", "4"]).unwrap();
        assert_eq!((c.n, c.ones, c.t, c.runs), (6, 2, 3, 4));
    }

    #[test]
    fn telemetry_options_parse() {
        let opts = |args: &[&str]| cell_options("run", &owned(args)).unwrap();
        let v = opts(&["--n", "8"]);
        assert_eq!(telemetry_options(&v).unwrap(), (TelemetryMode::Off, None));
        let (mode, _) = telemetry_options(&opts(&["--telemetry", "spans"])).unwrap();
        assert_eq!(mode, TelemetryMode::Spans);
        // An output path alone implies counters.
        let v = opts(&["--telemetry-out", "t.jsonl"]);
        let (mode, out) = telemetry_options(&v).unwrap();
        assert_eq!(mode, TelemetryMode::Counters);
        assert_eq!(out, Some("t.jsonl"));
        // An explicit mode wins over the implied default.
        let v = opts(&["--telemetry", "off", "--telemetry-out", "x.jsonl"]);
        assert_eq!(telemetry_options(&v).unwrap().0, TelemetryMode::Off);
        let err = telemetry_options(&opts(&["--telemetry", "verbose"])).unwrap_err();
        assert!(err.contains("--telemetry"), "{err}");
    }

    #[test]
    fn adversary_protocol_compatibility_is_enforced() {
        // The CLI's cells go through the registry's compatibility matrix.
        for (args, ok) in [
            (&["--adversary", "balancer"][..], true),
            (
                &["--protocol", "flooding", "--adversary", "balancer"],
                false,
            ),
            (&["--protocol", "leader", "--adversary", "hunter"], true),
            (&["--protocol", "leader", "--adversary", "walker"], false),
        ] {
            let cell = cell_from(args).unwrap();
            assert_eq!(synran::lab::validate_cell(&cell).is_ok(), ok, "{args:?}");
        }
    }
}
