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

use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;

use synran::lab::registry::{ADVERSARIES, PROTOCOLS};
use synran::lab::{
    load_cache, presets, run_cell_batch, run_cell_once, scan_journal, write_telemetry_jsonl,
    CampaignSpec, Cell, CellCache, CellResult, Engine, Journal, Report, ReportFormat,
    StderrProgress,
};
use synran::sim::{Telemetry, TelemetryMode};

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
  --trace        print the event trace (run only)
  --telemetry off | counters | spans                        (default off;
                 counters if --telemetry-out is given)
  --telemetry-out <path>  write the run's telemetry as JSONL (one event per
                 line). Telemetry is observe-only: results are identical
                 with it on or off.

Every command rejects an option it does not take.";

type Parsed = (Vec<String>, HashMap<String, String>, Vec<String>);

/// The options that never take a value: the word after `--trace`,
/// `--fresh` or `--check` is a positional (or stray), never theirs.
const BARE_FLAGS: [&str; 3] = ["trace", "fresh", "check"];

/// Splits an argument list into positionals (command words, spec paths),
/// `--key value` pairs, and bare `--flag`s.
fn parse(args: &[String]) -> Parsed {
    let mut positionals = Vec::new();
    let mut values = HashMap::new();
    let mut flags = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            match it.peek() {
                Some(v) if !v.starts_with("--") && !BARE_FLAGS.contains(&key) => {
                    values.insert(key.to_string(), it.next().expect("peeked").clone());
                }
                _ => flags.push(key.to_string()),
            }
        } else {
            positionals.push(a.clone());
        }
    }
    (positionals, values, flags)
}

/// The integer option `--key`, or `default` when it is absent.
fn number<T: FromStr>(
    values: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    values.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("--{key}: not an integer: {v}"))
    })
}

/// The one cell `run` and `batch` execute: their flags over the CLI's
/// defaults (n = 32, t = n − 1, ones = n/2, seed 1, 20 runs, 500 000
/// rounds, adversary knobs at their defaults).
fn cli_cell(values: &HashMap<String, String>) -> Result<Cell, String> {
    let protocol = values.get("protocol").map_or("synran", String::as_str);
    let adversary = values.get("adversary").map_or("passive", String::as_str);
    let mut cell = Cell::new(protocol, adversary, number(values, "n", 32)?);
    if protocol == "leader" {
        cell.t /= 2; // the leader protocol tolerates only t < n/2
    }
    cell.t = number(values, "t", cell.t)?;
    cell.ones = number(values, "ones", cell.ones)?;
    cell.runs = number(values, "runs", 20)?;
    cell.seed = number(values, "seed", 1)?;
    cell.max_rounds = 500_000;
    Ok(cell)
}

/// `--telemetry` and `--telemetry-out`; an output path without an
/// explicit mode means "record counters".
fn telemetry_options(
    values: &HashMap<String, String>,
) -> Result<(TelemetryMode, Option<&String>), String> {
    let out = values.get("telemetry-out");
    let mode = match values.get("telemetry") {
        Some(v) => v.parse().map_err(|e| format!("--telemetry: {e}"))?,
        None if out.is_some() => TelemetryMode::Counters,
        None => TelemetryMode::Off,
    };
    Ok((mode, out))
}

/// `synran run` (run 0 of the cell, the first execution its batch counts)
/// and `synran batch` (the cell's whole batch, unjournalled, on the
/// campaign engine's path).
fn cell_cmd(cmd: &str, values: &HashMap<String, String>, flags: &[String]) -> Result<(), String> {
    // The cell's options, plus `trace` for `run` and `runs` and `threads`
    // for `batch`.
    let common = [
        "protocol",
        "adversary",
        "n",
        "t",
        "ones",
        "seed",
        "telemetry",
        "telemetry-out",
    ];
    let own: &[&str] = if cmd == "run" {
        &["trace"]
    } else {
        &["runs", "threads"]
    };
    reject_unknown_options(cmd, &[&common[..], own].concat(), values, flags)?;
    let cell = cli_cell(values)?;
    let (mode, telemetry_out) = telemetry_options(values)?;
    let telemetry = Telemetry::new(mode);
    if cmd == "run" {
        let trace = flags.iter().any(|f| f == "trace");
        let (name, verdict) =
            run_cell_once(&cell, 0, trace, &telemetry).map_err(|e| e.to_string())?;
        println!("protocol    : {name}");
        println!("adversary   : {}", cell.adversary);
        println!("n / t / ones: {} / {} / {}", cell.n, cell.t, cell.ones);
        println!("rounds      : {}", verdict.rounds());
        println!("kills       : {}", verdict.report().metrics().total_kills());
        println!("decision    : {:?}", verdict.report().unanimous_decision());
        println!(
            "correct     : {} (agreement {}, validity {}, termination {})",
            verdict.is_correct(),
            verdict.agreement(),
            verdict.validity(),
            verdict.termination()
        );
        for v in verdict.violations() {
            println!("violation   : {v}");
        }
        if trace {
            println!("\ntrace:");
            for e in verdict.report().trace().events() {
                println!("  {e}");
            }
        }
    } else {
        let threads = number(values, "threads", 0)?;
        let (name, outcome) =
            run_cell_batch(&cell, threads, &telemetry).map_err(|e| e.to_string())?;
        let summary = CellResult::from(&outcome);
        println!("protocol  : {name}");
        println!("adversary : {}", cell.adversary);
        println!("n / t     : {} / {}", cell.n, cell.t);
        println!("runs      : {}", cell.runs);
        println!(
            "rounds    : mean {:.1}, max {:?}",
            summary.mean_rounds(),
            summary.max_rounds()
        );
        println!("kills     : mean {:.1}", summary.mean_kills());
        let correct = cell.runs - outcome.incorrect().len() - outcome.timeouts();
        println!("correct   : {correct}/{} runs", cell.runs);
        for (seed, violations) in outcome.incorrect() {
            println!("  seed {seed}: {violations:?}");
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
        println!("telemetry   : {path} ({mode})");
    }
    Ok(())
}

/// `synran campaign <run|resume|status|list>` — the declarative campaign
/// engine (`synran::lab`). Rendered tables go to stdout; engine
/// bookkeeping (cache hits, journal paths) goes to stderr so campaign
/// output stays byte-identical to the experiment binaries'.
fn campaign_cmd(
    rest: &[String],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), String> {
    let spec_path = rest.get(1).map(String::as_str);
    let sub = rest
        .first()
        .map(String::as_str)
        .ok_or("campaign expects a command: run, resume, status, or list")?;
    // The options (`--key value` or bare `--flag`) each command accepts,
    // and how many words it takes: the command, then a spec path.
    let (accepted, words): (&[&str], usize) = match sub {
        "run" | "resume" => (
            &["threads", "results-dir", "fresh", "import", "progress"],
            2,
        ),
        "status" => (&["results-dir"], 2),
        "list" => (&["dir", "results-dir"], 1),
        other => {
            return Err(format!(
                "unknown campaign command {other:?} (run, resume, status, list)"
            ))
        }
    };
    let command = format!("campaign {sub}");
    reject_unknown_options(&command, accepted, values, flags)?;
    reject_stray_words(&command, rest.get(words..).unwrap_or_default())?;
    match sub {
        "status" => campaign_status(spec_path, values),
        "list" => campaign_list(values),
        _ => campaign_run(spec_path, values, flags, sub == "run"),
    }
}

/// Fails on the first positional word after `command`, which takes none.
fn reject_stray_words(command: &str, rest: &[String]) -> Result<(), String> {
    match rest.first() {
        Some(word) => Err(format!("unexpected argument {word:?} for `{command}`")),
        None => Ok(()),
    }
}

/// Fails on the first option, in name order, that `command` does not
/// accept — a typo or a stale option must never be silently dropped.
fn reject_unknown_options(
    command: &str,
    accepted: &[&str],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), String> {
    let mut given: Vec<&str> = values.keys().chain(flags).map(String::as_str).collect();
    given.sort_unstable();
    match given.into_iter().find(|key| !accepted.contains(key)) {
        Some(key) => Err(format!("unknown option --{key} for `{command}`")),
        None => Ok(()),
    }
}

fn journal_path(values: &HashMap<String, String>, campaign: &str) -> std::path::PathBuf {
    let dir = values.get("results-dir").map_or("results", String::as_str);
    Path::new(dir).join(format!("{campaign}.journal.jsonl"))
}

fn campaign_run(
    spec_path: Option<&str>,
    values: &HashMap<String, String>,
    flags: &[String],
    allow_fresh: bool,
) -> Result<(), String> {
    let path = spec_path.ok_or("campaign run expects a spec path (e.g. campaigns/e3.campaign)")?;
    let spec = CampaignSpec::parse_file(Path::new(path)).map_err(|e| e.to_string())?;
    let cells = presets::campaign_cells(&spec).map_err(|e| e.to_string())?;
    let journal_path = journal_path(values, spec.name());
    let fresh = flags.iter().any(|f| f == "fresh");
    if fresh && !allow_fresh {
        return Err("--fresh discards the journal; use `campaign run --fresh`".into());
    }
    let (mut journal, cache) = if fresh {
        let journal = Journal::create_fresh(&journal_path).map_err(|e| e.to_string())?;
        (journal, CellCache::new())
    } else {
        Journal::open(&journal_path).map_err(|e| e.to_string())?
    };
    journal
        .append_header(spec.name(), cells.len(), &spec.content_hash())
        .map_err(|e| e.to_string())?;
    let threads = number(values, "threads", 0)?;
    let telemetry = Telemetry::new(spec.telemetry_mode().map_err(|e| e.to_string())?);
    let warm = cache.len();
    let mut engine = Engine::new(threads, telemetry).with_journal(journal, cache);
    // Opt-in heartbeats to stderr (`--progress N`, or bare `--progress`
    // for every 25 cells). Observe-only: stdout and the journal are
    // byte-identical with this on or off.
    let progress_every = match values.get("progress") {
        Some(_) => Some(number(values, "progress", 25)?),
        None => flags.iter().any(|f| f == "progress").then_some(25),
    };
    if let Some(every) = progress_every {
        engine = engine.with_progress(every, Box::new(StderrProgress));
    }
    if let Some(import) = values.get("import") {
        let merged = engine
            .import_cache(Path::new(import))
            .map_err(|e| e.to_string())?;
        eprintln!("imported {merged} cached cells from {import}");
    }
    if warm > 0 {
        eprintln!(
            "resuming campaign {}: {warm} journalled cells already cached",
            spec.name()
        );
    }
    presets::run_campaign(&spec, &mut engine, &mut std::io::stdout().lock())
        .map_err(|e| e.to_string())?;
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
    values: &HashMap<String, String>,
) -> Result<(), String> {
    let path = spec_path.ok_or("campaign status expects a spec path")?;
    let spec = CampaignSpec::parse_file(Path::new(path)).map_err(|e| e.to_string())?;
    let cells = presets::campaign_cells(&spec).map_err(|e| e.to_string())?;
    let journal_path = journal_path(values, spec.name());
    let scan = scan_journal(&journal_path).map_err(|e| e.to_string())?;
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
    println!("campaign   : {}", spec.name());
    println!("experiment : {}", spec.experiment());
    println!("spec hash  : {}", spec.content_hash());
    println!(
        "progress   : {percent:.1}% complete ({completed}/{} cells, {} pending)",
        cells.len(),
        cells.len() - completed
    );
    let dropped = if scan.skipped > 0 {
        format!(", {} lines dropped by truncation recovery", scan.skipped)
    } else {
        String::new()
    };
    println!(
        "journal    : {} ({} entries{dropped})",
        journal_path.display(),
        scan.entries
    );
    println!("last write : {}", last_write_age(&journal_path));
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
fn report_cmd(
    paths: &[String],
    values: &HashMap<String, String>,
    flags: &[String],
) -> Result<(), String> {
    reject_unknown_options("report", &["format", "check", "threads"], values, flags)?;
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
    if flags.iter().any(|f| f == "check") {
        return match report.check() {
            Ok(text) => {
                print!("{text}");
                println!("check: ok");
                Ok(())
            }
            Err(text) => Err(format!("stream integrity check failed\n{text}")),
        };
    }
    let format = values.get("format").map_or(Ok(ReportFormat::Table), |v| {
        ReportFormat::parse(v).map_err(|e| e.to_string())
    })?;
    print!("{}", report.render(format));
    Ok(())
}

fn campaign_list(values: &HashMap<String, String>) -> Result<(), String> {
    let dir = values.get("dir").map_or("campaigns", String::as_str);
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("no campaign directory at {dir}/");
            return Ok(());
        }
        Err(e) => return Err(format!("{dir}: {e}")),
    };
    let mut specs: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "campaign"))
        .collect();
    specs.sort();
    if specs.is_empty() {
        println!("no .campaign specs under {dir}/");
        return Ok(());
    }
    for path in specs {
        match CampaignSpec::parse_file(&path)
            .and_then(|spec| Ok((presets::campaign_cells(&spec)?, spec)))
        {
            Ok((cells, spec)) => {
                let cache =
                    load_cache(&journal_path(values, spec.name())).map_err(|e| e.to_string())?;
                let cached = cells
                    .iter()
                    .filter(|c| cache.contains_key(&c.content_hash()))
                    .count();
                println!(
                    "{:<16} {:<6} {:>4} cells ({cached} cached)  {}",
                    spec.name(),
                    spec.experiment(),
                    cells.len(),
                    path.display()
                );
            }
            Err(e) => println!("{:<16} INVALID: {e}", path.display()),
        }
    }
    Ok(())
}

/// `synran list`: the registry's name table, then the experiments.
fn list() {
    println!("protocols:");
    for p in PROTOCOLS {
        println!("  {:<12} {}", p.name, p.about);
    }
    println!();
    println!("adversaries:   attacks");
    for a in ADVERSARIES {
        println!("  {:<12} {:<18} {}", a.name, a.targets(), a.about);
    }
    println!();
    println!("experiments (in crates/bench): e1_coin_control e2_blowup e3_lower_bound");
    println!("            e4_synran_upper e5_protocol_comparison e6_large_deviation");
    println!("            e7_t_sweep e8_budget_ablation e9_adaptivity e10_threshold_ablation");
    println!("            → cargo run --release -p synran-bench --bin <name>");
    println!();
    println!("campaigns : declarative sweeps under campaigns/ (E3, E4, E6, E7 shipped)");
    println!("            → synran campaign run campaigns/e3.campaign");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (positionals, values, flags) = parse(&args);
    let Some(cmd) = positionals.first().map(String::as_str) else {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    let rest = &positionals[1..];
    let result = match cmd {
        "list" => reject_stray_words(cmd, rest)
            .and_then(|()| reject_unknown_options(cmd, &[], &values, &flags))
            .map(|()| list()),
        "campaign" => campaign_cmd(rest, &values, &flags),
        "report" => report_cmd(rest, &values, &flags),
        "run" | "batch" => {
            reject_stray_words(cmd, rest).and_then(|()| cell_cmd(cmd, &values, &flags))
        }
        _ => {
            eprintln!("unknown command {cmd:?}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn cell_from(args: &[&str]) -> Result<Cell, String> {
        let (_, values, _) = parse(&owned(args));
        cli_cell(&values)
    }

    #[test]
    fn parse_splits_command_values_and_flags() {
        let (positionals, values, flags) =
            parse(&owned(&["run", "--n", "16", "--trace", "--seed", "9"]));
        assert_eq!(positionals, vec!["run".to_string()]);
        assert_eq!(values.get("n").map(String::as_str), Some("16"));
        assert_eq!(values.get("seed").map(String::as_str), Some("9"));
        assert!(flags.contains(&"trace".to_string()));
    }

    #[test]
    fn parse_keeps_every_positional_in_order() {
        let args = owned(&["campaign", "run", "campaigns/e3.campaign", "--threads", "2"]);
        let (positionals, values, _) = parse(&args);
        assert_eq!(
            positionals,
            vec!["campaign", "run", "campaigns/e3.campaign"]
        );
        assert_eq!(values.get("threads").map(String::as_str), Some("2"));
    }

    #[test]
    fn bare_flags_never_take_a_value() {
        let args = owned(&[
            "campaign",
            "run",
            "--fresh",
            "e4.campaign",
            "--progress",
            "5",
        ]);
        let (positionals, values, flags) = parse(&args);
        assert_eq!(positionals, vec!["campaign", "run", "e4.campaign"]);
        assert_eq!(flags, vec!["fresh"]);
        // `--progress` keeps its optional value.
        assert_eq!(values.get("progress").map(String::as_str), Some("5"));
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
        let values = |args: &[&str]| parse(&owned(args)).1;
        let v = values(&["--n", "8"]);
        assert_eq!(telemetry_options(&v).unwrap(), (TelemetryMode::Off, None));
        let (mode, _) = telemetry_options(&values(&["--telemetry", "spans"])).unwrap();
        assert_eq!(mode, TelemetryMode::Spans);
        // An output path alone implies counters.
        let v = values(&["--telemetry-out", "t.jsonl"]);
        let (mode, out) = telemetry_options(&v).unwrap();
        assert_eq!(mode, TelemetryMode::Counters);
        assert_eq!(out.map(String::as_str), Some("t.jsonl"));
        // An explicit mode wins over the implied default.
        let v = values(&["--telemetry", "off", "--telemetry-out", "x.jsonl"]);
        assert_eq!(telemetry_options(&v).unwrap().0, TelemetryMode::Off);
        let err = telemetry_options(&values(&["--telemetry", "verbose"])).unwrap_err();
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
