//! `bench_e2e` — the end-to-end benchmark of the synran workspace, with
//! per-layer attribution.
//!
//! ```text
//! bench_e2e run   [--workload W|all] [--seed S] [--seconds N] [--trace 0|1]
//!                 [--smoke] [--golden-dir DIR] [--out DIR]
//! bench_e2e trace [same flags]            (= run --trace 1)
//! ```
//!
//! A run builds the workload's inputs from its seed, then makes untraced
//! passes (`Telemetry::off()`, one worker per available core) until
//! `--seconds` would be exceeded, at least one; the first is a warm-up, left
//! out of the medians when later passes exist. Before the first pass and
//! after every pass it builds the inputs again and again, and reports the
//! median set-up time. It checks every pass's output, prints each
//! end-to-end metric as `name value unit`, and ends with one JSON line.
//! With `--trace 1` it adds one pass recording spans, writes them to
//! `<out>/<workload>.trace.jsonl`, and reports the per-layer metrics in the
//! JSON line instead.
//!
//! Everything runs inside a fresh directory under `.bench_work/` in the
//! current directory, because the E3 and E7 presets write
//! `results/*.telemetry.jsonl` relative to the working directory.

mod layers;
mod measure;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufWriter, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use synran_sim::parallel::{global_pool, resolve_threads};
use synran_sim::{MemorySink, Telemetry, TelemetryMode};

use layers::{attribute, Recorded};
use measure::{median, metric_line, peak_rss_mib, process_cpu_ticks, result_json, Metric, USER_HZ};
use workloads::{run_pass, serial_cell_exec_s, setup, Pass, Prepared, Size, Workload};

const USAGE: &str = "usage: bench_e2e run|trace [--workload coin_control|lower_bound|upper_bound|campaign_grid|all] \
[--seed S] [--seconds N] [--trace 0|1] [--smoke] [--golden-dir DIR] [--out DIR]";

/// Seconds of repeated set-ups before the first pass, and after every pass
/// (the smoke size uses a twentieth of each). `setup_s` is the median over
/// samples of at least `SETUP_SAMPLE_S` each, a sample being the mean of
/// the set-ups it holds. One set-up takes microseconds to milliseconds. On
/// a shared host the same set-up runs at two speeds, a factor of two apart,
/// in phases of a tenth of a second to a few seconds; a first window that
/// spans several phases, and bursts spread over the rest of the run, keep
/// the median on the usual speed more often than one short window would.
const SETUP_FIRST_S: f64 = 2.0;
const SETUP_BURST_S: f64 = 0.2;
const SETUP_SAMPLE_S: f64 = 0.001;

/// The end-to-end metrics, as listed in `BENCHMARK.json`. `cpu_s`,
/// `ops_per_s` and `fail_frac` are printed after them but left out of the
/// JSON line: on a shared host `cpu_s` adds up the slowdowns of every worker
/// and spreads past any usable bound, `ops_per_s` is the fixed operation
/// count over `wall_s`, and `fail_frac` reads 0 on a correct run.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// The per-layer metrics, as listed in `BENCHMARK.json`. A layer a
/// workload does not reach reports 0.
const PER_LAYER: [(&str, &str); 50] = [
    ("coin.exact_s", "s"),
    ("coin.exact_t8_s", "s"),
    ("coin.estimate_s", "s"),
    ("coin.influence_s", "s"),
    ("coin.decisions", "count"),
    ("lab.expand_s", "s"),
    ("lab.run_cells_s", "s"),
    ("lab.run_cells_fresh_s", "s"),
    ("lab.run_cells_warm_s", "s"),
    ("lab.run_cells_resume_s", "s"),
    ("lab.render_s", "s"),
    ("lab.cell_exec_s", "s"),
    ("lab.exec_share", "ratio"),
    ("lab.journal_load_s", "s"),
    ("lab.journal_bytes", "bytes"),
    ("lab.cells_executed", "count"),
    ("lab.cells_cached", "count"),
    ("lab.warm_s", "s"),
    ("lab.resume_s", "s"),
    ("sim.drive_s", "s"),
    ("sim.deliver_self_s", "s"),
    ("sim.deliver_share", "ratio"),
    ("sim.deliver_us_p50", "us"),
    ("sim.deliver_us_tail", "us"),
    ("sim.deliver_tail_pct", "percentile"),
    ("sim.rounds", "count"),
    ("sim.deliver_plane", "count"),
    ("sim.deliver_scalar", "count"),
    ("core.phase_a_self_s", "s"),
    ("core.runs", "count"),
    ("core.rounds", "count"),
    ("core.violations", "count"),
    ("core.timeouts", "count"),
    ("adversary.self_s", "s"),
    ("adversary.share", "ratio"),
    ("adversary.decide_ms_p50", "ms"),
    ("adversary.decide_ms_tail", "ms"),
    ("adversary.decide_tail_pct", "percentile"),
    ("adversary.decisions", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilization_mean_pct", "%"),
    ("pool.tasks", "count"),
    ("pool.inline", "count"),
    ("pool.parallelism", "ratio"),
    ("pool.cpu_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
    ("trace.reconcile_violations", "count"),
    ("trace.spans", "count"),
];

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    size: Size,
    golden_dir: PathBuf,
    out_dir: Option<PathBuf>,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workloads: Workload::ALL.to_vec(),
            seed: None,
            seconds: 0.0,
            trace: match argv.next().as_deref() {
                Some("run") => false,
                Some("trace") => true,
                other => return Err(format!("expected run or trace, got {other:?}")),
            },
            size: Size::Full,
            golden_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("golden"),
            out_dir: None,
        };
        while let Some(flag) = argv.next() {
            if flag == "--smoke" {
                args.size = Size::Smoke;
                continue;
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("{flag} expects a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
                "--workload" => {
                    args.workloads =
                        vec![Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?];
                }
                "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
                "--seconds" => {
                    args.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("not a non-negative number"))?;
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    };
                }
                "--golden-dir" => args.golden_dir = PathBuf::from(value),
                "--out" => args.out_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_in_work_dir(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs every requested workload inside a fresh `.bench_work/run-<pid>`
/// directory, removed afterwards. Returns whether every check passed.
fn run_in_work_dir(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("current dir: {e}"))?;
    let out_dir = args
        .out_dir
        .as_ref()
        .map_or_else(|| root.join(".bench_work/trace"), |d| root.join(d));
    let golden_dir = root.join(&args.golden_dir);
    let work = root
        .join(".bench_work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    std::env::set_current_dir(&work).map_err(|e| format!("entering {}: {e}", work.display()))?;
    let mut outcome = Ok(true);
    for &workload in &args.workloads {
        match bench(workload, args, &golden_dir, &out_dir) {
            Ok(correct) => outcome = outcome.map(|all| all && correct),
            Err(e) => {
                outcome = Err(e);
                break;
            }
        }
    }
    std::env::set_current_dir(&root).map_err(|e| format!("leaving {}: {e}", work.display()))?;
    std::fs::remove_dir_all(&work).map_err(|e| format!("removing {}: {e}", work.display()))?;
    outcome
}

/// The committed digest of `workload`'s render at `size` and `seed`, from
/// `<dir>/<workload>.txt` (lines of `size seed hex-digest`; `#` starts a
/// comment). `None` when no digest is committed for that seed.
fn load_golden(
    dir: &Path,
    workload: Workload,
    size: Size,
    seed: u64,
) -> Result<Option<u64>, String> {
    let path = dir.join(format!("{}.txt", workload.name()));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let malformed = || format!("{}:{}: expected `size seed digest`", path.display(), i + 1);
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [line_size, line_seed, digest] = fields[..] else {
            return Err(malformed());
        };
        let line_seed: u64 = line_seed.parse().map_err(|_| malformed())?;
        if line_size == size.name() && line_seed == seed {
            return u64::from_str_radix(digest, 16)
                .map(Some)
                .map_err(|_| malformed());
        }
    }
    Ok(None)
}

/// One pass with its wall and CPU time.
struct Timed {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
}

/// Runs and times one pass. An execution error or a panic fails every
/// operation of the pass.
fn timed_pass(prepared: &Prepared, telemetry: &Telemetry, threads: usize) -> Result<Timed, String> {
    let cpu = process_cpu_ticks()?;
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_pass(prepared, telemetry, threads)));
    let wall_s = start.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let cpu_s = process_cpu_ticks()?.saturating_sub(cpu) as f64 / USER_HZ;
    let pass = match result {
        Ok(Ok(pass)) => pass,
        Ok(Err(e)) => failed_pass(prepared, format!("pass failed: {e}")),
        Err(_) => failed_pass(prepared, "pass panicked".to_string()),
    };
    Ok(Timed {
        pass,
        wall_s,
        cpu_s,
    })
}

fn failed_pass(prepared: &Prepared, error: String) -> Pass {
    Pass {
        ops: prepared.ops,
        failed: prepared.ops,
        errors: vec![error],
        ..Pass::default()
    }
}

/// Benchmarks one workload and prints its report. Returns whether every
/// check passed.
#[allow(clippy::too_many_lines)]
fn bench(
    workload: Workload,
    args: &Args,
    golden_dir: &Path,
    out_dir: &Path,
) -> Result<bool, String> {
    let seed = args.seed.unwrap_or_else(|| workload.default_seed());
    let scale = match args.size {
        Size::Full => 1.0,
        Size::Smoke => 1.0 / 20.0,
    };
    let mut setup_times = Vec::new();
    let mut setup_reps = 0u32;
    // Set-ups for `burst_s` seconds; returns the inputs the last one built.
    let mut setup_burst = |burst_s: f64| -> Result<(Prepared, Option<u64>), String> {
        let burst_started = Instant::now();
        loop {
            let start = Instant::now();
            let mut reps = 0u32;
            let built = loop {
                let golden = load_golden(golden_dir, workload, args.size, seed)?;
                let prepared =
                    setup(workload, seed, args.size).map_err(|e| format!("set-up: {e}"))?;
                reps += 1;
                if start.elapsed().as_secs_f64() >= SETUP_SAMPLE_S {
                    break (prepared, golden);
                }
            };
            setup_times.push(start.elapsed().as_secs_f64() / f64::from(reps));
            setup_reps += reps;
            if burst_started.elapsed().as_secs_f64() >= burst_s * scale {
                return Ok(built);
            }
        }
    };
    let (prepared, golden) = setup_burst(SETUP_FIRST_S)?;
    let threads = resolve_threads(0);

    let started = Instant::now();
    let mut passes: Vec<Timed> = Vec::new();
    loop {
        let timed = timed_pass(&prepared, &Telemetry::off(), threads)?;
        let failed = !timed.pass.errors.is_empty();
        passes.push(timed);
        setup_burst(SETUP_BURST_S)?;
        let typical = median(&passes.iter().map(|t| t.wall_s).collect::<Vec<_>>());
        if failed || started.elapsed().as_secs_f64() + typical > args.seconds {
            break;
        }
    }
    // The first pass warms the allocator and caches: it is checked, but
    // left out of the medians whenever a later pass exists.
    let measured = &passes[usize::from(passes.len() > 1)..];
    let wall_s = median(&measured.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let cpu_s = median(&measured.iter().map(|t| t.cpu_s).collect::<Vec<_>>());

    let mut layer_values = BTreeMap::new();
    if args.trace {
        let traced = traced_pass(&prepared, workload, threads, out_dir, &mut layer_values)?;
        layer_values.insert("pool.cpu_s", cpu_s);
        layer_values.insert("pool.parallelism", cpu_s / wall_s);
        layer_values.insert("trace.overhead_pct", 100.0 * (traced.wall_s / wall_s - 1.0));
        passes.push(traced);
    }

    // Checks: every pass agrees with the first, and with the committed
    // digest when one exists for this seed.
    let digest = passes[0].pass.digest;
    let mut errors: Vec<String> = passes.iter().flat_map(|t| t.pass.errors.clone()).collect();
    for (i, timed) in passes.iter().enumerate().skip(1) {
        if timed.pass.digest != digest && timed.pass.errors.is_empty() {
            let which = if args.trace && i == passes.len() - 1 {
                "trace"
            } else {
                "run"
            };
            errors.push(format!(
                "{which} pass {i} digest {:016x} differs from pass 0",
                timed.pass.digest
            ));
        }
    }
    let golden_note = match golden {
        None => "none for this seed (seed-free invariants only)".to_string(),
        Some(g) if g == digest => "match".to_string(),
        Some(g) => {
            errors.push(format!(
                "digest {digest:016x} differs from the golden {g:016x}"
            ));
            format!("MISMATCH (golden {g:016x})")
        }
    };
    let attempted: u64 = passes.iter().map(|t| t.pass.ops).sum();
    let failed_ops: u64 = passes.iter().map(|t| t.pass.failed).sum();
    let failed = if errors.is_empty() {
        failed_ops
    } else {
        attempted
    };
    let correct = errors.is_empty() && failed == 0;

    println!(
        "bench_e2e workload={} seed={seed} size={} threads={threads} passes={} setup_reps={}",
        workload.name(),
        args.size.name(),
        passes.len(),
        setup_reps,
    );
    println!("digest {digest:016x} golden={golden_note}");
    let walls: Vec<String> = passes.iter().map(|t| format!("{:.4}", t.wall_s)).collect();
    println!("pass walls (s): {}", walls.join(" "));
    for e in &errors {
        println!("error: {e}");
    }
    let e2e: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: match name {
                "wall_s" => wall_s,
                "setup_s" => median(&setup_times),
                _ => peak_rss_mib().unwrap_or(0.0),
            },
        })
        .collect();
    for m in &e2e {
        println!("{}", metric_line(m));
    }
    #[allow(clippy::cast_precision_loss)]
    let (ops_per_s, fail_frac) = (
        prepared.ops as f64 / wall_s,
        failed as f64 / attempted.max(1) as f64,
    );
    println!("cpu_s {cpu_s} s");
    println!("ops_per_s {ops_per_s} 1/s");
    println!("fail_frac {fail_frac} ratio");
    let reported = if args.trace {
        let layers: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layer_values.get(name).copied().unwrap_or(0.0),
            })
            .collect();
        for m in &layers {
            println!("{}", metric_line(m));
        }
        layers
    } else {
        e2e
    };
    println!("{}", result_json(correct, attempted, failed, &reported));
    Ok(correct)
}

/// One pass recording spans. Writes the spans to
/// `<out_dir>/<workload>.trace.jsonl` and fills `layers` with the
/// per-layer metrics the pass yields.
fn traced_pass(
    prepared: &Prepared,
    workload: Workload,
    threads: usize,
    out_dir: &Path,
    layers: &mut BTreeMap<&'static str, f64>,
) -> Result<Timed, String> {
    let telemetry = Telemetry::new(TelemetryMode::Spans);
    let pool_before = global_pool().stats();
    let traced = timed_pass(prepared, &telemetry, threads)?;
    let pool_after = global_pool().stats();
    let mut sink = MemorySink::new();
    telemetry.export(&mut sink);
    drop(telemetry);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.jsonl", workload.name()));
    let write = || -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(&path)?);
        for event in sink.events() {
            writeln!(out, "{}", event.to_jsonl())?;
        }
        out.flush()
    };
    write().map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace: {} events -> {}",
        sink.events().len(),
        path.display()
    );

    let rec = Recorded::from_events(sink.events());
    let (span_metrics, violations) =
        attribute(&rec, threads, traced.wall_s, traced.pass.attributed_s);
    for v in &violations {
        println!("reconcile: {v}");
    }
    layers.extend(span_metrics);
    layers.extend(traced.pass.layers.iter().map(|(&k, &v)| (k, v)));

    let cell_exec_s =
        serial_cell_exec_s(prepared).map_err(|e| format!("serial cell execution: {e}"))?;
    let fresh_s = layers.get("lab.run_cells_fresh_s").copied().unwrap_or(0.0);
    #[allow(clippy::cast_precision_loss)]
    let exec_share = if fresh_s > 0.0 {
        cell_exec_s / (fresh_s * threads as f64)
    } else {
        0.0
    };
    #[allow(clippy::cast_precision_loss)]
    layers.extend([
        ("lab.cell_exec_s", cell_exec_s),
        ("lab.exec_share", exec_share),
        ("pool.tasks", (pool_after.tasks - pool_before.tasks) as f64),
        (
            "pool.inline",
            (pool_after.inline - pool_before.inline) as f64,
        ),
        ("trace.wall_s", traced.wall_s),
        (
            "trace.unattributed_pct",
            100.0 * (1.0 - traced.pass.attributed_s / traced.wall_s),
        ),
        ("trace.reconcile_violations", violations.len() as f64),
        ("trace.spans", rec.span_count() as f64),
    ]);
    Ok(traced)
}
