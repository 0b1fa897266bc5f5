//! Records the campaign-engine overhead baseline in `BENCH_lab.json`.
//!
//! The campaign engine wraps `run_batch` in hashing, dedup, wave
//! scheduling, and journalling; this bench times the same cell grid four
//! ways — a raw hand-rolled `run_batch` loop, the engine without a
//! journal, the engine with a journal, and a fully warm cache — asserts
//! all paths produce identical observations, and writes the wall times
//! plus relative overhead to a hand-rolled JSON file at the repo root (or
//! `--out <path>`).
//!
//! ```text
//! cargo run --release -p synran-bench --bin bench_lab
//! ```

use std::io::Write as _;
use std::time::Instant;

use synran_bench::Args;
use synran_core::{run_batch, InputAssignment, SynRan};
use synran_lab::{Cell, CellResult, Engine, Journal};
use synran_sim::{SimConfig, Telemetry};

/// Best-of-`reps` wall time in milliseconds (after one warm-up call).
fn time_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The benchmarked grid: seeds × sizes of balancer cells, the shape every
/// shipped campaign sweeps.
fn grid(n_values: &[usize], seeds: u64, runs: usize) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &n in n_values {
        for seed in 1..=seeds {
            let mut cell = Cell::new("synran", "balancer", n);
            cell.runs = runs;
            cell.seed = seed;
            cells.push(cell);
        }
    }
    cells
}

/// The bespoke-sweep-loop baseline the campaign engine replaced: a plain
/// `run_batch` call per cell, serial, in cell order.
fn raw_loop(cells: &[Cell]) -> Vec<CellResult> {
    cells
        .iter()
        .map(|cell| {
            let outcome = run_batch(
                &SynRan::new(),
                InputAssignment::Split { ones: cell.ones },
                &SimConfig::new(cell.n)
                    .faults(cell.t)
                    .max_rounds(cell.max_rounds)
                    .threads(1),
                cell.runs,
                cell.seed,
                |_| synran_adversary::Balancer::unbounded(),
            )
            .expect("engine error");
            CellResult {
                rounds: outcome.rounds().to_vec(),
                kills: outcome.kills().iter().map(|&k| k as u64).collect(),
                timeouts: 0,
                violations: 0,
            }
        })
        .collect()
}

fn main() {
    let args = Args::from_env();
    let reps = args.get_usize("reps", 5);
    let runs = args.get_usize("runs", 10);
    let seeds = args.get_u64("seeds", 4);
    let out_path = args.get("out").unwrap_or("BENCH_lab.json").to_string();
    let n_values = [16usize, 24];
    let cells = grid(&n_values, seeds, runs);
    let journal_dir = std::env::temp_dir().join(format!("synran-bench-lab-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("temp dir");

    // Correctness first: every path observes the same rounds/kills.
    let baseline = raw_loop(&cells);
    let via_engine = Engine::new(1, Telemetry::off())
        .run_cells(&cells)
        .expect("engine run");
    assert_eq!(via_engine, baseline, "engine diverged from the raw loop");

    let raw_ms = time_ms(reps, || raw_loop(&cells));
    let engine_ms = time_ms(reps, || {
        Engine::new(1, Telemetry::off())
            .run_cells(&cells)
            .expect("engine run")
    });
    let mut journal_tick = 0u64;
    let journal_ms = time_ms(reps, || {
        journal_tick += 1;
        let path = journal_dir.join(format!("bench-{journal_tick}.journal.jsonl"));
        let journal = Journal::create_fresh(&path).expect("fresh journal");
        Engine::new(1, Telemetry::off())
            .with_journal(journal, synran_lab::CellCache::new())
            .run_cells(&cells)
            .expect("engine run")
    });
    let warm_ms = {
        let mut engine = Engine::new(1, Telemetry::off());
        engine.run_cells(&cells).expect("warm-up");
        time_ms(reps, || engine.run_cells(&cells).expect("warm run"))
    };

    let _ = std::fs::remove_dir_all(&journal_dir);

    let overhead_pct = (engine_ms / raw_ms - 1.0) * 100.0;
    let journal_pct = (journal_ms / raw_ms - 1.0) * 100.0;

    println!("=== bench_lab: campaign-engine overhead vs raw run_batch loop ===");
    println!(
        "grid: {} cells (n ∈ {n_values:?}, {seeds} seeds, {runs} runs/cell), best of {reps}",
        cells.len()
    );
    println!("raw loop        : {raw_ms:.3} ms");
    println!("engine          : {engine_ms:.3} ms  ({overhead_pct:+.1}% vs raw)");
    println!("engine + journal: {journal_ms:.3} ms  ({journal_pct:+.1}% vs raw)");
    println!("warm cache      : {warm_ms:.3} ms");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"bench_lab\",\n");
    json.push_str("  \"version\": 1,\n");
    json.push_str(&format!(
        "  \"cores\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    ));
    json.push_str(&format!("  \"reps\": {reps},\n"));
    json.push_str(&format!(
        "  \"grid\": {{\"cells\": {}, \"n_values\": {n_values:?}, \"seeds\": {seeds}, \"runs_per_cell\": {runs}}},\n",
        cells.len()
    ));
    json.push_str(
        "  \"note\": \"all paths assert byte-identical observations; overhead covers hashing, dedup, wave scheduling, and (for the journal row) JSONL append+flush per cell\",\n",
    );
    json.push_str("  \"rows\": [\n");
    json.push_str(&format!(
        "    {{\"path\": \"raw_loop\", \"ms\": {raw_ms:.3}, \"overhead_pct\": 0.0}},\n"
    ));
    json.push_str(&format!(
        "    {{\"path\": \"engine\", \"ms\": {engine_ms:.3}, \"overhead_pct\": {overhead_pct:.1}}},\n"
    ));
    json.push_str(&format!(
        "    {{\"path\": \"engine_journal\", \"ms\": {journal_ms:.3}, \"overhead_pct\": {journal_pct:.1}}},\n"
    ));
    json.push_str(&format!(
        "    {{\"path\": \"warm_cache\", \"ms\": {warm_ms:.3}}}\n"
    ));
    json.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(&out_path).expect("create BENCH_lab.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_lab.json");
    println!("\nwrote {out_path}");
}
