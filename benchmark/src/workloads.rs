//! The four workloads. Each has a set-up step, which builds every input
//! from the seed before anything is timed, and a pass, which makes the
//! timed calls into the library crates and renders their output to text.
//!
//! A pass times its own calls into each crate's public functions; the
//! layer timers it returns are named after the per-layer metrics they
//! feed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use synran_coin::{
    bias_radius, estimate_control, exact_influences, exact_uncontrollable, sample_inputs, CoinGame,
    GreedyHider, HideSearch, MajorityGame, OneSidedGame, Outcome, ParityGame,
    RecursiveMajorityGame, SearchOutcome, TribesGame,
};
use synran_lab::presets::{self, e3, e7};
use synran_lab::{
    fnv1a64, run_cell, validate_cell, CampaignSpec, Cell, CellCache, CellResult, CellRunner,
    Engine, Journal, LabError,
};
use synran_sim::{SimRng, Telemetry};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// E1's coin-game control calls: hide-set search, no consensus code.
    CoinControl,
    /// E3 on the campaign engine: the valency-guided adversary dominates.
    LowerBound,
    /// E7 on the campaign engine: large-n delivery dominates.
    UpperBound,
    /// An 8,000-cell grid campaign run fresh, warm, and resumed: engine
    /// bookkeeping and the journal dominate.
    CampaignGrid,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::CoinControl,
        Workload::LowerBound,
        Workload::UpperBound,
        Workload::CampaignGrid,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CoinControl => "coin_control",
            Workload::LowerBound => "lower_bound",
            Workload::UpperBound => "upper_bound",
            Workload::CampaignGrid => "campaign_grid",
        }
    }

    /// The workload called `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when none is given: the seed of the experiment the
    /// workload is drawn from.
    #[must_use]
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::CoinControl => 1,
            Workload::LowerBound => 3,
            Workload::UpperBound => 7,
            Workload::CampaignGrid => 5,
        }
    }
}

/// Full size, or the shrunken smoke size that still runs every code path
/// and every check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size. A pass takes about two seconds on two cores, so
    /// a 20 s run holds about eight and their median rides out bursts of
    /// load on a shared host. `coin_control` is the exception: its exact t = 8
    /// call alone takes over 20 s.
    Full,
    /// A few seconds for all four workloads together.
    Smoke,
}

impl Size {
    /// The size's name in the golden files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// Every input of one workload, built from the seed by [`setup`].
pub struct Prepared {
    inputs: Inputs,
    /// Operations one pass performs.
    pub ops: u64,
    /// Seconds spent expanding the cell list during set-up.
    pub expand_s: f64,
}

enum Inputs {
    Coin(CoinInputs),
    E3(e3::E3Params),
    E7(e7::E7Params),
    Grid(GridInputs),
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// FNV-1a digest of the rendered output.
    pub digest: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed: runs with a violation or a timeout.
    pub failed: u64,
    /// Broken seed-free invariants.
    pub errors: Vec<String>,
    /// Benchmark-side layer timers and counts, by per-layer metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Seconds inside top-level calls into the library crates.
    pub attributed_s: f64,
}

/// Builds a workload's inputs from `seed`.
///
/// # Errors
///
/// Returns a spec or cell-validation error.
pub fn setup(workload: Workload, seed: u64, size: Size) -> Result<Prepared, LabError> {
    let smoke = size == Size::Smoke;
    Ok(match workload {
        Workload::CoinControl => {
            let inputs = coin_inputs(seed, smoke);
            Prepared {
                ops: inputs.decisions(),
                inputs: Inputs::Coin(inputs),
                expand_s: 0.0,
            }
        }
        Workload::LowerBound => {
            let params = e3::E3Params {
                sizes: if smoke {
                    vec![16, 24]
                } else {
                    vec![32, 64, 128, 256]
                },
                runs: if smoke { 2 } else { 16 },
                samples: if smoke { 2 } else { 8 },
                seed,
            };
            let start = Instant::now();
            let cells = params.cells();
            let expand_s = start.elapsed().as_secs_f64();
            Prepared {
                ops: validated_runs(&cells)?,
                inputs: Inputs::E3(params),
                expand_s,
            }
        }
        Workload::UpperBound => {
            let params = e7::E7Params {
                sizes: if smoke {
                    vec![64, 128]
                } else {
                    vec![1024, 4096]
                },
                runs: if smoke { 4 } else { 24 },
                seed,
            };
            let start = Instant::now();
            let cells = params.cells();
            let expand_s = start.elapsed().as_secs_f64();
            Prepared {
                ops: validated_runs(&cells)?,
                inputs: Inputs::E7(params),
                expand_s,
            }
        }
        Workload::CampaignGrid => {
            let seeds = if smoke { 50 } else { 4000 };
            let spec = CampaignSpec::parse(&grid_spec_text(seed, seeds), "bench_grid")?;
            let start = Instant::now();
            let cells = presets::campaign_cells(&spec)?;
            let expand_s = start.elapsed().as_secs_f64();
            let runs = validated_runs(&cells)?;
            let resumed: u64 = cells[cells.len() / 2..].iter().map(|c| c.runs as u64).sum();
            Prepared {
                ops: runs + resumed,
                inputs: Inputs::Grid(GridInputs {
                    spec_hash: spec.content_hash(),
                    spec,
                    cells: cells.len(),
                }),
                expand_s,
            }
        }
    })
}

/// Validates every cell and returns the executions they hold.
fn validated_runs(cells: &[Cell]) -> Result<u64, LabError> {
    for cell in cells {
        validate_cell(cell)?;
    }
    Ok(cells.iter().map(|c| c.runs as u64).sum())
}

/// Runs one pass of `prepared` on `threads` workers, recording into
/// `telemetry`.
///
/// # Errors
///
/// Returns an execution, journal, or rendering error.
pub fn run_pass(
    prepared: &Prepared,
    telemetry: &Telemetry,
    threads: usize,
) -> Result<Pass, LabError> {
    let mut pass = match &prepared.inputs {
        Inputs::Coin(inputs) => coin_pass(inputs),
        Inputs::E3(params) => preset_pass(telemetry, threads, |runner, out| {
            e3::run(params, runner, out)
        })?,
        Inputs::E7(params) => preset_pass(telemetry, threads, |runner, out| {
            e7::run(params, runner, out)
        })?,
        Inputs::Grid(inputs) => grid_pass(inputs, telemetry, threads)?,
    };
    pass.ops = prepared.ops;
    pass.layers.insert("lab.expand_s", prepared.expand_s);
    Ok(pass)
}

/// Seconds since `start`.
fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------------
// coin_control
// ---------------------------------------------------------------------------

/// E1's committed `Pr(U^0)` column for majority-0 at n = 16, by hide
/// budget t. `Pr(U^1)` is 0.5982 at every t.
const E1_EXACT_U0: [(usize, &str); 5] = [
    (0, "0.4018"),
    (1, "0.2272"),
    (2, "0.1051"),
    (4, "0.0106"),
    (8, "0.0000"),
];
const E1_EXACT_U1: &str = "0.5982";
const EXACT_N: usize = 16;

struct CoinRow {
    game: Rc<dyn CoinGame>,
    c: f64,
    t: usize,
    seed: u64,
}

struct CoinInputs {
    rows: Vec<CoinRow>,
    samples: usize,
    exact_t: Vec<usize>,
    influence_draws: usize,
    influence_seed: u64,
}

impl CoinInputs {
    /// (input vector, outcome) decisions in one pass.
    fn decisions(&self) -> u64 {
        let estimates: usize = self
            .rows
            .iter()
            .map(|r| self.samples * r.game.outcomes())
            .sum();
        let exact = (self.exact_t.len() * 2) << EXACT_N;
        (estimates + exact + 2 * self.influence_draws) as u64
    }
}

/// E1's calls with E1's arguments: five games per size, hide budgets
/// `c · 4√(n·ln n)` for five values of `c`, per-game seeds `seed ^ k`.
/// E1's t = 16 exact row is left out: it repeats t = 8's answer at about
/// twice the cost and runs no other code.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn coin_inputs(seed: u64, smoke: bool) -> CoinInputs {
    let sizes: &[usize] = if smoke { &[64] } else { &[64, 256, 1024, 4096] };
    let mut rows = Vec::new();
    for &n in sizes {
        let width = ((n as f64).log2().round() as usize).max(1);
        let depth = ((n as f64).ln() / 3f64.ln()).round().max(1.0) as u32;
        let games: [(Rc<dyn CoinGame>, u64); 5] = [
            (Rc::new(MajorityGame::new(n)), seed),
            (Rc::new(ParityGame::new(n)), seed ^ 1),
            (Rc::new(OneSidedGame::new(n)), seed ^ 2),
            (Rc::new(TribesGame::new(n / width, width)), seed ^ 3),
            (Rc::new(RecursiveMajorityGame::new(depth)), seed ^ 4),
        ];
        for (game, game_seed) in games {
            let h = bias_radius(game.players());
            for c in [0.0f64, 0.25, 0.5, 1.0, 2.0] {
                let t = ((c * h).round() as usize).min(game.players());
                rows.push(CoinRow {
                    game: Rc::clone(&game),
                    c,
                    t,
                    seed: game_seed,
                });
            }
        }
    }
    CoinInputs {
        rows,
        samples: if smoke { 30 } else { 300 },
        exact_t: if smoke {
            vec![0, 1, 2]
        } else {
            E1_EXACT_U0.iter().map(|&(t, _)| t).collect()
        },
        influence_draws: if smoke { 5 } else { 50 },
        influence_seed: seed ^ 9,
    }
}

fn coin_pass(x: &CoinInputs) -> Pass {
    let mut out = String::from("game n c t force0 force1 controlled\n");
    let mut pass = Pass::default();

    let mut estimate_s = 0.0;
    for row in &x.rows {
        let n = row.game.players();
        let mut rng = SimRng::new(row.seed).derive(row.t as u64);
        let start = Instant::now();
        let est = estimate_control(row.game.as_ref(), &GreedyHider, row.t, x.samples, &mut rng);
        estimate_s += since(start);
        #[allow(clippy::cast_precision_loss)]
        let verdict = est
            .controlled_outcome(1.0 - 1.0 / n as f64)
            .map_or_else(|| "-".to_string(), |v| format!("->{}", v.0));
        let _ = writeln!(
            out,
            "{} {n} {:.2} {} {:.3} {:.3} {verdict}",
            row.game.name(),
            row.c,
            row.t,
            est.forcible_fraction(Outcome(0)),
            est.forcible_fraction(Outcome(1)),
        );
    }

    out.push_str("influence: game max_influence(n=9) median_hides_to_force_0\n");
    let start = Instant::now();
    let mut rng = SimRng::new(x.influence_seed);
    let pairs: [(Box<dyn CoinGame>, Box<dyn CoinGame>); 2] = [
        (
            Box::new(MajorityGame::new(2187)),
            Box::new(MajorityGame::new(9)),
        ),
        (
            Box::new(RecursiveMajorityGame::new(7)),
            Box::new(RecursiveMajorityGame::new(2)),
        ),
    ];
    for (game, small) in &pairs {
        let influence = exact_influences(small.as_ref()).max();
        let mut costs: Vec<usize> = (0..x.influence_draws)
            .filter_map(|_| {
                let values = sample_inputs(game.as_ref(), &mut rng);
                match GreedyHider.force(game.as_ref(), &values, game.players(), Outcome(0)) {
                    SearchOutcome::Forced(set) => Some(set.len()),
                    _ => None,
                }
            })
            .collect();
        costs.sort_unstable();
        let median = costs.get(costs.len() / 2).copied().unwrap_or(0);
        let _ = writeln!(out, "{} {influence:.3} {median}", game.name());
    }
    let influence_s = since(start);

    out.push_str("exact n=16: t Pr(U^0) Pr(U^1)\n");
    let game = MajorityGame::new(EXACT_N);
    let (mut exact_s, mut exact_t8_s) = (0.0, 0.0);
    for &t in &x.exact_t {
        let mut column = [0.0f64; 2];
        for (v, slot) in column.iter_mut().enumerate() {
            let start = Instant::now();
            *slot = exact_uncontrollable(&game, t, Outcome(v));
            let took = since(start);
            exact_s += took;
            if (t, v) == (8, 1) {
                exact_t8_s = took;
            }
        }
        let (u0, u1) = (format!("{:.4}", column[0]), format!("{:.4}", column[1]));
        let expected = E1_EXACT_U0.iter().find(|&&(et, _)| et == t).map(|e| e.1);
        if expected != Some(u0.as_str()) || u1 != E1_EXACT_U1 {
            pass.errors.push(format!(
                "exact Pr(U^v) at n=16, t={t}: got {u0}/{u1}, E1 has {}/{E1_EXACT_U1}",
                expected.unwrap_or("?")
            ));
        }
        let _ = writeln!(out, "{t} {u0} {u1}");
    }

    pass.digest = fnv1a64(out.as_bytes());
    pass.attributed_s = estimate_s + influence_s + exact_s;
    #[allow(clippy::cast_precision_loss)]
    let decisions = x.decisions() as f64;
    pass.layers.extend([
        ("coin.estimate_s", estimate_s),
        ("coin.influence_s", influence_s),
        ("coin.exact_s", exact_s),
        ("coin.exact_t8_s", exact_t8_s),
        ("coin.decisions", decisions),
    ]);
    pass
}

// ---------------------------------------------------------------------------
// lower_bound / upper_bound
// ---------------------------------------------------------------------------

/// The in-process [`Engine`] behind the [`CellRunner`] interface, timing
/// every `run_cells` call and counting failed runs in the results.
struct TimedRunner {
    engine: Engine,
    run_cells_s: f64,
    failed: u64,
}

impl TimedRunner {
    fn new(engine: Engine) -> TimedRunner {
        TimedRunner {
            engine,
            run_cells_s: 0.0,
            failed: 0,
        }
    }
}

impl CellRunner for TimedRunner {
    fn run_cells(&mut self, cells: &[Cell]) -> Result<Vec<CellResult>, LabError> {
        let start = Instant::now();
        let results = self.engine.run_cells(cells)?;
        self.run_cells_s += since(start);
        self.failed += results
            .iter()
            .map(|r| u64::from(r.timeouts) + u64::from(r.violations))
            .sum::<u64>();
        Ok(results)
    }

    fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    fn executed(&self) -> usize {
        self.engine.executed()
    }

    fn cache_hits(&self) -> usize {
        self.engine.cache_hits()
    }
}

/// One preset run (E3 or E7) on a fresh engine. The preset also writes its
/// telemetry artifact under `results/` in the working directory.
fn preset_pass(
    telemetry: &Telemetry,
    threads: usize,
    run: impl FnOnce(&mut dyn CellRunner, &mut dyn std::io::Write) -> Result<(), LabError>,
) -> Result<Pass, LabError> {
    let mut runner = TimedRunner::new(Engine::new(threads, telemetry.clone()));
    let mut out = Vec::new();
    let start = Instant::now();
    run(&mut runner, &mut out)?;
    let campaign_s = since(start);
    let mut pass = Pass {
        digest: fnv1a64(&out),
        failed: runner.failed,
        attributed_s: campaign_s,
        ..Pass::default()
    };
    pass.layers.extend([
        ("lab.run_cells_s", runner.run_cells_s),
        ("lab.render_s", campaign_s - runner.run_cells_s),
    ]);
    Ok(pass)
}

// ---------------------------------------------------------------------------
// campaign_grid
// ---------------------------------------------------------------------------

struct GridInputs {
    spec: CampaignSpec,
    spec_hash: String,
    cells: usize,
}

/// The grid campaign: SynRan under the balancer, two runs per cell, two
/// sizes, `seeds` consecutive base seeds from `seed`.
fn grid_spec_text(seed: u64, seeds: u64) -> String {
    let seeds: Vec<String> = (0..seeds)
        .map(|k| seed.wrapping_add(k).to_string())
        .collect();
    format!(
        "campaign = bench_grid\nprotocol = synran\nadversary = balancer\nruns = 2\n\
         sweep n = 16,32\nsweep seed = {}\n",
        seeds.join(",")
    )
}

/// One run of the grid campaign appending to `journal`, on a new engine
/// whose cache is `cache`. Returns the render and the runner.
fn grid_run(
    x: &GridInputs,
    telemetry: &Telemetry,
    threads: usize,
    mut journal: Journal,
    cache: CellCache,
) -> Result<(Vec<u8>, TimedRunner), LabError> {
    journal.append_header(x.spec.name(), x.cells, &x.spec_hash)?;
    let engine = Engine::new(threads, telemetry.clone()).with_journal(journal, cache);
    let mut runner = TimedRunner::new(engine);
    let mut out = Vec::new();
    presets::run_campaign(&x.spec, &mut runner, &mut out)?;
    Ok((out, runner))
}

/// Keeps the journal's header line plus its first `cells` cell lines —
/// the state a campaign killed halfway leaves behind.
fn cut_journal(path: &Path, cells: usize) -> std::io::Result<()> {
    let text = std::fs::read_to_string(path)?;
    let kept: String = text.split_inclusive('\n').take(cells + 1).collect();
    std::fs::write(path, kept)
}

fn grid_pass(x: &GridInputs, telemetry: &Telemetry, threads: usize) -> Result<Pass, LabError> {
    let path = Path::new("results").join(format!("{}.journal.jsonl", x.spec.name()));
    let mut pass = Pass::default();

    let start = Instant::now();
    let journal = Journal::create_fresh(&path)?;
    let (fresh, fresh_runner) = grid_run(x, telemetry, threads, journal, CellCache::new())?;
    let fresh_s = since(start);
    let journal_bytes = std::fs::metadata(&path)?.len();

    let start = Instant::now();
    let (journal, cache) = Journal::open(&path)?;
    let warm_load_s = since(start);
    let (warm, warm_runner) = grid_run(x, telemetry, threads, journal, cache)?;
    let warm_s = since(start);

    let half = x.cells / 2;
    cut_journal(&path, half)?;
    let start = Instant::now();
    let (journal, cache) = Journal::open(&path)?;
    let resume_load_s = since(start);
    let (resumed, resume_runner) = grid_run(x, telemetry, threads, journal, cache)?;
    let resume_s = since(start);

    for (label, render) in [("warm", &warm), ("resume", &resumed)] {
        if *render != fresh {
            pass.errors
                .push(format!("{label} render differs from the fresh render"));
        }
    }
    for (label, runner, executed, cached) in [
        ("fresh", &fresh_runner, x.cells, 0),
        ("warm", &warm_runner, 0, x.cells),
        ("resume", &resume_runner, x.cells - half, half),
    ] {
        if (runner.executed(), runner.cache_hits()) != (executed, cached) {
            pass.errors.push(format!(
                "{label} run executed {} and reused {} cells, expected {executed} and {cached}",
                runner.executed(),
                runner.cache_hits()
            ));
        }
    }

    pass.digest = fnv1a64(&fresh);
    pass.failed = fresh_runner.failed;
    pass.attributed_s = fresh_s + warm_s + resume_s;
    let run_cells_s =
        fresh_runner.run_cells_s + warm_runner.run_cells_s + resume_runner.run_cells_s;
    let load_s = warm_load_s + resume_load_s;
    #[allow(clippy::cast_precision_loss)]
    pass.layers.extend([
        ("lab.run_cells_s", run_cells_s),
        ("lab.run_cells_fresh_s", fresh_runner.run_cells_s),
        ("lab.run_cells_warm_s", warm_runner.run_cells_s),
        ("lab.run_cells_resume_s", resume_runner.run_cells_s),
        (
            "lab.render_s",
            fresh_s + warm_s + resume_s - run_cells_s - load_s,
        ),
        ("lab.journal_load_s", load_s),
        ("lab.journal_bytes", journal_bytes as f64),
        ("lab.warm_s", warm_s),
        ("lab.resume_s", resume_s),
    ]);
    Ok(pass)
}

/// Σ of serial [`run_cell`] times over the grid's cells: the execution
/// work inside `run_cells`, without the engine around it.
///
/// # Errors
///
/// Returns the first cell's execution error.
pub fn serial_cell_exec_s(prepared: &Prepared) -> Result<f64, LabError> {
    let Inputs::Grid(x) = &prepared.inputs else {
        return Ok(0.0);
    };
    let cells = presets::campaign_cells(&x.spec)?;
    let off = Telemetry::off();
    let mut total = 0.0;
    for cell in &cells {
        let start = Instant::now();
        std::hint::black_box(run_cell(cell, &off)?);
        total += since(start);
    }
    Ok(total)
}
