//! The sharded campaign scheduler.
//!
//! [`Engine::run_cells`] spreads a campaign's runs across worker threads
//! via [`synran_sim::parallel`] and folds the results **in cell order**,
//! so the merged output is byte-identical at every thread count — the
//! same contract the fork-evaluation engine and the batch runner keep.
//!
//! Execution proceeds in *waves* of `threads × 4` cells: each wave is
//! evaluated in parallel, then appended to the journal in cell order
//! before the next wave starts. A killed campaign therefore loses at most
//! one in-flight wave, and the journal's line order is itself a pure
//! function of the cell list (never of scheduling).
//!
//! The unit of parallel work is one **run**, not one cell: a wave is one
//! dispatch over its cells' flat `(cell, run)` index space, and pool
//! participants claim runs one at a time, so a wave of a few expensive
//! cells still keeps every worker busy until its last run. Each cell's
//! runs are then folded in run order straight into its [`CellResult`].
//!
//! Waves dispatch onto the persistent worker pool in
//! [`synran_sim::parallel`]: the helper threads are spawned by the first
//! wave and re-used by every later wave (and by any nested fan-out a run
//! performs — nested dispatches fall back inline, deterministically), so
//! a thousand-wave campaign pays thread-spawn cost exactly once.
//!
//! Cells already present in the cache — from this campaign's journal, or
//! imported from another's — are skipped and their recorded results
//! spliced into the fold.

use std::path::Path;
use std::time::Instant;

use synran_sim::{parallel, Telemetry};

use crate::cell::{Cell, CellResult};
use crate::journal::{load_cache, CellCache, Journal};
use crate::progress::{Heartbeat, ProgressSink};
use crate::registry::run_cells_flat;
use crate::LabError;

/// An attached progress sink plus its emission cadence.
#[derive(Debug)]
struct Progress {
    every: usize,
    sink: Box<dyn ProgressSink>,
}

/// Anything that can execute a campaign's cell list: the in-process
/// [`Engine`], or the multi-process [`Fleet`](crate::fleet::Fleet) that
/// shards the same list across worker subprocesses. Presets render
/// against this trait, so a campaign's stdout is a pure function of the
/// results whichever runner produced them.
pub trait CellRunner {
    /// Runs the cells and returns their results in cell order. Same
    /// contract as [`Engine::run_cells`]: cached cells are spliced in,
    /// duplicates execute once, and the first failing cell's error is
    /// returned **by cell order**.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error by cell order, or an I/O
    /// error from the journal.
    fn run_cells(&mut self, cells: &[Cell]) -> Result<Vec<CellResult>, LabError>;

    /// The telemetry handle the runner records into.
    fn telemetry(&self) -> &Telemetry;

    /// Cells actually executed so far (cache misses).
    fn executed(&self) -> usize;

    /// Cells answered from the cache so far.
    fn cache_hits(&self) -> usize;
}

impl CellRunner for Engine {
    fn run_cells(&mut self, cells: &[Cell]) -> Result<Vec<CellResult>, LabError> {
        Engine::run_cells(self, cells)
    }

    fn telemetry(&self) -> &Telemetry {
        Engine::telemetry(self)
    }

    fn executed(&self) -> usize {
        Engine::executed(self)
    }

    fn cache_hits(&self) -> usize {
        Engine::cache_hits(self)
    }
}

/// First index per distinct un-cached hash, in cell order — the canonical
/// execution (and journal) order every runner must follow. Duplicates
/// within the list run once and share the result.
pub(crate) fn pending_order(hashes: &[String], results: &[Option<CellResult>]) -> Vec<usize> {
    let mut pending: Vec<usize> = Vec::new();
    for (i, result) in results.iter().enumerate() {
        if result.is_none() && !pending.iter().any(|&p| hashes[p] == hashes[i]) {
            pending.push(i);
        }
    }
    pending
}

/// The sharded, cache-aware campaign executor.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    telemetry: Telemetry,
    cache: CellCache,
    journal: Option<Journal>,
    progress: Option<Progress>,
    executed: usize,
    cache_hits: usize,
}

impl Engine {
    /// An engine with `threads` workers (0 = all cores) recording into
    /// `telemetry`, with an empty cache and no journal.
    #[must_use]
    pub fn new(threads: usize, telemetry: Telemetry) -> Engine {
        Engine {
            threads,
            telemetry,
            cache: CellCache::new(),
            journal: None,
            progress: None,
            executed: 0,
            cache_hits: 0,
        }
    }

    /// Attaches a progress sink: a [`Heartbeat`] is emitted from the
    /// serial fold every `every` completed cells (and once at the end of
    /// each run). Observe-only — attaching a sink never changes results,
    /// journal bytes, or stdout (pinned by `progress_is_observe_only`).
    #[must_use]
    pub fn with_progress(mut self, every: usize, sink: Box<dyn ProgressSink>) -> Engine {
        self.progress = Some(Progress {
            every: every.max(1),
            sink,
        });
        self
    }

    /// Attaches an open journal and merges the entries it already holds
    /// into the cache (the resume path).
    #[must_use]
    pub fn with_journal(mut self, journal: Journal, cache: CellCache) -> Engine {
        self.journal = Some(journal);
        self.cache.extend(cache);
        self
    }

    /// Imports another campaign's journal read-only for cross-campaign
    /// dedup. Returns the number of entries merged.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if `path` exists but cannot be read.
    pub fn import_cache(&mut self, path: &Path) -> Result<usize, LabError> {
        let imported = load_cache(path)?;
        let count = imported.len();
        self.cache.extend(imported);
        Ok(count)
    }

    /// The telemetry handle every cell execution records into.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Cells actually executed so far (cache misses).
    #[must_use]
    pub fn executed(&self) -> usize {
        self.executed
    }

    /// Cells answered from the cache so far.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Runs a campaign's cell list and returns its results in cell order.
    ///
    /// Cached cells are skipped; fresh cells execute on the worker pool in
    /// waves and are journaled (in cell order) as each wave completes.
    /// Duplicate cells within the list execute once.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error **by cell order** — within
    /// it, the lowest failing run's — whatever the thread count, or an I/O
    /// error from the journal. The failing cell's wave is not journaled.
    pub fn run_cells(&mut self, cells: &[Cell]) -> Result<Vec<CellResult>, LabError> {
        let start = Instant::now();
        let hashes: Vec<String> = cells.iter().map(Cell::content_hash).collect();
        let mut results: Vec<Option<CellResult>> =
            hashes.iter().map(|h| self.cache.get(h).cloned()).collect();
        let warm = results.iter().filter(|r| r.is_some()).count();
        self.cache_hits += warm;

        let pending = pending_order(&hashes, &results);

        let mut run_executed = 0usize;
        let mut last_beat = 0usize;
        self.emit_heartbeat(warm, cells.len(), 0, warm, start);

        let workers = parallel::resolve_threads(self.threads).max(1);
        for wave in pending.chunks(workers * 4) {
            let wave_cells: Vec<&Cell> = wave.iter().map(|&i| &cells[i]).collect();
            let outs = run_cells_flat(&wave_cells, self.threads, &self.telemetry)?;
            for (&i, result) in wave.iter().zip(outs) {
                self.record(&cells[i], &hashes[i], result)?;
                run_executed += 1;
            }
            // Splice the wave (and any in-list duplicates) from the cache.
            for (i, slot) in results.iter_mut().enumerate() {
                if slot.is_none() {
                    *slot = self.cache.get(&hashes[i]).cloned();
                }
            }
            let done = results.iter().filter(|r| r.is_some()).count();
            if let Some(progress) = &self.progress {
                if done - last_beat >= progress.every || done == cells.len() {
                    last_beat = done;
                    self.emit_heartbeat(done, cells.len(), run_executed, warm, start);
                }
            }
        }

        self.finish_counters(cells.len(), run_executed, warm, start);

        Ok(results
            .into_iter()
            .map(|r| r.expect("every cell executed or cached"))
            .collect())
    }

    /// A cached result by content hash, cloned out of the cache.
    pub(crate) fn cache_get(&self, hash: &str) -> Option<CellResult> {
        self.cache.get(hash).cloned()
    }

    /// Accounts `n` cache hits without running anything — for runners
    /// that perform their own cache splice before delegating record-
    /// keeping back to the engine.
    pub(crate) fn note_cache_hits(&mut self, n: usize) {
        self.cache_hits += n;
    }

    /// The attached journal's file path, if any.
    pub(crate) fn journal_path(&self) -> Option<&Path> {
        self.journal.as_ref().map(Journal::path)
    }

    /// The progress cadence, if a sink is attached.
    pub(crate) fn progress_every(&self) -> Option<usize> {
        self.progress.as_ref().map(|p| p.every)
    }

    /// Records one freshly-executed cell: journal append (flushed),
    /// cache insert, executed tally. The single write path every runner
    /// funnels through, so journal bytes cannot diverge between them.
    pub(crate) fn record(
        &mut self,
        cell: &Cell,
        hash: &str,
        result: CellResult,
    ) -> Result<(), LabError> {
        if let Some(journal) = &mut self.journal {
            journal.append(cell, &result)?;
        }
        self.cache.insert(hash.to_string(), result);
        self.executed += 1;
        Ok(())
    }

    /// Emits the observe-only end-of-run counters for `synran report`
    /// (cells/sec, cache hit rate). Accumulated across runs on the same
    /// telemetry handle.
    pub(crate) fn finish_counters(
        &self,
        total: usize,
        run_executed: usize,
        warm: usize,
        start: Instant,
    ) {
        self.telemetry.incr("lab.cells.total", total as u64);
        self.telemetry
            .incr("lab.cells.executed", run_executed as u64);
        self.telemetry.incr("lab.cells.cached", warm as u64);
        #[allow(clippy::cast_possible_truncation)]
        self.telemetry
            .incr("lab.elapsed_ns", start.elapsed().as_nanos() as u64);
    }

    /// Emits one heartbeat from the serial fold, if a sink is attached.
    /// Reads clocks and pool stats but writes nothing except to the sink.
    pub(crate) fn emit_heartbeat(
        &mut self,
        done: usize,
        total: usize,
        executed: usize,
        cache_hits: usize,
        start: Instant,
    ) {
        let Some(progress) = &mut self.progress else {
            return;
        };
        let elapsed = start.elapsed().as_secs_f64();
        #[allow(clippy::cast_precision_loss)]
        let cells_per_sec = if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        };
        #[allow(clippy::cast_precision_loss)]
        let eta_secs = if cells_per_sec > 0.0 {
            (total - done) as f64 / cells_per_sec
        } else {
            0.0
        };
        progress.sink.heartbeat(&Heartbeat {
            done,
            total,
            executed,
            cache_hits,
            cells_per_sec,
            eta_secs,
            pool: parallel::global_pool().stats(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::run_cell;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("synran-lab-engine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn grid() -> Vec<Cell> {
        let mut cells = Vec::new();
        for n in [8usize, 10, 12] {
            for seed in [1u64, 2] {
                let mut cell = Cell::new("synran", "balancer", n);
                cell.runs = 3;
                cell.seed = seed;
                cell.max_rounds = 100_000;
                cells.push(cell);
            }
        }
        cells
    }

    /// Cheap passive `n = 8` cells interleaved with lower-bound `n = 32`
    /// cells (each run scores candidates over hundreds of forks), with
    /// 1 to 5 runs per cell: per-run cost varies by orders of magnitude.
    fn heterogeneous() -> Vec<Cell> {
        [1usize, 3, 5, 2, 4, 1, 5, 2]
            .into_iter()
            .enumerate()
            .map(|(k, runs)| {
                let mut cell = if k % 2 == 0 {
                    Cell::new("synran", "passive", 8)
                } else {
                    let mut cell = Cell::new("synran", "lower-bound", 32);
                    cell.cap = 8;
                    cell.samples = 2;
                    cell.horizon = 20;
                    cell
                };
                cell.runs = runs;
                cell.seed = 10 + k as u64;
                cell
            })
            .collect()
    }

    #[test]
    fn heterogeneous_cells_match_run_cell_at_every_thread_count() {
        let cells = heterogeneous();
        let per_cell: Vec<CellResult> = cells
            .iter()
            .map(|cell| run_cell(cell, &Telemetry::off()).unwrap())
            .collect();
        let dir = tmpdir("hetero");
        let mut journals = Vec::new();
        for threads in [1, 2, 8] {
            let path = dir.join(format!("t{threads}.journal.jsonl"));
            let _ = std::fs::remove_file(&path);
            let (journal, cache) = Journal::open(&path).unwrap();
            let results = Engine::new(threads, Telemetry::off())
                .with_journal(journal, cache)
                .run_cells(&cells)
                .unwrap();
            assert_eq!(results, per_cell, "threads = {threads}");
            journals.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(journals[0], journals[1], "journal bytes, threads 1 vs 2");
        assert_eq!(journals[0], journals[2], "journal bytes, threads 1 vs 8");
    }

    #[test]
    fn invalid_cell_mid_list_fails_with_its_own_error() {
        let mut cells = heterogeneous();
        let mut invalid = Cell::new("synran", "passive", 8);
        invalid.ones = 9;
        cells.insert(3, invalid.clone());
        let alone = run_cell(&invalid, &Telemetry::off())
            .unwrap_err()
            .to_string();
        assert_eq!(alone, "spec error: ones = 9 exceeds n = 8");
        for threads in [1, 2, 8] {
            let err = Engine::new(threads, Telemetry::off())
                .run_cells(&cells)
                .unwrap_err();
            assert_eq!(err.to_string(), alone, "threads = {threads}");
        }
    }

    #[test]
    fn results_are_identical_at_every_thread_count() {
        let cells = grid();
        let baseline = Engine::new(1, Telemetry::off()).run_cells(&cells).unwrap();
        for threads in [2, 4, 8] {
            let results = Engine::new(threads, Telemetry::off())
                .run_cells(&cells)
                .unwrap();
            assert_eq!(results, baseline, "threads = {threads}");
        }
    }

    #[test]
    fn cache_short_circuits_and_duplicates_run_once() {
        let mut cells = grid();
        cells.push(cells[0].clone()); // in-list duplicate
        let mut engine = Engine::new(2, Telemetry::off());
        let first = engine.run_cells(&cells).unwrap();
        assert_eq!(engine.executed(), cells.len() - 1, "duplicate ran once");
        assert_eq!(first[0], *first.last().unwrap());

        let again = engine.run_cells(&cells).unwrap();
        assert_eq!(again, first);
        assert_eq!(engine.executed(), cells.len() - 1, "all cached on rerun");
        assert_eq!(engine.cache_hits(), cells.len());
    }

    #[test]
    fn journal_backs_the_cache_across_engines() {
        let path = tmpdir("cache").join("demo.journal.jsonl");
        let cells = grid();
        let (journal, cache) = Journal::open(&path).unwrap();
        let mut engine = Engine::new(1, Telemetry::off()).with_journal(journal, cache);
        let baseline = engine.run_cells(&cells).unwrap();
        assert_eq!(engine.executed(), cells.len());
        drop(engine);

        let (journal, cache) = Journal::open(&path).unwrap();
        let mut resumed = Engine::new(4, Telemetry::off()).with_journal(journal, cache);
        let results = resumed.run_cells(&cells).unwrap();
        assert_eq!(results, baseline);
        assert_eq!(resumed.executed(), 0, "fully warm journal");

        // Cross-campaign dedup: a different engine imports the journal.
        let mut importer = Engine::new(1, Telemetry::off());
        assert_eq!(importer.import_cache(&path).unwrap(), cells.len());
        importer.run_cells(&cells[..2]).unwrap();
        assert_eq!(importer.executed(), 0);
    }

    #[test]
    fn progress_is_observe_only() {
        use crate::progress::MemoryProgress;

        let cells = grid();
        let dir = tmpdir("progress");

        // Without progress.
        let plain_path = dir.join("plain.journal.jsonl");
        let (journal, cache) = Journal::open(&plain_path).unwrap();
        let baseline = Engine::new(2, Telemetry::off())
            .with_journal(journal, cache)
            .run_cells(&cells)
            .unwrap();

        // With progress, every cell.
        let beat_path = dir.join("beats.journal.jsonl");
        let (journal, cache) = Journal::open(&beat_path).unwrap();
        let mut engine = Engine::new(2, Telemetry::off())
            .with_journal(journal, cache)
            .with_progress(1, Box::new(MemoryProgress::default()));
        let observed = engine.run_cells(&cells).unwrap();
        drop(engine);

        assert_eq!(observed, baseline, "results identical with progress on");
        assert_eq!(
            std::fs::read(&plain_path).unwrap(),
            std::fs::read(&beat_path).unwrap(),
            "journal bytes identical with progress on"
        );
    }

    #[test]
    fn heartbeats_track_completion() {
        use crate::progress::{MemoryProgress, ProgressSink};

        // A sink we can inspect after the engine is done: forward into a
        // shared buffer.
        #[derive(Debug, Default, Clone)]
        struct Shared(std::sync::Arc<std::sync::Mutex<MemoryProgress>>);
        impl ProgressSink for Shared {
            fn heartbeat(&mut self, beat: &crate::progress::Heartbeat) {
                self.0.lock().unwrap().heartbeat(beat);
            }
        }

        let cells = grid();
        let sink = Shared::default();
        let mut engine = Engine::new(1, Telemetry::off()).with_progress(2, Box::new(sink.clone()));
        engine.run_cells(&cells).unwrap();
        let beats = sink.0.lock().unwrap().beats.clone();
        assert!(beats.len() >= 2, "initial + final at minimum");
        assert_eq!(beats[0].done, 0);
        let last = beats.last().unwrap();
        assert_eq!(last.done, cells.len());
        assert_eq!(last.total, cells.len());
        assert_eq!(last.executed, cells.len());
        assert!((last.percent() - 100.0).abs() < 1e-9);

        // Second run: everything cached, the initial heartbeat already
        // reports completion.
        engine.run_cells(&cells).unwrap();
        let beats = sink.0.lock().unwrap().beats.clone();
        let first_of_second = &beats[beats.len() - 1];
        assert_eq!(first_of_second.done, cells.len());
        assert_eq!(first_of_second.cache_hits, cells.len());
    }

    #[test]
    fn error_is_deterministic_by_cell_order() {
        let mut cells = grid();
        cells[1].protocol = "bogus".into();
        cells[4].protocol = "bogus".into();
        for threads in [1, 4] {
            let err = Engine::new(threads, Telemetry::off())
                .run_cells(&cells)
                .unwrap_err();
            assert!(
                err.to_string().contains("bogus"),
                "threads {threads}: {err}"
            );
        }
    }
}
