//! The sharded campaign scheduler.
//!
//! [`Engine::run_cells`] spreads a campaign's runs across worker threads
//! and folds the results **in cell order**, so the merged output is
//! byte-identical at every thread count — the same contract the batch
//! runner keeps.
//!
//! The unit of parallel work is one **run**, not one cell: `run_cells`
//! makes one [`par_each_in_order`](synran_sim::parallel::par_each_in_order)
//! call over the flat `(cell, run)` index space of all its pending cells,
//! and the participants claim runs one at a time, so a few expensive cells
//! still keep every worker busy until their last run. No run starts more
//! than `threads × 4` cells' worth of runs ahead of the fold. Each cell is
//! folded, journaled (in cell order) and counted toward the heartbeat as
//! its last run lands, so a killed campaign loses at most one window of
//! cells in flight, and the journal's line order is a pure function of the
//! cell list, never of scheduling.
//!
//! Cells already present in the cache — from this campaign's journal, or
//! imported from another's — are skipped and their recorded results
//! spliced into the fold.
//!
//! The bookkeeping is linear in the cell count. One hash-map pass groups
//! the un-cached cells by content hash: the first index of each hash is
//! its *leader*, which executes once and is journaled, and the later
//! indices are its duplicates, filled when their leader lands.

use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::time::Instant;

use synran_sim::{parallel, Telemetry};

use crate::cell::{Cell, CellResult};
use crate::journal::{load_cache, CellCache, Journal};
use crate::progress::{Heartbeat, ProgressSink};
use crate::registry::run_cells_in_order;
use crate::LabError;

/// An attached progress sink plus its emission cadence.
#[derive(Debug)]
struct Progress {
    every: usize,
    sink: Box<dyn ProgressSink>,
}

/// Anything that can execute a campaign's cell list. [`Engine`] is the
/// runner; the trait lets a caller wrap it (to time or count its calls)
/// without the presets knowing. Presets render against this trait, so a
/// campaign's stdout is a pure function of the results.
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

/// One distinct un-cached cell: its first index in the list (the
/// *leader*, which executes and is journaled) and the later indices with
/// the same hash, which share the leader's result.
struct Pending {
    leader: usize,
    duplicates: Vec<usize>,
}

/// The leaders in cell order — the canonical execution (and journal)
/// order — each with its in-list duplicates. One hash-map pass, so the
/// cost is linear in the list length.
fn pending_order(hashes: &[String], results: &[Option<CellResult>]) -> Vec<Pending> {
    let mut slot_of: HashMap<&str, usize> = HashMap::new();
    let mut pending: Vec<Pending> = Vec::new();
    for (i, result) in results.iter().enumerate() {
        if result.is_some() {
            continue;
        }
        match slot_of.entry(hashes[i].as_str()) {
            Entry::Occupied(slot) => pending[*slot.get()].duplicates.push(i),
            Entry::Vacant(slot) => {
                slot.insert(pending.len());
                pending.push(Pending {
                    leader: i,
                    duplicates: Vec::new(),
                });
            }
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
    /// Cached cells are skipped; fresh cells execute on the worker threads
    /// and are journaled, in cell order, each as its last run lands.
    /// Duplicate cells within the list execute once, at their first index,
    /// and count as done when that index lands.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell's error **by cell order** — within
    /// it, the lowest failing run's — whatever the thread count, or an I/O
    /// error from the journal. The cells before the failing one are
    /// journaled; it and the cells after it are not.
    pub fn run_cells(&mut self, cells: &[Cell]) -> Result<Vec<CellResult>, LabError> {
        let start = Instant::now();
        let hashes: Vec<String> = cells.iter().map(Cell::content_hash).collect();
        let mut results: Vec<Option<CellResult>> =
            hashes.iter().map(|h| self.cache.get(h).cloned()).collect();
        let warm = results.iter().filter(|r| r.is_some()).count();
        self.cache_hits += warm;

        let pending = pending_order(&hashes, &results);

        let mut run_executed = 0usize;
        let mut done = warm;
        let mut last_beat = 0usize;
        self.emit_heartbeat(warm, cells.len(), 0, warm, start);

        if !pending.is_empty() {
            let leaders: Vec<&Cell> = pending.iter().map(|p| &cells[p.leader]).collect();
            let window = parallel::resolve_threads(self.threads).max(1) * 4;
            let (threads, telemetry) = (self.threads, self.telemetry.clone());
            let mut landed = pending.iter();
            run_cells_in_order(&leaders, threads, window, &telemetry, |outcome| {
                let p = landed.next().expect("one outcome per leader");
                let result = CellResult::from(&outcome);
                for &i in &p.duplicates {
                    results[i] = Some(result.clone());
                }
                results[p.leader] = Some(result.clone());
                self.record(&cells[p.leader], &hashes[p.leader], result)?;
                run_executed += 1;
                done += 1 + p.duplicates.len();
                if let Some(progress) = &self.progress {
                    if done - last_beat >= progress.every || done == cells.len() {
                        last_beat = done;
                        self.emit_heartbeat(done, cells.len(), run_executed, warm, start);
                    }
                }
                Ok(())
            })?;
        }

        self.finish_counters(cells.len(), run_executed, warm, start);

        Ok(results
            .into_iter()
            .map(|r| r.expect("every cell executed or cached"))
            .collect())
    }

    /// Records one freshly-executed cell: journal append (flushed),
    /// cache insert, executed tally.
    fn record(&mut self, cell: &Cell, hash: &str, result: CellResult) -> Result<(), LabError> {
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
    fn finish_counters(&self, total: usize, run_executed: usize, warm: usize, start: Instant) {
        self.telemetry.incr("lab.cells.total", total as u64);
        self.telemetry
            .incr("lab.cells.executed", run_executed as u64);
        self.telemetry.incr("lab.cells.cached", warm as u64);
        #[allow(clippy::cast_possible_truncation)]
        self.telemetry
            .incr("lab.elapsed_ns", start.elapsed().as_nanos() as u64);
    }

    /// Emits one heartbeat from the serial fold, if a sink is attached.
    /// Reads the clock but writes nothing except to the sink.
    fn emit_heartbeat(
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
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::scan_journal;
    use crate::progress::MemoryProgress;
    use crate::registry::run_cell;
    use std::path::PathBuf;
    use synran_sim::SimRng;

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

    /// A progress sink we can inspect after the engine is done: it
    /// forwards into a shared buffer.
    #[derive(Debug, Default, Clone)]
    struct Shared(std::sync::Arc<std::sync::Mutex<MemoryProgress>>);
    impl ProgressSink for Shared {
        fn heartbeat(&mut self, beat: &Heartbeat) {
            self.0.lock().unwrap().heartbeat(beat);
        }
    }

    /// The quadratic reference for [`pending_order`]: first index per
    /// distinct un-cached hash, in cell order.
    fn pending_order_reference(hashes: &[String], results: &[Option<CellResult>]) -> Vec<usize> {
        let mut pending: Vec<usize> = Vec::new();
        for (i, result) in results.iter().enumerate() {
            if result.is_none() && !pending.iter().any(|&p| hashes[p] == hashes[i]) {
                pending.push(i);
            }
        }
        pending
    }

    #[test]
    fn pending_order_matches_the_quadratic_reference() {
        for (seed, len) in [(1u64, 300usize), (2, 1_000), (3, 4_000), (4, 10_000)] {
            let mut rng = SimRng::new(seed);
            // About four copies of each hash, and a fifth of the slots
            // pre-cached.
            let distinct = (len / 4) as u64;
            let hashes: Vec<String> = (0..len)
                .map(|_| format!("h{}", rng.below(distinct)))
                .collect();
            let results: Vec<Option<CellResult>> = (0..len)
                .map(|_| rng.chance(0.2).then(CellResult::default))
                .collect();

            let pending = pending_order(&hashes, &results);
            let leaders: Vec<usize> = pending.iter().map(|p| p.leader).collect();
            assert_eq!(
                leaders,
                pending_order_reference(&hashes, &results),
                "seed {seed}"
            );

            // Every un-cached index is a leader or exactly one leader's
            // duplicate; each duplicate is later than its leader, shares
            // its hash, and the duplicates are listed in cell order.
            let mut owner: Vec<Option<usize>> = vec![None; len];
            for p in &pending {
                assert!(owner[p.leader].replace(p.leader).is_none());
                let mut previous = p.leader;
                for &i in &p.duplicates {
                    assert!(i > previous, "seed {seed}: duplicates in cell order");
                    assert_eq!(hashes[i], hashes[p.leader], "seed {seed}");
                    assert!(owner[i].replace(p.leader).is_none(), "seed {seed}");
                    previous = i;
                }
            }
            for (i, result) in results.iter().enumerate() {
                assert_eq!(
                    owner[i].is_some(),
                    result.is_none(),
                    "seed {seed}, slot {i}"
                );
            }
        }
    }

    /// Cheap passive cells with distinct seeds.
    fn cheap(count: usize) -> Vec<Cell> {
        (0..count)
            .map(|k| {
                let mut cell = Cell::new("synran", "passive", 8);
                cell.runs = 1;
                cell.seed = 100 + k as u64;
                cell
            })
            .collect()
    }

    #[test]
    fn duplicates_across_windows_and_the_cache_resolve_once() {
        let dir = tmpdir("dups");
        for threads in [1usize, 2, 8] {
            // Longer than two windows of `threads × 4` cells at every
            // thread count.
            let mut cells = cheap(2 * 8 * 4 + 6);
            let cached = cells[5].clone();
            cells.push(cached.clone()); // a second copy of a cached cell
            cells.push(cells[0].clone()); // in-list duplicate, last window
            let per_cell: Vec<CellResult> = cells
                .iter()
                .map(|cell| run_cell(cell, &Telemetry::off()).unwrap())
                .collect();

            let path = dir.join(format!("t{threads}.journal.jsonl"));
            let _ = std::fs::remove_file(&path);
            let (journal, cache) = Journal::open(&path).unwrap();
            let sink = Shared::default();
            let mut engine = Engine::new(threads, Telemetry::off())
                .with_journal(journal, cache)
                .with_progress(1, Box::new(sink.clone()));
            engine.run_cells(std::slice::from_ref(&cached)).unwrap();
            assert_eq!(engine.executed(), 1);
            let beats_before = sink.0.lock().unwrap().beats.len();

            let results = engine.run_cells(&cells).unwrap();
            assert_eq!(results, per_cell, "threads = {threads}");
            // Distinct un-cached: all but the two copies of the cached
            // cell and the duplicate of cell 0.
            let fresh = cells.len() - 3;
            assert_eq!(engine.executed(), 1 + fresh, "threads = {threads}");
            assert_eq!(engine.cache_hits(), 2, "threads = {threads}");
            drop(engine);

            let scan = scan_journal(&path).unwrap();
            assert_eq!(scan.lines, 1 + fresh, "threads = {threads}");
            assert_eq!(scan.entries, scan.lines, "threads = {threads}");
            assert_eq!(scan.rows.len(), scan.entries, "one line per cell");

            let beats = sink.0.lock().unwrap().beats[beats_before..].to_vec();
            assert!(
                beats.windows(2).all(|w| w[0].done <= w[1].done),
                "threads = {threads}: done never decreases"
            );
            assert_eq!(beats[0].done, 2, "threads = {threads}");
            assert_eq!(beats.last().unwrap().done, cells.len());
        }
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
    fn a_failing_cell_leaves_exactly_the_cells_before_it_journaled() {
        let dir = tmpdir("failing");
        // Longer than one window of `threads × 4` cells at every thread
        // count below, with the failing cell past the first window.
        let mut cells = cheap(40);
        let failing = 29;
        cells[failing].protocol = "bogus".into();
        let open = |name: &str| {
            let path = dir.join(name);
            let _ = std::fs::remove_file(&path);
            let (journal, cache) = Journal::open(&path).unwrap();
            (path, journal, cache)
        };
        let (before, journal, cache) = open("before.journal.jsonl");
        Engine::new(1, Telemetry::off())
            .with_journal(journal, cache)
            .run_cells(&cells[..failing])
            .unwrap();
        let want = std::fs::read(&before).unwrap();
        assert_eq!(scan_journal(&before).unwrap().entries, failing);
        for threads in [1, 2, 4] {
            let (path, journal, cache) = open(&format!("t{threads}.journal.jsonl"));
            let err = Engine::new(threads, Telemetry::off())
                .with_journal(journal, cache)
                .run_cells(&cells)
                .unwrap_err();
            assert!(
                err.to_string().contains("bogus"),
                "threads {threads}: {err}"
            );
            assert_eq!(
                std::fs::read(&path).unwrap(),
                want,
                "threads = {threads}: the journal holds exactly the cells before the failing one"
            );
        }
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
