//! Deterministic parallel fan-out for fork evaluation and seed batches.
//!
//! The valency estimator and the batch runner both evaluate many
//! *independent* continuations of a seeded computation: every unit of work
//! is a pure function of its index (the fork seed is derived from the index
//! through [`SimRng::derive`](crate::SimRng::derive), never from shared
//! state). That makes the fan-out embarrassingly parallel **and** lets us
//! promise something stronger than most thread pools do:
//!
//! > **Determinism contract.** For a pure `f`, `par_map(threads, total, f)`
//! > returns exactly `(0..total).map(f).collect()` — bit for bit — for
//! > *every* `threads` value. Worker count changes wall-clock time, never
//! > results.
//!
//! The contract holds because results are written into the output slot of
//! their *index*, not in completion order, and because nothing about the
//! work depends on which worker runs it. Reductions over the results must
//! preserve this: callers fold the returned `Vec` left-to-right (floating
//! point addition is not associative, so summing in completion order would
//! break replay determinism).
//!
//! # The persistent pool
//!
//! Fan-outs run on a process-wide [`WorkerPool`] of long-lived parked
//! threads ([`global_pool`]) instead of spawning fresh
//! [`std::thread::scope`] threads per call. The valency estimator calls
//! `par_map` hundreds of times per adversary decision; at ~100 µs per
//! thread spawn the old per-call scope threads cost more than the forks
//! they evaluated. Pool threads are spawned lazily on first use, parked on
//! a condvar between dispatches, and joined when the pool is dropped (the
//! global pool lives for the process).
//!
//! A dispatch engages `workers = min(threads, ceil(total / MIN_CHUNK))`
//! *participants* — the dispatching thread plus up to `workers − 1` pool
//! helpers — and each participant **claims indices one at a time** from a
//! shared atomic cursor until none are left. Work with uneven per-index
//! cost (one slow run among quick ones) therefore keeps every participant
//! busy until the last index is claimed, instead of leaving a worker idle
//! behind a fixed range that happened to be cheap. Which participant ran
//! which index depends on scheduling and is unobservable in the results:
//! every index is claimed exactly once and writes only its own output
//! slot, and the dispatcher blocks until every participant has finished.
//! What stays a pure function of `(total, threads)` is the participant
//! count, and hence the set of `parallel.worker` spans a dispatch records
//! (one per participant, indexed `0..workers`).

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::Telemetry;

/// Sentinel for "use all available parallelism" in thread-count knobs.
pub const AUTO_THREADS: usize = 0;

/// Minimum work units per engaged participant.
///
/// Waking a parked pool thread costs more than evaluating a handful of
/// small forks, so tiny fan-outs (the `n = 64` regime, estimator probes
/// with few samples) used to run *slower* parallel than serial. Capping
/// participants at `ceil(total / MIN_CHUNK)` makes small batches collapse
/// toward the inline path while leaving large batches unchanged — and the
/// participant count stays a pure function of `(total, threads)`.
pub const MIN_CHUNK: usize = 4;

/// This machine's available parallelism, probed once per process.
fn machine_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Resolves a requested thread count: [`AUTO_THREADS`] (`0`) becomes the
/// machine's available parallelism, and explicit requests are clamped to
/// it — oversubscribing a fan-out of CPU-bound chunks only adds context
/// switches, never throughput. The clamp floor is 2 so that explicitly
/// requesting parallelism keeps the parallel path (and its tests)
/// exercised even on single-core machines; the determinism contract makes
/// the floor observationally free.
///
/// # Examples
///
/// ```
/// use synran_sim::parallel::resolve_threads;
/// assert_eq!(resolve_threads(1), 1);
/// assert!(resolve_threads(0) >= 1);
/// // Oversubscription clamps to the machine, never below 2.
/// let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
/// assert_eq!(resolve_threads(1_000_000), cores.max(2));
/// ```
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    let available = machine_parallelism();
    if requested == AUTO_THREADS {
        available
    } else {
        requested.min(available.max(2))
    }
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Cumulative scheduling counters for one [`WorkerPool`].
///
/// The same values are recorded as `pool.spawned` / `pool.reused` /
/// `pool.tasks` telemetry counters on every dispatch (observe-only, like
/// the engine's `round.deliver.*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Helper threads created (lazily, by the first dispatch needing them).
    pub spawned: u64,
    /// Helper-thread engagements that re-used an already-running thread.
    pub reused: u64,
    /// Participants dispatched through the pool (excludes inline
    /// fallbacks).
    pub tasks: u64,
    /// Dispatches that ran entirely inline because the pool was busy
    /// (nested fan-out) — results are identical, only scheduling differs.
    pub inline: u64,
}

/// Type-erased pointer to the task closure of the dispatch in flight.
///
/// The pointee's borrow lifetime is erased so parked helper threads (which
/// outlive any one dispatch) can hold it; see the `SAFETY` notes in
/// [`WorkerPool::run`] for why every dereference happens while the
/// dispatching call is still on the stack.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (callable through `&` from any thread),
// and `WorkerPool::run` keeps it alive — it does not return until every
// claimed participant has finished running.
#[allow(unsafe_code)]
unsafe impl Send for JobPtr {}

/// Shared pool state: the published job and the participant-claim cursor.
struct PoolState {
    /// The dispatch in flight, if any.
    job: Option<JobPtr>,
    /// Next unclaimed participant index.
    next: usize,
    /// One past the last participant index of the current job.
    end: usize,
    /// Participants claimed but not yet finished.
    running: usize,
    /// Panic payloads carried out of participants, tagged with their index.
    panics: Vec<(usize, Box<dyn std::any::Any + Send>)>,
    /// Set by [`WorkerPool::drop`]; parked helpers exit when they see it.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Helpers park here between dispatches.
    work_cv: Condvar,
    /// The dispatcher parks here waiting for claimed participants to finish.
    done_cv: Condvar,
}

/// Tasks never panic while holding the state lock (participants run under
/// `catch_unwind` *outside* it), so a poisoned mutex carries no broken
/// invariant — recover the guard.
fn lock_state(shared: &PoolShared) -> MutexGuard<'_, PoolState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A persistent pool of parked worker threads for deterministic fan-out.
///
/// Threads are spawned lazily (the pool starts empty and grows to the
/// largest `workers - 1` any dispatch has needed), parked between
/// dispatches, and joined on [`Drop`]. All `par_map` entry points share
/// one process-wide instance ([`global_pool`]); separate instances exist
/// for tests that need isolated [`PoolStats`].
///
/// One dispatch runs at a time. If a dispatch arrives while another is in
/// flight — a work item fanning out again, or two instrumented worlds
/// estimating concurrently — it falls back to running its participants
/// inline on the caller, one after another, which is deterministically
/// identical (every index still lands in its own output slot) and cannot
/// deadlock.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Dispatch token + helper-thread handles. Held (via `try_lock`) for
    /// the whole of [`WorkerPool::run`], serialising dispatches.
    crew: Mutex<Vec<JoinHandle<()>>>,
    spawned: AtomicU64,
    reused: AtomicU64,
    tasks: AtomicU64,
    inline: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// Creates an empty pool; threads are spawned on first use.
    #[must_use]
    pub fn new() -> WorkerPool {
        WorkerPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    job: None,
                    next: 0,
                    end: 0,
                    running: 0,
                    panics: Vec::new(),
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            crew: Mutex::new(Vec::new()),
            spawned: AtomicU64::new(0),
            reused: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            inline: AtomicU64::new(0),
        }
    }

    /// Cumulative scheduling counters since the pool was created.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            spawned: self.spawned.load(Ordering::Relaxed),
            reused: self.reused.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
        }
    }

    /// Helper threads currently alive.
    #[must_use]
    pub fn threads_alive(&self) -> usize {
        self.crew
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs `task(0), …, task(participants - 1)`, each exactly once,
    /// spreading them across the caller and up to `participants - 1` pool
    /// helpers. Returns only after every participant has finished.
    /// Propagates the panic of the lowest panicking participant index.
    fn run(&self, telemetry: &Telemetry, participants: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!(
            participants >= 2,
            "single-participant dispatches run inline"
        );
        let Ok(mut crew) = self.crew.try_lock() else {
            // Pool busy (nested or concurrent fan-out): run inline. Every
            // index still lands in its own slot, so results are identical.
            self.inline.fetch_add(1, Ordering::Relaxed);
            run_participants_inline(participants, task);
            return;
        };

        // Lazily grow the crew. A failed spawn degrades gracefully: the
        // claim loop below guarantees the caller picks up any participant
        // no helper claims.
        let want = participants - 1;
        let before = crew.len().min(want);
        while crew.len() < want {
            let shared = Arc::clone(&self.shared);
            let name = format!("synran-worker-{}", crew.len());
            match std::thread::Builder::new()
                .name(name)
                .spawn(move || worker_loop(&shared))
            {
                Ok(handle) => crew.push(handle),
                Err(_) => break,
            }
        }
        let newly = (crew.len().min(want) - before) as u64;
        self.spawned.fetch_add(newly, Ordering::Relaxed);
        self.reused.fetch_add(before as u64, Ordering::Relaxed);
        self.tasks.fetch_add(participants as u64, Ordering::Relaxed);
        // Zero increments are skipped so the counters only materialise for
        // dispatches that actually spawned / re-used (mirrors how the
        // engine's `round.deliver.*` counters behave).
        if newly > 0 {
            telemetry.incr("pool.spawned", newly);
        }
        if before > 0 {
            telemetry.incr("pool.reused", before as u64);
        }
        telemetry.incr("pool.tasks", participants as u64);

        // Publish the job and wake the helpers.
        {
            let mut st = lock_state(&self.shared);
            debug_assert!(st.job.is_none() && st.running == 0);
            st.job = Some(erase_task(task));
            st.next = 0;
            st.end = participants;
            self.shared.work_cv.notify_all();
        }
        // The caller claims participants alongside the helpers: progress
        // never depends on a helper actually existing or waking up.
        loop {
            let w = {
                let mut st = lock_state(&self.shared);
                if st.next >= st.end {
                    break;
                }
                let w = st.next;
                st.next += 1;
                st.running += 1;
                w
            };
            let result = panic::catch_unwind(AssertUnwindSafe(|| task(w)));
            let mut st = lock_state(&self.shared);
            if let Err(payload) = result {
                st.panics.push((w, payload));
            }
            st.running -= 1;
        }
        // Wait for the helpers' claimed participants, then retire the job.
        // From here no thread holds the task pointer, so the borrow it
        // erased may end.
        let panics = {
            let mut st = lock_state(&self.shared);
            while st.running > 0 {
                st = self
                    .shared
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            std::mem::take(&mut st.panics)
        };
        drop(crew);
        if let Some((_, payload)) = panics.into_iter().min_by_key(|(w, _)| *w) {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock_state(&self.shared);
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        let crew = std::mem::take(self.crew.get_mut().unwrap_or_else(PoisonError::into_inner));
        for handle in crew {
            let _ = handle.join();
        }
    }
}

/// Inline fallback: the caller runs every participant itself, in index
/// order, with the same lowest-participant panic propagation as the pooled
/// path.
fn run_participants_inline(participants: usize, task: &(dyn Fn(usize) + Sync)) {
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for w in 0..participants {
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(w))) {
            first_panic.get_or_insert(payload);
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
}

/// Erases the task borrow's lifetime so parked helpers can hold the
/// pointer across their `'static` thread bodies.
#[allow(unsafe_code)]
fn erase_task<'a>(task: &'a (dyn Fn(usize) + Sync + 'a)) -> JobPtr {
    // SAFETY: lifetime-only transmute between identical fat-pointer
    // layouts. `WorkerPool::run` publishes the pointer after this call and
    // blocks until `running == 0` with no participant left to claim before
    // returning, so the pointee strictly outlives every dereference.
    let erased: &'static (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(task) };
    JobPtr(std::ptr::from_ref(erased))
}

/// Invokes the published job as participant `w`.
#[allow(unsafe_code)]
fn invoke(job: JobPtr, w: usize) {
    // SAFETY: `job` was published by a `WorkerPool::run` still blocked in
    // its wait loop — this worker's claim is counted in `running`, which
    // the dispatcher waits on before letting the closure's borrow end.
    let task = unsafe { &*job.0 };
    task(w);
}

/// Body of a parked helper thread: claim participants while a job is
/// published, park on `work_cv` otherwise, exit on shutdown.
fn worker_loop(shared: &PoolShared) {
    loop {
        let (job, w) = {
            let mut st = lock_state(shared);
            loop {
                if st.shutdown {
                    return;
                }
                if st.job.is_some() && st.next < st.end {
                    break;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let w = st.next;
            st.next += 1;
            st.running += 1;
            (st.job.expect("checked above"), w)
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| invoke(job, w)));
        let mut st = lock_state(shared);
        if let Err(payload) = result {
            st.panics.push((w, payload));
        }
        st.running -= 1;
        if st.next >= st.end && st.running == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// The process-wide pool behind [`par_map`] and friends.
///
/// Created empty on first call; its threads live for the process (the
/// static is never dropped), parked between dispatches.
#[must_use]
pub fn global_pool() -> &'static WorkerPool {
    static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
    GLOBAL.get_or_init(WorkerPool::new)
}

/// Exports the global pool's cumulative [`WorkerPool::stats`] into
/// `telemetry` as **fill-if-absent** gauges, so a JSONL counter dump
/// carries `pool.spawned` / `pool.reused` / `pool.tasks` / `pool.inline`
/// even when no pooled batch ran against this handle (e.g. a serial run,
/// or a handle attached after the batches finished). Dispatch-time
/// increments already recorded on the handle always win — this never
/// overwrites them. Observe-only, like every other telemetry write.
pub fn export_pool_stats(telemetry: &Telemetry) {
    let stats = global_pool().stats();
    telemetry.set_if_absent("pool.spawned", stats.spawned);
    telemetry.set_if_absent("pool.reused", stats.reused);
    telemetry.set_if_absent("pool.tasks", stats.tasks);
    telemetry.set_if_absent("pool.inline", stats.inline);
}

// ---------------------------------------------------------------------------
// par_map entry points
// ---------------------------------------------------------------------------

/// Write handle into the output slots, shared by raw pointer so
/// participants on different threads can fill the indices they claimed
/// concurrently.
struct SlotWriter<T> {
    base: *mut Option<T>,
}

impl<T> Clone for SlotWriter<T> {
    fn clone(&self) -> SlotWriter<T> {
        *self
    }
}
impl<T> Copy for SlotWriter<T> {}

// SAFETY: `SlotWriter` is only used by `par_map_pooled`, whose
// participants write only the indices they claimed from an atomic cursor
// (each index is claimed exactly once) into a buffer that outlives the
// dispatch; sending/sharing the pointer across the pool's threads is sound
// because no two threads ever touch the same slot.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SlotWriter<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SlotWriter<T> {}

impl<T> SlotWriter<T> {
    /// Writes `value` into slot `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the buffer `base` points into, the buffer
    /// must outlive the call, and no other thread may access slot `i`
    /// concurrently.
    #[allow(unsafe_code)]
    unsafe fn write(&self, i: usize, value: T) {
        // SAFETY: guaranteed by the caller per the contract above.
        unsafe { *self.base.add(i) = Some(value) };
    }
}

/// Maps `f` over `0..total` on up to `threads` pool workers.
///
/// Results are identical to the serial `(0..total).map(f)` regardless of
/// `threads` (see the module docs for the contract). `threads <= 1` runs
/// inline without touching the pool.
///
/// # Panics
///
/// Propagates the panic of the lowest panicking index (every index is
/// evaluated first).
pub fn par_map<T, F>(threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_in(&Telemetry::off(), threads, total, f)
}

/// [`par_map`] with telemetry: the fan-out is wrapped in a
/// `parallel.par_map` span, each participant records one `parallel.worker`
/// span attributed to its participant index (spans opened inside it on the
/// same thread inherit that index), the `parallel.tasks` counter
/// accumulates `total`, and pooled dispatches record the `pool.*`
/// scheduling counters.
///
/// Telemetry is observe-only — results are identical to [`par_map`] (and
/// to the serial map) for every `telemetry` handle and thread count.
///
/// # Panics
///
/// Propagates the panic of the lowest panicking index (every index is
/// evaluated first).
pub fn par_map_in<T, F>(telemetry: &Telemetry, threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_pooled(global_pool(), telemetry, threads, total, f)
}

/// [`par_map_in`] on an explicit [`WorkerPool`] instead of the global one.
///
/// Exists so tests (and benchmarks isolating [`PoolStats`]) can run the
/// full pooled path against a private pool; production callers use the
/// [`global_pool`] via [`par_map_in`].
///
/// # Panics
///
/// Propagates the panic of the lowest panicking index (every index is
/// evaluated first).
pub fn par_map_pooled<T, F>(
    pool: &WorkerPool,
    telemetry: &Telemetry,
    threads: usize,
    total: usize,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let _span = telemetry.span("parallel.par_map");
    telemetry.incr("parallel.tasks", total as u64);
    let workers = resolve_threads(threads).min(total.div_ceil(MIN_CHUNK));
    if workers <= 1 {
        let _worker = telemetry.worker_span("parallel.worker", 0);
        return (0..total).map(f).collect();
    }
    let mut slots: Vec<Option<T>> = (0..total).map(|_| None).collect();
    let out = SlotWriter {
        base: slots.as_mut_ptr(),
    };
    // The next unclaimed index. `Relaxed` suffices: `fetch_add` alone makes
    // every claim unique, and the slot writes are published to the
    // dispatcher by the pool's state mutex, which each participant takes
    // when it finishes and the dispatcher takes before returning.
    let cursor = AtomicUsize::new(0);
    // The lowest panicking index and its payload. Panics are caught per
    // index so every index is still evaluated and the propagated panic
    // does not depend on which participant claimed what. (The `Option` is
    // replaced whole, so a poisoned lock still holds a valid value.)
    let first_panic: Mutex<Option<(usize, Box<dyn std::any::Any + Send>)>> = Mutex::new(None);
    // In spans mode, measure per-participant busy time against the
    // dispatch's wall time for the `pool.utilization` histogram.
    // Observe-only: the clock reads never influence claiming or results.
    let track_util = telemetry.spans_enabled();
    let busy_ns: Vec<AtomicU64> = if track_util {
        (0..workers).map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    let dispatch_start = Instant::now();
    pool.run(telemetry, workers, &|w| {
        #[allow(clippy::cast_possible_truncation)]
        let _worker = telemetry.worker_span("parallel.worker", w as u32);
        let start = track_util.then(Instant::now);
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= total {
                break;
            }
            match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                // SAFETY: `i < total`, the cursor hands each index to
                // exactly one participant, and `slots` outlives `pool.run`
                // (which joins every participant before returning).
                #[allow(unsafe_code)]
                Ok(value) => unsafe { out.write(i, value) },
                Err(payload) => {
                    let mut first = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
                    if first.as_ref().is_none_or(|&(j, _)| i < j) {
                        *first = Some((i, payload));
                    }
                }
            }
        }
        if let Some(start) = start {
            #[allow(clippy::cast_possible_truncation)]
            busy_ns[w].store(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    });
    if let Some((_, payload)) = first_panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        panic::resume_unwind(payload);
    }
    if track_util {
        #[allow(clippy::cast_possible_truncation)]
        let wall = (dispatch_start.elapsed().as_nanos() as u64).max(1);
        for busy in &busy_ns {
            let pct = busy.load(Ordering::Relaxed).saturating_mul(100) / wall;
            telemetry.observe("pool.utilization", pct.min(100));
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// Like [`par_map`] for fallible work: maps `f` over `0..total`, returning
/// the error of the **lowest failing index** (not the first to fail in wall
/// time) so error propagation is as deterministic as the results.
///
/// All indices are evaluated even when one fails — the work units are
/// independent, and aborting early would make the set of side effects (none
/// for pure `f`, but wall time and logs for instrumented ones) depend on
/// scheduling.
///
/// # Errors
///
/// Returns the error produced at the smallest index for which `f` failed.
pub fn try_par_map<T, E, F>(threads: usize, total: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    try_par_map_in(&Telemetry::off(), threads, total, f)
}

/// [`try_par_map`] with telemetry, instrumented like [`par_map_in`].
///
/// # Errors
///
/// Returns the error produced at the smallest index for which `f` failed.
pub fn try_par_map_in<T, E, F>(
    telemetry: &Telemetry,
    threads: usize,
    total: usize,
    f: F,
) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let mut out = Vec::with_capacity(total);
    for result in par_map_in(telemetry, threads, total, f) {
        out.push(result?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Echo;
    use crate::{Bit, Context, Inbox, Passive, Process, SendPattern, SimConfig, SimError, World};

    #[test]
    fn par_map_matches_serial_for_any_thread_count() {
        let serial: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for threads in [1, 2, 3, 8, 64, 97, 200] {
            let parallel = par_map(threads, 97, |i| (i as u64).wrapping_mul(0x9E37));
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_degenerate_sizes() {
        assert_eq!(par_map(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(8, 1, |i| i), vec![0]);
        assert_eq!(par_map(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn try_par_map_reports_lowest_failing_index() {
        for threads in [1, 2, 8] {
            let r: Result<Vec<usize>, usize> =
                try_par_map(threads, 10, |i| if i % 3 == 2 { Err(i) } else { Ok(i) });
            assert_eq!(r, Err(2), "threads = {threads}");
        }
        let ok: Result<Vec<usize>, usize> = try_par_map(4, 5, Ok);
        assert_eq!(ok, Ok(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn par_map_in_is_observe_only_and_attributes_workers() {
        use crate::telemetry::{Telemetry, TelemetryMode};
        let serial: Vec<u64> = (0..40).map(|i| (i as u64) * 3).collect();
        let telemetry = Telemetry::new(TelemetryMode::Spans);
        let calls: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let instrumented = par_map_in(&telemetry, 4, 40, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            let _item = telemetry.span("item");
            (i as u64) * 3
        });
        assert_eq!(instrumented, serial);
        assert!(
            calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
            "every index claimed exactly once"
        );
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("parallel.tasks"), Some(40));
        // One worker span per participant, participant-indexed, whatever
        // thread ran it. The participant count follows the resolve/clamp
        // formula, so compute it rather than hard-coding.
        let expected = resolve_threads(4).min(40usize.div_ceil(MIN_CHUNK));
        let mut workers: Vec<u32> = snap
            .spans
            .iter()
            .filter(|s| s.name == "parallel.worker")
            .filter_map(|s| s.worker)
            .collect();
        workers.sort_unstable();
        let want: Vec<u32> = (0..expected as u32).collect();
        assert_eq!(
            workers, want,
            "one span per participant, participant-indexed"
        );
        // Which participant claimed an index is scheduling, but every item
        // ran inside some participant and carries its lane.
        let items: Vec<Option<u32>> = snap
            .spans
            .iter()
            .filter(|s| s.name == "item")
            .map(|s| s.worker)
            .collect();
        assert_eq!(items.len(), 40);
        assert!(
            items.iter().all(|w| w.is_some_and(|w| w < expected as u32)),
            "{items:?}"
        );
        assert!(snap.spans.iter().any(|s| s.name == "parallel.par_map"));
    }

    #[test]
    fn claiming_evaluates_uneven_work_exactly_once() {
        // Per-index cost varies by three orders of magnitude; claiming must
        // still hand out each index exactly once and keep slot order.
        let pool = WorkerPool::new();
        let calls: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_pooled(&pool, &Telemetry::off(), 2, 64, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            let spin = if i % 16 == 0 { 200_000 } else { 200 };
            std::hint::black_box((0..spin).fold(i as u64, |a, b| a.wrapping_add(b)))
        });
        let want: Vec<u64> = (0..64)
            .map(|i| {
                let spin = if i % 16 == 0 { 200_000 } else { 200 };
                (0..spin).fold(i as u64, |a, b| a.wrapping_add(b))
            })
            .collect();
        assert_eq!(out, want);
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.stats().tasks, 2, "two participants engaged");
    }

    #[test]
    fn pool_counters_are_recorded_on_pooled_dispatches() {
        use crate::telemetry::{Telemetry, TelemetryMode};
        let pool = WorkerPool::new();
        let telemetry = Telemetry::new(TelemetryMode::Counters);
        let out = par_map_pooled(&pool, &telemetry, 2, 40, |i| i * 2);
        assert_eq!(out, (0..40).map(|i| i * 2).collect::<Vec<_>>());
        let snap = telemetry.snapshot();
        // First dispatch on a fresh pool: one helper spawned, none reused.
        assert_eq!(snap.counter("pool.spawned"), Some(1));
        assert_eq!(snap.counter("pool.reused"), None);
        assert_eq!(snap.counter("pool.tasks"), Some(2));
        assert_eq!(
            pool.stats(),
            PoolStats {
                spawned: 1,
                reused: 0,
                tasks: 2,
                inline: 0
            }
        );
    }

    #[test]
    fn pool_reuses_threads_across_dispatches() {
        let pool = WorkerPool::new();
        let telemetry = Telemetry::off();
        for round in 0..5 {
            let out = par_map_pooled(&pool, &telemetry, 2, 32, |i| i + round);
            assert_eq!(out, (0..32).map(|i| i + round).collect::<Vec<_>>());
        }
        let stats = pool.stats();
        assert_eq!(stats.spawned, 1, "helper spawned once, lazily");
        assert_eq!(stats.reused, 4, "then re-engaged on every dispatch");
        assert_eq!(stats.tasks, 10, "2 chunks x 5 dispatches");
        assert!(
            stats.reused > stats.spawned,
            "steady state re-uses more than it spawns"
        );
        assert_eq!(pool.threads_alive(), 1);
    }

    #[test]
    fn nested_dispatch_falls_back_inline_and_stays_deterministic() {
        let pool = WorkerPool::new();
        let telemetry = Telemetry::off();
        // Each outer work item fans out again on the same pool: the inner
        // dispatches must run inline (pool busy) with identical results.
        let out = par_map_pooled(&pool, &telemetry, 2, 8, |i| {
            par_map_pooled(&pool, &telemetry, 2, 8, move |j| i * 8 + j)
        });
        let want: Vec<Vec<usize>> = (0..8)
            .map(|i| (0..8).map(|j| i * 8 + j).collect())
            .collect();
        assert_eq!(out, want);
        assert!(pool.stats().inline > 0, "inner dispatches ran inline");
    }

    #[test]
    fn pool_propagates_lowest_index_panic_and_survives() {
        let pool = WorkerPool::new();
        let telemetry = Telemetry::off();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map_pooled(&pool, &telemetry, 2, 16, |i| {
                assert!(i != 3 && i != 12, "boom at {i}");
                i
            })
        }));
        let payload = result.expect_err("panic must propagate to the dispatcher");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .unwrap_or_default();
        assert!(
            message.contains("boom at 3"),
            "lowest index wins: {message}"
        );
        // The pool is still usable afterwards: no wedged state, no dead
        // helpers, and results are correct.
        let out = par_map_pooled(&pool, &telemetry, 2, 16, |i| i);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn dropping_a_pool_joins_its_threads() {
        let pool = WorkerPool::new();
        let out = par_map_pooled(&pool, &Telemetry::off(), 2, 32, |i| i);
        assert_eq!(out.len(), 32);
        assert_eq!(pool.threads_alive(), 1);
        drop(pool); // must not hang or leak the parked helper
    }

    #[test]
    fn tiny_batches_collapse_to_one_worker() {
        use crate::telemetry::{Telemetry, TelemetryMode};
        // total ≤ MIN_CHUNK: any thread count runs inline (one worker span,
        // worker 0, which every item inherits) and results still match
        // serial.
        for threads in [2, 8, 64] {
            let telemetry = Telemetry::new(TelemetryMode::Spans);
            let out = par_map_in(&telemetry, threads, MIN_CHUNK, |i| {
                let _item = telemetry.span("item");
                i * 7
            });
            assert_eq!(out, vec![0, 7, 14, 21], "threads = {threads}");
            let snap = telemetry.snapshot();
            let lanes = |name: &str| -> Vec<Option<u32>> {
                snap.spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.worker)
                    .collect()
            };
            assert_eq!(
                lanes("parallel.worker"),
                vec![Some(0)],
                "threads = {threads}: expected inline run"
            );
            assert_eq!(lanes("item"), vec![Some(0); MIN_CHUNK]);
        }
        // Just past the threshold: exactly two participants, same results,
        // and every index claimed once between them.
        let telemetry = Telemetry::new(TelemetryMode::Spans);
        let calls: Vec<AtomicUsize> = (0..=MIN_CHUNK).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map_in(&telemetry, 64, MIN_CHUNK + 1, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            i * 7
        });
        assert_eq!(out, (0..=MIN_CHUNK).map(|i| i * 7).collect::<Vec<_>>());
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        let spans = telemetry.snapshot();
        let mut workers: Vec<u32> = spans
            .spans
            .iter()
            .filter(|s| s.name == "parallel.worker")
            .filter_map(|s| s.worker)
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, vec![0, 1]);
    }

    #[test]
    fn resolve_threads_contract() {
        let available = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        assert_eq!(resolve_threads(1), 1);
        assert!(resolve_threads(AUTO_THREADS) >= 1);
        assert_eq!(resolve_threads(AUTO_THREADS), available);
        // Explicit requests never exceed the machine (floor 2), and small
        // requests pass through untouched.
        assert_eq!(resolve_threads(usize::MAX), available.max(2));
        assert_eq!(resolve_threads(2), 2);
        assert!(resolve_threads(7) <= 7);
        assert!(resolve_threads(7) <= available.max(2));
    }

    /// A process that never halts — only the horizon stops its forks.
    #[derive(Debug, Clone)]
    struct Forever;
    impl Process for Forever {
        type Msg = Bit;
        fn send(&mut self, _: &mut Context<'_>) -> SendPattern<Bit> {
            SendPattern::Broadcast(Bit::One)
        }
        fn receive(&mut self, _: &mut Context<'_>, _: &Inbox<Bit>) {}
        fn decision(&self) -> Option<Bit> {
            None
        }
        fn halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn base_forks_are_thread_count_invariant() {
        let world = World::new(SimConfig::new(6).seed(11), |pid| {
            Echo::new(Bit::from(pid.index() % 2 == 0))
        })
        .unwrap();
        let base = world.fork_bounded(0, 50);
        let run = |threads: usize| -> Vec<Vec<Option<Bit>>> {
            try_par_map(threads, 13, |i| {
                let mut fork = base.fork(1000 + i as u64);
                fork.drive(&mut Passive)?;
                Ok::<_, SimError>(fork.into_report().decisions().to_vec())
            })
            .unwrap()
        };
        let baseline = run(1);
        for threads in [2, 5, 13] {
            assert_eq!(run(threads), baseline, "threads = {threads}");
        }
    }

    #[test]
    fn horizon_hit_worlds_report_like_max_rounds() {
        // Bounded forks of a never-halting world stop at the horizon with
        // `MaxRoundsExceeded`, whatever the thread count.
        let world = World::new(SimConfig::new(4).seed(3).max_rounds(1_000), |_| Forever).unwrap();
        let base = world.fork_bounded(0, 5);
        for threads in [1usize, 2, 8] {
            let outcomes = par_map(threads, 5, |i| {
                let mut fork = base.fork(7 + i as u64);
                let outcome = fork.drive(&mut Passive);
                fork.retire();
                outcome
            });
            for outcome in outcomes {
                assert!(
                    matches!(outcome, Err(SimError::MaxRoundsExceeded { .. })),
                    "threads = {threads}: {outcome:?}"
                );
            }
        }
    }
}
