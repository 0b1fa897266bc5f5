//! Deterministic parallel fan-out over independent seeded work.
//!
//! Every experiment here is a set of independent seeded executions, each
//! a pure function of its index (seeds come from the index through
//! [`SimRng::derive`](crate::SimRng::derive), never from shared state):
//!
//! > **Determinism contract.** For a pure `f`, `par_map(threads, total, f)`
//! > returns exactly `(0..total).map(f).collect()` — bit for bit — for
//! > *every* `threads` value. Worker count changes wall-clock time, never
//! > results.
//!
//! [`par_each_in_order`] is the one primitive; [`par_map_in`] and
//! [`try_par_map_in`] are it with an unbounded window. A call engages
//! `workers = min(threads, ceil(total / MIN_CHUNK))` participants: the
//! calling thread (participant 0) and `workers − 1` helpers started with
//! [`std::thread::scope`] for this call alone. Each claims indices one at
//! a time from a gate that starts no index more than `window` past what
//! the sink has taken. Helpers send `(index, result)` to the caller, which
//! evaluates indices too whenever the gate has one free and hands results
//! to the sink strictly in index order. Engine calls fan out over runs,
//! once per call; the work inside a run stays on its thread.

use std::convert::Infallible;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::Telemetry;

/// Sentinel for "use all available parallelism" in thread-count knobs.
pub const AUTO_THREADS: usize = 0;

/// Minimum work units per participant: a helper costs more to start than
/// a few small units, so tiny fan-outs run serially.
pub const MIN_CHUNK: usize = 4;

/// This machine's available parallelism, probed once per process.
fn machine_parallelism() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Resolves a requested thread count: [`AUTO_THREADS`] (`0`) becomes the
/// machine's available parallelism, and explicit requests are clamped to
/// it but never below 2, so that asking for parallelism exercises the
/// parallel path even on one core (free, by the determinism contract).
///
/// ```
/// use synran_sim::parallel::resolve_threads;
/// let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
/// assert_eq!((resolve_threads(1), resolve_threads(0)), (1, cores));
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

/// Participants of every parallel call since the process started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Participants (caller and helpers) of calls that started helpers.
    pub tasks: u64,
    /// Always 0: no call runs inline behind another.
    pub inline: u64,
}

/// The participant counter behind [`global_pool`].
#[derive(Debug)]
pub struct ParticipantCount(AtomicU64);

impl ParticipantCount {
    /// Counts since the process started.
    #[must_use]
    pub fn stats(&self) -> PoolStats {
        let tasks = self.0.load(Ordering::Relaxed);
        PoolStats { tasks, inline: 0 }
    }
}

/// The process-wide [`ParticipantCount`]. No pool is behind the name: it
/// exists only for the end-to-end benchmark (`bench_e2e`), which reads its
/// stats around a traced pass as `pool.tasks` and `pool.inline`.
#[must_use]
pub fn global_pool() -> &'static ParticipantCount {
    static STARTED: ParticipantCount = ParticipantCount(AtomicU64::new(0));
    &STARTED
}

/// The claim gate over `(next index to start, end of the window)`; the
/// window ends `window` indices past what the sink has taken.
struct Gate(Mutex<(usize, usize)>, Condvar);

impl Gate {
    /// Claims the next index below `total`, or `None`. A helper (`wait`)
    /// blocks on a full window; the caller, which moves it, never does.
    fn claim(&self, total: usize, wait: bool) -> Option<usize> {
        // Nothing panics under the lock, so poisoning breaks no invariant.
        let mut claims = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            let (next, end) = *claims;
            if next < total.min(end) {
                claims.0 += 1;
                return Some(next);
            }
            if next >= total || !wait {
                return None;
            }
            claims = self.1.wait(claims).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Changes the claims, waking helpers only if the window was full.
    fn update(&self, change: impl FnOnce(&mut (usize, usize))) {
        let mut claims = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        let full = claims.0 >= claims.1;
        change(&mut claims);
        if full {
            self.1.notify_all();
        }
    }
}

/// Stops the gate however the caller leaves (done, a sink error, a panic),
/// so helpers blocked on the window exit instead of stalling the join.
struct StopOnDrop<'a>(&'a Gate);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.update(|claims| claims.0 = usize::MAX);
    }
}

/// Evaluates `f` over `0..total` on up to `threads` workers and hands the
/// results to `sink` in index order, starting no index more than `window`
/// past what `sink` has taken: `sink` sees exactly `(0..total).map(f)`.
///
/// Telemetry is observe-only: a `parallel.par_map` span; per participant,
/// one `parallel.worker` span (a lane the spans inside it inherit) and, in
/// spans mode, its busy share of the call in `pool.utilization`; and
/// `total` added to the `parallel.tasks` counter.
///
/// # Errors
///
/// Returns `sink`'s first error. No index starts after it.
///
/// # Panics
///
/// Propagates the panic of the lowest panicking index, or of `sink`.
pub fn par_each_in_order<T, E, F, S>(
    telemetry: &Telemetry,
    threads: usize,
    total: usize,
    window: usize,
    f: F,
    mut sink: S,
) -> Result<(), E>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    S: FnMut(T) -> Result<(), E>,
{
    let _span = telemetry.span("parallel.par_map");
    telemetry.incr("parallel.tasks", total as u64);
    let workers = resolve_threads(threads).min(total.div_ceil(MIN_CHUNK));
    if workers <= 1 {
        let _lane = telemetry.worker_span("parallel.worker", 0);
        return (0..total).try_for_each(|i| sink(f(i)));
    }
    global_pool().0.fetch_add(workers as u64, Ordering::Relaxed);
    let window = window.clamp(1, total);
    let gate = &Gate(Mutex::new((0, window)), Condvar::new());
    let f = &f;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, std::thread::Result<T>)>();
        let helpers: Vec<_> = (1..workers)
            .map(|w| {
                let tx = tx.clone();
                scope.spawn(move || {
                    #[allow(clippy::cast_possible_truncation)]
                    let _lane = telemetry.worker_span("parallel.worker", w as u32);
                    let start = Instant::now();
                    while let Some(i) = gate.claim(total, true) {
                        let result = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
                        if tx.send((i, result)).is_err() {
                            break;
                        }
                    }
                    start.elapsed()
                })
            })
            .collect();
        drop(tx);
        let stop = StopOnDrop(gate);
        let lane = telemetry.worker_span("parallel.worker", 0);
        // Slot `i % window` holds index `i`'s result until the sink takes
        // it: every started, untaken index lies inside one window.
        let mut ring: Vec<Option<std::thread::Result<T>>> = (0..window).map(|_| None).collect();
        let mut taken = 0;
        while taken < total {
            while let Ok((i, result)) = rx.try_recv() {
                ring[i % window] = Some(result);
            }
            if let Some(result) = ring[taken % window].take() {
                sink(result.unwrap_or_else(|payload| panic::resume_unwind(payload)))?;
                taken += 1;
                gate.update(|claims| claims.1 = taken + window);
            } else if let Some(i) = gate.claim(total, false) {
                ring[i % window] = Some(panic::catch_unwind(AssertUnwindSafe(|| f(i))));
            } else {
                let (i, result) = rx.recv().expect("a helper holds every untaken index");
                ring[i % window] = Some(result);
            }
        }
        let mut busy = vec![start.elapsed()];
        drop((lane, stop));
        // Joined here, not left to the scope, which waits only for the
        // closures: a helper still exiting holds on to its allocator arena,
        // and the next call's helper would add another.
        for helper in helpers {
            busy.push(helper.join().unwrap_or_else(|p| panic::resume_unwind(p)));
        }
        if telemetry.spans_enabled() {
            let wall = start.elapsed().as_nanos().max(1);
            for busy in busy {
                let pct = u64::try_from(busy.as_nanos() * 100 / wall).map_or(100, |p| p.min(100));
                telemetry.observe("pool.utilization", pct);
            }
        }
        Ok(())
    })
}

/// Maps `f` over `0..total` on up to `threads` workers: exactly the serial
/// `(0..total).map(f)` for every `threads` (`<= 1` runs serially).
///
/// # Panics
///
/// Propagates the panic of the lowest panicking index.
pub fn par_map<T, F>(threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_in(&Telemetry::off(), threads, total, f)
}

/// [`par_map`] with telemetry, instrumented as [`par_each_in_order`] is.
///
/// # Panics
///
/// Propagates the panic of the lowest panicking index.
pub fn par_map_in<T, F>(telemetry: &Telemetry, threads: usize, total: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::with_capacity(total);
    let Ok(()) = par_each_in_order(telemetry, threads, total, total, f, |value| {
        out.push(value);
        Ok::<(), Infallible>(())
    });
    out
}

/// [`par_map_in`] for fallible work, returning the error of the **lowest
/// failing index** (not the first to fail in wall time), so errors are as
/// deterministic as results. No index starts once that error is reached
/// in index order; later indices may or may not have run.
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
    par_each_in_order(telemetry, threads, total, total, f, |result| {
        out.push(result?);
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Echo;
    use crate::{Bit, Context, Inbox, Passive, Process, SendPattern, SimConfig, SimError, World};
    use std::sync::atomic::AtomicUsize;

    /// Runs [`par_each_in_order`] with a collecting sink.
    fn collect_in_order(threads: usize, total: usize, window: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let Ok(()) = par_each_in_order(
            &Telemetry::off(),
            threads,
            total,
            window,
            |i| (i as u64).wrapping_mul(0x9E37_79B9),
            |v| {
                out.push(v);
                Ok::<(), Infallible>(())
            },
        );
        out
    }

    #[test]
    fn each_in_order_matches_the_serial_map() {
        for total in [0, 1, MIN_CHUNK, 97] {
            let serial: Vec<u64> = (0..total as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect();
            for threads in [1, 2, 3, 8, 64] {
                for window in [1, 3, total] {
                    assert_eq!(
                        collect_in_order(threads, total, window),
                        serial,
                        "threads = {threads}, total = {total}, window = {window}"
                    );
                }
            }
        }
    }

    #[test]
    fn no_index_starts_a_window_past_the_sink() {
        for threads in [2, 3, 8] {
            for window in [1, 5, 16] {
                // The highest index `f` has started, plus one (0 = none).
                let started = AtomicUsize::new(0);
                let mut taken = 0;
                let result: Result<(), ()> = par_each_in_order(
                    &Telemetry::off(),
                    threads,
                    97,
                    window,
                    |i| {
                        started.fetch_max(i + 1, Ordering::SeqCst);
                        std::hint::black_box((0..2_000u64).fold(i as u64, u64::wrapping_add))
                    },
                    |_| {
                        assert!(
                            started.load(Ordering::SeqCst) <= taken + window,
                            "threads = {threads}, window = {window}: index {} started \
                             while the sink was at {taken}",
                            started.load(Ordering::SeqCst) - 1,
                        );
                        taken += 1;
                        Ok(())
                    },
                );
                assert_eq!(result, Ok(()));
                assert_eq!(taken, 97);
            }
        }
    }

    #[test]
    fn a_sink_error_stops_the_call_inside_its_window() {
        for threads in [1, 2, 8] {
            for window in [1, 4, 10] {
                let started = AtomicUsize::new(0);
                let mut taken = Vec::new();
                let result = par_each_in_order(
                    &Telemetry::off(),
                    threads,
                    97,
                    window,
                    |i| {
                        started.fetch_max(i + 1, Ordering::SeqCst);
                        i
                    },
                    |i| {
                        if i == 30 {
                            return Err(i);
                        }
                        taken.push(i);
                        Ok(())
                    },
                );
                assert_eq!(result, Err(30), "threads = {threads}, window = {window}");
                assert_eq!(taken, (0..30).collect::<Vec<_>>());
                assert!(
                    started.load(Ordering::SeqCst) <= 30 + window,
                    "threads = {threads}, window = {window}: index {} evaluated",
                    started.load(Ordering::SeqCst) - 1
                );
            }
        }
    }

    #[test]
    fn the_lowest_panicking_index_propagates() {
        for threads in [1, 2, 8] {
            for window in [1, 16] {
                let result = panic::catch_unwind(AssertUnwindSafe(|| {
                    par_each_in_order(
                        &Telemetry::off(),
                        threads,
                        16,
                        window,
                        |i| {
                            assert!(i != 3 && i != 12, "boom at {i}");
                            i
                        },
                        |_| Ok::<(), ()>(()),
                    )
                }));
                let payload = result.expect_err("panic must reach the caller");
                let message = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(
                    message.contains("boom at 3"),
                    "threads = {threads}: {message}"
                );
            }
        }
    }

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
                try_par_map_in(&Telemetry::off(), threads, 10, |i| {
                    if i % 3 == 2 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                });
            assert_eq!(r, Err(2), "threads = {threads}");
        }
        let ok: Result<Vec<usize>, usize> = try_par_map_in(&Telemetry::off(), 4, 5, Ok);
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
        // still hand out each index exactly once and keep index order.
        let spin = |i: usize| if i.is_multiple_of(16) { 200_000 } else { 200 };
        let calls: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let out = par_map(2, 64, |i| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            std::hint::black_box((0..spin(i)).fold(i as u64, u64::wrapping_add))
        });
        let want: Vec<u64> = (0..64)
            .map(|i| (0..spin(i)).fold(i as u64, u64::wrapping_add))
            .collect();
        assert_eq!(out, want);
        assert!(calls.iter().all(|c| c.load(Ordering::Relaxed) == 1));
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
            try_par_map_in(&Telemetry::off(), threads, 13, |i| {
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
