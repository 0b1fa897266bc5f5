//! The persistent worker pool's contract, end-to-end: dispatches re-use
//! parked threads instead of spawning, and results stay byte-identical to
//! serial at every thread count.

use synran_sim::parallel::{self, par_map_pooled, WorkerPool};
use synran_sim::telemetry::Telemetry;

/// Repeated dispatches on one pool spawn helpers once and re-use them
/// after that: `reused` overtakes `spawned` from the second batch on.
#[test]
fn pool_reuse_across_repeated_par_map_calls() {
    let pool = WorkerPool::new();
    let telemetry = Telemetry::off();
    let golden: Vec<u64> = (0..64).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
    for batch in 1..=6u64 {
        let got = par_map_pooled(&pool, &telemetry, 2, 64, |i| {
            (i as u64).wrapping_mul(0x9E37)
        });
        assert_eq!(got, golden, "batch {batch}");
        let stats = pool.stats();
        assert_eq!(stats.spawned, 1, "helper thread spawned once, lazily");
        assert_eq!(stats.reused, batch - 1, "every later batch re-uses it");
        if batch >= 2 {
            assert!(
                stats.reused >= stats.spawned,
                "steady state must re-use, not spawn"
            );
        }
    }
    assert_eq!(pool.threads_alive(), 1, "no thread churn across batches");
}

/// The determinism contract through the pool: byte-identity with the
/// serial map at thread counts below, at, and above the machine's cores.
#[test]
fn pooled_par_map_is_byte_identical_across_thread_counts() {
    let serial: Vec<u64> = (0..113)
        .map(|i| synran_sim::SimRng::new(0xFEED).derive(i as u64).next_u64())
        .collect();
    for threads in [1usize, 2, 8] {
        let got = parallel::par_map(threads, 113, |i| {
            synran_sim::SimRng::new(0xFEED).derive(i as u64).next_u64()
        });
        assert_eq!(got, serial, "threads={threads}");
    }
}
