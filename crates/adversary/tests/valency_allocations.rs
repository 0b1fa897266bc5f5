//! Allocation steady-state for the valency hot path: after a warm-up call,
//! repeated `estimate_valency` invocations must settle to a flat per-call
//! allocation count — no per-call growth, and no per-probe `String` churn
//! (probe names are interned `Arc<str>`s shared with the `ProbeSet`).
//!
//! Mirrors `crates/sim/tests/deliver_allocations.rs`: a counting
//! `#[global_allocator]` with a per-thread counter, run on `threads = 1`
//! so every engine allocation lands on the measuring thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use synran_adversary::{estimate_valency, ProbeSet};
use synran_core::{ConsensusProtocol, SynRan, SynRanProcess};
use synran_sim::{Bit, SimConfig, World};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // try_with: TLS may be unavailable during thread teardown.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn fixture_world() -> World<SynRanProcess> {
    let n = 12;
    World::new(
        SimConfig::new(n)
            .faults(6)
            .seed(7)
            .max_rounds(5_000)
            .threads(1),
        |pid| SynRan::new().spawn(pid, n, Bit::from(pid.index() < n / 2)),
    )
    .expect("valid config")
}

#[test]
fn estimate_valency_reaches_allocation_steady_state() {
    let world = fixture_world();
    let probes = ProbeSet::synran(3);

    // Warm-up: the world's shared scratch pool and the worker pool both
    // reach capacity on the first call.
    let _ = estimate_valency(&world, &probes, 4, 40, 9).unwrap();

    // Steady state: identical calls must allocate an identical, flat
    // amount — any drift means a per-call leak or cache miss on the hot
    // path (e.g. the per-probe `String` clones this test was added to
    // pin the removal of).
    let mut per_call = Vec::with_capacity(3);
    for _ in 0..3 {
        let before = thread_allocs();
        let est = estimate_valency(&world, &probes, 4, 40, 9).unwrap();
        let after = thread_allocs();
        assert_eq!(est.per_probe().len(), probes.len());
        per_call.push(after - before);
    }
    assert_eq!(
        per_call[1], per_call[0],
        "second steady-state call allocated differently: {per_call:?}"
    );
    assert_eq!(
        per_call[2], per_call[1],
        "third steady-state call allocated differently: {per_call:?}"
    );
}
