//! Verifies the pooled-scratch claim: once the round buffers have warmed
//! up, a steady-state round (`phase_a` + `deliver`) performs **zero** heap
//! allocations.
//!
//! A counting `#[global_allocator]` wraps the system allocator. The count
//! is kept per-thread so the test harness's own threads (which allocate
//! concurrently, e.g. for output capture) cannot perturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use synran_sim::testing::{CountDown, Opaque};
use synran_sim::{
    Bit, Context, Inbox, Intervention, Process, ProcessId, SendPattern, SimConfig, World,
};

thread_local! {
    /// Allocations + reallocations made by *this* thread.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // try_with: TLS may be unavailable during thread teardown.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Counts every allocation and reallocation the current thread routes
/// through the global allocator.
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

/// `CountDown` with a payload that never bit-packs, so its rounds count
/// their zeros through the packed plane. Reads only the inbox length, so
/// any allocation measured below is the engine's, not the process's.
#[derive(Debug, Clone)]
struct OpaqueCountDown {
    remaining: u32,
    last_inbox_len: usize,
}

impl Process for OpaqueCountDown {
    type Msg = Opaque<Bit>;

    fn send(&mut self, _ctx: &mut Context<'_>) -> SendPattern<Opaque<Bit>> {
        SendPattern::Broadcast(Opaque(Bit::One))
    }

    fn receive(&mut self, _ctx: &mut Context<'_>, inbox: &Inbox<Opaque<Bit>>) {
        self.last_inbox_len = inbox.len();
        self.remaining = self.remaining.saturating_sub(1);
    }

    fn decision(&self) -> Option<Bit> {
        (self.remaining == 0).then_some(Bit::One)
    }

    fn halted(&self) -> bool {
        self.remaining == 0
    }
}

/// Runs 5 warm-up rounds then measures 50 steady-state rounds of `world`,
/// asserting the engine performed zero heap allocations.
fn assert_steady_state_alloc_free<P: Process>(world: &mut World<P>, label: &str) {
    // Warm-up: the pooled buffers grow to their steady-state capacity
    // during the first few broadcast rounds.
    for _ in 0..5 {
        world.phase_a().expect("phase A");
        world.deliver(Intervention::none()).expect("deliver");
    }

    let before = thread_allocs();
    for _ in 0..50 {
        world.phase_a().expect("phase A");
        world.deliver(Intervention::none()).expect("deliver");
    }
    let after = thread_allocs();

    assert_eq!(
        after - before,
        0,
        "expected zero allocations across 50 warm {label} rounds"
    );
}

#[test]
fn steady_state_plane_rounds_allocate_nothing() {
    // `CountDown` broadcasts `Bit`s, which pack: these are plane rounds.
    let n = 32;
    let mut world =
        World::new(SimConfig::new(n).seed(11), |_| CountDown::new(60, Bit::One)).expect("config");
    assert_steady_state_alloc_free(&mut world, "packing broadcast");
}

#[test]
fn steady_state_scalar_rounds_allocate_nothing() {
    // `Opaque` payloads never pack: the same rounds also fill the packed
    // plane, and must stay allocation-free too.
    let n = 32;
    let mut world = World::new(SimConfig::new(n).seed(11), |_| OpaqueCountDown {
        remaining: 60,
        last_inbox_len: 0,
    })
    .expect("config");
    assert_steady_state_alloc_free(&mut world, "non-packing broadcast");
}

/// The split move: kill the lower half of the alive processes, delivering
/// every dying broadcast to one shared set — every other survivor.
fn split(world: &World<CountDown>) -> Intervention {
    let alive: Vec<ProcessId> = world.alive_ids().collect();
    let (victims, survivors) = alive.split_at(alive.len() / 2);
    let receivers: Vec<ProcessId> = survivors.iter().copied().step_by(2).collect();
    Intervention::kill_all_to(victims.iter().copied(), receivers)
}

#[test]
fn shared_set_split_rounds_allocate_nothing() {
    let n = 256;
    let mut world = World::new(SimConfig::new(n).faults(n - 1).seed(11), |pid| {
        CountDown::new(60, Bit::from(pid.index() % 3 == 0))
    })
    .expect("config");
    // Warm-up: one split round grows the receiver-group pool and the
    // adjusted-inbox planes.
    world.phase_a().expect("phase A");
    let warm_up = split(&world);
    world.deliver(warm_up).expect("deliver");

    world.phase_a().expect("phase A");
    let template = split(&world);
    assert_eq!(template.kills().len(), (n / 2) / 2);
    let before = thread_allocs();
    let replay = template.clone();
    assert_eq!(
        thread_allocs() - before,
        1,
        "a clone copies the kill list, not one receiver list per victim"
    );
    let before = thread_allocs();
    world.deliver(replay).expect("deliver");
    assert_eq!(
        thread_allocs() - before,
        0,
        "expected zero allocations in a warm shared-set split round"
    );
}

#[test]
fn forked_shared_set_split_rounds_allocate_nothing() {
    let n = 256;
    let mut world = World::new(SimConfig::new(n).faults(n - 1).seed(11), |pid| {
        CountDown::new(60, Bit::from(pid.index() % 3 == 0))
    })
    .expect("config");
    // One split round on the root first, so its forks start mid-run.
    world.phase_a().expect("phase A");
    let first = split(&world);
    world.deliver(first).expect("deliver");
    world.phase_a().expect("phase A");
    let template = split(&world);
    // Warm-up: a fork plays the split and retires, leaving its grown
    // scratch in the pool the root's forks share.
    let mut warm_up = world.fork(7);
    warm_up.deliver(template.clone()).expect("deliver");
    warm_up.retire();

    let mut fork = world.fork(7);
    let replay = template.clone();
    let before = thread_allocs();
    fork.deliver(replay).expect("deliver");
    assert_eq!(
        thread_allocs() - before,
        0,
        "expected zero allocations in a forked world's first split round"
    );
}

#[test]
fn broadcast_bit_rounds_never_fall_back_to_the_scalar_path() {
    use synran_sim::telemetry::{Telemetry, TelemetryMode};
    let hub = Telemetry::new(TelemetryMode::Counters);
    let n = 16;
    let rounds = 25u32;
    let mut world = World::new(SimConfig::new(n).seed(3), |_| {
        CountDown::new(rounds, Bit::Zero)
    })
    .expect("config");
    world.set_telemetry(hub.clone());
    for _ in 0..rounds {
        world.phase_a().expect("phase A");
        world.deliver(Intervention::none()).expect("deliver");
    }
    let snap = hub.snapshot();
    assert_eq!(
        snap.counter("round.deliver.plane"),
        Some(u64::from(rounds)),
        "every broadcast-Bit round counts as a plane round"
    );
    assert_eq!(snap.counter("round.deliver.scalar"), None);
}
