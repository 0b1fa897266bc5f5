//! Determinism contract of the span-aggregation layer.
//!
//! Aggregation is a pure function of the span **multiset**: building a
//! tree from the same records in any order yields identical folded
//! stacks; the JSONL write→read round trip loses nothing;
//! and the structural quantities (counter values, per-item span counts)
//! agree across worker thread counts {1, 2, 8} on a fixed-seed workload.
//! Raw nanosecond *durations* are of course wall-clock and differ run to
//! run — the contract covers everything derived from structure, plus
//! bit-stable re-aggregation of any one artifact.

use synran_sim::parallel::par_map_in;
use synran_sim::telemetry::aggregate::worker_busy_ns;
use synran_sim::{OwnedSpan, SpanTree, Telemetry, TelemetryMode, TelemetryStream};

/// A deterministic instrumented workload: every item records one
/// `cell.work` span with a nested `cell.inner` span, fanned out over
/// `threads` workers.
fn run_workload(threads: usize) -> Telemetry {
    let telemetry = Telemetry::new(TelemetryMode::Spans);
    let results = par_map_in(&telemetry, threads, 24, |i| {
        let _outer = telemetry.span("cell.work");
        let _inner = telemetry.span("cell.inner");
        // A tiny but non-trivial deterministic computation.
        (0..200u64).fold(i as u64, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
    });
    assert_eq!(results.len(), 24);
    telemetry.incr("cells.done", 24);
    telemetry
}

fn spans_of(telemetry: &Telemetry) -> Vec<OwnedSpan> {
    telemetry.snapshot().spans
}

#[test]
fn aggregation_is_record_order_independent() {
    for threads in [1, 2, 8] {
        let spans = spans_of(&run_workload(threads));
        let baseline = SpanTree::build(&spans);
        let folded = baseline.folded();

        let mut rotated = spans.clone();
        for _ in 0..5 {
            rotated.rotate_left(7);
            let tree = SpanTree::build(&rotated);
            assert_eq!(tree, baseline, "threads = {threads}");
            assert_eq!(tree.folded(), folded, "threads = {threads}");
        }
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(SpanTree::build(&reversed).folded(), folded);
    }
}

#[test]
fn jsonl_round_trip_preserves_the_tree_bit_for_bit() {
    for threads in [1, 2, 8] {
        let telemetry = run_workload(threads);
        let direct = SpanTree::build(&spans_of(&telemetry));

        // Write the registry as JSONL, read it back through the stream
        // parser, and re-aggregate.
        let mut bytes = Vec::new();
        telemetry
            .snapshot()
            .write_jsonl(&mut bytes)
            .expect("in-memory write");
        let text = String::from_utf8(bytes).expect("utf8 jsonl");
        let stream = TelemetryStream::parse(&text);
        assert_eq!(stream.malformed, 0, "threads = {threads}");
        assert_eq!(stream.unknown, 0, "threads = {threads}");
        assert_eq!(stream.counters.get("cells.done"), Some(&24));

        let round_tripped = stream.span_tree();
        assert_eq!(round_tripped, direct, "threads = {threads}");
        assert_eq!(round_tripped.folded(), direct.folded());
    }
}

#[test]
fn structural_quantities_agree_across_thread_counts() {
    let reference = run_workload(1);
    let ref_phases = SpanTree::build(&spans_of(&reference)).phases();
    let count_of = |phases: &[(String, synran_sim::PhaseStat)], name: &str| {
        phases
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, s)| s.count)
    };

    for threads in [2, 8] {
        let telemetry = run_workload(threads);
        assert_eq!(
            telemetry.snapshot().counter("cells.done"),
            reference.snapshot().counter("cells.done"),
            "threads = {threads}"
        );
        let phases = SpanTree::build(&spans_of(&telemetry)).phases();
        // Per-item spans happen exactly once per item at every thread
        // count; only the scheduling spans (parallel.worker) may differ.
        for name in ["cell.work", "cell.inner"] {
            assert_eq!(
                count_of(&phases, name),
                count_of(&ref_phases, name),
                "span count of {name} at threads = {threads}"
            );
            assert_eq!(count_of(&phases, name), 24);
        }
    }
}

#[test]
fn folded_output_is_well_formed() {
    let spans = spans_of(&run_workload(2));
    let folded = SpanTree::build(&spans).folded();
    assert!(!folded.is_empty());
    for stack in folded.keys() {
        assert!(!stack.is_empty());
        assert!(!stack.contains(' '), "stack has no spaces: {stack}");
    }
    // Worker busy time sees the worker-attributed scheduling spans.
    let busy = worker_busy_ns(&spans);
    assert!(!busy.is_empty());
}
