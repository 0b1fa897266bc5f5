//! Per-layer attribution of a traced pass: self times and latency tails
//! from the spans the program already emits, its counters, and the checks
//! that the phases reconcile with wall time.
//!
//! Self times come from the span tree, whose nesting is inferred from time
//! containment and is therefore approximate when worker threads overlap;
//! shares use per-name totals, which are exact. The `parallel.*` wrapper
//! spans feed only the pool metrics, never a layer total.

use std::collections::BTreeMap;

use synran_sim::telemetry::aggregate::worker_busy_ns;
use synran_sim::{OwnedSpan, PhaseStat, SpanNode, SpanTree, TelemetryEvent};

use crate::measure::{percentile, tail_percentile};

/// The spans, counters and histogram sums of one traced pass.
#[derive(Debug, Default)]
pub struct Recorded {
    spans: Vec<OwnedSpan>,
    counters: BTreeMap<String, u64>,
    /// `(count, sum)` per histogram.
    histograms: BTreeMap<String, (u64, u64)>,
}

impl Recorded {
    /// Unpacks exported telemetry events.
    #[must_use]
    pub fn from_events(events: &[TelemetryEvent]) -> Recorded {
        let mut rec = Recorded::default();
        for event in events {
            match event {
                TelemetryEvent::Span {
                    name,
                    worker,
                    start_ns,
                    elapsed_ns,
                } => rec.spans.push(OwnedSpan {
                    name: name.clone(),
                    worker: *worker,
                    start_ns: *start_ns,
                    elapsed_ns: *elapsed_ns,
                }),
                TelemetryEvent::Counter { name, value } => {
                    rec.counters.insert(name.clone(), *value);
                }
                TelemetryEvent::Histogram {
                    name, count, sum, ..
                } => {
                    rec.histograms.insert(name.clone(), (*count, *sum));
                }
                _ => {}
            }
        }
        rec
    }

    /// Spans recorded.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn counter(&self, name: &str) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        self.counters.get(name).map_or(0.0, |&v| v as f64)
    }

    /// Ascending durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.elapsed_ns)
            .collect();
        d.sort_unstable();
        d
    }
}

/// Nanoseconds to seconds.
#[allow(clippy::cast_precision_loss)]
fn secs(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// `num / den`, or 0 when `den` is 0.
fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median, tail, tail percentile and sample count of the span `name`, with
/// durations divided by `scale_ns` (1,000 for µs, 1,000,000 for ms).
#[allow(clippy::cast_precision_loss)]
fn latency(rec: &Recorded, name: &str, scale_ns: f64) -> [f64; 4] {
    let d = rec.durations(name);
    let tail = tail_percentile(d.len());
    [
        percentile(&d, 50) as f64 / scale_ns,
        tail.map_or(0.0, |p| percentile(&d, p) as f64 / scale_ns),
        tail.map_or(0.0, |p| p as f64),
        d.len() as f64,
    ]
}

/// The sim, core, adversary and pool metrics of a traced pass, plus every
/// reconciliation violation found, given the pass's wall time, its worker
/// count, and the seconds its top-level library calls took.
#[must_use]
pub fn attribute(
    rec: &Recorded,
    threads: usize,
    trace_wall_s: f64,
    attributed_s: f64,
) -> (BTreeMap<&'static str, f64>, Vec<String>) {
    let tree = SpanTree::build(&rec.spans);
    let phases: BTreeMap<String, PhaseStat> = tree.phases().into_iter().collect();
    let stat = |name: &str| phases.get(name).copied().unwrap_or_default();
    let (drive, deliver, phase_a, adversary) = (
        stat("world.drive"),
        stat("round.deliver"),
        stat("round.phase_a"),
        stat("round.adversary"),
    );
    let drive_s = secs(drive.total_ns);
    // One `round.deliver` span per round, so the delivery tail's sample
    // count is `sim.rounds`.
    let [deliver_p50, deliver_tail, deliver_pct, _] = latency(rec, "round.deliver", 1e3);
    let [decide_p50, decide_tail, decide_pct, decisions] = latency(rec, "round.adversary", 1e6);
    let busy_ns: u64 = worker_busy_ns(&rec.spans).values().sum();
    let utilization = rec
        .histograms
        .get("pool.utilization")
        .map_or(0.0, |&(count, sum)| {
            #[allow(clippy::cast_precision_loss)]
            share(sum as f64, count as f64)
        });
    #[allow(clippy::cast_precision_loss)]
    let core_rounds = rec
        .histograms
        .get("batch.rounds")
        .map_or(0.0, |h| h.1 as f64);

    let metrics = BTreeMap::from([
        ("sim.drive_s", drive_s),
        ("sim.deliver_self_s", secs(deliver.self_ns)),
        ("sim.deliver_share", share(secs(deliver.total_ns), drive_s)),
        ("sim.deliver_us_p50", deliver_p50),
        ("sim.deliver_us_tail", deliver_tail),
        ("sim.deliver_tail_pct", deliver_pct),
        ("sim.rounds", rec.counter("sim.rounds")),
        ("sim.deliver_plane", rec.counter("round.deliver.plane")),
        ("sim.deliver_scalar", rec.counter("round.deliver.scalar")),
        ("core.phase_a_self_s", secs(phase_a.self_ns)),
        ("core.runs", rec.counter("batch.runs")),
        ("core.rounds", core_rounds),
        ("core.violations", rec.counter("batch.violations")),
        ("core.timeouts", rec.counter("batch.timeouts")),
        ("adversary.self_s", secs(adversary.self_ns)),
        ("adversary.share", share(secs(adversary.total_ns), drive_s)),
        ("adversary.decide_ms_p50", decide_p50),
        ("adversary.decide_ms_tail", decide_tail),
        ("adversary.decide_tail_pct", decide_pct),
        ("adversary.decisions", decisions),
        ("pool.busy_s", secs(busy_ns)),
        ("pool.utilization_mean_pct", utilization),
        ("lab.cells_executed", rec.counter("lab.cells.executed")),
        ("lab.cells_cached", rec.counter("lab.cells.cached")),
    ]);
    let violations = reconcile(&tree, secs(busy_ns), threads, trace_wall_s, attributed_s);
    (metrics, violations)
}

/// The reconciliation checks: no phase's self time exceeds its parent's
/// total, Σ worker busy time fits in `threads × wall`, and the top-level
/// library calls fit in the wall time. Returns one message per violation.
#[must_use]
pub fn reconcile(
    tree: &SpanTree,
    busy_s: f64,
    threads: usize,
    wall_s: f64,
    attributed_s: f64,
) -> Vec<String> {
    /// `parent` is the enclosing node's stack path and total.
    fn walk(nodes: &[SpanNode], parent: Option<(&str, u64)>, out: &mut Vec<String>) {
        for node in nodes {
            let here = match parent {
                None => node.name.clone(),
                Some((path, total)) => {
                    let here = format!("{path};{}", node.name);
                    if node.stat.self_ns > total {
                        out.push(format!(
                            "self time of {here} ({} ns) exceeds the total of {path} ({total} ns)",
                            node.stat.self_ns
                        ));
                    }
                    here
                }
            };
            walk(&node.children, Some((&here, node.stat.total_ns)), out);
        }
    }
    let mut out = Vec::new();
    walk(&tree.roots, None, &mut out);
    #[allow(clippy::cast_precision_loss)]
    let capacity_s = threads as f64 * wall_s;
    if busy_s > capacity_s {
        out.push(format!(
            "worker busy time {busy_s:.6} s exceeds {threads} threads × {wall_s:.6} s wall"
        ));
    }
    if attributed_s > wall_s {
        out.push(format!(
            "top-level layer time {attributed_s:.6} s exceeds the {wall_s:.6} s wall"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, worker: Option<u32>, start_ns: u64, elapsed_ns: u64) -> TelemetryEvent {
        TelemetryEvent::Span {
            name: name.to_string(),
            worker,
            start_ns,
            elapsed_ns,
        }
    }

    /// One serial run: drive ⊃ {phase_a, adversary, deliver} over two rounds.
    fn serial_run() -> Vec<TelemetryEvent> {
        vec![
            span("parallel.worker", Some(0), 0, 1_000),
            span("world.drive", None, 10, 900),
            span("round.phase_a", None, 20, 50),
            span("round.adversary", None, 70, 300),
            span("round.deliver", None, 370, 100),
            span("round.phase_a", None, 480, 50),
            span("round.adversary", None, 530, 300),
            span("round.deliver", None, 830, 60),
            TelemetryEvent::Counter {
                name: "batch.runs".into(),
                value: 1,
            },
            TelemetryEvent::Histogram {
                name: "batch.rounds".into(),
                count: 1,
                sum: 2,
                min: 2,
                max: 2,
            },
        ]
    }

    #[test]
    fn serial_run_attributes_every_phase() {
        let rec = Recorded::from_events(&serial_run());
        let (m, violations) = attribute(&rec, 1, 2.0e-6, 0.5e-6);
        assert!(violations.is_empty(), "{violations:?}");
        assert!((m["sim.drive_s"] - 900e-9).abs() < 1e-15);
        assert!((m["adversary.share"] - 600.0 / 900.0).abs() < 1e-12);
        assert!((m["sim.deliver_share"] - 160.0 / 900.0).abs() < 1e-12);
        assert!((m["adversary.self_s"] - 600e-9).abs() < 1e-15);
        assert_eq!(m["adversary.decisions"], 2.0);
        // Two samples are too few for any tail.
        assert_eq!(m["adversary.decide_tail_pct"], 0.0);
        assert_eq!(m["core.runs"], 1.0);
        assert_eq!(m["core.rounds"], 2.0);
        // The pool wrapper counts as busy time, never as a layer.
        assert!((m["pool.busy_s"] - 1_000e-9).abs() < 1e-15);
    }

    #[test]
    fn reconciliation_reports_each_violation() {
        // Two overlapping workers whose busy time exceeds one thread's
        // wall, and top-level time larger than the wall.
        let events = vec![
            span("parallel.worker", Some(0), 0, 100),
            span("parallel.worker", Some(1), 0, 100),
        ];
        let rec = Recorded::from_events(&events);
        let (_, violations) = attribute(&rec, 1, 100e-9, 200e-9);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations[0].contains("busy"));
        assert!(violations[1].contains("top-level"));

        // A child whose self time exceeds its parent's total.
        let tree = SpanTree {
            roots: vec![SpanNode {
                name: "parent".into(),
                stat: PhaseStat {
                    count: 1,
                    total_ns: 10,
                    ..PhaseStat::default()
                },
                children: vec![SpanNode {
                    name: "child".into(),
                    stat: PhaseStat {
                        count: 1,
                        total_ns: 20,
                        self_ns: 20,
                        ..PhaseStat::default()
                    },
                    children: Vec::new(),
                }],
            }],
        };
        let violations = reconcile(&tree, 0.0, 1, 1.0, 0.0);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].starts_with("self time of parent;child (20 ns)"));
    }

    #[test]
    fn tails_follow_the_sample_count_rule() {
        let events: Vec<TelemetryEvent> = (0..1000u64)
            .map(|i| span("round.deliver", None, i * 10, i + 1))
            .collect();
        let rec = Recorded::from_events(&events);
        let [p50, tail, pct, n] = latency(&rec, "round.deliver", 1.0);
        assert_eq!((p50, tail, pct, n), (500.0, 990.0, 99.0, 1000.0));
        let few = Recorded::from_events(&events[..100]);
        let [_, tail, pct, n] = latency(&few, "round.deliver", 1.0);
        assert_eq!((tail, pct, n), (90.0, 90.0, 100.0));
    }
}
