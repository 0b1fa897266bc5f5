//! Folding raw telemetry streams back into answers.
//!
//! The sinks in the parent module write telemetry *out* — one JSONL event
//! per line, stable field order. This module is the read side: it parses
//! those streams ([`TelemetryStream`]), folds flat [`SpanRecord`]s into a
//! hierarchical **span tree** ([`SpanTree`]) with per-phase self/child
//! time, and exports the tree in the folded-stack text format standard
//! flamegraph tooling consumes. `synran report` is a thin renderer over
//! these types.
//!
//! # Parent inference
//!
//! Span records are flat: `(name, worker, start_ns, elapsed_ns)` in drop
//! order, no parent ids. The tree is reconstructed from **time
//! containment**: spans are sorted by `(start, -end, name, worker)` and a
//! span's parent is the innermost earlier span whose interval contains it.
//!
//! Containment is tracked **per worker lane**. Every span opened inside a
//! `parallel.worker` span carries that worker's index (the parent module's
//! lane inheritance), and one lane is one thread at a time, so spans of a
//! lane nest exactly like a serial call stack. A lane span's ancestors are
//! the unattributed (`worker: null`) spans containing it — the dispatch
//! around the workers — followed by the enclosing spans of its own lane;
//! concurrent lanes never nest inside each other. Unattributed spans nest
//! only among themselves. (Artifacts written before lane inheritance carry
//! a worker index on `parallel.worker` spans only; their inner spans fold
//! as siblings of the worker span rather than its children. Per-phase
//! totals are exact either way.)
//!
//! # Determinism
//!
//! Everything here is a pure function of the input records: building a
//! tree from the same multiset of spans — in any record order — yields
//! byte-identical [`folded`](SpanTree::folded) and
//! [`render_text`](SpanTree::render_text) output. Nothing in this module
//! reads clocks, thread ids, or global state, and nothing feeds back into
//! simulation results (the observe-only contract of the parent module).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::BufRead;

use super::{Histogram, SpanRecord, TelemetryEvent};

/// A span with an owned name — what a parsed stream yields (in-process
/// [`SpanRecord`]s carry `&'static str` names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSpan {
    /// Span name, e.g. `"round.phase_a"`.
    pub name: String,
    /// Worker-thread attribution, if recorded inside the parallel engine.
    pub worker: Option<u32>,
    /// Start, nanoseconds since the hub epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub elapsed_ns: u64,
}

impl OwnedSpan {
    /// One past the span's last nanosecond.
    #[must_use]
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.elapsed_ns)
    }
}

impl From<&SpanRecord> for OwnedSpan {
    fn from(s: &SpanRecord) -> OwnedSpan {
        OwnedSpan {
            name: s.name.to_string(),
            worker: s.worker,
            start_ns: s.start_ns,
            elapsed_ns: s.elapsed_ns,
        }
    }
}

/// Aggregated statistics of one phase (one tree node, or one name).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Spans folded into this entry.
    pub count: u64,
    /// Total wall-clock nanoseconds (sum of span durations).
    pub total_ns: u64,
    /// Nanoseconds not covered by child spans.
    pub self_ns: u64,
    /// Shortest contributing span.
    pub min_ns: u64,
    /// Longest contributing span.
    pub max_ns: u64,
}

impl PhaseStat {
    /// Nanoseconds attributed to children (`total − self`).
    #[must_use]
    pub fn child_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.self_ns)
    }

    fn absorb(&mut self, elapsed_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns += elapsed_ns;
    }

    fn merge(&mut self, other: &PhaseStat) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.self_ns += other.self_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One node of the span tree: a distinct name *path*, with every span that
/// took that path folded into one [`PhaseStat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The phase name at this tree position.
    pub name: String,
    /// Folded statistics of every span at this path.
    pub stat: PhaseStat,
    /// Child nodes, in name order.
    pub children: Vec<SpanNode>,
}

/// A hierarchical fold of flat span records (see the [module
/// docs](self) for the parent-inference and determinism contracts).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanTree {
    /// Top-level nodes (spans with no containing span), in name order.
    pub roots: Vec<SpanNode>,
}

/// Interval-nesting scratch: a mutable tree keyed by name at each level.
#[derive(Default)]
struct Folder {
    stat: PhaseStat,
    children: BTreeMap<String, Folder>,
}

impl Folder {
    fn insert(&mut self, path: &[&str], elapsed_ns: u64) {
        match path.split_first() {
            None => self.stat.absorb(elapsed_ns),
            Some((head, rest)) => self
                .children
                .entry((*head).to_string())
                .or_default()
                .insert(rest, elapsed_ns),
        }
    }

    fn into_nodes(self) -> Vec<SpanNode> {
        self.children
            .into_iter()
            .map(|(name, folder)| {
                let mut stat = folder.stat;
                let children = Folder {
                    stat: PhaseStat::default(),
                    children: folder.children,
                }
                .into_nodes();
                let child_total: u64 = children.iter().map(|c| c.stat.total_ns).sum();
                stat.self_ns = stat.total_ns.saturating_sub(child_total);
                SpanNode {
                    name,
                    stat,
                    children,
                }
            })
            .collect()
    }
}

impl SpanTree {
    /// Builds the tree from flat records (any order).
    #[must_use]
    pub fn build(spans: &[OwnedSpan]) -> SpanTree {
        // Sort order makes the build a pure function of the span multiset:
        // by start ascending, then end descending (so an enclosing span
        // precedes the spans it contains even when they share a start),
        // then name and worker as total-order tiebreaks.
        let mut sorted: Vec<&OwnedSpan> = spans.iter().collect();
        sorted.sort_by(|a, b| {
            a.start_ns
                .cmp(&b.start_ns)
                .then(b.end_ns().cmp(&a.end_ns()))
                .then(a.name.cmp(&b.name))
                .then(a.worker.cmp(&b.worker))
        });

        /// Pops the open intervals of `stack` that cannot contain `span`:
        /// those ending at or before it starts, or before it ends (overlap
        /// without containment; treat as siblings).
        fn close(stack: &mut Vec<(u64, &str)>, span: &OwnedSpan) {
            while let Some(&(end, _)) = stack.last() {
                if end <= span.start_ns || end < span.end_ns() {
                    stack.pop();
                } else {
                    break;
                }
            }
        }

        let mut folder = Folder::default();
        // Stacks of open intervals, (end_ns, name): one for unattributed
        // spans and one per worker lane. A span's path is the chain of
        // still-open intervals that contain it.
        let mut shared: Vec<(u64, &str)> = Vec::new();
        let mut lanes: BTreeMap<u32, Vec<(u64, &str)>> = BTreeMap::new();
        for span in sorted {
            let mut path: Vec<&str> = Vec::new();
            let stack = match span.worker {
                None => {
                    close(&mut shared, span);
                    &mut shared
                }
                Some(w) => {
                    // Closed unattributed intervals can go (later spans
                    // start later still); open ones that do not contain
                    // this span may still contain a later one.
                    while shared.last().is_some_and(|&(end, _)| end <= span.start_ns) {
                        shared.pop();
                    }
                    path.extend(
                        shared
                            .iter()
                            .take_while(|&&(end, _)| end >= span.end_ns())
                            .map(|&(_, name)| name),
                    );
                    let lane = lanes.entry(w).or_default();
                    close(lane, span);
                    lane
                }
            };
            path.extend(stack.iter().map(|&(_, name)| name));
            path.push(&span.name);
            folder.insert(&path, span.elapsed_ns);
            stack.push((span.end_ns(), &span.name));
        }
        SpanTree {
            roots: folder.into_nodes(),
        }
    }

    /// `true` when no span was folded in.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Per-phase statistics aggregated **by name** across every tree
    /// position, in name order. `self_ns` sums each position's self time,
    /// so `Σ self_ns` over all phases equals `Σ total_ns` over the roots.
    #[must_use]
    pub fn phases(&self) -> Vec<(String, PhaseStat)> {
        fn walk(nodes: &[SpanNode], into: &mut BTreeMap<String, PhaseStat>) {
            for node in nodes {
                into.entry(node.name.clone()).or_default().merge(&node.stat);
                walk(&node.children, into);
            }
        }
        let mut by_name = BTreeMap::new();
        walk(&self.roots, &mut by_name);
        by_name.into_iter().collect()
    }

    /// The tree in folded-stack text: one `a;b;c <self_ns>` line per
    /// distinct stack, sorted lexicographically — the input format of
    /// standard flamegraph tooling (the "sample count" column carries
    /// self-nanoseconds). Zero-self stacks with children are omitted, as
    /// flamegraph conventions expect.
    #[must_use]
    pub fn folded(&self) -> String {
        fn walk(nodes: &[SpanNode], prefix: &str, out: &mut String) {
            for node in nodes {
                let stack = if prefix.is_empty() {
                    node.name.clone()
                } else {
                    format!("{prefix};{}", node.name)
                };
                if node.stat.self_ns > 0 || node.children.is_empty() {
                    let _ = writeln!(out, "{stack} {}", node.stat.self_ns);
                }
                walk(&node.children, &stack, out);
            }
        }
        let mut out = String::new();
        walk(&self.roots, "", &mut out);
        out
    }

    /// The tree as indented text: `name  count  total  self  min..max`
    /// per line, two spaces of indent per depth — the `synran report`
    /// tree rendering.
    #[must_use]
    pub fn render_text(&self) -> String {
        fn walk(nodes: &[SpanNode], depth: usize, out: &mut String) {
            for node in nodes {
                let _ = writeln!(
                    out,
                    "{:indent$}{} count={} total={}ns self={}ns range=[{}..{}]ns",
                    "",
                    node.name,
                    node.stat.count,
                    node.stat.total_ns,
                    node.stat.self_ns,
                    node.stat.min_ns,
                    node.stat.max_ns,
                    indent = depth * 2
                );
                walk(&node.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.roots, 0, &mut out);
        out
    }
}

/// Busy nanoseconds per worker lane: the time covered by that lane's
/// `parallel.worker` spans (one per dispatch participant). Other spans
/// carry the lane too but are work *inside* a worker, and a nested inline
/// dispatch's worker spans lie inside the outer one, so each lane counts
/// the union of its worker-span intervals — never the same nanosecond
/// twice.
#[must_use]
pub fn worker_busy_ns(spans: &[OwnedSpan]) -> BTreeMap<u32, u64> {
    let mut intervals: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let (Some(w), "parallel.worker") = (span.worker, span.name.as_str()) {
            intervals
                .entry(w)
                .or_default()
                .push((span.start_ns, span.end_ns()));
        }
    }
    intervals
        .into_iter()
        .map(|(w, mut lane)| {
            lane.sort_unstable();
            let (mut busy, mut covered_to) = (0u64, 0u64);
            for (start, end) in lane {
                let start = start.max(covered_to);
                if end > start {
                    busy += end - start;
                    covered_to = end;
                }
            }
            (w, busy)
        })
        .collect()
}

/// Wall-clock extent of a span set: `max(end) − min(start)` (0 when
/// empty) — the denominator of a utilization figure.
#[must_use]
pub fn wall_ns(spans: &[OwnedSpan]) -> u64 {
    let start = spans.iter().map(|s| s.start_ns).min();
    let end = spans.iter().map(OwnedSpan::end_ns).max();
    match (start, end) {
        (Some(start), Some(end)) => end.saturating_sub(start),
        _ => 0,
    }
}

/// How one stream line classified during a read — the accounting behind
/// `synran report --check`.
#[derive(Debug, Clone, PartialEq)]
pub enum LineKind {
    /// A recognized telemetry event.
    Event(TelemetryEvent),
    /// Well-formed JSON object of an unknown `"type"` (a newer writer);
    /// skipped under the forward-compatibility contract.
    Unknown,
    /// Not a complete JSON object line: the truncated tail of a killed
    /// writer, or garbage.
    Malformed,
    /// Empty or whitespace-only.
    Blank,
}

/// Classifies one line of a telemetry JSONL stream.
#[must_use]
pub fn classify_line(line: &str) -> LineKind {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return LineKind::Blank;
    }
    if let Some(event) = TelemetryEvent::from_jsonl(trimmed) {
        return LineKind::Event(event);
    }
    // Distinguish "complete object we don't understand" from "truncated /
    // malformed": a well-formed unknown line still has the object shape
    // and a type field.
    if trimmed.starts_with('{')
        && trimmed.ends_with('}')
        && super::json_str_field(trimmed, "type").is_some()
    {
        return LineKind::Unknown;
    }
    LineKind::Malformed
}

/// One `round_kills` accounting row: the adversary's spend in one round
/// against the paper's `⌈4√(n·ln n)⌉+1` cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundKillRow {
    /// The round.
    pub round: u32,
    /// Processes failed in it.
    pub kills: u64,
    /// The per-round cap.
    pub cap: u64,
    /// Whether the spend exceeded the cap.
    pub over_cap: bool,
}

/// A parsed telemetry JSONL stream, with per-line accounting.
///
/// Counters and histograms keep **last-write-wins** semantics (an
/// exported registry writes each name once; a stream concatenating
/// several exports reads as the final snapshot).
#[derive(Debug, Clone, Default)]
pub struct TelemetryStream {
    /// `meta` attribution lines, in stream order.
    pub meta: Vec<(String, String)>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span records, in stream order.
    pub spans: Vec<OwnedSpan>,
    /// Per-round kill-budget rows, in stream order.
    pub round_kills: Vec<RoundKillRow>,
    /// Total lines read (including blank ones).
    pub lines: usize,
    /// Well-formed lines of unknown type (skipped, forward-compatible).
    pub unknown: usize,
    /// Malformed or truncated lines (skipped; `--check` fails on these).
    pub malformed: usize,
}

impl TelemetryStream {
    /// Parses a whole stream from a string (for tests and fixtures).
    #[must_use]
    pub fn parse(text: &str) -> TelemetryStream {
        let mut stream = TelemetryStream::default();
        for line in text.lines() {
            stream.push_line(line);
        }
        stream
    }

    /// Reads a stream line-by-line from any [`BufRead`].
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from the reader (parse problems are
    /// never errors — they land in [`malformed`](TelemetryStream::malformed)
    /// / [`unknown`](TelemetryStream::unknown)).
    pub fn read(reader: impl BufRead) -> std::io::Result<TelemetryStream> {
        let mut stream = TelemetryStream::default();
        for line in reader.lines() {
            stream.push_line(&line?);
        }
        Ok(stream)
    }

    fn push_line(&mut self, line: &str) {
        self.lines += 1;
        match classify_line(line) {
            LineKind::Event(TelemetryEvent::Meta { key, value }) => self.meta.push((key, value)),
            LineKind::Event(TelemetryEvent::Counter { name, value }) => {
                self.counters.insert(name, value);
            }
            LineKind::Event(TelemetryEvent::Histogram {
                name,
                count,
                sum,
                min,
                max,
            }) => {
                self.histograms.insert(
                    name,
                    Histogram {
                        count,
                        sum,
                        min,
                        max,
                    },
                );
            }
            LineKind::Event(TelemetryEvent::Span {
                name,
                worker,
                start_ns,
                elapsed_ns,
            }) => self.spans.push(OwnedSpan {
                name,
                worker,
                start_ns,
                elapsed_ns,
            }),
            LineKind::Event(TelemetryEvent::RoundKills {
                round,
                kills,
                cap,
                over_cap,
            }) => self.round_kills.push(RoundKillRow {
                round,
                kills,
                cap,
                over_cap,
            }),
            LineKind::Unknown => self.unknown += 1,
            LineKind::Malformed => self.malformed += 1,
            LineKind::Blank => {}
        }
    }

    /// Recognized events parsed from the stream.
    #[must_use]
    pub fn events(&self) -> usize {
        self.meta.len()
            + self.counters.len()
            + self.histograms.len()
            + self.spans.len()
            + self.round_kills.len()
    }

    /// The span tree of this stream's spans.
    #[must_use]
    pub fn span_tree(&self) -> SpanTree {
        SpanTree::build(&self.spans)
    }

    /// The `meta` value of `key`, if present (first write wins).
    #[must_use]
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, worker: Option<u32>, start: u64, elapsed: u64) -> OwnedSpan {
        OwnedSpan {
            name: name.to_string(),
            worker,
            start_ns: start,
            elapsed_ns: elapsed,
        }
    }

    /// A serial-shaped profile: drive ⊃ {phase_a, deliver×2}, twice.
    fn serial_profile() -> Vec<OwnedSpan> {
        vec![
            span("world.drive", None, 0, 100),
            span("round.phase_a", None, 5, 10),
            span("round.deliver", None, 20, 30),
            span("round.deliver", None, 60, 20),
            span("world.drive", None, 200, 50),
            span("round.phase_a", None, 210, 15),
        ]
    }

    #[test]
    fn containment_recovers_the_call_tree() {
        let tree = SpanTree::build(&serial_profile());
        assert_eq!(tree.roots.len(), 1);
        let drive = &tree.roots[0];
        assert_eq!(drive.name, "world.drive");
        assert_eq!(drive.stat.count, 2);
        assert_eq!(drive.stat.total_ns, 150);
        // Children: deliver (30+20) and phase_a (10+15) → self = 150 − 75.
        assert_eq!(drive.stat.self_ns, 75);
        assert_eq!(drive.children.len(), 2);
        assert_eq!(drive.children[0].name, "round.deliver");
        assert_eq!(drive.children[0].stat.total_ns, 50);
        assert_eq!(drive.children[1].name, "round.phase_a");
        assert_eq!(drive.children[1].stat.count, 2);
        assert_eq!((drive.stat.min_ns, drive.stat.max_ns), (50, 100));
    }

    #[test]
    fn build_is_record_order_independent() {
        let spans = serial_profile();
        let baseline = SpanTree::build(&spans);
        let folded = baseline.folded();
        let text = baseline.render_text();
        let mut rotated = spans;
        for _ in 0..rotated.len() {
            rotated.rotate_left(1);
            let tree = SpanTree::build(&rotated);
            assert_eq!(tree, baseline);
            assert_eq!(tree.folded(), folded);
            assert_eq!(tree.render_text(), text);
        }
        // Reversed, too (drop order is reverse completion order).
        let mut reversed = serial_profile();
        reversed.reverse();
        assert_eq!(SpanTree::build(&reversed), baseline);
    }

    #[test]
    fn folded_output_is_sorted_and_self_weighted() {
        let folded = SpanTree::build(&serial_profile()).folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec![
                "world.drive 75",
                "world.drive;round.deliver 50",
                "world.drive;round.phase_a 25",
            ]
        );
        // Valid folded-stack: every line is `stack<space><number>`.
        for line in &lines {
            let (stack, n) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            n.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn overlap_without_containment_becomes_siblings() {
        // Two concurrent chunks: overlapping but neither contains the
        // other → both are roots, not nested.
        let spans = vec![
            span("parallel.worker", Some(0), 0, 100),
            span("parallel.worker", Some(1), 50, 100),
        ];
        let tree = SpanTree::build(&spans);
        assert_eq!(tree.roots.len(), 1, "same name merges at the root");
        assert_eq!(tree.roots[0].stat.count, 2);
        assert!(tree.roots[0].children.is_empty());
    }

    #[test]
    fn concurrent_lanes_never_nest_inside_each_other() {
        // Two participants of one dispatch, each driving a world. Lane 1's
        // drive starts inside lane 0's drive interval, and a single
        // containment stack would make it lane 0's child.
        let spans = vec![
            span("parallel.par_map", None, 0, 1_000),
            span("parallel.worker", Some(0), 10, 900),
            span("world.drive", Some(0), 20, 800),
            span("round.adversary", Some(0), 30, 700),
            span("parallel.worker", Some(1), 15, 900),
            span("world.drive", Some(1), 100, 300),
            span("round.adversary", Some(1), 110, 200),
            // Unattributed work after the dispatch, inside no lane.
            span("batch.run_batch", None, 1_000, 20),
        ];
        let folded = SpanTree::build(&spans).folded();
        // The dispatch's own self time saturates at 0 (its children ran
        // concurrently), so its line is omitted.
        assert_eq!(
            folded.lines().collect::<Vec<_>>(),
            vec![
                "batch.run_batch 20",
                "parallel.par_map;parallel.worker 700",
                "parallel.par_map;parallel.worker;world.drive 200",
                "parallel.par_map;parallel.worker;world.drive;round.adversary 900",
            ],
            "{folded}"
        );
        let phases: BTreeMap<String, PhaseStat> =
            SpanTree::build(&spans).phases().into_iter().collect();
        assert_eq!(phases["world.drive"].total_ns, 1_100);
        assert_eq!(phases["world.drive"].self_ns, 200);
        assert_eq!(phases["parallel.worker"].self_ns, 700);
    }

    #[test]
    fn phases_sum_self_time_across_positions() {
        // deliver appears under drive AND at the root.
        let spans = vec![
            span("world.drive", None, 0, 100),
            span("round.deliver", None, 10, 20),
            span("round.deliver", None, 500, 40),
        ];
        let phases = SpanTree::build(&spans).phases();
        let deliver = phases
            .iter()
            .find(|(name, _)| name == "round.deliver")
            .map(|(_, stat)| *stat)
            .unwrap();
        assert_eq!(deliver.count, 2);
        assert_eq!(deliver.total_ns, 60);
        assert_eq!(deliver.self_ns, 60);
        let total_self: u64 = phases.iter().map(|(_, s)| s.self_ns).sum();
        let root_total: u64 = SpanTree::build(&spans)
            .roots
            .iter()
            .map(|r| r.stat.total_ns)
            .sum();
        assert_eq!(total_self, root_total);
    }

    #[test]
    fn worker_utilization_helpers() {
        let spans = vec![
            span("parallel.worker", Some(0), 0, 80),
            span("parallel.worker", Some(1), 10, 60),
            span("world.drive", None, 5, 20),
            // Work inside lane 0, and a nested inline dispatch's worker
            // span: both lie inside lane 0's worker span.
            span("world.drive", Some(0), 5, 70),
            span("parallel.worker", Some(0), 10, 30),
            // A later dispatch's participant 1.
            span("parallel.worker", Some(1), 100, 5),
        ];
        let busy = worker_busy_ns(&spans);
        assert_eq!(
            busy.get(&0),
            Some(&80),
            "nested spans are not counted twice"
        );
        assert_eq!(busy.get(&1), Some(&65));
        assert_eq!(busy.len(), 2, "unattributed spans don't count");
        assert_eq!(wall_ns(&spans), 105);
        assert_eq!(wall_ns(&[]), 0);
    }

    #[test]
    fn classify_distinguishes_unknown_from_malformed() {
        assert!(matches!(
            classify_line("{\"type\":\"counter\",\"name\":\"x\",\"value\":3}"),
            LineKind::Event(TelemetryEvent::Counter { .. })
        ));
        assert_eq!(
            classify_line("{\"type\":\"from_the_future\",\"x\":1}"),
            LineKind::Unknown
        );
        assert_eq!(
            classify_line("{\"type\":\"counter\",\"name\":\"x\",\"va"),
            LineKind::Malformed
        );
        assert_eq!(classify_line("not json at all"), LineKind::Malformed);
        assert_eq!(classify_line("   "), LineKind::Blank);
    }

    #[test]
    fn stream_parses_a_mixed_artifact() {
        let text = "\
{\"type\":\"meta\",\"key\":\"experiment\",\"value\":\"demo\"}
{\"type\":\"counter\",\"name\":\"sim.rounds\",\"value\":9}
{\"type\":\"histogram\",\"name\":\"round.kills\",\"count\":2,\"sum\":7,\"min\":3,\"max\":4}
{\"type\":\"span\",\"name\":\"world.drive\",\"worker\":null,\"start_ns\":0,\"elapsed_ns\":50}
{\"type\":\"span\",\"name\":\"round.deliver\",\"worker\":2,\"start_ns\":10,\"elapsed_ns\":5}
{\"type\":\"round_kills\",\"round\":1,\"kills\":4,\"cap\":12,\"over_cap\":false}
{\"type\":\"shiny_new_thing\",\"x\":1}
{\"type\":\"span\",\"name\":\"tru";
        let stream = TelemetryStream::parse(text);
        assert_eq!(stream.lines, 8);
        assert_eq!(stream.meta_value("experiment"), Some("demo"));
        assert_eq!(stream.counters.get("sim.rounds"), Some(&9));
        assert_eq!(stream.histograms.get("round.kills").unwrap().sum, 7);
        assert_eq!(stream.spans.len(), 2);
        assert_eq!(stream.spans[1].worker, Some(2));
        assert_eq!(
            stream.round_kills,
            vec![RoundKillRow {
                round: 1,
                kills: 4,
                cap: 12,
                over_cap: false
            }]
        );
        assert_eq!(stream.unknown, 1);
        assert_eq!(stream.malformed, 1);
        assert_eq!(stream.events(), 6);
        let tree = stream.span_tree();
        assert_eq!(tree.roots[0].children[0].name, "round.deliver");
    }

    #[test]
    fn empty_and_blank_streams() {
        let stream = TelemetryStream::parse("");
        assert_eq!(stream.events(), 0);
        assert!(stream.span_tree().is_empty());
        let blank = TelemetryStream::parse("\n\n");
        assert_eq!(blank.lines, 2);
        assert_eq!(blank.malformed, 0);
    }
}
