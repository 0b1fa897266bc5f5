//! `synran report` — deterministic renderings of telemetry and journal
//! streams.
//!
//! A [`Report`] ingests any mix of `results/*.telemetry.jsonl` and
//! `results/*.journal.jsonl` files and renders them as aligned tables
//! ([`ReportFormat::Table`]), a flat JSON summary ([`ReportFormat::Json`]),
//! or a folded-stack profile for flamegraph tooling
//! ([`ReportFormat::Folded`]). Every rendering is a **pure function of
//! the input bytes**: no clocks, no environment, no thread-count
//! sensitivity — re-running `synran report` on the same files yields
//! byte-identical output (pinned by `tests/report_cli.rs`).
//!
//! [`Report::check`] is the gatekeeper mode: it re-parses every line and
//! fails on malformed or truncated streams, so CI can assert artifact
//! integrity without knowing anything about their contents.
//!
//! Like the progress sink, this module is read-only over experiment
//! outputs — nothing here may ever feed back into simulation results.

use std::collections::BTreeMap;
use std::path::Path;

use synran_analysis::{fmt_f64, Table};
use synran_sim::json::Escaped;
use synran_sim::telemetry::aggregate::{worker_busy_ns, TelemetryStream};
use synran_sim::telemetry::per_round_kill_cap;
use synran_sim::{OwnedSpan, PhaseStat, SpanTree};

use crate::journal::{scan_journal, JournalScan};
use crate::LabError;

/// Output renderings of `synran report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Aligned text tables (the default).
    Table,
    /// A flat, deterministic JSON summary.
    Json,
    /// Folded-stack lines (`a;b;c self_ns`) for flamegraph tooling.
    Folded,
}

impl ReportFormat {
    /// Parses a `--format` value.
    ///
    /// # Errors
    ///
    /// Returns a [`LabError::Spec`] naming the valid values.
    pub fn parse(s: &str) -> Result<ReportFormat, LabError> {
        match s {
            "table" => Ok(ReportFormat::Table),
            "json" => Ok(ReportFormat::Json),
            "folded" => Ok(ReportFormat::Folded),
            other => Err(LabError::Spec(format!(
                "unknown report format '{other}' (expected table, json, or folded)"
            ))),
        }
    }
}

/// A report over one or more ingested artifact files.
#[derive(Debug, Default)]
pub struct Report {
    telemetry: Vec<(String, TelemetryStream)>,
    journals: Vec<(String, JournalScan)>,
}

impl Report {
    /// An empty report.
    #[must_use]
    pub fn new() -> Report {
        Report::default()
    }

    /// Ingests `path`, classifying it by name: `*.journal.jsonl` parses
    /// as a campaign journal, anything else as a telemetry stream.
    ///
    /// # Errors
    ///
    /// Returns an I/O error if the file cannot be read (a *parse*
    /// problem is never an error here — it lands in the per-file
    /// accounting that [`Report::check`] inspects).
    pub fn load(&mut self, path: &Path) -> Result<(), LabError> {
        let name = path.display().to_string();
        if name.ends_with(".journal.jsonl") {
            self.journals.push((name, scan_journal(path)?));
        } else {
            let file = std::fs::File::open(path)?;
            let stream = TelemetryStream::read(std::io::BufReader::new(file))?;
            self.telemetry.push((name, stream));
        }
        Ok(())
    }

    /// Adds an already-parsed telemetry stream under `name` (tests).
    pub fn add_telemetry(&mut self, name: &str, stream: TelemetryStream) {
        self.telemetry.push((name.to_string(), stream));
    }

    /// Renders the report in `format`.
    #[must_use]
    pub fn render(&self, format: ReportFormat) -> String {
        match format {
            ReportFormat::Table => self.render_table(),
            ReportFormat::Json => self.render_json(),
            ReportFormat::Folded => self.render_folded(),
        }
    }

    /// Integrity mode: per-file accounting plus a verdict. `Ok` text
    /// means every line of every file parsed (unknown-but-well-formed
    /// event types are allowed — forward compatibility); `Err` text
    /// means at least one malformed/truncated line, or a telemetry file
    /// with no recognizable events at all.
    ///
    /// # Errors
    ///
    /// Returns the accounting text as the error value on failure, so the
    /// CLI can print it and exit nonzero.
    pub fn check(&self) -> Result<String, String> {
        let mut out = String::new();
        let mut ok = true;
        for (name, stream) in &self.telemetry {
            let events = stream.events().count();
            let bad = stream.malformed > 0 || events == 0;
            ok &= !bad;
            out.push_str(&format!(
                "{}: {} lines, {} events, {} unknown, {} malformed{}\n",
                name,
                stream.lines,
                events,
                stream.unknown,
                stream.malformed,
                if bad { "  [FAIL]" } else { "" },
            ));
        }
        for (name, scan) in &self.journals {
            let bad = scan.skipped > 0 || (scan.entries == 0 && scan.header.is_none());
            ok &= !bad;
            out.push_str(&format!(
                "{}: {} lines, {} cells, {} dropped{}{}\n",
                name,
                scan.lines,
                scan.entries,
                scan.skipped,
                scan.header
                    .as_ref()
                    .map(|h| format!(", campaign '{}' ({} declared)", h.name, h.cells))
                    .unwrap_or_default(),
                if bad { "  [FAIL]" } else { "" },
            ));
        }
        if self.telemetry.is_empty() && self.journals.is_empty() {
            return Err("no input files\n".to_string());
        }
        if ok {
            Ok(out)
        } else {
            Err(out)
        }
    }

    /// Per-file span trees (a tree mixes only spans that share an epoch).
    fn trees(&self) -> Vec<(&str, SpanTree)> {
        self.telemetry
            .iter()
            .map(|(name, stream)| (name.as_str(), stream.span_tree()))
            .collect()
    }

    /// Phase stats merged by name across every file's tree.
    fn merged_phases(&self) -> Vec<(String, PhaseStat)> {
        let mut merged: BTreeMap<String, PhaseStat> = BTreeMap::new();
        for (_, tree) in self.trees() {
            for (name, stat) in tree.phases() {
                merged.entry(name).or_default().merge(&stat);
            }
        }
        merged.into_iter().collect()
    }

    /// A counter summed across every telemetry file.
    fn counter_sum(&self, name: &str) -> Option<u64> {
        let mut sum = 0;
        let mut seen = false;
        for (_, stream) in &self.telemetry {
            if let Some(v) = stream.counters.get(name) {
                sum += v;
                seen = true;
            }
        }
        seen.then_some(sum)
    }

    /// All spans across every telemetry file (utilization only — never
    /// tree-folded, since epochs differ between files).
    fn all_spans(&self) -> Vec<OwnedSpan> {
        self.telemetry
            .iter()
            .flat_map(|(_, s)| s.spans.iter().cloned())
            .collect()
    }

    fn render_table(&self) -> String {
        let mut out = String::new();

        let phases = self.merged_phases();
        out.push_str("## Phases\n\n");
        if phases.is_empty() {
            out.push_str("(no spans — run with telemetry = spans)\n");
        } else {
            let mut t = Table::new(["phase", "count", "total_ns", "self_ns", "child_ns"]);
            for (name, stat) in &phases {
                t.row([
                    name.clone(),
                    stat.count.to_string(),
                    stat.total_ns.to_string(),
                    stat.self_ns.to_string(),
                    stat.child_ns().to_string(),
                ]);
            }
            out.push_str(&t.to_string());
        }

        out.push_str("\n## Kill budget vs cap\n\n");
        let rows: Vec<_> = self
            .telemetry
            .iter()
            .flat_map(|(_, s)| s.round_kills.iter())
            .collect();
        if rows.is_empty() {
            out.push_str("(no round_kills events)\n");
        } else {
            let mut t = Table::new(["round", "kills", "cap", "spend_pct", "over_cap"]);
            for r in rows {
                #[allow(clippy::cast_precision_loss)]
                let spend = if r.cap == 0 {
                    0.0
                } else {
                    r.kills as f64 * 100.0 / r.cap as f64
                };
                t.row([
                    r.round.to_string(),
                    r.kills.to_string(),
                    r.cap.to_string(),
                    fmt_f64(spend, 1),
                    if r.over_cap { "YES" } else { "no" }.to_string(),
                ]);
            }
            out.push_str(&t.to_string());
        }
        if let Some(n) = self.meta_n() {
            out.push_str(&format!(
                "(cap for n = {n}: ceil(4*sqrt(n*ln n)) + 1 = {})\n",
                per_round_kill_cap(n)
            ));
        }

        out.push_str("\n## Valency probes\n\n");
        let zero = self.counter_sum("valency.probe.decided_zero");
        let one = self.counter_sum("valency.probe.decided_one");
        let undecided = self.counter_sum("valency.probe.undecided");
        if zero.is_none() && one.is_none() && undecided.is_none() {
            out.push_str("(no valency counters)\n");
        } else {
            let mut t = Table::new(["outcome", "probes"]);
            t.row(["decided_zero", &zero.unwrap_or(0).to_string()]);
            t.row(["decided_one", &one.unwrap_or(0).to_string()]);
            t.row(["undecided", &undecided.unwrap_or(0).to_string()]);
            out.push_str(&t.to_string());
        }

        out.push_str("\n## Campaign\n\n");
        let mut t = Table::new(["metric", "value"]);
        let mut campaign_rows = false;
        if let (Some(total), Some(cached)) = (
            self.counter_sum("lab.cells.total"),
            self.counter_sum("lab.cells.cached"),
        ) {
            campaign_rows = true;
            #[allow(clippy::cast_precision_loss)]
            let rate = if total == 0 {
                0.0
            } else {
                cached as f64 * 100.0 / total as f64
            };
            t.row(["cache_hit_pct", &fmt_f64(rate, 1)]);
        }
        if let (Some(executed), Some(elapsed)) = (
            self.counter_sum("lab.cells.executed"),
            self.counter_sum("lab.elapsed_ns"),
        ) {
            campaign_rows = true;
            #[allow(clippy::cast_precision_loss)]
            let per_sec = if elapsed == 0 {
                0.0
            } else {
                executed as f64 / (elapsed as f64 / 1e9)
            };
            t.row(["cells_per_sec", &fmt_f64(per_sec, 1)]);
        }
        for (name, scan) in &self.journals {
            campaign_rows = true;
            t.row(["journal", name.as_str()]);
            t.row(["journal_cells", &scan.entries.to_string()]);
            t.row(["journal_dropped_lines", &scan.skipped.to_string()]);
            if let Some(h) = &scan.header {
                t.row(["journal_declared_cells", &h.cells.to_string()]);
            }
        }
        if campaign_rows {
            out.push_str(&t.to_string());
        } else {
            out.push_str("(no campaign counters or journals)\n");
        }

        for (name, scan) in &self.journals {
            if scan.rows.is_empty() {
                continue;
            }
            out.push_str(&format!("\n## Cells — {name}\n\n"));
            let mut t = Table::new([
                "protocol",
                "adversary",
                "n",
                "t",
                "runs",
                "seed",
                "mean_rounds",
                "max_rounds",
                "mean_kills",
                "ok",
            ]);
            for (cell, result) in &scan.rows {
                let ok = result.timeouts == 0 && result.violations == 0;
                t.row([
                    cell.protocol.clone(),
                    cell.adversary.clone(),
                    cell.n.to_string(),
                    cell.t.to_string(),
                    cell.runs.to_string(),
                    cell.seed.to_string(),
                    fmt_f64(result.mean_rounds(), 2),
                    result
                        .max_rounds()
                        .map_or_else(|| "-".to_string(), |r| r.to_string()),
                    fmt_f64(result.mean_kills(), 2),
                    if ok {
                        "yes".to_string()
                    } else {
                        format!("{}to/{}viol", result.timeouts, result.violations)
                    },
                ]);
            }
            out.push_str(&t.to_string());
        }

        out.push_str("\n## Pool\n\n");
        let mut t = Table::new(["metric", "value"]);
        let mut pool_rows = false;
        for key in ["pool.spawned", "pool.reused", "pool.tasks", "pool.inline"] {
            if let Some(v) = self.counter_sum(key) {
                pool_rows = true;
                t.row([key, &v.to_string()]);
            }
        }
        for (_, stream) in &self.telemetry {
            if let Some(h) = stream.histograms.get("pool.utilization") {
                pool_rows = true;
                t.row(["pool.utilization_mean_pct", &fmt_f64(h.mean(), 1)]);
                t.row(["pool.utilization_min_pct", &h.min.to_string()]);
                t.row(["pool.utilization_max_pct", &h.max.to_string()]);
                break;
            }
        }
        let busy = worker_busy_ns(&self.all_spans());
        if !busy.is_empty() {
            pool_rows = true;
            for (worker, ns) in &busy {
                t.row([format!("worker_{worker}_busy_ns"), ns.to_string()]);
            }
        }
        if pool_rows {
            out.push_str(&t.to_string());
        } else {
            out.push_str("(no pool counters)\n");
        }
        out
    }

    /// The `n` meta value, when exactly one is present across the inputs.
    fn meta_n(&self) -> Option<usize> {
        let mut ns: Vec<usize> = self
            .telemetry
            .iter()
            .filter_map(|(_, s)| s.meta_value("n").and_then(|v| v.parse().ok()))
            .collect();
        ns.dedup();
        match ns.as_slice() {
            [n] => Some(*n),
            _ => None,
        }
    }

    fn render_json(&self) -> String {
        let phases: Vec<String> = self.merged_phases().iter().map(|(name, stat)| format!(
            "{{\"phase\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"child_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
            Escaped(name), stat.count, stat.total_ns, stat.self_ns, stat.child_ns(), stat.min_ns, stat.max_ns
        )).collect();
        let round_kills: Vec<String> = self
            .telemetry
            .iter()
            .flat_map(|(_, stream)| &stream.round_kills)
            .map(|r| {
                format!(
                    "{{\"round\":{},\"kills\":{},\"cap\":{},\"over_cap\":{}}}",
                    r.round, r.kills, r.cap, r.over_cap
                )
            })
            .collect();
        let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
        for (_, stream) in &self.telemetry {
            for (name, value) in &stream.counters {
                *counters.entry(name).or_insert(0) += value;
            }
        }
        let counters: Vec<String> = counters
            .iter()
            .map(|(name, value)| format!("\"{}\":{value}", Escaped(name)))
            .collect();
        let journals: Vec<String> = self.journals.iter().map(|(name, scan)| {
            let rows: Vec<String> = scan.rows.iter().map(|(cell, result)| format!(
                "{{\"protocol\":\"{}\",\"adversary\":\"{}\",\"n\":{},\"t\":{},\"runs\":{},\"seed\":{},\"mean_rounds\":{},\"max_rounds\":{},\"mean_kills\":{},\"timeouts\":{},\"violations\":{}}}",
                Escaped(&cell.protocol),
                Escaped(&cell.adversary),
                cell.n,
                cell.t,
                cell.runs,
                cell.seed,
                fmt_f64(result.mean_rounds(), 2),
                result.max_rounds().unwrap_or(0),
                fmt_f64(result.mean_kills(), 2),
                result.timeouts,
                result.violations
            )).collect();
            format!(
                "{{\"path\":\"{}\",\"cells\":{},\"dropped\":{},\"rows\":[{}]}}",
                Escaped(name),
                scan.entries,
                scan.skipped,
                rows.join(",")
            )
        }).collect();
        format!(
            "{{\"phases\":[{}],\"round_kills\":[{}],\"counters\":{{{}}},\"journals\":[{}]}}\n",
            phases.join(","),
            round_kills.join(","),
            counters.join(","),
            journals.join(",")
        )
    }

    /// Folded stacks summed across files, in lexicographic stack order.
    fn render_folded(&self) -> String {
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for (_, tree) in self.trees() {
            for (stack, self_ns) in tree.folded() {
                *stacks.entry(stack).or_insert(0) += self_ns;
            }
        }
        let mut out = String::new();
        for (stack, self_ns) in stacks {
            out.push_str(&format!("{stack} {self_ns}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synran_sim::json::FlatObject;

    fn spans_stream() -> TelemetryStream {
        TelemetryStream::parse(
            "{\"type\":\"meta\",\"key\":\"n\",\"value\":\"64\"}\n\
             {\"type\":\"counter\",\"name\":\"valency.probe.decided_zero\",\"value\":6}\n\
             {\"type\":\"counter\",\"name\":\"lab.cells.total\",\"value\":10}\n\
             {\"type\":\"counter\",\"name\":\"lab.cells.cached\",\"value\":4}\n\
             {\"type\":\"counter\",\"name\":\"lab.cells.executed\",\"value\":6}\n\
             {\"type\":\"counter\",\"name\":\"lab.elapsed_ns\",\"value\":3000000000}\n\
             {\"type\":\"counter\",\"name\":\"pool.reused\",\"value\":7}\n\
             {\"type\":\"span\",\"name\":\"world.drive\",\"worker\":null,\"start_ns\":0,\"elapsed_ns\":100}\n\
             {\"type\":\"span\",\"name\":\"round.deliver\",\"worker\":null,\"start_ns\":10,\"elapsed_ns\":40}\n\
             {\"type\":\"round_kills\",\"round\":1,\"kills\":8,\"cap\":67,\"over_cap\":false}\n",
        )
    }

    #[test]
    fn table_has_all_sections_and_is_deterministic() {
        let mut report = Report::new();
        report.add_telemetry("demo.telemetry.jsonl", spans_stream());
        let table = report.render(ReportFormat::Table);
        assert!(table.contains("## Phases"));
        assert!(table.contains("world.drive"));
        assert!(table.contains("self_ns"));
        assert!(table.contains("child_ns"));
        assert!(table.contains("## Kill budget vs cap"));
        assert!(table.contains("67"));
        assert!(table.contains("cap for n = 64"));
        assert!(table.contains("decided_zero"));
        assert!(table.contains("cache_hit_pct"));
        assert!(table.contains("cells_per_sec"));
        assert!(table.contains("pool.reused"));
        assert_eq!(table, report.render(ReportFormat::Table));
    }

    #[test]
    fn folded_output_is_valid_and_sorted() {
        let mut report = Report::new();
        report.add_telemetry("demo.telemetry.jsonl", spans_stream());
        let folded = report.render(ReportFormat::Folded);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(
            lines,
            vec!["world.drive 60", "world.drive;round.deliver 40"]
        );
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn json_is_one_valid_object_with_every_section() {
        let mut report = Report::new();
        report.add_telemetry("demo.telemetry.jsonl", spans_stream());
        let json = report.render(ReportFormat::Json);
        assert!(json.ends_with("}\n"));
        // The codec validates the nested sections it does not keep.
        assert!(FlatObject::parse(&json).is_some(), "{json}");
        assert!(json.contains("\"phases\":["));
        assert!(json.contains("\"round\":1"));
        assert!(json.contains("\"pool.reused\":7"));
    }

    #[test]
    fn check_flags_malformed_streams() {
        let mut clean = Report::new();
        clean.add_telemetry("ok.telemetry.jsonl", spans_stream());
        assert!(clean.check().is_ok());

        let mut broken = Report::new();
        broken.add_telemetry(
            "bad.telemetry.jsonl",
            TelemetryStream::parse("{\"type\":\"counter\",\"name\":\"x\",\"va"),
        );
        let text = broken.check().unwrap_err();
        assert!(text.contains("[FAIL]"));
        assert!(text.contains("1 malformed"));

        let empty = Report::new();
        assert!(empty.check().is_err(), "no inputs is a failure");
    }

    #[test]
    fn journal_rows_render_as_a_cells_table_and_json_rows() {
        use crate::cell::{to_jsonl, Cell, CellResult};
        let dir = std::env::temp_dir().join(format!("synran-report-cells-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.journal.jsonl");
        let cell = Cell {
            runs: 2,
            seed: 9,
            ..Cell::new("synran", "balancer", 8)
        };
        let result = CellResult {
            rounds: vec![3, 5],
            kills: vec![1, 2],
            timeouts: 0,
            violations: 0,
        };
        std::fs::write(&path, format!("{}\n", to_jsonl(&cell, &result))).unwrap();

        let mut report = Report::new();
        report.load(&path).unwrap();

        let table = report.render(ReportFormat::Table);
        assert!(table.contains("## Cells —"), "{table}");
        assert!(table.contains("balancer"));
        assert!(table.contains("4.00"), "mean rounds: {table}");

        let json = report.render(ReportFormat::Json);
        assert!(
            json.contains("\"rows\":[{\"protocol\":\"synran\""),
            "{json}"
        );
        assert!(json.contains("\"mean_kills\":1.50"), "{json}");
        assert_eq!(table, report.render(ReportFormat::Table));
    }

    #[test]
    fn format_parsing() {
        assert_eq!(ReportFormat::parse("table").unwrap(), ReportFormat::Table);
        assert_eq!(ReportFormat::parse("json").unwrap(), ReportFormat::Json);
        assert_eq!(ReportFormat::parse("folded").unwrap(), ReportFormat::Folded);
        assert!(ReportFormat::parse("csv").is_err());
    }
}
