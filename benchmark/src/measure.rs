//! Measurement primitives: process CPU time and peak memory from `/proc`,
//! medians, the span-latency percentile rule, and the two output formats
//! (`name value unit` lines and the closing JSON object).

use std::fmt::Write as _;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// fixes `USER_HZ` at 100 for the `/proc` interface on every architecture
/// this benchmark runs on.
pub const USER_HZ: f64 = 100.0;

/// User plus system CPU time this process has used so far, in clock ticks
/// of [`USER_HZ`].
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` cannot be read or parsed.
pub fn process_cpu_ticks() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&stat).ok_or_else(|| "unparseable /proc/self/stat".to_string())
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line, in
/// clock ticks. Field 2, the command name, is parenthesised and may itself
/// hold spaces and parentheses, so fields are counted from the last `)`.
#[must_use]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (the state letter); utime is field 14.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// This process's peak resident set size (`VmHWM`) in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` cannot be read or parsed.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = parse_vm_hwm_kib(&status).ok_or("no VmHWM line in /proc/self/status")?;
    #[allow(clippy::cast_precision_loss)]
    Ok(kib as f64 / 1024.0)
}

/// The `VmHWM:` value of a `/proc/<pid>/status` text, in KiB.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// The median of `values` (mean of the two middle values for an even
/// count; 0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The percentile a tail latency is reported at for `n` samples: p99 with
/// at least 1,000 samples, otherwise the highest whole percentile that
/// leaves at least ten samples beyond it, and none for ten samples or
/// fewer.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<usize> {
    if n >= 1000 {
        Some(99)
    } else if n > 10 {
        Some(100 * (n - 10) / n)
    } else {
        None
    }
}

/// The nearest-rank `pct`-th percentile of ascending `sorted` (0 when
/// empty).
#[must_use]
pub fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit string, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// A finite value as text with all its digits (non-finite values, which
/// JSON cannot carry, print as 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// The human-readable `name value unit` line of a metric.
#[must_use]
pub fn metric_line(metric: &Metric) -> String {
    format!("{} {} {}", metric.name, number(metric.value), metric.unit)
}

/// The closing JSON object of a run.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_ticks_count_fields_after_the_command_name() {
        let stat = "4242 (bench e2e) R 1 4242 4242 0 -1 4194304 512 0 0 0 \
                    1234 56 0 0 20 0 3 0 99 123456 789 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1234 + 56));
        // A command name holding ") " must not shift the fields.
        let tricky = "7 (a) b) S 1 7 7 0 -1 0 0 0 0 0 10 20 0 0 20 0 1 0 5 0 0";
        assert_eq!(parse_stat_cpu_ticks(tricky), Some(30));
        assert_eq!(parse_stat_cpu_ticks("7 (cut) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        let before = process_cpu_ticks().unwrap();
        std::hint::black_box((0..10_000_000u64).sum::<u64>());
        assert!(process_cpu_ticks().unwrap() >= before);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tbench_e2e\nVmPeak:\t  20000 kB\nVmHWM:\t    5120 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(5120));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t 4000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t lots\n"), None);
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(1_000_000), Some(99));
        for n in 11..3000 {
            let pct = tail_percentile(n).unwrap();
            let rank = (pct * n).div_ceil(100);
            assert!(n - rank >= 10, "n = {n}: p{pct} leaves {} beyond", n - rank);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&sorted, 100), 100);
        assert_eq!(percentile(&sorted, 0), 1);
        assert_eq!(percentile(&[7], 50), 7);
        assert_eq!(percentile(&[], 50), 0);
    }

    #[test]
    fn metric_lines_and_json_keep_every_digit() {
        let metrics = [
            Metric {
                name: "wall_s",
                value: 1.203_456_789,
                unit: "s",
            },
            Metric {
                name: "ops_per_s",
                value: f64::NAN,
                unit: "1/s",
            },
        ];
        assert_eq!(metric_line(&metrics[0]), "wall_s 1.203456789 s");
        assert_eq!(metric_line(&metrics[1]), "ops_per_s 0 1/s");
        assert_eq!(
            result_json(true, 1152, 0, &metrics),
            "{\"correct\": true, \"attempted\": 1152, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.203456789, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(
            result_json(false, 3, 3, &[]),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 3, \"metrics\": {}}"
        );
    }
}
