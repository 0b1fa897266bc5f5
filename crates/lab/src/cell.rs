//! The unit of campaign work: one fully-resolved parameter cell.
//!
//! A campaign spec expands into a flat, deterministic list of [`Cell`]s.
//! Every cell carries *all* the parameters its execution depends on —
//! protocol, adversary (with its numeric knobs), system size, fault
//! budget, input split, batch size, base seed, and the round limit — so a
//! cell's [content hash](Cell::content_hash) is a complete key for its
//! [`CellResult`]. Two campaigns that happen to share a cell share its
//! cached result, whatever their specs look like otherwise.

use std::fmt::Write as _;

use synran_sim::json::{Escaped, FlatObject};

/// The cell-encoding version baked into every content hash. Bump it when
/// the meaning of any cell field (or the execution semantics behind it)
/// changes, so stale journal entries stop matching.
pub const CELL_SCHEMA_VERSION: u32 = 1;

/// One fully-resolved grid point of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Protocol name, from [`PROTOCOLS`](crate::registry::PROTOCOLS).
    pub protocol: String,
    /// Adversary name, from [`ADVERSARIES`](crate::registry::ADVERSARIES).
    pub adversary: String,
    /// System size.
    pub n: usize,
    /// Fault budget.
    pub t: usize,
    /// Processes with input 1 (the rest get 0).
    pub ones: usize,
    /// Seeded executions in the cell's batch.
    pub runs: usize,
    /// Base seed; per-run seeds are derived exactly as
    /// [`synran_core::run_batch`] derives them.
    pub seed: u64,
    /// Round limit per execution.
    pub max_rounds: u32,
    /// Adversary per-round kill cap (0 = the adversary's own default).
    pub cap: usize,
    /// Valency-probe fork count for probing adversaries (0 = default).
    pub samples: usize,
    /// Fork exploration horizon for probing adversaries (0 = default).
    pub horizon: u32,
    /// Kill rate for rate-based adversaries (0 = `⌈√n⌉`).
    pub rate: usize,
}

impl Cell {
    /// A cell with the conventional defaults for `(protocol, adversary,
    /// n)`: `t = n − 1`, an even input split, and the adversary knobs left
    /// at their defaults.
    #[must_use]
    pub fn new(protocol: &str, adversary: &str, n: usize) -> Cell {
        Cell {
            protocol: protocol.to_string(),
            adversary: adversary.to_string(),
            n,
            t: n.saturating_sub(1),
            ones: n / 2,
            runs: 10,
            seed: 1,
            max_rounds: 200_000,
            cap: 0,
            samples: 0,
            horizon: 0,
            rate: 0,
        }
    }

    /// The canonical encoding the content hash is computed over: a `|`
    /// separated `key=value` string with every field in declaration order,
    /// prefixed by the schema version.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "v{}|protocol={}|adversary={}|n={}|t={}|ones={}|runs={}|seed={}|max_rounds={}|cap={}|samples={}|horizon={}|rate={}",
            CELL_SCHEMA_VERSION,
            self.protocol,
            self.adversary,
            self.n,
            self.t,
            self.ones,
            self.runs,
            self.seed,
            self.max_rounds,
            self.cap,
            self.samples,
            self.horizon,
            self.rate,
        );
        s
    }

    /// The cell's stable content hash: 64-bit FNV-1a over
    /// [`canonical`](Cell::canonical), as 16 lowercase hex digits.
    #[must_use]
    pub fn content_hash(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }
}

/// 64-bit FNV-1a — the in-tree content hash (no external hasher, stable
/// across platforms and releases, unlike `DefaultHasher`).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The aggregated observations of one executed cell, in seed order.
///
/// This is exactly the information [`synran_core::BatchOutcome`] exposes,
/// flattened into a journal-serialisable form (raw per-run vectors rather
/// than pre-digested statistics, so any renderer can recompute whatever
/// summary it needs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellResult {
    /// Round counts of the completed runs, in seed order.
    pub rounds: Vec<u32>,
    /// Adversary kills per completed run, in seed order.
    pub kills: Vec<u64>,
    /// Runs aborted by the round limit.
    pub timeouts: u32,
    /// Runs that violated a consensus condition.
    pub violations: u32,
}

impl CellResult {
    /// Mean rounds across completed runs (0 when none completed).
    #[must_use]
    pub fn mean_rounds(&self) -> f64 {
        if self.rounds.is_empty() {
            0.0
        } else {
            self.rounds.iter().map(|&r| f64::from(r)).sum::<f64>() / self.rounds.len() as f64
        }
    }

    /// Largest observed round count.
    #[must_use]
    pub fn max_rounds(&self) -> Option<u32> {
        self.rounds.iter().copied().max()
    }

    /// Mean kills across completed runs (0 when none completed).
    #[must_use]
    pub fn mean_kills(&self) -> f64 {
        if self.kills.is_empty() {
            0.0
        } else {
            self.kills.iter().map(|&k| k as f64).sum::<f64>() / self.kills.len() as f64
        }
    }

    /// `true` when every run completed and satisfied all three consensus
    /// conditions.
    #[must_use]
    pub fn all_correct(&self) -> bool {
        self.timeouts == 0 && self.violations == 0
    }
}

/// Encodes a completed cell as one JSONL journal line with a stable field
/// order (`"type"` first, then the cell fields in declaration order, then
/// the result), matching the telemetry sink conventions.
#[must_use]
pub fn to_jsonl(cell: &Cell, result: &CellResult) -> String {
    format!(
        "{{\"type\":\"cell\",\"hash\":\"{}\",\"protocol\":\"{}\",\"adversary\":\"{}\",\
         \"n\":{},\"t\":{},\"ones\":{},\"runs\":{},\"seed\":{},\"max_rounds\":{},\
         \"cap\":{},\"samples\":{},\"horizon\":{},\"rate\":{},\
         \"rounds\":{},\"kills\":{},\"timeouts\":{},\"violations\":{}}}",
        cell.content_hash(),
        Escaped(&cell.protocol),
        Escaped(&cell.adversary),
        cell.n,
        cell.t,
        cell.ones,
        cell.runs,
        cell.seed,
        cell.max_rounds,
        cell.cap,
        cell.samples,
        cell.horizon,
        cell.rate,
        u64_array_json(result.rounds.iter().map(|&r| u64::from(r))),
        u64_array_json(result.kills.iter().copied()),
        result.timeouts,
        result.violations,
    )
}

fn u64_array_json(values: impl Iterator<Item = u64>) -> String {
    let mut s = String::from("[");
    for (i, v) in values.enumerate() {
        let _ = write!(s, "{}{v}", if i == 0 { "" } else { "," });
    }
    s + "]"
}

/// Decodes a journal line produced by [`to_jsonl`].
///
/// Returns `None` for malformed or truncated lines *and* for well-formed
/// objects of an unknown `"type"` — the same forward-compatibility
/// contract as [`synran_sim::TelemetryEvent::from_jsonl`]: readers skip
/// what they don't understand rather than failing the stream.
#[must_use]
pub fn from_jsonl(line: &str) -> Option<(String, Cell, CellResult)> {
    from_object(&FlatObject::parse(line)?)
}

/// Decodes an already-parsed journal line; `None` unless it is a
/// complete `"type":"cell"` line.
pub(crate) fn from_object(obj: &FlatObject<'_>) -> Option<(String, Cell, CellResult)> {
    if obj.str("type")? != "cell" {
        return None;
    }
    let usize_field = |key| usize::try_from(obj.u64(key)?).ok();
    let u32_field = |key| u32::try_from(obj.u64(key)?).ok();
    let cell = Cell {
        protocol: obj.str("protocol")?.to_string(),
        adversary: obj.str("adversary")?.to_string(),
        n: usize_field("n")?,
        t: usize_field("t")?,
        ones: usize_field("ones")?,
        runs: usize_field("runs")?,
        seed: obj.u64("seed")?,
        max_rounds: u32_field("max_rounds")?,
        cap: usize_field("cap")?,
        samples: usize_field("samples")?,
        horizon: u32_field("horizon")?,
        rate: usize_field("rate")?,
    };
    let result = CellResult {
        rounds: obj
            .u64_array("rounds")?
            .into_iter()
            .map(|r| u32::try_from(r).ok())
            .collect::<Option<Vec<u32>>>()?,
        kills: obj.u64_array("kills")?,
        timeouts: u32_field("timeouts")?,
        violations: u32_field("violations")?,
    };
    Some((obj.str("hash")?.to_string(), cell, result))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cell() -> Cell {
        Cell {
            seed: 42,
            runs: 3,
            cap: 19,
            samples: 3,
            horizon: 32,
            ..Cell::new("synran", "lower-bound", 16)
        }
    }

    #[test]
    fn content_hash_is_stable_and_sensitive() {
        let cell = sample_cell();
        assert_eq!(cell.content_hash(), cell.clone().content_hash());
        assert_eq!(cell.content_hash().len(), 16);
        let mut other = cell.clone();
        other.seed += 1;
        assert_ne!(cell.content_hash(), other.content_hash());
        let mut renamed = cell.clone();
        renamed.adversary = "passive".into();
        assert_ne!(cell.content_hash(), renamed.content_hash());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn jsonl_round_trips() {
        let cell = sample_cell();
        let result = CellResult {
            rounds: vec![5, 7, 6],
            kills: vec![12, 0, 9],
            timeouts: 0,
            violations: 0,
        };
        let line = to_jsonl(&cell, &result);
        assert!(line.starts_with("{\"type\":\"cell\",\"hash\":\""));
        let (hash, decoded_cell, decoded_result) = from_jsonl(&line).expect("round trip");
        assert_eq!(hash, cell.content_hash());
        assert_eq!(decoded_cell, cell);
        assert_eq!(decoded_result, result);
    }

    #[test]
    fn jsonl_rejects_truncation_and_unknown_types() {
        let line = to_jsonl(&sample_cell(), &CellResult::default());
        for cut in [line.len() - 1, line.len() / 2, 1] {
            assert_eq!(from_jsonl(&line[..cut]), None, "cut at {cut}");
        }
        assert_eq!(from_jsonl("{\"type\":\"campaign\",\"name\":\"x\"}"), None);
        assert_eq!(from_jsonl(""), None);
    }

    #[test]
    fn empty_result_round_trips() {
        let cell = sample_cell();
        let result = CellResult {
            rounds: vec![],
            kills: vec![],
            timeouts: 3,
            violations: 0,
        };
        let (_, _, decoded) = from_jsonl(&to_jsonl(&cell, &result)).unwrap();
        assert_eq!(decoded, result);
        assert_eq!(decoded.mean_rounds(), 0.0);
        assert_eq!(decoded.max_rounds(), None);
        assert!(!decoded.all_correct());
    }

    #[test]
    fn result_summaries() {
        let r = CellResult {
            rounds: vec![4, 8],
            kills: vec![2, 4],
            timeouts: 0,
            violations: 0,
        };
        assert_eq!(r.mean_rounds(), 6.0);
        assert_eq!(r.max_rounds(), Some(8));
        assert_eq!(r.mean_kills(), 3.0);
        assert!(r.all_correct());
    }
}
