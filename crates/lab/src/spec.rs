//! The scenario spec: a line-oriented, declarative campaign description.
//!
//! A `.campaign` file is a list of `key = value` assignments plus any
//! number of `sweep key = a,b,c` axes. Comments start with `#`; blank
//! lines are ignored. The cross product of the sweep axes (first-declared
//! axis outermost) expanded against the scalar assignments yields the
//! campaign's deterministic cell list — sweeps are *data*, not code.
//!
//! ```text
//! # E7-style fault-range sweep.
//! campaign  = t_sweep_demo
//! protocol  = synran
//! adversary = balancer
//! runs      = 40
//! seed      = 7
//! sweep n   = 256,1024
//! sweep t   = 1,2,4,8,16
//! ```
//!
//! Scalar keys redeclared later in the file win (last-wins, like the
//! bench CLI's argument parser); redeclaring a sweep key replaces its
//! values but keeps its axis position.

use std::collections::BTreeMap;
use std::path::Path;

use crate::cell::{fnv1a64, Cell};
use crate::LabError;

/// Every key a spec may assign or sweep. Anything else is a parse error —
/// sweeps-as-data only works if typos fail loudly instead of silently
/// configuring nothing.
const KNOWN_KEYS: &[&str] = &[
    "campaign",
    "experiment",
    "protocol",
    "adversary",
    "n",
    "t",
    "ones",
    "runs",
    "seed",
    "max_rounds",
    "cap",
    "samples",
    "trials",
    "horizon",
    "rate",
    "telemetry",
];

/// Keys that only make sense as scalars.
const SCALAR_ONLY_KEYS: &[&str] = &["campaign", "experiment", "telemetry"];

/// A parsed campaign spec: scalar parameters plus sweep axes.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    name: String,
    experiment: String,
    params: BTreeMap<String, String>,
    sweeps: Vec<(String, Vec<String>)>,
}

impl CampaignSpec {
    /// Parses a spec from text. `fallback_name` names the campaign when no
    /// `campaign = ...` line is present (callers pass the file stem).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] (with a line number) for malformed
    /// lines, unknown keys, empty sweep lists, or a sweep of a
    /// scalar-only key.
    pub fn parse(text: &str, fallback_name: &str) -> Result<CampaignSpec, LabError> {
        let mut params = BTreeMap::new();
        let mut sweeps: Vec<(String, Vec<String>)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (lhs, rhs) = line.split_once('=').ok_or_else(|| {
                LabError::Spec(format!(
                    "line {lineno}: expected `key = value`, got {line:?}"
                ))
            })?;
            let (lhs, value) = (lhs.trim(), rhs.trim());
            if value.is_empty() {
                return Err(LabError::Spec(format!(
                    "line {lineno}: empty value for {lhs:?}"
                )));
            }
            if let Some(key) = lhs.strip_prefix("sweep ").map(str::trim) {
                check_key(key).map_err(|e| LabError::Spec(format!("line {lineno}: {e}")))?;
                if SCALAR_ONLY_KEYS.contains(&key) {
                    return Err(LabError::Spec(format!(
                        "line {lineno}: {key:?} cannot be swept"
                    )));
                }
                let values: Vec<String> = value
                    .split(',')
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                if values.is_empty() {
                    return Err(LabError::Spec(format!(
                        "line {lineno}: sweep {key} has no values"
                    )));
                }
                match sweeps.iter_mut().find(|(k, _)| k == key) {
                    Some((_, existing)) => *existing = values,
                    None => sweeps.push((key.to_string(), values)),
                }
            } else {
                check_key(lhs).map_err(|e| LabError::Spec(format!("line {lineno}: {e}")))?;
                params.insert(lhs.to_string(), value.to_string());
            }
        }
        let name = params
            .get("campaign")
            .cloned()
            .unwrap_or_else(|| fallback_name.to_string());
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "._-".contains(c))
        {
            return Err(LabError::Spec(format!(
                "campaign name {name:?} must be non-empty [A-Za-z0-9._-]"
            )));
        }
        let experiment = params
            .get("experiment")
            .cloned()
            .unwrap_or_else(|| "grid".to_string());
        Ok(CampaignSpec {
            name,
            experiment,
            params,
            sweeps,
        })
    }

    /// Parses a spec file; the campaign name defaults to the file stem.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Io`] if the file cannot be read, or any
    /// [`CampaignSpec::parse`] error.
    pub fn parse_file(path: &Path) -> Result<CampaignSpec, LabError> {
        let text = std::fs::read_to_string(path)?;
        let stem = path
            .file_stem()
            .map_or("campaign", |s| s.to_str().unwrap_or("campaign"));
        CampaignSpec::parse(&text, stem)
    }

    /// Overrides the scalar `key` with a typed value, as a later `key =
    /// value` line would, under the same key check. The campaign's
    /// identity (`campaign`, `experiment`) is fixed once parsed.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for an unknown or identity key.
    pub fn set(&mut self, key: &str, value: impl std::fmt::Display) -> Result<(), LabError> {
        check_key(key).map_err(LabError::Spec)?;
        if ["campaign", "experiment"].contains(&key) {
            return Err(LabError::Spec(format!("{key:?} cannot be overridden")));
        }
        self.params.insert(key.to_string(), value.to_string());
        Ok(())
    }

    /// Replaces the values of the sweep axis `key` (or appends the axis),
    /// as a later `sweep key = ...` line would.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for an unknown or scalar-only key, or
    /// no values.
    pub fn set_sweep<T: std::fmt::Display>(
        &mut self,
        key: &str,
        values: &[T],
    ) -> Result<(), LabError> {
        check_key(key).map_err(LabError::Spec)?;
        if SCALAR_ONLY_KEYS.contains(&key) {
            return Err(LabError::Spec(format!("{key:?} cannot be swept")));
        }
        if values.is_empty() {
            return Err(LabError::Spec(format!("sweep {key} has no values")));
        }
        let values: Vec<String> = values.iter().map(ToString::to_string).collect();
        match self.sweeps.iter_mut().find(|(k, _)| k == key) {
            Some((_, existing)) => *existing = values,
            None => self.sweeps.push((key.to_string(), values)),
        }
        Ok(())
    }

    /// The campaign name (journal files are named after it).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The experiment renderer this spec targets (`grid` unless the spec
    /// says otherwise; `e3`, `e4`, and `e7` select the preset renderers).
    #[must_use]
    pub fn experiment(&self) -> &str {
        &self.experiment
    }

    /// A scalar parameter, if assigned.
    #[must_use]
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// An integer scalar parameter, or `default` when unassigned.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] if the value does not parse.
    pub fn param_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, LabError> {
        parse_num(self.param(key), key, default)
    }

    /// The sweep values of `key` as `usize`s, or `default` when the spec
    /// does not sweep it.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] if a value does not parse.
    pub fn sweep_usize(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, LabError> {
        let Some((_, values)) = self.sweeps.iter().find(|(k, _)| k == key) else {
            return Ok(default.to_vec());
        };
        values
            .iter()
            .map(|v| {
                v.parse()
                    .map_err(|_| LabError::Spec(format!("sweep {key}: not an integer: {v:?}")))
            })
            .collect()
    }

    /// The telemetry mode the spec asks for (`off` unless assigned).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for an unknown mode.
    pub fn telemetry_mode(&self) -> Result<synran_sim::TelemetryMode, LabError> {
        self.param("telemetry")
            .map_or(Ok(synran_sim::TelemetryMode::Off), |v| {
                v.parse()
                    .map_err(|e| LabError::Spec(format!("telemetry: {e}")))
            })
    }

    /// A stable content hash over the spec's semantic payload (params in
    /// key order, then sweep axes in declaration order) — recorded in the
    /// journal header for provenance.
    #[must_use]
    pub fn content_hash(&self) -> String {
        let mut canonical = String::new();
        for (k, v) in &self.params {
            canonical.push_str(k);
            canonical.push('=');
            canonical.push_str(v);
            canonical.push('|');
        }
        for (k, values) in &self.sweeps {
            canonical.push_str("sweep ");
            canonical.push_str(k);
            canonical.push('=');
            canonical.push_str(&values.join(","));
            canonical.push('|');
        }
        format!("{:016x}", fnv1a64(canonical.as_bytes()))
    }

    /// Expands a `grid` spec into its deterministic cell list: the cross
    /// product of the sweep axes (first axis outermost), each assignment
    /// merged over the scalar parameters.
    ///
    /// `t` accepts the tokens `max` (`n − 1`) and `half` (`n / 2`) besides
    /// plain integers; `ones` defaults to `n / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] when `n` is missing or any value fails
    /// to parse.
    pub fn expand_grid(&self) -> Result<Vec<Cell>, LabError> {
        let total: usize = self.sweeps.iter().map(|(_, v)| v.len()).product();
        let mut cells = Vec::with_capacity(total);
        let mut assignment: Vec<usize> = vec![0; self.sweeps.len()];
        loop {
            let mut merged: BTreeMap<&str, &str> = self
                .params
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            for (axis, &pick) in self.sweeps.iter().zip(&assignment) {
                merged.insert(axis.0.as_str(), axis.1[pick].as_str());
            }
            cells.push(cell_from_map(&merged)?);
            // Odometer increment, last axis fastest.
            let mut i = self.sweeps.len();
            loop {
                if i == 0 {
                    return Ok(cells);
                }
                i -= 1;
                assignment[i] += 1;
                if assignment[i] < self.sweeps[i].1.len() {
                    break;
                }
                assignment[i] = 0;
            }
        }
    }
}

fn check_key(key: &str) -> Result<(), String> {
    if KNOWN_KEYS.contains(&key) {
        Ok(())
    } else {
        Err(format!(
            "unknown key {key:?} (known: {})",
            KNOWN_KEYS.join(", ")
        ))
    }
}

fn parse_num<T: std::str::FromStr>(
    value: Option<&str>,
    key: &str,
    default: T,
) -> Result<T, LabError> {
    value.map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| LabError::Spec(format!("{key}: not an integer: {v:?}")))
    })
}

fn map_num<T: std::str::FromStr>(
    merged: &BTreeMap<&str, &str>,
    key: &str,
    default: T,
) -> Result<T, LabError> {
    parse_num(merged.get(key).copied(), key, default)
}

fn cell_from_map(merged: &BTreeMap<&str, &str>) -> Result<Cell, LabError> {
    let n: usize = merged
        .get("n")
        .copied()
        .ok_or_else(|| LabError::Spec("a grid campaign must assign or sweep `n`".into()))
        .and_then(|v| {
            v.parse()
                .map_err(|_| LabError::Spec(format!("n: not an integer: {v:?}")))
        })?;
    let t = match merged.get("t").copied() {
        None | Some("max") => n.saturating_sub(1),
        Some("half") => n / 2,
        Some(v) => v
            .parse()
            .map_err(|_| LabError::Spec(format!("t: not an integer: {v:?}")))?,
    };
    Ok(Cell {
        protocol: merged
            .get("protocol")
            .copied()
            .unwrap_or("synran")
            .to_string(),
        adversary: merged
            .get("adversary")
            .copied()
            .unwrap_or("passive")
            .to_string(),
        n,
        t,
        ones: map_num(merged, "ones", n / 2)?,
        runs: map_num(merged, "runs", 10)?,
        seed: map_num(merged, "seed", 1)?,
        max_rounds: map_num(merged, "max_rounds", 200_000)?,
        cap: map_num(merged, "cap", 0)?,
        samples: map_num(merged, "samples", 0)?,
        horizon: map_num(merged, "horizon", 0)?,
        rate: map_num(merged, "rate", 0)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMO: &str = "\
# demo spec
campaign = demo
protocol = synran
adversary = balancer
runs = 4
seed = 9
sweep n = 8,12
sweep t = half,max
";

    #[test]
    fn parses_and_expands_in_declaration_order() {
        let spec = CampaignSpec::parse(DEMO, "fallback").unwrap();
        assert_eq!(spec.name(), "demo");
        assert_eq!(spec.experiment(), "grid");
        assert_eq!(spec.param("runs"), Some("4"));
        assert_eq!(spec.sweep_usize("n", &[]).unwrap(), vec![8, 12]);
        let cells = spec.expand_grid().unwrap();
        assert_eq!(cells.len(), 4);
        // First axis (n) outermost, second (t) fastest.
        let keys: Vec<(usize, usize)> = cells.iter().map(|c| (c.n, c.t)).collect();
        assert_eq!(keys, vec![(8, 4), (8, 7), (12, 6), (12, 11)]);
        assert!(cells.iter().all(|c| c.runs == 4 && c.seed == 9));
        assert!(cells.iter().all(|c| c.adversary == "balancer"));
    }

    #[test]
    fn fallback_name_comes_from_caller() {
        let spec = CampaignSpec::parse("sweep n = 4,8\n", "stem").unwrap();
        assert_eq!(spec.name(), "stem");
        assert_eq!(spec.expand_grid().unwrap().len(), 2);
    }

    #[test]
    fn no_sweeps_is_a_single_cell() {
        let spec = CampaignSpec::parse("n = 16\nadversary = storm\n", "one").unwrap();
        let cells = spec.expand_grid().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].n, 16);
        assert_eq!(cells[0].t, 15);
        assert_eq!(cells[0].ones, 8);
    }

    #[test]
    fn last_wins_and_sweep_redeclare_replaces() {
        let spec = CampaignSpec::parse("n = 8\nn = 16\nsweep t = 1,2\nsweep t = 3\n", "x").unwrap();
        assert_eq!(spec.param("n"), Some("16"));
        assert_eq!(spec.sweep_usize("t", &[]).unwrap(), vec![3]);
    }

    #[test]
    fn errors_are_specific() {
        let unknown = CampaignSpec::parse("bogus = 1\n", "x").unwrap_err();
        assert!(unknown.to_string().contains("unknown key"), "{unknown}");
        let noeq = CampaignSpec::parse("just words\n", "x").unwrap_err();
        assert!(noeq.to_string().contains("key = value"), "{noeq}");
        let empty = CampaignSpec::parse("sweep n =\n", "x").unwrap_err();
        assert!(empty.to_string().contains("empty value"), "{empty}");
        let scalar = CampaignSpec::parse("sweep telemetry = off,spans\n", "x").unwrap_err();
        assert!(scalar.to_string().contains("cannot be swept"), "{scalar}");
        let missing_n = CampaignSpec::parse("runs = 2\n", "x")
            .unwrap()
            .expand_grid()
            .unwrap_err();
        assert!(missing_n.to_string().contains('n'), "{missing_n}");
    }

    #[test]
    fn telemetry_mode_parses() {
        use synran_sim::TelemetryMode;
        let off = CampaignSpec::parse("n = 4\n", "x").unwrap();
        assert_eq!(off.telemetry_mode().unwrap(), TelemetryMode::Off);
        let counters = CampaignSpec::parse("n = 4\ntelemetry = counters\n", "x").unwrap();
        assert_eq!(counters.telemetry_mode().unwrap(), TelemetryMode::Counters);
        let bad = CampaignSpec::parse("n = 4\ntelemetry = loud\n", "x").unwrap();
        assert!(bad.telemetry_mode().is_err());
    }

    #[test]
    fn spec_hash_is_stable_and_sensitive() {
        let a = CampaignSpec::parse(DEMO, "x").unwrap();
        let b = CampaignSpec::parse(DEMO, "x").unwrap();
        assert_eq!(a.content_hash(), b.content_hash());
        let c = CampaignSpec::parse(&DEMO.replace("seed = 9", "seed = 10"), "x").unwrap();
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn setters_override_like_a_later_line() {
        let mut spec = CampaignSpec::parse(DEMO, "x").unwrap();
        spec.set("runs", 7).unwrap();
        spec.set_sweep("n", &[16]).unwrap();
        let later = CampaignSpec::parse(&format!("{DEMO}runs = 7\nsweep n = 16\n"), "x").unwrap();
        assert_eq!(spec.content_hash(), later.content_hash());
        let err = |e: LabError| e.to_string();
        assert!(err(spec.set("bogus", 1).unwrap_err()).contains("unknown key \"bogus\""));
        assert!(err(spec.set("campaign", "y").unwrap_err()).contains("cannot be overridden"));
        let swept = spec.set_sweep("telemetry", &["off"]).unwrap_err();
        assert!(err(swept).contains("cannot be swept"));
        assert!(err(spec.set_sweep::<usize>("n", &[]).unwrap_err()).contains("no values"));
        assert_eq!(
            spec.content_hash(),
            later.content_hash(),
            "errors change nothing"
        );
    }

    #[test]
    fn comments_and_inline_comments_are_stripped() {
        let spec = CampaignSpec::parse("n = 8  # system size\n# whole line\n", "x").unwrap();
        assert_eq!(spec.param("n"), Some("8"));
    }
}
