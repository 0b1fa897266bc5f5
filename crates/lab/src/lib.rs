//! # synran-lab — the declarative campaign engine
//!
//! Every reproduction question in this workspace is a parameter sweep over
//! `(protocol, adversary, n, t, seeds)`; this crate makes those sweeps
//! **data instead of code**. A campaign is:
//!
//! * a [**scenario spec**](CampaignSpec) — a line-oriented `key = value` /
//!   `sweep key = a,b,c` file expanded into a deterministic [`Cell`] list,
//!   each cell carrying a stable FNV-1a [content
//!   hash](Cell::content_hash) over every execution-relevant parameter;
//! * a [**sharded scheduler**](Engine) — runs spread across worker
//!   threads via [`synran_sim::parallel`], results folded in cell order so
//!   the merged output is byte-identical at every thread count;
//! * a [**resumable journal + result cache**](Journal) — completed cells
//!   appended to `results/<campaign>.journal.jsonl` and skipped on re-run
//!   when the hash matches, giving crash-resume and cross-campaign dedup;
//! * [**renderers**](presets) — the generic grid table, plus the E3, E4,
//!   and E7 presenters that reproduce those experiment binaries'
//!   tables byte-for-byte (the binaries themselves are thin wrappers over
//!   this crate);
//! * the [**option parser**](cli) that `synran` and every experiment
//!   binary share.
//!
//! Drive it from the CLI:
//!
//! ```text
//! synran campaign run campaigns/e3.campaign
//! synran campaign status campaigns/e3.campaign
//! synran campaign list
//! ```
//!
//! # Determinism contract
//!
//! A cell's result is a pure function of its fields; the engine's fold is
//! in cell order; journal line order is a pure function of the cell list.
//! Interrupting a campaign and resuming it — at any thread count — yields
//! merged results byte-identical to an uninterrupted serial run (pinned by
//! `tests/resume.rs`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod artifact;
pub mod cell;
pub mod cli;
pub mod engine;
pub mod journal;
pub mod presets;
pub mod progress;
pub mod registry;
pub mod report;
pub mod spec;

pub use artifact::{write_run_artifact, write_telemetry_jsonl};
pub use cell::{fnv1a64, Cell, CellResult, CELL_SCHEMA_VERSION};
pub use engine::{CellRunner, Engine};
pub use journal::{load_cache, scan_journal, CellCache, Journal, JournalHeader, JournalScan};
pub use progress::{Heartbeat, MemoryProgress, ProgressSink, StderrProgress};
pub use registry::{run_cell, run_cell_batch, run_cell_once, validate_cell};
pub use report::{Report, ReportFormat};
pub use spec::CampaignSpec;

/// Errors surfaced by the campaign engine.
#[derive(Debug)]
pub enum LabError {
    /// Journal or spec-file I/O failed.
    Io(std::io::Error),
    /// A spec line, value, or cell geometry is malformed.
    Spec(String),
    /// An unknown protocol/adversary name or an incompatible pairing.
    Unknown(String),
    /// The simulator reported an engine error.
    Sim(synran_sim::SimError),
}

impl std::fmt::Display for LabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabError::Io(e) => write!(f, "i/o error: {e}"),
            LabError::Spec(msg) => write!(f, "spec error: {msg}"),
            LabError::Unknown(msg) => write!(f, "{msg}"),
            LabError::Sim(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for LabError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LabError::Io(e) => Some(e),
            LabError::Sim(e) => Some(e),
            LabError::Spec(_) | LabError::Unknown(_) => None,
        }
    }
}

impl From<std::io::Error> for LabError {
    fn from(e: std::io::Error) -> LabError {
        LabError::Io(e)
    }
}

impl From<synran_sim::SimError> for LabError {
    fn from(e: synran_sim::SimError) -> LabError {
        LabError::Sim(e)
    }
}
