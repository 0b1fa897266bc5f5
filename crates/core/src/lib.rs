//! # synran-core — the protocols of Bar-Joseph & Ben-Or (PODC 1998)
//!
//! The consensus protocols of *"A Tight Lower Bound for Randomized
//! Synchronous Consensus"*, built on the [`synran_sim`] substrate:
//!
//! * [`SynRan`] — the paper's §4 protocol: Ben-Or-style randomized
//!   consensus with a **one-side-biased coin**, an early-stopping stability
//!   rule, and a handover to deterministic flooding once fewer than
//!   `√(n/log n)` processes survive. Tolerates any `t ≤ n` fail-stop
//!   faults and reaches agreement in expected `Θ(t/√(n·log(2+t/√n)))`
//!   rounds — matching the paper's lower bound.
//! * [`SynRan::symmetric`] — the ablation with a plain fair coin, used to
//!   demonstrate *why* the one-sided rule matters.
//! * [`FloodingConsensus`] — the classic deterministic `t+1`-round
//!   protocol: both the baseline the paper's introduction compares against
//!   and SynRan's deterministic stage.
//!
//! Plus the harness around them: the [`ConsensusProtocol`] factory trait,
//! the Agreement/Validity/Termination [`checker`](check_consensus), and a
//! seeded [batch runner](run_batch).
//!
//! ## Quick start
//!
//! ```
//! use synran_core::{check_consensus, SynRan};
//! use synran_sim::{Bit, Passive, SimConfig};
//!
//! let inputs: Vec<Bit> = (0..16).map(|i| Bit::from(i % 2 == 0)).collect();
//! let verdict = check_consensus(
//!     &SynRan::new(),
//!     &inputs,
//!     SimConfig::new(16).seed(42),
//!     &mut Passive,
//! )?;
//! assert!(verdict.is_correct());
//! # Ok::<(), synran_sim::SimError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod checker;
mod flooding;
mod leader;
mod math;
mod protocol;
mod runner;
mod synran;
mod value_set;

pub use checker::{check_consensus, check_consensus_with, evaluate, ConsensusVerdict};
pub use flooding::{FloodingConsensus, FloodingCore, FloodingProcess};
pub use leader::{LeaderConsensus, LeaderMsg, LeaderProcess};
pub use math::{
    deterministic_stage_rounds, deterministic_threshold, ln_clamped, per_round_kill_budget,
};
pub use protocol::ConsensusProtocol;
pub use runner::{run_batch, run_batch_with, run_step, BatchOutcome, InputAssignment, RunRecord};
pub use synran::{
    CoinRule, PredictedStep, StageKind, SynRan, SynRanMsg, SynRanProcess, Thresholds,
};
pub use value_set::ValueSet;
