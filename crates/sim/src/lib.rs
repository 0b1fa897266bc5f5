//! # synran-sim — a synchronous, full-information, fail-stop simulator
//!
//! The execution substrate for the [`synran`](https://github.com/synran/synran)
//! workspace, which reproduces *Bar-Joseph & Ben-Or, "A Tight Lower Bound
//! for Randomized Synchronous Consensus" (PODC 1998)*.
//!
//! This crate models the paper's §3.1 system exactly:
//!
//! * `n` processes advance in **synchronous rounds**, each split into
//!   Phase A (local coin flips and computation, producing the round's
//!   messages) and Phase B (message exchange);
//! * a **fail-stop, adaptive-strongly-dynamic, full-information
//!   adversary** inspects every local state, coin, and queued message
//!   between the phases, and may fail processes *mid-send*, choosing which
//!   of their final messages are still delivered;
//! * the adversary is budgeted to `t` total failures, **enforced by the
//!   engine**;
//! * links are perfectly reliable: every message not suppressed by a
//!   failure is delivered within its round.
//!
//! ## Quick start
//!
//! ```
//! use synran_sim::{Bit, Passive, SimConfig, World};
//! use synran_sim::testing::Echo;
//!
//! // 8 processes, no faults, deterministic seed.
//! let cfg = SimConfig::new(8).seed(42);
//! let mut world = World::new(cfg, |pid| Echo::new(Bit::from(pid.index() % 2 == 0)))?;
//! let report = world.run(&mut Passive)?;
//! assert_eq!(report.rounds(), 1);
//! # Ok::<(), synran_sim::SimError>(())
//! ```
//!
//! ## Determinism
//!
//! Every coin in an execution derives from the master seed through the
//! hierarchy *seed × process × round × phase* ([`SimRng::stream`]), so runs
//! replay exactly and mid-round forks ([`World::fork`]) explore independent
//! futures — the primitive the lower-bound adversary's valency estimation
//! is built on.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`Process`], [`Context`] | the protocol-side interface |
//! | [`World`] | the round engine and its state machine |
//! | [`Adversary`], [`Intervention`], [`DeliveryFilter`] | the fault-side interface |
//! | [`FaultBudget`] | engine-enforced `t` |
//! | [`SimRng`] | deterministic splittable randomness |
//! | [`plane`] | word-packed bit-plane rows behind the broadcast fast path |
//! | [`Trace`], [`Metrics`], [`RunReport`] | observability |
//! | [`telemetry`] | spans, counters/histograms, the JSONL record |
//! | [`json`] | the flat JSONL line codec every artifact reader and writer shares |
//! | [`testing`] | trivial processes for tests and docs |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod adversary;
mod bit;
mod budget;
mod config;
mod error;
mod id;
pub mod json;
mod message;
mod metrics;
pub mod parallel;
pub mod plane;
mod process;
mod report;
mod rng;
pub mod telemetry;
pub mod testing;
mod trace;
mod world;

pub use adversary::{Adversary, DeliveryFilter, Intervention, Kill, Passive};
pub use bit::Bit;
pub use budget::FaultBudget;
pub use config::{SimConfig, DEFAULT_MAX_ROUNDS};
pub use error::{ParseBitError, SimError};
pub use id::{ProcessId, Round};
pub use message::{Inbox, SendPattern};
pub use metrics::Metrics;
pub use plane::{BitPlane, PlaneMsg};
pub use process::{Context, Process};
pub use report::RunReport;
pub use rng::{SimRng, StreamPhase};
pub use telemetry::aggregate::{
    LineKind, OwnedSpan, PhaseStat, RoundKillRow, SpanNode, SpanTree, TelemetryStream,
};
pub use telemetry::{MemorySink, Telemetry, TelemetryEvent, TelemetryMode};
pub use trace::{Event, Trace};
pub use world::{ProcessStatus, World};
