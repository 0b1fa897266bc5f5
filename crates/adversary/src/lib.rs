//! # synran-adversary — the lower-bound machinery (§3)
//!
//! Part of the [`synran`](https://github.com/synran/synran) reproduction of
//! *Bar-Joseph & Ben-Or, "A Tight Lower Bound for Randomized Synchronous
//! Consensus" (PODC 1998)*.
//!
//! The paper's Theorem 1 adversary is full-information, adaptive, and
//! computationally unbounded; it keeps any consensus protocol in bivalent
//! or null-valent states for `Ω(t/√(n·log n))` rounds by spending at most
//! `4√(n·log n) + 1` kills per round. This crate provides:
//!
//! * **probabilistic valency** ([`estimate_valency`], [`classify`],
//!   [`Valence`]) — the §3.2 state classification, estimated by forking
//!   executions and resuming them under reference [`ProbeSet`]s;
//! * **the lower-bound adversary** ([`LowerBoundAdversary`]) — per round,
//!   scores candidate interventions by the openness of the resulting state
//!   and plays the one that keeps both decisions reachable;
//! * **[`find_adversarial_input`]** — Lemma 3.5's initial-state chain
//!   argument, operationalised as a binary search for the flip point;
//! * **structural attacks** ([`Balancer`] — the coin-band stalling attack
//!   matching Lemma 4.6's cost accounting, [`PreferenceKiller`]) and
//!   **baselines** ([`RandomKiller`], [`Storm`]).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod balancer;
mod boundary;
mod exact;
mod leader_hunter;
mod lower_bound;
mod oblivious;
mod preference;
mod simple;
mod valency;
mod walker;

pub use balancer::Balancer;
pub use boundary::BoundaryAttack;
pub use exact::{ExactError, ExactEvaluator, ExactRange};
pub use leader_hunter::LeaderHunter;
pub use lower_bound::{find_adversarial_input, paper_cap, probe_horizon, LowerBoundAdversary};
pub use oblivious::Oblivious;
pub use preference::PreferenceKiller;
pub use simple::{RandomKiller, Storm};
pub use valency::{
    classify, classify_with, estimate_valency, BoxedAdversary, ProbeSet, Valence, ValencyEstimate,
};
pub use walker::MessageWalker;
