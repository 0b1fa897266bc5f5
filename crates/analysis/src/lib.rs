//! # synran-analysis — statistics and theory curves
//!
//! Part of the [`synran`](https://github.com/synran/synran) reproduction of
//! *Bar-Joseph & Ben-Or, "A Tight Lower Bound for Randomized Synchronous
//! Consensus" (PODC 1998)*.
//!
//! Everything the experiment harnesses need to turn raw round counts into
//! the tables EXPERIMENTS.md records:
//!
//! * [`Accumulator`] / [`Summary`] — means, variances, confidence
//!   intervals, quantiles;
//! * [`AsciiPlot`] — terminal series plots (the harnesses' "figures");
//! * [`Binomial`], [`lemma_4_4_bound`], [`corollary_4_5`] — exact binomial
//!   tails and the paper's large-deviation lower bound (Lemma 4.4);
//! * [`lower_bound_rounds`], [`tight_bound_rounds`],
//!   [`sqrt_n_over_log_n`], [`deterministic_rounds`], [`ShapeFit`] — the
//!   curves of Theorems 1–3 and the shape-fitting check;
//! * [`Table`] — aligned text/markdown output.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod binomial;
mod bounds;
mod plot;
mod stats;
mod table;

pub use binomial::{corollary_4_5, lemma_4_4_bound, Binomial};
pub use bounds::{
    deterministic_rounds, lower_bound_rounds, sqrt_n_over_log_n, tight_bound_rounds, ShapeFit,
};
pub use plot::AsciiPlot;
pub use stats::{Accumulator, Summary};
pub use table::{fmt_f64, Table};
