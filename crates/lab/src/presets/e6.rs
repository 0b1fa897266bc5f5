//! E6 — Lemma 4.4 / Corollary 4.5: the explicit binomial large-deviation
//! lower bound.
//!
//! The campaign form of `e6_large_deviation`; the binary wraps this
//! preset. Unlike E3/E4/E7 this experiment runs **no consensus cells** —
//! it is pure analysis (exact log-space binomial tails vs the paper's
//! bound, plus a Monte-Carlo coin experiment on the simulator's RNG) —
//! so its cell list is empty and the campaign journal records only the
//! header. The campaign path still buys the shared telemetry artifact
//! convention (`results/e6_large_deviation.telemetry.jsonl`) and
//! `campaign status` / `synran report` integration.

use std::io::Write;

use synran_analysis::{corollary_4_5, fmt_f64, lemma_4_4_bound, Binomial, Table};
use synran_sim::SimRng;

use crate::artifact::{results_telemetry_path, write_telemetry_jsonl};
use crate::cell::Cell;
use crate::engine::CellRunner;
use crate::presets::{banner, section};
use crate::spec::CampaignSpec;
use crate::LabError;

/// The E6 campaign's parameters.
#[derive(Debug, Clone)]
pub struct E6Params {
    /// Monte-Carlo trials per `(n, deviation)` point.
    pub trials: usize,
    /// RNG seed for the Monte-Carlo section.
    pub seed: u64,
}

/// Sizes for the Lemma 4.4 exact-tail table.
const LEMMA_SIZES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// Sizes for the Corollary 4.5 Monte-Carlo table.
const COROLLARY_SIZES: [usize; 4] = [64, 256, 1024, 4096];

impl E6Params {
    /// Parameters from a campaign spec (`experiment = e6`).
    ///
    /// # Errors
    ///
    /// Returns [`LabError::Spec`] for unparseable values or zero trials.
    pub fn from_spec(spec: &CampaignSpec) -> Result<E6Params, LabError> {
        let trials = spec.param_num("trials", 20_000)?;
        if trials == 0 {
            // The Monte-Carlo column would be 0/0.
            return Err(LabError::Spec("trials must be at least 1".into()));
        }
        Ok(E6Params {
            trials,
            seed: spec.param_num("seed", 6)?,
        })
    }

    /// E6 is pure analysis: no consensus cells, ever.
    #[must_use]
    #[allow(clippy::unused_self)]
    pub fn cells(&self) -> Vec<Cell> {
        Vec::new()
    }
}

/// Empirical tail probability of `ones(n coins) ≥ n/2 + deviation` over
/// `trials` experiments, drawing 64 coins per RNG word — the binary's
/// exact sampling loop, bit for bit.
#[allow(clippy::cast_precision_loss)]
fn monte_carlo_tail(n: usize, deviation: f64, trials: usize, rng: &mut SimRng) -> f64 {
    let threshold = n as f64 / 2.0 + deviation;
    let mut hits = 0usize;
    for _ in 0..trials {
        let mut ones = 0usize;
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(64);
            let word = rng.next_u64();
            let masked = if take == 64 {
                word
            } else {
                word & ((1u64 << take) - 1)
            };
            ones += masked.count_ones() as usize;
            remaining -= take;
        }
        if ones as f64 >= threshold {
            hits += 1;
        }
    }
    hits as f64 / trials as f64
}

/// Runs E6 on `runner` and renders the binary's exact output into `out`.
///
/// # Errors
///
/// Propagates execution and I/O errors.
#[allow(clippy::cast_precision_loss)]
pub fn run(
    params: &E6Params,
    runner: &mut dyn CellRunner,
    out: &mut dyn Write,
) -> Result<(), LabError> {
    // No cells — but running the empty list keeps the journal/cache
    // bookkeeping identical to every other preset.
    runner.run_cells(&params.cells())?;
    let telemetry = runner.telemetry();

    banner(
        out,
        "E6 large-deviation bound (Lemma 4.4 / Corollary 4.5)",
        "Pr(x − E ≥ t√n) ≥ e^{−4(t+1)²}/√(2π) for t < √n/8",
    )?;

    section(out, "Lemma 4.4: exact tail vs bound")?;
    let mut table = Table::new([
        "n",
        "t",
        "deviation t√n",
        "exact tail",
        "bound",
        "exact ≥ bound",
    ]);
    let mut violations = 0usize;
    for n in LEMMA_SIZES {
        let b = Binomial::fair(n);
        let sqrt_n = (n as f64).sqrt();
        for t in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            if t >= sqrt_n / 8.0 {
                continue;
            }
            let exact = b.deviation_tail(t * sqrt_n);
            let bound = lemma_4_4_bound(t);
            let ok = exact >= bound;
            if !ok {
                violations += 1;
            }
            telemetry.incr("e6.lemma44.points", 1);
            table.row([
                n.to_string(),
                fmt_f64(t, 2),
                fmt_f64(t * sqrt_n, 1),
                format!("{exact:.3e}"),
                format!("{bound:.3e}"),
                if ok { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    write!(out, "{table}")?;
    writeln!(out, "\nviolations: {violations} (expected 0)")?;
    telemetry.incr("e6.lemma44.violations", violations as u64);

    section(
        out,
        "Corollary 4.5: deviation √(n·log n)/8 has probability ≥ √(log n/n)",
    )?;
    let mut cor_table = Table::new([
        "n",
        "deviation",
        "exact tail",
        "√(ln n/n)",
        "Monte-Carlo",
        "holds",
    ]);
    let mut rng = SimRng::new(params.seed);
    for n in COROLLARY_SIZES {
        let (dev, bound) = corollary_4_5(n);
        let exact = Binomial::fair(n).deviation_tail(dev);
        let mc = monte_carlo_tail(n, dev, params.trials, &mut rng);
        telemetry.incr("e6.corollary45.trials", params.trials as u64);
        if exact < bound {
            telemetry.incr("e6.corollary45.violations", 1);
        }
        cor_table.row([
            n.to_string(),
            fmt_f64(dev, 1),
            fmt_f64(exact, 4),
            fmt_f64(bound, 4),
            fmt_f64(mc, 4),
            if exact >= bound { "yes" } else { "NO" }.to_string(),
        ]);
    }
    write!(out, "{cor_table}")?;
    writeln!(
        out,
        "\nreading: this tail is why the adversary must pay ~√(p·log p) kills per"
    )?;
    writeln!(
        out,
        "block to stall SynRan (Lemma 4.6) — the coin overshoots the 6p/10 line"
    )?;
    writeln!(out, "with probability ≥ √(log p/p) every round.")?;

    // Telemetry artifact: the analysis counters. No consensus runs here,
    // so there is no per-round kill series — `n` only scales the (unused)
    // cap annotation.
    let path = results_telemetry_path("e6_large_deviation");
    write_telemetry_jsonl(
        &path,
        &[
            ("experiment", "e6_large_deviation".to_string()),
            ("trials", params.trials.to_string()),
            ("seed", params.seed.to_string()),
        ],
        telemetry,
        &[],
        *LEMMA_SIZES.last().expect("sizes nonempty"),
    )?;
    writeln!(out, "\ntelemetry: {}", path.display())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use synran_sim::{Telemetry, TelemetryMode};

    #[test]
    fn cell_list_is_empty_by_construction() {
        let params = E6Params {
            trials: 10,
            seed: 6,
        };
        assert!(params.cells().is_empty());
    }

    #[test]
    fn spec_defaults_match_the_binary_defaults() {
        let spec = CampaignSpec::parse("experiment = e6\n", "e6").unwrap();
        let params = E6Params::from_spec(&spec).unwrap();
        assert_eq!((params.trials, params.seed), (20_000, 6));
        let zero = CampaignSpec::parse("experiment = e6\ntrials = 0\n", "e6").unwrap();
        let err = E6Params::from_spec(&zero).unwrap_err();
        assert!(
            err.to_string().contains("trials must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn renders_both_sections_and_counts_points() {
        let params = E6Params {
            trials: 50, // tiny MC so the test stays fast
            seed: 6,
        };
        let mut engine = Engine::new(1, Telemetry::new(TelemetryMode::Counters));
        let mut out = Vec::new();
        run(&params, &mut engine, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("=== E6 large-deviation bound"), "{text}");
        assert!(text.contains("violations: 0 (expected 0)"), "{text}");
        assert!(text.contains("Monte-Carlo"), "{text}");
        assert!(text.contains("telemetry: "), "{text}");
        // 5 t-values per size, except n = 64 where t = 1.0 hits the
        // t < √n/8 wall: 4 + 5·5 = 29 points.
        let snap = engine.telemetry().snapshot();
        assert_eq!(snap.counter("e6.lemma44.points"), Some(29));
        assert_eq!(snap.counter("e6.lemma44.violations"), Some(0));
        let _ = std::fs::remove_file("results/e6_large_deviation.telemetry.jsonl");
        let _ = std::fs::remove_dir("results");
    }
}
