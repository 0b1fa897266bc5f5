//! Simulation configuration.

use crate::SimError;

/// Configuration of one simulated execution.
///
/// Built with a non-consuming builder (`C-BUILDER`); validated when a
/// [`World`](crate::World) is constructed from it.
///
/// # Examples
///
/// ```
/// use synran_sim::SimConfig;
///
/// let cfg = SimConfig::new(64)
///     .faults(21)
///     .seed(0xfeed)
///     .max_rounds(500);
/// assert_eq!(cfg.n(), 64);
/// assert_eq!(cfg.t(), 21);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    n: usize,
    t: usize,
    seed: u64,
    max_rounds: u32,
    threads: usize,
}

/// Default cap on execution length, generous enough for every protocol in
/// the workspace at the paper's scales while still catching livelocks.
pub const DEFAULT_MAX_ROUNDS: u32 = 100_000;

impl SimConfig {
    /// Starts a configuration for a system of `n` processes with no faults,
    /// seed 0, the default round limit, and the automatic thread budget.
    #[must_use]
    pub fn new(n: usize) -> SimConfig {
        SimConfig {
            n,
            t: 0,
            seed: 0,
            max_rounds: DEFAULT_MAX_ROUNDS,
            threads: crate::parallel::AUTO_THREADS,
        }
    }

    /// Sets the adversary's total fault budget `t`.
    #[must_use]
    pub fn faults(mut self, t: usize) -> SimConfig {
        self.t = t;
        self
    }

    /// Sets the master seed all randomness derives from.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    /// Sets the round limit after which a run aborts with
    /// [`SimError::MaxRoundsExceeded`].
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u32) -> SimConfig {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the worker-thread budget of a seeded batch's runs (a run itself
    /// is always serial). `0` ([`parallel::AUTO_THREADS`]) means
    /// "use all available parallelism"; `1` forces the serial path.
    ///
    /// Results are **identical for every setting** — see the determinism
    /// contract in [`parallel`] — so this knob only trades wall-clock time
    /// for cores.
    ///
    /// [`parallel`]: crate::parallel
    /// [`parallel::AUTO_THREADS`]: crate::parallel::AUTO_THREADS
    #[must_use]
    pub fn threads(mut self, threads: usize) -> SimConfig {
        self.threads = threads;
        self
    }

    /// Number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Total fault budget.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// Master seed.
    #[must_use]
    pub fn seed_value(&self) -> u64 {
        self.seed
    }

    /// Round limit.
    #[must_use]
    pub fn max_rounds_value(&self) -> u32 {
        self.max_rounds
    }

    /// The configured worker-thread budget (`0` = auto).
    #[must_use]
    pub fn threads_value(&self) -> usize {
        self.threads
    }

    /// The worker-thread budget with `0` resolved to the machine's
    /// available parallelism.
    #[must_use]
    pub fn resolved_threads(&self) -> usize {
        crate::parallel::resolve_threads(self.threads)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `n == 0`, `t > n`, or
    /// `max_rounds == 0`.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.n == 0 {
            return Err(SimError::InvalidConfig {
                reason: "n must be at least 1".into(),
            });
        }
        if self.t > self.n {
            return Err(SimError::InvalidConfig {
                reason: format!("fault budget t = {} exceeds n = {}", self.t, self.n),
            });
        }
        if self.max_rounds == 0 {
            return Err(SimError::InvalidConfig {
                reason: "max_rounds must be at least 1".into(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let cfg = SimConfig::new(16)
            .faults(5)
            .seed(9)
            .max_rounds(77)
            .threads(3);
        assert_eq!(cfg.n(), 16);
        assert_eq!(cfg.t(), 5);
        assert_eq!(cfg.seed_value(), 9);
        assert_eq!(cfg.max_rounds_value(), 77);
        assert_eq!(cfg.threads_value(), 3, "the request is stored verbatim");
        assert_eq!(
            cfg.resolved_threads(),
            crate::parallel::resolve_threads(3),
            "resolution applies the oversubscription clamp"
        );
        assert!(cfg.resolved_threads() >= 2, "clamp floor keeps parallelism");
        cfg.validate().unwrap();
    }

    #[test]
    fn defaults_are_sane() {
        let cfg = SimConfig::new(4);
        assert_eq!(cfg.t(), 0);
        assert_eq!(cfg.seed_value(), 0);
        assert_eq!(cfg.max_rounds_value(), DEFAULT_MAX_ROUNDS);
        assert_eq!(cfg.threads_value(), crate::parallel::AUTO_THREADS);
        assert!(cfg.resolved_threads() >= 1, "auto resolves to at least one");
        cfg.validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SimConfig::new(0).validate().is_err());
        assert!(SimConfig::new(4).faults(5).validate().is_err());
        assert!(SimConfig::new(4).max_rounds(0).validate().is_err());
        // t == n is legal: the paper's protocol works for any t ≤ n.
        SimConfig::new(4).faults(4).validate().unwrap();
    }
}
