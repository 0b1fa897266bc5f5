//! Exact valency for tiny systems: the ground truth the Monte-Carlo
//! estimator is validated against.
//!
//! The paper's adversary is computationally unbounded: it *knows*
//! `min/max Pr[decide 1 | α, b]` over its strategy space. For tiny systems
//! this crate computes those numbers **exactly**, by exhaustive game-tree
//! evaluation over the real engine:
//!
//! * **adversary nodes** — one per round, enumerating every intervention
//!   in a restricted-but-complete-for-small-t space (do nothing, or kill
//!   any single alive process with full or zero delivery); the minimising
//!   (resp. maximising) branch is taken for `min_p1` (resp. `max_p1`);
//! * **coin nodes** — [`SynRanProcess::predict`] identifies exactly which
//!   processes flip a coin this round; every coin vector is realised by
//!   *searching for a fork seed* whose per-(process, round) receive
//!   streams produce it (possible because the engine's randomness is a
//!   pure function of `seed × process × round × phase`), and the children
//!   are averaged with equal weight;
//! * **horizon leaves** — an undecided execution at the depth limit
//!   contributes the trivially correct interval `[0, 1]`, so the result
//!   is a *sound enclosure*: the true `min_p1` lies in
//!   `[min_p1, min_p1 + slack]` and symmetrically for `max_p1`.
//!
//! Branching is exponential (interventions × 2^flips per round), so this
//! is strictly a validation tool: n ≤ 4 and small horizons. The payoff is
//! the test in this module and `tests/` asserting the Monte-Carlo
//! [`estimate_valency`](crate::estimate_valency) range always sits inside
//! the exact enclosure.

use std::fmt;

use synran_core::{PredictedStep, StageKind, SynRanMsg, SynRanProcess};
use synran_sim::{
    Bit, DeliveryFilter, Intervention, ProcessId, SendPattern, SimError, SimRng, StreamPhase, World,
};

/// Errors from exact evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExactError {
    /// The engine reported an error while replaying a branch.
    Engine(SimError),
    /// The tree exceeded the configured node budget.
    TooLarge {
        /// The configured limit.
        max_nodes: u64,
    },
    /// No seed realising a required coin vector was found within the
    /// search limit (astronomically unlikely below ~20 simultaneous
    /// flips; indicates a mis-configured flip set otherwise).
    SeedSearchExhausted {
        /// Number of simultaneous coin flips requested.
        flips: usize,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::Engine(e) => write!(f, "engine error during exact evaluation: {e}"),
            ExactError::TooLarge { max_nodes } => {
                write!(f, "exact game tree exceeded {max_nodes} nodes")
            }
            ExactError::SeedSearchExhausted { flips } => {
                write!(f, "no seed found realising a {flips}-coin vector")
            }
        }
    }
}

impl std::error::Error for ExactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExactError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ExactError {
    fn from(e: SimError) -> ExactError {
        ExactError::Engine(e)
    }
}

/// The exact enclosure of `min/max Pr[decide 1]` from a state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactRange {
    min_p1: f64,
    max_p1: f64,
    nodes: u64,
    horizon_leaves: u64,
}

impl ExactRange {
    /// Exact lower end: the best the 0-pushing adversary can guarantee.
    /// (A horizon leaf contributes 0 here, so this is a true lower bound
    /// on `min Pr[1]`.)
    #[must_use]
    pub fn min_p1(&self) -> f64 {
        self.min_p1
    }

    /// Exact upper end: the best the 1-pushing adversary can guarantee.
    /// (A horizon leaf contributes 1 here, a true upper bound.)
    #[must_use]
    pub fn max_p1(&self) -> f64 {
        self.max_p1
    }

    /// Game-tree nodes evaluated.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Leaves that hit the horizon undecided (0 ⇒ the enclosure is tight).
    #[must_use]
    pub fn horizon_leaves(&self) -> u64 {
        self.horizon_leaves
    }
}

/// Configuration of the exhaustive evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExactEvaluator {
    horizon: u32,
    max_nodes: u64,
    seed_search_limit: u64,
}

impl ExactEvaluator {
    /// Creates an evaluator exploring `horizon` rounds deep.
    #[must_use]
    pub fn new(horizon: u32) -> ExactEvaluator {
        ExactEvaluator {
            horizon,
            max_nodes: 5_000_000,
            seed_search_limit: 1 << 22,
        }
    }

    /// Overrides the node budget.
    #[must_use]
    pub fn max_nodes(mut self, max_nodes: u64) -> ExactEvaluator {
        self.max_nodes = max_nodes;
        self
    }

    /// Computes the exact enclosure from `world`, which must sit at a
    /// round boundary (Phase A not yet run).
    ///
    /// # Errors
    ///
    /// [`ExactError::TooLarge`] if the tree outgrows the node budget;
    /// [`ExactError::Engine`] on engine violations; see [`ExactError`].
    pub fn evaluate(&self, world: &World<SynRanProcess>) -> Result<ExactRange, ExactError> {
        let mut nodes = 0u64;
        let mut horizon_leaves = 0u64;
        let (min_p1, max_p1) = self.eval(world, self.horizon, &mut nodes, &mut horizon_leaves)?;
        Ok(ExactRange {
            min_p1,
            max_p1,
            nodes,
            horizon_leaves,
        })
    }

    fn eval(
        &self,
        world: &World<SynRanProcess>,
        depth: u32,
        nodes: &mut u64,
        horizon_leaves: &mut u64,
    ) -> Result<(f64, f64), ExactError> {
        *nodes += 1;
        if *nodes > self.max_nodes {
            return Err(ExactError::TooLarge {
                max_nodes: self.max_nodes,
            });
        }
        if world.finished() {
            use synran_sim::Process as _;
            let d = world
                .processes()
                .find_map(|(_, p, status)| (!status.is_failed()).then(|| p.decision()).flatten())
                .map_or(0.5, |b| f64::from(b.as_u8()));
            return Ok((d, d));
        }
        if depth == 0 {
            *horizon_leaves += 1;
            return Ok((0.0, 1.0));
        }

        let mut staged = world.fork(world.seed());
        staged.phase_a()?;

        let mut best_min = f64::INFINITY;
        let mut best_max = f64::NEG_INFINITY;
        for intervention in enumerate_interventions(&staged) {
            let flips = flip_set(&staged, &intervention);
            let k = flips.len();
            let mut sum_min = 0.0;
            let mut sum_max = 0.0;
            for vector in 0u64..(1 << k) {
                let seed = self.find_seed(&flips, vector, staged.round())?;
                let mut child = staged.fork(seed);
                child.deliver(intervention.clone())?;
                let (lo, hi) = self.eval(&child, depth - 1, nodes, horizon_leaves)?;
                sum_min += lo;
                sum_max += hi;
            }
            let scale = 1.0 / (1u64 << k) as f64;
            best_min = best_min.min(sum_min * scale);
            best_max = best_max.max(sum_max * scale);
        }
        Ok((best_min, best_max))
    }

    /// Finds a fork seed whose receive-phase coins at `round` equal
    /// `vector` on the flipping processes.
    fn find_seed(
        &self,
        flips: &[ProcessId],
        vector: u64,
        round: synran_sim::Round,
    ) -> Result<u64, ExactError> {
        'seeds: for seed in 0..self.seed_search_limit {
            for (i, &pid) in flips.iter().enumerate() {
                let want = Bit::from((vector >> i) & 1 == 1);
                let got = SimRng::stream(seed, pid, round, StreamPhase::Receive).bit();
                if got != want {
                    continue 'seeds;
                }
            }
            return Ok(seed);
        }
        Err(ExactError::SeedSearchExhausted { flips: flips.len() })
    }
}

/// The restricted adversary space: do nothing, or fail one alive process
/// with all-or-nothing delivery (keeping at least one process alive and
/// within the global budget).
fn enumerate_interventions(staged: &World<SynRanProcess>) -> Vec<Intervention> {
    let mut out = vec![Intervention::none()];
    if staged.budget().remaining() == 0 || staged.alive_count() <= 1 {
        return out;
    }
    for victim in staged.alive_ids() {
        out.push(Intervention::new().kill(victim, DeliveryFilter::All));
        out.push(Intervention::new().kill(victim, DeliveryFilter::None));
    }
    out
}

/// The set of alive processes that will flip a coin when `intervention`
/// is applied to the staged (post-Phase-A) world.
fn flip_set(staged: &World<SynRanProcess>, intervention: &Intervention) -> Vec<ProcessId> {
    let n = staged.n();
    let killed = |pid: ProcessId| {
        intervention
            .kills()
            .iter()
            .find(|k| k.victim == pid)
            .map(|k| &k.delivered)
    };
    let mut flips = Vec::new();
    for receiver in staged.alive_ids() {
        if killed(receiver).is_some() {
            continue; // dies this round; receives nothing
        }
        let proc = staged.process(receiver);
        if proc.stage() != StageKind::Probabilistic {
            continue; // delay and flooding rounds flip no coins
        }
        // Count what this receiver will see.
        let (mut n_r, mut o_r, mut z_r) = (0usize, 0usize, 0usize);
        for sender in ProcessId::all(n) {
            // A silent sender reaches no one, like one with no outbox.
            let Some(SendPattern::Broadcast(msg)) = staged.outbox(sender) else {
                continue;
            };
            let delivered = match killed(sender) {
                Some(filter) => filter.allows(receiver),
                None => true,
            };
            if !delivered {
                continue;
            }
            n_r += 1;
            match msg {
                SynRanMsg::Pref(Bit::One) => o_r += 1,
                SynRanMsg::Pref(Bit::Zero) => z_r += 1,
                SynRanMsg::Known(_) => {}
            }
        }
        if proc.predict(n_r, o_r, z_r) == Some(PredictedStep::FlipCoin) {
            flips.push(receiver);
        }
    }
    flips
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate_valency, ProbeSet};
    use synran_core::{ConsensusProtocol, SynRan};
    use synran_sim::SimConfig;

    fn tiny_world(n: usize, t: usize, ones: usize, seed: u64) -> World<SynRanProcess> {
        let protocol = SynRan::new();
        World::new(
            SimConfig::new(n).faults(t).seed(seed).max_rounds(10_000),
            |pid| protocol.spawn(pid, n, Bit::from(pid.index() < ones)),
        )
        .unwrap()
    }

    #[test]
    fn unanimous_inputs_are_exactly_univalent() {
        let eval = ExactEvaluator::new(6);
        let all_ones = eval.evaluate(&tiny_world(3, 1, 3, 1)).unwrap();
        assert_eq!(
            (all_ones.min_p1(), all_ones.max_p1()),
            (1.0, 1.0),
            "{all_ones:?}"
        );
        assert_eq!(all_ones.horizon_leaves(), 0, "tree fully resolved");
        let all_zeros = eval.evaluate(&tiny_world(3, 1, 0, 2)).unwrap();
        assert_eq!((all_zeros.min_p1(), all_zeros.max_p1()), (0.0, 0.0));
    }

    #[test]
    fn contested_input_is_exactly_bivalent() {
        // [1, 1, 0] with one kill available: killing the zero-holder makes
        // everyone see only 1s (→ decide 1); killing a one-holder makes
        // survivors see O = 1 of base 3 (10 < 12 → decide 0).
        let eval = ExactEvaluator::new(6);
        let range = eval.evaluate(&tiny_world(3, 1, 2, 3)).unwrap();
        assert!(range.min_p1() < 0.25, "adversary can push to 0: {range:?}");
        assert!(range.max_p1() > 0.75, "adversary can push to 1: {range:?}");
    }

    #[test]
    fn no_budget_collapses_to_passive_probability() {
        // With t = 0 the adversary space is {none}: min = max = the
        // passive probability of deciding 1.
        let eval = ExactEvaluator::new(8);
        let range = eval.evaluate(&tiny_world(3, 0, 2, 4)).unwrap();
        assert!(
            (range.max_p1() - range.min_p1()).abs() < 1e-12,
            "no adversary choice ⇒ a single probability: {range:?}"
        );
        // [1,1,0] fault-free: everyone sees O=2 of 3 → 20 !> 18 is false…
        // 20 > 18 → all propose 1 → decide 1. Exactly 1.
        assert_eq!(range.min_p1(), 1.0, "{range:?}");
    }

    #[test]
    fn monte_carlo_estimate_lies_inside_the_exact_enclosure() {
        // The headline validation: the probe-family estimator can never
        // claim more adversary power than the exact adversary space...
        let eval = ExactEvaluator::new(6);
        for (n, t, ones, seed) in [(3usize, 1usize, 2usize, 5u64), (3, 1, 1, 6), (4, 1, 2, 7)] {
            let world = tiny_world(n, t, ones, seed);
            let exact = eval.evaluate(&world).unwrap();
            // Estimator restricted to single-kill probes for a fair
            // comparison with the exact adversary space.
            let probes = ProbeSet::synran(1);
            let est = estimate_valency(&world, &probes, 40, 40, seed ^ 0xE57).unwrap();
            let slack = 0.17; // sampling noise at 40 samples/probe
            assert!(
                est.min_p1() >= exact.min_p1() - slack,
                "n={n} ones={ones}: MC min {} below exact min {}",
                est.min_p1(),
                exact.min_p1()
            );
            assert!(
                est.max_p1() <= exact.max_p1() + slack,
                "n={n} ones={ones}: MC max {} above exact max {}",
                est.max_p1(),
                exact.max_p1()
            );
        }
    }

    #[test]
    fn horizon_zero_gives_trivial_interval() {
        let eval = ExactEvaluator::new(0);
        let range = eval.evaluate(&tiny_world(3, 1, 2, 8)).unwrap();
        assert_eq!((range.min_p1(), range.max_p1()), (0.0, 1.0));
        assert_eq!(range.horizon_leaves(), 1);
        assert_eq!(range.nodes(), 1);
    }

    #[test]
    fn node_budget_is_enforced() {
        let eval = ExactEvaluator::new(6).max_nodes(10);
        let err = eval.evaluate(&tiny_world(4, 2, 2, 9)).unwrap_err();
        assert_eq!(err, ExactError::TooLarge { max_nodes: 10 });
        assert!(err.to_string().contains("10 nodes"));
    }

    #[test]
    fn evaluation_is_deterministic() {
        let eval = ExactEvaluator::new(5);
        let a = eval.evaluate(&tiny_world(3, 1, 2, 10)).unwrap();
        let b = eval.evaluate(&tiny_world(3, 1, 2, 10)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn seed_search_realises_all_vectors() {
        let eval = ExactEvaluator::new(1);
        let flips: Vec<ProcessId> = (0..4).map(ProcessId::new).collect();
        let round = synran_sim::Round::new(3);
        for vector in 0u64..16 {
            let seed = eval.find_seed(&flips, vector, round).unwrap();
            for (i, &pid) in flips.iter().enumerate() {
                let got = SimRng::stream(seed, pid, round, StreamPhase::Receive).bit();
                assert_eq!(got, Bit::from((vector >> i) & 1 == 1));
            }
        }
    }
}
