//! Deterministic, splittable randomness for reproducible simulations.
//!
//! Everything random in an execution is derived from a single `u64` master
//! seed through a keyed hierarchy: *seed × process × round × phase*. Two
//! consequences the rest of the workspace relies on:
//!
//! * **Replay determinism** — re-running a world with the same seed and the
//!   same (deterministic) adversary reproduces the execution event for
//!   event, which makes failures bisectable and property tests meaningful.
//! * **Cheap forking** — the valency estimator in `synran-adversary` clones
//!   a mid-round world and rolls it forward many times; giving each fork a
//!   fresh seed yields independent futures without any shared-state RNG
//!   bookkeeping.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood 2014): tiny state,
//! excellent equidistribution for this workload, and trivially seedable from
//! a hash of the stream coordinates. It is **not** cryptographically secure,
//! which is fine: the adversary in this model is allowed to see every coin
//! anyway (the paper's adversary is *full-information*).

use crate::{Bit, ProcessId, Round};

/// Avalanche step of SplitMix64; also used as the stream-mixing hash.
#[inline]
const fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes a stream coordinate into a seed, giving independent substreams.
#[inline]
const fn mix(seed: u64, coordinate: u64) -> u64 {
    // The odd constant is the golden-ratio increment of SplitMix64; xoring
    // the coordinate after one avalanche round decorrelates neighbouring
    // coordinates (pid 3/round 7 vs pid 7/round 3, etc.).
    splitmix64(seed ^ coordinate.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A deterministic pseudo-random generator with named substreams.
///
/// # Examples
///
/// ```
/// use synran_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a master seed.
    #[must_use]
    pub const fn new(seed: u64) -> SimRng {
        // One avalanche round so that small seeds (0, 1, 2, ...) do not
        // produce correlated initial outputs.
        SimRng {
            state: splitmix64(seed ^ 0x5851_f42d_4c95_7f2d),
        }
    }

    /// Derives the per-process, per-round, per-phase stream used for the
    /// local coin flips of `pid` in `round`.
    ///
    /// The derivation depends only on `(seed, pid, round, phase)`, never on
    /// the order in which processes are stepped, so executions are
    /// reproducible even if the engine's iteration order changes.
    #[must_use]
    pub fn stream(seed: u64, pid: ProcessId, round: Round, phase: StreamPhase) -> SimRng {
        let s = mix(seed, pid.index() as u64);
        let s = mix(s, u64::from(round.index()));
        let s = mix(s, phase as u64 + 1);
        SimRng { state: s }
    }

    /// Derives an independent substream labelled by `tag`.
    ///
    /// Used by adversaries to obtain fork seeds: each `(rng, tag)` pair is a
    /// distinct stream.
    #[must_use]
    pub fn derive(&self, tag: u64) -> SimRng {
        SimRng {
            state: mix(self.state, tag),
        }
    }

    /// Returns the next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.state)
    }

    /// Returns a uniformly random [`Bit`] — the paper's fair local coin.
    pub fn bit(&mut self) -> Bit {
        Bit::from(self.next_u64() & 1 == 1)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        // 53 random bits give a uniform double in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// Returns a uniformly random integer in `0..bound`, without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is an empty range");
        // Lemire-style rejection: accept unless we fall in the biased tail.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Returns a uniformly random index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Fills `dest` with uniformly random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }

    /// Draws `k` distinct indices from `0..len`, in random order.
    ///
    /// # Panics
    ///
    /// Panics if `k > len`.
    pub fn sample_indices(&mut self, len: usize, k: usize) -> Vec<usize> {
        assert!(k <= len, "cannot sample {k} distinct items from {len}");
        // Partial Fisher–Yates over an index vector: O(len) setup, O(k) draws.
        let mut idx: Vec<usize> = (0..len).collect();
        for i in 0..k {
            let j = i + self.below((len - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

/// Which phase of a round a derived stream feeds.
///
/// Keeping send-phase and receive-phase randomness on separate streams means
/// adding a coin flip to one phase of a protocol cannot perturb the other
/// phase's draws in unrelated runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamPhase {
    /// Phase A: composing the round's messages.
    Send = 0,
    /// End of Phase B: processing the round's inbox.
    Receive = 1,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_order_independent() {
        let r1 = SimRng::stream(9, ProcessId::new(3), Round::new(7), StreamPhase::Send);
        let r2 = SimRng::stream(9, ProcessId::new(3), Round::new(7), StreamPhase::Send);
        assert_eq!(r1, r2);
        // Swapping coordinates must give a different stream.
        let r3 = SimRng::stream(9, ProcessId::new(7), Round::new(3), StreamPhase::Send);
        assert_ne!(r1, r3);
        // Phases are independent streams.
        let r4 = SimRng::stream(9, ProcessId::new(3), Round::new(7), StreamPhase::Receive);
        assert_ne!(r1, r4);
    }

    #[test]
    fn bit_is_roughly_fair() {
        let mut rng = SimRng::new(1234);
        let ones: u32 = (0..10_000).map(|_| u32::from(rng.bit().as_u8())).sum();
        // 5000 ± 5 sigma (sigma = 50).
        assert!((4750..=5250).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(5);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn chance_matches_probability() {
        let mut rng = SimRng::new(99);
        let hits = (0..20_000).filter(|_| rng.chance(0.25)).count();
        // E = 5000, sigma ≈ 61; allow ±5 sigma.
        assert!((4700..=5300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        SimRng::new(0).below(0);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::new(11);
        for _ in 0..100 {
            let sample = rng.sample_indices(20, 8);
            assert_eq!(sample.len(), 8);
            let mut sorted = sample.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "indices must be distinct");
            assert!(sample.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_range_is_permutation() {
        let mut rng = SimRng::new(13);
        let mut sample = rng.sample_indices(10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn derive_gives_independent_streams() {
        let base = SimRng::new(21);
        let mut d1 = base.derive(1);
        let mut d2 = base.derive(2);
        assert_ne!(d1.next_u64(), d2.next_u64());
        // Deriving is pure: same tag, same stream.
        let mut d1b = base.derive(1);
        let mut d1c = base.derive(1);
        assert_eq!(d1b.next_u64(), d1c.next_u64());
    }

    #[test]
    fn fill_bytes_deterministic() {
        let mut a = SimRng::new(31);
        let mut b = SimRng::new(31);
        let mut ba = [0u8; 13];
        let mut bb = [0u8; 13];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba, bb);
        assert_ne!(ba, [0u8; 13]);
    }
}
