//! Bit-plane primitives: word-packed bitset rows over process ids.
//!
//! The paper's model is full-information flooding of single bits: in the
//! dominant round shape every alive process broadcasts one [`Bit`] to all
//! `n` processes. Materialising that as `n²` `(ProcessId, M)` pairs is what
//! made `round.deliver` dominate `world.drive` time; a round of broadcast
//! bits collapses into two `n`-wide bitset rows instead —
//!
//! * a **sent mask**: bit `s` set iff process `s` broadcast this round, and
//! * a **value mask**: bit `s` set iff process `s` broadcast a `1`,
//!
//! after which every tally the protocols need (`N^r`, `O^r`, `Z^r`, the
//! 7/10 / 6/10 / 5/10 / 4/10 threshold counts) is a popcount, and victim
//! selection in the adversaries is mask algebra plus set-bit iteration.
//!
//! [`BitPlane`] is that row: a little-endian word-packed bitset of fixed
//! width `n`, 64 process ids per `u64`.
//!
//! # Word order and the tail-bit rule
//!
//! Bit `i` lives in `words()[i / 64]` at bit position `i % 64` (word 0
//! holds ids 0–63, word 1 holds 64–127, …). The last word is only
//! partially used unless `n` is a multiple of 64; the unused **tail bits
//! are always zero**. Every constructor and mutating operation maintains
//! this invariant — [`BitPlane::full`] masks the tail explicitly, and the
//! bitwise ops cannot set a tail bit because neither operand has one set —
//! so popcounts never need a trailing mask and whole-word equality is
//! value equality.
//!
//! [`PlaneMsg`] says which payloads pack to a single bit: the round
//! engine keeps a value mask of the senders whose payload packs to a one,
//! so a round's tallies are popcounts whatever its payloads are.

use crate::{Bit, ProcessId};

/// A message type whose values may pack to one bit.
///
/// The round engine delivers every payload from one table the round's
/// receivers share; a receiver's inbox is a sender mask over it (see
/// [`Inbox`](crate::Inbox)). What `pack` adds is the tally: the engine
/// marks the senders whose payload packs to [`Bit::One`] in a value mask
/// and counts the packed zeros once per inbox, so
/// [`Inbox::tally`](crate::Inbox::tally) is O(1) and reads no payload. A
/// payload that does not pack (the default) counts toward the inbox's
/// length but toward neither side of its tally.
///
/// # Examples
///
/// ```
/// use synran_sim::{Bit, PlaneMsg};
///
/// assert_eq!(Bit::One.pack(), Some(Bit::One));
/// // u32 payloads never pack: they count toward no tally.
/// assert_eq!(7u32.pack(), None);
/// ```
pub trait PlaneMsg {
    /// The single bit this message packs to, or `None` if it has none.
    fn pack(&self) -> Option<Bit> {
        None
    }
}

impl PlaneMsg for Bit {
    fn pack(&self) -> Option<Bit> {
        Some(*self)
    }
}

// Opaque payloads used by tests and ad-hoc probe processes: never packed.
impl PlaneMsg for () {}
impl PlaneMsg for bool {}
impl PlaneMsg for u8 {}
impl PlaneMsg for u16 {}
impl PlaneMsg for u32 {}
impl PlaneMsg for u64 {}
impl PlaneMsg for usize {}
impl PlaneMsg for String {}

/// Bits per [`BitPlane`] word.
const WORD_BITS: usize = u64::BITS as usize;

/// A fixed-width bitset over process ids, one bit per process.
///
/// See the [module docs](self) for the word order and tail-bit rule.
///
/// # Examples
///
/// ```
/// use synran_sim::plane::BitPlane;
///
/// let mut alive = BitPlane::full(70);
/// alive.clear(3);
/// assert_eq!(alive.count_ones(), 69);
///
/// let mut ones = BitPlane::new(70);
/// ones.set(3);
/// ones.set(68);
/// ones.intersect_with(&alive);        // dead senders drop out
/// assert_eq!(ones.count_ones(), 1);
/// assert_eq!(ones.ones().collect::<Vec<_>>(), vec![68]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitPlane {
    n: usize,
    words: Vec<u64>,
}

impl BitPlane {
    /// An all-zeros plane of width `n`.
    #[must_use]
    pub fn new(n: usize) -> BitPlane {
        BitPlane {
            n,
            words: vec![0; n.div_ceil(WORD_BITS)],
        }
    }

    /// An all-ones plane of width `n` (tail bits masked off).
    #[must_use]
    pub fn full(n: usize) -> BitPlane {
        let mut p = BitPlane {
            n,
            words: vec![u64::MAX; n.div_ceil(WORD_BITS)],
        };
        p.mask_tail();
        p
    }

    /// A plane of width `n` with exactly the bits `f` maps to `true` set.
    #[must_use]
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> bool) -> BitPlane {
        let mut p = BitPlane::new(n);
        for i in 0..n {
            if f(i) {
                p.set(i);
            }
        }
        p
    }

    /// Zeroes any bits at positions `>= n` in the last word.
    fn mask_tail(&mut self) {
        let tail = self.n % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The width `n` this plane was built for.
    #[must_use]
    pub fn width(&self) -> usize {
        self.n
    }

    /// The backing words, little-endian: bit `i` is word `i / 64`, bit
    /// position `i % 64`.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.n, "bit {i} out of range for width {}", self.n);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.n, "bit {i} out of range for width {}", self.n);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width()`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.n, "bit {i} out of range for width {}", self.n);
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Number of set bits — the popcount behind every tally.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The lowest set bit, if any.
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, &w)| w != 0)
            .map(|(wi, &w)| wi * WORD_BITS + w.trailing_zeros() as usize)
    }

    /// Clears every bit, keeping the width and the allocation.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Makes this plane a copy of `other`, reusing the allocation.
    pub fn copy_from(&mut self, other: &BitPlane) {
        self.n = other.n;
        self.words.clone_from(&other.words);
    }

    /// `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn union_with(&mut self, other: &BitPlane) {
        self.check_width(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn intersect_with(&mut self, other: &BitPlane) {
        self.check_width(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self &= !other` — the andnot that carves candidate masks ("alive
    /// but not a zero-preferrer") out of each other.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn subtract(&mut self, other: &BitPlane) {
        self.check_width(other);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of bits set in both `self` and `other` — an and-popcount
    /// without materialising the intersection.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    #[must_use]
    pub fn count_common(&self, other: &BitPlane) -> usize {
        self.check_width(other);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    fn check_width(&self, other: &BitPlane) {
        assert_eq!(
            self.n, other.n,
            "bit-plane width mismatch: {} vs {}",
            self.n, other.n
        );
    }

    /// Iterates over set bit positions in ascending order.
    #[must_use]
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Iterates over set bits as [`ProcessId`]s in ascending order.
    pub fn ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.ones().map(ProcessId::new)
    }
}

impl FromIterator<usize> for BitPlane {
    /// Collects bit positions into a plane wide enough to hold the
    /// largest. Mostly a test convenience; prefer [`BitPlane::new`] plus
    /// [`BitPlane::set`] when the width is known.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> BitPlane {
        let indices: Vec<usize> = iter.into_iter().collect();
        let n = indices.iter().max().map_or(0, |&m| m + 1);
        let mut p = BitPlane::new(n);
        for i in indices {
            p.set(i);
        }
        p
    }
}

/// Ascending set-bit iterator over a [`BitPlane`], word by word with
/// `trailing_zeros` to skip runs of zeros.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // drop the lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_round_word_boundaries() {
        for n in [0, 1, 63, 64, 65, 127, 128, 130] {
            let p = BitPlane::new(n);
            assert_eq!(p.width(), n);
            assert_eq!(p.words().len(), n.div_ceil(64));
            assert_eq!(p.count_ones(), 0);
            let f = BitPlane::full(n);
            assert_eq!(f.count_ones(), n, "full({n})");
        }
    }

    #[test]
    fn tail_bits_stay_zero() {
        let mut p = BitPlane::full(70);
        assert_eq!(p.words()[1] >> 6, 0, "tail of full() is masked");
        p.clear(69);
        p.set(69);
        let mut q = BitPlane::full(70);
        q.union_with(&p);
        assert_eq!(q.words()[1] >> 6, 0, "ops preserve the tail rule");
        assert_eq!(
            q,
            BitPlane::full(70),
            "whole-word equality is value equality"
        );
    }

    #[test]
    fn set_get_clear_assign() {
        let mut p = BitPlane::new(100);
        p.set(0);
        p.set(64);
        p.set(99);
        assert!(p.get(0) && p.get(64) && p.get(99));
        assert!(!p.get(50));
        assert_eq!(p.count_ones(), 3);
        p.clear(64);
        assert!(!p.get(64));
        p.assign(64, true);
        p.assign(0, false);
        assert_eq!(p.ones().collect::<Vec<_>>(), vec![64, 99]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        BitPlane::new(10).set(10);
    }

    #[test]
    fn bitwise_ops_match_naive_model() {
        // Fixed-seed pseudo-random masks, checked bit by bit against
        // Vec<bool> models, across widths with tricky tails.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [1usize, 5, 63, 64, 65, 100, 128, 200] {
            let a_bits: Vec<bool> = (0..n).map(|_| next() % 3 == 0).collect();
            let b_bits: Vec<bool> = (0..n).map(|_| next() % 2 == 0).collect();
            let a = BitPlane::from_fn(n, |i| a_bits[i]);
            let b = BitPlane::from_fn(n, |i| b_bits[i]);

            let mut union = a.clone();
            union.union_with(&b);
            let mut inter = a.clone();
            inter.intersect_with(&b);
            let mut diff = a.clone();
            diff.subtract(&b);
            for i in 0..n {
                assert_eq!(union.get(i), a_bits[i] | b_bits[i], "union n={n} i={i}");
                assert_eq!(inter.get(i), a_bits[i] & b_bits[i], "inter n={n} i={i}");
                assert_eq!(diff.get(i), a_bits[i] & !b_bits[i], "diff n={n} i={i}");
            }
            assert_eq!(a.count_common(&b), inter.count_ones(), "count_common n={n}");
            let expected: Vec<usize> = (0..n).filter(|&i| a_bits[i]).collect();
            assert_eq!(a.ones().collect::<Vec<_>>(), expected, "ones n={n}");
            assert_eq!(a.first_one(), expected.first().copied());
            assert_eq!(a.count_ones(), expected.len());
        }
    }

    #[test]
    fn clear_all_and_copy_from_reuse_width() {
        let mut p = BitPlane::full(90);
        p.clear_all();
        assert!(p.is_empty());
        assert_eq!(p.width(), 90);
        let q = BitPlane::from_fn(33, |i| i % 4 == 1);
        p.copy_from(&q);
        assert_eq!(p, q);
        assert_eq!(p.width(), 33);
    }

    #[test]
    fn from_iterator_collects_positions() {
        let p: BitPlane = vec![3usize, 65, 7].into_iter().collect();
        assert_eq!(p.width(), 66);
        assert_eq!(p.ones().collect::<Vec<_>>(), vec![3, 7, 65]);
        let empty: BitPlane = std::iter::empty::<usize>().collect();
        assert_eq!(empty.width(), 0);
        assert!(empty.is_empty());
        assert_eq!(empty.first_one(), None);
    }

    #[test]
    fn ids_yield_process_ids_ascending() {
        let p = BitPlane::from_fn(70, |i| i == 2 || i == 69);
        let ids: Vec<usize> = p.ids().map(ProcessId::index).collect();
        assert_eq!(ids, vec![2, 69]);
    }

    #[test]
    fn plane_msg_packs_bits_only() {
        for b in Bit::BOTH {
            assert_eq!(b.pack(), Some(b));
        }
        assert_eq!(3u64.pack(), None);
        assert_eq!(String::from("1").pack(), None);
        assert_eq!(().pack(), None);
    }
}
