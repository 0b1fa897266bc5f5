//! The set of bit values a process has seen — flooding's message payload.

use std::fmt;

use synran_sim::{Bit, PlaneMsg};

/// A subset of `{0, 1}`: which consensus values a process knows exist.
///
/// This is the payload of flooding-set consensus and of SynRan's
/// deterministic stage. Kept as two flags rather than a generic set
/// because the value domain is exactly one bit.
///
/// # Examples
///
/// ```
/// use synran_core::ValueSet;
/// use synran_sim::Bit;
///
/// let mut v = ValueSet::single(Bit::One);
/// v.insert(Bit::Zero);
/// assert_eq!(v.min(), Some(Bit::Zero));
/// assert_eq!(v.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ValueSet {
    has_zero: bool,
    has_one: bool,
}

impl ValueSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> ValueSet {
        ValueSet {
            has_zero: false,
            has_one: false,
        }
    }

    /// The singleton `{value}`.
    #[must_use]
    pub const fn single(value: Bit) -> ValueSet {
        match value {
            Bit::Zero => ValueSet {
                has_zero: true,
                has_one: false,
            },
            Bit::One => ValueSet {
                has_zero: false,
                has_one: true,
            },
        }
    }

    /// The full set `{0, 1}`.
    #[must_use]
    pub const fn both() -> ValueSet {
        ValueSet {
            has_zero: true,
            has_one: true,
        }
    }

    /// Adds a value.
    pub fn insert(&mut self, value: Bit) {
        match value {
            Bit::Zero => self.has_zero = true,
            Bit::One => self.has_one = true,
        }
    }

    /// Unions another set into this one.
    pub fn union_with(&mut self, other: ValueSet) {
        self.has_zero |= other.has_zero;
        self.has_one |= other.has_one;
    }

    /// Membership test.
    #[must_use]
    pub const fn contains(&self, value: Bit) -> bool {
        match value {
            Bit::Zero => self.has_zero,
            Bit::One => self.has_one,
        }
    }

    /// Number of values present (0, 1, or 2).
    #[must_use]
    pub const fn len(&self) -> usize {
        self.has_zero as usize + self.has_one as usize
    }

    /// `true` if no value is present.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        !self.has_zero && !self.has_one
    }

    /// The smallest value present — flooding's decision rule.
    #[must_use]
    pub const fn min(&self) -> Option<Bit> {
        if self.has_zero {
            Some(Bit::Zero)
        } else if self.has_one {
            Some(Bit::One)
        } else {
            None
        }
    }
}

impl From<Bit> for ValueSet {
    fn from(b: Bit) -> ValueSet {
        ValueSet::single(b)
    }
}

impl PlaneMsg for ValueSet {
    /// Singletons pack to their one value; the empty and full sets do
    /// not. So flooding's early rounds — where every process still
    /// broadcasts the singleton of its input — count as rounds whose every
    /// payload packs (`round.deliver.plane`).
    fn pack(&self) -> Option<Bit> {
        match self.len() {
            1 => self.min(),
            _ => None,
        }
    }
}

impl FromIterator<Bit> for ValueSet {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> ValueSet {
        let mut s = ValueSet::empty();
        for b in iter {
            s.insert(b);
        }
        s
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.has_zero, self.has_one) {
            (false, false) => write!(f, "{{}}"),
            (true, false) => write!(f, "{{0}}"),
            (false, true) => write!(f, "{{1}}"),
            (true, true) => write!(f, "{{0,1}}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_membership() {
        assert!(ValueSet::empty().is_empty());
        assert_eq!(ValueSet::empty().len(), 0);
        let z = ValueSet::single(Bit::Zero);
        assert!(z.contains(Bit::Zero));
        assert!(!z.contains(Bit::One));
        assert_eq!(ValueSet::both().len(), 2);
        assert_eq!(ValueSet::from(Bit::One), ValueSet::single(Bit::One));
    }

    #[test]
    fn min_prefers_zero() {
        assert_eq!(ValueSet::empty().min(), None);
        assert_eq!(ValueSet::single(Bit::One).min(), Some(Bit::One));
        assert_eq!(ValueSet::both().min(), Some(Bit::Zero));
    }

    #[test]
    fn union_is_idempotent_and_commutative() {
        let sets = [
            ValueSet::empty(),
            ValueSet::single(Bit::Zero),
            ValueSet::single(Bit::One),
            ValueSet::both(),
        ];
        for a in sets {
            for b in sets {
                let mut ab = a;
                ab.union_with(b);
                let mut ba = b;
                ba.union_with(a);
                assert_eq!(ab, ba);
                let mut aa = ab;
                aa.union_with(b);
                assert_eq!(aa, ab);
            }
        }
    }

    #[test]
    fn from_iterator_collects() {
        let s: ValueSet = [Bit::One, Bit::One, Bit::Zero].into_iter().collect();
        assert_eq!(s, ValueSet::both());
        let empty: ValueSet = std::iter::empty().collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(ValueSet::empty().to_string(), "{}");
        assert_eq!(ValueSet::single(Bit::Zero).to_string(), "{0}");
        assert_eq!(ValueSet::single(Bit::One).to_string(), "{1}");
        assert_eq!(ValueSet::both().to_string(), "{0,1}");
    }
}
