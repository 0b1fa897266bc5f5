//! Messages, send patterns, and inboxes.

use crate::plane::{BitPlane, Ones, PlaneMsg};
use crate::{Bit, ProcessId};

/// What a process emits in Phase A of a round.
///
/// The dominant pattern in the paper's protocols is a broadcast of the
/// current preference to *all* processes, **including the sender itself**
/// (SynRan counts its own `b_i` among the round's received values), so
/// broadcast is represented compactly instead of as `n` unicasts.
///
/// # Examples
///
/// ```
/// use synran_sim::{Bit, ProcessId, SendPattern};
///
/// let broadcast: SendPattern<Bit> = SendPattern::Broadcast(Bit::One);
/// assert_eq!(broadcast.recipient_count(8), 8);
///
/// let unicast = SendPattern::To(vec![(ProcessId::new(2), Bit::Zero)]);
/// assert_eq!(unicast.recipient_count(8), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendPattern<M> {
    /// Send the same message to every process (including the sender).
    Broadcast(M),
    /// Send explicit per-recipient messages.
    To(Vec<(ProcessId, M)>),
    /// Send nothing this round.
    Silent,
}

impl<M> SendPattern<M> {
    /// Number of messages this pattern emits in a system of `n` processes.
    #[must_use]
    pub fn recipient_count(&self, n: usize) -> usize {
        match self {
            SendPattern::Broadcast(_) => n,
            SendPattern::To(list) => list.len(),
            SendPattern::Silent => 0,
        }
    }

    /// Returns `true` if this pattern sends no messages.
    #[must_use]
    pub fn is_silent(&self) -> bool {
        matches!(self, SendPattern::Silent) || self.recipient_count(1) == 0
    }

    /// The message addressed to `to`, if any.
    #[must_use]
    pub fn message_for(&self, to: ProcessId) -> Option<&M> {
        match self {
            SendPattern::Broadcast(m) => Some(m),
            SendPattern::To(list) => list.iter().find(|(dst, _)| *dst == to).map(|(_, m)| m),
            SendPattern::Silent => None,
        }
    }
}

impl<M> Default for SendPattern<M> {
    /// Defaults to [`SendPattern::Silent`].
    fn default() -> Self {
        SendPattern::Silent
    }
}

/// Backing representation of an [`Inbox`].
///
/// `Pairs` is the scalar layout: explicit `(sender, message)` pairs in
/// ascending sender order. `Plane` is the bit-plane layout used by the
/// round engine's broadcast fast path: a sent mask plus a value mask, two
/// `u64` words per 64 senders, from which messages are decoded on demand
/// via [`PlaneMsg::unpack`], and both masks' popcounts, taken once.
#[derive(Debug, Clone)]
enum Repr<M> {
    Pairs(Vec<(ProcessId, M)>),
    Plane {
        /// Bit `s` set iff a message from sender `s` was delivered.
        sent: BitPlane,
        /// Bit `s` set iff that message packed to [`Bit::One`].
        /// Invariant: subset of `sent`.
        ones: BitPlane,
        /// Popcounts of `sent` and `ones`: a round's receivers share one inbox.
        len: usize,
        one_count: usize,
    },
}

/// The messages a process received in one round, tagged by sender.
///
/// Senders appear in ascending id order, at most once each (synchronous
/// rounds deliver at most one message per ordered pair of processes).
///
/// An inbox is either backed by explicit `(sender, message)` pairs or —
/// when the round engine's broadcast fast path engaged — by a pair of
/// [`BitPlane`] rows (a sent mask and a value mask) from which messages
/// are decoded on demand. The two representations are observationally
/// identical: iteration order, [`from`](Inbox::from), counts, and
/// equality do not depend on the backing layout.
///
/// # Examples
///
/// ```
/// use synran_sim::{Bit, Inbox, ProcessId};
///
/// let inbox = Inbox::from_messages(vec![
///     (ProcessId::new(0), Bit::One),
///     (ProcessId::new(2), Bit::Zero),
/// ]);
/// assert_eq!(inbox.len(), 2);
/// assert_eq!(inbox.from(ProcessId::new(2)), Some(Bit::Zero));
/// assert_eq!(inbox.from(ProcessId::new(1)), None);
/// assert_eq!(inbox.tally(), (1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Inbox<M> {
    repr: Repr<M>,
}

impl<M> Inbox<M> {
    /// Creates an empty inbox.
    #[must_use]
    pub fn empty() -> Inbox<M> {
        Inbox {
            repr: Repr::Pairs(Vec::new()),
        }
    }

    /// Creates an inbox from `(sender, message)` pairs.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if senders are not strictly ascending —
    /// the engine always delivers in id order, and downstream code relies
    /// on it.
    #[must_use]
    pub fn from_messages(msgs: Vec<(ProcessId, M)>) -> Inbox<M> {
        debug_assert!(
            msgs.windows(2).all(|w| w[0].0 < w[1].0),
            "inbox senders must be strictly ascending"
        );
        Inbox {
            repr: Repr::Pairs(msgs),
        }
    }

    /// Creates a plane-backed inbox from a sent mask and a value mask.
    ///
    /// Bit `s` of `sent` means a message from sender `s` was delivered;
    /// bit `s` of `ones` means that message packed to [`Bit::One`]. Only
    /// meaningful for message types whose [`PlaneMsg`] impl round-trips —
    /// the round engine guarantees this before taking the fast path.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `ones` is not a subset of `sent` or the
    /// widths differ.
    #[must_use]
    pub fn from_plane(sent: BitPlane, ones: BitPlane) -> Inbox<M>
    where
        M: PlaneMsg,
    {
        debug_assert_eq!(sent.width(), ones.width(), "plane width mismatch");
        debug_assert!(
            sent.words()
                .iter()
                .zip(ones.words())
                .all(|(s, o)| o & !s == 0),
            "value mask must be a subset of the sent mask"
        );
        Inbox {
            repr: Repr::Plane {
                len: sent.count_ones(),
                one_count: ones.count_ones(),
                sent,
                ones,
            },
        }
    }

    /// Number of messages received this round — the paper's `N_i^r`.
    /// O(1): a plane-backed inbox counted its senders when it was built.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Pairs(msgs) => msgs.len(),
            Repr::Plane { len, .. } => *len,
        }
    }

    /// Returns `true` if nothing was received.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The backing planes `(sent, ones)` when this inbox is plane-backed.
    #[must_use]
    pub fn planes(&self) -> Option<(&BitPlane, &BitPlane)> {
        match &self.repr {
            Repr::Pairs(_) => None,
            Repr::Plane { sent, ones, .. } => Some((sent, ones)),
        }
    }

    /// Consumes a plane-backed inbox, returning its `(sent, ones)` planes.
    ///
    /// The round engine uses this to recycle plane allocations across
    /// rounds, mirroring [`into_messages`](Inbox::into_messages) for the
    /// pair representation. Returns `None` for pair-backed inboxes.
    #[must_use]
    pub fn into_planes(self) -> Option<(BitPlane, BitPlane)> {
        match self.repr {
            Repr::Pairs(_) => None,
            Repr::Plane { sent, ones, .. } => Some((sent, ones)),
        }
    }

    /// Iterates over the senders alone, in ascending order.
    pub fn senders(&self) -> Senders<'_, M> {
        Senders {
            inner: match &self.repr {
                Repr::Pairs(msgs) => SendersRepr::Pairs(msgs.iter()),
                Repr::Plane { sent, .. } => SendersRepr::Plane(sent.ones()),
            },
        }
    }

    /// Iterates over messages whose payload does **not** pack to a bit
    /// (i.e. [`PlaneMsg::pack`] returns `None`), in ascending sender
    /// order. Plane-backed inboxes hold only packed messages, so the
    /// iterator is empty there.
    ///
    /// Protocols use this to split a round into its bit tally (via
    /// [`tally`](Inbox::tally)) plus the rare structured messages —
    /// SynRan's `Known(S)` notifications — without decoding every bit.
    pub fn unpackable(&self) -> Unpackable<'_, M>
    where
        M: PlaneMsg,
    {
        Unpackable {
            inner: match &self.repr {
                Repr::Pairs(msgs) => Some(msgs.iter()),
                Repr::Plane { .. } => None,
            },
        }
    }
}

impl<M: PlaneMsg + Clone> Inbox<M> {
    /// The message from `sender`, if one was delivered.
    #[must_use]
    pub fn from(&self, sender: ProcessId) -> Option<M> {
        match &self.repr {
            Repr::Pairs(msgs) => msgs
                .binary_search_by_key(&sender, |(s, _)| *s)
                .ok()
                .map(|i| msgs[i].1.clone()),
            Repr::Plane { sent, ones, .. } => {
                let i = sender.index();
                if i < sent.width() && sent.get(i) {
                    Some(decode::<M>(Bit::from(ones.get(i))))
                } else {
                    None
                }
            }
        }
    }

    /// Iterates over `(sender, message)` pairs in ascending sender order.
    ///
    /// Messages are yielded by value: pair-backed inboxes clone, plane-
    /// backed inboxes decode from the value mask. Both orders are the
    /// engine's delivery order, bit for bit.
    pub fn iter(&self) -> InboxIter<'_, M> {
        InboxIter {
            inner: match &self.repr {
                Repr::Pairs(msgs) => IterRepr::Pairs(msgs.iter()),
                Repr::Plane { sent, ones, .. } => IterRepr::Plane {
                    sent: sent.ones(),
                    ones,
                },
            },
        }
    }

    /// Iterates over the messages alone, in ascending sender order.
    pub fn messages(&self) -> impl Iterator<Item = M> + '_ {
        self.iter().map(|(_, m)| m)
    }

    /// Counts messages satisfying a predicate.
    pub fn count_where(&self, mut pred: impl FnMut(&M) -> bool) -> usize {
        match &self.repr {
            Repr::Pairs(msgs) => msgs.iter().filter(|(_, m)| pred(m)).count(),
            Repr::Plane { .. } => self.messages().filter(|m| pred(m)).count(),
        }
    }

    /// Counts the `(zeros, ones)` among messages that pack to a bit.
    ///
    /// This is the round tally behind SynRan's threshold rules (`Z^r`,
    /// `O^r`): messages that do not pack — structured payloads like
    /// `Known(S)` — count toward [`len`](Inbox::len) but toward neither
    /// side of the tally. A plane-backed inbox took both counts when it
    /// was built, so this is O(1) there and decodes no message.
    #[must_use]
    pub fn tally(&self) -> (usize, usize) {
        match &self.repr {
            Repr::Pairs(msgs) => {
                let mut zeros = 0;
                let mut ones = 0;
                for (_, m) in msgs {
                    match m.pack() {
                        Some(Bit::Zero) => zeros += 1,
                        Some(Bit::One) => ones += 1,
                        None => {}
                    }
                }
                (zeros, ones)
            }
            Repr::Plane { len, one_count, .. } => (len - one_count, *one_count),
        }
    }

    /// Consumes the inbox, returning its contents as a pair buffer.
    ///
    /// The round engine uses this to recycle pair-backed inbox allocations
    /// across rounds; plane-backed inboxes decode into a fresh `Vec` (use
    /// [`into_planes`](Inbox::into_planes) to recycle those).
    #[must_use]
    pub fn into_messages(self) -> Vec<(ProcessId, M)> {
        match self.repr {
            Repr::Pairs(msgs) => msgs,
            Repr::Plane { .. } => self.iter().collect(),
        }
    }
}

/// Decodes one packed bit back into `M`, which must round-trip.
fn decode<M: PlaneMsg>(bit: Bit) -> M {
    M::unpack(bit).expect("plane-backed inbox holds a message type that packs to bits")
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox::empty()
    }
}

impl<M: PlaneMsg + Clone + PartialEq> PartialEq for Inbox<M> {
    /// Observational equality: same `(sender, message)` sequence,
    /// regardless of backing representation.
    fn eq(&self, other: &Inbox<M>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl<M: PlaneMsg + Clone + Eq> Eq for Inbox<M> {}

/// Owned-pair iterator over an [`Inbox`], ascending sender order.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inner: IterRepr<'a, M>,
}

#[derive(Debug)]
enum IterRepr<'a, M> {
    Pairs(std::slice::Iter<'a, (ProcessId, M)>),
    Plane { sent: Ones<'a>, ones: &'a BitPlane },
}

impl<M: PlaneMsg + Clone> Iterator for InboxIter<'_, M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<(ProcessId, M)> {
        match &mut self.inner {
            IterRepr::Pairs(iter) => iter.next().map(|(s, m)| (*s, m.clone())),
            IterRepr::Plane { sent, ones } => sent
                .next()
                .map(|s| (ProcessId::new(s), decode::<M>(Bit::from(ones.get(s))))),
        }
    }
}

impl<'a, M: PlaneMsg + Clone> IntoIterator for &'a Inbox<M> {
    type Item = (ProcessId, M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Ascending sender iterator over an [`Inbox`].
#[derive(Debug)]
pub struct Senders<'a, M> {
    inner: SendersRepr<'a, M>,
}

#[derive(Debug)]
enum SendersRepr<'a, M> {
    Pairs(std::slice::Iter<'a, (ProcessId, M)>),
    Plane(Ones<'a>),
}

impl<M> Iterator for Senders<'_, M> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        match &mut self.inner {
            SendersRepr::Pairs(iter) => iter.next().map(|(s, _)| *s),
            SendersRepr::Plane(ones) => ones.next().map(ProcessId::new),
        }
    }
}

/// Iterator over the non-packing messages of an [`Inbox`]
/// (see [`Inbox::unpackable`]).
#[derive(Debug)]
pub struct Unpackable<'a, M> {
    /// `None` for plane-backed inboxes: every message there packed.
    inner: Option<std::slice::Iter<'a, (ProcessId, M)>>,
}

impl<'a, M: PlaneMsg> Iterator for Unpackable<'a, M> {
    type Item = (ProcessId, &'a M);

    fn next(&mut self) -> Option<(ProcessId, &'a M)> {
        let iter = self.inner.as_mut()?;
        iter.find(|(_, m)| m.pack().is_none()).map(|(s, m)| (*s, m))
    }
}

impl<M> FromIterator<(ProcessId, M)> for Inbox<M> {
    /// Collects `(sender, message)` pairs into an inbox, sorting by sender.
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Inbox<M> {
        let mut msgs: Vec<(ProcessId, M)> = iter.into_iter().collect();
        msgs.sort_by_key(|(s, _)| *s);
        Inbox {
            repr: Repr::Pairs(msgs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bit;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let p: SendPattern<Bit> = SendPattern::Broadcast(Bit::One);
        assert_eq!(p.recipient_count(5), 5);
        for i in 0..5 {
            assert_eq!(p.message_for(pid(i)), Some(&Bit::One));
        }
    }

    #[test]
    fn unicast_targets_only_listed() {
        let p = SendPattern::To(vec![(pid(1), Bit::Zero), (pid(3), Bit::One)]);
        assert_eq!(p.recipient_count(5), 2);
        assert_eq!(p.message_for(pid(1)), Some(&Bit::Zero));
        assert_eq!(p.message_for(pid(3)), Some(&Bit::One));
        assert_eq!(p.message_for(pid(0)), None);
    }

    #[test]
    fn silent_sends_nothing() {
        let p: SendPattern<Bit> = SendPattern::Silent;
        assert!(p.is_silent());
        assert_eq!(p.recipient_count(10), 0);
        assert_eq!(p.message_for(pid(0)), None);
        assert_eq!(SendPattern::<Bit>::default(), SendPattern::Silent);
    }

    #[test]
    fn empty_to_list_is_silent() {
        let p: SendPattern<Bit> = SendPattern::To(vec![]);
        assert!(p.is_silent());
    }

    #[test]
    fn inbox_lookup_and_counts() {
        let inbox = Inbox::from_messages(vec![
            (pid(0), Bit::One),
            (pid(2), Bit::Zero),
            (pid(4), Bit::One),
        ]);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
        assert_eq!(inbox.from(pid(2)), Some(Bit::Zero));
        assert_eq!(inbox.from(pid(3)), None);
        assert_eq!(inbox.count_where(|m| m.is_one()), 2);
        assert_eq!(inbox.count_where(|m| m.is_zero()), 1);
        assert_eq!(inbox.tally(), (1, 2));
        let senders: Vec<_> = inbox.senders().map(ProcessId::index).collect();
        assert_eq!(senders, vec![0, 2, 4]);
    }

    #[test]
    fn inbox_from_iter_sorts() {
        let inbox: Inbox<Bit> = vec![(pid(3), Bit::One), (pid(1), Bit::Zero)]
            .into_iter()
            .collect();
        let senders: Vec<_> = inbox.senders().map(ProcessId::index).collect();
        assert_eq!(senders, vec![1, 3]);
    }

    #[test]
    fn empty_inbox() {
        let inbox: Inbox<Bit> = Inbox::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
        assert_eq!(inbox.from(pid(0)), None);
        assert_eq!(inbox.tally(), (0, 0));
        assert_eq!(Inbox::<Bit>::default(), inbox);
    }

    #[test]
    fn inbox_iteration_matches_contents() {
        let inbox = Inbox::from_messages(vec![(pid(0), Bit::Zero), (pid(1), Bit::One)]);
        let collected: Vec<_> = (&inbox).into_iter().collect();
        assert_eq!(collected, vec![(pid(0), Bit::Zero), (pid(1), Bit::One)]);
        let msgs: Vec<_> = inbox.messages().collect();
        assert_eq!(msgs, vec![Bit::Zero, Bit::One]);
    }

    #[test]
    fn plane_backed_inbox_is_observationally_equal_to_pairs() {
        // Senders {1, 3, 66} of width 70; 3 sent a one, the rest zeros.
        let n = 70;
        let mut sent = BitPlane::new(n);
        let mut ones = BitPlane::new(n);
        for s in [1usize, 3, 66] {
            sent.set(s);
        }
        ones.set(3);
        let plane: Inbox<Bit> = Inbox::from_plane(sent, ones);
        let pairs = Inbox::from_messages(vec![
            (pid(1), Bit::Zero),
            (pid(3), Bit::One),
            (pid(66), Bit::Zero),
        ]);

        assert_eq!(plane, pairs);
        assert_eq!(plane.len(), 3);
        assert_eq!(plane.from(pid(3)), Some(Bit::One));
        assert_eq!(plane.from(pid(66)), Some(Bit::Zero));
        assert_eq!(plane.from(pid(0)), None);
        assert_eq!(plane.from(pid(200)), None, "out-of-width sender");
        assert_eq!(plane.tally(), pairs.tally());
        assert_eq!(plane.count_where(|m| m.is_zero()), 2);
        assert!(plane.iter().eq(pairs.iter()), "iteration order matches");
        assert!(plane.senders().eq(pairs.senders()));
        assert_eq!(plane.unpackable().count(), 0);
        assert!(plane.planes().is_some());
        assert!(pairs.planes().is_none());
        assert_eq!(
            plane.clone().into_messages(),
            pairs.clone().into_messages(),
            "plane decodes into the same pair buffer"
        );
        let (s, o) = plane.into_planes().expect("plane-backed");
        assert_eq!(s.count_ones(), 3);
        assert_eq!(o.count_ones(), 1);
        assert!(pairs.into_planes().is_none());
    }

    #[test]
    fn plane_counts_taken_at_construction_equal_pair_counts() {
        let mut rng = crate::SimRng::new(0x00C0_FFEE);
        for width in [1usize, 63, 64, 65, 4096] {
            // Density 0 builds the empty plane, 1 the full one.
            for density in [0.0, 0.1, 0.5, 0.9, 1.0] {
                let mut sent = BitPlane::new(width);
                let mut ones = BitPlane::new(width);
                let mut pairs = Vec::new();
                for s in 0..width {
                    if rng.chance(density) {
                        let bit = rng.bit();
                        sent.set(s);
                        if bit.is_one() {
                            ones.set(s);
                        }
                        pairs.push((pid(s), bit));
                    }
                }
                let plane: Inbox<Bit> = Inbox::from_plane(sent, ones);
                let pairs = Inbox::from_messages(pairs);
                let case = format!("width {width}, density {density}");
                assert_eq!(plane.len(), pairs.len(), "{case}");
                assert_eq!(plane.is_empty(), pairs.is_empty(), "{case}");
                assert_eq!(plane.tally(), pairs.tally(), "{case}");
            }
        }
    }

    #[test]
    fn unpackable_filters_packed_messages() {
        // u32 never packs, so every message is "unpackable".
        let inbox: Inbox<u32> = Inbox::from_messages(vec![(pid(0), 7), (pid(2), 9)]);
        let got: Vec<(usize, u32)> = inbox.unpackable().map(|(s, m)| (s.index(), *m)).collect();
        assert_eq!(got, vec![(0, 7), (2, 9)]);
        assert_eq!(inbox.tally(), (0, 0), "nothing packs, nothing tallies");
        // Bit always packs, so nothing is unpackable.
        let bits = Inbox::from_messages(vec![(pid(1), Bit::One)]);
        assert_eq!(bits.unpackable().count(), 0);
    }
}
