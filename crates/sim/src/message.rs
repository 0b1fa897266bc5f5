//! Messages, send patterns, and inboxes.

use std::sync::Arc;

use crate::plane::{BitPlane, Ones, PlaneMsg};
use crate::{Bit, ProcessId};

/// What a process emits in Phase A of a round.
///
/// In the paper's model every process sends its round value to *all*
/// processes, **including itself** (SynRan counts its own `b_i` among the
/// round's received values); the adversary's power lies in choosing which
/// recipients a dying sender's last broadcast still reaches. So a process
/// either broadcasts one message or stays silent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendPattern<M> {
    /// Send the same message to every process (including the sender).
    Broadcast(M),
    /// Send nothing this round.
    Silent,
}

impl<M> Default for SendPattern<M> {
    /// Defaults to [`SendPattern::Silent`].
    fn default() -> Self {
        SendPattern::Silent
    }
}

/// The messages a process received in one round, tagged by sender.
///
/// Senders appear in ascending id order, at most once each (synchronous
/// rounds deliver at most one message per ordered pair of processes).
///
/// Every sender broadcasts, so an inbox is a **sender mask** over a
/// payload table: bit `s` of the mask says sender `s`'s message arrived,
/// and slot `s` of the table holds that message. The round engine hands
/// every receiver of a round the same table (behind an [`Arc`]) and builds
/// only the masks per receiver. A second mask marks the messages that
/// pack to [`Bit::One`]; both masks' popcounts, and the count of messages
/// that pack to [`Bit::Zero`], are taken once, when the inbox is built.
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
    /// Bit `s` set iff a message from sender `s` was delivered.
    sent: BitPlane,
    /// Bit `s` set iff that message packed to [`Bit::One`].
    /// Invariant: subset of `sent`.
    ones: BitPlane,
    /// `sent.count_ones()`.
    len: usize,
    /// Delivered messages that packed to [`Bit::Zero`].
    zero_count: usize,
    /// `ones.count_ones()`.
    one_count: usize,
    /// Slot `s` holds sender `s`'s message whenever bit `s` of `sent` is
    /// set; the other slots are never read.
    payloads: Arc<Vec<Option<M>>>,
}

impl<M> Inbox<M> {
    /// The round engine's constructor: the inbox of the senders in `sent`
    /// over the round's shared `payloads`. `packed` marks the senders
    /// whose message packs to a bit, or is `None` when every message of
    /// the round packs.
    pub(crate) fn masked(
        sent: BitPlane,
        ones: BitPlane,
        packed: Option<&BitPlane>,
        payloads: Arc<Vec<Option<M>>>,
    ) -> Inbox<M> {
        debug_assert_eq!(sent.width(), ones.width(), "plane width mismatch");
        debug_assert_eq!(ones.count_common(&sent), ones.count_ones(), "ones ⊄ sent");
        debug_assert!(sent.width() <= payloads.len(), "a sender without a slot");
        let len = sent.count_ones();
        let one_count = ones.count_ones();
        let packed_count = packed.map_or(len, |packed| sent.count_common(packed));
        Inbox {
            sent,
            ones,
            len,
            zero_count: packed_count - one_count,
            one_count,
            payloads,
        }
    }

    /// The `(sent, ones)` masks, for the engine to build another
    /// receiver's masks from.
    pub(crate) fn masks(&self) -> (&BitPlane, &BitPlane) {
        (&self.sent, &self.ones)
    }

    /// Consumes the inbox, returning its `(sent, ones)` masks to the
    /// engine's pool; the payload table handle drops.
    pub(crate) fn into_masks(self) -> (BitPlane, BitPlane) {
        (self.sent, self.ones)
    }

    /// Creates an inbox from `(sender, message)` pairs, in any order.
    ///
    /// # Panics
    ///
    /// Panics if a sender appears twice.
    #[must_use]
    pub fn from_messages(msgs: Vec<(ProcessId, M)>) -> Inbox<M>
    where
        M: PlaneMsg,
    {
        msgs.into_iter().collect()
    }

    /// Number of messages received this round — the paper's `N_i^r`.
    /// O(1): the inbox counted its senders when it was built.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing was received.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the senders alone, in ascending order.
    pub fn senders(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.sent.ids()
    }

    /// Iterates over `(sender, &message)` in ascending sender order.
    fn entries(&self) -> impl Iterator<Item = (ProcessId, &M)> + '_ {
        self.sent
            .ones()
            .map(|s| (ProcessId::new(s), payload(&self.payloads, s)))
    }

    /// Iterates over messages whose payload does **not** pack to a bit
    /// (i.e. [`PlaneMsg::pack`] returns `None`), in ascending sender
    /// order. Empty at once when every message packed.
    ///
    /// Protocols use this to split a round into its bit tally (via
    /// [`tally`](Inbox::tally)) plus the rare structured messages —
    /// SynRan's `Known(S)` notifications — without visiting every bit.
    pub fn unpackable(&self) -> impl Iterator<Item = (ProcessId, &M)> + '_
    where
        M: PlaneMsg,
    {
        let unpacked = if self.zero_count + self.one_count == self.len {
            0
        } else {
            self.len
        };
        self.entries()
            .take(unpacked)
            .filter(|(_, m)| m.pack().is_none())
    }

    /// Counts messages satisfying a predicate.
    pub fn count_where(&self, mut pred: impl FnMut(&M) -> bool) -> usize {
        self.entries().filter(|(_, m)| pred(m)).count()
    }

    /// Counts the `(zeros, ones)` among messages that pack to a bit.
    ///
    /// This is the round tally behind SynRan's threshold rules (`Z^r`,
    /// `O^r`): messages that do not pack — structured payloads like
    /// `Known(S)` — count toward [`len`](Inbox::len) but toward neither
    /// side of the tally. The inbox took both counts when it was built,
    /// so this is O(1) and reads no message.
    #[must_use]
    pub fn tally(&self) -> (usize, usize) {
        (self.zero_count, self.one_count)
    }
}

impl<M: Clone> Inbox<M> {
    /// The message from `sender`, if one was delivered.
    #[must_use]
    pub fn from(&self, sender: ProcessId) -> Option<M> {
        let s = sender.index();
        (s < self.sent.width() && self.sent.get(s)).then(|| payload(&self.payloads, s).clone())
    }

    /// Iterates over `(sender, message)` pairs in ascending sender order,
    /// yielding each message by value.
    pub fn iter(&self) -> InboxIter<'_, M> {
        InboxIter {
            sent: self.sent.ones(),
            payloads: &self.payloads,
        }
    }

    /// Iterates over the messages alone, in ascending sender order.
    pub fn messages(&self) -> impl Iterator<Item = M> + '_ {
        self.iter().map(|(_, m)| m)
    }
}

/// Sender `s`'s slot in a payload table, which the sender mask says holds
/// a message.
fn payload<M>(payloads: &[Option<M>], s: usize) -> &M {
    payloads[s]
        .as_ref()
        .expect("every sender in the mask has a payload")
}

impl<M: PartialEq> PartialEq for Inbox<M> {
    /// Same `(sender, message)` sequence, whatever the table behind it.
    fn eq(&self, other: &Inbox<M>) -> bool {
        self.len == other.len && self.entries().eq(other.entries())
    }
}

impl<M: Eq> Eq for Inbox<M> {}

/// Owned-pair iterator over an [`Inbox`], ascending sender order.
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    sent: Ones<'a>,
    payloads: &'a [Option<M>],
}

impl<M: Clone> Iterator for InboxIter<'_, M> {
    type Item = (ProcessId, M);

    fn next(&mut self) -> Option<(ProcessId, M)> {
        self.sent
            .next()
            .map(|s| (ProcessId::new(s), payload(self.payloads, s).clone()))
    }
}

impl<'a, M: Clone> IntoIterator for &'a Inbox<M> {
    type Item = (ProcessId, M);
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<M: PlaneMsg> FromIterator<(ProcessId, M)> for Inbox<M> {
    /// Collects `(sender, message)` pairs, in any order, into an inbox.
    ///
    /// # Panics
    ///
    /// Panics if a sender appears twice.
    fn from_iter<I: IntoIterator<Item = (ProcessId, M)>>(iter: I) -> Inbox<M> {
        let mut payloads: Vec<Option<M>> = Vec::new();
        for (sender, m) in iter {
            let s = sender.index();
            if s >= payloads.len() {
                payloads.resize_with(s + 1, || None);
            }
            assert!(payloads[s].is_none(), "{sender} sent twice to one inbox");
            payloads[s] = Some(m);
        }
        let packs = |s: usize| payloads[s].as_ref().and_then(PlaneMsg::pack);
        let width = payloads.len();
        let sent = BitPlane::from_fn(width, |s| payloads[s].is_some());
        let ones = BitPlane::from_fn(width, |s| packs(s) == Some(Bit::One));
        let packed = BitPlane::from_fn(width, |s| packs(s).is_some());
        Inbox::masked(sent, ones, Some(&packed), Arc::new(payloads))
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
    fn silent_is_the_default_pattern() {
        assert_eq!(SendPattern::<Bit>::default(), SendPattern::Silent);
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
        assert_eq!(inbox.from(pid(200)), None, "past the table");
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
    #[should_panic(expected = "P2 sent twice")]
    fn a_sender_appears_once() {
        let _ = Inbox::from_messages(vec![(pid(2), Bit::One), (pid(2), Bit::Zero)]);
    }

    #[test]
    fn empty_inbox() {
        let inbox: Inbox<Bit> = Inbox::from_messages(Vec::new());
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
        assert_eq!(inbox.from(pid(0)), None);
        assert_eq!(inbox.tally(), (0, 0));
        assert_eq!(inbox.iter().count(), 0);
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
    fn unpackable_filters_packed_messages() {
        // u32 never packs, so every message is "unpackable".
        let inbox: Inbox<u32> = Inbox::from_messages(vec![(pid(0), 7), (pid(2), 9)]);
        let got: Vec<(usize, u32)> = inbox.unpackable().map(|(s, m)| (s.index(), *m)).collect();
        assert_eq!(got, vec![(0, 7), (2, 9)]);
        assert_eq!(inbox.tally(), (0, 0), "nothing packs, nothing tallies");
        // Bit always packs, so nothing is unpackable.
        let bits = Inbox::from_messages(vec![(pid(1), Bit::One)]);
        assert_eq!(bits.unpackable().count(), 0);

        // Packing and non-packing messages in one inbox: only the packed
        // ones tally, only the others are unpackable.
        #[derive(Debug, Clone, PartialEq)]
        enum Mixed {
            Pref(Bit),
            Set(u8),
        }
        impl PlaneMsg for Mixed {
            fn pack(&self) -> Option<Bit> {
                match self {
                    Mixed::Pref(b) => Some(*b),
                    Mixed::Set(_) => None,
                }
            }
        }
        let mixed = Inbox::from_messages(vec![
            (pid(5), Mixed::Set(3)),
            (pid(0), Mixed::Pref(Bit::Zero)),
            (pid(3), Mixed::Pref(Bit::One)),
            (pid(1), Mixed::Set(1)),
            (pid(4), Mixed::Pref(Bit::Zero)),
        ]);
        assert_eq!(mixed.len(), 5);
        assert_eq!(mixed.tally(), (2, 1));
        let sets: Vec<(usize, Mixed)> = mixed
            .unpackable()
            .map(|(s, m)| (s.index(), m.clone()))
            .collect();
        assert_eq!(sets, vec![(1, Mixed::Set(1)), (5, Mixed::Set(3))]);
        assert_eq!(mixed.from(pid(3)), Some(Mixed::Pref(Bit::One)));
    }
}
