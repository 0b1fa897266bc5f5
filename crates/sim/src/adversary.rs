//! The adversary interface: full-information, adaptive, fail-stop.
//!
//! The model is the *fail-stop, adaptive-strongly-dynamic, computationally
//! unbounded* adversary of the paper's §3.1 (after [CD89]):
//!
//! * **Full information** — between Phase A and Phase B of every round the
//!   adversary sees the complete world: every local state, every local coin
//!   already flipped, and every message queued for sending. This is why
//!   [`Adversary::intervene`] receives the whole [`World`] by reference.
//! * **Adaptive, strongly dynamic** — based on that view it may fail
//!   processes *mid-send*: a failed process's round-`r` messages are
//!   delivered only to the subset the adversary chooses, and the process is
//!   dead from round `r+1` on.
//! * **Budgeted** — at most `t` failures over the execution, enforced by
//!   the engine (see [`FaultBudget`](crate::FaultBudget)).
//!
//! Computational unboundedness is approximated operationally: an adversary
//! may clone the world ([`World::fork`]) and roll copies forward to evaluate
//! candidate interventions — the simulator equivalent of "knows the
//! probability of every outcome". See `synran-adversary` for the estimators.

use std::sync::Arc;

use crate::{Process, ProcessId, World};

/// A strategy for failing processes, consulted once per round between
/// Phase A (sending) and Phase B (delivery).
///
/// Implementations receive the world *immutably*; the only way to affect
/// the execution is the returned [`Intervention`], which the engine
/// validates (budget, liveness, duplicates) before applying.
pub trait Adversary<P: Process> {
    /// Chooses this round's failures after inspecting the full
    /// post-Phase-A state of `world`.
    fn intervene(&mut self, world: &World<P>) -> Intervention;

    /// A short human-readable name used in experiment tables.
    fn name(&self) -> &str {
        "adversary"
    }
}

/// The set of failures an adversary inflicts in one round.
///
/// # Examples
///
/// ```
/// use synran_sim::{DeliveryFilter, Intervention, ProcessId};
///
/// // Fail P3 outright and fail P5 while letting only P0 hear it.
/// let iv = Intervention::new()
///     .kill(ProcessId::new(3), DeliveryFilter::None)
///     .kill(ProcessId::new(5), DeliveryFilter::To(vec![ProcessId::new(0)].into()));
/// assert_eq!(iv.kills().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Intervention {
    kills: Vec<Kill>,
}

impl Intervention {
    /// An intervention that fails nobody.
    #[must_use]
    pub fn none() -> Intervention {
        Intervention::default()
    }

    /// Creates an empty intervention to build on.
    #[must_use]
    pub fn new() -> Intervention {
        Intervention::default()
    }

    /// Adds a failure: `victim` dies this round and its queued messages are
    /// delivered only where `delivered` allows.
    #[must_use]
    pub fn kill(mut self, victim: ProcessId, delivered: DeliveryFilter) -> Intervention {
        self.kills.push(Kill { victim, delivered });
        self
    }

    /// Convenience: fail every listed victim with no deliveries at all.
    #[must_use]
    pub fn kill_all_silent<I: IntoIterator<Item = ProcessId>>(victims: I) -> Intervention {
        Intervention {
            kills: victims
                .into_iter()
                .map(|victim| Kill {
                    victim,
                    delivered: DeliveryFilter::None,
                })
                .collect(),
        }
    }

    /// Convenience: fail every listed victim, delivering each one's final
    /// messages to the same `receivers`.
    ///
    /// Every kill shares one receiver set, so cloning the intervention
    /// bumps a reference count instead of copying the set per victim, and
    /// [`World::deliver`] resolves the set to one recipient mask however
    /// many victims name it.
    ///
    /// # Examples
    ///
    /// ```
    /// use synran_sim::{DeliveryFilter, Intervention, ProcessId};
    ///
    /// let victims = [ProcessId::new(1), ProcessId::new(4)];
    /// let iv = Intervention::kill_all_to(victims, vec![ProcessId::new(0)]);
    /// let (DeliveryFilter::To(a), DeliveryFilter::To(b)) =
    ///     (&iv.kills()[0].delivered, &iv.kills()[1].delivered)
    /// else {
    ///     unreachable!()
    /// };
    /// assert!(std::sync::Arc::ptr_eq(a, b));
    /// ```
    #[must_use]
    pub fn kill_all_to<I: IntoIterator<Item = ProcessId>>(
        victims: I,
        receivers: impl Into<Arc<[ProcessId]>>,
    ) -> Intervention {
        let receivers = receivers.into();
        Intervention {
            kills: victims
                .into_iter()
                .map(|victim| Kill {
                    victim,
                    delivered: DeliveryFilter::To(Arc::clone(&receivers)),
                })
                .collect(),
        }
    }

    /// The failures requested this round.
    #[must_use]
    pub fn kills(&self) -> &[Kill] {
        &self.kills
    }

    /// Returns `true` if this intervention fails nobody.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty()
    }
}

/// One process failure: who dies, and which of its final messages survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kill {
    /// The process being failed.
    pub victim: ProcessId,
    /// Which of the victim's round-`r` messages are still delivered.
    pub delivered: DeliveryFilter,
}

/// Which of a failing process's queued messages get through.
///
/// The paper's §3.4 strategy needs all the granularities below: fail a
/// process but send *all* its messages (its case 2), send *none*, or walk
/// message by message (its case 3). [`DeliveryFilter::Prefix`] is the
/// paper's parenthetical ordered-send model — "messages are sent out
/// according to some order and if the adversary fails a message of some
/// process all later messages of that process will not be sent" — with
/// ascending recipient id as the send order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryFilter {
    /// Every queued message is still delivered; the process is simply dead
    /// from the next round on.
    All,
    /// No queued message is delivered.
    None,
    /// Only messages to the listed recipients are delivered.
    ///
    /// The list is shared: kills that hold clones of one `Arc` (see
    /// [`Intervention::kill_all_to`]) are delivered as one group, which
    /// costs a round one recipient mask per distinct list, not one per
    /// victim.
    To(Arc<[ProcessId]>),
    /// Only messages to the `k` lowest-id recipients are delivered — the
    /// process died `k` sends into its ordered broadcast.
    Prefix(usize),
}

impl DeliveryFilter {
    /// Does a message to `recipient` survive this filter?
    #[must_use]
    pub fn allows(&self, recipient: ProcessId) -> bool {
        match self {
            DeliveryFilter::All => true,
            DeliveryFilter::None => false,
            DeliveryFilter::To(list) => list.contains(&recipient),
            DeliveryFilter::Prefix(k) => recipient.index() < *k,
        }
    }
}

impl<P: Process, A: Adversary<P> + ?Sized> Adversary<P> for Box<A> {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        (**self).intervene(world)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<P: Process, A: Adversary<P> + ?Sized> Adversary<P> for &mut A {
    fn intervene(&mut self, world: &World<P>) -> Intervention {
        (**self).intervene(world)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// The adversary that never interferes.
///
/// Useful as a baseline in experiments and as the reference adversary when
/// estimating what a protocol does "on its own".
///
/// # Examples
///
/// ```
/// use synran_sim::{Adversary, Passive};
/// let passive = Passive;
/// assert_eq!(Adversary::<synran_sim::testing::Echo>::name(&passive), "passive");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Passive;

impl<P: Process> Adversary<P> for Passive {
    fn intervene(&mut self, _world: &World<P>) -> Intervention {
        Intervention::none()
    }

    fn name(&self) -> &str {
        "passive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn builder_accumulates_kills() {
        let iv = Intervention::new()
            .kill(pid(1), DeliveryFilter::All)
            .kill(pid(2), DeliveryFilter::None);
        assert_eq!(iv.kills().len(), 2);
        assert_eq!(iv.kills()[0].victim, pid(1));
        assert!(!iv.is_empty());
    }

    #[test]
    fn none_is_empty() {
        assert!(Intervention::none().is_empty());
        assert_eq!(Intervention::none(), Intervention::default());
    }

    #[test]
    fn kill_all_silent_builds_silent_kills() {
        let iv = Intervention::kill_all_silent([pid(0), pid(4)]);
        assert_eq!(iv.kills().len(), 2);
        assert!(iv
            .kills()
            .iter()
            .all(|k| k.delivered == DeliveryFilter::None));
    }

    #[test]
    fn kill_all_to_shares_one_receiver_set() {
        let iv = Intervention::kill_all_to([pid(0), pid(4), pid(2)], vec![pid(1), pid(3)]);
        let victims: Vec<_> = iv.kills().iter().map(|k| k.victim).collect();
        assert_eq!(victims, [pid(0), pid(4), pid(2)], "intervention order");
        let sets: Vec<&Arc<[ProcessId]>> = iv
            .kills()
            .iter()
            .map(|k| match &k.delivered {
                DeliveryFilter::To(set) => set,
                other => panic!("expected a To filter, got {other:?}"),
            })
            .collect();
        assert_eq!(sets[0][..], [pid(1), pid(3)]);
        assert!(sets.iter().all(|set| Arc::ptr_eq(set, sets[0])));
    }

    #[test]
    fn filter_semantics() {
        assert!(DeliveryFilter::All.allows(pid(9)));
        assert!(!DeliveryFilter::None.allows(pid(9)));
        let partial = DeliveryFilter::To(vec![pid(1), pid(3)].into());
        assert!(partial.allows(pid(1)));
        assert!(partial.allows(pid(3)));
        assert!(!partial.allows(pid(2)));
    }

    #[test]
    fn prefix_filter_models_ordered_sends() {
        let died_mid_send = DeliveryFilter::Prefix(3);
        assert!(died_mid_send.allows(pid(0)));
        assert!(died_mid_send.allows(pid(2)));
        assert!(!died_mid_send.allows(pid(3)));
        assert!(!died_mid_send.allows(pid(9)));
        // Degenerate ends coincide with None and (effectively) All.
        assert!(!DeliveryFilter::Prefix(0).allows(pid(0)));
        assert!(DeliveryFilter::Prefix(usize::MAX).allows(pid(1_000)));
    }
}
