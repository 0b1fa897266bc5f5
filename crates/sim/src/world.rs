//! The synchronous world: round engine, fault enforcement, and forking.

use std::sync::{Arc, Mutex, PoisonError};

use crate::{
    telemetry::per_round_kill_cap, trace::Event, Adversary, Bit, BitPlane, Context, DeliveryFilter,
    FaultBudget, Inbox, Intervention, Kill, Metrics, PlaneMsg, Process, ProcessId, Round,
    RunReport, SendPattern, SimConfig, SimError, SimRng, StreamPhase, Telemetry, Trace,
};

/// Lifecycle of a process within an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessStatus {
    /// Participating normally.
    Alive,
    /// Voluntarily stopped in the given round (decided and terminated).
    Halted(Round),
    /// Failed by the adversary in the given round.
    Failed(Round),
}

impl ProcessStatus {
    /// `true` for processes still stepping each round.
    #[must_use]
    pub fn is_alive(self) -> bool {
        matches!(self, ProcessStatus::Alive)
    }

    /// `true` for processes the adversary failed.
    #[must_use]
    pub fn is_failed(self) -> bool {
        matches!(self, ProcessStatus::Failed(_))
    }

    /// `true` for processes that terminated voluntarily.
    #[must_use]
    pub fn is_halted(self) -> bool {
        matches!(self, ProcessStatus::Halted(_))
    }
}

/// Which half of the round the world is paused at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Phase A (computing and sending) has not run yet this round.
    BeforeSend,
    /// Phase A ran; outboxes are queued; awaiting the adversary and
    /// delivery (Phase B).
    BeforeDeliver,
}

impl Phase {
    fn name(self) -> &'static str {
        match self {
            Phase::BeforeSend => "BeforeSend",
            Phase::BeforeDeliver => "BeforeDeliver",
        }
    }
}

#[derive(Debug, Clone)]
struct Slot<P> {
    proc: P,
    status: ProcessStatus,
}

/// Sentinel in [`RoundScratch::filter_of`]: the sender was not killed this
/// round.
const NO_KILL: u32 = u32::MAX;

/// Sentinel in [`KillStat::group`]: the kill's filter is `All` or `None`,
/// which need no receiver set.
const NO_GROUP: u32 = u32::MAX;

/// Bookkeeping for one kill while a round's delivery is in flight.
#[derive(Debug)]
struct KillStat {
    victim: ProcessId,
    delivered: usize,
    suppressed: usize,
    /// Whether the victim had an outbox to filter (it always does after a
    /// normal Phase A; kept for robustness and trace parity).
    had_outbox: bool,
    /// Index of the kill's receiver group in [`RoundScratch::groups`], or
    /// [`NO_GROUP`].
    group: u32,
}

/// The kills of one round that share a receiver set: one
/// [`DeliveryFilter::To`] list (the same `Arc`, compared by pointer) or one
/// [`DeliveryFilter::Prefix`] length.
///
/// The set is resolved to the `allowed` mask once, however many victims
/// name it. Both paths test recipients against that mask; the plane path
/// also gathers the victims' broadcasts into the group's own `sent` and
/// `ones` planes, so an adjusted inbox ORs in whole groups instead of
/// testing every victim.
#[derive(Debug)]
struct SetGroup {
    /// Index into the round's kill list of the first kill naming the set:
    /// the key later kills are matched against.
    first_kill: u32,
    /// Bit `r` set iff recipient `r` hears this group's victims.
    allowed: BitPlane,
    /// `allowed.count_ones()`: each victim's delivered count.
    reach: usize,
    /// Plane path: bit `s` set iff victim `s` of this group broadcast.
    sent: BitPlane,
    /// Plane path: bit `s` set iff that broadcast packed to [`Bit::One`].
    ones: BitPlane,
}

impl SetGroup {
    fn new(n: usize) -> SetGroup {
        SetGroup {
            first_kill: 0,
            allowed: BitPlane::new(n),
            reach: 0,
            sent: BitPlane::new(n),
            ones: BitPlane::new(n),
        }
    }
}

/// Reusable per-round buffers, pooled across rounds so [`World::deliver`]
/// performs no per-round allocations once the inbox buffers have warmed up.
///
/// Invariant: between [`World::deliver`] calls every inbox buffer is empty,
/// `kill_stats` and `groups` are empty, every pooled group and the round
/// planes (`sent_base`, `ones_base`, `adj_mark`) are all-zeros, and every
/// `filter_of` entry is [`NO_KILL`] — so a freshly constructed scratch is
/// interchangeable with a used one, which is what lets [`World::fork`]
/// hand a fork whichever scratch the shared pool has spare.
#[derive(Debug)]
pub(crate) struct RoundScratch<M> {
    /// Per-recipient message buffers (scalar path), recycled through
    /// [`Inbox::into_messages`] each round.
    inboxes: Vec<Vec<(ProcessId, M)>>,
    /// Per-sender index into this round's kill list, or [`NO_KILL`].
    filter_of: Vec<u32>,
    /// Delivery stats per kill, in intervention order.
    kill_stats: Vec<KillStat>,
    /// Plane path: bit `s` set iff sender `s` broadcast to everyone.
    sent_base: BitPlane,
    /// Plane path: bit `s` set iff that broadcast packed to [`Bit::One`].
    ones_base: BitPlane,
    /// This round's receiver groups, one per distinct `To`/`Prefix` set.
    groups: Vec<SetGroup>,
    /// Plane path: union of the groups' allowed masks — recipients needing
    /// an adjusted inbox instead of the shared base planes.
    adj_mark: BitPlane,
    /// Pooled planes the adjusted inboxes are built in.
    adj_sent: BitPlane,
    /// Pooled value plane paired with `adj_sent`.
    adj_ones: BitPlane,
    /// Cleared groups recycled for future rounds.
    group_pool: Vec<SetGroup>,
}

impl<M> RoundScratch<M> {
    pub(crate) fn new(n: usize) -> RoundScratch<M> {
        RoundScratch {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            filter_of: vec![NO_KILL; n],
            kill_stats: Vec::new(),
            sent_base: BitPlane::new(n),
            ones_base: BitPlane::new(n),
            groups: Vec::new(),
            adj_mark: BitPlane::new(n),
            adj_sent: BitPlane::new(n),
            adj_ones: BitPlane::new(n),
            group_pool: Vec::new(),
        }
    }

    /// The receiver group of `kills[idx]`, a `To` or `Prefix` kill: the
    /// group an earlier kill opened for the same set, or a new one whose
    /// mask is built here, once. Kills sharing a set are usually adjacent
    /// (see [`Intervention::kill_all_to`]), so the search starts at the
    /// newest group.
    fn group_for(&mut self, kills: &[Kill], idx: usize, n: usize) -> u32 {
        let filter = &kills[idx].delivered;
        let same_set =
            |group: &SetGroup| match (filter, &kills[group.first_kill as usize].delivered) {
                (DeliveryFilter::To(a), DeliveryFilter::To(b)) => Arc::ptr_eq(a, b),
                (DeliveryFilter::Prefix(a), DeliveryFilter::Prefix(b)) => {
                    (*a).min(n) == (*b).min(n)
                }
                _ => false,
            };
        if let Some(g) = self.groups.iter().rposition(same_set) {
            return g as u32;
        }
        let mut group = self.group_pool.pop().unwrap_or_else(|| SetGroup::new(n));
        match filter {
            DeliveryFilter::To(list) => {
                for to in list.iter().filter(|to| to.index() < n) {
                    group.allowed.set(to.index());
                }
            }
            DeliveryFilter::Prefix(k) => {
                for r in 0..(*k).min(n) {
                    group.allowed.set(r);
                }
            }
            DeliveryFilter::All | DeliveryFilter::None => {
                unreachable!("only To and Prefix kills have a receiver set")
            }
        }
        group.first_kill = idx as u32;
        group.reach = group.allowed.count_ones();
        self.groups.push(group);
        (self.groups.len() - 1) as u32
    }

    /// Clears this round's groups back into the pool.
    fn recycle_groups(&mut self) {
        for mut group in self.groups.drain(..) {
            group.allowed.clear_all();
            group.sent.clear_all();
            group.ones.clear_all();
            self.group_pool.push(group);
        }
    }
}

/// Retired [`RoundScratch`] buffers queued for re-use by future forks, one
/// pool per [`World::new`] root, shared by all its forks.
///
/// The scratch invariant (clean between `deliver` calls) is what makes
/// recycling sound: a warmed-up scratch and a fresh one are observationally
/// interchangeable, differing only in the capacity of their pooled buffers.
/// So a fork that inherits another fork's scratch computes bit-identical
/// results — it just skips re-growing the buffers.
#[derive(Debug)]
struct ScratchPool<M> {
    pool: Mutex<Vec<RoundScratch<M>>>,
}

/// Retired scratches kept per pool. Bounds memory when far more forks
/// retire than run concurrently; beyond the cap, scratches just drop.
const SCRATCH_POOL_CAP: usize = 64;

impl<M> ScratchPool<M> {
    fn empty() -> ScratchPool<M> {
        ScratchPool {
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Pops a recycled scratch, or builds a fresh width-`n` one.
    fn take(&self, n: usize) -> RoundScratch<M> {
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop()
            .unwrap_or_else(|| RoundScratch::new(n))
    }

    fn put(&self, scratch: RoundScratch<M>) {
        let mut pool = self.pool.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
    }
}

/// A complete synchronous execution in progress.
///
/// The world is an explicit state machine so that adversaries can pause it
/// mid-round: each round is [`World::phase_a`] (every alive process flips
/// coins and queues messages) followed by [`World::deliver`] (the adversary's
/// intervention is validated and applied, surviving messages delivered, and
/// every alive process consumes its inbox). [`World::run`] drives both
/// phases to completion under a given adversary.
///
/// [`World::fork`] is the one way to copy a world: an identical copy with
/// fresh future randomness, the primitive the valency-estimating
/// adversaries of `synran-adversary` are built on.
///
/// # Examples
///
/// ```
/// use synran_sim::{Passive, SimConfig, World};
/// use synran_sim::testing::Echo;
///
/// let cfg = SimConfig::new(8).seed(7);
/// let mut world = World::new(cfg, |pid| Echo::new(synran_sim::Bit::from(pid.index() % 2 == 0)))?;
/// let report = world.run(&mut Passive)?;
/// assert_eq!(report.rounds(), 1);
/// # Ok::<(), synran_sim::SimError>(())
/// ```
#[derive(Debug)]
pub struct World<P: Process> {
    /// Shared, not owned: forks of this world bump the `Arc` instead of
    /// cloning the config (copy-on-write — the only mutation,
    /// [`World::fork_bounded`] tightening `max_rounds`, makes a new `Arc`).
    cfg: Arc<SimConfig>,
    round: Round,
    phase: Phase,
    slots: Vec<Slot<P>>,
    outboxes: Vec<Option<SendPattern<P::Msg>>>,
    budget: FaultBudget,
    metrics: Metrics,
    trace: Trace,
    telemetry: Telemetry,
    seed: u64,
    /// Bit `i` set iff process `i` is [`ProcessStatus::Alive`] — kept in
    /// lockstep with `slots` so liveness queries (and the adversaries'
    /// candidate-mask algebra) are popcounts instead of status scans.
    alive: BitPlane,
    scratch: RoundScratch<P::Msg>,
    /// Retired scratch, shared by every world forked (transitively) from
    /// the same [`World::new`] root: [`World::fork`] takes its scratch
    /// here, and [`World::into_report`] and [`World::retire`] give it
    /// back, so the next fork inherits warmed-up buffers.
    spares: Arc<ScratchPool<P::Msg>>,
}

impl<P: Process> World<P> {
    /// Builds a world of `cfg.n()` processes, constructing each with
    /// `factory`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the configuration fails
    /// [`SimConfig::validate`].
    pub fn new(
        cfg: SimConfig,
        mut factory: impl FnMut(ProcessId) -> P,
    ) -> Result<World<P>, SimError> {
        cfg.validate()?;
        let n = cfg.n();
        let slots = ProcessId::all(n)
            .map(|pid| Slot {
                proc: factory(pid),
                status: ProcessStatus::Alive,
            })
            .collect();
        let trace = if cfg.trace_enabled() {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        Ok(World {
            seed: cfg.seed_value(),
            budget: FaultBudget::new(cfg.t()),
            metrics: Metrics::new(n),
            trace,
            telemetry: Telemetry::off(),
            round: Round::FIRST,
            phase: Phase::BeforeSend,
            outboxes: (0..n).map(|_| None).collect(),
            slots,
            alive: BitPlane::full(n),
            scratch: RoundScratch::new(n),
            spares: Arc::new(ScratchPool::empty()),
            cfg: Arc::new(cfg),
        })
    }

    // ----- accessors -------------------------------------------------------

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.cfg.n()
    }

    /// The configuration this world was built from.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The round currently executing (or about to execute).
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// `true` while the world is paused between Phase A and Phase B.
    #[must_use]
    pub fn awaiting_delivery(&self) -> bool {
        self.phase == Phase::BeforeDeliver
    }

    /// The fault budget (total, used, remaining).
    #[must_use]
    pub fn budget(&self) -> &FaultBudget {
        &self.budget
    }

    /// Execution metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The event trace (empty unless tracing was enabled).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The telemetry handle this world records into (off by default).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a telemetry handle; subsequent rounds record engine
    /// counters (and, in span mode, phase timings) into it.
    ///
    /// Telemetry is **observe-only**: the execution — decisions, statuses,
    /// metrics, trace, every coin — is byte-identical whatever handle (or
    /// none) is attached. Forks made with [`World::fork`] detach it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Lifecycle status of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn status(&self, pid: ProcessId) -> ProcessStatus {
        self.slots[pid.index()].status
    }

    /// Full-information access to the local state of `pid`.
    ///
    /// This is what makes the adversary *full information*: it may read
    /// every local variable and coin of every process.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn process(&self, pid: ProcessId) -> &P {
        &self.slots[pid.index()].proc
    }

    /// Iterates over `(pid, process, status)` for all processes.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &P, ProcessStatus)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (ProcessId::new(i), &s.proc, s.status))
    }

    /// Ids of all processes still participating, in ascending order.
    pub fn alive_ids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.alive.ids()
    }

    /// The alive set as a [`BitPlane`]: bit `i` set iff process `i` is
    /// [`ProcessStatus::Alive`].
    ///
    /// Adversaries build their candidate sets from this mask with
    /// `and`/`andnot` algebra instead of scanning statuses.
    #[must_use]
    pub fn alive_mask(&self) -> &BitPlane {
        &self.alive
    }

    /// Number of processes still participating.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.alive.count_ones()
    }

    /// The message pattern `pid` queued this round, if the world is paused
    /// between phases and `pid` sent something.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn outbox(&self, pid: ProcessId) -> Option<&SendPattern<P::Msg>> {
        self.outboxes[pid.index()].as_ref()
    }

    /// The master seed of this world.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// `true` once no process is actively participating (every process has
    /// halted or been failed).
    #[must_use]
    pub fn finished(&self) -> bool {
        self.alive.is_empty()
    }

    /// Current decisions, indexed by process.
    #[must_use]
    pub fn decisions(&self) -> Vec<Option<Bit>> {
        self.slots.iter().map(|s| s.proc.decision()).collect()
    }

    // ----- stepping --------------------------------------------------------

    /// Runs Phase A of the current round: every alive process flips its
    /// coins and queues its messages.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PhaseViolation`] if Phase A already ran this
    /// round, or [`SimError::InvalidRecipient`] if a process addressed a
    /// nonexistent or duplicated recipient.
    pub fn phase_a(&mut self) -> Result<(), SimError> {
        if self.phase != Phase::BeforeSend {
            return Err(SimError::PhaseViolation {
                operation: "run phase A",
                phase: self.phase.name(),
            });
        }
        let _span = self.telemetry.span("round.phase_a");
        let round = self.round;
        self.trace.record(|| Event::RoundStarted(round));
        let n = self.n();
        for i in 0..n {
            if !self.slots[i].status.is_alive() {
                self.outboxes[i] = None;
                continue;
            }
            let pid = ProcessId::new(i);
            let mut rng = SimRng::stream(self.seed, pid, round, StreamPhase::Send);
            let mut ctx = Context::new(pid, n, round, &mut rng);
            let pattern = self.slots[i].proc.send(&mut ctx);
            validate_pattern(&pattern, pid, n)?;
            self.note_decision(pid);
            self.outboxes[i] = Some(pattern);
        }
        self.phase = Phase::BeforeDeliver;
        Ok(())
    }

    /// Runs Phase B of the current round: validates and applies the
    /// adversary's `intervention`, delivers surviving messages, and lets
    /// every alive process consume its inbox.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::PhaseViolation`] if Phase A has not run,
    /// [`SimError::BudgetExceeded`] / [`SimError::NotAlive`] /
    /// [`SimError::UnknownProcess`] / [`SimError::DuplicateVictim`] if the
    /// intervention is illegal. On any error the world is unchanged.
    pub fn deliver(&mut self, intervention: Intervention) -> Result<(), SimError> {
        if self.phase != Phase::BeforeDeliver {
            return Err(SimError::PhaseViolation {
                operation: "deliver",
                phase: self.phase.name(),
            });
        }
        let _span = self.telemetry.span("round.deliver");
        let round = self.round;
        let n = self.n();

        // Validate the intervention fully before mutating anything. Each
        // victim is marked in the pooled per-sender kill-index table as it
        // passes, which is what finds a duplicate in O(1); a rejected
        // intervention unmarks its prefix, so the world stays unchanged.
        let kills = intervention.kills();
        for (idx, kill) in kills.iter().enumerate() {
            let v = kill.victim.index();
            let rejected = if v >= n {
                Some(SimError::UnknownProcess {
                    pid: kill.victim,
                    n,
                })
            } else if !self.slots[v].status.is_alive() {
                Some(SimError::NotAlive {
                    pid: kill.victim,
                    round,
                })
            } else if self.scratch.filter_of[v] != NO_KILL {
                Some(SimError::DuplicateVictim { pid: kill.victim })
            } else {
                None
            };
            if let Some(err) = rejected {
                self.unmark_victims(&kills[..idx]);
                return Err(err);
            }
            self.scratch.filter_of[v] = idx as u32;
        }
        if let Err(err) = self.budget.try_spend(kills.len(), round) {
            self.unmark_victims(kills);
            return Err(err);
        }

        // Apply the kills, resolving each `To`/`Prefix` filter to its
        // receiver group (the stats are tracked during dispatch so the
        // trace needs no rescan afterwards).
        debug_assert!(self.scratch.kill_stats.is_empty());
        for (idx, kill) in kills.iter().enumerate() {
            self.slots[kill.victim.index()].status = ProcessStatus::Failed(round);
            self.alive.clear(kill.victim.index());
            let group = match kill.delivered {
                DeliveryFilter::To(_) | DeliveryFilter::Prefix(_) => {
                    self.scratch.group_for(kills, idx, n)
                }
                DeliveryFilter::All | DeliveryFilter::None => NO_GROUP,
            };
            self.scratch.kill_stats.push(KillStat {
                victim: kill.victim,
                delivered: 0,
                suppressed: 0,
                had_outbox: false,
                group,
            });
        }
        self.metrics.on_kills(round, kills.len());

        // Pick the round's delivery representation. When every queued
        // pattern is a broadcast whose payload packs to a bit (or silence),
        // the round collapses into shared bit planes — one sent bit and one
        // value bit per sender — instead of n² pairs. Any `To` pattern or
        // structured payload falls back to the scalar pair path. The two
        // paths are observationally identical (same inboxes, metrics,
        // traces, and RNG streams), pinned by the plane/scalar differential
        // tests; the counters below are the one intentional difference.
        let plane_round = self.outboxes.iter().flatten().all(|pattern| match pattern {
            SendPattern::Broadcast(m) => m.pack().is_some(),
            SendPattern::To(_) => false,
            SendPattern::Silent => true,
        });
        let (delivered, suppressed) = if plane_round {
            self.telemetry.incr("round.deliver.plane", 1);
            self.dispatch_plane(kills)
        } else {
            self.telemetry.incr("round.deliver.scalar", 1);
            self.dispatch_scalar(kills)
        };
        self.metrics.on_delivered(delivered);
        self.metrics.on_suppressed(suppressed);
        // Trace the kills: victims that had an outbox first, in sender-id
        // order (matching dispatch order), then outbox-less victims in
        // intervention order — the stats were tracked during dispatch, so no
        // trace rescan is needed.
        if self.trace.is_enabled() {
            for s in 0..n {
                let kill_idx = self.scratch.filter_of[s];
                if kill_idx == NO_KILL {
                    continue;
                }
                let stat = &self.scratch.kill_stats[kill_idx as usize];
                if stat.had_outbox {
                    let (victim, d, cut) = (stat.victim, stat.delivered, stat.suppressed);
                    self.trace.record(|| Event::Killed {
                        victim,
                        round,
                        delivered: d,
                        suppressed: cut,
                    });
                }
            }
            for stat in &self.scratch.kill_stats {
                if !stat.had_outbox {
                    let victim = stat.victim;
                    self.trace.record(|| Event::Killed {
                        victim,
                        round,
                        delivered: 0,
                        suppressed: 0,
                    });
                }
            }
        }
        // Restore the scratch invariant in O(kills), not O(n).
        self.unmark_victims(kills);
        self.scratch.kill_stats.clear();

        // Receives: every still-alive process consumes its inbox.
        if plane_round {
            self.receive_plane(round);
        } else {
            self.receive_scalar(round);
        }
        self.scratch.recycle_groups();

        self.metrics.on_round_completed();
        let kill_count = kills.len() as u64;
        self.telemetry.record_round(
            kill_count,
            delivered,
            suppressed,
            kill_count > per_round_kill_cap(n),
        );
        self.trace.record(|| Event::RoundCompleted {
            round,
            messages_delivered: delivered,
        });
        self.round = round.next();
        self.phase = Phase::BeforeSend;
        Ok(())
    }

    /// Scalar-path dispatch: walks senders in id order, pushing surviving
    /// `(sender, message)` pairs into the pooled per-recipient buffers so
    /// each inbox stays sorted. Returns `(delivered, suppressed)` totals.
    fn dispatch_scalar(&mut self, kills: &[Kill]) -> (u64, u64) {
        let n = self.n();
        let mut delivered: u64 = 0;
        let mut suppressed: u64 = 0;
        let slots = &self.slots;
        let outboxes = &mut self.outboxes;
        let scratch = &mut self.scratch;
        // Indexing several parallel arrays; an enumerate chain would
        // obscure it.
        #[allow(clippy::needless_range_loop)]
        for s in 0..n {
            let Some(pattern) = outboxes[s].take() else {
                continue;
            };
            let sender = ProcessId::new(s);
            let kill_idx = scratch.filter_of[s];
            let filter: Option<&DeliveryFilter> = if kill_idx == NO_KILL {
                None
            } else {
                Some(&kills[kill_idx as usize].delivered)
            };
            let groups = &scratch.groups;
            let allows = |to: ProcessId| match filter {
                None | Some(DeliveryFilter::All) => true,
                Some(DeliveryFilter::None) => false,
                Some(DeliveryFilter::To(_) | DeliveryFilter::Prefix(_)) => {
                    let group = scratch.kill_stats[kill_idx as usize].group;
                    groups[group as usize].allowed.get(to.index())
                }
            };
            let mut sent_here = 0usize;
            let mut cut_here = 0usize;
            let inboxes = &mut scratch.inboxes;
            let mut dispatch = |to: ProcessId, msg: P::Msg| {
                if allows(to) {
                    // Dead or halted recipients silently drop mail; the
                    // message still "arrived" per the reliable-links model.
                    if slots[to.index()].status.is_alive() {
                        inboxes[to.index()].push((sender, msg));
                    }
                    sent_here += 1;
                } else {
                    cut_here += 1;
                }
            };
            match pattern {
                SendPattern::Broadcast(m) => {
                    for r in 0..n {
                        dispatch(ProcessId::new(r), m.clone());
                    }
                }
                SendPattern::To(list) => {
                    for (to, m) in list {
                        dispatch(to, m);
                    }
                }
                SendPattern::Silent => {}
            }
            delivered += sent_here as u64;
            suppressed += cut_here as u64;
            if kill_idx != NO_KILL {
                let stat = &mut scratch.kill_stats[kill_idx as usize];
                stat.had_outbox = true;
                stat.delivered = sent_here;
                stat.suppressed = cut_here;
            }
        }
        (delivered, suppressed)
    }

    /// Plane-path dispatch: every surviving broadcast becomes one bit in
    /// the shared round planes, and a `To`/`Prefix` victim's broadcast one
    /// bit in its receiver group's planes, instead of per-pair work.
    /// Per-sender accounting (delivered/suppressed, kill stats) matches
    /// [`dispatch_scalar`](Self::dispatch_scalar) exactly — including the
    /// reliable-links rule that a message to a dead recipient still counts
    /// as delivered.
    fn dispatch_plane(&mut self, kills: &[Kill]) -> (u64, u64) {
        let n = self.n();
        let mut delivered: u64 = 0;
        let mut suppressed: u64 = 0;
        let scratch = &mut self.scratch;
        for s in 0..n {
            let Some(pattern) = self.outboxes[s].take() else {
                continue;
            };
            let kill_idx = scratch.filter_of[s];
            let bit = match pattern {
                SendPattern::Broadcast(m) => m.pack(),
                SendPattern::Silent => None,
                SendPattern::To(_) => {
                    unreachable!("plane rounds hold only packable broadcasts and silence")
                }
            };
            let (sent_here, cut_here) = match bit {
                // A silent sender reaches (and is cut from) no one.
                None => (0, 0),
                Some(bit) => {
                    let filter = if kill_idx == NO_KILL {
                        None
                    } else {
                        Some(&kills[kill_idx as usize].delivered)
                    };
                    match filter {
                        None | Some(DeliveryFilter::All) => {
                            scratch.sent_base.set(s);
                            if bit.is_one() {
                                scratch.ones_base.set(s);
                            }
                            (n, 0)
                        }
                        Some(DeliveryFilter::None) => (0, n),
                        Some(DeliveryFilter::To(_) | DeliveryFilter::Prefix(_)) => {
                            let group = scratch.kill_stats[kill_idx as usize].group;
                            let group = &mut scratch.groups[group as usize];
                            group.sent.set(s);
                            if bit.is_one() {
                                group.ones.set(s);
                            }
                            (group.reach, n - group.reach)
                        }
                    }
                }
            };
            delivered += sent_here as u64;
            suppressed += cut_here as u64;
            if kill_idx != NO_KILL {
                let stat = &mut scratch.kill_stats[kill_idx as usize];
                stat.had_outbox = true;
                stat.delivered = sent_here;
                stat.suppressed = cut_here;
            }
        }
        (delivered, suppressed)
    }

    /// Scalar-path receives: each alive process consumes its pair buffer,
    /// which round-trips through the [`Inbox`] and returns to the pool.
    fn receive_scalar(&mut self, round: Round) {
        let n = self.n();
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            if !self.slots[i].status.is_alive() {
                continue;
            }
            let pid = ProcessId::new(i);
            let inbox = Inbox::from_messages(std::mem::take(&mut self.scratch.inboxes[i]));
            let mut rng = SimRng::stream(self.seed, pid, round, StreamPhase::Receive);
            let mut ctx = Context::new(pid, n, round, &mut rng);
            self.slots[i].proc.receive(&mut ctx, &inbox);
            let mut buffer = inbox.into_messages();
            buffer.clear();
            self.scratch.inboxes[i] = buffer;
            self.note_decision(pid);
            if self.slots[i].proc.halted() {
                self.slots[i].status = ProcessStatus::Halted(round);
                self.alive.clear(i);
                self.trace.record(|| Event::Halted { pid, round });
            }
        }
    }

    /// Plane-path receives: all alive processes share one plane-backed
    /// inbox built from the round planes. A recipient some receiver group
    /// reaches gets a pooled adjusted inbox instead: the base planes OR
    /// the planes of every group that includes it. Consecutive adjusted
    /// recipients with the same group membership share one build, so a
    /// round costs O(groups · n/64) words per distinct membership, however
    /// many victims the groups hold. Visit order, RNG streams, and
    /// halt/decision bookkeeping match
    /// [`receive_scalar`](Self::receive_scalar) exactly.
    fn receive_plane(&mut self, round: Round) {
        let n = self.n();
        let sent = std::mem::take(&mut self.scratch.sent_base);
        let ones = std::mem::take(&mut self.scratch.ones_base);
        let base: Inbox<P::Msg> = Inbox::from_plane(sent, ones);
        for group in &self.scratch.groups {
            self.scratch.adj_mark.union_with(&group.allowed);
        }
        let mut adjusted: Inbox<P::Msg> = Inbox::from_plane(
            std::mem::take(&mut self.scratch.adj_sent),
            std::mem::take(&mut self.scratch.adj_ones),
        );
        // The recipient `adjusted` was last built for.
        let mut built_for: Option<usize> = None;
        for i in 0..n {
            if !self.slots[i].status.is_alive() {
                continue;
            }
            let pid = ProcessId::new(i);
            let mut rng = SimRng::stream(self.seed, pid, round, StreamPhase::Receive);
            let mut ctx = Context::new(pid, n, round, &mut rng);
            if self.scratch.adj_mark.get(i) {
                let groups = &self.scratch.groups;
                let same_groups =
                    |j: usize| groups.iter().all(|g| g.allowed.get(i) == g.allowed.get(j));
                if !built_for.is_some_and(same_groups) {
                    let (mut adj_sent, mut adj_ones) = adjusted
                        .into_planes()
                        .expect("adjusted inbox is plane-backed");
                    let (base_sent, base_ones) = base.planes().expect("base inbox is plane-backed");
                    adj_sent.copy_from(base_sent);
                    adj_ones.copy_from(base_ones);
                    for group in groups.iter().filter(|g| g.allowed.get(i)) {
                        adj_sent.union_with(&group.sent);
                        adj_ones.union_with(&group.ones);
                    }
                    adjusted = Inbox::from_plane(adj_sent, adj_ones);
                    built_for = Some(i);
                }
                self.slots[i].proc.receive(&mut ctx, &adjusted);
            } else {
                self.slots[i].proc.receive(&mut ctx, &base);
            }
            self.note_decision(pid);
            if self.slots[i].proc.halted() {
                self.slots[i].status = ProcessStatus::Halted(round);
                self.alive.clear(i);
                self.trace.record(|| Event::Halted { pid, round });
            }
        }
        // Restore the scratch invariant: planes cleared and returned to the
        // pool (the groups are recycled by the caller).
        let (mut sent, mut ones) = base.into_planes().expect("base inbox is plane-backed");
        sent.clear_all();
        ones.clear_all();
        self.scratch.sent_base = sent;
        self.scratch.ones_base = ones;
        let (adj_sent, adj_ones) = adjusted
            .into_planes()
            .expect("adjusted inbox is plane-backed");
        self.scratch.adj_sent = adj_sent;
        self.scratch.adj_ones = adj_ones;
        self.scratch.adj_mark.clear_all();
    }

    /// Resets the kill-index table entries of `kills`' victims to
    /// [`NO_KILL`]: O(kills), not O(n).
    fn unmark_victims(&mut self, kills: &[Kill]) {
        for kill in kills {
            self.scratch.filter_of[kill.victim.index()] = NO_KILL;
        }
    }

    /// Drives the world to completion under `adversary`.
    ///
    /// Works from any phase, so a mid-round [`fork`](World::fork) can be
    /// resumed directly: if Phase A already ran, the adversary is consulted
    /// for the pending round first.
    ///
    /// # Errors
    ///
    /// Propagates any stepping error, and returns
    /// [`SimError::MaxRoundsExceeded`] if the execution outlives the
    /// configured limit.
    pub fn run<A: Adversary<P>>(&mut self, adversary: &mut A) -> Result<RunReport, SimError> {
        self.drive(adversary)?;
        Ok(self.report())
    }

    /// Drives the world to completion under `adversary` without building a
    /// report.
    ///
    /// The loop behind [`run`](World::run), split out for callers that
    /// finish with [`into_report`](World::into_report) (no metrics/trace
    /// clone) or that only inspect the final world state.
    ///
    /// # Errors
    ///
    /// Propagates any stepping error, and returns
    /// [`SimError::MaxRoundsExceeded`] if the execution outlives the
    /// configured limit.
    pub fn drive<A: Adversary<P>>(&mut self, adversary: &mut A) -> Result<(), SimError> {
        // Guards own their hub handle, so holding one across `&mut self`
        // calls is fine.
        let _span = self.telemetry.span("world.drive");
        while !self.finished() {
            if self.round.index() > self.cfg.max_rounds_value() {
                return Err(SimError::MaxRoundsExceeded {
                    limit: self.cfg.max_rounds_value(),
                });
            }
            if self.phase == Phase::BeforeSend {
                self.phase_a()?;
            }
            let intervention = {
                let _adv = self.telemetry.span("round.adversary");
                adversary.intervene(self)
            };
            self.deliver(intervention)?;
        }
        Ok(())
    }

    /// Summarises the execution so far.
    #[must_use]
    pub fn report(&self) -> RunReport {
        RunReport::new(
            self.slots.iter().map(|s| s.proc.decision()).collect(),
            self.slots.iter().map(|s| s.status).collect(),
            self.metrics.clone(),
            self.trace.clone(),
        )
    }

    /// Consumes the world into a report, moving the metrics and trace
    /// instead of cloning them.
    ///
    /// Prefer `drive` + `into_report` over [`run`](World::run) when the
    /// world is not needed afterwards — on traced runs this skips copying
    /// the entire event log.
    #[must_use]
    pub fn into_report(self) -> RunReport {
        self.spares.put(self.scratch);
        RunReport::new(
            self.slots.iter().map(|s| s.proc.decision()).collect(),
            self.slots.iter().map(|s| s.status).collect(),
            self.metrics,
            self.trace,
        )
    }

    /// Discards this world, returning its scratch buffers to the pool its
    /// forks share.
    ///
    /// Call this instead of plain `drop` on paths that abandon a fork
    /// without [`into_report`](World::into_report) — e.g. a valency probe
    /// that hit its horizon — so the next fork inherits the warmed-up
    /// buffers.
    pub fn retire(self) {
        self.spares.put(self.scratch);
    }

    fn note_decision(&mut self, pid: ProcessId) {
        if let Some(value) = self.slots[pid.index()].proc.decision() {
            if self.metrics.decided_at(pid).is_none() {
                let round = self.round;
                self.metrics.on_decided(pid, round, value);
                self.telemetry.record_decision(round.index());
                self.trace.record(|| Event::Decided { pid, round, value });
            }
        }
    }
}

impl<P> World<P>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    /// Clones this world, rebasing all *future* randomness on `seed`.
    ///
    /// The copy has identical process states, statuses, queued outboxes,
    /// budget, and round position — but coins not yet flipped will differ
    /// between forks with different seeds. This is the primitive behind
    /// Monte-Carlo valency estimation: fork the paused world many times,
    /// resume each under a reference adversary, and observe the empirical
    /// distribution of decisions. `fork(self.seed())` replays this world's
    /// own future exactly.
    ///
    /// The copy takes its round scratch from the pool this world shares
    /// with its root and every other fork of it; [`into_report`] and
    /// [`retire`] return it there. Scratch is clean between rounds, so a
    /// recycled scratch differs from a fresh one only in capacity.
    ///
    /// [`into_report`]: World::into_report
    /// [`retire`]: World::retire
    #[must_use]
    pub fn fork(&self, seed: u64) -> World<P> {
        World {
            cfg: Arc::clone(&self.cfg),
            round: self.round,
            phase: self.phase,
            slots: self.slots.clone(),
            outboxes: self.outboxes.clone(),
            budget: self.budget,
            metrics: self.metrics.fork(),
            // Forked futures are throwaway explorations; tracing them would
            // dominate memory in valency estimation, and telemetry from
            // thousands of probe forks would drown the parent's signal — the
            // estimators count probe outcomes themselves instead.
            trace: Trace::disabled(),
            telemetry: Telemetry::off(),
            seed,
            alive: self.alive.clone(),
            scratch: self.spares.take(self.cfg.n()),
            spares: Arc::clone(&self.spares),
        }
    }

    /// Like [`fork`](World::fork), but the copy's round limit is capped at
    /// `horizon` rounds past the current round.
    ///
    /// Valency probes use this to bound exploration cost: a fork that has
    /// not decided within the horizon reports
    /// [`SimError::MaxRoundsExceeded`], which estimators treat as
    /// "undecided".
    #[must_use]
    pub fn fork_bounded(&self, seed: u64, horizon: u32) -> World<P> {
        let mut copy = self.fork(seed);
        copy.cfg = bounded_cfg(&self.cfg, self.round, horizon);
        copy
    }
}

/// The fork config for a `horizon`-bounded exploration from `round`:
/// shares `cfg`'s `Arc` when the horizon does not actually tighten the
/// round limit, and copies-on-write otherwise.
fn bounded_cfg(cfg: &Arc<SimConfig>, round: Round, horizon: u32) -> Arc<SimConfig> {
    let limit = round
        .index()
        .saturating_add(horizon)
        .min(cfg.max_rounds_value())
        .max(round.index());
    if limit == cfg.max_rounds_value() {
        Arc::clone(cfg)
    } else {
        Arc::new(cfg.as_ref().clone().max_rounds(limit))
    }
}

fn validate_pattern<M>(
    pattern: &SendPattern<M>,
    from: ProcessId,
    n: usize,
) -> Result<(), SimError> {
    if let SendPattern::To(list) = pattern {
        for (idx, (to, _)) in list.iter().enumerate() {
            if to.index() >= n {
                return Err(SimError::InvalidRecipient { from, to: *to, n });
            }
            if list[..idx].iter().any(|(t, _)| t == to) {
                // At most one message per ordered pair per round.
                return Err(SimError::InvalidRecipient { from, to: *to, n });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{CoinCaller, CountDown, Echo, Scalarized};
    use crate::Passive;

    fn echo_world(n: usize, seed: u64) -> World<Echo> {
        World::new(SimConfig::new(n).seed(seed), |pid| {
            Echo::new(Bit::from(pid.index() % 2 == 0))
        })
        .unwrap()
    }

    #[test]
    fn passive_run_completes_in_one_round() {
        let mut w = echo_world(5, 1);
        let report = w.run(&mut Passive).unwrap();
        assert_eq!(report.rounds(), 1);
        assert!(w.finished());
        for pid in ProcessId::all(5) {
            assert!(report.decision_of(pid).is_some());
        }
    }

    #[test]
    fn phase_order_enforced() {
        let mut w = echo_world(3, 2);
        // deliver before phase_a is a phase violation
        let err = w.deliver(Intervention::none()).unwrap_err();
        assert!(matches!(err, SimError::PhaseViolation { .. }));
        w.phase_a().unwrap();
        // phase_a twice is a phase violation
        let err = w.phase_a().unwrap_err();
        assert!(matches!(err, SimError::PhaseViolation { .. }));
        w.deliver(Intervention::none()).unwrap();
    }

    #[test]
    fn kills_respect_budget() {
        let mut w = World::new(SimConfig::new(4).faults(1).seed(3), |_| {
            CountDown::new(3, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        let iv = Intervention::kill_all_silent([ProcessId::new(0), ProcessId::new(1)]);
        let err = w.deliver(iv).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
        // The failed attempt left the world consistent: a legal kill works.
        let iv = Intervention::kill_all_silent([ProcessId::new(0)]);
        w.deliver(iv).unwrap();
        assert_eq!(w.alive_count(), 3);
        assert!(w.status(ProcessId::new(0)).is_failed());
    }

    #[test]
    fn cannot_kill_dead_or_unknown_or_twice() {
        let mut w = World::new(SimConfig::new(3).faults(3).seed(4), |_| {
            CountDown::new(5, Bit::Zero)
        })
        .unwrap();
        w.phase_a().unwrap();
        let unknown = Intervention::kill_all_silent([ProcessId::new(9)]);
        assert!(matches!(
            w.deliver(unknown).unwrap_err(),
            SimError::UnknownProcess { .. }
        ));
        let dup = Intervention::kill_all_silent([ProcessId::new(1), ProcessId::new(1)]);
        assert!(matches!(
            w.deliver(dup).unwrap_err(),
            SimError::DuplicateVictim { .. }
        ));
        w.deliver(Intervention::kill_all_silent([ProcessId::new(1)]))
            .unwrap();
        w.phase_a().unwrap();
        let dead = Intervention::kill_all_silent([ProcessId::new(1)]);
        assert!(matches!(
            w.deliver(dead).unwrap_err(),
            SimError::NotAlive { .. }
        ));
    }

    #[test]
    fn partial_delivery_filters_messages() {
        // Three countdown processes broadcasting their bit; kill P0 but let
        // only P2 hear its last message.
        let mut w = World::new(SimConfig::new(3).faults(1).seed(5), |_| {
            CountDown::new(5, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        let iv = Intervention::new().kill(
            ProcessId::new(0),
            DeliveryFilter::To(vec![ProcessId::new(2)].into()),
        );
        w.deliver(iv).unwrap();
        let p1 = w.process(ProcessId::new(1));
        let p2 = w.process(ProcessId::new(2));
        // P1 heard everyone but P0; P2 heard everyone.
        assert_eq!(p1.last_inbox_len(), 2);
        assert_eq!(p2.last_inbox_len(), 3);
    }

    #[test]
    fn dead_processes_send_nothing_later() {
        let mut w = World::new(SimConfig::new(3).faults(1).seed(6), |_| {
            CountDown::new(5, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        w.deliver(Intervention::kill_all_silent([ProcessId::new(0)]))
            .unwrap();
        w.phase_a().unwrap();
        assert!(w.outbox(ProcessId::new(0)).is_none());
        assert!(w.outbox(ProcessId::new(1)).is_some());
        w.deliver(Intervention::none()).unwrap();
        // Survivors now hear only each other.
        assert_eq!(w.process(ProcessId::new(1)).last_inbox_len(), 2);
    }

    #[test]
    fn same_seed_reproduces_execution() {
        let run = |seed: u64| {
            let mut w = World::new(SimConfig::new(6).seed(seed).trace(true), |pid| {
                Echo::new(Bit::from(pid.index() % 2 == 0))
            })
            .unwrap();
            let report = w.run(&mut Passive).unwrap();
            (report.decisions().to_vec(), w.trace().events().to_vec())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn fork_preserves_state_and_changes_future() {
        let mut w = World::new(SimConfig::new(4).faults(0).seed(7), |_| {
            CountDown::new(4, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        w.deliver(Intervention::none()).unwrap();
        let mut f1 = w.fork(100);
        let mut f2 = w.fork(100);
        let mut f3 = w.fork(101);
        assert_eq!(f1.round(), w.round());
        assert_eq!(f1.alive_count(), w.alive_count());
        let r1 = f1.run(&mut Passive).unwrap();
        let r2 = f2.run(&mut Passive).unwrap();
        let r3 = f3.run(&mut Passive).unwrap();
        // Same fork seed ⇒ identical future; CountDown is deterministic so
        // all futures agree on rounds, but the decision streams must match
        // exactly for equal seeds.
        assert_eq!(r1.decisions(), r2.decisions());
        assert_eq!(r1.rounds(), r3.rounds());
    }

    #[test]
    fn fork_with_own_seed_replays_the_parent() {
        let mut w = World::new(SimConfig::new(6).seed(7), |_| CoinCaller::new(5)).unwrap();
        w.phase_a().unwrap();
        w.deliver(Intervention::none()).unwrap();
        let mut twin = w.fork(w.seed());
        let mut other = w.fork(w.seed() ^ 1);
        let coins = |w: &World<CoinCaller>| -> Vec<Vec<Bit>> {
            w.processes()
                .map(|(_, p, _)| p.history().to_vec())
                .collect()
        };
        let report = w.run(&mut Passive).unwrap();
        let twin_report = twin.run(&mut Passive).unwrap();
        other.run(&mut Passive).unwrap();
        assert_eq!(coins(&twin), coins(&w), "same seed, same coins");
        assert_eq!(twin_report.decisions(), report.decisions());
        assert_eq!(twin_report.metrics(), report.metrics());
        assert_ne!(coins(&other), coins(&w), "a new seed flips new coins");
    }

    /// Scratch buffers parked in `world`'s shared pool.
    fn spares<P: Process>(world: &World<P>) -> usize {
        world.spares.pool.lock().unwrap().len()
    }

    /// A world of `n` processes built by `factory` (one fault allowed),
    /// paused after Phase A of round 3 so its metrics carry history.
    fn paused_world<P: Process>(n: usize, seed: u64, factory: impl Fn() -> P) -> World<P> {
        let mut w = World::new(SimConfig::new(n).faults(1).seed(seed), |_| factory()).unwrap();
        for _ in 0..2 {
            w.phase_a().unwrap();
            w.deliver(Intervention::none()).unwrap();
        }
        w.phase_a().unwrap();
        w
    }

    /// Warms `world`'s pool with a fork that partially kills a sender,
    /// then checks that the next fork, which takes the recycled scratch,
    /// reports exactly what a fork with a fresh scratch reported.
    fn assert_recycled_fork_matches_fresh<P>(world: &World<P>)
    where
        P: Process + Clone,
        P::Msg: Clone,
    {
        let fresh = world.fork(31337).run(&mut Passive).unwrap();
        assert_eq!(spares(world), 0, "run keeps its scratch");

        let mut warm = world.fork(999);
        let partial = DeliveryFilter::To(vec![ProcessId::new(2)].into());
        warm.deliver(Intervention::new().kill(ProcessId::new(0), partial))
            .unwrap();
        warm.drive(&mut Passive).unwrap();
        let _ = warm.into_report();
        assert_eq!(spares(world), 1, "into_report returns the scratch");

        let mut recycled = world.fork(31337);
        assert_eq!(spares(world), 0, "the fork took the pooled scratch");
        let report = recycled.run(&mut Passive).unwrap();
        assert_eq!(format!("{report:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn recycled_scratch_forks_stay_equivalent() {
        // Plain countdowns ride the bit planes, so the partial kill dirties
        // the adjusted-inbox planes and the mask pool; scalarized ones take
        // the pair path and dirty the per-recipient inbox buffers.
        assert_recycled_fork_matches_fresh(&paused_world(12, 5, || CountDown::new(6, Bit::One)));
        assert_recycled_fork_matches_fresh(&paused_world(12, 5, || {
            Scalarized(CountDown::new(6, Bit::One))
        }));
    }

    #[test]
    fn victims_sharing_one_set_resolve_to_one_mask() {
        // However many victims share one receiver set, delivery builds one
        // mask (one group) for it, so the work per adjusted receiver — its
        // base copy plus one OR per group that reaches it — does not grow
        // with k. A content-equal list in its own `Arc` is a second set.
        let n = 130;
        for k in [1, 8, 60] {
            let receivers: Vec<ProcessId> = (k..n - 1).step_by(2).map(ProcessId::new).collect();
            let copy = DeliveryFilter::To(receivers.clone().into());
            let iv = Intervention::kill_all_to((0..k).map(ProcessId::new), receivers)
                .kill(ProcessId::new(n - 1), copy);
            let plane = {
                let mut w = World::new(SimConfig::new(n).faults(n).seed(3), |_| {
                    CountDown::new(4, Bit::One)
                })
                .unwrap();
                w.phase_a().unwrap();
                w.deliver(iv.clone()).unwrap();
                w.scratch.group_pool.len()
            };
            let scalar = {
                let mut w = World::new(SimConfig::new(n).faults(n).seed(3), |_| {
                    Scalarized(CountDown::new(4, Bit::One))
                })
                .unwrap();
                w.phase_a().unwrap();
                w.deliver(iv).unwrap();
                w.scratch.group_pool.len()
            };
            assert_eq!((plane, scalar), (2, 2), "k={k}: one mask per distinct set");
        }
    }

    #[test]
    fn retire_recycles_scratch_without_a_report() {
        let w = paused_world(8, 21, || CountDown::new(6, Bit::Zero));
        w.fork(7).retire();
        assert_eq!(spares(&w), 1);
        // The next fork re-uses those buffers: the pool does not grow
        // beyond what runs concurrently.
        let fork = w.fork(8);
        assert_eq!(spares(&w), 0);
        fork.retire();
        assert_eq!(spares(&w), 1);
        // A fork of a fork draws from and returns to the root's one pool.
        let child = w.fork_bounded(9, 5);
        let grandchild = child.fork(10);
        assert_eq!(spares(&w), 0);
        grandchild.retire();
        child.retire();
        assert_eq!(spares(&w), 2);
    }

    #[test]
    fn max_rounds_guard_fires() {
        /// A process that never halts.
        #[derive(Debug, Clone)]
        struct Forever;
        impl Process for Forever {
            type Msg = Bit;
            fn send(&mut self, _: &mut Context<'_>) -> SendPattern<Bit> {
                SendPattern::Silent
            }
            fn receive(&mut self, _: &mut Context<'_>, _: &Inbox<Bit>) {}
            fn decision(&self) -> Option<Bit> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut w = World::new(SimConfig::new(2).max_rounds(10).seed(1), |_| Forever).unwrap();
        let err = w.run(&mut Passive).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 10 });
    }

    #[test]
    fn invalid_recipient_rejected() {
        #[derive(Debug, Clone)]
        struct BadSender;
        impl Process for BadSender {
            type Msg = Bit;
            fn send(&mut self, _: &mut Context<'_>) -> SendPattern<Bit> {
                SendPattern::To(vec![(ProcessId::new(99), Bit::One)])
            }
            fn receive(&mut self, _: &mut Context<'_>, _: &Inbox<Bit>) {}
            fn decision(&self) -> Option<Bit> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut w = World::new(SimConfig::new(2).seed(1), |_| BadSender).unwrap();
        let err = w.phase_a().unwrap_err();
        assert!(matches!(err, SimError::InvalidRecipient { .. }));
    }

    #[test]
    fn killing_everyone_finishes_run() {
        struct Reaper;
        impl Adversary<CountDown> for Reaper {
            fn intervene(&mut self, world: &World<CountDown>) -> Intervention {
                Intervention::kill_all_silent(world.alive_ids().collect::<Vec<_>>())
            }
        }
        let mut w = World::new(SimConfig::new(3).faults(3).seed(8), |_| {
            CountDown::new(10, Bit::Zero)
        })
        .unwrap();
        let report = w.run(&mut Reaper).unwrap();
        assert_eq!(report.rounds(), 1);
        assert!(report.statuses().iter().all(|s| s.is_failed()));
    }

    #[test]
    fn fork_bounded_caps_the_horizon() {
        /// Never halts — only the horizon can stop a fork of it.
        #[derive(Debug, Clone)]
        struct Forever;
        impl Process for Forever {
            type Msg = Bit;
            fn send(&mut self, _: &mut Context<'_>) -> SendPattern<Bit> {
                SendPattern::Broadcast(Bit::One)
            }
            fn receive(&mut self, _: &mut Context<'_>, _: &Inbox<Bit>) {}
            fn decision(&self) -> Option<Bit> {
                None
            }
            fn halted(&self) -> bool {
                false
            }
        }
        let mut w = World::new(SimConfig::new(3).seed(1).max_rounds(1_000), |_| Forever).unwrap();
        // Advance two full rounds, then fork with a 5-round horizon.
        for _ in 0..2 {
            w.phase_a().unwrap();
            w.deliver(Intervention::none()).unwrap();
        }
        let mut fork = w.fork_bounded(99, 5);
        let err = fork.run(&mut Passive).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 8 });
        // The horizon never exceeds the parent's own limit.
        let fork2 = w.fork_bounded(99, 10_000);
        assert_eq!(fork2.config().max_rounds_value(), 1_000);
        // The parent is untouched.
        assert_eq!(w.round().index(), 3);
    }

    #[test]
    fn prefix_filter_delivers_in_id_order_through_the_engine() {
        // The paper's ordered-send model: a victim that died 2 sends into
        // its broadcast reaches only the two lowest-id receivers.
        let mut w = World::new(SimConfig::new(4).faults(1).seed(5), |_| {
            CountDown::new(5, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        let iv = Intervention::new().kill(ProcessId::new(3), DeliveryFilter::Prefix(2));
        w.deliver(iv).unwrap();
        // Receivers 0 and 1 heard all 4 senders; receiver 2 missed P3.
        assert_eq!(w.process(ProcessId::new(0)).last_inbox_len(), 4);
        assert_eq!(w.process(ProcessId::new(1)).last_inbox_len(), 4);
        assert_eq!(w.process(ProcessId::new(2)).last_inbox_len(), 3);
        assert_eq!(w.metrics().messages_suppressed(), 2, "cut to P2 and P3");
    }

    #[test]
    fn halted_processes_stop_sending_and_receiving() {
        // A 1-round countdown halts after round 1; a 3-round countdown
        // keeps going and must stop hearing the halted one.
        let mut w = World::new(SimConfig::new(2).seed(6), |pid| {
            CountDown::new(if pid.index() == 0 { 1 } else { 3 }, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        w.deliver(Intervention::none()).unwrap();
        assert!(w.status(ProcessId::new(0)).is_halted());
        w.phase_a().unwrap();
        assert!(
            w.outbox(ProcessId::new(0)).is_none(),
            "halted senders are silent"
        );
        w.deliver(Intervention::none()).unwrap();
        assert_eq!(
            w.process(ProcessId::new(1)).last_inbox_len(),
            1,
            "only its own message remains"
        );
    }

    #[test]
    fn metrics_track_kills_and_messages() {
        let mut w = World::new(SimConfig::new(4).faults(2).seed(9).trace(true), |_| {
            CountDown::new(3, Bit::One)
        })
        .unwrap();
        w.phase_a().unwrap();
        w.deliver(Intervention::kill_all_silent([ProcessId::new(3)]))
            .unwrap();
        assert_eq!(w.metrics().total_kills(), 1);
        // 3 alive broadcast to 4, P3's broadcast fully suppressed.
        assert_eq!(w.metrics().messages_delivered(), 12);
        assert_eq!(w.metrics().messages_suppressed(), 4);
        assert_eq!(w.trace().kills().count(), 1);
    }
}
