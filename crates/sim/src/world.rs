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

/// Bookkeeping for one kill while a round's delivery is in flight.
#[derive(Debug)]
struct KillStat {
    victim: ProcessId,
    delivered: usize,
    suppressed: usize,
    /// Whether the victim had an outbox to filter (it always does after a
    /// normal Phase A; kept for robustness and trace parity).
    had_outbox: bool,
}

/// A kill whose [`DeliveryFilter`] lets only *some* recipients hear the
/// victim's broadcast, recorded for the plane fast path as the victim's
/// sender bit, packed value, and allowed-recipient mask.
#[derive(Debug)]
struct PartialKill {
    sender: usize,
    one: bool,
    allowed: BitPlane,
}

/// Reusable per-round buffers, pooled across rounds so [`World::deliver`]
/// performs no per-round allocations once the inbox buffers have warmed up.
///
/// Invariant: between [`World::deliver`] calls every inbox buffer is empty,
/// `kill_stats` and `partials` are empty, the round planes (`sent_base`,
/// `ones_base`, `adj_mark`) are all-zeros, and every `filter_of` entry is
/// [`NO_KILL`] — so a freshly constructed scratch is interchangeable with a
/// used one, which is what lets [`Clone`] hand forks an empty pool.
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
    /// Plane path: partially-filtered kills this round (rare).
    partials: Vec<PartialKill>,
    /// Union of the `partials` allowed masks: recipients needing an
    /// adjusted inbox instead of the shared base planes.
    adj_mark: BitPlane,
    /// Pooled planes the adjusted inboxes are rebuilt in.
    adj_sent: BitPlane,
    /// Pooled value plane paired with `adj_sent`.
    adj_ones: BitPlane,
    /// Recycled allowed-mask planes for future `partials`.
    mask_pool: Vec<BitPlane>,
}

impl<M> RoundScratch<M> {
    pub(crate) fn new(n: usize) -> RoundScratch<M> {
        RoundScratch {
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            filter_of: vec![NO_KILL; n],
            kill_stats: Vec::new(),
            sent_base: BitPlane::new(n),
            ones_base: BitPlane::new(n),
            partials: Vec::new(),
            adj_mark: BitPlane::new(n),
            adj_sent: BitPlane::new(n),
            adj_ones: BitPlane::new(n),
            mask_pool: Vec::new(),
        }
    }
}

/// Retired [`RoundScratch`] buffers queued for re-use by future forks of
/// one [`WorldSnapshot`].
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

/// Retired scratches kept per snapshot. Bounds memory when far more forks
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
/// Worlds are `Clone` when the process type is, and [`World::fork`] produces
/// an identical copy with fresh future randomness — the primitive the
/// valency-estimating adversaries of `synran-adversary` are built on.
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
    /// Shared, not owned: forks and snapshots of this world bump the `Arc`
    /// instead of cloning the config (copy-on-write — the only mutation,
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
    /// Where `scratch` returns when this world retires (snapshot forks
    /// only): [`World::into_report`] and [`World::retire`] push it back so
    /// the next fork inherits warmed-up buffers.
    scratch_home: Option<Arc<ScratchPool<P::Msg>>>,
}

impl<P> Clone for World<P>
where
    P: Process + Clone,
{
    /// Clones the observable execution state. The clone gets a fresh (empty)
    /// scratch pool rather than a copy of the parent's warmed-up buffers:
    /// scratch is empty between rounds by invariant, so this changes nothing
    /// observable, and it keeps mid-estimation forks cheap.
    fn clone(&self) -> World<P> {
        World {
            cfg: Arc::clone(&self.cfg),
            round: self.round,
            phase: self.phase,
            slots: self.slots.clone(),
            outboxes: self.outboxes.clone(),
            budget: self.budget,
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            telemetry: self.telemetry.clone(),
            seed: self.seed,
            alive: self.alive.clone(),
            scratch: RoundScratch::new(self.cfg.n()),
            scratch_home: None,
        }
    }
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
            scratch_home: None,
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

        // Validate the intervention fully before mutating anything.
        let kills = intervention.kills();
        for (idx, kill) in kills.iter().enumerate() {
            if kill.victim.index() >= n {
                return Err(SimError::UnknownProcess {
                    pid: kill.victim,
                    n,
                });
            }
            if !self.slots[kill.victim.index()].status.is_alive() {
                return Err(SimError::NotAlive {
                    pid: kill.victim,
                    round,
                });
            }
            if kills[..idx].iter().any(|k| k.victim == kill.victim) {
                return Err(SimError::DuplicateVictim { pid: kill.victim });
            }
        }
        self.budget.try_spend(kills.len(), round)?;

        // Apply the kills, marking each victim's slot in the pooled
        // per-sender kill-index table (tracked during dispatch so the trace
        // needs no rescan afterwards).
        debug_assert!(self.scratch.kill_stats.is_empty());
        for (idx, kill) in kills.iter().enumerate() {
            self.slots[kill.victim.index()].status = ProcessStatus::Failed(round);
            self.alive.clear(kill.victim.index());
            self.scratch.filter_of[kill.victim.index()] = idx as u32;
            self.scratch.kill_stats.push(KillStat {
                victim: kill.victim,
                delivered: 0,
                suppressed: 0,
                had_outbox: false,
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
        for stat in &self.scratch.kill_stats {
            self.scratch.filter_of[stat.victim.index()] = NO_KILL;
        }
        self.scratch.kill_stats.clear();

        // Receives: every still-alive process consumes its inbox.
        if plane_round {
            self.receive_plane(round);
        } else {
            self.receive_scalar(round);
        }

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
            let mut sent_here = 0usize;
            let mut cut_here = 0usize;
            let inboxes = &mut scratch.inboxes;
            let mut dispatch = |to: ProcessId, msg: P::Msg| {
                let allowed = filter.is_none_or(|f| f.allows(to));
                if allowed {
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
    /// the shared round planes; partially-filtered kills are recorded as
    /// exception masks instead of per-pair work. Per-sender accounting
    /// (delivered/suppressed, kill stats) matches
    /// [`dispatch_scalar`](Self::dispatch_scalar) exactly — including the
    /// reliable-links rule that a message to a dead recipient still counts
    /// as delivered.
    fn dispatch_plane(&mut self, kills: &[Kill]) -> (u64, u64) {
        let n = self.n();
        let mut delivered: u64 = 0;
        let mut suppressed: u64 = 0;
        let scratch = &mut self.scratch;
        debug_assert!(scratch.partials.is_empty());
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
                        Some(DeliveryFilter::To(list)) => {
                            let mut allowed = take_mask(&mut scratch.mask_pool, n);
                            for to in list {
                                if to.index() < n {
                                    allowed.set(to.index());
                                }
                            }
                            let reach = allowed.count_ones();
                            scratch.adj_mark.union_with(&allowed);
                            scratch.partials.push(PartialKill {
                                sender: s,
                                one: bit.is_one(),
                                allowed,
                            });
                            (reach, n - reach)
                        }
                        Some(DeliveryFilter::Prefix(k)) => {
                            let reach = (*k).min(n);
                            let mut allowed = take_mask(&mut scratch.mask_pool, n);
                            for r in 0..reach {
                                allowed.set(r);
                            }
                            scratch.adj_mark.union_with(&allowed);
                            scratch.partials.push(PartialKill {
                                sender: s,
                                one: bit.is_one(),
                                allowed,
                            });
                            (reach, n - reach)
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
    /// inbox built from the round planes; recipients named by a partial
    /// kill get a pooled adjusted copy with the extra sender bits set.
    /// Visit order, RNG streams, and halt/decision bookkeeping match
    /// [`receive_scalar`](Self::receive_scalar) exactly.
    fn receive_plane(&mut self, round: Round) {
        let n = self.n();
        let sent = std::mem::take(&mut self.scratch.sent_base);
        let ones = std::mem::take(&mut self.scratch.ones_base);
        let base: Inbox<P::Msg> = Inbox::from_plane(sent, ones);
        for i in 0..n {
            if !self.slots[i].status.is_alive() {
                continue;
            }
            let pid = ProcessId::new(i);
            let mut rng = SimRng::stream(self.seed, pid, round, StreamPhase::Receive);
            let mut ctx = Context::new(pid, n, round, &mut rng);
            if self.scratch.adj_mark.get(i) {
                let mut adj_sent = std::mem::take(&mut self.scratch.adj_sent);
                let mut adj_ones = std::mem::take(&mut self.scratch.adj_ones);
                let (base_sent, base_ones) = base.planes().expect("base inbox is plane-backed");
                adj_sent.copy_from(base_sent);
                adj_ones.copy_from(base_ones);
                for partial in &self.scratch.partials {
                    if partial.allowed.get(i) {
                        adj_sent.set(partial.sender);
                        if partial.one {
                            adj_ones.set(partial.sender);
                        }
                    }
                }
                let adjusted: Inbox<P::Msg> = Inbox::from_plane(adj_sent, adj_ones);
                self.slots[i].proc.receive(&mut ctx, &adjusted);
                let (s, o) = adjusted
                    .into_planes()
                    .expect("adjusted inbox is plane-backed");
                self.scratch.adj_sent = s;
                self.scratch.adj_ones = o;
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
        // pool, exception masks recycled.
        let (mut sent, mut ones) = base.into_planes().expect("base inbox is plane-backed");
        sent.clear_all();
        ones.clear_all();
        self.scratch.sent_base = sent;
        self.scratch.ones_base = ones;
        self.scratch.adj_mark.clear_all();
        while let Some(partial) = self.scratch.partials.pop() {
            let mut mask = partial.allowed;
            mask.clear_all();
            self.scratch.mask_pool.push(mask);
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
    pub fn into_report(mut self) -> RunReport {
        self.recycle_scratch();
        RunReport::new(
            self.slots.iter().map(|s| s.proc.decision()).collect(),
            self.slots.iter().map(|s| s.status).collect(),
            self.metrics,
            self.trace,
        )
    }

    /// Discards this world, returning its scratch buffers to the snapshot
    /// pool they came from (if any).
    ///
    /// Call this instead of plain `drop` on error paths that abandon a
    /// snapshot fork without [`into_report`](World::into_report) — e.g. a
    /// valency probe that hit its horizon — so the next fork from the same
    /// snapshot inherits the warmed-up buffers.
    pub fn retire(mut self) {
        self.recycle_scratch();
    }

    /// Pushes the (clean, by invariant) scratch back to its home pool,
    /// leaving a zero-width placeholder behind.
    fn recycle_scratch(&mut self) {
        if let Some(home) = self.scratch_home.take() {
            home.put(std::mem::replace(&mut self.scratch, RoundScratch::new(0)));
        }
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
    /// distribution of decisions.
    #[must_use]
    pub fn fork(&self, seed: u64) -> World<P> {
        World {
            cfg: Arc::clone(&self.cfg),
            round: self.round,
            phase: self.phase,
            slots: self.slots.clone(),
            outboxes: self.outboxes.clone(),
            budget: self.budget,
            metrics: self.metrics.clone(),
            // Forked futures are throwaway explorations; tracing them would
            // dominate memory in valency estimation, and telemetry from
            // thousands of probe forks would drown the parent's signal — the
            // estimators count probe outcomes themselves instead.
            trace: Trace::disabled(),
            telemetry: Telemetry::off(),
            seed,
            alive: self.alive.clone(),
            scratch: RoundScratch::new(self.cfg.n()),
            scratch_home: None,
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

    /// Condenses the paused world into a copy-on-write [`WorldSnapshot`]
    /// that many forks can be cut from cheaply.
    ///
    /// Equivalent to calling [`fork`](World::fork) per seed — forks from
    /// the snapshot and forks from the world are byte-identical — but the
    /// immutable bulk (config, process baseline, queued outboxes, metrics,
    /// liveness plane) is captured once behind an `Arc` and shared by
    /// every fork, and retired forks recycle their warmed-up round-scratch
    /// buffers through the snapshot instead of each fork growing its own.
    #[must_use]
    pub fn snapshot(&self) -> WorldSnapshot<P> {
        self.snapshot_with(Arc::clone(&self.cfg))
    }

    /// [`snapshot`](World::snapshot) with the fork round limit capped at
    /// `horizon` rounds past the current round, mirroring
    /// [`fork_bounded`](World::fork_bounded).
    #[must_use]
    pub fn snapshot_bounded(&self, horizon: u32) -> WorldSnapshot<P> {
        self.snapshot_with(bounded_cfg(&self.cfg, self.round, horizon))
    }

    fn snapshot_with(&self, cfg: Arc<SimConfig>) -> WorldSnapshot<P> {
        WorldSnapshot {
            inner: Arc::new(SnapshotInner {
                cfg,
                round: self.round,
                phase: self.phase,
                slots: self.slots.clone(),
                outboxes: self.outboxes.clone(),
                budget: self.budget,
                metrics: self.metrics.clone(),
                alive: self.alive.clone(),
                scratch: Arc::new(ScratchPool::empty()),
            }),
        }
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

/// The shared, immutable bulk of a paused [`World`], captured once per
/// [`World::snapshot`] call and referenced by every fork cut from it.
#[derive(Debug)]
struct SnapshotInner<P: Process> {
    cfg: Arc<SimConfig>,
    round: Round,
    phase: Phase,
    slots: Vec<Slot<P>>,
    outboxes: Vec<Option<SendPattern<P::Msg>>>,
    budget: FaultBudget,
    metrics: Metrics,
    alive: BitPlane,
    /// Scratch buffers retired forks leave behind for future forks.
    scratch: Arc<ScratchPool<P::Msg>>,
}

/// A copy-on-write capture of a paused [`World`], built by
/// [`World::snapshot`] / [`World::snapshot_bounded`].
///
/// The snapshot owns one immutable copy of the world's bulk state behind
/// an `Arc`; [`WorldSnapshot::fork`] cuts a mutable [`World`] from it by
/// cloning only the per-fork delta (process slots and queued outboxes —
/// the state a resumed execution mutates) and borrowing a pooled round
/// scratch. Cloning the snapshot itself is an `Arc` bump, so one snapshot
/// can be shared across the worker pool for a whole `probes × samples`
/// estimation pass.
///
/// # Equivalence invariant
///
/// `snapshot().fork(s)` is observationally identical to `fork(s)` on the
/// world the snapshot was taken from: same processes, statuses, outboxes,
/// budget, metrics, round position, and — because future coins depend only
/// on `(seed, round, phase)` — the same execution under any adversary.
/// Recycled scratch preserves this because scratch is clean between
/// rounds by invariant; a warmed buffer differs from a fresh one only in
/// capacity.
pub struct WorldSnapshot<P: Process> {
    inner: Arc<SnapshotInner<P>>,
}

impl<P: Process> std::fmt::Debug for WorldSnapshot<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldSnapshot")
            .field("n", &self.inner.cfg.n())
            .field("round", &self.inner.round)
            .field("phase", &self.inner.phase.name())
            .finish_non_exhaustive()
    }
}

impl<P: Process> Clone for WorldSnapshot<P> {
    fn clone(&self) -> WorldSnapshot<P> {
        WorldSnapshot {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<P> WorldSnapshot<P>
where
    P: Process + Clone,
    P::Msg: Clone,
{
    /// Cuts a runnable fork from the snapshot, rebasing all *future*
    /// randomness on `seed` — the copy-on-write equivalent of
    /// [`World::fork`] on the snapshotted world.
    ///
    /// The fork is detached (no trace, no telemetry) like any fork. When
    /// it retires through [`World::into_report`] or [`World::retire`], its
    /// round-scratch buffers return to this snapshot's pool for the next
    /// fork to re-use.
    #[must_use]
    pub fn fork(&self, seed: u64) -> World<P> {
        let inner = &*self.inner;
        World {
            cfg: Arc::clone(&inner.cfg),
            round: inner.round,
            phase: inner.phase,
            slots: inner.slots.clone(),
            outboxes: inner.outboxes.clone(),
            budget: inner.budget,
            metrics: inner.metrics.clone(),
            trace: Trace::disabled(),
            telemetry: Telemetry::off(),
            seed,
            alive: inner.alive.clone(),
            scratch: inner.scratch.take(inner.cfg.n()),
            scratch_home: Some(Arc::clone(&inner.scratch)),
        }
    }

    /// System size `n` of the snapshotted world.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inner.cfg.n()
    }

    /// The round the snapshotted world was paused at.
    #[must_use]
    pub fn round(&self) -> Round {
        self.inner.round
    }

    /// Scratch buffers currently parked in the snapshot's recycling pool.
    #[must_use]
    pub fn pooled_scratches(&self) -> usize {
        self.inner
            .scratch
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// Pops a cleared, width-`n` allowed-mask plane from the pool, or makes one.
fn take_mask(pool: &mut Vec<BitPlane>, n: usize) -> BitPlane {
    pool.pop().unwrap_or_else(|| BitPlane::new(n))
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
    use crate::testing::{CountDown, Echo};
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
            DeliveryFilter::To(vec![ProcessId::new(2)]),
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
