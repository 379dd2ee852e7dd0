//! The round-synchronous execution engine.
//!
//! Each round proceeds exactly as in the paper's model (§2):
//!
//! 1. the adversary injects packets (into switched-on or -off stations
//!    alike), limited by its leaky-bucket type `(ρ, β)`;
//! 2. the set of switched-on stations is determined — by the precomputed
//!    schedule for energy-oblivious algorithms, by the stations' own wake-up
//!    timers otherwise;
//! 3. every switched-on station either transmits a message or listens;
//! 4. the channel resolves: one transmitter → the message is heard by all
//!    switched-on stations; two or more → collision; none → silence;
//! 5. a heard packet is removed from the transmitter's queue; if its
//!    destination is switched on it is consumed (delivered); otherwise one
//!    switched-on station may adopt it, becoming its relay;
//! 6. metrics and invariants are updated.
//!
//! The engine owns all queues, so packet custody — every packet delivered
//! exactly once, never duplicated, never silently dropped — is verified
//! centrally rather than trusted to the algorithms.

use crate::bitset::BitSet;
use crate::config::SimConfig;
use crate::faults::{FaultPlan, RoundFaults};
use crate::hooks::SimHooks;
use crate::message::Message;
use crate::metrics::{Metrics, QueueSample};
use crate::packet::{Injection, Packet, PacketId, Round, StationId};
use crate::protocol::{
    Action, Adversary, AlgorithmClass, BuiltAlgorithm, Effects, EnqueueOrigin, Feedback, Protocol,
    ProtocolCtx, SystemView, Wake, WakeMode,
};
use crate::queue::{IndexedQueue, QueuedPacket};
use crate::rate::LeakyBucket;
use crate::schedule::ScheduleTable;
use crate::trace::{ChannelEvent, PacketOutcome, RoundTrace, Trace};
use crate::validate::Violations;

/// Adaptive on/off state of one station.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Power {
    On,
    OffUntil(Round),
}

/// The schedule clock: the current round's position in the schedule's
/// period, advanced by one comparison per round instead of a division.
/// Handed to protocols as [`ProtocolCtx::phase`] and
/// [`ProtocolCtx::cycle`], and the row index of the [`ScheduleTable`].
#[derive(Clone, Copy, Debug)]
struct ScheduleClock {
    /// The schedule's period; `u64::MAX` without one, so `phase` tracks
    /// the round and `cycle` stays 0.
    period: u64,
    phase: Round,
    cycle: u64,
}

impl ScheduleClock {
    fn new(period: Option<u64>) -> Self {
        Self { period: period.unwrap_or(u64::MAX), phase: 0, cycle: 0 }
    }

    /// Move to the next round.
    #[inline]
    fn advance(&mut self) {
        self.phase += 1;
        if self.phase == self.period {
            self.phase = 0;
            self.cycle += 1;
        }
    }

    /// Move `rounds` rounds ahead on a clock without a period, whose phase
    /// is the round.
    fn skip(&mut self, rounds: u64) {
        debug_assert_eq!(self.period, u64::MAX, "only a clock without a period skips");
        self.phase += rounds;
    }
}

struct HeardInfo {
    packet: Packet,
    sender: StationId,
    delivered: bool,
    adopted_by: Option<StationId>,
}

/// A complete simulated system: channel, stations, algorithm, adversary.
pub struct Simulator {
    cfg: SimConfig,
    name: String,
    class: AlgorithmClass,
    wake: WakeMode,
    protocols: Vec<Box<dyn Protocol>>,
    queues: Vec<IndexedQueue>,
    power: Vec<Power>,
    adversary: Box<dyn Adversary>,
    bucket: LeakyBucket,
    injections_on: bool,
    round: Round,
    clock: ScheduleClock,
    /// Next round to sample the queue series (round 0, then every
    /// `cfg.sample_every` — a running mark instead of a per-round modulo).
    next_sample: Round,
    next_packet_id: u64,
    metrics: Metrics,
    violations: Violations,
    /// Phase counters for the observability seam (see [`crate::hooks`]).
    /// Plain integer adds, never read by the round loop, never digested.
    hooks: SimHooks,
    // adversary view state
    prev_awake: BitSet,
    on_counts: Vec<u64>,
    last_on: Vec<Option<Round>>,
    queue_sizes: Vec<usize>,
    awake_mask: BitSet,
    /// One period of the schedule, expanded into packed rows at
    /// construction (`None` for adaptive algorithms, aperiodic schedules,
    /// and periods over the table budget — those enumerate per round).
    cache: Option<ScheduleTable>,
    /// Deterministic fault injector (`None` for fault-free runs, which take
    /// no fault branches at all — their executions are byte-identical to
    /// builds without this field).
    faults: Option<FaultPlan>,
    // per-round scratch buffers, reused so the steady-state round loop
    // performs no heap allocation
    awake: Vec<StationId>,
    /// Handed to every `on_feedback` call: `adopt` is reset before each
    /// call and `flags` is left empty after it, so its capacity is reused.
    effects: Effects,
    plan: Vec<Injection>,
    trace: Option<Trace>,
    traced_injections: Vec<(StationId, StationId)>,
}

impl Simulator {
    /// Build a simulator from a configuration, a built algorithm, and an
    /// adversary. Panics if the algorithm's shape is inconsistent with the
    /// configuration (wrong station count, oblivious class without a
    /// schedule).
    pub fn new(cfg: SimConfig, algorithm: BuiltAlgorithm, adversary: Box<dyn Adversary>) -> Self {
        let BuiltAlgorithm { name, mut protocols, wake, class } = algorithm;
        assert_eq!(
            protocols.len(),
            cfg.n,
            "algorithm built {} protocols for a system of {} stations",
            protocols.len(),
            cfg.n
        );
        if class.oblivious {
            assert!(
                matches!(wake, WakeMode::Scheduled(_)),
                "an energy-oblivious algorithm must provide a precomputed schedule"
            );
        }
        let n = cfg.n;
        let mut power = vec![Power::On; n];
        if matches!(wake, WakeMode::Adaptive) {
            for (s, proto) in protocols.iter_mut().enumerate() {
                let ctx = ProtocolCtx { id: s, n, cap: cfg.cap, round: 0, phase: 0, cycle: 0 };
                power[s] = match proto.first_wake(&ctx) {
                    Wake::Stay => Power::On,
                    Wake::At(r) => Power::OffUntil(r),
                };
            }
        }
        let bucket = LeakyBucket::new(cfg.rho, cfg.beta);
        let (cache, period) = match &wake {
            WakeMode::Scheduled(s) => (ScheduleTable::build(s.as_ref(), n), s.period()),
            WakeMode::Adaptive => (None, None),
        };
        let faults = cfg.faults.as_ref().filter(|f| !f.is_noop()).map(|f| FaultPlan::new(f, n));
        Self {
            name,
            class,
            wake,
            protocols,
            queues: (0..n).map(|_| IndexedQueue::new(n)).collect(),
            power,
            adversary,
            bucket,
            injections_on: true,
            round: 0,
            clock: ScheduleClock::new(period),
            next_sample: 0,
            next_packet_id: 0,
            metrics: Metrics::sized(n),
            violations: Violations::default(),
            hooks: SimHooks::default(),
            prev_awake: BitSet::new(n),
            on_counts: vec![0; n],
            last_on: vec![None; n],
            queue_sizes: vec![0; n],
            awake_mask: BitSet::new(n),
            cache,
            faults,
            awake: Vec::with_capacity(n),
            effects: Effects::default(),
            plan: Vec::new(),
            trace: None,
            traced_injections: Vec::new(),
            cfg,
        }
    }

    /// Keep a ring buffer of the last `capacity` rounds for debugging; see
    /// [`crate::trace`].
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The execution trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Run `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        self.reserve_series(rounds);
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Pre-size the queue series so sampling never reallocates mid-run.
    fn reserve_series(&mut self, rounds: u64) {
        let samples = rounds / self.cfg.sample_every + 2;
        self.metrics.queue_series.reserve(samples as usize);
    }

    /// Execute a single round.
    pub fn step(&mut self) {
        let r = self.round;
        let n = self.cfg.n;

        // 0. Fault roll. The fault stream is seeded from the fault spec, not
        // the run's seed, so runs that differ only in seed draw the
        // identical fault schedule. A fresh crash onset is processed before
        // injection: with loss semantics the station's queue empties now,
        // and packets injected this very round land in the (empty) queue of
        // the dark station.
        let faults: Option<RoundFaults> = self.faults.as_mut().map(|p| p.roll(r, n));
        self.hooks.fault_rounds += u64::from(faults.is_some());
        if let Some(crashed) = faults.as_ref().and_then(|f| f.crash) {
            self.metrics.crashes += 1;
            let retain = self.faults.as_ref().is_none_or(|p| p.retain_queue());
            if !retain {
                let dropped = self.queues[crashed].len() as u64;
                while let Some(h) = self.queues[crashed].oldest().map(QueuedPacket::handle) {
                    self.queues[crashed].remove(h);
                }
                self.queue_sizes[crashed] = 0;
                self.metrics.total_queued -= dropped;
            }
        }

        // 1. Adversarial injection (planned into a reused scratch buffer,
        // so injecting rounds stay allocation-free in steady state).
        // `queue_sizes` is maintained incrementally at every push/removal,
        // so the view costs no per-round rebuild.
        if self.injections_on {
            let budget = self.bucket.refill();
            let view = SystemView {
                round: r,
                n,
                queue_sizes: &self.queue_sizes,
                prev_awake: &self.prev_awake,
                on_counts: &self.on_counts,
                last_on: &self.last_on,
            };
            self.adversary.plan_into(r, budget, &view, &mut self.plan);
            self.plan.truncate(budget);
            self.bucket.debit(self.plan.len());
            if self.trace.is_some() {
                self.traced_injections = self.plan.iter().map(|i| (i.station, i.dest)).collect();
            }
            for i in 0..self.plan.len() {
                self.inject(self.plan[i], r);
            }
        }

        // 2. Wake-set determination, into the reusable scratch buffers. For
        // cached periodic schedules this is a packed row copy; otherwise
        // the schedule (or the stations' timers) enumerates, and the mask
        // is rebuilt bit by bit.
        let wake_faulted = self.faults.as_ref().is_some_and(|p| p.affects_wake());
        if wake_faulted {
            // Crash and skew change the wake set per station, so the
            // packed cache is bypassed: every station is evaluated
            // against its own (possibly offset) clock, and dark
            // stations are dropped. Adaptive timers still expire while
            // a station is dark — it resumes with its pre-crash power
            // state when the outage ends.
            let plan = self.faults.as_ref().expect("wake-faulted plan");
            self.hooks.wake_enum_rounds += 1;
            self.awake.clear();
            self.awake_mask.clear();
            for s in 0..n {
                if let Power::OffUntil(w) = self.power[s] {
                    if w <= r {
                        self.power[s] = Power::On;
                    }
                }
                let on = match &self.wake {
                    WakeMode::Scheduled(sch) => sch.is_on(s, r.saturating_add(plan.skew_of(s))),
                    WakeMode::Adaptive => self.power[s] == Power::On,
                };
                if on && !plan.is_crashed(s, r) {
                    self.awake.push(s);
                    self.awake_mask.insert(s);
                }
            }
        } else {
            match (&self.cache, &self.wake) {
                (Some(table), _) => {
                    self.hooks.wake_table_rounds += 1;
                    table.fill(self.clock.phase, &mut self.awake_mask, &mut self.awake)
                }
                (None, WakeMode::Scheduled(s)) => {
                    self.hooks.wake_enum_rounds += 1;
                    s.on_set_into(n, r, &mut self.awake);
                    self.awake_mask.clear();
                    for &s in &self.awake {
                        self.awake_mask.insert(s);
                    }
                }
                (None, WakeMode::Adaptive) => {
                    self.hooks.wake_enum_rounds += 1;
                    self.awake.clear();
                    self.awake_mask.clear();
                    for s in 0..n {
                        if let Power::OffUntil(w) = self.power[s] {
                            if w <= r {
                                self.power[s] = Power::On;
                            }
                        }
                        if self.power[s] == Power::On {
                            self.awake.push(s);
                            self.awake_mask.insert(s);
                        }
                    }
                }
            }
        }
        let awake_count = self.awake.len();
        if awake_count > self.cfg.cap {
            self.violations.cap_exceeded += 1;
        }
        self.metrics.energy_total += awake_count as u64;
        self.metrics.max_awake = self.metrics.max_awake.max(awake_count);

        // 3. Actions, in the same pass as the adversary's view of who is
        // on. Only a lone transmitter's message is ever heard, so the
        // channel keeps the first one and counts the rest.
        let mut ctx = self.ctx(0);
        let mut transmitters = 0usize;
        let mut sent: Option<(StationId, Message)> = None;
        for &s in &self.awake {
            self.on_counts[s] += 1;
            self.last_on[s] = Some(r);
            ctx.id = s;
            if let Action::Transmit(m) = self.protocols[s].act(&ctx, &self.queues[s]) {
                if transmitters == 0 {
                    sent = Some((s, m));
                }
                transmitters += 1;
            }
        }

        // 4. Channel resolution. A jammed slot is corrupted no matter what
        // was sent: nothing is heard, no packet leaves its sender's queue
        // (the algorithm retries it from feedback, exactly as after a real
        // collision), and every switched-on station observes `Collision`.
        // Jamming is channel noise, not an algorithm error, so it counts
        // toward `jammed_rounds` only — never `violations.collisions` — and
        // protocol flags raised against the corrupted feedback are
        // suppressed below.
        let jammed = faults.as_ref().is_some_and(|f| f.jammed);
        let mut heard: Option<HeardInfo> = None;
        let mut message_sender: Option<StationId> = None;
        let heard_message: Option<Message> = if jammed {
            self.metrics.jammed_rounds += 1;
            None
        } else {
            match transmitters {
                0 => {
                    self.metrics.silent_rounds += 1;
                    None
                }
                1 => {
                    let (sender, mut msg) = sent.expect("one transmission");
                    message_sender = Some(sender);
                    if self.class.plain_packet && (msg.packet.is_none() || !msg.control.is_empty())
                    {
                        self.violations.plain_packet += 1;
                    }
                    // Custody: the heard packet leaves its sender's queue,
                    // which must hold it. One probe of the slot the
                    // message's handle names: the slot must be live and
                    // hold the handle's `seq` and the packet's id, so a
                    // stale or foreign handle is a custody violation and
                    // nothing is delivered.
                    if let Some(p) = msg.packet {
                        let queue = &mut self.queues[sender];
                        if queue.get(msg.handle).is_some_and(|qp| qp.packet.id == p.id) {
                            queue.remove(msg.handle);
                        } else {
                            self.violations.custody += 1;
                            msg.packet = None;
                        }
                    }
                    self.metrics.control_bits_total += msg.control.len() as u64;
                    self.metrics.control_bits_max =
                        self.metrics.control_bits_max.max(msg.control.len());
                    if let Some(p) = msg.packet {
                        self.metrics.packet_rounds += 1;
                        self.queue_sizes[sender] -= 1;
                        self.metrics.total_queued -= 1;
                        let delivered = self.awake_mask.contains(p.dest);
                        if delivered {
                            self.metrics.delivered += 1;
                            self.metrics.delivered_per_dest[p.dest] += 1;
                            self.metrics.delay.record(r - p.injected_round);
                        }
                        heard = Some(HeardInfo { packet: p, sender, delivered, adopted_by: None });
                    } else {
                        self.metrics.light_rounds += 1;
                    }
                    Some(msg)
                }
                _ => {
                    self.metrics.collision_rounds += 1;
                    self.violations.collisions += 1;
                    None
                }
            }
        };
        let collided = jammed || transmitters > 1;

        // 5. Feedback, adoption, sleep decisions. Every switched-on station
        // observes the same channel outcome — except a deaf station, which
        // misses this round's feedback and hears silence instead. Flags a
        // station raises against fault-corrupted feedback (any station in a
        // jammed round, the deaf station on its deaf round) are environment
        // noise and suppressed; downstream consequences (a packet lost
        // because its would-be adopter was deaf, say) remain visible.
        let fb = match (&heard_message, collided) {
            (_, true) => Feedback::Collision,
            (Some(m), false) => Feedback::Heard(m),
            (None, false) => Feedback::Silence,
        };
        let deaf = faults.as_ref().and_then(|f| f.deaf).filter(|&d| self.awake_mask.contains(d));
        if deaf.is_some() {
            self.metrics.deaf_rounds += 1;
        }
        let adaptive = matches!(self.wake, WakeMode::Adaptive);
        for i in 0..awake_count {
            let s = self.awake[i];
            ctx.id = s;
            self.effects.adopt = false;
            let fb_s = if deaf == Some(s) { Feedback::Silence } else { fb };
            let wake =
                self.protocols[s].on_feedback(&ctx, &self.queues[s], fb_s, &mut self.effects);
            if !self.effects.flags.is_empty() {
                if jammed || deaf == Some(s) {
                    self.effects.flags.clear();
                } else {
                    for reason in self.effects.flags.drain(..) {
                        self.violations.flag(r, s, reason);
                    }
                }
            }
            if self.effects.adopt {
                self.handle_adoption(s, r, &mut heard);
            }
            if adaptive {
                match wake {
                    Wake::Stay => self.power[s] = Power::On,
                    Wake::At(w) => {
                        debug_assert!(w > r, "station {s} set a wake-up in the past");
                        self.power[s] = Power::OffUntil(w.max(r + 1));
                    }
                }
            }
        }
        if let Some(h) = &heard {
            if !h.delivered && h.adopted_by.is_none() {
                self.violations.packets_lost += 1;
            }
        }

        if self.trace.is_some() {
            let event = if jammed {
                ChannelEvent::Jammed { transmitters }
            } else {
                match (&heard, &heard_message, collided) {
                    (_, _, true) => ChannelEvent::Collision { transmitters },
                    (Some(h), _, false) => ChannelEvent::Packet {
                        sender: h.sender,
                        packet: h.packet.id,
                        dest: h.packet.dest,
                        outcome: if h.delivered {
                            PacketOutcome::Delivered
                        } else if let Some(by) = h.adopted_by {
                            PacketOutcome::Adopted(by)
                        } else {
                            PacketOutcome::Lost
                        },
                    },
                    (None, Some(m), false) => ChannelEvent::Light {
                        sender: message_sender.unwrap_or_default(),
                        control_bits: m.control.len(),
                    },
                    (None, None, false) => ChannelEvent::Silence,
                }
            };
            let injections = std::mem::take(&mut self.traced_injections);
            if let Some(trace) = self.trace.as_mut() {
                trace.push(RoundTrace { round: r, awake: self.awake.to_vec(), injections, event });
            }
        }

        // 6. Metrics.
        self.hooks.rounds += 1;
        self.hooks.feedback_calls += awake_count as u64;
        self.metrics.rounds += 1;
        self.metrics.max_total_queued =
            self.metrics.max_total_queued.max(self.metrics.total_queued);
        if r == self.next_sample {
            self.metrics
                .queue_series
                .push(QueueSample { round: r, total_queued: self.metrics.total_queued });
            self.next_sample = r.saturating_add(self.cfg.sample_every);
        }
        self.prev_awake.copy_from(&self.awake_mask);
        self.round += 1;
        self.clock.advance();
    }

    /// What station `id` observes in the current round.
    #[inline]
    fn ctx(&self, id: StationId) -> ProtocolCtx {
        ProtocolCtx {
            id,
            n: self.cfg.n,
            cap: self.cfg.cap,
            round: self.round,
            phase: self.clock.phase,
            cycle: self.clock.cycle,
        }
    }

    fn handle_adoption(&mut self, s: StationId, r: Round, heard: &mut Option<HeardInfo>) {
        match heard {
            Some(h) if h.delivered => self.violations.adopt_after_delivery += 1,
            Some(h) if h.adopted_by.is_some() => self.violations.double_adoption += 1,
            Some(h) => {
                h.adopted_by = Some(s);
                if self.class.direct {
                    self.violations.direct_violated += 1;
                }
                let qp = self.queues[s].push(h.packet, r);
                self.queue_sizes[s] += 1;
                self.metrics.total_queued += 1;
                self.metrics.adoptions += 1;
                self.metrics.max_station_queued =
                    self.metrics.max_station_queued.max(self.queues[s].len() as u64);
                let ctx = self.ctx(s);
                self.protocols[s].on_enqueued(&ctx, &qp, EnqueueOrigin::Adopted);
                let _ = h.sender; // sender identity retained for diagnostics
            }
            None => self.violations.adopt_nothing += 1,
        }
    }

    fn inject(&mut self, inj: Injection, r: Round) {
        assert!(inj.station < self.cfg.n && inj.dest < self.cfg.n, "injection out of range");
        if inj.station == inj.dest {
            // A packet injected into its own destination is consumed
            // immediately with delay 0 (`tests::self_addressed_packet_consumed_instantly`).
            self.metrics.self_delivered += 1;
            return;
        }
        let packet = Packet {
            id: PacketId(self.next_packet_id),
            dest: inj.dest,
            injected_round: r,
            origin: inj.station,
        };
        self.next_packet_id += 1;
        let qp = self.queues[inj.station].push(packet, r);
        self.queue_sizes[inj.station] += 1;
        self.metrics.injected += 1;
        self.metrics.injected_per_station[inj.station] += 1;
        self.metrics.total_queued += 1;
        self.metrics.max_station_queued =
            self.metrics.max_station_queued.max(self.queues[inj.station].len() as u64);
        let ctx = self.ctx(inj.station);
        self.protocols[inj.station].on_enqueued(&ctx, &qp, EnqueueOrigin::Injected);
    }

    /// Enable or disable adversarial injections (disabling lets executions
    /// drain, which is how liveness is tested).
    pub fn set_injections(&mut self, on: bool) {
        self.injections_on = on;
    }

    /// Run up to `rounds` rounds, stopping early once the total queued
    /// packets exceed `queue_cap`. Returns whether the cap tripped — the
    /// verdict-probe API for stability-boundary searches: an execution
    /// above its stability boundary grows linearly and trips the cap in a
    /// fraction of the full horizon, so a bisection probe pays the full
    /// `rounds` cost only on the stable side. The early exit is a pure
    /// function of the execution (checked after every round), so probe
    /// outcomes are as deterministic as [`Simulator::run`].
    pub fn run_probe(&mut self, rounds: u64, queue_cap: u64) -> bool {
        self.run_probe_round(rounds, queue_cap).is_some()
    }

    /// Like [`Simulator::run_probe`], but report *when* the cap tripped:
    /// `Some(r)` is the round whose step pushed the total queue past
    /// `queue_cap` (the last round executed), `None` means the probe ran
    /// the full horizon without tripping.
    pub fn run_probe_round(&mut self, rounds: u64, queue_cap: u64) -> Option<u64> {
        self.reserve_series(rounds);
        for _ in 0..rounds {
            self.step();
            if self.metrics.total_queued > queue_cap {
                return Some(self.round - 1);
            }
        }
        None
    }

    /// Disable injections and run until every queue is empty or `max_rounds`
    /// more rounds have elapsed. Returns whether the system drained.
    ///
    /// The drain fast-forwards where nothing can happen. Under adaptive
    /// wake, with no fault plan and no trace ring armed, a stretch of
    /// rounds in which every station's wake-up timer lies ahead is passed
    /// over in one jump, to the earliest wake-up or the end of the budget.
    /// Such a round injects nothing, wakes nobody and is silent, so the
    /// jump adds exactly what stepping it would: the round and
    /// silent-round counts, the queue-series samples due in it, the clock
    /// and empty awake sets. [`SimHooks::skipped_rounds`] counts the rounds
    /// jumped over; they count toward [`SimHooks::rounds`] too, but not
    /// toward `wake_enum_rounds`.
    pub fn run_until_drained(&mut self, max_rounds: u64) -> bool {
        self.set_injections(false);
        self.reserve_series(max_rounds);
        let mut left = max_rounds;
        while left > 0 && self.metrics.total_queued > 0 {
            match self.asleep_rounds(left) {
                0 => {
                    self.step();
                    left -= 1;
                }
                rounds => {
                    self.skip_asleep(rounds);
                    left -= rounds;
                }
            }
        }
        self.metrics.total_queued == 0
    }

    /// How many rounds of a drain from the current one, up to `budget`,
    /// no station can wake in: 0 unless wake is adaptive, no fault plan or
    /// trace ring is armed, and every station's timer lies past the
    /// current round.
    fn asleep_rounds(&self, budget: u64) -> u64 {
        debug_assert!(!self.injections_on, "only a drain skips rounds");
        if self.faults.is_some() || self.trace.is_some() || !matches!(self.wake, WakeMode::Adaptive)
        {
            return 0;
        }
        let mut wake = u64::MAX;
        for &power in &self.power {
            match power {
                Power::On => return 0,
                Power::OffUntil(w) => wake = wake.min(w),
            }
        }
        wake.saturating_sub(self.round).min(budget)
    }

    /// Pass over `rounds` rounds that [`Simulator::asleep_rounds`] found
    /// empty, adding what stepping each would have added.
    fn skip_asleep(&mut self, rounds: u64) {
        let end = self.round + rounds;
        self.hooks.rounds += rounds;
        self.hooks.skipped_rounds += rounds;
        self.metrics.rounds += rounds;
        self.metrics.silent_rounds += rounds;
        self.metrics.max_total_queued =
            self.metrics.max_total_queued.max(self.metrics.total_queued);
        while self.next_sample < end {
            self.metrics.queue_series.push(QueueSample {
                round: self.next_sample,
                total_queued: self.metrics.total_queued,
            });
            self.next_sample = self.next_sample.saturating_add(self.cfg.sample_every);
        }
        self.awake.clear();
        self.awake_mask.clear();
        self.prev_awake.clear();
        self.round = end;
        self.clock.skip(rounds);
    }

    /// Current round (the next one to execute).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Phase counters collected so far (see [`crate::hooks`]); telemetry
    /// only, never folded into report digests.
    pub fn hooks(&self) -> &SimHooks {
        &self.hooks
    }

    /// Invariant violations recorded so far.
    pub fn violations(&self) -> &Violations {
        &self.violations
    }

    /// Name of the running algorithm.
    pub fn algorithm_name(&self) -> &str {
        &self.name
    }

    /// Declared class of the running algorithm.
    pub fn class(&self) -> AlgorithmClass {
        self.class
    }

    /// The configuration this simulator runs under.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Total packets currently queued across all stations.
    pub fn total_queued(&self) -> u64 {
        self.metrics.total_queued
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ControlBits;
    use crate::protocol::OnSchedule;
    use crate::rate::Rate;

    /// Round-robin transmitter: station `r mod n` transmits its oldest
    /// packet (if any) in round `r`; everyone is always on.
    struct Rr;
    impl Protocol for Rr {
        fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            if ctx.round as usize % ctx.n == ctx.id {
                if let Some(qp) = queue.oldest() {
                    return Action::Transmit(Message::plain(qp));
                }
            }
            Action::Listen
        }
        fn on_feedback(
            &mut self,
            _ctx: &ProtocolCtx,
            _queue: &IndexedQueue,
            _fb: Feedback<'_>,
            _effects: &mut Effects,
        ) -> Wake {
            Wake::Stay
        }
    }

    struct OneShot {
        station: StationId,
        dest: StationId,
        fired: bool,
    }
    impl Adversary for OneShot {
        fn plan(&mut self, _r: Round, budget: usize, _v: &SystemView<'_>) -> Vec<Injection> {
            if self.fired || budget == 0 {
                return vec![];
            }
            self.fired = true;
            vec![Injection::new(self.station, self.dest)]
        }
    }

    fn rr_system(n: usize) -> BuiltAlgorithm {
        BuiltAlgorithm {
            name: "rr-test".into(),
            protocols: (0..n).map(|_| Box::new(Rr) as Box<dyn Protocol>).collect(),
            wake: WakeMode::Adaptive,
            class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
        }
    }

    #[test]
    fn single_packet_is_delivered() {
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::one(), Rate::integer(1));
        let adv = Box::new(OneShot { station: 1, dest: 3, fired: false });
        let mut sim = Simulator::new(cfg, rr_system(4), adv);
        sim.run(8);
        assert_eq!(sim.metrics().injected, 1);
        assert_eq!(sim.metrics().delivered, 1);
        assert_eq!(sim.total_queued(), 0);
        assert!(sim.violations().is_clean());
        // injected at round 0 into station 1; station 1 transmits at round 1.
        assert_eq!(sim.metrics().delay.max(), 1);
    }

    #[test]
    fn self_addressed_packet_consumed_instantly() {
        let cfg = SimConfig::new(4, 4);
        let adv = Box::new(OneShot { station: 2, dest: 2, fired: false });
        let mut sim = Simulator::new(cfg, rr_system(4), adv);
        sim.run(4);
        assert_eq!(sim.metrics().self_delivered, 1);
        assert_eq!(sim.metrics().injected, 0);
    }

    /// Concentrates the whole budget into station 0 (destination 1).
    struct FloodZero;
    impl Adversary for FloodZero {
        fn plan(&mut self, _r: Round, budget: usize, _v: &SystemView<'_>) -> Vec<Injection> {
            (0..budget).map(|_| Injection::new(0, 1)).collect()
        }
    }

    #[test]
    fn run_probe_trips_on_divergence_and_completes_when_stable() {
        // rho = 1 into one station served once every 4 rounds: the queue
        // grows at 3/4 packet per round and trips a cap of 30 long before
        // the 10 000-round horizon.
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::one(), Rate::integer(1));
        let mut sim = Simulator::new(cfg, rr_system(4), Box::new(FloodZero));
        assert!(sim.run_probe(10_000, 30), "diverging probe must trip");
        let tripped_at = sim.round();
        assert!(tripped_at < 1_000, "tripped at round {tripped_at}, expected early");
        assert!(sim.total_queued() > 30);

        // The same execution with an unreachable cap runs the full horizon
        // and reports no trip.
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::new(1, 8), Rate::integer(1));
        let adv = Box::new(OneShot { station: 1, dest: 3, fired: false });
        let mut sim = Simulator::new(cfg, rr_system(4), adv);
        assert!(!sim.run_probe(64, 1_000), "stable probe must not trip");
        assert_eq!(sim.round(), 64);
    }

    #[test]
    fn cap_violation_detected() {
        // Everyone always on with cap 2 and n = 4 -> violation every round.
        let cfg = SimConfig::new(4, 2);
        let mut sim = Simulator::new(cfg, rr_system(4), Box::new(NoInjections));
        sim.run(5);
        assert_eq!(sim.violations().cap_exceeded, 5);
    }
    use crate::protocol::NoInjections;

    /// Two stations that both transmit every round: collision.
    struct AlwaysTransmitLight;
    impl Protocol for AlwaysTransmitLight {
        fn act(&mut self, _ctx: &ProtocolCtx, _q: &IndexedQueue) -> Action {
            Action::Transmit(Message::light(ControlBits::new()))
        }
        fn on_feedback(
            &mut self,
            _ctx: &ProtocolCtx,
            _q: &IndexedQueue,
            fb: Feedback<'_>,
            effects: &mut Effects,
        ) -> Wake {
            if !matches!(fb, Feedback::Collision) {
                effects.flag("expected collision");
            }
            Wake::Stay
        }
    }

    #[test]
    fn collisions_are_counted_and_fed_back() {
        let built = BuiltAlgorithm {
            name: "colliders".into(),
            protocols: vec![Box::new(AlwaysTransmitLight), Box::new(AlwaysTransmitLight)],
            wake: WakeMode::Adaptive,
            class: AlgorithmClass { oblivious: false, plain_packet: false, direct: true },
        };
        let mut sim = Simulator::new(SimConfig::new(2, 2), built, Box::new(NoInjections));
        sim.run(3);
        assert_eq!(sim.violations().collisions, 3);
        assert_eq!(sim.metrics().collision_rounds, 3);
        // the protocols saw Collision feedback, so no "expected collision" flags
        assert!(sim.violations().protocol_flags.is_empty());
    }

    /// Transmitter that sends to an off destination with nobody adopting.
    struct LossyPair;
    impl Protocol for LossyPair {
        fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
            // station 2 (the destination) never switches on
            if ctx.id == 2 {
                Wake::At(u64::MAX)
            } else {
                Wake::Stay
            }
        }
        fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            if ctx.id == 0 {
                if let Some(qp) = queue.oldest() {
                    return Action::Transmit(Message::plain(qp));
                }
            }
            Action::Listen
        }
        fn on_feedback(
            &mut self,
            _ctx: &ProtocolCtx,
            _q: &IndexedQueue,
            _fb: Feedback<'_>,
            _e: &mut Effects,
        ) -> Wake {
            Wake::Stay
        }
    }

    #[test]
    fn lost_packet_detected() {
        let built = BuiltAlgorithm {
            name: "lossy".into(),
            protocols: (0..3).map(|_| Box::new(LossyPair) as Box<dyn Protocol>).collect(),
            wake: WakeMode::Adaptive,
            class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
        };
        let cfg = SimConfig::new(3, 3);
        let adv = Box::new(OneShot { station: 0, dest: 2, fired: false });
        let mut sim = Simulator::new(cfg, built, adv);
        sim.run(3);
        // packet transmitted while station 2 is asleep, nobody adopts -> lost
        assert_eq!(sim.violations().packets_lost, 1);
        assert_eq!(sim.metrics().delivered, 0);
    }

    /// Adopting relay: station 1 adopts anything not delivered, then
    /// forwards it when it is its turn. Station 2 (the destination) sleeps
    /// through round 0 and wakes at round 1.
    struct Relay;
    impl Protocol for Relay {
        fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
            if ctx.id == 2 {
                Wake::At(1)
            } else {
                Wake::Stay
            }
        }
        fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            if ctx.round as usize % ctx.n == ctx.id {
                if let Some(qp) = queue.oldest() {
                    return Action::Transmit(Message::plain(qp));
                }
            }
            Action::Listen
        }
        fn on_feedback(
            &mut self,
            ctx: &ProtocolCtx,
            _q: &IndexedQueue,
            fb: Feedback<'_>,
            effects: &mut Effects,
        ) -> Wake {
            let my_turn = ctx.round as usize % ctx.n == ctx.id;
            if ctx.id == 1 && !my_turn {
                if let Feedback::Heard(m) = fb {
                    if let Some(p) = m.packet {
                        if p.dest != ctx.id {
                            effects.adopt_heard();
                        }
                    }
                }
            }
            Wake::Stay
        }
    }

    #[test]
    fn adoption_and_relay_delivery() {
        let built = BuiltAlgorithm {
            name: "relay".into(),
            protocols: (0..3).map(|_| Box::new(Relay) as Box<dyn Protocol>).collect(),
            wake: WakeMode::Adaptive,
            class: AlgorithmClass { oblivious: false, plain_packet: true, direct: false },
        };
        let cfg = SimConfig::new(3, 3);
        let adv = Box::new(OneShot { station: 0, dest: 2, fired: false });
        let mut sim = Simulator::new(cfg, built, adv);
        // round 0: station 0 transmits to sleeping station 2; station 1 adopts.
        // round 1: station 1 relays; station 2 is awake -> delivered, delay 1.
        sim.run(2);
        assert_eq!(sim.metrics().adoptions, 1);
        assert_eq!(sim.metrics().delivered, 1);
        assert_eq!(sim.metrics().delay.max(), 1);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn drain_api_runs_to_empty() {
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::new(1, 2), Rate::integer(2));
        struct Flood;
        impl Adversary for Flood {
            fn plan(&mut self, r: Round, budget: usize, _v: &SystemView<'_>) -> Vec<Injection> {
                (0..budget).map(|i| Injection::new((r as usize + i) % 3, 3)).collect()
            }
        }
        let mut sim = Simulator::new(cfg, rr_system(4), Box::new(Flood));
        sim.run(100);
        assert!(sim.metrics().injected > 20);
        assert!(sim.run_until_drained(1000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
        assert!(sim.violations().is_clean());
    }

    #[test]
    fn plain_packet_violation_flagged() {
        // Class says plain-packet but the protocol sends light messages.
        let built = BuiltAlgorithm {
            name: "pp-violator".into(),
            protocols: vec![Box::new(AlwaysTransmitLight), Box::new(AlwaysListen)],
            wake: WakeMode::Adaptive,
            class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
        };
        let mut sim = Simulator::new(SimConfig::new(2, 2), built, Box::new(NoInjections));
        sim.run(2);
        assert_eq!(sim.violations().plain_packet, 2);
    }
    use crate::protocol::AlwaysListen;

    #[test]
    fn trace_records_rounds() {
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::one(), Rate::integer(1));
        let adv = Box::new(OneShot { station: 1, dest: 3, fired: false });
        let mut sim = Simulator::new(cfg, rr_system(4), adv);
        sim.enable_trace(3);
        sim.run(8);
        let trace = sim.trace().expect("enabled");
        assert_eq!(trace.len(), 3); // ring keeps the last 3 of 8
        let rounds: Vec<u64> = trace.rounds().map(|t| t.round).collect();
        assert_eq!(rounds, vec![5, 6, 7]);
        // the delivery happened at round 1, outside the kept window; all
        // kept rounds are silent with everyone on
        for rt in trace.rounds() {
            assert_eq!(rt.awake, vec![0, 1, 2, 3]);
            assert!(matches!(rt.event, crate::trace::ChannelEvent::Silence));
        }
        // a wider trace captures the delivery itself
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::one(), Rate::integer(1));
        let adv = Box::new(OneShot { station: 1, dest: 3, fired: false });
        let mut sim = Simulator::new(cfg, rr_system(4), adv);
        sim.enable_trace(16);
        sim.run(4);
        let rendered = sim.trace().expect("enabled").render();
        assert!(rendered.contains("delivered"), "{rendered}");
        assert!(rendered.contains("inj[1->3]"), "{rendered}");
    }

    /// Every station shares station 0's first packet; what each sends is
    /// scripted by round. Round 1: station 0 sends it (a fresh handle).
    /// Round 2: again, its slot freed. Round 3: station 1 sends it, and its
    /// own first packet holds the same slot and `seq`. Round 5: station 0
    /// again, after the round-4 packet reused the slot. Round 6: station
    /// 0's live handle under the first packet's id.
    struct Custodian {
        kept: std::sync::Arc<std::sync::Mutex<Option<QueuedPacket>>>,
    }

    impl Protocol for Custodian {
        fn on_enqueued(&mut self, ctx: &ProtocolCtx, qp: &QueuedPacket, _o: EnqueueOrigin) {
            if ctx.id == 0 {
                self.kept.lock().unwrap().get_or_insert(*qp);
            }
        }
        fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            let Some(first) = *self.kept.lock().unwrap() else {
                return Action::Listen;
            };
            match (ctx.id, ctx.round) {
                (0, 1 | 2 | 5) | (1, 3) => Action::Transmit(Message::plain(&first)),
                (0, 6) => {
                    let mut forged = Message::plain(queue.oldest().expect("round-4 packet"));
                    forged.packet = Some(first.packet);
                    Action::Transmit(forged)
                }
                _ => Action::Listen,
            }
        }
        fn on_feedback(
            &mut self,
            _ctx: &ProtocolCtx,
            _q: &IndexedQueue,
            _fb: Feedback<'_>,
            _e: &mut Effects,
        ) -> Wake {
            Wake::Stay
        }
    }

    #[test]
    fn stale_and_foreign_handles_are_custody_violations() {
        // Round 0 injects into stations 0 and 1, round 4 into station 0;
        // station 2, the destination, is always on.
        struct Script;
        impl Adversary for Script {
            fn plan(&mut self, r: Round, _budget: usize, _v: &SystemView<'_>) -> Vec<Injection> {
                match r {
                    0 => vec![Injection::new(0, 2), Injection::new(1, 2)],
                    4 => vec![Injection::new(0, 2)],
                    _ => vec![],
                }
            }
        }
        let kept = std::sync::Arc::default();
        let built = BuiltAlgorithm {
            name: "custodian".into(),
            protocols: (0..3)
                .map(|_| {
                    Box::new(Custodian { kept: std::sync::Arc::clone(&kept) }) as Box<dyn Protocol>
                })
                .collect(),
            wake: WakeMode::Adaptive,
            class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
        };
        let cfg = SimConfig::new(3, 3).adversary_type(Rate::one(), Rate::integer(2));
        let mut sim = Simulator::new(cfg, built, Box::new(Script));
        sim.run(2);
        assert_eq!((sim.metrics().delivered, sim.violations().custody), (1, 0), "fresh handle");
        sim.run(5);
        let v = sim.violations();
        assert_eq!(v.custody, 4, "freed, foreign, reused and forged handles: {v}");
        assert_eq!(sim.metrics().delivered, 1, "a refused handle delivers nothing");
        assert_eq!(sim.metrics().light_rounds, 4, "a refused message is heard without its packet");
        assert_eq!(sim.total_queued(), 2, "the packets the bad handles named stay queued");
        assert_eq!(sim.queues[0].len() + sim.queues[1].len(), 2);
    }

    /// Calls a [`ClockProbe`] made, per callback: `first_wake`,
    /// `on_enqueued`, `act`, `on_feedback`.
    #[derive(Default)]
    struct ClockCalls([std::sync::atomic::AtomicU64; 4]);

    impl ClockCalls {
        fn counts(&self) -> [u64; 4] {
            self.0.each_ref().map(|c| c.load(std::sync::atomic::Ordering::Relaxed))
        }
    }

    /// Checks the schedule clock in every callback: `phase == round % p`
    /// and `cycle == round / p` under a schedule of period `p`, and
    /// `phase == round`, `cycle == 0` without one. Sends its oldest packet
    /// on its turn, and the station two after a heard packet's origin
    /// adopts it, so packets enter queues both ways.
    struct ClockProbe {
        period: Option<u64>,
        calls: std::sync::Arc<ClockCalls>,
    }

    impl ClockProbe {
        fn check(&self, call: usize, ctx: &ProtocolCtx) {
            let want = match self.period {
                Some(p) => (ctx.round % p, ctx.round / p),
                None => (ctx.round, 0),
            };
            assert_eq!((ctx.phase, ctx.cycle), want, "callback {call} at round {}", ctx.round);
            self.calls.0[call].fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Protocol for ClockProbe {
        fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
            self.check(0, ctx);
            Wake::At(1 + ctx.id as u64)
        }
        fn on_enqueued(&mut self, ctx: &ProtocolCtx, _qp: &QueuedPacket, _o: EnqueueOrigin) {
            self.check(1, ctx);
        }
        fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            self.check(2, ctx);
            match queue.oldest() {
                Some(qp) if ctx.round as usize % ctx.n == ctx.id => {
                    Action::Transmit(Message::plain(qp))
                }
                _ => Action::Listen,
            }
        }
        fn on_feedback(
            &mut self,
            ctx: &ProtocolCtx,
            _q: &IndexedQueue,
            fb: Feedback<'_>,
            effects: &mut Effects,
        ) -> Wake {
            self.check(3, ctx);
            if let Feedback::Heard(Message { packet: Some(p), .. }) = fb {
                if p.dest != ctx.id && ctx.id == (p.origin + 2) % ctx.n {
                    effects.adopt_heard();
                }
            }
            Wake::sleep_for(ctx.round, ctx.id as u64 % 3)
        }
    }

    /// Station `s` is on in the rounds whose phase is `s` modulo 2 or
    /// divisible by 3: every station wakes often, and the on-set changes
    /// within the period.
    struct Periodic(u64);
    impl OnSchedule for Periodic {
        fn is_on(&self, station: StationId, round: Round) -> bool {
            let phase = round % self.0;
            phase % 2 == station as u64 % 2 || phase.is_multiple_of(3)
        }
        fn period(&self) -> Option<u64> {
            Some(self.0)
        }
    }

    /// Run `rounds` of a [`ClockProbe`] system under `wake` and return
    /// the simulator and the calls it made.
    fn run_clock_probe(
        n: usize,
        wake: WakeMode,
        period: Option<u64>,
        faults: Option<crate::faults::FaultSpec>,
        rounds: u64,
    ) -> (Simulator, [u64; 4]) {
        let calls = std::sync::Arc::new(ClockCalls::default());
        let built = BuiltAlgorithm {
            name: "clock-probe".into(),
            protocols: (0..n)
                .map(|_| {
                    let calls = std::sync::Arc::clone(&calls);
                    Box::new(ClockProbe { period, calls }) as Box<dyn Protocol>
                })
                .collect(),
            wake,
            class: AlgorithmClass { oblivious: false, plain_packet: true, direct: false },
        };
        let mut cfg = SimConfig::new(n, n)
            .adversary_type(Rate::new(1, 2), Rate::integer(2))
            .sample_every(1 << 40);
        if let Some(f) = faults {
            cfg = cfg.faults(f);
        }
        struct Spread;
        impl Adversary for Spread {
            fn plan(&mut self, r: Round, budget: usize, v: &SystemView<'_>) -> Vec<Injection> {
                let src = |i: usize| (r as usize + i) % v.n;
                (0..budget).map(|i| Injection::new(src(i), (src(i) + 1 + i) % v.n)).collect()
            }
        }
        let mut sim = Simulator::new(cfg, built, Box::new(Spread));
        sim.run(rounds);
        assert_eq!(sim.round(), rounds);
        (sim, calls.counts())
    }

    #[test]
    fn the_schedule_clock_is_round_mod_and_div_period_in_every_callback() {
        use std::sync::Arc;

        // A tabled periodic schedule: the table row is the phase.
        let (p, rounds) = (7, 100);
        let (sim, calls) =
            run_clock_probe(4, WakeMode::Scheduled(Arc::new(Periodic(p))), Some(p), None, rounds);
        assert!(sim.cache.is_some(), "period 7 fits the table");
        assert_eq!(sim.hooks().wake_table_rounds, rounds);
        assert!(calls[1..].iter().all(|&c| c > 0), "every callback ran: {calls:?}");
        assert!(sim.metrics().adoptions > 0, "adoption enqueues too");

        // A period over the table budget: no table, but the clock still
        // follows the schedule's period, through the first wrap.
        let p = crate::schedule::MAX_TABLE_WORDS as u64 + 1;
        let rounds = p + 50;
        let (sim, calls) =
            run_clock_probe(2, WakeMode::Scheduled(Arc::new(Periodic(p))), Some(p), None, rounds);
        assert!(sim.cache.is_none(), "one mask word per row over the budget is not tabled");
        assert_eq!(sim.hooks().wake_enum_rounds, rounds);
        assert!(calls[1..].iter().all(|&c| c > 0), "every callback ran: {calls:?}");

        // Skew and crash faults bypass the table; protocols still see the
        // global round's phase.
        let p = 7;
        let faults = crate::faults::FaultSpec {
            seed: 3,
            skew: 5,
            crash: Rate::new(1, 10),
            crash_len: 4,
            ..Default::default()
        };
        let (sim, calls) = run_clock_probe(
            4,
            WakeMode::Scheduled(Arc::new(Periodic(p))),
            Some(p),
            Some(faults),
            200,
        );
        assert_eq!(sim.hooks().wake_enum_rounds, 200, "wake faults bypass the table");
        assert!(sim.metrics().crashes > 0);
        assert!(calls[1..].iter().all(|&c| c > 0), "every callback ran: {calls:?}");

        // Adaptive wake has no period: the phase is the round.
        let (_, calls) = run_clock_probe(4, WakeMode::Adaptive, None, None, 200);
        assert_eq!(calls[0], 4, "first_wake once per station");
        assert!(calls.iter().all(|&c| c > 0), "every callback ran: {calls:?}");
    }

    /// Sends its oldest packet whenever it wakes, then sleeps for
    /// `37 + 13·id` rounds, so every station sleeps through most rounds.
    struct Napper;
    impl Protocol for Napper {
        fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
            Wake::At(5 + ctx.id as u64)
        }
        fn act(&mut self, _ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            queue.oldest().map_or(Action::Listen, |qp| Action::Transmit(Message::plain(qp)))
        }
        fn on_feedback(
            &mut self,
            ctx: &ProtocolCtx,
            _q: &IndexedQueue,
            _fb: Feedback<'_>,
            _e: &mut Effects,
        ) -> Wake {
            Wake::sleep_for(ctx.round, 37 + 13 * ctx.id as u64)
        }
    }

    #[test]
    fn a_drain_passes_over_exactly_the_rounds_in_which_every_station_sleeps() {
        let drain = |fast: bool| {
            let built = BuiltAlgorithm {
                name: "napper".into(),
                protocols: (0..3).map(|_| Box::new(Napper) as Box<dyn Protocol>).collect(),
                wake: WakeMode::Adaptive,
                class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
            };
            let cfg =
                SimConfig::new(3, 3).adversary_type(Rate::one(), Rate::integer(8)).sample_every(7);
            let mut sim = Simulator::new(cfg, built, Box::new(FloodZero));
            sim.run(30);
            let drained = if fast {
                sim.run_until_drained(5_000)
            } else {
                sim.set_injections(false);
                for _ in 0..5_000 {
                    if sim.total_queued() == 0 {
                        break;
                    }
                    sim.step();
                }
                sim.total_queued() == 0
            };
            assert!(drained);
            sim
        };
        let (fast, slow) = (drain(true), drain(false));
        let show = |sim: &Simulator| format!("{:?} {:?}", sim.metrics(), sim.violations());
        assert_eq!(show(&fast), show(&slow));
        assert_eq!((fast.round(), fast.hooks().rounds), (slow.round(), slow.hooks().rounds));
        assert_eq!(fast.clock.phase, fast.round(), "a clock without a period is the round");
        assert_eq!(
            fast.prev_awake.iter().collect::<Vec<_>>(),
            slow.prev_awake.iter().collect::<Vec<_>>()
        );
        let (f, s) = (fast.hooks(), slow.hooks());
        assert!(f.skipped_rounds > fast.round() / 2, "{f:?}");
        assert_eq!(f.wake_enum_rounds + f.skipped_rounds, s.wake_enum_rounds);
        assert_eq!(s.skipped_rounds, 0);
        assert!(fast.metrics().queue_series.len() > 20, "samples fall in skipped rounds");
    }

    #[test]
    fn energy_accounting() {
        let cfg = SimConfig::new(4, 4);
        let mut sim = Simulator::new(cfg, rr_system(4), Box::new(NoInjections));
        sim.run(10);
        assert_eq!(sim.metrics().energy_total, 40); // all 4 on, 10 rounds
        assert_eq!(sim.metrics().max_awake, 4);
        assert!((sim.metrics().energy_per_round() - 4.0).abs() < 1e-12);
    }
}
