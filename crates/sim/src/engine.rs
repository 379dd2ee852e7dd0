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
use crate::queue::IndexedQueue;
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
    transmissions: Vec<(StationId, Message)>,
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
                let ctx = ProtocolCtx { id: s, n, cap: cfg.cap, round: 0 };
                power[s] = match proto.first_wake(&ctx) {
                    Wake::Stay => Power::On,
                    Wake::At(r) => Power::OffUntil(r),
                };
            }
        }
        let bucket = LeakyBucket::new(cfg.rho, cfg.beta);
        let cache = match &wake {
            WakeMode::Scheduled(s) => ScheduleTable::build(s.as_ref(), n),
            WakeMode::Adaptive => None,
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
            transmissions: Vec::with_capacity(n),
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
                while let Some(id) = self.queues[crashed].oldest().map(|qp| qp.packet.id) {
                    self.queues[crashed].remove(id);
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
            let mut plan = std::mem::take(&mut self.plan);
            self.adversary.plan_into(r, budget, &view, &mut plan);
            plan.truncate(budget);
            self.bucket.debit(plan.len());
            if self.trace.is_some() {
                self.traced_injections = plan.iter().map(|i| (i.station, i.dest)).collect();
            }
            for &inj in &plan {
                self.inject(inj, r);
            }
            self.plan = plan; // keep the buffer's capacity for next round
        }

        // 2. Wake-set determination, into the reusable scratch buffers. For
        // cached periodic schedules this is a packed row copy; otherwise
        // the schedule (or the stations' timers) enumerates, and the mask
        // is rebuilt bit by bit. The scratch is moved out for the duration
        // of the round so the on-set can be borrowed while `&mut self`
        // methods run.
        let mut awake = std::mem::take(&mut self.awake);
        let mut awake_mask = std::mem::replace(&mut self.awake_mask, BitSet::new(0));
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
            awake.clear();
            awake_mask.clear();
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
                    awake.push(s);
                    awake_mask.insert(s);
                }
            }
        } else {
            match (&self.cache, &self.wake) {
                (Some(table), _) => {
                    self.hooks.wake_table_rounds += 1;
                    table.fill(r, &mut awake_mask, &mut awake)
                }
                (None, WakeMode::Scheduled(s)) => {
                    self.hooks.wake_enum_rounds += 1;
                    s.on_set_into(n, r, &mut awake);
                    awake_mask.clear();
                    for &s in &awake {
                        awake_mask.insert(s);
                    }
                }
                (None, WakeMode::Adaptive) => {
                    self.hooks.wake_enum_rounds += 1;
                    awake.clear();
                    awake_mask.clear();
                    for s in 0..n {
                        if let Power::OffUntil(w) = self.power[s] {
                            if w <= r {
                                self.power[s] = Power::On;
                            }
                        }
                        if self.power[s] == Power::On {
                            awake.push(s);
                            awake_mask.insert(s);
                        }
                    }
                }
            }
        }
        let awake_count = awake.len();
        for &s in &awake {
            self.on_counts[s] += 1;
            self.last_on[s] = Some(r);
        }
        if awake_count > self.cfg.cap {
            self.violations.cap_exceeded += 1;
        }
        self.metrics.energy_total += awake_count as u64;
        self.metrics.max_awake = self.metrics.max_awake.max(awake_count);

        // 3. Actions.
        self.transmissions.clear();
        for &s in &awake {
            let ctx = ProtocolCtx { id: s, n, cap: self.cfg.cap, round: r };
            match self.protocols[s].act(&ctx, &self.queues[s]) {
                Action::Transmit(m) => self.transmissions.push((s, m)),
                Action::Listen => {}
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
        let jam_transmitters = self.transmissions.len();
        let mut heard: Option<HeardInfo> = None;
        let mut message_sender: Option<StationId> = None;
        let heard_message: Option<Message> = if jammed {
            self.metrics.jammed_rounds += 1;
            self.transmissions.clear();
            None
        } else {
            match self.transmissions.len() {
                0 => {
                    self.metrics.silent_rounds += 1;
                    None
                }
                1 => {
                    let (sender, mut msg) = self.transmissions.pop().expect("one transmission");
                    message_sender = Some(sender);
                    if self.class.plain_packet && (msg.packet.is_none() || !msg.control.is_empty())
                    {
                        self.violations.plain_packet += 1;
                    }
                    if let Some(p) = msg.packet {
                        if !self.queues[sender].contains(p.id) {
                            debug_assert!(
                                false,
                                "station {sender} transmitted foreign packet {}",
                                p.id
                            );
                            self.violations.custody += 1;
                            msg.packet = None;
                        }
                    }
                    self.metrics.control_bits_total += msg.control.len() as u64;
                    self.metrics.control_bits_max =
                        self.metrics.control_bits_max.max(msg.control.len());
                    if let Some(p) = msg.packet {
                        self.metrics.packet_rounds += 1;
                        self.queues[sender].remove(p.id).expect("custody verified above");
                        self.queue_sizes[sender] -= 1;
                        self.metrics.total_queued -= 1;
                        let delivered = awake_mask.contains(p.dest);
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
        let collided = jammed || self.transmissions.len() > 1;

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
        let deaf = faults.as_ref().and_then(|f| f.deaf).filter(|&d| awake_mask.contains(d));
        if deaf.is_some() {
            self.metrics.deaf_rounds += 1;
        }
        for &s in &awake {
            let ctx = ProtocolCtx { id: s, n, cap: self.cfg.cap, round: r };
            let mut effects = Effects::default();
            let fb_s = if deaf == Some(s) { Feedback::Silence } else { fb };
            let wake = self.protocols[s].on_feedback(&ctx, &self.queues[s], fb_s, &mut effects);
            if jammed || deaf == Some(s) {
                effects.flags.clear();
            }
            for reason in effects.flags.drain(..) {
                self.violations.flag(r, s, reason);
            }
            if effects.adopt {
                self.handle_adoption(s, r, &mut heard);
            }
            if matches!(self.wake, WakeMode::Adaptive) {
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
                ChannelEvent::Jammed { transmitters: jam_transmitters }
            } else {
                match (&heard, &heard_message, collided) {
                    (_, _, true) => {
                        ChannelEvent::Collision { transmitters: self.transmissions.len() }
                    }
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
                trace.push(RoundTrace { round: r, awake: awake.to_vec(), injections, event });
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
        self.prev_awake.copy_from(&awake_mask);
        self.awake = awake;
        self.awake_mask = awake_mask;
        self.round += 1;
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
                let ctx = ProtocolCtx { id: s, n: self.cfg.n, cap: self.cfg.cap, round: r };
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
            // immediately with delay 0 (DESIGN.md §3).
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
        let ctx = ProtocolCtx { id: inj.station, n: self.cfg.n, cap: self.cfg.cap, round: r };
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
    pub fn run_until_drained(&mut self, max_rounds: u64) -> bool {
        self.set_injections(false);
        self.reserve_series(max_rounds);
        for _ in 0..max_rounds {
            if self.metrics.total_queued == 0 {
                return true;
            }
            self.step();
        }
        self.metrics.total_queued == 0
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

    /// Read access to a station's queue (tests and diagnostics).
    pub fn station_queue(&self, s: StationId) -> &IndexedQueue {
        &self.queues[s]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::ControlBits;
    use crate::rate::Rate;

    /// Round-robin transmitter: station `r mod n` transmits its oldest
    /// packet (if any) in round `r`; everyone is always on.
    struct Rr;
    impl Protocol for Rr {
        fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
            if ctx.round as usize % ctx.n == ctx.id {
                if let Some(qp) = queue.oldest() {
                    return Action::Transmit(Message::plain(qp.packet));
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
                    return Action::Transmit(Message::plain(qp.packet));
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
                    return Action::Transmit(Message::plain(qp.packet));
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
