//! `Orchestra` — maximum throughput with energy cap 3 (paper §3.1).
//!
//! Time is divided into *seasons* of `n − 1` rounds. A shared *baton list*
//! (see [`emac_broadcast::BatonList`]) designates one station per season as
//! the *conductor*; the others are *musicians*. The conductor is on for the
//! whole season and transmits in every round; a musician is on once per
//! season to *learn* (in name order, one per round) and additionally at the
//! rounds it was taught, to *receive* packets addressed to it — at most
//! three stations on per round, hence energy cap 3.
//!
//! At the start of each of its conducting seasons, the conductor computes a
//! schedule of up to `n − 1` old, not-yet-scheduled packets (in injection
//! order) *for its next conducting season*, and teaches it during the
//! current one. A full season schedule may hold Θ(n) rounds for one
//! destination, which does not fit the paper's `O(log n)` control bits in
//! one message, so the schedule is taught as a linked list of wake-ups: the
//! learning round carries the musician's *first* receive round of the next
//! season, and every received packet carries that musician's *next* receive
//! round (`tests::delivers_a_scripted_packet` follows one packet through).
//!
//! A conductor with at least `n² − 1` old packets announces itself *big*
//! via a toggle bit; at season end every station moves it to the front of
//! its private baton list and it keeps the baton while big. Every station
//! hears the conductor at least once per season (its learning round), so
//! all private lists evolve identically (paper §3.1).
//!
//! Theorem 1: at most `2n³ + β` packets are ever queued against any
//! adversary of rate 1 — the maximum throughput possible. Latency may be
//! unbounded (Table 1 row 1), which the ablation harness demonstrates.

use emac_broadcast::BatonList;
use emac_sim::{
    bits_for, Action, AlgorithmClass, BuiltAlgorithm, ControlBits, Effects, Feedback, Handle,
    IndexedQueue, Message, Protocol, ProtocolCtx, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;

/// One scheduled transmission: the packet and its destination.
type Slot = Option<(Handle, StationId)>;

/// Per-station `Orchestra` replica.
pub struct OrchestraStation {
    n: usize,
    season_len: u64,
    big_threshold: usize,
    /// Ablation switch: when false, bigness is never announced and the
    /// baton always rotates (ablation A1 in `crates/bench/src/bin/ablations.rs`).
    move_big: bool,
    baton: BatonList,
    /// The baton list reflects the start of this season.
    synced_season: u64,
    /// Big flag observed for season `synced_season`.
    heard_big: bool,
    /// Musician: first receive slot at each conductor's next conducting
    /// season (taught at learning rounds), indexed by conductor.
    pending_first: Vec<Option<u64>>,
    /// Musician: my next receive slot within the current season.
    next_receive_slot: Option<u64>,
    /// Conductor: schedule being executed this conducting season.
    sched_current: Vec<Slot>,
    /// Conductor: schedule for my next conducting season (being taught).
    sched_next: Vec<Slot>,
    /// Packets placed in either schedule (excluded from future scheduling),
    /// as one mark per queue slot: the handle of the scheduled packet in
    /// that slot. A mark whose packet has left never matches the slot's
    /// next occupant. A jammed slot's packet is never transmitted, so it
    /// stays marked.
    scheduled: Vec<Option<Handle>>,
    /// Conductor: own bigness for the current conducting season.
    my_big: bool,
    /// Which season the conductor-side init has run for.
    init_done_for: Option<u64>,
}

impl OrchestraStation {
    fn new(n: usize, big_threshold: usize, move_big: bool) -> Self {
        assert!(n >= 2);
        Self {
            n,
            season_len: (n - 1) as u64,
            big_threshold,
            move_big,
            baton: BatonList::new(n),
            synced_season: 0,
            heard_big: false,
            pending_first: vec![None; n],
            next_receive_slot: None,
            sched_current: vec![None; n - 1],
            sched_next: vec![None; n - 1],
            scheduled: Vec::new(),
            my_big: false,
            init_done_for: None,
        }
    }

    fn season(&self, r: Round) -> u64 {
        r / self.season_len
    }

    fn season_start(&self, season: u64) -> Round {
        season * self.season_len
    }

    /// The musician learning in round-in-season `j` of a season conducted
    /// by `cond`: the `j`-th station by name among the musicians.
    fn learner(&self, cond: StationId, j: u64) -> StationId {
        let j = j as usize;
        if j < cond {
            j
        } else {
            j + 1
        }
    }

    /// My learning position in a season conducted by `cond`.
    fn learn_rank(&self, me: StationId, cond: StationId) -> u64 {
        debug_assert_ne!(me, cond);
        (if me < cond { me } else { me - 1 }) as u64
    }

    /// Lazily replay the season transition: apply the move-big-to-front
    /// rule observed for the season that just ended, and prepare
    /// conductor/musician state for the new one. Every station is on at
    /// least once per season (its learning round), so it never advances by
    /// more than one season at a time.
    fn sync(&mut self, me: StationId, season: u64) {
        if season == self.synced_season {
            return;
        }
        debug_assert_eq!(
            season,
            self.synced_season + 1,
            "a station can never sleep through a whole season"
        );
        self.baton.season_end(self.heard_big);
        self.heard_big = false;
        self.synced_season = season;
        self.next_receive_slot = None;
        let cond = self.baton.conductor();
        if cond == me {
            // My conducting season: execute the schedule I taught last time.
            std::mem::swap(&mut self.sched_current, &mut self.sched_next);
            self.sched_next.fill(None);
        } else if let Some(slot) = self.pending_first[cond].take() {
            self.next_receive_slot = Some(slot);
        }
    }

    /// The conductor of the season after the current one, without mutating
    /// the replica (used for wake planning at season boundaries).
    fn predict_next_conductor(&self) -> StationId {
        self.baton.next_conductor(self.heard_big)
    }

    /// Conductor-side season initialisation: bigness and the next schedule.
    fn conductor_init(&mut self, me: StationId, season: u64, queue: &IndexedQueue) {
        if self.init_done_for == Some(season) {
            return;
        }
        self.init_done_for = Some(season);
        let start = self.season_start(season);
        let old = queue.count_old(start);
        self.my_big = self.move_big && old >= self.big_threshold;
        self.heard_big = self.my_big;
        // Schedule old, not-yet-scheduled packets in injection order for my
        // next conducting season.
        let mut slot = 0;
        for qp in queue.iter_old(start) {
            if slot >= self.n - 1 {
                break;
            }
            let h = qp.handle();
            if self.is_scheduled(h) {
                continue;
            }
            debug_assert_ne!(qp.packet.dest, me, "self-addressed packets never queue");
            self.sched_next[slot] = Some((h, qp.packet.dest));
            self.mark(h);
            slot += 1;
        }
    }

    /// Whether the packet `h` names sits in either schedule.
    fn is_scheduled(&self, h: Handle) -> bool {
        self.scheduled.get(h.slot()) == Some(&Some(h))
    }

    fn mark(&mut self, h: Handle) {
        if h.slot() >= self.scheduled.len() {
            self.scheduled.resize(h.slot() + 1, None);
        }
        self.scheduled[h.slot()] = Some(h);
    }

    fn unmark(&mut self, h: Handle) {
        if self.is_scheduled(h) {
            self.scheduled[h.slot()] = None;
        }
    }

    /// First receive slot for `dest` in `sched`, strictly after `after`
    /// (use `after = None` for the first).
    fn next_slot_for(sched: &[Slot], dest: StationId, after: Option<u64>) -> Option<u64> {
        let from = after.map_or(0, |j| j as usize + 1);
        sched[from..]
            .iter()
            .position(|s| matches!(s, Some((_, d)) if *d == dest))
            .map(|p| (from + p) as u64)
    }

    /// My next wake round strictly after `r`, given current knowledge.
    fn plan_wake(&self, me: StationId, r: Round) -> Wake {
        let season = self.season(r);
        debug_assert_eq!(season, self.synced_season);
        let j = r - self.season_start(season);
        let cond = self.baton.conductor();
        if cond == me {
            if j < self.season_len - 1 {
                return Wake::Stay;
            }
        } else {
            // Remaining events within this season.
            let mut next: Option<u64> = None;
            let learn = self.learn_rank(me, cond);
            if learn > j {
                next = Some(learn);
            }
            if let Some(recv) = self.next_receive_slot {
                if recv > j {
                    next = Some(next.map_or(recv, |x| x.min(recv)));
                }
            }
            if let Some(jn) = next {
                return Wake::At(self.season_start(season) + jn);
            }
        }
        // First event of the next season.
        let next_start = self.season_start(season + 1);
        let next_cond = self.predict_next_conductor();
        if next_cond == me {
            return Wake::At(next_start);
        }
        let mut first = self.learn_rank(me, next_cond);
        if let Some(slot) = self.pending_first[next_cond] {
            first = first.min(slot);
        }
        Wake::At(next_start + first)
    }
}

impl Protocol for OrchestraStation {
    fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
        if self.baton.conductor() == ctx.id {
            Wake::Stay
        } else {
            Wake::At(self.learn_rank(ctx.id, self.baton.conductor()))
        }
    }

    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        let season = self.season(ctx.round);
        self.sync(ctx.id, season);
        if self.baton.conductor() != ctx.id {
            return Action::Listen;
        }
        self.conductor_init(ctx.id, season, queue);
        let j = ctx.round - self.season_start(season);

        // Message fields for slot j (fixed layout; absent = zeroed).
        let slot = self.sched_current[j as usize];
        let learner = self.learner(ctx.id, j);
        let teach = Self::next_slot_for(&self.sched_next, learner, None);
        let next_for_receiver =
            slot.and_then(|(_, dest)| Self::next_slot_for(&self.sched_current, dest, Some(j)));

        let w = bits_for(self.season_len);
        let mut bits = ControlBits::new();
        bits.push_uint(ctx.id as u64, bits_for(self.n as u64));
        bits.push_bit(self.my_big);
        bits.push_bit(teach.is_some());
        bits.push_uint(teach.unwrap_or(0), w);
        bits.push_bit(next_for_receiver.is_some());
        bits.push_uint(next_for_receiver.unwrap_or(0), w);

        match slot {
            Some((h, _)) => match queue.get(h) {
                Some(qp) => Action::Transmit(Message::with_control(qp, bits)),
                None => Action::Transmit(Message::light(bits)), // custody bug; validator flags
            },
            None => Action::Transmit(Message::light(bits)),
        }
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        _queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        let season = self.season(ctx.round);
        self.sync(ctx.id, season);
        let j = ctx.round - self.season_start(season);
        let cond = self.baton.conductor();

        match fb {
            Feedback::Heard(m) => {
                let mut rd = m.control.reader();
                let w = bits_for(self.season_len);
                let heard_cond = rd.read_uint(bits_for(self.n as u64)) as StationId;
                let big = rd.read_bit();
                let teach_present = rd.read_bit();
                let teach_slot = rd.read_uint(w);
                let next_present = rd.read_bit();
                let next_slot = rd.read_uint(w);

                if heard_cond != cond {
                    effects.flag("orchestra: baton replicas diverged");
                }
                self.heard_big = big;
                if cond == ctx.id {
                    // My own message: the scheduled packet was transmitted.
                    if let Some((h, _)) = self.sched_current[j as usize].take() {
                        self.unmark(h);
                    }
                } else {
                    if self.learner(cond, j) == ctx.id && teach_present {
                        self.pending_first[cond] = Some(teach_slot);
                    }
                    if self.next_receive_slot == Some(j) {
                        // I was this round's receiver; the packet (if any)
                        // was consumed by the engine.
                        self.next_receive_slot = next_present.then_some(next_slot);
                    }
                }
            }
            Feedback::Silence | Feedback::Collision => {
                effects.flag("orchestra: the conductor must transmit every round");
            }
        }
        self.plan_wake(ctx.id, ctx.round)
    }
}

/// The `Orchestra` algorithm of §3.1.
#[derive(Clone, Copy, Debug)]
pub struct Orchestra {
    /// Bigness threshold (the paper's `n² − 1` when `None`).
    pub big_threshold: Option<usize>,
    /// Whether the move-big-to-front rule is active (ablation A1 disables
    /// it; rate-1 stability is then lost).
    pub move_big: bool,
}

impl Orchestra {
    /// The paper's `Orchestra`.
    pub fn new() -> Self {
        Self { big_threshold: None, move_big: true }
    }

    /// Ablation variant without the move-big-to-front rule.
    pub fn without_move_big() -> Self {
        Self { big_threshold: None, move_big: false }
    }
}

impl Default for Orchestra {
    fn default() -> Self {
        Self::new()
    }
}

impl Algorithm for Orchestra {
    fn name(&self) -> String {
        if self.move_big {
            "Orchestra".into()
        } else {
            "Orchestra[no-move-big]".into()
        }
    }

    fn class(&self) -> AlgorithmClass {
        AlgorithmClass::NOBL_GEN_DIR
    }

    fn required_cap(&self, _n: usize) -> usize {
        3
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        let threshold = self.big_threshold.unwrap_or(n * n - 1);
        BuiltAlgorithm {
            name: format!("{}(n={n})", self.name()),
            protocols: (0..n)
                .map(|_| {
                    Box::new(OrchestraStation::new(n, threshold, self.move_big))
                        as Box<dyn Protocol>
                })
                .collect(),
            wake: WakeMode::Adaptive,
            class: self.class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use emac_adversary::{Alternating, Bursty, RoundRobinLoad, Scripted, SingleTarget};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn learner_order_skips_conductor() {
        let s = OrchestraStation::new(5, 24, true);
        assert_eq!(s.learner(2, 0), 0);
        assert_eq!(s.learner(2, 1), 1);
        assert_eq!(s.learner(2, 2), 3);
        assert_eq!(s.learner(2, 3), 4);
        assert_eq!(s.learn_rank(3, 2), 2);
        assert_eq!(s.learn_rank(0, 2), 0);
    }

    #[test]
    fn idle_system_is_all_light_rounds() {
        let n = 5;
        let cfg = SimConfig::new(n, 3);
        let mut sim =
            Simulator::new(cfg, Orchestra::new().build(n), Box::new(emac_sim::NoInjections));
        sim.run(500);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert_eq!(sim.metrics().light_rounds, 500);
        assert_eq!(sim.metrics().silent_rounds, 0);
        assert!(sim.metrics().max_awake <= 3);
    }

    #[test]
    fn delivers_a_scripted_packet() {
        let n = 4;
        let cfg = SimConfig::new(n, 3).adversary_type(Rate::new(1, 2), Rate::integer(1));
        // packet into station 2, destined 0
        let adv = Box::new(Scripted::from_triples(&[(0, 2, 0)]));
        let mut sim = Simulator::new(cfg, Orchestra::new().build(n), adv);
        // schedule pipeline: station 2 conducts (season 2), schedules it for
        // its next conducting season (season 6 at the latest), delivers there.
        sim.run(3 * (n as u64) * (n as u64 - 1) + 10);
        assert_eq!(sim.metrics().delivered, 1);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn queues_bounded_at_rate_one_single_target() {
        let n = 4;
        let beta = 2u64;
        let cfg =
            SimConfig::new(n, 3).adversary_type(Rate::one(), Rate::integer(beta)).sample_every(128);
        let adv = Box::new(SingleTarget::new(0, 2));
        let mut sim = Simulator::new(cfg, Orchestra::new().build(n), adv);
        sim.run(120_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= 3);
        let bound = bounds::orchestra_queue_bound(n as u64, beta as f64);
        assert!(
            (sim.metrics().max_total_queued as f64) <= bound,
            "queues {} exceed 2n³+β = {bound}",
            sim.metrics().max_total_queued
        );
        assert!(
            sim.metrics().queue_growth_slope() < 0.02,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
    }

    #[test]
    fn queues_bounded_at_rate_one_spread_and_bursty() {
        let n = 5;
        let beta = 4u64;
        for adv in [
            Box::new(RoundRobinLoad::new()) as Box<dyn emac_sim::Adversary>,
            Box::new(Alternating::new((0, 2), (3, 1), 997)),
            Box::new(Bursty::new(1, 16)),
        ] {
            let cfg = SimConfig::new(n, 3)
                .adversary_type(Rate::one(), Rate::integer(beta))
                .sample_every(128);
            let mut sim = Simulator::new(cfg, Orchestra::new().build(n), adv);
            sim.run(120_000);
            assert!(sim.violations().is_clean(), "{}", sim.violations());
            let bound = bounds::orchestra_queue_bound(n as u64, beta as f64);
            assert!(
                (sim.metrics().max_total_queued as f64) <= bound,
                "queues {} exceed {bound}",
                sim.metrics().max_total_queued
            );
        }
    }

    #[test]
    fn drains_below_rate_one() {
        let n = 6;
        let cfg = SimConfig::new(n, 3).adversary_type(Rate::new(3, 4), Rate::integer(2));
        let adv = Box::new(RoundRobinLoad::new());
        let mut sim = Simulator::new(cfg, Orchestra::new().build(n), adv);
        sim.run(30_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.run_until_drained(50_000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }

    #[test]
    fn ablation_without_move_big_is_unstable_at_rate_one() {
        // Without move-big-to-front the baton keeps rotating: a flooded
        // station drains only n-1 packets every n seasons while light
        // rounds of empty conductors waste the channel.
        let n = 4;
        let cfg =
            SimConfig::new(n, 3).adversary_type(Rate::one(), Rate::integer(2)).sample_every(128);
        let adv = Box::new(SingleTarget::new(0, 2));
        let mut sim = Simulator::new(cfg, Orchestra::without_move_big().build(n), adv);
        sim.run(120_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(
            sim.metrics().queue_growth_slope() > 0.01,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
    }

    #[test]
    fn works_at_minimum_size() {
        let cfg = SimConfig::new(2, 3).adversary_type(Rate::one(), Rate::integer(1));
        let adv = Box::new(SingleTarget::new(0, 1));
        let mut sim = Simulator::new(cfg, Orchestra::new().build(2), adv);
        sim.run(20_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().delivered > 9_000);
    }
}
