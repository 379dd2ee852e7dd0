//! `Count-Hop` — general universal routing with energy cap 2 (paper §4.1).
//!
//! One station (the highest-named, here) is the *coordinator*; the others
//! are *workers*. An execution is structured into phases; packets injected
//! during a phase become *old* at its end and are delivered during the next
//! phase, each in one direct hop. The first phase consists of `n` rounds
//! with every station switched off.
//!
//! A phase has one *stage* per receiving station `v`, with three substages:
//!
//! 1. **Counts** — each station other than `v` and the coordinator
//!    transmits, one per round in name order, the number of its old packets
//!    destined to `v`; the coordinator listens.
//! 2. **Offsets** — the coordinator tells each station, one per round, the
//!    offset of its transmission slot in substage 3 together with the total
//!    `T(v)`; the last round addresses `v` itself, which needs `T(v)` to
//!    know how long to listen. Carrying `T(v)` in every offset message
//!    keeps the global timeline common knowledge (`bounds::count_hop_impl_latency_bound`).
//! 3. **Data** — the coordinator first transmits its own old packets for
//!    `v` (the paper leaves the coordinator's packets unspecified), then
//!    each station transmits its announced packets in its slot while `v`
//!    listens.
//!
//! Exactly two stations are on in every round. Theorem 3: latency at most
//! `2(n² + β)/(1 − ρ)` for every `ρ < 1`.

use emac_sim::{
    Action, AlgorithmClass, BitReader, BuiltAlgorithm, ControlBits, Effects, Feedback,
    IndexedQueue, Message, Protocol, ProtocolCtx, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;

/// Width of the count/offset fields in control bits (`O(log n)` in theory;
/// 48 bits accommodates any simulated backlog).
const FIELD: usize = 48;

/// Per-station `Count-Hop` protocol replica.
pub struct CountHopStation {
    n: usize,
    co: StationId,
    /// Start of the current phase; packets that arrived strictly before it
    /// are old and get delivered during this phase.
    phase_start: Round,
    /// The current stage's receiving station `v`.
    stage: usize,
    /// First round of the current stage.
    stage_start: Round,
    /// Substage-3 length `T(v)`; workers learn it in substage 2, the
    /// coordinator computes it after substage 1.
    t_v: Option<u64>,
    /// My count of old packets for the current `v` (snapshot at this stage).
    my_count: u64,
    /// My transmission-slot offset within substage 3 (workers).
    my_offset: Option<u64>,
    /// Coordinator only: counts collected during substage 1, in TA order.
    collected: Vec<u64>,
}

impl CountHopStation {
    fn new(n: usize) -> Self {
        assert!(n >= 2);
        Self {
            n,
            co: n - 1,
            phase_start: n as Round,
            stage: 0,
            stage_start: n as Round,
            t_v: None,
            my_count: 0,
            my_offset: None,
            collected: Vec::new(),
        }
    }

    /// Length of substage 1 for receiving station `v`.
    fn a_len(&self, v: usize) -> u64 {
        if v == self.co {
            (self.n - 1) as u64
        } else {
            (self.n - 2) as u64
        }
    }

    /// Length of substage 2 (always `n − 1`).
    fn b_len(&self) -> u64 {
        (self.n - 1) as u64
    }

    /// The `i`-th transmitter of substage 1 (stations except `v` and the
    /// coordinator, in name order; all workers when `v` is the coordinator).
    fn ta_station(&self, v: usize, i: u64) -> StationId {
        let i = i as usize;
        if v == self.co || i < v {
            i
        } else {
            i + 1
        }
    }

    /// Index of worker `w` in the substage-1 transmitter order.
    fn ta_index(&self, v: usize, w: StationId) -> u64 {
        debug_assert!(w != self.co && w != v);
        if v == self.co || w < v {
            w as u64
        } else {
            (w - 1) as u64
        }
    }

    /// The `i`-th listener of substage 2.
    fn tb_station(&self, v: usize, i: u64) -> StationId {
        if v == self.co {
            i as usize
        } else if i == self.b_len() - 1 {
            v
        } else {
            self.ta_station(v, i)
        }
    }

    /// Index of station `w` in the substage-2 listener order.
    fn tb_index(&self, v: usize, w: StationId) -> u64 {
        if v == self.co {
            w as u64
        } else if w == v {
            self.b_len() - 1
        } else {
            self.ta_index(v, w)
        }
    }

    /// Coordinator: slot offset for station `w` and the total `T(v)`.
    fn offsets(&self, v: usize, w: StationId) -> (u64, u64) {
        let total = self.my_count + self.collected.iter().sum::<u64>();
        if w == v {
            return (total, total);
        }
        let i = self.ta_index(v, w) as usize;
        let offset = self.my_count + self.collected[..i].iter().sum::<u64>();
        (offset, total)
    }

    /// First round station `s` must be awake in the current stage.
    fn first_event(&self, s: StationId) -> Round {
        let v = self.stage;
        if s == self.co {
            self.stage_start
        } else if s == v {
            // v's offset round is the last of substage 2
            self.stage_start + self.a_len(v) + self.b_len() - 1
        } else {
            self.stage_start + self.ta_index(v, s)
        }
    }

    /// Advance to the next stage (or phase) once `T(v)` is known.
    fn advance_stage(&mut self) {
        let v = self.stage;
        let end = self.stage_start
            + self.a_len(v)
            + self.b_len()
            + self.t_v.expect("stage advances only after T(v) is known");
        self.stage += 1;
        self.stage_start = end;
        self.t_v = None;
        self.my_count = 0;
        self.my_offset = None;
        self.collected.clear();
        if self.stage == self.n {
            self.stage = 0;
            self.phase_start = end;
        }
    }

    fn read_pair(r: &mut BitReader<'_>) -> (u64, u64) {
        (r.read_uint(FIELD), r.read_uint(FIELD))
    }
}

impl Protocol for CountHopStation {
    fn first_wake(&mut self, ctx: &ProtocolCtx) -> Wake {
        // First phase: n rounds with everyone off.
        Wake::At(self.first_event(ctx.id))
    }

    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        let v = self.stage;
        let rel = ctx.round - self.stage_start;
        let a = self.a_len(v);
        let b = self.b_len();
        if ctx.id == self.co && rel == 0 {
            // Snapshot the coordinator's own slot length at stage start.
            self.my_count = queue.count_old_for(v, self.phase_start) as u64;
        }
        if rel < a {
            // Substage 1: counts.
            if ctx.id == self.co {
                Action::Listen
            } else {
                debug_assert_eq!(self.ta_station(v, rel), ctx.id);
                self.my_count = queue.count_old_for(v, self.phase_start) as u64;
                let mut bits = ControlBits::new();
                bits.push_uint(self.my_count, FIELD);
                Action::Transmit(Message::light(bits))
            }
        } else if rel < a + b {
            // Substage 2: offsets.
            if ctx.id == self.co {
                let w = self.tb_station(v, rel - a);
                let (offset, total) = self.offsets(v, w);
                let mut bits = ControlBits::new();
                bits.push_uint(offset, FIELD);
                bits.push_uint(total, FIELD);
                Action::Transmit(Message::light(bits))
            } else {
                Action::Listen
            }
        } else {
            // Substage 3: data.
            if ctx.id == v {
                Action::Listen
            } else {
                match queue.oldest_old_for(v, self.phase_start) {
                    Some(qp) => Action::Transmit(Message::plain(qp)),
                    None => Action::Listen, // cannot happen if counts are exact
                }
            }
        }
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        _queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        let v = self.stage;
        let rel = ctx.round - self.stage_start;
        let a = self.a_len(v);
        let b = self.b_len();
        let c_start = self.stage_start + a + b;

        // 1. Absorb the message content.
        if rel < a {
            if ctx.id == self.co {
                match fb {
                    Feedback::Heard(m) => {
                        self.collected.push(m.control.reader().read_uint(FIELD));
                    }
                    _ => effects.flag("count-hop: missing count message"),
                }
            }
        } else if rel < a + b && ctx.id != self.co {
            match fb {
                Feedback::Heard(m) => {
                    let (offset, total) = Self::read_pair(&mut m.control.reader());
                    self.my_offset = Some(offset);
                    self.t_v = Some(total);
                }
                _ => effects.flag("count-hop: missing offset message"),
            }
        }
        if ctx.id == self.co && rel == a + b - 1 {
            // The coordinator fixes T(v) when substage 2 ends.
            self.t_v = Some(self.my_count + self.collected.iter().sum::<u64>());
        }

        // 2. Decide when to wake next.
        let r = ctx.round;
        if ctx.id == self.co {
            if rel < a + b - 1 {
                return Wake::Stay; // through substages 1 and 2
            }
            let t = self.t_v.expect("coordinator knows T(v) after substage 2");
            let my_slot_end = c_start + if v == self.co { t } else { self.my_count };
            if r + 1 < my_slot_end {
                return Wake::Stay;
            }
            let next_stage_start = c_start + t;
            self.advance_stage();
            if r + 1 < next_stage_start {
                return Wake::At(self.first_event(ctx.id).max(next_stage_start));
            }
            return Wake::Stay; // next stage starts immediately and co opens it
        }
        // Workers (including the stage's receiver v).
        if rel < a {
            // just transmitted my count; sleep to my offset round
            return Wake::At(self.stage_start + a + self.tb_index(v, ctx.id));
        }
        if rel < a + b {
            // just learned (offset, T(v))
            let t = self.t_v.expect("learned in this round");
            if ctx.id == v {
                if t > 0 {
                    return Wake::At(c_start); // listen through substage 3
                }
            } else if self.my_count > 0 {
                return Wake::At(c_start + self.my_offset.expect("learned in this round"));
            }
            let next = c_start + t;
            self.advance_stage();
            return Wake::At(self.first_event(ctx.id).max(next));
        }
        // Substage 3.
        let t = self.t_v.expect("T(v) known during substage 3");
        let my_end = if ctx.id == v {
            c_start + t
        } else {
            c_start + self.my_offset.expect("transmitters know their slot") + self.my_count
        };
        if r + 1 < my_end {
            return Wake::Stay;
        }
        let next = c_start + t;
        self.advance_stage();
        Wake::At(self.first_event(ctx.id).max(next))
    }
}

/// The `Count-Hop` algorithm of §4.1.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountHop;

impl CountHop {
    /// `Count-Hop` (no parameters; the coordinator is station `n − 1`).
    pub fn new() -> Self {
        Self
    }
}

impl Algorithm for CountHop {
    fn name(&self) -> String {
        "Count-Hop".into()
    }

    fn class(&self) -> AlgorithmClass {
        AlgorithmClass::NOBL_GEN_DIR
    }

    fn required_cap(&self, _n: usize) -> usize {
        2
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        BuiltAlgorithm {
            name: format!("Count-Hop(n={n})"),
            protocols: (0..n)
                .map(|_| Box::new(CountHopStation::new(n)) as Box<dyn Protocol>)
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
    use emac_adversary::{Scripted, SingleTarget, SleeperTargeting, UniformRandom};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn substage_orders() {
        let s = CountHopStation::new(5); // co = 4
                                         // v = 2: TA = [0, 1, 3]
        assert_eq!(s.ta_station(2, 0), 0);
        assert_eq!(s.ta_station(2, 1), 1);
        assert_eq!(s.ta_station(2, 2), 3);
        assert_eq!(s.ta_index(2, 3), 2);
        // TB = [0, 1, 3, 2] (v last)
        assert_eq!(s.tb_station(2, 3), 2);
        assert_eq!(s.tb_index(2, 2), 3);
        // v = co = 4: TA = TB = [0, 1, 2, 3]
        assert_eq!(s.a_len(4), 4);
        assert_eq!(s.ta_station(4, 3), 3);
        assert_eq!(s.tb_index(4, 3), 3);
    }

    #[test]
    fn empty_system_idles_cleanly() {
        let n = 4;
        let cfg = SimConfig::new(n, 2);
        let mut sim =
            Simulator::new(cfg, CountHop::new().build(n), Box::new(emac_sim::NoInjections));
        sim.run(2_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= 2);
        assert_eq!(sim.metrics().packet_rounds, 0);
    }

    #[test]
    fn delivers_one_packet_within_two_phases() {
        let n = 4;
        let cfg = SimConfig::new(n, 2).adversary_type(Rate::new(1, 2), Rate::integer(1));
        let adv = Box::new(Scripted::from_triples(&[(0, 1, 2)]));
        let mut sim = Simulator::new(cfg, CountHop::new().build(n), adv);
        sim.run(300);
        assert_eq!(sim.metrics().delivered, 1);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        // empty-phase length is n*(a+b) = 4*(2+3) = 20 rounds; one packet
        // stretches one stage by 1. Delay well under three phase lengths.
        assert!(sim.metrics().delay.max() < 3 * 21);
    }

    #[test]
    fn delivers_packets_to_and_from_the_coordinator() {
        let n = 4;
        let cfg = SimConfig::new(n, 2).adversary_type(Rate::new(1, 2), Rate::integer(2));
        let adv = Box::new(Scripted::from_triples(&[(0, 1, 3), (0, 3, 0), (1, 3, 2)]));
        let mut sim = Simulator::new(cfg, CountHop::new().build(n), adv);
        sim.run(400);
        assert_eq!(sim.metrics().delivered, 3);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn stable_with_bounded_latency_below_rate_one() {
        for rho in [Rate::new(1, 2), Rate::new(7, 10), Rate::new(9, 10)] {
            let n = 8u64;
            let beta = 2u64;
            let cfg = SimConfig::new(n as usize, 2)
                .adversary_type(rho, Rate::integer(beta))
                .sample_every(256);
            let adv = Box::new(UniformRandom::new(5));
            let mut sim = Simulator::new(cfg, CountHop::new().build(n as usize), adv);
            sim.run(100_000);
            assert!(sim.violations().is_clean(), "rho={rho}: {}", sim.violations());
            assert!(sim.metrics().max_awake <= 2);
            assert!(sim.metrics().queue_growth_slope() < 0.02, "rho={rho}");
            // The implementation needs both the counting and the offset
            // substages, doubling the n² coefficient of Theorem 3's bound;
            // see bounds::count_hop_impl_latency_bound.
            let bound = bounds::count_hop_impl_latency_bound(n, rho.as_f64(), beta as f64);
            let measured = sim.metrics().delay.max() as f64;
            assert!(measured <= bound, "rho={rho}: latency {measured} > bound {bound}");
            assert!(sim.run_until_drained(10_000));
            assert_eq!(sim.metrics().delivered, sim.metrics().injected);
        }
    }

    #[test]
    fn unstable_at_rate_one_cap_two() {
        // Theorem 2: no cap-2 algorithm is stable at rate 1. The counting
        // overhead of Count-Hop makes queues grow under any rate-1 flood.
        let n = 6;
        let cfg =
            SimConfig::new(n, 2).adversary_type(Rate::one(), Rate::integer(2)).sample_every(256);
        let adv = Box::new(SingleTarget::new(0, 3));
        let mut sim = Simulator::new(cfg, CountHop::new().build(n), adv);
        sim.run(100_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(
            sim.metrics().queue_growth_slope() > 0.01,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
        assert!(sim.metrics().outstanding() > 500);
    }

    #[test]
    fn sleeper_adversary_also_destabilises_at_rate_one() {
        let n = 6;
        let cfg =
            SimConfig::new(n, 2).adversary_type(Rate::one(), Rate::integer(1)).sample_every(256);
        let adv = Box::new(SleeperTargeting::new());
        let mut sim = Simulator::new(cfg, CountHop::new().build(n), adv);
        sim.run(60_000);
        assert!(sim.metrics().queue_growth_slope() > 0.01);
    }

    #[test]
    fn empty_phase_length_matches_formula() {
        // With no traffic, every stage is exactly a_len + b_len rounds of
        // light messages; a full phase is n stages. After the initial n
        // silent rounds, the round mix is deterministic.
        let n = 5;
        let phases = 7u64;
        // stage lengths: v != co -> (n-2)+(n-1); v == co -> (n-1)+(n-1)
        let phase_len = (n as u64 - 1) * ((n as u64 - 2) + (n as u64 - 1)) // workers' stages
            + ((n as u64 - 1) + (n as u64 - 1)); // coordinator's stage
        let total = n as u64 + phases * phase_len;
        let cfg = SimConfig::new(n, 2);
        let mut sim =
            Simulator::new(cfg, CountHop::new().build(n), Box::new(emac_sim::NoInjections));
        sim.run(total);
        assert_eq!(sim.metrics().silent_rounds, n as u64, "only the all-off first phase");
        assert_eq!(sim.metrics().light_rounds, phases * phase_len);
        assert_eq!(sim.metrics().packet_rounds, 0);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn works_at_minimum_size() {
        // n = 2: coordinator = 1, single worker 0; substage 1 is empty for
        // v = 0.
        let cfg = SimConfig::new(2, 2).adversary_type(Rate::new(1, 2), Rate::integer(1));
        let adv = Box::new(UniformRandom::new(1));
        let mut sim = Simulator::new(cfg, CountHop::new().build(2), adv);
        sim.run(20_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().delivered > 1_000);
        assert!(sim.metrics().queue_growth_slope() < 0.02);
    }
}
