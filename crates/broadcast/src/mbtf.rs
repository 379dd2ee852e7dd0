//! Move-Big-To-Front (MBTF), from Chlebus–Kowalski–Rokicki \[17\].
//!
//! The broadcast algorithm with *throughput 1*: stable against any
//! leaky-bucket adversary of rate 1 on a channel without energy caps. It is
//! the paradigm `Orchestra` (paper §3.1) adapts to energy cap 3, and the
//! subroutine `k-Subsets` (paper §6) instantiates once per thread.
//!
//! Reconstruction (\[17\], paper §3.1): an execution is split into *seasons* of
//! `n−1` rounds. A shared baton list orders the stations; the conductor of
//! a season transmits in every round of the season — its queued packets
//! oldest-first, or a *light* message when empty — and announces via a
//! toggle bit whether it is *big* (queue at least `n²−1` at season start).
//! At season end a big conductor moves to the front of every station's
//! private list and keeps the baton while it stays big. Silent rounds never
//! occur; the move-to-front rule bounds the light rounds a dense interval
//! can contain, which is what makes rate 1 survivable.

use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, ControlBits, Effects, Feedback, IndexedQueue, Message,
    Protocol, ProtocolCtx, StationId, Wake, WakeMode,
};

use crate::baton::BatonList;

/// Per-station MBTF replica.
pub struct Mbtf {
    baton: BatonList,
    season_len: u64,
    big_threshold: usize,
    /// Conductor-side: own bigness, computed at season start.
    my_big: bool,
    /// Everyone: the big announcement heard during the current season.
    season_big: bool,
}

impl Mbtf {
    /// MBTF replica for a system of `n ≥ 2` stations, with the default big
    /// threshold `n² − 1`.
    pub fn new(n: usize) -> Self {
        Self::with_threshold(n, n * n - 1)
    }

    /// Replica with an explicit big threshold (the `k-Subsets` threads use
    /// instance-sized thresholds).
    pub fn with_threshold(n: usize, big_threshold: usize) -> Self {
        assert!(n >= 2, "MBTF needs at least two stations");
        Self {
            baton: BatonList::new(n),
            season_len: (n - 1) as u64,
            big_threshold,
            my_big: false,
            season_big: false,
        }
    }

    /// The station currently conducting.
    pub fn conductor(&self) -> StationId {
        self.baton.conductor()
    }
}

impl Protocol for Mbtf {
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        if self.baton.conductor() != ctx.id {
            return Action::Listen;
        }
        if ctx.round.is_multiple_of(self.season_len) {
            self.my_big = queue.len() >= self.big_threshold;
        }
        let mut bits = ControlBits::new();
        bits.push_bit(self.my_big);
        match queue.oldest() {
            Some(qp) => Action::Transmit(Message::with_control(qp, bits)),
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
        match fb {
            Feedback::Heard(m) => {
                self.season_big = m.control.reader().read_bit();
            }
            // The conductor transmits in every round; silence or collision
            // would mean the replicas diverged.
            Feedback::Silence => effects.flag("mbtf: unexpected silence"),
            Feedback::Collision => effects.flag("mbtf: collision cannot happen"),
        }
        if ctx.round % self.season_len == self.season_len - 1 {
            self.baton.season_end(self.season_big);
            self.season_big = false;
        }
        Wake::Stay
    }
}

/// Build MBTF for `n` stations (all switched on; run with `cap = n`).
pub fn build_mbtf(n: usize) -> BuiltAlgorithm {
    BuiltAlgorithm {
        name: format!("MBTF(n={n})"),
        protocols: (0..n).map(|_| Box::new(Mbtf::new(n)) as Box<dyn Protocol>).collect(),
        wake: WakeMode::Adaptive,
        class: AlgorithmClass { oblivious: false, plain_packet: false, direct: true },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emac_adversary::{RoundRobinLoad, Scripted, SingleTarget, UniformRandom};
    use emac_sim::{Rate, SimConfig, Simulator};

    fn orchestra_style_bound(n: u64, beta: u64) -> u64 {
        2 * n * n * n + beta
    }

    #[test]
    fn delivers_conductors_packets() {
        let cfg = SimConfig::new(3, 3).adversary_type(Rate::one(), Rate::integer(4));
        let adv = Box::new(Scripted::from_triples(&[(0, 0, 2), (0, 0, 1)]));
        let mut sim = Simulator::new(cfg, build_mbtf(3), adv);
        // station 0 conducts season 0 (rounds 0,1): transmits both packets.
        sim.run(2);
        assert_eq!(sim.metrics().delivered, 2);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn no_silent_rounds_ever() {
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::new(1, 2), Rate::integer(1));
        let adv = Box::new(UniformRandom::new(3));
        let mut sim = Simulator::new(cfg, build_mbtf(4), adv);
        sim.run(3_000);
        assert_eq!(sim.metrics().silent_rounds, 0);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn stable_at_rate_one_single_target() {
        // The throughput-1 claim, concentrated load: queues stay below the
        // Orchestra-style bound 2n^3 + beta.
        let n = 4;
        let beta = 2;
        let cfg =
            SimConfig::new(n, n).adversary_type(Rate::one(), Rate::integer(beta)).sample_every(64);
        let adv = Box::new(SingleTarget::new(0, 3));
        let mut sim = Simulator::new(cfg, build_mbtf(n), adv);
        sim.run(60_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        let bound = orchestra_style_bound(n as u64, beta);
        assert!(
            sim.metrics().max_total_queued <= bound,
            "queues {} exceed bound {bound}",
            sim.metrics().max_total_queued
        );
        // and the growth slope over the second half is ~0
        assert!(sim.metrics().queue_growth_slope() < 0.01);
    }

    #[test]
    fn stable_at_rate_one_spread_load() {
        let n = 4;
        let beta = 2;
        let cfg =
            SimConfig::new(n, n).adversary_type(Rate::one(), Rate::integer(beta)).sample_every(64);
        let adv = Box::new(RoundRobinLoad::new());
        let mut sim = Simulator::new(cfg, build_mbtf(n), adv);
        sim.run(60_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(
            sim.metrics().max_total_queued <= orchestra_style_bound(n as u64, beta),
            "queues {}",
            sim.metrics().max_total_queued
        );
        assert!(sim.metrics().queue_growth_slope() < 0.01);
    }

    #[test]
    fn big_station_keeps_conducting_under_flood() {
        // Flood one station at rate 1: once big it should hold the baton and
        // the channel should stop emitting light rounds almost entirely.
        let n = 3;
        let cfg = SimConfig::new(n, n).adversary_type(Rate::one(), Rate::integer(1));
        let adv = Box::new(SingleTarget::new(1, 2));
        let mut sim = Simulator::new(cfg, build_mbtf(n), adv);
        sim.run(20_000);
        assert!(sim.violations().is_clean());
        // in the steady state nearly every round carries a packet
        let packet_fraction = sim.metrics().packet_rounds as f64 / sim.metrics().rounds as f64;
        assert!(packet_fraction > 0.95, "packet fraction {packet_fraction}");
    }

    #[test]
    fn drains_after_burst() {
        let cfg = SimConfig::new(5, 5).adversary_type(Rate::new(9, 10), Rate::integer(8));
        let adv = Box::new(UniformRandom::new(11));
        let mut sim = Simulator::new(cfg, build_mbtf(5), adv);
        sim.run(10_000);
        assert!(sim.run_until_drained(5_000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }
}
