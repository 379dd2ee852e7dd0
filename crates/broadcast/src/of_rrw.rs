//! Old-First Round-Robin-Withholding (OF-RRW), from Anantharamu et al. \[3\].
//!
//! Like RRW, but the withholding boundary is a global *phase* rather than a
//! per-station token receipt: packets injected (or adopted) during the
//! current phase are *new*; the token holder transmits only *old* packets.
//! A phase ends when the token completes a full cycle. This is the exact
//! building block the paper embeds in `k-Cycle` (per group) and `k-Clique`
//! (per pair); here it runs standalone as a broadcast algorithm with every
//! station on.

use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, Effects, Feedback, IndexedQueue, Message, Protocol,
    ProtocolCtx, Round, Wake, WakeMode,
};

use crate::token::TokenRing;

/// Per-station OF-RRW state: replicated token plus the phase marker.
pub struct OfRrw {
    ring: TokenRing,
    /// Packets that arrived strictly before this round are old.
    phase_marker: Round,
}

impl OfRrw {
    /// OF-RRW replica for a system of `n` stations.
    pub fn new(n: usize) -> Self {
        Self { ring: TokenRing::new(n), phase_marker: 0 }
    }

    /// Current phase number (completed token cycles).
    pub fn phase(&self) -> u64 {
        self.ring.laps()
    }
}

impl Protocol for OfRrw {
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        if self.ring.pos() == ctx.id {
            if let Some(qp) = queue.oldest_old(self.phase_marker) {
                return Action::Transmit(Message::plain(qp));
            }
        }
        Action::Listen
    }

    fn on_feedback(
        &mut self,
        ctx: &ProtocolCtx,
        _queue: &IndexedQueue,
        fb: Feedback<'_>,
        effects: &mut Effects,
    ) -> Wake {
        match fb {
            Feedback::Silence => {
                if self.ring.advance() {
                    // Cycle completed: everything that has arrived by now
                    // becomes old for the phase starting next round.
                    self.phase_marker = ctx.round + 1;
                }
            }
            Feedback::Heard(_) => {}
            Feedback::Collision => effects.flag("of-rrw: collision cannot happen"),
        }
        Wake::Stay
    }
}

/// Build OF-RRW for `n` stations (all switched on; run with `cap = n`).
pub fn build_of_rrw(n: usize) -> BuiltAlgorithm {
    BuiltAlgorithm {
        name: format!("OF-RRW(n={n})"),
        protocols: (0..n).map(|_| Box::new(OfRrw::new(n)) as Box<dyn Protocol>).collect(),
        wake: WakeMode::Adaptive,
        class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emac_adversary::{Scripted, UniformRandom};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn old_packets_go_first() {
        // n = 3. Phase 0 is rounds 0..2 (three silent token passes: nothing
        // is old yet). Packets injected in phase 0 become old for phase 1.
        let cfg = SimConfig::new(3, 3).adversary_type(Rate::one(), Rate::integer(4));
        let adv = Box::new(Scripted::from_triples(&[(0, 0, 1), (1, 0, 2)]));
        let mut sim = Simulator::new(cfg, build_of_rrw(3), adv);
        // rounds 0,1,2 silent (phase 0). Phase 1: station 0 transmits its two
        // old packets at rounds 3,4, silent 5, silent 6 (st.1), silent 7 (st.2).
        sim.run(5);
        assert_eq!(sim.metrics().delivered, 2);
        assert_eq!(sim.metrics().silent_rounds, 3);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn new_packets_wait_for_next_phase() {
        let cfg = SimConfig::new(2, 2).adversary_type(Rate::one(), Rate::integer(4));
        // phase 0 = rounds 0,1 (both silent). packet arrives at round 2
        // (inside phase 1) -> new for phase 1, transmitted in phase 2.
        let adv = Box::new(Scripted::from_triples(&[(2, 0, 1)]));
        let mut sim = Simulator::new(cfg, build_of_rrw(2), adv);
        sim.run(8);
        assert_eq!(sim.metrics().delivered, 1);
        // phase 1 = rounds 2,3 (silent); phase 2 starts round 4: station 0
        // transmits at round 4 -> delay 2.
        assert_eq!(sim.metrics().delay.max(), 2);
    }

    #[test]
    fn stable_below_rate_one_with_bounded_latency() {
        let n = 5;
        let beta = 3u64;
        let cfg = SimConfig::new(n, n).adversary_type(Rate::new(4, 5), Rate::integer(beta));
        let adv = Box::new(UniformRandom::new(9));
        let mut sim = Simulator::new(cfg, build_of_rrw(n), adv);
        sim.run(50_000);
        assert!(sim.violations().is_clean());
        // Bound (3) of the paper: 2k/(1-rho) + 2*beta with k = n positions,
        // doubled again for phase granularity slack.
        let bound = 2.0 * (2.0 * n as f64 / (1.0 - 0.8) + 2.0 * beta as f64);
        assert!(
            (sim.metrics().delay.max() as f64) <= bound,
            "latency {} exceeds {bound}",
            sim.metrics().delay.max()
        );
        assert!(sim.run_until_drained(2_000));
    }

    #[test]
    fn phase_counter_advances() {
        let cfg = SimConfig::new(2, 2);
        let mut sim = Simulator::new(cfg, build_of_rrw(2), Box::new(emac_sim::NoInjections));
        sim.run(10);
        // with no packets every round is silent; 10 rounds / 2 positions = 5 laps
        assert_eq!(sim.metrics().silent_rounds, 10);
    }
}
