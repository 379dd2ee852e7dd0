//! Round-Robin-Withholding (RRW), from Chlebus–Kowalski–Rokicki \[18\].
//!
//! The conceptual token visits stations in name order. When a station
//! receives the token it transmits, one per round, exactly the packets it
//! had at the moment of receipt — later arrivals are *withheld* until its
//! next turn. A silent round signals exhaustion and passes the token.
//!
//! RRW is a broadcast algorithm: it runs with every station switched on
//! (no energy cap), so every transmitted packet is heard by its destination
//! and delivered in one hop. Its packet latency is `O(n + β)/(1−ρ)`-shaped
//! for every `ρ < 1` (\[3\]), which is why the paper uses the RRW family as
//! the building block inside the energy-capped group algorithms.

use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, Effects, Feedback, IndexedQueue, Message, Protocol,
    ProtocolCtx, Round, Wake, WakeMode,
};

use crate::token::TokenRing;

/// Per-station RRW state: the replicated token plus the withholding marker.
pub struct Rrw {
    ring: TokenRing,
    /// Transmit only packets that arrived strictly before this round
    /// (set when the token arrives at this station).
    batch_marker: Round,
}

impl Rrw {
    /// RRW replica for a system of `n` stations.
    pub fn new(n: usize) -> Self {
        Self { ring: TokenRing::new(n), batch_marker: 0 }
    }
}

impl Protocol for Rrw {
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        if self.ring.pos() == ctx.id {
            if let Some(qp) = queue.oldest_old(self.batch_marker) {
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
                self.ring.advance();
                if self.ring.pos() == ctx.id {
                    // Token received at the end of this round: the batch is
                    // everything that has arrived up to and including now.
                    self.batch_marker = ctx.round + 1;
                }
            }
            Feedback::Heard(_) => {}
            Feedback::Collision => effects.flag("rrw: collision cannot happen"),
        }
        Wake::Stay
    }
}

/// Build RRW for `n` stations (all switched on; run with `cap = n`).
pub fn build_rrw(n: usize) -> BuiltAlgorithm {
    BuiltAlgorithm {
        name: format!("RRW(n={n})"),
        protocols: (0..n).map(|_| Box::new(Rrw::new(n)) as Box<dyn Protocol>).collect(),
        wake: WakeMode::Adaptive,
        class: AlgorithmClass { oblivious: false, plain_packet: true, direct: true },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emac_adversary::Scripted;
    use emac_sim::{Rate, SimConfig, Simulator};

    fn run_rrw(n: usize, script: &[(Round, usize, usize)], rounds: u64) -> Simulator {
        let cfg = SimConfig::new(n, n).adversary_type(Rate::one(), Rate::integer(4));
        let adv = Box::new(Scripted::from_triples(script));
        let mut sim = Simulator::new(cfg, build_rrw(n), adv);
        sim.run(rounds);
        sim
    }

    #[test]
    fn delivers_single_packet_at_token_turn() {
        // n = 3. Token: silent r0 (station 0 empty) -> station 1 holds from r1.
        // Packet injected into station 1 at round 0 is in its batch.
        let sim = run_rrw(3, &[(0, 1, 2)], 3);
        assert_eq!(sim.metrics().delivered, 1);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        // delivered at round 1 -> delay 1
        assert_eq!(sim.metrics().delay.max(), 1);
    }

    #[test]
    fn withholds_packets_arriving_while_holding() {
        // Station 1 gets one packet at round 0 (in batch) and one at round 1
        // (arrives while holding -> withheld until next cycle).
        let sim = run_rrw(3, &[(0, 1, 2), (1, 1, 2)], 10);
        assert_eq!(sim.metrics().delivered, 2);
        // first at round 1; second must wait for the token to come around:
        // silent r2 (batch done) -> 2 holds, silent r3 -> 0 holds, silent r4
        // -> 1 holds again, transmits at r5.
        assert_eq!(sim.metrics().delay.max(), 5 - 1);
    }

    #[test]
    fn drains_and_stays_clean_under_load() {
        let cfg = SimConfig::new(4, 4).adversary_type(Rate::new(3, 4), Rate::integer(2));
        let adv = Box::new(emac_adversary::RoundRobinLoad::new());
        let mut sim = Simulator::new(cfg, build_rrw(4), adv);
        sim.run(5_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.run_until_drained(1_000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }

    #[test]
    fn latency_matches_prior_work_shape() {
        // [3]: RRW broadcast latency is O((n + β)/(1−ρ)); check a generous
        // constant at rho = 1/2.
        let n = 6;
        let cfg = SimConfig::new(n, n).adversary_type(Rate::new(1, 2), Rate::integer(2));
        let adv = Box::new(emac_adversary::UniformRandom::new(42));
        let mut sim = Simulator::new(cfg, build_rrw(n), adv);
        sim.run(20_000);
        assert!(sim.violations().is_clean());
        let bound = 8.0 * (n as f64 + 2.0) / (1.0 - 0.5);
        assert!(
            (sim.metrics().delay.max() as f64) <= bound,
            "latency {} exceeds shape bound {bound}",
            sim.metrics().delay.max()
        );
    }
}
