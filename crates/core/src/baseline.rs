//! An *uncoordinated* duty-cycling baseline — what the paper's algorithms
//! are implicitly compared against.
//!
//! `DutyCycle` keeps exactly `k` pseudorandomly chosen stations on per
//! round (a legal `k`-energy-oblivious schedule) and lets every switched-on
//! station with packets transmit with probability 1/2. Without the paper's
//! coordination this is doubly broken, and measurably so:
//!
//! * two holders awake together collide — wasted rounds;
//! * a heard packet whose destination happens to be asleep is **lost**
//!   (this model has no acknowledgements, so the sender cannot know to
//!   retransmit — which is exactly why the paper's algorithms schedule
//!   *receivers*, not just transmitters).
//!
//! The validator consequently reports collisions and lost packets for this
//! baseline; those counts are the experiment's measurement, not a bug (see
//! the `ablations` binary, section B0). Do not use this as a routing
//! algorithm.

use std::sync::{Arc, Mutex};

use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, Effects, Feedback, IndexedQueue, Message, OnSchedule,
    Protocol, ProtocolCtx, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;

/// SplitMix64 — a tiny, high-quality mixing function; keeps the baseline
/// deterministic per seed without a `rand` dependency in the hot path.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Pseudorandom exactly-`k`-on schedule: round `r` switches on the first
/// `k` elements of a seeded Fisher–Yates shuffle of the stations.
#[derive(Debug)]
pub struct RandomOnSchedule {
    n: usize,
    k: usize,
    seed: u64,
    /// Reusable shuffle buffer. The partial Fisher–Yates needs all `n`
    /// station names; keeping them here (behind an uncontended mutex — the
    /// engine queries the schedule from one thread) makes `on_set_into`
    /// allocation-free in steady state.
    scratch: Mutex<Vec<StationId>>,
}

impl RandomOnSchedule {
    /// Schedule for `n` stations, cap `k`, deterministic in `seed`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        assert!(k >= 2 && k <= n);
        Self { n, k, seed, scratch: Mutex::new(Vec::with_capacity(n)) }
    }

    /// Partial Fisher–Yates of `ids = 0..n` for `round`; the chosen set is
    /// `ids[..k]` (unsorted).
    fn shuffle_into(&self, round: Round, ids: &mut Vec<StationId>) {
        ids.clear();
        ids.extend(0..self.n);
        let mut state = mix(self.seed ^ round.wrapping_mul(0x517c_c1b7_2722_0a95));
        for i in 0..self.k.min(self.n - 1) {
            state = mix(state);
            let j = i + (state as usize) % (self.n - i);
            ids.swap(i, j);
        }
    }
}

impl OnSchedule for RandomOnSchedule {
    fn is_on(&self, station: StationId, round: Round) -> bool {
        let mut ids = self.scratch.lock().expect("schedule scratch poisoned");
        self.shuffle_into(round, &mut ids);
        ids[..self.k].contains(&station)
    }

    fn on_set_into(&self, _n: usize, round: Round, out: &mut Vec<StationId>) {
        let mut ids = self.scratch.lock().expect("schedule scratch poisoned");
        self.shuffle_into(round, &mut ids);
        out.clear();
        out.extend_from_slice(&ids[..self.k]);
        out.sort_unstable();
    }

    /// Explicitly aperiodic: the round number feeds the mixing function,
    /// so no finite period exists and the engine must keep enumerating
    /// per round (the shuffle scratch keeps that path allocation-free).
    fn period(&self) -> Option<u64> {
        None
    }
}

/// Per-station protocol: transmit the oldest packet with probability 1/2
/// whenever on with a non-empty queue.
pub struct DutyCycleStation {
    seed: u64,
}

impl Protocol for DutyCycleStation {
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        if let Some(qp) = queue.oldest() {
            let coin = mix(self.seed ^ mix(ctx.id as u64) ^ ctx.round);
            if coin & 1 == 1 {
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

/// The uncoordinated baseline with energy cap `k`.
#[derive(Clone, Copy, Debug)]
pub struct DutyCycle {
    /// Energy cap (exactly `k` stations on per round).
    pub k: usize,
    /// Schedule/coin seed.
    pub seed: u64,
}

impl DutyCycle {
    /// Baseline with cap `k` and seed 0.
    pub fn new(k: usize) -> Self {
        Self { k, seed: 0 }
    }

    /// Baseline with an explicit seed.
    pub fn seeded(k: usize, seed: u64) -> Self {
        Self { k, seed }
    }
}

impl Algorithm for DutyCycle {
    fn name(&self) -> String {
        format!("DutyCycle-baseline(k={})", self.k)
    }

    fn class(&self) -> AlgorithmClass {
        // Oblivious and plain-packet; "direct" in that it never relays —
        // but unlike the paper's algorithms it LOSES packets.
        AlgorithmClass::OBL_PP_DIR
    }

    fn required_cap(&self, n: usize) -> usize {
        self.k.min(n)
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        let schedule: Arc<dyn OnSchedule> =
            Arc::new(RandomOnSchedule::new(n, self.k.min(n), self.seed));
        BuiltAlgorithm {
            name: format!("{}(n={n})", self.name()),
            protocols: (0..n)
                .map(|s| {
                    Box::new(DutyCycleStation { seed: mix(self.seed ^ s as u64) })
                        as Box<dyn Protocol>
                })
                .collect(),
            wake: WakeMode::Scheduled(schedule),
            class: self.class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ScenarioSpec;
    use emac_adversary::UniformRandom;
    use emac_sim::Rate;

    #[test]
    fn schedule_is_exactly_k_wide_and_deterministic() {
        let s = RandomOnSchedule::new(10, 4, 7);
        for r in 0..200 {
            let on = s.on_set(10, r);
            assert_eq!(on.len(), 4, "round {r}");
            assert!(on.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
            assert!(on.iter().all(|&x| x < 10));
            assert_eq!(on, RandomOnSchedule::new(10, 4, 7).on_set(10, r), "deterministic");
        }
        // different rounds give different sets (overwhelmingly)
        assert_ne!(s.on_set(10, 0), s.on_set(10, 1));
    }

    #[test]
    fn schedule_covers_all_stations_over_time() {
        let s = RandomOnSchedule::new(8, 3, 1);
        let mut seen = [false; 8];
        for r in 0..200 {
            for st in s.on_set(8, r) {
                seen[st] = true;
            }
        }
        assert!(seen.iter().all(|&x| x), "every station gets scheduled");
    }

    #[test]
    fn baseline_loses_packets_and_collides() {
        // The point of the baseline: at a load the paper's cap-4 algorithms
        // handle cleanly, uncoordinated duty-cycling drops traffic.
        let report = ScenarioSpec::new("duty-cycle", "uniform")
            .n(8)
            .rho(Rate::new(1, 10))
            .beta(2)
            .rounds(50_000)
            .run(&DutyCycle::new(4), Box::new(UniformRandom::new(3)));
        assert!(report.metrics.max_awake <= 4);
        let v = &report.violations;
        assert!(v.packets_lost > 0, "losses are the expected failure mode");
        assert!(v.collisions > 0, "collisions are the expected failure mode");
        // it does deliver *something* (dest occasionally awake)
        assert!(report.metrics.delivered > 0);
        assert!(report.metrics.delivered < report.metrics.injected);
    }
}
