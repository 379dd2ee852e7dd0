//! `k-Clique` — energy-oblivious *direct* routing (paper §6).
//!
//! The stations are partitioned into `2n/k` disjoint sets of `k/2`
//! consecutive stations. Every unordered pair of sets forms a *pair* of `k`
//! stations; the `m = (n/k)(2n/k − 1)` pairs are arranged in a cycle and
//! each is active for one round at a time, round-robin — a fixed schedule,
//! so the algorithm is `k`-energy-oblivious.
//!
//! A packet queued at `v` with destination `w` is handled exclusively in
//! the unique pair containing both `v`'s and `w`'s sets (any pair with
//! `v`'s set when the two coincide), so the destination is always switched
//! on when the packet is transmitted: routing is direct and plain-packet.
//! Within a pair the stations run OF-RRW in the pair's scaled time.
//!
//! Theorem 7: bounded latency for `ρ < k²/(n(2n−k))`, and latency at most
//! `8(n²/k)(1 + β/(2k))` when `ρ ≤ k²/(2n(2n−k))`.

use std::sync::Arc;

use emac_broadcast::TokenRing;
use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, Effects, Feedback, IndexedQueue, Message, OnSchedule,
    Protocol, ProtocolCtx, QueuedPacket, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;

/// Shared geometry: sets, pairs, the activity schedule, and the canonical
/// packet-to-pair assignment.
#[derive(Debug)]
pub struct KCliqueParams {
    n: usize,
    /// Effective energy cap after the paper's adjustment rules.
    k: usize,
    /// Number of sets `2n/k`.
    sets: usize,
    /// All unordered set pairs `(a, b)`, `a < b`, lexicographic.
    pairs: Vec<(usize, usize)>,
}

impl KCliqueParams {
    /// Geometry for `n` stations and requested cap `k`. The effective cap
    /// is the largest `k' ≤ k` that is even, divides `2n` (so the sets
    /// tile the stations), and satisfies `k' ≤ 2n/3` (so there are at
    /// least three pairs); `k' = 2` always qualifies for `n ≥ 3`.
    pub fn new(n: usize, k_requested: usize) -> Self {
        assert!(n >= 3, "k-Clique needs at least 3 stations");
        assert!(k_requested >= 2, "energy cap below 2 cannot route");
        let k = (2..=k_requested.min(n))
            .rev()
            .find(|&k| k % 2 == 0 && n.is_multiple_of(k / 2) && 3 * k <= 2 * n)
            .expect("k = 2 always satisfies the constraints for n >= 3");
        let sets = 2 * n / k;
        let mut pairs = Vec::with_capacity(sets * (sets - 1) / 2);
        for a in 0..sets {
            for b in a + 1..sets {
                pairs.push((a, b));
            }
        }
        Self { n, k, sets, pairs }
    }

    /// Effective cap (after adjustment).
    pub fn k(&self) -> usize {
        self.k
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of pairs `m` (the schedule period).
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The set station `s` belongs to.
    pub fn set_of(&self, s: StationId) -> usize {
        s / (self.k / 2)
    }

    /// Stations of set `a` (consecutive names).
    pub fn set_members(&self, a: usize) -> std::ops::Range<usize> {
        a * (self.k / 2)..(a + 1) * (self.k / 2)
    }

    /// Index of pair `{a, b}` (`a ≠ b`) in the schedule.
    pub fn pair_index(&self, a: usize, b: usize) -> usize {
        let (a, b) = (a.min(b), a.max(b));
        // lexicographic rank of (a, b) with a < b over `sets` elements
        a * self.sets - a * (a + 1) / 2 + (b - a - 1)
    }

    /// The pair active in `round`.
    pub fn active_pair(&self, round: Round) -> usize {
        (round % self.pairs.len() as u64) as usize
    }

    /// The `k` stations of pair `p`, in ascending name order.
    pub fn pair_members(&self, p: usize) -> Vec<StationId> {
        let (a, b) = self.pairs[p];
        self.set_members(a).chain(self.set_members(b)).collect()
    }

    /// The pair in which a packet held at `v` with destination `w` is
    /// handled: the unique pair of both sets, or — when the sets coincide —
    /// the pair of `v`'s set with the cyclically next set.
    pub fn packet_pair(&self, v: StationId, w: StationId) -> usize {
        let a = self.set_of(v);
        let b = self.set_of(w);
        if a == b {
            self.pair_index(a, (a + 1) % self.sets)
        } else {
            self.pair_index(a, b)
        }
    }

    /// All pairs containing station `s` (one per other set).
    pub fn pairs_of(&self, s: StationId) -> Vec<usize> {
        let a = self.set_of(s);
        (0..self.sets).filter(|&b| b != a).map(|b| self.pair_index(a, b)).collect()
    }
}

impl OnSchedule for KCliqueParams {
    fn is_on(&self, station: StationId, round: Round) -> bool {
        let (a, b) = self.pairs[self.active_pair(round)];
        let s = self.set_of(station);
        s == a || s == b
    }

    fn on_set_into(&self, _n: usize, round: Round, out: &mut Vec<StationId>) {
        let (a, b) = self.pairs[self.active_pair(round)];
        out.clear();
        // pair_members(p), inlined to avoid the intermediate allocation;
        // a < b, so chaining the two consecutive runs keeps ascending order.
        out.extend(self.set_members(a));
        out.extend(self.set_members(b));
    }

    /// The pair rotation repeats after `m` rounds.
    fn period(&self) -> Option<u64> {
        Some(self.pairs.len() as u64)
    }
}

/// One station's replica of a pair's OF-RRW state.
struct PairReplica {
    p: usize,
    /// This station's position among the pair's members (ascending), the
    /// token position at which it holds the token.
    my_pos: usize,
    /// Destinations whose packets this station routes through pair `p`.
    dests: Vec<StationId>,
    ring: TokenRing,
    marker: Round,
}

impl PairReplica {
    /// The earliest-arrived old packet assigned to this pair: the oldest of
    /// its destinations' old heads, O(k) through the per-destination lists.
    fn oldest_old<'q>(&self, queue: &'q IndexedQueue) -> Option<&'q QueuedPacket> {
        self.dests
            .iter()
            .filter_map(|&d| queue.oldest_old_for(d, self.marker))
            .min_by_key(|qp| qp.seq)
    }
}

/// Per-station `k-Clique` protocol.
pub struct KCliqueStation {
    params: Arc<KCliqueParams>,
    /// The set this station belongs to.
    set: usize,
    /// One replica per other set `b`, ascending ([`KCliqueParams::pairs_of`]
    /// order), so the replica of pair `{set, b}` sits at position `b`, or
    /// `b − 1` past the station's own set.
    reps: Vec<PairReplica>,
}

impl KCliqueStation {
    fn new(params: Arc<KCliqueParams>, id: StationId) -> Self {
        let reps = params
            .pairs_of(id)
            .into_iter()
            .map(|p| PairReplica {
                p,
                my_pos: params
                    .pair_members(p)
                    .iter()
                    .position(|&m| m == id)
                    .expect("a station is a member of its own pairs"),
                dests: (0..params.n).filter(|&w| params.packet_pair(id, w) == p).collect(),
                ring: TokenRing::new(params.k),
                marker: 0,
            })
            .collect();
        Self { set: params.set_of(id), params, reps }
    }

    /// The replica of the pair active this round, if the pair holds this
    /// station: the schedule clock's phase is the pair, and the pair's
    /// other set indexes the replica — O(1), no scan.
    fn active_replica(&self, ctx: &ProtocolCtx) -> Option<usize> {
        debug_assert_eq!(ctx.phase, ctx.round % self.params.num_pairs() as u64);
        let (a, b) = self.params.pairs[ctx.phase as usize];
        let other = match self.set {
            s if s == a => b,
            s if s == b => a,
            _ => return None,
        };
        let i = if other < self.set { other } else { other - 1 };
        debug_assert_eq!(self.reps[i].p, ctx.phase as usize);
        Some(i)
    }
}

impl Protocol for KCliqueStation {
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        let Some(rep) = self.active_replica(ctx).map(|i| &self.reps[i]) else {
            return Action::Listen;
        };
        if rep.ring.pos() == rep.my_pos {
            if let Some(qp) = rep.oldest_old(queue) {
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
        let Some(i) = self.active_replica(ctx) else {
            effects.flag("k-clique: awake outside own pairs");
            return Wake::Stay;
        };
        let rep = &mut self.reps[i];
        match fb {
            Feedback::Silence => {
                if rep.ring.advance() {
                    rep.marker = ctx.round + 1;
                }
            }
            Feedback::Heard(_) => {
                // direct routing: the destination is in the pair, delivered
            }
            Feedback::Collision => effects.flag("k-clique: collision cannot happen"),
        }
        Wake::Stay
    }
}

/// The `k-Clique` algorithm of §6 with requested energy cap `k`.
#[derive(Clone, Copy, Debug)]
pub struct KClique {
    /// Requested energy cap (adjusted down per the paper's divisibility and
    /// `k ≤ 2n/3` rules).
    pub k: usize,
}

impl KClique {
    /// `k-Clique` with cap `k`.
    pub fn new(k: usize) -> Self {
        Self { k }
    }

    /// The geometry used for `n` stations.
    pub fn params(&self, n: usize) -> KCliqueParams {
        KCliqueParams::new(n, self.k)
    }
}

impl Algorithm for KClique {
    fn name(&self) -> String {
        format!("k-Clique(k={})", self.k)
    }

    fn class(&self) -> AlgorithmClass {
        AlgorithmClass::OBL_PP_DIR
    }

    fn required_cap(&self, n: usize) -> usize {
        KCliqueParams::new(n, self.k).k()
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        let params = Arc::new(KCliqueParams::new(n, self.k));
        let protocols = (0..n)
            .map(|s| Box::new(KCliqueStation::new(Arc::clone(&params), s)) as Box<dyn Protocol>)
            .collect();
        BuiltAlgorithm {
            name: format!("k-Clique(n={n}, k={})", params.k()),
            protocols,
            wake: WakeMode::Scheduled(params),
            class: self.class(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use emac_adversary::{LeastOnPair, Scripted, UniformRandom};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn geometry_n6_k4() {
        let p = KCliqueParams::new(6, 4);
        assert_eq!(p.k(), 4);
        assert_eq!(p.sets(), 3);
        assert_eq!(p.num_pairs(), 3);
        assert_eq!(p.set_of(0), 0);
        assert_eq!(p.set_of(3), 1);
        assert_eq!(p.pair_members(0), vec![0, 1, 2, 3]); // sets {0,1}
        assert_eq!(p.pair_members(1), vec![0, 1, 4, 5]); // sets {0,2}
        assert_eq!(p.pair_members(2), vec![2, 3, 4, 5]); // sets {1,2}
        assert_eq!(p.pair_index(1, 0), 0);
        assert_eq!(p.pair_index(2, 1), 2);
    }

    #[test]
    fn k_adjusts_to_divisibility_and_two_thirds() {
        // n = 9: k = 6 fails both 2n/3 = 6 (ok) and 9 % 3 == 0 (ok) -> k = 6
        assert_eq!(KCliqueParams::new(9, 6).k(), 6);
        // n = 8, k = 6: 8 % 3 != 0 -> fall to 4 (8 % 2 == 0, 12 <= 16)
        assert_eq!(KCliqueParams::new(8, 6).k(), 4);
        // k = 2 fallback
        assert_eq!(KCliqueParams::new(5, 3).k(), 2);
    }

    #[test]
    fn packet_pair_contains_both_endpoints() {
        let p = KCliqueParams::new(8, 4);
        for v in 0..8 {
            for w in 0..8 {
                if v == w {
                    continue;
                }
                let pair = p.packet_pair(v, w);
                let members = p.pair_members(pair);
                assert!(members.contains(&v), "v={v} w={w}");
                assert!(members.contains(&w), "v={v} w={w}");
            }
        }
    }

    #[test]
    fn schedule_activates_exactly_k_stations() {
        let p = KCliqueParams::new(12, 4);
        for r in 0..3 * p.num_pairs() as u64 {
            assert_eq!(p.on_set(12, r).len(), 4);
        }
        // every station appears in sets-1 pairs
        for s in 0..12 {
            assert_eq!(p.pairs_of(s).len(), p.sets() - 1);
        }
    }

    /// Reference for [`PairReplica::oldest_old`]: the first old packet in
    /// arrival order whose pair is `p`, found by scanning the whole queue.
    fn reference_scan<'q>(
        params: &KCliqueParams,
        v: StationId,
        p: usize,
        marker: Round,
        queue: &'q IndexedQueue,
    ) -> Option<&'q QueuedPacket> {
        queue.iter_old(marker).find(|qp| params.packet_pair(v, qp.packet.dest) == p)
    }

    #[test]
    fn per_destination_selection_matches_arrival_scan() {
        use emac_sim::{Packet, PacketId, SmallRng};

        let mut rng = SmallRng::seed_from_u64(0xc119e);
        let mut found = 0usize;
        // sets of one station (n=6, k=2) and of two (n=12, k=4)
        for (n, k) in [(6usize, 2usize), (12, 4)] {
            let params = Arc::new(KCliqueParams::new(n, k));
            assert_eq!(params.k(), k);
            for v in 0..n {
                let mut station = KCliqueStation::new(Arc::clone(&params), v);
                assert_eq!(station.reps.len(), params.sets() - 1, "one replica per pair of v");
                for _case in 0..24 {
                    let mut queue = IndexedQueue::new(n);
                    let mut handles = Vec::new();
                    let first = rng.random_range_u64(1..20);
                    let mut round = first;
                    for id in 0..rng.random_range(1..80) as u64 {
                        round += rng.random_range_u64(0..3);
                        let dest = (v + 1 + rng.random_range(0..n - 1)) % n;
                        let packet =
                            Packet { id: PacketId(id), dest, injected_round: round, origin: v };
                        handles.push(queue.push(packet, round).handle());
                    }
                    // drop about a third, from anywhere in the queue
                    for _ in 0..handles.len() / 3 {
                        let h = handles.swap_remove(rng.random_range(0..handles.len()));
                        queue.remove(h).expect("queued");
                    }
                    let inside = first + rng.random_range_u64(0..round - first + 1);
                    for marker in [0, first, inside, round, round + 1] {
                        for rep in &mut station.reps {
                            rep.marker = marker;
                            let want = reference_scan(&params, v, rep.p, marker, &queue);
                            assert_eq!(
                                rep.oldest_old(&queue),
                                want,
                                "n={n} k={k} v={v} pair={} marker={marker}",
                                rep.p
                            );
                            found += usize::from(want.is_some());
                        }
                    }
                }
            }
        }
        assert!(found > 1_000, "the comparison must not be vacuous ({found} hits)");
    }

    #[test]
    fn delivers_scripted_packet_directly() {
        let p = KCliqueParams::new(6, 4);
        let cfg = SimConfig::new(6, p.k()).adversary_type(Rate::new(1, 20), Rate::integer(1));
        let adv = Box::new(Scripted::from_triples(&[(0, 0, 5)]));
        let mut sim = Simulator::new(cfg, KClique::new(4).build(6), adv);
        sim.run(20 * p.num_pairs() as u64 * 4);
        assert_eq!(sim.metrics().delivered, 1);
        assert_eq!(sim.metrics().adoptions, 0, "direct routing never relays");
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn stable_with_bounded_latency_at_half_threshold() {
        let (n, k) = (8u64, 4u64);
        let beta = 2u64;
        let rho = bounds::k_clique_rate_for_latency(n, k); // k²/(2n(2n−k))
        let cfg = SimConfig::new(n as usize, k as usize)
            .adversary_type(rho, Rate::integer(beta))
            .sample_every(512);
        let adv = Box::new(UniformRandom::new(23));
        let mut sim = Simulator::new(cfg, KClique::new(k as usize).build(n as usize), adv);
        sim.run(300_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= k as usize);
        assert!(sim.metrics().queue_growth_slope() < 0.01);
        let bound = bounds::k_clique_latency_bound(n, k, beta as f64);
        let measured = sim.metrics().delay.max() as f64;
        assert!(measured <= bound, "latency {measured} exceeds bound {bound}");
        assert!(sim.run_until_drained(100_000));
    }

    #[test]
    fn unstable_above_pair_threshold() {
        // Theorem 9 construction: flood the least co-scheduled ordered pair
        // above k(k−1)/(n(n−1)) ≥ the k-Clique stability threshold.
        let (n, k) = (8usize, 4usize);
        let alg = KClique::new(k);
        let built = alg.build(n);
        let schedule = match &built.wake {
            WakeMode::Scheduled(s) => Arc::clone(s),
            _ => unreachable!(),
        };
        let horizon = alg.params(n).num_pairs() as u64;
        let rho = bounds::k_subsets_rate_threshold(n as u64, k as u64).scaled(3, 2);
        let cfg = SimConfig::new(n, k).adversary_type(rho, Rate::integer(2)).sample_every(512);
        let adv = Box::new(LeastOnPair::new(&schedule, n, horizon));
        let mut sim = Simulator::new(cfg, built, adv);
        sim.run(200_000);
        assert!(
            sim.metrics().queue_growth_slope() > 0.01,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
        assert!(sim.metrics().outstanding() > 1_000);
    }
}
