//! `k-Cycle` — energy-oblivious indirect routing (paper §5).
//!
//! The stations are partitioned into `ℓ` groups of `k` consecutive
//! stations, each sharing one *connector* station with the next group, the
//! last group wrapping around to share station 0 with the first. Groups
//! take turns being *active* for `δ = ⌈4(n−1)k/(n−k)⌉` rounds in cyclic
//! order; while a group is active all its (up to `k`) stations are switched
//! on — the schedule is fixed in advance, so the algorithm is
//! `k`-energy-oblivious.
//!
//! An active group runs OF-RRW: a replicated token visits members in order;
//! the holder transmits its *old* packets one per round; a silent round
//! advances the token; a completed cycle ends the group's phase. A packet
//! whose destination lies outside the active group is adopted by the
//! group's *forward connector* (its last member, which is the first member
//! of the next group), so packets hop group-to-group around the cycle until
//! their destination's group is reached — plain-packet, indirect routing.
//!
//! Theorem 5: latency at most `(32 + β)·n` for every `(ρ, β)`-adversary
//! with `ρ < (k−1)/(n−1)`.

use std::sync::Arc;

use emac_broadcast::TokenRing;
use emac_sim::{
    Action, AlgorithmClass, BuiltAlgorithm, Effects, Feedback, IndexedQueue, Message, OnSchedule,
    Protocol, ProtocolCtx, Round, StationId, Wake, WakeMode,
};

use crate::algorithm::Algorithm;

/// The paper's cap adjustment for `n` stations and a requested cap `k`:
/// the cap is held below `n` and lowered to `⌈n/2⌉` when `2k > n + 1`.
/// Returns the adjusted cap with the group count `ℓ = ⌈n/(k−1)⌉`, or `None`
/// when the adjusted cap is below 2, where no group can route.
pub(crate) fn adjusted_cap(n: usize, k: usize) -> Option<(usize, usize)> {
    let mut k = k.min(n.saturating_sub(1));
    if 2 * k > n + 1 {
        k = n.div_ceil(2);
    }
    (k >= 2).then(|| (k, n.div_ceil(k - 1)))
}

/// Shared geometry of the group cycle: group membership, connectors, and
/// the round-robin activity schedule. Immutable after construction; also
/// serves as the precomputed [`OnSchedule`].
#[derive(Debug)]
pub struct KCycleParams {
    n: usize,
    /// Effective energy cap after the paper's adjustment rule.
    k: usize,
    /// Number of groups.
    l: usize,
    /// Virtual station count `ℓ(k−1)`; ids in `[n, v)` are dummies.
    v: usize,
    /// Rounds each group stays active.
    delta: u64,
    /// `forward_connector(g)` for each group, precomputed (read once per
    /// station per awake round on the feedback path).
    forwards: Vec<StationId>,
}

impl KCycleParams {
    /// Geometry for `n` stations and requested cap `k`. Applies the paper's
    /// adjustment: if `2k > n + 1` then `k` is lowered to `⌊(n+1)/2⌋`.
    pub fn new(n: usize, k_requested: usize) -> Self {
        Self::with_delta_scale(n, k_requested, 1, 1)
    }

    /// Geometry with the activity segment scaled to `δ·num/den` (ablation
    /// A2: Theorem 5's proof needs `δ = 4(n−1)k/(n−k)` so that a group's
    /// backlog fits within one activity segment; shorter segments should
    /// hurt latency).
    pub fn with_delta_scale(n: usize, k_requested: usize, num: u64, den: u64) -> Self {
        assert!(n >= 3, "k-Cycle needs at least 3 stations");
        assert!(k_requested >= 2, "energy cap below 2 cannot route");
        assert!(num > 0 && den > 0);
        let (k, l) = adjusted_cap(n, k_requested).expect("adjusted cap fell below 2 (n too small)");
        let v = l * (k - 1);
        let delta = ((4 * (n - 1) * k) as u64 * num).div_ceil((n - k) as u64 * den).max(1);
        let forwards = (0..l)
            .map(|g| {
                let c = ((g + 1) * (k - 1)) % v;
                debug_assert!(c < n, "forward connectors are always real stations");
                c
            })
            .collect();
        Self { n, k, l, v, delta, forwards }
    }

    /// Effective cap (after adjustment).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of groups `ℓ`.
    pub fn groups(&self) -> usize {
        self.l
    }

    /// Activity segment length `δ`.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// Members of group `g` as virtual ids (the last one may be a dummy
    /// `≥ n`, except for connectors which are always real).
    pub fn group_members(&self, g: usize) -> Vec<usize> {
        (0..self.k).map(|j| (g * (self.k - 1) + j) % self.v).collect()
    }

    /// The group that is active in `round`.
    pub fn active_group(&self, round: Round) -> usize {
        ((round / self.delta) % self.l as u64) as usize
    }

    /// The group in which packets queued at station `s` are transmitted:
    /// the group where `s` is not the forward connector.
    pub fn home(&self, s: StationId) -> usize {
        debug_assert!(s < self.n);
        s / (self.k - 1)
    }

    /// Groups station `s` belongs to (one, or two for connectors).
    pub fn groups_of(&self, s: StationId) -> Vec<usize> {
        let mut gs = vec![self.home(s)];
        if s.is_multiple_of(self.k - 1) {
            // also the last member of the preceding group
            gs.push((self.home(s) + self.l - 1) % self.l);
        }
        gs
    }

    /// The forward connector of group `g`: its last member, first member of
    /// group `g + 1`. Always a real station.
    pub fn forward_connector(&self, g: usize) -> StationId {
        self.forwards[g]
    }
}

impl OnSchedule for KCycleParams {
    fn is_on(&self, station: StationId, round: Round) -> bool {
        let g = self.active_group(round);
        self.groups_of(station).contains(&g)
    }

    fn on_set_into(&self, n: usize, round: Round, out: &mut Vec<StationId>) {
        let g = self.active_group(round);
        out.clear();
        // group_members(g), inlined to avoid the intermediate allocation:
        // real stations only (a group's last member may be a dummy).
        for j in 0..self.k {
            let s = (g * (self.k - 1) + j) % self.v;
            if s < n {
                out.push(s);
            }
        }
        out.sort_unstable();
    }

    /// One full rotation of the `ℓ` groups, `δ` rounds each.
    fn period(&self) -> Option<u64> {
        Some(self.delta * self.l as u64)
    }
}

/// One station's replica of a group's OF-RRW state.
struct GroupReplica {
    g: usize,
    members: Vec<usize>,
    /// This station's position in `members`, the token position at which
    /// it holds the token.
    my_pos: usize,
    ring: TokenRing,
    /// Packets that arrived strictly before this round are old for the
    /// group's current phase.
    marker: Round,
}

/// Per-station `k-Cycle` protocol.
pub struct KCycleStation {
    params: Arc<KCycleParams>,
    reps: Vec<GroupReplica>,
    /// This station's home group (constant; `act` runs every awake round).
    home: usize,
    /// `active_group` memo for the current activity segment: any round in
    /// `[seg_start, seg_end)` belongs to `cached_group`, so the 64-bit
    /// division behind `active_group` runs once per segment per station
    /// instead of twice per station per awake round. Bounded on both
    /// sides, so out-of-order rounds (an external driver replaying a
    /// protocol) still resolve correctly.
    seg_start: Round,
    seg_end: Round,
    cached_group: usize,
}

impl KCycleStation {
    fn new(params: Arc<KCycleParams>, id: StationId) -> Self {
        let reps = params
            .groups_of(id)
            .into_iter()
            .map(|g| {
                let members = params.group_members(g);
                let my_pos =
                    members.iter().position(|&m| m == id).expect("a station is in its groups");
                GroupReplica { g, members, my_pos, ring: TokenRing::new(params.k), marker: 0 }
            })
            .collect();
        let home = params.home(id);
        Self { params, reps, home, seg_start: 0, seg_end: 0, cached_group: 0 }
    }

    fn group_of_round(&mut self, round: Round) -> usize {
        if round < self.seg_start || round >= self.seg_end {
            let segment = round / self.params.delta;
            self.cached_group = (segment % self.params.l as u64) as usize;
            self.seg_start = segment * self.params.delta;
            self.seg_end = self.seg_start + self.params.delta;
        }
        self.cached_group
    }

    fn replica_mut(&mut self, g: usize) -> Option<&mut GroupReplica> {
        self.reps.iter_mut().find(|r| r.g == g)
    }
}

impl Protocol for KCycleStation {
    fn act(&mut self, ctx: &ProtocolCtx, queue: &IndexedQueue) -> Action {
        let g = self.group_of_round(ctx.round);
        let home = self.home;
        let Some(rep) = self.replica_mut(g) else {
            // Scheduled awake only for own groups; anything else is a bug.
            return Action::Listen;
        };
        if rep.ring.pos() == rep.my_pos && g == home {
            if let Some(qp) = queue.oldest_old(rep.marker) {
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
        let g = self.group_of_round(ctx.round);
        let forward = self.params.forward_connector(g);
        let Some(rep) = self.replica_mut(g) else {
            effects.flag("k-cycle: awake outside own groups");
            return Wake::Stay;
        };
        match fb {
            Feedback::Silence => {
                if rep.ring.advance() {
                    rep.marker = ctx.round + 1;
                }
            }
            Feedback::Heard(m) => {
                if let Some(p) = m.packet {
                    if !rep.members.contains(&p.dest) && ctx.id == forward {
                        effects.adopt_heard();
                    }
                }
            }
            Feedback::Collision => effects.flag("k-cycle: collision cannot happen"),
        }
        Wake::Stay
    }
}

/// The `k-Cycle` algorithm of §5 with requested energy cap `k`.
#[derive(Clone, Copy, Debug)]
pub struct KCycle {
    /// Requested energy cap (adjusted down per the paper when `2k > n+1`).
    pub k: usize,
    /// Activity-segment scale `δ·num/den` (1/1 = the paper's δ).
    pub delta_scale: (u64, u64),
}

impl KCycle {
    /// `k-Cycle` with cap `k` and the paper's activity segment δ.
    pub fn new(k: usize) -> Self {
        Self { k, delta_scale: (1, 1) }
    }

    /// Ablation variant with the activity segment scaled by `num/den`.
    pub fn with_delta_scale(k: usize, num: u64, den: u64) -> Self {
        Self { k, delta_scale: (num, den) }
    }

    /// The geometry this algorithm will use for `n` stations (exposes the
    /// effective `k`, `δ`, and the schedule for analysis and adversaries).
    pub fn params(&self, n: usize) -> KCycleParams {
        KCycleParams::with_delta_scale(n, self.k, self.delta_scale.0, self.delta_scale.1)
    }
}

impl Algorithm for KCycle {
    fn name(&self) -> String {
        format!("k-Cycle(k={})", self.k)
    }

    fn class(&self) -> AlgorithmClass {
        AlgorithmClass::OBL_PP_IND
    }

    fn required_cap(&self, n: usize) -> usize {
        self.params(n).k()
    }

    fn build(&self, n: usize) -> BuiltAlgorithm {
        let params = Arc::new(self.params(n));
        let protocols = (0..n)
            .map(|s| Box::new(KCycleStation::new(Arc::clone(&params), s)) as Box<dyn Protocol>)
            .collect();
        BuiltAlgorithm {
            name: format!("k-Cycle(n={n}, k={})", params.k()),
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
    use emac_adversary::{Scripted, UniformRandom};
    use emac_sim::{Rate, SimConfig, Simulator};

    #[test]
    fn geometry_small_system() {
        // n = 5, k = 3: l = ceil(5/2) = 3 groups over v = 6 virtual ids.
        let p = KCycleParams::new(5, 3);
        assert_eq!(p.k(), 3);
        assert_eq!(p.groups(), 3);
        assert_eq!(p.group_members(0), vec![0, 1, 2]);
        assert_eq!(p.group_members(1), vec![2, 3, 4]);
        assert_eq!(p.group_members(2), vec![4, 5, 0]); // 5 is a dummy
        assert_eq!(p.forward_connector(0), 2);
        assert_eq!(p.forward_connector(1), 4);
        assert_eq!(p.forward_connector(2), 0);
        assert_eq!(p.home(1), 0);
        assert_eq!(p.home(2), 1);
        assert_eq!(p.groups_of(2), vec![1, 0]);
        assert_eq!(p.groups_of(0), vec![0, 2]);
        assert_eq!(p.groups_of(3), vec![1]);
    }

    #[test]
    fn k_is_adjusted_down_when_too_large() {
        // 2k > n+1 -> k = floor((n+1)/2)
        let p = KCycleParams::new(5, 4);
        assert_eq!(p.k(), 3);
        let p = KCycleParams::new(9, 8);
        assert_eq!(p.k(), 5);
    }

    #[test]
    fn every_station_is_covered_and_caps_hold() {
        for (n, k) in [(5, 3), (7, 3), (9, 4), (12, 5), (16, 4)] {
            let p = KCycleParams::new(n, k);
            let mut covered = vec![false; n];
            for g in 0..p.groups() {
                let members = p.group_members(g);
                assert_eq!(members.len(), p.k());
                for &m in members.iter().filter(|&&m| m < n) {
                    covered[m] = true;
                }
                // consecutive groups share exactly the connector
                let next = p.group_members((g + 1) % p.groups());
                assert!(next.contains(&p.forward_connector(g)));
            }
            assert!(covered.iter().all(|&c| c), "n={n} k={k}");
            // schedule switches on at most k stations
            for r in (0..10 * p.delta()).step_by(7) {
                assert!(p.on_set(n, r).len() <= p.k());
            }
        }
    }

    #[test]
    fn packet_hops_between_groups() {
        // n = 5, k = 3: packet injected into station 0 (home G0), destined
        // to station 3 (in G1 only). It must be adopted by connector 2.
        let p = KCycleParams::new(5, 3);
        let cfg = SimConfig::new(5, p.k())
            .adversary_type(Rate::new(1, 10), Rate::integer(2))
            .sample_every(64);
        let adv = Box::new(Scripted::from_triples(&[(0, 0, 3)]));
        let mut sim = Simulator::new(cfg, KCycle::new(3).build(5), adv);
        sim.run(6 * p.delta() * 3);
        assert_eq!(sim.metrics().delivered, 1, "packet should arrive");
        assert!(sim.metrics().adoptions >= 1, "must hop through the connector");
        assert!(sim.violations().is_clean(), "{}", sim.violations());
    }

    #[test]
    fn stable_below_threshold_with_bounded_latency() {
        let (n, k) = (9usize, 3usize);
        let beta = 2u64;
        // rho = 0.8 * (k-1)/(n-1) = 0.8/4 = 1/5
        let rho = bounds::k_cycle_rate_threshold(n as u64, k as u64).scaled(4, 5);
        let cfg = SimConfig::new(n, k).adversary_type(rho, Rate::integer(beta)).sample_every(256);
        let adv = Box::new(UniformRandom::new(17));
        let mut sim = Simulator::new(cfg, KCycle::new(k).build(n), adv);
        sim.run(120_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert!(sim.metrics().max_awake <= k);
        assert!(
            sim.metrics().queue_growth_slope() < 0.01,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
        let bound = bounds::k_cycle_latency_bound(n as u64, beta as f64);
        let measured = sim.metrics().delay.max() as f64;
        assert!(measured <= bound, "latency {measured} exceeds (32+β)n = {bound}");
        assert!(sim.run_until_drained(50_000));
        assert_eq!(sim.metrics().delivered, sim.metrics().injected);
    }

    /// Reproduction finding (this test pins it): Theorem 5 claims
    /// stability for every `(ρ, β)` adversary with `ρ < (k−1)/(n−1)`, but a
    /// station transmits only while its home group is active — a fixed
    /// `1/ℓ ≈ (k−1)/n` share of rounds — so an adversary that concentrates
    /// all injections into one station destabilises the algorithm anywhere
    /// above that share. The paper's proof amplifies the injection rate by
    /// the hop count but does not address per-group load concentration.
    /// This test pins the observed frontier so any change is noticed.
    #[test]
    fn concentrated_flood_frontier_sits_at_group_share() {
        use emac_adversary::SpreadFromOne;
        let (n, k) = (9usize, 3usize);
        let p = KCycleParams::new(n, k);
        assert_eq!(p.groups(), 5); // 1/l = 0.2 < (k-1)/(n-1) = 0.25
        for (rho, expect_diverge) in [
            (Rate::new(23, 100), true),  // inside Theorem 5's claimed region!
            (Rate::new(15, 100), false), // below the group share
        ] {
            let cfg =
                SimConfig::new(n, p.k()).adversary_type(rho, Rate::integer(2)).sample_every(512);
            let adv = Box::new(SpreadFromOne::new(1)); // station 1: one group only
            let mut sim = Simulator::new(cfg, KCycle::new(k).build(n), adv);
            sim.run(150_000);
            assert!(sim.violations().is_clean(), "{}", sim.violations());
            let slope = sim.metrics().queue_growth_slope();
            assert_eq!(
                slope > 0.005,
                expect_diverge,
                "rho={rho}: slope {slope} (expected diverge={expect_diverge})"
            );
        }
    }

    #[test]
    fn unstable_above_k_over_n() {
        use emac_adversary::LeastOnStation;
        let (n, k) = (9usize, 3usize);
        let alg = KCycle::new(k);
        let built = alg.build(n);
        let schedule = match &built.wake {
            WakeMode::Scheduled(s) => Arc::clone(s),
            _ => unreachable!(),
        };
        let p = alg.params(n);
        let horizon = p.delta() * p.groups() as u64;
        // rho = 1.25 * k/n > k/n (Theorem 6)
        let rho = bounds::oblivious_rate_threshold(n as u64, k as u64).scaled(5, 4);
        let cfg = SimConfig::new(n, k).adversary_type(rho, Rate::integer(2)).sample_every(256);
        let adv = Box::new(LeastOnStation::new(&schedule, n, horizon));
        let mut sim = Simulator::new(cfg, built, adv);
        sim.run(120_000);
        // queues must grow roughly linearly: slope > 0 and large backlog
        assert!(
            sim.metrics().queue_growth_slope() > 0.01,
            "slope {}",
            sim.metrics().queue_growth_slope()
        );
        assert!(sim.metrics().outstanding() > 1_000);
    }
}
