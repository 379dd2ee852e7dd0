//! Lane equivalence for [`BatchSimulator`]: lane `i` of a batch must be
//! observationally identical to a solo [`Simulator`] run with seed `i` —
//! same metrics, same violations, same round, same residual queues — at
//! S ∈ {1, 2, 8}, through a probe where some lanes trip and stop while
//! the rest run the horizon, through `into_lanes` + continued solo
//! stepping, and for an aperiodic schedule (no packed schedule table).

use std::sync::Arc;

use emac_sim::{
    Action, Adversary, AlgorithmClass, BatchSimulator, BuiltAlgorithm, Effects, Feedback,
    IndexedQueue, Injection, Message, OnSchedule, Protocol, ProtocolCtx, Rate, Round, SimConfig,
    Simulator, SmallRng, StationId, SystemView, Wake, WakeMode,
};

const N: usize = 12;

/// Periodic window-of-two schedule: round `r` switches on stations
/// `r mod n` and `(r + 1) mod n`.
struct WindowTwo;

impl OnSchedule for WindowTwo {
    fn is_on(&self, station: StationId, round: Round) -> bool {
        let a = round as usize % N;
        station == a || station == (a + 1) % N
    }
    fn period(&self) -> Option<u64> {
        Some(N as u64)
    }
}

/// The same window, declaring no period — the engine enumerates it every
/// round instead of reading a packed schedule table.
struct WindowTwoAperiodic;

impl OnSchedule for WindowTwoAperiodic {
    fn is_on(&self, station: StationId, round: Round) -> bool {
        WindowTwo.is_on(station, round)
    }
}

/// Scheduled token protocol: station `r mod n` transmits its oldest packet.
struct TokenProto;

impl Protocol for TokenProto {
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

/// Seeded adversary whose whole trajectory depends on its RNG stream:
/// random sources and destinations, and (when `jitter` is set) randomly
/// skipped rounds so different seeds trip a probe cap at different rounds.
struct SeededAdversary {
    rng: SmallRng,
    jitter: bool,
    idle: bool,
}

impl SeededAdversary {
    fn new(seed: u64, jitter: bool) -> Self {
        // Odd seeds inject nothing so a probe over this adversary leaves
        // those lanes running the full horizon while even lanes trip.
        Self { rng: SmallRng::seed_from_u64(seed), jitter: jitter && seed % 2 == 1, idle: false }
    }

    fn flood(seed: u64) -> Self {
        let mut a = Self::new(seed, false);
        a.idle = seed % 2 == 1;
        a
    }
}

impl Adversary for SeededAdversary {
    fn plan_into(
        &mut self,
        _round: Round,
        budget: usize,
        view: &SystemView<'_>,
        out: &mut Vec<Injection>,
    ) {
        out.clear();
        if self.idle {
            return;
        }
        for _ in 0..budget {
            if self.jitter && self.rng.random_range(0..4) == 0 {
                continue;
            }
            let station = self.rng.random_range(0..view.n);
            let dest = self.rng.random_range(0..view.n);
            out.push(Injection::new(station, dest));
        }
    }
}

fn build(seed: u64, rho: Rate, schedule: Arc<dyn OnSchedule>, flood: bool) -> Simulator {
    let cfg = SimConfig::new(N, 2).adversary_type(rho, Rate::integer(2)).sample_every(64);
    let built = BuiltAlgorithm {
        name: format!("token-window[{seed}]"),
        protocols: (0..N).map(|_| Box::new(TokenProto) as Box<dyn Protocol>).collect(),
        wake: WakeMode::Scheduled(schedule),
        class: AlgorithmClass { oblivious: true, plain_packet: true, direct: true },
    };
    let adversary =
        if flood { SeededAdversary::flood(seed) } else { SeededAdversary::new(seed, true) };
    Simulator::new(cfg, built, Box::new(adversary))
}

/// Everything a run can observe, as one comparable string.
fn fingerprint(sim: &Simulator) -> String {
    format!("{:?}|{:?}|{}|{}", sim.metrics(), sim.violations(), sim.round(), sim.total_queued())
}

#[test]
fn lanes_match_solo_at_s_1_2_8() {
    let rho = Rate::new(1, 3);
    for s in [1usize, 2, 8] {
        let sched: Arc<dyn OnSchedule> = Arc::new(WindowTwo);
        let lanes: Vec<Simulator> =
            (0..s as u64).map(|seed| build(seed, rho, Arc::clone(&sched), false)).collect();
        let mut batch = BatchSimulator::new(lanes);
        batch.run(3_000);
        for (seed, lane) in batch.lanes().iter().enumerate() {
            let mut solo = build(seed as u64, rho, Arc::clone(&sched), false);
            solo.run(3_000);
            assert_eq!(fingerprint(lane), fingerprint(&solo), "S={s} lane {seed}");
        }
    }
}

#[test]
fn into_lanes_continue_exactly_where_solo_runs_would() {
    // Lanes handed back by `into_lanes` must continue exactly where solo
    // runs would, the adversary's view (on-counts, previous wake set)
    // included.
    let rho = Rate::new(1, 3);
    let sched: Arc<dyn OnSchedule> = Arc::new(WindowTwo);
    let lanes: Vec<Simulator> =
        (0..4u64).map(|seed| build(seed, rho, Arc::clone(&sched), false)).collect();
    let mut batch = BatchSimulator::new(lanes);
    batch.run(1_500);
    let mut lanes = batch.into_lanes();
    for (seed, lane) in lanes.iter_mut().enumerate() {
        lane.run(1_500);
        let drained = lane.run_until_drained(50_000);
        let mut solo = build(seed as u64, rho, Arc::clone(&sched), false);
        solo.run(3_000);
        let solo_drained = solo.run_until_drained(50_000);
        assert_eq!(drained, solo_drained, "lane {seed} drain verdict");
        assert_eq!(fingerprint(lane), fingerprint(&solo), "lane {seed}");
    }
}

#[test]
fn early_exit_lane_matches_solo_probe() {
    // Even seeds flood (the token schedule cannot keep up with rho = 1
    // spread uniformly, so their queues blow past the probe cap at
    // seed-dependent rounds); odd seeds inject nothing and run the full
    // horizon. The tripping lanes must freeze with exactly the state a
    // solo probe would leave, without stalling the surviving lanes.
    let rho = Rate::new(1, 1);
    let sched: Arc<dyn OnSchedule> = Arc::new(WindowTwo);
    let lanes: Vec<Simulator> =
        (0..8u64).map(|seed| build(seed, rho, Arc::clone(&sched), true)).collect();
    let mut batch = BatchSimulator::new(lanes);
    let tripped = batch.run_probe(4_000, 40);

    let mut any_tripped = false;
    for (seed, lane) in batch.lanes().iter().enumerate() {
        let mut solo = build(seed as u64, rho, Arc::clone(&sched), true);
        let solo_tripped = solo.run_probe_round(4_000, 40);
        assert_eq!(tripped[seed], solo_tripped, "lane {seed} tripping round");
        assert_eq!(fingerprint(lane), fingerprint(&solo), "lane {seed}");
        if seed % 2 == 0 {
            assert!(tripped[seed].is_some(), "flooding lane {seed} should trip");
            any_tripped = true;
        } else {
            assert_eq!(tripped[seed], None, "idle lane {seed} must run the horizon");
            assert_eq!(lane.round(), 4_000, "idle lane {seed} must not stall");
        }
    }
    assert!(any_tripped);
}

#[test]
fn aperiodic_fallback_matches_solo() {
    let rho = Rate::new(1, 3);
    let sched: Arc<dyn OnSchedule> = Arc::new(WindowTwoAperiodic);
    let lanes: Vec<Simulator> =
        (0..3u64).map(|seed| build(seed, rho, Arc::clone(&sched), false)).collect();
    let mut batch = BatchSimulator::new(lanes);
    batch.run(2_000);
    for (seed, lane) in batch.lanes().iter().enumerate() {
        let mut solo = build(seed as u64, rho, Arc::clone(&sched), false);
        solo.run(2_000);
        assert_eq!(fingerprint(lane), fingerprint(&solo), "fallback lane {seed}");
    }
}
