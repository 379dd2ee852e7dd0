//! A drain's fast-forward is exact. `Simulator::run_until_drained` jumps
//! over stretches of rounds in which every station sleeps; the same run
//! drained by stepping every round must end in the same report, at the
//! same round, with the same round count. Either way every round is
//! counted once: read from the schedule table, enumerated, or skipped.

use emac::registry::Registry;
use emac_core::campaign::ScenarioSpec;
use emac_core::digest::report_digest_hex;
use emac_core::stability::classify;
use emac_core::RunReport;
use emac_sim::{FaultSpec, Rate, SimHooks, Simulator};

/// What one way of draining left: the report's digest, the phase counters
/// and the next round.
struct Drained {
    digest: String,
    hooks: SimHooks,
    round: u64,
}

fn simulator(spec: &ScenarioSpec, trace: bool) -> Simulator {
    let algorithm = Registry::make_algorithm(spec).expect("a registry algorithm");
    let mut sim = spec
        .simulator(algorithm.as_ref(), |schedule| Registry::make_adversary(spec, schedule))
        .expect("a valid spec");
    if trace {
        sim.enable_trace(16);
    }
    sim
}

fn drained(sim: &Simulator, report: &RunReport) -> Drained {
    Drained { digest: report_digest_hex(report), hooks: *sim.hooks(), round: sim.round() }
}

/// The run through the drive path every campaign row takes, whose drain
/// fast-forwards where it can.
fn driven(spec: &ScenarioSpec, trace: bool) -> Drained {
    let mut sim = simulator(spec, trace);
    let report = spec.drive(&mut sim);
    drained(&sim, &report)
}

/// The same run with its drain stepped one round at a time, reported as
/// the drive path reports.
fn stepped(spec: &ScenarioSpec, trace: bool) -> Drained {
    let mut sim = simulator(spec, trace);
    sim.run(spec.rounds);
    sim.set_injections(false);
    let mut left = spec.drain.expect("every case drains");
    while left > 0 && sim.total_queued() > 0 {
        sim.step();
        left -= 1;
    }
    let metrics = sim.metrics().clone();
    let report = RunReport {
        algorithm: sim.algorithm_name().to_string(),
        n: spec.n,
        cap: sim.config().cap,
        rho: spec.rho,
        beta: spec.beta,
        rounds: spec.rounds,
        stability: classify(&metrics),
        metrics,
        violations: sim.violations().clone(),
        drained: Some(sim.total_queued() == 0),
        tripped_round: None,
    };
    drained(&sim, &report)
}

fn spec(alg: &str, n: usize, rho: Rate, rounds: u64, drain: u64, seed: u64) -> ScenarioSpec {
    ScenarioSpec::new(alg, "uniform")
        .n(n)
        .k(3)
        .rho(rho)
        .beta(Rate::integer(2))
        .rounds(rounds)
        .drain(drain)
        .seed(seed)
}

/// How many drain rounds a case fast-forwards.
#[derive(Clone, Copy, Debug)]
enum Skips {
    /// Every one: all stations sleep past the drain budget.
    All,
    /// Some: the stations wake mid-drain.
    Some,
    /// None: a station is on in every round, or skipping is off.
    None,
}

#[test]
fn a_fast_forwarded_drain_is_the_stepped_drain() {
    // ROADMAP item 2's run: Adjust-Window's first window (58,896 rounds at
    // n = 6) outlasts the run and its drain, so every station sleeps
    // through the whole drain.
    let asleep = spec("adjust-window", 6, Rate::new(1, 4), 5_000, 20_000, 12_345);
    let deaf = FaultSpec { deaf: Rate::new(1, 40), seed: 3, ..FaultSpec::default() };
    let cases = [
        ("adjust-window, asleep past the budget", asleep.clone(), false, Skips::All),
        (
            "adjust-window, waking when its first window ends",
            spec("adjust-window", 6, Rate::new(1, 4), 5_000, 200_000, 12_345),
            false,
            Skips::Some,
        ),
        ("count-hop", spec("count-hop", 4, Rate::new(1, 2), 2_000, 5_000, 1), false, Skips::None),
        ("orchestra", spec("orchestra", 6, Rate::new(1, 2), 4_000, 20_000, 7), false, Skips::None),
        ("adjust-window, deaf rounds armed", asleep.clone().faults(deaf), false, Skips::None),
        ("adjust-window, traced", asleep, true, Skips::None),
        (
            "k-cycle, scheduled",
            spec("k-cycle", 9, Rate::new(1, 5), 4_000, 20_000, 7),
            false,
            Skips::None,
        ),
    ];
    for (name, spec, trace, skips) in &cases {
        let fast = driven(spec, *trace);
        let slow = stepped(spec, *trace);
        assert_eq!(fast.digest, slow.digest, "{name}: the report");
        assert_eq!(fast.hooks.rounds, slow.hooks.rounds, "{name}: the rounds run");
        assert_eq!(fast.round, slow.round, "{name}: the next round");
        for (way, d) in [("fast-forwarded", &fast), ("stepped", &slow)] {
            let h = d.hooks;
            assert_eq!(
                h.rounds,
                h.wake_table_rounds + h.wake_enum_rounds + h.skipped_rounds,
                "{name}, {way}: every round is counted once"
            );
        }
        assert_eq!(slow.hooks.skipped_rounds, 0, "{name}: stepping skips nothing");
        let skipped = fast.hooks.skipped_rounds;
        let drain = spec.drain.expect("every case drains");
        match skips {
            Skips::All => assert_eq!(skipped, drain, "{name}"),
            Skips::Some => assert!(0 < skipped && skipped < drain, "{name}: {skipped}"),
            Skips::None => assert_eq!(skipped, 0, "{name}"),
        }
    }
}
