//! Batch lane exactness over the full golden registry matrix.
//!
//! For every scenario in the golden-determinism matrix (every registry
//! algorithm × its applicable adversaries × β ∈ {1, 3/2}), a lockstep
//! seed batch is run through the same executor the frontier's seed
//! ensembles use ([`emac_core::campaign::execute_batch`]) and every lane's
//! full [`RunReport`] digest is compared against a solo run of the same
//! scenario with that lane's seed. This pins the tentpole claim: batching
//! is a pure execution strategy — lane `i` is bit-for-bit the solo
//! execution with seed `i`, for periodic-schedule algorithms (shared wake
//! state), adaptive ones, and the aperiodic duty-cycle baseline (per-lane
//! fallback) alike. A third case pins the probe early exit: lanes that
//! trip `probe_cap` mid-batch against solo probes that stop at the cap.
//!
//! [`RunReport`]: emac_core::runner::RunReport

use emac::registry::Registry;
use emac_core::campaign::expr::ExprEnv;
use emac_core::campaign::{execute_batch, Campaign, ScenarioSpec};
use emac_core::digest::report_digest_hex;
use emac_core::frontier::FrontierSpec;
use emac_core::runner::RunReport;
use emac_sim::{FaultSpec, Rate};

const N: usize = 8;
const K: usize = 4;
const ROUNDS: u64 = 4_096;

/// Seeds exercised per scenario: the golden matrix seed plus two others.
const SEEDS: [u64; 3] = [7, 8, 19];

/// The golden-determinism matrix (kept in lockstep with
/// `tests/golden_determinism.rs`).
fn matrix() -> Vec<ScenarioSpec> {
    let algorithms: &[&str] = &[
        "orchestra",
        "orchestra-nomb",
        "count-hop",
        "adjust-window",
        "k-cycle",
        "k-cycle:1/2",
        "k-clique",
        "k-subsets",
        "k-subsets-rrw",
        "duty-cycle",
    ];
    let oblivious: &[&str] =
        &["k-cycle", "k-cycle:1/2", "k-clique", "k-subsets", "k-subsets-rrw", "duty-cycle"];
    let betas = [Rate::integer(1), Rate::new(3, 2)];
    let mut specs = Vec::new();
    for &alg in algorithms {
        let mut adversaries = vec!["uniform", "round-robin"];
        if oblivious.contains(&alg) {
            adversaries.push("least-on");
        }
        for adv in adversaries {
            for beta in betas {
                specs.push(
                    ScenarioSpec::new(alg, adv)
                        .n(N)
                        .k(K)
                        .rho(Rate::new(1, 8))
                        .beta(beta)
                        .rounds(ROUNDS)
                        .seed(7)
                        .horizon(2_000)
                        .label(format!("{alg}|{adv}|beta={}/{}", beta.num(), beta.den())),
                );
            }
        }
    }
    specs
}

fn assert_lane_exact(spec: &ScenarioSpec) {
    assert_lanes_match_solo(spec, &SEEDS);
}

/// Run `spec` as one batch over `seeds` and compare every lane's digest
/// (and probe tripping round) with a solo run of its seed; returns the
/// lanes.
fn assert_lanes_match_solo(spec: &ScenarioSpec, seeds: &[u64]) -> Vec<RunReport> {
    let label = spec.display_label();
    let lanes = execute_batch(spec, seeds, &Registry)
        .unwrap_or_else(|e| panic!("{label}: batch failed: {e}"));
    assert_eq!(lanes.len(), seeds.len());
    for (&seed, lane) in seeds.iter().zip(&lanes) {
        let mut solo_spec = spec.clone();
        solo_spec.seed = seed;
        let solo = Campaign::new().threads(1).run(std::slice::from_ref(&solo_spec), &Registry);
        let solo = solo.runs[0]
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label} seed {seed}: solo failed: {e}"));
        assert_eq!(
            report_digest_hex(lane),
            report_digest_hex(solo),
            "{label}: lane digest for seed {seed} diverged from the solo run"
        );
        assert_eq!(
            lane.tripped_round, solo.tripped_round,
            "{label}: lane for seed {seed} left the probe at another round than the solo run"
        );
    }
    lanes
}

#[test]
fn every_matrix_scenario_is_lane_exact() {
    let specs = matrix();
    assert_eq!(specs.len(), 52, "matrix drifted from the golden registry");
    for spec in specs {
        assert_lane_exact(&spec);
    }
}

/// Lane exactness under every fault family. Jamming and deaf rounds keep
/// the lockstep shared-schedule path (the fault stream is lane-independent
/// and touches no wake state); crash and skew change the wake set, so the
/// batch falls back to per-lane stepping — both routes must stay
/// bit-for-bit equal to solo runs. Scenarios cover the periodic-schedule
/// path (k-cycle, shared wake cache) and the aperiodic per-lane fallback
/// (duty-cycle); the control-message algorithms (count-hop, orchestra,
/// adjust-window) assume a reliable channel by construction and abort when
/// jamming eats a message they must hear, so only the wake-only skew
/// family covers the adaptive route (below).
#[test]
fn faulty_scenarios_are_lane_exact() {
    let families: &[(&str, FaultSpec)] = &[
        ("jam", FaultSpec { jam: Rate::new(1, 10), seed: 5, ..Default::default() }),
        (
            "crash-retain",
            FaultSpec {
                crash: Rate::new(1, 200),
                crash_len: 48,
                retain_queue: true,
                seed: 5,
                ..Default::default()
            },
        ),
        (
            "crash-loss",
            FaultSpec {
                crash: Rate::new(1, 200),
                crash_len: 48,
                retain_queue: false,
                seed: 5,
                ..Default::default()
            },
        ),
        ("deaf", FaultSpec { deaf: Rate::new(1, 6), seed: 5, ..Default::default() }),
        ("skew", FaultSpec { skew: 3, seed: 5, ..Default::default() }),
        (
            "all-at-once",
            FaultSpec {
                jam: Rate::new(1, 16),
                crash: Rate::new(1, 300),
                crash_len: 32,
                retain_queue: false,
                deaf: Rate::new(1, 12),
                skew: 2,
                seed: 5,
            },
        ),
    ];
    for (tag, faults) in families {
        for alg in ["k-cycle", "duty-cycle"] {
            let spec = ScenarioSpec::new(alg, "uniform")
                .n(N)
                .k(K)
                .rho(Rate::new(1, 8))
                .rounds(ROUNDS)
                .seed(7)
                .faults(faults.clone())
                .label(format!("{alg}|uniform|faults={tag}"));
            assert_lane_exact(&spec);
        }
    }

    // Adaptive algorithms keep their own timers, so clock skew is the one
    // family that is defined for them (it only offsets `OnSchedule`
    // lookups); an active wake-affecting plan still forces the batch onto
    // the per-lane fallback, which must stay lane-exact for the adaptive
    // stepping path too.
    let spec = ScenarioSpec::new("count-hop", "uniform")
        .n(N)
        .k(K)
        .rho(Rate::new(1, 8))
        .rounds(ROUNDS)
        .seed(7)
        .faults(FaultSpec { skew: 3, seed: 5, ..Default::default() })
        .label("count-hop|uniform|faults=skew");
    assert_lane_exact(&spec);
}

/// Lane exactness under the probe early exit. A batch lane whose queues
/// pass `probe_cap` drops out of `BatchSimulator::run_probe` while the
/// other lanes keep stepping; a solo probe stops in
/// `Simulator::run_probe_round`. Both cases are built from committed map
/// templates at a point where the cap splits the lanes, so one batch
/// holds lanes that trip and lanes that run the full horizon.
#[test]
fn probe_early_exit_is_lane_exact() {
    let probe = |path: &str, n: usize, set: &dyn Fn(&mut ScenarioSpec)| -> ScenarioSpec {
        let text = std::fs::read_to_string(path).unwrap();
        let template = FrontierSpec::parse(&text).unwrap().template;
        let mut spec = template.resolve_at(&ExprEnv::new(n, 3)).unwrap();
        set(&mut spec);
        spec
    };
    let cases = [
        // The band map's n=13 point, just where the flood's queue reaches
        // the 2000-packet cap at the 16000-round horizon.
        (
            probe("specs/frontier_theorem5_band.json", 13, &|s| s.rho = Rate::new(53, 200)),
            vec![1, 2, 3, 4, 5],
        ),
        // The jammed map's n=9 point, jammed hard enough to reach the cap.
        (
            probe("specs/frontier_kcycle_jammed.json", 9, &|s| {
                s.faults.as_mut().expect("the jammed template arms faults").jam =
                    Rate::new(143, 200)
            }),
            (1..=9).collect(),
        ),
    ];
    for (spec, seeds) in cases {
        assert!(spec.probe_cap.is_some(), "map templates probe with a cap");
        let lanes = assert_lanes_match_solo(&spec, &seeds);
        let tripped = lanes.iter().filter(|r| r.tripped_round.is_some()).count();
        assert!(
            0 < tripped && tripped < lanes.len(),
            "{}: the case must mix lanes that trip the cap ({tripped}) with lanes that run the \
             full horizon ({})",
            spec.display_label(),
            lanes.len() - tripped
        );
    }
}
