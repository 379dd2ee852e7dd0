//! Property-based integration tests: random configurations inside each
//! algorithm's guaranteed regime must keep every model invariant, and the
//! leaky bucket must be respected regardless of the adversary. Sampled
//! deterministically (seeded PRNG, fixed case counts) in place of the
//! original proptest strategies.

use emac::adversary::{Scripted, UniformRandom};
use emac::core::prelude::*;
use emac::sim::{Rate, SimConfig, Simulator, SmallRng};

const CASES: u32 = 12;

/// Count-Hop under arbitrary sub-unit rational rates and random traffic
/// keeps invariants and drains.
#[test]
fn count_hop_random_regimes() {
    let mut rng = SmallRng::seed_from_u64(0x1a71);
    for _case in 0..CASES {
        let n = rng.random_range(3..10);
        let num = rng.random_range_u64(1..9);
        let beta = rng.random_range_u64(1..6);
        let seed = rng.random_range_u64(0..1_000);
        let rho = Rate::new(num, 10); // 0.1 .. 0.8
        let report = ScenarioSpec::new("count-hop", "uniform")
            .n(n)
            .rho(rho)
            .beta(beta)
            .rounds(30_000)
            .drain(15_000)
            .run(&CountHop::new(), Box::new(UniformRandom::new(seed)));
        assert!(report.clean(), "{}", report.violations);
        assert!(report.metrics.max_awake <= 2);
        assert_eq!(report.drained, Some(true));
        assert_eq!(report.metrics.delivered, report.metrics.injected);
    }
}

/// Orchestra at rate 1 with random burstiness: queues below the paper
/// bound, invariants clean.
#[test]
fn orchestra_random_rate_one() {
    let mut rng = SmallRng::seed_from_u64(0x1a72);
    for _case in 0..CASES {
        let n = rng.random_range(3..8);
        let beta = rng.random_range_u64(1..8);
        let seed = rng.random_range_u64(0..1_000);
        let report = ScenarioSpec::new("orchestra", "uniform")
            .n(n)
            .rho(Rate::one())
            .beta(beta)
            .rounds(40_000)
            .run(&Orchestra::new(), Box::new(UniformRandom::new(seed)));
        assert!(report.clean(), "{}", report.violations);
        assert!(report.metrics.max_awake <= 3);
        let bound = bounds::orchestra_queue_bound(n as u64, beta as f64);
        assert!(
            (report.max_queue() as f64) <= bound,
            "queue {} > bound {bound}",
            report.max_queue()
        );
    }
}

/// k-Cycle with random geometry inside its stability region.
#[test]
fn k_cycle_random_geometry() {
    let mut rng = SmallRng::seed_from_u64(0x1a73);
    for _case in 0..CASES {
        let n = rng.random_range(5..16);
        let k = rng.random_range(3..6);
        let seed = rng.random_range_u64(0..1_000);
        let alg = KCycle::new(k);
        let eff_k = alg.params(n).k();
        let rho = bounds::k_cycle_rate_threshold(n as u64, eff_k as u64).scaled(3, 4);
        let report = ScenarioSpec::new("k-cycle", "uniform")
            .n(n)
            .rho(rho)
            .beta(2)
            .rounds(40_000)
            .run(&alg, Box::new(UniformRandom::new(seed)));
        assert!(report.clean(), "{}", report.violations);
        assert!(report.metrics.max_awake <= eff_k);
    }
}

/// k-Clique with random geometry at its latency rate.
#[test]
fn k_clique_random_geometry() {
    let mut rng = SmallRng::seed_from_u64(0x1a74);
    for _case in 0..CASES {
        let n = rng.random_range(4..13);
        let k = rng.random_range(2..6);
        let seed = rng.random_range_u64(0..1_000);
        let alg = KClique::new(k);
        let eff_k = alg.params(n).k();
        let rho = bounds::k_clique_rate_for_latency(n as u64, eff_k as u64);
        let report = ScenarioSpec::new("k-clique", "uniform")
            .n(n)
            .rho(rho)
            .beta(2)
            .rounds(60_000)
            .run(&alg, Box::new(UniformRandom::new(seed)));
        assert!(report.clean(), "{}", report.violations);
        assert!(report.metrics.max_awake <= eff_k);
    }
}

/// Scripted traffic through k-Subsets: every packet delivered exactly
/// once regardless of the script.
#[test]
fn k_subsets_scripted_delivery() {
    let mut rng = SmallRng::seed_from_u64(0x1a75);
    for _case in 0..CASES {
        let len = rng.random_range(1..30);
        let script: Vec<(u64, usize, usize)> = (0..len)
            .map(|_| (rng.random_range_u64(0..500), rng.random_range(0..6), rng.random_range(0..6)))
            .filter(|&(_, s, d)| s != d)
            .collect();
        let alg = KSubsets::new(3);
        let gamma = alg.params(6).gamma() as u64;
        let expected = script.len() as u64;
        let cfg = SimConfig::new(6, 3).adversary_type(Rate::new(1, 4), Rate::integer(4));
        let adv = Box::new(Scripted::from_triples(&script));
        let mut sim = Simulator::new(cfg, alg.build(6), adv);
        sim.run(2_000);
        sim.run_until_drained(gamma * 2_000);
        assert!(sim.violations().is_clean(), "{}", sim.violations());
        assert_eq!(sim.metrics().delivered, expected);
    }
}
