//! Determinism and differential tests.
//!
//! The simulator is deliberately deterministic: same algorithm, same
//! adversary seed, same configuration ⇒ bit-identical metrics. This is
//! what makes every number the experiment binaries and the committed specs
//! produce reproducible, and it doubles
//! as a regression net: any behavioural change to an algorithm shows up as
//! a metrics diff.

use emac_adversary::{Scripted, UniformRandom};
use emac_core::prelude::*;
use emac_sim::Rate;

fn run_once(alg: &dyn Algorithm, n: usize, rho: Rate, seed: u64) -> (u64, u64, u64, u64) {
    let r = ScenarioSpec::new(alg.name(), "uniform")
        .n(n)
        .rho(rho)
        .beta(2)
        .rounds(30_000)
        .run(alg, Box::new(UniformRandom::new(seed)));
    assert!(r.clean(), "{}", r.violations);
    (r.metrics.injected, r.metrics.delivered, r.latency(), r.max_queue())
}

#[test]
fn identical_seeds_give_identical_runs() {
    let algs: Vec<(Box<dyn Algorithm>, usize, Rate)> = vec![
        (Box::new(Orchestra::new()), 5, Rate::one()),
        (Box::new(CountHop::new()), 6, Rate::new(1, 2)),
        (Box::new(KCycle::new(3)), 9, bounds::k_cycle_rate_threshold(9, 3).scaled(1, 2)),
        (Box::new(KClique::new(4)), 8, bounds::k_clique_rate_for_latency(8, 4)),
        (Box::new(KSubsets::new(3)), 6, bounds::k_subsets_rate_threshold(6, 3)),
    ];
    for (alg, n, rho) in &algs {
        let a = run_once(alg.as_ref(), *n, *rho, 77);
        let b = run_once(alg.as_ref(), *n, *rho, 77);
        assert_eq!(a, b, "{} is not deterministic", alg.name());
        let c = run_once(alg.as_ref(), *n, *rho, 78);
        // different seeds virtually always differ in at least one statistic
        assert_ne!(a, c, "{} ignored the adversary seed", alg.name());
    }
}

#[test]
fn mbtf_and_rrw_subsets_deliver_the_same_packets() {
    // Differential test: both k-Subsets variants must deliver exactly the
    // scripted packet set (delivery order may differ, totals may not).
    let script: Vec<(u64, usize, usize)> = (0..40u64)
        .map(|i| {
            let s = (i % 6) as usize;
            let d = ((i * 5 + 2) % 6) as usize;
            (i * 37, s, if d == s { (d + 1) % 6 } else { d })
        })
        .collect();
    let mut totals = Vec::new();
    for alg in [KSubsets::new(3), KSubsets::with_rrw(3)] {
        let r = ScenarioSpec::new(alg.name(), "scripted")
            .n(6)
            .rho(Rate::new(1, 5))
            .beta(4)
            .rounds(3_000)
            .drain(200_000)
            .run(&alg, Box::new(Scripted::from_triples(&script)));
        assert!(r.clean(), "{}: {}", r.algorithm, r.violations);
        assert_eq!(r.drained, Some(true), "{}", r.algorithm);
        totals.push((
            r.metrics.injected,
            r.metrics.delivered,
            r.metrics.delivered_per_dest.clone(),
        ));
    }
    assert_eq!(totals[0], totals[1], "the two subroutines served different traffic");
}

#[test]
fn report_numbers_are_internally_consistent() {
    let r = ScenarioSpec::new("count-hop", "uniform")
        .n(6)
        .rho(Rate::new(1, 2))
        .beta(2)
        .rounds(50_000)
        .drain(20_000)
        .run(&CountHop::new(), Box::new(UniformRandom::new(3)));
    let m = &r.metrics;
    assert_eq!(m.delivered, m.delivered_per_dest.iter().sum::<u64>());
    assert_eq!(m.injected, m.injected_per_station.iter().sum::<u64>());
    assert_eq!(m.delivered, m.delay.count());
    assert!(m.delay.mean() <= m.delay.max() as f64);
    assert!(m.packet_rounds >= m.delivered); // every delivery was a packet round
    assert_eq!(m.outstanding(), 0);
    // every round is exactly one of the four channel outcomes
    assert_eq!(m.rounds, m.silent_rounds + m.packet_rounds + m.light_rounds + m.collision_rounds);
}
