//! A systematic matrix of scenarios over all six algorithms: system sizes,
//! adversary shapes, and burstiness levels, all inside each algorithm's
//! guaranteed regime. Complements the per-module unit tests with breadth.

use emac_adversary::{Alternating, Bursty, RoundRobinLoad, SingleTarget, UniformRandom};
use emac_core::prelude::*;
use emac_sim::{Adversary, Rate};

struct Case {
    alg: Box<dyn Algorithm>,
    n: usize,
    rho: Rate,
    rounds: u64,
    drain: u64,
}

fn cases() -> Vec<Case> {
    let mut v = Vec::new();
    // Orchestra across sizes at the maximum rate.
    for n in [3usize, 5, 7] {
        v.push(Case {
            alg: Box::new(Orchestra::new()),
            n,
            rho: Rate::one(),
            rounds: 40_000,
            drain: 40_000,
        });
    }
    // Count-Hop across sizes and rates.
    for (n, rho) in [(3usize, Rate::new(1, 4)), (5, Rate::new(3, 5)), (10, Rate::new(4, 5))] {
        v.push(Case { alg: Box::new(CountHop::new()), n, rho, rounds: 60_000, drain: 30_000 });
    }
    // k-Cycle geometries.
    for (n, k) in [(5usize, 3usize), (7, 3), (11, 4), (15, 6)] {
        let alg = KCycle::new(k);
        let eff = alg.params(n).k();
        v.push(Case {
            alg: Box::new(alg),
            n,
            rho: bounds::k_cycle_rate_threshold(n as u64, eff as u64).scaled(3, 4),
            rounds: 80_000,
            drain: 80_000,
        });
    }
    // k-Clique geometries (including the k=2 degenerate tiling).
    for (n, k) in [(4usize, 2usize), (6, 4), (9, 6), (10, 4)] {
        let alg = KClique::new(k);
        let eff = alg.params(n).k();
        v.push(Case {
            alg: Box::new(alg),
            n,
            rho: bounds::k_clique_rate_for_latency(n as u64, eff as u64),
            rounds: 100_000,
            drain: 100_000,
        });
    }
    // k-Subsets with both subroutines.
    for (n, k) in [(5usize, 2usize), (6, 4), (7, 3)] {
        let thr = bounds::k_subsets_rate_threshold(n as u64, k as u64);
        v.push(Case {
            alg: Box::new(KSubsets::new(k)),
            n,
            rho: thr,
            rounds: 120_000,
            drain: 120_000,
        });
        v.push(Case {
            alg: Box::new(KSubsets::with_rrw(k)),
            n,
            rho: thr.scaled(3, 4),
            rounds: 120_000,
            drain: 120_000,
        });
    }
    v
}

fn adversary_for(tag: usize, n: usize) -> Box<dyn Adversary> {
    match tag {
        0 => Box::new(UniformRandom::new(1234)),
        1 => Box::new(RoundRobinLoad::new()),
        2 => Box::new(SingleTarget::new(0, n - 1)),
        _ => Box::new(Bursty::new(n / 2, 48)),
    }
}

#[test]
fn matrix_runs_clean_and_drains() {
    for case in cases() {
        for adv_tag in 0..4 {
            let report = ScenarioSpec::new(case.alg.name(), format!("adv#{adv_tag}"))
                .n(case.n)
                .rho(case.rho)
                .beta(3)
                .rounds(case.rounds)
                .drain(case.drain)
                .run(case.alg.as_ref(), adversary_for(adv_tag, case.n));
            let label = format!("{} adv#{adv_tag} rho={}", report.algorithm, case.rho);
            assert!(report.clean(), "{label}: {}", report.violations);
            assert!(
                report.metrics.max_awake <= report.cap,
                "{label}: awake {} > cap {}",
                report.metrics.max_awake,
                report.cap
            );
            assert_eq!(report.drained, Some(true), "{label} did not drain");
            assert_eq!(
                report.metrics.delivered, report.metrics.injected,
                "{label}: delivery incomplete"
            );
        }
    }
}

#[test]
fn alternating_hotspots_are_survivable_everywhere() {
    // The moving-hotspot adversary stresses state that chases load
    // (Orchestra's baton, Adjust-Window's snapshots).
    let alt = || Box::new(Alternating::new((0, 2), (2, 0), 731));
    for (alg, n, rho) in [
        (Box::new(Orchestra::new()) as Box<dyn Algorithm>, 4usize, Rate::one()),
        (Box::new(CountHop::new()), 4, Rate::new(4, 5)),
        (Box::new(KCycle::new(3)), 5, bounds::k_cycle_rate_threshold(5, 3).scaled(1, 2)),
    ] {
        let report = ScenarioSpec::new(alg.name(), "alternating")
            .n(n)
            .rho(rho)
            .beta(4)
            .rounds(80_000)
            .drain(80_000)
            .run(alg.as_ref(), alt());
        assert!(report.clean(), "{}: {}", report.algorithm, report.violations);
        assert_eq!(report.drained, Some(true), "{}", report.algorithm);
    }
}

#[test]
fn fairness_is_high_for_universal_algorithms_under_uniform_load() {
    // Universal algorithms deliver everything, so per-destination service
    // under uniform traffic must be near-even.
    let report = ScenarioSpec::new("count-hop", "uniform")
        .n(8)
        .rho(Rate::new(1, 2))
        .beta(2)
        .rounds(100_000)
        .run(&CountHop::new(), Box::new(UniformRandom::new(7)));
    let f = report.metrics.delivery_fairness();
    assert!(f > 0.95, "fairness {f}");
}

#[test]
fn energy_is_exactly_the_awake_sets() {
    // Scheduled algorithms: total energy equals the sum of schedule widths.
    let alg = KClique::new(4);
    let m = alg.params(8).num_pairs() as u64;
    let report = ScenarioSpec::new("k-clique", "uniform")
        .n(8)
        .rho(Rate::new(1, 50))
        .beta(1)
        .rounds(m * 100)
        .run(&alg, Box::new(UniformRandom::new(3)));
    // k stations on in every round, exactly
    assert_eq!(report.metrics.energy_total, 4 * m * 100);
    assert!((report.metrics.energy_per_round() - 4.0).abs() < 1e-9);
}
