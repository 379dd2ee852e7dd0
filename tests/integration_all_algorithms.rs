//! Cross-crate integration: every algorithm of the paper, driven inside its
//! guaranteed regime by several adversary shapes, must (a) violate no model
//! invariant, (b) respect its energy cap, (c) stay stable, and (d) deliver
//! every packet once injections stop.

use emac::adversary::{Bursty, RoundRobinLoad, SingleTarget, UniformRandom};
use emac::core::prelude::*;
use emac::sim::{Adversary, Rate};

/// Build the adversary menagerie for a system of `n` stations.
fn adversaries(n: usize) -> Vec<(&'static str, Box<dyn Adversary>)> {
    vec![
        ("single-target", Box::new(SingleTarget::new(0, n - 1))),
        ("round-robin", Box::new(RoundRobinLoad::new())),
        ("uniform", Box::new(UniformRandom::new(99))),
        ("bursty", Box::new(Bursty::new(1, 32))),
    ]
}

fn check(alg: &dyn Algorithm, n: usize, rho: Rate, rounds: u64, drain: u64, expect_drain: bool) {
    for (tag, adversary) in adversaries(n) {
        let report = ScenarioSpec::new(alg.name(), tag)
            .n(n)
            .rho(rho)
            .beta(2)
            .rounds(rounds)
            .drain(drain)
            .run(alg, adversary);
        assert!(report.clean(), "{} vs {tag}: {}", report.algorithm, report.violations);
        assert!(
            report.metrics.max_awake <= report.cap,
            "{} vs {tag}: {} awake exceeds cap {}",
            report.algorithm,
            report.metrics.max_awake,
            report.cap
        );
        assert_ne!(
            report.stability.verdict,
            Verdict::Diverging,
            "{} vs {tag}: {}",
            report.algorithm,
            report.stability
        );
        if expect_drain {
            assert_eq!(report.drained, Some(true), "{} vs {tag} failed to drain", report.algorithm);
            assert_eq!(
                report.metrics.delivered, report.metrics.injected,
                "{} vs {tag}: packets missing after drain",
                report.algorithm
            );
        }
    }
}

#[test]
fn orchestra_in_regime() {
    // rho = 1 is Orchestra's claim; latency may be unbounded mid-run but
    // stopping injections must drain everything.
    check(&Orchestra::new(), 6, Rate::one(), 60_000, 60_000, true);
}

#[test]
fn count_hop_in_regime() {
    check(&CountHop::new(), 6, Rate::new(3, 4), 60_000, 20_000, true);
}

#[test]
fn adjust_window_in_regime() {
    let n = 3;
    let w = emac::core::adjust_window::steady_window_size(n, Rate::new(1, 2), 2);
    check(&AdjustWindow::new(), n, Rate::new(1, 2), 8 * w, 6 * w, true);
}

#[test]
fn k_cycle_in_regime() {
    let rho = bounds::k_cycle_rate_threshold(9, 3).scaled(4, 5);
    check(&KCycle::new(3), 9, rho, 120_000, 60_000, true);
}

#[test]
fn k_clique_in_regime() {
    let rho = bounds::k_clique_rate_for_latency(8, 4);
    check(&KClique::new(4), 8, rho, 150_000, 100_000, true);
}

#[test]
fn k_subsets_in_regime() {
    let rho = bounds::k_subsets_rate_threshold(6, 3);
    check(&KSubsets::new(3), 6, rho, 150_000, 150_000, true);
}

#[test]
fn k_subsets_rrw_in_regime() {
    let rho = bounds::k_subsets_rate_threshold(6, 3).scaled(3, 4);
    check(&KSubsets::with_rrw(3), 6, rho, 150_000, 150_000, true);
}

#[test]
fn broadcast_blocks_in_regime() {
    // The substrate algorithms run with cap = n.
    use emac::broadcast::{build_mbtf, build_of_rrw, build_rrw};
    use emac::sim::{SimConfig, Simulator};
    for (name, built) in
        [("rrw", build_rrw(5)), ("of-rrw", build_of_rrw(5)), ("mbtf", build_mbtf(5))]
    {
        let cfg = SimConfig::new(5, 5).adversary_type(Rate::new(4, 5), Rate::integer(2));
        let mut sim = Simulator::new(cfg, built, Box::new(UniformRandom::new(5)));
        sim.run(40_000);
        assert!(sim.violations().is_clean(), "{name}: {}", sim.violations());
        assert!(sim.run_until_drained(20_000), "{name} failed to drain");
    }
}
