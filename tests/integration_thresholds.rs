//! The ordering of the paper's stability thresholds, observed empirically:
//! for fixed `(n, k)` the same oblivious machinery is stable inside its
//! claimed region and unstable outside the matching impossibility bound,
//! and the regions nest the way Table 1 says they do.

use std::convert::Infallible;
use std::sync::Arc;

use emac::adversary::{LeastOnPair, LeastOnStation};
use emac::core::prelude::*;
use emac::sim::{Adversary, OnSchedule, Rate};

const N: usize = 9;
const K: usize = 3;

/// Run `alg` as `spec` describes, against an attack built from the
/// algorithm's oblivious schedule.
fn attacked(
    spec: &ScenarioSpec,
    alg: &dyn Algorithm,
    attack: impl FnOnce(&Arc<dyn OnSchedule>) -> Box<dyn Adversary>,
) -> RunReport {
    let Ok(mut sim) = spec.simulator(alg, |s| Ok::<_, Infallible>(attack(s.expect("oblivious"))));
    spec.drive(&mut sim)
}

fn k_cycle_slope(rho: Rate) -> f64 {
    let alg = KCycle::new(K);
    let p = alg.params(N);
    let horizon = p.delta() * p.groups() as u64;
    let spec = ScenarioSpec::new("k-cycle", "least-on").n(N).rho(rho).beta(2).rounds(150_000);
    attacked(&spec, &alg, |s| Box::new(LeastOnStation::new(s, N, horizon))).stability.slope
}

#[test]
fn k_cycle_frontier_sits_between_the_two_thresholds() {
    // stable strictly below (k-1)/(n-1) = 1/4 ...
    let below = k_cycle_slope(bounds::k_cycle_rate_threshold(N as u64, K as u64).scaled(4, 5));
    assert!(below.abs() < 0.005, "below threshold: slope {below}");
    // ... and unstable strictly above k/n = 1/3 (Theorem 6)
    let above = k_cycle_slope(bounds::oblivious_rate_threshold(N as u64, K as u64).scaled(6, 5));
    assert!(above > 0.01, "above threshold: slope {above}");
}

#[test]
fn k_subsets_attains_exactly_its_threshold() {
    let n = 6usize;
    let k = 3usize;
    let alg = KSubsets::new(k);
    let thr = bounds::k_subsets_rate_threshold(n as u64, k as u64);
    // stable AT the threshold (Theorem 8) ...
    let spec = ScenarioSpec::new("k-subsets", "least-on-pair").n(n).beta(2).rounds(200_000);
    let least_on_pair =
        |s: &Arc<dyn OnSchedule>| -> Box<dyn Adversary> { Box::new(LeastOnPair::new(s, n, 5_000)) };
    let at = attacked(&spec.clone().rho(thr), &alg, least_on_pair);
    assert!(at.clean(), "{}", at.violations);
    assert!(at.stability.slope.abs() < 0.01, "at threshold: {}", at.stability);
    // ... and unstable 50% above it (Theorem 9)
    let above = attacked(&spec.rho(thr.scaled(3, 2)), &alg, least_on_pair);
    assert!(above.stability.slope > 0.01, "above threshold: {}", above.stability);
}

#[test]
fn thresholds_nest_as_in_table1() {
    // k(k−1)/(n(n−1))  <  k²/(n(2n−k))·(≤)  <  (k−1)/(n−1)  <  k/n
    let n = 12u64;
    let k = 4u64;
    let subsets = bounds::k_subsets_rate_threshold(n, k);
    let clique = bounds::k_clique_rate_threshold(n, k);
    let cycle = bounds::k_cycle_rate_threshold(n, k);
    let oblivious = bounds::oblivious_rate_threshold(n, k);
    assert!(clique.lt(&cycle) || clique == cycle);
    assert!(subsets.lt(&cycle));
    assert!(cycle.lt(&oblivious));
    // k-Clique's stability threshold never exceeds the Theorem-9 cap
    assert!(clique.lt(&subsets) || clique == subsets);
}

#[test]
fn cap2_rate_one_is_impossible_but_rate_below_one_is_fine() {
    use emac::adversary::SleeperTargeting;
    // Theorem 2 via the sleeper-targeting adversary on a cap-2 algorithm.
    let diverging = ScenarioSpec::new("count-hop", "sleeper")
        .n(6)
        .rho(Rate::one())
        .beta(2)
        .rounds(150_000)
        .run(&CountHop::new(), Box::new(SleeperTargeting::new()));
    assert!(diverging.stability.slope > 0.005, "{}", diverging.stability);
    // same algorithm, same adversary, rho = 0.9: stable.
    let stable = ScenarioSpec::new("count-hop", "sleeper")
        .n(6)
        .rho(Rate::new(9, 10))
        .beta(2)
        .rounds(150_000)
        .run(&CountHop::new(), Box::new(SleeperTargeting::new()));
    assert!(stable.stability.slope.abs() < 0.005, "{}", stable.stability);
}
