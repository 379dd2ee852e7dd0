//! Quickstart: simulate `Count-Hop` (energy cap 2) on an 8-station shared
//! channel against a random leaky-bucket adversary, and print the paper's
//! performance measures.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use emac::adversary::UniformRandom;
use emac::core::prelude::*;
use emac::sim::Rate;

fn main() {
    // A (rho, beta) = (1/2, 2) adversary injecting uniformly at random.
    let report = ScenarioSpec::new("count-hop", "uniform")
        .n(8)
        .rho(Rate::new(1, 2))
        .beta(2)
        .rounds(200_000)
        .drain(20_000)
        .run(&CountHop::new(), Box::new(UniformRandom::new(42)));

    println!("{report}\n");

    // Compare against Theorem 3's bound shape.
    let bound = bounds::count_hop_impl_latency_bound(8, 0.5, 2.0);
    println!(
        "latency {} vs bound 2(2n²+β)/(1−ρ) = {:.0}  ({:.2}x)",
        report.latency(),
        bound,
        report.latency() as f64 / bound
    );
    println!(
        "energy: {:.2} stations on per round (cap {})",
        report.metrics.energy_per_round(),
        report.cap
    );
    assert!(report.clean(), "model invariants violated: {}", report.violations);
    assert_eq!(report.drained, Some(true), "all packets must eventually be delivered");
}
