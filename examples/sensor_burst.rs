//! Bursty telemetry to a sink: a cluster of battery-powered sensors shares
//! a channel with one collector station. Sensors fire in bursts (the
//! leaky-bucket β), all packets are addressed to the sink — the
//! concentrated workload that separates the algorithms' strategies:
//!
//! * `Orchestra` (cap 3) rides out rate-1 bursts by letting the loaded
//!   station keep the channel (move-big-to-front);
//! * `k-Clique` (cap 4, oblivious, direct) partitions time among pairs and
//!   needs its injection rate below `k²/(2n(2n−k))`;
//! * `Adjust-Window` (cap 2, plain packets) gossips queue sizes and
//!   adapts its window to the burst volume.
//!
//! ```text
//! cargo run --release --example sensor_burst
//! ```

use emac::adversary::Bursty;
use emac::core::prelude::*;
use emac::sim::Rate;

fn main() {
    let n = 8;
    let sink = n - 1;
    let beta = 8u64;

    println!("sensor cluster: n={n}, sink=station {sink}, bursts of up to β={beta}\n");
    println!(
        "{:<34} {:>5} {:>9} {:>12} {:>12} {:>10}",
        "algorithm", "cap", "rho", "latency max", "latency p90", "max queue"
    );

    // Each algorithm is driven at a rate inside its own guaranteed regime.
    let cases: Vec<(Box<dyn Algorithm>, Rate)> = vec![
        (Box::new(Orchestra::new()), Rate::one()),
        (Box::new(AdjustWindow::new()), Rate::new(1, 2)),
        (Box::new(KClique::new(4)), bounds::k_clique_rate_for_latency(n as u64, 4)),
        (Box::new(KCycle::new(4)), bounds::k_cycle_rate_threshold(n as u64, 4).scaled(4, 5)),
    ];

    for (alg, rho) in cases {
        // sensors burst every 64 rounds from station 1 — every packet for the sink
        let adversary = Box::new(Bursty::new(1, 64));
        let report = ScenarioSpec::new(alg.name(), "bursty")
            .n(n)
            .rho(rho)
            .beta(beta)
            .rounds(250_000)
            .run(alg.as_ref(), adversary);
        println!(
            "{:<34} {:>5} {:>9.4} {:>12} {:>12} {:>10}",
            report.algorithm,
            report.cap,
            rho.as_f64(),
            report.latency(),
            report.metrics.delay.quantile(0.9),
            report.max_queue()
        );
        assert!(report.clean(), "{}: {}", report.algorithm, report.violations);
    }

    println!("\nOrchestra sustains the full channel rate at cap 3; the oblivious algorithms");
    println!("trade rate for predictable wake-ups; Adjust-Window does it with plain packets.");
}
