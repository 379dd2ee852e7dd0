//! Throughput benches, one per Table-1 row: wall-clock cost of simulating
//! each algorithm in its claimed regime (shrunk configurations; the
//! full-scale reproduction lives in the `table1` binary).
//!
//! ```text
//! cargo bench -p emac-bench --bench bench_table1
//! ```

use std::convert::Infallible;
use std::hint::black_box;

use emac_adversary::{LeastOnPair, LeastOnStation, SingleTarget, UniformRandom};
use emac_bench::timing::bench;
use emac_core::prelude::*;
use emac_sim::Rate;

const ROUNDS: u64 = 20_000;

fn main() {
    println!("table-1 regimes: {ROUNDS} rounds per call");

    bench("row1/orchestra_n6_rho1", ROUNDS, || {
        let r = ScenarioSpec::new("orchestra", "single-target")
            .n(6)
            .rho(Rate::one())
            .beta(2)
            .rounds(ROUNDS)
            .run(&Orchestra::new(), Box::new(SingleTarget::new(0, 3)));
        assert!(r.clean());
        black_box(r.max_queue());
    });

    bench("row2/counthop_n6_rho1_diverging", ROUNDS, || {
        let r = ScenarioSpec::new("count-hop", "single-target")
            .n(6)
            .rho(Rate::one())
            .beta(2)
            .rounds(ROUNDS)
            .run(&CountHop::new(), Box::new(SingleTarget::new(0, 3)));
        black_box(r.stability.slope);
    });

    bench("row3/counthop_n8_rho05", ROUNDS, || {
        let r = ScenarioSpec::new("count-hop", "uniform")
            .n(8)
            .rho(Rate::new(1, 2))
            .beta(2)
            .rounds(ROUNDS)
            .run(&CountHop::new(), Box::new(UniformRandom::new(1)));
        assert!(r.clean());
        black_box(r.latency());
    });

    let w = emac_core::adjust_window::WindowCfg::first(3);
    bench("row4/adjustwindow_n3_rho05", 3 * w.l, || {
        let r = ScenarioSpec::new("adjust-window", "uniform")
            .n(3)
            .rho(Rate::new(1, 2))
            .beta(2)
            .rounds(3 * w.l)
            .run(&AdjustWindow::new(), Box::new(UniformRandom::new(2)));
        assert!(r.clean());
        black_box(r.latency());
    });

    bench("row5/kcycle_n9_k3", ROUNDS, || {
        let rho = bounds::k_cycle_rate_threshold(9, 3).scaled(4, 5);
        let r = ScenarioSpec::new("k-cycle", "uniform")
            .n(9)
            .rho(rho)
            .beta(2)
            .rounds(ROUNDS)
            .run(&KCycle::new(3), Box::new(UniformRandom::new(3)));
        assert!(r.clean());
        black_box(r.latency());
    });

    bench("row6/kcycle_n9_k3_leaston_diverging", ROUNDS, || {
        let alg = KCycle::new(3);
        let p = alg.params(9);
        let horizon = p.delta() * p.groups() as u64;
        let rho = bounds::oblivious_rate_threshold(9, 3).scaled(6, 5);
        let spec = ScenarioSpec::new("k-cycle", "least-on").n(9).rho(rho).beta(2).rounds(ROUNDS);
        let Ok(mut sim) = spec.simulator(&alg, |s| {
            Ok::<_, Infallible>(Box::new(LeastOnStation::new(s.expect("oblivious"), 9, horizon)))
        });
        black_box(spec.drive(&mut sim).stability.slope);
    });

    bench("row7/kclique_n8_k4", ROUNDS, || {
        let rho = bounds::k_clique_rate_for_latency(8, 4);
        let r = ScenarioSpec::new("k-clique", "uniform")
            .n(8)
            .rho(rho)
            .beta(2)
            .rounds(ROUNDS)
            .run(&KClique::new(4), Box::new(UniformRandom::new(4)));
        assert!(r.clean());
        black_box(r.latency());
    });

    bench("row8/ksubsets_n6_k3", ROUNDS, || {
        let rho = bounds::k_subsets_rate_threshold(6, 3);
        let r = ScenarioSpec::new("k-subsets", "single-target")
            .n(6)
            .rho(rho)
            .beta(2)
            .rounds(ROUNDS)
            .run(&KSubsets::new(3), Box::new(SingleTarget::new(0, 5)));
        assert!(r.clean());
        black_box(r.max_queue());
    });

    bench("row9/ksubsets_n6_k3_leastpair_diverging", ROUNDS, || {
        let alg = KSubsets::new(3);
        let rho = bounds::k_subsets_rate_threshold(6, 3).scaled(3, 2);
        let spec =
            ScenarioSpec::new("k-subsets", "least-on-pair").n(6).rho(rho).beta(2).rounds(ROUNDS);
        let Ok(mut sim) = spec.simulator(&alg, |s| {
            Ok::<_, Infallible>(Box::new(LeastOnPair::new(s.expect("oblivious"), 6, 20_000)))
        });
        black_box(spec.drive(&mut sim).stability.slope);
    });
}
