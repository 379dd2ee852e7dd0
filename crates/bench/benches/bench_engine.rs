//! Throughput benches for the simulator substrate itself: raw round
//! throughput of the engine with the broadcast building blocks, and of the
//! energy-capped algorithms with mostly-sleeping stations.
//!
//! ```text
//! cargo bench -p emac-bench --bench bench_engine
//! EMAC_BENCH_ITERS=10 cargo bench -p emac-bench --bench bench_engine
//! cargo bench -p emac-bench --bench bench_engine -- --smoke --json BENCH_engine.json
//! ```
//!
//! `--smoke` shrinks the run for CI (fewer rounds per call); `--json PATH`
//! writes the measured results as a machine-readable baseline so future
//! changes can be compared against the committed `BENCH_engine.json`.

use std::hint::black_box;

use emac_adversary::{LeastOnPair, UniformRandom};
use emac_bench::timing::{bench, write_json, BenchResult};
use emac_broadcast::{build_mbtf, build_of_rrw, build_rrw};
use emac_core::prelude::*;
use emac_sim::{BuiltAlgorithm, FaultSpec, NoInjections, Rate, SimConfig, Simulator, WakeMode};

const ROUNDS: u64 = 50_000;
const SMOKE_ROUNDS: u64 = 5_000;

type Builder = fn(usize) -> BuiltAlgorithm;

fn engine_rounds(rounds: u64, results: &mut Vec<BenchResult>) {
    println!("engine: {rounds} rounds per call");
    let cases: [(&str, Builder); 3] =
        [("rrw_n8", build_rrw), ("of_rrw_n8", build_of_rrw), ("mbtf_n8", build_mbtf)];
    for (name, build) in cases {
        results.push(bench(name, rounds, || {
            let cfg = SimConfig::new(8, 8).adversary_type(Rate::new(3, 4), Rate::integer(2));
            let mut sim = Simulator::new(cfg, build(8), Box::new(UniformRandom::new(1)));
            sim.run(rounds);
            assert!(sim.violations().is_clean());
            black_box(sim.metrics().delivered);
        }));
    }
}

fn sleeping_stations(rounds: u64, results: &mut Vec<BenchResult>) {
    // Energy-capped algorithms keep all but cap stations asleep; per-round
    // cost should be dominated by the awake set, not n.
    println!("sleeping: {rounds} rounds per call");
    results.push(bench("counthop_idle_n16", rounds, || {
        let cfg = SimConfig::new(16, 2);
        let mut sim = Simulator::new(cfg, CountHop::new().build(16), Box::new(NoInjections));
        sim.run(rounds);
        black_box(sim.metrics().energy_total);
    }));
    results.push(bench("kcycle_loaded_n16_k4", rounds, || {
        let rho = bounds::k_cycle_rate_threshold(16, 4).scaled(4, 5);
        let cfg = SimConfig::new(16, 4).adversary_type(rho, Rate::integer(2));
        let mut sim =
            Simulator::new(cfg, KCycle::new(4).build(16), Box::new(UniformRandom::new(2)));
        sim.run(rounds);
        assert!(sim.violations().is_clean());
        black_box(sim.metrics().delivered);
    }));
    // The jammed twin of kcycle_loaded_n16_k4: the per-round cost of an
    // armed FaultPlan (one Bernoulli draw plus the jam branch at rate
    // 1/10). Compare the two to read the fault layer's overhead directly.
    results.push(bench("kcycle_jammed_n16", rounds, || {
        let rho = bounds::k_cycle_rate_threshold(16, 4).scaled(4, 5);
        let cfg = SimConfig::new(16, 4).adversary_type(rho, Rate::integer(2)).faults(FaultSpec {
            jam: Rate::new(1, 10),
            seed: 7,
            ..Default::default()
        });
        let mut sim =
            Simulator::new(cfg, KCycle::new(4).build(16), Box::new(UniformRandom::new(2)));
        sim.run(rounds);
        assert!(sim.violations().is_clean());
        black_box(sim.metrics().jammed_rounds);
    }));
}

fn backlog(rounds: u64, results: &mut Vec<BenchResult>) {
    // The diverging Table-1 row: k-Clique against the least-on-pair flood
    // above the pair threshold. Built fresh and run from empty on each
    // call, so the flooded station's backlog grows through the call as it
    // does in the campaign, and every token-holding round queries a deep
    // queue whose active pair may carry none of it.
    println!("backlog: {rounds} rounds per call, from empty");
    results.push(bench("kclique_backlog_n6", rounds, || {
        let (n, k) = (6, 3);
        let rho = bounds::k_subsets_rate_threshold(n as u64, k as u64).scaled(3, 2);
        let alg = KClique::new(k);
        let built = alg.build(n);
        let WakeMode::Scheduled(schedule) = &built.wake else {
            unreachable!("k-Clique has a fixed schedule")
        };
        let adv = Box::new(LeastOnPair::new(schedule, n, 5_000));
        let cfg = SimConfig::new(n, alg.required_cap(n)).adversary_type(rho, Rate::integer(2));
        let mut sim = Simulator::new(cfg, built, adv);
        sim.run(rounds);
        assert!(sim.violations().is_clean());
        black_box(sim.metrics().max_total_queued);
    }));
}

fn large_n(rounds: u64, results: &mut Vec<BenchResult>) {
    // Scaling scenarios past one mask word: per-round cost must track the
    // awake set (schedule-table row copies), not n. Construction at this
    // size (the C(128,2) = 8128-subset geometry) costs milliseconds, so one
    // simulator is built untimed and each iteration continues the same
    // steady-state execution — smoke and full runs then measure the same
    // per-round quantity.
    println!("large-n: {rounds} rounds per call (one simulator, construction untimed)");
    {
        let rho = bounds::k_cycle_rate_threshold(64, 8).scaled(4, 5);
        let cfg = SimConfig::new(64, 8).adversary_type(rho, Rate::integer(2));
        let mut sim =
            Simulator::new(cfg, KCycle::new(8).build(64), Box::new(UniformRandom::new(2)));
        results.push(bench("kcycle_loaded_n64", rounds, || {
            sim.run(rounds);
            assert!(sim.violations().is_clean());
            black_box(sim.metrics().delivered);
        }));
    }
    {
        // gamma = C(128, 2) = 8128 threads; two mask words per schedule row.
        let cfg = SimConfig::new(128, 2).adversary_type(Rate::new(1, 64), Rate::integer(4));
        let mut sim =
            Simulator::new(cfg, KSubsets::new(2).build(128), Box::new(UniformRandom::new(3)));
        results.push(bench("ksubsets_n128", rounds, || {
            sim.run(rounds);
            assert!(sim.violations().is_clean());
            black_box(sim.metrics().delivered);
        }));
    }
}

fn frontier_bisect(rounds: u64, results: &mut Vec<BenchResult>) {
    // Probe throughput of the frontier bisection inner loop: one map point
    // searched serially (threads=1) so the number is per-probe cost, not
    // parallel speedup. Diverging probes exit early through the probe cap;
    // stable probes pay the full horizon.
    use emac::registry::Registry;
    use emac_core::frontier::{Frontier, FrontierSpec, MemoryMapSink};

    println!("frontier: bisection probes at up to {rounds} rounds per probe");
    let template = format!(
        r#"{{"template": {{"algorithm": "k-cycle", "adversary": "spread-from-one",
            "target": 1, "rounds": {rounds}, "probe_cap": 2500}},
            "lo": "0.5 * group_share", "hi": "1.25 * k_cycle_threshold",
            "tol": 0.015625, "map": {{"n": [16], "k": [4]}}}}"#
    );
    let spec = FrontierSpec::parse(&template).expect("bench frontier template");
    // The probe count is deterministic; learn it once so work_items is the
    // number of probes and ns/item reads as ns per probe.
    let mut warm = MemoryMapSink::new();
    let probes = Frontier::new()
        .threads(1)
        .run_into(&spec, &Registry, &mut warm, None)
        .expect("bench frontier warm-up")
        .probes_run as u64;
    results.push(bench("frontier_bisect_kcycle_n16", probes, || {
        let mut sink = MemoryMapSink::new();
        let summary =
            Frontier::new().threads(1).run_into(&spec, &Registry, &mut sink, None).unwrap();
        assert_eq!(summary.probes_run as u64, probes, "probe sequence must be deterministic");
        black_box(summary.completed);
    }));

    // The ensemble-probe variant: the same point under a 5-seed ensemble
    // (one lane per seed) with escalation armed. work_items stays the
    // number of ensemble probes, so ns/item against
    // frontier_bisect_kcycle_n16 reads as the all-in cost of banding a
    // probe: 5+ lanes, full horizons on the stable side, and the lanes
    // escalation adds to a disagreeing probe.
    let ensemble_template = format!(
        r#"{{"template": {{"algorithm": "k-cycle", "adversary": "spread-from-one-rand",
            "target": 1, "rounds": {rounds}, "probe_cap": 2500}},
            "lo": "0.5 * group_share", "hi": "1.25 * k_cycle_threshold",
            "tol": 0.015625, "map": {{"n": [16], "k": [4]}},
            "seeds": [1, 2, 3, 4, 5],
            "escalate": {{"max_seeds": 9, "step": 2}}}}"#
    );
    let spec = FrontierSpec::parse(&ensemble_template).expect("bench ensemble template");
    let mut warm = MemoryMapSink::new();
    let probes = Frontier::new()
        .threads(1)
        .run_into(&spec, &Registry, &mut warm, None)
        .expect("bench ensemble warm-up")
        .probes_run as u64;
    results.push(bench("frontier_ensemble_kcycle_n16_s5", probes, || {
        let mut sink = MemoryMapSink::new();
        let summary =
            Frontier::new().threads(1).run_into(&spec, &Registry, &mut sink, None).unwrap();
        assert_eq!(summary.probes_run as u64, probes, "probe sequence must be deterministic");
        black_box(summary.completed);
    }));
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        let path = args.get(i + 1).expect("--json needs a path");
        assert!(!path.starts_with("--"), "--json needs a path, got flag {path:?}");
        path.clone()
    });
    let rounds = if smoke { SMOKE_ROUNDS } else { ROUNDS };

    let mut results = Vec::new();
    engine_rounds(rounds, &mut results);
    sleeping_stations(rounds, &mut results);
    backlog(rounds, &mut results);
    large_n(rounds, &mut results);
    frontier_bisect(rounds, &mut results);

    if let Some(path) = json_path {
        let path = std::path::PathBuf::from(path);
        let meta = [("rounds_per_call", rounds), ("smoke", u64::from(smoke))];
        write_json(&path, "bench_engine", &meta, &results).expect("write bench JSON");
        println!("wrote {}", path.display());
    }
}
