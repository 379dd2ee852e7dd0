//! Generate the figure-style CSV series F1–F5, declared below. The paper
//! itself has no figures — its evaluation is Table 1 — so these series
//! visualise the behaviours behind the bounds: bounded vs unbounded queue
//! growth, the 1/(1−ρ) latency blow-up, scaling in n, the stability
//! frontier of an oblivious algorithm, and the energy–latency trade-off.
//!
//! Each figure declares its sweep as campaign scenarios and executes them
//! in parallel through the **streaming** harness ([`emac_bench::run_streamed`]):
//! reports are reduced to the few scalars a figure plots the moment they
//! complete, so a wider sweep costs no extra memory. Only F1 opts into
//! full metrics detail — its subject *is* the queue-size time series.
//!
//! ```text
//! cargo run --release -p emac-bench --bin figures
//! # series land in results/*.csv
//! ```

use emac_bench::{run_streamed, run_streamed_with, write_csv};
use emac_core::campaign::{MetricsDetail, ScenarioSpec};
use emac_core::prelude::*;
use emac_sim::Rate;

fn main() -> std::io::Result<()> {
    f1_queue_growth()?;
    f2_latency_vs_rho()?;
    f3_latency_vs_n()?;
    f4_stability_frontier()?;
    f5_energy_tradeoff()?;
    println!("wrote results/f1..f5 CSV series");
    Ok(())
}

/// F1: queue size over time at rho = 1 — Orchestra (cap 3, bounded) vs
/// Count-Hop (cap 2, provably unbounded).
fn f1_queue_growth() -> std::io::Result<()> {
    let n = 6;
    let specs: Vec<ScenarioSpec> = ["orchestra", "count-hop"]
        .into_iter()
        .map(|alg| {
            ScenarioSpec::new(alg, "single-target")
                .n(n)
                .rho(Rate::one())
                .beta(2u64)
                .rounds(120_000)
                .flood(0, 2)
        })
        .collect();
    let mut series: Vec<Vec<(u64, u64)>> = vec![Vec::new(); specs.len()];
    let mut slopes = vec![0.0f64; specs.len()];
    run_streamed_with(MetricsDetail::Full, &specs, |i, report| {
        series[i] = report.metrics.queue_series.iter().map(|s| (s.round, s.total_queued)).collect();
        slopes[i] = report.stability.slope;
    });
    let rows: Vec<String> = series[0]
        .iter()
        .zip(series[1].iter())
        .map(|(a, b)| format!("{},{},{}", a.0, a.1, b.1))
        .collect();
    println!("F1: Orchestra slope {:+.4}, Count-Hop slope {:+.4}", slopes[0], slopes[1]);
    write_csv("results/f1_queue_growth.csv", "round,orchestra_cap3,counthop_cap2", &rows)
}

/// F2: latency vs rho for the two universal algorithms (hyperbolic shape).
fn f2_latency_vs_rho() -> std::io::Result<()> {
    let n = 4;
    let rhos: Vec<u64> = (1..=9).collect();
    let mut specs = Vec::new();
    for &p in &rhos {
        let rho = Rate::new(p, 10);
        specs.push(
            ScenarioSpec::new("count-hop", "uniform")
                .n(n)
                .rho(rho)
                .beta(2u64)
                .rounds(120_000)
                .seed(p),
        );
        let w = emac_core::adjust_window::WindowCfg::first(n);
        specs.push(
            ScenarioSpec::new("adjust-window", "uniform")
                .n(n)
                .rho(rho)
                .beta(2u64)
                .rounds(10 * w.l)
                .seed(p),
        );
    }
    let mut latencies = vec![0u64; specs.len()];
    run_streamed(&specs, |i, report| latencies[i] = report.latency());
    let mut rows = Vec::new();
    for (i, &p) in rhos.iter().enumerate() {
        let (ch, aw) = (latencies[2 * i], latencies[2 * i + 1]);
        rows.push(format!("{},{ch},{aw}", Rate::new(p, 10).as_f64()));
        println!("F2: rho={:.1} count-hop {ch} adjust-window {aw}", Rate::new(p, 10).as_f64());
    }
    write_csv("results/f2_latency_vs_rho.csv", "rho,counthop_latency,adjustwindow_latency", &rows)
}

/// F3: latency vs n at a load scaled to each algorithm's regime.
fn f3_latency_vs_n() -> std::io::Result<()> {
    let ns = [6usize, 9, 12, 16];
    let k = 3usize;
    let mut specs = Vec::new();
    for &n in &ns {
        specs.push(
            ScenarioSpec::new("count-hop", "uniform")
                .n(n)
                .rho(Rate::new(1, 2))
                .beta(2u64)
                .rounds(150_000)
                .seed(1),
        );
        specs.push(
            ScenarioSpec::new("k-cycle", "uniform")
                .n(n)
                .k(k)
                .rho(bounds::k_cycle_rate_threshold(n as u64, k as u64).scaled(4, 5))
                .beta(2u64)
                .rounds(200_000)
                .seed(2),
        );
        specs.push(
            ScenarioSpec::new("k-clique", "uniform")
                .n(n)
                .k(4)
                .rho(bounds::k_clique_rate_for_latency(n as u64, 4))
                .beta(2u64)
                .rounds(400_000)
                .seed(3),
        );
    }
    let mut latencies = vec![0u64; specs.len()];
    run_streamed(&specs, |i, report| latencies[i] = report.latency());
    let mut rows = Vec::new();
    for (i, &n) in ns.iter().enumerate() {
        let (ch, kc, kq) = (latencies[3 * i], latencies[3 * i + 1], latencies[3 * i + 2]);
        rows.push(format!("{n},{ch},{kc},{kq}"));
        println!("F3: n={n} count-hop {ch} k-cycle {kc} k-clique {kq}");
    }
    write_csv(
        "results/f3_latency_vs_n.csv",
        "n,counthop_rho0.5,kcycle_k3_scaled,kclique_k4_scaled",
        &rows,
    )
}

/// F4: stability frontier of k-Cycle (n=9, k=3) under the least-on flood:
/// the paper proves stability below (k−1)/(n−1) = 0.25 and instability
/// above k/n ≈ 0.333; the sweep locates the empirical crossover.
fn f4_stability_frontier() -> std::io::Result<()> {
    let (n, k) = (9usize, 3usize);
    let p = KCycle::new(k).params(n);
    let horizon = p.delta() * p.groups() as u64;
    let specs: Vec<ScenarioSpec> = (4..=11u64)
        .map(|num| {
            // 0.167 .. 0.458 around [0.25, 0.333]
            ScenarioSpec::new("k-cycle", "least-on")
                .n(n)
                .k(k)
                .rho(Rate::new(num, 24))
                .beta(2u64)
                .rounds(250_000)
                .horizon(horizon)
        })
        .collect();
    let mut frontier = vec![(0.0f64, String::new()); specs.len()];
    run_streamed(&specs, |i, report| {
        frontier[i] = (report.stability.slope, format!("{:?}", report.stability.verdict));
    });
    let mut rows = Vec::new();
    for (s, (slope, verdict)) in specs.iter().zip(&frontier) {
        println!("F4: rho={:.3} slope {slope:+.4} {verdict}", s.rho.as_f64());
        rows.push(format!("{},{slope},{verdict}", s.rho.as_f64()));
    }
    write_csv("results/f4_stability_frontier.csv", "rho,slope,verdict", &rows)
}

/// F5: energy–latency trade-off: latency vs cap k at a fixed small load,
/// with measured energy per round.
fn f5_energy_tradeoff() -> std::io::Result<()> {
    let n = 12usize;
    let rho = Rate::new(1, 50);
    let ks = [3usize, 4, 5, 6];
    let mut specs = Vec::new();
    for &k in &ks {
        specs.push(
            ScenarioSpec::new("k-cycle", "uniform")
                .n(n)
                .k(k)
                .rho(rho)
                .beta(2u64)
                .rounds(200_000)
                .seed(4),
        );
        specs.push(
            ScenarioSpec::new("k-clique", "uniform")
                .n(n)
                .k(k)
                .rho(rho)
                .beta(2u64)
                .rounds(200_000)
                .seed(5),
        );
    }
    let mut measured = vec![(0u64, 0.0f64); specs.len()];
    run_streamed(&specs, |i, report| {
        measured[i] = (report.latency(), report.metrics.energy_per_round());
    });
    let mut rows = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let ((kc_lat, kc_e), (kq_lat, kq_e)) = (measured[2 * i], measured[2 * i + 1]);
        println!(
            "F5: k={k} k-cycle latency {kc_lat} energy {kc_e:.2} | \
             k-clique latency {kq_lat} energy {kq_e:.2}"
        );
        rows.push(format!("{k},{kc_lat},{kc_e:.3},{kq_lat},{kq_e:.3}"));
    }
    write_csv(
        "results/f5_energy_tradeoff.csv",
        "k,kcycle_latency,kcycle_energy_per_round,kclique_latency,kclique_energy_per_round",
        &rows,
    )
}
