//! Reproduce Table 1 of Chlebus et al. (SPAA 2019): for every row, run the
//! algorithm in the regime the row claims and compare the measured queue
//! size or latency against the paper's bound.
//!
//! Every row *declares* its sweep as campaign scenarios; all rows execute
//! through one parallel **streaming** [`emac_core::campaign::Campaign`] —
//! each report is scored against its bound the moment it completes and
//! dropped, so the sweep's memory footprint is bounded by the workers and
//! one commit block, not by the row count. The process exits non-zero
//! when any row is out of bound or any run is unclean.
//!
//! ```text
//! cargo run --release -p emac-bench --bin table1
//! ```

use std::process::ExitCode;

use emac_bench::{execute_rows, Planned};
use emac_core::campaign::ScenarioSpec;
use emac_core::prelude::*;
use emac_sim::Rate;

const BETA: u64 = 2;

fn main() -> ExitCode {
    println!("Table 1 reproduction — Energy Efficient Adversarial Routing in Shared Channels");
    println!("measured vs paper bound; 'x' column = measured / bound (≤ 1 confirms the bound)");
    let mut rows: Vec<(String, Vec<Planned>)> = Vec::new();

    // ---- Row 1: Orchestra, rho = 1, cap 3, queues <= 2n^3 + beta ----
    let mut plans = Vec::new();
    for n in [4usize, 6, 8] {
        let bound = bounds::orchestra_queue_bound(n as u64, BETA as f64);
        plans.push(Planned::queue(
            format!("Orchestra n={n} beta={BETA} rho=1 single-target"),
            ScenarioSpec::new("orchestra", "single-target")
                .n(n)
                .rho(Rate::one())
                .beta(BETA)
                .rounds(200_000)
                .flood(0, n - 2),
            bound,
        ));
        plans.push(Planned::queue(
            format!("Orchestra n={n} beta={BETA} rho=1 round-robin"),
            ScenarioSpec::new("orchestra", "round-robin")
                .n(n)
                .rho(Rate::one())
                .beta(BETA)
                .rounds(200_000),
            bound,
        ));
    }
    rows.push(("Row 1  Orchestra — queues ≤ 2n³+β at rho = 1 (cap 3)".into(), plans));

    // ---- Row 2: impossibility at cap 2, rho = 1 ----
    let mut plans = Vec::new();
    for n in [4usize, 6] {
        for (rho, tag) in
            [(Rate::one(), "rho=1 (must diverge)"), (Rate::new(9, 10), "rho=0.9 (contrast)")]
        {
            plans.push(Planned::slope(
                format!("Count-Hop n={n} cap=2 {tag}"),
                ScenarioSpec::new("count-hop", "single-target")
                    .n(n)
                    .rho(rho)
                    .beta(BETA)
                    .rounds(150_000)
                    .flood(0, n - 2),
            ));
        }
    }
    rows.push((
        "Row 2  Impossibility — no cap-2 algorithm is stable at rho = 1 (Thm 2)".into(),
        plans,
    ));

    // ---- Row 3: Count-Hop latency <= 2(n^2+beta)/(1-rho) ----
    let mut plans = Vec::new();
    for n in [4u64, 8, 12, 16] {
        for (p, q) in [(1u64, 2u64), (9, 10)] {
            let rho = Rate::new(p, q);
            plans.push(Planned::latency(
                format!("Count-Hop n={n} rho={p}/{q} beta={BETA} [impl: 2x n² coeff]"),
                ScenarioSpec::new("count-hop", "uniform")
                    .n(n as usize)
                    .rho(rho)
                    .beta(BETA)
                    .rounds(150_000)
                    .seed(n),
                bounds::count_hop_impl_latency_bound(n, rho.as_f64(), BETA as f64),
            ));
        }
    }
    rows.push(("Row 3  Count-Hop — latency ≤ 2(n²+β)/(1−ρ), cap 2".into(), plans));

    // ---- Row 4: Adjust-Window latency <= (18 n^3 log^2 n + 2 beta)/(1-rho) ----
    // The paper's bound is asymptotic in n (it replaces lg L by Θ(log n));
    // the exact bound of this implementation is 2·L*, the steady window
    // size. Both ratios are reported; `steady_window_size`'s doc explains them.
    let mut plans = Vec::new();
    for n in [3usize, 4, 5] {
        for (p, q) in [(1u64, 2u64), (3, 4)] {
            let rho = Rate::new(p, q);
            let l_star = emac_core::adjust_window::steady_window_size(n, rho, BETA);
            plans.push(
                Planned::latency(
                    format!("Adjust-Window n={n} rho={p}/{q} beta={BETA} (L*={l_star})"),
                    ScenarioSpec::new("adjust-window", "uniform")
                        .n(n)
                        .rho(rho)
                        .beta(BETA)
                        .rounds(10 * l_star)
                        .seed(n as u64),
                    2.0 * l_star as f64,
                )
                .with_post(|report, c| {
                    // also report the ratio to the paper's asymptotic bound
                    let paper = bounds::adjust_window_latency_bound(
                        report.n as u64,
                        report.rho.as_f64(),
                        2.0,
                    );
                    c.label.push_str(&format!(" (paper-bound ratio {:.1}x)", c.measured / paper));
                }),
            );
        }
    }
    rows.push((
        "Row 4  Adjust-Window — latency ≤ 2·L* exactly; ≤ (18n³log²n+2β)/(1−ρ) asymptotically"
            .into(),
        plans,
    ));

    // ---- Row 5: k-Cycle latency <= (32+beta) n for rho < (k-1)/(n-1) ----
    let mut plans = Vec::new();
    for (n, k) in [(9usize, 3usize), (13, 4), (16, 5)] {
        plans.push(Planned::latency(
            format!("k-Cycle n={n} k={k} rho=0.8(k-1)/(n-1) beta={BETA}"),
            ScenarioSpec::new("k-cycle", "uniform")
                .n(n)
                .k(k)
                .rho(bounds::k_cycle_rate_threshold(n as u64, k as u64).scaled(4, 5))
                .beta(BETA)
                .rounds(200_000)
                .seed(7),
            bounds::k_cycle_latency_bound(n as u64, BETA as f64),
        ));
    }
    rows.push(("Row 5  k-Cycle — latency ≤ (32+β)n for ρ < (k−1)/(n−1)".into(), plans));

    // ---- Row 6: oblivious impossibility above k/n ----
    let mut plans = Vec::new();
    for (n, k) in [(9usize, 3usize), (13, 4)] {
        let p = KCycle::new(k).params(n);
        plans.push(Planned::slope(
            format!("k-Cycle n={n} k={k} rho=1.2·k/n least-on flood (must diverge)"),
            ScenarioSpec::new("k-cycle", "least-on")
                .n(n)
                .k(k)
                .rho(bounds::oblivious_rate_threshold(n as u64, k as u64).scaled(6, 5))
                .beta(2u64)
                .rounds(150_000)
                .horizon(p.delta() * p.groups() as u64),
        ));
    }
    rows.push((
        "Row 6  Impossibility — no k-oblivious algorithm is stable above k/n (Thm 6)".into(),
        plans,
    ));

    // ---- Row 7: k-Clique latency at rho <= k^2/(2n(2n-k)) ----
    let mut plans = Vec::new();
    for (n, k) in [(8u64, 4u64), (12, 4), (12, 6)] {
        plans.push(Planned::latency(
            format!("k-Clique n={n} k={k} rho=k²/(2n(2n−k)) beta={BETA}"),
            ScenarioSpec::new("k-clique", "uniform")
                .n(n as usize)
                .k(k as usize)
                .rho(bounds::k_clique_rate_for_latency(n, k))
                .beta(BETA)
                .rounds(400_000)
                .seed(23),
            bounds::k_clique_latency_bound(n, k, BETA as f64),
        ));
    }
    rows.push(("Row 7  k-Clique — latency ≤ 8(n²/k)(1+β/2k)".into(), plans));

    // ---- Row 8: k-Subsets queues at rho = k(k-1)/(n(n-1)) ----
    let mut plans = Vec::new();
    for (n, k) in [(6u64, 3u64), (8, 3), (10, 4)] {
        plans.push(Planned::queue(
            format!("k-Subsets n={n} k={k} rho=k(k−1)/(n(n−1)) single-target"),
            ScenarioSpec::new("k-subsets", "single-target")
                .n(n as usize)
                .k(k as usize)
                .rho(bounds::k_subsets_rate_threshold(n, k))
                .beta(BETA)
                .rounds(300_000)
                .flood(0, n as usize - 1),
            bounds::k_subsets_queue_bound(n, k, BETA as f64),
        ));
    }
    rows.push(("Row 8  k-Subsets — queues ≤ 2·C(n,k)(n²+β) at ρ = k(k−1)/(n(n−1))".into(), plans));

    // ---- Row 9: oblivious direct impossibility above k(k-1)/(n(n-1)) ----
    let mut plans = Vec::new();
    for (n, k) in [(6usize, 3usize), (8, 4)] {
        let rho = bounds::k_subsets_rate_threshold(n as u64, k as u64).scaled(3, 2);
        let gamma = KSubsets::new(k).params(n).gamma() as u64;
        plans.push(Planned::slope(
            format!("k-Subsets n={n} k={k} rho=1.5·thr least-pair flood (must diverge)"),
            ScenarioSpec::new("k-subsets", "least-on-pair")
                .n(n)
                .k(k)
                .rho(rho)
                .beta(2u64)
                .rounds(150_000)
                .horizon(gamma),
        ));
        let m = KClique::new(k).params(n).num_pairs() as u64;
        plans.push(Planned::slope(
            format!("k-Clique n={n} k={k} rho=1.5·thr least-pair flood (must diverge)"),
            ScenarioSpec::new("k-clique", "least-on-pair")
                .n(n)
                .k(k)
                .rho(rho)
                .beta(2u64)
                .rounds(150_000)
                .horizon(m),
        ));
    }
    rows.push((
        "Row 9  Impossibility — oblivious direct routing above k(k−1)/(n(n−1)) (Thm 9)".into(),
        plans,
    ));

    let all_ok = execute_rows(rows);
    println!(
        "\n==> {}",
        if all_ok {
            "all rows reproduced within bounds, all runs clean"
        } else {
            "SOME ROWS OUT OF BOUND OR UNCLEAN — see above"
        }
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
