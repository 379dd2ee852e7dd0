//! Ablations of three design choices:
//!
//! * **A1** — Orchestra without the move-big-to-front rule: the bigness
//!   mechanism is what buys rate-1 stability.
//! * **A2** — k-Cycle with the activity segment δ scaled away from the
//!   paper's `4(n−1)k/(n−k)`: shorter segments break the "group drains
//!   within one activation" invariant.
//! * **A3** — k-Subsets with RRW threads instead of MBTF: bounded latency
//!   below the threshold, at the cost of rate-1-per-thread optimality
//!   (paper §6 closing remark).
//!
//! All sections declare their sweeps as campaign scenarios and execute in
//! one parallel campaign, streamed: reports are scored and dropped as they
//! complete rather than buffered.
//!
//! ```text
//! cargo run --release -p emac-bench --bin ablations
//! ```

use emac_bench::{execute_rows, Planned};
use emac_core::campaign::ScenarioSpec;
use emac_core::prelude::*;
use emac_sim::Rate;

fn main() {
    let mut rows: Vec<(String, Vec<Planned>)> = Vec::new();

    // ---- B0: why coordination matters — uncoordinated duty-cycling ----
    let mut plans = Vec::new();
    for (n, k) in [(8usize, 4usize), (12, 4)] {
        let rho = bounds::k_cycle_rate_threshold(n as u64, k as u64).scaled(1, 2);
        for (alg, tag) in
            [("k-cycle", "k-Cycle (coordinated)"), ("duty-cycle", "DutyCycle (uncoordinated)")]
        {
            plans.push(
                Planned::slope(
                    format!("{tag} n={n} k={k}"),
                    ScenarioSpec::new(alg, "uniform")
                        .n(n)
                        .k(k)
                        .rho(rho)
                        .beta(2u64)
                        .rounds(150_000)
                        .seed(9),
                )
                .with_post(|report, c| {
                    c.label.push_str(&format!(
                        ": delivered {}/{} lost {} collisions {}",
                        report.metrics.delivered,
                        report.metrics.injected,
                        report.violations.packets_lost,
                        report.violations.collisions
                    ));
                    // losses/collisions are the baseline's measured failure
                    // mode, not a harness bug — do not count them against
                    // the suite.
                    c.clean = true;
                }),
            );
        }
    }
    rows.push((
        "B0  Baseline — uncoordinated duty-cycling loses packets; the paper's algorithms do not"
            .into(),
        plans,
    ));

    // ---- A1: Orchestra vs Orchestra without move-big ----
    let mut plans = Vec::new();
    for n in [4usize, 6] {
        for (alg, tag) in [
            ("orchestra", "with move-big (stable)"),
            ("orchestra-nomb", "WITHOUT move-big (diverges)"),
        ] {
            plans.push(Planned::slope(
                format!("Orchestra n={n} rho=1 {tag}"),
                ScenarioSpec::new(alg, "single-target")
                    .n(n)
                    .rho(Rate::one())
                    .beta(2u64)
                    .rounds(200_000)
                    .flood(0, n - 2),
            ));
        }
    }
    rows.push((
        "A1  Orchestra — the move-big-to-front rule is load-bearing at rate 1".into(),
        plans,
    ));

    // ---- A2: k-Cycle delta sensitivity ----
    let mut plans = Vec::new();
    let (n, k) = (9usize, 3usize);
    let rho = bounds::k_cycle_rate_threshold(n as u64, k as u64).scaled(4, 5);
    for (num, den, tag) in [(1u64, 4u64, "δ/4"), (1, 2, "δ/2"), (1, 1, "δ (paper)"), (2, 1, "2δ")]
    {
        let delta = KCycle::with_delta_scale(k, num, den).params(n).delta();
        plans.push(
            Planned::latency(
                format!("k-Cycle n={n} k={k} rho=0.8·thr segment {tag} (δ'={delta})"),
                ScenarioSpec::new(format!("k-cycle:{num}/{den}"), "uniform")
                    .n(n)
                    .k(k)
                    .rho(rho)
                    .beta(2u64)
                    .rounds(250_000)
                    .seed(17),
                bounds::k_cycle_latency_bound(n as u64, 2.0),
            )
            .with_post(|report, c| {
                c.verdict =
                    format!("{:?} slope {:+.3}", report.stability.verdict, report.stability.slope);
            }),
        );
    }
    rows.push(("A2  k-Cycle — sensitivity to the activity-segment length δ".into(), plans));

    // ---- A3: k-Subsets thread subroutine MBTF vs RRW ----
    let mut plans = Vec::new();
    for (n, k) in [(6u64, 3u64), (8, 3)] {
        let gamma = bounds::binomial(n, k);
        // below the threshold: both stable, RRW has bounded latency
        let rho = bounds::k_subsets_rate_threshold(n, k).scaled(3, 4);
        for (alg, tag) in [("k-subsets", "MBTF threads"), ("k-subsets-rrw", "RRW threads")] {
            plans.push(Planned::latency(
                format!("k-Subsets n={n} k={k} rho=0.75·thr {tag} (γ={gamma})"),
                ScenarioSpec::new(alg, "single-target")
                    .n(n as usize)
                    .k(k as usize)
                    .rho(rho)
                    .beta(2u64)
                    .rounds(300_000)
                    .flood(0, n as usize - 1),
                // paper remark: Θ(γ(n+β)) for RRW; generous constant 20
                20.0 * gamma as f64 * (n as f64 + 2.0),
            ));
        }
        // at the exact threshold: MBTF stays stable, RRW need not
        let rho = bounds::k_subsets_rate_threshold(n, k);
        for (alg, tag) in [
            ("k-subsets", "MBTF threads at exact threshold"),
            ("k-subsets-rrw", "RRW threads at exact threshold"),
        ] {
            plans.push(Planned::slope(
                format!("k-Subsets n={n} k={k} {tag}"),
                ScenarioSpec::new(alg, "single-target")
                    .n(n as usize)
                    .k(k as usize)
                    .rho(rho)
                    .beta(2u64)
                    .rounds(300_000)
                    .flood(0, n as usize - 1),
            ));
        }
    }
    rows.push(("A3  k-Subsets — MBTF vs RRW thread subroutines (paper §6 remark)".into(), plans));

    execute_rows(rows);
}
