//! Probe the stability frontier of an energy-oblivious algorithm by binary
//! search. The paper brackets `k-Cycle` between claimed-stable
//! `(k−1)/(n−1)` (Theorem 5) and proven-unstable `k/n` (Theorem 6) — but
//! under a flood *concentrated* into the least-on station the measured
//! frontier sits at that station's activity share `1/ℓ ≈ (k−1)/n`, *below*
//! the Theorem-5 claim (the reproduction finding pinned by
//! `k_cycle::tests::concentrated_flood_frontier_sits_at_group_share`).
//! This probe locates it precisely.
//!
//! ```text
//! cargo run --release --example stability_probe
//! ```

use emac::adversary::LeastOnStation;
use emac::core::prelude::*;
use emac::sim::Rate;

fn main() {
    let (n, k) = (9usize, 3usize);
    let alg = KCycle::new(k);
    let params = alg.params(n);
    let horizon = params.delta() * params.groups() as u64;

    let lower = bounds::k_cycle_rate_threshold(n as u64, k as u64); // (k-1)/(n-1)
    let upper = bounds::oblivious_rate_threshold(n as u64, k as u64); // k/n
    let share = Rate::new(1, params.groups() as u64); // home-group activity share
    println!("k-Cycle n={n} k={k}: claimed stable below {lower}, unstable above {upper}");
    println!("single-station activity share 1/l = {share}");
    println!("binary search of the empirical frontier (least-on flood, 200k rounds/probe)\n");

    // Search over rho = x/1000 from well below the activity share up past k/n.
    let mut lo = share.num() * 1000 / share.den() / 2; // stable side
    let mut hi = upper.num() * 1000 / upper.den() + 50; // unstable side
    while hi - lo > 5 {
        let mid = (lo + hi) / 2;
        let rho = Rate::new(mid, 1000);
        let report = Runner::new(n).rate(rho).beta(2).rounds(200_000).run_against(&alg, |s| {
            Box::new(LeastOnStation::new(s.expect("oblivious"), n, horizon))
        });
        let diverging = report.stability.verdict == Verdict::Diverging;
        println!(
            "  rho = {:.3}  slope {:+.4}  -> {:?}",
            rho.as_f64(),
            report.stability.slope,
            report.stability.verdict
        );
        if diverging {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let frontier = (lo + hi) as f64 / 2.0 / 1000.0;
    println!(
        "\nempirical frontier ≈ {:.3}: near the activity share {:.3} (and below the",
        frontier,
        share.as_f64()
    );
    println!(
        "claimed {:.3} — the concentration gap specs/frontier_theorem5.json maps);",
        lower.as_f64()
    );
    println!("well below the Theorem-6 impossibility bound {:.3}.", upper.as_f64());
    assert!(frontier <= upper.as_f64() + 0.05, "cannot beat Theorem 6");
    assert!(frontier >= share.as_f64() - 0.08, "must roughly attain the activity share");
}
