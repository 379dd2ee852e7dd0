//! The analytic bounds of Table 1, as executable formulas.
//!
//! Every experiment compares a measured quantity against the corresponding
//! closed form from the paper; keeping the formulas in one place makes the
//! per-row reproduction auditable. Rates are exact rationals (thresholds
//! are compared exactly); bound magnitudes are `f64` (they only gate
//! assertions with explicit slack).

use emac_sim::Rate;

/// `C(n, k)` with saturation (panics on overflow rather than wrapping).
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    u64::try_from(acc).expect("binomial overflow")
}

/// `lg x = ⌈log2(x + 1)⌉`, the paper's §4.2 notation.
pub fn lg(x: u64) -> u64 {
    u64::from(64 - x.leading_zeros()) // ceil(log2(x+1)) for x >= 0
}

/// Row 1 — `Orchestra` queue bound: `2n³ + β` (Theorem 1).
pub fn orchestra_queue_bound(n: u64, beta: f64) -> f64 {
    2.0 * (n as f64).powi(3) + beta
}

/// Row 3 — `Count-Hop` latency bound: `2(n² + β)/(1 − ρ)` (Theorem 3).
pub fn count_hop_latency_bound(n: u64, rho: f64, beta: f64) -> f64 {
    2.0 * ((n * n) as f64 + beta) / (1.0 - rho)
}

/// `Count-Hop` latency bound of *this implementation*:
/// `2(2n² + β)/(1 − ρ)`.
///
/// Theorem 3's accounting charges `(n−1)²` control rounds per phase, which
/// covers the counting substage only; an executable protocol also needs the
/// offset substage (another `n(n−1)` rounds) so every station can track the
/// variable-length stage timeline. The asymptotic shape is unchanged; the
/// `n²` coefficient doubles. Table 1 row 3 and Count-Hop's latency test use it.
pub fn count_hop_impl_latency_bound(n: u64, rho: f64, beta: f64) -> f64 {
    2.0 * ((2 * n * n) as f64 + beta) / (1.0 - rho)
}

/// Row 4 — `Adjust-Window` latency bound: `(18n³·log²n + 2β)/(1 − ρ)`
/// (Theorem 4; `n` "sufficiently large", so small-n runs may exceed it —
/// the harness reports the ratio).
pub fn adjust_window_latency_bound(n: u64, rho: f64, beta: f64) -> f64 {
    let lgn = (n as f64).log2().max(1.0);
    (18.0 * (n as f64).powi(3) * lgn * lgn + 2.0 * beta) / (1.0 - rho)
}

/// Row 5 — `k-Cycle` stability threshold: `(k−1)/(n−1)` (Theorem 5).
pub fn k_cycle_rate_threshold(n: u64, k: u64) -> Rate {
    Rate::new(k - 1, n - 1)
}

/// Row 5 — `k-Cycle` latency bound: `(32 + β)·n` (Theorem 5).
pub fn k_cycle_latency_bound(n: u64, beta: f64) -> f64 {
    (32.0 + beta) * n as f64
}

/// Row 6 — no `k`-energy-oblivious algorithm is stable above `k/n`
/// (Theorem 6).
pub fn oblivious_rate_threshold(n: u64, k: u64) -> Rate {
    Rate::new(k, n)
}

/// Row 7 — `k-Clique` has bounded latency below `k²/(n(2n−k))`
/// (= 1/m where m is the number of pairs; Theorem 7).
pub fn k_clique_rate_threshold(n: u64, k: u64) -> Rate {
    Rate::new(k * k, n * (2 * n - k))
}

/// Row 7 — the rate at which the explicit latency bound holds:
/// `k²/(2n(2n−k))` (Theorem 7).
pub fn k_clique_rate_for_latency(n: u64, k: u64) -> Rate {
    Rate::new(k * k, 2 * n * (2 * n - k))
}

/// Row 7 — `k-Clique` latency bound: `8(n²/k)(1 + β/(2k))` (Theorem 7).
pub fn k_clique_latency_bound(n: u64, k: u64, beta: f64) -> f64 {
    8.0 * (n * n) as f64 / k as f64 * (1.0 + beta / (2.0 * k as f64))
}

/// Rows 8–9 — `k-Subsets` stability threshold and the matching upper bound
/// for oblivious direct routing: `k(k−1)/(n(n−1))` (Theorems 8 and 9).
pub fn k_subsets_rate_threshold(n: u64, k: u64) -> Rate {
    Rate::new(k * (k - 1), n * (n - 1))
}

/// Row 8 — `k-Subsets` queue bound: `2·C(n,k)·(n² + β)` (Theorem 8).
pub fn k_subsets_queue_bound(n: u64, k: u64, beta: f64) -> f64 {
    2.0 * binomial(n, k) as f64 * ((n * n) as f64 + beta)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_small_table() {
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(10, 4), 210);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(4, 7), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn lg_matches_paper_definition() {
        // lg x = ceil(log2(x+1))
        assert_eq!(lg(0), 0);
        assert_eq!(lg(1), 1);
        assert_eq!(lg(2), 2);
        assert_eq!(lg(3), 2);
        assert_eq!(lg(4), 3);
        assert_eq!(lg(7), 3);
        assert_eq!(lg(8), 4);
        assert_eq!(lg(15), 4);
        assert_eq!(lg(16), 5);
    }

    #[test]
    fn thresholds_are_ordered_as_in_the_paper() {
        // (k-1)/(n-1) < k/n for k < n
        let (n, k) = (12u64, 4u64);
        assert!(k_cycle_rate_threshold(n, k).lt(&oblivious_rate_threshold(n, k)));
        // k(k-1)/(n(n-1)) < (k-1)/(n-1)
        assert!(k_subsets_rate_threshold(n, k).lt(&k_cycle_rate_threshold(n, k)));
        // latency-rate for k-Clique is half its stability threshold
        assert!(k_clique_rate_for_latency(n, k).lt(&k_clique_rate_threshold(n, k)));
    }

    #[test]
    fn bound_magnitudes() {
        assert_eq!(orchestra_queue_bound(4, 2.0), 130.0);
        assert!((count_hop_latency_bound(8, 0.5, 1.0) - 260.0).abs() < 1e-9);
        let b = k_clique_latency_bound(8, 4, 2.0);
        assert!((b - 8.0 * 16.0 * 1.25).abs() < 1e-9);
        assert_eq!(k_subsets_queue_bound(6, 3, 2.0), 2.0 * 20.0 * 38.0);
        assert!((k_cycle_latency_bound(10, 1.0) - 330.0).abs() < 1e-9);
    }
}
