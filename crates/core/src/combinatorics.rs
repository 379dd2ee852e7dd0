//! Subset enumeration for `k-Subsets`.
//!
//! The algorithm fixes an enumeration `A_0, …, A_{γ−1}` of all `k`-element
//! subsets of `[n]` (paper §6); we use lexicographic order so the mapping
//! is canonical and testable.

use crate::bounds::binomial;

/// All `k`-element subsets of `{0, …, n−1}` in lexicographic order, back
/// to back in one vector: subset `i` is `out[i·k..(i+1)·k]`, ascending.
///
/// # Panics
/// Panics if the number of subsets exceeds `10^6` (a guard against
/// accidentally exponential configurations).
pub fn combinations(n: usize, k: usize) -> Vec<usize> {
    assert!(k >= 1 && k <= n, "need 1 <= k <= n");
    let gamma = binomial(n as u64, k as u64);
    assert!(gamma <= 1_000_000, "C({n},{k}) = {gamma} subsets is too many to simulate");
    let mut out = Vec::with_capacity(gamma as usize * k);
    let mut cur: Vec<usize> = (0..k).collect();
    loop {
        out.extend_from_slice(&cur);
        // advance to the next combination in lexicographic order
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if cur[i] != i + n - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        cur[i] += 1;
        for j in i + 1..k {
            cur[j] = cur[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexicographic_order_4_choose_2() {
        let c = combinations(4, 2);
        assert_eq!(c, vec![0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]);
    }

    #[test]
    fn counts_match_binomial() {
        for (n, k) in [(5, 1), (5, 5), (6, 3), (8, 4), (10, 3)] {
            let c = combinations(n, k);
            assert_eq!(c.len() as u64, k as u64 * binomial(n as u64, k as u64), "C({n},{k})");
            // all distinct, all sorted, all in range
            for s in c.chunks(k) {
                assert_eq!(s.len(), k);
                assert!(s.windows(2).all(|w| w[0] < w[1]));
                assert!(*s.last().unwrap() < n);
            }
            let set: std::collections::HashSet<_> = c.chunks(k).collect();
            assert_eq!(set.len(), c.len() / k);
        }
    }

    #[test]
    fn each_station_in_right_number_of_subsets() {
        // station v appears in C(n-1, k-1) subsets
        let (n, k) = (7usize, 3usize);
        let c = combinations(n, k);
        for v in 0..n {
            let count = c.chunks(k).filter(|s| s.contains(&v)).count() as u64;
            assert_eq!(count, binomial((n - 1) as u64, (k - 1) as u64));
        }
    }
}
