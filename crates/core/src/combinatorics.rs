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

/// Packed multi-word bitmask representation for arbitrary `n`: each subset
/// becomes `words_for(n)` consecutive `u64` words (row-major). Membership
/// of `x` in subset `i` is `out[i * words + x / 64] >> (x % 64) & 1`.
pub fn subset_masks_packed<'a>(
    subsets: impl ExactSizeIterator<Item = &'a [usize]>,
    n: usize,
) -> Vec<u64> {
    let words = emac_sim::bitset::words_for(n);
    let mut out = vec![0u64; subsets.len() * words];
    for (i, subset) in subsets.enumerate() {
        let row = &mut out[i * words..(i + 1) * words];
        for &x in subset {
            assert!(x < n, "subset member {x} out of range for n = {n}");
            emac_sim::bitset::row_set(row, x);
        }
    }
    out
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

    #[test]
    fn packed_masks_roundtrip_across_word_boundaries() {
        // subsets straddling the 64-bit word boundary (n = 70 > 64)
        let n = 70;
        let subsets = [vec![0, 63, 64], vec![1, 69], vec![]];
        let words = emac_sim::bitset::words_for(n);
        assert_eq!(words, 2);
        let m = subset_masks_packed(subsets.iter().map(Vec::as_slice), n);
        assert_eq!(m.len(), subsets.len() * words);
        for (i, s) in subsets.iter().enumerate() {
            for v in 0..n {
                let bit = m[i * words + (v >> 6)] >> (v & 63) & 1 != 0;
                assert_eq!(s.contains(&v), bit, "subset {i} member {v}");
            }
        }
        // for n <= 64 each subset is exactly one word of its member bits
        let c = combinations(6, 3);
        let packed = subset_masks_packed(c.chunks(3), 6);
        assert_eq!(packed.len(), c.len() / 3);
        for (s, &word) in c.chunks(3).zip(&packed) {
            assert_eq!(word, s.iter().fold(0u64, |m, &x| m | (1 << x)));
        }
    }
}
