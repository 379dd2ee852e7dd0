//! Balanced packet-to-thread allocation for `k-Subsets`.
//!
//! For each (source `v`, destination `w`) pair, station `v` spreads packets
//! over the `C(n−2, k−2)` threads whose subset contains both endpoints,
//! keeping the cumulative per-thread allocations "as balanced as possible"
//! (paper §6): after any sequence of allocations the counts differ by at
//! most 1 — the invariant Theorem 8's stability argument rests on, and
//! which we property-test.

/// Greedy balanced allocation over fixed sets of eligible threads.
///
/// One allocator holds any number of equally wide *rows*, each an
/// independent set of eligible threads with its own cumulative counts,
/// back to back in two flat vectors: a `k-Subsets` station keeps one row
/// per destination.
#[derive(Clone, Debug)]
pub struct BalancedAllocator {
    /// Row `i` is `threads[i·width..(i+1)·width]`, ascending.
    threads: Vec<u32>,
    /// The cumulative allocations, at the positions of `threads`.
    counts: Vec<u64>,
    width: usize,
}

impl BalancedAllocator {
    /// `threads.len() / width` allocators: row `i` spreads over the
    /// eligible threads `threads[i·width..(i+1)·width]`, which must be
    /// ascending for deterministic tie-breaking.
    pub fn rows(threads: Vec<u32>, width: usize) -> Self {
        assert!(width > 0, "a packet with no eligible thread cannot be routed");
        assert!(threads.len().is_multiple_of(width), "rows must all be {width} threads wide");
        debug_assert!(threads.chunks(width).all(|row| row.is_sorted()), "rows must be ascending");
        Self { counts: vec![0; threads.len()], threads, width }
    }

    /// Allocate one packet in row `row`: returns the chosen thread
    /// (least-loaded, ties to the smallest thread index) and records it.
    pub fn pick_in(&mut self, row: usize) -> u32 {
        let start = row * self.width;
        // The row is ascending, so the first least count is the least
        // (count, thread) pair.
        let best = (start..start + self.width).min_by_key(|&i| self.counts[i]).expect("non-empty");
        self.counts[best] += 1;
        self.threads[best]
    }

    /// The largest spread between a row's largest and smallest
    /// cumulative count.
    pub fn imbalance(&self) -> u64 {
        self.counts
            .chunks(self.width)
            .map(|row| row.iter().max().expect("non-empty") - row.iter().min().expect("non-empty"))
            .max()
            .expect("non-empty")
    }

    /// Total packets allocated.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robins_when_fresh() {
        let mut a = BalancedAllocator::rows(vec![2, 5, 9, 1, 4, 7], 3);
        // ties break to the smallest thread index, in each row on its own
        assert_eq!(a.pick_in(0), 2);
        assert_eq!(a.pick_in(0), 5);
        assert_eq!(a.pick_in(1), 1);
        assert_eq!(a.pick_in(0), 9);
        assert_eq!(a.pick_in(0), 2);
        assert_eq!(a.imbalance(), 1);
    }

    #[test]
    #[should_panic(expected = "no eligible thread")]
    fn empty_thread_set_rejected() {
        BalancedAllocator::rows(vec![], 0);
    }

    #[test]
    fn imbalance_never_exceeds_one() {
        // exhaustive over all the sizes the algorithms use, deep pick runs
        // spread unevenly over three rows
        for sizes in 1usize..20 {
            let threads = (0..3).flat_map(|_| 0..sizes as u32).collect();
            let mut a = BalancedAllocator::rows(threads, sizes);
            for picks in 1..=500usize {
                a.pick_in([0, 0, 1, 0, 2][picks % 5]);
                assert!(a.imbalance() <= 1, "sizes={sizes} picks={picks}");
                assert_eq!(a.total(), picks as u64);
            }
        }
    }

    #[test]
    fn deterministic_across_replicas() {
        let mut rng = emac_sim::SmallRng::seed_from_u64(0xba1a);
        for _ in 0..64 {
            let len = rng.random_range(1..10);
            let mut t: Vec<u32> = (0..len).map(|_| rng.random_range(0..100) as u32).collect();
            t.sort_unstable();
            t.dedup();
            let width = t.len();
            let mut a = BalancedAllocator::rows(t.clone(), width);
            let mut b = BalancedAllocator::rows(t, width);
            for _ in 0..50 {
                assert_eq!(a.pick_in(0), b.pick_in(0));
            }
        }
    }
}
