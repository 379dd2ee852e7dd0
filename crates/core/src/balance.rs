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
/// independent set of eligible threads, back to back in one flat vector:
/// a `k-Subsets` station keeps one row per destination. Picking the
/// least-loaded thread, ties to the smallest, from all-zero counts visits
/// a row's threads in ascending order and then starts over, so each row
/// keeps only the position its next packet goes to, not its counts.
#[derive(Clone, Debug)]
pub struct BalancedAllocator {
    /// Row `i` is `threads[i·width..(i+1)·width]`, ascending.
    threads: Vec<u32>,
    /// Per row, the position in the row of the thread its next packet
    /// goes to: every position before it has one allocation more than
    /// every position from it on.
    next: Vec<u32>,
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
        Self { next: vec![0; threads.len() / width], threads, width }
    }

    /// Allocate one packet in row `row`: returns the chosen thread
    /// (least-loaded, ties to the smallest thread index) and records it.
    pub fn pick_in(&mut self, row: usize) -> u32 {
        let at = self.next[row] as usize;
        self.next[row] = if at + 1 == self.width { 0 } else { at as u32 + 1 };
        self.threads[row * self.width + at]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The greedy rule on explicit counts: the first least count in a row
    /// of ascending threads is the least (count, thread) pair.
    fn greedy_pick(counts: &mut [u64]) -> usize {
        let best = (0..counts.len()).min_by_key(|&i| counts[i]).expect("non-empty");
        counts[best] += 1;
        best
    }

    #[test]
    fn round_robins_when_fresh() {
        let mut a = BalancedAllocator::rows(vec![2, 5, 9, 1, 4, 7], 3);
        // ties break to the smallest thread index, in each row on its own
        assert_eq!(a.pick_in(0), 2);
        assert_eq!(a.pick_in(0), 5);
        assert_eq!(a.pick_in(1), 1);
        assert_eq!(a.pick_in(0), 9);
        assert_eq!(a.pick_in(0), 2);
        assert_eq!(a.pick_in(1), 4);
    }

    #[test]
    #[should_panic(expected = "no eligible thread")]
    fn empty_thread_set_rejected() {
        BalancedAllocator::rows(vec![], 0);
    }

    #[test]
    fn imbalance_never_exceeds_one() {
        // exhaustive over all the sizes the algorithms use, deep pick runs
        // spread unevenly over three rows: every pick is the greedy
        // least-loaded pick, so the counts never differ by more than one
        for sizes in 1usize..20 {
            let threads = (0..3).flat_map(|_| 0..sizes as u32).collect();
            let mut a = BalancedAllocator::rows(threads, sizes);
            let mut counts = vec![vec![0u64; sizes]; 3];
            for picks in 1..=500usize {
                let row = [0, 0, 1, 0, 2][picks % 5];
                let greedy = greedy_pick(&mut counts[row]);
                assert_eq!(a.pick_in(row), greedy as u32, "sizes={sizes} picks={picks}");
                let spread = |c: &Vec<u64>| c.iter().max().unwrap() - c.iter().min().unwrap();
                assert!(counts.iter().all(|c| spread(c) <= 1), "sizes={sizes} picks={picks}");
                assert_eq!(counts.iter().flatten().sum::<u64>(), picks as u64);
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
